//! Capture-format round trip, as a property: for arbitrary block-write
//! streams, serializing the gateway's capture through the
//! `twl-workloads` trace codec and replaying the deserialized stream
//! through a fresh gateway reproduces the wear map and `WlStats` bit
//! for bit.
//!
//! This is the schema-stability test for `capture.trace`: the on-disk
//! bytes are the 9-byte-per-command binary codec, written here through
//! the streaming `TraceWriter` (the daemon's appender) and read back
//! with `read_trace` (the replayer's reader), so any drift between the
//! two halves of the codec fails the property.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use twl_blockdev::{BlockGeometry, GatewayConfig, WearGateway};
use twl_pcm::LogicalPageAddr;
use twl_workloads::{read_trace, TraceWriter};

fn config(scheme: &str) -> GatewayConfig {
    GatewayConfig {
        pages: 64,
        mean_endurance: 20_000,
        seed: 3,
        scheme: scheme.parse().expect("scheme label"),
        spare_fraction: 0.05,
        fault_seed: 0xFA17,
    }
}

const GEOMETRY: BlockGeometry = BlockGeometry {
    bytes_per_page: 512,
    data_pages: 64,
};

/// Applies a stream of (offset, len) block writes the way the server
/// does — one gateway write per touched page — and returns the gateway.
fn apply(cfg: &GatewayConfig, blocks: &[(u64, u64)]) -> WearGateway {
    let mut gateway = WearGateway::new(cfg.clone()).expect("build gateway");
    for &(offset, len) in blocks {
        for page in GEOMETRY.pages_touched(offset, len) {
            // End of life mid-stream is a legal outcome; the capture
            // still records the attempt, exactly like the live server.
            let _ = gateway.write_page(LogicalPageAddr::new(page));
        }
    }
    gateway
}

/// Strategy: in-range, possibly page-straddling block writes — an
/// offset anywhere in the export and a length up to four pages,
/// clamped to the export's end.
fn block_writes() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let export = GEOMETRY.export_bytes();
    proptest::collection::vec(
        (0..export, 1..4 * 512 + 1u64)
            .prop_map(move |(offset, len)| (offset, len.min(export - offset))),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn capture_serialize_replay_is_bit_identical(
        blocks in block_writes(),
        scheme_idx in 0usize..4,
    ) {
        let scheme = ["TWL_swp", "SR", "BWL", "NOWL"][scheme_idx];
        let cfg = config(scheme);
        let live = apply(&cfg, &blocks);

        // Serialize the capture through the streaming writer the daemon
        // uses, then read it back with the replayer's reader.
        let mut writer = TraceWriter::new(Vec::new());
        for &cmd in live.capture() {
            writer.append(cmd).expect("append");
        }
        prop_assert_eq!(writer.written(), live.capture().len() as u64);
        let bytes = writer.into_inner();
        prop_assert_eq!(bytes.len() as u64, 9 * live.capture().len() as u64);
        let decoded = read_trace(bytes.as_slice()).expect("decode");
        prop_assert_eq!(decoded.as_slice(), live.capture());

        // Replay the deserialized stream: same wear map, same WlStats.
        let replayed = WearGateway::replay(cfg, &decoded).expect("replay");
        prop_assert_eq!(replayed.probe(), live.probe());
        prop_assert_eq!(replayed.wear_counters(), live.wear_counters());
        prop_assert_eq!(replayed.stats(), live.stats());
    }
}
