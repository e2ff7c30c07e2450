//! Pins the `twl.core` metrics of TWL's batched `write_batch` to its
//! scalar `write`, down to a write that fails mid-event.
//!
//! The metrics registry is process-wide and the engine's unit tests
//! write through TWL concurrently, so this file is its own test binary
//! with a single `#[test]`: every delta it reads comes from its own runs.

use twl_core::{PairingStrategy, TossUpWearLeveling, TwlConfig};
use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice, PcmError};
use twl_wl_core::WearLeveler;

/// How a run's failing write died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Death {
    /// On a request write, or on a migration that cannot be told apart
    /// from one.
    Other,
    /// On the second write of a naive toss-up migration.
    TossMigration,
    /// Inside an inter-pair swap.
    InterPairSwap,
}

/// The `twl.core` counters and blocking-cycles histogram totals.
fn core_metrics() -> Vec<(String, u64)> {
    let snap = twl_telemetry::global().snapshot();
    let mut values: Vec<(String, u64)> = snap
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("twl.core."))
        .collect();
    for h in snap.histograms {
        if h.name == "twl.core.blocking_cycles" {
            values.push((format!("{}.count", h.name), h.count));
            values.push((format!("{}.sum", h.name), h.sum));
            for (i, b) in h.buckets.iter().enumerate() {
                values.push((format!("{}.bucket{i}", h.name), *b));
            }
        }
    }
    values
}

/// What a run added to each of `core_metrics`.
fn metric_delta<T>(run: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    let before = core_metrics();
    let out = run();
    let delta = core_metrics()
        .into_iter()
        .map(|(name, v)| {
            let old = before
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v);
            (name, v - old)
        })
        .collect();
    (out, delta)
}

fn setup(seed: u64, optimized: bool, pairing: PairingStrategy) -> (PcmDevice, TossUpWearLeveling) {
    let pcm = PcmConfig::builder()
        .pages(16)
        .mean_endurance(300)
        .seed(seed)
        .build()
        .unwrap();
    let device = PcmDevice::new(&pcm);
    let config = TwlConfig::builder()
        .toss_up_interval(3)
        .inter_pair_swap_interval(5)
        .optimized_swap(optimized)
        .pairing(pairing)
        .rng_seed(seed)
        .build()
        .unwrap();
    let twl = TossUpWearLeveling::new(&config, device.endurance_map());
    (device, twl)
}

/// Scalar writes to wear-out: the writes serviced, the failure and how
/// the failing write died.
fn scalar_run(
    device: &mut PcmDevice,
    twl: &mut TossUpWearLeveling,
    la: LogicalPageAddr,
) -> (u64, PcmError, Death) {
    let naive = !twl.config().optimized_swap;
    let mut serviced = 0;
    loop {
        let tosses = twl.toss_ups();
        let swaps = twl.inter_pair_swaps();
        let partner = twl.pair_table().partner(twl.translate(la));
        let writes = device.total_writes();
        match twl.write(la, device) {
            Ok(_) => serviced += 1,
            Err(e) => {
                // A naive toss migration rewrites the addressed frame,
                // then the partner; the request write follows it.
                let landed = device.total_writes() - writes;
                let death = if twl.inter_pair_swaps() > swaps {
                    Death::InterPairSwap
                } else if naive
                    && twl.toss_ups() > tosses
                    && landed == 1
                    && matches!(e, PcmError::PageWornOut { addr, .. } if addr == partner)
                {
                    Death::TossMigration
                } else {
                    Death::Other
                };
                return (serviced, e, death);
            }
        }
    }
}

/// Batched writes to wear-out, in batches of varying length.
fn batched_run(
    device: &mut PcmDevice,
    twl: &mut TossUpWearLeveling,
    la: LogicalPageAddr,
) -> (u64, PcmError) {
    let mut serviced = 0;
    for n in [2, 7, 64, 1000].into_iter().cycle() {
        let batch = twl.write_batch(la, n, device);
        serviced += batch.serviced;
        if let Some(e) = batch.failure {
            return (serviced, e);
        }
        assert_eq!(batch.serviced, n);
    }
    unreachable!()
}

#[test]
fn batched_metrics_match_scalar_metrics() {
    let mut deaths = Vec::new();
    for optimized in [true, false] {
        for pairing in [PairingStrategy::StrongWeak, PairingStrategy::Adjacent] {
            for seed in 0..12 {
                let case = format!("optimized={optimized} {pairing:?} seed={seed}");
                let la = LogicalPageAddr::new(seed % 16);
                let (mut dev_seq, mut seq) = setup(seed, optimized, pairing);
                let ((serviced, failure, death), scalar) =
                    metric_delta(|| scalar_run(&mut dev_seq, &mut seq, la));
                let (mut dev_bulk, mut bulk) = setup(seed, optimized, pairing);
                let ((bulk_serviced, bulk_failure), batched) =
                    metric_delta(|| batched_run(&mut dev_bulk, &mut bulk, la));

                assert_eq!(bulk_serviced, serviced, "{case}");
                assert_eq!(bulk_failure, failure, "{case}");
                assert_eq!(bulk.stats(), seq.stats(), "{case}");
                assert_eq!(bulk.toss_ups(), seq.toss_ups(), "{case}");
                assert_eq!(bulk.inter_pair_swaps(), seq.inter_pair_swaps(), "{case}");
                assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters(), "{case}");
                assert_eq!(batched, scalar, "{case}");
                let count = |name: &str| scalar.iter().find(|(n, _)| n == name).unwrap().1;
                assert_eq!(count("twl.core.writes"), serviced, "{case}");
                assert_eq!(count("twl.core.toss_ups"), seq.toss_ups(), "{case}");
                assert_eq!(
                    count("twl.core.inter_pair_swaps"),
                    seq.inter_pair_swaps(),
                    "{case}"
                );
                assert!(count("twl.core.toss_swaps") > 0, "{case}");
                deaths.push(death);
            }
        }
    }
    // The cases include deaths in the middle of both kinds of event.
    assert!(deaths.contains(&Death::TossMigration), "{deaths:?}");
    assert!(deaths.contains(&Death::InterPairSwap), "{deaths:?}");
}
