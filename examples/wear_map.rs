//! Visualize how differently the schemes distribute wear: an ASCII
//! wear-ratio heatmap of the device after a fixed write budget under a
//! skewed workload, plus a wear-percentile table, with the full
//! telemetry trace exported as JSONL for `twl-stats`.
//!
//! Each heatmap cell is a physical frame; the glyph encodes
//! wear/endurance: `.` < 10 %, `-` < 30 %, `+` < 60 %, `#` < 90 %,
//! `!` ≥ 90 %.
//!
//! Run: `cargo run --release --example wear_map`
//! Then: `cargo run --release --bin twl-stats -- results/wear_map.trace.jsonl`

#![forbid(unsafe_code)]

use tossup_wl::lifetime::{build_scheme_spec, SchemeKind};
use tossup_wl::pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
use tossup_wl::telemetry::{JsonlSink, TelemetryRecord, WearMapSampler};
use tossup_wl::workloads::{SyntheticWorkload, WorkloadConfig};

const PAGES: u64 = 1024;
const BUDGET: u64 = 6_000_000;
const TRACE_PATH: &str = "results/wear_map.trace.jsonl";

fn glyph(ratio: f64) -> char {
    match ratio {
        r if r < 0.10 => '.',
        r if r < 0.30 => '-',
        r if r < 0.60 => '+',
        r if r < 0.90 => '#',
        _ => '!',
    }
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let pcm = PcmConfig::builder()
        .pages(PAGES)
        .mean_endurance(20_000)
        .seed(11)
        .build()?;

    tossup_wl::telemetry::install_sink(JsonlSink::create(TRACE_PATH)?);
    tossup_wl::telemetry::emit(&TelemetryRecord::RunStart {
        tool: "wear_map".to_owned(),
        pages: PAGES,
        mean_endurance: 20_000,
        seed: 11,
    });

    let mut percentile_rows = Vec::new();
    for kind in [
        SchemeKind::Nowl,
        SchemeKind::Sr,
        SchemeKind::Bwl,
        SchemeKind::TwlSwp,
    ] {
        let mut device = PcmDevice::new(&pcm);
        let mut scheme = build_scheme_spec(&kind.into(), &device)?;
        let mut workload = SyntheticWorkload::new(&WorkloadConfig {
            pages: PAGES,
            footprint: PAGES / 2,
            zipf_alpha: 0.9,
            read_fraction: 0.0,
            seed: 5,
        });
        // Snapshot the wear map 16 times across the budget into the
        // trace, so twl-stats (or a plotting script) can see the
        // inequality evolve, not just the end state.
        let mut sampler = WearMapSampler::new(BUDGET / 16, 16);
        let mut died_at = None;
        for i in 0..BUDGET {
            match scheme.write(workload.next_write_la(), &mut device) {
                Ok(out) => {
                    if let Some(snapshot) =
                        sampler.observe(u64::from(out.device_writes), device.wear_counters())
                    {
                        tossup_wl::telemetry::emit(&TelemetryRecord::Wear {
                            scheme: kind.label().to_owned(),
                            workload: "zipf-0.9".to_owned(),
                            snapshot: snapshot.clone(),
                        });
                    }
                }
                Err(_) => {
                    died_at = Some(i);
                    break;
                }
            }
        }
        let summary = sampler.snapshot_now(device.wear_counters()).summary.clone();
        let stats = device.wear_stats();
        println!(
            "\n=== {} ===  writes: {}{}  gini {:.3}  max wear-ratio {:.2}",
            kind.label(),
            died_at.unwrap_or(BUDGET),
            if died_at.is_some() { " (DIED)" } else { "" },
            stats.wear_gini,
            stats.max_wear_ratio,
        );
        for row in 0..16u64 {
            let line: String = (0..64)
                .map(|col| {
                    let pa = PhysicalPageAddr::new(row * 64 + col);
                    glyph(device.wear(pa) as f64 / device.endurance(pa) as f64)
                })
                .collect();
            println!("  {line}");
        }
        percentile_rows.push(vec![
            kind.label().to_owned(),
            format!("{:.1}", summary.mean),
            format!("{:.3}", summary.cov),
            format!("{:.3}", summary.gini),
            summary.p50.to_string(),
            summary.p90.to_string(),
            summary.p99.to_string(),
            summary.max.to_string(),
        ]);
    }
    println!("\nLegend: . <10%  - <30%  + <60%  # <90%  ! >=90% of the frame's own endurance");

    println!("\nPer-page wear distribution after the budget:\n");
    let headers = ["scheme", "mean", "cov", "gini", "p50", "p90", "p99", "max"];
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            percentile_rows
                .iter()
                .map(|r| r[i].len())
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let print_row = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    print_row(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    println!("  {}", "-".repeat(widths.iter().sum::<usize>() + 2 * 7));
    for row in &percentile_rows {
        print_row(row);
    }

    tossup_wl::telemetry::clear_sinks();
    println!(
        "\ntrace written to {TRACE_PATH} (inspect with: cargo run --bin twl-stats -- {TRACE_PATH})"
    );
    Ok(())
}
