//! Server-lifetime planning: how many years does a PCM main memory
//! last under your workload mix, per wear-leveling scheme?
//!
//! Uses the calibrated PARSEC-like workloads (Table 2 bandwidths and
//! locality) and the paper's years conversion.
//!
//! Run: `cargo run --release --example server_lifetime [-- <benchmark>]`

#![forbid(unsafe_code)]

use std::env;
use tossup_wl::lifetime::{run_lifetime_cell, Calibration, SchemeKind, SimLimits};
use tossup_wl::pcm::PcmConfig;
use tossup_wl::workloads::ParsecBenchmark;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let filter = env::args().nth(1);
    let benchmarks: Vec<ParsecBenchmark> = ParsecBenchmark::ALL
        .into_iter()
        .filter(|b| filter.as_deref().is_none_or(|f| b.name() == f))
        .collect();
    if benchmarks.is_empty() {
        eprintln!(
            "unknown benchmark {:?}; choose one of: {}",
            filter,
            ParsecBenchmark::ALL.map(|b| b.name()).join(", ")
        );
        std::process::exit(1);
    }

    let pcm = PcmConfig::builder()
        .pages(2048)
        .mean_endurance(20_000)
        .seed(3)
        .build()?;
    println!(
        "{:>14}  {:>9}  {:>10}  {:>8}  {:>8}  {:>8}",
        "benchmark", "BW (MB/s)", "ideal (yr)", "NOWL", "SR", "TWL"
    );

    for bench in benchmarks {
        let calibration = Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps());
        let mut years = Vec::new();
        for kind in [SchemeKind::Nowl, SchemeKind::Sr, SchemeKind::TwlSwp] {
            let report = run_lifetime_cell(&pcm, kind, bench, &SimLimits::default());
            years.push(report.years);
        }
        println!(
            "{:>14}  {:>9.0}  {:>10.1}  {:>8.1}  {:>8.1}  {:>8.1}",
            bench.name(),
            bench.write_bandwidth_mbps(),
            calibration.ideal_years(),
            years[0],
            years[1],
            years[2],
        );
    }
    println!("\n(3-4 years is the server replacement cycle the paper targets.)");
    Ok(())
}
