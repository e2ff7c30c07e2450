//! Regenerates **Table 2**: per-PARSEC-benchmark write bandwidth, ideal
//! lifetime, and lifetime without wear leveling.
//!
//! The bandwidths are the paper's measured inputs; the ideal lifetimes
//! come from the calibrated years conversion (`DESIGN.md` §3) and the
//! NOWL lifetimes from simulating each calibrated synthetic workload
//! against an unprotected device until a page dies.
//!
//! Run: `cargo run --release -p twl-bench --bin table2 [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{run_lifetime_cell, Calibration, SchemeKind, SimLimits};
use twl_workloads::ParsecBenchmark;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("table2", &config);
    println!("Table 2: PARSEC benchmarks (simulated NOWL vs paper)");
    println!(
        "device: {} pages, mean endurance {}, seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );
    let headers = [
        "benchmark",
        "BW (MB/s)",
        "ideal (yr)",
        "paper ideal",
        "no-WL (yr)",
        "paper no-WL",
    ];
    let mut rows = Vec::new();
    for bench in ParsecBenchmark::ALL {
        let calibration = Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps());
        let report = run_lifetime_cell(
            &config.pcm_config(),
            SchemeKind::Nowl,
            bench,
            &SimLimits::default(),
        );
        rows.push(vec![
            bench.name().to_owned(),
            format!("{:.0}", bench.write_bandwidth_mbps()),
            format!("{:.1}", calibration.ideal_years()),
            format!("{:.1}", bench.ideal_years_paper()),
            format!("{:.1}", report.years),
            format!("{:.1}", bench.nowl_years_paper()),
        ]);
    }
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}
