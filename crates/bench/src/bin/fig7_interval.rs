//! Regenerates **Figure 7**: choosing the toss-up interval.
//!
//! * (a) swap/write ratio vs toss-up interval, geometric mean over the
//!   PARSEC workloads (paper: 37.9 % at interval 1, falling ∝ 1/interval,
//!   ≈2.2 % extra writes at 32);
//! * (b) lifetime under the scan attack vs toss-up interval (paper:
//!   crosses the 3-year server-replacement floor near interval 32–64).
//!
//! The whole figure is two declarative [`SchemeSpec`] matrices —
//! `TWL_swp[ti=N]` for each interval — submitted to the shared sweep
//! runner, so the cells run on the worker pool with the batched fast
//! path, and the same study can be submitted to `twl-serviced` with
//! `twl-ctl submit --schemes "TWL_swp[ti=1],TWL_swp[ti=2],..."`.
//!
//! Run: `cargo run --release -p twl-bench --bin fig7_interval [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, SchemeSpec, SimLimits};
use twl_pcm::PcmConfig;
use twl_workloads::{parse_workload_list, ParsecBenchmark, WorkloadSpec};

/// Writes driven per benchmark for the swap-ratio measurement.
const RATIO_WRITES: u64 = 400_000;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fig7_interval", &config);
    println!("Figure 7: toss-up interval selection");
    println!(
        "device: {} pages, mean endurance {} (attack runs), seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );

    let intervals = [1u64, 2, 4, 8, 16, 32, 64, 128];
    let specs: Vec<SchemeSpec> = intervals
        .iter()
        .map(|i| {
            format!("TWL_swp[ti={i}]")
                .parse()
                .expect("interval spec label parses")
        })
        .collect();

    // Both panels' workload axes, as data.
    let benchmarks: Vec<WorkloadSpec> = ParsecBenchmark::ALL.map(WorkloadSpec::from).to_vec();
    let scan = parse_workload_list("scan").expect("scan axis parses");

    // (a) Swap/write ratio over PARSEC, on a wear-proof device so the
    // measurement window is identical across intervals.
    let ratio_pcm = PcmConfig::scaled(config.pages, 100_000_000, config.seed);
    let ratio_limits = SimLimits {
        max_logical_writes: RATIO_WRITES,
    };
    let ratio_reports = lifetime_matrix(&ratio_pcm, &specs, &benchmarks, &ratio_limits);

    // (b) Lifetime under the scan attack on the endurance-limited device.
    let scan_reports = lifetime_matrix(&config.pcm_config(), &specs, &scan, &SimLimits::default());

    let headers = [
        "interval",
        "swap/write (Gmean)",
        "extra writes",
        "scan lifetime (yr)",
    ];
    let per_spec = ParsecBenchmark::ALL.len();
    let rows: Vec<Vec<String>> = intervals
        .iter()
        .enumerate()
        .map(|(i, interval)| {
            let chunk = &ratio_reports[i * per_spec..(i + 1) * per_spec];
            let log_sum: f64 = chunk.iter().map(|r| r.swap_per_write.max(1e-9).ln()).sum();
            let gmean_ratio = (log_sum / per_spec as f64).exp();
            let mean_extra =
                chunk.iter().map(|r| r.extra_write_ratio).sum::<f64>() / per_spec as f64;
            vec![
                interval.to_string(),
                format!("{:.3}", gmean_ratio),
                format!("{:.3}", mean_extra),
                format!("{:.2}", scan_reports[i].years),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!("\nminimum server-replacement requirement: 3 years (paper picks interval 32)");
    twl_bench::finish_telemetry();
}
