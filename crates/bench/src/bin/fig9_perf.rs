//! Regenerates **Figure 9**: execution time normalized to NOWL for
//! every PARSEC benchmark under BWL, SR and TWL.
//!
//! Paper averages: BWL +6.48 %, SR +1.97 %, TWL +1.90 %, with TWL's
//! worst case +2.7 % on vips (the highest-bandwidth benchmark).
//!
//! Performance runs use a nominal-endurance device (wear never matters)
//! and drive each benchmark's calibrated workload at the arrival rate
//! its Table 2 bandwidth implies.
//!
//! Run: `cargo run --release -p twl-bench --bin fig9_perf [-- --pages N ...]`

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{build_scheme_spec, SchemeKind};
use twl_memctrl::{simulate_execution, simulate_execution_banked, MemCtrlConfig};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_workloads::ParsecBenchmark;

/// Requests simulated per benchmark/scheme pair.
const REQUESTS: u64 = 400_000;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fig9_perf", &config);
    println!("Figure 9: normalized execution time (vs NOWL)");
    println!(
        "device: {} pages (nominal endurance), seed {}\n",
        config.pages, config.seed
    );
    let pcm = PcmConfig::scaled(config.pages, 100_000_000, config.seed);

    let schemes = [SchemeKind::Bwl, SchemeKind::Sr, SchemeKind::TwlSwp];
    let mut headers: Vec<&str> = vec!["benchmark"];
    headers.extend(schemes.iter().map(|s| s.label()));
    let mut sums = vec![0.0f64; schemes.len()];
    let mut rows = Vec::new();

    for bench in ParsecBenchmark::ALL {
        let read_fraction = 0.55;
        let ctrl = MemCtrlConfig::for_bandwidth(
            bench.write_bandwidth_mbps(),
            pcm.page_size_bytes,
            read_fraction,
        );

        // Baseline: NOWL on the identical command stream.
        let mut base_device = PcmDevice::new(&pcm);
        let mut nowl =
            build_scheme_spec(&SchemeKind::Nowl.into(), &base_device).expect("NOWL builds");
        let mut workload = bench.workload(config.pages, config.seed);
        let base = simulate_execution(
            &ctrl,
            nowl.as_mut(),
            &mut base_device,
            &mut workload,
            REQUESTS,
        )
        .expect("nominal endurance cannot wear out");

        let mut cells = vec![bench.name().to_owned()];
        for (i, &kind) in schemes.iter().enumerate() {
            let mut device = PcmDevice::new(&pcm);
            let mut scheme = build_scheme_spec(&kind.into(), &device)
                .unwrap_or_else(|e| panic!("cannot build {kind}: {e}"));
            let mut workload = bench.workload(config.pages, config.seed);
            let report =
                simulate_execution(&ctrl, scheme.as_mut(), &mut device, &mut workload, REQUESTS)
                    .expect("nominal endurance cannot wear out");
            let normalized = report.normalized_to(&base);
            sums[i] += normalized;
            cells.push(format!("{normalized:.4}"));
        }
        rows.push(cells);
    }

    let mut mean_row = vec!["MEAN".to_owned()];
    for sum in &sums {
        mean_row.push(format!("{:.4}", sum / ParsecBenchmark::ALL.len() as f64));
    }
    rows.push(mean_row);
    print_table(&headers, &rows);
    println!("\npaper means: BWL 1.0648, SR 1.0197, TWL 1.0190 (TWL max 1.027 on vips)");

    // Cross-check with the bank-level model on the extremes (vips is
    // the paper's worst case, streamcluster the idlest).
    println!("\nbank-level model cross-check (vips / streamcluster):");
    let mut rows = Vec::new();
    for bench in [ParsecBenchmark::Vips, ParsecBenchmark::Streamcluster] {
        let ctrl =
            MemCtrlConfig::for_bandwidth(bench.write_bandwidth_mbps(), pcm.page_size_bytes, 0.55);
        let mut base_device = PcmDevice::new(&pcm);
        let mut nowl =
            build_scheme_spec(&SchemeKind::Nowl.into(), &base_device).expect("NOWL builds");
        let mut workload = bench.workload(config.pages, config.seed);
        let base = simulate_execution_banked(
            &ctrl,
            nowl.as_mut(),
            &mut base_device,
            &mut workload,
            REQUESTS,
        )
        .expect("nominal endurance cannot wear out");
        let mut cells = vec![bench.name().to_owned()];
        for &kind in &schemes {
            let mut device = PcmDevice::new(&pcm);
            let mut scheme = build_scheme_spec(&kind.into(), &device)
                .unwrap_or_else(|e| panic!("cannot build {kind}: {e}"));
            let mut workload = bench.workload(config.pages, config.seed);
            let report = simulate_execution_banked(
                &ctrl,
                scheme.as_mut(),
                &mut device,
                &mut workload,
                REQUESTS,
            )
            .expect("nominal endurance cannot wear out");
            cells.push(format!("{:.4}", report.normalized_to(&base)));
        }
        rows.push(cells);
    }
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}
