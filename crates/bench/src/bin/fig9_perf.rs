//! Regenerates **Figure 9**: execution time normalized to NOWL for
//! every PARSEC benchmark under BWL, SR and TWL.
//!
//! Paper averages: BWL +6.48 %, SR +1.97 %, TWL +1.90 %, with TWL's
//! worst case +2.7 % on vips (the highest-bandwidth benchmark).
//!
//! Performance runs use a nominal-endurance device (wear never matters)
//! and drive each benchmark's calibrated workload at the request rate
//! its Table 2 bandwidth implies.
//!
//! Run: `cargo run --release -p twl-bench --bin fig9_perf [-- --pages N ...]`

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{build_scheme_spec, SchemeKind};
use twl_memctrl::{simulate_execution, simulate_execution_banked, MemCtrlConfig, PerfReport};
use twl_pcm::{PcmConfig, PcmDevice, PcmError};
use twl_wl_core::WearLeveler;
use twl_workloads::{MemCmd, ParsecBenchmark};

/// Requests simulated per benchmark/scheme pair.
const REQUESTS: u64 = 400_000;

/// Share of a benchmark's requests that are reads.
const READ_FRACTION: f64 = 0.55;

/// An execution-time model: `simulate_execution` or
/// `simulate_execution_banked`.
type Model = fn(
    &MemCtrlConfig,
    &mut dyn WearLeveler,
    &mut PcmDevice,
    &mut dyn Iterator<Item = MemCmd>,
    u64,
) -> Result<PerfReport, PcmError>;

/// One table row: `bench`'s execution time under each of `schemes`
/// through `model`, normalized to NOWL's on the identical command stream.
fn normalized_row(
    model: Model,
    config: &ExperimentConfig,
    pcm: &PcmConfig,
    bench: ParsecBenchmark,
    schemes: &[SchemeKind],
) -> Vec<f64> {
    let ctrl = MemCtrlConfig::for_bandwidth(
        bench.write_bandwidth_mbps(),
        pcm.page_size_bytes,
        READ_FRACTION,
    );
    let run = |kind: SchemeKind| {
        let mut device = PcmDevice::new(pcm);
        let mut scheme = build_scheme_spec(&kind.into(), &device)
            .unwrap_or_else(|e| panic!("cannot build {kind}: {e}"));
        let mut workload = bench.workload(config.pages, config.seed);
        model(&ctrl, scheme.as_mut(), &mut device, &mut workload, REQUESTS)
            .expect("nominal endurance cannot wear out")
    };
    let base = run(SchemeKind::Nowl);
    schemes
        .iter()
        .map(|&kind| run(kind).normalized_to(&base))
        .collect()
}

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
        let normalized = normalized_row(simulate_execution, &config, &pcm, bench, &schemes);
        let mut cells = vec![bench.name().to_owned()];
        for (sum, n) in sums.iter_mut().zip(&normalized) {
            *sum += n;
            cells.push(format!("{n:.4}"));
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
        let normalized = normalized_row(simulate_execution_banked, &config, &pcm, bench, &schemes);
        let mut cells = vec![bench.name().to_owned()];
        cells.extend(normalized.iter().map(|n| format!("{n:.4}")));
        rows.push(cells);
    }
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}
