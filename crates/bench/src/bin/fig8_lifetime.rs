//! Regenerates **Figure 8**: lifetime normalized to ideal for every
//! PARSEC benchmark under BWL, SR, TWL and NOWL.
//!
//! Paper averages: SR ≈ 44 %, BWL ≈ 75.6 %, TWL ≈ 79.6 % of ideal.
//!
//! Run: `cargo run --release -p twl-bench --bin fig8_lifetime [-- --pages N ...]`

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, SchemeKind, SimLimits};
use twl_workloads::ParsecBenchmark;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fig8_lifetime", &config);
    println!("Figure 8: normalized lifetime under PARSEC workloads");
    println!(
        "device: {} pages, mean endurance {}, seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );

    let schemes = SchemeKind::FIG8;
    let mut headers: Vec<&str> = vec!["benchmark"];
    headers.extend(schemes.iter().map(|s| s.label()));
    let mut sums = vec![0.0f64; schemes.len()];
    let mut rows = Vec::new();

    let reports = lifetime_matrix(
        &config.pcm_config(),
        &schemes,
        &ParsecBenchmark::ALL,
        &SimLimits::default(),
    );
    for (b, bench) in ParsecBenchmark::ALL.iter().enumerate() {
        let mut cells = vec![bench.name().to_owned()];
        for (i, _) in schemes.iter().enumerate() {
            let report = &reports[i * ParsecBenchmark::ALL.len() + b];
            sums[i] += report.normalized_lifetime();
            cells.push(format!("{:.3}", report.normalized_lifetime()));
        }
        rows.push(cells);
    }

    let mut mean_row = vec!["MEAN".to_owned()];
    for sum in &sums {
        mean_row.push(format!("{:.3}", sum / ParsecBenchmark::ALL.len() as f64));
    }
    rows.push(mean_row);
    print_table(&headers, &rows);
    println!("\npaper means: BWL 0.756, SR 0.44, TWL 0.796");
    twl_bench::finish_telemetry();
}
