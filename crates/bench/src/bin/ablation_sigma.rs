//! Extension study: how does the strength of process variation change
//! the picture?
//!
//! The paper fixes σ = 11 % of the mean. This sweep varies σ and runs
//! the scan attack (TWL's worst case) plus the inconsistent attack for
//! the main schemes. Expectations: at σ = 0 every PV-aware mechanism
//! degenerates (all pages equal — nothing to exploit, nothing to
//! protect); as σ grows, the gap between PV-aware TWL and PV-blind SR
//! widens, and the inconsistent attack's payoff against BWL grows with
//! the weak pages' weakness.
//!
//! Each sigma row is a scheme × attack matrix submitted to the shared
//! sweep runner — the cells run on the worker pool with the batched
//! fast path.
//!
//! Run: `cargo run --release -p twl-bench --bin ablation_sigma [-- --pages N ...]`

use twl_attacks::AttackKind;
use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("ablation_sigma", &config);
    println!("PV-strength sweep: lifetime (years) vs endurance sigma");
    println!(
        "device: {} pages, mean endurance {}, seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );

    let headers = [
        "sigma",
        "SR scan",
        "TWL scan",
        "SR incons.",
        "TWL incons.",
        "BWL incons.",
    ];
    let mut rows = Vec::new();
    for sigma in [0.0, 0.05, 0.11, 0.18, 0.25] {
        let pcm = PcmConfig::builder()
            .pages(config.pages)
            .mean_endurance(config.mean_endurance)
            .sigma_fraction(sigma)
            .seed(config.seed)
            .build()
            .expect("valid sweep config");
        // Scheme-major order: SR scan, SR incons., TWL scan, TWL incons.
        let main = lifetime_matrix(
            &pcm,
            &[SchemeKind::Sr, SchemeKind::TwlSwp],
            &[AttackKind::Scan, AttackKind::Inconsistent],
            &SimLimits::default(),
        );
        let bwl = lifetime_matrix(
            &pcm,
            &[SchemeKind::Bwl],
            &[AttackKind::Inconsistent],
            &SimLimits::default(),
        );
        rows.push(vec![
            format!("{:.0}%", sigma * 100.0),
            format!("{:.2}", main[0].years),
            format!("{:.2}", main[2].years),
            format!("{:.2}", main[1].years),
            format!("{:.2}", main[3].years),
            format!("{:.2}", bwl[0].years),
        ]);
    }
    print_table(&headers, &rows);
    println!("\n(paper operates at the 11% row)");
    twl_bench::finish_telemetry();
}
