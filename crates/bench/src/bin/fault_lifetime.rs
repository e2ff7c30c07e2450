//! **Graceful degradation past first wear-out**: lifetime with cell
//! faults, ECP-style correction, and page retirement to a spare pool,
//! for TWL against the baselines.
//!
//! Where `fig6_attacks` stops at the first worn-out page (the paper's
//! fail-stop methodology), this experiment keeps going: per-page cell
//! groups wear out around the page's endurance draw, an ECP-6 corrector
//! absorbs stuck-at faults until its budget is spent, and uncorrectable
//! pages retire to a 5 % spare pool until it runs dry. The output is a
//! degradation curve per scheme — capacity remaining vs device writes —
//! plus the milestone writes (first fault, first retirement, 1 % frame
//! loss, spare exhaustion).
//!
//! Wear leveling changes the *shape* of the curve: NOWL burns through
//! one spare at a time under a repeat attack and dies early, while TWL
//! spreads the damage so faults arrive late and retirements come in a
//! compressed burst near the device's true capacity.
//!
//! Run: `cargo run --release -p twl-bench --bin fault_lifetime [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_attacks::AttackKind;
use twl_bench::{print_table, ExperimentConfig};
use twl_faults::FaultConfig;
use twl_lifetime::{degradation_matrix, DegradationEnd, DegradationReport, SchemeKind, SimLimits};

/// Schemes compared: TWL plus the strongest baselines and NOWL.
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::TwlSwp,
    SchemeKind::Bwl,
    SchemeKind::Sr,
    SchemeKind::Nowl,
];

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_owned(), |w| w.to_string())
}

/// At most `max` evenly spaced curve points, always keeping the last.
fn downsample(report: &DegradationReport, max: usize) -> Vec<String> {
    let total = report.data_pages + report.spare_pages;
    let n = report.curve.len();
    let stride = n.div_ceil(max).max(1);
    report
        .curve
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == n - 1)
        .map(|(_, p)| {
            let capacity = 100.0 * (1.0 - p.retired_pages as f64 / total as f64);
            format!("{capacity:.1}%@{}", p.device_writes)
        })
        .collect()
}

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fault_lifetime", &config);
    let fault_cfg = FaultConfig {
        seed: config.seed ^ 0xFA17,
        ..FaultConfig::default()
    };
    println!("Graceful degradation under the repeat attack");
    println!(
        "device: {} data pages, mean endurance {}, seed {}",
        config.pages, config.mean_endurance, config.seed
    );
    println!(
        "faults: {} cell groups/page (sigma {:.0}%), {} correction, {:.0}% spares\n",
        fault_cfg.cell_groups_per_page,
        100.0 * fault_cfg.group_sigma_fraction,
        fault_cfg.policy.label(),
        100.0 * fault_cfg.spare_fraction,
    );

    let reports = degradation_matrix(
        &config.pcm_config(),
        &fault_cfg,
        &SCHEMES,
        &[AttackKind::Repeat],
        &SimLimits::default(),
    );

    let headers = vec![
        "scheme",
        "first_fault",
        "first_retire",
        "1%_loss",
        "spares_out",
        "device_writes",
        "corrected",
        "retired",
        "years",
    ];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                fmt_opt(r.first_fault_device_writes),
                fmt_opt(r.first_retirement_device_writes),
                fmt_opt(r.device_writes_to_capacity_loss(0.01)),
                fmt_opt(r.spare_exhausted_device_writes),
                r.device_writes.to_string(),
                r.corrected_groups.to_string(),
                r.retired_pages.to_string(),
                format!("{:.2}", r.years),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    println!("\ndegradation curves (physical capacity remaining @ device writes):");
    for r in &reports {
        let tag = match r.end {
            DegradationEnd::SpareExhausted => "spares exhausted",
            DegradationEnd::WriteBudget => "write budget (lower bound)",
        };
        println!("  {:>8} [{tag}]: {}", r.scheme, downsample(r, 8).join(" "));
    }
    twl_bench::finish_telemetry();
}
