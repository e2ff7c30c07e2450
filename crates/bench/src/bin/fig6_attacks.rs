//! Regenerates **Figure 6**: PCM lifetime (years) under the four attack
//! modes for BWL, SR, TWL_ap, TWL_swp and NOWL, plus the geometric mean.
//!
//! Paper reference points (§5.2, ideal = 6.6 years at ~8 GiB/s):
//! BWL survives the three classic attacks but "breaks down in 98
//! seconds" under the inconsistent attack; SR sits near 2.8 years under
//! everything; TWL_swp beats TWL_ap by ~21.7 % and bottoms out at 4.1
//! years under scan.
//!
//! The whole figure is one declarative scheme × workload matrix — both
//! axes are spec label lists, so the identical study can be submitted
//! to `twl-serviced` with
//! `twl-ctl submit --schemes "BWL,SR,..." --workloads "repeat,random,..."`
//! and its table is pinned by `results/golden/fig6_attacks.txt`.
//!
//! Run: `cargo run --release -p twl-bench --bin fig6_attacks [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, parse_spec_list, Calibration, SimLimits};
use twl_workloads::parse_workload_list;

/// The figure's axes, as data.
const SCHEMES: &str = "BWL,SR,TWL_ap,TWL_swp,NOWL";
const WORKLOADS: &str = "repeat,random,scan,inconsistent";

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("fig6_attacks", &config);
    let calibration = Calibration::attack_8gbps();
    println!(
        "Figure 6: lifetime under attacks (years); ideal = {:.1} years",
        calibration.ideal_years()
    );
    println!(
        "device: {} pages, mean endurance {}, seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );

    let schemes = parse_spec_list(SCHEMES).expect("scheme axis parses");
    let workloads = parse_workload_list(WORKLOADS).expect("workload axis parses");

    let mut headers = vec!["scheme".to_owned()];
    headers.extend(workloads.iter().map(ToString::to_string));
    headers.push("Gmean".to_owned());

    let reports = lifetime_matrix(
        &config.pcm_config(),
        &schemes,
        &workloads,
        &SimLimits::default(),
    );
    let mut rows = Vec::new();
    for (i, spec) in schemes.iter().enumerate() {
        let row = &reports[i * workloads.len()..(i + 1) * workloads.len()];
        let mut cells = vec![spec.to_string()];
        let mut product = 1.0f64;
        for report in row {
            product *= report.years.max(1e-6);
            cells.push(format!("{:.2}", report.years));
        }
        #[allow(clippy::cast_precision_loss)]
        cells.push(format!("{:.2}", product.powf(1.0 / workloads.len() as f64)));
        rows.push(cells);
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}
