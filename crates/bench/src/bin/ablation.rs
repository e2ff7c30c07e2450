//! Ablations of TWL's design choices (DESIGN.md §5), beyond what the
//! paper reports:
//!
//! * pairing strategy: strong-weak vs adjacent vs random;
//! * toss-up on factory (initial) vs remaining (dynamic) endurance;
//! * optimized 2-write vs naive 3-write swap-then-write;
//! * inter-pair swap interval.
//!
//! Each variant is one [`SchemeSpec`] — the whole study is a single
//! spec × attack matrix submitted to the shared sweep runner (pooled
//! workers, batched fast path), and the same labels can be submitted
//! to `twl-serviced` via `twl-ctl submit --schemes ...`. The table
//! reports the geometric-mean lifetime and the extra-write ratio. A
//! second table ablates BWL's band-repair pass (benign lifetime vs
//! attack robustness) the same way.
//!
//! Run: `cargo run --release -p twl-bench --bin ablation [-- --pages N ...]`

use twl_attacks::AttackKind;
use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{lifetime_matrix, SchemeSpec, SimLimits};
use twl_workloads::ParsecBenchmark;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("ablation", &config);
    println!("TWL design-choice ablations (Gmean lifetime over the four attacks)");
    println!(
        "device: {} pages, mean endurance {}, seed {}\n",
        config.pages, config.mean_endurance, config.seed
    );

    let variants: Vec<(&str, SchemeSpec)> = vec![
        ("baseline (swp, initial E, 2-write swap)", spec("TWL_swp")),
        ("adjacent pairing", spec("TWL_ap")),
        ("random pairing", spec("TWL_swp[pair=rnd:7]")),
        ("dynamic (remaining) endurance", spec("TWL_swp[dyn=1]")),
        ("naive 3-write swap", spec("TWL_swp[swap=3]")),
        ("inter-pair interval 32", spec("TWL_swp[ip=32]")),
        ("inter-pair interval 512", spec("TWL_swp[ip=512]")),
        ("no inter-pair swap", spec("TWL_swp[ip=off]")),
    ];

    let specs: Vec<SchemeSpec> = variants.iter().map(|(_, s)| *s).collect();
    let reports = lifetime_matrix(
        &config.pcm_config(),
        &specs,
        &AttackKind::ALL,
        &SimLimits::default(),
    );

    let headers = ["variant", "Gmean (yr)", "worst (yr)", "extra writes"];
    let per_variant = AttackKind::ALL.len();
    let rows: Vec<Vec<String>> = variants
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let chunk = &reports[i * per_variant..(i + 1) * per_variant];
            let product: f64 = chunk.iter().map(|r| r.years.max(1e-6)).product();
            let worst = chunk.iter().map(|r| r.years).fold(f64::INFINITY, f64::min);
            let extra: f64 = chunk.iter().map(|r| r.extra_write_ratio).sum();
            vec![
                (*name).to_owned(),
                format!("{:.2}", product.powf(1.0 / per_variant as f64)),
                format!("{:.2}", worst),
                format!("{:.3}", extra / per_variant as f64),
            ]
        })
        .collect();
    print_table(&headers, &rows);

    // BWL band-repair ablation: the repair pass is our addition on top
    // of the DATE'12 design (DESIGN.md §4.5); it roughly doubles benign
    // lifetime and does not rescue BWL from the inconsistent attack.
    println!("\nBWL band-repair ablation:");
    let bench = ParsecBenchmark::Canneal;
    let bwl_variants: [(&str, SchemeSpec); 2] = [
        ("with band repair (default)", spec("BWL")),
        ("naive (DATE'12 flow only)", spec("BWL[repair=0]")),
    ];
    let bwl_specs: Vec<SchemeSpec> = bwl_variants.iter().map(|(_, s)| *s).collect();
    let benign = lifetime_matrix(
        &config.pcm_config(),
        &bwl_specs,
        &[bench],
        &SimLimits::default(),
    );
    let attacked = lifetime_matrix(
        &config.pcm_config(),
        &bwl_specs,
        &[AttackKind::Inconsistent],
        &SimLimits::default(),
    );
    let headers = ["BWL variant", "benign frac (canneal)", "inconsistent (yr)"];
    let rows: Vec<Vec<String>> = bwl_variants
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            vec![
                (*name).to_owned(),
                format!("{:.3}", benign[i].capacity_fraction),
                format!("{:.2}", attacked[i].years),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}

fn spec(label: &str) -> SchemeSpec {
    label.parse().expect("ablation spec labels are valid")
}
