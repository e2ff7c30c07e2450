//! Extension study: security-level-adjustable refresh (combining the
//! paper's references \[7\] and \[11\]).
//!
//! Static Security Refresh must pick one refresh rate for all traffic:
//! fast enough to survive attacks, slow enough not to waste writes on
//! benign workloads. When the configured rate is too slow for the
//! endurance scale (here: the paper's nominal interval of 128 on a
//! scaled device), a repeat attack kills it. The adaptive variant runs
//! the slow rate by default and boosts 8x while the Misra-Gries monitor
//! flags write-stream concentration — attack robustness at benign-rate
//! overhead.
//!
//! Run: `cargo run --release -p twl-bench --bin extension_adaptive [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_attacks::{Attack, AttackKind};
use twl_baselines::{AdaptiveSecurityRefresh, SecurityRefresh, SrConfig};
use twl_bench::{print_table, ExperimentConfig};
use twl_lifetime::{run_attack, Calibration, SimLimits};
use twl_pcm::PcmDevice;
use twl_wl_core::WearLeveler;
use twl_workloads::{ParsecBenchmark, WorkloadSpec};

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("extension_adaptive", &config);
    // Deliberately use the paper's *nominal* intervals (128/128), which
    // are too slow for the scaled endurance — the failure the adaptive
    // variant exists to fix.
    let sr_config = SrConfig::for_pages(config.pages).expect("power-of-two pages");
    println!("Adaptive security levels: SR at nominal (slow) refresh intervals");
    println!(
        "device: {} pages, mean endurance {}, seed {}; intervals {}/{} (boost 8x on alarm)\n",
        config.pages,
        config.mean_endurance,
        config.seed,
        sr_config.inner_interval,
        sr_config.outer_interval
    );

    let headers = [
        "scheme",
        "repeat (yr)",
        "inconsistent (yr)",
        "benign extra writes",
    ];
    let mut rows = Vec::new();
    for adaptive in [false, true] {
        let build = || -> Box<dyn WearLeveler> {
            if adaptive {
                Box::new(
                    AdaptiveSecurityRefresh::new(&sr_config, config.pages, 8)
                        .expect("valid config"),
                )
            } else {
                Box::new(SecurityRefresh::new(&sr_config, config.pages).expect("valid config"))
            }
        };
        let mut attack_years = Vec::new();
        for kind in [AttackKind::Repeat, AttackKind::Inconsistent] {
            let mut device = PcmDevice::new(&config.pcm_config());
            let mut scheme = build();
            let mut attack = Attack::new(kind, scheme.page_count(), config.seed);
            let report = run_attack(
                scheme.as_mut(),
                &mut device,
                &mut attack,
                &SimLimits::default(),
                &Calibration::attack_8gbps(),
            );
            attack_years.push(report.years);
        }
        // Benign overhead on a PARSEC workload.
        let bench = ParsecBenchmark::Canneal;
        let mut device = PcmDevice::new(&config.pcm_config());
        let mut scheme = build();
        let mut workload = WorkloadSpec::from(bench)
            .build(config.pages, config.seed)
            .expect("canneal builds for the device");
        let limits = SimLimits {
            max_logical_writes: 2_000_000,
        };
        let benign = run_attack(
            scheme.as_mut(),
            &mut device,
            &mut workload,
            &limits,
            &Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps()),
        );
        rows.push(vec![
            if adaptive {
                "SR_adaptive"
            } else {
                "SR (static)"
            }
            .to_owned(),
            format!("{:.2}", attack_years[0]),
            format!("{:.2}", attack_years[1]),
            format!("{:.3}", benign.extra_write_ratio),
        ]);
    }
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}
