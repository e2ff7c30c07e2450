//! Extension study: graceful degradation with On-Demand Page Pairing
//! (the paper's reference \[1\], Asadinia+ DAC 2014).
//!
//! Every Fig. 6/8 lifetime in this repository ends at the *first* page
//! failure. OD3P instead re-pairs failed pages onto healthy hosts and
//! keeps serving. This bench compares, per attack: writes absorbed
//! until first failure (the paper's metric) vs until OD3P exhausts its
//! degradation budget — quantifying how much life page pairing buys
//! *after* the point where the other schemes stop counting.
//!
//! Run: `cargo run --release -p twl-bench --bin extension_od3p [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_attacks::{Attack, AttackKind, AttackStream};
use twl_baselines::{Od3pConfig, OnDemandPagePairing};
use twl_bench::{print_table, ExperimentConfig};
use twl_pcm::PcmDevice;
use twl_wl_core::WearLeveler;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("extension_od3p", &config);
    println!("OD3P graceful degradation under attack");
    println!(
        "device: {} pages, mean endurance {}, seed {} (degradation budget: 50% of pages)\n",
        config.pages, config.mean_endurance, config.seed
    );

    let headers = [
        "attack",
        "1st failure (writes)",
        "OD3P end (writes)",
        "extension",
        "pages failed",
    ];
    let mut rows = Vec::new();
    for kind in AttackKind::ALL {
        let mut device = PcmDevice::new(&config.pcm_config());
        let mut od3p = OnDemandPagePairing::new(&Od3pConfig::default(), &device);
        let mut attack = Attack::new(kind, od3p.page_count(), config.seed);
        let mut feedback = None;
        let mut writes = 0u64;
        let mut first_failure_at = None;
        loop {
            let la = attack.next_write(feedback.as_ref());
            match od3p.write(la, &mut device) {
                Ok(out) => {
                    writes += 1;
                    feedback = Some(out);
                    if first_failure_at.is_none() && od3p.failed_pages() > 0 {
                        first_failure_at = Some(writes);
                    }
                }
                Err(_) => break,
            }
        }
        let first = first_failure_at.unwrap_or(writes);
        rows.push(vec![
            kind.to_string(),
            first.to_string(),
            writes.to_string(),
            format!("{:.1}x", writes as f64 / first.max(1) as f64),
            od3p.failed_pages().to_string(),
        ]);
    }
    print_table(&headers, &rows);
    println!("\n('extension' = total serviceable writes over writes to the first failure)");
    twl_bench::finish_telemetry();
}
