//! Regenerates **§5.4**: TWL's storage and logic-gate overhead.
//!
//! Paper numbers (32 GB device, 4 KB pages): 7 + 27 + 23 + 23 = 80 bits
//! per page (2.5·10⁻³ of capacity); <128-gate Feistel RNG + 718 gates of
//! divider/comparators ≈ 840 gates.
//!
//! Run: `cargo run -p twl-bench --bin overhead_table`

#![forbid(unsafe_code)]

use twl_bench::{print_table, ExperimentConfig};
use twl_core::{TwlConfig, TwlOverhead};
use twl_pcm::PcmConfig;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("overhead_table", &config);
    let scaled = config.pcm_config();
    let nominal = PcmConfig::nominal_dac17();
    let twl = TwlConfig::dac17();

    println!("Section 5.4: TWL design overhead\n");
    let headers = ["quantity", "nominal 32GB", "scaled device", "paper"];
    let devices = [
        TwlOverhead::compute(&twl, &nominal),
        TwlOverhead::compute(&twl, &scaled),
    ];
    let rows = vec![
        row("WCT bits/page", &devices, |o| o.wct_bits.to_string(), "7"),
        row("ET bits/page", &devices, |o| o.et_bits.to_string(), "27"),
        row("RT bits/page", &devices, |o| o.rt_bits.to_string(), "23"),
        row(
            "SWPT bits/page",
            &devices,
            |o| o.swpt_bits.to_string(),
            "23",
        ),
        row(
            "total bits/page",
            &devices,
            |o| o.bits_per_page().to_string(),
            "80",
        ),
        row(
            "storage ratio",
            &devices,
            |o| format!("{:.2e}", o.storage_ratio()),
            "2.5e-3",
        ),
        row("RNG gates", &devices, |o| o.rng_gates.to_string(), "<128"),
        row(
            "divider+comparator gates",
            &devices,
            |o| o.arithmetic_gates.to_string(),
            "718",
        ),
        row(
            "total gates",
            &devices,
            |o| o.total_gates().to_string(),
            "~840",
        ),
    ];
    print_table(&headers, &rows);
    twl_bench::finish_telemetry();
}

fn row(
    name: &str,
    devices: &[TwlOverhead; 2],
    f: impl Fn(&TwlOverhead) -> String,
    paper: &str,
) -> Vec<String> {
    vec![
        name.to_owned(),
        f(&devices[0]),
        f(&devices[1]),
        paper.to_owned(),
    ]
}
