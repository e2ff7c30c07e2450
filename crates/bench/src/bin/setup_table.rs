//! Prints **Table 1**: the simulation setup, from the live configuration
//! defaults (so the table cannot drift from the code).
//!
//! Run: `cargo run -p twl-bench --bin setup_table`

#![forbid(unsafe_code)]

use twl_bench::ExperimentConfig;
use twl_core::TwlConfig;
use twl_pcm::PcmConfig;

fn main() {
    twl_bench::init_telemetry("setup_table", &ExperimentConfig::default());
    let pcm = PcmConfig::nominal_dac17();
    let twl = TwlConfig::dac17();

    println!("Table 1: simulation setup (nominal configuration)\n");
    println!("PCM configuration");
    println!(
        "  {} GB PCM, {}-byte pages, {} bytes per line, {} banks",
        pcm.capacity_bytes() >> 30,
        pcm.page_size_bytes,
        pcm.line_size_bytes,
        pcm.banks
    );
    println!(
        "  read/set/reset latency: {}/{}/{} cycles",
        pcm.timing.read_latency, pcm.timing.set_latency, pcm.timing.reset_latency
    );
    println!(
        "  endurance: Gaussian, mean {:.0e}, sigma {:.0}% of mean, page-granularity",
        pcm.mean_endurance as f64,
        pcm.sigma_fraction * 100.0
    );
    println!("\nTWL configuration");
    println!(
        "  toss-up interval: {}   inter-pair swap interval: {}",
        twl.toss_up_interval, twl.inter_pair_swap_interval
    );
    println!(
        "  RNG latency: {} cycles   control logic: {} cycles   table: {} cycles",
        twl.rng_latency, twl.control_latency, twl.table_latency
    );
    println!(
        "  pairing: {:?}   optimized swap-then-write: {}",
        twl.pairing, twl.optimized_swap
    );
    twl_bench::finish_telemetry();
}
