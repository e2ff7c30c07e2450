//! Extension study: online attack detection (the paper's reference
//! \[11\], Qureshi+ HPCA 2011).
//!
//! Runs the Misra-Gries-based [`AttackMonitor`] beside the write stream
//! of each attack mode and of every PARSEC workload, reporting the
//! alarm rate (detection rate for attacks, false-positive rate for
//! benign traffic) and the detection latency in writes.
//!
//! Run: `cargo run --release -p twl-bench --bin extension_detector [-- --pages N ...]`

#![forbid(unsafe_code)]

use twl_attacks::{Attack, AttackKind, AttackStream};
use twl_bench::{print_table, ExperimentConfig};
use twl_wl_core::AttackMonitor;
use twl_workloads::ParsecBenchmark;

const STREAM_WRITES: u64 = 400_000;

fn main() {
    let config = ExperimentConfig::from_env();
    twl_bench::init_telemetry("extension_detector", &config);
    println!("Online attack detection (Misra-Gries monitor, 32 counters, 16k-write windows)");
    println!("device: {} pages, seed {}\n", config.pages, config.seed);

    let headers = ["stream", "alarm rate", "first alarm (writes)"];
    let mut rows = Vec::new();

    for kind in AttackKind::ALL {
        let mut monitor = AttackMonitor::for_pages();
        let mut attack = Attack::new(kind, config.pages, config.seed);
        let mut first_alarm = None;
        for i in 0..STREAM_WRITES {
            let la = attack.next_write(None);
            if monitor.observe_write(la, None) && first_alarm.is_none() {
                first_alarm = Some(i + 1);
            }
        }
        rows.push(vec![
            format!("attack: {kind}"),
            format!("{:.2}", monitor.alarm_rate()),
            first_alarm.map_or("never".to_owned(), |w| w.to_string()),
        ]);
    }

    for bench in ParsecBenchmark::ALL {
        let mut monitor = AttackMonitor::for_pages();
        let mut workload = bench.workload(config.pages, config.seed);
        let mut first_alarm = None;
        for i in 0..STREAM_WRITES {
            let la = workload.next_write_la();
            if monitor.observe_write(la, None) && first_alarm.is_none() {
                first_alarm = Some(i + 1);
            }
        }
        rows.push(vec![
            format!("benign: {bench}"),
            format!("{:.2}", monitor.alarm_rate()),
            first_alarm.map_or("never".to_owned(), |w| w.to_string()),
        ]);
    }

    print_table(&headers, &rows);
    println!(
        "\n(scan and random attacks are indistinguishable from uniform traffic by design —\n they do not concentrate writes, and uniform traffic needs no PV-unaware defense)"
    );
    twl_bench::finish_telemetry();
}
