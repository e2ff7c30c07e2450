//! Trace tooling: generate, inspect, and replay binary memory traces.
//!
//! The paper's methodology collects gem5 traces once and replays them in
//! loops (§5.1); this tool provides the same workflow for the synthetic
//! workloads, via the `twl-workloads` binary codec:
//!
//! * `gen <workload> <commands> <file>` — write a trace file from any
//!   synthetic workload spec (e.g. `canneal` or `vips[alpha=1.2]`).
//! * `stat <file>` — print command counts and page-popularity stats.
//! * `replay <file> <scheme> [loops]` — drive a scheme (any
//!   [`twl_lifetime::SchemeSpec`] label, e.g. `TWL_swp[ti=64]`) with
//!   the trace's writes (looping, as the paper does) until wear-out or
//!   the loop budget ends.
//!
//! Run: `cargo run --release -p twl-bench --bin trace_tool -- gen canneal 100000 /tmp/canneal.trace`

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;
use twl_lifetime::{build_scheme_spec, Calibration, SchemeSpec};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_workloads::{read_trace, write_trace, MemCmd, WorkloadSpec};

const PAGES: u64 = 4096;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace_tool gen <workload> <commands> <file>\n  trace_tool stat <file>\n  \
         trace_tool replay <file> <scheme spec> [loops]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    twl_bench::init_telemetry(
        "trace_tool",
        &twl_bench::ExperimentConfig {
            pages: PAGES,
            mean_endurance: 20_000,
            seed: 42,
        },
    );
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() == 4 => generate(&args[1], &args[2], &args[3]),
        Some("stat") if args.len() == 2 => stat(&args[1]),
        Some("replay") if args.len() == 3 || args.len() == 4 => {
            replay(&args[1], &args[2], args.get(3).map(String::as_str))
        }
        _ => usage(),
    };
    twl_bench::finish_telemetry();
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn generate(label: &str, count: &str, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    // One parser for every workload label in the workspace: the same
    // grammar `twl-ctl --workloads` and the sweep matrices accept.
    let spec: WorkloadSpec = label.parse()?;
    let count: u64 = count.parse()?;
    let mut built = spec.build(PAGES, 42)?;
    let workload = built.as_synthetic_mut().ok_or(
        "gen needs a synthetic generator (a PARSEC benchmark label); \
         attacks and TRACE specs do not emit read/write command streams",
    )?;
    let trace: Vec<MemCmd> = (0..count).map(|_| workload.next_cmd()).collect();
    let mut writer = BufWriter::new(File::create(path)?);
    write_trace(&mut writer, &trace)?;
    println!("wrote {count} commands of {label} to {path}");
    Ok(())
}

fn stat(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let trace = read_trace(BufReader::new(File::open(path)?))?;
    let writes = trace.iter().filter(|c| c.is_write()).count();
    let mut page_writes: HashMap<u64, u64> = HashMap::new();
    for cmd in trace.iter().filter(|c| c.is_write()) {
        *page_writes.entry(cmd.la.index()).or_default() += 1;
    }
    let mut ranked: Vec<u64> = page_writes.values().copied().collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "{path}: {} commands ({writes} writes, {} reads)",
        trace.len(),
        trace.len() - writes
    );
    println!("distinct pages written: {}", page_writes.len());
    if let Some(&top) = ranked.first() {
        println!(
            "hottest page share: {:.4} ({top} of {writes} writes)",
            top as f64 / writes.max(1) as f64
        );
    }
    Ok(())
}

fn replay(
    path: &str,
    scheme_name: &str,
    loops: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let spec: SchemeSpec = scheme_name.parse()?;
    let max_loops: u64 = loops.unwrap_or("100000").parse()?;
    let trace = read_trace(BufReader::new(File::open(path)?))?;
    if trace.is_empty() {
        return Err("empty trace".into());
    }
    let pcm = PcmConfig::scaled(PAGES, 20_000, 42);
    let mut device = PcmDevice::new(&pcm);
    let mut scheme = build_scheme_spec(&spec, &device)?;
    let logical = scheme.page_count();

    let mut total_writes = 0u64;
    let mut completed = false;
    'outer: for _ in 0..max_loops {
        for cmd in trace.iter().filter(|c| c.is_write()) {
            let la = twl_pcm::LogicalPageAddr::new(cmd.la.index() % logical);
            if scheme.write(la, &mut device).is_err() {
                completed = true;
                break 'outer;
            }
            total_writes += 1;
        }
    }
    let fraction = device.total_writes() as f64 / device.endurance_map().total() as f64;
    println!(
        "{scheme_name} replayed {path}: {total_writes} writes{}, capacity fraction {fraction:.3}",
        if completed {
            " to wear-out"
        } else {
            " (loop budget hit)"
        },
    );
    println!(
        "at 8 GiB/s that is {:.2} years",
        Calibration::attack_8gbps().years(fraction)
    );
    Ok(())
}
