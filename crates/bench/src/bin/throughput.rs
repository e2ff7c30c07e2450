//! Throughput harness for the event-skipping batched fast path.
//!
//! Runs every scheme the factory can build under the repeat attack (the
//! fully batchable stream) and the random attack (runs of one write, so
//! the batched loop degenerates to oracle granularity) twice — through
//! the per-write reference loop and through the batched driver —
//! asserts the two runs are bit-identical, and reports simulated writes
//! per second for both, writing the results as JSON.
//!
//! Run: `cargo run --release -p twl-bench --bin throughput`
//!
//! Flags (all optional):
//!
//! * `--pages N` / `--endurance N` / `--seed N` — device geometry
//!   (defaults match `PcmConfig::default()`: 8192 / 100 000 / 0).
//! * `--budget N` — logical writes per timed run (default 20 000 000).
//! * `--iters N` — timing repetitions per mode; best-of wins (default 3).
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_throughput.json`).
//! * `--baseline PATH` — committed baseline to gate against (default
//!   `BENCH_throughput.json`; silently skipped when absent).
//! * `--smoke` — small geometry and budget for CI smoke runs.
//!
//! Exits non-zero if any scheme's batched throughput falls meaningfully
//! below its unbatched throughput, or if any (scheme, attack) speedup
//! lands more than 10% below the committed baseline measured on the
//! same geometry — the regression gates CI relies on.

#![forbid(unsafe_code)]

use std::time::Instant;
use twl_attacks::{Attack, AttackKind};
use twl_lifetime::{
    build_scheme_spec, run_attack, run_attack_unbatched, Calibration, LifetimeReport, SchemeKind,
    SimLimits,
};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_telemetry::json::{self, Json};

/// Every scheme the factory can build (the default 8192-page geometry
/// is a power of two, so Security Refresh is included).
const SCHEMES: [SchemeKind; 7] = SchemeKind::ALL;

/// The attacks timed per scheme: repeat exercises the long-run batched
/// fast path; random declares runs of one write, so it measures the
/// per-event cost floor (SoA tables, bulk RNG) without run batching.
const ATTACKS: [AttackKind; 2] = [AttackKind::Repeat, AttackKind::Random];

struct BenchArgs {
    pages: u64,
    endurance: u64,
    seed: u64,
    budget: u64,
    iters: u32,
    out: String,
    baseline: String,
}

/// Parses the harness's own flags (`ExperimentConfig::from_args` cannot
/// host them: it panics on flags it does not know).
fn parse_args<I, S>(args: I) -> BenchArgs
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut parsed = BenchArgs {
        pages: 8192,
        endurance: 100_000,
        seed: 0,
        budget: 20_000_000,
        iters: 3,
        out: "BENCH_throughput.json".to_owned(),
        baseline: "BENCH_throughput.json".to_owned(),
    };
    let mut explicit_budget = false;
    let mut smoke = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut grab = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .as_ref()
                .to_owned()
        };
        let int = |name: &str, v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} needs an integer value"))
        };
        match arg.as_ref() {
            "--pages" => parsed.pages = int("--pages", grab("--pages")),
            "--endurance" => parsed.endurance = int("--endurance", grab("--endurance")),
            "--seed" => parsed.seed = int("--seed", grab("--seed")),
            "--budget" => {
                parsed.budget = int("--budget", grab("--budget"));
                explicit_budget = true;
            }
            "--iters" => parsed.iters = int("--iters", grab("--iters")).max(1) as u32,
            "--out" => parsed.out = grab("--out"),
            "--baseline" => parsed.baseline = grab("--baseline"),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}; see the throughput bin docs"),
        }
    }
    if smoke {
        parsed.pages = parsed.pages.min(256);
        parsed.endurance = parsed.endurance.min(2_000);
        if !explicit_budget {
            parsed.budget = 200_000;
        }
    }
    parsed
}

fn pcm_config(args: &BenchArgs) -> PcmConfig {
    PcmConfig::builder()
        .pages(args.pages)
        .mean_endurance(args.endurance)
        .seed(args.seed)
        .build()
        .expect("valid device geometry")
}

/// One full run: fresh device, scheme and attack every time, so timing
/// repetitions are independent and deterministic.
fn run_once(
    args: &BenchArgs,
    kind: SchemeKind,
    attack_kind: AttackKind,
    batched: bool,
) -> (LifetimeReport, Vec<u64>, f64) {
    let mut device = PcmDevice::new(&pcm_config(args));
    let mut scheme = build_scheme_spec(&kind.into(), &device)
        .unwrap_or_else(|e| panic!("cannot build {kind} for this device: {e}"));
    let mut attack = Attack::new(attack_kind, scheme.page_count(), args.seed);
    let limits = SimLimits {
        max_logical_writes: args.budget,
    };
    let calibration = Calibration::attack_8gbps();
    let start = Instant::now();
    let report = if batched {
        run_attack(
            scheme.as_mut(),
            &mut device,
            &mut attack,
            &limits,
            &calibration,
        )
    } else {
        run_attack_unbatched(
            scheme.as_mut(),
            &mut device,
            &mut attack,
            &limits,
            &calibration,
        )
    };
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (report, device.wear_counters().to_vec(), secs)
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!(
        "throughput: repeat + random attacks, {} pages, mean endurance {}, seed {}, budget {}, \
         best of {}",
        args.pages, args.endurance, args.seed, args.budget, args.iters
    );

    let headers = [
        "scheme",
        "attack",
        "writes",
        "unbatched w/s",
        "batched w/s",
        "speedup",
    ];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    let mut measured = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for kind in SCHEMES {
        for attack_kind in ATTACKS {
            let (mut unbatched_report, unbatched_wear, mut unbatched_secs) =
                run_once(&args, kind, attack_kind, false);
            let (batched_report, batched_wear, mut batched_secs) =
                run_once(&args, kind, attack_kind, true);
            assert_eq!(
                batched_report, unbatched_report,
                "{kind}/{attack_kind}: batched run diverged from the per-write reference"
            );
            assert_eq!(
                batched_wear, unbatched_wear,
                "{kind}/{attack_kind}: batched wear map diverged from the per-write reference"
            );
            for _ in 1..args.iters {
                let (r, _, secs) = run_once(&args, kind, attack_kind, false);
                unbatched_report = r;
                unbatched_secs = unbatched_secs.min(secs);
                let (_, _, secs) = run_once(&args, kind, attack_kind, true);
                batched_secs = batched_secs.min(secs);
            }
            let writes = unbatched_report.logical_writes;
            let unbatched_wps = writes as f64 / unbatched_secs;
            let batched_wps = writes as f64 / batched_secs;
            let speedup = batched_wps / unbatched_wps;
            // Only repeat declares multi-write runs; the other attacks
            // run the batched loop at per-write granularity, so their
            // speedup is noise around 1.0 and must not trip the gate.
            if attack_kind == AttackKind::Repeat {
                min_speedup = min_speedup.min(speedup);
            }
            let attack = attack_kind.to_string();
            rows.push(vec![
                kind.label().to_owned(),
                attack.clone(),
                writes.to_string(),
                format!("{unbatched_wps:.0}"),
                format!("{batched_wps:.0}"),
                format!("{speedup:.2}x"),
            ]);
            // `attack` stays for old readers of BENCH_throughput.json;
            // `workload` is the canonical WorkloadSpec label new
            // tooling keys on (identical for bare attacks, but carries
            // params for future parameterized rows).
            let workload = twl_workloads::WorkloadSpec::from(attack_kind)
                .canonical()
                .label();
            runs.push(Json::obj([
                ("scheme", json::str(kind.label())),
                ("attack", json::str(&attack)),
                ("workload", json::str(&workload)),
                ("logical_writes", json::int(writes)),
                ("unbatched_secs", json::num(unbatched_secs)),
                ("batched_secs", json::num(batched_secs)),
                ("unbatched_writes_per_sec", json::num(unbatched_wps)),
                ("batched_writes_per_sec", json::num(batched_wps)),
                ("speedup", json::num(speedup)),
                ("identical", Json::Bool(true)),
            ]));
            measured.push(Measured {
                scheme: kind.label().to_owned(),
                attack,
                batched_wps,
                speedup,
                batched_secs,
            });
        }
    }
    twl_bench::print_table(&headers, &rows);

    let regressions = gate_against_baseline(&args, &measured);

    let (span_guard, span_overhead) = measure_span_overhead(&args);

    let doc = Json::obj([
        ("bench", json::str("throughput")),
        (
            "config",
            Json::obj([
                ("pages", json::int(args.pages)),
                ("mean_endurance", json::int(args.endurance)),
                ("seed", json::int(args.seed)),
                ("budget", json::int(args.budget)),
                ("iters", json::int(u64::from(args.iters))),
            ]),
        ),
        ("runs", Json::Arr(runs)),
        ("min_speedup", json::num(min_speedup)),
        ("span_overhead", span_guard),
    ]);
    std::fs::write(&args.out, doc.to_compact() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    println!("wrote {}", args.out);

    // Schemes without a write_batch fast path (SR, WRL, the hybrids)
    // run the batched loop at per-write granularity, so their honest
    // speedup is ~1.0x and timing noise swings it a few percent either
    // way; the gate tolerates that while still catching any scheme
    // where batching is a real pessimization.
    if min_speedup < 0.9 {
        eprintln!("FAIL: batched throughput regressed below unbatched ({min_speedup:.2}x)");
        std::process::exit(1);
    }
    if span_overhead > SPAN_OVERHEAD_BUDGET {
        eprintln!(
            "FAIL: span overhead {:.2}% exceeds the {:.0}% budget",
            span_overhead * 100.0,
            SPAN_OVERHEAD_BUDGET * 100.0
        );
        std::process::exit(1);
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("FAIL: {r}");
        }
        std::process::exit(1);
    }
}

/// A scheme's batched-over-unbatched speedup may fall at most this
/// fraction below the committed baseline before the gate fails.
const BASELINE_TOLERANCE: f64 = 0.10;

/// Runs shorter than this cannot be gated: a batched micro-run (a
/// scheme that wears out within ~100K writes finishes in tens of
/// microseconds) carries timer jitter of the same order as the gate
/// tolerance, however many repetitions the minimum is taken over.
const MIN_GATE_SECS: f64 = 1e-3;

/// One timed (scheme, attack) result, as the baseline gate consumes it.
struct Measured {
    scheme: String,
    attack: String,
    batched_wps: f64,
    speedup: f64,
    batched_secs: f64,
}

/// Compares each measured (scheme, attack) run against the committed
/// baseline JSON and returns the list of >10% regressions.
///
/// The gated quantity is the *speedup* (batched over unbatched
/// writes/s), not absolute throughput: both halves of the ratio are
/// timed in the same invocation, so machine-speed differences and the
/// noise bursts of shared CI runners cancel, while a regression in the
/// batched fast path — the thing this bench protects — moves the ratio
/// directly. Absolute batched throughput >10% below the baseline is
/// reported as a warning, since across machines it measures the host
/// as much as the code. The baseline's ratios only transfer when taken
/// on the same device geometry — scheme event cadence depends on pages
/// and endurance, but not (beyond noise) on the write budget, which is
/// what regression-gate CI trims — so on a geometry mismatch the gate
/// reports itself skipped instead of comparing incomparable numbers.
/// Rows present on only one side are ignored: new schemes/attacks get
/// a baseline the first time they are committed. Rows whose batched
/// run (on either side) is shorter than [`MIN_GATE_SECS`] are noted
/// and skipped — their bit-identity is still asserted upstream, but
/// their timings are timer jitter, not measurements.
fn gate_against_baseline(args: &BenchArgs, measured: &[Measured]) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(&args.baseline) else {
        println!("baseline gate: no {} — skipped", args.baseline);
        return Vec::new();
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("baseline {} is not valid JSON: {e}", args.baseline)],
    };
    let config = doc.get("config");
    let base_of = |key: &str| config.and_then(|c| c.get(key)).and_then(Json::as_u64);
    if base_of("pages") != Some(args.pages) || base_of("mean_endurance") != Some(args.endurance) {
        println!(
            "baseline gate: {} was measured on a different geometry — skipped",
            args.baseline
        );
        return Vec::new();
    }
    let mut regressions = Vec::new();
    let mut compared = 0;
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let scheme = run.get("scheme").and_then(Json::as_str).unwrap_or("");
        let attack = run.get("attack").and_then(Json::as_str).unwrap_or("");
        let Some(base_speedup) = run.get("speedup").and_then(Json::as_f64) else {
            continue;
        };
        let Some(new) = measured
            .iter()
            .find(|m| m.scheme == scheme && m.attack == attack)
        else {
            continue;
        };
        let base_secs = run
            .get("batched_secs")
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        if new.batched_secs < MIN_GATE_SECS || base_secs < MIN_GATE_SECS {
            println!(
                "baseline gate: {scheme}/{attack} skipped — batched run of {:.0}µs is below \
                 the {:.0}ms timing floor",
                new.batched_secs.min(base_secs) * 1e6,
                MIN_GATE_SECS * 1e3
            );
            continue;
        }
        compared += 1;
        if new.speedup < base_speedup * (1.0 - BASELINE_TOLERANCE) {
            regressions.push(format!(
                "{scheme}/{attack}: speedup {:.2}x is {:.1}% below the committed \
                 baseline {base_speedup:.2}x (tolerance {:.0}%)",
                new.speedup,
                (1.0 - new.speedup / base_speedup) * 100.0,
                BASELINE_TOLERANCE * 100.0
            ));
        }
        if let Some(base_wps) = run.get("batched_writes_per_sec").and_then(Json::as_f64) {
            if new.batched_wps < base_wps * (1.0 - BASELINE_TOLERANCE) {
                println!(
                    "baseline gate: note — {scheme}/{attack} batched {:.0} w/s is \
                     {:.1}% below the committed {base_wps:.0} w/s (informational; absolute \
                     throughput tracks the host)",
                    new.batched_wps,
                    (1.0 - new.batched_wps / base_wps) * 100.0
                );
            }
        }
    }
    println!(
        "baseline gate: compared {compared} runs against {}, {} regression(s)",
        args.baseline,
        regressions.len()
    );
    regressions
}

/// The fraction of batched throughput spans are allowed to cost.
const SPAN_OVERHEAD_BUDGET: f64 = 0.02;

/// Times the batched path with a sink installed and spans toggled off
/// vs on — the *only* difference between the two runs is the span
/// switch, so the ratio isolates pure span cost (one span per drive
/// call; the sink and its wear samplers are active in both). Also
/// asserts the reports are bit-identical, the oracle that spans stay
/// off the simulation path. Returns the JSON summary and the measured
/// overhead fraction.
fn measure_span_overhead(args: &BenchArgs) -> (Json, f64) {
    // The guard pins the full default geometry regardless of --smoke:
    // smoke-scale devices wear out after ~200K writes, so the run
    // length must come from the budget, not the flags. Runs are kept
    // SHORT on purpose (~1M writes, a few ms): on a virtualized host,
    // steal and frequency drift arrive in bursts lasting whole runs,
    // so with many short runs enough of them land in quiet windows for
    // the per-mode minima to converge — long runs (tens of ms) were
    // measured absorbing a burst every time, swinging the estimate by
    // ±5-40%.
    let guard_args = BenchArgs {
        pages: 8192,
        endurance: 100_000,
        seed: args.seed,
        budget: 1_000_000,
        iters: args.iters.max(60),
        out: String::new(),
        baseline: String::new(),
    };
    let kind = SchemeKind::TwlSwp;
    let sink = twl_telemetry::MemorySink::new();
    let records = sink.handle();
    twl_telemetry::install_sink(sink);

    // Runs interleave as off/on pairs, order alternating each pair to
    // cancel any systematic first-run/second-run bias; each pair also
    // yields an on/off ratio whose halves are adjacent in time, so a
    // burst covering both cancels in the ratio.
    let timed = |spans: bool| {
        // Drop the previous run's records but keep the Vec's capacity:
        // letting the buffer grow across runs puts its doubling
        // reallocations (multi-MB memcpys) inside random timed
        // regions.
        records.lock().expect("sink poisoned").clear();
        twl_telemetry::set_spans_enabled(spans);
        run_once(&guard_args, kind, AttackKind::Repeat, true)
    };
    let mut ratios = Vec::new();
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let mut writes = 0;
    for i in 0..guard_args.iters {
        let (off, on) = if i % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        assert_eq!(
            on.0, off.0,
            "{kind}: enabling spans changed the simulation result"
        );
        ratios.push(on.2 / off.2);
        off_secs = off_secs.min(off.2);
        on_secs = on_secs.min(on.2);
        writes = off.0.logical_writes;
    }
    twl_telemetry::clear_sinks();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));

    #[allow(clippy::cast_precision_loss)]
    let (off_wps, on_wps) = (writes as f64 / off_secs, writes as f64 / on_secs);
    // Two estimators, gate on the smaller: the median pair ratio and
    // the ratio of per-mode minima. A real span cost shifts both up by
    // the same factor; environment noise (VM steal, frequency drift)
    // inflates each one independently and rarely both, so the min
    // keeps the gate's false-positive rate low without blinding it to
    // genuine regressions an order of magnitude over the budget.
    let median = ratios[ratios.len() / 2] - 1.0;
    let overhead = median.min(on_secs / off_secs - 1.0);
    println!(
        "span overhead ({kind}, batched, sink installed): spans off {off_wps:.0} w/s, \
         spans on {on_wps:.0} w/s, overhead {:+.2}% (budget {:.0}%)",
        overhead * 100.0,
        SPAN_OVERHEAD_BUDGET * 100.0
    );
    let doc = Json::obj([
        ("scheme", json::str(kind.label())),
        ("logical_writes", json::int(writes)),
        ("spans_off_secs", json::num(off_secs)),
        ("spans_on_secs", json::num(on_secs)),
        ("spans_off_writes_per_sec", json::num(off_wps)),
        ("spans_on_writes_per_sec", json::num(on_wps)),
        ("overhead_fraction", json::num(overhead)),
        ("median_pair_overhead_fraction", json::num(median)),
        ("budget_fraction", json::num(SPAN_OVERHEAD_BUDGET)),
        ("identical", Json::Bool(true)),
    ]);
    (doc, overhead)
}
