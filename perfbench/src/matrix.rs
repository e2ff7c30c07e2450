//! `attack-matrix` and `paper-scale`: fail-stop lifetime matrices run
//! in process through `twl_lifetime`, checked cell by cell against
//! reports the per-write oracle (`run_attack_unbatched`) produced once
//! and that are committed under `perfbench/expected/`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use twl_attacks::{Attack, AttackKind, AttackStream};
use twl_lifetime::pool::run_cells_on;
use twl_lifetime::{
    build_scheme_spec, run_attack, run_attack_unbatched, Calibration, LifetimeReport, SchemeKind,
    SchemeSpec, SimLimits,
};
use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice, PcmError};
use twl_service::job::lifetime_report_to_json;
use twl_wl_core::{WearLeveler, WriteOutcome};
use twl_workloads::{BuiltWorkload, ParsecBenchmark, WorkloadSpec};

use crate::stats::{median, quantile, secs, Layer, SAMPLE_EVERY};
use crate::{detail, peak_rss_mb, Outcome, RunConfig, THREADS};

/// One matrix workload: its geometry, its axes and its oracle.
struct Matrix {
    /// Short prefix of its per-layer metric names.
    prefix: &'static str,
    /// Per-layer name of the per-cell time family.
    cell_family: &'static str,
    /// Inputs come in this many variants, each with committed expected
    /// reports. `--seed` picks the variant a run starts at.
    variants: u64,
    /// Variants one round of a run covers, consecutive from the start
    /// variant. Runs are whole rounds, so when a round covers every
    /// variant each run measures the same work whatever its seed.
    round: u64,
    /// Lifetime pool workers (`run_cells_on`).
    workers: usize,
    workloads: Vec<WorkloadSpec>,
    limits: SimLimits,
    expected: &'static str,
}

impl Matrix {
    fn named(name: &str) -> Option<Self> {
        match name {
            // Fig. 6 at a scale whose tables sit in the CPU caches:
            // `repeat` is the one stream that declares multi-write runs,
            // so the matrix holds both the batched fast path and the
            // per-write floor.
            "attack-matrix" => Some(Self {
                prefix: "am",
                cell_family: "lifetime.cell_s",
                variants: 8,
                round: 8,
                // One worker: two run each cell several times slower
                // (contended per-write telemetry counters) and their
                // timings spread too widely to gate on. The traced run
                // reports the two-worker pool as `am.lifetime.pool2_speedup`.
                workers: 1,
                workloads: AttackKind::ALL.iter().map(|&a| a.into()).collect(),
                limits: SimLimits::default(),
                expected: include_str!("../expected/attack-matrix.jsonl"),
            }),
            // The paper's 8.4 M-page device under a fixed write budget:
            // per-cell setup and the wear statistics of `finish` scale
            // with the page count and dominate here.
            "paper-scale" => Some(Self {
                prefix: "ps",
                cell_family: "lifetime.paper_cell_s",
                // One pass takes longer than a run's budget; the write
                // budget makes every variant the same amount of work.
                variants: 4,
                round: 1,
                workers: THREADS,
                workloads: vec![AttackKind::Random.into(), ParsecBenchmark::Canneal.into()],
                limits: SimLimits {
                    max_logical_writes: PAPER_WRITE_BUDGET,
                },
                expected: include_str!("../expected/paper-scale.jsonl"),
            }),
            _ => None,
        }
    }

    fn pcm(&self, variant: u64) -> PcmConfig {
        let seed = 1 + variant;
        if self.prefix == "am" {
            PcmConfig::scaled(AM_PAGES, AM_ENDURANCE, seed)
        } else {
            PcmConfig {
                seed,
                ..PcmConfig::nominal_dac17()
            }
        }
    }

    fn cells(&self) -> Vec<(SchemeSpec, WorkloadSpec)> {
        SchemeKind::ALL
            .iter()
            .flat_map(|&s| {
                self.workloads
                    .iter()
                    .map(move |w| (SchemeSpec::new(s), w.clone()))
            })
            .collect()
    }

    fn geometry(&self) -> String {
        let pcm = self.pcm(0);
        format!(
            "pages={} mean_endurance={} sigma={} write_budget={} variants={} cells={}",
            pcm.pages,
            pcm.mean_endurance,
            pcm.sigma_fraction,
            self.limits.max_logical_writes,
            self.variants,
            SchemeKind::ALL.len() * self.workloads.len()
        )
    }

    /// Expected compact report per (variant, cell).
    fn oracle(&self) -> HashMap<(u64, usize), &'static str> {
        self.expected
            .lines()
            .filter_map(|line| {
                let mut it = line.splitn(3, ' ');
                let v = it.next()?.parse().ok()?;
                let c = it.next()?.parse().ok()?;
                Some(((v, c), it.next()?))
            })
            .collect()
    }
}

const AM_PAGES: u64 = 1024;
const AM_ENDURANCE: u64 = 1_000;
const PAPER_WRITE_BUDGET: u64 = 1_000_000;

/// A built cell and the host time each part of its set-up took.
struct BuiltCell {
    device: PcmDevice,
    scheme: Box<dyn WearLeveler>,
    stream: BuiltWorkload,
    calibration: Calibration,
    device_new_s: f64,
    build_scheme_s: f64,
    workload_build_s: f64,
}

/// Builds a cell exactly as `twl_lifetime::run_lifetime_cell` does.
fn build_cell(pcm: &PcmConfig, spec: &SchemeSpec, workload: &WorkloadSpec) -> BuiltCell {
    let calibration = match workload.bandwidth_mbps() {
        Some(bw) => Calibration::for_bandwidth_mbps(bw),
        None => Calibration::attack_8gbps(),
    };
    let t = Instant::now();
    let device = PcmDevice::new(pcm);
    let device_new_s = secs(t.elapsed());
    let t = Instant::now();
    let scheme = build_scheme_spec(spec, &device).expect("scheme builds for the geometry");
    let build_scheme_s = secs(t.elapsed());
    let pages = if workload.addresses_scheme_space() {
        scheme.page_count()
    } else {
        pcm.pages
    };
    let t = Instant::now();
    let stream = workload.build(pages, pcm.seed).expect("workload builds");
    let workload_build_s = secs(t.elapsed());
    BuiltCell {
        device,
        scheme,
        stream,
        calibration,
        device_new_s,
        build_scheme_s,
        workload_build_s,
    }
}

impl BuiltCell {
    fn setup_s(&self) -> f64 {
        self.device_new_s + self.build_scheme_s + self.workload_build_s
    }
}

/// Regenerates `perfbench/expected/<name>.jsonl` with the per-write
/// oracle. Run from the repository root after a change that is meant
/// to alter simulated results.
pub fn write_expected(name: &str) -> Result<(), String> {
    let m = Matrix::named(name).ok_or_else(|| format!("no matrix workload `{name}`"))?;
    let cells = m.cells();
    let mut text = String::new();
    for v in 0..m.variants {
        let pcm = m.pcm(v);
        let reports = run_cells_on(&cells, THREADS, |(spec, wl)| {
            let mut c = build_cell(&pcm, spec, wl);
            let r = run_attack_unbatched(
                c.scheme.as_mut(),
                &mut c.device,
                &mut c.stream,
                &m.limits,
                &c.calibration,
            );
            lifetime_report_to_json(&r).to_compact()
        });
        for (i, r) in reports.iter().enumerate() {
            writeln!(text, "{v} {i} {r}").expect("write to string");
        }
        eprintln!("variant {v}: {} cells", reports.len());
    }
    let path = format!("perfbench/expected/{name}.jsonl");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

/// One untraced cell: set-up and drive times plus the library's report.
struct CellRun {
    report: LifetimeReport,
    setup_s: f64,
    drive_s: f64,
}

fn check(
    out: &mut Outcome,
    oracle: &HashMap<(u64, usize), &'static str>,
    variant: u64,
    index: usize,
    report: &LifetimeReport,
) {
    let got = lifetime_report_to_json(report).to_compact();
    match oracle.get(&(variant, index)) {
        Some(want) if *want == got => {}
        Some(want) => out.fail(format!(
            "variant {variant} cell {index} ({} × {}): got {got}, expected {want}",
            report.scheme, report.workload
        )),
        None => out.fail(format!(
            "no expected report for variant {variant} cell {index}"
        )),
    }
}

/// One pass of the matrix on variant `pcm` through the library's own
/// drive loop; returns every cell and the pass's wall time.
fn library_pass(
    m: &Matrix,
    pcm: &PcmConfig,
    cells: &[(SchemeSpec, WorkloadSpec)],
    workers: usize,
) -> (Vec<CellRun>, f64) {
    let t = Instant::now();
    let runs = run_cells_on(cells, workers, |(spec, wl)| {
        let mut c = build_cell(pcm, spec, wl);
        let t = Instant::now();
        let report = run_attack(
            c.scheme.as_mut(),
            &mut c.device,
            &mut c.stream,
            &m.limits,
            &c.calibration,
        );
        CellRun {
            report,
            setup_s: c.setup_s(),
            drive_s: secs(t.elapsed()),
        }
    });
    (runs, secs(t.elapsed()))
}

/// The untraced end-to-end run.
pub fn run(name: &str, cfg: &RunConfig) -> Outcome {
    let m = Matrix::named(name).expect("known matrix workload");
    println!("geometry {}", m.geometry());
    let oracle = m.oracle();
    let cells = m.cells();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut drives = Vec::new();
    let mut walls = Vec::new();
    let mut writes = 0u64;
    let mut drive_total = 0.0;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || !pass.is_multiple_of(m.round) || start.elapsed() < cfg.budget {
        let variant = (cfg.seed + pass % m.round) % m.variants;
        let (runs, wall) = library_pass(&m, &m.pcm(variant), &cells, m.workers);
        walls.push(wall);
        setups.push(runs.iter().map(|r| r.setup_s).sum::<f64>());
        for (i, r) in runs.iter().enumerate() {
            out.attempted += 1;
            check(&mut out, &oracle, variant, i, &r.report);
            drives.push(r.drive_s);
            drive_total += r.drive_s;
            writes += r.report.logical_writes;
        }
        pass += 1;
    }
    let rate = writes as f64 / drive_total;
    println!("passes {pass} cells {} workers {}", drives.len(), m.workers);
    detail(
        "sim_writes_per_s",
        rate,
        "1/s",
        "(logical writes per host second of drive)",
    );
    detail(
        "matrix_wall_s",
        median(&walls),
        "s",
        &format!("n={}", walls.len()),
    );
    let ms: Vec<f64> = drives.iter().map(|d| d * 1e3).collect();
    out.push("setup_s", median(&setups), "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("throughput_per_s", rate, "1/s");
    detail(
        "cell_p95_ms",
        quantile(&ms, 0.95),
        "ms",
        &format!("n={}", ms.len()),
    );
    out.push("latency_p50_ms", median(&ms), "ms");
    out
}

/// What the traced mirror of one cell measured.
#[derive(Default)]
struct Trace {
    next_run: Layer,
    /// `write_batch` calls on declared runs longer than one write:
    /// every one is timed (they are few and long).
    batch_runs: Layer,
    /// `write_batch` calls on runs of one write: sampled.
    batch_single: Layer,
    logical_writes: u64,
    device_writes: u64,
    drive_s: f64,
    finish_s: f64,
    device_new_s: f64,
    build_scheme_s: f64,
    workload_build_s: f64,
}

impl Trace {
    fn merge(&mut self, o: &Trace) {
        self.next_run.merge(&o.next_run);
        self.batch_runs.merge(&o.batch_runs);
        self.batch_single.merge(&o.batch_single);
        self.logical_writes += o.logical_writes;
        self.device_writes += o.device_writes;
        self.drive_s += o.drive_s;
        self.finish_s += o.finish_s;
        self.device_new_s += o.device_new_s;
        self.build_scheme_s += o.build_scheme_s;
        self.workload_build_s += o.workload_build_s;
    }

    fn write_batch_calls(&self) -> u64 {
        self.batch_runs.calls + self.batch_single.calls
    }

    fn write_batch_s(&self) -> f64 {
        self.batch_runs.estimated_s() + self.batch_single.estimated_s()
    }
}

/// The fail-stop drive loop of `twl_lifetime::run_attack`, rebuilt from
/// public calls with a timer at each layer boundary. With no telemetry
/// sink installed the library's per-run observer does nothing, so this
/// loop produces the same report.
fn traced_drive(c: &mut BuiltCell, limits: &SimLimits) -> (LifetimeReport, Trace) {
    let mut tr = Trace {
        device_new_s: c.device_new_s,
        build_scheme_s: c.build_scheme_s,
        workload_build_s: c.workload_build_s,
        ..Trace::default()
    };
    let scheme = c.scheme.as_mut();
    let device = &mut c.device;
    let stream = &mut c.stream;
    let start = Instant::now();
    let mut feedback: Option<WriteOutcome> = None;
    let mut logical_writes = 0u64;
    let mut failure = None;
    let mut k = 0u64;
    while logical_writes < limits.max_logical_writes {
        let budget = limits.max_logical_writes - logical_writes;
        let sample = k.is_multiple_of(SAMPLE_EVERY);
        k += 1;
        let (la, len) = tr
            .next_run
            .call(sample, || stream.next_run(feedback.as_ref(), budget));
        let len = len.clamp(1, budget);
        let before = device.total_writes();
        let batch = if len > 1 {
            tr.batch_runs
                .call(true, || scheme.write_batch(la, len, device))
        } else {
            tr.batch_single
                .call(sample, || scheme.write_batch(la, len, device))
        };
        if batch.serviced > 0 {
            logical_writes += batch.serviced;
            tr.device_writes += device.total_writes() - before;
            feedback = batch.last;
        }
        match batch.failure {
            Some(PcmError::PageWornOut { addr, .. }) => {
                failure = Some(addr);
                break;
            }
            Some(e) => panic!("lifetime run hit a non-wear-out device error: {e}"),
            None => assert_eq!(
                batch.serviced, len,
                "write_batch fell short without failing"
            ),
        }
    }
    tr.drive_s = secs(start.elapsed());
    tr.logical_writes = logical_writes;
    let t = Instant::now();
    let stats = scheme.stats();
    let capacity_fraction = device.total_writes() as f64 / device.endurance_map().total() as f64;
    let report = LifetimeReport {
        scheme: scheme.name().to_owned(),
        workload: stream.name().to_owned(),
        logical_writes,
        device_writes: device.total_writes(),
        failed_page: failure,
        completed: failure.is_some(),
        capacity_fraction,
        years: c.calibration.years(capacity_fraction),
        swap_per_write: stats.swap_per_write(),
        extra_write_ratio: stats.extra_write_ratio(),
        wear_gini: device.wear_stats().wear_gini,
    };
    tr.finish_s = secs(t.elapsed());
    (report, tr)
}

fn metric_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The traced run of one matrix workload: one untraced pass through the
/// library and one traced pass through the mirror on the same inputs.
pub fn traced(name: &str, cfg: &RunConfig) -> Outcome {
    let m = Matrix::named(name).expect("known matrix workload");
    let p = m.prefix;
    println!("traced {name}: geometry {}", m.geometry());
    let oracle = m.oracle();
    let cells = m.cells();
    let variant = cfg.seed % m.variants;
    let pcm = m.pcm(variant);
    let mut out = Outcome::default();

    // The library pass that the mirror must reproduce and that the
    // tracing overhead is measured against. At paper scale a second
    // pass would double an already long run, so there the mirror is
    // checked against the committed oracle alone.
    let library = (p == "am").then(|| library_pass(&m, &pcm, &cells, m.workers));

    let traced = run_cells_on(&cells, m.workers, |(spec, wl)| {
        let mut c = build_cell(&pcm, spec, wl);
        traced_drive(&mut c, &m.limits)
    });
    let mut total = Trace::default();
    for (i, (report, tr)) in traced.iter().enumerate() {
        out.attempted += 1;
        if let Some((runs, _)) = &library {
            if *report != runs[i].report {
                out.fail(format!(
                    "{name} cell {i}: traced mirror {report:?} differs from library {:?}",
                    runs[i].report
                ));
            }
        }
        check(&mut out, &oracle, variant, i, report);
        out.push(
            format!(
                "{}.{}.{}",
                m.cell_family,
                metric_name(&report.scheme),
                metric_name(&report.workload)
            ),
            tr.drive_s + tr.finish_s,
            "s",
        );
        total.merge(tr);
    }
    let accounted = (total.next_run.estimated_s() + total.write_batch_s()) / total.drive_s;
    println!(
        "{name}: layer self-times account for {:.1}% of the traced drive total \
         (every {SAMPLE_EVERY}th call timed)",
        accounted * 100.0
    );
    if (accounted - 1.0).abs() > ACCOUNTING_TOLERANCE {
        out.fail(format!(
            "{name}: layers account for {accounted:.3} of the traced drive total, \
             outside 1 ± {ACCOUNTING_TOLERANCE}"
        ));
    }
    if let Some((runs, wall)) = &library {
        let untraced_rate = runs.iter().map(|r| r.report.logical_writes).sum::<u64>() as f64
            / runs.iter().map(|r| r.drive_s).sum::<f64>();
        let traced_rate = total.logical_writes as f64 / total.drive_s;
        let overhead = 1.0 - traced_rate / untraced_rate;
        println!(
            "{name}: tracing overhead {:.1}% ({traced_rate:.0} traced vs {untraced_rate:.0} \
             untraced writes/s)",
            overhead * 100.0
        );
        out.push(format!("{p}.traced.overhead"), overhead, "fraction");

        // The same pass on the two-worker pool: how much of the second
        // worker the pool turns into speed, and what the slowest cell
        // leaves the other worker idle for.
        let (pool, pool_wall) = library_pass(&m, &pcm, &cells, THREADS);
        let cell_sum: f64 = pool.iter().map(|r| r.setup_s + r.drive_s).sum();
        out.push(
            format!("{p}.lifetime.pool2_speedup"),
            wall / pool_wall,
            "ratio",
        );
        out.push(
            format!("{p}.lifetime.straggler_s"),
            pool_wall - cell_sum / THREADS as f64,
            "s",
        );
    }
    out.push(format!("{p}.lifetime.finish_s"), total.finish_s, "s");
    out.push(
        format!("{p}.lifetime.build_scheme_s"),
        total.build_scheme_s,
        "s",
    );
    out.push(format!("{p}.pcm.device_new_s"), total.device_new_s, "s");
    out.push(
        format!("{p}.workloads.build_s"),
        total.workload_build_s,
        "s",
    );
    out.push(
        format!("{p}.workloads.next_run_ns"),
        total.next_run.mean_ns(),
        "ns",
    );
    out.push(
        format!("{p}.workloads.next_run_calls"),
        total.next_run.calls as f64,
        "count",
    );
    let wb_calls = total.write_batch_calls() as f64;
    out.push(
        format!("{p}.scheme.write_batch_ns"),
        total.write_batch_s() * 1e9 / wb_calls,
        "ns",
    );
    out.push(format!("{p}.scheme.write_batch_calls"), wb_calls, "count");
    out.push(
        format!("{p}.scheme.writes_per_batch"),
        total.logical_writes as f64 / wb_calls,
        "count",
    );
    out.push(
        format!("{p}.pcm.device_writes_per_write"),
        total.device_writes as f64 / total.logical_writes as f64,
        "count",
    );
    out.push(
        format!("{p}.traced.accounted_fraction"),
        accounted,
        "fraction",
    );
    if p == "am" {
        random_floor(&mut out, variant);
    }
    out
}

/// How far the sampled layer self-times may stray from the traced drive
/// total before the traced run counts as failed. The remainder is the
/// loop's own bookkeeping.
const ACCOUNTING_TOLERANCE: f64 = 0.35;

/// Writes per scheme in the random-floor probe.
const FLOOR_WRITES: usize = 200_000;

/// The random-write floor: one recorded random stream sent through
/// scalar `write` and through `write_batch(la, 1)` on twin devices whose
/// endurance no page can exhaust; both must leave identical wear.
fn random_floor(out: &mut Outcome, variant: u64) {
    let pcm = PcmConfig::scaled(AM_PAGES, 1_000_000_000, 1 + variant);
    for kind in SchemeKind::ALL {
        let mut stream = Vec::new();
        let run = |batched: bool, stream: &mut Vec<LogicalPageAddr>| {
            let mut device = PcmDevice::new(&pcm);
            let mut scheme = build_scheme_spec(&SchemeSpec::new(kind), &device)
                .expect("scheme builds for the geometry");
            if stream.is_empty() {
                let mut attack = Attack::new(AttackKind::Random, scheme.page_count(), 1 + variant);
                stream.extend((0..FLOOR_WRITES).map(|_| attack.next_write(None)));
            }
            let t = Instant::now();
            for &la in stream.iter() {
                if batched {
                    let b = scheme.write_batch(la, 1, &mut device);
                    assert!(b.failure.is_none(), "random floor device failed");
                } else {
                    scheme.write(la, &mut device).expect("random floor write");
                }
            }
            let ns = t.elapsed().as_nanos() as f64 / FLOOR_WRITES as f64;
            (ns, device.wear_counters().to_vec(), *scheme.stats())
        };
        let (scalar_ns, scalar_wear, scalar_stats) = run(false, &mut stream);
        let (batch_ns, batch_wear, batch_stats) = run(true, &mut stream);
        out.attempted += 1;
        if scalar_wear != batch_wear || scalar_stats != batch_stats {
            out.fail(format!(
                "random floor {}: write_batch(la, 1) wear differs from scalar write",
                kind.label()
            ));
        }
        let label = metric_name(kind.label());
        out.push(format!("scheme.write_ns.{label}"), scalar_ns, "ns");
        out.push(format!("scheme.write_batch1_ns.{label}"), batch_ns, "ns");
    }
}
