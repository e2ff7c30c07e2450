//! `fleet-sweep`: a closed loop of small degradation matrices, each
//! submitted to an in-process `twl-serviced` (with checkpoints), to an
//! in-process `twl-coordinator` with a cold cell cache, and to the same
//! coordinator again once the cache is warm. The cells take
//! milliseconds, so framing, queueing, checkpoints, dispatch, cell keys
//! and the cache carry the cost.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use twl_attacks::{AttackKind, AttackStream};
use twl_faults::{provision, EventHorizon, FaultConfig};
use twl_fleet::{CachedCell, CellCache, CellKey, Coordinator, FleetConfig};
use twl_lifetime::{
    build_scheme_spec_for_region, degradation_matrix, Calibration, DegradationEnd,
    DegradationPoint, DegradationReport, SchemeKind, SchemeSpec, SimLimits,
};
use twl_pcm::PcmConfig;
use twl_service::job::{degradation_report_to_json, JobKind};
use twl_service::{
    encode_result, read_frame, write_frame, Checkpoint, CheckpointDir, Client, JobSpec, Server,
    ServiceConfig, SubmitOutcome,
};
use twl_telemetry::json::Json;
use twl_telemetry::prom::parse_exposition;
use twl_wl_core::WriteOutcome;

use crate::stats::{median, secs, Layer, SAMPLE_EVERY};
use crate::{detail, peak_rss_mb, Outcome, RunConfig, THREADS};

/// Data pages of every job's device: small enough that a cell takes
/// milliseconds, so the service and fleet layers dominate.
const PAGES: u64 = 256;
const ENDURANCE: u64 = 1_000;
/// Times the daemons are brought up per run; `setup_s` is the median.
const SETUPS: usize = 9;
/// Jobs the traced run follows through every layer.
const TRACED_JOBS: u64 = 4;

/// Job `j` of a run: 7 schemes × 4 attacks on its own device seed.
fn job(seed: u64, j: u64) -> JobSpec {
    let job_seed = seed.wrapping_mul(1_000_003).wrapping_add(j);
    JobSpec {
        kind: JobKind::DegradationMatrix,
        pcm: PcmConfig::scaled(PAGES, ENDURANCE, job_seed),
        limits: SimLimits::default(),
        schemes: SchemeKind::ALL.iter().map(|&k| k.into()).collect(),
        attacks: AttackKind::ALL.iter().map(|&a| a.into()).collect(),
        benchmarks: vec![],
        fault: Some(FaultConfig {
            seed: job_seed,
            ..FaultConfig::default()
        }),
    }
}

/// What `degradation_matrix` computes in process for the job, encoded
/// the way the daemons encode job results.
fn oracle(spec: &JobSpec) -> String {
    let reports = degradation_matrix(
        &spec.pcm,
        &spec.fault_config(),
        &spec.schemes,
        &spec.attacks,
        &spec.limits,
    );
    encode_result(
        JobKind::DegradationMatrix,
        reports.iter().map(degradation_report_to_json).collect(),
    )
    .to_compact()
}

/// An in-process `twl-serviced` and a `twl-coordinator` that uses it as
/// its only worker.
struct Daemons {
    serviced: String,
    coordinator: String,
    handles: Vec<JoinHandle<io::Result<()>>>,
}

impl Daemons {
    fn start(checkpoints: PathBuf, cache: PathBuf) -> io::Result<Self> {
        let server = Server::bind(&ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: THREADS,
            checkpoint_dir: Some(checkpoints),
            idle_timeout_ms: 0,
            ..ServiceConfig::default()
        })?;
        let serviced = server.local_addr()?.to_string();
        let mut handles = vec![thread::spawn(move || server.run())];
        let coordinator = Coordinator::bind(&FleetConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: vec![serviced.clone()],
            cache_dir: Some(cache),
            idle_timeout_ms: 0,
            planners: 1,
            ..FleetConfig::default()
        })?;
        let coordinator_addr = coordinator.local_addr()?.to_string();
        handles.push(thread::spawn(move || coordinator.run()));
        Ok(Self {
            serviced,
            coordinator: coordinator_addr,
            handles,
        })
    }

    /// Drains the coordinator, then its worker, and joins both.
    fn stop(self) -> Result<(), String> {
        for addr in [&self.coordinator, &self.serviced] {
            Client::connect(addr)
                .and_then(|mut c| c.shutdown())
                .map_err(|e| format!("shutdown {addr}: {e}"))?;
        }
        for h in self.handles {
            h.join()
                .map_err(|_| "daemon thread panicked".to_owned())?
                .map_err(|e| format!("daemon: {e}"))?;
        }
        Ok(())
    }
}

/// Submits `spec` and waits for its result; returns the result and the
/// time the submit itself took.
fn submit(client: &mut Client, spec: &JobSpec) -> Result<(Json, f64), String> {
    let t = Instant::now();
    let id = match client.submit(spec).map_err(|e| e.to_string())? {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => return Err(format!("rejected: {reason}")),
    };
    let submit_s = secs(t.elapsed());
    let result = client.wait(id, |_| {}).map_err(|e| e.to_string())?;
    Ok((result, submit_s))
}

/// A counter from the coordinator's metrics page.
fn scrape(client: &mut Client, name: &str) -> f64 {
    let text = client.metrics().unwrap_or_default();
    parse_exposition(&text)
        .unwrap_or_default()
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

const HITS: &str = "twl_fleet_cache_hits";
const MISSES: &str = "twl_fleet_cache_misses";
const DISPATCHES: &str = "twl_fleet_cells_dispatched";

/// Brings the daemons up `SETUPS` times (keeping the last), so set-up
/// time is a median.
fn setup(cfg: &RunConfig) -> (Daemons, Vec<f64>) {
    let mut times = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        let d = Daemons::start(
            cfg.dir(&format!("checkpoints-{i}")),
            cfg.dir(&format!("cache-{i}")),
        )
        .expect("start in-process daemons");
        // The first connection completes the set-up a user waits for.
        drop(Client::connect(&d.coordinator).expect("connect to coordinator"));
        times.push(secs(t.elapsed()));
        if i + 1 == SETUPS {
            return (d, times);
        }
        d.stop().expect("stop daemons");
    }
    unreachable!("SETUPS is positive")
}

/// The untraced end-to-end run.
pub fn run(cfg: &RunConfig) -> Outcome {
    println!(
        "geometry pages={PAGES} mean_endurance={ENDURANCE} cells_per_job={} connections=2 \
         serviced_workers={THREADS}",
        job(cfg.seed, 0).cell_count()
    );
    let mut out = Outcome::default();
    let (daemons, setups) = setup(cfg);
    let mut direct = Client::connect(&daemons.serviced).expect("connect to serviced");
    let mut fleet = Client::connect(&daemons.coordinator).expect("connect to coordinator");
    let (mut direct_s, mut cold_s, mut warm_s, mut rounds) = (vec![], vec![], vec![], vec![]);
    // Read once the first job has passed through all three topologies:
    // later jobs only add results, so the mark after a fixed amount of
    // work does not grow with throughput.
    let mut rss = 0.0;
    let start = Instant::now();
    let mut j = 0u64;
    while j == 0 || start.elapsed() < cfg.budget {
        let spec = job(cfg.seed, j);
        j += 1;
        let want = oracle(&spec);
        let hits_before = scrape(&mut fleet, HITS);
        let mut round = 0.0;
        for (pass, times) in [&mut direct_s, &mut cold_s, &mut warm_s]
            .into_iter()
            .enumerate()
        {
            let client = if pass == 0 { &mut direct } else { &mut fleet };
            out.attempted += 1;
            let t = Instant::now();
            match submit(client, &spec) {
                Ok((got, _)) => {
                    let s = secs(t.elapsed());
                    times.push(s);
                    round += s;
                    if got.to_compact() != want {
                        out.fail(format!("job {j}: result differs from degradation_matrix"));
                    }
                }
                Err(e) => out.fail(format!("job {j}: {e}")),
            }
        }
        rounds.push(round * 1e3);
        if j == 1 {
            rss = peak_rss_mb();
        }
        let hits = scrape(&mut fleet, HITS) - hits_before;
        if hits != spec.cell_count() as f64 {
            out.fail(format!(
                "job {j}: warm pass hit the cache {hits} times, expected {}",
                spec.cell_count()
            ));
        }
    }
    drop((direct, fleet));
    if let Err(e) = daemons.stop() {
        out.fail(e);
    }
    let busy: f64 = direct_s.iter().chain(&cold_s).chain(&warm_s).sum();
    println!("jobs {j}");
    for (name, v) in [
        ("job_direct_s", &direct_s),
        ("job_cold_s", &cold_s),
        ("job_warm_s", &warm_s),
    ] {
        detail(name, median(v), "s", &format!("n={}", v.len()));
    }
    out.push("setup_s", median(&setups), "s");
    detail(
        "peak_rss_end_mb",
        peak_rss_mb(),
        "MB",
        &format!("after {j} jobs"),
    );
    out.push("peak_rss_mb", rss, "MB");
    out.push(
        "throughput_per_s",
        (direct_s.len() + cold_s.len() + warm_s.len()) as f64 / busy,
        "1/s",
    );
    out.push("latency_p50_ms", median(&rounds), "ms");
    out
}

/// The fault layers of one degradation cell.
#[derive(Default)]
struct FaultTrace {
    absorb: Layer,
    horizon: Layer,
    caps: f64,
    batches: u64,
}

/// The batched degradation loop of `twl_lifetime::run_degradation_attack`,
/// rebuilt from public calls with timers at the fault-layer boundaries.
fn traced_cell(spec: &JobSpec, index: usize, tr: &mut FaultTrace) -> DegradationReport {
    let axis = spec.workload_axis();
    let scheme_spec: SchemeSpec = spec.schemes[index / axis.len()];
    let workload = &axis[index % axis.len()];
    let calibration = match workload.bandwidth_mbps() {
        Some(bw) => Calibration::for_bandwidth_mbps(bw),
        None => Calibration::attack_8gbps(),
    };
    let mut domain = provision(&spec.pcm, &spec.fault_config()).expect("provision domain");
    let mut scheme = build_scheme_spec_for_region(&scheme_spec, &domain.device, domain.data_pages)
        .expect("scheme builds for the region");
    let pages = if workload.addresses_scheme_space() {
        scheme.page_count()
    } else {
        domain.data_pages
    };
    let mut stream = workload
        .build(pages, spec.pcm.seed)
        .expect("workload builds");
    let limits = spec.limits;
    let device = &mut domain.device;
    let engine = &mut domain.engine;
    let mut feedback: Option<WriteOutcome> = None;
    let mut logical_writes = 0u64;
    let mut curve = Vec::new();
    let (mut first_fault, mut first_retirement, mut spare_exhausted) = (None, None, None);
    let mut end = DegradationEnd::WriteBudget;
    let mut horizon = EventHorizon::new(engine, device);
    let mut k = 0u64;
    while logical_writes < limits.max_logical_writes {
        let sample = k.is_multiple_of(SAMPLE_EVERY);
        k += 1;
        let cap = scheme.write_batch_cap(horizon.wear_margin()).max(1);
        tr.caps += cap as f64;
        tr.batches += 1;
        let budget = (limits.max_logical_writes - logical_writes).min(cap);
        let (la, len) = stream.next_run(feedback.as_ref(), budget);
        let len = len.clamp(1, budget);
        let batch = scheme.write_batch(la, len, device);
        if batch.serviced > 0 {
            logical_writes += batch.serviced;
            feedback = batch.last;
        }
        assert!(
            batch.failure.is_none(),
            "degradation run hit a device error"
        );
        assert_eq!(
            batch.serviced, len,
            "write_batch fell short without failing"
        );
        match tr.absorb.call(sample, || engine.absorb(device)) {
            Ok(absorbed) => {
                if absorbed.corrected_now > 0 && first_fault.is_none() {
                    first_fault = Some(device.total_writes());
                }
                if !absorbed.retirements.is_empty() {
                    first_retirement.get_or_insert(device.total_writes());
                    curve.push(DegradationPoint {
                        logical_writes,
                        device_writes: device.total_writes(),
                        corrected_groups: engine.corrected_groups(),
                        retired_pages: device.retired_pages(),
                        spares_remaining: device.spares_remaining(),
                    });
                }
            }
            Err(twl_pcm::PcmError::SparesExhausted { .. }) => {
                spare_exhausted = Some(device.total_writes());
                end = DegradationEnd::SpareExhausted;
                break;
            }
            Err(e) => panic!("fault engine hit a non-spare device error: {e}"),
        }
        tr.horizon.call(sample, || horizon.observe(engine, device));
    }
    let final_point = DegradationPoint {
        logical_writes,
        device_writes: device.total_writes(),
        corrected_groups: engine.corrected_groups(),
        retired_pages: device.retired_pages(),
        spares_remaining: device.spares_remaining(),
    };
    if curve.last() != Some(&final_point) {
        curve.push(final_point);
    }
    let capacity_fraction = device.total_writes() as f64 / device.endurance_map().total() as f64;
    DegradationReport {
        scheme: scheme.name().to_owned(),
        workload: stream.name().to_owned(),
        data_pages: domain.data_pages,
        spare_pages: domain.spare_pages,
        logical_writes,
        device_writes: device.total_writes(),
        corrected_groups: engine.corrected_groups(),
        retired_pages: device.retired_pages(),
        first_fault_device_writes: first_fault,
        first_retirement_device_writes: first_retirement,
        spare_exhausted_device_writes: spare_exhausted,
        end,
        capacity_fraction,
        years: calibration.years(capacity_fraction),
        wear_gini: device.wear_stats().wear_gini,
        curve,
    }
}

/// The traced run: a few jobs followed through every fault, service,
/// wire and fleet layer, each timed in process around its public call.
pub fn traced(cfg: &RunConfig) -> Outcome {
    println!("traced fleet-sweep: {TRACED_JOBS} jobs of {PAGES} pages");
    let mut out = Outcome::default();
    let daemons = Daemons::start(cfg.dir("t-checkpoints"), cfg.dir("t-cache"))
        .expect("start in-process daemons");
    let checkpoints = CheckpointDir::open(cfg.dir("t-save")).expect("open checkpoint dir");
    let cache = CellCache::open(&cfg.dir("t-cellcache"), 256 << 20).expect("open cell cache");
    let mut direct = Client::connect(&daemons.serviced).expect("connect to serviced");
    let mut fleet = Client::connect(&daemons.coordinator).expect("connect to coordinator");
    let mut faults = FaultTrace::default();
    let mut m: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // The registry is process-wide and the in-process `CellCache` above
    // counts into it too, so the fleet counters are read around the
    // coordinator submissions only.
    let mut counters = [0.0; 3];
    let read_counters = |client: &mut Client| [HITS, MISSES, DISPATCHES].map(|n| scrape(client, n));
    let mut cells_total = 0usize;
    for j in 0..TRACED_JOBS {
        let spec = job(cfg.seed, j);
        let cells = spec.cell_count();
        cells_total += cells;
        let want = oracle(&spec);

        // Faults: the mirrored degradation loop against the library cell.
        let mut run_cell_s = 0.0;
        let mut completed = BTreeMap::new();
        let mut cell_reports = Vec::new();
        for i in 0..cells {
            let t = Instant::now();
            let (report, device_writes) = spec.run_cell(i);
            run_cell_s += secs(t.elapsed());
            let mirrored = degradation_report_to_json(&traced_cell(&spec, i, &mut faults));
            out.attempted += 1;
            if mirrored.to_compact() != report.to_compact() {
                out.fail(format!(
                    "job {j} cell {i}: traced degradation mirror differs from library"
                ));
            }
            completed.insert(i as u64, report.clone());
            cell_reports.push((report, device_writes));
        }
        m.entry("service.run_cell_ms")
            .or_default()
            .push(run_cell_s * 1e3);

        // Service and wire.
        let t = Instant::now();
        let direct_result = submit(&mut direct, &spec);
        let direct_s = secs(t.elapsed());
        let result = match direct_result {
            Ok((result, submit_s)) => {
                m.entry("service.submit_rtt_ms")
                    .or_default()
                    .push(submit_s * 1e3);
                result
            }
            Err(e) => {
                out.fail(format!("job {j} direct: {e}"));
                continue;
            }
        };
        out.attempted += 1;
        if result.to_compact() != want {
            out.fail(format!(
                "job {j}: direct result differs from degradation_matrix"
            ));
        }
        let t = Instant::now();
        let mut buf = Vec::new();
        write_frame(&mut buf, &spec.to_json()).expect("frame spec");
        write_frame(&mut buf, &result).expect("frame result");
        let mut r = buf.as_slice();
        let spec_back = read_frame(&mut r).expect("read spec frame");
        let result_back = read_frame(&mut r).expect("read result frame");
        m.entry("wire.frame_us")
            .or_default()
            .push(secs(t.elapsed()) * 1e6);
        if JobSpec::from_json(&spec_back).ok().as_ref() != Some(&spec) || result_back != result {
            out.fail(format!("job {j}: frame round trip changed the job"));
        }
        let cp = Checkpoint {
            job_id: j + 1,
            spec: spec.clone(),
            status: "completed".to_owned(),
            completed_cells: completed,
            result: Some(result),
            error: None,
        };
        let t = Instant::now();
        checkpoints.save(&cp).expect("save checkpoint");
        m.entry("service.checkpoint_save_ms")
            .or_default()
            .push(secs(t.elapsed()) * 1e3);

        // Fleet: the coordinator's per-cell work, one public call at a time.
        let (mut key_s, mut put_s, mut get_s, mut rtt_s) = (0.0, 0.0, 0.0, 0.0);
        for (i, (report, device_writes)) in cell_reports.into_iter().enumerate() {
            let t = Instant::now();
            let key = CellKey::of(&spec, i);
            key_s += secs(t.elapsed());
            let cell = CachedCell {
                report,
                device_writes,
            };
            let t = Instant::now();
            cache.put(&key, &cell).expect("cache put");
            put_s += secs(t.elapsed());
            let t = Instant::now();
            let back = cache.get(&key);
            get_s += secs(t.elapsed());
            if back.as_ref().map(|c| &c.report) != Some(&cell.report) {
                out.fail(format!(
                    "job {j} cell {i}: cell cache returned another report"
                ));
            }
            let t = Instant::now();
            if let Err(e) = direct.run_cell(&spec, i as u64) {
                out.fail(format!("job {j} cell {i}: run_cell: {e}"));
            }
            rtt_s += secs(t.elapsed());
        }
        let n = cells as f64;
        m.entry("fleet.cellkey_us")
            .or_default()
            .push(key_s * 1e6 / n);
        m.entry("fleet.cache_put_us")
            .or_default()
            .push(put_s * 1e6 / n);
        m.entry("fleet.cache_get_us")
            .or_default()
            .push(get_s * 1e6 / n);
        m.entry("fleet.worker_rtt_ms")
            .or_default()
            .push(rtt_s * 1e3 / n);

        let before = read_counters(&mut fleet);
        let t = Instant::now();
        match submit(&mut fleet, &spec) {
            Ok((got, _)) => {
                let cold_s = secs(t.elapsed());
                m.entry("fleet.overhead_per_cell_ms")
                    .or_default()
                    .push((cold_s - direct_s) * 1e3 / n);
                out.attempted += 1;
                if got.to_compact() != want {
                    out.fail(format!("job {j}: cold fleet result differs"));
                }
            }
            Err(e) => out.fail(format!("job {j} cold: {e}")),
        }
        match submit(&mut fleet, &spec) {
            Ok((got, _)) if got.to_compact() == want => out.attempted += 1,
            Ok(_) => out.fail(format!("job {j}: warm fleet result differs")),
            Err(e) => out.fail(format!("job {j} warm: {e}")),
        }
        for (total, (after, before)) in counters
            .iter_mut()
            .zip(read_counters(&mut fleet).into_iter().zip(before))
        {
            *total += after - before;
        }
    }
    let [hits, misses, dispatches] = counters;
    drop((direct, fleet));
    if let Err(e) = daemons.stop() {
        out.fail(e);
    }
    println!(
        "fleet-sweep: {cells_total} cells per pass; cache hits {hits}, misses {misses}, \
         dispatches {dispatches} (useful work: cells / dispatches = {:.3})",
        cells_total as f64 / dispatches.max(1.0)
    );
    out.push("faults.absorb_ns", faults.absorb.mean_ns(), "ns");
    out.push("faults.absorb_calls", faults.absorb.calls as f64, "count");
    out.push("faults.horizon_observe_ns", faults.horizon.mean_ns(), "ns");
    out.push(
        "faults.batch_cap_mean",
        faults.caps / faults.batches.max(1) as f64,
        "count",
    );
    for (name, unit) in [
        ("service.run_cell_ms", "ms"),
        ("service.submit_rtt_ms", "ms"),
        ("service.checkpoint_save_ms", "ms"),
        ("wire.frame_us", "us"),
        ("fleet.cellkey_us", "us"),
        ("fleet.cache_put_us", "us"),
        ("fleet.cache_get_us", "us"),
        ("fleet.worker_rtt_ms", "ms"),
        ("fleet.overhead_per_cell_ms", "ms"),
    ] {
        out.push(
            name,
            median(m.get(name).map_or(&[][..], Vec::as_slice)),
            unit,
        );
    }
    out.push("fleet.cache_hits", hits, "count");
    out.push("fleet.cache_misses", misses, "count");
    out.push("fleet.dispatches", dispatches, "count");
    out
}
