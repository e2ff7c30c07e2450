//! The lifetime simulation loops.
//!
//! Two methodologies share one driver skeleton:
//!
//! * **Fail-stop** ([`run_attack`], [`run_workload`]) — the DAC'17
//!   methodology: the run ends at the first
//!   [`PcmError::PageWornOut`], producing a single-failure-point
//!   [`LifetimeReport`].
//! * **Graceful degradation** ([`run_degradation_attack`],
//!   [`run_degradation_workload`]) — the device runs under
//!   `twl-faults`: wear-out manifests as cell faults absorbed by the
//!   correction budget, uncorrectable pages retire to spares, and the
//!   run ends at spare-pool exhaustion, producing a full
//!   [`DegradationReport`] curve.

use crate::{Calibration, DegradationEnd, DegradationPoint, DegradationReport, LifetimeReport};
use twl_attacks::AttackStream;
use twl_faults::FaultDomain;
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError};
use twl_telemetry::{SchemeSummary, TelemetryRecord, WearMapSampler};
use twl_wl_core::{AttackMonitor, WearLeveler, WriteOutcome};
use twl_workloads::SyntheticWorkload;

/// Safety limits for a lifetime run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLimits {
    /// Maximum logical writes before giving up (a run that has not
    /// killed a page by then reports `completed = false`).
    pub max_logical_writes: u64,
}

impl Default for SimLimits {
    /// 2 billion logical writes — more than the total endurance of any
    /// recommended scaled device, so defaults never truncate.
    fn default() -> Self {
        Self {
            max_logical_writes: 2_000_000_000,
        }
    }
}

/// The two write generators a lifetime run can consume, unified so the
/// simulation loop exists exactly once.
enum WriteSource<'a> {
    /// Attack streams see each write's outcome — the timing side
    /// channel of §3.2.
    Attack(&'a mut dyn AttackStream),
    /// Synthetic workloads ignore feedback (reads are skipped — they
    /// neither wear the device nor influence wear-leveling state).
    Workload(&'a mut SyntheticWorkload),
}

impl WriteSource<'_> {
    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        match self {
            Self::Attack(attack) => attack.next_write(feedback),
            Self::Workload(workload) => workload.next_write_la(),
        }
    }

    /// The batchability contract of [`AttackStream::next_run`], lifted
    /// over both source kinds. Workloads interleave reads and vary
    /// their addresses per write, so they always declare runs of 1.
    fn next_run(&mut self, feedback: Option<&WriteOutcome>, max: u64) -> (LogicalPageAddr, u64) {
        match self {
            Self::Attack(attack) => attack.next_run(feedback, max),
            Self::Workload(workload) => (workload.next_write_la(), 1),
        }
    }
}

/// Drives `attack` against `scheme` on `device` until a page wears out.
///
/// The attack receives each write's [`WriteOutcome`] as feedback — that
/// is the timing side channel of §3.2. The returned report carries the
/// scale-invariant capacity fraction and calibrated years.
///
/// Runs the event-skipping batched loop: streams that declare
/// deterministic runs (see [`AttackStream::next_run`]) are fast-forwarded
/// through [`WearLeveler::write_batch`], producing a report bit-identical
/// to [`run_attack_unbatched`] for the same seed.
///
/// The attack must generate addresses within `scheme.page_count()`.
pub fn run_attack(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    attack: &mut dyn AttackStream,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    let workload_name = attack.name().to_owned();
    drive(
        scheme,
        device,
        WriteSource::Attack(attack),
        &workload_name,
        limits,
        calibration,
    )
}

/// The per-write reference loop behind [`run_attack`] — same semantics,
/// no batching. Kept as the equivalence oracle for the fast path and as
/// the baseline of the `throughput` bench.
pub fn run_attack_unbatched(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    attack: &mut dyn AttackStream,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    let workload_name = attack.name().to_owned();
    drive_unbatched(
        scheme,
        device,
        WriteSource::Attack(attack),
        &workload_name,
        limits,
        calibration,
    )
}

/// Drives a synthetic workload's write stream against `scheme` until a
/// page wears out.
///
/// The workload must generate addresses within `scheme.page_count()`.
pub fn run_workload(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut SyntheticWorkload,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    drive(
        scheme,
        device,
        WriteSource::Workload(workload),
        workload_name,
        limits,
        calibration,
    )
}

/// The per-write reference loop behind [`run_workload`] — same
/// semantics, no batching.
pub fn run_workload_unbatched(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut SyntheticWorkload,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    drive_unbatched(
        scheme,
        device,
        WriteSource::Workload(workload),
        workload_name,
        limits,
        calibration,
    )
}

/// The batched fail-stop loop: ask the source for its next deterministic
/// run, service it through [`WearLeveler::write_batch`] (which collapses
/// event-free stretches into O(1) bulk device writes), and stop at the
/// first worn-out page or the write budget, whichever comes first.
///
/// Equivalence with [`drive_unbatched`]: a run of length `len` promises
/// the source would have produced the same address for `len` per-write
/// calls regardless of feedback, and `write_batch` promises state
/// identical to `len` scalar writes — so the only observable difference
/// is wear-snapshot granularity (see [`RunTelemetry::observe_batch`]).
fn drive(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    mut source: WriteSource<'_>,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    // Wall-clock only; spans never touch the RNG or simulated state, so
    // the batched loop stays bit-identical with tracing on. One span
    // covers the whole batched write path — never per-batch timing.
    let _span = twl_telemetry::span!("drive", scheme.name());
    let mut telemetry = RunTelemetry::begin(scheme, device, workload_name);
    let mut feedback: Option<WriteOutcome> = None;
    let mut logical_writes = 0u64;
    let mut failure = None;
    while logical_writes < limits.max_logical_writes {
        let budget = limits.max_logical_writes - logical_writes;
        let (la, len) = source.next_run(feedback.as_ref(), budget);
        let len = len.clamp(1, budget);
        let device_writes_before = device.total_writes();
        let batch = scheme.write_batch(la, len, device);
        if batch.serviced > 0 {
            logical_writes += batch.serviced;
            telemetry.observe_batch(
                la,
                batch.serviced,
                device.total_writes() - device_writes_before,
                device,
            );
            feedback = batch.last;
        }
        match batch.failure {
            Some(PcmError::PageWornOut { addr, .. }) => {
                failure = Some(addr);
                break;
            }
            Some(e) => unreachable!("lifetime sim hit a non-wear-out device error: {e}"),
            None => assert!(
                batch.serviced == len,
                "write_batch serviced {} of {len} writes without failing",
                batch.serviced
            ),
        }
    }
    let alarm_rate = telemetry.end(device);
    // Close the drive span before reporting so `report` is its sibling
    // (queue-wait → build → drive → report), not its child.
    drop(_span);
    finish(
        scheme,
        device,
        workload_name.to_owned(),
        logical_writes,
        failure,
        calibration,
        alarm_rate,
    )
}

/// The per-write fail-stop loop: the pre-batching reference semantics.
fn drive_unbatched(
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    mut source: WriteSource<'_>,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> LifetimeReport {
    let _span = twl_telemetry::span!("drive_unbatched", scheme.name());
    let mut telemetry = RunTelemetry::begin(scheme, device, workload_name);
    let mut feedback: Option<WriteOutcome> = None;
    let mut logical_writes = 0u64;
    let mut failure = None;
    while logical_writes < limits.max_logical_writes {
        let la = source.next_write(feedback.as_ref());
        match scheme.write(la, device) {
            Ok(out) => {
                logical_writes += 1;
                telemetry.observe(la, &out, device);
                feedback = Some(out);
            }
            Err(PcmError::PageWornOut { addr, .. }) => {
                failure = Some(addr);
                break;
            }
            Err(e) => unreachable!("lifetime sim hit a non-wear-out device error: {e}"),
        }
    }
    let alarm_rate = telemetry.end(device);
    drop(_span);
    finish(
        scheme,
        device,
        workload_name.to_owned(),
        logical_writes,
        failure,
        calibration,
        alarm_rate,
    )
}

/// Drives `attack` against `scheme` on a fault-tolerant [`FaultDomain`]
/// until the spare pool is exhausted (or the write budget runs out),
/// recording the degradation curve.
///
/// The attack must generate addresses within `domain.data_pages`.
pub fn run_degradation_attack(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    attack: &mut dyn AttackStream,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    let workload_name = attack.name().to_owned();
    drive_degraded(
        scheme,
        domain,
        WriteSource::Attack(attack),
        &workload_name,
        limits,
        calibration,
    )
}

/// The per-write reference loop behind [`run_degradation_attack`] —
/// same semantics, no batching: faults are absorbed after every single
/// logical write. Kept as the equivalence oracle for the batched
/// degradation path.
pub fn run_degradation_attack_unbatched(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    attack: &mut dyn AttackStream,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    let workload_name = attack.name().to_owned();
    drive_degraded_unbatched(
        scheme,
        domain,
        WriteSource::Attack(attack),
        &workload_name,
        limits,
        calibration,
    )
}

/// Drives a synthetic workload against `scheme` on a fault-tolerant
/// [`FaultDomain`] until the spare pool is exhausted (or the write
/// budget runs out), recording the degradation curve.
///
/// The workload must generate addresses within `domain.data_pages`.
pub fn run_degradation_workload(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    workload: &mut SyntheticWorkload,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    drive_degraded(
        scheme,
        domain,
        WriteSource::Workload(workload),
        workload_name,
        limits,
        calibration,
    )
}

/// The per-write reference loop behind [`run_degradation_workload`] —
/// same semantics, no batching.
pub fn run_degradation_workload_unbatched(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    workload: &mut SyntheticWorkload,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    drive_degraded_unbatched(
        scheme,
        domain,
        WriteSource::Workload(workload),
        workload_name,
        limits,
        calibration,
    )
}

/// Bookkeeping shared by the batched and per-write degradation loops:
/// the curve and the three milestone device-write counts, advanced by
/// [`DegradedProgress::absorb_and_record`] so both loops observe fault
/// events through literally the same code.
struct DegradedProgress {
    logical_writes: u64,
    curve: Vec<DegradationPoint>,
    first_fault: Option<u64>,
    first_retirement: Option<u64>,
    spare_exhausted: Option<u64>,
    end: DegradationEnd,
}

impl DegradedProgress {
    fn new() -> Self {
        Self {
            logical_writes: 0,
            curve: Vec::new(),
            first_fault: None,
            first_retirement: None,
            spare_exhausted: None,
            end: DegradationEnd::WriteBudget,
        }
    }

    /// Runs one fault absorption and folds its events into the
    /// milestones and the curve. Returns `false` when the spare pool is
    /// exhausted — the graceful-degradation end of life.
    fn absorb_and_record(
        &mut self,
        engine: &mut twl_faults::FaultEngine,
        device: &mut PcmDevice,
        scheme_name: &str,
        workload_name: &str,
        total_pages: u64,
        absorb_span: &mut twl_telemetry::AggregateSpan,
    ) -> bool {
        match absorb_span.time(|| engine.absorb(device)) {
            Ok(absorbed) => {
                if absorbed.corrected_now > 0 && self.first_fault.is_none() {
                    self.first_fault = Some(device.total_writes());
                }
                if !absorbed.retirements.is_empty() {
                    self.first_retirement.get_or_insert(device.total_writes());
                    let point = DegradationPoint {
                        logical_writes: self.logical_writes,
                        device_writes: device.total_writes(),
                        corrected_groups: engine.corrected_groups(),
                        retired_pages: device.retired_pages(),
                        spares_remaining: device.spares_remaining(),
                    };
                    self.curve.push(point);
                    emit_degradation_point(scheme_name, workload_name, &point, total_pages);
                }
                true
            }
            Err(PcmError::SparesExhausted { .. }) => {
                self.spare_exhausted = Some(device.total_writes());
                self.end = DegradationEnd::SpareExhausted;
                false
            }
            Err(e) => unreachable!("fault engine hit a non-spare device error: {e}"),
        }
    }

    /// Closes the curve and assembles the report from the final device
    /// and engine state.
    fn finish(
        mut self,
        scheme_name: &str,
        workload_name: &str,
        domain: &FaultDomain,
        calibration: &Calibration,
    ) -> DegradationReport {
        let device = &domain.device;
        let engine = &domain.engine;
        let total_pages = domain.data_pages + domain.spare_pages;
        let final_point = DegradationPoint {
            logical_writes: self.logical_writes,
            device_writes: device.total_writes(),
            corrected_groups: engine.corrected_groups(),
            retired_pages: device.retired_pages(),
            spares_remaining: device.spares_remaining(),
        };
        if self.curve.last() != Some(&final_point) {
            self.curve.push(final_point);
            emit_degradation_point(scheme_name, workload_name, &final_point, total_pages);
        }
        let capacity_fraction =
            device.total_writes() as f64 / device.endurance_map().total() as f64;
        DegradationReport {
            scheme: scheme_name.to_owned(),
            workload: workload_name.to_owned(),
            data_pages: domain.data_pages,
            spare_pages: domain.spare_pages,
            logical_writes: self.logical_writes,
            device_writes: device.total_writes(),
            corrected_groups: engine.corrected_groups(),
            retired_pages: device.retired_pages(),
            first_fault_device_writes: self.first_fault,
            first_retirement_device_writes: self.first_retirement,
            spare_exhausted_device_writes: self.spare_exhausted,
            end: self.end,
            capacity_fraction,
            years: calibration.years(capacity_fraction),
            wear_gini: device.wear_stats().wear_gini,
            curve: self.curve,
        }
    }
}

/// The batched graceful-degradation loop: the fault engine absorbs new
/// cell faults after every serviced batch; each retirement appends a
/// curve point (and a `degradation_point` trace record), and
/// [`PcmError::SparesExhausted`] ends the run.
///
/// Batching is exact here, not approximate: an
/// [`twl_faults::EventHorizon`] tracks every page's wear-distance to
/// its next *observable* fault event (the run's first corrected group,
/// then each retirement threshold), and each batch is capped through
/// [`WearLeveler::write_batch_cap`] so no page can cross an event
/// mid-batch. Quiet stretches batch by the thousands; as a page
/// approaches a threshold the cap shrinks to one, so the crossing write
/// is absorbed at exactly the device-write count the per-write loop
/// would observe. The result is bit-identical to
/// [`drive_degraded_unbatched`] for the same seed.
fn drive_degraded(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    mut source: WriteSource<'_>,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    let device = &mut domain.device;
    let engine = &mut domain.engine;
    let total_pages = domain.data_pages + domain.spare_pages;
    let _span = twl_telemetry::span!("drive_degraded", scheme.name());
    // Fault absorption runs once per batch — too often for one record
    // each, hot enough to want visibility. The aggregate folds every
    // call into a single span record with a `count`.
    let mut absorb_span = twl_telemetry::AggregateSpan::new("absorb", scheme.name());
    let mut telemetry = RunTelemetry::begin(scheme, device, workload_name);
    let mut feedback: Option<WriteOutcome> = None;
    let mut progress = DegradedProgress::new();
    let mut horizon = twl_faults::EventHorizon::new(engine, device);
    while progress.logical_writes < limits.max_logical_writes {
        // The scheme translates the wear margin into the largest batch
        // that cannot push any single page across it.
        let cap = scheme.write_batch_cap(horizon.wear_margin()).max(1);
        let budget = (limits.max_logical_writes - progress.logical_writes).min(cap);
        let (la, len) = source.next_run(feedback.as_ref(), budget);
        let len = len.clamp(1, budget);
        let device_writes_before = device.total_writes();
        let batch = scheme.write_batch(la, len, device);
        if batch.serviced > 0 {
            progress.logical_writes += batch.serviced;
            telemetry.observe_batch(
                la,
                batch.serviced,
                device.total_writes() - device_writes_before,
                device,
            );
            feedback = batch.last;
        }
        // Unlimited wear policy: the device never fail-stops, so any
        // error here is a simulation bug.
        if let Some(e) = batch.failure {
            unreachable!("degradation sim hit a device error: {e}");
        }
        assert!(
            batch.serviced == len,
            "write_batch serviced {} of {len} writes without failing",
            batch.serviced
        );
        if !progress.absorb_and_record(
            engine,
            device,
            scheme.name(),
            workload_name,
            total_pages,
            &mut absorb_span,
        ) {
            break;
        }
        horizon.observe(engine, device);
    }
    telemetry.end(device);
    progress.finish(scheme.name(), workload_name, domain, calibration)
}

/// The per-write graceful-degradation loop: the pre-batching reference
/// semantics, absorbing faults after every single logical write. The
/// equivalence oracle for [`drive_degraded`].
fn drive_degraded_unbatched(
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    mut source: WriteSource<'_>,
    workload_name: &str,
    limits: &SimLimits,
    calibration: &Calibration,
) -> DegradationReport {
    let device = &mut domain.device;
    let engine = &mut domain.engine;
    let total_pages = domain.data_pages + domain.spare_pages;
    let _span = twl_telemetry::span!("drive_degraded_unbatched", scheme.name());
    let mut absorb_span = twl_telemetry::AggregateSpan::new("absorb", scheme.name());
    let mut telemetry = RunTelemetry::begin(scheme, device, workload_name);
    let mut feedback: Option<WriteOutcome> = None;
    let mut progress = DegradedProgress::new();
    while progress.logical_writes < limits.max_logical_writes {
        let la = source.next_write(feedback.as_ref());
        match scheme.write(la, device) {
            Ok(out) => {
                progress.logical_writes += 1;
                telemetry.observe(la, &out, device);
                feedback = Some(out);
            }
            Err(e) => unreachable!("degradation sim hit a device error: {e}"),
        }
        if !progress.absorb_and_record(
            engine,
            device,
            scheme.name(),
            workload_name,
            total_pages,
            &mut absorb_span,
        ) {
            break;
        }
    }
    telemetry.end(device);
    progress.finish(scheme.name(), workload_name, domain, calibration)
}

fn emit_degradation_point(
    scheme: &str,
    workload: &str,
    point: &DegradationPoint,
    total_pages: u64,
) {
    twl_telemetry::emit(&TelemetryRecord::Degradation {
        scheme: scheme.to_owned(),
        workload: workload.to_owned(),
        at_logical_writes: point.logical_writes,
        at_device_writes: point.device_writes,
        corrected_groups: point.corrected_groups,
        retired_pages: point.retired_pages,
        spares_remaining: point.spares_remaining,
        capacity_fraction: 1.0 - point.retired_pages as f64 / total_pages as f64,
    });
}

/// Number of wear-map snapshots a full lifetime run aims for.
const WEAR_SNAPSHOTS_PER_RUN: u64 = 32;

/// Per-run observability: a wear-map sampler plus a passive HPCA'11
/// attack monitor over the logical write stream. Fully skipped (no
/// state, no per-write work beyond one branch) when no telemetry sink
/// is installed when the run starts.
struct RunTelemetry {
    scheme: String,
    workload: String,
    active: Option<(WearMapSampler, AttackMonitor)>,
}

impl RunTelemetry {
    fn begin(scheme: &dyn WearLeveler, device: &PcmDevice, workload: &str) -> Self {
        let active = twl_telemetry::enabled().then(|| {
            // Aim for WEAR_SNAPSHOTS_PER_RUN samples over the device's
            // total endurance — the longest any run can last.
            let cadence =
                u64::try_from(device.endurance_map().total() / u128::from(WEAR_SNAPSHOTS_PER_RUN))
                    .unwrap_or(u64::MAX)
                    .max(1);
            (
                WearMapSampler::new(cadence, WEAR_SNAPSHOTS_PER_RUN as usize),
                AttackMonitor::for_pages(),
            )
        });
        Self {
            scheme: scheme.name().to_owned(),
            workload: workload.to_owned(),
            active,
        }
    }

    /// Batch-granular observation: the monitor replays the batch
    /// exactly (one `Alarm` record per alarmed window close, identical
    /// to per-write observation), while the wear sampler sees the whole
    /// batch's device-write delta at once — snapshots land on batch
    /// boundaries instead of exact cadence multiples, the one telemetry
    /// divergence of the fast path.
    fn observe_batch(
        &mut self,
        la: twl_pcm::LogicalPageAddr,
        serviced: u64,
        device_write_delta: u64,
        device: &PcmDevice,
    ) {
        let Some((sampler, monitor)) = &mut self.active else {
            return;
        };
        for (window, share) in monitor.observe_writes(la, serviced) {
            twl_telemetry::emit(&TelemetryRecord::Alarm {
                scheme: self.scheme.clone(),
                window,
                share,
            });
        }
        if let Some(snapshot) = sampler.observe(device_write_delta, device.wear_counters()) {
            twl_telemetry::emit(&TelemetryRecord::Wear {
                scheme: self.scheme.clone(),
                workload: self.workload.clone(),
                snapshot: snapshot.clone(),
            });
        }
    }

    fn observe(&mut self, la: twl_pcm::LogicalPageAddr, out: &WriteOutcome, device: &PcmDevice) {
        let Some((sampler, monitor)) = &mut self.active else {
            return;
        };
        if monitor.observe_write(la, Some(out)) {
            twl_telemetry::emit(&TelemetryRecord::Alarm {
                scheme: self.scheme.clone(),
                window: monitor.windows(),
                share: monitor.last_window_share(),
            });
        }
        if let Some(snapshot) =
            sampler.observe(u64::from(out.device_writes), device.wear_counters())
        {
            twl_telemetry::emit(&TelemetryRecord::Wear {
                scheme: self.scheme.clone(),
                workload: self.workload.clone(),
                snapshot: snapshot.clone(),
            });
        }
    }

    /// Emits the final wear snapshot and returns the observed alarm rate.
    fn end(mut self, device: &PcmDevice) -> f64 {
        let Some((sampler, monitor)) = &mut self.active else {
            return 0.0;
        };
        let snapshot = sampler.snapshot_now(device.wear_counters()).clone();
        twl_telemetry::emit(&TelemetryRecord::Wear {
            scheme: self.scheme.clone(),
            workload: self.workload.clone(),
            snapshot,
        });
        monitor.alarm_rate()
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    scheme: &dyn WearLeveler,
    device: &PcmDevice,
    workload: String,
    logical_writes: u64,
    failure: Option<twl_pcm::PhysicalPageAddr>,
    calibration: &Calibration,
    alarm_rate: f64,
) -> LifetimeReport {
    let _span = twl_telemetry::span!("report", scheme.name());
    let stats = scheme.stats();
    let total_endurance = device.endurance_map().total() as f64;
    let capacity_fraction = device.total_writes() as f64 / total_endurance;
    let report = LifetimeReport {
        scheme: scheme.name().to_owned(),
        workload,
        logical_writes,
        device_writes: device.total_writes(),
        failed_page: failure,
        completed: failure.is_some(),
        capacity_fraction,
        years: calibration.years(capacity_fraction),
        swap_per_write: stats.swap_per_write(),
        extra_write_ratio: stats.extra_write_ratio(),
        wear_gini: device.wear_stats().wear_gini,
    };
    twl_telemetry::emit(&TelemetryRecord::Summary(SchemeSummary {
        scheme: report.scheme.clone(),
        workload: report.workload.clone(),
        logical_writes: report.logical_writes,
        device_writes: report.device_writes,
        swaps: stats.swaps,
        swap_per_write: report.swap_per_write,
        extra_write_ratio: report.extra_write_ratio,
        alarm_rate,
        capacity_fraction: report.capacity_fraction,
        years: report.years,
        wear_gini: report.wear_gini,
        completed: report.completed,
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_scheme, build_scheme_for_region, SchemeKind};
    use twl_attacks::{Attack, AttackKind};
    use twl_faults::{provision, FaultConfig};
    use twl_pcm::PcmConfig;
    use twl_workloads::ParsecBenchmark;

    fn device(pages: u64, endurance: u64) -> PcmDevice {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .seed(13)
            .build()
            .unwrap();
        PcmDevice::new(&pcm)
    }

    #[test]
    fn nowl_under_repeat_dies_after_one_page() {
        let mut dev = device(256, 1_000);
        let mut scheme = build_scheme(SchemeKind::Nowl, &dev).unwrap();
        let mut attack = Attack::new(AttackKind::Repeat, 256, 0);
        let report = run_attack(
            scheme.as_mut(),
            &mut dev,
            &mut attack,
            &SimLimits::default(),
            &Calibration::attack_8gbps(),
        );
        assert!(report.completed);
        // One page's endurance out of 256 pages' worth: fraction ≈ 1/256.
        assert!(
            report.capacity_fraction < 0.01,
            "{}",
            report.capacity_fraction
        );
        assert_eq!(report.scheme, "NOWL");
        assert_eq!(report.workload, "repeat");
    }

    #[test]
    fn twl_outlives_nowl_under_every_attack() {
        for kind in AttackKind::ALL {
            let mut dev_a = device(128, 2_000);
            let mut nowl = build_scheme(SchemeKind::Nowl, &dev_a).unwrap();
            let mut attack = Attack::new(kind, 128, 1);
            let nowl_report = run_attack(
                nowl.as_mut(),
                &mut dev_a,
                &mut attack,
                &SimLimits::default(),
                &Calibration::attack_8gbps(),
            );

            let mut dev_b = device(128, 2_000);
            let mut twl = build_scheme(SchemeKind::TwlSwp, &dev_b).unwrap();
            let mut attack = Attack::new(kind, 128, 1);
            let twl_report = run_attack(
                twl.as_mut(),
                &mut dev_b,
                &mut attack,
                &SimLimits::default(),
                &Calibration::attack_8gbps(),
            );
            assert!(
                twl_report.capacity_fraction > nowl_report.capacity_fraction,
                "{kind}: TWL {} vs NOWL {}",
                twl_report.capacity_fraction,
                nowl_report.capacity_fraction
            );
        }
    }

    #[test]
    fn limits_truncate_and_flag_incomplete() {
        let mut dev = device(128, 1_000_000);
        let mut scheme = build_scheme(SchemeKind::TwlSwp, &dev).unwrap();
        let mut attack = Attack::new(AttackKind::Random, 128, 2);
        let limits = SimLimits {
            max_logical_writes: 5_000,
        };
        let report = run_attack(
            scheme.as_mut(),
            &mut dev,
            &mut attack,
            &limits,
            &Calibration::attack_8gbps(),
        );
        assert!(!report.completed);
        assert_eq!(report.logical_writes, 5_000);
    }

    #[test]
    fn workload_run_reports_benchmark_name() {
        let mut dev = device(256, 2_000);
        let mut scheme = build_scheme(SchemeKind::Nowl, &dev).unwrap();
        let bench = ParsecBenchmark::Canneal;
        let mut workload = bench.workload(256, 3);
        let report = run_workload(
            scheme.as_mut(),
            &mut dev,
            &mut workload,
            bench.name(),
            &SimLimits::default(),
            &Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps()),
        );
        assert!(report.completed);
        assert_eq!(report.workload, "canneal");
        assert!(report.years > 0.0);
    }

    fn degradation_domain(pages: u64, endurance: u64) -> twl_faults::FaultDomain {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .seed(13)
            .build()
            .unwrap();
        provision(
            &pcm,
            &FaultConfig {
                cell_groups_per_page: 8,
                group_sigma_fraction: 0.15,
                policy: twl_faults::CorrectionPolicy::Ecp { entries: 2 },
                spare_fraction: 0.05,
                seed: 99,
            },
        )
        .unwrap()
    }

    #[test]
    fn degradation_run_outlives_failstop_and_builds_a_curve() {
        // Fail-stop NOWL under repeat dies at the weakest page.
        let mut dev = device(128, 1_000);
        let mut scheme = build_scheme(SchemeKind::Nowl, &dev).unwrap();
        let mut attack = Attack::new(AttackKind::Repeat, 128, 0);
        let failstop = run_attack(
            scheme.as_mut(),
            &mut dev,
            &mut attack,
            &SimLimits::default(),
            &Calibration::attack_8gbps(),
        );

        // The same scheme with fault tolerance keeps going through the
        // correction budget and every spare.
        let mut domain = degradation_domain(128, 1_000);
        let mut scheme = build_scheme_for_region(SchemeKind::Nowl, &domain.device, 128).unwrap();
        let mut attack = Attack::new(AttackKind::Repeat, 128, 0);
        let report = run_degradation_attack(
            scheme.as_mut(),
            &mut domain,
            &mut attack,
            &SimLimits::default(),
            &Calibration::attack_8gbps(),
        );
        assert_eq!(report.end, DegradationEnd::SpareExhausted);
        assert!(report.device_writes > failstop.device_writes);
        assert!(report.spare_exhausted_device_writes.is_some());
        let first_fault = report.first_fault_device_writes.unwrap();
        let first_retirement = report.first_retirement_device_writes.unwrap();
        assert!(first_fault <= first_retirement);
        assert!(first_retirement <= report.spare_exhausted_device_writes.unwrap());
        // Every retirement consumes one spare, and the run ends on the
        // first retirement the empty pool cannot serve.
        assert_eq!(report.retired_pages, report.spare_pages);
        assert!(!report.curve.is_empty());
        // The curve is monotone in every dimension.
        for w in report.curve.windows(2) {
            assert!(w[0].device_writes <= w[1].device_writes);
            assert!(w[0].corrected_groups <= w[1].corrected_groups);
            assert!(w[0].retired_pages <= w[1].retired_pages);
            assert!(w[0].spares_remaining >= w[1].spares_remaining);
        }
        assert!(report.surviving_capacity() < 1.0);
        assert!(report.device_writes_to_capacity_loss(0.001).is_some());
    }

    #[test]
    fn degradation_write_budget_flags_lower_bound() {
        let mut domain = degradation_domain(128, 100_000);
        let mut scheme = build_scheme_for_region(SchemeKind::TwlSwp, &domain.device, 128).unwrap();
        let mut attack = Attack::new(AttackKind::Random, 128, 2);
        let limits = SimLimits {
            max_logical_writes: 2_000,
        };
        let report = run_degradation_attack(
            scheme.as_mut(),
            &mut domain,
            &mut attack,
            &limits,
            &Calibration::attack_8gbps(),
        );
        assert_eq!(report.end, DegradationEnd::WriteBudget);
        assert_eq!(report.logical_writes, 2_000);
        assert!(report.spare_exhausted_device_writes.is_none());
        assert_eq!(report.retired_pages, 0);
        // The closing curve point is still present.
        assert_eq!(report.curve.len(), 1);
        assert_eq!(report.curve[0].spares_remaining, report.spare_pages);
    }
}
