//! The lifetime simulation loop.
//!
//! One private `drive` loop serves two methodologies, told apart by a
//! generic `Regime` (so each compiles to its own loop, with no per-write
//! dynamic dispatch):
//!
//! * **Fail-stop** ([`run_attack`]) — the DAC'17 methodology: the run
//!   ends at the first [`PcmError::PageWornOut`], producing a
//!   single-failure-point [`LifetimeReport`].
//! * **Graceful degradation** ([`run_degradation_attack`]) — the device
//!   runs under `twl-faults`: wear-out manifests as cell faults
//!   absorbed by the correction budget, uncorrectable pages retire to
//!   spares, and the run ends at spare-pool exhaustion, producing a
//!   full [`DegradationReport`] curve.
//!
//! Both take any [`AttackStream`]: an attack, or the
//! `twl_workloads::BuiltWorkload` a `WorkloadSpec` builds for a PARSEC
//! generator or a captured trace.
//!
//! The per-write reference oracles (the `*_unbatched` functions) are
//! the same loop driven through two scalar adapters: a scheme wrapper
//! that keeps the trait's default [`WearLeveler::write_batch`] (a loop
//! over [`WearLeveler::write`]) and [`WearLeveler::write_batch_cap`]
//! (one write), and a stream wrapper that keeps the default
//! [`AttackStream::next_run`] (one [`AttackStream::next_write`]). Every
//! batch is then a single scalar write, so the oracle exercises only
//! the scalar paths but cannot drift from the fast path's loop.

use crate::{Calibration, DegradationEnd, DegradationPoint, DegradationReport, LifetimeReport};
use twl_attacks::AttackStream;
use twl_faults::{EventHorizon, FaultDomain, FaultEngine};
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_telemetry::{AggregateSpan, SchemeSummary, SpanGuard, TelemetryRecord, WearMapSampler};
use twl_wl_core::{AttackMonitor, BatchOutcome, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

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
    drive(
        scheme,
        device,
        attack,
        limits,
        FailStop::new(calibration),
        "drive",
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
    drive(
        &mut ScalarScheme(scheme),
        device,
        &mut ScalarStream(attack),
        limits,
        FailStop::new(calibration),
        "drive_unbatched",
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
    let (device, regime) = Degradation::new(domain, calibration, scheme.name());
    drive(scheme, device, attack, limits, regime, "drive_degraded")
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
    let (device, regime) = Degradation::new(domain, calibration, scheme.name());
    drive(
        &mut ScalarScheme(scheme),
        device,
        &mut ScalarStream(attack),
        limits,
        regime,
        "drive_degraded_unbatched",
    )
}

/// The lifetime loop: ask the stream for its next deterministic run,
/// capped by the write budget and the regime, service it through
/// [`WearLeveler::write_batch`] (which collapses event-free stretches
/// into O(1) bulk device writes), and let the regime settle the batch —
/// until a write fails, the regime ends the run, or the budget is spent.
///
/// Batching is exact: a run of length `len` promises the stream would
/// have produced the same address for `len` per-write calls regardless
/// of feedback, `write_batch` promises state identical to `len` scalar
/// writes, and the regime's cap keeps every observable event on a batch
/// boundary. So the only observable difference from the scalar adapters
/// is wear-snapshot granularity (see [`RunTelemetry::observe_batch`]).
fn drive<S, A, R>(
    scheme: &mut S,
    device: &mut PcmDevice,
    stream: &mut A,
    limits: &SimLimits,
    mut regime: R,
    span: &'static str,
) -> R::Report
where
    S: WearLeveler + ?Sized,
    A: AttackStream + ?Sized,
    R: Regime,
{
    // Wall-clock only; spans never touch the RNG or simulated state, so
    // the loop stays bit-identical with tracing on. One span covers the
    // whole write path — never per-batch timing.
    let drive_span = twl_telemetry::span!(span, scheme.name());
    let scheme_name = scheme.name().to_owned();
    let workload = stream.name().to_owned();
    let mut telemetry = RunTelemetry::begin(&scheme_name, &workload, device);
    let mut logical_writes = 0u64;
    // Each run is fetched at the end of the batch before it, so the
    // stream reads its feedback in place from that batch's outcome:
    // copying the outcome into a longer-lived slot first cost the
    // per-write oracle about a third of its speed.
    let mut run = next_run(scheme, stream, &mut regime, limits.max_logical_writes, None);
    while let Some((la, len)) = run {
        let device_writes_before = device.total_writes();
        let BatchOutcome {
            serviced,
            last,
            failure,
        } = scheme.write_batch(la, len, device);
        if serviced > 0 {
            logical_writes += serviced;
            if let Some(telemetry) = &mut telemetry {
                let device_writes = device.total_writes() - device_writes_before;
                telemetry.observe_batch(la, serviced, device_writes, device);
            }
        }
        if let Some(error) = failure {
            regime.fail(error);
            break;
        }
        assert!(
            serviced == len,
            "write_batch serviced {serviced} of {len} writes without failing"
        );
        if !regime.settle(device, logical_writes, &scheme_name, &workload) {
            break;
        }
        let remaining = limits.max_logical_writes - logical_writes;
        run = next_run(scheme, stream, &mut regime, remaining, last.as_ref());
    }
    let alarm_rate = telemetry.map_or(0.0, |telemetry| telemetry.end(device));
    let run = RunEnd {
        drive_span,
        scheme: &scheme_name,
        workload,
        logical_writes,
        alarm_rate,
    };
    regime.finish(run, scheme.stats(), device)
}

/// The stream's next run, clamped to at least one write and at most
/// the remaining budget and the regime's cap; `None` once the budget
/// is spent.
fn next_run<S, A, R>(
    scheme: &S,
    stream: &mut A,
    regime: &mut R,
    remaining: u64,
    feedback: Option<&WriteOutcome>,
) -> Option<(LogicalPageAddr, u64)>
where
    S: WearLeveler + ?Sized,
    A: AttackStream + ?Sized,
    R: Regime,
{
    if remaining == 0 {
        return None;
    }
    let budget = remaining.min(regime.batch_cap(scheme));
    let (la, len) = stream.next_run(feedback, budget);
    Some((la, len.clamp(1, budget)))
}

/// What the loop hands its regime when the run is over.
struct RunEnd<'a> {
    /// The still-open `drive` span; the regime closes it.
    drive_span: SpanGuard,
    scheme: &'a str,
    workload: String,
    logical_writes: u64,
    alarm_rate: f64,
}

/// The seam between the two methodologies: how large the next batch
/// may be, what a failed write means, what happens after each batch,
/// and which report the run produces.
trait Regime {
    type Report;

    /// Upper bound on the next batch's length (at least 1).
    fn batch_cap<S: WearLeveler + ?Sized>(&mut self, scheme: &S) -> u64;

    /// A write failed: the run ends here.
    fn fail(&mut self, error: PcmError);

    /// Settles a fully serviced batch; `false` ends the run.
    fn settle(
        &mut self,
        device: &mut PcmDevice,
        logical_writes: u64,
        scheme: &str,
        workload: &str,
    ) -> bool;

    /// Closes the run's span and assembles its report.
    fn finish(self, run: RunEnd<'_>, stats: &WlStats, device: &PcmDevice) -> Self::Report;
}

/// Fail-stop: batches are bounded only by the write budget, and the
/// run ends at the first worn-out page.
struct FailStop<'a> {
    calibration: &'a Calibration,
    failure: Option<PhysicalPageAddr>,
}

impl<'a> FailStop<'a> {
    fn new(calibration: &'a Calibration) -> Self {
        Self {
            calibration,
            failure: None,
        }
    }
}

impl Regime for FailStop<'_> {
    type Report = LifetimeReport;

    fn batch_cap<S: WearLeveler + ?Sized>(&mut self, _scheme: &S) -> u64 {
        u64::MAX
    }

    fn fail(&mut self, error: PcmError) {
        match error {
            PcmError::PageWornOut { addr, .. } => self.failure = Some(addr),
            e => unreachable!("lifetime sim hit a non-wear-out device error: {e}"),
        }
    }

    fn settle(&mut self, _: &mut PcmDevice, _: u64, _: &str, _: &str) -> bool {
        true
    }

    fn finish(self, run: RunEnd<'_>, stats: &WlStats, device: &PcmDevice) -> LifetimeReport {
        // Close the drive span before reporting so `report` is its
        // sibling (queue-wait → build → drive → report), not its child.
        drop(run.drive_span);
        let _span = twl_telemetry::span!("report", run.scheme);
        let total_endurance = device.endurance_map().total() as f64;
        let capacity_fraction = device.total_writes() as f64 / total_endurance;
        let report = LifetimeReport {
            scheme: run.scheme.to_owned(),
            workload: run.workload,
            logical_writes: run.logical_writes,
            device_writes: device.total_writes(),
            failed_page: self.failure,
            completed: self.failure.is_some(),
            capacity_fraction,
            years: self.calibration.years(capacity_fraction),
            swap_per_write: stats.swap_per_write(),
            extra_write_ratio: stats.extra_write_ratio(),
            wear_gini: twl_pcm::wear_gini(device.wear_counters()),
        };
        twl_telemetry::emit(&TelemetryRecord::Summary(SchemeSummary {
            scheme: report.scheme.clone(),
            workload: report.workload.clone(),
            logical_writes: report.logical_writes,
            device_writes: report.device_writes,
            swaps: stats.swaps,
            swap_per_write: report.swap_per_write,
            extra_write_ratio: report.extra_write_ratio,
            alarm_rate: run.alarm_rate,
            capacity_fraction: report.capacity_fraction,
            years: report.years,
            wear_gini: report.wear_gini,
            completed: report.completed,
        }));
        report
    }
}

/// Graceful degradation: the fault engine absorbs new cell faults after
/// every batch; each retirement appends a curve point (and a
/// `degradation_point` trace record), and [`PcmError::SparesExhausted`]
/// ends the run.
///
/// Batching is exact here, not approximate: an [`EventHorizon`] tracks
/// every page's wear-distance to its next *observable* fault event (the
/// run's first corrected group, then each retirement threshold), and
/// each batch is capped through [`WearLeveler::write_batch_cap`] so no
/// page can cross an event mid-batch. Quiet stretches batch by the
/// thousands; as a page approaches a threshold the cap shrinks to one,
/// so the crossing write is absorbed at exactly the device-write count
/// a per-write run would observe.
struct Degradation<'a> {
    engine: &'a mut FaultEngine,
    horizon: EventHorizon,
    // Fault absorption runs once per batch — too often for one record
    // each, hot enough to want visibility. The aggregate folds every
    // call into a single span record with a `count`.
    absorb_span: AggregateSpan,
    data_pages: u64,
    spare_pages: u64,
    calibration: &'a Calibration,
    curve: Vec<DegradationPoint>,
    first_fault: Option<u64>,
    first_retirement: Option<u64>,
    spare_exhausted: Option<u64>,
    end: DegradationEnd,
}

impl<'a> Degradation<'a> {
    /// Splits `domain` into the device the loop writes and the regime
    /// that owns its fault engine.
    fn new(
        domain: &'a mut FaultDomain,
        calibration: &'a Calibration,
        scheme: &str,
    ) -> (&'a mut PcmDevice, Self) {
        let FaultDomain {
            device,
            engine,
            data_pages,
            spare_pages,
        } = domain;
        let regime = Self {
            horizon: EventHorizon::new(engine, device),
            engine,
            absorb_span: AggregateSpan::new("absorb", scheme),
            data_pages: *data_pages,
            spare_pages: *spare_pages,
            calibration,
            curve: Vec::new(),
            first_fault: None,
            first_retirement: None,
            spare_exhausted: None,
            end: DegradationEnd::WriteBudget,
        };
        (device, regime)
    }

    fn point(&self, logical_writes: u64, device: &PcmDevice) -> DegradationPoint {
        DegradationPoint {
            logical_writes,
            device_writes: device.total_writes(),
            corrected_groups: self.engine.corrected_groups(),
            retired_pages: device.retired_pages(),
            spares_remaining: device.spares_remaining(),
        }
    }

    fn emit(&self, scheme: &str, workload: &str, point: &DegradationPoint) {
        let total_pages = self.data_pages + self.spare_pages;
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
}

impl Regime for Degradation<'_> {
    type Report = DegradationReport;

    /// The scheme translates the wear margin into the largest batch
    /// that cannot push any single page across it.
    fn batch_cap<S: WearLeveler + ?Sized>(&mut self, scheme: &S) -> u64 {
        scheme.write_batch_cap(self.horizon.wear_margin()).max(1)
    }

    /// Unlimited wear policy: the device never fail-stops, so any error
    /// here is a simulation bug.
    fn fail(&mut self, error: PcmError) {
        unreachable!("degradation sim hit a device error: {error}");
    }

    /// Runs one fault absorption, folds its events into the milestones
    /// and the curve, and refreshes the horizon. Returns `false` when
    /// the spare pool is exhausted — the graceful-degradation end of
    /// life.
    fn settle(
        &mut self,
        device: &mut PcmDevice,
        logical_writes: u64,
        scheme: &str,
        workload: &str,
    ) -> bool {
        let engine = &mut *self.engine;
        match self.absorb_span.time(|| engine.absorb(device)) {
            Ok(absorbed) => {
                if absorbed.corrected_now > 0 && self.first_fault.is_none() {
                    self.first_fault = Some(device.total_writes());
                }
                if !absorbed.retirements.is_empty() {
                    self.first_retirement.get_or_insert(device.total_writes());
                    let point = self.point(logical_writes, device);
                    self.curve.push(point);
                    self.emit(scheme, workload, &point);
                }
            }
            Err(PcmError::SparesExhausted { .. }) => {
                self.spare_exhausted = Some(device.total_writes());
                self.end = DegradationEnd::SpareExhausted;
                return false;
            }
            Err(e) => unreachable!("fault engine hit a non-spare device error: {e}"),
        }
        self.horizon.observe(self.engine, device);
        true
    }

    /// Closes the curve and assembles the report from the final device
    /// and engine state.
    fn finish(mut self, run: RunEnd<'_>, _: &WlStats, device: &PcmDevice) -> DegradationReport {
        let final_point = self.point(run.logical_writes, device);
        if self.curve.last() != Some(&final_point) {
            self.curve.push(final_point);
            self.emit(run.scheme, &run.workload, &final_point);
        }
        let capacity_fraction =
            device.total_writes() as f64 / device.endurance_map().total() as f64;
        let report = DegradationReport {
            scheme: run.scheme.to_owned(),
            workload: run.workload,
            data_pages: self.data_pages,
            spare_pages: self.spare_pages,
            logical_writes: run.logical_writes,
            device_writes: device.total_writes(),
            corrected_groups: self.engine.corrected_groups(),
            retired_pages: device.retired_pages(),
            first_fault_device_writes: self.first_fault,
            first_retirement_device_writes: self.first_retirement,
            spare_exhausted_device_writes: self.spare_exhausted,
            end: self.end,
            capacity_fraction,
            years: self.calibration.years(capacity_fraction),
            wear_gini: twl_pcm::wear_gini(device.wear_counters()),
            curve: self.curve,
        };
        // The absorb aggregate is charged to the drive span, so it
        // closes first.
        drop(self.absorb_span);
        drop(run.drive_span);
        report
    }
}

/// The oracle's view of a scheme: forwards the scalar methods and keeps
/// the trait's default `write_batch` (a loop over `write`) and
/// `write_batch_cap` (1), so every batch the loop issues is one scalar
/// write.
struct ScalarScheme<'a>(&'a mut dyn WearLeveler);

impl WearLeveler for ScalarScheme<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn page_count(&self) -> u64 {
        self.0.page_count()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.0.translate(la)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        self.0.write(la, device)
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        self.0.read(la, device)
    }

    fn stats(&self) -> &WlStats {
        self.0.stats()
    }
}

/// The oracle's view of a stream: keeps the trait's default `next_run`,
/// which asks `next_write` for a run of one.
struct ScalarStream<'a, A: ?Sized>(&'a mut A);

impl<A: AttackStream + ?Sized> AttackStream for ScalarStream<'_, A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        self.0.next_write(feedback)
    }
}

/// Number of wear-map snapshots a full lifetime run aims for.
const WEAR_SNAPSHOTS_PER_RUN: u64 = 32;

/// Per-run observability: a wear-map sampler plus a passive HPCA'11
/// attack monitor over the logical write stream. Absent (no state, no
/// per-batch work beyond one branch) when no telemetry sink is
/// installed when the run starts.
struct RunTelemetry<'a> {
    scheme: &'a str,
    workload: &'a str,
    sampler: WearMapSampler,
    monitor: AttackMonitor,
}

impl<'a> RunTelemetry<'a> {
    fn begin(scheme: &'a str, workload: &'a str, device: &PcmDevice) -> Option<Self> {
        twl_telemetry::enabled().then(|| {
            // Aim for WEAR_SNAPSHOTS_PER_RUN samples over the device's
            // total endurance — the longest any run can last.
            let cadence =
                u64::try_from(device.endurance_map().total() / u128::from(WEAR_SNAPSHOTS_PER_RUN))
                    .unwrap_or(u64::MAX)
                    .max(1);
            Self {
                scheme,
                workload,
                sampler: WearMapSampler::new(cadence, WEAR_SNAPSHOTS_PER_RUN as usize),
                monitor: AttackMonitor::for_pages(),
            }
        })
    }

    /// Batch-granular observation: the monitor replays the batch
    /// exactly (one `Alarm` record per alarmed window close, identical
    /// to per-write observation), while the wear sampler sees the whole
    /// batch's device-write delta at once — snapshots land on batch
    /// boundaries instead of exact cadence multiples, the one telemetry
    /// divergence of the fast path from the per-write oracle.
    fn observe_batch(
        &mut self,
        la: LogicalPageAddr,
        serviced: u64,
        device_write_delta: u64,
        device: &PcmDevice,
    ) {
        for (window, share) in self.monitor.observe_writes(la, serviced) {
            twl_telemetry::emit(&TelemetryRecord::Alarm {
                scheme: self.scheme.to_owned(),
                window,
                share,
            });
        }
        if let Some(snapshot) = self
            .sampler
            .observe(device_write_delta, device.wear_counters())
        {
            twl_telemetry::emit(&TelemetryRecord::Wear {
                scheme: self.scheme.to_owned(),
                workload: self.workload.to_owned(),
                snapshot: snapshot.clone(),
            });
        }
    }

    /// Emits the final wear snapshot and returns the observed alarm rate.
    fn end(mut self, device: &PcmDevice) -> f64 {
        let snapshot = self.sampler.snapshot_now(device.wear_counters()).clone();
        twl_telemetry::emit(&TelemetryRecord::Wear {
            scheme: self.scheme.to_owned(),
            workload: self.workload.to_owned(),
            snapshot,
        });
        self.monitor.alarm_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_scheme_spec, build_scheme_spec_for_region, SchemeKind};
    use twl_attacks::{Attack, AttackKind};
    use twl_faults::{provision, FaultConfig};
    use twl_pcm::PcmConfig;
    use twl_workloads::{ParsecBenchmark, WorkloadSpec};

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
        let mut scheme = build_scheme_spec(&SchemeKind::Nowl.into(), &dev).unwrap();
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
            let mut nowl = build_scheme_spec(&SchemeKind::Nowl.into(), &dev_a).unwrap();
            let mut attack = Attack::new(kind, 128, 1);
            let nowl_report = run_attack(
                nowl.as_mut(),
                &mut dev_a,
                &mut attack,
                &SimLimits::default(),
                &Calibration::attack_8gbps(),
            );

            let mut dev_b = device(128, 2_000);
            let mut twl = build_scheme_spec(&SchemeKind::TwlSwp.into(), &dev_b).unwrap();
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
        let mut scheme = build_scheme_spec(&SchemeKind::TwlSwp.into(), &dev).unwrap();
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
        let mut scheme = build_scheme_spec(&SchemeKind::Nowl.into(), &dev).unwrap();
        let bench = ParsecBenchmark::Canneal;
        let mut workload = WorkloadSpec::from(bench).build(256, 3).unwrap();
        let report = run_attack(
            scheme.as_mut(),
            &mut dev,
            &mut workload,
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
        let mut scheme = build_scheme_spec(&SchemeKind::Nowl.into(), &dev).unwrap();
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
        let mut scheme =
            build_scheme_spec_for_region(&SchemeKind::Nowl.into(), &domain.device, 128).unwrap();
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
        let mut scheme =
            build_scheme_spec_for_region(&SchemeKind::TwlSwp.into(), &domain.device, 128).unwrap();
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
