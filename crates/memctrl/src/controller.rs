//! NVMain-style queued memory controller.
//!
//! The paper's performance numbers come from gem5 connected to NVMain
//! \[8\], whose controller buffers requests in read and write queues,
//! serves reads with priority (the CPU stalls on them), and drains
//! writes in batches between high/low watermarks. This module models
//! that organization on top of [`BankArray`](crate::BankArray), as a
//! third, finest-grained execution model beside the coarse and banked
//! closed-loop simulators in [`crate::simulate_execution`] /
//! [`crate::simulate_execution_banked`].

use crate::{BankArray, MemCtrlConfig};
use twl_faults::{FaultDomain, FaultEngine};
use twl_pcm::{PcmDevice, PcmError};
use twl_wl_core::WearLeveler;
use twl_workloads::{MemCmd, MemOp};

/// Queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Strict arrival order across reads and writes.
    Fcfs,
    /// Reads first (the CPU stalls on them); writes drain in batches
    /// between the configured watermarks — NVMain's default behaviour.
    ReadPriority,
}

/// Configuration of [`queued_execution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Write-queue capacity (the drain watermarks keep occupancy at or
    /// below `drain_high`, so this is an upper bound by construction).
    pub write_queue_depth: usize,
    /// Start draining writes ahead of reads at this occupancy.
    pub drain_high: usize,
    /// Once draining, keep going until occupancy falls to this level.
    pub drain_low: usize,
}

impl ControllerConfig {
    /// NVMain-flavoured defaults: read priority, 64-deep write queue,
    /// drain between 48 and 16.
    #[must_use]
    pub fn nvmain_like() -> Self {
        Self {
            policy: SchedulingPolicy::ReadPriority,
            write_queue_depth: 64,
            drain_high: 48,
            drain_low: 16,
        }
    }

    fn validate(&self) {
        assert!(self.write_queue_depth > 0, "write queue must hold requests");
        assert!(
            self.drain_low < self.drain_high && self.drain_high <= self.write_queue_depth,
            "watermarks must satisfy low < high <= depth"
        );
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::nvmain_like()
    }
}

/// Result of a queued-controller simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerReport {
    /// Completion cycle of the last request.
    pub total_cycles: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Mean read latency (arrival → data) in cycles.
    pub mean_read_latency: f64,
    /// Worst read latency in cycles.
    pub max_read_latency: u64,
}

/// A queued controller simulation over an open-loop arrival stream.
///
/// Requests arrive every [`MemCtrlConfig::inter_arrival_cycles`]; writes
/// enter the write queue and drain in watermark-bounded batches; reads
/// either bypass queued writes (read priority) or take their turn
/// (FCFS). Wear-leveling migrations appear as
/// whole-array blocking, exactly as the simpler models count them.
///
/// # Errors
///
/// Propagates device errors from the scheme.
///
/// # Examples
///
/// ```
/// use twl_memctrl::{queued_execution, ControllerConfig, MemCtrlConfig};
/// use twl_pcm::{PcmConfig, PcmDevice};
/// use twl_wl_core::Nowl;
/// use twl_workloads::{SyntheticWorkload, WorkloadConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pcm = PcmConfig::builder().pages(256).mean_endurance(1_000_000).build()?;
/// let mut device = PcmDevice::new(&pcm);
/// let mut scheme = Nowl::new(256);
/// let mut workload = SyntheticWorkload::new(&WorkloadConfig {
///     pages: 256, footprint: 128, zipf_alpha: 0.8, read_fraction: 0.5, seed: 1,
/// });
/// let report = queued_execution(
///     &MemCtrlConfig::default(),
///     &ControllerConfig::nvmain_like(),
///     &mut scheme,
///     &mut device,
///     &mut workload,
///     5_000,
/// )?;
/// assert_eq!(report.reads + report.writes, 5_000);
/// # Ok(())
/// # }
/// ```
pub fn queued_execution(
    timing: &MemCtrlConfig,
    config: &ControllerConfig,
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut dyn Iterator<Item = MemCmd>,
    requests: u64,
) -> Result<ControllerReport, PcmError> {
    queued_execution_inner(timing, config, scheme, device, workload, requests, None)
}

/// [`queued_execution`] over a fault-tolerant [`FaultDomain`]: after
/// every serviced write the domain's [`FaultEngine`] absorbs any new
/// cell faults, retiring uncorrectable pages to the spare pool, so the
/// controller keeps servicing requests across retirements with the
/// timing model unchanged.
///
/// The scheme must have been built over the domain's data region (e.g.
/// via `twl_lifetime::build_scheme_spec_for_region`) so it never addresses
/// the spare tail.
///
/// # Errors
///
/// Propagates device errors from the scheme, and
/// [`PcmError::SparesExhausted`] once a retirement finds the spare pool
/// empty — the device's true end of life. Counters accumulated up to
/// that point (in the domain and in telemetry) remain valid.
pub fn queued_execution_degraded(
    timing: &MemCtrlConfig,
    config: &ControllerConfig,
    scheme: &mut dyn WearLeveler,
    domain: &mut FaultDomain,
    workload: &mut dyn Iterator<Item = MemCmd>,
    requests: u64,
) -> Result<ControllerReport, PcmError> {
    queued_execution_inner(
        timing,
        config,
        scheme,
        &mut domain.device,
        workload,
        requests,
        Some(&mut domain.engine),
    )
}

fn queued_execution_inner(
    timing: &MemCtrlConfig,
    config: &ControllerConfig,
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut dyn Iterator<Item = MemCmd>,
    requests: u64,
    mut fault: Option<&mut FaultEngine>,
) -> Result<ControllerReport, PcmError> {
    assert!(requests > 0, "simulate at least one request");
    config.validate();
    let device_timing = device.config().timing;
    let read_latency = device_timing.read_latency as f64;
    let write_latency = device_timing.write_latency() as f64;
    let mut banks = BankArray::new(device.config().banks);

    // Pending writes: arrival times only — the scheme runs at *issue*
    // time so device wear follows service order.
    let mut write_q: Vec<(f64, MemCmd)> = Vec::new();
    let mut draining = false;

    let mut clock;
    let mut last_completion = 0.0f64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_latency_sum = 0.0f64;
    let mut max_read_latency = 0.0f64;

    let issue_write = |entry: (f64, MemCmd),
                       now: f64,
                       banks: &mut BankArray,
                       scheme: &mut dyn WearLeveler,
                       device: &mut PcmDevice,
                       fault: &mut Option<&mut FaultEngine>|
     -> Result<f64, PcmError> {
        let (_, cmd) = entry;
        let out = scheme.write(cmd.la, device)?;
        // Degraded mode: absorb the cell faults this write (and any
        // migrations it triggered) may have tripped, retiring pages
        // before the next request can touch them.
        if let Some(engine) = fault.as_mut() {
            engine.absorb(device)?;
        }
        let mut t = now + out.engine_cycles as f64;
        if out.blocking_cycles > 0 {
            t = banks.occupy_all(t, out.blocking_cycles as f64 * timing.blocking_visibility);
        }
        let mut done = t;
        for _ in 0..out.device_writes {
            done = banks.occupy(out.pa, t, write_latency);
        }
        Ok(done)
    };

    let mut arrival = 0.0f64;
    for _ in 0..requests {
        arrival += timing.inter_arrival_cycles;
        clock = arrival;
        let cmd = workload.next().expect("workloads are endless");
        match cmd.op {
            MemOp::Write => {
                writes += 1;
                twl_telemetry::counter!("twl.memctrl.writes").inc();
                match config.policy {
                    // FCFS issues every write straight to its bank, in
                    // arrival order — reads arriving later on the same
                    // bank queue behind 2000-cycle write pulses.
                    SchedulingPolicy::Fcfs => {
                        let done = issue_write(
                            (clock, cmd),
                            clock,
                            &mut banks,
                            scheme,
                            device,
                            &mut fault,
                        )?;
                        last_completion = last_completion.max(done);
                    }
                    // Read priority parks writes; the paced drain below
                    // trickles them out between reads.
                    SchedulingPolicy::ReadPriority => {
                        write_q.push((clock, cmd));
                    }
                }
            }
            MemOp::Read => {
                reads += 1;
                twl_telemetry::counter!("twl.memctrl.reads").inc();
                let out = scheme.read(cmd.la, device)?;
                let done = banks.occupy(out.pa, clock + out.engine_cycles as f64, read_latency);
                last_completion = last_completion.max(done);
                let latency = done - arrival;
                read_latency_sum += latency;
                max_read_latency = max_read_latency.max(latency);
            }
        }

        // Opportunistic background drain (read-priority only): once the
        // queue is past the low watermark, parked writes slip into banks
        // that are idle *right now* (predicted via the current mapping),
        // so they never pile up behind each other or ahead of reads. A
        // queue past the high watermark (or at capacity) forces the
        // oldest writes out regardless, bounding the queue.
        if config.policy == SchedulingPolicy::ReadPriority {
            if write_q.len() > config.drain_low {
                let mut i = 0;
                while i < write_q.len() && write_q.len() > config.drain_low {
                    let predicted = scheme.translate(write_q[i].1.la);
                    if banks.is_idle(predicted, clock) {
                        let entry = write_q.remove(i);
                        let done =
                            issue_write(entry, clock, &mut banks, scheme, device, &mut fault)?;
                        last_completion = last_completion.max(done);
                    } else {
                        i += 1;
                    }
                }
            }
            twl_telemetry::histogram!("twl.memctrl.write_queue_depth").record(write_q.len() as u64);
            if write_q.len() >= config.drain_high.min(config.write_queue_depth) {
                draining = true;
                twl_telemetry::counter!("twl.memctrl.forced_drains").inc();
            }
            if draining {
                while write_q.len() > config.drain_low {
                    let entry = write_q.remove(0);
                    let done = issue_write(entry, clock, &mut banks, scheme, device, &mut fault)?;
                    last_completion = last_completion.max(done);
                }
                draining = false;
            }
        }
    }
    // Final drain.
    let clock = arrival;
    while !write_q.is_empty() {
        let entry = write_q.remove(0);
        let done = issue_write(entry, clock, &mut banks, scheme, device, &mut fault)?;
        last_completion = last_completion.max(done);
    }

    Ok(ControllerReport {
        total_cycles: last_completion.max(arrival).ceil() as u64,
        reads,
        writes,
        mean_read_latency: if reads == 0 {
            0.0
        } else {
            read_latency_sum / reads as f64
        },
        max_read_latency: max_read_latency.ceil() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;
    use twl_wl_core::Nowl;
    use twl_workloads::{SyntheticWorkload, WorkloadConfig};

    fn device() -> PcmDevice {
        let pcm = PcmConfig::builder()
            .pages(256)
            .mean_endurance(100_000_000)
            .seed(4)
            .build()
            .unwrap();
        PcmDevice::new(&pcm)
    }

    fn workload(read_fraction: f64, seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(&WorkloadConfig {
            pages: 256,
            footprint: 256,
            zipf_alpha: 0.6,
            read_fraction,
            seed,
        })
    }

    /// Bursty traffic: phases of back-to-back writes followed by reads
    /// — the pattern where deferring writes pays off.
    fn bursty(seed: u64) -> impl Iterator<Item = MemCmd> {
        use twl_pcm::LogicalPageAddr;
        use twl_rng::{SimRng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let mut i = 0u64;
        std::iter::from_fn(move || {
            let la = LogicalPageAddr::new(rng.next_bounded(256));
            let cmd = if i % 128 < 40 {
                MemCmd::write(la)
            } else {
                MemCmd::read(la)
            };
            i += 1;
            Some(cmd)
        })
    }

    #[test]
    fn read_priority_beats_fcfs_on_read_latency() {
        let timing = MemCtrlConfig::for_bandwidth(60_000.0, 4096, 0.5);
        let run = |policy| {
            let mut dev = device();
            let mut scheme = Nowl::new(256);
            let mut w = bursty(7);
            let config = ControllerConfig {
                policy,
                ..ControllerConfig::nvmain_like()
            };
            queued_execution(&timing, &config, &mut scheme, &mut dev, &mut w, 20_000)
                .unwrap()
                .mean_read_latency
        };
        let fcfs = run(SchedulingPolicy::Fcfs);
        let prio = run(SchedulingPolicy::ReadPriority);
        assert!(
            prio < fcfs,
            "read priority {prio} must beat FCFS {fcfs} under bursty writes"
        );
    }

    #[test]
    fn all_requests_are_served_and_wear_recorded() {
        let timing = MemCtrlConfig::default();
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(0.5, 3);
        let report = queued_execution(
            &timing,
            &ControllerConfig::nvmain_like(),
            &mut scheme,
            &mut dev,
            &mut w,
            10_000,
        )
        .unwrap();
        assert_eq!(report.reads + report.writes, 10_000);
        assert_eq!(dev.total_writes(), report.writes);
    }

    #[test]
    fn drain_bounds_the_write_queue() {
        // The watermark drain keeps the queue at or below drain_high at
        // every instant, so an explicit overflow path is unnecessary;
        // verify the invariant holds under saturating write traffic by
        // running to completion (the final drain empties the queue).
        let timing = MemCtrlConfig::for_bandwidth(60_000.0, 4096, 0.01);
        let config = ControllerConfig {
            policy: SchedulingPolicy::ReadPriority,
            write_queue_depth: 8,
            drain_high: 8,
            drain_low: 2,
        };
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(0.0, 5);
        let report =
            queued_execution(&timing, &config, &mut scheme, &mut dev, &mut w, 20_000).unwrap();
        assert_eq!(report.writes, 20_000);
        assert_eq!(
            dev.total_writes(),
            20_000,
            "final drain must flush everything"
        );
    }

    #[test]
    fn determinism() {
        let timing = MemCtrlConfig::default();
        let run = || {
            let mut dev = device();
            let mut scheme = Nowl::new(256);
            let mut w = workload(0.5, 11);
            queued_execution(
                &timing,
                &ControllerConfig::nvmain_like(),
                &mut scheme,
                &mut dev,
                &mut w,
                5_000,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_run_services_requests_across_retirements() {
        use twl_faults::{provision, CorrectionPolicy, FaultConfig};

        // Low endurance plus a tiny hammered footprint wears a few data
        // pages past their correction budget mid-run; a generous spare
        // pool keeps the controller short of exhaustion.
        let pcm = PcmConfig::builder()
            .pages(64)
            .mean_endurance(1_000)
            .seed(9)
            .build()
            .unwrap();
        let fault_cfg = FaultConfig {
            cell_groups_per_page: 8,
            group_sigma_fraction: 0.1,
            policy: CorrectionPolicy::Ecp { entries: 2 },
            spare_fraction: 0.5,
            seed: 21,
        };
        let mut domain = provision(&pcm, &fault_cfg).unwrap();
        let mut scheme = Nowl::new(domain.data_pages);
        let mut w = SyntheticWorkload::new(&WorkloadConfig {
            pages: 64,
            footprint: 4,
            zipf_alpha: 0.9,
            read_fraction: 0.0,
            seed: 2,
        });
        let report = queued_execution_degraded(
            &MemCtrlConfig::default(),
            &ControllerConfig::nvmain_like(),
            &mut scheme,
            &mut domain,
            &mut w,
            6_000,
        )
        .unwrap();
        assert_eq!(report.writes, 6_000, "every request must be serviced");
        let retired = domain.device.retired_pages();
        assert!(retired >= 1, "the hammered pages must retire mid-run");
        assert_eq!(
            domain.device.spares_remaining() + retired,
            domain.spare_pages,
            "every retirement consumes exactly one spare"
        );
        // NOWL issues one device write per logical write; the only
        // overhead writes are the per-retirement migration copies.
        assert_eq!(domain.device.total_writes(), report.writes + retired);
    }

    #[test]
    #[should_panic(expected = "watermarks must satisfy")]
    fn bad_watermarks_panic() {
        let config = ControllerConfig {
            policy: SchedulingPolicy::ReadPriority,
            write_queue_depth: 8,
            drain_high: 9,
            drain_low: 2,
        };
        let timing = MemCtrlConfig::default();
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(0.5, 1);
        let _ = queued_execution(&timing, &config, &mut scheme, &mut dev, &mut w, 10);
    }
}
