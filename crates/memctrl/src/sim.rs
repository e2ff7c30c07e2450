//! The closed-loop execution-time simulation.

use crate::MemCtrlConfig;
use twl_pcm::{PcmDevice, PcmError};
use twl_wl_core::WearLeveler;
use twl_workloads::{MemCmd, MemOp};

/// Result of one execution-time simulation.
///
/// Normalize against a NOWL run of the same command stream with
/// [`PerfReport::normalized_to`] to obtain a Fig. 9 bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Completion cycle of the last request.
    pub total_cycles: u64,
    /// Requests serviced.
    pub requests: u64,
    /// Read requests among them.
    pub reads: u64,
    /// Write requests among them.
    pub writes: u64,
    /// Mean request latency (arrival → completion) in cycles.
    pub mean_latency: f64,
    /// Worst single-request latency in cycles — under an epoch-swap
    /// scheme this is the spike the attacker detects.
    pub max_latency: u64,
}

impl PerfReport {
    /// Execution time relative to a baseline run (Fig. 9's y-axis).
    ///
    /// # Panics
    ///
    /// Panics if the baseline ran zero cycles.
    #[must_use]
    pub fn normalized_to(&self, baseline: &PerfReport) -> f64 {
        assert!(baseline.total_cycles > 0, "baseline must have run");
        self.total_cycles as f64 / baseline.total_cycles as f64
    }
}

/// Runs `requests` commands from `workload` through `scheme` on
/// `device`, modelling a closed-loop CPU: each request issues one
/// compute gap ([`MemCtrlConfig::inter_arrival_cycles`]) after the
/// previous one *completes*, and its full memory latency is on the
/// critical path. This is the regime in which a wear-leveling engine's
/// per-request cycles, its overhead writes, and its migration blocking
/// all extend execution time — the quantity Fig. 9 normalizes.
///
/// Per request, the latency is the scheme's engine cycles plus the
/// device access time divided across banks; migration blocking
/// serializes the channel entirely and stalls the requester.
///
/// # Errors
///
/// Propagates device errors — including wear-out, if the run is long
/// enough to kill a page (use a high-endurance device for performance
/// studies).
pub fn simulate_execution(
    config: &MemCtrlConfig,
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut dyn Iterator<Item = MemCmd>,
    requests: u64,
) -> Result<PerfReport, PcmError> {
    assert!(requests > 0, "simulate at least one request");
    let timing = device.config().timing;
    let banks = f64::from(device.config().banks);
    let read_occ = timing.read_latency as f64 / banks;
    let write_occ = timing.write_latency() as f64 / banks;

    let mut clock = 0.0f64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut latency_sum = 0.0f64;
    let mut max_latency = 0.0f64;

    for _ in 0..requests {
        // Compute gap between dependent requests.
        clock += config.inter_arrival_cycles;
        let cmd = workload.next().expect("workloads are endless");
        let latency = match cmd.op {
            MemOp::Read => {
                reads += 1;
                let out = scheme.read(cmd.la, device)?;
                out.engine_cycles as f64 + read_occ
            }
            MemOp::Write => {
                writes += 1;
                let out = scheme.write(cmd.la, device)?;
                // Every device write (the request plus overhead writes)
                // occupies banks; the blocking component stalls the
                // requester outright.
                out.engine_cycles as f64
                    + write_occ * f64::from(out.device_writes)
                    + out.blocking_cycles as f64 * config.blocking_visibility
            }
        };
        clock += latency;
        latency_sum += latency;
        max_latency = max_latency.max(latency);
    }

    Ok(PerfReport {
        total_cycles: clock.ceil() as u64,
        requests,
        reads,
        writes,
        mean_latency: latency_sum / requests as f64,
        max_latency: max_latency.ceil() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;
    use twl_wl_core::Nowl;
    use twl_workloads::{SyntheticWorkload, WorkloadConfig};

    fn workload(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(&WorkloadConfig {
            pages: 256,
            footprint: 128,
            zipf_alpha: 0.8,
            read_fraction: 0.5,
            seed,
        })
    }

    fn device() -> PcmDevice {
        let pcm = PcmConfig::builder()
            .pages(256)
            .mean_endurance(100_000_000)
            .seed(9)
            .build()
            .unwrap();
        PcmDevice::new(&pcm)
    }

    #[test]
    fn nowl_execution_is_gaps_plus_latencies() {
        let config = MemCtrlConfig::for_bandwidth(100.0, 4096, 0.5);
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(1);
        let report = simulate_execution(&config, &mut scheme, &mut dev, &mut w, 10_000).unwrap();
        // Closed loop: total = N x gap + sum of latencies; NOWL latency
        // is bounded by one write occupancy.
        let gaps = (10_000.0 * config.inter_arrival_cycles) as u64;
        assert!(report.total_cycles >= gaps);
        assert!(report.total_cycles <= gaps + 10_000 * 2000 / 32 + 10_000);
        assert_eq!(report.reads + report.writes, 10_000);
    }

    #[test]
    fn normalization_is_one_against_itself() {
        let config = MemCtrlConfig::default();
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(2);
        let report = simulate_execution(&config, &mut scheme, &mut dev, &mut w, 1_000).unwrap();
        assert_eq!(report.normalized_to(&report), 1.0);
    }

    #[test]
    fn blocking_visibility_scales_overhead() {
        use twl_core::{TossUpWearLeveling, TwlConfig};
        let mut full = MemCtrlConfig::for_bandwidth(1000.0, 4096, 0.5);
        full.blocking_visibility = 1.0;
        let mut hidden = full;
        hidden.blocking_visibility = 0.0;

        let twl_config = TwlConfig::builder().toss_up_interval(1).build().unwrap();
        let run = |config: &MemCtrlConfig| {
            let mut dev = device();
            let mut twl = TossUpWearLeveling::new(&twl_config, dev.endurance_map());
            let mut w = workload(4);
            simulate_execution(config, &mut twl, &mut dev, &mut w, 5_000)
                .unwrap()
                .total_cycles
        };
        assert!(
            run(&full) > run(&hidden),
            "visible blocking must extend execution time"
        );
    }

    #[test]
    fn higher_bandwidth_means_higher_relative_overhead() {
        // Fig. 9's structure: the same scheme costs relatively more on
        // a memory-bound benchmark (vips) than on an idle one
        // (streamcluster).
        use twl_core::{TossUpWearLeveling, TwlConfig};
        let twl_config = TwlConfig::dac17();
        let normalized = |bw: f64| {
            let config = MemCtrlConfig::for_bandwidth(bw, 4096, 0.5);
            let mut dev = device();
            let mut nowl = Nowl::new(256);
            let mut w = workload(6);
            let base = simulate_execution(&config, &mut nowl, &mut dev, &mut w, 20_000).unwrap();
            let mut dev2 = device();
            let mut twl = TossUpWearLeveling::new(&twl_config, dev2.endurance_map());
            let mut w2 = workload(6);
            let with = simulate_execution(&config, &mut twl, &mut dev2, &mut w2, 20_000).unwrap();
            with.normalized_to(&base)
        };
        let fast = normalized(3309.0);
        let slow = normalized(12.0);
        assert!(
            fast > slow,
            "vips-rate {fast} must exceed streamcluster-rate {slow}"
        );
    }

    #[test]
    fn blocking_shows_up_in_max_latency() {
        use twl_core::{TossUpWearLeveling, TwlConfig};
        let config = MemCtrlConfig::for_bandwidth(1000.0, 4096, 0.5);
        let mut dev = device();
        let twl_config = TwlConfig::builder().toss_up_interval(1).build().unwrap();
        let mut twl = TossUpWearLeveling::new(&twl_config, dev.endurance_map());
        let mut nowl = Nowl::new(256);

        let mut w = workload(3);
        let base = simulate_execution(&config, &mut nowl, &mut dev, &mut w, 5_000).unwrap();
        let mut dev2 = device();
        let mut w2 = workload(3);
        let with_twl = simulate_execution(&config, &mut twl, &mut dev2, &mut w2, 5_000).unwrap();
        assert!(
            with_twl.max_latency > base.max_latency,
            "swaps must spike latency"
        );
        assert!(with_twl.normalized_to(&base) > 1.0);
    }
}

/// A finer-grained variant of [`simulate_execution`] with explicit
/// bank-level scheduling (see [`crate::BankArray`]): reads stall the
/// requester until their bank completes; writes are *posted* — they
/// occupy their bank but only stall the requester when the bank's
/// backlog exceeds a write-queue depth of four writes; migration
/// blocking seizes every bank.
///
/// This model resolves bank conflicts the coarse model averages away;
/// both reproduce the same Fig. 9 ordering.
///
/// # Errors
///
/// Propagates device errors, as [`simulate_execution`] does.
pub fn simulate_execution_banked(
    config: &MemCtrlConfig,
    scheme: &mut dyn WearLeveler,
    device: &mut PcmDevice,
    workload: &mut dyn Iterator<Item = MemCmd>,
    requests: u64,
) -> Result<PerfReport, PcmError> {
    assert!(requests > 0, "simulate at least one request");
    let timing = device.config().timing;
    let read_latency = timing.read_latency as f64;
    let write_latency = timing.write_latency() as f64;
    let queue_depth_cycles = 4.0 * write_latency;
    let mut banks = crate::BankArray::new(device.config().banks);

    let mut clock = 0.0f64;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut latency_sum = 0.0f64;
    let mut max_latency = 0.0f64;

    for _ in 0..requests {
        clock += config.inter_arrival_cycles;
        let issue = clock;
        let cmd = workload.next().expect("workloads are endless");
        match cmd.op {
            MemOp::Read => {
                reads += 1;
                let out = scheme.read(cmd.la, device)?;
                // Reads are synchronous: stall until the bank delivers.
                let done = banks.occupy(out.pa, issue + out.engine_cycles as f64, read_latency);
                clock = done.max(clock);
            }
            MemOp::Write => {
                writes += 1;
                let out = scheme.write(cmd.la, device)?;
                clock += out.engine_cycles as f64;
                // Migration blocking seizes the whole array.
                if out.blocking_cycles > 0 {
                    let done = banks.occupy_all(
                        clock,
                        out.blocking_cycles as f64 * config.blocking_visibility,
                    );
                    clock = done.max(clock);
                }
                // Posted writes: occupy the bank; stall only on backlog.
                for _ in 0..out.device_writes {
                    let done = banks.occupy(out.pa, clock, write_latency);
                    if done - clock > queue_depth_cycles {
                        clock = done - queue_depth_cycles;
                    }
                }
            }
        }
        let latency = clock - issue;
        latency_sum += latency;
        max_latency = max_latency.max(latency);
    }

    Ok(PerfReport {
        total_cycles: clock.max(banks.all_idle_at()).ceil() as u64,
        requests,
        reads,
        writes,
        mean_latency: latency_sum / requests as f64,
        max_latency: max_latency.ceil() as u64,
    })
}

#[cfg(test)]
mod banked_tests {
    use super::*;
    use twl_pcm::PcmConfig;
    use twl_wl_core::Nowl;
    use twl_workloads::{SyntheticWorkload, WorkloadConfig};

    fn workload(seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::new(&WorkloadConfig {
            pages: 256,
            footprint: 128,
            zipf_alpha: 0.8,
            read_fraction: 0.5,
            seed,
        })
    }

    fn device() -> PcmDevice {
        let pcm = PcmConfig::builder()
            .pages(256)
            .mean_endurance(100_000_000)
            .seed(9)
            .build()
            .unwrap();
        PcmDevice::new(&pcm)
    }

    #[test]
    fn banked_model_runs_and_accounts_requests() {
        let config = MemCtrlConfig::default();
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        let mut w = workload(1);
        let report =
            simulate_execution_banked(&config, &mut scheme, &mut dev, &mut w, 5_000).unwrap();
        assert_eq!(report.reads + report.writes, 5_000);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn banked_reads_cost_at_least_the_array_latency() {
        let config = MemCtrlConfig::for_bandwidth(10.0, 4096, 0.99);
        let mut dev = device();
        let mut scheme = Nowl::new(256);
        // An all-reads stream with huge gaps: mean latency approaches
        // the raw array read latency (no queueing, no write posting).
        let mut w = SyntheticWorkload::new(&WorkloadConfig {
            pages: 256,
            footprint: 128,
            zipf_alpha: 0.8,
            read_fraction: 1.0,
            seed: 2,
        });
        let report =
            simulate_execution_banked(&config, &mut scheme, &mut dev, &mut w, 1_000).unwrap();
        assert!(report.mean_latency >= 240.0, "mean {}", report.mean_latency);
        assert!(report.mean_latency < 400.0, "mean {}", report.mean_latency);
    }

    #[test]
    fn banked_and_coarse_agree_on_ordering() {
        use twl_core::{TossUpWearLeveling, TwlConfig};
        let config = MemCtrlConfig::for_bandwidth(2000.0, 4096, 0.5);
        let twl_config = TwlConfig::dac17();
        let run = |banked: bool, twl: bool| -> u64 {
            let mut dev = device();
            let mut w = workload(3);
            let mut scheme: Box<dyn WearLeveler> = if twl {
                Box::new(TossUpWearLeveling::new(&twl_config, dev.endurance_map()))
            } else {
                Box::new(Nowl::new(256))
            };
            let f = if banked {
                simulate_execution_banked
            } else {
                simulate_execution
            };
            f(&config, scheme.as_mut(), &mut dev, &mut w, 20_000)
                .unwrap()
                .total_cycles
        };
        assert!(run(false, true) > run(false, false));
        assert!(run(true, true) > run(true, false));
    }
}
