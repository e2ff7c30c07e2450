//! On-Demand Page Paired PCM (Asadinia, Arjomand & Sarbazi-Azad,
//! DAC 2014) — the paper's reference \[1\].
//!
//! Where every other scheme in this workspace treats the first page
//! failure as end-of-life, OD3P *degrades gracefully*: when a page
//! exhausts its endurance, its logical page is re-paired on demand with
//! a healthy host page, and the device keeps serving (at reduced
//! effective capacity and with the host absorbing the guest's writes).
//! Lifetime becomes "until no healthy host remains" rather than "until
//! the weakest page dies".
//!
//! The scheme here composes OD3P's failure handling with an identity
//! base mapping; it is evaluated in the `extension_od3p` bench as a
//! lifetime-extension comparison point, not as part of the paper's
//! Fig. 6/8 grids (the paper uses it as related work only).

use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_wl_core::{ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// Configuration of [`OnDemandPagePairing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Od3pConfig {
    /// Stop accepting new guests once this fraction of pages has
    /// failed: the device is considered end-of-life (capacity and
    /// performance have degraded past usefulness).
    pub max_failed_fraction: f64,
    /// Engine cycles per request (pairing-table lookup).
    pub table_latency: u64,
}

impl Default for Od3pConfig {
    fn default() -> Self {
        Self {
            max_failed_fraction: 0.5,
            table_latency: 10,
        }
    }
}

/// Per-logical-page routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Served by its home frame.
    Home,
    /// Home frame failed; served by a host frame.
    Hosted(PhysicalPageAddr),
}

/// OD3P: dynamic re-pairing of failed pages onto healthy hosts.
///
/// # Examples
///
/// ```
/// use twl_baselines::{Od3pConfig, OnDemandPagePairing};
/// use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
/// use twl_wl_core::WearLeveler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pcm = PcmConfig::builder().pages(64).mean_endurance(1_000).seed(1).build()?;
/// let mut device = PcmDevice::new(&pcm);
/// let mut od3p = OnDemandPagePairing::new(&Od3pConfig::default(), &device);
/// od3p.write(LogicalPageAddr::new(0), &mut device)?;
/// assert_eq!(od3p.failed_pages(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnDemandPagePairing {
    config: Od3pConfig,
    routes: Vec<Route>,
    /// Whether a frame already hosts a guest (a host serves exactly one
    /// guest besides its own resident, as in the paper's pairing).
    hosts_guest: Vec<bool>,
    /// Initial endurance ranking, strongest first — hosts are recruited
    /// strongest-first.
    strength_order: Vec<PhysicalPageAddr>,
    failed: u64,
    stats: WlStats,
}

impl OnDemandPagePairing {
    /// Creates the scheme for `device`.
    #[must_use]
    pub fn new(config: &Od3pConfig, device: &PcmDevice) -> Self {
        let pages = device.page_count();
        let mut strength_order = device.endurance_map().sorted_by_endurance();
        strength_order.reverse();
        Self {
            config: *config,
            routes: vec![Route::Home; pages as usize],
            hosts_guest: vec![false; pages as usize],
            strength_order,
            failed: 0,
            stats: WlStats::new(),
        }
    }

    /// Number of pages that have failed and been re-paired.
    #[must_use]
    pub fn failed_pages(&self) -> u64 {
        self.failed
    }

    /// Fraction of the device that has failed.
    #[must_use]
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.routes.len() as f64
    }

    /// Current physical frame serving a logical page.
    fn route(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        match self.routes[la.as_usize()] {
            Route::Home => PhysicalPageAddr::new(la.index()),
            Route::Hosted(host) => host,
        }
    }

    /// Recruits the strongest healthy, guest-free frame as a host.
    fn recruit_host(
        &mut self,
        device: &PcmDevice,
        exclude: PhysicalPageAddr,
    ) -> Option<PhysicalPageAddr> {
        self.strength_order.iter().copied().find(|&pa| {
            pa != exclude && !self.hosts_guest[pa.as_usize()] && device.remaining(pa) > 0
        })
    }
}

impl WearLeveler for OnDemandPagePairing {
    fn name(&self) -> &str {
        "OD3P"
    }

    fn page_count(&self) -> u64 {
        self.routes.len() as u64
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.route(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // One request write plus (on a wear-out retry) a pairing
        // migration and redirected write — well under eight device
        // writes to any one frame per logical write.
        (wear_margin.saturating_sub(1) / 8).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let pa = self.route(la);
        match device.write_page(pa) {
            Ok(()) => {
                let outcome = WriteOutcome {
                    pa,
                    device_writes: 1,
                    swapped: false,
                    engine_cycles: self.config.table_latency,
                    blocking_cycles: 0,
                };
                self.stats.record_write(&outcome);
                Ok(outcome)
            }
            Err(PcmError::PageWornOut { .. }) => {
                // On-demand re-pairing: retire the frame, recruit a host,
                // and serve the write there.
                self.failed += 1;
                if self.failed_fraction() > self.config.max_failed_fraction {
                    // Degraded past the configured limit: report the
                    // failure as end-of-life.
                    return Err(PcmError::PageWornOut {
                        addr: pa,
                        writes: device.wear(pa),
                    });
                }
                let Some(host) = self.recruit_host(device, pa) else {
                    return Err(PcmError::PageWornOut {
                        addr: pa,
                        writes: device.wear(pa),
                    });
                };
                self.hosts_guest[host.as_usize()] = true;
                self.routes[la.as_usize()] = Route::Hosted(host);
                device.write_page(host)?;
                let outcome = WriteOutcome {
                    pa: host,
                    device_writes: 1,
                    swapped: true,
                    engine_cycles: self.config.table_latency,
                    // Re-pairing migrates the failed page's content.
                    blocking_cycles: device.config().timing.migrate_latency(),
                };
                self.stats.record_write(&outcome);
                Ok(outcome)
            }
            Err(e) => Err(e),
        }
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.route(la);
        device.read_page(pa)?;
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.table_latency,
        })
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;

    fn setup(pages: u64, endurance: u64) -> (PcmDevice, OnDemandPagePairing) {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .seed(6)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        let od3p = OnDemandPagePairing::new(&Od3pConfig::default(), &device);
        (device, od3p)
    }

    #[test]
    fn survives_first_page_failure() {
        let (mut device, mut od3p) = setup(16, 100);
        let la = LogicalPageAddr::new(0);
        let home_endurance = device.endurance(PhysicalPageAddr::new(0));
        // Exhaust the home frame and keep going.
        for _ in 0..home_endurance + 50 {
            od3p.write(la, &mut device).unwrap();
        }
        assert_eq!(od3p.failed_pages(), 1);
        assert_ne!(od3p.translate(la).index(), 0, "must be re-homed");
    }

    #[test]
    fn host_is_the_strongest_healthy_frame() {
        let (mut device, mut od3p) = setup(16, 100);
        let la = LogicalPageAddr::new(3);
        let strongest = *device.endurance_map().sorted_by_endurance().last().unwrap();
        let e = device.endurance(PhysicalPageAddr::new(3));
        for _ in 0..e + 1 {
            od3p.write(la, &mut device).unwrap();
        }
        // If LA3's home *was* the strongest, the host is the runner-up.
        if strongest.index() != 3 {
            assert_eq!(od3p.translate(la), strongest);
        }
    }

    #[test]
    fn lifetime_extends_well_past_first_failure() {
        let (mut device, mut od3p) = setup(32, 200);
        let la = LogicalPageAddr::new(0);
        let first = device.endurance(PhysicalPageAddr::new(0));
        let mut writes = 0u64;
        while od3p.write(la, &mut device).is_ok() {
            writes += 1;
            assert!(writes < 1_000_000, "must terminate");
        }
        // A repeat stream burns through host after host: total absorbed
        // writes far exceed the first page's endurance.
        assert!(
            writes > 3 * first,
            "od3p absorbed {writes}, first failure at {first}"
        );
    }

    #[test]
    fn gives_up_at_max_failed_fraction() {
        let pcm = PcmConfig::builder()
            .pages(8)
            .mean_endurance(50)
            .seed(2)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let config = Od3pConfig {
            max_failed_fraction: 0.25,
            table_latency: 10,
        };
        let mut od3p = OnDemandPagePairing::new(&config, &device);
        let la = LogicalPageAddr::new(0);
        let mut result = Ok(());
        for _ in 0..10_000 {
            if let Err(e) = od3p.write(la, &mut device).map(|_| ()) {
                result = Err(e);
                break;
            }
        }
        assert!(result.is_err(), "must eventually give up");
        assert!(od3p.failed_fraction() > 0.25);
    }

    #[test]
    fn each_host_serves_one_guest() {
        let (mut device, mut od3p) = setup(16, 60);
        // Kill several home frames.
        for i in 0..4u64 {
            let la = LogicalPageAddr::new(i);
            let e = device.endurance(PhysicalPageAddr::new(i));
            for _ in 0..e + 1 {
                od3p.write(la, &mut device).unwrap();
            }
        }
        // All four guests live on distinct hosts.
        let hosts: std::collections::HashSet<u64> = (0..4u64)
            .map(|i| od3p.translate(LogicalPageAddr::new(i)).index())
            .collect();
        assert_eq!(hosts.len(), 4);
    }

    #[test]
    fn reads_follow_the_reroute() {
        let (mut device, mut od3p) = setup(16, 100);
        let la = LogicalPageAddr::new(5);
        let e = device.endurance(PhysicalPageAddr::new(5));
        for _ in 0..e + 1 {
            od3p.write(la, &mut device).unwrap();
        }
        let r = od3p.read(la, &device).unwrap();
        assert_eq!(r.pa, od3p.translate(la));
        assert_ne!(r.pa.index(), 5);
    }
}
