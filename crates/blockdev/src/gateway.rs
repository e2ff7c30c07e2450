//! The wear gateway: where block traffic meets the simulated PCM.
//!
//! Every page a block write touches becomes one logical write through
//! the configured wear-leveling scheme against a fault-provisioned
//! device ([`twl_faults::provision`]): scheme remaps shuffle wear,
//! the fault engine corrects cell-group faults and retires pages to
//! spares, and an empty spare pool is the export's end of life
//! (`ENOSPC` on the wire).
//!
//! The gateway also *captures*: each logical write is appended to an
//! in-memory [`MemCmd`] stream in the `twl-workloads` trace format.
//! Because the whole pipeline is deterministic — endurance map, scheme
//! RNG, and fault thresholds are all seed-derived — replaying a capture
//! through a fresh gateway built from the same [`GatewayConfig`]
//! reproduces the wear map, [`WlStats`], and retirement history
//! bit for bit. That replay is both the audit trail and the resume
//! path after a daemon restart.

use std::fmt;

use twl_faults::{provision, FaultConfig, FaultEngine};
use twl_lifetime::{build_scheme_spec_for_region, SchemeKind, SchemeSpec};
use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice, PcmError};
use twl_telemetry::json::{int, num, str, Json};
use twl_wl_core::{WearLeveler, WlStats};
use twl_workloads::MemCmd;

/// Everything needed to rebuild a gateway deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Pages in the scheme-addressable data region.
    pub pages: u64,
    /// Mean page endurance of the simulated device.
    pub mean_endurance: u64,
    /// Endurance-map seed.
    pub seed: u64,
    /// The wear-leveling scheme serving the export.
    pub scheme: SchemeSpec,
    /// Spare pages per data page (graceful-degradation headroom).
    pub spare_fraction: f64,
    /// Seed of the cell-group fault thresholds.
    pub fault_seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            pages: 1 << 12,
            mean_endurance: 100_000,
            seed: 7,
            scheme: SchemeSpec::new(SchemeKind::TwlSwp),
            spare_fraction: 0.05,
            fault_seed: 0xFA17,
        }
    }
}

impl GatewayConfig {
    /// Encodes the configuration as a JSON object (the `gateway` field
    /// of the daemon's `meta.json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("pages", int(self.pages)),
            ("mean_endurance", int(self.mean_endurance)),
            ("seed", int(self.seed)),
            ("scheme", str(&self.scheme.to_string())),
            ("spare_fraction", num(self.spare_fraction)),
            ("fault_seed", int(self.fault_seed)),
        ])
    }

    /// Decodes a configuration written by [`GatewayConfig::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |k: &str| json.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let uint = |k: &str| {
            field(k).and_then(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("field `{k}` is not a u64"))
            })
        };
        let scheme = field("scheme")?
            .as_str()
            .ok_or_else(|| "field `scheme` is not a string".to_string())?
            .parse::<SchemeSpec>()
            .map_err(|e| format!("bad scheme label: {e}"))?;
        let spare_fraction = field("spare_fraction")?
            .as_f64()
            .ok_or_else(|| "field `spare_fraction` is not a number".to_string())?;
        Ok(Self {
            pages: uint("pages")?,
            mean_endurance: uint("mean_endurance")?,
            seed: uint("seed")?,
            scheme,
            spare_fraction,
            fault_seed: uint("fault_seed")?,
        })
    }
}

/// Why the gateway could not be built or a write could not land.
#[derive(Debug)]
pub enum GatewayError {
    /// The scheme spec rejected the device geometry.
    Scheme(String),
    /// The device or fault engine failed.
    Device(PcmError),
    /// The spare pool is exhausted; the export is read-only from here.
    EndOfLife,
    /// A write addressed a page at or past the ones the scheme manages.
    OutOfRange {
        /// The page addressed.
        page: u64,
        /// Pages the scheme manages (the export's page count).
        pages: u64,
    },
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Scheme(m) => write!(f, "scheme: {m}"),
            Self::Device(e) => write!(f, "device: {e}"),
            Self::EndOfLife => write!(f, "spare pool exhausted (end of life)"),
            Self::OutOfRange { page, pages } => {
                write!(
                    f,
                    "page {page} is outside the {pages} pages the scheme manages"
                )
            }
        }
    }
}

impl std::error::Error for GatewayError {}

/// A point-in-time snapshot of the gateway's wear state, as the tests
/// and the daemon's gauge refresh read it.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayProbe {
    /// The scheme's accounting.
    pub stats: WlStats,
    /// FNV-1a digest of the physical wear map, masked to 32 bits.
    pub wear_map_hash: u64,
    /// Pages retired to spares so far.
    pub pages_retired: u64,
    /// Spares still available.
    pub spares_remaining: u64,
    /// Captured logical writes.
    pub capture_len: u64,
    /// Whether the spare pool has been exhausted.
    pub end_of_life: bool,
}

/// The wear pipeline behind one export: device + fault engine + scheme,
/// with a capture stream on the side.
pub struct WearGateway {
    config: GatewayConfig,
    device: PcmDevice,
    engine: FaultEngine,
    scheme: Box<dyn WearLeveler>,
    capture: Vec<MemCmd>,
    end_of_life: bool,
}

impl fmt::Debug for WearGateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WearGateway")
            .field("scheme", &self.scheme.name())
            .field("pages", &self.config.pages)
            .field("capture_len", &self.capture.len())
            .field("end_of_life", &self.end_of_life)
            .finish_non_exhaustive()
    }
}

impl WearGateway {
    /// Provisions the device (data region + spare tail), fault engine,
    /// and scheme the configuration describes.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Device`] on an invalid device/fault config,
    /// [`GatewayError::Scheme`] when the scheme rejects the geometry
    /// (e.g. SR over a non-power-of-two page count).
    pub fn new(config: GatewayConfig) -> Result<Self, GatewayError> {
        let data_cfg = PcmConfig::builder()
            .pages(config.pages)
            .mean_endurance(config.mean_endurance)
            .seed(config.seed)
            .build()
            .map_err(GatewayError::Device)?;
        let fault_cfg = FaultConfig {
            spare_fraction: config.spare_fraction,
            seed: config.fault_seed,
            ..FaultConfig::default()
        };
        let domain = provision(&data_cfg, &fault_cfg).map_err(GatewayError::Device)?;
        let scheme =
            build_scheme_spec_for_region(&config.scheme, &domain.device, domain.data_pages)
                .map_err(|e| GatewayError::Scheme(e.to_string()))?;
        Ok(Self {
            config,
            device: domain.device,
            engine: domain.engine,
            scheme,
            capture: Vec::new(),
            end_of_life: false,
        })
    }

    /// The configuration this gateway was built from.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Logical pages the export can address: the scheme's page count,
    /// which is one fewer than the data region's for Start-Gap (its gap
    /// frame holds no data).
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.scheme.page_count()
    }

    /// Services (and captures) one logical page write through the
    /// scheme, then lets the fault engine absorb the wear it caused.
    ///
    /// The command is captured *before* the write lands, so a capture
    /// replay re-issues exactly the writes this gateway attempted —
    /// including a final one that died mid-flight — and reconverges on
    /// the same device state.
    ///
    /// # Errors
    ///
    /// [`GatewayError::OutOfRange`] for a page at or past
    /// [`WearGateway::pages`] (nothing is captured or written);
    /// [`GatewayError::EndOfLife`] once the spare pool is exhausted
    /// (also set lazily when an absorb exhausts it); other
    /// [`PcmError`]s pass through as [`GatewayError::Device`].
    pub fn write_page(&mut self, la: LogicalPageAddr) -> Result<(), GatewayError> {
        let pages = self.pages();
        if la.index() >= pages {
            return Err(GatewayError::OutOfRange {
                page: la.index(),
                pages,
            });
        }
        if self.end_of_life {
            return Err(GatewayError::EndOfLife);
        }
        self.capture.push(MemCmd::write(la));
        let wrote = self.scheme.write(la, &mut self.device);
        let absorbed = self.engine.absorb(&mut self.device);
        let first_error = wrote.map(|_| ()).and(absorbed.map(|_| ()));
        match first_error {
            Ok(()) => Ok(()),
            Err(PcmError::SparesExhausted { .. }) => {
                self.end_of_life = true;
                Err(GatewayError::EndOfLife)
            }
            Err(e) => Err(GatewayError::Device(e)),
        }
    }

    /// The captured logical-write stream, oldest first.
    #[must_use]
    pub fn capture(&self) -> &[MemCmd] {
        &self.capture
    }

    /// The scheme's running statistics.
    #[must_use]
    pub fn stats(&self) -> &WlStats {
        self.scheme.stats()
    }

    /// Whether the export has reached graceful-degradation end of life.
    #[must_use]
    pub fn end_of_life(&self) -> bool {
        self.end_of_life
    }

    /// FNV-1a over the physical wear counters, each hashed as its 8
    /// little-endian `u64` bytes, masked to 32 bits so the digest
    /// survives a round trip through an f64 Prometheus gauge.
    /// Equal hashes across a live run and its replay certify equal wear
    /// maps (and the tests also compare the maps directly).
    #[must_use]
    pub fn wear_map_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in self.device.wear_table() {
            for b in u64::from(w).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h & 0xffff_ffff
    }

    /// The raw physical wear counters (data region + spare tail).
    #[must_use]
    pub fn wear_counters(&self) -> Vec<u64> {
        self.device.wear_counters()
    }

    /// Snapshot of everything the daemon's gauges and the tests need.
    #[must_use]
    pub fn probe(&self) -> GatewayProbe {
        GatewayProbe {
            stats: *self.scheme.stats(),
            wear_map_hash: self.wear_map_hash(),
            pages_retired: self.device.retired_pages(),
            spares_remaining: self.device.spares_remaining(),
            capture_len: self.capture.len() as u64,
            end_of_life: self.end_of_life,
        }
    }

    /// Rebuilds a gateway from a configuration and a captured stream:
    /// a fresh pipeline with every captured write re-applied in order.
    /// Non-write commands are skipped (they carry no wear); a write
    /// that fails mid-replay fails exactly where the live run failed,
    /// and replay continues so the final state matches the live
    /// gateway's.
    ///
    /// # Errors
    ///
    /// Only construction errors surface; per-write wear errors are part
    /// of a faithful replay.
    pub fn replay(config: GatewayConfig, cmds: &[MemCmd]) -> Result<Self, GatewayError> {
        let mut gateway = Self::new(config)?;
        for cmd in cmds {
            if cmd.is_write() {
                let _ = gateway.write_page(cmd.la);
            }
        }
        Ok(gateway)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GatewayConfig {
        GatewayConfig {
            pages: 64,
            mean_endurance: 10_000,
            ..GatewayConfig::default()
        }
    }

    #[test]
    fn config_json_round_trips() {
        let cfg = GatewayConfig {
            scheme: "SR[inner=5,outer=9]".parse().unwrap(),
            ..tiny()
        };
        let back = GatewayConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
        assert!(GatewayConfig::from_json(&Json::obj([])).is_err());
    }

    #[test]
    fn writes_past_the_schemes_pages_are_refused() {
        let mut gateway = WearGateway::new(GatewayConfig {
            scheme: "StartGap".parse().unwrap(),
            ..tiny()
        })
        .unwrap();
        assert_eq!(gateway.pages(), 63, "Start-Gap's gap frame holds no data");
        gateway.write_page(LogicalPageAddr::new(62)).unwrap();
        for page in [63, 64, u64::MAX] {
            let err = gateway.write_page(LogicalPageAddr::new(page)).unwrap_err();
            assert!(
                matches!(err, GatewayError::OutOfRange { page: p, pages: 63 } if p == page),
                "{err}"
            );
        }
        assert_eq!(gateway.capture().len(), 1, "refused pages are not captured");
        assert_eq!(WearGateway::new(tiny()).unwrap().pages(), 64);
    }

    #[test]
    fn replay_reproduces_the_live_wear_state() {
        let mut live = WearGateway::new(tiny()).unwrap();
        for i in 0..500u64 {
            live.write_page(LogicalPageAddr::new(i * 7 % 64)).unwrap();
        }
        let replayed = WearGateway::replay(tiny(), live.capture()).unwrap();
        assert_eq!(replayed.probe(), live.probe());
        assert_eq!(replayed.wear_counters(), live.wear_counters());
    }

    /// Runs `writes` strided page writes through a fresh 64-page gateway
    /// and returns its probe.
    fn probe_after(scheme: &str, mean_endurance: u64, writes: u64) -> GatewayProbe {
        let mut gw = WearGateway::new(GatewayConfig {
            pages: 64,
            mean_endurance,
            scheme: scheme.parse().unwrap(),
            ..GatewayConfig::default()
        })
        .unwrap();
        for i in 0..writes {
            let _ = gw.write_page(LogicalPageAddr::new((i * 7 + i / 13) % 64));
        }
        gw.probe()
    }

    /// The full probe, wear-map hash included, is pinned to fixed
    /// values: live and replayed gateways are otherwise only compared
    /// with each other, so a changed hash input (say, a counter hashed
    /// at another width) would go unnoticed. The hash is exported as a
    /// gauge and printed by `twl-blk`.
    #[test]
    fn probe_is_pinned() {
        let stats =
            |logical_writes, device_writes, swaps, engine_cycles, blocking_cycles| WlStats {
                logical_writes,
                device_writes,
                swaps,
                engine_cycles,
                blocking_cycles,
            };
        let probe = |stats, wear_map_hash, pages_retired, capture_len, end_of_life| GatewayProbe {
            stats,
            wear_map_hash,
            pages_retired,
            spares_remaining: 4 - pages_retired,
            capture_len,
            end_of_life,
        };
        // Retirements drain the spare pool and end the export's life.
        assert_eq!(
            probe_after("TWL_swp", 60, 3_000),
            probe(
                stats(2765, 2836, 50, 69_381, 159_750),
                2_688_622_479,
                4,
                2765,
                true
            )
        );
        let cases = [
            (
                "TWL_swp",
                6_000,
                stats(6000, 6154, 107, 150_576, 346_500),
                1_314_987_125,
            ),
            ("NOWL", 3_000, stats(3000, 3000, 0, 0, 0), 2_363_434_883),
            (
                "SR",
                3_000,
                stats(3000, 4152, 548, 24_000, 2_592_000),
                2_436_075_791,
            ),
            (
                "BWL",
                3_000,
                stats(3000, 3016, 2, 270_000, 36_000),
                168_967_841,
            ),
            (
                "WRL",
                3_000,
                stats(3000, 3094, 3, 33_840, 211_500),
                2_276_544_405,
            ),
        ];
        for (scheme, writes, stats, hash) in cases {
            assert_eq!(
                probe_after(scheme, 200, writes),
                probe(stats, hash, 0, writes, false),
                "{scheme}"
            );
        }
    }

    #[test]
    fn end_of_life_is_sticky() {
        // Tiny endurance so the spare pool drains fast.
        let cfg = GatewayConfig {
            pages: 64,
            mean_endurance: 40,
            ..GatewayConfig::default()
        };
        let mut gw = WearGateway::new(cfg.clone()).unwrap();
        let mut writes = 0u64;
        loop {
            match gw.write_page(LogicalPageAddr::new(writes % 64)) {
                Ok(()) => writes += 1,
                Err(GatewayError::EndOfLife) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(writes < 1_000_000, "device never wore out");
        }
        assert!(gw.end_of_life());
        assert!(matches!(
            gw.write_page(LogicalPageAddr::new(0)),
            Err(GatewayError::EndOfLife)
        ));
        // The failed attempts are captured, and replay still converges.
        let replayed = WearGateway::replay(cfg, gw.capture()).unwrap();
        assert_eq!(replayed.probe(), gw.probe());
    }
}
