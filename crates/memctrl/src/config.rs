//! Timing-model configuration.

/// Configuration of the closed-loop memory-controller models.
///
/// # Examples
///
/// ```
/// use twl_memctrl::MemCtrlConfig;
///
/// // vips: 3309 MB/s of writes, 45 % of requests are writes.
/// let config = MemCtrlConfig::for_bandwidth(3309.0, 4096, 0.55);
/// assert!(config.inter_arrival_cycles > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemCtrlConfig {
    /// Compute cycles between one request's completion and the next
    /// request's issue.
    pub inter_arrival_cycles: f64,
    /// Fraction of migration blocking that reaches the requester's
    /// critical path. Banked arrays and write buffering hide most of a
    /// background page migration; only the tail that collides with the
    /// demand request stalls it. 1.0 models fully-serializing swaps.
    pub blocking_visibility: f64,
}

impl MemCtrlConfig {
    /// Derives the request gap from a benchmark's measured *write*
    /// bandwidth: with `read_fraction` of requests being reads, the
    /// total request rate is `writes_per_sec / (1 − read_fraction)`,
    /// at Table 1's 2 GHz CPU clock.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth or page size is non-positive, or
    /// `read_fraction` is not in `[0, 1)`.
    #[must_use]
    pub fn for_bandwidth(write_bw_mbps: f64, page_size_bytes: u64, read_fraction: f64) -> Self {
        assert!(write_bw_mbps > 0.0, "bandwidth must be positive");
        assert!(page_size_bytes > 0, "page size must be positive");
        assert!(
            (0.0..1.0).contains(&read_fraction),
            "read fraction must be in [0, 1)"
        );
        let cpu_hz = 2.0e9;
        let writes_per_sec = write_bw_mbps * 1.0e6 / page_size_bytes as f64;
        let requests_per_sec = writes_per_sec / (1.0 - read_fraction);
        Self {
            inter_arrival_cycles: cpu_hz / requests_per_sec,
            blocking_visibility: 0.2,
        }
    }
}

impl Default for MemCtrlConfig {
    /// A mid-range request rate (~500 MB/s of writes at 4 KB pages,
    /// half reads).
    fn default() -> Self {
        Self::for_bandwidth(500.0, 4096, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vips_arrival_rate() {
        let c = MemCtrlConfig::for_bandwidth(3309.0, 4096, 0.55);
        // 3309e6/4096 ≈ 807861 writes/s; /0.45 ≈ 1.795e6 req/s;
        // 2e9 / 1.795e6 ≈ 1114 cycles.
        assert!((c.inter_arrival_cycles - 1114.0).abs() < 5.0);
    }

    #[test]
    fn slower_benchmarks_have_larger_gaps() {
        let fast = MemCtrlConfig::for_bandwidth(3309.0, 4096, 0.5);
        let slow = MemCtrlConfig::for_bandwidth(12.0, 4096, 0.5);
        assert!(slow.inter_arrival_cycles > 100.0 * fast.inter_arrival_cycles);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = MemCtrlConfig::for_bandwidth(0.0, 4096, 0.5);
    }
}
