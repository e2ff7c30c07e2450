//! Order statistics and the sampled per-layer timers of the traced run.

use std::time::{Duration, Instant};

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Every `SAMPLE_EVERY`th call through a layer boundary is timed; the
/// rest only count, which keeps the timer's own cost out of the loop.
pub const SAMPLE_EVERY: u64 = 32;

/// Host time and call count of one layer boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Calls through the boundary.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Total time of the timed calls, timer cost removed.
    pub sampled_ns: f64,
}

impl Layer {
    /// Runs `f`, timing it when `sample` is set. A timed call is followed
    /// by an empty timed interval whose length is subtracted: the
    /// timer's own cost, measured in place, is comparable to the cheapest
    /// calls. Single samples may come out negative; their mean does not
    /// carry the timer's cost.
    #[inline]
    pub fn call<R>(&mut self, sample: bool, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !sample {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let busy = t.elapsed();
        let t = Instant::now();
        let timer = t.elapsed();
        self.sampled += 1;
        self.sampled_ns += busy.as_nanos() as f64 - timer.as_nanos() as f64;
        r
    }

    /// Mean host nanoseconds per call, from the timed sample.
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns / self.sampled as f64
        }
    }

    /// Estimated total host seconds spent in the layer.
    pub fn estimated_s(&self) -> f64 {
        self.mean_ns() * self.calls as f64 / 1e9
    }

    pub fn merge(&mut self, other: &Layer) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}
