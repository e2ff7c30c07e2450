//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms with `&'static` handles.
//!
//! Hot paths record through shared references to interned metrics, so no
//! `&mut` plumbing is needed through scheme or controller APIs and no
//! allocation happens after a handle is created. Use the [`counter!`],
//! [`gauge!`] and [`histogram!`](crate::histogram!) macros at call sites:
//! they cache the registry lookup in a `OnceLock`.
//!
//! Counters and histograms are sharded per thread: each holds
//! [`SHARDS`] copies of its atomics, each copy on its own cache line, and
//! a thread records into the shard it was dealt (round-robin, once per
//! thread, from a thread-local). So the steady-state cost of a record is
//! a thread-local read plus one relaxed atomic op on a line no other
//! thread writes while at most [`SHARDS`] threads record, so two cores
//! driving TWL cells no longer share the line behind `twl.core.writes`,
//! which TWL's scalar `write` bumps every write. Reads (`get`,
//! [`Registry::snapshot`]) and resets visit every shard. Gauges are
//! last-value cells and stay unsharded.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Shards per counter and histogram: threads past this many share
/// shards (still correct, just contended again).
pub const SHARDS: usize = 8;

/// One shard's storage, alone on its cache line (128 bytes, so the
/// adjacent-line prefetcher cannot pair two shards either).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index, dealt round-robin on first use.
#[inline]
fn shard() -> usize {
    SHARD.with(|s| {
        let i = s.get();
        if i < SHARDS {
            i
        } else {
            deal_shard(s)
        }
    })
}

#[cold]
fn deal_shard(slot: &Cell<usize>) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    slot.set(i);
    i
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Padded<AtomicU64>; SHARDS],
}

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            shards: [const { Padded(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over every shard.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative); useful for occupancy-style
    /// gauges such as busy-worker counts.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A histogram over fixed power-of-two buckets: bucket `i` counts
/// samples in `[2^i, 2^(i+1))`, with bucket 0 also holding zeros and the
/// last bucket absorbing overflow.
#[derive(Debug)]
pub struct Histogram {
    shards: [Padded<HistogramShard>; SHARDS],
}

/// One thread's share of a [`Histogram`].
#[derive(Debug)]
struct HistogramShard {
    buckets: [AtomicU64; Histogram::BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramShard {
    const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; Histogram::BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Number of power-of-two buckets (covers `u64` values up to 2³¹).
    pub const BUCKETS: usize = 32;

    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            shards: [const { Padded(HistogramShard::new()) }; SHARDS],
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - v.leading_zeros() as usize).min(Self::BUCKETS - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.shards[shard()].0;
        s.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records `n` identical samples in O(1).
    ///
    /// Leaves the histogram in exactly the state `n` [`Histogram::record`]
    /// calls with `v` would: every field is a sum (or a max), so folding
    /// identical samples is associative. This is the flush arm of batch
    /// loops that count samples locally instead of paying one atomic
    /// round-trip per event.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let s = &self.shards[shard()].0;
        s.buckets[Self::bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        s.count.fetch_add(n, Ordering::Relaxed);
        s.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Sums one field over every shard.
    fn total(&self, field: impl Fn(&HistogramShard) -> &AtomicU64) -> u64 {
        self.shards.iter().fold(0u64, |sum, s| {
            sum.wrapping_add(field(&s.0).load(Ordering::Relaxed))
        })
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total(|s| &s.count)
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.total(|s| &s.sum)
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Mean sample value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Per-bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        (0..Self::BUCKETS)
            .map(|i| self.total(|s| &s.buckets[i]))
            .collect()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the power-of-two bucket the rank falls in, clamped to the
    /// largest sample actually seen. Empty histograms report `0.0`, not
    /// NaN.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        quantile_from_buckets(&self.bucket_counts(), q).min(self.max() as f64)
    }

    /// The (p50, p90, p99) triple of [`Self::quantile`].
    #[must_use]
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }

    fn reset(&self) {
        for s in &self.shards {
            let s = &s.0;
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Interpolates the `q`-quantile from power-of-two bucket counts laid
/// out like [`Histogram`]'s: bucket `i` covers `[2^i, 2^(i+1))` with
/// bucket 0 also holding zeros. Returns `0.0` when every bucket is
/// empty. The result is the interpolated position inside the bucket the
/// rank lands in, so it can exceed the true maximum sample — callers
/// with a tracked max (see [`Histogram::quantile`]) should clamp.
#[must_use]
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cum = 0.0_f64;
    let mut last_nonzero_upper = 0.0_f64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let lower = if i == 0 { 0.0 } else { (i as f64).exp2() };
        let upper = ((i + 1) as f64).exp2();
        last_nonzero_upper = upper;
        let next = cum + c as f64;
        if next >= rank {
            let within = ((rank - cum) / c as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * within;
        }
        cum = next;
    }
    // Torn concurrent reads can leave `rank` past the scanned mass;
    // the upper edge of the last occupied bucket is the honest answer.
    last_nonzero_upper
}

/// Interned storage: names are registered once and leaked, so handles
/// are `&'static` and hot paths never touch the registry lock again.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
    histograms: Mutex<Vec<(&'static str, &'static Histogram)>>,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter names and values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge names and values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// A point-in-time copy of one [`Histogram`], buckets included, so
/// consumers (Prometheus exposition, `twl-stats` percentiles) can work
/// from a trace or a wire snapshot without the live registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Per-bucket counts in [`Histogram`]'s power-of-two layout. May be
    /// empty when decoded from a pre-bucket trace record.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// [`Histogram::quantile`] over the captured buckets: interpolated,
    /// max-clamped, and `0.0` when empty (or when the snapshot carries
    /// no bucket detail).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0.0;
        }
        quantile_from_buckets(&self.buckets, q).min(self.max as f64)
    }

    /// Mean sample value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Registry {
    /// Returns (interning on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut table = self.counters.lock().expect("registry poisoned");
        if let Some(&(_, c)) = table.iter().find(|(n, _)| *n == name) {
            return c;
        }
        let entry: (&'static str, &'static Counter) = (
            Box::leak(name.to_owned().into_boxed_str()),
            Box::leak(Box::new(Counter::new())),
        );
        table.push(entry);
        entry.1
    }

    /// Returns (interning on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut table = self.gauges.lock().expect("registry poisoned");
        if let Some(&(_, g)) = table.iter().find(|(n, _)| *n == name) {
            return g;
        }
        let entry: (&'static str, &'static Gauge) = (
            Box::leak(name.to_owned().into_boxed_str()),
            Box::leak(Box::new(Gauge::new())),
        );
        table.push(entry);
        entry.1
    }

    /// Returns (interning on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut table = self.histograms.lock().expect("registry poisoned");
        if let Some(&(_, h)) = table.iter().find(|(n, _)| *n == name) {
            return h;
        }
        let entry: (&'static str, &'static Histogram) = (
            Box::leak(name.to_owned().into_boxed_str()),
            Box::leak(Box::new(Histogram::new())),
        );
        table.push(entry);
        entry.1
    }

    /// Copies every metric's current value, each section sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for &(n, c) in self.counters.lock().expect("registry poisoned").iter() {
            snap.counters.push((n.to_owned(), c.get()));
        }
        for &(n, g) in self.gauges.lock().expect("registry poisoned").iter() {
            snap.gauges.push((n.to_owned(), g.get()));
        }
        for &(n, h) in self.histograms.lock().expect("registry poisoned").iter() {
            let buckets = h.bucket_counts();
            snap.histograms.push(HistogramSnapshot {
                name: n.to_owned(),
                // Every record adds to one bucket and to the count, so at
                // rest they agree; summing the buckets read keeps them
                // agreeing while other threads record, which a scrape's
                // `+Inf` bucket == `_count` check relies on.
                count: buckets.iter().sum(),
                sum: h.sum(),
                max: h.max(),
                buckets,
            });
        }
        snap.counters.sort();
        snap.gauges.sort();
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// Zeroes every registered metric (handles stay valid). Meant for
    /// test and benchmark isolation, not for concurrent hot-path use.
    pub fn reset(&self) {
        for &(_, c) in self.counters.lock().expect("registry poisoned").iter() {
            c.reset();
        }
        for &(_, g) in self.gauges.lock().expect("registry poisoned").iter() {
            g.reset();
        }
        for &(_, h) in self.histograms.lock().expect("registry poisoned").iter() {
            h.reset();
        }
    }
}

/// The process-wide registry.
#[must_use]
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns a `&'static Counter` for `$name`, caching the registry lookup
/// at the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Returns a `&'static Gauge` for `$name`, caching the registry lookup
/// at the call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Returns a `&'static Histogram` for `$name`, caching the registry
/// lookup at the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let registry = Registry::default();
        let a = registry.counter("test.a");
        let b = registry.counter("test.a");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let registry = Registry::default();
        registry.counter("z.last").add(5);
        registry.counter("a.first").add(1);
        registry.gauge("queue.depth").set(-3);
        registry.histogram("lat").record(7);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_owned(), 1), ("z.last".to_owned(), 5)]
        );
        assert_eq!(snap.gauges, vec![("queue.depth".to_owned(), -3)]);
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!((h.name.as_str(), h.count, h.sum, h.max), ("lat", 1, 7, 7));
        assert_eq!(h.buckets.len(), Histogram::BUCKETS);
        assert_eq!(h.buckets[2], 1, "7 lands in [4,8)");
        assert_eq!(h.quantile(0.5), 7.0, "interpolation clamps to max");
    }

    #[test]
    fn snapshot_count_matches_buckets_while_recording() {
        let registry = Registry::default();
        let h = registry.histogram("busy");
        let recording = AtomicUsize::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let recording = &recording;
                scope.spawn(move || {
                    for v in 0..50_000u64 {
                        h.record(v * 4 + t);
                    }
                    recording.fetch_sub(1, Ordering::SeqCst);
                });
            }
            while recording.load(Ordering::SeqCst) > 0 {
                let snap = registry.snapshot();
                let h = &snap.histograms[0];
                assert_eq!(h.count, h.buckets.iter().sum::<u64>());
            }
        });
        let snap = registry.snapshot();
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.max), (200_000, 199_999));
        assert_eq!(h.sum, (0..200_000u64).sum::<u64>());
    }

    #[test]
    fn sharded_adds_from_many_threads_sum_exactly() {
        let registry = Registry::default();
        let c = registry.counter("sharded.adds");
        let h = registry.histogram("sharded.samples");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100_000 {
                        c.add(1);
                        h.record(3);
                    }
                });
            }
        });
        assert_eq!(c.get(), 800_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("sharded.adds".to_owned(), 800_000)]);
        let h = &snap.histograms[0];
        assert_eq!(
            (h.count, h.sum, h.max, h.buckets[1]),
            (800_000, 2_400_000, 3, 800_000)
        );
    }

    #[test]
    fn threads_are_dealt_distinct_shards() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..SHARDS {
                scope.spawn(|| c.inc());
            }
        });
        assert_eq!(c.get(), SHARDS as u64);
        // Round-robin dealing: SHARDS fresh threads cover every shard
        // unless other tests' threads took turns in between, so only
        // require that the adds did not all land on one line.
        let used = c
            .shards
            .iter()
            .filter(|s| s.0.load(Ordering::Relaxed) > 0)
            .count();
        assert!(used > 1, "all {SHARDS} threads recorded into one shard");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 3, "zeros and ones share bucket 0");
        assert_eq!(buckets[1], 1, "3 lands in [2,4)");
        assert_eq!(buckets[10], 1, "1024 lands in [1024,2048)");
        assert_eq!(buckets[Histogram::BUCKETS - 1], 1, "overflow clamps");
    }

    #[test]
    fn quantiles_interpolate_and_guard_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports 0, not NaN");
        assert_eq!(h.percentiles(), (0.0, 0.0, 0.0));

        // 100 samples spread evenly over [0, 100): p50 should land near
        // the middle, p99 near (but never past) the max.
        for v in 0..100u64 {
            h.record(v);
        }
        let (p50, p90, p99) = h.percentiles();
        assert!(
            (32.0..=64.0).contains(&p50),
            "p50 in the [32,64) bucket: {p50}"
        );
        assert!(p50 < p90 && p90 <= p99, "monotone: {p50} {p90} {p99}");
        assert!(p99 <= h.max() as f64, "clamped to max");
    }

    #[test]
    fn quantile_gauge_add_and_zero_samples() {
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(0);
        }
        assert_eq!(h.quantile(0.99), 0.0, "all-zero samples clamp to max=0");

        let g = Gauge::new();
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let registry = Registry::default();
        let c = registry.counter("reset.c");
        let h = registry.histogram("reset.h");
        // Record from more threads than there are shards, so several
        // shards hold something before the reset.
        std::thread::scope(|scope| {
            for _ in 0..2 * SHARDS {
                scope.spawn(|| {
                    c.add(9);
                    h.record(5);
                });
            }
        });
        registry.reset();
        assert_eq!(c.get(), 0);
        assert!(c.shards.iter().all(|s| s.0.load(Ordering::Relaxed) == 0));
        assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
        assert!(h.bucket_counts().iter().all(|&b| b == 0));
        c.inc();
        assert_eq!(
            registry.snapshot().counters,
            vec![("reset.c".to_owned(), 1)]
        );
    }
}
