//! Wall-clock span timing with parent/child nesting.
//!
//! A [`SpanGuard`] (usually via the [`span!`](crate::span!) macro) marks
//! a phase of work: construction notes the monotonic start time and
//! pushes a frame onto a *thread-local span stack*; drop pops the frame
//! and emits one `span` record carrying the phase's **inclusive** time
//! (whole interval) and **exclusive** self-time (inclusive minus the
//! time spent inside child spans), plus the enclosing span's name and
//! nesting depth. `twl-stats --spans` folds these records into a
//! self-time profile.
//!
//! Spans use [`std::time::Instant`] only — they never touch the
//! simulation RNG or any simulated state, so enabling them cannot
//! change a run's results; bit-identity oracles hold with spans on.
//! When emission is off (no sink installed, or spans suppressed via
//! [`set_spans_enabled`]) a guard is a no-op: no clock read, no stack
//! push, no allocation.
//!
//! For hot loops where even one record per iteration would be too many,
//! [`AggregateSpan`] accumulates many timed sections into a single
//! record with a `count` field (e.g. `drive_degraded` fault absorption
//! times every `absorb` call but emits once per run).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::record::TelemetryRecord;
use crate::sink;

/// Process-wide span switch, independent of the sink pipeline. On by
/// default; spans still only fire when a sink is installed.
static SPANS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Suppresses (or re-allows) span emission without touching installed
/// sinks; used by benches to measure span overhead against an
/// otherwise-identical configuration.
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Release);
}

/// Whether span guards are currently allowed to arm (the sink pipeline
/// must *also* be enabled for a span to actually record anything).
#[must_use]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn active() -> bool {
    // Cheapest check first: both are relaxed loads, but `enabled()` is
    // false in every non-traced process, short-circuiting the second.
    sink::enabled() && spans_enabled()
}

struct Frame {
    name: &'static str,
    label: String,
    start: Instant,
    /// Inclusive microseconds accumulated by already-closed children.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn duration_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Pops the top frame, charges its inclusive time to the parent frame,
/// and builds the record to emit.
fn close_frame(
    inclusive_us: u64,
    count: u64,
    name: &'static str,
    label: String,
) -> TelemetryRecord {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let depth = stack.len() as u64;
        let parent = stack.last_mut().map(|p| {
            p.child_us = p.child_us.saturating_add(inclusive_us);
            p.name.to_owned()
        });
        TelemetryRecord::Span {
            name: name.to_owned(),
            label,
            parent,
            depth,
            count,
            inclusive_us,
            exclusive_us: inclusive_us,
        }
    })
}

/// RAII timer for one phase of work: creation notes the start time
/// and drop emits one `span` record with the phase's inclusive and
/// exclusive time (usually created through [`span!`](crate::span!)).
///
/// Guards must be dropped in reverse creation order *on the same
/// thread* (the natural behavior of stack variables). A guard created
/// while emission is off stays inert even if emission turns on before
/// it drops.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Opens an unlabeled span named `name`.
    pub fn new(name: &'static str) -> Self {
        Self::labeled(name, String::new())
    }

    /// Opens a span named `name` carrying a free-form `label` (scheme,
    /// workload, job id, …) that profiles group by.
    pub fn labeled(name: &'static str, label: impl Into<String>) -> Self {
        if !active() {
            return Self { armed: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                name,
                label: label.into(),
                start: Instant::now(),
                child_us: 0,
            });
        });
        Self { armed: true }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let frame = STACK.with(|s| {
            s.borrow_mut()
                .pop()
                .expect("span stack underflow: guards dropped out of order")
        });
        let inclusive_us = duration_us(frame.start.elapsed());
        let mut rec = close_frame(inclusive_us, 1, frame.name, frame.label);
        if let TelemetryRecord::Span { exclusive_us, .. } = &mut rec {
            *exclusive_us = inclusive_us.saturating_sub(frame.child_us);
        }
        sink::emit(&rec);
    }
}

/// Emits one pre-measured span record — for intervals measured across
/// threads (e.g. a job's queue wait, clocked from submit on one thread
/// to claim on another) where no guard can live on a single stack. The
/// time is charged to the calling thread's open span like any closed
/// child, so call it *outside* spans that did not contain the wait.
pub fn emit_measured(name: &'static str, label: impl Into<String>, elapsed_us: u64, count: u64) {
    if !active() {
        return;
    }
    let rec = close_frame(elapsed_us, count, name, label.into());
    sink::emit(&rec);
}

/// Opens a [`SpanGuard`]: `span!("drive")` or `span!("drive", label)`.
///
/// Bind it to a named local (`let _span = span!(..);`) — binding to `_`
/// drops immediately and records a zero-length phase.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::new($name)
    };
    ($name:expr, $label:expr) => {
        $crate::SpanGuard::labeled($name, $label)
    };
}

/// Accumulates many short timed sections into one `span` record.
///
/// [`AggregateSpan::time`] wraps each hot section; drop emits a single
/// record whose `count` is the number of sections and whose inclusive
/// and exclusive times are both the accumulated total (an aggregate has
/// no children of its own). The total is still charged to the enclosing
/// [`SpanGuard`]'s child time, so parent self-times stay honest.
#[derive(Debug)]
pub struct AggregateSpan {
    armed: bool,
    name: &'static str,
    label: String,
    total_ns: u64,
    count: u64,
}

impl AggregateSpan {
    /// Creates an aggregate named `name` with a grouping `label`;
    /// arming follows the same rules as [`SpanGuard`].
    pub fn new(name: &'static str, label: impl Into<String>) -> Self {
        Self {
            armed: active(),
            name,
            label: label.into(),
            total_ns: 0,
            count: 0,
        }
    }

    /// Runs `f`, timing it when the aggregate is armed.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.armed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.total_ns = self
            .total_ns
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.count += 1;
        out
    }
}

impl Drop for AggregateSpan {
    fn drop(&mut self) {
        if !self.armed || self.count == 0 {
            return;
        }
        let rec = close_frame(
            self.total_ns / 1_000,
            self.count,
            self.name,
            std::mem::take(&mut self.label),
        );
        sink::emit(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{clear_sinks, install_sink, MemorySink};

    fn spans_of(records: &[TelemetryRecord]) -> Vec<(String, Option<String>, u64, u64, u64)> {
        records
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Span {
                    name,
                    parent,
                    depth,
                    inclusive_us,
                    exclusive_us,
                    ..
                } => Some((
                    name.clone(),
                    parent.clone(),
                    *depth,
                    *inclusive_us,
                    *exclusive_us,
                )),
                _ => None,
            })
            .collect()
    }

    // One test owns the global pipeline (tests run in parallel and the
    // pipeline is process state), covering nesting, the disabled path,
    // and aggregates together.
    #[test]
    fn nesting_charges_children_into_parent_inclusive_time() {
        let _lock = crate::sink::pipeline_test_guard();
        // Disabled: no sink installed, so nothing records and the stack
        // stays untouched.
        {
            let _outer = SpanGuard::new("noop");
            let _inner = span!("noop.child", "x");
        }
        STACK.with(|s| assert!(s.borrow().is_empty()));

        let sink = MemorySink::new();
        let records = sink.handle();
        install_sink(sink);

        {
            let _parent = span!("parent", "twl");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = span!("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let mut agg = AggregateSpan::new("agg", "twl");
            for _ in 0..3 {
                agg.time(|| std::thread::sleep(std::time::Duration::from_millis(1)));
            }
        }
        clear_sinks();

        let spans = spans_of(&records.lock().expect("buffer"));
        // Children close (and record) before the parent.
        assert_eq!(spans.len(), 3, "{spans:?}");
        let (child, agg, parent) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(child.0, "child");
        assert_eq!(child.1.as_deref(), Some("parent"));
        assert_eq!(child.2, 1, "child sits at depth 1");
        assert_eq!(agg.0, "agg");
        assert_eq!(agg.1.as_deref(), Some("parent"));
        assert_eq!(parent.0, "parent");
        assert_eq!(parent.1, None);
        assert_eq!(parent.2, 0);

        // The invariant the profile view depends on: the parent's
        // inclusive time covers its own self-time plus every child's
        // inclusive time.
        assert_eq!(parent.4, parent.3 - child.3 - agg.3);
        assert!(
            parent.3 >= child.3 + agg.3,
            "parent inclusive ≥ sum of child inclusive"
        );
        // And the aggregate counted every section.
        let all = records.lock().expect("buffer");
        let TelemetryRecord::Span { count, .. } = &all[1] else {
            panic!("expected span");
        };
        assert_eq!(*count, 3);
    }

    #[test]
    fn span_switch_gates_arming() {
        let _lock = crate::sink::pipeline_test_guard();
        set_spans_enabled(false);
        assert!(!spans_enabled());
        // No sink is installed in this test, so guards stay inert either
        // way; the switch itself must flip back cleanly for other tests.
        {
            let _g = span!("gated");
        }
        set_spans_enabled(true);
        assert!(spans_enabled());
    }
}
