//! The shared bounded worker pool.
//!
//! Sweeps ([`crate::lifetime_matrix`] and friends) and the `twl-service`
//! daemon both need "run N independent units of work on a bounded set
//! of threads". This module is the single place that decides how many
//! workers that is — so the `TWL_THREADS` override is honored in
//! exactly one spot — and provides the order-preserving fan-out used by
//! the sweep grids.

/// Parses a `TWL_THREADS` value.
///
/// # Errors
///
/// Returns a message naming the variable and the offending value when
/// it is not a positive integer — a typo'd override must fail loudly,
/// not silently fall back to full parallelism.
///
/// # Examples
///
/// ```
/// use twl_lifetime::pool::parse_twl_threads;
/// assert_eq!(parse_twl_threads("4"), Ok(4));
/// assert!(parse_twl_threads("0").is_err());
/// assert!(parse_twl_threads("four").is_err());
/// ```
pub fn parse_twl_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "TWL_THREADS must be a positive integer, got {raw:?} (use 1 for a serial run)"
        )),
        Ok(n) => Ok(n),
        Err(e) => Err(format!(
            "TWL_THREADS must be a positive integer, got {raw:?}: {e}"
        )),
    }
}

/// Worker threads the process should use for embarrassingly parallel
/// work: `TWL_THREADS` when set, the machine's available parallelism
/// otherwise.
///
/// # Panics
///
/// Panics with the [`parse_twl_threads`] message when `TWL_THREADS` is
/// set but is not a positive integer.
///
/// # Examples
///
/// ```
/// let workers = twl_lifetime::pool::configured_parallelism();
/// assert!(workers >= 1);
/// ```
#[must_use]
pub fn configured_parallelism() -> usize {
    match std::env::var("TWL_THREADS") {
        Ok(raw) => parse_twl_threads(&raw).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Number of worker threads a `cells`-unit workload uses:
/// [`configured_parallelism`], but never more than there are cells and
/// never zero.
#[must_use]
pub fn worker_count(cells: usize) -> usize {
    configured_parallelism().min(cells).max(1)
}

/// Runs the cells on a bounded worker pool, preserving input order in
/// the results. Each cell owns its state, so the parallelism is
/// trivially safe; workers pull cells from a shared atomic cursor, so
/// grids larger than the pool never oversubscribe the machine (override
/// the pool size with `TWL_THREADS`).
pub fn run_cells<C: Sync, R: Send>(cells: &[C], run: impl Fn(&C) -> R + Sync) -> Vec<R> {
    run_cells_on(cells, worker_count(cells.len()), run)
}

/// [`run_cells`] with an explicit worker count — the seam the banked
/// runners' determinism tests pin: results must be identical for any
/// `workers`, because cell order (not scheduling order) decides where
/// each result lands.
///
/// # Panics
///
/// Panics if `workers == 0` while there are cells to run.
pub fn run_cells_on<C: Sync, R: Send>(
    cells: &[C],
    workers: usize,
    run: impl Fn(&C) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    if cells.is_empty() {
        return Vec::new();
    }
    assert!(workers > 0, "need at least one worker");
    let next = AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<R>>> =
        cells.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(cells.len()))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    *results[i].lock().expect("pool result lock poisoned") = Some(run(cell));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pool cell panicked");
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool result lock poisoned")
                .expect("every cell ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cells_bounded_pool_preserves_order() {
        let cells: Vec<u64> = (0..100).collect();
        let out = run_cells(&cells, |&c| c * 2);
        assert_eq!(out, (0..100).map(|c| c * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(run_cells(&empty, |&c: &u64| c).is_empty());
    }

    #[test]
    fn worker_count_is_bounded_by_cells() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(3) <= 3);
        assert!(worker_count(10_000) >= 1);
        assert_eq!(worker_count(10_000).max(1), worker_count(10_000));
    }

    #[test]
    fn configured_parallelism_is_positive() {
        assert!(configured_parallelism() >= 1);
    }

    #[test]
    fn twl_threads_accepts_positive_integers() {
        assert_eq!(parse_twl_threads("1"), Ok(1));
        assert_eq!(parse_twl_threads("32"), Ok(32));
        assert_eq!(parse_twl_threads(" 8 "), Ok(8), "whitespace is tolerated");
    }

    #[test]
    fn twl_threads_rejects_zero_and_garbage_with_a_clear_error() {
        for bad in ["0", "-1", "four", "", "2.5", "1e3"] {
            let err = parse_twl_threads(bad).expect_err(bad);
            assert!(
                err.contains("TWL_THREADS") && err.contains("positive integer"),
                "error for {bad:?} must name the variable and the rule: {err}"
            );
            assert!(
                err.contains(&format!("{bad:?}")),
                "error must echo the offending value: {err}"
            );
        }
    }

    #[test]
    fn run_cells_on_is_worker_count_invariant() {
        let cells: Vec<u64> = (0..37).collect();
        let serial = run_cells_on(&cells, 1, |&c| c * c + 1);
        for workers in [2, 4, 16] {
            assert_eq!(serial, run_cells_on(&cells, workers, |&c| c * c + 1));
        }
    }
}
