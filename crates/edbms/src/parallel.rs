//! Thread-count policy for batched QPF evaluation.
//!
//! Batch evaluation ([`crate::SelectionOracle::eval_batch`]) splits large
//! batches across `std::thread::scope` workers. The worker count is the one
//! the oracle was built with ([`crate::SpOracle::with_threads`]); the default
//! is the sequential 1.
//!
//! Parallelism never changes results or QPF accounting: batches are chunked
//! in input order, reassembled in input order, and the use counter is
//! settled with a single atomic add for the whole batch, so winners, splits,
//! and counts are byte-identical at every thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest batch worth spawning threads for: below this the per-thread
/// setup cost dominates any decrypt/work-factor parallelism.
pub(crate) const MIN_PARALLEL_BATCH: usize = 256;

/// Hard cap on workers per batch, to keep a huge `with_threads` argument
/// from degenerating into thread-spawn thrash.
pub(crate) const MAX_THREADS: usize = 64;

/// Resolves the worker count for a batch of `batch_len` tuples given the
/// oracle's configured count. Returns at least 1 and never more workers
/// than tuples.
pub(crate) fn effective_threads(threads: usize, batch_len: usize) -> usize {
    let configured = threads.clamp(1, MAX_THREADS);
    if configured <= 1 || batch_len < MIN_PARALLEL_BATCH {
        1
    } else {
        configured.min(batch_len)
    }
}

/// A sink that can absorb a deferred QPF-use settlement.
///
/// Implemented by [`crate::trusted::QpfSession`] (the real counter) and by
/// [`AtomicU64`] (so the settlement machinery is unit-testable without a
/// trusted machine).
pub(crate) trait SettleTarget {
    /// Credits `uses` evaluations to the underlying counter.
    fn settle(&self, uses: u64);
}

impl SettleTarget for crate::trusted::QpfSession<'_> {
    fn settle(&self, uses: u64) {
        crate::trusted::QpfSession::settle(self, uses);
    }
}

impl SettleTarget for AtomicU64 {
    fn settle(&self, uses: u64) {
        self.fetch_add(uses, Ordering::Relaxed);
    }
}

/// Unwind-safe deferred settlement for one batch worker.
///
/// Each worker counts its evaluations locally (one non-atomic increment per
/// tuple) and the guard settles the total with a single atomic add when it
/// drops — on normal exit, on early error return, *and* during a panic
/// unwind. This is what keeps the QPF counter exact when a batch is
/// cancelled mid-flight: work already performed is real paper-cost and must
/// never be lost to an abandoned settle call at the end of the batch.
#[derive(Debug)]
pub(crate) struct SettleOnDrop<'a, T: SettleTarget> {
    target: &'a T,
    count: Cell<u64>,
}

impl<'a, T: SettleTarget> SettleOnDrop<'a, T> {
    /// Starts a guard crediting `target` on drop.
    pub(crate) fn new(target: &'a T) -> Self {
        SettleOnDrop {
            target,
            count: Cell::new(0),
        }
    }

    /// Records `n` performed evaluations.
    pub(crate) fn add(&self, n: u64) {
        self.count.set(self.count.get() + n);
    }
}

impl<T: SettleTarget> Drop for SettleOnDrop<'_, T> {
    fn drop(&mut self) {
        let n = self.count.get();
        if n > 0 {
            self.target.settle(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_is_clamped() {
        assert_eq!(effective_threads(4, 100_000), 4);
        assert_eq!(effective_threads(0, 100_000), 1);
        assert_eq!(effective_threads(1 << 20, 100_000), MAX_THREADS);
    }

    #[test]
    fn small_batches_stay_sequential() {
        assert_eq!(effective_threads(8, MIN_PARALLEL_BATCH - 1), 1);
        assert_eq!(effective_threads(8, MIN_PARALLEL_BATCH), 8);
    }

    #[test]
    fn workers_never_exceed_tuples() {
        assert_eq!(effective_threads(64, 300), 64);
        assert_eq!(effective_threads(64, 257), 64);
    }

    #[test]
    fn settle_on_drop_settles_once_on_normal_exit() {
        let counter = AtomicU64::new(0);
        {
            let guard = SettleOnDrop::new(&counter);
            guard.add(3);
            guard.add(4);
            assert_eq!(guard.count.get(), 7);
            assert_eq!(counter.load(Ordering::Relaxed), 0, "settled only on drop");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 7);
    }

    /// Regression test for the PR-1 under-settle bug: the batch driver used
    /// to settle `tuples.len()` after the thread scope, so a panicking
    /// worker unwound past the settle call and the whole batch went
    /// uncounted. With per-worker settle-on-drop guards, every evaluation
    /// performed before the crash is still credited.
    #[test]
    fn worker_panic_cannot_leave_counter_under_settled() {
        let counter = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for w in 0..4u64 {
                    let counter = &counter;
                    s.spawn(move || {
                        let guard = SettleOnDrop::new(counter);
                        for i in 0..10u64 {
                            guard.add(1); // count the evaluation as performed...
                            if w == 2 && i == 4 {
                                panic!("injected worker crash"); // ...then crash mid-batch
                            }
                        }
                    });
                }
            });
        }));
        assert!(
            result.is_err(),
            "the worker panic must propagate out of the scope"
        );
        assert_eq!(
            counter.load(Ordering::Relaxed),
            3 * 10 + 5,
            "evaluations performed before the crash are settled exactly once"
        );
    }
}
