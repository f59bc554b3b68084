//! The retry discipline of the one retry layer, the wire client.
//!
//! In the paper's deployment the QPF is served by a *physically separate*
//! trusted machine, so every Θ evaluation crosses a hop that can fail. No
//! oracle call is retried: a fault aborts its query with every knowledge
//! base byte-identical, the server answers it with a classified wire code,
//! and the client (`prkb_server::PrkbClient`) re-issues the whole request
//! with the same request id and seed. This module holds what that client
//! needs:
//!
//! * [`RetryPolicy`] — bounded attempts and exponential backoff with
//!   deterministic jitter;
//! * [`Breaker`] — a call-count circuit breaker that fast-fails after
//!   repeated exhaustion without hammering a down server;
//! * [`mix`] — the SplitMix64 finalizer every seeded schedule derives from.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-mixed hash for deterministic
/// per-call fault/jitter schedules. Public because every seeded-fault
/// harness in the workspace (oracle faults, network chaos, client backoff
/// jitter) derives its schedule from the same mixer, so one seed reproduces
/// one run everywhere.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry/backoff/circuit-breaker policy of the wire client.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call (first try + retries), minimum 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    /// `Duration::ZERO` disables sleeping entirely (test mode).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic ±50% backoff jitter.
    pub jitter_seed: u64,
    /// Consecutive *exhausted* calls (all attempts failed) before the
    /// breaker opens. 0 disables the breaker.
    pub trip_after: u32,
    /// Number of calls fast-failed while the breaker is open, before a
    /// half-open probe is allowed through.
    pub cooldown_calls: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(80),
            jitter_seed: 0x5eed,
            trip_after: 8,
            cooldown_calls: 16,
        }
    }
}

impl RetryPolicy {
    /// A zero-delay policy for tests: same retry/breaker logic, no sleeping.
    pub fn fast(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// The pause before retry number `attempt` (1-based), the `n`-th backoff
    /// its caller takes: `base_delay` doubled per attempt, capped at
    /// `max_delay`, jittered deterministically into `[capped/2, capped)` so
    /// synchronized retriers decorrelate. Pure: callers keep `n` and sleep.
    pub fn backoff(&self, attempt: u32, n: u64) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        let exp = self.base_delay.saturating_mul(factor);
        let capped = exp.min(self.max_delay).max(self.base_delay);
        let j = mix(self.jitter_seed ^ n) % 1000;
        let nanos = capped.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + (nanos / 2 / 1000) * j)
    }
}

/// Circuit-breaker states (stored in an `AtomicU8`).
const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// The wire client's circuit breaker: after [`RetryPolicy::trip_after`]
/// consecutive exhausted calls it opens, refuses the next
/// [`RetryPolicy::cooldown_calls`] calls, then lets one half-open probe
/// through — success closes it, failure reopens it for another cooldown.
/// The holder maps a refusal to its own error.
#[derive(Debug, Default)]
pub struct Breaker {
    state: AtomicU8,
    consecutive_exhausted: AtomicU32,
    open_calls_left: AtomicU32,
}

impl Breaker {
    /// Whether the breaker is currently open (refusing calls).
    pub(crate) fn is_open(&self) -> bool {
        self.state.load(Ordering::Relaxed) == OPEN
    }

    /// Gate at the top of every call.
    ///
    /// # Errors
    /// The consecutive-exhaustion count, while open and cooling down; the
    /// caller must fail fast without touching the guarded resource.
    pub fn gate(&self, policy: &RetryPolicy) -> Result<(), u32> {
        if policy.trip_after == 0 || !self.is_open() {
            return Ok(());
        }
        let left = self.open_calls_left.load(Ordering::Relaxed);
        if left > 0 {
            self.open_calls_left.store(left - 1, Ordering::Relaxed);
            return Err(self.consecutive_exhausted.load(Ordering::Relaxed));
        }
        self.state.store(HALF_OPEN, Ordering::Relaxed); // cooldown spent: probe
        Ok(())
    }

    /// Records a call's outcome (`ok` = it did not exhaust its attempts);
    /// returns whether this outcome opened the breaker.
    pub fn record(&self, policy: &RetryPolicy, ok: bool) -> bool {
        if policy.trip_after == 0 {
            return false;
        }
        if ok {
            self.consecutive_exhausted.store(0, Ordering::Relaxed);
            self.state.store(CLOSED, Ordering::Relaxed);
            return false;
        }
        let failed = self.consecutive_exhausted.fetch_add(1, Ordering::Relaxed) + 1;
        let trips = self.state.load(Ordering::Relaxed) == HALF_OPEN || failed >= policy.trip_after;
        if trips {
            self.state.store(OPEN, Ordering::Relaxed);
            self.open_calls_left
                .store(policy.cooldown_calls, Ordering::Relaxed);
        }
        trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_fast_fails_and_recovers() {
        let policy = RetryPolicy {
            trip_after: 3,
            cooldown_calls: 4,
            ..RetryPolicy::fast(2)
        };
        let breaker = Breaker::default();
        // 3 exhausted calls trip the breaker…
        for i in 1..=3 {
            assert_eq!(breaker.gate(&policy), Ok(()));
            assert_eq!(breaker.record(&policy, false), i == 3, "call {i}");
        }
        assert!(breaker.is_open());
        // …then the cooldown fast-fails with the exhaustion count…
        for _ in 0..4 {
            assert_eq!(breaker.gate(&policy), Err(3));
        }
        // …the half-open probe goes through, fails, and reopens at once.
        assert_eq!(breaker.gate(&policy), Ok(()));
        assert!(breaker.record(&policy, false), "a failed probe reopens");
        assert!(breaker.is_open());
        assert_eq!(breaker.gate(&policy), Err(4));
    }

    #[test]
    fn breaker_closes_on_successful_probe() {
        let policy = RetryPolicy {
            trip_after: 1,
            cooldown_calls: 2,
            ..RetryPolicy::fast(1)
        };
        let breaker = Breaker::default();
        assert_eq!(breaker.gate(&policy), Ok(()));
        assert!(breaker.record(&policy, false), "one exhausted call trips");
        assert!(breaker.is_open());
        for _ in 0..2 {
            assert_eq!(breaker.gate(&policy), Err(1));
        }
        // Half-open probe succeeds and closes the breaker.
        assert_eq!(breaker.gate(&policy), Ok(()));
        assert!(!breaker.record(&policy, true));
        assert!(!breaker.is_open());
        assert_eq!(breaker.gate(&policy), Ok(()));
        assert!(!breaker.record(&policy, true));
    }

    #[test]
    fn backoff_is_pure_bounded_and_pinned() {
        let policy = RetryPolicy::default();
        // The delays a seed-0x5eed retry loop has always slept: attempts
        // 1, 2, 3 of one call, then attempt 1 of the next.
        let slept: Vec<u64> = [(1, 0), (2, 1), (3, 2), (1, 3)]
            .map(|(attempt, n)| policy.backoff(attempt, n).as_nanos() as u64)
            .to_vec();
        assert_eq!(slept, [2_630_000, 9_780_000, 16_590_000, 4_585_000]);
        for n in 0..200u64 {
            for attempt in 1..=8u32 {
                let d = policy.backoff(attempt, n);
                assert_eq!(d, policy.backoff(attempt, n), "pure in (attempt, n)");
                let capped = (policy.base_delay * (1 << (attempt - 1))).min(policy.max_delay);
                assert!(capped / 2 <= d && d < capped, "attempt {attempt}: {d:?}");
            }
        }
        assert_eq!(RetryPolicy::fast(4).backoff(3, 9), Duration::ZERO);
    }
}
