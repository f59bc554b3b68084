//! Seeded fault injection at the SP↔TM boundary.
//!
//! In the paper's deployment the QPF is served by a *physically separate*
//! trusted machine, so every Θ evaluation crosses a hop that can drop a
//! request, lose a response, or return garbage. [`FaultInjector`] wraps any
//! [`SelectionOracle`] and injects a **deterministic, seeded** schedule of
//! [`OracleError::Transient`] / [`OracleError::Timeout`] /
//! [`OracleError::Corruption`] failures, with QPF accounting faithful to
//! each class (a lost *request* costs nothing; a lost *response* was still a
//! decrypt round trip).
//!
//! Nothing retries an oracle call: a fault aborts its query with every
//! knowledge base byte-identical, and the query is re-issued whole — by the
//! wire client ([`prkb_server::PrkbClient`]) in a deployment, by
//! [`reissue`] in a test. Re-issued with the same seed, the query equals the
//! fault-free one.

use prkb_edbms::resilience::mix;
use prkb_edbms::{OracleError, PredicateKind, SelectionOracle, TupleId};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Which fault class the schedule picked for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Transient,
    Timeout,
    Corruption,
}

/// Deterministic fault schedule: per-mille rates per evaluation, hashed
/// from `(seed, call index)` so a given seed always faults the same calls.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Schedule seed. Same seed ⇒ same faulted call indices.
    pub seed: u64,
    /// Rate (per 1000 calls) of lost-request faults ([`OracleError::Transient`]).
    pub transient_per_mille: u16,
    /// Rate (per 1000 calls) of lost-response faults ([`OracleError::Timeout`]).
    pub timeout_per_mille: u16,
    /// Rate (per 1000 calls) of integrity faults ([`OracleError::Corruption`]).
    pub corruption_per_mille: u16,
    /// Hard cap on *consecutive* injected faults (0 disables the cap): after
    /// `c` faults in a row the next call is clean.
    pub max_consecutive: u32,
}

impl FaultConfig {
    /// A retryable-only schedule (transient + timeout, no corruption) at
    /// 1‰ each, capped at 2 consecutive faults. A fault aborts its whole
    /// query, so the rate is one a query of a few hundred evaluations gets
    /// through within a few re-issues.
    pub fn retryable(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_per_mille: 1,
            timeout_per_mille: 1,
            corruption_per_mille: 0,
            max_consecutive: 2,
        }
    }

    /// A schedule that also injects non-retryable corruption faults, for
    /// abort-safety tests (a corruption aborts the query mid-flight).
    pub fn with_corruption(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_per_mille: 30,
            timeout_per_mille: 20,
            corruption_per_mille: 25,
            max_consecutive: 0,
        }
    }
}

/// A deterministic fault-injecting wrapper around any [`SelectionOracle`].
///
/// QPF accounting is faithful to the fault class: a `Fault::Transient`
/// fault models a request that never reached the trusted machine (the inner
/// oracle is *not* called — no QPF spent), while timeout and corruption
/// faults model a lost or garbled *response* (the inner oracle *is* called
/// and its QPF use is spent, but the verdict is withheld).
///
/// Batch evaluation deliberately routes through the per-tuple path so the
/// fault schedule advances one call index per evaluation regardless of how
/// callers batch — making schedules reproducible across code paths.
#[derive(Debug)]
pub struct FaultInjector<O> {
    inner: O,
    cfg: FaultConfig,
    calls: AtomicU64,
    consecutive: AtomicU32,
    injected: AtomicU64,
}

impl<O> FaultInjector<O> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: O, cfg: FaultConfig) -> Self {
        FaultInjector {
            inner,
            cfg,
            calls: AtomicU64::new(0),
            consecutive: AtomicU32::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Total evaluations requested through this injector.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The fault (if any) scheduled for call index `idx`, before the
    /// consecutive-fault cap is applied.
    fn scheduled(&self, idx: u64) -> Option<Fault> {
        let FaultConfig {
            transient_per_mille: tr,
            timeout_per_mille: to,
            corruption_per_mille: co,
            ..
        } = self.cfg;
        let total = u64::from(tr) + u64::from(to) + u64::from(co);
        if total == 0 {
            return None;
        }
        let r = mix(self.cfg.seed ^ idx.wrapping_mul(0x9e37_79b9)) % 1000;
        if r < u64::from(tr) {
            Some(Fault::Transient)
        } else if r < u64::from(tr) + u64::from(to) {
            Some(Fault::Timeout)
        } else if r < total {
            Some(Fault::Corruption)
        } else {
            None
        }
    }

    /// Draws the next call's fault decision and maintains the
    /// consecutive-fault cap.
    fn next_fault(&self) -> Option<Fault> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.scheduled(idx) {
            Some(f)
                if self.cfg.max_consecutive == 0
                    || self.consecutive.load(Ordering::Relaxed) < self.cfg.max_consecutive =>
            {
                self.consecutive.fetch_add(1, Ordering::Relaxed);
                self.injected.fetch_add(1, Ordering::Relaxed);
                Some(f)
            }
            _ => {
                self.consecutive.store(0, Ordering::Relaxed);
                None
            }
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for FaultInjector<O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        match self.next_fault() {
            None => self.inner.try_eval(pred, t),
            Some(Fault::Transient) => Err(OracleError::Transient(format!(
                "injected: request for tuple {t} lost before the TM"
            ))),
            Some(Fault::Timeout) => {
                // The TM did the work (QPF spent), the response was lost.
                let _ = self.inner.try_eval(pred, t);
                Err(OracleError::Timeout(format!(
                    "injected: response for tuple {t} not observed in time"
                )))
            }
            Some(Fault::Corruption) => {
                // The round-trip happened but the response bytes are garbage.
                let _ = self.inner.try_eval(pred, t);
                Err(OracleError::Corruption(format!(
                    "injected: response for tuple {t} failed its integrity check"
                )))
            }
        }
    }

    // try_eval_batch: default per-tuple loop, intentionally — see type docs.

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

/// Runs `op` until it succeeds, at most `attempts` times: the whole-query
/// re-issue that follows an aborted query. `op` must rebuild everything the
/// query consumes — its RNG above all — so every attempt is the same query.
///
/// # Panics
/// When every attempt failed, with the last error.
pub fn reissue<T, E: fmt::Debug>(attempts: u32, mut op: impl FnMut() -> Result<T, E>) -> T {
    let mut last = None;
    for _ in 0..attempts {
        match op() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("{attempts} attempts all failed; the last with {last:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};

    fn oracle() -> PlainOracle {
        PlainOracle::single_column((0..100).collect())
    }

    fn pred() -> Predicate {
        Predicate::cmp(0, ComparisonOp::Lt, 50)
    }

    #[test]
    fn injector_is_deterministic_and_classifies() {
        let cfg = FaultConfig::with_corruption(42);
        let a = FaultInjector::new(oracle(), cfg);
        let b = FaultInjector::new(oracle(), cfg);
        let p = pred();
        let run = |o: &FaultInjector<PlainOracle>| {
            (0..500u32)
                .map(|t| match o.try_eval(&p, t % 100) {
                    Ok(v) => (0u8, v),
                    Err(OracleError::Transient(_)) => (1, false),
                    Err(OracleError::Timeout(_)) => (2, false),
                    Err(OracleError::Corruption(_)) => (3, false),
                    Err(e) => panic!("unexpected class: {e}"),
                })
                .collect::<Vec<_>>()
        };
        let ra = run(&a);
        assert_eq!(ra, run(&b), "same seed ⇒ same schedule");
        assert!(a.injected() > 0, "rates are nonzero, 500 calls must fault");
        assert!(ra.iter().any(|&(c, _)| c == 1), "transient seen");
        assert!(ra.iter().any(|&(c, _)| c == 2), "timeout seen");
        assert!(ra.iter().any(|&(c, _)| c == 3), "corruption seen");
    }

    #[test]
    fn injector_qpf_accounting_matches_fault_class() {
        // Transient = lost request (no QPF); timeout/corruption = lost
        // response (QPF spent).
        let inj = FaultInjector::new(oracle(), FaultConfig::with_corruption(7));
        let p = pred();
        let mut lost_requests = 0u64;
        let n = 400u64;
        for t in 0..n {
            if let Err(OracleError::Transient(_)) = inj.try_eval(&p, (t % 100) as u32) {
                lost_requests += 1;
            }
        }
        assert!(lost_requests > 0, "schedule must include transient faults");
        assert_eq!(
            inj.qpf_uses(),
            n - lost_requests,
            "every call except lost requests reached the TM and was counted"
        );
    }

    #[test]
    fn consecutive_fault_cap_bounds_retry_depth() {
        let cfg = FaultConfig {
            transient_per_mille: 50,
            timeout_per_mille: 30,
            max_consecutive: 2,
            ..FaultConfig::retryable(3)
        };
        let inj = FaultInjector::new(oracle(), cfg);
        let p = pred();
        let mut consecutive = 0u32;
        for t in 0..2000u32 {
            if inj.try_eval(&p, t % 100).is_err() {
                consecutive += 1;
                assert!(
                    consecutive <= 2,
                    "cap must force a clean call after 2 faults"
                );
            } else {
                consecutive = 0;
            }
        }
    }

    #[test]
    fn retryable_config_shape() {
        let cfg = FaultConfig::retryable(99);
        assert_eq!(cfg.seed, 99);
        assert!(
            cfg.max_consecutive > 0,
            "retryable schedules must be bounded"
        );
        assert_eq!(cfg.corruption_per_mille, 0);
    }
}
