//! Plaintext test oracle.
//!
//! [`PlainOracle`] implements [`SelectionOracle`] over plaintext columns with
//! the *same counting semantics* as the real encrypted pipeline: one counter
//! tick per Θ evaluation. It lets the PRKB engine's logic be tested (and
//! property-tested) at scales where running real decryption for every Θ call
//! would drown the suite, and provides the ground-truth `expected_*` helpers
//! the integration tests compare against.

use crate::oracle::{OracleError, SelectionOracle};
use crate::predicate::Predicate;
use crate::schema::TupleId;
use crate::trapdoor::PredicateKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// A plaintext stand-in for (encrypted table + trusted machine).
#[derive(Debug)]
pub struct PlainOracle {
    columns: Vec<Vec<u64>>,
    live: Vec<bool>,
    uses: AtomicU64,
}

impl PlainOracle {
    /// Builds an oracle over one column.
    pub fn single_column(values: Vec<u64>) -> Self {
        let n = values.len();
        PlainOracle {
            columns: vec![values],
            live: vec![true; n],
            uses: AtomicU64::new(0),
        }
    }

    /// Builds an oracle over several equal-length columns.
    ///
    /// # Panics
    /// Panics on ragged columns.
    pub fn from_columns(columns: Vec<Vec<u64>>) -> Self {
        let n = columns.first().map_or(0, Vec::len);
        assert!(columns.iter().all(|c| c.len() == n), "ragged columns");
        PlainOracle {
            columns,
            live: vec![true; n],
            uses: AtomicU64::new(0),
        }
    }

    /// Appends a row, returning its id.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, row: &[u64]) -> TupleId {
        assert_eq!(row.len(), self.columns.len(), "arity");
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(*v);
        }
        self.live.push(true);
        (self.live.len() - 1) as TupleId
    }

    /// Tombstones a tuple.
    pub fn delete(&mut self, t: TupleId) {
        self.live[t as usize] = false;
    }

    /// Ground truth: ids of live tuples satisfying `pred`, **without**
    /// touching the QPF counter.
    pub fn expected_select(&self, pred: &Predicate) -> Vec<TupleId> {
        let col = &self.columns[pred.attr() as usize];
        (0..self.live.len())
            .filter(|&i| self.live[i] && pred.eval(col[i]))
            .map(|i| i as TupleId)
            .collect()
    }

    /// Ground truth for a conjunction, without counting.
    pub fn expected_conjunction(&self, preds: &[Predicate]) -> Vec<TupleId> {
        (0..self.live.len())
            .filter(|&i| {
                self.live[i]
                    && preds
                        .iter()
                        .all(|p| p.eval(self.columns[p.attr() as usize][i]))
            })
            .map(|i| i as TupleId)
            .collect()
    }

    /// Plain value of (`attr`, `t`) — for assertions only.
    pub fn value(&self, attr: u32, t: TupleId) -> u64 {
        self.columns[attr as usize][t as usize]
    }

    /// Resets the QPF counter (between measurement spans in tests).
    pub fn reset_uses(&self) {
        self.uses.store(0, Ordering::Relaxed);
    }

    fn column(&self, pred: &Predicate) -> Result<&[u64], OracleError> {
        let col = self.columns.get(pred.attr() as usize).map(Vec::as_slice);
        col.ok_or_else(|| OracleError::Fatal(format!("attribute {} not in oracle", pred.attr())))
    }

    fn out_of_bounds(&self, t: TupleId) -> OracleError {
        OracleError::Fatal(format!(
            "tuple id {t} outside table bounds ({} slots)",
            self.live.len()
        ))
    }
}

impl SelectionOracle for PlainOracle {
    type Pred = Predicate;

    fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
        // Counted before the bounds checks, matching the real pipeline where
        // even a failed decrypt round-trip is a spent QPF use.
        self.uses.fetch_add(1, Ordering::Relaxed);
        let v = self.column(pred)?.get(t as usize).copied();
        Ok(pred.eval(v.ok_or_else(|| self.out_of_bounds(t))?))
    }

    /// The per-tuple loop with one counter add: every evaluation is counted
    /// before its bounds check, so an out-of-range id at position `i`
    /// settles `i + 1` uses; on error `out` is left empty.
    fn try_eval_batch(
        &self,
        pred: &Predicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        out.clear();
        if tuples.is_empty() {
            return Ok(());
        }
        let col = self.column(pred).inspect_err(|_| {
            self.uses.fetch_add(1, Ordering::Relaxed);
        })?;
        out.reserve(tuples.len());
        for (i, &t) in tuples.iter().enumerate() {
            let Some(&v) = col.get(t as usize) else {
                out.clear();
                self.uses.fetch_add(i as u64 + 1, Ordering::Relaxed);
                return Err(self.out_of_bounds(t));
            };
            out.push(pred.eval(v));
        }
        self.uses.fetch_add(tuples.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn kind_of(&self, pred: &Predicate) -> PredicateKind {
        match pred {
            Predicate::Comparison { .. } => PredicateKind::Comparison,
            Predicate::Between { .. } => PredicateKind::Between,
        }
    }

    fn n_slots(&self) -> usize {
        self.live.len()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.live.get(t as usize).copied().unwrap_or(false)
    }

    fn qpf_uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ComparisonOp;

    #[test]
    fn counting_and_ground_truth() {
        let o = PlainOracle::single_column(vec![2, 4, 6]);
        let p = Predicate::cmp(0, ComparisonOp::Gt, 3);
        assert_eq!(o.expected_select(&p), vec![1, 2]);
        assert_eq!(o.qpf_uses(), 0, "ground truth is free");
        assert!(o.eval(&p, 1));
        assert_eq!(o.qpf_uses(), 1);
        o.reset_uses();
        assert_eq!(o.qpf_uses(), 0);
    }

    #[test]
    fn insert_delete() {
        let mut o = PlainOracle::single_column(vec![1]);
        let id = o.insert(&[9]);
        assert_eq!(id, 1);
        assert_eq!(o.value(0, 1), 9);
        o.delete(0);
        assert!(!o.is_live(0));
        let p = Predicate::cmp(0, ComparisonOp::Gt, 0);
        assert_eq!(o.expected_select(&p), vec![1]);
    }

    #[test]
    fn batch_counts_like_the_per_tuple_loop_and_clears_out() {
        // An id past the table at every position, and an attribute the
        // oracle lacks: the batch fails, the counter equals the per-tuple
        // loop's (each id counted before its bounds check), and the output
        // holds no partial verdicts.
        let o = PlainOracle::single_column((0..24).collect());
        let p = Predicate::cmp(0, ComparisonOp::Lt, 5);
        let mut out = Vec::new();
        let mut reference = Vec::new();
        for pos in 0..24 {
            let mut tuples: Vec<TupleId> = (0..24).collect();
            tuples[pos] = 999;
            let before = o.qpf_uses();
            let err = o.try_eval_batch(&p, &tuples, &mut out).unwrap_err();
            assert!(err.to_string().contains("outside table bounds"), "{err}");
            assert!(out.is_empty(), "no partial verdicts (at {pos})");
            assert_eq!(o.qpf_uses() - before, pos as u64 + 1, "at {pos}");
            let before = o.qpf_uses();
            let looped: Result<Vec<bool>, _> = tuples.iter().map(|&t| o.try_eval(&p, t)).collect();
            assert!(looped.is_err());
            assert_eq!(o.qpf_uses() - before, pos as u64 + 1, "per tuple, at {pos}");
        }
        let before = o.qpf_uses();
        let absent = Predicate::cmp(3, ComparisonOp::Lt, 5);
        assert!(o.try_eval_batch(&absent, &[1, 2], &mut out).is_err());
        assert!(out.is_empty());
        assert_eq!(o.qpf_uses() - before, 1, "the first evaluation fails");
        let before = o.qpf_uses();
        o.try_eval_batch(&p, &[], &mut out).unwrap();
        assert_eq!(o.qpf_uses(), before, "an empty batch is free");
        o.try_eval_batch(&p, &[7, 3, 4], &mut out).unwrap();
        for &t in &[7, 3, 4] {
            reference.push(o.eval(&p, t));
        }
        assert_eq!(out, reference);
        assert_eq!(o.qpf_uses() - before, 6);
    }

    #[test]
    fn conjunction_ground_truth() {
        let o = PlainOracle::from_columns(vec![vec![1, 5], vec![9, 2]]);
        let preds = [
            Predicate::cmp(0, ComparisonOp::Gt, 2),
            Predicate::cmp(1, ComparisonOp::Lt, 5),
        ];
        assert_eq!(o.expected_conjunction(&preds), vec![1]);
    }
}
