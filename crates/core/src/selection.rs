//! Selection results with cost accounting.

use prkb_edbms::TupleId;

/// Per-query statistics — the quantities the paper's evaluation reports,
/// plus the full cost breakdown the observability layer records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// QPF uses spent by this query (`# QPF use` in the paper's figures).
    /// Always equals the oracle-counter delta across the call, batched or
    /// not.
    pub qpf_uses: u64,
    /// Partition count before processing.
    pub k_before: usize,
    /// Partition count after processing (grows on inequivalent trapdoors).
    pub k_after: usize,
    /// Number of partition splits applied by `updatePRKB`.
    pub splits: usize,
    /// QPF uses spent locating NS-pairs: QFilter binary-search probes;
    /// for BETWEEN, the samples of its hunt waves and transition searches
    /// and the members its fallback rounds evaluate. The O(lg k) part of
    /// the paper's cost model.
    pub filter_probes: u64,
    /// Defined per kind (DESIGN §11). For a comparison, the tuples inside
    /// its NS-pair partitions, evaluated or implied — the irreducible
    /// per-query work once the filter has done its job. For a BETWEEN, the
    /// members it evaluated: the partitions its walk tested and the
    /// suffixes a miss completed.
    pub ns_width: u64,
    /// `try_eval_batch` calls made by the pipeline (NS partitions, overflow
    /// sweeps, MD waves, BETWEEN hunt waves and fallback rounds); nothing to
    /// evaluate makes no call.
    /// Invariant across server thread counts, lock layouts and fault
    /// wrappers.
    pub oracle_batches: u64,
    /// Partitions resolved to *true* from separator labels, no scan; a
    /// BETWEEN also counts the partitions its early stop implied true.
    pub pruned_true: usize,
    /// Partitions resolved to *false* from separator labels, no scan.
    pub pruned_false: usize,
    /// Overflow (parked) tuples evaluated by this query.
    pub overflow_scanned: usize,
}

impl QueryStats {
    /// Folds another query's costs into this one: every additive field is
    /// summed and `k_after` is taken from `other` (the later measurement);
    /// `k_before` is kept. `prkb-bench`'s SD+ aggregates its
    /// single-trapdoor passes with it.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.qpf_uses += other.qpf_uses;
        self.splits += other.splits;
        self.filter_probes += other.filter_probes;
        self.ns_width += other.ns_width;
        self.oracle_batches += other.oracle_batches;
        self.pruned_true += other.pruned_true;
        self.pruned_false += other.pruned_false;
        self.overflow_scanned += other.overflow_scanned;
        self.k_after = other.k_after;
    }
}

/// The result of a selection: satisfying tuple ids (unsorted) plus stats.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Tuples satisfying the selection. Order is unspecified.
    pub tuples: Vec<TupleId>,
    /// Cost accounting for this query.
    pub stats: QueryStats,
}

impl Selection {
    /// Sorted copy of the result ids (test/display convenience).
    pub fn sorted(&self) -> Vec<TupleId> {
        let mut v = self.tuples.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_costs_and_tracks_latest_k() {
        let mut a = QueryStats {
            qpf_uses: 10,
            k_before: 4,
            k_after: 5,
            splits: 1,
            filter_probes: 2,
            ns_width: 6,
            oracle_batches: 2,
            pruned_true: 1,
            pruned_false: 2,
            overflow_scanned: 3,
        };
        let b = QueryStats {
            qpf_uses: 7,
            k_before: 5,
            k_after: 6,
            splits: 2,
            filter_probes: 1,
            ns_width: 4,
            oracle_batches: 3,
            pruned_true: 2,
            pruned_false: 0,
            overflow_scanned: 1,
        };
        a.absorb(&b);
        assert_eq!(a.qpf_uses, 17);
        assert_eq!(a.k_before, 4);
        assert_eq!(a.k_after, 6);
        assert_eq!(a.splits, 3);
        assert_eq!(a.filter_probes, 3);
        assert_eq!(a.ns_width, 10);
        assert_eq!(a.oracle_batches, 5);
        assert_eq!(a.pruned_true, 3);
        assert_eq!(a.pruned_false, 2);
        assert_eq!(a.overflow_scanned, 4);
    }
}
