//! Order statistics and the order-free result checksum. No program code
//! is named here.

/// The smallest of `values` (infinite for none): the least disturbed of
/// several timings of the same work.
pub fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Nearest rank (1-based) of percentile `p` among `n >= 1` samples:
/// `ceil(p/100 * n)`, in whole per-mille so that p99.9 of 10 000 is rank
/// 9 990 and not, by a rounding error, 9 991.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100, to a tenth) of an ascending
/// slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of p99.9 / p99 / p95 / p90 / p50 that still leaves at least
/// ten samples beyond it — a tail percentile with fewer is one outlier's
/// opinion. `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the rule the acceptance check uses for a
/// metric's spread across runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of a log2 histogram (bucket 0 holds zeros, bucket `i` holds
/// values in `[2^(i-1), 2^i)`), as the upper edge of the bucket the median
/// falls in; 0 for an empty histogram.
pub fn log2_histogram_p50(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if total > 0 && seen * 2 >= total {
            return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
        }
    }
    0.0
}

/// splitmix64 finalizer: spreads tuple ids so that a sum of them is a
/// usable set fingerprint.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-free fingerprint of a result set: `(count, Σ mix(id))`. Result
/// sets are unordered on the wire, so the check must not depend on order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetSum {
    pub count: u64,
    pub sum: u64,
}

impl SetSum {
    pub fn add(&mut self, id: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(u64::from(id)));
    }

    pub fn of(ids: &[u32]) -> Self {
        let mut s = SetSum::default();
        for &id in ids {
            s.add(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond; 999 leaves 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn histogram_median_is_its_buckets_upper_edge() {
        assert_eq!(log2_histogram_p50(&[]), 0.0);
        assert_eq!(log2_histogram_p50(&[5, 1]), 0.0);
        // 1 zero, 2 in [1,2), 7 in [4,8): the median is in [4,8).
        assert_eq!(log2_histogram_p50(&[1, 2, 0, 7]), 8.0);
    }

    #[test]
    fn set_sum_ignores_order_and_sees_differences() {
        let a = SetSum::of(&[5, 1, 9, 3]);
        assert_eq!(a, SetSum::of(&[9, 3, 5, 1]));
        assert_ne!(a, SetSum::of(&[5, 1, 9, 4]));
        assert_ne!(a, SetSum::of(&[5, 1, 9]));
        // A swapped pair with the same plain sum must still differ.
        assert_ne!(SetSum::of(&[1, 4]), SetSum::of(&[2, 3]));
    }
}
