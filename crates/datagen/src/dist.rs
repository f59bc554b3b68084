//! Value distributions over integer domains.
//!
//! All samplers clamp into a closed `[lo, hi]` domain so downstream code can
//! rely on domain bounds. Continuous samplers are built from first
//! principles (Box–Muller for the normal, exponentiation for the lognormal,
//! Devroye rejection for zipf) on top of `rand`'s uniform source.

use rand::Rng;

/// A distribution of `u64` values over a closed domain.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Normal with the given mean and standard deviation, clamped to
    /// `[lo, hi]`.
    Normal {
        /// Mean of the underlying Gaussian.
        mean: f64,
        /// Standard deviation of the underlying Gaussian.
        std_dev: f64,
        /// Inclusive lower clamp.
        lo: u64,
        /// Inclusive upper clamp.
        hi: u64,
    },
    /// Lognormal: `exp(N(mu, sigma))`, clamped to `[lo, hi]`. Models
    /// heavy-tailed money-like attributes (charges, salaries).
    LogNormal {
        /// Mean of the underlying Gaussian (of the log).
        mu: f64,
        /// Standard deviation of the underlying Gaussian (of the log).
        sigma: f64,
        /// Inclusive lower clamp.
        lo: u64,
        /// Inclusive upper clamp.
        hi: u64,
    },
    /// Zipf over ranks `1..=n`, mapped into `[lo, hi]` by spreading ranks
    /// evenly across the domain (rank 1 = most frequent value).
    Zipf {
        /// Number of distinct ranks.
        n: u64,
        /// Skew exponent (> 0; larger = more skew).
        s: f64,
        /// Inclusive lower bound of the mapped domain.
        lo: u64,
        /// Inclusive upper bound of the mapped domain.
        hi: u64,
    },
    /// Mixture of Gaussian clusters (geo-coordinate-like data): `k` centers
    /// uniform over the domain, each sample drawn around a random center.
    Clustered {
        /// Number of cluster centers.
        k: usize,
        /// Per-cluster standard deviation.
        spread: f64,
        /// Inclusive lower clamp.
        lo: u64,
        /// Inclusive upper clamp.
        hi: u64,
        /// Seed for the (fixed) center placement, so a distribution value
        /// denotes one concrete mixture.
        centers_seed: u64,
    },
}

impl Distribution {
    /// Samples one value.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            Distribution::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            Distribution::Normal {
                mean,
                std_dev,
                lo,
                hi,
            } => clamp_round(mean + std_dev * standard_normal(rng), lo, hi),
            Distribution::LogNormal { mu, sigma, lo, hi } => {
                clamp_round((mu + sigma * standard_normal(rng)).exp(), lo, hi)
            }
            Distribution::Zipf { n, s, lo, hi } => {
                let rank = zipf_rank(rng, n, s);
                // Spread ranks across the domain deterministically via a
                // multiplicative hash so adjacent ranks are not adjacent
                // values (zipf data is not naturally ordered by frequency).
                let span = hi - lo;
                if span == 0 {
                    lo
                } else {
                    lo + (rank.wrapping_mul(0x9e3779b97f4a7c15) % (span + 1))
                }
            }
            Distribution::Clustered {
                k,
                spread,
                lo,
                hi,
                centers_seed,
            } => {
                let k = k.max(1);
                let idx = rng.gen_range(0..k);
                let center = cluster_center(centers_seed, idx, lo, hi);
                clamp_round(center as f64 + spread * standard_normal(rng), lo, hi)
            }
        }
    }

    /// Samples `n` values into a vector.
    pub fn sample_n<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The inclusive domain bounds this distribution is confined to.
    pub fn domain(&self) -> (u64, u64) {
        match *self {
            Distribution::Uniform { lo, hi }
            | Distribution::Normal { lo, hi, .. }
            | Distribution::LogNormal { lo, hi, .. }
            | Distribution::Zipf { lo, hi, .. }
            | Distribution::Clustered { lo, hi, .. } => (lo, hi),
        }
    }
}

/// Deterministic center placement: SplitMix64 over (seed, index).
fn cluster_center(seed: u64, idx: usize, lo: u64, hi: u64) -> u64 {
    let mut z = seed ^ (idx as u64).wrapping_mul(0xbf58476d1ce4e5b9);
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    lo + z % (hi - lo + 1)
}

fn clamp_round(x: f64, lo: u64, hi: u64) -> u64 {
    if !x.is_finite() || x <= lo as f64 {
        lo
    } else if x >= hi as f64 {
        hi
    } else {
        x.round() as u64
    }
}

/// Standard normal via Box–Muller (one of the pair; simple and branch-free
/// enough for data generation).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a zipf(s)-distributed rank in `1..=n` using Devroye's rejection
/// method (no tables, O(1) expected time).
pub fn zipf_rank<R: Rng>(rng: &mut R, n: u64, s: f64) -> u64 {
    assert!(n >= 1, "zipf needs at least one rank");
    assert!(s > 0.0, "zipf exponent must be positive");
    if n == 1 {
        return 1;
    }
    // Devroye, "Non-Uniform Random Variate Generation", ch. X.6.1 —
    // rejection from a piecewise envelope. Specialised for s != 1 and s == 1.
    let nf = n as f64;
    loop {
        let u: f64 = rng.gen();
        let v: f64 = rng.gen();
        let x = if (s - 1.0).abs() < 1e-12 {
            // H(x) = ln(x+1); H^{-1}(u) = e^u - 1.
            let h_n = (nf + 1.0).ln();
            (u * h_n).exp() - 1.0
        } else {
            let one_minus_s = 1.0 - s;
            let h_n = ((nf + 1.0).powf(one_minus_s) - 1.0) / one_minus_s;
            (1.0 + u * h_n * one_minus_s).powf(1.0 / one_minus_s) - 1.0
        };
        let k = (x.floor() as u64).min(n - 1) + 1; // candidate rank in 1..=n
                                                   // Accept with probability proportional to (k)^-s over the envelope
                                                   // density at x; the simple ratio test below is the classic
                                                   // inversion-rejection acceptance for discrete zipf.
        let ratio = ((k as f64) / (x + 1.0)).powf(s);
        if v * ratio <= 1.0 {
            return k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn uniform_within_bounds_and_roughly_flat() {
        let d = Distribution::Uniform { lo: 10, hi: 19 };
        let mut r = rng();
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((10..=19).contains(&v));
            counts[(v - 10) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Distribution::Normal {
            mean: 1000.0,
            std_dev: 100.0,
            lo: 0,
            hi: 10_000,
        };
        let mut r = rng();
        let samples = d.sample_n(&mut r, 20_000);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 1000.0).abs() < 10.0, "mean {mean}");
        let var = samples
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        let std = var.sqrt();
        assert!((std - 100.0).abs() < 10.0, "std {std}");
    }

    #[test]
    fn lognormal_is_heavy_tailed_and_positive() {
        let d = Distribution::LogNormal {
            mu: 8.0,
            sigma: 1.0,
            lo: 1,
            hi: 10_000_000,
        };
        let mut r = rng();
        let mut samples = d.sample_n(&mut r, 20_000);
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // exp(8) ≈ 2981; heavy tail drags the mean well above the median.
        assert!((median - 2981.0).abs() < 300.0, "median {median}");
        assert!(mean > median * 1.3, "mean {mean} vs median {median}");
    }

    #[test]
    fn zipf_rank_skew() {
        let mut r = rng();
        let n = 1000u64;
        let mut rank1 = 0usize;
        let mut total = 0usize;
        for _ in 0..20_000 {
            let k = zipf_rank(&mut r, n, 1.1);
            assert!((1..=n).contains(&k));
            if k == 1 {
                rank1 += 1;
            }
            total += 1;
        }
        // Rank 1 should dominate: for s=1.1, p(1) ≈ 1/H ≈ 13%+.
        assert!(
            rank1 as f64 / total as f64 > 0.08,
            "rank-1 share {rank1}/{total}"
        );
    }

    #[test]
    fn zipf_s_equal_one_branch() {
        let mut r = rng();
        for _ in 0..1000 {
            let k = zipf_rank(&mut r, 50, 1.0);
            assert!((1..=50).contains(&k));
        }
        assert_eq!(zipf_rank(&mut r, 1, 1.5), 1);
    }

    #[test]
    fn clustered_concentrates_mass() {
        let d = Distribution::Clustered {
            k: 4,
            spread: 50.0,
            lo: 0,
            hi: 1_000_000,
            centers_seed: 9,
        };
        let mut r = rng();
        let mut samples = d.sample_n(&mut r, 10_000);
        samples.sort_unstable();
        // With 4 tight clusters in a huge domain, the number of distinct
        // populated 10k-wide buckets must be small.
        let mut buckets: Vec<u64> = samples.iter().map(|v| v / 10_000).collect();
        buckets.dedup();
        assert!(buckets.len() <= 16, "{} buckets populated", buckets.len());
    }

    #[test]
    fn domain_accessor() {
        let d = Distribution::Uniform { lo: 3, hi: 9 };
        assert_eq!(d.domain(), (3, 9));
    }

    #[test]
    fn clamp_handles_extremes() {
        assert_eq!(clamp_round(f64::NAN, 1, 5), 1);
        assert_eq!(clamp_round(-10.0, 1, 5), 1);
        assert_eq!(clamp_round(10.0, 1, 5), 5);
        assert_eq!(clamp_round(3.4, 1, 5), 3);
    }
}
