//! Simulated stand-ins for the paper's real datasets.
//!
//! The paper evaluates on three real datasets we cannot redistribute:
//!
//! * Hospital Inpatient Discharges 2013 — *charges* attribute, 2,426,516 rows
//! * US Labor Statistics 2017 — *salary* attribute, 6,156,470 rows
//! * US Buildings (geonames) — *latitude*/*longitude*, 1,122,932 rows
//!
//! Per the substitution rule (DESIGN.md §2) each is replaced by a synthetic
//! generator with the same row count and the same *gap structure*:
//! heavy-tailed lognormal for money attributes, clustered mixtures over a
//! fine grid for coordinates. The security experiment (Table 2) and the 2D
//! use case (Fig. 13) depend only on those properties.

use crate::dist::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row count of the Hospital discharges dataset in the paper.
pub const HOSPITAL_ROWS: usize = 2_426_516;
/// Row count of the Labor statistics dataset in the paper.
pub const LABOR_ROWS: usize = 6_156_470;
/// Row count of the US Buildings dataset in the paper.
pub const BUILDINGS_ROWS: usize = 1_122_932;

/// Fixed-point scale for coordinates: 1e-6 degrees per unit (~0.11 m of
/// latitude) — the precision real geo datasets carry, which is what gives
/// them their many-tiny-gaps structure (paper Table 2's low RPOI).
pub const COORD_SCALE: u64 = 1_000_000;

/// Simulated hospital charges in cents: lognormal around ≈ $10k with a heavy
/// tail, floored at $25. Distinct-value density is highest in the
/// $2k–$30k band, mirroring billing data.
pub fn hospital_charges(n: usize, seed: u64) -> Vec<u64> {
    let d = Distribution::LogNormal {
        mu: 13.8, // exp(13.8) ≈ 985k cents ≈ $9.9k
        sigma: 1.1,
        lo: 2_500,
        hi: 3_000_000_000, // $30M cap
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0551_7a11);
    d.sample_n(&mut rng, n)
}

/// Simulated annual salaries in tenths of a dollar: lognormal around
/// ≈ $48k, floored at $15k (minimum-wage-ish), capped at $5M. The sub-dollar
/// granularity mirrors the many distinct values of the real survey data.
pub fn labor_salaries(n: usize, seed: u64) -> Vec<u64> {
    let d = Distribution::LogNormal {
        mu: 13.08, // exp(13.08) ≈ 480k tenths ≈ $48k
        sigma: 0.55,
        lo: 150_000,
        hi: 50_000_000,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ab0_0000);
    d.sample_n(&mut rng, n)
}

/// Simulated US buildings: `(latitude, longitude)` columns in fixed-point
/// `COORD_SCALE` units, offset to be non-negative.
///
/// Buildings cluster around population centers; we draw from a mixture of
/// `n_centers` urban clusters (95% of mass, tight spread) plus a rural
/// uniform background (5%). Latitude spans 24°–49°N, longitude 67°–125°W.
pub fn us_buildings(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    const LAT_MIN: f64 = 24.0;
    const LAT_MAX: f64 = 49.0;
    const LON_MIN: f64 = -125.0;
    const LON_MAX: f64 = -67.0;
    const N_CENTERS: usize = 60;
    // ~0.01 degrees ≈ a dense urban core; real building stock concentrates
    // hard, which is what keeps the recovered-order fraction low.
    const URBAN_SPREAD: f64 = 0.01;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xb01d_1235);
    let centers: Vec<(f64, f64)> = (0..N_CENTERS)
        .map(|_| {
            (
                rng.gen_range(LAT_MIN..LAT_MAX),
                rng.gen_range(LON_MIN..LON_MAX),
            )
        })
        .collect();
    // Zipf-ish weights: center i has weight 1/(i+1) — big metros dominate.
    let weights: Vec<f64> = (0..N_CENTERS).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total_w: f64 = weights.iter().sum();

    let mut lat = Vec::with_capacity(n);
    let mut lon = Vec::with_capacity(n);
    for _ in 0..n {
        let (la, lo) = if rng.gen::<f64>() < 0.95 {
            // Urban: weighted center + Gaussian spread.
            let mut pick = rng.gen::<f64>() * total_w;
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= w;
                idx = i;
            }
            let (cla, clo) = centers[idx];
            (
                cla + URBAN_SPREAD * crate::dist::standard_normal(&mut rng),
                clo + URBAN_SPREAD * crate::dist::standard_normal(&mut rng),
            )
        } else {
            // Rural background.
            (
                rng.gen_range(LAT_MIN..LAT_MAX),
                rng.gen_range(LON_MIN..LON_MAX),
            )
        };
        let la = la.clamp(LAT_MIN, LAT_MAX);
        let lo = lo.clamp(LON_MIN, LON_MAX);
        lat.push(((la - LAT_MIN) * COORD_SCALE as f64).round() as u64);
        lon.push(((lo - LON_MIN) * COORD_SCALE as f64).round() as u64);
    }
    (lat, lon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_charges_shape() {
        let c = hospital_charges(20_000, 1);
        assert_eq!(c.len(), 20_000);
        let mut s = c.clone();
        s.sort_unstable();
        let median = s[s.len() / 2];
        // Median ≈ exp(13.8) cents ≈ $9.9k; allow generous slack.
        assert!((500_000..2_000_000).contains(&median), "median {median}");
        let mean = c.iter().map(|&v| v as f64).sum::<f64>() / c.len() as f64;
        assert!(mean > median as f64, "heavy tail expected");
        assert!(c.iter().all(|&v| v >= 2_500));
    }

    #[test]
    fn labor_salaries_shape() {
        let s = labor_salaries(20_000, 1);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!((350_000..650_000).contains(&median), "median {median}");
        assert!(s.iter().all(|&v| (150_000..=50_000_000).contains(&v)));
    }

    #[test]
    fn buildings_cluster() {
        let (lat, lon) = us_buildings(20_000, 1);
        assert_eq!(lat.len(), 20_000);
        assert_eq!(lon.len(), 20_000);
        // Fixed-point bounds: lat in [0, 25 deg], lon in [0, 58 deg].
        assert!(lat.iter().all(|&v| v <= 25 * COORD_SCALE));
        assert!(lon.iter().all(|&v| v <= 58 * COORD_SCALE));
        // Clustering: the top-20 most populated 0.5-degree lat bands must
        // hold well over what uniform would give them (20/50 = 40%).
        let mut bands = std::collections::HashMap::new();
        for &v in &lat {
            *bands.entry(v / (COORD_SCALE / 2)).or_insert(0usize) += 1;
        }
        let mut counts: Vec<usize> = bands.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top20: usize = counts.iter().take(20).sum();
        assert!(
            top20 as f64 / lat.len() as f64 > 0.55,
            "top-20 bands hold {top20}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(hospital_charges(100, 7), hospital_charges(100, 7));
        assert_ne!(hospital_charges(100, 7), hospital_charges(100, 8));
        let (a1, o1) = us_buildings(100, 7);
        let (a2, o2) = us_buildings(100, 7);
        assert_eq!(a1, a2);
        assert_eq!(o1, o2);
    }
}
