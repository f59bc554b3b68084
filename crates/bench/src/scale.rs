//! Experiment scaling.
//!
//! The paper's testbed ran 10–20M-tuple datasets; this box may not. Every
//! experiment sizes itself through [`Scale`], selected by the `PRKB_SCALE`
//! environment variable:
//!
//! * `ci` — seconds-long smoke sizes;
//! * `default` — laptop-friendly (≈ 1/10 of the paper, minutes);
//! * `paper` — the paper's sizes (needs RAM and patience).

use std::env;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes for CI.
    Ci,
    /// ≈ 1/10 of the paper's sizes (default).
    Default,
    /// The paper's sizes.
    Paper,
}

impl Scale {
    /// Reads `PRKB_SCALE` (`ci` / `default` / `paper`); unset means
    /// [`Scale::Default`].
    ///
    /// # Panics
    /// Panics when the variable is set to anything else: a misspelt value
    /// must not gate a run against another scale's baseline sizes.
    pub fn from_env() -> Self {
        match env::var("PRKB_SCALE") {
            Err(env::VarError::NotPresent) => Scale::Default,
            Err(e) => panic!("PRKB_SCALE: {e}"),
            Ok(value) => Self::parse(&value).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Parses a `PRKB_SCALE` value.
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "ci" => Ok(Scale::Ci),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            _ => Err(format!(
                "PRKB_SCALE={value:?} is not one of ci | default | paper"
            )),
        }
    }

    /// Scales a paper-sized tuple count.
    pub fn tuples(self, paper_n: usize) -> usize {
        match self {
            Scale::Ci => (paper_n / 200).max(2_000),
            Scale::Default => (paper_n / 10).max(10_000),
            Scale::Paper => paper_n,
        }
    }

    /// Scales a query count (kept closer to the paper — queries are cheap
    /// compared to data).
    pub fn queries(self, paper_q: usize) -> usize {
        match self {
            Scale::Ci => (paper_q / 10).max(20),
            _ => paper_q,
        }
    }

    /// Human-readable tag for report headers.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Default => "default (≈1/10 paper)",
            Scale::Paper => "paper",
        }
    }

    /// Machine-readable slug for trajectory files (`BENCH_<exp>.json`).
    pub fn slug(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rules() {
        assert_eq!(Scale::Paper.tuples(10_000_000), 10_000_000);
        assert_eq!(Scale::Default.tuples(10_000_000), 1_000_000);
        assert_eq!(Scale::Ci.tuples(10_000_000), 50_000);
        assert_eq!(Scale::Default.tuples(1_000), 10_000); // floor
        assert_eq!(Scale::Paper.queries(600), 600);
        assert_eq!(Scale::Ci.queries(600), 60);
    }

    #[test]
    fn a_set_but_unknown_scale_is_refused() {
        // `parse` is what `from_env` runs on a *set* variable.
        for scale in [Scale::Ci, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse(scale.slug()), Ok(scale));
        }
        for bad in ["CI", "cii", "", " ci"] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("ci | default | paper"), "{err}");
        }
    }
}
