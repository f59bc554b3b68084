//! Regression gate over two `BENCH_<exp>.json` trajectory files.
//!
//! `compare(baseline, current, config)` matches rows by id and flags any
//! current row whose QPF count (and optionally wall-clock) exceeds the
//! baseline by more than the configured tolerance. QPF uses are seeded and
//! deterministic, so the default gate checks QPF only; `ms_tol` is opt-in
//! because wall-clock varies across machines.

use crate::trajectory::BenchFile;

/// Tolerances for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Relative QPF slack: current may exceed baseline by this fraction.
    pub qpf_tol: f64,
    /// Relative wall-clock slack; `None` disables the ms gate entirely.
    pub ms_tol: Option<f64>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            qpf_tol: 0.10,
            ms_tol: None,
        }
    }
}

/// One detected regression (or structural mismatch).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row id the problem was found in.
    pub id: String,
    /// Human-readable description of the problem.
    pub detail: String,
}

/// Outcome of a comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Rows compared (ids present in both files).
    pub rows_compared: usize,
    /// Detected regressions; empty means the gate passes.
    pub regressions: Vec<Regression>,
}

impl CompareReport {
    /// True when no regression was found.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Over-threshold test with a small absolute slack so near-zero baselines
/// (e.g. a 3-QPF warmed query) don't trip on ±1 noise.
fn exceeds(current: f64, baseline: f64, tol: f64) -> bool {
    current > baseline * (1.0 + tol) + 10.0
}

/// Compares `current` against `baseline`.
///
/// Files of different experiments or scales are refused with one
/// regression and no row compared. A row missing from `current` that exists
/// in `baseline` is a regression (coverage shrank); extra rows in
/// `current` are allowed (coverage grew).
/// Baseline rows whose id starts with `parent/` are history — the numbers
/// of a variant or commit the experiment no longer runs — and are skipped.
pub fn compare(baseline: &BenchFile, current: &BenchFile, config: CompareConfig) -> CompareReport {
    let mut regressions: Vec<Regression> = [
        ("experiment", &baseline.experiment, &current.experiment),
        ("scale", &baseline.scale, &current.scale),
    ]
    .into_iter()
    .filter(|(_, base, cur)| base != cur)
    .map(|(what, base, cur)| Regression {
        id: "<file>".into(),
        detail: format!("{what} mismatch: baseline {base:?} vs current {cur:?}"),
    })
    .collect();
    if !regressions.is_empty() {
        // Rows of another experiment or scale are not comparable: one
        // refusal, not a regression per row.
        return CompareReport {
            rows_compared: 0,
            regressions,
        };
    }
    let mut rows_compared = 0usize;

    for base in baseline
        .rows
        .iter()
        .filter(|r| !r.id.starts_with("parent/"))
    {
        let Some(cur) = current.row(&base.id) else {
            regressions.push(Regression {
                id: base.id.clone(),
                detail: "row missing from current file".into(),
            });
            continue;
        };
        rows_compared += 1;
        if exceeds(cur.qpf_uses as f64, base.qpf_uses as f64, config.qpf_tol) {
            regressions.push(Regression {
                id: base.id.clone(),
                detail: format!(
                    "qpf_uses regressed: {} -> {} (tol {:.0}%)",
                    base.qpf_uses,
                    cur.qpf_uses,
                    config.qpf_tol * 100.0
                ),
            });
        }
        if let Some(ms_tol) = config.ms_tol {
            if exceeds(cur.ms, base.ms, ms_tol) {
                regressions.push(Regression {
                    id: base.id.clone(),
                    detail: format!(
                        "ms regressed: {:.3} -> {:.3} (tol {:.0}%)",
                        base.ms,
                        cur.ms,
                        ms_tol * 100.0
                    ),
                });
            }
        }
    }

    CompareReport {
        rows_compared,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::BenchRow;

    fn file(rows: Vec<(&str, u64, f64)>) -> BenchFile {
        BenchFile {
            experiment: "fig8".into(),
            scale: "ci".into(),
            rows: rows
                .into_iter()
                .map(|(id, qpf, ms)| BenchRow {
                    id: id.into(),
                    qpf_uses: qpf,
                    ms,
                    k: 10,
                    n: 1000,
                    threads: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_files_pass() {
        let base = file(vec![("q1", 50_000, 10.0), ("q2", 400, 1.0)]);
        let report = compare(&base, &base.clone(), CompareConfig::default());
        assert!(report.passed());
        assert_eq!(report.rows_compared, 2);
    }

    #[test]
    fn injected_qpf_regression_fails() {
        let base = file(vec![("q1", 50_000, 10.0), ("q2", 400, 1.0)]);
        // q2 blows up 3x: a synthetic QPF regression.
        let cur = file(vec![("q1", 50_000, 10.0), ("q2", 1_200, 1.0)]);
        let report = compare(&base, &cur, CompareConfig::default());
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].id, "q2");
        assert!(report.regressions[0].detail.contains("qpf_uses regressed"));
    }

    #[test]
    fn tolerance_and_absolute_slack_absorb_noise() {
        let base = file(vec![("q1", 100, 10.0)]);
        // +10% relative + 10 absolute: 120 sits inside the default gate.
        let cur = file(vec![("q1", 120, 10.0)]);
        assert!(compare(&base, &cur, CompareConfig::default()).passed());
        let cur = file(vec![("q1", 121, 10.0)]);
        assert!(!compare(&base, &cur, CompareConfig::default()).passed());
    }

    #[test]
    fn missing_row_is_a_regression_but_extra_rows_are_fine() {
        let base = file(vec![("q1", 100, 1.0), ("q2", 100, 1.0)]);
        let cur = file(vec![("q1", 100, 1.0), ("q3", 9_999_999, 1.0)]);
        let report = compare(&base, &cur, CompareConfig::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].id, "q2");
    }

    #[test]
    fn parent_rows_in_the_baseline_are_history_not_coverage() {
        let base = file(vec![("q1", 100, 1.0), ("parent/gone", 5_000, 9.0)]);
        let cur = file(vec![("q1", 100, 1.0)]);
        let report = compare(&base, &cur, CompareConfig::default());
        assert!(report.passed(), "{:?}", report.regressions);
        assert_eq!(report.rows_compared, 1);
    }

    #[test]
    fn ms_gate_is_opt_in() {
        let base = file(vec![("q1", 100, 1.0)]);
        let cur = file(vec![("q1", 100, 500.0)]);
        assert!(compare(&base, &cur, CompareConfig::default()).passed());
        let cfg = CompareConfig {
            qpf_tol: 0.10,
            ms_tol: Some(0.25),
        };
        assert!(!compare(&base, &cur, cfg).passed());
    }

    #[test]
    fn experiment_mismatch_is_flagged() {
        let base = file(vec![("q1", 100, 1.0)]);
        let mut cur = base.clone();
        cur.experiment = "fig9".into();
        assert!(!compare(&base, &cur, CompareConfig::default()).passed());
    }

    #[test]
    fn scale_mismatch_is_one_refusal() {
        let base = file(vec![("q1", 100, 1.0), ("q2", 50, 1.0)]);
        let mut cur = file(vec![("q1", 900, 1.0)]);
        cur.scale = "default".into();
        let report = compare(&base, &cur, CompareConfig::default());
        assert_eq!(report.rows_compared, 0);
        assert_eq!(report.regressions.len(), 1, "{report:?}");
        assert_eq!(
            report.regressions[0].detail,
            "scale mismatch: baseline \"ci\" vs current \"default\""
        );
    }
}
