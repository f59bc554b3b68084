//! **Table 2** — Recovered portion of ordering information (RPOI, %) on
//! four real-world victim attributes, varying the number of queries the
//! attacker observes (paper §8.1).
//!
//! The real datasets are simulated per DESIGN.md §2 (same row counts, same
//! gap structure). Paper reference values are printed alongside ours.

use crate::harness::Report;
use crate::scale::Scale;
use prkb_analysis::rpoi_for_queries;
use prkb_datagen::realsim;

/// Paper's Table 2, for side-by-side display.
const PAPER: [(&str, usize, [f64; 5]); 4] = [
    ("Hospital", 2_426_516, [0.007, 0.020, 0.115, 0.605, 2.846]),
    ("Labor", 6_156_470, [0.042, 0.117, 0.484, 1.673, 5.807]),
    ("Latitude", 1_122_932, [0.008, 0.025, 0.212, 1.650, 11.167]),
    ("Longitude", 1_122_932, [0.011, 0.038, 0.331, 2.440, 13.592]),
];

const CHECKPOINTS: [usize; 5] = [250, 1_000, 10_000, 100_000, 1_000_000];

/// Runs the Table 2 experiment.
pub fn run(scale: Scale) -> String {
    let mut report = Report::new(&format!("Table 2: RPOI (%) — scale: {}", scale.tag()));
    let checkpoints: Vec<usize> = match scale {
        Scale::Ci => CHECKPOINTS[..3].to_vec(),
        _ => CHECKPOINTS.to_vec(),
    };

    let mut header = vec!["victim".to_string(), "rows".to_string()];
    header.extend(checkpoints.iter().map(|c| format!("q={c}")));
    header.push("(source)".to_string());
    report.row(&header);

    for (name, paper_rows, paper_vals) in PAPER {
        let rows = match scale {
            Scale::Paper => paper_rows,
            Scale::Default => paper_rows, // cheap enough to run full-size
            Scale::Ci => paper_rows / 100,
        };
        let (values, domain): (Vec<u64>, (u64, u64)) = match name {
            "Hospital" => (realsim::hospital_charges(rows, 42), (2_500, 3_000_000_000)),
            "Labor" => (realsim::labor_salaries(rows, 42), (15_000, 5_000_000)),
            "Latitude" => (
                realsim::us_buildings(rows, 42).0,
                (0, 25 * realsim::COORD_SCALE),
            ),
            _ => (
                realsim::us_buildings(rows, 42).1,
                (0, 58 * realsim::COORD_SCALE),
            ),
        };

        let curve = rpoi_for_queries(&values, domain, &checkpoints, 7);
        let mut cells = vec![name.to_string(), format!("{rows}")];
        cells.extend(
            checkpoints
                .iter()
                .map(|&c| format!("{:.3}", curve.percent_at(c).unwrap_or(f64::NAN))),
        );
        cells.push("measured".to_string());
        report.row(&cells);

        let mut paper_cells = vec![String::new(), String::new()];
        paper_cells.extend(
            paper_vals
                .iter()
                .take(checkpoints.len())
                .map(|v| format!("{v:.3}")),
        );
        paper_cells.push("paper".to_string());
        report.row(&paper_cells);
    }
    report.line("shape check: RPOI grows with queries at decreasing speed and stays");
    report.line("far below 100% for large-domain attributes (paper §8.1 conclusion).");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_ci_scale() {
        let out = run(Scale::Ci);
        assert!(out.contains("Hospital"));
        assert!(out.contains("Longitude"));
        assert!(out.contains("measured"));
    }
}
