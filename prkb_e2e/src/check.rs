//! Repeatability: `sweep` runs every workload at several seeds, one process
//! per run as the acceptance driver does, and writes a summary; `check`
//! compares two summaries metric by metric against the bounds in
//! `BENCHMARK.json`.

use crate::json::Value;
use crate::stats::quartiles;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Counts that must repeat bit for bit between two sets run at the same
/// seeds: with client-disjoint attributes a read workload's QPF spend does
/// not depend on timing. (`churn` interleaves inserts across clients.)
const EXACT: [(&str, [Workload; 3]); 1] = [(
    "qpf_per_op",
    [
        Workload::WarmSelect,
        Workload::ColdStart,
        Workload::WideResult,
    ],
)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail,
    /// The run-to-run spread is wider than the bound, so the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub verdict: Verdict,
    /// (q3 - q1) / median of each set.
    pub spread_a: f64,
    pub spread_b: f64,
    /// Share of A's median by which B's median is worse (negative: better).
    pub worse: f64,
}

fn spread(values: &[f64]) -> (f64, f64) {
    let (q1, median, q3) = quartiles(values);
    (median, (q3 - q1) / median)
}

/// Compares set B against set A for one metric of one workload.
pub fn compare(lower_is_better: bool, bound: f64, a: &[f64], b: &[f64]) -> Comparison {
    let (median_a, spread_a) = spread(a);
    let (median_b, spread_b) = spread(b);
    let change = (median_b - median_a) / median_a;
    let worse = if lower_is_better { change } else { -change };
    let verdict = if worse > bound {
        Verdict::Fail
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    Comparison {
        verdict,
        spread_a,
        spread_b,
        worse,
    }
}

/// Bit-for-bit equality, run by run.
pub fn compare_exact(a: &[f64], b: &[f64]) -> Verdict {
    if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

fn parse_file(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(summary: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = summary
        .get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("values")?;
    values.as_array().iter().map(Value::as_f64).collect()
}

/// `check <dirA> <dirB>`: prints one line per (metric, workload) and
/// returns whether nothing failed.
pub fn check(benchmark: &Path, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let spec = parse_file(benchmark)?;
    let a = parse_file(&dir_a.join("summary.json"))?;
    let b = parse_file(&dir_b.join("summary.json"))?;
    if a.get("seeds") != b.get("seeds") {
        return Err("the two sets were run at different seeds".into());
    }
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "spread A", "spread B", "worse by", "bound"
    );
    for metric in spec
        .get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
    {
        let name = metric
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let bound = metric
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        let lower = metric.get("better").and_then(Value::as_str) == Some("lower");
        for w in Workload::ALL {
            let (Some(va), Some(vb)) =
                (values_of(&a, w.name(), name), values_of(&b, w.name(), name))
            else {
                return Err(format!("{name} on {} is missing from a summary", w.name()));
            };
            let c = compare(lower, bound, &va, &vb);
            let exact = EXACT.iter().any(|(m, ws)| *m == name && ws.contains(&w));
            let verdict = match (exact, c.verdict) {
                (true, _) => compare_exact(&va, &vb),
                (false, v) => v,
            };
            ok &= verdict != Verdict::Fail;
            println!(
                "{:<16} {:<12} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}{}",
                name,
                w.name(),
                c.spread_a * 100.0,
                c.spread_b * 100.0,
                c.worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Fail => "FAIL",
                    Verdict::Unresolved => "unresolved",
                },
                if exact { " (exact, run by run)" } else { "" }
            );
        }
    }
    for (set, summary) in [("A", &a), ("B", &b)] {
        for (w, failed) in summary.get("failed").map(Value::fields).unwrap_or_default() {
            if failed.as_f64() != Some(0.0) {
                ok = false;
                println!("set {set}: {w} had failed operations");
            }
        }
    }
    Ok(ok)
}

fn json_numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// `sweep`: one child process per (workload, seed), like the acceptance
/// driver; writes each result line to `out/runs/` and the quartile summary
/// to `out/summary.json`.
pub fn sweep(
    out: &Path,
    workloads: &[Workload],
    seeds: &[u64],
    seconds: u64,
    trace: bool,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let runs = out.join("runs");
    std::fs::create_dir_all(&runs).map_err(|e| e.to_string())?;
    let mut body = String::new();
    let mut failed_by_workload = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        // metric name -> (unit, one value per seed)
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut failed = 0.0;
        for &seed in seeds {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            std::fs::write(
                runs.join(format!("{}.seed{seed}.json", w.name())),
                format!("{line}\n"),
            )
            .map_err(|e| e.to_string())?;
            if !output.status.success() {
                eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            }
            let result =
                Value::parse(line).map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            for (name, m) in result.get("metrics").map(Value::fields).unwrap_or_default() {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric without value")?;
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                match table.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => table.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
            eprintln!("{} seed {seed}: {line}", w.name());
        }
        let _ = write!(
            body,
            "{}\n    \"{}\": {{",
            if wi > 0 { "," } else { "" },
            w.name()
        );
        for (mi, (name, unit, values)) in table.iter().enumerate() {
            let (q1, median, q3) = if values.len() >= 2 {
                quartiles(values)
            } else {
                (values[0], values[0], values[0])
            };
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median
            };
            let _ = write!(
                body,
                "{}\n      \"{name}\": {{\"unit\": \"{unit}\", \"median\": {median}, \"q1\": {q1}, \
                 \"q3\": {q3}, \"spread\": {spread}, \"values\": {}}}",
                if mi > 0 { "," } else { "" },
                json_numbers(values)
            );
        }
        body.push_str("\n    }");
        failed_by_workload.push(format!("\"{}\": {failed}", w.name()));
    }
    let seeds_f: Vec<f64> = seeds.iter().map(|&s| s as f64).collect();
    let summary = format!(
        "{{\n  \"seconds\": {seconds},\n  \"trace\": {},\n  \"seeds\": {},\n  \"failed\": {{{}}},\n  \
         \"workloads\": {{{body}\n  }}\n}}\n",
        u8::from(trace),
        json_numbers(&seeds_f),
        failed_by_workload.join(", ")
    );
    Value::parse(&summary).map_err(|e| format!("summary is not JSON: {e}"))?;
    std::fs::write(out.join("summary.json"), summary).map_err(|e| e.to_string())?;
    Ok(failed_by_workload.iter().all(|f| f.ends_with(": 0")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (f64::from(i) - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn a_fifteen_percent_regression_fails_a_ten_percent_bound() {
        let a = around(2.0, 0.01);
        let slower = around(2.3, 0.01);
        let c = compare(true, 0.10, &a, &slower);
        assert_eq!(c.verdict, Verdict::Fail);
        assert!((c.worse - 0.15).abs() < 0.005, "{}", c.worse);
        // The same change is a gain for a higher-is-better metric...
        assert_eq!(compare(false, 0.10, &a, &slower).verdict, Verdict::Pass);
        // ...and a 15 % drop in it fails.
        assert_eq!(
            compare(false, 0.10, &a, &around(1.7, 0.01)).verdict,
            Verdict::Fail
        );
    }

    #[test]
    fn within_bound_passes_and_noise_is_unresolved() {
        let a = around(2.0, 0.01);
        assert_eq!(
            compare(true, 0.10, &a, &around(2.1, 0.01)).verdict,
            Verdict::Pass
        );
        // Medians agree, but B's quartiles are 30 % apart: no verdict.
        assert_eq!(
            compare(true, 0.10, &a, &around(2.0, 0.4)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_qpf_count_off_by_one_fails_the_exact_rule() {
        let a = vec![1022.0, 998.5, 1040.25];
        let mut b = a.clone();
        assert_eq!(compare_exact(&a, &b), Verdict::Pass);
        b[1] += 1.0 / 3000.0; // one more QPF use in a 3000-op round
        assert_eq!(compare_exact(&a, &b), Verdict::Fail);
        // ...which the bounded comparison would wave through.
        assert_eq!(compare(true, 0.05, &a, &b).verdict, Verdict::Pass);
    }
}
