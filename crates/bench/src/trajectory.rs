//! Machine-readable perf trajectory: `BENCH_<exp>.json` emission.
//!
//! Every repro experiment that measures per-query costs can emit its rows
//! as a stable JSON document (`prkb-bench/v1`), so the performance
//! trajectory of the repository finally lives in version-controllable,
//! diffable artifacts instead of ad-hoc text reports. The companion
//! [`crate::compare`] module diffs two such files and gates CI.
//!
//! ## Schema (`prkb-bench/v1`)
//!
//! ```json
//! {"schema":"prkb-bench/v1","experiment":"fig8","scale":"ci",
//!  "rows":[{"id":"q1","qpf_uses":100000,"ms":12.5,"k":1,"n":50000,"threads":1}]}
//! ```
//!
//! * `id` — stable row key within the experiment (`q<i>`, `n<n>`, `sel<p>`…);
//! * `qpf_uses` — the paper's primary cost metric, fully deterministic for
//!   a given seed and scale (safe to gate in CI);
//! * `ms` — wall-clock milliseconds (machine-dependent; gate only with a
//!   generous tolerance, or not at all);
//! * `k` — PRKB partitions at measurement time (summed over attributes);
//! * `n` — dataset tuples; `threads` — worker threads in effect.
//!
//! Field names never change meaning; new fields may be appended.

use crate::json::{escape, Json};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One measured row of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Stable row key within the experiment (e.g. `q17`, `n100000`).
    pub id: String,
    /// QPF uses spent (deterministic per seed).
    pub qpf_uses: u64,
    /// Wall-clock milliseconds (machine-dependent).
    pub ms: f64,
    /// PRKB partitions at measurement time.
    pub k: u64,
    /// Dataset size in tuples.
    pub n: u64,
    /// Worker threads in effect.
    pub threads: u64,
}

/// A whole trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Experiment name (`fig8`, `fig9`, …).
    pub experiment: String,
    /// Scale slug (`ci` / `default` / `paper`).
    pub scale: String,
    /// Measured rows, in experiment order.
    pub rows: Vec<BenchRow>,
}

impl BenchFile {
    /// Renders the stable `prkb-bench/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"prkb-bench/v1\",\"experiment\":");
        s.push_str(&escape(&self.experiment));
        s.push_str(",\"scale\":");
        s.push_str(&escape(&self.scale));
        s.push_str(",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{},\"qpf_uses\":{},\"ms\":{:.6},\"k\":{},\"n\":{},\"threads\":{}}}",
                escape(&r.id),
                r.qpf_uses,
                r.ms,
                r.k,
                r.n,
                r.threads
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a `prkb-bench/v1` document.
    ///
    /// # Errors
    /// Malformed JSON, wrong schema tag, or missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<BenchFile, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != "prkb-bench/v1" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let experiment = v
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("missing experiment")?
            .to_string();
        let scale = v
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("missing scale")?
            .to_string();
        let rows = v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing rows")?
            .iter()
            .map(|r| {
                Ok(BenchRow {
                    id: r
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or("row missing id")?
                        .to_string(),
                    qpf_uses: r
                        .get("qpf_uses")
                        .and_then(Json::as_u64)
                        .ok_or("row missing qpf_uses")?,
                    ms: r.get("ms").and_then(Json::as_f64).ok_or("row missing ms")?,
                    k: r.get("k").and_then(Json::as_u64).unwrap_or(0),
                    n: r.get("n").and_then(Json::as_u64).unwrap_or(0),
                    threads: r.get("threads").and_then(Json::as_u64).unwrap_or(1),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchFile {
            experiment,
            scale,
            rows,
        })
    }

    /// Writes `BENCH_<experiment>.json` into `dir`; returns the path.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }

    /// Looks a row up by id.
    pub fn row(&self, id: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.id == id)
    }
}

/// The output directory for trajectory files: `PRKB_BENCH_DIR`, or the
/// current directory when unset.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("PRKB_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchFile {
        BenchFile {
            experiment: "fig8".into(),
            scale: "ci".into(),
            rows: vec![
                BenchRow {
                    id: "q1".into(),
                    qpf_uses: 100_000,
                    ms: 12.5,
                    k: 1,
                    n: 50_000,
                    threads: 1,
                },
                BenchRow {
                    id: "q60".into(),
                    qpf_uses: 1_234,
                    ms: 0.75,
                    k: 93,
                    n: 50_000,
                    threads: 4,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let f = sample();
        let text = f.to_json();
        assert!(text.starts_with("{\"schema\":\"prkb-bench/v1\""));
        let back = BenchFile::from_json(&text).unwrap();
        assert_eq!(back.experiment, "fig8");
        assert_eq!(back.scale, "ci");
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.row("q60").unwrap().qpf_uses, 1_234);
        assert_eq!(back.row("q60").unwrap().k, 93);
        assert!((back.row("q1").unwrap().ms - 12.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = BenchFile::from_json("{\"schema\":\"other/v9\",\"rows\":[]}").unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn write_creates_named_file() {
        let dir = std::env::temp_dir().join(format!("prkb_traj_{}", std::process::id()));
        let path = sample().write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_fig8.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(BenchFile::from_json(text.trim()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
