//! `prkb_e2e` — the repository's end-to-end benchmark. See `README.md` in
//! this directory for the workloads, the metrics and how each is obtained.
//!
//! ```text
//! prkb-e2e [--workload <name>|all] [--seed <n>] [--seconds <n>] [--trace 0|1]
//!          [--smoke] [--out <dir>]
//! prkb-e2e sweep --out <dir> [--seeds <a>..<b>] [--workload ...] [--seconds <n>] [--trace 0|1]
//! prkb-e2e check <dirA> <dirB> [--benchmark <BENCHMARK.json>]
//! ```

mod check;
mod gen;
mod json;
mod layers;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use report::Metric;
use std::path::{Path, PathBuf};
use workloads::{Inputs, Round, Table, Verdict, Workload};

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

/// Per-run scratch directory inside the current directory (the benchmark
/// reads and writes only inside its checkout), removed on drop. Each round
/// gets a subdirectory that stays until then, so that no round's fsyncs
/// carry the freeing of an earlier round's files.
struct Scratch(PathBuf);

const SCRATCH_ROOT: &str = ".bench_scratch";

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = PathBuf::from(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RunResult {
    verdict: Verdict,
    metrics: Vec<Metric>,
}

fn run_workload(w: Workload, opts: &Options) -> RunResult {
    let scratch = Scratch::new(&format!("{}-{}", w.name(), u8::from(opts.trace)));
    let table = Table::new(w, opts.seed, opts.smoke);
    let p = table.plan;
    println!(
        "== {}: {} rows x {} attributes, warm-up {} ranges/attribute, {} clients x {} requests",
        w.name(),
        p.rows,
        gen::ATTRS,
        p.warmup_per_attr,
        gen::CLIENTS,
        p.ops_per_client
    );
    let mut verdict = Verdict::default();
    let metrics = if opts.trace {
        // One round untraced, the same round traced, then its client 0
        // replayed at the three depths, then the probes.
        let inputs = Inputs::new(&table);
        let untraced = workloads::run_round(&inputs, &scratch.0.join("untraced"), None);
        let tracing = sut::Tracing::new(16 * gen::CLIENTS * p.ops_per_client + 4096);
        let mut traced = workloads::run_round(&inputs, &scratch.0.join("traced"), Some(&tracing));
        let mut replays =
            layers::replay_depths(&inputs, &scratch.0, if opts.smoke { 200 } else { 5000 });
        let probes = layers::probes(&table, if opts.smoke { 10_000 } else { 400_000 });
        let verify_s = inputs.prepare_s + untraced.verify_s + traced.verify_s;
        let metrics = layers::per_layer(&inputs, &untraced, &traced, &replays, &probes, verify_s);
        let spans_dir = opts
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(SCRATCH_ROOT));
        let spans_path = spans_dir.join(format!("trace_{}.jsonl", w.name()));
        traced.spans.append(&mut traced.reopen_spans);
        trace::dump(&traced.spans, &spans_path).expect("write span file");
        println!(
            "   {} spans in {}",
            traced.spans.len(),
            spans_path.display()
        );
        println!(
            "   replay of {} requests of client 0: wire {:.3} s, in-process durable {:.3} s, \
             in-memory {:.3} s (oracle busy {:.3} s); per-request QueryStats compared at each depth",
            replays.ops, replays.wire_s, replays.durable_s, replays.memory_s, replays.oracle_busy_s
        );
        for v in [
            untraced.verdict,
            traced.verdict,
            std::mem::take(&mut replays.verdict),
        ] {
            verdict.merge(v);
        }
        report::print_table("   per-layer metrics (traced run):", &metrics);
        metrics
    } else {
        let inputs = Inputs::new(&table);
        let rounds: Vec<Round> = (0..w.rounds(opts.seconds, opts.smoke))
            .map(|r| workloads::run_round(&inputs, &scratch.0.join(format!("round-{r}")), None))
            .collect();
        let walls: Vec<String> = rounds.iter().map(|r| format!("{:.2}", r.wall_s)).collect();
        let (metrics, samples) = report::end_to_end(&rounds);
        println!("   {samples}; timed phases took {} s", walls.join(" "));
        for round in rounds {
            verdict.merge(round.verdict);
        }
        report::print_table("   end-to-end metrics:", &metrics);
        metrics
    };
    println!(
        "   checks: {} attempted, {} failed (error_rate {})",
        verdict.attempted,
        verdict.failed,
        verdict.failed as f64 / verdict.attempted as f64
    );
    for note in &verdict.notes {
        println!("   FAILED: {note}");
    }
    RunResult { verdict, metrics }
}

fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("prkb-e2e: {problem}");
    eprintln!(
        "usage: prkb-e2e [--workload <{}>|all] [--seed <n>] [--seconds <n>] [--trace 0|1] \
         [--smoke] [--out <dir>]\n       prkb-e2e sweep --out <dir> [--seeds <a>..<b>] [run options]\n       \
         prkb-e2e check <dirA> <dirB> [--benchmark <file>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_number(flag: &str, value: Option<&String>) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .first()
        .map(String::as_str)
        .filter(|c| matches!(*c, "sweep" | "check"))
        .unwrap_or("run");
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 24,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut seeds: Vec<u64> = (1..=10).collect();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter().skip(usize::from(command != "run"));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = it.next().map(String::as_str).unwrap_or_default();
                opts.workloads = match name {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))],
                };
            }
            "--seed" => opts.seed = parse_number("--seed", it.next()),
            "--seconds" => opts.seconds = parse_number("--seconds", it.next()),
            "--trace" => opts.trace = parse_number("--trace", it.next()) != 0,
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory")),
                )
            }
            "--benchmark" => {
                benchmark = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--benchmark needs a file"));
            }
            "--seeds" => {
                let range = it.next().and_then(|s| s.split_once(".."));
                let (a, b) = range.unwrap_or_else(|| usage("--seeds needs <a>..<b>"));
                let parse = |s: &str| {
                    s.parse::<u64>()
                        .unwrap_or_else(|_| usage("--seeds needs <a>..<b>"))
                };
                seeds = (parse(a)..=parse(b)).collect();
            }
            other if other.starts_with("--") => usage(&format!("unknown option `{other}`")),
            _ => positional.push(arg),
        }
    }

    if command == "check" {
        let [a, b] = positional[..] else {
            usage("check needs two directories")
        };
        match check::check(&benchmark, Path::new(a), Path::new(b)) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => usage(&e),
        }
    }
    if !positional.is_empty() {
        usage(&format!("unexpected argument `{}`", positional[0]));
    }

    // Environment hygiene: these change the system under test behind the
    // benchmark's back.
    for var in sut::FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("prkb-e2e: {var} is set; it changes the system under test. Unset it.");
            std::process::exit(2);
        }
    }
    if cfg!(debug_assertions) && !opts.smoke {
        eprintln!("prkb-e2e: this is a debug build; measure with --release (or pass --smoke)");
        std::process::exit(2);
    }

    if command == "sweep" {
        let out = opts
            .out
            .clone()
            .unwrap_or_else(|| usage("sweep needs --out <dir>"));
        match check::sweep(&out, &opts.workloads, &seeds, opts.seconds, opts.trace) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => usage(&e),
        }
    }

    println!(
        "prkb_e2e: nproc {}, {} build, seed {}, {} s per workload, trace {}, revision {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        git_revision()
    );
    println!(
        "fixed shape: {} clients (closed loop, one connection each), {} server threads, {} shards, \
         {} oracle thread; every reply waits for its shards' group-commit fsync",
        gen::CLIENTS,
        sut::SERVER_THREADS,
        sut::SHARDS,
        sut::ORACLE_THREADS
    );
    if let Some(out) = &opts.out {
        std::fs::create_dir_all(out).expect("create --out directory");
    }
    let mut all_correct = true;
    for &w in &opts.workloads {
        let result = run_workload(w, &opts);
        let correct = result.verdict.failed == 0;
        all_correct &= correct;
        let line = report::result_line(
            correct,
            result.verdict.attempted,
            result.verdict.failed,
            &result.metrics,
        );
        if let Some(out) = &opts.out {
            let name = format!(
                "{}.seed{}.trace{}.json",
                w.name(),
                opts.seed,
                u8::from(opts.trace)
            );
            std::fs::write(out.join(name), format!("{line}\n")).expect("write result file");
        }
        println!("{line}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// The metric lists in `BENCHMARK.json`, as `(name, unit)`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        spec.get(section)
            .expect("section present")
            .as_array()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// `--smoke`: all four workloads end to end at n = 2 000 and 50
    /// requests per client — serve, warm up, drive, verify, drain, reopen,
    /// then the traced run with the three replay depths and the probes.
    #[test]
    fn smoke_runs_all_four_workloads_end_to_end() {
        let started = std::time::Instant::now();
        for trace in [false, true] {
            let opts = Options {
                workloads: Workload::ALL.to_vec(),
                seed: 3,
                seconds: 1,
                trace,
                smoke: true,
                out: None,
            };
            for &w in &opts.workloads {
                let result = run_workload(w, &opts);
                assert_eq!(
                    result.verdict.failed,
                    0,
                    "{}: {:?}",
                    w.name(),
                    result.verdict.notes
                );
                assert!(result.verdict.attempted > 100);
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted(&result.metrics), declared(section), "{}", w.name());
                if !trace {
                    assert!(
                        result.metrics.iter().all(|m| m.value > 0.0),
                        "{:?}",
                        result.metrics
                    );
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "smoke took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let spec =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
