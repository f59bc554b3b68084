//! Turning rounds into named metrics, and printing them.

use crate::stats::{fastest, percentile};
use crate::workloads::{ClientLog, Outcome, Round};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        assert!(value.is_finite(), "{name} is not a number");
        Metric { name, unit, value }
    }
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("field in /proc/self/status");
    kb / 1024.0
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// `VmRSS` of this process right now, in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Windows each client's stream is cut into: some tens of requests and of
/// milliseconds each, long enough to hold the two clients' contention,
/// short against the spells for which the box slows.
const WINDOWS: usize = 64;

/// What the first `hi` requests of a client took beyond its first `lo`.
fn window_ns(log: &ClientLog, lo: usize, hi: usize) -> u64 {
    let before = if lo == 0 { 0 } else { log.ops[lo - 1].end_ns };
    log.ops[hi - 1].end_ns - before
}

/// The timed phase as the box disturbed it least: every window of every
/// client's requests, taken from the round in which that window took the
/// least time.
pub struct Composite {
    /// The slower client's windows, added up.
    pub wall_s: f64,
    pub ops: usize,
    /// Latencies of the read requests in the windows kept.
    pub reads_ms: Vec<f64>,
}

/// `reps` are the clients' logs of each round: every client sent the same
/// requests in every round.
pub fn composite(reps: &[&[ClientLog]]) -> Composite {
    let mut wall_ns = 0;
    let mut reads_ms = Vec::new();
    for client in 0..reps[0].len() {
        let ops = reps[0][client].ops.len();
        let mut client_ns = 0;
        for w in 0..WINDOWS {
            let (lo, hi) = (w * ops / WINDOWS, (w + 1) * ops / WINDOWS);
            if lo == hi {
                continue;
            }
            let log = reps
                .iter()
                .map(|logs| &logs[client])
                .min_by_key(|log| window_ns(log, lo, hi))
                .expect("a run has a round");
            client_ns += window_ns(log, lo, hi);
            reads_ms.extend(
                log.ops[lo..hi]
                    .iter()
                    .filter(|o| matches!(o.outcome, Outcome::Read { .. }))
                    .map(|o| o.latency_ns as f64 / 1e6),
            );
        }
        wall_ns = wall_ns.max(client_ns);
    }
    Composite {
        wall_s: wall_ns as f64 / 1e9,
        ops: reps[0].iter().map(|l| l.ops.len()).sum(),
        reads_ms,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, and a line saying
/// how many samples stand behind the timings. `rounds` are the run's: each
/// set up the same system and sent the same requests.
///
/// This shared two-core box slows by 10–40 % for seconds at a time, and
/// only ever slows. So the timings of the timed phase come from the
/// rounds' [`Composite`] — per window, the fastest of the rounds — and
/// `setup_s` is the fastest round's set-up.
pub fn end_to_end(rounds: &[Round]) -> (Vec<Metric>, String) {
    let mut c = composite(&rounds.iter().map(|r| r.logs.as_slice()).collect::<Vec<_>>());
    c.reads_ms.sort_by(f64::total_cmp);
    let m = Metric::new;
    let metrics = vec![
        m("setup_s", "s", fastest(rounds.iter().map(|r| r.setup_s))),
        m("ops_per_s", "1/s", c.ops as f64 / c.wall_s),
        m("select_p50_ms", "ms", percentile(&c.reads_ms, 50.0)),
        // A count, not a timing: every round counts alike.
        m(
            "qpf_per_op",
            "count",
            rounds.iter().map(|r| r.qpf as f64).sum::<f64>() / (rounds.len() * c.ops) as f64,
        ),
        // The first round's: later rounds also hold what the allocator
        // kept of earlier ones.
        m("served_rss_mb", "MB", rounds[0].served_rss_mb),
    ];
    let samples = format!(
        "{} rounds (set-ups) x {} ops; {} windows per client, {} read latencies in the windows kept",
        rounds.len(),
        c.ops,
        WINDOWS,
        c.reads_ms.len()
    );
    (metrics, samples)
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn result_line_is_the_contracts_json() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("a_ms", "ms", 1.25),
                Metric::new("b", "1/s", 3e-7),
            ],
        );
        let v = Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        let b = v.get("metrics").and_then(|m| m.get("b")).expect("metric b");
        assert_eq!(b.get("value").and_then(Value::as_f64), Some(3e-7));
        assert_eq!(b.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    /// A client's log of reads that each took `op_ns(i)`, back to back.
    fn log_of(ops: usize, op_ns: impl Fn(usize) -> u64) -> ClientLog {
        let mut end_ns = 0;
        let now = std::time::Instant::now();
        ClientLog {
            ops: (0..ops)
                .map(|i| {
                    end_ns += op_ns(i);
                    crate::workloads::OpRecord {
                        latency_ns: op_ns(i),
                        end_ns,
                        outcome: Outcome::Read {
                            base: Default::default(),
                            extra: Vec::new(),
                            stats: Default::default(),
                        },
                    }
                })
                .collect(),
            oracle: Default::default(),
            started: now,
            ended: now,
        }
    }

    #[test]
    fn composite_keeps_each_windows_least_disturbed_repetition() {
        // Two requests per window. Repetition 0 takes 10 ns a request but
        // stalls through window 3; repetition 1 takes 12 ns throughout.
        let ops = 2 * WINDOWS;
        let stalled = |i: usize| if i / 2 == 3 { 100 } else { 10 };
        let reps = [vec![log_of(ops, stalled)], vec![log_of(ops, |_| 12)]];
        let c = composite(&[&reps[0], &reps[1]]);
        assert_eq!(c.ops, ops);
        let want_ns = (WINDOWS as u64 - 1) * 20 + 24;
        assert!(
            (c.wall_s * 1e9 - want_ns as f64).abs() < 1e-3,
            "{}",
            c.wall_s
        );
        // The reads come from the windows kept: no stalled one among them.
        assert_eq!(c.reads_ms.len(), ops);
        assert_eq!(c.reads_ms.iter().filter(|&&ms| ms == 12e-6).count(), 2);
        assert!(c.reads_ms.iter().all(|&ms| ms <= 12e-6));
        // One repetition alone is itself.
        let alone = composite(&[&reps[0]]);
        assert!((alone.wall_s * 1e9 - (want_ns + 176) as f64).abs() < 1e-3);

        // The slower client sets the wall time; fewer requests than
        // windows still count every request once.
        let two = [vec![log_of(5, |_| 7), log_of(5, |_| 9)]];
        let c = composite(&[&two[0]]);
        assert_eq!((c.ops, c.reads_ms.len()), (10, 10));
        assert!((c.wall_s * 1e9 - 45.0).abs() < 1e-3);
    }

    #[test]
    fn peak_rss_reads_something_plausible() {
        let mb = peak_rss_mb();
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }
}
