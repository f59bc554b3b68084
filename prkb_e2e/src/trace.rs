//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. Kept in a pre-allocated buffer and written out as JSON lines
//! when the run ends. No program code is named here.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `id` is unique within a log; `parent` is the span
/// that caused this one (0 = none known). `tag` is the request index for
/// client spans, the attribute for oracle spans and the shard for storage
/// spans; `count` is tuples for oracle spans and bytes for storage spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tag: u32,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared span sink. One mutex-guarded push per span; the traced run pays
/// for it and reports the cost as `bench.trace_overhead`.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(cap)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        tag: u32,
        count: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tag,
            count,
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(&self, name: &'static str, tag: u32, count: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        self.record(0, name, start, self.now_ns(), tag, count);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Busy-time accumulator for a layer whose calls are too many and too
/// short to keep one span each (the oracle sees ~10^6 batches of a few
/// tuples per run). The caller that caused the work drains it into one
/// child span per request.
#[derive(Debug, Default)]
pub struct Busy {
    calls: AtomicU64,
    count: AtomicU64,
    busy_ns: AtomicU64,
    /// Start of the first call since the last drain (0 = none yet).
    first_ns: AtomicU64,
}

/// What a [`Busy`] held when it was drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyTotals {
    pub calls: u64,
    pub count: u64,
    pub busy_ns: u64,
    pub first_ns: u64,
}

impl BusyTotals {
    pub fn absorb(&mut self, other: BusyTotals) {
        self.calls += other.calls;
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        self.first_ns = match (self.first_ns, other.first_ns) {
            (0, f) | (f, 0) => f,
            (a, b) => a.min(b),
        };
    }
}

impl Busy {
    // Relaxed throughout: these are statistics, read after the reply that
    // follows the work has crossed a socket.
    pub fn add(&self, start_ns: u64, end_ns: u64, count: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
        self.busy_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let _ = self.first_ns.compare_exchange(
            0,
            start_ns.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    pub fn drain(&self) -> BusyTotals {
        BusyTotals {
            calls: self.calls.swap(0, Ordering::Relaxed),
            count: self.count.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            first_ns: self.first_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// Self time per span id: a span's duration minus the part of its interval
/// that its child spans cover (overlapping children are not subtracted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Total self time of the spans whose name starts with `prefix`, in
/// seconds. (`self_times` answers in span order.)
pub fn self_seconds(spans: &[Span], prefix: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name.starts_with(prefix))
        .map(|(_, (_, self_ns))| self_ns as f64 / 1e9)
        .sum()
}

/// Writes the spans as JSON lines.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"tag\":{},\"count\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tag, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        tag: u32,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tag,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(1, 0, "call", 0, 100, 0),
            span(2, 1, "engine", 10, 90, 0),
            span(3, 2, "oracle", 20, 40, 0),
            span(4, 2, "oracle", 30, 60, 0), // overlaps span 3: union is 20..60
            span(5, 2, "sync", 80, 120, 0),  // runs past its parent: clipped to 80..90
            span(6, 0, "other", 0, 7, 0),
        ];
        let t: std::collections::HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(t[&1], 100 - 80);
        assert_eq!(t[&2], 80 - 40 - 10);
        assert_eq!(t[&3], 20);
        assert_eq!(t[&4], 30);
        assert_eq!(t[&5], 40);
        assert_eq!(t[&6], 7);
        assert!((self_seconds(&spans, "oracle") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn busy_accumulates_and_drains_to_zero() {
        let b = Busy::default();
        b.add(100, 130, 2);
        b.add(200, 210, 5);
        assert_eq!(
            b.drain(),
            BusyTotals {
                calls: 2,
                count: 7,
                busy_ns: 40,
                first_ns: 100
            }
        );
        assert_eq!(b.drain(), BusyTotals::default());
    }

    #[test]
    fn log_hands_out_ids_in_order() {
        let log = SpanLog::with_capacity(4);
        let a = log.record(0, "a", 0, 1, 0, 0);
        let b = log.record(a, "b", 0, 1, 0, 0);
        assert_eq!((a, b), (1, 2));
        log.time("c", 3, 9, || ());
        let spans = log.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[2].name, spans[2].tag, spans[2].count), ("c", 3, 9));
        assert!(log.take().is_empty());
    }
}
