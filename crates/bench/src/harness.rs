//! Shared experiment infrastructure: encrypted-pipeline setup, PRKB
//! warm-up, predicate construction, timing, and report formatting.

use prkb_core::{EngineConfig, PrkbEngine};
use prkb_datagen::WorkloadGen;
use prkb_edbms::{
    AttrId, ComparisonOp, DataOwner, EncryptedPredicate, EncryptedTable, PlainTable, Predicate,
    Schema, SpOracle, TmConfig, TrustedMachine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scratch directory for a durable experiment, removed on drop.
pub(crate) struct TmpDir(pub(crate) PathBuf);

impl TmpDir {
    pub(crate) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("prkb-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fully provisioned encrypted pipeline: owner, encrypted table, TM, and
/// the plaintext columns (owner-side knowledge used to build workloads).
pub struct EncSetup {
    /// The data owner (keys, trapdoors).
    pub owner: DataOwner,
    /// The encrypted table at the service provider.
    pub table: EncryptedTable,
    /// The trusted machine at the service provider's site.
    pub tm: TrustedMachine,
    /// Owner-side plaintext columns (workload generation only).
    pub columns: Vec<Vec<u64>>,
    /// Table name.
    pub name: String,
}

impl EncSetup {
    /// Encrypts `columns` into a fresh pipeline.
    ///
    /// # Panics
    /// Panics on ragged columns.
    pub fn new(name: &str, columns: Vec<Vec<u64>>, seed: u64) -> Self {
        let attrs: Vec<String> = (0..columns.len()).map(|i| format!("a{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let schema = Schema::new(name, &attr_refs);
        let plain = PlainTable::from_columns(schema, columns.clone()).expect("rectangular columns");
        let owner = DataOwner::with_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE17C_0DE5);
        let table = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        EncSetup {
            owner,
            table,
            tm,
            columns,
            name: name.to_string(),
        }
    }

    /// The service-provider oracle over this pipeline.
    pub fn oracle(&self) -> SpOracle<'_> {
        SpOracle::new(&self.table, &self.tm)
    }

    /// Issues the two comparison trapdoors of an exclusive range
    /// `lo < X < hi` on `attr`.
    pub fn range_trapdoors<Rn: rand::Rng>(
        &self,
        attr: AttrId,
        lo: u64,
        hi: u64,
        rng: &mut Rn,
    ) -> [EncryptedPredicate; 2] {
        [
            self.owner
                .trapdoor(&self.name, &Predicate::cmp(attr, ComparisonOp::Gt, lo), rng)
                .expect("comparison trapdoors are infallible"),
            self.owner
                .trapdoor(&self.name, &Predicate::cmp(attr, ComparisonOp::Lt, hi), rng)
                .expect("comparison trapdoors are infallible"),
        ]
    }

    /// Issues a single comparison trapdoor.
    pub fn cmp_trapdoor<Rn: rand::Rng>(
        &self,
        attr: AttrId,
        op: ComparisonOp,
        bound: u64,
        rng: &mut Rn,
    ) -> EncryptedPredicate {
        self.owner
            .trapdoor(&self.name, &Predicate::cmp(attr, op, bound), rng)
            .expect("comparison trapdoors are infallible")
    }
}

/// Builds a PRKB engine over the setup's attributes.
pub fn fresh_engine(setup: &EncSetup) -> PrkbEngine<EncryptedPredicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for a in 0..setup.columns.len() {
        engine.init_attr(a as AttrId, setup.table.len());
    }
    engine
}

/// Outcome of a [`warm_to_k`] run.
///
/// The warm-up loop caps itself at `target_k * 20` queries; on adversarial
/// data (tight domains, heavy duplicates) it can give up below the target,
/// and a "warmed to k=250" row must not hide that.
#[must_use = "check reached_k — the warm-up loop may have given up below target_k"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Warmup {
    /// Warm-up queries actually issued.
    pub queries: usize,
    /// Partitions reached when the loop stopped.
    pub reached_k: usize,
    /// Partitions requested.
    pub target_k: usize,
}

impl Warmup {
    /// True when the loop hit the query cap before reaching `target_k`.
    pub fn under_warm(&self) -> bool {
        self.reached_k < self.target_k
    }
}

/// Warms one attribute's PRKB to (at least) `target_k` partitions with
/// random selectivity-`sel` range queries. The engine's update flag must be
/// on.
///
/// Gives up after `target_k * 20` queries; the returned [`Warmup`] reports
/// the k actually reached, and an under-warm run logs a warning to stderr.
pub fn warm_to_k(
    engine: &mut PrkbEngine<EncryptedPredicate>,
    setup: &EncSetup,
    attr: AttrId,
    target_k: usize,
    sel: f64,
    seed: u64,
) -> Warmup {
    let oracle = setup.oracle();
    let gen = WorkloadGen::new(
        &setup.columns[attr as usize],
        column_domain(&setup.columns[attr as usize]),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = 0usize;
    while engine.knowledge(attr).map_or(0, |k| k.k()) < target_k && queries < target_k * 20 {
        let r = gen.range_with_selectivity(sel, &mut rng);
        for p in setup.range_trapdoors(attr, r.lo, r.hi, &mut rng) {
            engine.select(&oracle, &p, &mut rng);
        }
        queries += 1;
    }
    let warmup = Warmup {
        queries,
        reached_k: engine.knowledge(attr).map_or(0, |k| k.k()),
        target_k,
    };
    if warmup.under_warm() {
        eprintln!(
            "warning: warm_to_k gave up at k={} (target {}) after {} queries on attr {}",
            warmup.reached_k, warmup.target_k, warmup.queries, attr
        );
    }
    warmup
}

/// Conservative inclusive domain bounds of a column.
fn column_domain(col: &[u64]) -> (u64, u64) {
    let lo = col.iter().copied().min().unwrap_or(0);
    let hi = col.iter().copied().max().unwrap_or(0);
    (lo, hi)
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One measured span: the paper's primary cost metric (QPF uses) alongside
/// the wall-clock it took — experiment tables report both.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// QPF uses spent inside the span.
    pub qpf_uses: u64,
    /// Wall-clock milliseconds of the span.
    pub ms: f64,
}

/// Runs a closure, differencing the oracle's QPF counter around it and
/// timing it, so every result row can carry both metrics.
pub fn measure_span<O: prkb_edbms::SelectionOracle, T>(
    oracle: &O,
    f: impl FnOnce() -> T,
) -> (T, Measured) {
    let before = oracle.qpf_uses();
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let after = oracle.qpf_uses();
    debug_assert!(
        after >= before,
        "QPF counter went backwards: {before} -> {after}"
    );
    (
        out,
        Measured {
            qpf_uses: after.saturating_sub(before),
            ms,
        },
    )
}

/// Incremental report builder with aligned columns.
#[derive(Debug, Default)]
pub struct Report {
    buf: String,
}

impl Report {
    /// Starts a report with a title line.
    pub fn new(title: &str) -> Self {
        let mut r = Report { buf: String::new() };
        let _ = writeln!(r.buf, "\n=== {title} ===");
        r
    }

    /// Appends a formatted line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.buf, "{}", s.as_ref());
    }

    /// Appends a row of right-aligned cells (width 14).
    pub fn row(&mut self, cells: &[String]) {
        let mut line = String::new();
        for c in cells {
            let _ = write!(line, "{c:>14}");
        }
        let _ = writeln!(self.buf, "{line}");
    }

    /// The accumulated text.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::SelectionOracle;

    #[test]
    fn setup_and_engine_roundtrip() {
        let cols = vec![(0..500u64).collect::<Vec<_>>()];
        let setup = EncSetup::new("t", cols, 1);
        let oracle = setup.oracle();
        let mut engine = fresh_engine(&setup);
        let mut rng = StdRng::seed_from_u64(2);
        let p = setup.cmp_trapdoor(0, ComparisonOp::Lt, 100, &mut rng);
        let sel = engine.select(&oracle, &p, &mut rng);
        assert_eq!(sel.tuples.len(), 100);
        assert_eq!(oracle.qpf_uses(), sel.stats.qpf_uses);
    }

    #[test]
    fn warm_reaches_target_k() {
        let cols = vec![(0..2000u64).collect::<Vec<_>>()];
        let setup = EncSetup::new("t", cols, 3);
        let mut engine = fresh_engine(&setup);
        let warmup = warm_to_k(&mut engine, &setup, 0, 50, 0.01, 4);
        assert!(engine.knowledge(0).unwrap().k() >= 50);
        assert!(!warmup.under_warm());
        assert_eq!(warmup.reached_k, engine.knowledge(0).unwrap().k());
        assert!(warmup.queries > 0);
    }

    #[test]
    fn warm_reports_shortfall_on_tiny_domain() {
        // 4 distinct values cap k at 5 partitions — a target of 50 must
        // come back under-warm instead of silently pretending otherwise.
        let cols = vec![(0..2000u64).map(|v| v % 4).collect::<Vec<_>>()];
        let setup = EncSetup::new("t", cols, 9);
        let mut engine = fresh_engine(&setup);
        let warmup = warm_to_k(&mut engine, &setup, 0, 50, 0.01, 10);
        assert!(warmup.under_warm());
        assert!(warmup.reached_k < 50);
        assert_eq!(warmup.target_k, 50);
    }

    #[test]
    fn measure_span_reports_both_metrics() {
        let cols = vec![(0..200u64).collect::<Vec<_>>()];
        let setup = EncSetup::new("t", cols, 5);
        let oracle = setup.oracle();
        let mut rng = StdRng::seed_from_u64(6);
        let p = setup.cmp_trapdoor(0, ComparisonOp::Lt, 50, &mut rng);
        let (sel, m) = measure_span(&oracle, || prkb_edbms::select::linear_scan(&oracle, &p));
        assert_eq!(sel.len(), 50);
        assert_eq!(m.qpf_uses, 200, "one use per live tuple");
        assert!(m.ms >= 0.0);
    }

    #[test]
    fn measure_span_diff_survives_retry_oracle() {
        use prkb_sim::{reissue, FaultConfig, FaultInjector};

        let cols = vec![(0..400u64).collect::<Vec<_>>()];
        let setup = EncSetup::new("t", cols, 11);
        // Transient-only faults (request lost before the TM, no QPF spent)
        // abort their query; the attempt that gets through measures exactly
        // its own cost, and never underflows.
        let faulty = FaultInjector::new(
            setup.oracle(),
            FaultConfig {
                seed: 0xFA11,
                transient_per_mille: 2,
                timeout_per_mille: 0,
                corruption_per_mille: 0,
                max_consecutive: 2,
            },
        );
        let mut engine = fresh_engine(&setup);
        let mut rng = StdRng::seed_from_u64(12);
        let p = setup.cmp_trapdoor(0, ComparisonOp::Lt, 150, &mut rng);
        let (sel, m) = reissue(16, || {
            let (sel, m) = measure_span(&faulty, || {
                engine.try_select(&faulty, &p, &mut StdRng::seed_from_u64(13))
            });
            sel.map(|sel| (sel, m))
        });
        assert_eq!(sel.tuples.len(), 150);
        assert_eq!(
            m.qpf_uses, sel.stats.qpf_uses,
            "span delta == per-query stats"
        );
        assert!(faulty.injected() > 0, "schedule must actually fault");
    }

    #[test]
    fn report_formats() {
        let mut r = Report::new("demo");
        r.row(&["a".into(), "b".into()]);
        let s = r.finish();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("a"));
    }
}
