//! The adapter: every call into the program under test is made here, and
//! no other module of the benchmark names a `prkb_*` item. When a program
//! API changes, a benchmark-only change follows it in this one file.
//!
//! The benchmark reaches each layer through public functions only:
//! `prkb-crypto`/`prkb-edbms` (owner, trusted machine, oracle, storage
//! seam), `prkb-core` (engine, sharded durable pool, snapshot codec,
//! metrics registry) and `prkb-server` (server, client, scheduler, proto,
//! wire). Threads, shards and oracle threads are pinned here in code, and
//! everything else is `EngineConfig::default()`, `ServerConfig::default()`
//! and `ClientConfig::default()`: every reply waits for its shards'
//! group-commit fsync, and a shard checkpoints every 4096 WAL records or
//! 4 MiB.

use crate::gen::{Cmp, Op, Request, Rng64, ATTRS};
use crate::trace::{Busy, SpanLog};
use prkb_core::durability::ShardedDurablePool;
use prkb_core::{metrics, snapshot, EngineConfig, PrkbEngine, QueryError, ShardMap};
use prkb_crypto::{KeyPurpose, MasterKey, ValueCipher};
use prkb_edbms::trapdoor::PredicateKind;
use prkb_edbms::{
    real_fs, ComparisonOp, CrashInjector, DataOwner, EncryptedPredicate, OracleError, PlainTable,
    Predicate, Schema, SelectionOracle, SpOracle, StorageFile, StorageFs, TmConfig, TrustedMachine,
};
use prkb_server::proto::Response;
use prkb_server::scheduler::{DeadlineOracle, SessionOracle, SessionScheduler};
use prkb_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_LEN};
use prkb_server::{PrkbClient, PrkbServer, ServerConfig, ServerHandle, ServerReport};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub use prkb_core::QueryStats;
pub use prkb_edbms::EncryptedTable;

/// Fixed shape: this box has two cores.
pub const SERVER_THREADS: usize = 2;
pub const SHARDS: usize = 2;
pub const ORACLE_THREADS: usize = 1;
/// A reply is one frame; the default cap holds this many 4-byte ids.
pub const MAX_REPLY_IDS: usize = (DEFAULT_MAX_FRAME_LEN as usize - 128) / 4;

/// Knob and fault variables that silently change the system under test.
pub const FORBIDDEN_ENV: [&str; 8] = [
    "PRKB_THREADS",
    "PRKB_SHARDS",
    "PRKB_SERVER_THREADS",
    "PRKB_SERVER_QUEUE",
    "PRKB_FAULT_SEED",
    "PRKB_IO_FAULT_SEED",
    "PRKB_NET_FAULT_SEED",
    "PRKB_CRASH_POINT",
];

const TABLE: &str = "bench";

type Pred = EncryptedPredicate;

impl rand::RngCore for Rng64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let b = self.next().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

// ---------------------------------------------------------------------------
// Owner side: keys, encryption, trapdoors
// ---------------------------------------------------------------------------

/// The data owner's role: holds the keys, encrypts, issues trapdoors.
pub struct Keys {
    owner: DataOwner,
}

/// A request with its trapdoors issued — what a client holds before it
/// calls the server.
#[derive(Debug, Clone)]
pub enum Prepared {
    Select { seed: u64, pred: Pred },
    Between { seed: u64, pred: Pred },
    RangeMd { seed: u64, dims: Vec<[Pred; 2]> },
    Insert { row: [u64; ATTRS] },
    Delete { nth: usize },
}

impl Keys {
    pub fn new(seed: u64) -> Self {
        Keys {
            owner: DataOwner::with_seed(seed),
        }
    }

    pub fn encrypt_table(&self, cols: &[Vec<u64>], rng: &mut Rng64) -> EncryptedTable {
        let names: Vec<String> = (0..cols.len()).map(|a| format!("a{a}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let plain = PlainTable::from_columns(Schema::new(TABLE, &names), cols.to_vec())
            .expect("columns have equal length");
        self.owner.encrypt_table(&plain, rng)
    }

    /// Pairs the uploaded table with a trusted machine holding these keys.
    pub fn oracle(&self, table: EncryptedTable, trace: Option<Arc<OracleTrace>>) -> BenchOracle {
        BenchOracle {
            table,
            tm: self.owner.trusted_machine(TmConfig::default()),
            trace,
        }
    }

    pub fn encrypt_row(&self, row: &[u64], rng: &mut Rng64) -> Vec<Vec<u8>> {
        self.owner.encrypt_row(TABLE, row, rng)
    }

    fn trapdoor(&self, pred: Predicate, rng: &mut Rng64) -> Pred {
        self.owner
            .trapdoor(TABLE, &pred, rng)
            .expect("generated ranges have lo <= hi")
    }

    pub fn prepare(&self, req: &Request, rng: &mut Rng64) -> Prepared {
        let seed = req.server_seed;
        match &req.op {
            Op::Between { attr, lo, hi } => Prepared::Between {
                seed,
                pred: self.trapdoor(Predicate::between(*attr, *lo, *hi), rng),
            },
            Op::Compare { attr, cmp, bound } => {
                let op = match cmp {
                    Cmp::Lt => ComparisonOp::Lt,
                    Cmp::Le => ComparisonOp::Le,
                    Cmp::Gt => ComparisonOp::Gt,
                    Cmp::Ge => ComparisonOp::Ge,
                };
                Prepared::Select {
                    seed,
                    pred: self.trapdoor(Predicate::cmp(*attr, op, *bound), rng),
                }
            }
            Op::Range { dims } => Prepared::RangeMd {
                seed,
                dims: dims
                    .iter()
                    .map(|&(attr, lo, hi)| {
                        [
                            self.trapdoor(Predicate::cmp(attr, ComparisonOp::Ge, lo), rng),
                            self.trapdoor(Predicate::cmp(attr, ComparisonOp::Le, hi), rng),
                        ]
                    })
                    .collect(),
            },
            Op::Insert { row } => Prepared::Insert { row: *row },
            Op::Delete { nth } => Prepared::Delete { nth: *nth },
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle the server owns (encrypted table + trusted machine)
// ---------------------------------------------------------------------------

/// Per-attribute oracle accounting for the traced run. An attribute
/// identifies the client that owns it on the read workloads, so a client
/// can drain exactly the oracle work its own request caused.
#[derive(Debug)]
pub struct OracleTrace {
    pub log: Arc<SpanLog>,
    pub per_attr: [Busy; ATTRS],
}

impl OracleTrace {
    pub fn new(log: Arc<SpanLog>) -> Self {
        OracleTrace {
            log,
            per_attr: Default::default(),
        }
    }
}

/// `EncryptedTable` + `TrustedMachine` behind the real `SpOracle` QPF. The
/// server needs an oracle it can own (`'static`), which `SpOracle`'s
/// borrows are not; with `trace` set, each call is also timed.
pub struct BenchOracle {
    table: EncryptedTable,
    tm: TrustedMachine,
    trace: Option<Arc<OracleTrace>>,
}

impl BenchOracle {
    fn sp(&self) -> SpOracle<'_> {
        SpOracle::new(&self.table, &self.tm).with_threads(ORACLE_THREADS)
    }

    fn timed<T>(&self, attr: u32, tuples: u64, f: impl FnOnce() -> T) -> T {
        match &self.trace {
            None => f(),
            Some(t) => {
                let start = t.log.now_ns();
                let out = f();
                t.per_attr[attr as usize].add(start, t.log.now_ns(), tuples);
                out
            }
        }
    }

    /// The owner-to-SP data path: rows are uploaded beside the wire
    /// protocol, which only ever carries tuple ids.
    pub fn upload(&mut self, cells: &[Vec<u8>]) -> u32 {
        let cells: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        self.table
            .push_encrypted_row(&cells)
            .expect("row has one cell per attribute")
    }

    /// QPF evaluations the trusted machine has performed.
    pub fn qpf_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }
}

impl SelectionOracle for BenchOracle {
    type Pred = Pred;

    fn try_eval(&self, pred: &Pred, t: u32) -> Result<bool, OracleError> {
        self.timed(pred.attr(), 1, || self.sp().try_eval(pred, t))
    }

    fn try_eval_batch(
        &self,
        pred: &Pred,
        tuples: &[u32],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.timed(pred.attr(), tuples.len() as u64, || {
            self.sp().try_eval_batch(pred, tuples, out)
        })
    }

    fn kind_of(&self, pred: &Pred) -> PredicateKind {
        pred.kind()
    }

    fn n_slots(&self) -> usize {
        self.table.len()
    }

    fn is_live(&self, t: u32) -> bool {
        self.table.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }
}

pub type SharedOracle = Arc<RwLock<BenchOracle>>;

/// The traced run's decorators: one span log shared by the oracle
/// accounting, the storage decorator and the clients.
pub struct Tracing {
    pub log: Arc<SpanLog>,
    pub oracle: Arc<OracleTrace>,
    pub fs: Arc<dyn StorageFs>,
}

impl Tracing {
    pub fn new(span_capacity: usize) -> Self {
        let log = Arc::new(SpanLog::with_capacity(span_capacity));
        Tracing {
            oracle: Arc::new(OracleTrace::new(Arc::clone(&log))),
            fs: TracedFs::over_real_fs(Arc::clone(&log)),
            log,
        }
    }

    /// Forgets what has been recorded so far (set-up is not the timed
    /// phase's).
    pub fn discard(&self) {
        self.log.take();
        for busy in &self.oracle.per_attr {
            busy.drain();
        }
    }
}

// ---------------------------------------------------------------------------
// Storage: the durable pool, with an optional timing decorator
// ---------------------------------------------------------------------------

/// `StorageFs` decorator for the traced run: one span per write, sync,
/// rename and read, tagged with the shard the path belongs to and counting
/// bytes.
#[derive(Debug)]
pub struct TracedFs {
    inner: Arc<dyn StorageFs>,
    log: Arc<SpanLog>,
}

impl TracedFs {
    pub fn over_real_fs(log: Arc<SpanLog>) -> Arc<dyn StorageFs> {
        Arc::new(TracedFs {
            inner: real_fs(),
            log,
        })
    }

    fn wrap(&self, path: &Path, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(TracedFile {
            inner: file,
            log: Arc::clone(&self.log),
            shard: shard_of(path),
        })
    }
}

/// `shard.<i>` in the path, or `u32::MAX` for the pool's own files.
fn shard_of(path: &Path) -> u32 {
    path.components()
        .filter_map(|c| c.as_os_str().to_str()?.strip_prefix("shard.")?.parse().ok())
        .next()
        .unwrap_or(u32::MAX)
}

#[derive(Debug)]
struct TracedFile {
    inner: Box<dyn StorageFile>,
    log: Arc<SpanLog>,
    shard: u32,
}

impl StorageFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.log.time("fs.write", self.shard, buf.len() as u64, || {
            inner.write_all(buf)
        })
    }
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let start = self.log.now_ns();
        let n = self.inner.read_to_end(buf)?;
        self.log
            .record(0, "fs.read", start, self.log.now_ns(), self.shard, n as u64);
        Ok(n)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.log
            .time("fs.sync", self.shard, 0, || inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.log.time("fs.sync", self.shard, 0, || inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_start(pos)
    }
}

impl StorageFs for TracedFs {
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.create_file(path)?))
    }
    fn open_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.open_file(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = self.log.now_ns();
        let bytes = self.inner.read(path)?;
        self.log.record(
            0,
            "fs.read",
            start,
            self.log.now_ns(),
            shard_of(path),
            bytes.len() as u64,
        );
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log
            .time("fs.write", shard_of(path), bytes.len() as u64, || {
                self.inner.write(path, bytes)
            })
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Atomic publishes (a checkpoint, a manifest) are renames.
        self.log
            .time("fs.rename", shard_of(to), 0, || self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log
            .time("fs.sync", shard_of(dir), 0, || self.inner.sync_dir(dir))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let start = self.log.now_ns();
        let bytes = self.inner.read_at(path, offset, len)?;
        self.log.record(
            0,
            "fs.read",
            start,
            self.log.now_ns(),
            shard_of(path),
            bytes.len() as u64,
        );
        Ok(bytes)
    }
}

pub type Pool = ShardedDurablePool<Pred>;

/// Opens (or recovers) the sharded durable pool at `dir`.
pub fn open_pool(dir: &Path, fs: Option<Arc<dyn StorageFs>>) -> Pool {
    ShardedDurablePool::open_with_storage(
        dir,
        EngineConfig::default(),
        ShardMap::new(SHARDS),
        CrashInjector::disabled(),
        fs.unwrap_or_else(real_fs),
    )
    .expect("open durable pool")
}

/// A fresh pool with `ATTRS` attributes of `rows` tuples, durably
/// initialized.
pub fn create_pool(dir: &Path, rows: usize, fs: Option<Arc<dyn StorageFs>>) -> Pool {
    let mut pool = open_pool(dir, fs);
    for attr in 0..ATTRS as u32 {
        pool.init_attr(attr, rows).expect("durable init_attr");
    }
    pool
}

/// `snapshot::save` of every attribute, in attribute order.
fn engine_images(engine: &PrkbEngine<Pred>, into: &mut Vec<(u32, Vec<u8>)>) {
    for attr in engine.attrs() {
        let kb = engine.knowledge(attr).expect("attr listed by the engine");
        into.push((attr, snapshot::save(kb)));
    }
    into.sort();
}

/// Per-attribute shape of a knowledge base: `(k, bytes)`.
fn engine_shape(engine: &PrkbEngine<Pred>) -> Vec<(u32, usize, usize)> {
    let mut shape: Vec<(u32, usize, usize)> = engine
        .attrs()
        .map(|a| {
            let kb = engine.knowledge(a).expect("attr listed by the engine");
            (a, kb.k(), kb.storage_bytes())
        })
        .collect();
    shape.sort_unstable();
    shape
}

/// What a reopen of a drained directory found.
pub struct Recovered {
    pub images: Vec<(u32, Vec<u8>)>,
    pub records_replayed: u64,
}

/// `ShardedDurablePool::open` on `dir`, every attribute loaded, then drop.
pub fn reopen(dir: &Path, fs: Option<Arc<dyn StorageFs>>) -> Recovered {
    let pool = open_pool(dir, fs);
    let mut images = Vec::new();
    for sid in 0..pool.map().shards() {
        engine_images(pool.shard_engine(sid), &mut images);
    }
    assert_eq!(
        images.len(),
        ATTRS,
        "every attribute is loaded after a reopen"
    );
    Recovered {
        images,
        records_replayed: pool.reports().iter().map(|r| r.records_replayed).sum(),
    }
}

// ---------------------------------------------------------------------------
// The three depths a request stream can be driven at
// ---------------------------------------------------------------------------

/// A selection's reply.
pub struct Reply {
    pub tuples: Vec<u32>,
    pub stats: QueryStats,
}

/// One way of driving requests into the program. The same seeded stream
/// driven at each depth must report identical `QueryStats` per request
/// (DESIGN §11: stats are independent of how the engine is executed), so
/// the time between adjacent depths is a layer's own.
pub trait Depth {
    /// A read; `req` is `Select`, `Between` or `RangeMd`.
    fn read(&mut self, req: &Prepared) -> Result<Reply, String>;
    /// Upload an encrypted row beside the protocol, then route its id.
    fn insert(&mut self, cells: &[Vec<u8>]) -> Result<u32, String>;
    fn delete(&mut self, tuple: u32) -> Result<(), String>;
}

fn upload(oracle: &SharedOracle, cells: &[Vec<u8>]) -> u32 {
    oracle.write().expect("oracle lock poisoned").upload(cells)
}

/// Depth 1: `PrkbClient` over loopback TCP to the served pool.
pub struct Wire {
    client: PrkbClient<Pred>,
    oracle: SharedOracle,
}

impl Wire {
    pub fn ping(&mut self) -> Result<(), String> {
        self.client.ping().map_err(|e| e.to_string())
    }

    pub fn retries(&self) -> u64 {
        self.client.retries()
    }
}

impl Depth for Wire {
    fn read(&mut self, req: &Prepared) -> Result<Reply, String> {
        let reply = match req {
            Prepared::Select { seed, pred } => self.client.select(*seed, pred.clone()),
            Prepared::Between { seed, pred } => self.client.between(*seed, pred.clone()),
            Prepared::RangeMd { seed, dims } => self.client.select_range_md(*seed, dims.clone()),
            Prepared::Insert { .. } | Prepared::Delete { .. } => unreachable!("not a read"),
        };
        reply
            .map(|r| Reply {
                tuples: r.tuples,
                stats: r.stats,
            })
            .map_err(|e| e.to_string())
    }

    fn insert(&mut self, cells: &[Vec<u8>]) -> Result<u32, String> {
        let tuple = upload(&self.oracle, cells);
        self.client
            .insert(tuple)
            .map(|_| tuple)
            .map_err(|e| e.to_string())
    }

    fn delete(&mut self, tuple: u32) -> Result<(), String> {
        self.client
            .delete(tuple)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Depths 2 and 3: the session scheduler called in process — over the
/// durable pool (group commit and fsync included) or over an in-memory
/// engine (neither).
pub struct InProcess {
    sched: SessionScheduler<Pred>,
    oracle: SharedOracle,
}

impl InProcess {
    pub fn durable(pool: Pool, oracle: BenchOracle) -> Self {
        InProcess {
            sched: SessionScheduler::durable(pool),
            oracle: Arc::new(RwLock::new(oracle)),
        }
    }

    pub fn in_memory(rows: usize, oracle: BenchOracle) -> Self {
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for attr in 0..ATTRS as u32 {
            engine.init_attr(attr, rows);
        }
        InProcess {
            sched: SessionScheduler::with_shards(engine, ShardMap::new(SHARDS)),
            oracle: Arc::new(RwLock::new(oracle)),
        }
    }

    /// Flushes what is pending and gives the pool's files back to the
    /// directory.
    pub fn close(self) {
        self.sched.flush_durable().expect("final flush");
    }
}

impl Depth for InProcess {
    fn read(&mut self, req: &Prepared) -> Result<Reply, String> {
        let oracle = self.oracle.read().expect("oracle lock poisoned");
        // The same wrappers the server puts around its oracle.
        let session = SessionOracle::new(&*oracle);
        let bounded = DeadlineOracle::new(&session, None);
        let sel = match req {
            Prepared::Select { seed, pred } | Prepared::Between { seed, pred } => {
                self.sched.with_detached(&[pred.attr()], |sub| {
                    sub.try_select(&bounded, pred, &mut server_rng(*seed))
                })
            }
            Prepared::RangeMd { seed, dims } => {
                let attrs: Vec<u32> = dims.iter().map(|d| d[0].attr()).collect();
                self.sched.with_detached(&attrs, |sub| {
                    sub.try_select_range_md(&bounded, dims, &mut server_rng(*seed))
                })
            }
            Prepared::Insert { .. } | Prepared::Delete { .. } => unreachable!("not a read"),
        };
        sel.map(|(s, _)| Reply {
            tuples: s.tuples,
            stats: s.stats,
        })
        .map_err(|e| e.to_string())
    }

    fn insert(&mut self, cells: &[Vec<u8>]) -> Result<u32, String> {
        let tuple = upload(&self.oracle, cells);
        let oracle = self.oracle.read().expect("oracle lock poisoned");
        let (outcome, _) = self
            .sched
            .with_exclusive(|engine| engine.try_insert(&*oracle, tuple))
            .map_err(|e| e.to_string())?;
        outcome
            .map(|_| tuple)
            .map_err(|e: QueryError| e.to_string())
    }

    fn delete(&mut self, tuple: u32) -> Result<(), String> {
        self.sched
            .with_exclusive(|engine| engine.delete(tuple))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// The server seeds `StdRng` from the request's seed; the in-process depths
/// must draw the same numbers to report the same `QueryStats`.
fn server_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------------------
// The served system
// ---------------------------------------------------------------------------

/// `PrkbServer::bind_durable_pool` on loopback, running.
pub struct Served {
    handle: ServerHandle<Pred, BenchOracle>,
    addr: SocketAddr,
}

pub fn serve(pool: Pool, oracle: BenchOracle) -> Served {
    let config = ServerConfig {
        threads: Some(SERVER_THREADS),
        ..ServerConfig::default()
    };
    let server =
        PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    Served {
        handle: server.spawn().expect("spawn server"),
        addr,
    }
}

impl Served {
    pub fn connect(&self) -> Wire {
        Wire {
            client: PrkbClient::connect(self.addr).expect("connect over loopback"),
            oracle: self.handle.oracle(),
        }
    }

    pub fn oracle(&self) -> SharedOracle {
        self.handle.oracle()
    }

    /// Graceful drain: Shutdown over the wire, every in-flight request
    /// finishes, pending batches are fsynced, the server joins.
    pub fn drain(self) -> Drained {
        let client: PrkbClient<Pred> =
            PrkbClient::connect(self.addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown acknowledged");
        Drained {
            report: self.handle.join().expect("server drained"),
        }
    }
}

/// What a drained server reports.
pub struct Drained {
    report: ServerReport<Pred, BenchOracle>,
}

impl Drained {
    pub fn frame_errors(&self) -> u64 {
        self.report.frame_errors()
    }
    pub fn busy_rejections(&self) -> u64 {
        self.report.busy_rejections()
    }
    pub fn deadline_timeouts(&self) -> u64 {
        self.report.deadline_timeouts()
    }
    pub fn dedup_hits(&self) -> u64 {
        self.report.dedup_hits()
    }

    /// `snapshot::save` of every attribute of the served engine.
    pub fn images(&self) -> Vec<(u32, Vec<u8>)> {
        self.report.inspect(|engine| {
            let mut images = Vec::new();
            engine_images(engine, &mut images);
            images
        })
    }

    /// `(attr, k, knowledge-base bytes)` of the served engine.
    pub fn shape(&self) -> Vec<(u32, usize, usize)> {
        self.report.inspect(engine_shape)
    }
}

// ---------------------------------------------------------------------------
// Counts the program already keeps
// ---------------------------------------------------------------------------

/// A copy of the program's process-wide metrics registry. The registry
/// only grows, so a phase's share is the difference of two copies.
pub struct Counts(metrics::MetricsSnapshot);

impl Counts {
    pub fn now() -> Self {
        Counts(metrics::global().snapshot())
    }

    /// Growth of counter `name` (its stable schema name) since `earlier`.
    pub fn counter_since(&self, earlier: &Counts, name: &str) -> u64 {
        let get = |c: &Counts| {
            c.0.counter(name)
                .unwrap_or_else(|| panic!("the program has no counter `{name}`"))
        };
        get(self) - get(earlier)
    }

    /// Growth of log2 histogram `name` since `earlier`: bucket 0 holds
    /// zeros, bucket `i` holds values in `[2^(i-1), 2^i)`.
    pub fn histogram_since(&self, earlier: &Counts, name: &str) -> Vec<u64> {
        let get = |c: &Counts| {
            c.0.histogram(name)
                .unwrap_or_else(|| panic!("the program has no histogram `{name}`"))
                .to_vec()
        };
        let (now, then) = (get(self), get(earlier));
        now.iter()
            .enumerate()
            .map(|(i, n)| n - then.get(i).copied().unwrap_or(0))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Micro-probes: one public function in a loop, at the sizes the workloads use
// ---------------------------------------------------------------------------

fn ns_per<T>(iters: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        std::hint::black_box(f(std::hint::black_box(i)));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `ValueCipher::decrypt_slice` on one cell — the floor under a QPF.
pub fn probe_decrypt_ns(seed: u64, iters: usize) -> f64 {
    let mut rng = Rng64::derive(seed, crate::gen::label::PROBE);
    let cipher = ValueCipher::new(MasterKey::generate(&mut rng).derive(
        KeyPurpose::ValueEncryption,
        TABLE,
        0,
    ));
    let cells: Vec<Vec<u8>> = (0..1024u64)
        .map(|v| {
            let mut buf = Vec::new();
            cipher.encrypt_into(&mut rng, v, &mut buf);
            buf
        })
        .collect();
    ns_per(iters, |i| {
        cipher
            .decrypt_slice(&cells[i % 1024])
            .expect("own ciphertext")
    })
}

/// `TrustedMachine::session` (once per oracle batch) and `QpfSession::eval`
/// (once per tuple).
pub fn probe_trusted_ns(keys: &Keys, seed: u64, iters: usize) -> (f64, f64) {
    let mut rng = Rng64::derive(seed, crate::gen::label::PROBE + 1);
    let table = keys.encrypt_table(&crate::gen::columns(seed, 1024), &mut rng);
    let tm = keys.owner.trusted_machine(TmConfig::default());
    let pred = keys.trapdoor(
        Predicate::cmp(0, ComparisonOp::Lt, crate::gen::DOMAIN / 2),
        &mut rng,
    );
    let open = ns_per(iters, |_| tm.session(&pred).is_ok());
    let session = tm.session(&pred).expect("own trapdoor");
    let eval = ns_per(iters, |i| {
        session
            .eval(table.cell(0, (i % 1024) as u32).expect("cell in range"))
            .expect("own ciphertext")
    });
    (open, eval)
}

/// `DataOwner::trapdoor` and `DataOwner::encrypt_row`, in microseconds.
pub fn probe_owner_us(keys: &Keys, seed: u64, iters: usize) -> (f64, f64) {
    let mut rng = Rng64::derive(seed, crate::gen::label::PROBE + 2);
    let trapdoor = ns_per(iters, |i| {
        keys.trapdoor(Predicate::cmp(0, ComparisonOp::Lt, i as u64), &mut rng)
    });
    let row = ns_per(iters, |i| keys.encrypt_row(&[i as u64; ATTRS], &mut rng));
    (trapdoor / 1e3, row / 1e3)
}

/// `Response::encode` / `Response::decode` per tuple and `encode_frame` +
/// `decode_frame` (CRC32 both ways) per byte, on a reply of `ids` tuples.
pub fn probe_proto_ns(ids: usize, tuples: usize) -> (f64, f64, f64) {
    let resp = Response::Selection {
        seq: 1,
        tuples: (0..ids as u32).collect(),
        stats: QueryStats::default(),
    };
    let iters = (tuples / ids.max(1)).max(4);
    let encode = ns_per(iters, |_| resp.encode());
    let payload = resp.encode();
    let decode = ns_per(iters, |_| Response::decode(&payload).expect("own payload"));
    let frame = ns_per(iters, |_| {
        let framed = encode_frame(&payload);
        decode_frame(&framed, DEFAULT_MAX_FRAME_LEN).expect("own frame")
    });
    (
        encode / ids as f64,
        decode / ids as f64,
        frame / payload.len() as f64,
    )
}
