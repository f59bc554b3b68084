//! Deterministic storage-fault injection over the [`StorageFs`] substrate.
//!
//! [`FaultFs`] wraps any inner filesystem and fails chosen operations with
//! EIO, ENOSPC, or a short write — deterministically, from a seed or
//! from a scripted list of [`IoFaultRule`]s. The durability layer never
//! knows it is being lied to; the storage-fault test suite
//! (`crates/core/tests/storage_faults.rs`) proves that every injected
//! failure yields either a clean error with the committed prefix
//! recoverable or a poisoned handle — never a lost durable ack.
//!
//! A crash is a storage fault too: [`FaultFs::crash_at`] cuts the op
//! stream at op `n` (the op tears or fails, every later op fails without
//! reaching the inner filesystem), and [`FaultFs::log`] is the op sequence a
//! clean run made — the index space the crash sweeps cut.
//!
//! Like `ChaosConfig`, a `FaultFs` is consumed *explicitly* by tests
//! (passed to `open_with_storage`) — production opens are never silently
//! armed.
//!
//! Schedule format (one rule): *match* = (`op` or any) ∧ (`path_contains`
//! or any); the rule fires on the `nth` (1-based) matching operation, and —
//! when `sticky`, modeling a full disk — on every matching operation after
//! that too.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prkb_edbms::resilience::mix;
use prkb_edbms::{StorageFile, StorageFs};

/// The storage operation classes a rule can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// `create_file` / `open_file`.
    Open,
    /// Whole-file `read` and handle `read_to_end`.
    Read,
    /// Handle `write_all` and whole-file `write`.
    Write,
    /// Handle `sync_data`.
    SyncData,
    /// Handle `sync_all`.
    SyncAll,
    /// `rename`.
    Rename,
    /// `remove_file`.
    Remove,
    /// `create_dir_all`.
    CreateDir,
    /// Directory fsync.
    SyncDir,
    /// Handle `set_len` (tail truncation).
    SetLen,
}

impl IoOp {
    /// Stable lowercase name (reports and debugging).
    pub(crate) fn name(self) -> &'static str {
        match self {
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::SyncData => "sync_data",
            IoOp::SyncAll => "sync_all",
            IoOp::Rename => "rename",
            IoOp::Remove => "remove",
            IoOp::CreateDir => "create_dir",
            IoOp::SyncDir => "sync_dir",
            IoOp::SetLen => "set_len",
        }
    }
}

/// What an injected fault looks like to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// A flat I/O error (`EIO`-style).
    Eio,
    /// Out of space (`ENOSPC`-style). With [`IoFaultRule::sticky`] this
    /// models a full disk that *stays* full.
    Enospc,
    /// A short write: a prefix of the buffer reaches the inner file, then
    /// the error surfaces. Degrades to [`IoFaultKind::Eio`] on
    /// non-write operations.
    ShortWrite,
}

/// One scripted fault: fires on the `nth` (1-based) operation matching
/// `op`/`path_contains`, and on every later match when `sticky`.
#[derive(Debug, Clone)]
pub struct IoFaultRule {
    /// Operation class to match (`None` = any).
    pub op: Option<IoOp>,
    /// Substring of the path's display form to match (`None` = any).
    pub path_contains: Option<String>,
    /// 1-based index of the matching operation that fails.
    pub nth: u64,
    /// Failure shape.
    pub kind: IoFaultKind,
    /// Keep failing every match after the `nth` (fill-quota semantics).
    pub sticky: bool,
}

impl IoFaultRule {
    /// A one-shot rule failing the `nth` operation of any class, any path.
    pub(crate) fn nth_any(nth: u64, kind: IoFaultKind) -> Self {
        IoFaultRule {
            op: None,
            path_contains: None,
            nth: nth.max(1),
            kind,
            sticky: false,
        }
    }

    fn matches(&self, op: IoOp, path: &Path) -> bool {
        self.op.is_none_or(|o| o == op)
            && self
                .path_contains
                .as_deref()
                .is_none_or(|s| path.to_string_lossy().contains(s))
    }
}

#[derive(Debug)]
struct RuleState {
    rule: IoFaultRule,
    seen: u64,
}

#[derive(Debug)]
struct FaultState {
    rules: Mutex<Vec<RuleState>>,
    injected: AtomicU64,
    log: Mutex<Vec<(IoOp, PathBuf)>>,
}

impl FaultState {
    /// Decides whether this (op, path) gets a fault; counts every rule's
    /// matches so multi-rule schedules stay deterministic.
    fn decide(&self, op: IoOp, path: &Path) -> Option<IoFaultKind> {
        let mut rules = self.rules.lock().expect("fault rules lock");
        self.log
            .lock()
            .expect("op log lock")
            .push((op, path.to_path_buf()));
        let mut fired = None;
        for r in rules.iter_mut() {
            if !r.rule.matches(op, path) {
                continue;
            }
            r.seen += 1;
            let hit = if r.rule.sticky {
                r.seen >= r.rule.nth
            } else {
                r.seen == r.rule.nth
            };
            if hit && fired.is_none() {
                fired = Some(r.rule.kind);
            }
        }
        if fired.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }
}

fn fault_error(kind: IoFaultKind, op: IoOp, path: &Path) -> io::Error {
    // `ErrorKind::StorageFull` is newer than the toolchain floor, so both
    // shapes use `Other`; the message carries the distinction.
    let what = match kind {
        IoFaultKind::Eio => "injected EIO",
        IoFaultKind::Enospc => "injected ENOSPC: no space left on device",
        IoFaultKind::ShortWrite => "injected short write",
    };
    io::Error::other(format!(
        "{what} (FaultFs, op={}, path={})",
        op.name(),
        path.display()
    ))
}

/// A fault-injecting [`StorageFs`]: deterministic EIO / ENOSPC / short
/// writes over any inner filesystem. See the module docs for the schedule
/// semantics.
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: Arc<dyn StorageFs>,
    state: Arc<FaultState>,
}

impl FaultFs {
    /// A `FaultFs` driven by an explicit rule list.
    pub fn scripted(inner: Arc<dyn StorageFs>, rules: Vec<IoFaultRule>) -> Self {
        FaultFs {
            inner,
            state: Arc::new(FaultState {
                rules: Mutex::new(
                    rules
                        .into_iter()
                        .map(|rule| RuleState { rule, seen: 0 })
                        .collect(),
                ),
                injected: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A process death at storage op `n` (0-based: an index into a clean
    /// run's [`log`](Self::log)). A handle write there tears — half the
    /// buffer lands, a strict prefix — and any other op there fails; every
    /// later op fails without reaching `inner`. (`exists`, `read_dir` and
    /// handle seeks change nothing on disk and are not counted as ops.)
    pub fn crash_at(inner: Arc<dyn StorageFs>, n: usize) -> Self {
        let nth = n as u64 + 1;
        let after = IoFaultRule {
            sticky: true,
            ..IoFaultRule::nth_any(nth + 1, IoFaultKind::Eio)
        };
        Self::scripted(
            inner,
            vec![IoFaultRule::nth_any(nth, IoFaultKind::ShortWrite), after],
        )
    }

    /// Every storage op this filesystem (and its clones and open handles)
    /// has been asked for, failed ones included, in call order.
    pub fn log(&self) -> Vec<(IoOp, PathBuf)> {
        self.state.log.lock().expect("op log lock").clone()
    }

    /// A one-shot seeded fault: fails the Nth storage operation overall
    /// (N ∈ [1, 48]) with a seed-chosen kind. Same seed ⇒ same schedule;
    /// the storage-fault sweeps loop over seeds.
    pub fn seeded(inner: Arc<dyn StorageFs>, seed: u64) -> Self {
        let nth = 1 + mix(seed) % 48;
        let kind = match mix(seed ^ 0x0010_57FA_u64) % 3 {
            0 => IoFaultKind::Eio,
            1 => IoFaultKind::Enospc,
            _ => IoFaultKind::ShortWrite,
        };
        Self::scripted(inner, vec![IoFaultRule::nth_any(nth, kind)])
    }

    /// Faults injected so far (all rules, all clones).
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// This filesystem as a shareable trait handle.
    pub fn handle(&self) -> Arc<dyn StorageFs> {
        Arc::new(self.clone())
    }

    fn check(&self, op: IoOp, path: &Path) -> io::Result<()> {
        match self.state.decide(op, path) {
            Some(kind) => Err(fault_error(kind, op, path)),
            None => Ok(()),
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn StorageFile>,
    path: PathBuf,
    state: Arc<FaultState>,
}

impl FaultFile {
    fn check(&self, op: IoOp) -> Result<Option<IoFaultKind>, io::Error> {
        match self.state.decide(op, &self.path) {
            Some(IoFaultKind::ShortWrite) if op == IoOp::Write => Ok(Some(IoFaultKind::ShortWrite)),
            Some(kind) => Err(fault_error(kind, op, &self.path)),
            None => Ok(None),
        }
    }
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(kind) = self.check(IoOp::Write)? {
            // Short write: half the buffer lands, then the error surfaces —
            // the torn-frame shape recovery must classify as a torn tail.
            let torn = buf.len() / 2;
            self.inner.write_all(&buf[..torn])?;
            return Err(fault_error(kind, IoOp::Write, &self.path));
        }
        self.inner.write_all(buf)
    }
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.check(IoOp::Read)?;
        self.inner.read_to_end(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.check(IoOp::SyncData)?;
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.check(IoOp::SyncAll)?;
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.check(IoOp::SetLen)?;
        self.inner.set_len(len)
    }
    fn seek_start(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_start(pos)
    }
}

impl StorageFs for FaultFs {
    fn create_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.check(IoOp::Open, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create_file(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }
    fn open_file(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.check(IoOp::Open, path)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_file(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check(IoOp::Read, path)?;
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check(IoOp::Write, path)?;
        self.inner.write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(IoOp::Rename, from)?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(IoOp::Remove, path)?;
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check(IoOp::CreateDir, path)?;
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.check(IoOp::SyncDir, dir)?;
        self.inner.sync_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::real_fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-faultfs-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultFs::seeded(real_fs(), 7);
        let b = FaultFs::seeded(real_fs(), 7);
        let ra = a.state.rules.lock().unwrap();
        let rb = b.state.rules.lock().unwrap();
        assert_eq!(ra[0].rule.nth, rb[0].rule.nth);
        assert_eq!(ra[0].rule.kind, rb[0].rule.kind);
        assert!((1..=48).contains(&ra[0].rule.nth));
    }

    #[test]
    fn nth_rule_fires_exactly_once_and_counts() {
        let dir = tmpdir("nth");
        let fs = FaultFs::scripted(
            real_fs(),
            vec![IoFaultRule {
                op: Some(IoOp::SyncAll),
                path_contains: None,
                nth: 2,
                kind: IoFaultKind::Eio,
                sticky: false,
            }],
        );
        let p = dir.join("f.bin");
        let mut f = fs.create_file(&p).expect("create");
        f.write_all(b"x").expect("write");
        f.sync_all().expect("first sync passes");
        let err = f.sync_all().expect_err("second sync fails");
        assert!(err.to_string().contains("injected EIO"), "{err}");
        f.sync_all().expect("non-sticky: third sync passes");
        assert_eq!(fs.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sticky_enospc_keeps_failing_and_filters_by_path() {
        let dir = tmpdir("sticky");
        let fs = FaultFs::scripted(
            real_fs(),
            vec![IoFaultRule {
                op: None,
                path_contains: Some("doomed".into()),
                nth: 1,
                kind: IoFaultKind::Enospc,
                sticky: true,
            }],
        );
        fs.write(&dir.join("fine.bin"), b"ok")
            .expect("unmatched path untouched");
        let doomed = dir.join("doomed.bin");
        assert!(fs.write(&doomed, b"a").is_err());
        assert!(fs.create_file(&doomed).is_err(), "sticky: still failing");
        assert!(fs.injected() >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_leaves_a_prefix() {
        let dir = tmpdir("short");
        let fs = FaultFs::scripted(
            real_fs(),
            vec![IoFaultRule {
                op: Some(IoOp::Write),
                path_contains: None,
                nth: 1,
                kind: IoFaultKind::ShortWrite,
                sticky: false,
            }],
        );
        let p = dir.join("f.bin");
        let mut f = fs.create_file(&p).expect("create");
        let err = f.write_all(&[7u8; 10]).expect_err("short write");
        assert!(err.to_string().contains("short write"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(&p).expect("read").len(), 5, "half landed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_tears_its_write_to_a_strict_nonempty_prefix() {
        let dir = tmpdir("crash-tear");
        let p = dir.join("f.bin");
        // Op 0 opens the file, op 1 is its first write.
        let fs = FaultFs::crash_at(real_fs(), 1);
        let mut f = fs.create_file(&p).expect("op 0 is before the cut");
        let image: Vec<u8> = (0..=9u8).collect();
        f.write_all(&image).expect_err("op 1 is the cut");
        drop(f);
        let torn = std::fs::read(&p).expect("read");
        assert!(!torn.is_empty() && torn.len() < image.len(), "{torn:?}");
        assert_eq!(torn, image[..torn.len()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_op_after_the_crash_reaches_the_inner_fs() {
        let dir = tmpdir("crash-after");
        let (a, b, c) = (dir.join("a.bin"), dir.join("b.bin"), dir.join("c.bin"));
        std::fs::write(&a, b"kept").expect("seed");
        // Op 0 opens a handle; op 1 (a sync_dir) is the cut: not a write,
        // so it just fails.
        let fs = FaultFs::crash_at(real_fs(), 1);
        let mut open = fs.create_file(&c).expect("op 0 is before the cut");
        assert!(fs.sync_dir(&dir).is_err());
        assert!(open.write_all(b"late").is_err(), "no byte through a handle");
        assert!(open.sync_all().is_err());
        drop(open);
        assert_eq!(std::fs::read(&c).expect("c exists").len(), 0);
        assert!(fs.create_file(&b).is_err(), "no file");
        assert!(fs.write(&b, b"x").is_err(), "no byte");
        assert!(fs.rename(&a, &b).is_err(), "no rename");
        assert!(fs.remove_file(&a).is_err(), "no unlink");
        assert!(fs.read(&a).is_err());
        assert_eq!(std::fs::read(&a).expect("a untouched"), b"kept");
        assert!(!b.exists());
        assert_eq!(fs.injected(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_lists_every_op_in_call_order() {
        let dir = tmpdir("log");
        let (a, b) = (dir.join("a.bin"), dir.join("b.bin"));
        let fs = FaultFs::scripted(real_fs(), Vec::new());
        let mut f = fs.clone().create_file(&a).expect("create");
        f.write_all(b"x").expect("write");
        f.sync_all().expect("sync");
        drop(f);
        fs.rename(&a, &b).expect("rename");
        fs.sync_dir(&dir).expect("sync_dir");
        assert!(
            fs.remove_file(&a).is_err(),
            "gone: a failed op is logged too"
        );
        let want = [
            (IoOp::Open, &a),
            (IoOp::Write, &a),
            (IoOp::SyncAll, &a),
            (IoOp::Rename, &a),
            (IoOp::SyncDir, &dir),
            (IoOp::Remove, &a),
        ];
        let want: Vec<(IoOp, PathBuf)> = want.iter().map(|(o, p)| (*o, p.to_path_buf())).collect();
        assert_eq!(fs.log(), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
