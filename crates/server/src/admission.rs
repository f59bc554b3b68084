//! Admission control and exactly-once replay: the server-side half of the
//! resilience boundary.
//!
//! Two independent mechanisms live here:
//!
//! * [`AdmissionGate`] — a bounded connection-slot counter kept beside the
//!   reactor's connection slab, under the same lock. The server thread
//!   that accepts a socket offers it to the gate; when all slots are taken
//!   the connection is *shed* with a best-effort [`code::BUSY`] error
//!   frame and closed, instead of parking in an unbounded backlog.
//!   Overload therefore degrades into fast, explicit rejections the client
//!   can back off on — never into silently growing latency or hung
//!   accepts. The slot count is `threads + queue` (the server threads plus
//!   [`ServerConfig::queue`](crate::ServerConfig) more slots).
//!
//! * [`DedupWindow`] — a bounded request-id → response memo that makes
//!   retried mutations idempotent. A client that loses its connection
//!   after sending `Insert`/`Delete` cannot know whether the commit
//!   happened; it retries with the *same* request id, and the window
//!   replays the stored response frame (byte-identical, original commit
//!   sequence number included) instead of committing twice. The window is
//!   server-global, so replay works across reconnects, and FIFO-bounded —
//!   by entries and by the bytes those entries pin — sized to cover a
//!   client's retry horizon rather than all history.
//!
//! The in-flight case is handled, not raced: while a request id is being
//! executed, a duplicate arrival parks on a condvar until the first
//! execution either completes (then replays) or aborts (then re-executes).
//! Abort is a drop-guard ([`ExecuteClaim`]): a request that errors or
//! panics mid-execution never wedges the id.

use crate::proto::{code, Response};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Completed responses the dedup window remembers — a retry horizon, not
/// all history.
pub(crate) const DEDUP_WINDOW: usize = 1024;

/// Write budget: a peer that stops reading keeps its unflushed response (or
/// its BUSY frame) at most this long before the connection is dropped.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What became of an offered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// A slot was taken; the connection is admitted until released.
    Admitted,
    /// All slots taken: the peer should get a best-effort BUSY frame and
    /// be closed.
    Shed,
}

/// Bounded connection-slot gate (see module docs). It lives under the
/// reactor's slab lock — admitting and releasing happen only there — so
/// plain counters suffice.
pub(crate) struct AdmissionGate {
    capacity: usize,
    active: usize,
}

impl AdmissionGate {
    /// A gate with `capacity` connection slots (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        AdmissionGate {
            capacity: capacity.max(1),
            active: 0,
        }
    }

    /// Claims a slot for one accepted connection, shedding on overflow.
    pub(crate) fn offer(&mut self) -> Admit {
        if self.active < self.capacity {
            self.active += 1;
            Admit::Admitted
        } else {
            Admit::Shed
        }
    }

    /// Returns the slot of a closed connection.
    pub(crate) fn release(&mut self) {
        debug_assert!(self.active > 0, "release without matching offer");
        self.active = self.active.saturating_sub(1);
    }
}

/// Tells the shed peer why it was turned away, best effort, then closes.
/// Runs on the still-blocking just-accepted socket, bounded by the write
/// timeout so a dead peer holds the accepting thread no longer than that.
pub(crate) fn shed_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let frame = Response::Error {
        code: code::BUSY,
        message: "server at capacity; retry with backoff".into(),
    }
    .encode_framed();
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

enum Entry {
    /// A server thread is executing this request id right now.
    Pending,
    /// Executed: the exact framed [`Response`] that was (or would have
    /// been) written back — the buffer the reply was written from, shared.
    Done(Arc<Vec<u8>>),
}

#[derive(Default)]
struct DedupState {
    entries: HashMap<u64, Entry>,
    /// Completed ids in completion order — the FIFO eviction queue.
    /// Pending ids are *not* here: an in-flight request is never evicted
    /// (in-flight count is bounded by the server threads anyway).
    order: VecDeque<u64>,
    /// Bytes held by the `Done` frames.
    bytes: usize,
}

/// Reply bytes the window may pin per slot of capacity. Ordinary replies
/// (insert/delete acks, narrow selections) are far smaller, so the entry
/// bound is what they meet; a stream of 120 KB selections meets this one
/// first and keeps its last few dozen instead of its last thousand.
const DEDUP_BYTES_PER_SLOT: usize = 4096;

/// Bounded request-id → response memo for idempotent retries (module docs).
pub(crate) struct DedupWindow {
    state: Mutex<DedupState>,
    cv: Condvar,
    capacity: usize,
}

/// The window's verdict on one arriving request id.
pub(crate) enum DedupClaim<'a> {
    /// Request id 0 — the client opted out of tracking.
    Untracked,
    /// Already executed: write this exact response frame back, do not
    /// re-execute.
    Replay(Arc<Vec<u8>>),
    /// First arrival (or the prior attempt aborted): execute, then either
    /// [`ExecuteClaim::complete`] or drop to release the id.
    Execute(ExecuteClaim<'a>),
}

/// Exclusive license to execute one tracked request id.
///
/// Dropping without [`complete`](Self::complete) aborts: the id is
/// released so a retry re-executes — this is what keeps a panic or an
/// error mid-request from wedging the id forever.
pub(crate) struct ExecuteClaim<'a> {
    window: &'a DedupWindow,
    rid: u64,
    done: bool,
}

impl DedupWindow {
    /// A window remembering the last `capacity` completed responses
    /// (clamped to at least 1), or as many of the latest as fit in
    /// `capacity` × 4 KiB — whichever is fewer, but always the newest.
    pub(crate) fn new(capacity: usize) -> Self {
        DedupWindow {
            state: Mutex::new(DedupState::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, DedupState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims `rid`: replay if already executed, wait if in flight,
    /// execute if new.
    pub(crate) fn begin(&self, rid: u64) -> DedupClaim<'_> {
        if rid == 0 {
            return DedupClaim::Untracked;
        }
        let mut st = self.lock();
        loop {
            match st.entries.get(&rid) {
                Some(Entry::Done(bytes)) => return DedupClaim::Replay(Arc::clone(bytes)),
                Some(Entry::Pending) => {
                    st = match self.cv.wait(st) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => {
                    st.entries.insert(rid, Entry::Pending);
                    return DedupClaim::Execute(ExecuteClaim {
                        window: self,
                        rid,
                        done: false,
                    });
                }
            }
        }
    }
}

impl ExecuteClaim<'_> {
    /// Records the response frame for replay and releases waiters.
    pub(crate) fn complete(mut self, frame: Arc<Vec<u8>>) {
        self.done = true;
        let mut st = self.window.lock();
        st.bytes += frame.len();
        st.entries.insert(self.rid, Entry::Done(frame));
        st.order.push_back(self.rid);
        // FIFO-evict while over either bound. Pending ids are not in
        // `order`, and the entry just recorded is never evicted: a retry
        // of the latest request replays whatever its size.
        let capacity = self.window.capacity;
        while st.order.len() > capacity
            || (st.bytes > capacity * DEDUP_BYTES_PER_SLOT && st.order.len() > 1)
        {
            let old = st.order.pop_front().expect("order is non-empty");
            if let Some(Entry::Done(frame)) = st.entries.remove(&old) {
                st.bytes -= frame.len();
            }
        }
        drop(st);
        self.window.cv.notify_all();
    }
}

impl Drop for ExecuteClaim<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let mut st = self.window.lock();
        st.entries.remove(&self.rid);
        drop(st);
        self.window.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn gate_admits_to_capacity_then_sheds() {
        let mut gate = AdmissionGate::new(2);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
        assert_eq!(gate.active, 2);

        // A released slot is immediately reusable.
        gate.release();
        assert_eq!(gate.active, 1);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
        assert_eq!(gate.capacity, 2);
    }

    #[test]
    fn gate_capacity_clamps_to_one() {
        let mut gate = AdmissionGate::new(0);
        assert_eq!(gate.capacity, 1);
        assert_eq!(gate.offer(), Admit::Admitted);
        assert_eq!(gate.offer(), Admit::Shed);
    }

    #[test]
    fn dedup_replays_completed_and_releases_aborted() {
        let window = DedupWindow::new(8);

        // First arrival executes.
        let DedupClaim::Execute(claim) = window.begin(7) else {
            panic!("fresh id must execute");
        };
        claim.complete(Arc::new(vec![1, 2, 3]));

        // Retry replays the exact bytes.
        match window.begin(7) {
            DedupClaim::Replay(bytes) => assert_eq!(*bytes, vec![1, 2, 3]),
            _ => panic!("completed id must replay"),
        }

        // An aborted claim (dropped without complete) releases the id.
        let DedupClaim::Execute(claim) = window.begin(8) else {
            panic!("fresh id must execute");
        };
        drop(claim);
        assert!(matches!(window.begin(8), DedupClaim::Execute(_)));

        // Id 0 is never tracked.
        assert!(matches!(window.begin(0), DedupClaim::Untracked));
    }

    #[test]
    fn dedup_window_evicts_fifo() {
        let window = DedupWindow::new(2);
        for rid in 1..=3u64 {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::new(vec![rid as u8]));
        }
        // rid 1 fell out of the window: a retry re-executes (and, in the
        // real server, re-commits — the window only covers the retry
        // horizon it is sized for).
        assert!(matches!(window.begin(1), DedupClaim::Execute(_)));
        assert!(matches!(window.begin(3), DedupClaim::Replay(_)));
    }

    #[test]
    fn dedup_window_is_bounded_by_bytes_but_keeps_the_newest() {
        // 8 slots → 32 KiB budget: two 20 KiB replies do not both fit.
        let window = DedupWindow::new(8);
        let big = Arc::new(vec![0xAB; 20 * 1024]);
        for rid in 1..=5u64 {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::clone(&big));
            assert_eq!(window.lock().bytes, big.len(), "after rid {rid}");
            // The latest request's retry replays; the one before it fell out.
            assert!(matches!(window.begin(rid), DedupClaim::Replay(_)));
            if rid > 1 {
                assert!(matches!(window.begin(rid - 1), DedupClaim::Execute(_)));
            }
        }
        // A reply larger than the whole budget is still kept while newest…
        let DedupClaim::Execute(claim) = window.begin(10) else {
            panic!("fresh id must execute");
        };
        claim.complete(Arc::new(vec![0; 100 * 1024]));
        assert!(matches!(window.begin(10), DedupClaim::Replay(_)));
        // …and small replies still fill the window by entries.
        for rid in 20..28u64 {
            let DedupClaim::Execute(claim) = window.begin(rid) else {
                panic!("fresh id must execute");
            };
            claim.complete(Arc::new(vec![1; 64]));
        }
        assert!(matches!(window.begin(10), DedupClaim::Execute(_)));
        for rid in 20..28u64 {
            assert!(matches!(window.begin(rid), DedupClaim::Replay(_)), "{rid}");
        }
        assert_eq!(window.lock().bytes, 8 * 64);
    }

    #[test]
    fn duplicate_waits_for_inflight_then_replays() {
        let window = Arc::new(DedupWindow::new(4));
        let DedupClaim::Execute(claim) = window.begin(42) else {
            panic!("fresh id must execute");
        };

        let w = Arc::clone(&window);
        let (tx, rx) = mpsc::channel();
        let dup = std::thread::spawn(move || {
            tx.send(()).expect("signal started");
            match w.begin(42) {
                DedupClaim::Replay(bytes) => (*bytes).clone(),
                _ => panic!("duplicate of completed id must replay"),
            }
        });
        rx.recv().expect("duplicate thread started");
        // Give the duplicate a moment to park on the condvar.
        std::thread::sleep(Duration::from_millis(20));
        claim.complete(Arc::new(vec![9]));
        assert_eq!(dup.join().expect("no panic"), vec![9]);
    }
}
