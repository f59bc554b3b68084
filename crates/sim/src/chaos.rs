//! Deterministic network-chaos harness: seeded fault injection at frame
//! boundaries.
//!
//! The resilience claims of `prkb-server` — idempotent retries, BUSY
//! shedding, deadline budgets — are only worth something if they survive a
//! hostile network. This module makes the hostile network *reproducible*:
//! every fault decision is a pure function of a seed and a global event
//! counter (via [`prkb_edbms::resilience::mix`]), so a failing schedule
//! replays exactly from its seed.
//!
//! Faults are injected at *frame* granularity by `ChaosStream`, either
//! wrapped directly around a client socket or inside [`ChaosProxy`] — an
//! in-process TCP proxy that sits between a real [`prkb_server::PrkbClient`]
//! and a real server, relaying whole `prkb-wire/v3` frames and deciding per
//! frame to forward, stall, trickle one byte at a time, corrupt a byte,
//! truncate mid-frame, write a partial prefix, or drop the connection
//! outright.
//!
//! Two properties keep seeded schedules from being degenerate:
//!
//! * **Corruption never touches the length field.** A flipped length byte
//!   would make the receiver wait for bytes that never come (a stall until
//!   the idle deadline, not a CRC failure); flipping only CRC/payload
//!   bytes guarantees the receiver detects the damage on the very next
//!   frame boundary.
//! * **Forced clean windows.** After [`ChaosConfig::max_consecutive`]
//!   consecutive destructive faults the plan owes four clean forwards —
//!   enough for one leftover error frame, a retried request, and its
//!   response. A seeded schedule can therefore harass every retry, but
//!   never starve a client with a sane retry budget forever.

use prkb_edbms::resilience::mix;
use prkb_server::wire::{
    encode_frame, FrameReader, ReadStep, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN,
};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What to do with one relayed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Relay the frame untouched.
    Forward,
    /// Relay after a fixed stall (exercises read timeouts, not data loss).
    Stall,
    /// Relay the frame one byte at a time with a short sleep between
    /// bytes: the receiver sits mid-frame (Stalled) for the whole
    /// transfer but keeps making byte progress, so its *stall* deadline
    /// resets while its *idle* deadline would long have fired. Scripted
    /// schedules only — non-destructive, frame arrives intact.
    Trickle,
    /// Flip one CRC/payload byte (never the length field), then close:
    /// the receiver sees a CRC failure at the frame boundary.
    Corrupt {
        /// Non-zero XOR mask; also picks the flipped offset.
        salt: u8,
    },
    /// Write only the 8-byte frame header, then close: the receiver sees
    /// a truncated frame.
    Truncate,
    /// Write an arbitrary prefix of the encoded frame, then close.
    PartialWrite,
    /// Write nothing and close the connection.
    Drop,
}

impl FaultAction {
    /// Destructive actions lose the frame and force a reconnect;
    /// `Forward`, `Stall`, and `Trickle` deliver the frame intact.
    fn destructive(self) -> bool {
        !matches!(
            self,
            FaultAction::Forward | FaultAction::Stall | FaultAction::Trickle
        )
    }
}

/// Per-mille fault rates plus the determinism knobs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Schedule seed: same seed, same workload → same fault schedule.
    pub seed: u64,
    /// ‰ of frames dropped with the connection.
    pub drop_per_mille: u16,
    /// ‰ of frames with one flipped CRC/payload byte.
    pub corrupt_per_mille: u16,
    /// ‰ of frames cut after the header.
    pub truncate_per_mille: u16,
    /// ‰ of frames cut at an arbitrary prefix.
    pub partial_per_mille: u16,
    /// ‰ of frames delayed by [`stall`](Self::stall) before forwarding.
    pub stall_per_mille: u16,
    /// The stall duration (keep well under the client read timeout).
    pub stall: Duration,
    /// Destructive faults allowed in a row before the plan owes clean
    /// forwards (clamped to at least 1).
    pub max_consecutive: u32,
}

impl ChaosConfig {
    /// No faults at all — the baseline schedule.
    pub fn clean(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            partial_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
            max_consecutive: 1,
        }
    }

    /// An aggressive-but-survivable mix: roughly one frame in four is
    /// disrupted, yet the forced clean windows keep every retrying client
    /// convergent.
    pub fn retryable(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 70,
            corrupt_per_mille: 60,
            truncate_per_mille: 50,
            partial_per_mille: 50,
            stall_per_mille: 60,
            stall: Duration::from_millis(5),
            max_consecutive: 2,
        }
    }
}

enum Schedule {
    /// Derived from the seed and the global event counter.
    Seeded(ChaosConfig),
    /// An explicit action list (tests scripting exact schedules); empty →
    /// Forward.
    Scripted(VecDeque<FaultAction>),
}

struct PlanState {
    schedule: Schedule,
    /// Events decided so far — the deterministic clock.
    events: u64,
    /// Destructive decisions in a row.
    consecutive: u32,
    /// Clean forwards still owed after a destructive burst.
    cleans_owed: u32,
}

/// A shared, deterministic fault schedule (see module docs). One plan is
/// shared by both relay directions of a [`ChaosProxy`], so the decision
/// sequence is a single global order — deterministic for the lockstep
/// request/response alternation of a single client.
pub struct FaultPlan {
    state: Mutex<PlanState>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A seeded plan.
    pub fn seeded(config: ChaosConfig) -> Self {
        FaultPlan {
            state: Mutex::new(PlanState {
                schedule: Schedule::Seeded(config),
                events: 0,
                consecutive: 0,
                cleans_owed: 0,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// An explicit schedule: actions are consumed in order, then Forward.
    pub fn scripted(actions: impl IntoIterator<Item = FaultAction>) -> Self {
        FaultPlan {
            state: Mutex::new(PlanState {
                schedule: Schedule::Scripted(actions.into_iter().collect()),
                events: 0,
                consecutive: 0,
                cleans_owed: 0,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// Faults injected so far (everything except plain forwards).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decides the fate of the next frame.
    pub(crate) fn next(&self) -> FaultAction {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let st = &mut *guard;
        let event = st.events;
        st.events += 1;

        let action = match &mut st.schedule {
            Schedule::Scripted(actions) => actions.pop_front().unwrap_or(FaultAction::Forward),
            Schedule::Seeded(cfg) => {
                if st.cleans_owed > 0 {
                    st.cleans_owed -= 1;
                    FaultAction::Forward
                } else {
                    let r = mix(cfg.seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let roll = (r % 1000) as u16;
                    let salt = ((r >> 10) as u8) | 1;
                    let ladder = [
                        (cfg.drop_per_mille, FaultAction::Drop),
                        (cfg.corrupt_per_mille, FaultAction::Corrupt { salt }),
                        (cfg.truncate_per_mille, FaultAction::Truncate),
                        (cfg.partial_per_mille, FaultAction::PartialWrite),
                        (cfg.stall_per_mille, FaultAction::Stall),
                    ];
                    let mut acc = 0u16;
                    let mut chosen = FaultAction::Forward;
                    for (rate, candidate) in ladder {
                        acc = acc.saturating_add(rate);
                        if roll < acc {
                            chosen = candidate;
                            break;
                        }
                    }
                    chosen
                }
            }
        };

        if action.destructive() {
            st.consecutive += 1;
            let cap = match &st.schedule {
                Schedule::Seeded(cfg) => cfg.max_consecutive.max(1),
                Schedule::Scripted(_) => u32::MAX,
            };
            if st.consecutive >= cap {
                // One leftover error frame + the retried request + its
                // response + one spare: enough for the retry to land.
                st.cleans_owed = 4;
                st.consecutive = 0;
            }
        } else {
            st.consecutive = 0;
        }
        if action != FaultAction::Forward {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        action
    }
}

/// A writer that applies one [`FaultPlan`] decision per forwarded frame.
pub(crate) struct ChaosStream<S: Write> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: Write> ChaosStream<S> {
    /// Wraps `inner`; every [`forward_frame`](Self::forward_frame) call
    /// consults `plan`.
    pub(crate) fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        ChaosStream { inner, plan }
    }

    /// The wrapped writer.
    pub(crate) fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Writes one frame under the plan's next decision. Returns `Ok(true)`
    /// when the fault calls for closing the connection afterwards.
    ///
    /// # Errors
    /// Propagated from the underlying writer.
    pub(crate) fn forward_frame(&mut self, payload: &[u8]) -> io::Result<bool> {
        let mut frame = encode_frame(payload);
        match self.plan.next() {
            FaultAction::Forward => {
                self.inner.write_all(&frame)?;
                self.inner.flush()?;
                Ok(false)
            }
            FaultAction::Stall => {
                let stall = {
                    let st = match self.plan.state.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    match &st.schedule {
                        Schedule::Seeded(cfg) => cfg.stall,
                        Schedule::Scripted(_) => Duration::from_millis(5),
                    }
                };
                thread::sleep(stall);
                self.inner.write_all(&frame)?;
                self.inner.flush()?;
                Ok(false)
            }
            FaultAction::Trickle => {
                // One byte per tick: the receiver stays mid-frame (its
                // stall clock resetting on every byte) far longer than a
                // short idle deadline, yet the frame arrives intact.
                for byte in &frame {
                    self.inner.write_all(std::slice::from_ref(byte))?;
                    self.inner.flush()?;
                    thread::sleep(Duration::from_millis(5));
                }
                Ok(false)
            }
            FaultAction::Corrupt { salt } => {
                // Flip a CRC or payload byte — never offsets 0..4 (the
                // length field), so the receiver fails the CRC check
                // instead of stalling on a phantom length.
                let off = 4 + (salt as usize % (frame.len() - 4));
                frame[off] ^= salt;
                self.inner.write_all(&frame)?;
                self.inner.flush()?;
                Ok(true)
            }
            FaultAction::Truncate => {
                self.inner.write_all(&frame[..FRAME_HEADER_LEN])?;
                self.inner.flush()?;
                Ok(true)
            }
            FaultAction::PartialWrite => {
                // At least one byte, never the whole frame.
                let cut = 1 + (payload.len() % (frame.len() - 1));
                self.inner.write_all(&frame[..cut])?;
                self.inner.flush()?;
                Ok(true)
            }
            FaultAction::Drop => Ok(true),
        }
    }
}

/// In-process fault-injecting TCP proxy (see module docs).
///
/// Accepts on its own ephemeral port, relays whole frames to `upstream`,
/// and injects the plan's faults in *both* directions. A faulted
/// connection is closed on both sides; a retrying client reconnects
/// through the same proxy and the schedule marches on.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Spawns the proxy in front of `upstream`.
    ///
    /// # Errors
    /// Socket bind failure.
    pub fn spawn(upstream: SocketAddr, plan: Arc<FaultPlan>) -> io::Result<Self> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("prkb-chaos-accept".into())
                .spawn(move || {
                    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                match TcpStream::connect_timeout(&upstream, Duration::from_secs(5))
                                {
                                    Ok(server) => {
                                        let _ = client.set_nonblocking(false);
                                        pumps.extend(relay_pair(
                                            client,
                                            server,
                                            Arc::clone(&plan),
                                            Arc::clone(&stop),
                                        ));
                                    }
                                    Err(_) => {
                                        let _ = client.shutdown(Shutdown::Both);
                                    }
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    for p in pumps {
                        let _ = p.join();
                    }
                })
                .expect("spawn chaos accept thread")
        };

        Ok(ChaosProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every relay thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawns the two pump threads for one proxied connection. Each pump owns
/// one direction; a destructive fault (or EOF, or a frame error from a
/// *previously* corrupted stream) shuts both sockets down so client and
/// server observe the disconnect promptly.
fn relay_pair(
    client: TcpStream,
    server: TcpStream,
    plan: Arc<FaultPlan>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut handles = Vec::with_capacity(2);
    let pairs = [
        ("prkb-chaos-c2s", client.try_clone(), server.try_clone()),
        ("prkb-chaos-s2c", server.try_clone(), client.try_clone()),
    ];
    // Keep the originals alive inside the closures via the clones; drop
    // them here so pump exits fully close the sockets.
    drop(client);
    drop(server);
    for (name, src, dst) in pairs {
        let (Ok(src), Ok(dst)) = (src, dst) else {
            continue;
        };
        let plan = Arc::clone(&plan);
        let stop = Arc::clone(&stop);
        if let Ok(h) = thread::Builder::new().name(name.into()).spawn(move || {
            pump(src, dst, plan, stop);
        }) {
            handles.push(h);
        }
    }
    handles
}

fn pump(mut src: TcpStream, dst: TcpStream, plan: Arc<FaultPlan>, stop: Arc<AtomicBool>) {
    if src
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut out = ChaosStream::new(dst, plan);
    let mut reader = FrameReader::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll(&mut src, DEFAULT_MAX_FRAME_LEN) {
            Ok(ReadStep::Frame { payload, .. }) => match out.forward_frame(payload) {
                Ok(false) => {}
                Ok(true) | Err(_) => break,
            },
            Ok(ReadStep::Idle) | Ok(ReadStep::Stalled) => {}
            Ok(ReadStep::Closed) | Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = out.get_mut().shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_converge() {
        for seed in [1u64, 2, 3, 4, 0xDEAD] {
            let a = FaultPlan::seeded(ChaosConfig::retryable(seed));
            let b = FaultPlan::seeded(ChaosConfig::retryable(seed));
            let run_a: Vec<FaultAction> = (0..500).map(|_| a.next()).collect();
            let run_b: Vec<FaultAction> = (0..500).map(|_| b.next()).collect();
            assert_eq!(run_a, run_b, "same seed, same schedule");

            // Never more than max_consecutive destructive decisions in a
            // row, and every destructive burst is followed by 4 forwards.
            let mut consecutive = 0u32;
            for (i, action) in run_a.iter().enumerate() {
                if action.destructive() {
                    consecutive += 1;
                    assert!(consecutive <= 2, "burst too long at event {i}");
                    if consecutive == 2 {
                        let window = &run_a[i + 1..(i + 5).min(run_a.len())];
                        assert!(
                            window.iter().all(|a| *a == FaultAction::Forward),
                            "no clean window after burst at event {i}: {window:?}"
                        );
                    }
                } else {
                    consecutive = 0;
                }
            }
            assert!(a.injected() > 0, "retryable schedule must inject");
        }
    }

    #[test]
    fn clean_config_never_injects() {
        let plan = FaultPlan::seeded(ChaosConfig::clean(7));
        for _ in 0..200 {
            assert_eq!(plan.next(), FaultAction::Forward);
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn scripted_plan_runs_in_order_then_forwards() {
        let plan = FaultPlan::scripted([FaultAction::Drop, FaultAction::Truncate]);
        assert_eq!(plan.next(), FaultAction::Drop);
        assert_eq!(plan.next(), FaultAction::Truncate);
        assert_eq!(plan.next(), FaultAction::Forward);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn chaos_stream_faults_damage_the_frame_but_never_the_length() {
        let payload = vec![7u8; 32];
        let clean = encode_frame(&payload);

        let plan = Arc::new(FaultPlan::scripted([FaultAction::Corrupt { salt: 0x55 }]));
        let mut out = ChaosStream::new(Vec::new(), Arc::clone(&plan));
        assert!(
            out.forward_frame(&payload).expect("buffer write"),
            "corrupt closes"
        );
        let written = out.inner;
        assert_eq!(written.len(), clean.len());
        assert_eq!(&written[..4], &clean[..4], "length field untouched");
        assert_ne!(written, clean, "one byte flipped");

        let plan = Arc::new(FaultPlan::scripted([FaultAction::Truncate]));
        let mut out = ChaosStream::new(Vec::new(), plan);
        assert!(out.forward_frame(&payload).expect("buffer write"));
        assert_eq!(out.inner.len(), FRAME_HEADER_LEN);

        let plan = Arc::new(FaultPlan::scripted([FaultAction::Drop]));
        let mut out = ChaosStream::new(Vec::new(), plan);
        assert!(out.forward_frame(&payload).expect("buffer write"));
        assert!(out.inner.is_empty());
    }
}
