//! Thin epoll + eventfd wrapper — the crate's only unsafe module.
//!
//! The server threads ([`crate::reactor`]) need exactly four kernel
//! facilities: create an epoll instance, register/re-arm/remove interest,
//! wait for readiness, and a cross-thread wake primitive. All four are one
//! syscall each on Linux, so this module declares them directly (`extern
//! "C"` against the libc the std runtime already links) instead of pulling
//! in a dependency. Everything above this module is `#![deny(unsafe_code)]`
//! clean; everything in it is a direct, argument-checked syscall shim.
//!
//! Design notes:
//!
//! * **One-shot sockets, one event per wait.** Every server thread waits
//!   on the same instance. A socket is registered `EPOLLONESHOT`, so one
//!   readiness report reaches exactly one thread and disarms the socket
//!   until that thread re-arms it; [`Poller::wait`] hands out at most one
//!   event, so a thread never holds a second socket's report while it
//!   serves the first.
//! * **The waker is a level-triggered `eventfd`**: once left readable, it
//!   reaches every thread in turn — that is how a drained server tells all
//!   of its threads to exit. An eventfd, not a pipe: one fd instead of
//!   two, a single 8-byte counter the kernel coalesces for us, and a read
//!   drains every pending wake at once.
//! * **Tokens are plain `u64`s** stored in `epoll_data`; the caller owns
//!   the meaning (the reactor packs a slab index and a generation, plus
//!   two sentinels).
#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// Stable Linux ABI constants (asm-generic; identical on x86_64/aarch64).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// `struct epoll_event` — packed on x86_64 (the one ABI quirk worth a
/// comment: the kernel declares it `__attribute__((packed))` there so the
/// 32-bit `events` field is not padded before the 64-bit data union).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or a peer half-close — data may still be buffered).
    pub readable: bool,
    /// Error or hangup: the fd is beyond use once any buffered data is
    /// drained.
    pub hangup: bool,
}

/// An epoll instance. Closed on drop via [`OwnedFd`].
pub(crate) struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        // Peer half-close is read interest: a socket that stopped reading
        // must not keep reporting it.
        let mut events = EPOLLONESHOT;
        if readable {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if writable {
            events |= EPOLLOUT;
        }
        events
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token`, armed for one readiness report.
    pub(crate) fn add(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
    }

    /// Re-arms an already-registered `fd` for one more readiness report,
    /// replacing its interest set.
    pub(crate) fn rearm(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
    }

    /// Registers `waker` under `token`, level-triggered: it reports
    /// readable to every wait until it is drained.
    pub(crate) fn add_waker(&self, waker: &Waker, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, waker.file.as_raw_fd(), EPOLLIN, token)
    }

    /// Removes `fd` from the interest list. Harmless if the fd is already
    /// gone (closing an fd deregisters it kernel-side).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until one readiness report or `timeout`, and returns that
    /// report (`None` on timeout). A signal interruption returns `None`
    /// rather than an error — the caller's loop re-enters wait anyway.
    pub(crate) fn wait(&self, timeout: Duration) -> io::Result<Option<Event>> {
        // Round the timeout up so a 0.4 ms residue does not busy-spin.
        let timeout_ms = i32::try_from(
            timeout
                .as_millis()
                .saturating_add(u128::from(!timeout.is_zero())),
        )
        .unwrap_or(i32::MAX);
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `epfd` is an open epoll fd owned by `self`, and `ev` is a
        // live, writable `epoll_event` for the one report `maxevents = 1`
        // lets the kernel store.
        let n = unsafe { epoll_wait(self.epfd.as_raw_fd(), &mut ev, 1, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(None)
            } else {
                Err(e)
            };
        }
        if n == 0 {
            return Ok(None);
        }
        // Copy out of the (possibly packed) struct before touching the
        // fields.
        let (events, data) = (ev.events, ev.data);
        Ok(Some(Event {
            token: data,
            readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
            hangup: events & (EPOLLERR | EPOLLHUP) != 0,
        }))
    }
}

/// Cross-thread wake primitive: an 8-byte eventfd counter. Shutdown bumps
/// it so that a waiting server thread sees the flag at once, and a drained
/// server leaves it readable so that every thread wakes and exits. Unlike
/// a connection to the server's own listener, it takes no admission slot
/// and shows up in no request counter.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    /// Creates a non-blocking, close-on-exec eventfd.
    pub(crate) fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Waker {
            file: File::from(owned),
        })
    }

    /// Bumps the counter (coalesced by the kernel; best effort — a full
    /// counter means a wake is already pending, which is all we need).
    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Consumes every pending wake.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        while matches!((&self.file).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const SHORT: Duration = Duration::from_millis(10);
    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller.add_waker(&waker, 42).expect("register");

        assert!(
            poller.wait(SHORT).expect("wait").is_none(),
            "no spurious readiness"
        );

        waker.wake();
        waker.wake(); // coalesced
        let ev = poller.wait(LONG).expect("wait").expect("woken");
        assert_eq!(ev.token, 42);
        assert!(ev.readable);
        // Level-triggered: an undrained waker reports to the next wait too.
        assert!(poller.wait(LONG).expect("wait").is_some());

        waker.drain();
        assert!(
            poller.wait(SHORT).expect("wait").is_none(),
            "drain resets the counter"
        );
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("epoll");
        poller
            .add(listener.as_raw_fd(), 1, true, false)
            .expect("register listener");

        let mut client = TcpStream::connect(addr).expect("connect");
        let ev = poller.wait(LONG).expect("wait").expect("accept ready");
        assert!(
            ev.token == 1 && ev.readable,
            "pending accept reports readable"
        );
        assert!(
            poller.wait(SHORT).expect("wait").is_none(),
            "one report per arming, although the accept is still pending"
        );

        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .add(server_side.as_raw_fd(), 2, true, false)
            .expect("register conn");

        client.write_all(b"hi").expect("write");
        let ev = poller.wait(LONG).expect("wait").expect("bytes ready");
        assert!(
            ev.token == 2 && ev.readable,
            "buffered bytes report readable"
        );

        // A fresh socket is writable the moment EPOLLOUT interest is armed.
        poller
            .rearm(server_side.as_raw_fd(), 2, false, true)
            .expect("rearm");
        let ev = poller.wait(LONG).expect("wait").expect("writable");
        assert!(
            ev.token == 2 && !ev.readable,
            "empty send buffer reports writable"
        );

        poller
            .rearm(server_side.as_raw_fd(), 2, true, false)
            .expect("rearm");
        poller.delete(server_side.as_raw_fd()).expect("delete");
        drop(client);
        assert!(
            poller.wait(SHORT).expect("wait").is_none(),
            "deleted fd reports nothing"
        );
    }
}
