//! Thin epoll + eventfd wrapper — the crate's only unsafe module.
//!
//! The reactor ([`crate::server`]) needs exactly four kernel facilities:
//! create an epoll instance, register/modify/remove interest, wait for
//! readiness, and a cross-thread wake primitive. All four are one syscall
//! each on Linux, so this module declares them directly (`extern "C"`
//! against the libc the std runtime already links) instead of pulling in a
//! dependency. Everything above this module is `#![deny(unsafe_code)]`
//! clean; everything in it is a direct, argument-checked syscall shim.
//!
//! Design notes:
//!
//! * **Level-triggered only.** The reactor re-arms write interest
//!   explicitly and drains read buffers until `WouldBlock`, so
//!   level-triggered semantics (the default) are exactly right and spare
//!   us the `EPOLLET` starvation folklore.
//! * **Tokens are plain `u64`s** stored in `epoll_data`; the caller owns
//!   the meaning (the reactor uses slab indices plus two sentinels).
//! * **The waker is an `eventfd`**, not a pipe: one fd instead of two, a
//!   single 8-byte counter the kernel coalesces for us, and a read drains
//!   every pending wake at once.
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
    /// Writable.
    pub writable: bool,
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
        let mut events = EPOLLRDHUP;
        if readable {
            events |= EPOLLIN;
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

    /// Registers `fd` under `token` with the given interest.
    pub(crate) fn add(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
    }

    /// Replaces the interest set of an already-registered `fd`.
    pub(crate) fn modify(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
    }

    /// Removes `fd` from the interest list. Harmless if the fd is already
    /// gone (closing an fd deregisters it kernel-side).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout` (None = forever), refilling
    /// `out`. A signal interruption returns an empty batch rather than an
    /// error — the caller's loop re-enters wait anyway.
    pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        // Round the timeout up so a 0.4 ms residue does not busy-spin.
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_millis().saturating_add(u128::from(!d.is_zero())))
                .unwrap_or(i32::MAX),
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        for ev in &buf[..n as usize] {
            // Copy out of the (possibly packed) struct before touching
            // the fields.
            let (events, data) = (ev.events, ev.data);
            out.push(Event {
                token: data,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Cross-thread wake primitive for the reactor: an 8-byte eventfd counter.
/// Worker threads and [`crate::ServerHandle::shutdown`] bump it; the
/// reactor registers it read-side and drains it on wakeup. Replaces the
/// old "connect to your own listener" shutdown poke, which consumed an
/// admission slot and showed up in the request counters.
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

    /// The fd to register with a [`Poller`].
    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
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

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller
            .add(waker.as_raw_fd(), 42, true, false)
            .expect("register");

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "no spurious readiness");

        waker.wake();
        waker.wake(); // coalesced
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "drain resets the counter");
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("epoll");
        use std::os::fd::AsRawFd as _;
        poller
            .add(listener.as_raw_fd(), 1, true, false)
            .expect("register listener");

        let mut client = TcpStream::connect(addr).expect("connect");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "pending accept reports readable"
        );

        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .add(server_side.as_raw_fd(), 2, true, false)
            .expect("register conn");

        client.write_all(b"hi").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 2 && e.readable),
            "buffered bytes report readable"
        );

        // A fresh socket is writable the moment EPOLLOUT interest is set.
        poller
            .modify(server_side.as_raw_fd(), 2, true, true)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 2 && e.writable),
            "empty send buffer reports writable"
        );

        poller.delete(server_side.as_raw_fd()).expect("delete");
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait");
        assert!(
            events.iter().all(|e| e.token != 2),
            "deleted fd reports nothing"
        );
    }
}
