//! The reactor: edge-triggered readiness over [`crate::sys::Epoll`],
//! plus a cross-thread [`Waker`].
//!
//! The reactor deliberately does *not* own connection state — it maps
//! file descriptors to caller-chosen `u64` tokens and reports readiness
//! transitions. Because registrations are edge-triggered (`EPOLLET`),
//! a readiness bit is reported **once per transition**: the event loop
//! must remember it (the connection's `readable`/`writable` memo) and
//! keep reading or writing until `WouldBlock` re-arms the edge. That
//! memo discipline is what lets the loop *pause* a connection under
//! backpressure without losing the wake-up — the kernel already told us
//! the data is there; we simply defer acting on it.

use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::Duration;

use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token the reactor reserves for its own wake-up eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness transition on a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (or a pending accept, for a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hang-up or error — the connection is done for.
    pub hangup: bool,
}

/// Wakes a [`Reactor`] blocked in [`Reactor::poll`] from another thread.
///
/// Cloneable and cheap; used by `Server::drain`/`resume`/shutdown to nudge
/// the event loop into observing a state change.
#[derive(Clone)]
pub struct Waker {
    wake: Arc<EventFd>,
}

impl Waker {
    /// Interrupts the next (or current) `poll`.
    pub fn wake(&self) {
        self.wake.notify();
    }
}

/// Edge-triggered readiness multiplexer.
pub struct Reactor {
    epoll: Epoll,
    wake: Arc<EventFd>,
    buf: Vec<EpollEvent>,
}

impl Reactor {
    /// Creates a reactor with `capacity` readiness slots per poll.
    pub fn new(capacity: usize) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let wake = Arc::new(EventFd::new()?);
        // The wake fd is level-ish by construction: `notify` bumps a
        // counter that stays readable until drained, so even with EPOLLET
        // a wake between polls is never lost.
        epoll.add(wake.raw_fd(), EPOLLIN | EPOLLET, WAKE_TOKEN)?;
        Ok(Reactor {
            epoll,
            wake,
            buf: vec![EpollEvent::default(); capacity.max(8)],
        })
    }

    /// A handle other threads can use to interrupt [`poll`](Self::poll).
    pub fn waker(&self) -> Waker {
        Waker {
            wake: Arc::clone(&self.wake),
        }
    }

    /// Registers `fd` for edge-triggered read+write readiness under
    /// `token`. `token` must not be [`u64::MAX`] (reserved).
    pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
        assert_ne!(token, WAKE_TOKEN, "u64::MAX is the reactor's wake token");
        self.epoll
            .add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token)
    }

    /// Registers `fd` for edge-triggered read readiness only (listeners).
    pub fn register_read(&self, fd: RawFd, token: u64) -> io::Result<()> {
        assert_ne!(token, WAKE_TOKEN, "u64::MAX is the reactor's wake token");
        self.epoll.add(fd, EPOLLIN | EPOLLET, token)
    }

    /// Drops a registration; errors are ignored (closing the fd
    /// deregisters implicitly anyway).
    pub fn deregister(&self, fd: RawFd) {
        let _ = self.epoll.delete(fd);
    }

    /// Waits for readiness (or a wake, or `timeout`), appending
    /// transitions to `out`. Returns `true` when a [`Waker`] fired.
    /// `Some(Duration::ZERO)` only collects what is already pending and
    /// never blocks.
    pub fn poll(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Readiness>,
    ) -> io::Result<bool> {
        let timeout_ms = match timeout {
            None => -1,
            Some(t) if t.is_zero() => 0,
            // round up so a 100µs timeout still sleeps rather than spins
            Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
        };
        let n = self.epoll.wait(&mut self.buf, timeout_ms)?;
        let mut woken = false;
        for event in &self.buf[..n] {
            let (mask, token) = (event.events, event.data);
            if token == WAKE_TOKEN {
                self.wake.drain();
                woken = true;
                continue;
            }
            out.push(Readiness {
                token,
                readable: mask & EPOLLIN != 0,
                writable: mask & EPOLLOUT != 0,
                hangup: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(woken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_interrupts_poll_across_threads() {
        let mut reactor = Reactor::new(8).unwrap();
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut out = Vec::new();
        let woken = reactor
            .poll(Some(Duration::from_secs(5)), &mut out)
            .unwrap();
        assert!(woken, "the waker must interrupt a long poll");
        assert!(out.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn zero_timeout_poll_does_not_block() {
        let mut reactor = Reactor::new(8).unwrap();
        let mut out = Vec::new();
        // nothing is pending, so any wait at all would be the timeout's;
        // a 1 ms round-up would show as >= 1 ms on every one of these
        let started = std::time::Instant::now();
        for _ in 0..50 {
            assert!(!reactor.poll(Some(Duration::ZERO), &mut out).unwrap());
        }
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "50 zero-timeout polls took {:?}",
            started.elapsed()
        );
        assert!(out.is_empty());

        // a wake already pending is still collected
        reactor.waker().wake();
        assert!(reactor.poll(Some(Duration::ZERO), &mut out).unwrap());
    }

    #[test]
    fn edge_triggered_socket_readiness_reports_once_per_transition() {
        let mut reactor = Reactor::new(8).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        reactor.register(server_side.as_raw_fd(), 5).unwrap();

        client.write_all(b"ping").unwrap();
        let mut out = Vec::new();
        reactor
            .poll(Some(Duration::from_secs(2)), &mut out)
            .unwrap();
        let ready = out
            .iter()
            .find(|r| r.token == 5 && r.readable)
            .expect("bytes arrived, readable edge must fire");
        assert!(!ready.hangup);

        // consume to WouldBlock (re-arms the edge), then confirm silence
        let mut sink = [0u8; 64];
        let mut conn = &server_side;
        loop {
            match conn.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        out.clear();
        reactor
            .poll(Some(Duration::from_millis(30)), &mut out)
            .unwrap();
        assert!(
            out.iter().all(|r| r.token != 5 || !r.readable),
            "no new bytes, no new edge: {out:?}"
        );

        // peer close surfaces as a hangup edge
        drop(client);
        out.clear();
        reactor
            .poll(Some(Duration::from_secs(2)), &mut out)
            .unwrap();
        assert!(out.iter().any(|r| r.token == 5 && r.hangup));
    }
}
