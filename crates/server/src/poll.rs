//! A minimal readiness poller over raw `poll(2)`.
//!
//! The workspace is offline (no `mio`, no `libc` crate), so on Linux
//! this module declares the one FFI symbol it needs itself — `poll(2)`
//! is in the C library every Rust binary already links. Elsewhere it
//! degrades to an optimistic poller that reports everything ready and
//! lets the non-blocking sockets return `WouldBlock`, sleeping briefly
//! when a sweep makes no progress (the event loop tells it via
//! [`Poller::idle_backoff`]).

use std::time::Duration;

/// Interest / readiness: readable.
pub const READ: u8 = 0b01;
/// Interest / readiness: writable.
pub const WRITE: u8 = 0b10;

/// One registered descriptor's interest for a single [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Interest {
    /// Raw file descriptor (ignored by the fallback poller).
    pub fd: i32,
    /// Bitmask of [`READ`] / [`WRITE`].
    pub events: u8,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, READ, WRITE};
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Block until a registered descriptor is ready or `timeout`
    /// elapses; returns per-entry readiness masks.
    pub fn wait(interests: &[Interest], timeout: Duration) -> Vec<u8> {
        let mut fds: Vec<PollFd> = interests
            .iter()
            .map(|i| PollFd {
                fd: i.fd,
                events: {
                    let mut e = 0i16;
                    if i.events & READ != 0 {
                        e |= POLLIN;
                    }
                    if i.events & WRITE != 0 {
                        e |= POLLOUT;
                    }
                    e
                },
                revents: 0,
            })
            .collect();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a valid, exclusively borrowed array of
        // `nfds` pollfd structs matching the kernel ABI layout, live
        // for the duration of the call. Exercised under ASan by
        // `tests::listener_becomes_readable_on_connect`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc <= 0 {
            return vec![0; interests.len()];
        }
        fds.iter()
            .map(|f| {
                let mut r = 0u8;
                if f.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                    r |= READ;
                }
                if f.revents & (POLLOUT | POLLERR | POLLHUP) != 0 {
                    r |= WRITE;
                }
                r
            })
            .collect()
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Interest;
    use std::time::Duration;

    /// Portable fallback: claim every registered interest is ready and
    /// let non-blocking I/O sort it out. The event loop backs off via
    /// `idle_backoff` when a sweep does no work, so this spins gently
    /// rather than hot.
    pub fn wait(interests: &[Interest], _timeout: Duration) -> Vec<u8> {
        interests.iter().map(|i| i.events).collect()
    }
}

/// Readiness poller used by acceptor and worker loops.
#[derive(Debug, Default)]
pub struct Poller {
    _private: (),
}

impl Poller {
    /// Create a poller.
    pub fn new() -> Self {
        Poller { _private: () }
    }

    /// Wait for readiness on `interests`, up to `timeout`. The result
    /// has one bitmask per entry, in order. Entries with an empty
    /// interest mask always come back not-ready.
    pub fn wait(&self, interests: &[Interest], timeout: Duration) -> Vec<u8> {
        if interests.iter().all(|i| i.events == 0) {
            // Nothing to watch: plain sleep keeps the contract that
            // `wait` blocks up to `timeout`.
            std::thread::sleep(timeout.min(Duration::from_millis(50)));
            return vec![0; interests.len()];
        }
        sys::wait(interests, timeout)
    }

    /// Sleep briefly after a sweep that made no progress. A no-op on
    /// Linux (readiness is real there); on the fallback poller this is
    /// what keeps the optimistic loop from spinning.
    pub fn idle_backoff(&self) {
        #[cfg(not(target_os = "linux"))]
        std::thread::sleep(Duration::from_micros(500));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new();

        let quiet = poller.wait(
            &[Interest { fd: listener.as_raw_fd(), events: READ }],
            Duration::from_millis(10),
        );
        #[cfg(target_os = "linux")]
        assert_eq!(quiet[0] & READ, 0, "no pending connection yet");
        let _ = quiet;

        let _client = TcpStream::connect(addr).unwrap();
        let ready = poller.wait(
            &[Interest { fd: listener.as_raw_fd(), events: READ }],
            Duration::from_millis(2000),
        );
        assert_ne!(ready[0] & READ, 0, "pending connection must report readable");
    }

    #[test]
    fn stream_reports_writable_and_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();

        let poller = Poller::new();
        let ready = poller.wait(
            &[Interest { fd: client.as_raw_fd(), events: READ | WRITE }],
            Duration::from_millis(2000),
        );
        assert_ne!(ready[0] & WRITE, 0, "fresh socket should be writable");

        served.write_all(b"ping").unwrap();
        let ready = poller.wait(
            &[Interest { fd: client.as_raw_fd(), events: READ }],
            Duration::from_millis(2000),
        );
        assert_ne!(ready[0] & READ, 0, "bytes in flight should report readable");
    }
}
