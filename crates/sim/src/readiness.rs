//! Socket readiness for the event-driven coordinator: a thin,
//! dependency-free wrapper over `poll(2)`.
//!
//! The coordinator loop ([`crate::service::serve_service`]) owns every
//! connection on one thread; instead of blocking per socket it asks the
//! OS which sockets are ready and only then reads/writes them. The
//! stdlib has no readiness API, so this module declares the `poll`
//! symbol directly (it lives in the C runtime the stdlib already links
//! against — no external crate involved) and wraps it in a small
//! registration set, [`PollSet`].
//!
//! Off Unix there is no `poll(2)`; the fallback implementation sleeps
//! briefly and reports every registered socket as ready, degrading the
//! event loop to a bounded-rate poller over nonblocking sockets —
//! slower, but observably identical (nonblocking reads/writes simply
//! return `WouldBlock` when the fallback guessed wrong).

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// An OS-level socket handle a [`PollSet`] can wait on. On Unix this is
/// the raw file descriptor; elsewhere it is an opaque placeholder (the
/// fallback poller never dereferences it).
pub type SockFd = i32;

/// The pollable handle of a listener.
#[cfg(unix)]
pub fn listener_fd(listener: &TcpListener) -> SockFd {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

/// The pollable handle of a stream.
#[cfg(unix)]
pub fn stream_fd(stream: &TcpStream) -> SockFd {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

/// The pollable handle of a listener (placeholder off Unix).
#[cfg(not(unix))]
pub fn listener_fd(_listener: &TcpListener) -> SockFd {
    0
}

/// The pollable handle of a stream (placeholder off Unix).
#[cfg(not(unix))]
pub fn stream_fd(_stream: &TcpStream) -> SockFd {
    0
}

#[cfg(unix)]
mod sys {
    /// `struct pollfd` from `<poll.h>`: identical layout on every Unix.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub type Nfds = core::ffi::c_ulong;
    #[cfg(all(unix, not(target_os = "linux")))]
    pub type Nfds = core::ffi::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: core::ffi::c_int) -> core::ffi::c_int;
    }
}

/// One registered socket: the interest declared before the wait and the
/// readiness reported after it.
struct Entry {
    fd: SockFd,
    want_read: bool,
    want_write: bool,
    readable: bool,
    writable: bool,
}

/// A reusable poll registration set.
///
/// Per loop iteration: [`clear`](Self::clear), [`register`](Self::register)
/// every socket of interest (the returned slot indexes the results),
/// [`poll`](Self::poll), then query [`readable`](Self::readable) /
/// [`writable`](Self::writable) per slot. Error/hangup conditions are
/// folded into readability: the subsequent read observes the actual
/// error or EOF, which is the single place those are handled anyway.
#[derive(Default)]
pub struct PollSet {
    entries: Vec<Entry>,
}

impl PollSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every registration (readiness results included).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Registers a socket with the given interest; the returned slot is
    /// valid until the next [`clear`](Self::clear).
    pub fn register(&mut self, fd: SockFd, want_read: bool, want_write: bool) -> usize {
        self.entries.push(Entry { fd, want_read, want_write, readable: false, writable: false });
        self.entries.len() - 1
    }

    /// Whether the slot's socket was readable (or in an error/hangup
    /// state) after the last [`poll`](Self::poll).
    pub fn readable(&self, slot: usize) -> bool {
        self.entries[slot].readable
    }

    /// Whether the slot's socket was writable after the last
    /// [`poll`](Self::poll).
    pub fn writable(&self, slot: usize) -> bool {
        self.entries[slot].writable
    }

    /// Blocks until at least one registered socket is ready or `timeout`
    /// passes, then records per-slot readiness.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (`EINTR` is retried internally).
    #[cfg(unix)]
    pub fn poll(&mut self, timeout: Duration) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = self
            .entries
            .iter()
            .map(|e| sys::PollFd {
                fd: e.fd,
                events: if e.want_read { sys::POLLIN } else { 0 }
                    | if e.want_write { sys::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as core::ffi::c_int;
        loop {
            let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::Nfds, timeout_ms) };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (entry, fd) in self.entries.iter_mut().zip(&fds) {
            // Errors and hangups surface as readability so the owner's
            // next read reports the concrete failure.
            entry.readable =
                fd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            entry.writable = fd.revents & (sys::POLLOUT | sys::POLLERR) != 0;
        }
        Ok(())
    }

    /// Fallback for platforms without `poll(2)`: sleep briefly, then
    /// report every registered socket as ready per its interest. The
    /// nonblocking sockets behind the entries turn wrong guesses into
    /// harmless `WouldBlock` results.
    #[cfg(not(unix))]
    pub fn poll(&mut self, timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout.min(Duration::from_millis(20)));
        for entry in &mut self.entries {
            entry.readable = entry.want_read;
            entry.writable = entry.want_write;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn listener_becomes_readable_on_pending_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut set = PollSet::new();

        set.clear();
        let slot = set.register(listener_fd(&listener), true, false);
        set.poll(Duration::from_millis(0)).unwrap();
        #[cfg(unix)]
        assert!(!set.readable(slot), "no connection is pending yet");

        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set.clear();
        let slot = set.register(listener_fd(&listener), true, false);
        set.poll(Duration::from_secs(5)).unwrap();
        assert!(set.readable(slot), "a pending connection must wake the poll");
        drop(client);
    }

    #[test]
    fn stream_reports_write_then_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();

        let mut set = PollSet::new();
        let slot = set.register(stream_fd(&client), true, true);
        set.poll(Duration::from_secs(5)).unwrap();
        assert!(set.writable(slot), "a fresh connection has send-buffer space");
        #[cfg(unix)]
        assert!(!set.readable(slot), "nothing has been sent yet");

        accepted.write_all(b"ping\n").unwrap();
        set.clear();
        let slot = set.register(stream_fd(&client), true, false);
        set.poll(Duration::from_secs(5)).unwrap();
        assert!(set.readable(slot), "delivered bytes must wake the poll");
    }

    #[test]
    fn peer_close_surfaces_as_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted);

        let mut set = PollSet::new();
        let slot = set.register(stream_fd(&client), true, false);
        set.poll(Duration::from_secs(5)).unwrap();
        assert!(set.readable(slot), "EOF must be observable through readiness");
    }
}
