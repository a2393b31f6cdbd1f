//! Per-connection state for the coordinator's single-threaded readiness
//! loop: nonblocking read/write buffering plus the worker-protocol and
//! HTTP connection state machines.
//!
//! Nothing here decides *protocol* — `service::serve_service` owns the
//! lease tables and frame semantics; this module owns the mechanics of
//! moving bytes in and out of a socket that is never allowed to block
//! the loop.

use crate::metrics_codec::Frame;
use crate::transport::LineBuffer;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Per-tick cap on bytes read from one connection, so a firehosing
/// worker cannot starve its thousand siblings of loop time.
const READ_BUDGET: usize = 256 * 1024;

/// An outbound byte queue for a nonblocking socket: frames are queued
/// whole, [`flush`](Self::flush) sends as much as the socket accepts and
/// remembers the rest for the next writable tick.
#[derive(Debug, Default)]
pub(crate) struct WriteBuf {
    buf: Vec<u8>,
    sent: usize,
}

impl WriteBuf {
    /// Queues one protocol frame (newline-terminated).
    pub fn queue_frame(&mut self, frame: &Frame) {
        let line = frame.to_line();
        self.buf.reserve(line.len() + 1);
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Queues raw bytes (an HTTP response).
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether unsent bytes remain (drives write-interest registration).
    pub fn pending(&self) -> bool {
        self.sent < self.buf.len()
    }

    /// Writes as much as the socket will take. `Ok(true)` = fully
    /// drained, `Ok(false)` = the socket backpressured (`WouldBlock`);
    /// hard errors mean the connection is gone.
    pub fn flush(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        while self.sent < self.buf.len() {
            match stream.write(&self.buf[self.sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection closed while sending",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.sent = 0;
        Ok(true)
    }
}

/// Where a worker connection stands in the lease protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerPhase {
    /// Hello sent; waiting for the worker's fingerprint echo.
    Handshake {
        /// When an unanswered handshake is abandoned.
        deadline: Instant,
    },
    /// Handshake verified; idle and eligible for a lease.
    Ready,
    /// A lease is out; `record` frames are flowing back.
    Streaming,
    /// Campaign over; final `done` queued, connection winding down.
    Closing,
}

/// The lease a streaming worker currently holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveLease {
    pub id: u64,
    pub issued: Instant,
}

/// One worker connection owned by the readiness loop.
pub(crate) struct WorkerConn {
    pub stream: TcpStream,
    pub peer: String,
    pub inbuf: LineBuffer,
    pub out: WriteBuf,
    pub phase: WorkerPhase,
    pub lease: Option<ActiveLease>,
    /// The campaign this worker handshook against (`None` for
    /// connections that arrived between campaigns and are only draining
    /// a `retry` frame). A lease may only be issued to — and records only
    /// admitted from — the campaign the connection is bound to.
    pub campaign: Option<u64>,
    /// Leases this worker completed (for the status roster).
    pub leases_done: usize,
    /// Record frames this worker streamed (for the status roster).
    pub records: usize,
    /// Set when the connection failed or closed; the loop's sweep
    /// releases the active lease and drops the entry.
    pub dead: Option<String>,
}

impl WorkerConn {
    /// Adopts an accepted socket: switches it nonblocking and queues the
    /// coordinator's hello (flushed opportunistically — a fresh socket
    /// almost always takes it immediately).
    pub fn start(
        stream: TcpStream,
        peer: String,
        hello: &Frame,
        deadline: Instant,
    ) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let mut conn = WorkerConn {
            stream,
            peer,
            inbuf: LineBuffer::new(),
            out: WriteBuf::default(),
            phase: WorkerPhase::Handshake { deadline },
            lease: None,
            campaign: None,
            leases_done: 0,
            records: 0,
            dead: None,
        };
        conn.out.queue_frame(hello);
        conn.out.flush(&mut conn.stream)?;
        Ok(conn)
    }

    /// Drains the socket into the line buffer, up to the fairness
    /// budget. `Ok(true)` = the peer may send more; `Ok(false)` = EOF
    /// (buffered complete lines are still valid and must be processed
    /// before the sweep reaps the connection).
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; 16 * 1024];
        let mut taken = 0usize;
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.inbuf.push(&scratch[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Marks the connection dead (first reason wins).
    pub fn kill(&mut self, reason: impl Into<String>) {
        if self.dead.is_none() {
            self.dead = Some(reason.into());
        }
    }
}

/// One HTTP control-plane connection: accumulate a request head, send
/// one response, close (`Connection: close` keeps the state machine to a
/// single round trip).
pub(crate) struct HttpConn {
    pub stream: TcpStream,
    pub inbuf: Vec<u8>,
    pub out: WriteBuf,
    /// A response has been queued; once flushed the connection closes.
    pub responded: bool,
    /// Accept time, for reaping clients that never finish a request.
    pub opened: Instant,
    pub dead: bool,
}

impl HttpConn {
    /// Adopts an accepted control-plane socket.
    pub fn start(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(HttpConn {
            stream,
            inbuf: Vec::new(),
            out: WriteBuf::default(),
            responded: false,
            opened: Instant::now(),
            dead: false,
        })
    }

    /// Drains request bytes. `Ok(false)` = EOF.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; 4 * 1024];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    if self.inbuf.len() >= READ_BUDGET {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn write_buf_queues_flushes_and_reports_pending() {
        let (mut client, server) = pair();
        client.set_nonblocking(true).unwrap();
        let mut out = WriteBuf::default();
        assert!(!out.pending());
        out.queue_frame(&Frame::Done);
        out.queue_bytes(b"tail");
        assert!(out.pending());
        assert!(out.flush(&mut client).unwrap(), "a fresh socket drains immediately");
        assert!(!out.pending());

        let mut got = Vec::new();
        let mut peer = server;
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut scratch = [0u8; 64];
        while got.len() < 4 + Frame::Done.to_line().len() + 1 {
            let n = peer.read(&mut scratch).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&scratch[..n]);
        }
        let text = String::from_utf8(got).unwrap();
        assert!(text.ends_with("tail"), "{text:?}");
        assert!(text.starts_with(&Frame::Done.to_line()), "{text:?}");
    }

    #[test]
    fn worker_conn_fill_reports_eof_after_buffered_lines() {
        let (client, mut server) = pair();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let mut conn = WorkerConn::start(
            client,
            "test".into(),
            &Frame::Hello { campaign: None, fingerprint: 1 },
            deadline,
        )
        .unwrap();
        // Read the hello the connection queued at start, so closing the
        // server half is a clean FIN rather than a reset-with-unread-data.
        let hello_len = Frame::Hello { campaign: None, fingerprint: 1 }.to_line().len() + 1;
        server.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut scratch = [0u8; 256];
        let mut got = 0;
        while got < hello_len {
            got += server.read(&mut scratch).unwrap();
        }
        server.write_all(b"line-one\nline-two\n").unwrap();
        drop(server);
        // Wait for delivery, then observe EOF *after* the payload.
        let mut saw_eof = false;
        for _ in 0..200 {
            match conn.fill() {
                Ok(true) => std::thread::sleep(std::time::Duration::from_millis(5)),
                Ok(false) => {
                    saw_eof = true;
                    break;
                }
                Err(e) => panic!("unexpected fill error: {e}"),
            }
        }
        assert!(saw_eof);
        assert_eq!(conn.inbuf.next_line().as_deref(), Some("line-one"));
        assert_eq!(conn.inbuf.next_line().as_deref(), Some("line-two"));
        conn.kill("first");
        conn.kill("second");
        assert_eq!(conn.dead.as_deref(), Some("first"), "first reason wins");
    }
}
