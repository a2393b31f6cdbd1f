//! TCP transport for distributed campaigns: the pieces of a lease-based
//! coordinator/worker protocol over newline-delimited JSON frames.
//!
//! The coordinator owns the deterministic campaign plan. It never ships
//! a [`RunSpec`] over the wire — a connecting worker ([`work`]) receives
//! the campaign description in the `hello` frame's [`CampaignHeader`],
//! re-derives the *same* plan ([`crate::CampaignRequest::plan`]), and
//! proves it did by echoing the plan's [`crate::campaign_fingerprint`].
//! After that handshake the coordinator hands out **leases** (small index
//! ranges of the flat plan) and folds the streamed `record` frames into a
//! plan-ordered result vector, so reports assembled from a distributed
//! run are byte-identical to a single-process run.
//!
//! **Fault tolerance.** Completed indices are tracked per lease:
//!
//! * a worker that *disconnects* (crash, kill, network drop) has its
//!   unfinished lease indices re-queued immediately;
//! * a worker that *stalls* past the lease timeout keeps its connection,
//!   but an idle worker asking for work will be re-issued the overdue
//!   indices (straggler mitigation);
//! * duplicate records — inevitable when a straggler finishes after its
//!   lease was re-issued — are deduplicated by plan index, and every
//!   record's index, spec fingerprint and workload are checked before it
//!   fills a slot, so a drifting worker is a loud
//!   [`ExecutorError::PlanDrift`] instead of a silently scrambled report.
//!
//! **Durability.** A journaling coordinator write-ahead journals the
//! campaign header and every accepted record to disk ([`JournalWriter`];
//! one `write` per line, `sync_data` on a configurable interval), so the
//! file is always a valid shard-file prefix. After a coordinator crash,
//! [`read_record_file`](crate::executor::read_record_file) with
//! [`TailPolicy::DropTorn`](crate::metrics_codec::TailPolicy::DropTorn)
//! recovers every complete record — a torn final line is dropped, never
//! mis-parsed — and the resumed campaign replays them through the same
//! admission path before leasing out only the remaining indices,
//! producing results byte-identical to an uninterrupted run.
//!
//! The protocol framing is [`Frame`]; partial TCP reads are reassembled
//! by [`LineBuffer`], which is property-tested against arbitrary byte
//! splits in `tests/metrics_codec.rs`. The coordinator's readiness loop
//! that drives all of this is [`crate::service::serve_service`].

use crate::executor::{check_record, ExecutorError};
use crate::metrics_codec::{CampaignHeader, Frame, ShardRecord};
use crate::run::{run_batch, RunResult, RunSpec};
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Socket read timeout on the worker side, and the coordinator loop's
/// poll timeout: the granularity at which quiet periods re-check
/// supervision and lease deadlines.
pub(crate) const READ_TICK: Duration = Duration::from_millis(100);
/// How long the coordinator waits for a connecting worker's hello.
pub(crate) const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(30);
/// First retry delay after a failed worker connect.
const CONNECT_BACKOFF_FLOOR: Duration = Duration::from_millis(25);
/// Retry delay cap: a thousand workers re-finding a restarted
/// coordinator trickle in at this rate instead of hammering it in
/// 25 ms lockstep.
const CONNECT_BACKOFF_CEIL: Duration = Duration::from_millis(1600);

/// Reassembles newline-delimited frames from arbitrarily split byte
/// chunks (TCP reads stop at packet boundaries, not line boundaries).
///
/// Invalid UTF-8 is replaced rather than panicking — the replacement
/// characters then fail [`Frame::parse`] with a useful error.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
}

impl LineBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line (without its `\n`, tolerating `\r\n`),
    /// or `None` if no full line has arrived yet.
    pub fn next_line(&mut self) -> Option<String> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
        line.pop(); // the \n
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Bytes of a trailing partial line still waiting for its `\n`.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Write-ahead journal sink for the coordinator: the campaign header at
/// creation, then every verified record as it is accepted, so the
/// on-disk file is **always a valid shard-file prefix**. Each record is
/// a single `write` (a crash tears at most the final line); `sync_data`
/// runs every `sync_every` records and at campaign completion.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    sync_every: usize,
    unsynced: usize,
    appended: usize,
    bytes: u64,
}

impl JournalWriter {
    /// Creates a fresh journal and writes (and syncs) the header line,
    /// stamped with the campaign fingerprint.
    ///
    /// # Errors
    ///
    /// Refuses to overwrite an existing file — an interrupted campaign's
    /// journal is exactly what `resume` needs, and clobbering it by
    /// rerunning `serve` must not happen silently.
    pub fn create(
        path: &Path,
        header: &CampaignHeader,
        fingerprint: u64,
        sync_every: usize,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        let mut line = header.to_journal_line(fingerprint);
        line.push('\n');
        let mut writer =
            JournalWriter { file, sync_every, unsynced: 0, appended: 0, bytes: line.len() as u64 };
        writer.file.write_all(line.as_bytes())?;
        writer.file.sync_data()?;
        // The directory entry must be durable too: syncing only the
        // file leaves a host crash free to forget the file ever
        // existed, which would lose the whole campaign — the one thing
        // the journal exists to prevent.
        sync_parent_dir(path)?;
        Ok(writer)
    }

    /// Reopens an interrupted campaign's journal for append: truncates
    /// the torn tail (everything past `valid_len`, as reported by
    /// [`RecordFile`](crate::metrics_codec::RecordFile)) so the file is a
    /// clean prefix again.
    ///
    /// # Errors
    ///
    /// Propagates open/truncate failures.
    pub fn resume(path: &Path, valid_len: u64, sync_every: usize) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(JournalWriter { file, sync_every, unsynced: 0, appended: 0, bytes: valid_len })
    }

    /// Appends one accepted record line (the `\n` is added here, in the
    /// same `write` call, so partial writes never fabricate a complete
    /// line).
    fn append(&mut self, record_line: &str) -> io::Result<()> {
        let mut line = String::with_capacity(record_line.len() + 1);
        line.push_str(record_line);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.unsynced += 1;
        self.appended += 1;
        self.bytes += line.len() as u64;
        if self.sync_every > 0 && self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Journal position for the status endpoint: records appended this
    /// session and the durable byte length of the file.
    pub(crate) fn position(&self) -> (usize, u64) {
        (self.appended, self.bytes)
    }

    /// Forces everything appended so far onto the disk.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// Makes a freshly created file's *directory entry* durable: `fsync`
/// on the file alone does not guarantee the file is findable after a
/// power failure. Shared with the result cache's atomic rename writes
/// ([`crate::cache`]).
#[cfg(unix)]
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Directories cannot be opened as files off Unix; the rename-style
/// durability guarantee is best-effort there.
#[cfg(not(unix))]
pub(crate) fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// One issued lease: the id the coordinator assigned and the plan
/// indices the worker must simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lease {
    pub(crate) id: u64,
    pub(crate) indices: Vec<usize>,
}

#[derive(Debug)]
struct InFlight {
    id: u64,
    indices: Vec<usize>,
    issued: Instant,
}

/// Pure bookkeeping for lease issue, completion, re-queue on disconnect
/// and re-issue on timeout. Time is injected, so the straggler logic is
/// unit-testable without waiting.
#[derive(Debug)]
pub(crate) struct LeaseTable {
    chunk: usize,
    timeout: Duration,
    pending: VecDeque<usize>,
    in_flight: Vec<InFlight>,
    filled: Vec<bool>,
    completed: usize,
    next_id: u64,
}

impl LeaseTable {
    /// `chunk` = indices per lease (0 = auto: ~64 leases per campaign).
    pub(crate) fn new(runs: usize, chunk: usize, timeout: Duration) -> Self {
        let chunk = if chunk == 0 { (runs / 64).max(1) } else { chunk };
        LeaseTable {
            chunk,
            timeout,
            pending: (0..runs).collect(),
            in_flight: Vec::new(),
            filled: vec![false; runs],
            completed: 0,
            next_id: 0,
        }
    }

    /// Takes the next lease: fresh pending work first, otherwise the
    /// unfilled remainder of the most overdue timed-out lease (straggler
    /// re-issue — the original worker keeps streaming, duplicates are
    /// dropped by [`record`](Self::record)'s filled check).
    pub(crate) fn grab(&mut self, now: Instant) -> Option<Lease> {
        let indices: Vec<usize> = if self.pending.is_empty() {
            let overdue = self
                .in_flight
                .iter()
                .enumerate()
                .filter(|(_, l)| now.duration_since(l.issued) >= self.timeout)
                .min_by_key(|(_, l)| l.issued)
                .map(|(at, _)| at)?;
            let old = self.in_flight.swap_remove(overdue);
            old.indices.into_iter().filter(|&i| !self.filled[i]).collect()
        } else {
            let n = self.chunk.min(self.pending.len());
            self.pending.drain(..n).collect()
        };
        if indices.is_empty() {
            // A fully-filled lease lingered; retry (terminates: each call
            // shrinks in_flight or drains pending).
            return self.grab(now);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.push(InFlight { id, indices: indices.clone(), issued: now });
        Some(Lease { id, indices })
    }

    /// Marks a plan index as completed. Returns `false` for a duplicate
    /// (already filled — e.g. a straggler finishing re-issued work).
    pub(crate) fn record(&mut self, index: usize) -> bool {
        if self.filled[index] {
            return false;
        }
        self.filled[index] = true;
        self.completed += 1;
        // Leases whose every index is now filled are retired.
        self.in_flight.retain(|l| l.indices.iter().any(|&i| !self.filled[i]));
        true
    }

    /// Re-queues a disconnected worker's unfinished lease indices.
    pub(crate) fn release(&mut self, id: u64) -> usize {
        let Some(at) = self.in_flight.iter().position(|l| l.id == id) else {
            return 0; // already satisfied or superseded
        };
        let lease = self.in_flight.swap_remove(at);
        let mut requeued = 0;
        for i in lease.indices {
            if !self.filled[i] {
                self.pending.push_back(i);
                requeued += 1;
            }
        }
        requeued
    }

    /// Drops already-filled indices from the pending queue. Journal
    /// replay marks indices filled *before* any lease is issued; without
    /// this, the initial queue would lease (and re-simulate) work the
    /// interrupted run already finished.
    pub(crate) fn prune_pending(&mut self) {
        let filled = &self.filled;
        self.pending.retain(|&i| !filled[i]);
    }

    pub(crate) fn is_filled(&self, index: usize) -> bool {
        self.filled[index]
    }

    pub(crate) fn complete(&self) -> bool {
        self.completed == self.filled.len()
    }

    /// Progress counters for the status endpoint:
    /// `(completed, leased, pending)`, which always sum to the plan
    /// size. `leased` is derived (plan − completed − pending) because a
    /// partially-completed in-flight lease still holds its filled
    /// indices.
    pub(crate) fn counts(&self) -> (usize, usize, usize) {
        let completed = self.completed;
        let pending = self.pending.len();
        (completed, (self.filled.len() - completed).saturating_sub(pending), pending)
    }
}

/// Lease policy knobs of the coordinator loop
/// ([`crate::service::serve_service`]), applied to every campaign.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// A lease older than this may be re-issued to an idle worker
    /// (straggler mitigation). Disconnects re-queue immediately
    /// regardless.
    pub lease_timeout: Duration,
    /// Plan indices per lease (0 = auto: ~64 leases per campaign).
    pub chunk: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { lease_timeout: Duration::from_secs(60), chunk: 0 }
    }
}

/// One campaign's coordinator bookkeeping: lease table, result slots and
/// the optional write-ahead journal.
pub(crate) struct ServeState {
    pub(crate) table: LeaseTable,
    pub(crate) slots: Vec<Option<RunResult>>,
    pub(crate) journal: Option<JournalWriter>,
}

impl ServeState {
    /// Fresh bookkeeping for a `runs`-spec plan (the coordinator builds
    /// one per campaign).
    pub(crate) fn new(runs: usize, chunk: usize, lease_timeout: Duration) -> Self {
        ServeState {
            table: LeaseTable::new(runs, chunk, lease_timeout),
            slots: (0..runs).map(|_| None).collect(),
            journal: None,
        }
    }

    /// Verifies ([`check_record`]) and stores one record — the single
    /// admission path shared by live `record` frames, journal replay and
    /// cache pre-fill (`journal = false` skips re-appending what was just
    /// read back). A record that fails the check, and a journal-append
    /// failure, are fatal; duplicates are silently dropped (`Ok(false)`).
    pub(crate) fn admit(
        &mut self,
        specs: &[&RunSpec],
        record: ShardRecord,
        journal: bool,
    ) -> Result<bool, ExecutorError> {
        // Serialize only when the line will be appended: this runs for
        // every record, and non-journaled campaigns (and replay, which
        // re-reads what is already on disk) must not pay for encoding
        // the full metrics set.
        let line = (journal && self.journal.is_some()).then(|| record.to_line());
        let (index, result) = check_record(specs, record)?;
        if self.table.is_filled(index) {
            return Ok(false); // duplicate from a superseded straggler
        }
        // Write-ahead: the record reaches the journal before it counts
        // as completed, so a crash never *loses* an accepted record.
        if let (Some(line), Some(writer)) = (line, &mut self.journal) {
            writer
                .append(&line)
                .map_err(|e| ExecutorError::io("cannot append to the campaign journal", e))?;
        }
        self.slots[index] = Some(result);
        self.table.record(index);
        Ok(true)
    }
}

pub(crate) fn send_line(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let mut line = frame.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Reads the next frame from a blocking stream with a read timeout,
/// re-checking `deadline` on every read tick. `None` = the deadline
/// passed before a complete frame arrived.
pub(crate) fn read_frame(
    stream: &mut TcpStream,
    buf: &mut LineBuffer,
    deadline: Instant,
) -> io::Result<Option<Frame>> {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        if let Some(line) = buf.next_line() {
            if line.trim().is_empty() {
                continue;
            }
            return Frame::parse(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        match stream.read(&mut scratch) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => buf.push(&scratch[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// Tuning knobs for [`work`].
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Worker threads per lease (0 = one per available core).
    pub jobs: usize,
    /// How long to keep retrying the initial connect (covers the
    /// "worker launched before the coordinator" race).
    pub connect_timeout: Duration,
    /// Fault injection for tests/CI: after completing this many leases,
    /// exit abruptly on the next lease instead of processing it —
    /// simulating a worker crash so lease re-issue can be exercised
    /// deterministically.
    pub quit_after_leases: Option<usize>,
}

impl Default for WorkOptions {
    fn default() -> Self {
        WorkOptions { jobs: 0, connect_timeout: Duration::from_secs(10), quit_after_leases: None }
    }
}

/// What a completed [`work`] session did, for the CLI summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkSummary {
    /// Leases completed.
    pub leases: usize,
    /// Simulations executed (sum of lease sizes).
    pub simulated: usize,
    /// Whether the session ended via `quit_after_leases` fault
    /// injection rather than a coordinator `done`.
    pub quit_injected: bool,
}

/// Runs the worker half of a distributed campaign: connects to a
/// coordinator ([`crate::service::serve_service`]), re-derives the campaign plan from the `hello`
/// frame, then simulates leases until the coordinator says `done`.
///
/// # Errors
///
/// Returns a human-readable message when the coordinator is
/// unreachable, the handshake reveals plan drift, or the connection
/// breaks mid-campaign.
pub fn work(addr: &str, opts: &WorkOptions) -> Result<WorkSummary, String> {
    let read_err = |e: io::Error| format!("coordinator {addr}: {e}");

    // Handshake: campaign in, our fingerprint of the re-derived plan
    // out. A coordinator that has nothing to lease answers
    // with `retry` instead of a hello — back off and reconnect until a
    // campaign is being served or the connect window runs out (the
    // window that used to cover only the initial connect now covers
    // campaign acquisition too, so a worker never wedges in a handshake
    // that cannot progress).
    let acquire_deadline = Instant::now() + opts.connect_timeout;
    let (mut stream, mut buf, header, coordinator_fp) = loop {
        let window = acquire_deadline.saturating_duration_since(Instant::now());
        let mut stream = connect_retry(addr, window)?;
        stream.set_nodelay(true).ok();
        let mut buf = LineBuffer::new();
        let first = read_frame(&mut stream, &mut buf, Instant::now() + HANDSHAKE_DEADLINE)
            .map_err(read_err)?
            .ok_or_else(|| format!("coordinator {addr}: no hello before deadline"))?;
        match first {
            Frame::Hello { campaign: Some(header), fingerprint } => {
                break (stream, buf, header, fingerprint)
            }
            Frame::Retry { after_ms } => {
                drop(stream);
                let now = Instant::now();
                if now >= acquire_deadline {
                    return Err(format!(
                        "coordinator {addr} has no campaign to serve (kept retrying for \
                         {:.1}s; submit one or raise --connect-timeout)",
                        opts.connect_timeout.as_secs_f64()
                    ));
                }
                let pause = Duration::from_millis(after_ms)
                    .min(acquire_deadline.saturating_duration_since(now));
                eprintln!(
                    "[work: coordinator {addr} has no campaign to serve; retrying in {} ms]",
                    pause.as_millis()
                );
                std::thread::sleep(pause);
                continue;
            }
            first => {
                return Err(format!(
                    "coordinator {addr}: expected hello with campaign, got {first:?}"
                ))
            }
        }
    };
    // The header carries any declarative sweep definitions inline, so
    // the worker plans in the exact namespace the coordinator planned
    // in — sweeps shard and distribute like built-ins.
    let plan = header.campaign.plan().map_err(|e| {
        format!("coordinator campaign cannot be planned here (different binary?): {e}")
    })?;
    let flat = plan.flat();
    let fingerprint = plan.fingerprint();
    send_line(&mut stream, &Frame::Hello { campaign: None, fingerprint }).map_err(read_err)?;
    if flat.len() != header.runs || fingerprint != coordinator_fp {
        return Err(format!(
            "plan drift: coordinator announced {} run(s) with campaign fingerprint {:016x}, \
             this worker planned {} run(s) with {:016x} (mismatched binaries or options)",
            header.runs,
            coordinator_fp,
            flat.len(),
            fingerprint
        ));
    }
    eprintln!("[work: joined {addr}: {} run(s), fingerprint {fingerprint:016x}]", flat.len());

    let mut summary = WorkSummary { leases: 0, simulated: 0, quit_injected: false };
    loop {
        let frame = read_frame(&mut stream, &mut buf, Instant::now() + READ_TICK).map_err(read_err);
        let frame = match frame {
            Ok(Some(frame)) => frame,
            Ok(None) => continue, // idle: coordinator is waiting on other workers
            Err(e) => return Err(format!("{e} (before campaign completion)")),
        };
        match frame {
            Frame::Lease { id, indices } => {
                if summary.quit_injected
                    || opts.quit_after_leases.is_some_and(|limit| summary.leases >= limit)
                {
                    eprintln!(
                        "[work: quitting before lease {id} after {} lease(s) (fault injection)]",
                        summary.leases
                    );
                    summary.quit_injected = true;
                    return Ok(summary);
                }
                if let Some(&bad) = indices.iter().find(|&&i| i >= flat.len()) {
                    return Err(format!(
                        "lease {id} index {bad} exceeds the {}-run plan",
                        flat.len()
                    ));
                }
                let leased: Vec<&RunSpec> = indices.iter().map(|&i| flat[i]).collect();
                let results = run_batch(&leased, opts.jobs);
                for (&index, result) in indices.iter().zip(&results) {
                    let record = ShardRecord::from_result(index, flat[index].fingerprint(), result);
                    send_line(&mut stream, &Frame::Record(Box::new(record))).map_err(read_err)?;
                }
                send_line(&mut stream, &Frame::Done).map_err(read_err)?;
                summary.leases += 1;
                summary.simulated += indices.len();
            }
            Frame::Done => return Ok(summary),
            other => return Err(format!("coordinator {addr}: unexpected frame {other:?}")),
        }
    }
}

/// Connects with exponential backoff (25 ms doubling to a 1.6 s cap)
/// until `window` expires. The cap matters at fleet scale: when a
/// restarted coordinator comes back, workers that have been retrying
/// for a while knock at most every 1.6 s instead of all re-arriving in
/// 25 ms lockstep.
fn connect_retry(addr: &str, window: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + window;
    let mut delay = CONNECT_BACKOFF_FLOOR;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(READ_TICK))
                    .map_err(|e| format!("cannot set read timeout on {addr}: {e}"))?;
                return Ok(stream);
            }
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(format!("cannot connect to coordinator {addr}: {e}"));
                }
                std::thread::sleep(delay.min(deadline.saturating_duration_since(now)));
                delay = (delay * 2).min(CONNECT_BACKOFF_CEIL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::read_record_file;
    use crate::experiments::ExperimentOpts;
    use crate::metrics_codec::TailPolicy;
    use crate::scenario::CampaignRequest;
    use rfcache_pipeline::SimMetrics;

    #[test]
    fn line_buffer_reassembles_split_lines() {
        let mut buf = LineBuffer::new();
        buf.push(b"hel");
        assert_eq!(buf.next_line(), None);
        buf.push(b"lo\nwor");
        assert_eq!(buf.next_line(), Some("hello".to_string()));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.pending(), 3);
        buf.push(b"ld\r\n\n");
        assert_eq!(buf.next_line(), Some("world".to_string()));
        assert_eq!(buf.next_line(), Some(String::new()));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.pending(), 0);
    }

    fn at(base: Instant, secs: u64) -> Instant {
        base + Duration::from_secs(secs)
    }

    #[test]
    fn lease_table_chunks_completes_and_dedupes() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(5, 2, Duration::from_secs(60));
        let a = table.grab(t0).unwrap();
        assert_eq!(a.indices, vec![0, 1]);
        let b = table.grab(t0).unwrap();
        assert_eq!(b.indices, vec![2, 3]);
        let c = table.grab(t0).unwrap();
        assert_eq!(c.indices, vec![4]);
        assert!(table.grab(t0).is_none(), "nothing pending, nothing overdue");

        for i in 0..5 {
            assert!(table.record(i), "first fill is fresh");
        }
        assert!(!table.record(3), "second fill is a duplicate");
        assert!(table.complete());
    }

    #[test]
    fn lease_table_requeues_on_release_and_reissues_on_timeout() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(4, 2, Duration::from_secs(60));
        let a = table.grab(t0).unwrap();
        let b = table.grab(at(t0, 1)).unwrap();
        assert_eq!((a.indices.clone(), b.indices.clone()), (vec![0, 1], vec![2, 3]));

        // Worker of lease `a` completed half, then disconnected.
        assert!(table.record(0));
        assert_eq!(table.release(a.id), 1, "only the unfilled index re-queues");
        let a2 = table.grab(at(t0, 2)).unwrap();
        assert_eq!(a2.indices, vec![1], "released index is pending again");
        assert_eq!(table.release(a.id), 0, "stale release is a no-op");

        // Lease `b` stalls: not overdue at +30s, overdue at +61s.
        assert!(table.grab(at(t0, 30)).is_none());
        let b2 = table.grab(at(t0, 61)).unwrap();
        assert_eq!(b2.indices, vec![2, 3], "overdue lease re-issued");
        assert_ne!(b2.id, b.id, "re-issue gets a fresh lease id");

        // The straggler's late records still count once.
        assert!(table.record(2));
        assert!(table.record(3));
        assert!(table.record(1));
        assert!(table.complete());
        assert_eq!(table.release(b2.id), 0, "satisfied lease has nothing to re-queue");
    }

    #[test]
    fn lease_table_reissues_only_unfilled_indices() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(3, 3, Duration::from_secs(10));
        let a = table.grab(t0).unwrap();
        assert_eq!(a.indices, vec![0, 1, 2]);
        assert!(table.record(1), "straggler delivered one of three");
        let a2 = table.grab(at(t0, 11)).unwrap();
        assert_eq!(a2.indices, vec![0, 2], "filled index not re-issued");
    }

    #[test]
    fn lease_table_prune_skips_replayed_indices() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(5, 2, Duration::from_secs(60));
        // Journal replay fills 1 and 2 before any lease exists.
        assert!(table.record(1));
        assert!(table.record(2));
        table.prune_pending();
        let a = table.grab(t0).unwrap();
        assert_eq!(a.indices, vec![0, 3], "replayed indices are never leased");
        let b = table.grab(t0).unwrap();
        assert_eq!(b.indices, vec![4]);
        assert!(table.grab(t0).is_none());
        assert!(table.record(0));
        assert!(table.record(3));
        assert!(table.record(4));
        assert!(table.complete());
    }

    fn sample_record(index: usize, fingerprint: u64) -> ShardRecord {
        ShardRecord {
            index,
            fingerprint,
            bench: "li".into(),
            fp: false,
            metrics: SimMetrics::default(),
        }
    }

    #[test]
    fn journal_writer_creates_appends_resumes_and_refuses_overwrite() {
        let dir = std::env::temp_dir().join(format!("rfcache_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let _ = std::fs::remove_file(&path);
        let campaign = CampaignRequest::new(vec!["x".into()], ExperimentOpts::smoke());
        let header = CampaignHeader { campaign, shard: 0, of: 1, runs: 3 };
        let record = sample_record(1, 7);

        let mut writer = JournalWriter::create(&path, &header, 0xabc, 1).unwrap();
        writer.append(&record.to_line()).unwrap();
        drop(writer);
        assert!(
            JournalWriter::create(&path, &header, 0xabc, 1).is_err(),
            "an existing journal must never be clobbered by a fresh serve"
        );

        // A crash tears the final line mid-write; the reader drops it.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut torn = OpenOptions::new().append(true).open(&path).unwrap();
        torn.write_all(b"{\"index\": 2, \"finge").unwrap();
        drop(torn);
        let replay = read_record_file(&path, TailPolicy::DropTorn).unwrap();
        assert_eq!(replay.header, header);
        assert_eq!(replay.campaign_fingerprint, Some(0xabc));
        assert_eq!(replay.records, vec![record.clone()]);
        assert_eq!(replay.valid_len as u64, clean_len);
        assert!(replay.torn > 0);

        // Resume truncates the torn tail and appends cleanly after it.
        let mut writer = JournalWriter::resume(&path, replay.valid_len as u64, 0).unwrap();
        writer.append(&sample_record(2, 9).to_line()).unwrap();
        writer.sync().unwrap();
        drop(writer);
        let replay = read_record_file(&path, TailPolicy::DropTorn).unwrap();
        assert_eq!(replay.torn, 0);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].index, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_table_counts_always_sum_to_the_plan() {
        let t0 = Instant::now();
        let mut table = LeaseTable::new(5, 2, Duration::from_secs(60));
        assert_eq!(table.counts(), (0, 0, 5));
        let a = table.grab(t0).unwrap();
        assert_eq!(table.counts(), (0, 2, 3));
        assert!(table.record(a.indices[0]));
        assert_eq!(table.counts(), (1, 1, 3), "a filled index leaves its lease");
        assert_eq!(table.release(a.id), 1);
        assert_eq!(table.counts(), (1, 0, 4), "released remainder is pending again");
        let b = table.grab(t0).unwrap();
        let c = table.grab(t0).unwrap();
        assert_eq!(table.counts(), (1, 4, 0));
        for i in b.indices.iter().chain(&c.indices) {
            assert!(table.record(*i));
        }
        assert_eq!(table.counts(), (5, 0, 0));
        assert!(table.complete());
    }

    #[test]
    fn auto_chunk_scales_with_the_campaign() {
        assert_eq!(LeaseTable::new(640, 0, Duration::from_secs(1)).chunk, 10);
        assert_eq!(LeaseTable::new(5, 0, Duration::from_secs(1)).chunk, 1);
        assert_eq!(LeaseTable::new(0, 0, Duration::from_secs(1)).chunk, 1);
        assert!(LeaseTable::new(0, 0, Duration::from_secs(1)).complete(), "empty plan is done");
    }
}
