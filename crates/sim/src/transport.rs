//! TCP transport for distributed campaigns: the pieces of a lease-based
//! coordinator/worker protocol over newline-delimited JSON frames.
//!
//! The coordinator owns the deterministic campaign plan. It never ships
//! a [`RunSpec`] over the wire — a connecting worker ([`work`]) receives
//! the campaign description in the `hello` frame's [`CampaignHeader`],
//! re-derives the *same* plan ([`crate::CampaignRequest::plan`]), and
//! proves it did by echoing the plan's [`crate::campaign_fingerprint`].
//! After that handshake the coordinator hands out **leases** (small sets
//! of flat-plan indices, whole groups of the runs that read one
//! instruction stream, so a worker generates each stream once) and folds
//! the streamed `record` frames into a plan-ordered result vector, so
//! reports assembled from a distributed run are byte-identical to a
//! single-process run.
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
//!   [`ExecutorError::PlanDrift`](crate::executor::ExecutorError::PlanDrift)
//!   instead of a silently scrambled report.
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

use crate::metrics_codec::{CampaignHeader, Frame, ShardRecord};
use crate::run::{fnv1a_64, run_batch, RunSpec, WorkloadSource};
use std::collections::{HashMap, VecDeque};
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
    pub(crate) fn append(&mut self, record_line: &str) -> io::Result<()> {
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

/// What a lease groups a plan index by. The keys are hashes: a collision
/// can only cost sharing, since a lease is still a list of plan indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeaseKey {
    /// The instruction stream the run reads ([`RunSpec::stream_key`]).
    pub stream: u64,
    /// Whether that stream is generated: a worker generates it again for
    /// every lease that holds some of its runs, while it loads a recorded
    /// trace once with the plan.
    pub generated: bool,
    /// The run's trajectory ([`RunSpec::trajectory_key`]).
    pub trajectory: u64,
    /// The run's simulation identity ([`RunSpec::dedupe_key`]).
    pub spec: u64,
}

/// Pure bookkeeping for lease issue, completion, re-queue on disconnect
/// and re-issue on timeout. Time is injected, so the straggler logic is
/// unit-testable without waiting.
///
/// **Stream groups.** A lease is simulated by one `run_batch` call, which
/// shares each instruction stream, simulates each trajectory once and
/// dedupes each repeated spec only among its own indices. So the pending
/// queue keeps the runs of one stream together, the runs of one
/// trajectory together inside it and equal specs together inside that,
/// and a lease takes whole stream groups, or whole trajectories of a
/// stream group larger than the lease; see [`grab`](Self::grab).
#[derive(Debug)]
pub(crate) struct LeaseTable {
    /// Target lease size: a lease takes stream groups until it holds at
    /// least this many indices, so it stays below twice this.
    chunk: usize,
    timeout: Duration,
    pending: VecDeque<usize>,
    /// For every plan index, the first index of its stream group.
    stream: Vec<usize>,
    /// For every plan index, the first index of its trajectory.
    trajectory: Vec<usize>,
    in_flight: Vec<InFlight>,
    filled: Vec<bool>,
    completed: usize,
    next_id: u64,
}

impl LeaseTable {
    /// A table in plan order, every index a recorded stream of its own,
    /// so a lease is `chunk` consecutive pending indices.
    #[cfg(test)]
    pub(crate) fn new(runs: usize, chunk: usize, timeout: Duration) -> Self {
        let keys: Vec<LeaseKey> = (0..runs as u64)
            .map(|i| LeaseKey { stream: i, generated: false, trajectory: 0, spec: 0 })
            .collect();
        Self::grouped(&keys, chunk, timeout)
    }

    /// A table that leases whole stream groups, `chunk` indices or more
    /// at a time (0 = [`auto_chunk`]). Pending indices are ordered by the
    /// first index of their stream, then of their trajectory, then of
    /// their spec, then by their own index.
    pub(crate) fn grouped(keys: &[LeaseKey], chunk: usize, timeout: Duration) -> Self {
        let mut stream_first: HashMap<u64, usize> = HashMap::new();
        let mut trajectory_first: HashMap<(u64, u64), usize> = HashMap::new();
        let mut spec_first: HashMap<(u64, u64, u64), usize> = HashMap::new();
        let mut generated_runs: HashMap<u64, usize> = HashMap::new();
        let mut order = Vec::with_capacity(keys.len());
        let (mut stream, mut trajectory) = (Vec::new(), Vec::new());
        for (i, key) in keys.iter().enumerate() {
            let first = *stream_first.entry(key.stream).or_insert(i);
            let on = *trajectory_first.entry((key.stream, key.trajectory)).or_insert(i);
            let spec = *spec_first.entry((key.stream, key.trajectory, key.spec)).or_insert(i);
            order.push((first, on, spec, i));
            stream.push(first);
            trajectory.push(on);
            if key.generated {
                *generated_runs.entry(key.stream).or_default() += 1;
            }
        }
        order.sort_unstable();
        let runs = keys.len();
        let largest = generated_runs.into_values().max().unwrap_or(0);
        LeaseTable {
            chunk: if chunk == 0 { auto_chunk(runs, largest) } else { chunk },
            timeout,
            pending: order.into_iter().map(|(_, _, _, i)| i).collect(),
            stream,
            trajectory,
            in_flight: Vec::new(),
            filled: vec![false; runs],
            completed: 0,
            next_id: 0,
        }
    }

    /// [`grouped`](Self::grouped) over a plan's specs: each spec's stream,
    /// trajectory and simulation identity are hashed here once, and no
    /// spec text is kept.
    pub(crate) fn for_specs(specs: &[&RunSpec], chunk: usize, timeout: Duration) -> Self {
        let keys: Vec<LeaseKey> = specs
            .iter()
            .map(|spec| LeaseKey {
                stream: spec.stream_key(),
                generated: !matches!(spec.workload, WorkloadSource::Trace(_)),
                trajectory: fnv1a_64(spec.trajectory_key().bytes()),
                spec: fnv1a_64(spec.dedupe_key().bytes()),
            })
            .collect();
        Self::grouped(&keys, chunk, timeout)
    }

    /// Takes the next lease: fresh pending work first, otherwise the
    /// unfilled remainder of the most overdue timed-out lease (straggler
    /// re-issue — the original worker keeps streaming, duplicates are
    /// dropped by [`record`](Self::record)'s filled check).
    ///
    /// Fresh work is taken while the lease holds fewer than `chunk`
    /// indices: a stream group at a time, and a group larger than `chunk`
    /// a trajectory at a time, and a trajectory larger than `chunk`
    /// `chunk` indices at a time.
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
            let mut indices = Vec::new();
            while indices.len() < self.chunk {
                let Some(&front) = self.pending.front() else { break };
                // The pending run of `front`'s group, counted to chunk + 1.
                let run = |group: &[usize]| {
                    let same = |&&i: &&usize| group[i] == group[front];
                    self.pending.iter().take(self.chunk + 1).take_while(same).count()
                };
                let stream = run(&self.stream);
                let n = if stream <= self.chunk {
                    stream
                } else {
                    run(&self.trajectory).min(self.chunk)
                };
                indices.extend(self.pending.drain(..n));
            }
            indices
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

/// The automatic lease size for a campaign of `runs` runs whose largest
/// generated-stream group holds `largest` of them: about 64 leases per
/// campaign, but at least that group, so that a worker generates the
/// stream once; and at most an eighth of the campaign, so that a campaign
/// of one stream is still spread over several leases (a trajectory at a
/// time).
pub(crate) fn auto_chunk(runs: usize, largest: usize) -> usize {
    (runs / 64).max(largest).min(runs / 8).max(1)
}

/// Lease policy knobs of the coordinator loop
/// ([`crate::service::serve_service`]), applied to every campaign.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// A lease older than this may be re-issued to an idle worker
    /// (straggler mitigation). Disconnects re-queue immediately
    /// regardless.
    pub lease_timeout: Duration,
    /// Target plan indices per lease (0 = auto: about 64 leases per
    /// campaign, but at least its largest group of runs that read one
    /// generated stream, and at most an eighth of the campaign). A lease
    /// takes whole groups of runs that read one instruction stream until
    /// it holds at least this many, so it holds fewer than twice this.
    pub chunk: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { lease_timeout: Duration::from_secs(60), chunk: 0 }
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
    use proptest::prelude::*;
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

    /// Leases every index of `table` without completing any, in grab
    /// order.
    fn grab_all(table: &mut LeaseTable) -> Vec<Vec<usize>> {
        std::iter::from_fn(|| table.grab(Instant::now())).map(|l| l.indices).collect()
    }

    /// Lease keys of generated streams from `(stream, trajectory, spec)`.
    fn lease_keys(keys: &[(u64, u64, u64)]) -> Vec<LeaseKey> {
        keys.iter()
            .map(|&(stream, trajectory, spec)| LeaseKey {
                stream,
                generated: true,
                trajectory,
                spec,
            })
            .collect()
    }

    proptest! {
        /// Grouped leases over random stream, trajectory and spec keys:
        /// every index exactly once, every lease below twice the chunk,
        /// every stream group and every trajectory no larger than the
        /// chunk in one lease, and one index per lease at chunk 1.
        #[test]
        fn grouped_leases_take_whole_stream_groups(
            keys in proptest::collection::vec((0..8u64, 0..3u64, 0..3u64), 0..120),
            chunk in prop_oneof![Just(1usize), 1..40usize],
        ) {
            let mut table = LeaseTable::grouped(&lease_keys(&keys), chunk, Duration::from_secs(60));
            let leases = grab_all(&mut table);
            let mut leased: Vec<usize> = leases.iter().flatten().copied().collect();
            leased.sort_unstable();
            prop_assert_eq!(leased, (0..keys.len()).collect::<Vec<_>>());
            for lease in &leases {
                prop_assert!(!lease.is_empty() && lease.len() < 2 * chunk, "{:?}", lease);
                prop_assert!(chunk > 1 || lease.len() == 1, "{:?}", lease);
            }
            let split = |of: &dyn Fn(usize) -> bool| {
                let runs = (0..keys.len()).filter(|&i| of(i)).count();
                runs <= chunk && leases.iter().filter(|l| l.iter().any(|&i| of(i))).count() > 1
            };
            for stream in 0..8u64 {
                prop_assert!(!split(&|i| keys[i].0 == stream), "stream {} split", stream);
                for on in 0..3u64 {
                    let of = |i: usize| keys[i].0 == stream && keys[i].1 == on;
                    prop_assert!(!split(&of), "trajectory {}/{} split", stream, on);
                }
            }
        }
    }

    #[test]
    fn grouped_table_orders_by_stream_then_spec_and_requeues_releases() {
        let t0 = Instant::now();
        // Streams 7 and 9 interleave in plan order; 0 and 4 repeat a spec.
        let keys = lease_keys(&[(7, 0, 0), (9, 0, 0), (7, 1, 1), (9, 1, 1), (7, 0, 0), (5, 0, 0)]);
        let mut table = LeaseTable::grouped(&keys, 2, Duration::from_secs(60));
        let a = table.grab(t0).unwrap();
        assert_eq!(a.indices, vec![0, 4], "stream 7 is larger than the chunk: a piece");
        let b = table.grab(at(t0, 1)).unwrap();
        assert_eq!(b.indices, vec![2, 1, 3], "its rest, then the whole of stream 9");

        // Lease `a`'s worker delivered one index, then disconnected: its
        // remainder queues behind the pending stream 5.
        assert!(table.record(0));
        assert_eq!(table.release(a.id), 1);
        assert_eq!(table.counts(), (1, 3, 2));
        let c = table.grab(at(t0, 2)).unwrap();
        assert_eq!(c.indices, vec![5, 4]);

        // Lease `b` stalls and is re-issued whole after the timeout.
        assert!(table.grab(at(t0, 30)).is_none());
        let b2 = table.grab(at(t0, 61)).unwrap();
        assert_eq!(b2.indices, vec![2, 1, 3]);
        assert_ne!(b2.id, b.id);
        for i in [5, 4, 2, 1, 3] {
            assert!(table.record(i));
        }
        assert!(!table.record(3), "the straggler's late record is a duplicate");
        assert!(table.complete());
    }

    /// The sharing a lease gets on the CI example sweep (two seeds):
    /// 6 generated streams of 6 runs each and one recorded trace read by
    /// 12 runs, 6 register-file and run-length points under 2 seeds.
    #[test]
    fn example_sweep_leases_share_streams_and_seed_blind_replays() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let text = std::fs::read_to_string(format!("{root}/ci/sweeps/example.json")).unwrap();
        let text = text.replace("\"ci/fixtures/", &format!("\"{root}/ci/fixtures/"));
        let plan = crate::SweepDef::parse(&text).unwrap().plan(&ExperimentOpts::default());
        let specs: Vec<&RunSpec> = plan.iter().collect();
        assert_eq!(specs.len(), 48);
        let is_trace = |spec: &&RunSpec| matches!(spec.workload, WorkloadSource::Trace(_));

        // At chunk 12, the largest stream group, each stream is one lease,
        // and a lease simulates each replay once for both seeds.
        let mut table = LeaseTable::for_specs(&specs, 12, Duration::from_secs(60));
        let leases = grab_all(&mut table);
        let mut streams: Vec<u64> = specs.iter().map(|s| s.stream_key()).collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), 7);
        for stream in streams {
            let holding =
                leases.iter().filter(|l| l.iter().any(|&i| specs[i].stream_key() == stream));
            assert_eq!(holding.count(), 1, "stream {stream:016x} is split");
        }
        let mut replays = 0;
        for lease in &leases {
            let trace: Vec<&RunSpec> = lease.iter().map(|&i| specs[i]).filter(is_trace).collect();
            let (firsts, _) = crate::run::distinct(&trace);
            assert_eq!(firsts.len() * 2, trace.len(), "one simulation per seed-blind replay");
            replays += trace.len();
        }
        assert_eq!(replays, 12);

        // The automatic size is the largest generated-stream group, 6 runs
        // (3 register files x 2 lengths): each generated stream is one
        // lease, and the replays' 12 runs go a trajectory (4 runs) at a
        // time, so no trajectory is split either.
        let mut table = LeaseTable::for_specs(&specs, 0, Duration::from_secs(60));
        assert_eq!(table.chunk, 6);
        let leases = grab_all(&mut table);
        assert_eq!(leases.len(), 7);
        let mut trajectories: Vec<String> = specs.iter().map(|s| s.trajectory_key()).collect();
        trajectories.sort_unstable();
        trajectories.dedup();
        assert_eq!(trajectories.len(), 21, "18 generated and 3 replayed");
        for trajectory in &trajectories {
            let holding = leases
                .iter()
                .filter(|l| l.iter().any(|&i| &specs[i].trajectory_key() == trajectory));
            assert_eq!(holding.count(), 1, "{trajectory} is split");
        }
        for stream in specs.iter().filter(|s| !is_trace(s)).map(|s| s.stream_key()) {
            let holding =
                leases.iter().filter(|l| l.iter().any(|&i| specs[i].stream_key() == stream));
            assert_eq!(holding.count(), 1, "stream {stream:016x} is split");
        }

        // An explicit `--chunk 1` still leases one index at a time.
        let mut table = LeaseTable::for_specs(&specs, 1, Duration::from_secs(60));
        let leases = grab_all(&mut table);
        assert_eq!(leases.len(), 48);
        assert!(leases.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn auto_chunk_scales_with_the_campaign() {
        assert_eq!(LeaseTable::new(640, 0, Duration::from_secs(1)).chunk, 10);
        assert_eq!(LeaseTable::new(5, 0, Duration::from_secs(1)).chunk, 1);
        assert_eq!(LeaseTable::new(0, 0, Duration::from_secs(1)).chunk, 1);
        assert!(LeaseTable::new(0, 0, Duration::from_secs(1)).complete(), "empty plan is done");
        // The benchmark's service sweep: 1920 runs, generated groups of 12.
        assert_eq!(auto_chunk(1920, 12), 30);
        // At least one generated-stream group ...
        assert_eq!(auto_chunk(48, 6), 6);
        assert_eq!(auto_chunk(640, 40), 40);
        // ... but a campaign of one stream still goes out in pieces.
        assert_eq!(auto_chunk(200, 200), 25);
        assert_eq!(auto_chunk(5, 5), 1);
    }
}
