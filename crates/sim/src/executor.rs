//! Pluggable campaign execution backends.
//!
//! [`run_campaign`](crate::scenario::run_campaign) plans a flat list of
//! [`RunSpec`]s; an [`Executor`] decides *where* those specs run. Three
//! backends ship:
//!
//! * [`InProcess`] — a shared-work-queue thread pool, the default.
//! * [`Subprocess`] — spawns `N` worker processes (`experiments
//!   --shard I/N --out FILE`), each of which deterministically re-derives
//!   the same campaign plan, executes only indices `i % N == I`, and
//!   emits one JSON-lines [`ShardRecord`] per completed spec. The
//!   coordinator folds the shard files back into a complete,
//!   plan-ordered result vector, verifying each record's spec
//!   fingerprint so *plan drift* between coordinator and worker is an
//!   error instead of a silently scrambled report.
//! * [`Distributed`] — a TCP coordinator ([`crate::transport`]) leasing
//!   plan-index ranges to an elastic pool of `experiments work`
//!   processes on any host, with disconnect re-queue, lease-timeout
//!   re-issue for stragglers, and per-record fingerprint verification.
//!
//! All backends return results in plan order, so every scenario's
//! `assemble()` sees exactly what a sequential run would have produced —
//! merged output is byte-identical across backends, shard counts and
//! worker pools.
//!
//! Wherever specs are simulated — the in-process pool, a shard worker,
//! a distributed worker's lease — they go through one batch primitive,
//! [`run_batch`]. It simulates each distinct spec once (the identity is
//! the spec's `Debug` text, which the result cache also matches on) and
//! copies the result to every plan index that repeats it, and it
//! generates each synthetic instruction stream once for all the runs
//! that read it. Each result is identical to [`RunSpec::run`] on its
//! own, so none of this shows in results, records, fingerprints, lease
//! or journal indices, or reports. With a result cache, each distinct
//! spec is also looked up and stored once.

use crate::experiments::ExperimentOpts;
use crate::metrics_codec::{CampaignHeader, RecordFile, ShardRecord, TailPolicy};
use crate::run::{campaign_fingerprint, distinct, run_batch, RunResult, RunSpec};
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Why a campaign execution failed.
#[derive(Debug)]
pub enum ExecutorError {
    /// A filesystem or process-spawn failure.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A worker process exited unsuccessfully.
    Worker {
        /// Shard index of the worker.
        shard: usize,
        /// Exit status / failure description.
        detail: String,
    },
    /// A shard file could not be decoded.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What was malformed.
        detail: String,
    },
    /// A record's spec fingerprint disagrees with the coordinator's
    /// plan: coordinator and worker derived different campaigns.
    PlanDrift {
        /// Campaign index of the offending record.
        index: usize,
        /// Expected vs observed fingerprints.
        detail: String,
    },
    /// The shard files do not cover the plan exactly once.
    Coverage {
        /// Which indices are missing or duplicated.
        detail: String,
    },
    /// The distributed transport could not complete the campaign
    /// (aborted, or every worker was lost).
    Transport {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::Io { context, source } => write!(f, "{context}: {source}"),
            ExecutorError::Worker { shard, detail } => {
                write!(f, "shard worker {shard} failed: {detail}")
            }
            ExecutorError::Corrupt { file, detail } => {
                write!(f, "corrupt shard file {}: {detail}", file.display())
            }
            ExecutorError::PlanDrift { index, detail } => {
                write!(f, "plan drift at campaign index {index}: {detail}")
            }
            ExecutorError::Coverage { detail } => write!(f, "incomplete shard coverage: {detail}"),
            ExecutorError::Transport { detail } => {
                write!(f, "distributed campaign failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutorError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ExecutorError {
    pub(crate) fn io(context: impl Into<String>, source: io::Error) -> Self {
        ExecutorError::Io { context: context.into(), source }
    }
}

/// A campaign execution backend: runs every spec and returns the results
/// in spec order.
pub trait Executor {
    /// Human-readable backend name for diagnostics.
    fn name(&self) -> String;

    /// Executes all specs, returning one result per spec in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError`] when the backend cannot produce a
    /// complete, verified result set.
    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError>;
}

/// The in-process thread-pool backend: [`run_batch`] on `jobs` worker
/// threads (0 = one per available core). Infallible — the default for
/// everything that fits in one process.
///
/// With [`with_cache`](Self::with_cache), each distinct spec is looked
/// up in the result cache first and only the misses are simulated (in
/// parallel, as usual); each fresh result is stored back once. A cache
/// hit returns the exact metrics the original simulation produced, so
/// reports stay byte-identical either way.
#[derive(Debug, Clone)]
pub struct InProcess {
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    cache: Option<crate::cache::Cache>,
}

impl InProcess {
    /// Builds the backend with the given worker-thread count.
    pub fn new(jobs: usize) -> Self {
        InProcess { jobs, cache: None }
    }

    /// Consults (and populates) a result cache around every simulation
    /// (builder-style).
    #[must_use]
    pub fn with_cache(mut self, cache: crate::cache::Cache) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl Executor for InProcess {
    fn name(&self) -> String {
        "in-process".into()
    }

    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError> {
        Ok(match &self.cache {
            Some(cache) => run_batch_cached(specs, self.jobs, cache, "in-process"),
            None => run_batch(specs, self.jobs),
        })
    }
}

/// [`run_batch`] behind a result cache: each distinct spec is looked up
/// once, only the distinct misses are simulated, and each fresh result is
/// stored once. Records one cache session named `mode`, whose lookups and
/// hits count plan indices.
fn run_batch_cached(
    specs: &[&RunSpec],
    jobs: usize,
    cache: &crate::cache::Cache,
    mode: &str,
) -> Vec<RunResult> {
    let (firsts, slots) = distinct(specs);
    let mut found: Vec<Option<RunResult>> =
        firsts.iter().map(|&i| cache.lookup(specs[i])).collect();
    let hits = slots.iter().filter(|&&k| found[k].is_some()).count();
    let misses: Vec<usize> = (0..firsts.len()).filter(|&k| found[k].is_none()).collect();
    let miss_specs: Vec<&RunSpec> = misses.iter().map(|&k| specs[firsts[k]]).collect();
    let mut stores = 0u64;
    for (&k, result) in misses.iter().zip(run_batch(&miss_specs, jobs)) {
        let spec = specs[firsts[k]];
        match cache.store(spec, &result) {
            Ok(()) => stores += 1,
            Err(e) => eprintln!(
                "[cache: warning: cannot store the result of spec {:016x}: {e}]",
                spec.fingerprint()
            ),
        }
        found[k] = Some(result);
    }
    let session = crate::cache::CacheSession::now(mode, specs.len() as u64, hits as u64, stores);
    if let Err(e) = cache.record_session(&session) {
        eprintln!("[cache: warning: cannot record the session: {e}]");
    }
    if hits > 0 {
        eprintln!(
            "[cache: {hits} of {} run(s) served from {}]",
            specs.len(),
            cache.dir().display()
        );
    }
    slots.iter().map(|&k| found[k].clone().expect("misses were filled above")).collect()
}

/// The multi-process sharded backend.
///
/// Spawns `shards` copies of a worker binary (normally the `experiments`
/// CLI itself), each invoked as `<worker> <campaign_args>... --shard I/N
/// --out <scratch>/shard-I.jsonl`. The workers re-derive the campaign
/// plan from `campaign_args` — the scenario names and planning options —
/// so no specs cross the process boundary; only results come back, as
/// fingerprint-stamped JSON-lines records that [`execute`](Executor::execute)
/// verifies against its own plan.
#[derive(Debug, Clone)]
pub struct Subprocess {
    worker: PathBuf,
    campaign_args: Vec<String>,
    shards: usize,
    scratch: PathBuf,
    cache: Option<PathBuf>,
}

impl Subprocess {
    /// Configures the backend.
    ///
    /// `campaign_args` must make `worker` plan exactly the campaign the
    /// coordinator planned (scenario names plus `--insts/--warmup/--seed
    /// /--quick`); fingerprint verification catches any disagreement.
    /// Shard files are written under `scratch` (created on demand, left
    /// on disk for inspection).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(
        worker: impl Into<PathBuf>,
        campaign_args: Vec<String>,
        shards: usize,
        scratch: impl Into<PathBuf>,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        Subprocess {
            worker: worker.into(),
            campaign_args,
            shards,
            scratch: scratch.into(),
            cache: None,
        }
    }

    /// Makes every shard worker consult (and populate) the result cache
    /// at `dir` — each is spawned with `--cache DIR`, and the advisory
    /// lock lets all of them share the directory safely (builder-style).
    #[must_use]
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(dir.into());
        self
    }

    /// The shard file a given worker writes.
    pub fn shard_path(&self, shard: usize) -> PathBuf {
        self.scratch.join(format!("shard-{shard}.jsonl"))
    }
}

impl Executor for Subprocess {
    fn name(&self) -> String {
        format!("{} subprocess shard(s)", self.shards)
    }

    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError> {
        std::fs::create_dir_all(&self.scratch).map_err(|e| {
            ExecutorError::io(format!("cannot create {}", self.scratch.display()), e)
        })?;
        let mut children = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let mut command = Command::new(&self.worker);
            command.args(&self.campaign_args);
            if let Some(dir) = &self.cache {
                command.arg("--cache").arg(dir);
            }
            let child = command
                .arg("--shard")
                .arg(format!("{shard}/{}", self.shards))
                .arg("--out")
                .arg(self.shard_path(shard))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                // stderr inherits: worker diagnostics surface directly.
                .spawn()
                .map_err(|e| {
                    ExecutorError::io(format!("cannot spawn {}", self.worker.display()), e)
                });
            match child {
                Ok(child) => children.push(child),
                Err(e) => {
                    // Don't leak already-started workers.
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(e);
                }
            }
        }
        // Reap every worker even if one wait fails — an early return here
        // would leak the remaining children as running orphans.
        let mut failure = None;
        for (shard, mut child) in children.into_iter().enumerate() {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    failure
                        .get_or_insert(ExecutorError::Worker { shard, detail: status.to_string() });
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    failure.get_or_insert(ExecutorError::io(
                        format!("cannot wait for shard {shard}"),
                        e,
                    ));
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }

        let mut records = Vec::with_capacity(specs.len());
        for shard in 0..self.shards {
            let path = self.shard_path(shard);
            let (header, shard_records) = read_shard_file(&path)?;
            if header.shard != shard || header.of != self.shards || header.runs != specs.len() {
                return Err(ExecutorError::Corrupt {
                    file: path,
                    detail: format!(
                        "header says shard {}/{} of {} run(s), expected {shard}/{} of {}",
                        header.shard,
                        header.of,
                        header.runs,
                        self.shards,
                        specs.len()
                    ),
                });
            }
            records.extend(shard_records);
        }
        assemble_shard_results(specs, records)
    }
}

/// The distributed TCP backend: a lease-based coordinator
/// ([`crate::transport::serve`]) over an elastic pool of `experiments
/// work` processes, on this host or others.
///
/// Workers re-derive the campaign plan from the `hello` frame's
/// [`CampaignHeader`] and prove it with a campaign fingerprint, then
/// stream fingerprint-verified records back lease by lease; a worker
/// that disconnects or stalls past the lease timeout has its in-flight
/// indices re-issued, and duplicate records are deduplicated by plan
/// index — so the assembled results (and therefore all reports and
/// exports) are byte-identical to [`InProcess`] no matter how many
/// workers join, leave, or crash along the way.
///
/// With [`self_spawn`](Self::self_spawn) the backend also launches `N`
/// local worker subprocesses and supervises them (the CLI's
/// `--dist-workers N` path): if every self-spawned worker exits before
/// the campaign completes, the campaign aborts instead of waiting for
/// workers that will never come.
#[derive(Debug, Clone)]
pub struct Distributed {
    bind: String,
    http_bind: Option<String>,
    scenarios: Vec<String>,
    /// Canonical JSON texts of any declarative sweeps the scenario
    /// names refer to — carried in the campaign header so workers can
    /// rebuild the namespace.
    sweeps: Vec<String>,
    opts: ExperimentOpts,
    serve_opts: crate::transport::ServeOptions,
    self_spawn: Option<SelfSpawn>,
    journal: Option<JournalSpec>,
    cache: Option<PathBuf>,
}

/// Write-ahead journal configuration for [`Distributed`]: where the
/// coordinator checkpoints accepted records, and whether this run is a
/// fresh campaign or the resumption of an interrupted one.
#[derive(Debug, Clone)]
pub struct JournalSpec {
    /// The journal file. Fresh runs refuse an existing file (it may be
    /// an interrupted campaign worth resuming); `resume` requires one.
    pub path: PathBuf,
    /// `sync_data` after every this-many accepted records (0 = only at
    /// campaign completion; every record still reaches the OS
    /// immediately — the interval only bounds what a *host* crash can
    /// lose, a coordinator crash loses nothing).
    pub sync_every: usize,
    /// Replay the journal's records into the slot table and serve only
    /// the remaining plan indices.
    pub resume: bool,
}

/// Self-spawned local worker pool configuration (the one-command
/// localhost path).
#[derive(Debug, Clone)]
pub struct SelfSpawn {
    /// The worker binary (normally the `experiments` CLI itself).
    pub worker: PathBuf,
    /// How many worker processes to launch.
    pub count: usize,
    /// `--jobs` threads per worker.
    pub jobs: usize,
}

impl Distributed {
    /// Configures the backend: listen on `bind` (e.g. `0.0.0.0:7841`,
    /// or port `0` for an ephemeral port — the chosen address is logged
    /// to stderr) and serve the campaign described by `scenarios` +
    /// `opts` under the given lease policy.
    pub fn new(
        bind: impl Into<String>,
        scenarios: Vec<String>,
        opts: &ExperimentOpts,
        serve_opts: crate::transport::ServeOptions,
    ) -> Self {
        Distributed {
            bind: bind.into(),
            http_bind: None,
            scenarios,
            sweeps: Vec::new(),
            opts: *opts,
            serve_opts,
            self_spawn: None,
            journal: None,
            cache: None,
        }
    }

    /// Embeds declarative sweep definitions (canonical JSON texts) in
    /// the campaign header, so every worker re-derives the same plan
    /// for sweep scenarios (builder-style).
    #[must_use]
    pub fn sweeps(mut self, sweeps: Vec<String>) -> Self {
        self.sweeps = sweeps;
        self
    }

    /// Consults (and populates) the result cache at `dir`: cached plan
    /// indices are admitted — and journaled — at plan time, before any
    /// lease is issued, so workers only ever simulate the remainder;
    /// every live record they stream back is stored for the next
    /// campaign (builder-style).
    #[must_use]
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(dir.into());
        self
    }

    /// Additionally serve the HTTP control plane (`GET /status`, `GET
    /// /healthz`) on a second address — same readiness loop, observable
    /// from the outside (builder-style). Port `0` picks an ephemeral
    /// port; the chosen address is logged to stderr.
    #[must_use]
    pub fn http(mut self, bind: impl Into<String>) -> Self {
        self.http_bind = Some(bind.into());
        self
    }

    /// Additionally spawn and supervise `count` local worker processes
    /// (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn self_spawn(mut self, worker: impl Into<PathBuf>, count: usize, jobs: usize) -> Self {
        assert!(count > 0, "at least one worker");
        self.self_spawn = Some(SelfSpawn { worker: worker.into(), count, jobs });
        self
    }

    /// Write-ahead journal the accepted records — and, with
    /// [`JournalSpec::resume`], replay an interrupted campaign's journal
    /// and serve only what remains (builder-style).
    #[must_use]
    pub fn journal(mut self, spec: JournalSpec) -> Self {
        self.journal = Some(spec);
        self
    }

    /// Opens (or resumes) the write-ahead journal for this campaign.
    ///
    /// On resume the journaled header must describe this exact campaign
    /// and the stamped campaign fingerprint must match the re-derived
    /// plan — the same drift check a live worker handshake gets.
    fn open_journal(
        &self,
        spec: &JournalSpec,
        header: &CampaignHeader,
        specs: &[&RunSpec],
    ) -> Result<crate::transport::Journal, ExecutorError> {
        use crate::transport::{Journal, JournalReader, JournalWriter};
        let fingerprint = campaign_fingerprint(specs);
        if !spec.resume {
            let writer = JournalWriter::create(&spec.path, header, fingerprint, spec.sync_every)
                .map_err(|e| {
                    let context = if e.kind() == io::ErrorKind::AlreadyExists {
                        format!(
                            "journal {} already exists — resume the interrupted campaign with \
                             `experiments resume --journal {}`, or delete the file to start over",
                            spec.path.display(),
                            spec.path.display()
                        )
                    } else {
                        format!("cannot create journal {}", spec.path.display())
                    };
                    ExecutorError::io(context, e)
                })?;
            return Ok(Journal { writer, replay: Vec::new() });
        }
        let replay = JournalReader::read(&spec.path)?;
        if !replay.header.same_campaign(header) {
            return Err(ExecutorError::Corrupt {
                file: spec.path.clone(),
                detail: "journal header describes a different campaign (scenarios/options/plan \
                         size disagree)"
                    .into(),
            });
        }
        if let Some(journaled) = replay.campaign_fingerprint {
            if journaled != fingerprint {
                return Err(ExecutorError::PlanDrift {
                    index: 0,
                    detail: format!(
                        "journal stamps campaign fingerprint {journaled:016x}, this binary plans \
                         {fingerprint:016x} (mismatched binaries or options)"
                    ),
                });
            }
        }
        if replay.torn > 0 {
            eprintln!(
                "[serve: dropping a torn {}-byte final journal line (crash mid-write)]",
                replay.torn
            );
        }
        let writer = JournalWriter::resume(&spec.path, replay.valid_len as u64, spec.sync_every)
            .map_err(|e| {
                ExecutorError::io(format!("cannot reopen journal {}", spec.path.display()), e)
            })?;
        Ok(Journal { writer, replay: replay.records })
    }
}

impl Executor for Distributed {
    fn name(&self) -> String {
        match &self.self_spawn {
            Some(sp) => format!("distributed ({} self-spawned worker(s))", sp.count),
            None => "distributed (TCP coordinator)".into(),
        }
    }

    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError> {
        let listener = std::net::TcpListener::bind(&self.bind)
            .map_err(|e| ExecutorError::io(format!("cannot bind {}", self.bind), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ExecutorError::io("cannot read the bound address", e))?;
        eprintln!("[serve: listening on {addr}, {} simulation(s)]", specs.len());
        let http_listener = match &self.http_bind {
            Some(bind) => {
                let control = std::net::TcpListener::bind(bind)
                    .map_err(|e| ExecutorError::io(format!("cannot bind {bind}"), e))?;
                let control_addr = control
                    .local_addr()
                    .map_err(|e| ExecutorError::io("cannot read the control-plane address", e))?;
                eprintln!("[serve: http status on {control_addr}]");
                Some(control)
            }
            None => None,
        };
        let header = CampaignHeader::new(self.scenarios.clone(), &self.opts, 0, 1, specs.len())
            .with_sweeps(self.sweeps.clone());
        let journal = match &self.journal {
            Some(spec) => Some(self.open_journal(spec, &header, specs)?),
            None => None,
        };
        let cache = match &self.cache {
            Some(dir) => Some(crate::cache::Cache::open(dir).map_err(|e| {
                ExecutorError::io(format!("cannot open cache {}", dir.display()), e)
            })?),
            None => None,
        };

        let mut children: Vec<std::process::Child> = Vec::new();
        if let Some(sp) = &self.self_spawn {
            for _ in 0..sp.count {
                let child = Command::new(&sp.worker)
                    .arg("work")
                    .arg("--connect")
                    .arg(addr.to_string())
                    .arg("--jobs")
                    .arg(sp.jobs.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    // stderr inherits: worker diagnostics surface directly.
                    .spawn()
                    .map_err(|e| {
                        ExecutorError::io(format!("cannot spawn {}", sp.worker.display()), e)
                    });
                match child {
                    Ok(child) => children.push(child),
                    Err(e) => {
                        for mut c in children.drain(..) {
                            let _ = c.kill();
                            let _ = c.wait();
                        }
                        return Err(e);
                    }
                }
            }
        }

        let signals = crate::transport::ServeSignals::new();
        let result = {
            // Supervision runs inside the serve loop (no watcher thread):
            // a campaign whose whole self-spawned pool died must abort,
            // not wait forever for workers that will never reconnect.
            let count = children.len();
            let mut watch_pool;
            let supervise: Option<&mut dyn FnMut() -> Option<String>> = if count > 0 {
                watch_pool = || {
                    let all_gone = children.iter_mut().all(|c| matches!(c.try_wait(), Ok(Some(_))));
                    all_gone.then(|| {
                        format!(
                            "all {count} self-spawned worker(s) exited before the campaign \
                             completed"
                        )
                    })
                };
                Some(&mut watch_pool)
            } else {
                None
            };
            crate::transport::serve_with(crate::transport::ServeConfig {
                listener: &listener,
                http: http_listener.as_ref(),
                header: &header,
                specs,
                opts: &self.serve_opts,
                signals: &signals,
                journal,
                cache: cache.as_ref(),
                supervise,
            })
        };

        // The campaign is over either way: reap the worker pool. On
        // success workers have been sent `done` and are exiting; on
        // failure they would block on a dead coordinator.
        for mut child in children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
        result
    }
}

/// Runs the worker half of a sharded campaign: executes the plan indices
/// `i % header.of == header.shard` on `jobs` threads (0 = one per
/// available core) and writes the header plus one record per completed
/// spec, in ascending index order, to `out`.
///
/// # Errors
///
/// Propagates write failures.
///
/// # Panics
///
/// Panics if `header.runs` does not match `specs.len()` (the caller
/// built the header from the same plan).
pub fn run_shard<W: Write>(
    header: &CampaignHeader,
    specs: &[&RunSpec],
    jobs: usize,
    out: &mut W,
) -> io::Result<()> {
    run_shard_cached(header, specs, jobs, None, out)
}

/// [`run_shard`] with an optional result cache: each distinct spec among
/// this shard's indices is looked up first, only the misses are
/// simulated, and each fresh result is stored back once — the emitted
/// shard file is byte-identical either way. Records one cache session
/// (`shard I/N`) per invocation.
///
/// # Errors
///
/// Propagates write failures.
///
/// # Panics
///
/// Panics if `header.runs` does not match `specs.len()` (the caller
/// built the header from the same plan).
pub fn run_shard_cached<W: Write>(
    header: &CampaignHeader,
    specs: &[&RunSpec],
    jobs: usize,
    cache: Option<&crate::cache::Cache>,
    out: &mut W,
) -> io::Result<()> {
    assert_eq!(header.runs, specs.len(), "header must describe this plan");
    let mine: Vec<usize> = (0..specs.len()).filter(|i| i % header.of == header.shard).collect();
    let my_specs: Vec<&RunSpec> = mine.iter().map(|&i| specs[i]).collect();
    let results = match cache {
        Some(cache) => {
            let mode = format!("shard {}/{}", header.shard, header.of);
            run_batch_cached(&my_specs, jobs, cache, &mode)
        }
        None => run_batch(&my_specs, jobs),
    };
    writeln!(out, "{}", header.to_line())?;
    for (&index, result) in mine.iter().zip(&results) {
        let record = ShardRecord::from_result(index, specs[index].fingerprint(), result);
        writeln!(out, "{}", record.to_line())?;
    }
    Ok(())
}

/// Reads one shard file: the campaign header line plus the records.
///
/// Shard files are written complete or not at all, so an unterminated
/// final line is corruption here — the coordinator journal, which *can*
/// legitimately end mid-line after a crash, goes through
/// [`crate::transport::JournalReader`] instead.
///
/// # Errors
///
/// Returns [`ExecutorError::Io`] on filesystem errors and
/// [`ExecutorError::Corrupt`] on malformed content.
pub fn read_shard_file(path: &Path) -> Result<(CampaignHeader, Vec<ShardRecord>), ExecutorError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ExecutorError::io(format!("cannot open {}", path.display()), e))?;
    let parsed = RecordFile::parse(&bytes, TailPolicy::Reject)
        .map_err(|e| ExecutorError::Corrupt { file: path.to_path_buf(), detail: e.to_string() })?;
    Ok((parsed.header, parsed.records))
}

/// Folds shard records into a complete result vector in plan order,
/// verifying that every record's fingerprint matches the plan and that
/// every plan index is covered exactly once.
///
/// # Errors
///
/// Returns [`ExecutorError::PlanDrift`] on a fingerprint mismatch or
/// unknown benchmark, [`ExecutorError::Coverage`] on missing, duplicate
/// or out-of-range indices. A coverage failure names *every* missing
/// and duplicated index (range-compressed), not just the first — which
/// shard to re-run is then obvious from the index arithmetic.
pub fn assemble_shard_results(
    specs: &[&RunSpec],
    records: Vec<ShardRecord>,
) -> Result<Vec<RunResult>, ExecutorError> {
    let mut slots: Vec<Option<RunResult>> = (0..specs.len()).map(|_| None).collect();
    let mut duplicated: Vec<usize> = Vec::new();
    for record in records {
        let index = record.index;
        if index >= specs.len() {
            return Err(ExecutorError::Coverage {
                detail: format!("record index {index} exceeds the {}-spec plan", specs.len()),
            });
        }
        let expected = specs[index].fingerprint();
        if record.fingerprint != expected {
            return Err(ExecutorError::PlanDrift {
                index,
                detail: format!(
                    "expected spec fingerprint {expected:016x}, record carries {:016x} \
                     (coordinator and worker planned different campaigns)",
                    record.fingerprint
                ),
            });
        }
        if slots[index].is_some() {
            duplicated.push(index);
            continue;
        }
        let result = record
            .into_run_result(specs[index])
            .map_err(|e| ExecutorError::PlanDrift { index, detail: e.to_string() })?;
        slots[index] = Some(result);
    }
    let missing: Vec<usize> =
        slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
    if !missing.is_empty() || !duplicated.is_empty() {
        duplicated.sort_unstable();
        duplicated.dedup();
        let mut parts = Vec::new();
        if !missing.is_empty() {
            parts.push(format!(
                "missing {} of {} campaign index(es): {}",
                missing.len(),
                specs.len(),
                format_index_ranges(&missing)
            ));
        }
        if !duplicated.is_empty() {
            parts.push(format!(
                "duplicated campaign index(es): {}",
                format_index_ranges(&duplicated)
            ));
        }
        return Err(ExecutorError::Coverage { detail: parts.join("; ") });
    }
    Ok(slots.into_iter().map(|slot| slot.expect("gaps were reported above")).collect())
}

/// Renders sorted indices as compact ranges: `[0-3, 7, 9-12]`. Long
/// lists are truncated after 16 ranges with an elision count.
fn format_index_ranges(sorted: &[usize]) -> String {
    const MAX_RANGES: usize = 16;
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for &i in sorted {
        match ranges.last_mut() {
            Some((_, end)) if *end + 1 == i => *end = i,
            _ => ranges.push((i, i)),
        }
    }
    let shown = ranges.len().min(MAX_RANGES);
    let mut parts: Vec<String> = ranges[..shown]
        .iter()
        .map(|&(a, b)| if a == b { a.to_string() } else { format!("{a}-{b}") })
        .collect();
    if ranges.len() > MAX_RANGES {
        parts.push(format!("… ({} more range(s))", ranges.len() - MAX_RANGES));
    }
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentOpts;
    use crate::run::run_suite_jobs;
    use rfcache_core::{RegFileConfig, SingleBankConfig};

    fn specs() -> Vec<RunSpec> {
        ["li", "go", "swim"]
            .iter()
            .map(|b| {
                RunSpec::known(b, RegFileConfig::Single(SingleBankConfig::one_cycle()))
                    .insts(1_500)
                    .warmup(300)
            })
            .collect()
    }

    #[test]
    fn in_process_executor_matches_run_suite() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let via_executor = InProcess::new(2).execute(&refs).unwrap();
        let direct = run_suite_jobs(&specs, 1);
        assert_eq!(via_executor.len(), direct.len());
        for (a, b) in via_executor.iter().zip(&direct) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn shard_round_trip_covers_the_plan() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let opts = ExperimentOpts::smoke();
        let mut records = Vec::new();
        for shard in 0..2 {
            let header = CampaignHeader::new(vec!["x".into()], &opts, shard, 2, refs.len());
            let mut buf = Vec::new();
            run_shard(&header, &refs, 1, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let parsed_header = CampaignHeader::parse(text.lines().next().unwrap()).unwrap();
            assert_eq!(parsed_header.shard, shard);
            for line in text.lines().skip(1) {
                records.push(ShardRecord::parse(line).unwrap());
            }
        }
        let merged = assemble_shard_results(&refs, records).unwrap();
        let direct = run_suite_jobs(&specs, 1);
        for (a, b) in merged.iter().zip(&direct) {
            assert_eq!(a.bench, b.bench);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn assemble_rejects_drift_duplicates_and_gaps() {
        let specs = specs();
        let refs: Vec<&RunSpec> = specs.iter().collect();
        let results = run_suite_jobs(&specs, 1);
        let record = |i: usize| ShardRecord::from_result(i, refs[i].fingerprint(), &results[i]);

        // Fingerprint mismatch.
        let mut drifted = record(0);
        drifted.fingerprint ^= 1;
        let err = assemble_shard_results(&refs, vec![drifted, record(1), record(2)]).unwrap_err();
        assert!(matches!(err, ExecutorError::PlanDrift { index: 0, .. }), "{err}");

        // Duplicate index: named, not just counted.
        let err = assemble_shard_results(&refs, vec![record(0), record(0), record(1), record(2)])
            .unwrap_err();
        assert!(matches!(err, ExecutorError::Coverage { .. }), "{err}");
        assert!(err.to_string().contains("duplicated campaign index(es): [0]"), "{err}");

        // Missing index: named, with the plan size for context.
        let err = assemble_shard_results(&refs, vec![record(0), record(2)]).unwrap_err();
        assert!(err.to_string().contains("missing 1 of 3 campaign index(es): [1]"), "{err}");

        // Both at once: one error reports the full coverage picture.
        let err = assemble_shard_results(&refs, vec![record(0), record(0)]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing 2 of 3 campaign index(es): [1-2]"), "{msg}");
        assert!(msg.contains("duplicated campaign index(es): [0]"), "{msg}");

        // Out of range.
        let mut wild = record(2);
        wild.index = 9;
        let err = assemble_shard_results(&refs, vec![record(0), record(1), wild]).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");

        // And the happy path still assembles in order.
        let ok = assemble_shard_results(&refs, vec![record(2), record(0), record(1)]).unwrap();
        assert_eq!(ok[0].bench, "li");
        assert_eq!(ok[2].bench, "swim");
    }

    #[test]
    fn index_ranges_compress_and_truncate() {
        assert_eq!(format_index_ranges(&[1]), "[1]");
        assert_eq!(format_index_ranges(&[0, 1, 2, 3, 7, 9, 10, 11, 12]), "[0-3, 7, 9-12]");
        // 20 isolated indices → 16 ranges shown, 4 elided.
        let sparse: Vec<usize> = (0..20).map(|i| i * 2).collect();
        let rendered = format_index_ranges(&sparse);
        assert!(rendered.contains("30"), "{rendered}");
        assert!(!rendered.contains("38"), "{rendered}");
        assert!(rendered.contains("(4 more range(s))"), "{rendered}");
    }

    #[test]
    fn read_shard_file_reports_corruption_with_the_path() {
        let dir = std::env::temp_dir().join(format!("rfcache_shardfile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "not a header\n").unwrap();
        let err = read_shard_file(&path).unwrap_err();
        assert!(matches!(err, ExecutorError::Corrupt { .. }));
        assert!(err.to_string().contains("bad.jsonl"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
