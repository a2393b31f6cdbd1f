//! The coordinator: one single-threaded `poll(2)` readiness loop that
//! leases campaigns to workers and answers the HTTP control plane.
//!
//! [`serve_service`] is the only coordinator loop. HTTP clients submit
//! campaign descriptions ([`CampaignRequest`], validated against the
//! scenario registry) with `POST /campaigns`, and each campaign moves
//! through the lifecycle
//!
//! ```text
//! queued → serving → complete → fetched
//!            ↓ (admission failure)
//!          failed
//! ```
//!
//! Workers are handed leases from whichever campaign is currently
//! serving. One campaign serves at a time, so determinism and the
//! fingerprint handshake are as strong as for a lone campaign, while
//! submissions queue behind it: a single coordinator process accepts and
//! completes any number of campaigns without restarting.
//!
//! **One-campaign sessions.** `experiments serve <names>`,
//! `--dist-workers N` and `experiments resume` run the same loop with one
//! campaign already planned and queued ([`ServiceConfig::campaign`]). The
//! loop treats that campaign's completion as its fetch, so
//! `max_campaigns: Some(1)` ends the session, and it hands the results
//! document back in [`ServiceSummary::results`]. If the campaign fails,
//! the session ends too. A session takes no submissions, and its campaign
//! journals to one file ([`JournalMode::Create`]) or resumes an
//! interrupted one ([`JournalMode::Resume`]).
//!
//! **Same admission path.** Every record enters a campaign through one
//! admission path, and passes the same check as a merged shard record,
//! whether it arrives as a live worker frame, a journal replay, or a
//! `--cache` pre-fill at promotion time. Results are therefore byte-identical to an in-process
//! run of the same description (asserted end to end in
//! `crates/bench/tests/{service,dist}.rs` and the CI `service` and
//! `distributed` jobs).
//!
//! **Endpoints.**
//!
//! | Method + path | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /status` | overview: campaign table + worker roster |
//! | `POST /campaigns` | submit a campaign description (JSON body) |
//! | `GET /campaigns/<id>` | one campaign's lifecycle + progress |
//! | `GET /campaigns/<id>/results` | assembled reports (text/CSV/JSON) |
//!
//! Malformed descriptions get a `400` with the reason, oversized bodies
//! a `413`, unknown ids a `404`, and premature result fetches (or a
//! submission to a one-campaign session) a `409` — none of which disturb
//! an in-flight campaign.
//!
//! **Workers.** A worker whose handshake fingerprint disagrees with the
//! serving campaign is rejected by name and the campaign continues
//! through the rest. A worker that connects while nothing is serving
//! receives a [`Frame::Retry`] instead of a hello and reconnects after
//! the suggested delay ([`crate::transport::work`] honors it within its
//! connect window), so idle periods cannot wedge a worker in a handshake
//! that will never progress.
//!
//! **Architecture.** The listener, every worker connection and every
//! HTTP client are nonblocking sockets multiplexed through `poll(2)`
//! (the `readiness` module), with per-connection state machines (the
//! `conn` module) instead of per-connection threads. One thread owns
//! everything, so lease tables, slot vectors and journals need no locks,
//! and the design scales to thousands of worker connections.

use crate::cache::{Cache, CacheSession};
use crate::conn::{ActiveLease, HttpConn, WorkerConn, WorkerPhase};
use crate::executor::{check_record, read_record_file, ExecutorError};
use crate::http;
use crate::json;
use crate::metrics_codec::{Frame, ShardRecord, TailPolicy};
use crate::readiness::{listener_fd, stream_fd, PollSet};
use crate::run::{distinct_by, RunResult, RunSpec};
use crate::scenario::{CampaignPlan, CampaignRequest, ScenarioReport};
use crate::transport::{JournalWriter, LeaseTable, ServeOptions, HANDSHAKE_DEADLINE, READ_TICK};
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Reconnect delay suggested to workers that arrive between campaigns.
pub const RETRY_AFTER_MS: u64 = 500;
/// How long the finished loop keeps flushing final `done` frames and
/// responses to sockets that are backpressured.
const DRAIN_WINDOW: Duration = Duration::from_secs(5);
/// How long an HTTP client may dribble its request before being reaped.
const HTTP_CLIENT_WINDOW: Duration = Duration::from_secs(10);

/// Where campaigns write-ahead journal their accepted records.
#[derive(Debug, Clone, Copy)]
pub enum JournalMode<'a> {
    /// Each campaign journals to `campaign-<id>.journal` in this
    /// directory. Ids continue after the highest journal already there,
    /// so a restarted service never collides with an earlier run.
    Dir(&'a Path),
    /// The session campaign journals to this file, which must not exist
    /// yet: an existing journal may be an interrupted campaign worth
    /// resuming.
    Create(&'a Path),
    /// The session campaign resumes this interrupted journal: its
    /// complete records are replayed (a torn final line is dropped), and
    /// only the remaining indices are leased.
    Resume(&'a Path),
}

/// Everything [`serve_service`] needs, bundled.
pub struct ServiceConfig<'a> {
    /// The already-bound listener workers connect to.
    pub listener: &'a TcpListener,
    /// The already-bound HTTP control-plane listener. The CLI requires
    /// it for service mode (a submission service without a submission
    /// endpoint is useless); a one-campaign session may run without.
    pub http: Option<&'a TcpListener>,
    /// Lease policy applied to every campaign.
    pub opts: &'a ServeOptions,
    /// Optional result cache: consulted at each campaign's promotion
    /// (pre-fill through the admission path) and fed by every live
    /// record, so one campaign's results warm the next.
    pub cache: Option<&'a Cache>,
    /// Optional write-ahead journal.
    pub journal: Option<JournalMode<'a>>,
    /// `sync_data` interval for campaign journals (records per sync;
    /// 0 = only at completion).
    pub journal_sync: usize,
    /// Exit cleanly once this many campaigns reach `fetched` (`None` =
    /// serve forever). This is how CI, tests and one-campaign sessions
    /// get a deterministic shutdown without killing the process.
    pub max_campaigns: Option<usize>,
    /// A campaign queued before the loop starts, which makes the run a
    /// one-campaign session (see the module docs).
    pub campaign: Option<CampaignPlan>,
    /// Polled about once per tick; returning a reason ends the loop with
    /// [`ExecutorError::Transport`]. `--dist-workers` uses it to give up
    /// once every worker it spawned has died.
    pub supervise: Option<&'a mut dyn FnMut() -> Option<String>>,
}

/// What a finished [`serve_service`] session did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Campaigns accepted (the session campaign included).
    pub submitted: usize,
    /// Campaigns served to completion (fetched ones included).
    pub completed: usize,
    /// Campaigns whose results were fetched at least once.
    pub fetched: usize,
    /// Campaigns that failed admission or serving.
    pub failed: usize,
    /// The session campaign's results document, as `GET
    /// /campaigns/<id>/results` serves it, when it completed.
    pub results: Option<String>,
}

/// Where a submitted campaign stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Accepted; waiting for the coordinator to finish earlier work.
    Queued,
    /// The campaign workers are currently leased from.
    Serving,
    /// Every index has a verified result; reports are assembled.
    Complete,
    /// Results have been fetched at least once (they stay fetchable).
    Fetched,
    /// Admission or serving failed; `failure` has the reason.
    Failed,
}

impl Lifecycle {
    fn as_str(self) -> &'static str {
        match self {
            Lifecycle::Queued => "queued",
            Lifecycle::Serving => "serving",
            Lifecycle::Complete => "complete",
            Lifecycle::Fetched => "fetched",
            Lifecycle::Failed => "failed",
        }
    }

    fn done(self) -> bool {
        matches!(self, Lifecycle::Complete | Lifecycle::Fetched)
    }
}

/// One campaign's use of the result cache: each distinct spec is looked
/// up once at promotion and stored at most once, however often the plan
/// repeats it.
struct CacheUse {
    /// For every plan index, the position of its spec among the
    /// distinct specs.
    group: Vec<usize>,
    /// Distinct specs the cache already holds: hit at promotion, or
    /// stored since.
    held: Vec<bool>,
    lookups: u64,
    stores: u64,
}

impl CacheUse {
    /// Stores a freshly admitted result unless the cache already holds
    /// its spec.
    fn store(&mut self, cache: &Cache, index: usize, spec: &RunSpec, result: &RunResult) {
        let held = &mut self.held[self.group[index]];
        if *held {
            return;
        }
        *held = true;
        match cache.store(spec, result) {
            Ok(()) => self.stores += 1,
            Err(e) => eprintln!("[service: warning: cannot cache result {index}: {e}]"),
        }
    }
}

/// One submitted campaign, from POST body to fetched results.
struct Campaign {
    id: u64,
    plan: CampaignPlan,
    table: LeaseTable,
    slots: Vec<Option<RunResult>>,
    /// The write-ahead journal, once opened at promotion.
    journal: Option<JournalWriter>,
    lifecycle: Lifecycle,
    failure: Option<String>,
    /// Indices satisfied from the cache at promotion.
    cached: usize,
    /// Set at promotion when the coordinator has a cache.
    cache_use: Option<CacheUse>,
    submitted: Instant,
    /// The rendered results document, built once at completion.
    results: Option<String>,
}

impl Campaign {
    /// Builds a queued campaign from its plan.
    fn new(id: u64, plan: CampaignPlan, opts: &ServeOptions) -> Campaign {
        Campaign {
            id,
            table: LeaseTable::for_specs(&plan.flat(), opts.chunk, opts.lease_timeout),
            slots: (0..plan.runs()).map(|_| None).collect(),
            journal: None,
            plan,
            lifecycle: Lifecycle::Queued,
            failure: None,
            cached: 0,
            cache_use: None,
            submitted: Instant::now(),
            results: None,
        }
    }

    fn runs(&self) -> usize {
        self.plan.runs()
    }

    /// Marks the campaign failed (first reason wins). The failure stays
    /// with this one campaign; the loop keeps serving the rest.
    fn fail(&mut self, reason: String) {
        if self.failure.is_none() {
            eprintln!("[service: campaign {} failed: {reason}]", self.id);
            self.failure = Some(reason);
        }
        self.lifecycle = Lifecycle::Failed;
    }

    /// Promotes a queued campaign to serving: open (or replay) its
    /// journal, then pre-fill from the cache — all through
    /// [`admit`](Self::admit), the same admission path live records use.
    fn promote(&mut self, cfg: &ServiceConfig<'_>) {
        debug_assert_eq!(self.lifecycle, Lifecycle::Queued);
        if let Some(journal) = cfg.journal {
            if let Err(reason) = self.open_journal(journal, cfg.journal_sync) {
                self.fail(reason);
                return;
            }
        }
        if let Some(cache) = cfg.cache {
            if let Err(e) = self.prefill(cache) {
                self.fail(format!("cache pre-fill rejected: {e}"));
                return;
            }
        }
        self.lifecycle = Lifecycle::Serving;
        eprintln!(
            "[service: campaign {} serving: {} run(s), {} from cache, fingerprint {:016x}]",
            self.id,
            self.runs(),
            self.cached,
            self.plan.fingerprint()
        );
    }

    /// Opens the campaign's write-ahead journal.
    fn open_journal(&mut self, journal: JournalMode<'_>, sync_every: usize) -> Result<(), String> {
        let path = match journal {
            JournalMode::Dir(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    format!("cannot create journal directory {}: {e}", dir.display())
                })?;
                dir.join(format!("campaign-{}.journal", self.id))
            }
            JournalMode::Create(path) => path.to_path_buf(),
            JournalMode::Resume(path) => return self.resume_journal(path, sync_every),
        };
        let header = self.plan.header(0, 1);
        let writer = JournalWriter::create(&path, &header, self.plan.fingerprint(), sync_every)
            .map_err(|e| {
                if e.kind() == io::ErrorKind::AlreadyExists {
                    format!(
                        "journal {0} already exists — resume the interrupted campaign with \
                         `experiments resume --journal {0}`, or delete the file to start over: {e}",
                        path.display()
                    )
                } else {
                    format!("cannot create journal {}: {e}", path.display())
                }
            })?;
        self.journal = Some(writer);
        Ok(())
    }

    /// Reopens an interrupted campaign's journal and replays its records.
    /// The journaled header must be this campaign's and the stamped
    /// campaign fingerprint must match its plan — the same drift check a
    /// live worker handshake gets.
    fn resume_journal(&mut self, path: &Path, sync_every: usize) -> Result<(), String> {
        let replay = read_record_file(path, TailPolicy::DropTorn).map_err(|e| e.to_string())?;
        if replay.header != self.plan.header(0, 1) {
            return Err(format!(
                "journal {} describes a different campaign (scenarios/options/plan size disagree)",
                path.display()
            ));
        }
        if let Some(journaled) = replay.campaign_fingerprint {
            if journaled != self.plan.fingerprint() {
                return Err(format!(
                    "plan drift: journal {} stamps campaign fingerprint {journaled:016x}, this \
                     binary plans {:016x} (mismatched binaries or options)",
                    path.display(),
                    self.plan.fingerprint()
                ));
            }
        }
        if replay.torn > 0 {
            eprintln!(
                "[service: dropping a torn {}-byte final journal line (crash mid-write)]",
                replay.torn
            );
        }
        // Replayed before the writer opens, so nothing read back is
        // appended again.
        let replayed = self.admit(replay.records, None).map_err(|e| e.to_string())?;
        self.table.prune_pending();
        let writer = JournalWriter::resume(path, replay.valid_len as u64, sync_every)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        self.journal = Some(writer);
        if replayed > 0 {
            eprintln!(
                "[service: campaign {}: replayed {replayed} of {} plan index(es) from the journal]",
                self.id,
                self.runs()
            );
        }
        Ok(())
    }

    /// Admits every unfilled index the cache can satisfy, looking each
    /// distinct spec up once. Pre-filled indices are journaled like live
    /// records and never leased.
    fn prefill(&mut self, cache: &Cache) -> Result<(), ExecutorError> {
        let flat = self.plan.flat();
        let (firsts, group) = distinct_by(&flat, |spec| format!("{spec:?}"));
        let mut found: Vec<Option<Option<RunResult>>> = firsts.iter().map(|_| None).collect();
        let mut lookups = 0u64;
        let mut hits = Vec::new();
        for index in 0..flat.len() {
            if self.table.is_filled(index) {
                continue;
            }
            lookups += 1;
            let hit = found[group[index]].get_or_insert_with(|| cache.lookup(flat[index]));
            if let Some(result) = hit {
                hits.push(ShardRecord::from_result(index, flat[index].fingerprint(), result));
            }
        }
        self.cached += self.admit(hits, None)?;
        self.table.prune_pending();
        let held = found.iter().map(|f| matches!(f, Some(Some(_)))).collect();
        self.cache_use = Some(CacheUse { group, held, lookups, stores: 0 });
        if self.cached > 0 {
            eprintln!(
                "[service: campaign {}: {} of {} plan index(es) satisfied from the cache]",
                self.id,
                self.cached,
                self.runs()
            );
        }
        Ok(())
    }

    /// Verifies ([`check_record`]) and stores records: the one admission
    /// path of live `record` frames, journal replay and cache pre-fill.
    /// A new record is appended to the open journal before it counts as
    /// completed, so a crash never loses an accepted record, and stored
    /// in `cache` once the campaign has looked its spec up there. A
    /// record that fails the check, and a journal-append failure, are
    /// fatal; duplicates from superseded stragglers are dropped. Returns
    /// how many records were new.
    fn admit(
        &mut self,
        records: impl IntoIterator<Item = ShardRecord>,
        cache: Option<&Cache>,
    ) -> Result<usize, ExecutorError> {
        let runs = self.runs();
        let mut admitted = 0;
        for record in records {
            // Serialize only when the line will be appended: this runs
            // for every record, and non-journaled campaigns (and replay,
            // which re-reads what is already on disk) must not pay for
            // encoding the full metrics set.
            let line = self.journal.is_some().then(|| record.to_line());
            let spec = self.plan.spec(record.index);
            let (index, result) = check_record(spec, runs, record)?;
            if self.table.is_filled(index) {
                continue;
            }
            if let (Some(line), Some(writer)) = (line, &mut self.journal) {
                writer
                    .append(&line)
                    .map_err(|e| ExecutorError::io("cannot append to the campaign journal", e))?;
            }
            if let (Some(cache), Some(tally), Some(spec)) = (cache, &mut self.cache_use, spec) {
                tally.store(cache, index, spec, &result);
            }
            self.slots[index] = Some(result);
            self.table.record(index);
            admitted += 1;
        }
        Ok(admitted)
    }

    /// Completes a serving campaign: sync the journal, record the cache
    /// session, assemble the reports, and render the results document
    /// clients will fetch.
    fn finish(&mut self, cache: Option<&Cache>) {
        debug_assert!(self.table.complete());
        if let Some(writer) = &mut self.journal {
            // The results are in memory; a failed final sync only
            // weakens the (now redundant) journal, so it warns.
            if let Err(e) = writer.sync() {
                eprintln!("[service: warning: cannot sync campaign {} journal: {e}]", self.id);
            }
        }
        if let (Some(cache), Some(tally)) = (cache, &self.cache_use) {
            let session =
                CacheSession::now("service", tally.lookups, self.cached as u64, tally.stores);
            if let Err(e) = cache.record_session(&session) {
                eprintln!("[service: warning: cannot record the cache session: {e}]");
            }
        }
        let results: Vec<_> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|slot| slot.expect("complete table implies full slots"))
            .collect();
        let reports = self.plan.assemble(results);
        self.results = Some(render_results(self, &reports));
        self.lifecycle = Lifecycle::Complete;
        eprintln!("[service: campaign {} complete ({} run(s))]", self.id, self.runs());
    }

    /// The per-campaign status document (`GET /campaigns/<id>`).
    fn status_json(&self) -> String {
        let (completed, leased, pending) = self.table.counts();
        let opts = &self.plan.request().opts;
        let failure = self
            .failure
            .as_ref()
            .map_or("null".to_string(), |f| format!("\"{}\"", json::escape(f)));
        let journal = self.journal.as_ref().map_or("null".to_string(), |writer| {
            let (records, bytes) = writer.position();
            format!("{{\"records\": {records}, \"bytes\": {bytes}}}")
        });
        format!(
            "{{\"schema\": \"rfcache-service-campaign/v1\", \"id\": {}, \"state\": \"{}\", \
             \"scenarios\": [{}], \"insts\": {}, \"warmup\": {}, \"seed\": {}, \"quick\": {}, \
             \"runs\": {}, \"completed\": {completed}, \"leased\": {leased}, \
             \"pending\": {pending}, \"cached\": {}, \"fingerprint\": \"{:016x}\", \
             \"failure\": {failure}, \"journal\": {journal}, \"age_secs\": {:.3}}}\n",
            self.id,
            self.lifecycle.as_str(),
            self.names_json(),
            opts.insts,
            opts.warmup,
            opts.seed,
            opts.quick,
            self.runs(),
            self.cached,
            self.plan.fingerprint(),
            self.submitted.elapsed().as_secs_f64()
        )
    }

    /// The row this campaign contributes to `GET /status`. Its
    /// `completed`, `leased` and `pending` always sum to `runs`.
    fn brief_json(&self) -> String {
        let (completed, leased, pending) = self.table.counts();
        format!(
            "{{\"id\": {}, \"state\": \"{}\", \"scenarios\": [{}], \"runs\": {}, \
             \"completed\": {completed}, \"leased\": {leased}, \"pending\": {pending}, \
             \"cached\": {}}}",
            self.id,
            self.lifecycle.as_str(),
            self.names_json(),
            self.runs(),
            self.cached
        )
    }

    fn names_json(&self) -> String {
        let names: Vec<String> = self
            .plan
            .request()
            .scenarios
            .iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect();
        names.join(", ")
    }
}

/// The first campaign id after every `campaign-<id>.journal` already in
/// `dir` (1 for a missing or empty directory).
fn first_free_id(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 1 };
    entries
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            name.to_str()?.strip_prefix("campaign-")?.strip_suffix(".journal")?.parse::<u64>().ok()
        })
        .max()
        .map_or(1, |id| id.saturating_add(1))
}

/// Renders the results document (`GET /campaigns/<id>/results`): one
/// entry per scenario carrying the rendered report text, the CSV the
/// `--csv` exporter would write, and the JSON table the `--json`
/// exporter would write — as strings, so a fetching client reproduces
/// the exact bytes an in-process run of the same description emits.
fn render_results(c: &Campaign, reports: &[Box<dyn ScenarioReport>]) -> String {
    let entries: Vec<String> = c
        .plan
        .request()
        .scenarios
        .iter()
        .zip(reports)
        .map(|(name, report)| {
            let table = report.to_table();
            format!(
                "{{\"name\": \"{}\", \"report\": \"{}\", \"csv\": \"{}\", \"json\": \"{}\"}}",
                json::escape(name),
                json::escape(&format!("{report}")),
                json::escape(&table.to_csv()),
                json::escape(&table.to_json())
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"rfcache-campaign-results/v1\", \"id\": {}, \
         \"fingerprint\": \"{:016x}\", \"scenarios\": [{}]}}\n",
        c.id,
        c.plan.fingerprint(),
        entries.join(", ")
    )
}

/// The per-worker roster entries of `GET /status`.
fn worker_roster_json(workers: &[WorkerConn]) -> Vec<String> {
    workers
        .iter()
        .map(|conn| {
            let phase = match conn.phase {
                WorkerPhase::Handshake { .. } => "handshake",
                WorkerPhase::Ready => "ready",
                WorkerPhase::Streaming => "streaming",
                WorkerPhase::Closing => "closing",
            };
            let lease_age = conn.lease.map_or("null".to_string(), |lease| {
                format!("{:.3}", lease.issued.elapsed().as_secs_f64())
            });
            format!(
                "{{\"peer\": \"{}\", \"phase\": \"{phase}\", \"leases\": {}, \
                 \"records\": {}, \"lease_age_secs\": {lease_age}}}",
                json::escape(&conn.peer),
                conn.leases_done,
                conn.records
            )
        })
        .collect()
}

/// The overview document (`GET /status`). `workers_joined` counts every
/// handshake ever verified, `workers_connected` the live connections.
fn service_status_json(
    campaigns: &[Campaign],
    workers: &[WorkerConn],
    joined: usize,
    started: Instant,
) -> String {
    let serving = campaigns
        .iter()
        .find(|c| c.lifecycle == Lifecycle::Serving)
        .map_or("null".to_string(), |c| c.id.to_string());
    let briefs: Vec<String> = campaigns.iter().map(Campaign::brief_json).collect();
    let roster = worker_roster_json(workers);
    format!(
        "{{\"schema\": \"rfcache-service/v1\", \"elapsed_secs\": {:.3}, \"serving\": {serving}, \
         \"submitted\": {}, \"campaigns\": [{}], \"workers_connected\": {}, \
         \"workers_joined\": {joined}, \"workers\": [{}]}}\n",
        started.elapsed().as_secs_f64(),
        campaigns.len(),
        briefs.join(", "),
        workers.iter().filter(|c| c.dead.is_none()).count(),
        roster.join(", ")
    )
}

/// Routes one parsed control-plane request against the campaign table.
/// Mutates it only on `POST /campaigns` (new entry) and on the first
/// successful results fetch (`complete → fetched`).
fn route_request(
    req: &http::Request,
    campaigns: &mut Vec<Campaign>,
    next_id: &mut u64,
    opts: &ServeOptions,
    workers: &[WorkerConn],
    joined: usize,
    started: Instant,
) -> Vec<u8> {
    match (req.method.as_str(), req.path()) {
        ("POST", "/campaigns") => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(body) => body,
                Err(_) => {
                    return http::respond(
                        400,
                        "Bad Request",
                        "text/plain",
                        "campaign description is not UTF-8\n",
                    )
                }
            };
            let plan = match CampaignRequest::from_json(body).and_then(|r| r.plan()) {
                Ok(plan) => plan,
                Err(reason) => {
                    return http::respond(400, "Bad Request", "text/plain", &format!("{reason}\n"))
                }
            };
            let id = *next_id;
            *next_id += 1;
            let campaign = Campaign::new(id, plan, opts);
            eprintln!(
                "[service: campaign {id} queued: {} ({} run(s))]",
                campaign.plan.request().scenarios.join(" "),
                campaign.runs()
            );
            let body = format!(
                "{{\"id\": {id}, \"state\": \"queued\", \"runs\": {}, \
                 \"fingerprint\": \"{:016x}\"}}\n",
                campaign.runs(),
                campaign.plan.fingerprint()
            );
            campaigns.push(campaign);
            http::respond(201, "Created", "application/json", &body)
        }
        ("GET", "/healthz") => http::json_ok("{\"status\": \"ok\"}\n"),
        ("GET", "/status") => {
            http::json_ok(&service_status_json(campaigns, workers, joined, started))
        }
        ("GET", path) => match parse_campaign_path(path) {
            Some((id, want_results)) => {
                let Some(campaign) = campaigns.iter_mut().find(|c| c.id == id) else {
                    return http::respond(
                        404,
                        "Not Found",
                        "text/plain",
                        &format!("no campaign {id}\n"),
                    );
                };
                if !want_results {
                    return http::json_ok(&campaign.status_json());
                }
                match &campaign.results {
                    Some(doc) => {
                        let response = http::json_ok(doc);
                        if campaign.lifecycle == Lifecycle::Complete {
                            campaign.lifecycle = Lifecycle::Fetched;
                            eprintln!("[service: campaign {id} fetched]");
                        }
                        response
                    }
                    None => http::respond(
                        409,
                        "Conflict",
                        "text/plain",
                        &format!(
                            "campaign {id} is {}; results exist once it is complete\n",
                            campaign.lifecycle.as_str()
                        ),
                    ),
                }
            }
            None => http::respond(
                404,
                "Not Found",
                "text/plain",
                "unknown path; try /status, /campaigns/<id> or /campaigns/<id>/results\n",
            ),
        },
        _ => http::respond(
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET, and POST /campaigns, are supported\n",
        ),
    }
}

/// Splits `/campaigns/<id>` / `/campaigns/<id>/results` into the id and
/// whether results were asked for (`None` = not a campaign path).
fn parse_campaign_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/campaigns/")?;
    let (id, want_results) = match rest.strip_suffix("/results") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    id.parse().ok().map(|id: u64| (id, want_results))
}

/// Runs the coordinator loop until `cfg.max_campaigns` campaigns have
/// been fetched (or forever), or until a one-campaign session's campaign
/// fails. See the module docs for the lifecycle and endpoints.
///
/// # Errors
///
/// Returns [`ExecutorError::Io`] when a listener or the readiness poll
/// fails — infrastructure trouble that dooms the whole loop — and
/// [`ExecutorError::Transport`] when `cfg.supervise` gives up.
/// Campaign-level failures (bad submissions, drifting records, journal
/// trouble) are isolated to the affected campaign and reported through
/// its lifecycle instead.
pub fn serve_service(mut cfg: ServiceConfig<'_>) -> Result<ServiceSummary, ExecutorError> {
    cfg.listener
        .set_nonblocking(true)
        .map_err(|e| ExecutorError::io("cannot poll the campaign listener", e))?;
    if let Some(control) = cfg.http {
        control
            .set_nonblocking(true)
            .map_err(|e| ExecutorError::io("cannot poll the control-plane listener", e))?;
    }
    let mut supervise = cfg.supervise.take();

    let started = Instant::now();
    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut next_id = match cfg.journal {
        Some(JournalMode::Dir(dir)) => first_free_id(dir),
        _ => 1,
    };
    let session = match cfg.campaign.take() {
        Some(plan) => {
            let id = next_id;
            next_id += 1;
            campaigns.push(Campaign::new(id, plan, cfg.opts));
            Some(id)
        }
        None => None,
    };
    let mut workers: Vec<WorkerConn> = Vec::new();
    let mut https: Vec<HttpConn> = Vec::new();
    // Handshakes ever verified (monotonic), for the status document.
    let mut joined = 0usize;
    let mut last_supervise = Instant::now();
    let mut poll = PollSet::new();
    let mut fatal: Option<ExecutorError> = None;

    loop {
        // Settle the campaign table: finish the serving campaign once
        // every index is filled (its workers get the final `done`), and
        // promote the oldest queued campaign whenever nothing serves. A
        // campaign its journal or the cache satisfies completes without
        // any worker.
        loop {
            match campaigns.iter_mut().find(|c| c.lifecycle == Lifecycle::Serving) {
                Some(c) if c.table.complete() => {
                    c.finish(cfg.cache);
                    for conn in workers.iter_mut() {
                        if conn.dead.is_none() && conn.campaign == Some(c.id) {
                            conn.out.queue_frame(&Frame::Done);
                            conn.phase = WorkerPhase::Closing;
                        }
                    }
                    // A session fetches its own campaign.
                    if session == Some(c.id) && c.lifecycle == Lifecycle::Complete {
                        c.lifecycle = Lifecycle::Fetched;
                    }
                }
                Some(_) => break,
                None => match campaigns.iter_mut().find(|c| c.lifecycle == Lifecycle::Queued) {
                    Some(c) => c.promote(&cfg),
                    None => break,
                },
            }
        }

        if let Some(max) = cfg.max_campaigns {
            if campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Fetched).count() >= max {
                eprintln!("[service: {max} campaign(s) fetched; shutting down]");
                break;
            }
        }
        // Nothing but the session campaign is ever served in a session.
        if session.is_some_and(|id| {
            campaigns.iter().any(|c| c.id == id && c.lifecycle == Lifecycle::Failed)
        }) {
            break;
        }
        if let Some(watch) = supervise.as_mut() {
            if last_supervise.elapsed() >= READ_TICK {
                last_supervise = Instant::now();
                if let Some(detail) = watch() {
                    fatal = Some(ExecutorError::Transport { detail });
                    break;
                }
            }
        }

        // Lease issue: idle handshaked workers of the serving campaign
        // get fresh pending work, or the overdue remainder of a stalled
        // lease (straggler re-issue).
        let now = Instant::now();
        if let Some(campaign) = campaigns.iter_mut().find(|c| c.lifecycle == Lifecycle::Serving) {
            for conn in workers.iter_mut() {
                if conn.dead.is_some()
                    || conn.campaign != Some(campaign.id)
                    || conn.phase != WorkerPhase::Ready
                {
                    continue;
                }
                let Some(lease) = campaign.table.grab(now) else { break };
                conn.lease = Some(ActiveLease { id: lease.id, issued: now });
                conn.out.queue_frame(&Frame::Lease { id: lease.id, indices: lease.indices });
                conn.phase = WorkerPhase::Streaming;
            }
        }

        // Declare interest, then block until something is ready (or a
        // tick passes — deadlines and supervision still need to run).
        poll.clear();
        let listener_slot = poll.register(listener_fd(cfg.listener), true, false);
        let control_slot = cfg.http.map(|l| poll.register(listener_fd(l), true, false));
        let worker_slots: Vec<usize> = workers
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), true, c.out.pending()))
            .collect();
        let http_slots: Vec<usize> = https
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), !c.responded, c.out.pending()))
            .collect();
        if let Err(e) = poll.poll(READ_TICK) {
            fatal = Some(ExecutorError::io("readiness poll failed", e));
            break;
        }

        // Accept workers: hand them the serving campaign's hello, or a
        // retry frame when nothing is serving (a worker must never block
        // in a handshake that cannot progress).
        if poll.readable(listener_slot) {
            let serving = campaigns
                .iter()
                .find(|c| c.lifecycle == Lifecycle::Serving)
                .map(|c| (c.id, c.plan.header(0, 1), c.plan.fingerprint()));
            loop {
                match cfg.listener.accept() {
                    Ok((stream, peer)) => {
                        let peer = peer.to_string();
                        let deadline = Instant::now() + HANDSHAKE_DEADLINE;
                        let greeting = match &serving {
                            Some((_, header, fingerprint)) => Frame::Hello {
                                campaign: Some(header.clone()),
                                fingerprint: *fingerprint,
                            },
                            None => Frame::Retry { after_ms: RETRY_AFTER_MS },
                        };
                        match WorkerConn::start(stream, peer.clone(), &greeting, deadline) {
                            Ok(mut conn) => {
                                match &serving {
                                    Some((id, _, _)) => conn.campaign = Some(*id),
                                    // Nothing to handshake against: the
                                    // connection only drains its retry
                                    // frame, then the sweep closes it.
                                    None => conn.phase = WorkerPhase::Closing,
                                }
                                workers.push(conn);
                            }
                            Err(e) => eprintln!("[service: worker {peer} dropped: {e}]"),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        fatal.get_or_insert(ExecutorError::io("campaign listener failed", e));
                        break;
                    }
                }
            }
        }
        if fatal.is_some() {
            break;
        }

        // Accept control-plane clients.
        if let (Some(control), Some(slot)) = (cfg.http, control_slot) {
            if poll.readable(slot) {
                loop {
                    match control.accept() {
                        Ok((stream, _)) => {
                            if let Ok(conn) = HttpConn::start(stream) {
                                https.push(conn);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // Control-plane trouble never dooms a campaign.
                        Err(_) => break,
                    }
                }
            }
        }

        // Worker I/O: flush queued frames, then process arrived ones.
        // Only the registered prefix — connections accepted *this*
        // iteration have no poll slot until the next tick.
        for (at, conn) in workers.iter_mut().take(worker_slots.len()).enumerate() {
            if conn.dead.is_some() {
                continue;
            }
            if conn.out.pending() && poll.writable(worker_slots[at]) {
                if let Err(e) = conn.out.flush(&mut conn.stream) {
                    conn.kill(e.to_string());
                    continue;
                }
            }
            if !poll.readable(worker_slots[at]) {
                continue;
            }
            let eof = match conn.fill() {
                Ok(more) => !more,
                Err(e) => {
                    conn.kill(e.to_string());
                    continue;
                }
            };
            while let Some(line) = conn.inbuf.next_line() {
                if line.trim().is_empty() {
                    continue;
                }
                let frame = match Frame::parse(&line) {
                    Ok(frame) => frame,
                    Err(e) => {
                        conn.kill(e.to_string());
                        break;
                    }
                };
                let campaign =
                    conn.campaign.and_then(|id| campaigns.iter_mut().find(|c| c.id == id));
                match (conn.phase, frame) {
                    (WorkerPhase::Handshake { .. }, Frame::Hello { fingerprint: echoed, .. }) => {
                        // A worker that planned a different campaign has
                        // mismatched binaries or options: it is rejected
                        // alone, and the campaign keeps serving through
                        // the rest.
                        match campaign {
                            Some(c) if echoed == c.plan.fingerprint() => {
                                conn.phase = WorkerPhase::Ready;
                                joined += 1;
                                eprintln!(
                                    "[service: worker {} joined campaign {}]",
                                    conn.peer, c.id
                                );
                            }
                            Some(c) => conn.kill(format!(
                                "planned campaign fingerprint {echoed:016x}, campaign {} is \
                                 {:016x} (mismatched binaries or options)",
                                c.id,
                                c.plan.fingerprint()
                            )),
                            None => conn.kill("handshake for a vanished campaign"),
                        }
                    }
                    (WorkerPhase::Streaming, Frame::Record(record)) => {
                        conn.records += 1;
                        let Some(c) = campaign else {
                            conn.kill("record for a vanished campaign");
                            break;
                        };
                        if c.lifecycle != Lifecycle::Serving {
                            continue; // straggler record after failure
                        }
                        if let Err(e) = c.admit([*record], cfg.cache) {
                            c.fail(e.to_string());
                        }
                    }
                    (WorkerPhase::Streaming, Frame::Done) => {
                        // Lease acknowledged. Belt and braces: a worker
                        // may acknowledge without covering every index;
                        // anything unfilled goes back in the queue.
                        if let (Some(active), Some(c)) = (conn.lease.take(), campaign) {
                            let requeued = c.table.release(active.id);
                            if requeued > 0 {
                                eprintln!(
                                    "[service: re-queued {requeued} index(es) from worker {}]",
                                    conn.peer
                                );
                            }
                        }
                        conn.leases_done += 1;
                        conn.phase = WorkerPhase::Ready;
                    }
                    (WorkerPhase::Closing, _) => {} // late straggler frames
                    (_, frame) => conn.kill(format!("unexpected frame {frame:?}")),
                }
                if conn.dead.is_some() {
                    break;
                }
            }
            if eof {
                conn.kill("connection closed");
            }
        }

        // Sweep: handshake deadlines, workers of failed campaigns,
        // drained between-campaign rejections, and dead connections
        // (releasing their leases back to their campaign, so a crash
        // never loses work).
        let now = Instant::now();
        workers.retain_mut(|conn| {
            if conn.dead.is_none() {
                if let WorkerPhase::Handshake { deadline } = conn.phase {
                    if now >= deadline {
                        conn.kill("no hello before deadline");
                    }
                }
                if conn.campaign.is_none()
                    && conn.phase == WorkerPhase::Closing
                    && !conn.out.pending()
                {
                    conn.kill("no campaign to serve (retry sent)");
                }
                if let Some(id) = conn.campaign {
                    let failed = campaigns
                        .iter()
                        .find(|c| c.id == id)
                        .is_none_or(|c| c.lifecycle == Lifecycle::Failed);
                    if failed {
                        conn.kill("campaign failed");
                    }
                }
            }
            let Some(reason) = conn.dead.take() else { return true };
            if let Some(active) = conn.lease.take() {
                if let Some(c) =
                    conn.campaign.and_then(|id| campaigns.iter_mut().find(|c| c.id == id))
                {
                    if c.lifecycle == Lifecycle::Serving {
                        let requeued = c.table.release(active.id);
                        if requeued > 0 {
                            eprintln!(
                                "[service: re-queued {requeued} index(es) from worker {}]",
                                conn.peer
                            );
                        }
                    }
                }
            }
            eprintln!("[service: worker {} dropped: {reason}]", conn.peer);
            false
        });

        // HTTP control plane: one request, one response, close.
        for (at, conn) in https.iter_mut().take(http_slots.len()).enumerate() {
            if conn.dead {
                continue;
            }
            if conn.out.pending()
                && poll.writable(http_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.dead = true;
                continue;
            }
            if !conn.responded && poll.readable(http_slots[at]) {
                let eof = match conn.fill() {
                    Ok(more) => !more,
                    Err(_) => {
                        conn.dead = true;
                        continue;
                    }
                };
                let response = match http::parse_request(&conn.inbuf) {
                    http::Parse::Incomplete => {
                        if eof {
                            conn.dead = true; // hung up mid-request
                        }
                        continue;
                    }
                    http::Parse::Ready(req)
                        if session.is_some()
                            && req.method == "POST"
                            && req.path() == "/campaigns" =>
                    {
                        http::respond(
                            409,
                            "Conflict",
                            "text/plain",
                            "this coordinator serves a single campaign; submit to `experiments \
                             serve` without scenario names\n",
                        )
                    }
                    http::Parse::Ready(req) => route_request(
                        &req,
                        &mut campaigns,
                        &mut next_id,
                        cfg.opts,
                        &workers,
                        joined,
                        started,
                    ),
                    http::Parse::Invalid(detail) => {
                        http::respond(400, "Bad Request", "text/plain", &format!("{detail}\n"))
                    }
                    http::Parse::TooLarge(detail) => http::respond(
                        413,
                        "Payload Too Large",
                        "text/plain",
                        &format!("{detail}\n"),
                    ),
                };
                conn.out.queue_bytes(&response);
                conn.responded = true;
                if conn.out.flush(&mut conn.stream).is_err() {
                    conn.dead = true;
                }
            }
            if conn.responded && !conn.out.pending() {
                conn.dead = true; // response fully sent: close
            }
        }
        https.retain(|c| !c.dead && c.opened.elapsed() < HTTP_CLIENT_WINDOW);
    }

    // Wind-down: give backpressured worker/HTTP sockets a bounded
    // window to drain their final frames and responses.
    let deadline = Instant::now() + DRAIN_WINDOW;
    while Instant::now() < deadline {
        let unsent = workers.iter().any(|c| c.dead.is_none() && c.out.pending())
            || https.iter().any(|c| !c.dead && c.out.pending());
        if !unsent {
            break;
        }
        poll.clear();
        let worker_slots: Vec<usize> = workers
            .iter()
            .map(|c| {
                poll.register(stream_fd(&c.stream), false, c.dead.is_none() && c.out.pending())
            })
            .collect();
        let http_slots: Vec<usize> = https
            .iter()
            .map(|c| poll.register(stream_fd(&c.stream), false, !c.dead && c.out.pending()))
            .collect();
        if poll.poll(READ_TICK).is_err() {
            break;
        }
        for (at, conn) in workers.iter_mut().enumerate() {
            if conn.dead.is_none()
                && conn.out.pending()
                && poll.writable(worker_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.kill("closed during wind-down");
            }
        }
        for (at, conn) in https.iter_mut().enumerate() {
            if !conn.dead
                && conn.out.pending()
                && poll.writable(http_slots[at])
                && conn.out.flush(&mut conn.stream).is_err()
            {
                conn.dead = true;
            }
        }
    }

    if let Some(e) = fatal {
        return Err(e);
    }
    let results = session
        .and_then(|id| campaigns.iter_mut().find(|c| c.id == id))
        .and_then(|c| c.results.take());
    Ok(ServiceSummary {
        submitted: campaigns.len(),
        completed: campaigns.iter().filter(|c| c.lifecycle.done()).count(),
        fetched: campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Fetched).count(),
        failed: campaigns.iter().filter(|c| c.lifecycle == Lifecycle::Failed).count(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentOpts;
    use crate::transport::{read_frame, send_line, LineBuffer};
    use std::net::TcpStream;

    #[test]
    fn campaign_paths_parse_ids_and_results_suffixes() {
        assert_eq!(parse_campaign_path("/campaigns/7"), Some((7, false)));
        assert_eq!(parse_campaign_path("/campaigns/12/results"), Some((12, true)));
        assert_eq!(parse_campaign_path("/campaigns/"), None);
        assert_eq!(parse_campaign_path("/campaigns/x"), None);
        assert_eq!(parse_campaign_path("/campaigns/7/logs"), None);
        assert_eq!(parse_campaign_path("/status"), None);
    }

    #[test]
    fn lifecycle_names_are_the_wire_strings() {
        assert_eq!(Lifecycle::Queued.as_str(), "queued");
        assert_eq!(Lifecycle::Serving.as_str(), "serving");
        assert_eq!(Lifecycle::Complete.as_str(), "complete");
        assert_eq!(Lifecycle::Fetched.as_str(), "fetched");
        assert_eq!(Lifecycle::Failed.as_str(), "failed");
        assert!(Lifecycle::Fetched.done() && Lifecycle::Complete.done());
        assert!(!Lifecycle::Serving.done() && !Lifecycle::Failed.done());
    }

    #[test]
    fn ids_continue_after_the_journals_already_in_the_directory() {
        let dir = std::env::temp_dir().join(format!("rfcache_ids_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(first_free_id(&dir), 1, "a missing directory starts at 1");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(first_free_id(&dir), 1, "an empty directory starts at 1");
        for name in ["campaign-1.journal", "campaign-7.journal", "campaign-x.journal", "notes"] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        assert_eq!(first_free_id(&dir), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-campaign session answers its control plane from the loop
    /// while a scripted worker runs the lease protocol by hand.
    #[test]
    fn session_answers_http_while_coordinating() {
        let opts = ExperimentOpts { insts: 1_000, warmup: 200, quick: true, ..Default::default() };
        let request = CampaignRequest::new(vec!["readstats".into()], opts);
        let plan = request.plan().unwrap();
        let refs = plan.flat();
        let fingerprint = plan.fingerprint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let control = TcpListener::bind("127.0.0.1:0").unwrap();
        let control_addr = control.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(5);

        let summary = std::thread::scope(|scope| {
            let coordinator = scope.spawn(|| {
                serve_service(ServiceConfig {
                    listener: &listener,
                    http: Some(&control),
                    opts: &ServeOptions::default(),
                    cache: None,
                    journal: None,
                    journal_sync: 1,
                    max_campaigns: Some(1),
                    campaign: Some(request.plan().unwrap()),
                    supervise: None,
                })
            });

            // The control plane answers before any worker has joined.
            let (code, body) = http::get(&control_addr, "/healthz", timeout).unwrap();
            assert_eq!(code, 200);
            assert!(body.contains("\"ok\""), "{body}");
            let (code, body) = http::get(&control_addr, "/status", timeout).unwrap();
            assert_eq!(code, 200);
            assert!(body.contains("\"schema\": \"rfcache-service/v1\""), "{body}");
            assert!(body.contains(&format!("\"runs\": {}", refs.len())), "{body}");
            assert!(body.contains("\"completed\": 0"), "{body}");
            assert!(body.contains(&format!("\"pending\": {}", refs.len())), "{body}");
            assert!(body.contains("\"workers_joined\": 0"), "{body}");
            let (code, body) = http::get(&control_addr, "/campaigns/1", timeout).unwrap();
            assert_eq!(code, 200);
            assert!(body.contains("\"state\": \"serving\""), "{body}");
            assert!(body.contains("\"journal\": null"), "{body}");
            assert!(body.contains(&format!("\"fingerprint\": \"{fingerprint:016x}\"")), "{body}");
            let (code, _) = http::get(&control_addr, "/nope", timeout).unwrap();
            assert_eq!(code, 404, "unknown paths 404");
            let (code, _) = http::post(
                &control_addr,
                "/campaigns",
                "application/json",
                &request.to_json(),
                timeout,
            )
            .unwrap();
            assert_eq!(code, 409, "a session takes no submissions");

            // A scripted worker runs the whole lease protocol by hand.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(READ_TICK)).unwrap();
            let mut buf = LineBuffer::new();
            let deadline = Instant::now() + Duration::from_secs(30);
            let first = read_frame(&mut stream, &mut buf, deadline).unwrap().unwrap();
            let Frame::Hello { campaign: Some(_), fingerprint: announced } = first else {
                panic!("expected hello with campaign, got {first:?}");
            };
            assert_eq!(announced, fingerprint);
            send_line(&mut stream, &Frame::Hello { campaign: None, fingerprint }).unwrap();
            loop {
                match read_frame(&mut stream, &mut buf, deadline).unwrap().unwrap() {
                    Frame::Lease { indices, .. } => {
                        for &i in &indices {
                            let result = refs[i].run();
                            let record =
                                ShardRecord::from_result(i, refs[i].fingerprint(), &result);
                            send_line(&mut stream, &Frame::Record(Box::new(record))).unwrap();
                        }
                        send_line(&mut stream, &Frame::Done).unwrap();
                    }
                    Frame::Done => break,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            coordinator.join().expect("the loop does not panic")
        })
        .unwrap();
        assert_eq!((summary.submitted, summary.fetched, summary.failed), (1, 1, 0));
        let results = summary.results.expect("the session hands back its results");
        assert!(results.contains("\"name\": \"readstats\""), "{results}");
    }
}
