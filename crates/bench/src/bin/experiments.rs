//! Regenerates the tables and figures of the paper's evaluation, driven
//! by the scenario registry in `rfcache_sim::scenario`.
//!
//! ```text
//! experiments --list
//! experiments <name>... | all [--insts N] [--warmup N] [--seed N] [--quick] [--jobs N]
//!                             [--csv DIR] [--json DIR] [--dist-workers N [--http ADDR]
//!                             [--journal FILE [--journal-sync N]]] [--cache DIR]
//! experiments <name>... | all [opts] --shard I/N [--out FILE] [--cache DIR]
//! experiments merge FILE... [--csv DIR] [--json DIR]
//! experiments serve --bind ADDR [--http ADDR] [--lease-timeout SECS] [--chunk N]
//!                   [--journal FILE [--journal-sync N]] [--cache DIR]
//!                   <name>... | all [opts] [--csv DIR] [--json DIR]
//! experiments serve --bind ADDR --http ADDR [--lease-timeout SECS] [--chunk N]
//!                   [--journal DIR [--journal-sync N]] [--cache DIR]
//!                   [--max-campaigns N]
//! experiments submit --connect ADDR <name>... | all [--insts N] [--warmup N]
//!                    [--seed N] [--quick] [--json]
//! experiments fetch --connect ADDR --id N [--timeout SECS] [--csv DIR] [--json DIR]
//! experiments work --connect ADDR [--jobs N] [--connect-timeout SECS]
//!                  [--quit-after-leases N]
//! experiments resume --journal FILE --bind ADDR [--http ADDR]
//!                    [--lease-timeout SECS] [--chunk N] [--journal-sync N]
//!                    [--csv DIR] [--json DIR] [--cache DIR]
//! experiments status --connect ADDR [--json]
//! experiments cache <stats|verify|clear> DIR [--json]
//! ```
//!
//! `--list` enumerates the registered scenarios; `all` runs every one in
//! canonical order. Duplicate scenario names are run once (with a
//! warning). All selected scenarios are scheduled through **one**
//! cross-scenario work queue (`rfcache_sim::run_campaign`), so the
//! worker pool stays saturated across scenario boundaries; `--jobs N`
//! caps the worker threads (default: one per available core). The
//! reports are byte-identical to running each scenario on its own.
//!
//! `--csv DIR` / `--json DIR` additionally write each scenario's report
//! table as `DIR/<name>.csv` / `DIR/<name>.json` for plotting.
//!
//! **Sharded campaigns.** `--shard I/N` turns the invocation into shard
//! worker `I` of `N`: the campaign plan is derived exactly as usual, but
//! only indices `i % N == I` are simulated, and instead of reports the
//! worker emits a JSON-lines shard file (campaign header + one record
//! per completed run, each stamped with its spec fingerprint) to `--out
//! FILE` or stdout. `merge` folds the shard files of all `N` workers
//! back through each scenario's assembler — after verifying that the
//! headers describe one campaign, every plan index is covered exactly
//! once, and every fingerprint matches the re-derived plan — producing
//! reports and exports byte-identical to the single-process run.
//!
//! **The coordinator.** One readiness loop (`rfcache_sim::service`)
//! coordinates every distributed run. It listens on `--bind ADDR` and
//! leases plan-index ranges to every `work --connect ADDR` process that
//! joins — on this host or others. Workers re-derive the plan from the
//! `hello` frame and prove it with a campaign fingerprint; a worker that
//! planned a different campaign (mismatched binaries or options) is
//! rejected alone while the campaign continues through the rest. A worker
//! that disconnects or stalls past `--lease-timeout` has its in-flight
//! indices re-issued, duplicates are deduplicated by index, and the
//! assembled reports/exports are byte-identical to the single-process
//! run. (`--quit-after-leases N` is fault injection for tests: the
//! worker simulates a crash after completing `N` leases.)
//!
//! **One-campaign sessions.** `serve <names>` runs the loop with that one
//! campaign already queued; its completion ends the process, which then
//! prints the reports and writes the `--csv`/`--json` exports.
//! `--dist-workers N` is the one-command localhost path: a session on an
//! ephemeral port plus `N` self-spawned local `work` subprocesses, given
//! up on if every one of them dies. `--http ADDR` (on `serve`, `resume`
//! and `--dist-workers`) adds the HTTP control plane: `GET /status`
//! returns a JSON snapshot (the campaign table with completed/leased/
//! pending counts, the per-worker roster with lease ages), `GET
//! /campaigns/<id>` one campaign's progress and journal position, and
//! `GET /healthz` answers liveness probes. `status --connect ADDR`
//! renders `/status` as tables (`--json` passes the raw JSON through
//! for scripts).
//!
//! **The campaign service.** `serve` with **no scenario names** runs the
//! same loop as a long-lived service: campaigns arrive over HTTP
//! (`--http` is mandatory) as `POST /campaigns` submissions and move
//! through a queued → serving → complete → fetched lifecycle while
//! workers lease from whichever campaign is serving — one coordinator
//! process, any number of campaigns, no restarts. `submit --connect ADDR
//! <name>...` POSTs a description (printing the campaign id to stdout)
//! and `fetch --connect ADDR --id N` polls until the campaign completes,
//! prints the reports, and writes `--csv`/`--json` exports — all
//! byte-identical to running the same scenarios in process. In service
//! mode `--journal` names a *directory* (each campaign write-ahead
//! journals to `campaign-<id>.journal` inside it, ids continuing after
//! any journal already there), `--cache` pre-fills each campaign at
//! admission (so one submission's results satisfy the next),
//! `--max-campaigns N` exits cleanly after `N` campaigns are fetched (CI
//! and scripts), and a worker that connects between campaigns is told
//! to retry shortly rather than left hanging.
//!
//! **Crash-durable campaigns.** `--journal FILE` (on `serve <names>` and
//! `--dist-workers`) write-ahead journals the campaign: the header line
//! at start, then every verified record as it is accepted — each line
//! one `write`, `sync_data` every `--journal-sync N` records (default
//! 1; 0 = only at completion) — so the file is always a valid
//! shard-file prefix. An existing file is never overwritten. If the
//! coordinator crashes, `resume --journal FILE --bind ADDR` runs a
//! one-campaign session of the journaled campaign: it re-derives the
//! plan from the header, verifies the stamped campaign fingerprint,
//! replays the completed records (deduplicated and fingerprint-verified
//! exactly like live records; a torn final line is dropped, never
//! mis-parsed), and serves only the remaining indices — reports and
//! exports come out byte-identical to an uninterrupted run.
//!
//! **Result caching.** `--cache DIR` (on campaign runs, `--shard`
//! workers, `--dist-workers`, `serve` and `resume`) wraps
//! every simulation in a persistent content-addressed result cache
//! (`rfcache_sim::cache`): already-simulated `RunSpec`s are served from
//! the cache (exact metrics, so reports stay byte-identical) and fresh
//! results are stored back. The directory is safe to share between
//! concurrent workers (advisory lock + atomic writes). `cache stats DIR`
//! reports entries and session hit rates (`--json` for scripts), `cache
//! verify DIR` checks every entry end to end (exit 1 on problems), and
//! `cache clear DIR` empties the store. The three only inspect an
//! existing cache: a directory without `objects/` is refused (exit 1).
//!
//! All diagnostics (warnings, progress, errors) go to stderr; stdout
//! carries only reports or, in shard-worker mode, shard records.
//!
//! Defaults: 200k measured instructions per benchmark after 60k warmup
//! (`rfcache_sim::DEFAULT_INSTS` / `DEFAULT_WARMUP`; the paper simulates
//! 100M after skipping initialization).

use rfcache_sim::cache::Cache;
use rfcache_sim::executor::{
    assemble_shard_results, read_record_file, run_shard, Executor as _, ExecutorError, InProcess,
};
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::metrics_codec::{CampaignHeader, TailPolicy};
use rfcache_sim::service::{serve_service, JournalMode, ServiceConfig, ServiceSummary};
use rfcache_sim::sweep::SweepDef;
use rfcache_sim::transport::{self, ServeOptions, WorkOptions};
use rfcache_sim::{
    http, parse_json, scenario, write_csv, write_json, CampaignPlan, CampaignRequest, JsonValue,
    Registry, ScenarioReport, TextTable,
};
use std::io::{BufRead as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: experiments --list [--sweep FILE]
       experiments <name>... | all [--insts N] [--warmup N] [--seed N] [--quick] [--jobs N]
                                   [--csv DIR] [--json DIR] [--dist-workers N [--http ADDR]
                                   [--journal FILE [--journal-sync N]]] [--cache DIR]
                                   [--sweep FILE]
       experiments <name>... | all [opts] --shard I/N [--out FILE] [--cache DIR]
       experiments sweep FILE... [same options as a named campaign]
       experiments merge FILE... [--csv DIR] [--json DIR]
       experiments serve --bind ADDR [--http ADDR] [--lease-timeout SECS] [--chunk N]
                         [--journal FILE [--journal-sync N]] [--cache DIR]
                         <name>... | all [opts] [--csv DIR] [--json DIR] [--sweep FILE]
       experiments serve --bind ADDR --http ADDR [--lease-timeout SECS] [--chunk N]
                         [--journal DIR [--journal-sync N]] [--cache DIR]
                         [--max-campaigns N]
       experiments submit --connect ADDR <name>... | all [--insts N] [--warmup N]
                          [--seed N] [--quick] [--json] [--sweep FILE]
       experiments fetch --connect ADDR --id N [--timeout SECS] [--csv DIR] [--json DIR]
       experiments work --connect ADDR [--jobs N] [--connect-timeout SECS]
                        [--quit-after-leases N]
       experiments resume --journal FILE --bind ADDR [--http ADDR]
                          [--lease-timeout SECS] [--chunk N] [--journal-sync N]
                          [--csv DIR] [--json DIR] [--cache DIR]
       experiments status --connect ADDR [--json]
       experiments cache <stats|verify|clear> DIR [--json]
run `experiments --list` for the registered scenario names";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        list(&args);
        return;
    }
    match args[0].as_str() {
        "merge" => merge_main(&args[1..]),
        "serve" => serve_main(&args[1..]),
        "submit" => submit_main(&args[1..]),
        "fetch" => fetch_main(&args[1..]),
        "work" => work_main(&args[1..]),
        "resume" => resume_main(&args[1..]),
        "status" => status_main(&args[1..]),
        "cache" => cache_main(&args[1..]),
        "sweep" => sweep_main(&args[1..]),
        _ => run_main(&args),
    }
}

/// `experiments sweep FILE...`: shorthand for a campaign whose
/// positional arguments are sweep definition files instead of scenario
/// names — every flag a named campaign takes works here too.
fn sweep_main(args: &[String]) {
    let mut rewritten: Vec<String> = Vec::new();
    let mut files = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            rewritten.push(arg.clone());
        } else if arg.starts_with("--") {
            // Every other run_main flag takes a value; carry it through
            // so its value is not mistaken for a sweep file.
            rewritten.push(arg.clone());
            if let Some(value) = it.next() {
                rewritten.push(value.clone());
            }
        } else {
            files += 1;
            rewritten.push("--sweep".to_string());
            rewritten.push(arg.clone());
        }
    }
    if files == 0 {
        usage_error("sweep needs at least one definition file: sweep FILE...");
    }
    run_main(&rewritten);
}

fn run_main(args: &[String]) {
    let mut opts = ExperimentOpts::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut out_file: Option<PathBuf> = None;
    let mut dist_workers: Option<usize> = None;
    let mut journal: Option<PathBuf> = None;
    let mut journal_sync: Option<usize> = None;
    let mut http: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut sweep_files: Vec<PathBuf> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--insts" => opts.insts = parse_num("--insts", it.next()),
            "--warmup" => opts.warmup = parse_num("--warmup", it.next()),
            "--seed" => opts.seed = parse_num("--seed", it.next()),
            "--jobs" => opts.jobs = parse_num("--jobs", it.next()) as usize,
            "--quick" => opts.quick = true,
            "--csv" => csv_dir = Some(parse_path("--csv", it.next())),
            "--json" => json_dir = Some(parse_path("--json", it.next())),
            "--shard" => shard = Some(parse_shard(it.next())),
            "--out" => out_file = Some(parse_path("--out", it.next())),
            "--sweep" => sweep_files.push(parse_path("--sweep", it.next())),
            "--dist-workers" => {
                dist_workers = Some(parse_positive("--dist-workers", it.next()));
            }
            "--journal" => journal = Some(parse_path("--journal", it.next())),
            "--journal-sync" => {
                journal_sync = Some(parse_num("--journal-sync", it.next()) as usize);
            }
            "--http" => http = Some(parse_value("--http", it.next())),
            "--cache" => cache_dir = Some(parse_path("--cache", it.next())),
            flag if flag.starts_with("--") => {
                usage_error(&format!("unknown option {flag}"));
            }
            name => {
                if names.contains(&name) {
                    eprintln!("warning: duplicate scenario name {name} ignored");
                } else {
                    names.push(name);
                }
            }
        }
    }
    if out_file.is_some() && shard.is_none() {
        usage_error("--out requires --shard");
    }
    if shard.is_some() && (csv_dir.is_some() || json_dir.is_some()) {
        usage_error("--shard emits a shard file, not reports: drop --csv/--json");
    }
    if dist_workers.is_some() && shard.is_some() {
        usage_error("--dist-workers runs a coordinator session: drop --shard");
    }
    if journal.is_some() && dist_workers.is_none() {
        usage_error("--journal requires --dist-workers (or the serve/resume subcommands)");
    }
    if journal_sync.is_some() && journal.is_none() {
        usage_error("--journal-sync requires --journal");
    }
    if http.is_some() && dist_workers.is_none() {
        usage_error("--http requires --dist-workers (or the serve/resume subcommands)");
    }

    let plan = plan_campaign(&sweep_files, names, opts);
    let (scenarios, runs) = (plan.request().scenarios.len(), plan.runs());
    let start = Instant::now();

    if let Some((index, count)) = shard {
        run_worker(&plan, index, count, opts.jobs, out_file, cache_dir.as_deref());
        eprintln!(
            "[shard {index}/{count}: {} of {runs} simulation(s), {:.1}s]",
            (0..runs).filter(|i| i % count == index).count(),
            start.elapsed().as_secs_f64()
        );
        return;
    }

    let backend = if let Some(count) = dist_workers {
        let (listener, control) = bind_session("127.0.0.1:0", http.as_deref(), runs);
        let addr = listener
            .local_addr()
            .unwrap_or_else(|e| die(&format!("cannot read the bound address: {e}")));
        let cache = cache_dir.as_deref().map(open_cache);
        let mut pool = spawn_pool(addr, count, split_jobs(opts.jobs, count));
        let outcome = {
            // A session whose whole self-spawned pool died must end, not
            // wait forever for workers that will never reconnect.
            let mut pool_check = || {
                let all_gone = pool.iter_mut().all(|c| matches!(c.try_wait(), Ok(Some(_))));
                all_gone.then(|| {
                    format!(
                        "all {count} self-spawned worker(s) exited before the campaign completed"
                    )
                })
            };
            serve_service(ServiceConfig {
                listener: &listener,
                http: control.as_ref(),
                opts: &ServeOptions::default(),
                cache: cache.as_ref(),
                journal: journal.as_deref().map(JournalMode::Create),
                journal_sync: journal_sync.unwrap_or(1),
                max_campaigns: Some(1),
                campaign: Some(plan),
                supervise: Some(&mut pool_check),
            })
        };
        // The session is over either way: on success the workers have
        // been sent `done`; on failure they would block on a dead
        // coordinator.
        reap(pool);
        emit_results(&session_results(outcome), csv_dir.as_deref(), json_dir.as_deref());
        format!("{count} distributed worker(s)")
    } else {
        // One flat work queue across every selected scenario: the tail
        // of one scenario's runs overlaps the head of the next.
        let mut executor = InProcess::new(opts.jobs);
        if let Some(dir) = &cache_dir {
            executor = executor.with_cache(open_cache(dir));
        }
        let results = executor.execute(&plan.flat()).unwrap_or_else(|e| die(&e.to_string()));
        let reports = plan.assemble(results);
        emit_reports(&plan.request().scenarios, &reports, csv_dir.as_deref(), json_dir.as_deref());
        "in-process".to_string()
    };
    eprintln!(
        "[campaign: {scenarios} scenario(s), {runs} simulation(s), {backend}, {:.1}s]",
        start.elapsed().as_secs_f64()
    );
}

/// Splits the thread budget across `count` worker processes: each
/// running a full per-core pool would oversubscribe the CPU.
fn split_jobs(jobs: usize, count: usize) -> usize {
    let total = if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    };
    (total / count).max(1)
}

/// Runs the coordinator: a one-campaign session when scenarios are
/// named, the multi-campaign service otherwise.
fn serve_main(args: &[String]) {
    let mut opts = ExperimentOpts::default();
    let mut serve_opts = ServeOptions::default();
    let mut bind: Option<String> = None;
    let mut http: Option<String> = None;
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut journal_sync: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut max_campaigns: Option<usize> = None;
    let mut sweep_files: Vec<PathBuf> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bind" => bind = Some(parse_value("--bind", it.next())),
            "--sweep" => sweep_files.push(parse_path("--sweep", it.next())),
            "--http" => http = Some(parse_value("--http", it.next())),
            "--max-campaigns" => {
                max_campaigns = Some(parse_positive("--max-campaigns", it.next()));
            }
            "--lease-timeout" => {
                serve_opts.lease_timeout =
                    Duration::from_secs(parse_positive("--lease-timeout", it.next()) as u64);
            }
            "--chunk" => serve_opts.chunk = parse_num("--chunk", it.next()) as usize,
            "--journal" => journal = Some(parse_path("--journal", it.next())),
            "--journal-sync" => {
                journal_sync = Some(parse_num("--journal-sync", it.next()) as usize);
            }
            "--insts" => opts.insts = parse_num("--insts", it.next()),
            "--warmup" => opts.warmup = parse_num("--warmup", it.next()),
            "--seed" => opts.seed = parse_num("--seed", it.next()),
            "--quick" => opts.quick = true,
            "--csv" => csv_dir = Some(parse_path("--csv", it.next())),
            "--json" => json_dir = Some(parse_path("--json", it.next())),
            "--cache" => cache_dir = Some(parse_path("--cache", it.next())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            name => {
                if names.contains(&name) {
                    eprintln!("warning: duplicate scenario name {name} ignored");
                } else {
                    names.push(name);
                }
            }
        }
    }
    let Some(bind) = bind else {
        usage_error("serve needs --bind ADDR (e.g. --bind 0.0.0.0:7841)");
    };
    if journal_sync.is_some() && journal.is_none() {
        usage_error("--journal-sync requires --journal");
    }
    if names.is_empty() && sweep_files.is_empty() {
        // No campaign on the command line: run the multi-campaign
        // service and take campaigns over the control plane instead.
        if csv_dir.is_some() || json_dir.is_some() {
            usage_error(
                "the campaign service streams results over HTTP (use `fetch --csv/--json`): \
                 drop --csv/--json",
            );
        }
        if opts != ExperimentOpts::default() {
            usage_error(
                "the campaign service takes its options per submission: move \
                 --insts/--warmup/--seed/--quick onto `submit`",
            );
        }
        let Some(http) = http else {
            usage_error(
                "serve without scenario names runs the campaign service and needs \
                 --http ADDR to accept submissions (or name scenarios for a single campaign)",
            );
        };
        let (listener, addr) = bind_or_die(&bind);
        let (control, http_addr) = bind_or_die(&http);
        eprintln!("[service: workers on {addr}, submissions on http://{http_addr}/campaigns]");
        let cache = cache_dir.as_deref().map(open_cache);
        let start = Instant::now();
        let summary = serve_service(ServiceConfig {
            listener: &listener,
            http: Some(&control),
            opts: &serve_opts,
            cache: cache.as_ref(),
            journal: journal.as_deref().map(JournalMode::Dir),
            journal_sync: journal_sync.unwrap_or(1),
            max_campaigns,
            campaign: None,
            supervise: None,
        })
        .unwrap_or_else(|e| die(&e.to_string()));
        eprintln!(
            "[service: {} campaign(s) submitted, {} completed, {} fetched, {} failed, {:.1}s]",
            summary.submitted,
            summary.completed,
            summary.fetched,
            summary.failed,
            start.elapsed().as_secs_f64()
        );
        if summary.failed > 0 {
            std::process::exit(1);
        }
        return;
    }
    if max_campaigns.is_some() {
        usage_error("--max-campaigns is a campaign-service flag: drop the scenario names");
    }
    let plan = plan_campaign(&sweep_files, names, opts);
    let (scenarios, runs) = (plan.request().scenarios.len(), plan.runs());
    let start = Instant::now();
    let (listener, control) = bind_session(&bind, http.as_deref(), runs);
    let cache = cache_dir.as_deref().map(open_cache);
    let outcome = serve_service(ServiceConfig {
        listener: &listener,
        http: control.as_ref(),
        opts: &serve_opts,
        cache: cache.as_ref(),
        journal: journal.as_deref().map(JournalMode::Create),
        journal_sync: journal_sync.unwrap_or(1),
        max_campaigns: Some(1),
        campaign: Some(plan),
        supervise: None,
    });
    emit_results(&session_results(outcome), csv_dir.as_deref(), json_dir.as_deref());
    eprintln!(
        "[campaign: {scenarios} scenario(s), {runs} simulation(s), distributed coordinator, {:.1}s]",
        start.elapsed().as_secs_f64()
    );
}

/// Binds a listener, dying with the address on failure.
fn bind_or_die(bind: &str) -> (TcpListener, SocketAddr) {
    let listener =
        TcpListener::bind(bind).unwrap_or_else(|e| die(&format!("cannot bind {bind}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot read the address bound to {bind}: {e}")));
    (listener, addr)
}

/// Binds a one-campaign session's worker listener and optional control
/// plane, logging the addresses workers and probes connect to.
fn bind_session(bind: &str, http: Option<&str>, runs: usize) -> (TcpListener, Option<TcpListener>) {
    let (listener, addr) = bind_or_die(bind);
    eprintln!("[serve: listening on {addr}, {runs} simulation(s)]");
    let control = http.map(|bind| {
        let (control, addr) = bind_or_die(bind);
        eprintln!("[serve: http status on {addr}]");
        control
    });
    (listener, control)
}

/// The results document of a finished one-campaign session. A failed
/// campaign exits 1: the loop has already said why.
fn session_results(outcome: Result<ServiceSummary, ExecutorError>) -> String {
    let summary = outcome.unwrap_or_else(|e| die(&e.to_string()));
    summary.results.unwrap_or_else(|| std::process::exit(1))
}

/// Spawns `count` local `work` processes of this binary against `addr`.
fn spawn_pool(addr: SocketAddr, count: usize, jobs: usize) -> Vec<Child> {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate this executable: {e}")));
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count {
        let child = Command::new(&exe)
            .arg("work")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            // stderr inherits: worker diagnostics surface directly.
            .spawn();
        match child {
            Ok(child) => pool.push(child),
            Err(e) => {
                reap(pool);
                die(&format!("cannot spawn {}: {e}", exe.display()));
            }
        }
    }
    pool
}

/// Kills and waits for every process of a worker pool.
fn reap(pool: Vec<Child>) {
    for mut child in pool {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The description of the campaign the command line names (scenario
/// names or `all`, plus `--sweep` files), carrying any sweep definitions
/// inline so other processes can rebuild the namespace.
fn campaign_request(
    sweep_files: &[PathBuf],
    names: Vec<&str>,
    opts: ExperimentOpts,
) -> CampaignRequest {
    let registry = load_registry(sweep_files);
    let names = with_sweep_names(names, &registry);
    let selected = select_scenarios(&registry, &names);
    CampaignRequest::new(selected.iter().map(|s| s.name.to_string()).collect(), opts)
        .with_sweeps(registry.sweep_texts().to_vec())
}

/// Plans the campaign the command line names.
fn plan_campaign(sweep_files: &[PathBuf], names: Vec<&str>, opts: ExperimentOpts) -> CampaignPlan {
    campaign_request(sweep_files, names, opts).plan().unwrap_or_else(|e| usage_error(&e))
}

/// Submits a campaign description to a running campaign service and
/// prints the assigned campaign id to stdout (everything else goes to
/// stderr, so `ID=$(experiments submit ...)` just works).
fn submit_main(args: &[String]) {
    let mut opts = ExperimentOpts::default();
    let mut connect: Option<String> = None;
    let mut raw = false;
    let mut sweep_files: Vec<PathBuf> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse_value("--connect", it.next())),
            "--sweep" => sweep_files.push(parse_path("--sweep", it.next())),
            "--insts" => opts.insts = parse_num("--insts", it.next()),
            "--warmup" => opts.warmup = parse_num("--warmup", it.next()),
            "--seed" => opts.seed = parse_num("--seed", it.next()),
            "--quick" => opts.quick = true,
            "--json" => raw = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            name => {
                if names.contains(&name) {
                    eprintln!("warning: duplicate scenario name {name} ignored");
                } else {
                    names.push(name);
                }
            }
        }
    }
    let Some(addr) = connect else {
        usage_error("submit needs --connect ADDR (the service's --http address)");
    };
    let request = campaign_request(&sweep_files, names, opts);
    let (code, body) = http::post(
        &addr,
        "/campaigns",
        "application/json",
        &request.to_json(),
        Duration::from_secs(5),
    )
    .unwrap_or_else(|e| die(&e));
    if code != 201 {
        die(&format!("{addr}: POST /campaigns answered {code}: {}", body.trim()));
    }
    if raw {
        print!("{body}");
        return;
    }
    let accepted = parse_json(&body)
        .unwrap_or_else(|e| die(&format!("{addr}: malformed submission response: {e}")));
    let id = accepted
        .get("id")
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| die(&format!("{addr}: submission response carries no id: {body}")));
    eprintln!(
        "[submit: campaign {id} queued: {} run(s), fingerprint {}]",
        accepted.get("runs").and_then(JsonValue::as_u64).unwrap_or(0),
        accepted.get("fingerprint").and_then(JsonValue::as_str).unwrap_or("?"),
    );
    println!("{id}");
}

/// Polls a submitted campaign until it completes, then prints its
/// reports (and writes `--csv`/`--json` exports) byte-identically to an
/// in-process run of the same description.
fn fetch_main(args: &[String]) {
    let mut connect: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut timeout = Duration::from_secs(120);
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse_value("--connect", it.next())),
            "--id" => id = Some(parse_num("--id", it.next())),
            "--timeout" => {
                timeout = Duration::from_secs(parse_positive("--timeout", it.next()) as u64);
            }
            "--csv" => csv_dir = Some(parse_path("--csv", it.next())),
            "--json" => json_dir = Some(parse_path("--json", it.next())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            other => usage_error(&format!("unexpected argument {other} (fetch takes only flags)")),
        }
    }
    let Some(addr) = connect else {
        usage_error("fetch needs --connect ADDR (the service's --http address)");
    };
    let Some(id) = id else {
        usage_error("fetch needs --id N (the id `submit` printed)");
    };

    // Poll the lifecycle until the campaign is fetchable (or doomed).
    let deadline = Instant::now() + timeout;
    loop {
        let (code, body) = http::get(&addr, &format!("/campaigns/{id}"), Duration::from_secs(5))
            .unwrap_or_else(|e| die(&e));
        if code != 200 {
            die(&format!("{addr}: GET /campaigns/{id} answered {code}: {}", body.trim()));
        }
        let status = parse_json(&body)
            .unwrap_or_else(|e| die(&format!("{addr}: malformed campaign status: {e}")));
        match status.get("state").and_then(JsonValue::as_str).unwrap_or("?") {
            "complete" | "fetched" => break,
            "failed" => die(&format!(
                "campaign {id} failed: {}",
                status.get("failure").and_then(JsonValue::as_str).unwrap_or("(no reason)")
            )),
            state => {
                if Instant::now() >= deadline {
                    die(&format!(
                        "campaign {id} still {state} after {}s (is a worker connected? \
                         raise --timeout)",
                        timeout.as_secs()
                    ));
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }

    let (code, body) =
        http::get(&addr, &format!("/campaigns/{id}/results"), Duration::from_secs(5))
            .unwrap_or_else(|e| die(&e));
    if code != 200 {
        die(&format!("{addr}: GET /campaigns/{id}/results answered {code}: {}", body.trim()));
    }
    let reports = emit_results(&body, csv_dir.as_deref(), json_dir.as_deref());
    eprintln!("[fetch: campaign {id}: {reports} scenario report(s)]");
}

/// Prints the reports of a results document (`GET /campaigns/<id>/results`)
/// and writes its exports — byte for byte what [`emit_reports`] produces
/// in process. Returns how many scenario reports it held.
fn emit_results(doc: &str, csv_dir: Option<&Path>, json_dir: Option<&Path>) -> usize {
    let parsed =
        parse_json(doc).unwrap_or_else(|e| die(&format!("malformed results document: {e}")));
    let entries = parsed
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| die(&format!("results document carries no scenarios: {doc}")));
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| die("results entry carries no scenario name"));
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| die(&format!("results entry {name} carries no {key}")))
        };
        println!("{}", field("report"));
        if let Some(dir) = csv_dir {
            write_fetched(dir, name, "csv", field("csv"));
        }
        if let Some(dir) = json_dir {
            write_fetched(dir, name, "json", field("json"));
        }
    }
    entries.len()
}

/// Writes one fetched export exactly as the in-process exporters would.
fn write_fetched(dir: &Path, name: &str, ext: &str, content: &str) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    let path = dir.join(format!("{name}.{ext}"));
    std::fs::write(&path, content)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

/// Resumes an interrupted journaled campaign as a one-campaign session:
/// the plan is re-derived from the journaled header (no scenario names
/// on the command line), completed records are replayed, and only the
/// remainder is served.
fn resume_main(args: &[String]) {
    let mut serve_opts = ServeOptions::default();
    let mut bind: Option<String> = None;
    let mut http: Option<String> = None;
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut journal_sync: Option<usize> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bind" => bind = Some(parse_value("--bind", it.next())),
            "--http" => http = Some(parse_value("--http", it.next())),
            "--lease-timeout" => {
                serve_opts.lease_timeout =
                    Duration::from_secs(parse_positive("--lease-timeout", it.next()) as u64);
            }
            "--chunk" => serve_opts.chunk = parse_num("--chunk", it.next()) as usize,
            "--journal" => journal = Some(parse_path("--journal", it.next())),
            "--journal-sync" => {
                journal_sync = Some(parse_num("--journal-sync", it.next()) as usize);
            }
            "--csv" => csv_dir = Some(parse_path("--csv", it.next())),
            "--json" => json_dir = Some(parse_path("--json", it.next())),
            "--cache" => cache_dir = Some(parse_path("--cache", it.next())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            other => usage_error(&format!(
                "unexpected argument {other} (resume re-derives the campaign from the journal)"
            )),
        }
    }
    let Some(journal) = journal else {
        usage_error("resume needs --journal FILE (the interrupted campaign's journal)");
    };
    let Some(bind) = bind else {
        usage_error("resume needs --bind ADDR (e.g. --bind 0.0.0.0:7841)");
    };

    // The journal header is the campaign description; only the first
    // line is read here — the session reads the file once and replays
    // every record with full verification, so pulling a potentially
    // huge journal into memory twice would be pure waste.
    let file = std::fs::File::open(&journal)
        .unwrap_or_else(|e| die(&format!("cannot open journal {}: {e}", journal.display())));
    let mut header_line = String::new();
    std::io::BufReader::new(file)
        .read_line(&mut header_line)
        .unwrap_or_else(|e| die(&format!("cannot read journal {}: {e}", journal.display())));
    if !header_line.ends_with('\n') {
        die(&format!(
            "journal {} has no complete header line (crash before the first sync?)",
            journal.display()
        ));
    }
    let header = CampaignHeader::parse(header_line.trim_end())
        .unwrap_or_else(|e| die(&format!("corrupt journal {}: line 1: {e}", journal.display())));
    let plan = header
        .campaign
        .plan()
        .unwrap_or_else(|e| die(&format!("journal {e} (written by a different binary version?)")));
    let (scenarios, runs) = (plan.request().scenarios.len(), plan.runs());
    eprintln!("[resume: resuming a {runs}-run campaign from {}]", journal.display());
    let start = Instant::now();
    let (listener, control) = bind_session(&bind, http.as_deref(), runs);
    let cache = cache_dir.as_deref().map(open_cache);
    let outcome = serve_service(ServiceConfig {
        listener: &listener,
        http: control.as_ref(),
        opts: &serve_opts,
        cache: cache.as_ref(),
        journal: Some(JournalMode::Resume(&journal)),
        journal_sync: journal_sync.unwrap_or(1),
        max_campaigns: Some(1),
        campaign: Some(plan),
        supervise: None,
    });
    emit_results(&session_results(outcome), csv_dir.as_deref(), json_dir.as_deref());
    eprintln!(
        "[campaign: {scenarios} scenario(s), {runs} simulation(s), resumed coordinator, {:.1}s]",
        start.elapsed().as_secs_f64()
    );
}

/// Runs as a distributed campaign worker until the coordinator says done.
fn work_main(args: &[String]) {
    let mut connect: Option<String> = None;
    let mut work_opts = WorkOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse_value("--connect", it.next())),
            // Positive like --lease-timeout: a zero window collapses
            // the retry loop to a single attempt, silently defeating
            // the launched-before-the-coordinator race this flag exists
            // to cover — reject it by name rather than accept a value
            // that does not mean what it appears to.
            "--connect-timeout" => {
                work_opts.connect_timeout =
                    Duration::from_secs(parse_positive("--connect-timeout", it.next()) as u64);
            }
            "--jobs" => work_opts.jobs = parse_num("--jobs", it.next()) as usize,
            "--quit-after-leases" => {
                work_opts.quit_after_leases =
                    Some(parse_num("--quit-after-leases", it.next()) as usize);
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            other => usage_error(&format!("unexpected argument {other} (work takes only flags)")),
        }
    }
    let Some(addr) = connect else {
        usage_error("work needs --connect ADDR (the coordinator's serve --bind address)");
    };
    let start = Instant::now();
    let summary = transport::work(&addr, &work_opts).unwrap_or_else(|e| die(&e));
    eprintln!(
        "[work: {} simulation(s) in {} lease(s){}, {:.1}s]",
        summary.simulated,
        summary.leases,
        if summary.quit_injected { ", quit injected" } else { "" },
        start.elapsed().as_secs_f64()
    );
}

/// Fetches a running coordinator's `/status` snapshot and renders it:
/// the serving campaign's progress, the campaign table and the worker
/// roster (`--json` passes the raw snapshot through untouched for
/// scripts).
fn status_main(args: &[String]) {
    let mut connect: Option<String> = None;
    let mut raw = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse_value("--connect", it.next())),
            "--json" => raw = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            other => usage_error(&format!("unexpected argument {other} (status takes only flags)")),
        }
    }
    let Some(addr) = connect else {
        usage_error("status needs --connect ADDR (the coordinator's --http address)");
    };
    let (code, body) =
        http::get(&addr, "/status", Duration::from_secs(5)).unwrap_or_else(|e| die(&e));
    if code != 200 {
        die(&format!("{addr}: /status answered {code}: {}", body.trim()));
    }
    if raw {
        print!("{body}");
        return;
    }
    let status = parse_json(&body)
        .unwrap_or_else(|e| die(&format!("{addr}: malformed /status response: {e}")));
    let count = |value: &JsonValue, key: &str| value.get(key).and_then(JsonValue::as_u64);
    let cell =
        |value: &JsonValue, key: &str| count(value, key).map_or("?".into(), |n| n.to_string());
    let serving = count(&status, "serving");
    println!(
        "campaign service: {} campaign(s) submitted, serving {}, {:.1}s up",
        cell(&status, "submitted"),
        serving.map_or("-".to_string(), |id| id.to_string()),
        status.get("elapsed_secs").and_then(JsonValue::as_f64).unwrap_or(0.0)
    );
    println!(
        "  workers: {} connected, {} joined in total",
        cell(&status, "workers_connected"),
        cell(&status, "workers_joined")
    );
    let campaigns = status.get("campaigns").and_then(JsonValue::as_array).unwrap_or(&[]);
    for campaign in campaigns.iter().filter(|c| serving.is_some() && count(c, "id") == serving) {
        let n = |key: &str| count(campaign, key).unwrap_or(0);
        println!(
            "  campaign {}: {} run(s): {} completed ({} from cache), {} leased, {} pending \
             ({:.1}% done)",
            n("id"),
            n("runs"),
            n("completed"),
            n("cached"),
            n("leased"),
            n("pending"),
            if n("runs") == 0 { 100.0 } else { 100.0 * n("completed") as f64 / n("runs") as f64 }
        );
    }
    if !campaigns.is_empty() {
        let mut table = TextTable::new(
            ["id", "state", "scenarios", "runs", "completed", "cached"]
                .map(String::from)
                .into_iter()
                .collect(),
        );
        for campaign in campaigns {
            let names: Vec<&str> = campaign
                .get("scenarios")
                .and_then(JsonValue::as_array)
                .map(|names| names.iter().filter_map(JsonValue::as_str).collect())
                .unwrap_or_default();
            table.row(vec![
                cell(campaign, "id"),
                campaign.get("state").and_then(JsonValue::as_str).unwrap_or("?").to_string(),
                names.join(" "),
                cell(campaign, "runs"),
                cell(campaign, "completed"),
                cell(campaign, "cached"),
            ]);
        }
        println!("\n{table}");
    }
    let roster = status.get("workers").and_then(JsonValue::as_array).unwrap_or(&[]);
    if !roster.is_empty() {
        let mut table = TextTable::new(
            ["worker", "phase", "leases", "records", "lease age"]
                .map(String::from)
                .into_iter()
                .collect(),
        );
        for worker in roster {
            table.row(vec![
                worker.get("peer").and_then(JsonValue::as_str).unwrap_or("?").to_string(),
                worker.get("phase").and_then(JsonValue::as_str).unwrap_or("?").to_string(),
                cell(worker, "leases"),
                cell(worker, "records"),
                worker
                    .get("lease_age_secs")
                    .and_then(JsonValue::as_f64)
                    .map_or("-".to_string(), |age| format!("{age:.1}s")),
            ]);
        }
        println!("\n{table}");
    }
}

/// Inspects or maintains a result cache directory: `stats` summarises
/// the store and the recorded sessions (`--json` for scripts), `verify`
/// re-checks every entry end to end and exits 1 if anything is wrong,
/// and `clear` empties the store.
fn cache_main(args: &[String]) {
    let mut json = false;
    let mut positional: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            value => positional.push(value),
        }
    }
    let [action, dir]: [&str; 2] = positional.try_into().unwrap_or_else(|_| {
        usage_error("cache needs an action and a directory: cache <stats|verify|clear> DIR")
    });
    if !matches!(action, "stats" | "verify" | "clear") {
        usage_error(&format!("unknown cache action {action} (stats, verify or clear)"));
    }
    let dir = PathBuf::from(dir);
    // Opening creates a cache on demand, which is right for `--cache DIR`
    // but must not turn a mistyped or unrelated directory into one here.
    if !dir.join("objects").is_dir() {
        die(&format!("{}: not a result cache (no objects/ directory)", dir.display()));
    }
    let cache = open_cache(&dir);
    match action {
        "stats" => {
            let stats = cache
                .stats()
                .unwrap_or_else(|e| die(&format!("cannot read cache {}: {e}", dir.display())));
            if json {
                println!("{}", stats.to_json(&dir));
                return;
            }
            println!(
                "cache {}: {} entr{} in {} file(s) ({} with shard-key collisions), {} byte(s)",
                dir.display(),
                stats.entries,
                if stats.entries == 1 { "y" } else { "ies" },
                stats.files,
                stats.collision_files,
                stats.bytes
            );
            println!(
                "  sessions: {} recorded; lifetime {} lookup(s), {} hit(s) ({:.1}%), {} store(s)",
                stats.sessions,
                stats.lookups,
                stats.hits,
                if stats.lookups == 0 {
                    0.0
                } else {
                    100.0 * stats.hits as f64 / stats.lookups as f64
                },
                stats.stores
            );
            if let Some(s) = &stats.last_session {
                println!(
                    "  last session: {} — {} lookup(s), {} hit(s), {} store(s)",
                    s.mode, s.lookups, s.hits, s.stores
                );
            }
        }
        "verify" => {
            let problems = cache
                .verify()
                .unwrap_or_else(|e| die(&format!("cannot read cache {}: {e}", dir.display())));
            if problems.is_empty() {
                eprintln!("[cache {}: every entry verified clean]", dir.display());
                return;
            }
            for problem in &problems {
                eprintln!("{problem}");
            }
            die(&format!("cache {}: {} problem(s) found", dir.display(), problems.len()));
        }
        "clear" => {
            let removed = cache
                .clear()
                .unwrap_or_else(|e| die(&format!("cannot clear cache {}: {e}", dir.display())));
            eprintln!("[cache {}: removed {removed} object file(s)]", dir.display());
        }
        _ => unreachable!("action validated above"),
    }
}

/// Executes one shard of the campaign and writes the shard file.
fn run_worker(
    plan: &CampaignPlan,
    index: usize,
    count: usize,
    jobs: usize,
    out_file: Option<PathBuf>,
    cache_dir: Option<&Path>,
) {
    let header = plan.header(index, count);
    let flat = plan.flat();
    let cache = cache_dir.map(open_cache);
    let result = match &out_file {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", path.display())));
            let mut out = std::io::BufWriter::new(file);
            run_shard(&header, &flat, jobs, cache.as_ref(), &mut out).and_then(|()| out.flush())
        }
        None => run_shard(&header, &flat, jobs, cache.as_ref(), &mut std::io::stdout().lock()),
    };
    result.unwrap_or_else(|e| die(&format!("cannot write shard records: {e}")));
}

/// Opens (creating if needed) the result cache at `dir`, dying with a
/// clear message on failure — every `--cache` entry point funnels here.
fn open_cache(dir: &Path) -> Cache {
    Cache::open(dir)
        .unwrap_or_else(|e| die(&format!("cannot open result cache {}: {e}", dir.display())))
}

/// Merges shard files back into reports and exports.
fn merge_main(args: &[String]) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv_dir = Some(parse_path("--csv", it.next())),
            "--json" => json_dir = Some(parse_path("--json", it.next())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        usage_error("merge needs at least one shard file");
    }

    let start = Instant::now();
    let mut headers: Vec<CampaignHeader> = Vec::new();
    let mut records = Vec::new();
    for path in &files {
        let file =
            read_record_file(path, TailPolicy::Reject).unwrap_or_else(|e| die(&e.to_string()));
        let header = file.header;
        if let Some(first) = headers.first() {
            if !header.same_campaign(first) {
                die(&format!(
                    "{} and {} come from different campaigns (scenarios/options/shard count \
                     disagree); re-run the workers with identical arguments",
                    files[0].display(),
                    path.display()
                ));
            }
        }
        if let Some(dup) = headers.iter().position(|h| h.shard == header.shard) {
            die(&format!(
                "{} and {} both claim shard {}/{}",
                files[dup].display(),
                path.display(),
                header.shard,
                header.of
            ));
        }
        headers.push(header);
        records.extend(file.records);
    }
    let campaign = &headers[0];
    if headers.len() != campaign.of {
        die(&format!(
            "campaign was sharded {} ways but {} shard file(s) were given",
            campaign.of,
            headers.len()
        ));
    }

    // Re-derive the plan the workers executed and verify it matches.
    // Any declarative sweeps travelled inline in the shard headers.
    let plan = campaign.campaign.plan().unwrap_or_else(|e| {
        die(&format!("shard files {e} (written by a different binary version?)"))
    });
    if plan.runs() != campaign.runs {
        die(&format!(
            "shard headers describe a {}-run campaign but this binary plans {} runs \
             (plan drift)",
            campaign.runs,
            plan.runs()
        ));
    }
    let results =
        assemble_shard_results(&plan.flat(), records).unwrap_or_else(|e| die(&e.to_string()));
    let names = &plan.request().scenarios;
    emit_reports(names, &plan.assemble(results), csv_dir.as_deref(), json_dir.as_deref());
    eprintln!(
        "[merge: {} scenario(s), {} simulation(s) from {} shard(s), {:.1}s]",
        names.len(),
        plan.runs(),
        headers.len(),
        start.elapsed().as_secs_f64()
    );
}

/// Loads `--sweep` definition files into a scenario registry (dying
/// with a usage error on an invalid definition or duplicate name).
fn load_registry(files: &[PathBuf]) -> Registry {
    let defs: Vec<SweepDef> = files
        .iter()
        .map(|path| SweepDef::load(&path.display().to_string()).unwrap_or_else(|e| usage_error(&e)))
        .collect();
    Registry::with_sweeps(defs).unwrap_or_else(|e| usage_error(&e))
}

/// Appends loaded sweep names to the selection so `--sweep FILE` runs
/// the sweep without repeating its name (explicit names, including
/// `all`, already cover it through the registry).
fn with_sweep_names<'a>(mut names: Vec<&'a str>, registry: &'a Registry) -> Vec<&'a str> {
    if names.contains(&"all") {
        return names;
    }
    for s in registry.sweeps() {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    names
}

/// Resolves scenario names (or `all`) against the registry.
fn select_scenarios<'r>(registry: &'r Registry, names: &[&str]) -> Vec<&'r scenario::Scenario> {
    let selected: Vec<&scenario::Scenario> = if names.contains(&"all") {
        if names.len() > 1 {
            usage_error("`all` cannot be combined with scenario names");
        }
        registry.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                registry
                    .find(name)
                    .unwrap_or_else(|| usage_error(&format!("unknown experiment {name}")))
            })
            .collect()
    };
    if selected.is_empty() {
        usage_error("no experiment selected");
    }
    selected
}

/// Prints each scenario's report to stdout and writes the requested
/// exports.
fn emit_reports(
    names: &[String],
    reports: &[Box<dyn ScenarioReport>],
    csv_dir: Option<&Path>,
    json_dir: Option<&Path>,
) {
    for (name, report) in names.iter().zip(reports) {
        println!("{report}");
        let table = report.to_table();
        if let Some(dir) = csv_dir {
            write_csv(dir, name, &table).unwrap_or_else(|e| {
                die(&format!("cannot write {}/{name}.csv: {e}", dir.display()))
            });
        }
        if let Some(dir) = json_dir {
            write_json(dir, name, &table).unwrap_or_else(|e| {
                die(&format!("cannot write {}/{name}.json: {e}", dir.display()))
            });
        }
    }
}

/// `--list`: the built-in scenarios, plus any `--sweep FILE` sweeps
/// rendered with their axis summaries.
fn list(args: &[String]) {
    let mut sweep_files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep" => sweep_files.push(parse_path("--sweep", it.next())),
            "--list" => {}
            other => usage_error(&format!("--list takes only --sweep FILE, not {other}")),
        }
    }
    let registry = load_registry(&sweep_files);
    let width = registry.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in Registry::builtin().iter() {
        println!("{:width$}  {}", s.name, s.description);
    }
    if !registry.sweeps().is_empty() {
        println!("\nsweeps (runtime-loaded):");
        for s in registry.sweeps() {
            println!("{:width$}  {}", s.name, s.description);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_num(flag: &str, arg: Option<&String>) -> u64 {
    let Some(arg) = arg else {
        usage_error(&format!("missing value for {flag}"));
    };
    // Underscore grouping (1_000_000) is stripped before parsing, but
    // the error must name the token the user typed, never the mangled
    // one — `--insts _` strips to the empty string, whose stock parse
    // error ("cannot parse integer from empty string") would point at
    // nothing the user can see on their command line.
    let digits = arg.replace('_', "");
    digits.parse().unwrap_or_else(|_| {
        usage_error(&format!("invalid value {arg} for {flag}: expected a number"));
    })
}

fn parse_path(flag: &str, arg: Option<&String>) -> PathBuf {
    PathBuf::from(parse_value(flag, arg))
}

fn parse_value(flag: &str, arg: Option<&String>) -> String {
    // A following `--flag` is not a value: without this check,
    // `--csv --quick` would silently swallow the next flag as its value.
    match arg {
        Some(arg) if !arg.starts_with("--") => arg.clone(),
        _ => usage_error(&format!("missing value for {flag}")),
    }
}

fn parse_positive(flag: &str, arg: Option<&String>) -> usize {
    let n = parse_num(flag, arg) as usize;
    if n == 0 {
        usage_error(&format!("invalid value 0 for {flag}: count must be positive"));
    }
    n
}

/// Parses and validates the `I/N` argument of `--shard`.
fn parse_shard(arg: Option<&String>) -> (usize, usize) {
    let Some(arg) = arg else {
        usage_error("missing value for --shard");
    };
    let invalid = |why: &str| -> ! {
        usage_error(&format!("invalid value {arg} for --shard: {why}"));
    };
    let Some((index, count)) = arg.split_once('/') else {
        invalid("expected I/N (e.g. 0/2)");
    };
    let (Ok(index), Ok(count)) = (index.parse::<usize>(), count.parse::<usize>()) else {
        invalid("expected I/N (e.g. 0/2)");
    };
    if count == 0 {
        invalid("shard count must be positive");
    }
    if index >= count {
        invalid(&format!("shard index {index} must be less than shard count {count}"));
    }
    (index, count)
}
