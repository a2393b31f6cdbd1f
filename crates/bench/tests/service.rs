//! End-to-end tests of the multi-campaign coordinator service: one
//! `serve --http` process must accept several `POST /campaigns`
//! submissions, serve them through the queued → serving → complete →
//! fetched lifecycle without restarting, answer every error path with
//! the right 4xx while a campaign is in flight, and hand `fetch`
//! results that are byte-identical to running the same description in
//! process — with `--cache` results from one campaign pre-filling the
//! next.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Two campaign descriptions sharing the `readstats` scenario, so the
/// second can be partially satisfied from the first's cached results.
const OPTS: &[&str] = &["--quick", "--insts", "2000", "--warmup", "500"];
const CAMPAIGN_A: &[&str] = &["readstats"];
const CAMPAIGN_B: &[&str] = &["readstats", "fig3"];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_service_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file in `dir`, name → bytes.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(&path).unwrap());
    }
    out
}

/// Spawns the campaign service on ephemeral ports and returns the child
/// plus the worker and control-plane addresses it logged (draining the
/// rest of stderr in a thread — a full pipe would deadlock the loop).
fn spawn_service(extra: &[&str]) -> (Child, String, String, std::sync::mpsc::Receiver<String>) {
    let mut args: Vec<&str> =
        vec!["serve", "--bind", "127.0.0.1:0", "--http", "127.0.0.1:0", "--chunk", "1"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("service spawns");
    let stderr = child.stderr.take().unwrap();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let (log_tx, log_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut log = String::new();
        for line in BufReader::new(stderr).lines() {
            let line = line.unwrap_or_default();
            // "[service: workers on A, submissions on http://B/campaigns]"
            if let Some(rest) = line.strip_prefix("[service: workers on ") {
                if let Some((workers, control)) = rest.split_once(", submissions on http://") {
                    let control = control.trim_end_matches(']').trim_end_matches("/campaigns");
                    let _ = addr_tx.send((workers.to_string(), control.to_string()));
                }
            }
            log.push_str(&line);
            log.push('\n');
        }
        let _ = log_tx.send(log);
    });
    let (workers, control) =
        addr_rx.recv_timeout(Duration::from_secs(30)).expect("the service logs its two addresses");
    (child, workers, control, log_rx)
}

/// Submits a campaign and returns the id `submit` printed to stdout.
fn submit(control: &str, names: &[&str]) -> String {
    let args = [&["submit", "--connect", control], names, OPTS].concat();
    let out = experiments(&args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let id = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(id.parse::<u64>().is_ok(), "submit must print a numeric id, got {id:?}");
    id
}

/// The tentpole invariant end to end: one service process, two POSTed
/// campaigns served back to back, per-campaign journals, the second
/// pre-filled from the first's cached results — and both fetches
/// byte-identical (stdout reports and CSV/JSON exports) to in-process
/// runs of the same descriptions.
#[test]
fn two_campaigns_through_one_service_are_byte_identical_and_cache_warmed() {
    let work = temp_dir("lifecycle");
    let journals = work.join("journals");
    let cache = work.join("cache");
    let (ref_a, ref_b) = (work.join("ref_a"), work.join("ref_b"));
    let (got_a, got_b) = (work.join("got_a"), work.join("got_b"));

    let reference = |names: &[&str], dir: &Path| {
        let out = experiments(
            &[names, OPTS, &["--csv", dir.to_str().unwrap(), "--json", dir.to_str().unwrap()]]
                .concat(),
        );
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let reference_a = reference(CAMPAIGN_A, &ref_a);
    let reference_b = reference(CAMPAIGN_B, &ref_b);

    let (service, workers, control, service_log) = spawn_service(&[
        "--journal",
        journals.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--max-campaigns",
        "2",
    ]);

    // Both submissions land up front; the second queues behind the first.
    let id_a = submit(&control, CAMPAIGN_A);
    let id_b = submit(&control, CAMPAIGN_B);
    assert_ne!(id_a, id_b);

    // The pretty status renderer sees the service schema.
    let status = experiments(&["status", "--connect", &control]);
    assert!(status.status.success(), "stderr: {}", String::from_utf8_lossy(&status.stderr));
    let text = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(text.contains("campaign service:"), "pretty status: {text}");
    assert!(text.contains("queued") || text.contains("serving"), "pretty status: {text}");

    // One worker per campaign (a worker exits when its campaign is done).
    let worker_a = experiments(&["work", "--connect", &workers, "--jobs", "2"]);
    assert!(worker_a.status.success(), "stderr: {}", String::from_utf8_lossy(&worker_a.stderr));
    let fetch_a = experiments(&[
        "fetch",
        "--connect",
        &control,
        "--id",
        &id_a,
        "--csv",
        got_a.to_str().unwrap(),
        "--json",
        got_a.to_str().unwrap(),
    ]);
    assert!(fetch_a.status.success(), "stderr: {}", String::from_utf8_lossy(&fetch_a.stderr));

    let worker_b = experiments(&["work", "--connect", &workers, "--jobs", "2"]);
    assert!(worker_b.status.success(), "stderr: {}", String::from_utf8_lossy(&worker_b.stderr));
    let fetch_b = experiments(&[
        "fetch",
        "--connect",
        &control,
        "--id",
        &id_b,
        "--csv",
        got_b.to_str().unwrap(),
        "--json",
        got_b.to_str().unwrap(),
    ]);
    assert!(fetch_b.status.success(), "stderr: {}", String::from_utf8_lossy(&fetch_b.stderr));

    // --max-campaigns 2: both fetched, so the service exits cleanly.
    let out = service.wait_with_output().expect("service exits");
    let log = service_log.recv_timeout(Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "service stderr: {log}");

    // Byte-identity of everything a client sees.
    assert_eq!(
        String::from_utf8_lossy(&reference_a.stdout),
        String::from_utf8_lossy(&fetch_a.stdout),
        "campaign A reports diverge from the in-process run"
    );
    assert_eq!(
        String::from_utf8_lossy(&reference_b.stdout),
        String::from_utf8_lossy(&fetch_b.stdout),
        "campaign B reports diverge from the in-process run"
    );
    assert_eq!(dir_contents(&ref_a), dir_contents(&got_a));
    assert_eq!(dir_contents(&ref_b), dir_contents(&got_b));

    // Campaign B shares `readstats` with campaign A, so its promotion
    // must have pre-filled those runs from the cache...
    assert!(
        log.contains("4 from cache"),
        "campaign B must be pre-filled from campaign A's cached results: {log}"
    );
    // ...and worker B must therefore have simulated only the remainder.
    let worker_b_log = String::from_utf8_lossy(&worker_b.stderr);
    assert!(
        worker_b_log.contains("[work: 4 simulation(s)"),
        "worker B should simulate only the uncached runs: {worker_b_log}"
    );

    // Each campaign write-ahead journaled to its own file, and both
    // journals are complete valid shard files (header + every record).
    for (id, names, runs) in [(&id_a, CAMPAIGN_A, 4usize), (&id_b, CAMPAIGN_B, 8)] {
        let path = journals.join(format!("campaign-{id}.journal"));
        let journal = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("journal {} missing: {e}", path.display()));
        assert_eq!(
            journal.lines().count(),
            1 + runs,
            "journal {} should hold the header plus {runs} records",
            path.display()
        );
        assert!(journal.lines().next().unwrap().contains(names[0]), "header names scenarios");
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// A service restarted on the same journal directory continues campaign
/// ids after the journals already there: its campaign completes as id 2
/// instead of failing to create `campaign-1.journal`, which it leaves
/// byte-unchanged.
#[test]
fn restarted_service_continues_ids_after_the_journals_already_there() {
    let work = temp_dir("restart");
    let journals = work.join("journals");
    let reference = experiments(&[CAMPAIGN_A, OPTS].concat());
    assert!(reference.status.success());
    let first_journal = journals.join("campaign-1.journal");
    let mut journaled = Vec::new();
    for expected in ["1", "2"] {
        let (service, workers, control, service_log) =
            spawn_service(&["--journal", journals.to_str().unwrap(), "--max-campaigns", "1"]);
        let id = submit(&control, CAMPAIGN_A);
        assert_eq!(id, expected, "campaign ids continue after the existing journals");
        let worker = experiments(&["work", "--connect", &workers, "--jobs", "2"]);
        assert!(worker.status.success(), "stderr: {}", String::from_utf8_lossy(&worker.stderr));
        let fetched = experiments(&["fetch", "--connect", &control, "--id", &id]);
        assert!(fetched.status.success(), "stderr: {}", String::from_utf8_lossy(&fetched.stderr));
        assert_eq!(
            String::from_utf8_lossy(&reference.stdout),
            String::from_utf8_lossy(&fetched.stdout),
            "campaign {id} reports diverge from the in-process run"
        );
        let out = service.wait_with_output().expect("service exits");
        let log = service_log.recv_timeout(Duration::from_secs(10)).unwrap_or_default();
        assert!(out.status.success(), "service stderr: {log}");
        if journaled.is_empty() {
            journaled = std::fs::read(&first_journal).expect("campaign 1 journaled");
        }
    }
    assert_eq!(
        std::fs::read(&first_journal).unwrap(),
        journaled,
        "the restarted service must leave campaign 1's journal untouched"
    );
    assert!(journals.join("campaign-2.journal").exists(), "campaign 2 journals beside it");
    let _ = std::fs::remove_dir_all(&work);
}

/// Every control-plane error path answers with the right status code —
/// and none of them disturb the campaign that is serving throughout.
#[test]
fn error_paths_answer_4xx_without_disturbing_the_inflight_campaign() {
    use rfcache_sim::http;
    let timeout = Duration::from_secs(5);

    let work = temp_dir("errors");
    let out_ref = experiments(&[CAMPAIGN_A, OPTS].concat());
    assert!(out_ref.status.success());

    let (service, workers, control, service_log) = spawn_service(&["--max-campaigns", "1"]);
    let id = submit(&control, CAMPAIGN_A);

    // The campaign is now serving (no worker yet): hit every error path.
    let post = |body: &str| {
        http::post(&control, "/campaigns", "application/json", body, timeout)
            .expect("control plane answers")
    };
    let (code, body) = post("{\"scenarios\": [\"readstats\"");
    assert_eq!(code, 400, "malformed JSON: {body}");
    let (code, body) = post("{\"scenarios\": [\"no_such_scenario\"]}");
    assert_eq!(code, 400, "unknown scenario: {body}");
    assert!(body.contains("no_such_scenario"), "the reason names the scenario: {body}");
    let (code, body) = post("{\"scenarios\": []}");
    assert_eq!(code, 400, "empty scenario list: {body}");
    let (code, body) = post("{\"scenarios\": [\"readstats\"], \"surprise\": 1}");
    assert_eq!(code, 400, "unknown field: {body}");
    // A sweep no register-file model can be built from is refused at
    // submission, instead of queueing runs that kill every worker.
    let (code, body) = post(
        "{\"scenarios\": [\"tiny\"], \"sweeps\": [{\"name\": \"tiny\", \
         \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"upper_entries\": 1}}]}]}",
    );
    assert_eq!(code, 400, "unbuildable register file: {body}");
    assert!(body.contains("rf `rfc`"), "the reason names the rf label: {body}");
    // So is one that would build and then deadlock: no transfer bus.
    let (code, body) = post(
        "{\"scenarios\": [\"tiny\"], \"sweeps\": [{\"name\": \"tiny\", \
         \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"buses\": 0}}]}]}",
    );
    assert_eq!(code, 400, "register file without buses: {body}");
    assert!(body.contains("rf `rfc`: buses must be at least 1"), "{body}");
    // A short body naming 125,000 register files is refused from its
    // axis lengths, within the timeout, before any of them is built.
    let ports = format!("[{}]", (1..=50).map(|i| i.to_string()).collect::<Vec<_>>().join(", "));
    let (code, body) = post(&format!(
        "{{\"scenarios\": [\"big\"], \"sweeps\": [{{\"name\": \"big\", \
         \"workloads\": [\"li\"], \"rf\": [{{\"cache\": {{\"upper_read_ports\": {ports}, \
         \"upper_write_ports\": {ports}, \"buses\": {ports}}}}}]}}]}}"
    ));
    assert_eq!(code, 400, "oversized cross-product: {body}");
    assert!(body.contains("sweep expands to 125000 runs; the limit is 65536"), "{body}");
    // Trace paths are checked before the coordinator opens or decodes
    // them: a FIFO would block its only thread, and a device or a header
    // claiming millions of records would fill its memory.
    let fifo = work.join("fifo.rfct");
    let made = Command::new("mkfifo").arg(&fifo).status();
    assert!(made.is_ok_and(|status| status.success()), "mkfifo {}", fifo.display());
    let header = work.join("header.rfct");
    let mut bytes = b"RFCT\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&(1u64 << 24).to_le_bytes()); // and no record
    std::fs::write(&header, bytes).unwrap();
    for (path, reason) in [
        (fifo.to_str().unwrap(), "not a regular file"),
        ("/dev/zero", "not a regular file"),
        (header.to_str().unwrap(), "bad trace file"),
    ] {
        let (code, body) = post(&format!(
            "{{\"scenarios\": [\"t\"], \"sweeps\": [{{\"name\": \"t\", \
             \"workloads\": [{{\"trace\": \"{path}\"}}], \"rf\": [\"one-cycle\"]}}]}}"
        ));
        assert_eq!(code, 400, "{path}: {body}");
        assert!(body.contains(path) && body.contains(reason), "{body}");
        let (code, _) = http::get(&control, "/healthz", timeout).expect("health answers");
        assert_eq!(code, 200, "the coordinator keeps serving after {path}");
    }

    let oversized = format!("{{\"scenarios\": [\"{}\"]}}", "x".repeat(http::MAX_BODY));
    let (code, body) = post(&oversized);
    assert_eq!(code, 413, "oversized body: {body}");

    let (code, body) = http::get(&control, "/campaigns/999", timeout).expect("answers");
    assert_eq!(code, 404, "unknown campaign id: {body}");
    let (code, body) = http::get(&control, "/campaigns/999/results", timeout).expect("answers");
    assert_eq!(code, 404, "unknown campaign results: {body}");
    let (code, body) = http::get(&control, "/campaigns/nope", timeout).expect("answers");
    assert_eq!(code, 404, "non-numeric campaign id: {body}");

    // Results before completion: a 409, not a hang and not a 404.
    let (code, body) =
        http::get(&control, &format!("/campaigns/{id}/results"), timeout).expect("answers");
    assert_eq!(code, 409, "premature results fetch: {body}");
    assert!(body.contains("serving") || body.contains("queued"), "names the state: {body}");

    // The in-flight campaign survived all of the above: a worker joins,
    // completes it, and the fetched reports match the in-process run.
    let worker = experiments(&["work", "--connect", &workers, "--jobs", "2"]);
    assert!(worker.status.success(), "stderr: {}", String::from_utf8_lossy(&worker.stderr));
    let fetched = experiments(&["fetch", "--connect", &control, "--id", &id]);
    assert!(fetched.status.success(), "stderr: {}", String::from_utf8_lossy(&fetched.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out_ref.stdout),
        String::from_utf8_lossy(&fetched.stdout),
        "reports diverge after the error-path barrage"
    );

    let out = service.wait_with_output().expect("service exits");
    let log = service_log.recv_timeout(Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "service stderr: {log}");
    let _ = std::fs::remove_dir_all(&work);
}

/// The between-campaigns worker fix: a worker that connects while no
/// campaign is serving is told to retry (never wedged in a handshake),
/// gives up cleanly when its connect window closes, and joins normally
/// once a campaign arrives.
#[test]
fn idle_workers_are_rejected_with_retry_not_wedged() {
    // No campaign ever arrives: the worker must fail within its window,
    // not block until the handshake deadline (30s) or forever.
    let (service, workers, control, service_log) = spawn_service(&["--max-campaigns", "1"]);
    let started = Instant::now();
    let hopeless = experiments(&["work", "--connect", &workers, "--connect-timeout", "2"]);
    let waited = started.elapsed();
    assert_eq!(hopeless.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&hopeless.stderr);
    assert!(stderr.contains("no campaign to serve"), "stderr: {stderr}");
    assert!(stderr.contains("retrying"), "the retry hint must be surfaced: {stderr}");
    assert!(waited < Duration::from_secs(15), "worker wedged for {waited:?}");

    // A worker that starts waiting *before* the submission exists must
    // keep retrying and then join the campaign when it is promoted.
    let workers_addr = workers.clone();
    let patient = std::thread::spawn(move || {
        experiments(&["work", "--connect", &workers_addr, "--connect-timeout", "30"])
    });
    std::thread::sleep(Duration::from_millis(700)); // guarantee ≥1 retry cycle
    let id = submit(&control, CAMPAIGN_A);
    let patient = patient.join().expect("worker thread joins");
    assert!(patient.status.success(), "stderr: {}", String::from_utf8_lossy(&patient.stderr));
    let fetched = experiments(&["fetch", "--connect", &control, "--id", &id]);
    assert!(fetched.status.success(), "stderr: {}", String::from_utf8_lossy(&fetched.stderr));

    let out = service.wait_with_output().expect("service exits");
    let log = service_log.recv_timeout(Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "service stderr: {log}");
    assert!(
        log.contains("no campaign to serve (retry sent)"),
        "idle connections must be turned away with a retry: {log}"
    );
}

/// The service-mode flag surface names its mistakes.
#[test]
fn service_flags_and_subcommands_name_their_requirements() {
    // Service mode (no scenario names) without --http is a usage error
    // pointing both ways.
    let out = experiments(&["serve", "--bind", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs --http"), "stderr: {stderr}");

    // Per-campaign options belong on submit, not on the service.
    let out = experiments(&["serve", "--bind", "127.0.0.1:0", "--http", "127.0.0.1:0", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("onto `submit`"), "stderr: {stderr}");

    // --max-campaigns only means something in service mode.
    let out = experiments(&["serve", "--bind", "127.0.0.1:0", "--max-campaigns", "2", "fig6"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("campaign-service flag"), "stderr: {stderr}");

    let out = experiments(&["submit", "readstats"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("submit needs --connect"), "stderr: {stderr}");

    let out = experiments(&["fetch", "--connect", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fetch needs --id"), "stderr: {stderr}");

    // A dead service is a plain failure naming the address.
    let out = experiments(&["submit", "--connect", "127.0.0.1:1", "readstats"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("127.0.0.1:1"), "stderr: {stderr}");
}
