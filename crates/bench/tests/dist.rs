//! End-to-end tests of the distributed TCP backend: `serve` + `work`
//! processes (and the one-command `--dist-workers` path) must reproduce
//! the single-process run byte for byte — stdout reports and CSV/JSON
//! exports alike — including when a worker dies mid-campaign and its
//! leases are re-issued.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// A two-scenario campaign: big enough for several leases, small enough
/// to keep the debug-build test quick.
const CAMPAIGN: &[&str] = &["fig6", "fig5", "--quick", "--insts", "2000", "--warmup", "500"];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_dist_{tag}_{}", std::process::id()));
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

fn run_reference(dir: &Path) -> Output {
    let out = experiments(
        &[CAMPAIGN, &["--csv", dir.to_str().unwrap(), "--json", dir.to_str().unwrap()]].concat(),
    );
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn dist_workers_is_byte_identical_to_single_process() {
    let work = temp_dir("workers");
    let ref_dir = work.join("ref");
    let dist_dir = work.join("dist");
    let reference = run_reference(&ref_dir);

    let dist = experiments(
        &[
            CAMPAIGN,
            &[
                "--dist-workers",
                "2",
                "--csv",
                dist_dir.to_str().unwrap(),
                "--json",
                dist_dir.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert!(dist.status.success(), "stderr: {}", String::from_utf8_lossy(&dist.stderr));
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&dist.stdout),
        "distributed stdout reports diverge from the single-process run"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));
    let _ = std::fs::remove_dir_all(&work);
}

/// Spawns a coordinator (`serve` or `resume`) on an ephemeral port and
/// returns the child plus the address it logged, draining the rest of
/// its stderr in a thread (a full pipe would deadlock the coordinator).
fn spawn_coordinator(args: &[&str]) -> (Child, String, std::sync::mpsc::Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let stderr = child.stderr.take().unwrap();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let (log_tx, log_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut log = String::new();
        for line in BufReader::new(stderr).lines() {
            let line = line.unwrap_or_default();
            if let Some(rest) = line.strip_prefix("[serve: listening on ") {
                let addr = rest.split(',').next().unwrap_or(rest).trim_end_matches(']');
                let _ = addr_tx.send(addr.to_string());
            }
            log.push_str(&line);
            log.push('\n');
        }
        let _ = log_tx.send(log);
    });
    let addr = addr_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the coordinator logs its listening address");
    (child, addr, log_rx)
}

/// [`spawn_coordinator`] for a fresh `serve` over [`CAMPAIGN`], one
/// index per lease.
fn spawn_serve(dist_dir: &Path) -> (Child, String, std::sync::mpsc::Receiver<String>) {
    let mut args: Vec<&str> =
        vec!["serve", "--bind", "127.0.0.1:0", "--chunk", "1", "--lease-timeout", "600"];
    args.extend_from_slice(CAMPAIGN);
    args.extend_from_slice(&[
        "--csv",
        dist_dir.to_str().unwrap(),
        "--json",
        dist_dir.to_str().unwrap(),
    ]);
    spawn_coordinator(&args)
}

#[test]
fn killed_worker_leases_are_reissued_and_output_converges() {
    let work = temp_dir("reissue");
    let ref_dir = work.join("ref");
    let dist_dir = work.join("dist");
    let reference = run_reference(&ref_dir);

    let (serve, addr, serve_log) = spawn_serve(&dist_dir);

    // Worker 1 completes exactly one lease, then simulates a crash:
    // it exits on receiving its second lease without processing it —
    // that lease is in flight from the coordinator's point of view.
    let faulty =
        experiments(&["work", "--connect", &addr, "--jobs", "1", "--quit-after-leases", "1"]);
    assert!(faulty.status.success(), "stderr: {}", String::from_utf8_lossy(&faulty.stderr));
    let faulty_log = String::from_utf8_lossy(&faulty.stderr);
    assert!(faulty_log.contains("fault injection"), "stderr: {faulty_log}");

    // Worker 2 joins afterwards and must pick up the re-queued lease
    // plus everything still pending.
    let survivor = experiments(&["work", "--connect", &addr]);
    assert!(survivor.status.success(), "stderr: {}", String::from_utf8_lossy(&survivor.stderr));

    let out = serve.wait_with_output().expect("serve exits");
    let log = serve_log.recv_timeout(std::time::Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "serve stderr: {log}");
    assert!(log.contains("re-queued"), "the dead worker's lease must be re-queued: {log}");

    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&out.stdout),
        "post-crash reports diverge from the single-process run"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));
    let _ = std::fs::remove_dir_all(&work);
}

/// A worker whose handshake fingerprint disagrees with the campaign
/// (mismatched binaries or options) is rejected alone: an idle client
/// that never sends its hello holds nothing up, and the campaign still
/// completes through an honest worker, byte-identical to the
/// single-process run.
#[test]
fn drifting_worker_is_rejected_alone_and_the_campaign_completes() {
    use rfcache_sim::metrics_codec::Frame;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let work = temp_dir("drift");
    let ref_dir = work.join("ref");
    let dist_dir = work.join("dist");
    let reference = run_reference(&ref_dir);
    let (serve, addr, serve_log) = spawn_serve(&dist_dir);

    // Connected for the whole campaign, never saying hello.
    let idle = TcpStream::connect(&addr).unwrap();

    // The drifter answers the coordinator's hello with the fingerprint
    // of a different plan; the coordinator must close it promptly.
    let started = Instant::now();
    let mut drifter = TcpStream::connect(&addr).unwrap();
    drifter.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = Frame::Hello { campaign: None, fingerprint: 0xbad }.to_line();
    hello.push('\n');
    drifter.write_all(hello.as_bytes()).unwrap();
    let mut received = Vec::new();
    drifter.read_to_end(&mut received).expect("the coordinator closes the drifter's connection");
    let rejected = started.elapsed();
    assert!(rejected < Duration::from_secs(5), "the drifter was dropped after {rejected:?}");

    let honest = experiments(&["work", "--connect", &addr]);
    assert!(honest.status.success(), "stderr: {}", String::from_utf8_lossy(&honest.stderr));
    let out = serve.wait_with_output().expect("serve exits");
    let finished = started.elapsed();
    drop(idle);
    let log = serve_log.recv_timeout(Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "serve stderr: {log}");
    assert!(finished < Duration::from_secs(10), "the campaign took {finished:?}: {log}");
    assert!(
        log.contains("mismatched binaries or options"),
        "the drifter must be rejected by name: {log}"
    );
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&out.stdout),
        "reports diverge after rejecting a drifting worker"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn work_and_serve_name_their_required_flags() {
    let out = experiments(&["work"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("work needs --connect"), "stderr: {stderr}");

    let out = experiments(&["serve", "fig6"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("serve needs --bind"), "stderr: {stderr}");

    let out = experiments(&["fig6", "--dist-workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value 0 for --dist-workers"), "stderr: {stderr}");

    let out = experiments(&["fig6", "--dist-workers", "2", "--shard", "0/2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drop --shard"), "stderr: {stderr}");

    // A zero connect window would make the deadline expire before the
    // first attempt; like --lease-timeout, it must be rejected by name.
    let out = experiments(&["work", "--connect", "127.0.0.1:1", "--connect-timeout", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value 0 for --connect-timeout"), "stderr: {stderr}");

    // A worker pointed at nothing fails with the address in the message
    // (short retry window so the test stays fast).
    let out = experiments(&["work", "--connect", "127.0.0.1:1", "--connect-timeout", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("127.0.0.1:1"), "stderr: {stderr}");

    // resume names its two required flags.
    let out = experiments(&["resume", "--bind", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume needs --journal"), "stderr: {stderr}");

    let out = experiments(&["resume", "--journal", "nope.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume needs --bind"), "stderr: {stderr}");

    // --journal outside the distributed backends is a usage error.
    let out = experiments(&["fig6", "--journal", "x.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--journal requires --dist-workers"), "stderr: {stderr}");
}

/// Reads the coordinator's live thread count from procfs (Linux only —
/// elsewhere the soak still verifies byte-identity, just not the
/// thread invariant).
#[cfg(target_os = "linux")]
fn thread_count(pid: u32) -> Option<usize> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// The readiness-loop invariant, end to end: 64 concurrent workers
/// against one coordinator whose loop runs handshakes, leasing, record
/// streaming, and the HTTP control plane on a single thread — and the
/// output is still byte-identical to the in-process and sharded runs.
#[test]
fn soak_64_workers_one_thread_and_a_live_control_plane() {
    use rfcache_sim::JsonValue;

    let soak: &[&str] = &["all", "--quick", "--insts", "2000", "--warmup", "500"];
    let work = temp_dir("soak");
    let ref_dir = work.join("ref");
    let shard_dir = work.join("shard");
    let dist_dir = work.join("dist");

    let reference = experiments(
        &[soak, &["--csv", ref_dir.to_str().unwrap(), "--json", ref_dir.to_str().unwrap()]]
            .concat(),
    );
    assert!(reference.status.success(), "stderr: {}", String::from_utf8_lossy(&reference.stderr));

    let mut merge_args: Vec<String> = vec!["merge".into()];
    for shard in ["0/2", "1/2"] {
        let file = work.join(format!("shard{}.jsonl", &shard[..1]));
        let out =
            experiments(&[soak, &["--shard", shard, "--out", file.to_str().unwrap()]].concat());
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        merge_args.push(file.to_str().unwrap().into());
    }
    for flag in ["--csv", "--json"] {
        merge_args.push(flag.into());
        merge_args.push(shard_dir.to_str().unwrap().into());
    }
    let sharded = experiments(&merge_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(sharded.status.success(), "stderr: {}", String::from_utf8_lossy(&sharded.stderr));
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&sharded.stdout),
        "sharded stdout reports diverge from the single-process run"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&shard_dir));

    // The 64-worker distributed run, with the control plane attached.
    let mut dist = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(
            [
                soak,
                &[
                    "--dist-workers",
                    "64",
                    "--http",
                    "127.0.0.1:0",
                    "--csv",
                    dist_dir.to_str().unwrap(),
                    "--json",
                    dist_dir.to_str().unwrap(),
                ],
            ]
            .concat(),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let pid = dist.id();
    let stderr = dist.stderr.take().unwrap();
    let (http_tx, http_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let line = line.unwrap_or_default();
            if let Some(rest) = line.strip_prefix("[serve: http status on ") {
                let _ = http_tx.send(rest.trim_end_matches(']').to_string());
            }
        }
    });
    let http_addr = http_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the coordinator logs its control-plane address");

    // Probe /status until at least one worker has joined: a 200 answer
    // can only come from the serve loop itself, so at that moment the
    // coordinator is verifiably mid-campaign.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        assert!(std::time::Instant::now() < deadline, "no worker joined within 60s");
        let probe = experiments(&["status", "--connect", &http_addr, "--json"]);
        if !probe.status.success() {
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        }
        let body = String::from_utf8_lossy(&probe.stdout).into_owned();
        let parsed = rfcache_sim::parse_json(&body)
            .unwrap_or_else(|e| panic!("malformed /status JSON: {e}\n{body}"));
        let joined =
            parsed.get("workers_joined").and_then(JsonValue::as_u64).expect("workers_joined");
        if joined >= 1 {
            break parsed;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };

    // One readiness loop means one thread — handshakes, leases, record
    // streaming, and this very /status answer all interleave on it.
    #[cfg(target_os = "linux")]
    {
        let threads = thread_count(pid).expect("coordinator is alive mid-campaign");
        assert_eq!(threads, 1, "the coordinator must stay single-threaded while serving");
    }

    // The session's one campaign: its progress counters partition the
    // plan at every instant.
    let campaigns = status.get("campaigns").and_then(JsonValue::as_array).expect("campaigns");
    assert_eq!(campaigns.len(), 1, "a session serves exactly one campaign: {status:?}");
    let count = |key: &str| campaigns[0].get(key).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    assert_eq!(
        count("completed") + count("leased") + count("pending"),
        count("runs"),
        "status counters must partition the plan: {status:?}"
    );
    assert!(count("runs") > 64, "all --quick plans more runs than workers");

    // The liveness endpoint answers from the same loop.
    let (code, body) =
        rfcache_sim::http::get(&http_addr, "/healthz", std::time::Duration::from_secs(5))
            .expect("/healthz answers");
    assert_eq!(code, 200, "healthz body: {body}");
    assert!(body.contains("\"ok\""), "healthz body: {body}");

    // The pretty renderer digests the same snapshot.
    let pretty = experiments(&["status", "--connect", &http_addr]);
    if pretty.status.success() {
        let text = String::from_utf8_lossy(&pretty.stdout).into_owned();
        assert!(text.contains("run(s):"), "pretty status: {text}");
        assert!(text.contains("workers:"), "pretty status: {text}");
    }
    // (A non-zero exit here means the campaign finished between probes —
    // the mid-campaign assertions above already ran against live JSON.)

    let out = dist.wait_with_output().expect("coordinator exits");
    assert!(out.status.success(), "dist run failed");
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&out.stdout),
        "64-worker distributed stdout reports diverge from the single-process run"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn status_subcommand_names_its_flags_and_failures() {
    let out = experiments(&["status"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("status needs --connect"), "stderr: {stderr}");

    let out = experiments(&["status", "--connect", "127.0.0.1:1", "--pretty"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --pretty"), "stderr: {stderr}");

    // A dead coordinator is a plain failure naming the address.
    let out = experiments(&["status", "--connect", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("127.0.0.1:1"), "stderr: {stderr}");

    // --http outside the distributed backends is a usage error.
    let out = experiments(&["fig6", "--http", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--http requires --dist-workers"), "stderr: {stderr}");
}

#[test]
fn killed_coordinator_resumes_from_its_journal_byte_identically() {
    let work = temp_dir("resume");
    let ref_dir = work.join("ref");
    let dist_dir = work.join("dist");
    let journal = work.join("campaign.journal");
    let journal_str = journal.to_str().unwrap().to_string();
    let reference = run_reference(&ref_dir);

    // A journaling coordinator, one index per lease so the worker below
    // completes exactly three records before "crashing".
    let mut serve_args: Vec<&str> = vec![
        "serve",
        "--bind",
        "127.0.0.1:0",
        "--chunk",
        "1",
        "--lease-timeout",
        "600",
        "--journal",
        &journal_str,
        "--journal-sync",
        "1",
    ];
    serve_args.extend_from_slice(CAMPAIGN);
    serve_args.extend_from_slice(&[
        "--csv",
        dist_dir.to_str().unwrap(),
        "--json",
        dist_dir.to_str().unwrap(),
    ]);
    let (mut serve, addr, _serve_log) = spawn_coordinator(&serve_args);

    // Three leases land in the journal, then the worker quits; records
    // are accepted (and journaled) before the next lease is issued, so
    // the journal is guaranteed to hold them once the worker exits.
    let faulty =
        experiments(&["work", "--connect", &addr, "--jobs", "1", "--quit-after-leases", "3"]);
    assert!(faulty.status.success(), "stderr: {}", String::from_utf8_lossy(&faulty.stderr));

    // Crash the coordinator outright: its in-memory slot table is gone,
    // only the journal survives.
    serve.kill().expect("coordinator killed");
    let _ = serve.wait();
    let journaled = std::fs::read_to_string(&journal).unwrap();
    assert!(
        journaled.lines().count() >= 4,
        "journal should hold the header plus three records: {journaled}"
    );

    // Tear the final line, as a crash mid-`write` would.
    let torn = format!("{journaled}{{\"index\": 0, \"finge");
    std::fs::write(&journal, torn).unwrap();

    // A fresh serve must refuse to clobber the resumable journal.
    let clobber = experiments(&serve_args);
    assert_eq!(clobber.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&clobber.stderr);
    assert!(stderr.contains("already exists"), "stderr: {stderr}");

    // Resume: the campaign (scenarios, options, plan) comes from the
    // journal header; the torn line is dropped, the three complete
    // records are replayed, and only the remainder is served.
    let (resume, addr, resume_log) = spawn_coordinator(&[
        "resume",
        "--journal",
        &journal_str,
        "--bind",
        "127.0.0.1:0",
        "--chunk",
        "1",
        "--lease-timeout",
        "600",
        "--csv",
        dist_dir.to_str().unwrap(),
        "--json",
        dist_dir.to_str().unwrap(),
    ]);
    let survivor = experiments(&["work", "--connect", &addr]);
    assert!(survivor.status.success(), "stderr: {}", String::from_utf8_lossy(&survivor.stderr));

    let out = resume.wait_with_output().expect("resume exits");
    let log = resume_log.recv_timeout(std::time::Duration::from_secs(10)).unwrap_or_default();
    assert!(out.status.success(), "resume stderr: {log}");
    assert!(log.contains("torn"), "the torn final line must be reported: {log}");
    assert!(
        log.contains("replayed 3 of"),
        "exactly the three journaled records must be replayed: {log}"
    );

    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&out.stdout),
        "resumed reports diverge from the single-process run"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));

    // The finished journal is a valid one-shard shard file: merge alone
    // reproduces the same reports.
    let merged = experiments(&["merge", &journal_str]);
    assert!(merged.status.success(), "stderr: {}", String::from_utf8_lossy(&merged.stderr));
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&merged.stdout),
        "merging the completed journal diverges from the single-process run"
    );
    let _ = std::fs::remove_dir_all(&work);
}
