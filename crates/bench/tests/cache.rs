//! End-to-end tests of `--cache` and the `cache` subcommand: a warm
//! cache must reproduce the cold run's reports byte for byte in every
//! execution mode (in-process, `--shard` + `merge`, `--dist-workers`), `cache
//! stats` must show a 100%-hit warm session, `verify`/`clear` must
//! catch corruption and empty the store, and none of the three may turn
//! a directory that is not a cache into one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A two-scenario campaign: big enough to exercise several specs, small
/// enough to keep the debug-build test quick.
const CAMPAIGN: &[&str] = &["fig6", "fig5", "--quick", "--insts", "2000", "--warmup", "500"];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_cache_{tag}_{}", std::process::id()));
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

/// Runs [`CAMPAIGN`] with `extra` appended, exporting CSV + JSON into
/// `export`, and asserts success.
fn run_campaign(export: &Path, extra: &[&str]) -> Output {
    let out = experiments(
        &[
            CAMPAIGN,
            extra,
            &["--csv", export.to_str().unwrap(), "--json", export.to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// Every object file currently in the cache directory.
fn object_files(cache: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(cache.join("objects")).expect("objects dir") {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            files.extend(std::fs::read_dir(shard).unwrap().map(|e| e.unwrap().path()));
        }
    }
    files.sort();
    files
}

#[test]
fn warm_cache_is_byte_identical_in_every_mode() {
    let work = temp_dir("modes");
    let cache = work.join("cache");
    let cache_str = cache.to_str().unwrap().to_string();
    let ref_dir = work.join("ref");

    // The uncached reference, then the cold cache-populating run: caching
    // must be invisible in the reports even while it is being filled.
    let reference = run_campaign(&ref_dir, &[]);
    let cold_dir = work.join("cold");
    let cold = run_campaign(&cold_dir, &["--cache", &cache_str]);
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "a cold cache must not change the reports"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&cold_dir));

    // Warm in-process.
    let warm_dir = work.join("warm");
    let warm = run_campaign(&warm_dir, &["--cache", &cache_str]);
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "warm in-process reports diverge"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&warm_dir));
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("served from"), "warm run must report its hits: {stderr}");

    // Warm shard workers: every shard consults the same directory, and
    // merging their files reproduces the reference.
    let shard_dir = work.join("shard");
    let mut merge_args: Vec<String> = vec!["merge".into()];
    for shard in ["0/2", "1/2"] {
        let file = work.join(format!("shard{}.jsonl", &shard[..1]));
        let args = ["--shard", shard, "--cache", &cache_str, "--out", file.to_str().unwrap()];
        let out = experiments(&[CAMPAIGN, &args[..]].concat());
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("served from"), "shard {shard} must hit the cache: {stderr}");
        merge_args.push(file.to_str().unwrap().into());
    }
    for flag in ["--csv", "--json"] {
        merge_args.push(flag.into());
        merge_args.push(shard_dir.to_str().unwrap().into());
    }
    let merged = experiments(&merge_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(merged.status.success(), "stderr: {}", String::from_utf8_lossy(&merged.stderr));
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&merged.stdout),
        "warm --shard + merge reports diverge"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&shard_dir));

    // Warm distributed: the coordinator pre-fills every index from the
    // cache at plan time and never leases them to the workers.
    let dist_dir = work.join("dist");
    let dist = run_campaign(&dist_dir, &["--dist-workers", "2", "--cache", &cache_str]);
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&dist.stdout),
        "warm --dist-workers reports diverge"
    );
    assert_eq!(dir_contents(&ref_dir), dir_contents(&dist_dir));
    let stderr = String::from_utf8_lossy(&dist.stderr);
    assert!(
        stderr.contains("satisfied from the cache"),
        "the coordinator must report the pre-filled indices: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn stats_reports_a_full_hit_warm_session() {
    use rfcache_sim::JsonValue;

    let work = temp_dir("stats");
    let cache = work.join("cache");
    let cache_str = cache.to_str().unwrap().to_string();
    run_campaign(&work.join("cold"), &["--cache", &cache_str]);
    run_campaign(&work.join("warm"), &["--cache", &cache_str]);

    let out = experiments(&["cache", "stats", &cache_str, "--json"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let body = String::from_utf8_lossy(&out.stdout).into_owned();
    let stats = rfcache_sim::parse_json(&body)
        .unwrap_or_else(|e| panic!("malformed stats JSON: {e}\n{body}"));
    let count = |key: &str| stats.get(key).and_then(JsonValue::as_u64).expect(key);
    assert!(count("entries") > 0, "stats: {body}");
    assert_eq!(count("sessions"), 2, "one session per campaign run: {body}");

    // The warm session saw only hits and stored nothing.
    let last = stats.get("last_session").expect("last_session");
    let session = |key: &str| last.get(key).and_then(JsonValue::as_u64).expect(key);
    assert!(session("lookups") > 0, "stats: {body}");
    assert_eq!(session("hits"), session("lookups"), "warm run must be 100% hits: {body}");
    assert_eq!(session("stores"), 0, "a fully warm run has nothing to store: {body}");

    // The human rendering agrees on the headline numbers.
    let pretty = experiments(&["cache", "stats", &cache_str]);
    assert!(pretty.status.success());
    let text = String::from_utf8_lossy(&pretty.stdout).into_owned();
    assert!(text.contains("sessions: 2 recorded"), "pretty stats: {text}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn verify_catches_corruption_and_clear_empties_the_store() {
    use rfcache_sim::JsonValue;

    let work = temp_dir("verify");
    let cache = work.join("cache");
    let cache_str = cache.to_str().unwrap().to_string();
    run_campaign(&work.join("cold"), &["--cache", &cache_str]);

    let out = experiments(&["cache", "verify", &cache_str]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Flip one byte in one object file: verify must fail naming it.
    let victim = object_files(&cache).into_iter().next().expect("cache holds object files");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&victim, &bytes).unwrap();

    let out = experiments(&["cache", "verify", &cache_str]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = victim.file_name().unwrap().to_string_lossy().into_owned();
    assert!(stderr.contains(&name), "verify must name the bad file: {stderr}");

    let out = experiments(&["cache", "clear", &cache_str]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(object_files(&cache).is_empty(), "clear must remove every object file");

    let out = experiments(&["cache", "stats", &cache_str, "--json"]);
    assert!(out.status.success());
    let body = String::from_utf8_lossy(&out.stdout).into_owned();
    let stats = rfcache_sim::parse_json(&body).expect("stats JSON parses");
    assert_eq!(stats.get("entries").and_then(JsonValue::as_u64), Some(0), "stats: {body}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn cache_subcommand_names_its_usage_errors() {
    let out = experiments(&["cache"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache needs an action and a directory"), "stderr: {stderr}");

    let out = experiments(&["cache", "stats"]);
    assert_eq!(out.status.code(), Some(2));

    let out = experiments(&["cache", "prune", "/tmp/nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown cache action prune"), "stderr: {stderr}");

    let out = experiments(&["cache", "stats", "/tmp", "--badflag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --badflag"), "stderr: {stderr}");
}

#[test]
fn cache_actions_refuse_a_directory_that_is_not_a_cache() {
    let work = temp_dir("not_a_cache");
    let missing = work.join("typo_dir");
    let plain = work.join("plain");
    std::fs::create_dir_all(&plain).unwrap();
    std::fs::write(plain.join("notes.txt"), "not a cache").unwrap();
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    for action in ["stats", "verify", "clear"] {
        for dir in [&missing, &plain] {
            let dir_str = dir.to_str().unwrap();
            let out = experiments(&["cache", action, dir_str]);
            assert_eq!(out.status.code(), Some(1), "cache {action} {dir_str} must fail");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(dir_str), "cache {action} must name the path: {stderr}");
        }
        assert!(!missing.exists(), "cache {action} created {}", missing.display());
        assert_eq!(names(&plain), ["notes.txt"], "cache {action} changed {}", plain.display());
    }
    let _ = std::fs::remove_dir_all(&work);
}
