//! End-to-end tests of sharded campaign execution: N shard-worker
//! invocations plus `merge` must reproduce the single-process run byte
//! for byte — stdout reports and CSV/JSON exports alike.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Scenario selection + planning options shared by every invocation
/// under test. `all` covers the whole registry; the reduced instruction
/// budget keeps the debug-build test quick.
const CAMPAIGN: &[&str] = &["all", "--quick", "--insts", "2000", "--warmup", "500"];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_shard_{tag}_{}", std::process::id()));
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
fn two_shard_merge_is_byte_identical_to_single_process() {
    let work = temp_dir("merge2");
    let ref_dir = work.join("ref");
    let merged_dir = work.join("merged");
    let reference = run_reference(&ref_dir);

    let mut shard_files = Vec::new();
    for shard in ["0/2", "1/2"] {
        let file = work.join(format!("s{}.jsonl", &shard[..1]));
        let out =
            experiments(&[CAMPAIGN, &["--shard", shard, "--out", file.to_str().unwrap()]].concat());
        assert!(
            out.status.success(),
            "shard {shard} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "worker with --out must keep stdout empty");
        shard_files.push(file);
    }

    let merge = experiments(&[
        "merge",
        shard_files[0].to_str().unwrap(),
        shard_files[1].to_str().unwrap(),
        "--csv",
        merged_dir.to_str().unwrap(),
        "--json",
        merged_dir.to_str().unwrap(),
    ]);
    assert!(merge.status.success(), "stderr: {}", String::from_utf8_lossy(&merge.stderr));

    // Reports on stdout and all 13 + 13 export files must match exactly.
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&merge.stdout),
        "merged stdout reports diverge from the single-process run"
    );
    let ref_files = dir_contents(&ref_dir);
    let merged_files = dir_contents(&merged_dir);
    assert_eq!(ref_files.len(), 26, "13 CSV + 13 JSON files expected");
    assert_eq!(ref_files.keys().collect::<Vec<_>>(), merged_files.keys().collect::<Vec<_>>());
    for (name, bytes) in &ref_files {
        assert_eq!(bytes, &merged_files[name], "{name} diverges between merge and reference");
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn four_shards_and_stdout_workers_also_reproduce_the_reference() {
    let work = temp_dir("merge4");
    let ref_dir = work.join("ref");
    let reference = run_reference(&ref_dir);

    // 4 shards, shard records on stdout (no --out): redirecting the
    // machine-readable stream is enough to build the shard file.
    let mut merge_args: Vec<String> = vec!["merge".into()];
    for shard in 0..4 {
        let out = experiments(&[CAMPAIGN, &["--shard", &format!("{shard}/4")]].concat());
        assert!(out.status.success());
        let file = work.join(format!("s{shard}.jsonl"));
        std::fs::write(&file, &out.stdout).unwrap();
        merge_args.push(file.to_str().unwrap().into());
    }
    let merged_dir = work.join("merged");
    for flag in ["--csv", "--json"] {
        merge_args.push(flag.into());
        merge_args.push(merged_dir.to_str().unwrap().into());
    }
    let args: Vec<&str> = merge_args.iter().map(String::as_str).collect();
    let merge = experiments(&args);
    assert!(merge.status.success(), "stderr: {}", String::from_utf8_lossy(&merge.stderr));
    assert_eq!(reference.stdout, merge.stdout);
    assert_eq!(dir_contents(&ref_dir), dir_contents(&work.join("merged")));
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn merge_rejects_mismatched_campaigns_and_incomplete_shard_sets() {
    let work = temp_dir("drift");
    let s0 = work.join("s0.jsonl");
    let s1 = work.join("s1.jsonl");
    let base = ["fig6", "--quick", "--insts", "1500", "--warmup", "300"];
    let out =
        experiments(&[&base[..], &["--shard", "0/2", "--out", s0.to_str().unwrap()]].concat());
    assert!(out.status.success());
    // Same campaign shape but a different seed: plan drift.
    let out = experiments(
        &[&base[..], &["--seed", "7", "--shard", "1/2", "--out", s1.to_str().unwrap()]].concat(),
    );
    assert!(out.status.success());

    let merge = experiments(&["merge", s0.to_str().unwrap(), s1.to_str().unwrap()]);
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(stderr.contains("different campaigns"), "stderr: {stderr}");

    // A lone shard of two cannot be merged.
    let merge = experiments(&["merge", s0.to_str().unwrap()]);
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(stderr.contains("sharded 2 ways"), "stderr: {stderr}");

    // The same shard twice is named, not silently deduplicated.
    let merge = experiments(&["merge", s0.to_str().unwrap(), s0.to_str().unwrap()]);
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(stderr.contains("both claim shard 0/2"), "stderr: {stderr}");

    // Tampering with a record's fingerprint is caught as plan drift.
    let out =
        experiments(&[&base[..], &["--shard", "1/2", "--out", s1.to_str().unwrap()]].concat());
    assert!(out.status.success());
    let content = std::fs::read_to_string(&s1).unwrap();
    let marker = "\"fingerprint\": \"";
    let at = content.find(marker).unwrap() + marker.len();
    let mut tampered = content.clone();
    tampered.replace_range(at..at + 16, "0123456789abcdef");
    assert_ne!(content, tampered, "tampering must change the record");
    std::fs::write(&s1, tampered).unwrap();
    let merge = experiments(&["merge", s0.to_str().unwrap(), s1.to_str().unwrap()]);
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(stderr.contains("plan drift") || stderr.contains("corrupt"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&work);
}
