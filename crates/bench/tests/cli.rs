//! End-to-end tests of the `experiments` and `simulate` binaries:
//! campaign scheduling, scenario-name dedup, structured export, trace
//! replay, and flag-error reporting.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate")).args(args).output().expect("binary runs")
}

/// A throwaway output directory unique to this test binary run.
fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dedupes_scenarios_and_exports_one_file_each() {
    let dir = temp_out("export");
    let out = experiments()
        .args(["table2", "fig6", "fig6", "--quick", "--insts", "2000", "--warmup", "500"])
        .arg("--csv")
        .arg(&dir)
        .arg("--json")
        .arg(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("duplicate scenario name fig6"), "stderr: {stderr}");
    // The duplicate ran once: one Figure 6 report, one campaign line.
    assert_eq!(stdout.matches("Figure 6").count(), 1, "stdout: {stdout}");
    assert!(stderr.contains("2 scenario(s)"), "stderr: {stderr}");

    for name in ["table2", "fig6"] {
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
        assert!(csv.lines().count() >= 2, "{name}.csv too short: {csv}");
        let json = std::fs::read_to_string(dir.join(format!("{name}.json"))).unwrap();
        assert!(json.contains("\"header\"") && json.contains("\"rows\""), "{name}.json: {json}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4, "exactly one csv + json per scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_which_flag_is_missing_its_value() {
    // Regression: a trailing valueless flag used to die with a generic
    // "expected a number" that never named the flag.
    let out = experiments().args(["fig6", "--insts"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --insts"), "stderr: {stderr}");

    let out = experiments().args(["fig6", "--jobs", "many"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value many for --jobs"), "stderr: {stderr}");

    // Underscore grouping is stripped before parsing (1_000 is fine),
    // but the error must name the token the user typed: `_` strips to
    // the empty string, and the old message surfaced that mangled form.
    let out = experiments().args(["fig6", "--insts", "_"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid value _ for --insts"), "stderr: {stderr}");

    let out = experiments()
        .args(["fig6", "--quick", "--insts", "2_000", "--warmup", "500"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "grouped numbers must still parse");

    let out = experiments().args(["fig6", "--csv"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --csv"), "stderr: {stderr}");

    // A following flag must not be swallowed as the directory value.
    let out = experiments().args(["fig6", "--csv", "--quick"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --csv"), "stderr: {stderr}");
}

#[test]
fn reports_malformed_shard_slices_with_the_flag_name() {
    // I ≥ N, N = 0, non-numeric, missing separator, missing value: all
    // must name --shard in the PR 2 flag-error style and exit 2.
    for (arg, detail) in [
        ("2/2", "shard index 2 must be less than shard count 2"),
        ("5/4", "shard index 5 must be less than shard count 4"),
        ("0/0", "shard count must be positive"),
        ("x/2", "expected I/N"),
        ("1", "expected I/N"),
        ("1/2/3", "expected I/N"),
    ] {
        let out = experiments().args(["fig6", "--shard", arg]).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--shard {arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid value {arg} for --shard: {detail}")),
            "--shard {arg} stderr: {stderr}"
        );
    }

    let out = experiments().args(["fig6", "--shard"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing value for --shard"), "stderr: {stderr}");

    // --out is a shard-worker flag.
    let out = experiments().args(["fig6", "--out", "x.jsonl"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out requires --shard"), "stderr: {stderr}");

    // merge with no files names the problem.
    let out = experiments().args(["merge"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("merge needs at least one shard file"), "stderr: {stderr}");
}

#[test]
fn diagnostics_stay_on_stderr_and_stdout_stays_machine_readable() {
    // Duplicate-name warning and the campaign summary are diagnostics:
    // stdout must carry nothing but the reports.
    let out = experiments()
        .args(["table2", "table2", "--quick", "--insts", "1500", "--warmup", "300"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning: duplicate scenario name table2"), "stderr: {stderr}");
    assert!(stderr.contains("[campaign:"), "stderr: {stderr}");
    assert!(!stdout.contains("warning"), "stdout: {stdout}");
    assert!(!stdout.contains("[campaign"), "stdout: {stdout}");
    assert!(stdout.contains("Table 2"), "stdout: {stdout}");
}

#[test]
fn seed_flag_selects_the_workload_stream() {
    let run = |seed: &str| {
        let out = experiments()
            .args(["readstats", "--quick", "--insts", "1500", "--warmup", "300", "--seed", seed])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a1 = run("1");
    let a2 = run("1");
    let b = run("99");
    assert_eq!(a1, a2, "equal seeds must reproduce the report exactly");
    assert_ne!(a1, b, "the seed must be threaded into every planned RunSpec");
}

#[test]
fn merge_names_the_missing_and_duplicated_indices() {
    let dir = temp_out("coverage");
    std::fs::create_dir_all(&dir).unwrap();
    let base = ["fig6", "--quick", "--insts", "1500", "--warmup", "300"];
    let s0 = dir.join("s0.jsonl");
    let s1 = dir.join("s1.jsonl");
    for (shard, path) in [("0/2", &s0), ("1/2", &s1)] {
        let out = experiments()
            .args(base)
            .args(["--shard", shard, "--out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    }

    // Drop shard 1's first record (the campaign index right after the
    // header line) — the coverage error must name that index, not just
    // report a count.
    let intact = std::fs::read_to_string(&s1).unwrap();
    let lines: Vec<&str> = intact.lines().collect();
    assert!(lines.len() >= 3, "need a header and at least two records");
    let dropped = lines[1];
    let marker = "\"index\": ";
    let at = dropped.find(marker).unwrap() + marker.len();
    let index: String = dropped[at..].chars().take_while(char::is_ascii_digit).collect();
    let mut tampered: Vec<&str> = lines.clone();
    tampered.remove(1);
    std::fs::write(&s1, format!("{}\n", tampered.join("\n"))).unwrap();

    let s0_records = std::fs::read_to_string(&s0).unwrap().lines().count() - 1;
    let plan_size = s0_records + (lines.len() - 1);
    let merge = experiments()
        .args(["merge", s0.to_str().unwrap(), s1.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(
        stderr.contains(&format!("missing 1 of {plan_size} campaign index(es): [{index}]")),
        "stderr: {stderr}"
    );

    // Duplicate a record instead: the error must name it as duplicated.
    std::fs::write(&s1, format!("{intact}{dropped}\n")).unwrap();
    let merge = experiments()
        .args(["merge", s0.to_str().unwrap(), s1.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(
        stderr.contains(&format!("duplicated campaign index(es): [{index}]")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("missing"), "a pure duplicate must not report gaps: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_unknown_scenarios_and_empty_selection() {
    let out = experiments().args(["fig4"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment fig4"));

    let out = experiments().args(["--quick"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no experiment selected"));
}

/// A sweep whose register file has a port or bus count of 0 would build
/// and then deadlock; `experiments sweep` refuses it as a usage error
/// naming the rf label and the field, and never exits 101.
#[test]
fn sweep_rejects_zero_port_and_bus_counts_by_rf_label() {
    let dir = temp_out("zero_ports");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.json");
    let fields = [
        ("cache", "buses"),
        ("cache", "upper_read_ports"),
        ("cache", "lower_write_ports"),
        ("single", "read_ports"),
        ("single", "write_ports"),
        ("replicated", "read_ports_per_bank"),
        ("onelevel", "read_ports_per_bank"),
        ("onelevel", "write_ports_per_bank"),
    ];
    for (kind, field) in fields {
        let sweep = format!(
            r#"{{"name": "a", "workloads": ["li"], "rf": [{{"{kind}": {{"{field}": 0}}, "name": "z"}}],
                "insts": 2000, "warmup": 0}}"#
        );
        std::fs::write(&path, sweep).unwrap();
        let out = experiments().arg("sweep").arg(&path).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{kind}.{field}: {stderr}");
        assert!(stderr.contains(&format!("rf `z`: {field} must be at least 1")), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `experiments sweep` reads its positional arguments as `--sweep`
/// files, in command-line order among the `--sweep` flags, and reports
/// the sweeps in that order.
#[test]
fn sweep_reports_follow_command_line_order() {
    let dir = temp_out("sweep_order");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, rf) in [("sa", "one-cycle"), ("sb", "rfc")] {
        let sweep = format!(
            r#"{{"name": "{name}", "workloads": ["li"], "rf": ["{rf}"], "insts": 1000, "warmup": 0}}"#
        );
        std::fs::write(dir.join(format!("{name}.json")), sweep).unwrap();
    }
    let (a, b) = (dir.join("sa.json"), dir.join("sb.json"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for (args, first, second) in [
        ([a, "--sweep", b], "sweep sa ", "sweep sb "),
        (["--sweep", b, a], "sweep sb ", "sweep sa "),
    ] {
        let out = experiments().arg("sweep").args(args).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let at = |title: &str| stdout.find(title).unwrap_or_else(|| panic!("{title}: {stdout}"));
        assert!(at(first) < at(second), "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Committed instructions of a `simulate` report (`IPC x (N insts / ...`).
fn committed(stdout: &str) -> u64 {
    let (_, rest) = stdout.split_once("IPC ").expect("report has an IPC line");
    let (_, rest) = rest.split_once('(').expect("IPC line names the insts");
    rest.split_once(" insts").and_then(|(n, _)| n.parse().ok()).expect("a committed count")
}

#[test]
fn simulate_replays_a_recorded_trace_under_its_file_stem() {
    let dir = temp_out("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("rt.rfct");
    let trace = trace.to_str().unwrap();
    let record =
        simulate(&["--bench", "li", "--insts", "4000", "--warmup", "0", "--trace-out", trace]);
    assert!(record.status.success(), "{}", String::from_utf8_lossy(&record.stderr));

    let run = ["--arch", "1cyc", "--insts", "3000", "--warmup", "500"];
    let generated = simulate(&[&["--bench", "li"][..], &run].concat());
    let replayed = simulate(&[&run[..], &["--trace-in", trace]].concat());
    assert_eq!(replayed.status.code(), Some(0), "{}", String::from_utf8_lossy(&replayed.stderr));
    let (generated, replayed) = (
        String::from_utf8_lossy(&generated.stdout).into_owned(),
        String::from_utf8_lossy(&replayed.stdout).into_owned(),
    );
    assert!(replayed.starts_with("benchmark: rt | "), "labelled by the file stem: {replayed}");
    // A run shorter than its trace simulates the recorded stream exactly.
    let body = |report: &str| report.split_once('\n').map(|(_, rest)| rest.to_string());
    assert_eq!(body(&replayed), body(&generated));

    // A run longer than its trace replays it cyclically, as sweeps do.
    let long =
        simulate(&["--arch", "1cyc", "--insts", "9000", "--warmup", "0", "--trace-in", trace]);
    assert_eq!(long.status.code(), Some(0));
    assert!(committed(&String::from_utf8_lossy(&long.stdout)) >= 9_000);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_rejects_an_empty_trace() {
    let dir = temp_out("empty_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("empty.rfct");
    let trace = trace.to_str().unwrap();
    let record =
        simulate(&["--bench", "li", "--insts", "0", "--warmup", "0", "--trace-out", trace]);
    assert!(record.status.success(), "{}", String::from_utf8_lossy(&record.stderr));
    let out = simulate(&["--trace-in", trace]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("contains no instructions"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace that is not a regular file, or whose header claims more
/// records than it holds, exits 2 naming the path, without blocking on
/// the FIFO or reading the device.
#[test]
fn simulate_rejects_unbounded_trace_inputs_by_path() {
    let dir = temp_out("unbounded_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("fifo.rfct");
    let made = Command::new("mkfifo").arg(&fifo).status();
    assert!(made.is_ok_and(|status| status.success()), "mkfifo {}", fifo.display());
    let header = dir.join("header.rfct");
    let mut bytes = b"RFCT\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&(1u64 << 24).to_le_bytes()); // and no record
    std::fs::write(&header, bytes).unwrap();
    for (path, reason) in [
        (fifo.to_str().unwrap(), "not a regular file"),
        ("/dev/zero", "not a regular file"),
        (header.to_str().unwrap(), "bad trace file"),
    ] {
        let out = simulate(&["--trace-in", path]);
        assert_eq!(out.status.code(), Some(2), "{path}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(path) && stderr.contains(reason), "stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulate_rejects_bad_pipeline_flags_by_name() {
    // Regression: a value flag at the end of the line used to die with a
    // bare "missing value" that never named it.
    let out = simulate(&["--insts"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --insts"));
    let cases: [(&[&str], &str); 30] = [
        // Nor does a value flag take the next flag as its value.
        (&["--bench", "--arch", "rfc"], "missing value for --bench"),
        (&["--arch", "rfc", "--frob"], "unknown option --frob"),
        (&["gcc"], "unexpected argument gcc"),
        (&["--window", "abc"], "invalid value abc for --window: expected a number"),
        (&["--insts", "1_0x"], "invalid value 1_0x for --insts: expected a number"),
        (&["--bench", "foo", "--trace-out", "never-written.rfct"], "unknown benchmark foo"),
        (&["--window", "0"], "window_size must be at least 1"),
        (&["--phys-regs", "39"], "phys_regs 39 must be at least 40"),
        // Register tags are 16-bit: more registers used to deadlock.
        (&["--phys-regs", "65536"], "phys_regs 65536 must be at most 65535"),
        // Register files no model can be built from.
        (&["--arch", "rfc", "--upper-entries", "0"], "upper_entries 0 must be at least 2"),
        (&["--arch", "rfc", "--upper-entries", "1"], "upper_entries 1 must be at least 2"),
        (&["--arch", "rfc", "--upper-entries", "3"], "upper_entries 3 must be a power of two"),
        (&["--arch", "rfc", "--upper-entries", "128"], "must be fewer than phys_regs 128"),
        (&["--arch", "replicated", "--banks", "0"], "banks must be at least 1"),
        (&["--arch", "onelevel", "--banks", "0"], "banks must be at least 1"),
        (&["--arch", "onelevel", "--banks", "129"], "banks 129 must be at most phys_regs 128"),
        (&["--arch", "replicated", "--banks", "129"], "banks 129 must be at most phys_regs 128"),
        // Port and bus counts of 0, which build and then deadlock.
        (&["--arch", "1cyc", "--ports", "0,2"], "read_ports must be at least 1"),
        (&["--arch", "2cyc", "--ports", "2,0"], "write_ports must be at least 1"),
        (&["--arch", "rfc", "--rfc-ports", "0,2,2,2"], "upper_read_ports must be at least 1"),
        (&["--arch", "rfc", "--rfc-ports", "2,2,0,2"], "lower_write_ports must be at least 1"),
        (&["--arch", "rfc", "--rfc-ports", "2,2,2,0"], "buses must be at least 1"),
        (&["--arch", "rfc", "--rfc-ports", "2,2,2"], "invalid value 2,2,2 for --rfc-ports"),
        // Register-file flags the architecture would ignore.
        (
            &["--arch", "1cyc", "--upper-entries", "4"],
            "--upper-entries does not apply to --arch 1cyc",
        ),
        (&["--arch", "2cyc", "--caching", "ready"], "--caching does not apply to --arch 2cyc"),
        (
            &["--arch", "replicated", "--fetch", "demand"],
            "--fetch does not apply to --arch replicated",
        ),
        (&["--arch", "onelevel", "--rfc-ports", "2,2,2,2"], "--rfc-ports does not apply"),
        (&["--arch", "rfc", "--ports", "0,0"], "--ports does not apply to --arch rfc"),
        (&["--arch", "rfc", "--banks", "0"], "--banks does not apply to --arch rfc"),
        (&["--arch", "2cyc-full", "--banks", "4"], "--banks does not apply to --arch 2cyc-full"),
    ];
    for (args, reason) in cases {
        let out = simulate(&[args, &["--insts", "1000", "--warmup", "0"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: stderr: {stderr}");
    }
}
