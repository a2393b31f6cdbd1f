//! The `experiments bench` harness: simulator throughput (cycles/sec and
//! instructions/sec) on a fixed suite of representative workloads, emitted
//! as a schema-versioned JSON *trajectory* so every optimization PR records
//! its before/after point (`BENCH_cycle_loop.json` at the workspace root).
//!
//! The suite runs every register file model at two scales ("smoke" and
//! "quick") on the same benchmark profile and seed, plus one wall-clock
//! measurement of the full `all --quick` campaign. Each scenario is timed
//! over `repeat` repetitions after `warmup_reps` untimed ones; the minimum
//! is the headline rate (least scheduler noise), the mean is recorded too.
//!
//! Snapshots are appended to an existing trajectory file in place;
//! `scripts/bench_diff.py` compares any two snapshots and gates CI.

use rfcache_core::{
    OneLevelBankedConfig, RegFileCacheConfig, RegFileConfig, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_pipeline::{Cpu, PipelineConfig};
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::scenario::ScenarioReport;
use rfcache_sim::{
    run_campaign_planned, run_campaign_planned_with, Cache, InProcess, Registry, Scenario,
};
use rfcache_workload::{BenchProfile, TraceGenerator};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Schema identifier stamped into every trajectory file.
pub const SCHEMA: &str = "rfcache-bench/v1";

/// Options of one `experiments bench` invocation.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Timed repetitions per scenario (the minimum is the headline).
    pub repeat: usize,
    /// Untimed warmup repetitions per scenario (JIT-free rust still wants
    /// warm caches and a warm frequency governor).
    pub warmup_reps: usize,
    /// Reduced instruction counts, for CI smoke runs. Scenario *names* are
    /// unchanged so snapshots at different scales stay comparable by rate.
    pub quick: bool,
    /// Label recorded in the snapshot (e.g. "before", "after").
    pub label: String,
    /// Skip the `all --quick` campaign wall-time entry.
    pub skip_campaign: bool,
    /// Run the campaign entry through the result cache at this directory
    /// (recorded as `campaign/all-quick-cached`): an uncached reference
    /// run first checks the cached reports stay byte-identical, then the
    /// timed repetitions measure cache-backed throughput. Benching a cold
    /// directory and then a warm one records the cache speedup.
    pub cache: Option<PathBuf>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            repeat: 3,
            warmup_reps: 1,
            quick: false,
            label: "snapshot".to_string(),
            skip_campaign: false,
            cache: None,
        }
    }
}

/// Throughput of one bench scenario.
#[derive(Debug, Clone)]
pub struct ScenarioStat {
    /// Scenario name (`<model>/<scale>`, or `campaign/all-quick`).
    pub name: String,
    /// Instructions simulated per repetition (measured phase only).
    pub insts: u64,
    /// Cycles simulated per repetition (0 for the campaign entry, which
    /// aggregates many runs and reports instruction throughput only).
    pub cycles: u64,
    /// Fastest repetition, seconds.
    pub secs_min: f64,
    /// Mean over repetitions, seconds.
    pub secs_mean: f64,
}

impl ScenarioStat {
    /// Simulated cycles per wall second (fastest repetition), or `None`
    /// for entries that aggregate runs without a single cycle count.
    pub fn cycles_per_sec(&self) -> Option<f64> {
        (self.cycles > 0).then(|| self.cycles as f64 / self.secs_min)
    }

    /// Simulated instructions per wall second (fastest repetition).
    pub fn insts_per_sec(&self) -> f64 {
        self.insts as f64 / self.secs_min
    }
}

/// One measured point of the perf trajectory.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot label (e.g. "before", "after").
    pub label: String,
    /// `git rev-parse --short HEAD`, or "unknown".
    pub git_rev: String,
    /// Whether the working tree had uncommitted changes when measured
    /// (`git status --porcelain` non-empty) — a snapshot taken from a
    /// dirty tree does not reproduce from `git_rev` alone.
    pub git_dirty: bool,
    /// Seconds since the Unix epoch when the snapshot was taken.
    pub unix_time: u64,
    /// Host fingerprint.
    pub host: HostInfo,
    /// Timed repetitions per scenario.
    pub repeat: usize,
    /// Untimed warmup repetitions per scenario.
    pub warmup_reps: usize,
    /// Whether the reduced-scale suite was run.
    pub quick: bool,
    /// Per-scenario throughput.
    pub scenarios: Vec<ScenarioStat>,
}

/// The machine a snapshot was measured on.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Hostname (best effort).
    pub hostname: String,
    /// Available logical CPUs.
    pub cpus: usize,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
}

impl HostInfo {
    /// Fingerprints the current host.
    pub fn current() -> Self {
        let hostname = std::env::var("HOSTNAME")
            .ok()
            .or_else(|| std::fs::read_to_string("/etc/hostname").ok().map(|s| s.trim().to_string()))
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            hostname,
            cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// The fixed workload suite: every register file architecture at two
/// scales, same benchmark profile and seed throughout so the numbers
/// compare across models.
///
/// Returns `(name, rf, measured_insts, warmup_insts)`.
pub fn workloads(quick: bool) -> Vec<(String, RegFileConfig, u64, u64)> {
    let configs: [(&str, RegFileConfig); 5] = [
        ("single-1c", RegFileConfig::Single(SingleBankConfig::one_cycle())),
        ("single-2c-full", RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass())),
        ("rfc", RegFileConfig::Cache(RegFileCacheConfig::paper_default())),
        ("replicated", RegFileConfig::Replicated(ReplicatedBankConfig::default())),
        ("onelevel", RegFileConfig::OneLevel(OneLevelBankedConfig::default())),
    ];
    // (scale name, measured insts, warmup insts); `--quick` shrinks the
    // counts 10x but keeps the names, so rates stay comparable.
    let scale = if quick { 1 } else { 10 };
    let scales: [(&str, u64, u64); 2] =
        [("smoke", 2_000 * scale, 500 * scale), ("quick", 20_000 * scale, 6_000 * scale)];
    let mut out = Vec::new();
    for (cname, rf) in configs {
        for (sname, insts, warmup) in scales {
            out.push((format!("{cname}/{sname}"), rf, insts, warmup));
        }
    }
    out
}

/// The benchmark profile every suite entry simulates (int-heavy, branchy,
/// representative of the campaign mix).
pub const BENCH_PROFILE: &str = "gcc";

/// Workload seed (same as the campaign default).
pub const BENCH_SEED: u64 = 42;

/// Times one scenario: builds a fresh CPU per repetition, warms it up
/// untimed, then times the measured phase only — so `cycles / secs` is
/// exactly the simulator's cycle-loop throughput.
fn time_scenario(
    name: &str,
    rf: RegFileConfig,
    insts: u64,
    warmup: u64,
    opts: &BenchOptions,
) -> ScenarioStat {
    let profile = BenchProfile::by_name(BENCH_PROFILE).expect("bench profile exists");
    let mut timed: Vec<(f64, u64, u64)> = Vec::with_capacity(opts.repeat);
    for rep in 0..opts.warmup_reps + opts.repeat {
        let trace = TraceGenerator::new(profile, BENCH_SEED);
        let mut cpu = Cpu::new(PipelineConfig::default(), rf, trace);
        if warmup > 0 {
            cpu.run(warmup);
            cpu.reset_metrics();
        }
        let start = Instant::now();
        let metrics = cpu.run(insts);
        let secs = start.elapsed().as_secs_f64();
        if rep >= opts.warmup_reps {
            timed.push((secs, metrics.cycles, metrics.committed));
        }
    }
    let secs_min = timed.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let secs_mean = timed.iter().map(|t| t.0).sum::<f64>() / timed.len() as f64;
    // Deterministic simulation: every repetition ran the same cycles.
    let (_, cycles, committed) = timed[0];
    ScenarioStat { name: name.to_string(), insts: committed, cycles, secs_min, secs_mean }
}

/// Times the full `all --quick` campaign (every registered scenario, the
/// in-process executor, one worker per core) and reports aggregate
/// instruction throughput.
///
/// With [`BenchOptions::cache`] set the timed repetitions run through the
/// cache-backed executor and the entry is named `campaign/all-quick-cached`
/// (a distinct name, so trajectory diffs never compare cached against
/// uncached rates); an untimed uncached run first pins down the expected
/// reports, and every cached repetition must render byte-identically.
fn time_campaign(opts: &BenchOptions) -> ScenarioStat {
    let mut c_opts = ExperimentOpts { quick: true, ..ExperimentOpts::default() };
    if opts.quick {
        c_opts.insts /= 10;
        c_opts.warmup /= 10;
    }
    let registry = Registry::builtin();
    let selected: Vec<&Scenario> = registry.iter().collect();
    let cached_executor = opts.cache.as_deref().map(|dir| {
        let cache = Cache::open(dir)
            .unwrap_or_else(|e| panic!("cannot open result cache {}: {e}", dir.display()));
        InProcess::new(c_opts.jobs).with_cache(cache)
    });
    // Reports rendered end to end: the byte-identity oracle for the
    // cache-backed repetitions.
    let render = |reports: &[Box<dyn ScenarioReport>]| -> String {
        reports.iter().map(|r| format!("{r}\n{}\n", r.to_table())).collect()
    };
    let reference = cached_executor.as_ref().map(|_| {
        let plans: Vec<_> = selected.iter().map(|s| s.plan(&c_opts)).collect();
        render(&run_campaign_planned(&selected, &c_opts, plans))
    });
    let mut timed: Vec<(f64, u64)> = Vec::with_capacity(opts.repeat);
    for rep in 0..opts.warmup_reps + opts.repeat {
        let plans: Vec<_> = selected.iter().map(|s| s.plan(&c_opts)).collect();
        let total_insts: u64 = plans.iter().flatten().map(|spec| spec.insts).sum();
        let start = Instant::now();
        let reports = match &cached_executor {
            Some(executor) => run_campaign_planned_with(executor, &selected, &c_opts, plans)
                .expect("the in-process executor is infallible"),
            None => run_campaign_planned(&selected, &c_opts, plans),
        };
        let secs = start.elapsed().as_secs_f64();
        if let Some(reference) = &reference {
            assert_eq!(
                &render(&reports),
                reference,
                "cache-backed campaign reports must be byte-identical to the uncached run"
            );
        }
        if rep >= opts.warmup_reps {
            timed.push((secs, total_insts));
        }
    }
    let secs_min = timed.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let secs_mean = timed.iter().map(|t| t.0).sum::<f64>() / timed.len() as f64;
    ScenarioStat {
        name: if opts.cache.is_some() { "campaign/all-quick-cached" } else { "campaign/all-quick" }
            .to_string(),
        insts: timed[0].1,
        cycles: 0,
        secs_min,
        secs_mean,
    }
}

/// Runs the whole suite and assembles a snapshot.
pub fn run_bench(opts: &BenchOptions, progress: &mut dyn FnMut(&ScenarioStat)) -> Snapshot {
    let mut scenarios = Vec::new();
    for (name, rf, insts, warmup) in workloads(opts.quick) {
        let stat = time_scenario(&name, rf, insts, warmup, opts);
        progress(&stat);
        scenarios.push(stat);
    }
    if !opts.skip_campaign {
        let stat = time_campaign(opts);
        progress(&stat);
        scenarios.push(stat);
    }
    Snapshot {
        label: opts.label.clone(),
        git_rev: git_rev(),
        git_dirty: git_dirty(),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        host: HostInfo::current(),
        repeat: opts.repeat,
        warmup_reps: opts.warmup_reps,
        quick: opts.quick,
        scenarios,
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the working tree differs from `HEAD` (untracked files count).
/// A failed `git` invocation reports dirty: claiming a clean, reproducible
/// rev on no evidence is the worse error.
fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_none_or(|o| !o.stdout.is_empty())
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// the hand-rendered trajectory and stats output.
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders one snapshot as an indented JSON object (4-space base indent,
/// matching its position inside the trajectory's `snapshots` array).
pub fn render_snapshot(s: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": \"{}\",", json_escape(&s.label));
    let _ = writeln!(out, "      \"git_rev\": \"{}\",", json_escape(&s.git_rev));
    let _ = writeln!(out, "      \"dirty\": {},", s.git_dirty);
    let _ = writeln!(out, "      \"unix_time\": {},", s.unix_time);
    let _ = writeln!(
        out,
        "      \"host\": {{\"hostname\": \"{}\", \"cpus\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        json_escape(&s.host.hostname),
        s.host.cpus,
        json_escape(&s.host.os),
        json_escape(&s.host.arch)
    );
    let _ = writeln!(out, "      \"repeat\": {},", s.repeat);
    let _ = writeln!(out, "      \"warmup_reps\": {},", s.warmup_reps);
    let _ = writeln!(out, "      \"quick\": {},", s.quick);
    let _ = writeln!(out, "      \"scenarios\": [");
    for (i, sc) in s.scenarios.iter().enumerate() {
        let comma = if i + 1 < s.scenarios.len() { "," } else { "" };
        let mut fields = format!(
            "\"name\": \"{}\", \"insts\": {}, \"secs_min\": {:.6}, \"secs_mean\": {:.6}, \
             \"insts_per_sec\": {:.1}",
            json_escape(&sc.name),
            sc.insts,
            sc.secs_min,
            sc.secs_mean,
            sc.insts_per_sec()
        );
        if let Some(cps) = sc.cycles_per_sec() {
            let _ = write!(fields, ", \"cycles\": {}, \"cycles_per_sec\": {:.1}", sc.cycles, cps);
        }
        let _ = writeln!(out, "        {{{fields}}}{comma}");
    }
    let _ = writeln!(out, "      ]");
    let _ = write!(out, "    }}");
    out
}

/// The exact tail every trajectory file written by this module ends with;
/// appending splices a new snapshot right before it.
const TRAJECTORY_TAIL: &str = "\n  ]\n}\n";

/// Renders a fresh trajectory file holding one snapshot.
pub fn render_trajectory(s: &Snapshot) -> String {
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"snapshots\": [\n{}{TRAJECTORY_TAIL}",
        render_snapshot(s)
    )
}

/// Appends `snapshot` to the trajectory in `existing` (the full previous
/// file contents), or errors when the file is not one of ours.
pub fn append_snapshot(existing: &str, s: &Snapshot) -> Result<String, String> {
    if !existing.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("not a {SCHEMA} trajectory (schema key missing)"));
    }
    let Some(stripped) = existing.strip_suffix(TRAJECTORY_TAIL) else {
        return Err("trajectory file has an unexpected tail; regenerate it".to_string());
    };
    Ok(format!("{stripped},\n{}{TRAJECTORY_TAIL}", render_snapshot(s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            label: "test".into(),
            git_rev: "abc1234".into(),
            git_dirty: false,
            unix_time: 1_700_000_000,
            host: HostInfo {
                hostname: "ci".into(),
                cpus: 4,
                os: "linux".into(),
                arch: "x86_64".into(),
            },
            repeat: 1,
            warmup_reps: 0,
            quick: true,
            scenarios: vec![
                ScenarioStat {
                    name: "single-1c/smoke".into(),
                    insts: 2_000,
                    cycles: 1_500,
                    secs_min: 0.002,
                    secs_mean: 0.003,
                },
                ScenarioStat {
                    name: "campaign/all-quick".into(),
                    insts: 100_000,
                    cycles: 0,
                    secs_min: 1.5,
                    secs_mean: 1.6,
                },
            ],
        }
    }

    #[test]
    fn suite_covers_every_model_at_both_scales() {
        let w = workloads(false);
        assert_eq!(w.len(), 10);
        for model in ["single-1c", "single-2c-full", "rfc", "replicated", "onelevel"] {
            for scale in ["smoke", "quick"] {
                assert!(
                    w.iter().any(|(n, ..)| n == &format!("{model}/{scale}")),
                    "{model}/{scale}"
                );
            }
        }
        // Quick mode shrinks the counts but keeps the names.
        let q = workloads(true);
        assert_eq!(
            q.iter().map(|(n, ..)| n.clone()).collect::<Vec<_>>(),
            w.iter().map(|(n, ..)| n.clone()).collect::<Vec<_>>()
        );
        assert!(q.iter().zip(&w).all(|(a, b)| a.2 < b.2));
    }

    #[test]
    fn rates_divide_by_fastest_repetition() {
        let s = sample_snapshot();
        assert_eq!(s.scenarios[0].cycles_per_sec(), Some(1_500.0 / 0.002));
        assert_eq!(s.scenarios[0].insts_per_sec(), 2_000.0 / 0.002);
        assert_eq!(s.scenarios[1].cycles_per_sec(), None, "campaign entry has no cycle count");
    }

    #[test]
    fn trajectory_roundtrip_appends_in_place() {
        let s = sample_snapshot();
        let one = render_trajectory(&s);
        assert!(one.contains("\"schema\": \"rfcache-bench/v1\""));
        assert!(one.ends_with(TRAJECTORY_TAIL));
        assert_eq!(one.matches("\"label\"").count(), 1);

        let two = append_snapshot(&one, &s).unwrap();
        assert_eq!(two.matches("\"label\"").count(), 2);
        assert!(two.ends_with(TRAJECTORY_TAIL));
        // Appending is associative with rendering: a third append works too.
        let three = append_snapshot(&two, &s).unwrap();
        assert_eq!(three.matches("\"label\"").count(), 3);

        append_snapshot("{}", &s).expect_err("foreign JSON must be rejected");
    }

    #[test]
    fn snapshot_json_has_required_keys() {
        let s = sample_snapshot();
        let json = render_snapshot(&s);
        for key in [
            "label",
            "git_rev",
            "dirty",
            "host",
            "repeat",
            "scenarios",
            "secs_min",
            "insts_per_sec",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
        assert!(json.contains("\"dirty\": false,"));
        assert!(json.contains("\"cycles_per_sec\""));
    }
}
