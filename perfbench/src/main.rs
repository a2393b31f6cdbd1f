//! The library-side half of the repository benchmark (see `README.md`).
//!
//! `run.py` starts this binary for each workload run and reads the JSON
//! document it writes to `--out`; the Python side owns the processes of
//! the service path, the metric arithmetic and the printed result.
//!
//! ```text
//! perfbench paper-quick --seed N --seconds S --trace 0|1 --oracle FILE --dir DIR --out FILE
//! perfbench cycle-loop  --seed N --seconds S --trace 0|1 --oracle FILE --dir DIR --out FILE
//! perfbench sweep       --sweep FILE --trace 0|1 --out FILE
//! perfbench codec-cache --sweep FILE --journal FILE --dir DIR --out FILE
//! perfbench record-oracle --out FILE
//! ```
//!
//! Untraced runs call the library's own entry points
//! (`run_campaign_planned_with` on `InProcess::new(2)`, `Cpu::run`).
//! Traced runs assemble the same work from the public pieces (plan,
//! materialize the stream, `Cpu::new`/`Cpu::run`, assemble, render) and
//! record a span around each call; their reports must match the oracle
//! byte for byte, like the untraced ones.

mod trace;

use rfcache_sim::core::{
    OneLevelBankedConfig, RegFileCacheConfig, RegFileConfig, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_sim::executor::{Executor, ExecutorError};
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::isa::TraceInst;
use rfcache_sim::metrics_codec::ShardRecord;
use rfcache_sim::pipeline::{Cpu, SimMetrics};
use rfcache_sim::workload::{family_member, read_trace, BenchProfile, TraceGenerator};
use rfcache_sim::{
    flatten_plans, fnv1a_64, par_indexed, parse_json, run_campaign_planned_with, Cache, InProcess,
    JsonValue, Registry, RunResult, RunSpec, Scenario, ScenarioReport, WorkloadSource,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace::{Obj, Tracer};

/// Worker threads of the in-process campaigns (the benchmark host is
/// sized for `nproc` = 2).
const JOBS: usize = 2;

/// `setup_s` of the in-process workloads is the median of this many
/// batches, each timing `SETUP_BATCH` set-ups back to back (one set-up
/// takes micro- to milliseconds, too little to time alone).
const SETUP_REPS: usize = 9;
const SETUP_BATCH: u32 = 50;

/// Workload seeds map onto this many campaign seeds, so the oracle table
/// recorded at the parent commit covers every seed; they are chosen among
/// the first `CANDIDATES` seeds on which no run panics.
const ORACLE_SEEDS: usize = 12;
const CANDIDATES: usize = 20;

/// The cycle-loop runs: measured and warmup instructions per model.
const LOOP_INSTS: u64 = 500_000;
const LOOP_WARMUP: u64 = 100_000;

/// The paper-quick run length: a quarter of the default 200k measured
/// and 60k warmup instructions, so a run holds several campaigns and
/// reports their median; the plan's shape (196 runs, 140 distinct specs,
/// 4 streams) is that of `all --quick`.
const PAPER_INSTS: u64 = 50_000;
const PAPER_WARMUP: u64 = 15_000;

/// Instructions a traced run materializes beyond warmup + measured, for
/// the ones still in flight when the run stops (the rest are generated
/// lazily, inside `pipeline.loop`).
const MATERIALIZE_SLACK: u64 = 1_024;

/// The recorded trace the service sweep replays (relative to the root of
/// the checkout, where every process of the benchmark runs).
const TRACE_FIXTURE: &str = "ci/fixtures/li.rfct";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opt = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let need = |flag: &str| opt(flag).unwrap_or_else(|| usage());
    let num = |flag: &str, default: u64| -> u64 {
        opt(flag).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let traced = num("--trace", 0) == 1;
    let seconds = num("--seconds", 10) as f64;
    let oracle = || load_oracle(&need("--oracle"));
    let cs = |oracle: &JsonValue| campaign_seed(num("--seed", 42), oracle);
    let doc = match cmd.as_str() {
        "paper-quick" => {
            let oracle = oracle();
            paper_quick(cs(&oracle), seconds, traced, &oracle, &need("--dir"))
        }
        "cycle-loop" => {
            let oracle = oracle();
            cycle_loop(cs(&oracle), seconds, traced, &oracle, &need("--dir"))
        }
        "sweep" => match opt("--sweep") {
            Some(path) => sweep(&read(&path), traced, 0),
            None => {
                let cs = cs(&oracle());
                sweep(&sweep_text(cs), traced, cs)
            }
        },
        "codec-cache" => {
            codec_cache_journal(&read(&need("--sweep")), &need("--journal"), &need("--dir"))
        }
        "record-oracle" => record_oracle(),
        _ => usage(),
    };
    let out = need("--out");
    std::fs::write(&out, doc).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
}

fn usage() -> ! {
    fail("usage: perfbench <paper-quick|cycle-loop|sweep|codec-cache|record-oracle> [flags]")
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// The campaign seed a workload seed stands for: one of the oracle's
/// vetted seeds.
fn campaign_seed(seed: u64, oracle: &JsonValue) -> u64 {
    let seeds: Vec<u64> = oracle
        .get("seeds")
        .and_then(JsonValue::as_array)
        .map(|a| a.iter().filter_map(JsonValue::as_u64).collect())
        .unwrap_or_default();
    if seeds.is_empty() {
        fail("the oracle lists no campaign seeds");
    }
    seeds[(seed % seeds.len() as u64) as usize]
}

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s ticks).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// What the oracle compares for a report: its text and both exports.
fn render(report: &dyn ScenarioReport) -> String {
    let table = report.to_table();
    format!("{report}\n{}{}", table.to_csv(), table.to_json())
}

fn digest(rendered: &str) -> String {
    format!("{:016x}", fnv1a_64(rendered.bytes()))
}

fn load_oracle(path: &str) -> JsonValue {
    parse_json(&read(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// The oracle entry for one workload and campaign seed.
fn oracle_entry<'a>(oracle: &'a JsonValue, workload: &str, cs: u64) -> Option<&'a JsonValue> {
    oracle.get(workload)?.get(&cs.to_string())
}

/// One timed campaign (or cycle-loop pass) of an untraced run.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    failed: usize,
}

/// The closed loop of the in-process workloads (`run.py` applies the same
/// rule to service campaigns): run passes back to back while another pass
/// of the last one's length still fits in `seconds` (at least one).
fn closed_loop(seconds: f64, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = vec![pass()];
    while start.elapsed().as_secs_f64() + passes.last().map_or(0.0, |p| p.wall_s) <= seconds {
        passes.push(pass());
    }
    passes
}

/// Seconds per call of `setup`, one figure per batch.
fn time_setup<T>(mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                std::hint::black_box(setup());
            }
            t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
        })
        .collect()
}

fn passes_json(doc: &mut Obj, passes: &[Pass], setups: &[f64]) {
    doc.list("wall_s", passes.iter().map(|p| p.wall_s));
    doc.list("cpu_s", passes.iter().map(|p| p.cpu_s));
    doc.list("setup_s", setups.iter().copied());
    doc.int("failed", passes.iter().map(|p| p.failed as u64).sum());
}

// ---------------------------------------------------------------- paper-quick

fn paper_opts(cs: u64) -> ExperimentOpts {
    ExperimentOpts { quick: true, insts: PAPER_INSTS, warmup: PAPER_WARMUP, seed: cs, jobs: JOBS }
}

/// Registry and plan building: the paper-quick set-up.
fn plan_builtins(opts: &ExperimentOpts) -> (Registry, Vec<Vec<RunSpec>>) {
    let registry = Registry::builtin();
    let plans = registry.iter().map(|s| s.plan(opts)).collect();
    (registry, plans)
}

/// `InProcess::new(2)`, plus the simulated cycles of what it ran.
struct Counting {
    inner: InProcess,
    cycles: AtomicU64,
}

impl Executor for Counting {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute(&self, specs: &[&RunSpec]) -> Result<Vec<RunResult>, ExecutorError> {
        let results = self.inner.execute(specs)?;
        // Relaxed: a statistic read after the campaign returns.
        self.cycles.fetch_add(results.iter().map(|r| r.metrics.cycles).sum(), Ordering::Relaxed);
        Ok(results)
    }
}

/// Runs one untraced campaign through the library's entry point and
/// renders every report; a panic anywhere loses the whole campaign.
/// Returns the rendered reports and the simulated cycles.
fn untraced_campaign(
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
    plans: Vec<Vec<RunSpec>>,
) -> Option<(Vec<String>, u64)> {
    catch_unwind(AssertUnwindSafe(|| {
        let executor = Counting { inner: InProcess::new(JOBS), cycles: AtomicU64::new(0) };
        let reports = run_campaign_planned_with(&executor, scenarios, opts, plans)
            .expect("the in-process executor does not fail");
        let rendered = reports.iter().map(|r| render(r.as_ref())).collect();
        (rendered, executor.cycles.load(Ordering::Relaxed))
    }))
    .ok()
}

/// Planned runs whose scenario rendered differently from the oracle (or
/// not at all).
fn paper_failures(
    scenarios: &[&Scenario],
    plans: &[Vec<RunSpec>],
    rendered: Option<&[String]>,
    expected: Option<&JsonValue>,
) -> usize {
    scenarios
        .iter()
        .zip(plans)
        .enumerate()
        .filter(|(i, (s, _))| {
            let got = rendered.map(|r| digest(&r[*i]));
            let want = expected.and_then(|e| e.get(&s.name)).and_then(JsonValue::as_str);
            got.is_none() || got.as_deref() != want
        })
        .map(|(_, (_, plan))| plan.len())
        .sum()
}

fn paper_quick(cs: u64, seconds: f64, traced: bool, oracle: &JsonValue, dir: &str) -> String {
    let opts = paper_opts(cs);
    let expected = oracle_entry(oracle, "paper-quick", opts.seed);
    let setups = time_setup(|| plan_builtins(&opts));
    let mut doc = Obj::new();
    let mut sim_cycles = 0;
    let mut one_pass = || {
        let (registry, plans) = plan_builtins(&opts);
        let scenarios: Vec<&Scenario> = registry.iter().collect();
        let owned = plans.clone();
        let (cpu0, t0) = (cpu_s(), Instant::now());
        let outcome = untraced_campaign(&scenarios, &opts, owned);
        let wall_s = t0.elapsed().as_secs_f64();
        let rendered = outcome.map(|(rendered, cycles)| {
            sim_cycles = cycles;
            rendered
        });
        let failed = paper_failures(&scenarios, &plans, rendered.as_deref(), expected);
        Pass { wall_s, cpu_s: cpu_s() - cpu0, failed }
    };
    let passes = if traced { vec![one_pass()] } else { closed_loop(seconds, one_pass) };
    let (registry, plans) = plan_builtins(&opts);
    let scenarios: Vec<&Scenario> = registry.iter().collect();
    let flat = flatten_plans(&plans);
    // A traced run checks its traced pass against the oracle too.
    doc.int("planned", (flat.len() * (passes.len() + usize::from(traced))) as u64);
    doc.int("campaign_seed", opts.seed);
    doc.int("jobs", JOBS as u64);
    doc.int("insts", flat.iter().map(|s| s.insts + s.warmup).sum());
    doc.int("sim_cycles", sim_cycles);
    passes_json(&mut doc, &passes, &setups);
    if traced {
        let tr = Tracer::new();
        let plans = traced_plans(&tr, &scenarios, &opts);
        let (wall, results) = traced_campaign(&tr, &scenarios, &opts, &plans, JOBS);
        let rendered: Option<Vec<String>> = results.rendered;
        doc.num("traced_wall_s", wall);
        doc.int(
            "traced_failed",
            paper_failures(&scenarios, &plans, rendered.as_deref(), expected) as u64,
        );
        let ok: Vec<(&RunSpec, RunResult)> =
            flat.iter().zip(results.runs).filter_map(|(spec, r)| r.map(|r| (*spec, r))).collect();
        let mut layers = plan_layers(&flat);
        layers.extend(sim_layers(ok.iter().map(|(_, r)| &r.metrics)));
        layers.extend(codec_cache_inprocess(&tr, &ok, dir));
        doc.layers(layers);
        doc.raw("runs", results.run_info);
        doc.raw("spans", tr.to_json());
    }
    doc.finish()
}

// ------------------------------------------------------------- traced pieces

/// `Scenario::plan` for each scenario, under a span each.
fn traced_plans(tr: &Tracer, scenarios: &[&Scenario], opts: &ExperimentOpts) -> Vec<Vec<RunSpec>> {
    scenarios.iter().map(|s| tr.span("scenario.plan", 0, 0, |_| s.plan(opts))).collect()
}

/// Per-run facts the Python side joins with the spans (by run id).
struct RunFacts {
    model: &'static str,
    cycles: u64,
    gen_insts: u64,
}

struct TracedRuns {
    rendered: Option<Vec<String>>,
    runs: Vec<Option<RunResult>>,
    run_info: String,
}

fn model_name(rf: &RegFileConfig) -> &'static str {
    match rf {
        RegFileConfig::Single(c) if c.latency <= 1 => "single-1c",
        RegFileConfig::Single(_) => "single-2c-full",
        RegFileConfig::Cache(_) => "rfc",
        RegFileConfig::Replicated(_) => "replicated",
        RegFileConfig::OneLevel(_) => "onelevel",
    }
}

/// Generates the first `n` instructions of a stream into memory (the
/// `workload.gen` span), then hands the Cpu that prefix followed by the
/// rest of the same stream, so the simulation sees exactly the
/// generator's sequence.
fn materialize(
    tr: &Tracer,
    parent: u64,
    run: u64,
    mut gen: TraceGenerator,
    n: u64,
) -> impl Iterator<Item = TraceInst> {
    let head: Vec<TraceInst> =
        tr.span("workload.gen", parent, run, |_| gen.by_ref().take(n as usize).collect());
    head.into_iter().chain(gen)
}

/// `Cpu::new`, then warmup, `Cpu::reset_metrics` and the measured run,
/// each under its span. Returns the measured metrics and the cycles
/// simulated in total (warmup included).
fn traced_measure<I: Iterator<Item = TraceInst>>(
    tr: &Tracer,
    parent: u64,
    run: u64,
    spec: &RunSpec,
    stream: I,
) -> (SimMetrics, u64) {
    let mut cpu =
        tr.span("pipeline.new", parent, run, |_| Cpu::new(spec.pipeline, spec.rf, stream));
    tr.span("pipeline.loop", parent, run, |_| {
        let mut warm_cycles = 0;
        if spec.warmup > 0 {
            warm_cycles = cpu.run(spec.warmup).cycles;
            cpu.reset_metrics();
        }
        let m = cpu.run(spec.insts);
        let cycles = warm_cycles + m.cycles;
        (m, cycles)
    })
}

/// `RunSpec::run`, assembled from the public pieces under spans.
fn traced_run(tr: &Tracer, parent: u64, run: u64, spec: &RunSpec) -> (RunResult, RunFacts) {
    let n = spec.warmup + spec.insts + MATERIALIZE_SLACK;
    let (metrics, cycles, gen_insts) = match &spec.workload {
        WorkloadSource::Synthetic(p) => {
            let stream = materialize(tr, parent, run, TraceGenerator::new(*p, spec.seed), n);
            let (m, c) = traced_measure(tr, parent, run, spec, stream);
            (m, c, n)
        }
        WorkloadSource::Family { base, member } => {
            // The same seed fold `RunSpec::run` applies to family members.
            let seed = spec.seed ^ u64::from(*member).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let gen = TraceGenerator::new(family_member(base, *member), seed);
            let stream = materialize(tr, parent, run, gen, n);
            let (m, c) = traced_measure(tr, parent, run, spec, stream);
            (m, c, n)
        }
        WorkloadSource::Trace(t) => {
            let (m, c) = traced_measure(tr, parent, run, spec, t.insts.iter().cycle().cloned());
            (m, c, 0)
        }
    };
    let result = RunResult { bench: spec.workload.label(), fp: spec.workload.fp(), metrics };
    (result, RunFacts { model: model_name(&spec.rf), cycles, gen_insts })
}

/// Every spec under an `executor.run` span (child of `parent`) on `jobs`
/// threads; a run that panics is `None`.
fn traced_runs(
    tr: &Tracer,
    parent: u64,
    flat: &[&RunSpec],
    jobs: usize,
) -> Vec<Option<(RunResult, RunFacts)>> {
    par_indexed(flat.len(), jobs, |i| {
        let run = i as u64 + 1;
        tr.span("executor.run", parent, run, |id| {
            catch_unwind(AssertUnwindSafe(|| traced_run(tr, id, run, flat[i]))).ok()
        })
    })
}

/// The per-run facts as a JSON array, keyed by run id.
fn run_info(outcomes: &[Option<(RunResult, RunFacts)>]) -> String {
    let rows: Vec<String> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.as_ref().map(|(_, f)| (i, f)))
        .map(|(i, f)| {
            format!(
                "{{\"run\": {}, \"model\": \"{}\", \"cycles\": {}, \"gen_insts\": {}}}",
                i + 1,
                f.model,
                f.cycles,
                f.gen_insts
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// A campaign assembled from the public pieces: the runs on `jobs`
/// threads, then each scenario assembled and rendered under its own
/// span. Returns the wall time (first run to last render) and the
/// per-run outcomes; a scenario with a failed run is not assembled.
fn traced_campaign(
    tr: &Tracer,
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
    plans: &[Vec<RunSpec>],
    jobs: usize,
) -> (f64, TracedRuns) {
    let t0 = Instant::now();
    let flat = flatten_plans(plans);
    let (rendered, outcomes) = tr.span("campaign", 0, 0, |camp| {
        let outcomes = traced_runs(tr, camp, &flat, jobs);
        let mut rendered = Some(Vec::new());
        let mut at = 0;
        for (s, plan) in scenarios.iter().zip(plans) {
            let chunk = &outcomes[at..at + plan.len()];
            at += plan.len();
            let results: Option<Vec<RunResult>> =
                chunk.iter().map(|o| o.as_ref().map(|(r, _)| r.clone())).collect();
            let text = results.and_then(|results| {
                let report = tr.span("scenario.assemble", camp, 0, |_| {
                    catch_unwind(AssertUnwindSafe(|| s.assemble(opts, results))).ok()
                })?;
                Some(tr.span("scenario.render", camp, 0, |_| render(report.as_ref())))
            });
            match (text, rendered.as_mut()) {
                (Some(text), Some(all)) => all.push(text),
                _ => rendered = None,
            }
        }
        (rendered, outcomes)
    });
    let wall = t0.elapsed().as_secs_f64();
    let run_info = run_info(&outcomes);
    let runs = outcomes.into_iter().map(|o| o.map(|(r, _)| r)).collect();
    (wall, TracedRuns { rendered, runs, run_info })
}

/// Plan-shape counts: how much of the planned work is distinct.
fn plan_layers(flat: &[&RunSpec]) -> Vec<(String, f64)> {
    let planned = flat.len() as f64;
    let specs: BTreeSet<u64> = flat.iter().map(|s| s.fingerprint()).collect();
    // A replayed trace is one stream whatever the seed.
    let streams: BTreeSet<String> = flat
        .iter()
        .map(|s| match &s.workload {
            WorkloadSource::Trace(t) => format!("{t:?}"),
            w => format!("{w:?}/{}", s.seed),
        })
        .collect();
    let distinct = specs.len() as f64;
    vec![
        ("scenario.runs_planned".into(), planned),
        ("scenario.specs_distinct".into(), distinct),
        ("scenario.useful_ratio".into(), if planned > 0.0 { distinct / planned } else { 0.0 }),
        ("workload.streams_distinct".into(), streams.len() as f64),
        (
            "workload.stream_reuse".into(),
            if streams.is_empty() { 0.0 } else { planned / streams.len() as f64 },
        ),
    ]
}

/// Simulated counts summed over the runs (rates weighted by their base).
fn sim_layers<'a>(metrics: impl Iterator<Item = &'a SimMetrics>) -> Vec<(String, f64)> {
    let (mut rps, mut ums, mut dem, mut pre, mut win, mut rob) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut branches, mut mispredicted, mut hits, mut weight) = (0u64, 0u64, 0.0f64, 0.0f64);
    for m in metrics {
        let rf = m.rf_combined();
        rps += rf.read_port_stalls;
        ums += rf.upper_miss_stalls;
        dem += rf.demand_transfers;
        pre += rf.prefetch_transfers;
        win += m.stall_window_full;
        rob += m.stall_rob_full;
        branches += m.branches;
        mispredicted += m.mispredicted;
        if let Some(rate) = m.dcache_hit_rate {
            hits += rate * m.committed as f64;
            weight += m.committed as f64;
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("core.read_port_stalls".into(), rps as f64),
        ("core.upper_miss_stalls".into(), ums as f64),
        ("core.demand_transfers".into(), dem as f64),
        ("core.prefetch_transfers".into(), pre as f64),
        ("mem.dcache_hit_rate".into(), ratio(hits, weight)),
        ("frontend.mispredict_rate".into(), ratio(mispredicted as f64, branches as f64)),
        ("pipeline.stall_window_full".into(), win as f64),
        ("pipeline.stall_rob_full".into(), rob as f64),
    ]
}

/// Times the codec (`ShardRecord::parse`, `ShardRecord::to_line`) and the
/// result cache (`Cache::store`, `Cache::lookup`) over record lines, one
/// span per batch. `specs[i]` is the spec of the record with index `i`.
fn time_codec_cache(
    tr: &Tracer,
    lines: &[String],
    specs: &[&RunSpec],
    dir: &str,
) -> Vec<(String, f64)> {
    let records: Vec<ShardRecord> = tr.span("codec.decode", 0, 0, |_| {
        lines.iter().filter_map(|l| ShardRecord::parse(l).ok()).collect()
    });
    let encoded: Vec<String> =
        tr.span("codec.encode", 0, 0, |_| records.iter().map(ShardRecord::to_line).collect());
    let bytes: usize = encoded.iter().map(|l| l.len() + 1).sum();
    let pairs: Vec<(&RunSpec, RunResult)> = records
        .into_iter()
        .filter_map(|r| {
            let spec = *specs.get(r.index)?;
            r.into_run_result(spec).ok().map(|res| (spec, res))
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    let cache = Cache::open(dir).unwrap_or_else(|e| fail(&format!("cannot open cache {dir}: {e}")));
    tr.span("cache.store", 0, 0, |_| {
        for (spec, result) in &pairs {
            if let Err(e) = cache.store(spec, result) {
                fail(&format!("cache store failed: {e}"));
            }
        }
    });
    let hits = tr.span("cache.lookup", 0, 0, |_| {
        pairs.iter().filter(|(spec, _)| cache.lookup(spec).is_some()).count()
    });
    if hits != pairs.len() {
        fail(&format!("the cache returned {hits} of {} stored results", pairs.len()));
    }
    let _ = std::fs::remove_dir_all(dir);
    let per_record = if encoded.is_empty() { 0.0 } else { bytes as f64 / encoded.len() as f64 };
    vec![("codec.bytes_per_record".into(), per_record)]
}

fn codec_cache_inprocess(
    tr: &Tracer,
    ok: &[(&RunSpec, RunResult)],
    dir: &str,
) -> Vec<(String, f64)> {
    let lines: Vec<String> = ok
        .iter()
        .enumerate()
        .map(|(i, (spec, r))| ShardRecord::from_result(i, spec.fingerprint(), r).to_line())
        .collect();
    let specs: Vec<&RunSpec> = ok.iter().map(|(s, _)| *s).collect();
    time_codec_cache(tr, &lines, &specs, dir)
}

// ----------------------------------------------------------------- cycle-loop

fn loop_models() -> [(&'static str, RegFileConfig); 5] {
    [
        ("single-1c", RegFileConfig::Single(SingleBankConfig::one_cycle())),
        ("single-2c-full", RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass())),
        ("rfc", RegFileConfig::Cache(RegFileCacheConfig::paper_default())),
        ("replicated", RegFileConfig::Replicated(ReplicatedBankConfig::default())),
        ("onelevel", RegFileConfig::OneLevel(OneLevelBankedConfig::default())),
    ]
}

/// The five cycle-loop runs: gcc on each model, each with its own seed.
fn loop_specs(cs: u64) -> Vec<RunSpec> {
    let gcc = BenchProfile::by_name("gcc").expect("gcc is a built-in profile");
    loop_models()
        .iter()
        .enumerate()
        .map(|(i, (_, rf))| {
            RunSpec::from_profile(gcc, *rf)
                .insts(LOOP_INSTS)
                .warmup(LOOP_WARMUP)
                .seed(cs + 1_000 * i as u64)
        })
        .collect()
}

/// The oracle's view of one run: the counters the model owns. Reads no
/// field a simplification may remove.
fn signature(m: &SimMetrics) -> String {
    let rf = m.rf_combined();
    format!(
        "cycles={} committed={} branches={} mispredicted={} rob_full={} window_full={} \
         read_port_stalls={} upper_miss_stalls={} demand={} prefetch={} dcache={:?}",
        m.cycles,
        m.committed,
        m.branches,
        m.mispredicted,
        m.stall_rob_full,
        m.stall_window_full,
        rf.read_port_stalls,
        rf.upper_miss_stalls,
        rf.demand_transfers,
        rf.prefetch_transfers,
        m.dcache_hit_rate
    )
}

/// Runs built before the clock starts: the generators and `Cpu::new`.
fn loop_setup(specs: &[RunSpec]) -> Vec<Cpu<TraceGenerator>> {
    specs
        .iter()
        .map(|s| {
            let WorkloadSource::Synthetic(p) = s.workload else {
                unreachable!("cycle-loop runs are synthetic")
            };
            Cpu::new(s.pipeline, s.rf, TraceGenerator::new(p, s.seed))
        })
        .collect()
}

/// One untraced cycle-loop pass on this thread; `None` marks a run that
/// panicked.
fn loop_pass(cpus: Vec<Cpu<TraceGenerator>>, specs: &[RunSpec]) -> Vec<Option<SimMetrics>> {
    cpus.into_iter()
        .zip(specs)
        .map(|(mut cpu, s)| {
            catch_unwind(AssertUnwindSafe(|| {
                cpu.run(s.warmup);
                cpu.reset_metrics();
                cpu.run(s.insts)
            }))
            .ok()
        })
        .collect()
}

fn loop_failures(metrics: &[Option<SimMetrics>], expected: Option<&JsonValue>) -> usize {
    loop_models()
        .iter()
        .zip(metrics)
        .filter(|((name, _), m)| {
            let want = expected.and_then(|e| e.get(name)).and_then(JsonValue::as_str);
            m.as_ref().map(signature).as_deref() != want || want.is_none()
        })
        .count()
}

fn cycle_loop(cs: u64, seconds: f64, traced: bool, oracle: &JsonValue, dir: &str) -> String {
    let specs = loop_specs(cs);
    let expected = oracle_entry(oracle, "cycle-loop", cs);
    let setups = time_setup(|| loop_setup(&specs));
    let mut last: Vec<Option<SimMetrics>> = Vec::new();
    let mut one_pass = || {
        let cpus = loop_setup(&specs);
        let (cpu0, t0) = (cpu_s(), Instant::now());
        let metrics = loop_pass(cpus, &specs);
        let wall_s = t0.elapsed().as_secs_f64();
        let failed = loop_failures(&metrics, expected);
        last = metrics;
        Pass { wall_s, cpu_s: cpu_s() - cpu0, failed }
    };
    let passes = if traced { vec![one_pass()] } else { closed_loop(seconds, one_pass) };
    let mut doc = Obj::new();
    doc.int("planned", (specs.len() * (passes.len() + usize::from(traced))) as u64);
    doc.int("campaign_seed", cs);
    doc.int("jobs", 1);
    doc.int("insts", specs.iter().map(|s| s.insts + s.warmup).sum());
    doc.int("sim_cycles", last.iter().flatten().map(|m| m.cycles).sum());
    passes_json(&mut doc, &passes, &setups);
    if traced {
        let tr = Tracer::new();
        let flat: Vec<&RunSpec> = specs.iter().collect();
        let t0 = Instant::now();
        let outcomes = tr.span("campaign", 0, 0, |camp| traced_runs(&tr, camp, &flat, 1));
        doc.num("traced_wall_s", t0.elapsed().as_secs_f64());
        let metrics: Vec<Option<SimMetrics>> =
            outcomes.iter().map(|o| o.as_ref().map(|(r, _)| r.metrics.clone())).collect();
        doc.int("traced_failed", loop_failures(&metrics, expected) as u64);
        doc.raw("runs", run_info(&outcomes));
        let ok: Vec<(&RunSpec, RunResult)> =
            flat.iter().zip(outcomes).filter_map(|(s, o)| o.map(|(r, _)| (*s, r))).collect();
        let mut layers = plan_layers(&flat);
        layers.extend(sim_layers(ok.iter().map(|(_, r)| &r.metrics)));
        layers.extend(codec_cache_inprocess(&tr, &ok, dir));
        doc.layers(layers);
        doc.raw("spans", tr.to_json());
    }
    doc.finish()
}

// ---------------------------------------------------------------- sweep

/// The service-sweep campaign: 6 workloads (four synthetic profiles, the
/// recorded li trace, three members of a seeded gcc family, so 8 streams
/// of work) x 6 register files x 2 run lengths x 20 seeds = 1920 short
/// runs. Trace replay ignores the seed, so its 240 runs repeat 12
/// simulations under distinct specs.
fn sweep_text(cs: u64) -> String {
    let seeds: Vec<String> = (0..20).map(|i| (cs * 1_000 + i).to_string()).collect();
    format!(
        r#"{{"name": "bench-service", "description": "service-sweep workload of the repository benchmark",
  "workloads": ["gcc", "li", "go", "swim", {{"trace": "{TRACE_FIXTURE}", "name": "li-trace"}},
                {{"family": "gcc", "members": 3}}],
  "rf": ["one-cycle", "two-cycle-full-bypass", "rfc", {{"cache": {{"caching": "ready"}}, "name": "rfc-ready"}},
         {{"onelevel": {{}}}}, {{"replicated": {{}}}}],
  "insts": [1500, 3000], "warmup": 500, "seed": [{}]}}"#,
        seeds.join(", ")
    )
}

/// Registry building plus sweep parsing (which reads any trace files).
fn sweep_registry(text: &str) -> Registry {
    Registry::from_texts(&[text.to_string()])
        .unwrap_or_else(|e| fail(&format!("the benchmark sweep does not parse: {e}")))
}

/// The in-process reference of the service-sweep workload: the same
/// sweep through `InProcess::new(2)`, rendered as the service renders
/// its results document. Traced, it also times parsing, trace reading
/// and a traced campaign of the same plan.
/// `cs` is the campaign seed the sweep was made from (0 for a given one).
fn sweep(text: &str, traced: bool, cs: u64) -> String {
    let registry = sweep_registry(text);
    let scenarios: Vec<&Scenario> = registry.sweeps().iter().collect();
    let opts = ExperimentOpts { jobs: JOBS, ..Default::default() };
    let plans: Vec<Vec<RunSpec>> = scenarios.iter().map(|s| s.plan(&opts)).collect();
    let flat = flatten_plans(&plans);
    let mut doc = Obj::new();
    doc.raw("sweep", text.to_string());
    doc.int("campaign_seed", cs);
    doc.int("planned", flat.len() as u64);
    doc.int("insts", flat.iter().map(|s| s.insts + s.warmup).sum());
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let executor = Counting { inner: InProcess::new(JOBS), cycles: AtomicU64::new(0) };
        let reports = run_campaign_planned_with(&executor, &scenarios, &opts, plans.clone())
            .expect("the in-process executor does not fail");
        (reports, executor.cycles.load(Ordering::Relaxed))
    }))
    .ok();
    doc.num("wall_s", t0.elapsed().as_secs_f64());
    let untraced: Option<Vec<String>> =
        outcome.as_ref().map(|(reports, _)| reports.iter().map(|r| render(r.as_ref())).collect());
    match &outcome {
        Some((reports, cycles)) => {
            doc.int("sim_cycles", *cycles);
            let entries: Vec<String> = scenarios
                .iter()
                .zip(reports)
                .map(|(s, r)| {
                    let table = r.to_table();
                    let mut e = Obj::new();
                    e.str("name", &s.name);
                    e.str("report", &format!("{r}"));
                    e.str("csv", &table.to_csv());
                    e.str("json", &table.to_json());
                    e.finish()
                })
                .collect();
            doc.raw("scenarios", format!("[{}]", entries.join(", ")));
        }
        None => doc.raw("scenarios", "null".into()),
    }
    if traced {
        let tr = Tracer::new();
        tr.span("sweep.parse", 0, 0, |_| sweep_registry(text));
        let traces: BTreeSet<&str> = flat
            .iter()
            .filter_map(|s| match &s.workload {
                WorkloadSource::Trace(t) => Some(t.path.as_str()),
                _ => None,
            })
            .collect();
        for path in traces {
            tr.span("workload.trace_read", 0, 0, |_| {
                let file = std::fs::File::open(path)
                    .unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
                read_trace(std::io::BufReader::new(file))
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
            });
        }
        let plans = traced_plans(&tr, &scenarios, &opts);
        let (wall, results) = traced_campaign(&tr, &scenarios, &opts, &plans, JOBS);
        doc.num("traced_wall_s", wall);
        let identical = results.rendered.is_some() && results.rendered == untraced;
        doc.int("traced_failed", if identical { 0 } else { flat.len() as u64 });
        let ok: Vec<&RunResult> = results.runs.iter().flatten().collect();
        let mut layers = plan_layers(&flat);
        layers.extend(sim_layers(ok.iter().map(|r| &r.metrics)));
        doc.layers(layers);
        doc.raw("runs", results.run_info);
        doc.raw("spans", tr.to_json());
    }
    doc.finish()
}

/// Times the codec and the cache over the records a service campaign
/// journaled (every line after the header).
fn codec_cache_journal(text: &str, journal: &str, dir: &str) -> String {
    let registry = sweep_registry(text);
    let scenarios: Vec<&Scenario> = registry.sweeps().iter().collect();
    let opts = ExperimentOpts::default();
    let plans: Vec<Vec<RunSpec>> = scenarios.iter().map(|s| s.plan(&opts)).collect();
    let flat = flatten_plans(&plans);
    let lines: Vec<String> = read(journal).lines().skip(1).map(str::to_string).collect();
    let tr = Tracer::new();
    let mut doc = Obj::new();
    doc.layers(time_codec_cache(&tr, &lines, &flat, dir));
    doc.raw("spans", tr.to_json());
    doc.finish()
}

// ------------------------------------------------------------------- oracle

/// Records the oracle table. Candidate campaign seeds from 42 up are
/// vetted: a seed on which any run of the three workloads panics is
/// skipped (some drive the model into a livelock that trips the
/// `Cpu::run` watchdog). Of the first `CANDIDATES` that pass, the
/// `ORACLE_SEEDS` whose simulated cycles stay closest to the median on
/// all three workloads are kept, so the seed moves the amount of work as
/// little as possible. For each, the digest of every paper-quick report
/// and the signature of every cycle-loop run are recorded. Run at the
/// commit the benchmark is defined on; `oracle.json` holds the result.
fn record_oracle() -> String {
    struct Vetted {
        cs: u64,
        paper: String,
        cycle: String,
        cycles: [f64; 3],
    }
    let mut vetted: Vec<Vetted> = Vec::new();
    let mut cs = 42;
    while vetted.len() < CANDIDATES {
        let t = Instant::now();
        let opts = paper_opts(cs);
        let (registry, plans) = plan_builtins(&opts);
        let scenarios: Vec<&Scenario> = registry.iter().collect();
        let paper = untraced_campaign(&scenarios, &opts, plans);
        let specs = loop_specs(cs);
        let metrics: Option<Vec<SimMetrics>> = paper
            .as_ref()
            .and_then(|_| loop_pass(loop_setup(&specs), &specs).into_iter().collect());
        let sweep = metrics.as_ref().and_then(|_| {
            let registry = sweep_registry(&sweep_text(cs));
            let sweeps: Vec<&Scenario> = registry.sweeps().iter().collect();
            let opts = ExperimentOpts { jobs: JOBS, ..Default::default() };
            let plans = sweeps.iter().map(|s| s.plan(&opts)).collect();
            untraced_campaign(&sweeps, &opts, plans)
        });
        let kept = if let (Some((rendered, paper_cycles)), Some(metrics), Some((_, sweep_cycles))) =
            (paper, metrics, sweep)
        {
            let mut paper = Obj::new();
            for (s, r) in scenarios.iter().zip(&rendered) {
                paper.str(&s.name, &digest(r));
            }
            let mut cycle = Obj::new();
            for ((name, _), m) in loop_models().iter().zip(&metrics) {
                cycle.str(name, &signature(m));
            }
            let loop_cycles: u64 = metrics.iter().map(|m| m.cycles).sum();
            vetted.push(Vetted {
                cs,
                paper: paper.finish(),
                cycle: cycle.finish(),
                cycles: [paper_cycles as f64, loop_cycles as f64, sweep_cycles as f64],
            });
            "kept"
        } else {
            "skipped: a run panicked"
        };
        eprintln!("[record-oracle: campaign seed {cs} {kept}, {:.2}s]", t.elapsed().as_secs_f64());
        cs += 1;
    }
    let medians: Vec<f64> = (0..3)
        .map(|k| {
            let mut v: Vec<f64> = vetted.iter().map(|g| g.cycles[k]).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        })
        .collect();
    let distance =
        |g: &Vetted| (0..3).map(|k| (g.cycles[k] / medians[k] - 1.0).abs()).fold(0.0, f64::max);
    vetted.sort_by(|a, b| distance(a).total_cmp(&distance(b)));
    vetted.truncate(ORACLE_SEEDS);
    vetted.sort_by_key(|g| g.cs);
    let (mut seeds, mut paper, mut cycle, mut cycles) =
        (Vec::new(), Obj::new(), Obj::new(), Obj::new());
    for g in vetted {
        seeds.push(g.cs.to_string());
        paper.raw(&g.cs.to_string(), g.paper);
        cycle.raw(&g.cs.to_string(), g.cycle);
        cycles.list(&g.cs.to_string(), g.cycles.into_iter());
    }
    let mut doc = Obj::new();
    doc.raw("seeds", format!("[{}]", seeds.join(", ")));
    doc.raw("sim_cycles", cycles.finish());
    doc.raw("paper-quick", paper.finish());
    doc.raw("cycle-loop", cycle.finish());
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_maps_onto_a_vetted_campaign_seed() {
        let oracle = parse_json(r#"{"seeds": [42, 43, 47]}"#).unwrap();
        assert_eq!(campaign_seed(0, &oracle), 42);
        assert_eq!(campaign_seed(4, &oracle), 43);
        assert_eq!(campaign_seed(u64::MAX, &oracle), 42);
        for seed in [1, 7, 41, 44, 57, 1 << 40] {
            assert!([42, 43, 47].contains(&campaign_seed(seed, &oracle)), "{seed}");
        }
    }

    /// The known-bad spec deadlocks and trips the `Cpu::run` watchdog: the
    /// untraced campaign loses every run and the traced one exactly the
    /// bad run, and neither panic escapes.
    #[test]
    fn a_panicking_run_counts_as_failed_instead_of_aborting() {
        let bad = r#"{"name": "known-bad", "workloads": ["li"],
            "rf": ["one-cycle", {"single": {"read_ports": 1}}], "insts": 2000, "warmup": 0}"#;
        let registry = sweep_registry(bad);
        let scenarios: Vec<&Scenario> = registry.sweeps().iter().collect();
        let opts = ExperimentOpts { jobs: JOBS, ..Default::default() };
        let plans: Vec<Vec<RunSpec>> = scenarios.iter().map(|s| s.plan(&opts)).collect();
        let outcome = untraced_campaign(&scenarios, &opts, plans.clone());
        assert!(outcome.is_none());
        assert_eq!(paper_failures(&scenarios, &plans, None, None), 2);

        let tr = Tracer::new();
        let (_, runs) = traced_campaign(&tr, &scenarios, &opts, &plans, JOBS);
        assert!(runs.rendered.is_none());
        assert_eq!(runs.runs.iter().filter(|r| r.is_none()).count(), 1);
    }

    #[test]
    fn the_traced_path_renders_what_the_library_renders() {
        let sweep = r#"{"name": "mixed", "workloads": ["li", {"family": "go", "members": 2}],
            "rf": ["one-cycle", "rfc"], "insts": 3000, "warmup": 500}"#;
        let registry = sweep_registry(sweep);
        let scenarios: Vec<&Scenario> = registry.sweeps().iter().collect();
        let opts = ExperimentOpts { jobs: JOBS, ..Default::default() };
        let plans: Vec<Vec<RunSpec>> = scenarios.iter().map(|s| s.plan(&opts)).collect();
        let (untraced, _) = untraced_campaign(&scenarios, &opts, plans.clone()).unwrap();
        let tr = Tracer::new();
        let (_, traced) = traced_campaign(&tr, &scenarios, &opts, &plans, JOBS);
        assert_eq!(traced.rendered.unwrap(), untraced);
    }
}
