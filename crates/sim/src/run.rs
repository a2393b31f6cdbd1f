//! Single-run, batch and suite-run drivers.

use rfcache_core::RegFileConfig;
use rfcache_isa::TraceInst;
use rfcache_pipeline::{Cpu, PipelineConfig, SimMetrics};
use rfcache_workload::{family_member, read_trace, BenchProfile, TraceGenerator};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default measured instructions per simulation (the paper simulates
/// 100M; the synthetic traces converge well before 200k).
pub const DEFAULT_INSTS: u64 = 200_000;

/// Default warmup instructions (predictor/cache training, excluded from
/// the measured counters — the paper's "skipping the initialization").
/// Shared by ad-hoc [`RunSpec`]s, the experiment sweeps
/// ([`ExperimentOpts`](crate::experiments::ExperimentOpts)) and the CLIs,
/// so every path warms up identically.
pub const DEFAULT_WARMUP: u64 = 60_000;

/// A recorded trace workload: the instructions of an RFCT trace file,
/// loaded once and replayed (cyclically) instead of generated.
///
/// The spec identity captures the file's *content* (a [`fnv1a_64`] of
/// the raw bytes), not just its path, so a fingerprint match between
/// processes means they really simulated the same instructions.
#[derive(Clone)]
pub struct TraceWorkload {
    /// Path the trace was loaded from (diagnostic only; identity is the
    /// content hash).
    pub path: String,
    /// Label the trace's results report as their benchmark name.
    pub label: String,
    /// Whether results should be grouped with the FP suite.
    pub fp: bool,
    /// [`fnv1a_64`] of the raw trace file bytes.
    pub content: u64,
    /// The decoded instruction stream (shared, never mutated).
    pub insts: Arc<Vec<TraceInst>>,
}

impl TraceWorkload {
    /// Loads an RFCT trace file as a replayable workload.
    ///
    /// `label` defaults to the file stem when `None`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read, is not a valid
    /// RFCT trace, or contains no instructions.
    pub fn load(path: &str, label: Option<&str>, fp: bool) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read trace file {path}: {e}"))?;
        let content = fnv1a_64(bytes.iter().copied());
        let insts =
            read_trace(&mut bytes.as_slice()).map_err(|e| format!("bad trace file {path}: {e}"))?;
        if insts.is_empty() {
            return Err(format!("trace file {path} contains no instructions"));
        }
        let label = match label {
            Some(l) => l.to_string(),
            None => std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.to_string()),
        };
        Ok(TraceWorkload { path: path.to_string(), label, fp, content, insts: Arc::new(insts) })
    }
}

impl fmt::Debug for TraceWorkload {
    /// Renders identity (path, label, fp flag, content hash, length) and
    /// never the instruction data — the `Debug` text feeds
    /// [`RunSpec::fingerprint`] and the cache's exact-match key, which
    /// must stay cheap and stable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWorkload")
            .field("path", &self.path)
            .field("label", &self.label)
            .field("fp", &self.fp)
            .field("content", &format_args!("{:016x}", self.content))
            .field("len", &self.insts.len())
            .finish()
    }
}

/// Where a run's instruction stream comes from.
///
/// The scenario layer plans over all three kinds interchangeably: the
/// synthetic generator (the 18 built-in SPEC95 profiles and ad-hoc
/// profiles), recorded RFCT traces, and seeded families of
/// near-neighbour profiles derived from a base
/// ([`family_member`]).
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Generate instructions from a benchmark profile.
    Synthetic(BenchProfile),
    /// Replay a recorded trace (cyclically, to fill any budget).
    Trace(TraceWorkload),
    /// Member `member` of the seeded family rooted at `base`.
    Family {
        /// The base profile the family jitters.
        base: BenchProfile,
        /// Which family member to derive (0 is the base itself).
        member: u32,
    },
}

impl WorkloadSource {
    /// The name results report as their benchmark (`go`, `li-trace`,
    /// `go~3`, ...).
    pub fn label(&self) -> String {
        match self {
            WorkloadSource::Synthetic(p) => p.name.to_string(),
            WorkloadSource::Trace(t) => t.label.clone(),
            WorkloadSource::Family { base, member } => format!("{}~{member}", base.name),
        }
    }

    /// Whether results group with the FP suite.
    pub fn fp(&self) -> bool {
        match self {
            WorkloadSource::Synthetic(p) => p.fp,
            WorkloadSource::Trace(t) => t.fp,
            WorkloadSource::Family { base, .. } => base.fp,
        }
    }
}

/// Everything needed to simulate one workload on one register file
/// architecture.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Where the instruction stream comes from.
    pub workload: WorkloadSource,
    /// The register file architecture under study.
    pub rf: RegFileConfig,
    /// Core configuration.
    pub pipeline: PipelineConfig,
    /// Instructions to measure after warmup.
    pub insts: u64,
    /// Warmup instructions (predictor/cache training, excluded from the
    /// measured counters — the paper's "skipping the initialization").
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
}

impl RunSpec {
    /// Creates a spec for the named benchmark with default pipeline,
    /// [`DEFAULT_INSTS`] measured instructions and [`DEFAULT_WARMUP`]
    /// warmup.
    ///
    /// # Errors
    ///
    /// Returns a message naming the benchmark when it is not a SPEC95
    /// program name, so frontends can turn user input into a usage error
    /// (CLI exit 2, service 400) instead of a panic.
    pub fn new(bench: &str, rf: RegFileConfig) -> Result<Self, String> {
        let profile =
            BenchProfile::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
        Ok(Self::from_profile(profile, rf))
    }

    /// [`RunSpec::new`] for compiled-in benchmark names: panics instead
    /// of returning an error, with the caller's location in the message.
    ///
    /// Experiment tables and tests use this for names that are string
    /// literals; anything user-supplied must go through [`RunSpec::new`].
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not a SPEC95 program name.
    #[track_caller]
    pub fn known(bench: &str, rf: RegFileConfig) -> Self {
        match Self::new(bench, rf) {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a spec from a profile value.
    pub fn from_profile(profile: BenchProfile, rf: RegFileConfig) -> Self {
        Self::from_workload(WorkloadSource::Synthetic(profile), rf)
    }

    /// Creates a spec from any workload source.
    pub fn from_workload(workload: WorkloadSource, rf: RegFileConfig) -> Self {
        RunSpec {
            workload,
            rf,
            pipeline: PipelineConfig::default(),
            insts: DEFAULT_INSTS,
            warmup: DEFAULT_WARMUP,
            seed: 42,
        }
    }

    /// Sets the measured instruction count (builder-style).
    #[must_use]
    pub fn insts(mut self, insts: u64) -> Self {
        self.insts = insts;
        self
    }

    /// Sets the warmup instruction count (builder-style).
    #[must_use]
    pub fn warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the workload seed (builder-style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pipeline configuration (builder-style).
    #[must_use]
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// A stable 64-bit fingerprint over every field of the spec
    /// ([`fnv1a_64`] of the `Debug` rendering, which covers the workload
    /// source — profile parameters, trace content hash, or family
    /// base+member — architecture, pipeline, instruction budget, warmup
    /// and seed).
    ///
    /// Shard workers stamp each emitted result with the fingerprint of
    /// the spec that produced it, so the merge path can detect *plan
    /// drift* — a coordinator and a worker that derived different
    /// campaign plans (mismatched options, binary versions, or registry
    /// order) — before folding results into the wrong report. The result
    /// cache ([`crate::cache`]) uses the same value as its shard key, but
    /// pairs it with the full `Debug` rendering for exact-match
    /// verification, so a collision is never a correctness hazard. The
    /// value is only meaningful between processes built from the same
    /// sources: it is not a persistent format.
    pub fn fingerprint(&self) -> u64 {
        fnv1a_64(format!("{self:?}").bytes())
    }

    /// Simulates the spec and returns the result.
    ///
    /// This is the reference path: [`run_batch`] must return exactly
    /// this for every spec it is given.
    pub fn run(&self) -> RunResult {
        match self.stream() {
            Stream::Generated(profile, seed) => self.run_on(TraceGenerator::new(profile, seed)),
            Stream::Recorded(t) => self.run_on(t.insts.iter().cycle().cloned()),
        }
    }

    /// The instruction stream the spec reads.
    fn stream(&self) -> Stream<'_> {
        match &self.workload {
            WorkloadSource::Synthetic(p) => Stream::Generated(*p, self.seed),
            WorkloadSource::Family { base, member } => {
                // Fold the member into the seed so siblings decorrelate
                // even when the jitter leaves a parameter unchanged.
                let seed = self.seed ^ u64::from(*member).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Stream::Generated(family_member(base, *member), seed)
            }
            WorkloadSource::Trace(t) => Stream::Recorded(t),
        }
    }

    /// Simulates the spec over `trace`: warmup, then the measured run.
    fn run_on<I: Iterator<Item = TraceInst>>(&self, trace: I) -> RunResult {
        let mut cpu = Cpu::new(self.pipeline, self.rf, trace);
        if self.warmup > 0 {
            cpu.run(self.warmup);
            cpu.reset_metrics(); // counters restart at zero
        }
        let metrics = cpu.run(self.insts);
        RunResult { bench: self.workload.label(), fp: self.workload.fp(), metrics }
    }
}

/// The instruction stream a run reads.
#[allow(clippy::large_enum_variant)] // a short-lived return value, never stored in bulk
enum Stream<'a> {
    /// `TraceGenerator::new(profile, seed)`: the stream is identified by
    /// the profile and the (effective) seed.
    Generated(BenchProfile, u64),
    /// A recorded trace, replayed cyclically.
    Recorded(&'a TraceWorkload),
}

/// The 64-bit FNV-1a hash of a byte stream: the repo's one content
/// fingerprint, shared by [`RunSpec::fingerprint`],
/// [`campaign_fingerprint`] and the result cache's entry checksums
/// ([`crate::cache`]), so every layer agrees on what a spec's identity
/// hashes to.
pub fn fnv1a_64<I: IntoIterator<Item = u8>>(bytes: I) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A stable fingerprint of an entire campaign plan: FNV-1a folded over
/// every spec's [`RunSpec::fingerprint`] in plan order.
///
/// The distributed transport's handshake compares the coordinator's and
/// each worker's campaign fingerprint, so a worker that derived a
/// different plan (mismatched options, binary versions, or registry
/// order) is rejected before any lease is issued. Like the per-spec
/// fingerprint, the value is only meaningful between processes built
/// from the same sources.
pub fn campaign_fingerprint(specs: &[&RunSpec]) -> u64 {
    fnv1a_64(specs.iter().flat_map(|spec| spec.fingerprint().to_le_bytes()))
}

/// Flattens per-scenario plans into the campaign's single spec list, in
/// plan order — the shape every executor, the lease table, and
/// [`campaign_fingerprint`] agree on. One helper instead of four
/// inlined `flatten().collect()` sites keeps "what order is the flat
/// plan in" defined exactly once.
pub fn flatten_plans(plans: &[Vec<RunSpec>]) -> Vec<&RunSpec> {
    plans.iter().flatten().collect()
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name (a workload label for traces and family members).
    pub bench: String,
    /// Whether the benchmark belongs to SpecFP95.
    pub fp: bool,
    /// The metrics of the measured phase.
    pub metrics: SimMetrics,
}

impl RunResult {
    /// Instructions per cycle of the measured phase.
    pub fn ipc(&self) -> f64 {
        self.metrics.ipc()
    }

    /// Checks that a result read back from a shard record, a journal or
    /// the result cache reports the workload of `spec`. A label or `fp`
    /// flag that contradicts the spec means an incompatible binary or a
    /// drifted plan.
    pub(crate) fn check_workload(&self, spec: &RunSpec) -> Result<(), String> {
        let label = spec.workload.label();
        if self.bench != label {
            return Err(format!(
                "result is for workload `{}` but the spec is `{label}`",
                self.bench
            ));
        }
        if self.fp != spec.workload.fp() {
            return Err(format!(
                "workload `{}` has fp={} but the result says fp={}",
                self.bench,
                spec.workload.fp(),
                self.fp
            ));
        }
        Ok(())
    }
}

/// Default worker count: the machine's available parallelism (the
/// simulations are CPU-bound, so more threads only add switching
/// overhead).
fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1)
}

/// Runs `n` independent tasks on `jobs` worker threads (0 = one per
/// available core) through a shared work queue, returning the results in
/// task order.
///
/// Unlike fixed chunking, the queue keeps every worker busy until the
/// work runs out, so one slow task does not idle the rest of its batch.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn par_indexed<T, F>(n: usize, jobs: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = if jobs == 0 { default_jobs() } else { jobs }.min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, task(i)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("simulation worker panicked")).collect()
    });
    tagged.sort_unstable_by_key(|t| t.0);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Instructions a shared stream prefix extends past its group's longest
/// run: the ones still in flight when that run stops. Fetch runs ahead of
/// commit by at most the reorder buffer plus the fetch queue, well under
/// this on the paper's cores; a run that fetches further continues on the
/// generator.
const STREAM_SLACK: u64 = 1_024;

/// Longest stream prefix a batch generates (2^20 instructions, about
/// 48 MiB): longer runs continue on the generator past it, so a batch
/// holds bounded memory however long its runs are.
const MAX_SHARED_PREFIX: u64 = 1 << 20;

/// Simulates a batch of specs on `jobs` worker threads (0 = one per
/// available core): one result per spec, in input order, each identical
/// to what [`RunSpec::run`] returns for it. Every executor runs its specs
/// through here.
///
/// Repeated work is done once:
///
/// * **Specs.** Specs with the same `Debug` text, the identity the result
///   cache matches on ([`crate::cache`]), are simulated once, and the
///   result is copied to every index that repeats the spec.
/// * **Streams.** Synthetic and family runs that read the same
///   instruction stream (the same generator profile and effective seed)
///   share it. The stream is generated once into a prefix as long as the
///   longest of those runs plus the instructions still in flight when it
///   stops. Each run replays the prefix and then continues on a clone of
///   the generator positioned at its end, so a run that fetches past the
///   prefix still sees the generator's exact sequence. The runs of a
///   stream are queued together and its prefix is dropped after the last
///   of them, so at most `jobs` prefixes are held at once.
///
/// Trace replays, and streams that only one run reads, go through
/// [`RunSpec::run`] unchanged.
///
/// # Panics
///
/// Propagates a panic from any simulation.
pub fn run_batch(specs: &[&RunSpec], jobs: usize) -> Vec<RunResult> {
    run_batch_capped(specs, jobs, MAX_SHARED_PREFIX)
}

/// [`run_batch`] with shared stream prefixes capped at `cap`
/// instructions instead of 2^20. This is a test hook: a cap below a run's
/// length makes that run fetch past the shared prefix onto the generator.
#[doc(hidden)]
pub fn run_batch_capped(specs: &[&RunSpec], jobs: usize, cap: u64) -> Vec<RunResult> {
    let (firsts, slots) = distinct(specs);
    let unique: Vec<&RunSpec> = firsts.iter().map(|&i| specs[i]).collect();
    let results = run_shared(&unique, jobs, cap);
    slots.iter().map(|&k| results[k].clone()).collect()
}

/// Groups a plan by spec identity, the `Debug` text the result cache
/// matches on (not the 64-bit fingerprint alone, which can collide).
/// Returns the first index of each distinct spec, in order of first
/// occurrence, and for every index the position of its spec in that list.
pub(crate) fn distinct(specs: &[&RunSpec]) -> (Vec<usize>, Vec<usize>) {
    let mut position: HashMap<String, usize> = HashMap::with_capacity(specs.len());
    let mut firsts = Vec::new();
    let slots = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            *position.entry(format!("{spec:?}")).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, slots)
}

/// Simulates distinct specs, sharing every generated stream that several
/// of them read (see [`run_batch`]).
fn run_shared(specs: &[&RunSpec], jobs: usize, cap: u64) -> Vec<RunResult> {
    // Runs grouped by stream, in order of first occurrence; every trace
    // replay is a group of its own.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_stream: HashMap<(String, u64), usize> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut new_group = || {
            groups.push(Vec::new());
            groups.len() - 1
        };
        let g = match spec.stream() {
            Stream::Generated(profile, seed) => {
                *by_stream.entry((format!("{profile:?}"), seed)).or_insert_with(new_group)
            }
            Stream::Recorded(_) => new_group(),
        };
        groups[g].push(i);
    }
    let shared: Vec<Option<SharedStream>> = groups
        .iter()
        .map(|runs| match specs[runs[0]].stream() {
            Stream::Generated(profile, seed) if runs.len() > 1 => {
                let longest = runs.iter().map(|&i| specs[i].warmup.saturating_add(specs[i].insts));
                let len = longest.max().unwrap_or(0).saturating_add(STREAM_SLACK).min(cap);
                Some(SharedStream::new(profile, seed, len as usize, runs.len()))
            }
            _ => None,
        })
        .collect();
    // One task per run, a stream's runs consecutive: a worker moves on to
    // the next stream only when every run of the current one has started.
    let tasks: Vec<(usize, usize)> =
        groups.iter().enumerate().flat_map(|(g, runs)| runs.iter().map(move |&i| (g, i))).collect();
    let results = par_indexed(tasks.len(), jobs, |t| {
        let (g, i) = tasks[t];
        match &shared[g] {
            Some(stream) => stream.run(specs[i]),
            None => specs[i].run(),
        }
    });
    let mut ordered: Vec<Option<RunResult>> = vec![None; specs.len()];
    for (&(_, i), result) in tasks.iter().zip(results) {
        ordered[i] = Some(result);
    }
    ordered.into_iter().map(|r| r.expect("every spec has a task")).collect()
}

/// A generated stream that several runs of a batch read: generated by the
/// first of them to start and dropped when the last one finishes.
struct SharedStream {
    profile: BenchProfile,
    seed: u64,
    /// Instructions to generate into the prefix.
    len: usize,
    /// Runs not yet finished, and the prefix while any of them runs.
    state: Mutex<(usize, Option<Arc<Prefix>>)>,
}

/// A generated stream prefix and the generator positioned just past it.
struct Prefix {
    insts: Vec<TraceInst>,
    rest: TraceGenerator,
}

impl SharedStream {
    fn new(profile: BenchProfile, seed: u64, len: usize, runs: usize) -> Self {
        SharedStream { profile, seed, len, state: Mutex::new((runs, None)) }
    }

    /// Simulates `spec` over the stream: the shared prefix, then a clone
    /// of the generator at its end, which together are exactly the
    /// generator's own sequence.
    fn run(&self, spec: &RunSpec) -> RunResult {
        let prefix = {
            let mut state = self.state.lock().expect("stream generation panicked");
            let prefix = state.1.get_or_insert_with(|| {
                let mut rest = TraceGenerator::new(self.profile, self.seed);
                let mut insts = Vec::with_capacity(self.len);
                insts.extend(rest.by_ref().take(self.len));
                Arc::new(Prefix { insts, rest })
            });
            Arc::clone(prefix)
        };
        let result = spec.run_on(prefix.insts.iter().copied().chain(prefix.rest.clone()));
        drop(prefix);
        let mut state = self.state.lock().expect("stream generation panicked");
        state.0 -= 1;
        if state.0 == 0 {
            state.1 = None; // the stream's last run: free the prefix
        }
        result
    }
}

/// Runs a set of specs in parallel (the simulations are independent) on
/// one worker per available core, preserving input order in the output.
pub fn run_suite(specs: &[RunSpec]) -> Vec<RunResult> {
    run_suite_jobs(specs, 0)
}

/// [`run_suite`] with an explicit worker count (0 = one per available
/// core), as selected by `ExperimentOpts::jobs` / `experiments --jobs N`.
/// Goes through [`run_batch`].
pub fn run_suite_jobs(specs: &[RunSpec], jobs: usize) -> Vec<RunResult> {
    run_batch(&specs.iter().collect::<Vec<_>>(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfcache_core::SingleBankConfig;

    fn one_cycle() -> RegFileConfig {
        RegFileConfig::Single(SingleBankConfig::one_cycle())
    }

    #[test]
    fn run_with_warmup_measures_requested_instructions() {
        let r = RunSpec::known("li", one_cycle()).insts(4_000).warmup(2_000).run();
        assert!(r.metrics.committed >= 4_000);
        assert!(r.metrics.committed < 4_000 + 16);
    }

    #[test]
    fn suite_preserves_order_and_parallelism_is_deterministic() {
        let specs: Vec<_> = ["li", "go", "swim"]
            .iter()
            .map(|b| RunSpec::known(b, one_cycle()).insts(2_000).warmup(500))
            .collect();
        let a = run_suite(&specs);
        let b = run_suite(&specs);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].bench, "li");
        assert_eq!(a[2].bench, "swim");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metrics.cycles, y.metrics.cycles);
        }
    }

    #[test]
    fn default_warmup_and_insts_are_shared_with_experiment_opts() {
        // Regression: ad-hoc specs used to warm up 50k while the
        // experiment sweeps (and the CLI docs) said 60k.
        let spec = RunSpec::known("li", one_cycle());
        let opts = crate::experiments::ExperimentOpts::default();
        assert_eq!(spec.warmup, DEFAULT_WARMUP);
        assert_eq!(spec.warmup, opts.warmup);
        assert_eq!(spec.insts, DEFAULT_INSTS);
        assert_eq!(spec.insts, opts.insts);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let spec = RunSpec::known("li", one_cycle());
        assert_eq!(spec.fingerprint(), spec.clone().fingerprint(), "clone must agree");
        // Every field participates: flipping any one changes the hash.
        let base = BenchProfile::by_name("li").unwrap();
        let variants = [
            RunSpec::known("go", one_cycle()),
            spec.clone().insts(spec.insts + 1),
            spec.clone().warmup(spec.warmup + 1),
            spec.clone().seed(spec.seed + 1),
            RunSpec::from_workload(WorkloadSource::Family { base, member: 1 }, one_cycle()),
            RunSpec::from_workload(WorkloadSource::Family { base, member: 2 }, one_cycle()),
        ];
        for v in &variants {
            assert_ne!(spec.fingerprint(), v.fingerprint(), "{v:?}");
        }
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn unknown_bench_is_an_error_not_a_panic() {
        let err = RunSpec::new("quake", one_cycle()).unwrap_err();
        assert!(err.contains("unknown benchmark quake"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark quake")]
    fn known_panics_on_unknown_bench() {
        let _ = RunSpec::known("quake", one_cycle());
    }

    #[test]
    fn trace_workload_replays_and_fingerprints_content() {
        let profile = BenchProfile::by_name("li").unwrap();
        let insts: Vec<_> = TraceGenerator::new(profile, 7).take(3_000).collect();
        let dir = std::env::temp_dir().join(format!("rfct-run-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("li.rfct");
        let mut buf = Vec::new();
        rfcache_workload::write_trace(&mut buf, &insts).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let path_str = path.to_str().unwrap();
        let t = TraceWorkload::load(path_str, Some("li-trace"), false).unwrap();
        assert_eq!(t.insts.len(), 3_000);
        assert!(!format!("{t:?}").contains("pc"), "debug must not dump instructions");

        let spec = RunSpec::from_workload(WorkloadSource::Trace(t.clone()), one_cycle())
            .insts(2_000)
            .warmup(500);
        let r = spec.run();
        assert_eq!(r.bench, "li-trace");
        assert!(r.metrics.committed >= 2_000);
        let fp_a = spec.fingerprint();

        // Same path, different bytes => different fingerprint.
        let insts2: Vec<_> = TraceGenerator::new(profile, 8).take(3_000).collect();
        let mut buf2 = Vec::new();
        rfcache_workload::write_trace(&mut buf2, &insts2).unwrap();
        std::fs::write(&path, &buf2).unwrap();
        let t2 = TraceWorkload::load(path_str, Some("li-trace"), false).unwrap();
        let spec2 =
            RunSpec::from_workload(WorkloadSource::Trace(t2), one_cycle()).insts(2_000).warmup(500);
        assert_ne!(fp_a, spec2.fingerprint(), "content hash must reach the fingerprint");

        // Default label falls back to the file stem; bad paths error.
        let t3 = TraceWorkload::load(path_str, None, true).unwrap();
        assert_eq!(t3.label, "li");
        assert!(t3.fp);
        assert!(TraceWorkload::load("/nonexistent/x.rfct", None, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn family_member_runs_use_the_derived_profile() {
        let base = BenchProfile::by_name("go").unwrap();
        let m0 = RunSpec::from_workload(WorkloadSource::Family { base, member: 0 }, one_cycle())
            .insts(2_000)
            .warmup(500);
        let m1 = RunSpec::from_workload(WorkloadSource::Family { base, member: 1 }, one_cycle())
            .insts(2_000)
            .warmup(500);
        let base_run = RunSpec::from_profile(base, one_cycle()).insts(2_000).warmup(500);
        let (r0, r1, rb) = (m0.run(), m1.run(), base_run.run());
        assert_eq!(r0.bench, "go~0");
        assert_eq!(r1.bench, "go~1");
        assert_ne!(r1.metrics.cycles, rb.metrics.cycles, "member 1 should diverge from the base");
        assert_eq!(r1.metrics.cycles, m1.run().metrics.cycles, "deterministic");
    }

    #[test]
    fn campaign_fingerprint_is_order_and_content_sensitive() {
        let a = RunSpec::known("li", one_cycle());
        let b = RunSpec::known("go", one_cycle());
        let ab = campaign_fingerprint(&[&a, &b]);
        assert_eq!(ab, campaign_fingerprint(&[&a, &b]), "deterministic");
        assert_ne!(ab, campaign_fingerprint(&[&b, &a]), "plan order matters");
        assert_ne!(ab, campaign_fingerprint(&[&a]), "plan length matters");
        let c = a.clone().seed(a.seed + 1);
        assert_ne!(ab, campaign_fingerprint(&[&a, &c]), "spec content matters");
    }

    /// The work queue really fans out: with as many barrier-waiting tasks
    /// as workers, the barrier only releases if every task holds its own
    /// thread simultaneously (each worker takes exactly one task, so this
    /// cannot deadlock).
    #[test]
    fn par_indexed_runs_tasks_on_concurrent_threads() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};

        let jobs = 4;
        let barrier = Barrier::new(jobs);
        let ids = Mutex::new(HashSet::new());
        let out = par_indexed(jobs, jobs, |i| {
            barrier.wait();
            ids.lock().unwrap().insert(std::thread::current().id());
            i * 2
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
        assert_eq!(ids.lock().unwrap().len(), jobs, "expected one thread per worker");
    }

    #[test]
    fn par_indexed_preserves_order_at_any_worker_count() {
        for jobs in [0, 1, 2, 7, 64] {
            let out = par_indexed(17, jobs, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "jobs = {jobs}");
        }
        assert!(par_indexed(0, 3, |i| i).is_empty());
    }

    #[test]
    fn explicit_jobs_match_serial_results() {
        let specs: Vec<_> = ["li", "go"]
            .iter()
            .map(|b| RunSpec::known(b, one_cycle()).insts(2_000).warmup(500))
            .collect();
        let serial = run_suite_jobs(&specs, 1);
        let parallel = run_suite_jobs(&specs, 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.bench, p.bench);
            assert_eq!(s.metrics.cycles, p.metrics.cycles);
        }
    }
}
