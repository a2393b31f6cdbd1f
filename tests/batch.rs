//! The batch primitive under every executor: `run_batch(specs, jobs)[i]`
//! must be exactly `specs[i].run()`, whatever the plan repeats, which
//! runs are prefixes of one trajectory, which streams its runs share, how
//! far a run fetches past a shared prefix, and how many workers run it.
//!
//! Every executor (and so `tests/campaign.rs`, on both sides of its
//! comparison) goes through the batch; only this test holds it against
//! the unshared reference path, `RunSpec::run`.

use proptest::prelude::*;
use rfcache_core::{
    OneLevelBankedConfig, RegFileCacheConfig, RegFileConfig, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_pipeline::{Cpu, PipelineConfig};
use rfcache_sim::{run_batch, run_batch_capped, RunResult, RunSpec, TraceWorkload, WorkloadSource};
use rfcache_workload::{BenchProfile, TraceGenerator};
use std::sync::OnceLock;

fn one_cycle() -> RegFileConfig {
    RegFileConfig::Single(SingleBankConfig::one_cycle())
}

fn family(base: &str, member: u32) -> WorkloadSource {
    WorkloadSource::Family { base: BenchProfile::by_name(base).unwrap(), member }
}

/// How many specs [`pool`] holds.
const POOL_SIZE: usize = 16;

/// The specs plans are drawn from, kept short so the debug build
/// simulates hundreds of plans quickly. Streams several of them share:
/// li seed 1 (five runs with different register files and different
/// warmup/insts), go~1 seed 3 (three runs), and go seed 3, which `go~0`
/// seed 3 reads too (member 0 is the base profile with the seed
/// unfolded), so a synthetic and a family spec share a stream. li
/// seed 2 and swim seed 5 are streams of one run. The recorded li trace
/// is replayed under four seeds, which it ignores: two of its replays
/// differ only in seed, so the batch simulates them once.
///
/// Three pairs differ only in `insts`, so each pair is one trajectory:
/// a generated one (li seed 1, entries 0 and 13), a family one (go~1
/// seed 3, entries 5 and 14) and a replayed one whose seeds differ too
/// (entries 10 and 15). The generated pairs' longer runs go past 900
/// instructions, the largest prefix cap the property draws below, so a
/// capped trajectory fetches past its shared prefix.
fn pool() -> &'static [RunSpec] {
    static POOL: OnceLock<Vec<RunSpec>> = OnceLock::new();
    POOL.get_or_init(|| {
        let trace = TraceWorkload::load("ci/fixtures/li.rfct", Some("li-trace"), false)
            .expect("the committed trace fixture loads");
        let rfc = RegFileConfig::Cache(RegFileCacheConfig::paper_default());
        let two_cycle = RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass());
        let replicated = RegFileConfig::Replicated(ReplicatedBankConfig::default());
        let onelevel = RegFileConfig::OneLevel(OneLevelBankedConfig::default());
        vec![
            RunSpec::known("li", one_cycle()).warmup(100).insts(400).seed(1),
            RunSpec::known("li", rfc).warmup(100).insts(400).seed(1),
            RunSpec::known("li", one_cycle()).warmup(0).insts(700).seed(1),
            RunSpec::known("li", two_cycle).warmup(250).insts(300).seed(1),
            RunSpec::known("li", one_cycle()).warmup(100).insts(400).seed(2),
            RunSpec::from_workload(family("go", 1), one_cycle()).warmup(100).insts(500).seed(3),
            RunSpec::from_workload(family("go", 1), replicated).warmup(50).insts(400).seed(3),
            RunSpec::known("go", onelevel).warmup(100).insts(400).seed(3),
            RunSpec::from_workload(family("go", 0), rfc).warmup(0).insts(600).seed(3),
            RunSpec::known("swim", onelevel).warmup(100).insts(400).seed(5),
            RunSpec::from_workload(WorkloadSource::Trace(trace.clone()), one_cycle())
                .warmup(100)
                .insts(500)
                .seed(42),
            RunSpec::from_workload(WorkloadSource::Trace(trace.clone()), rfc)
                .warmup(100)
                .insts(500)
                .seed(7),
            RunSpec::from_workload(WorkloadSource::Trace(trace.clone()), one_cycle())
                .warmup(100)
                .insts(500)
                .seed(9),
            RunSpec::known("li", one_cycle()).warmup(100).insts(1_100).seed(1),
            RunSpec::from_workload(family("go", 1), one_cycle()).warmup(100).insts(1_000).seed(3),
            RunSpec::from_workload(WorkloadSource::Trace(trace), one_cycle())
                .warmup(100)
                .insts(900)
                .seed(11),
        ]
    })
}

/// `RunSpec::run` of every pool entry, computed once.
fn reference() -> &'static [RunResult] {
    static REFERENCE: OnceLock<Vec<RunResult>> = OnceLock::new();
    REFERENCE.get_or_init(|| pool().iter().map(RunSpec::run).collect())
}

fn assert_same(got: &RunResult, want: &RunResult) -> Result<(), String> {
    if got.bench != want.bench || got.fp != want.fp || got.metrics != want.metrics {
        return Err(format!(
            "{} (fp {}) != {} (fp {}), or their metrics differ",
            got.bench, got.fp, want.bench, want.fp
        ));
    }
    Ok(())
}

proptest! {
    /// Each case draws a plan from the pool (with a forced duplicate when
    /// it is not empty) and a prefix cap: `None` is `run_batch` itself,
    /// and a cap below a run's warmup + insts makes that run fetch past
    /// the shared prefix onto the generator.
    #[test]
    fn batch_results_equal_unshared_runs(
        picks in proptest::collection::vec(0..POOL_SIZE, 0..7),
        repeat in 0..8usize,
        cap in prop_oneof![Just(None), Just(Some(0u64)), (1..900u64).prop_map(Some)],
    ) {
        let mut picks = picks;
        if !picks.is_empty() {
            picks.push(picks[repeat % picks.len()]);
        }
        let specs: Vec<&RunSpec> = picks.iter().map(|&p| &pool()[p]).collect();
        for jobs in [1, 2, 4] {
            let results = match cap {
                None => run_batch(&specs, jobs),
                Some(cap) => run_batch_capped(&specs, jobs, cap),
            };
            prop_assert_eq!(results.len(), specs.len());
            for (i, (&p, got)) in picks.iter().zip(&results).enumerate() {
                if let Err(e) = assert_same(got, &reference()[p]) {
                    prop_assert!(false, "jobs {}, cap {:?}, index {} (pool {}): {}", jobs, cap, i, p, e);
                }
            }
        }
    }
}

#[test]
fn an_empty_batch_returns_no_results() {
    for jobs in [0, 1, 2, 4] {
        assert!(run_batch(&[], jobs).is_empty());
        assert!(run_batch_capped(&[], jobs, 0).is_empty());
    }
}

/// The whole pool at once, every entry twice: all sharing paths in one
/// batch, at the default worker count as well.
#[test]
fn the_whole_pool_twice_over_equals_unshared_runs() {
    let specs: Vec<&RunSpec> = pool().iter().chain(pool()).collect();
    for jobs in [0, 3] {
        let results = run_batch(&specs, jobs);
        for (i, got) in results.iter().enumerate() {
            assert_same(got, &reference()[i % pool().len()]).unwrap_or_else(|e| panic!("{i}: {e}"));
        }
    }
}

/// A trajectory whose stream other trajectories share, capped between its
/// two lengths: the shorter run stays inside the shared prefix and the
/// longer one fetches past it onto the generator.
#[test]
fn a_trajectory_fetches_past_a_capped_prefix() {
    let specs = [&pool()[0], &pool()[13], &pool()[1]];
    for jobs in [1, 2] {
        let results = run_batch_capped(&specs, jobs, 600);
        for (got, p) in results.iter().zip([0, 13, 1]) {
            assert_same(got, &reference()[p]).unwrap_or_else(|e| panic!("jobs {jobs}: {e}"));
        }
    }
}

/// The property every trajectory rests on: `Cpu::run` counts commits
/// since the last `reset_metrics`, so `run(n1)` and then `run(n2)` on one
/// CPU return what `run(n1)` and `run(n2)` return on two fresh ones, with
/// and without a warmup, on each of the five register-file models of the
/// benchmark's cycle loop.
#[test]
fn cpu_run_resumes_where_the_last_call_stopped() {
    let models = [
        one_cycle(),
        RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass()),
        RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
        RegFileConfig::Replicated(ReplicatedBankConfig::default()),
        RegFileConfig::OneLevel(OneLevelBankedConfig::default()),
    ];
    for rf in models {
        for (bench, seed, warmup) in [("gcc", 1, 500), ("swim", 7, 0)] {
            let profile = BenchProfile::by_name(bench).unwrap();
            let warmed = || {
                let mut cpu =
                    Cpu::new(PipelineConfig::default(), rf, TraceGenerator::new(profile, seed));
                if warmup > 0 {
                    cpu.run(warmup);
                    cpu.reset_metrics();
                }
                cpu
            };
            let mut cpu = warmed();
            let (short, long) = (cpu.run(1_500), cpu.run(3_000));
            assert_eq!(short, warmed().run(1_500), "{bench} on {rf:?}");
            assert_eq!(long, warmed().run(3_000), "{bench} on {rf:?}");
        }
    }
}
