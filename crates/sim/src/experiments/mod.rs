//! One module per figure and table of the paper's evaluation (§2 and §4).
//!
//! Every experiment exposes `plan(&ExperimentOpts) -> Vec<RunSpec>` and a
//! `scenario()` registry entry pairing that planner with the assembler
//! that folds the results into the experiment's `<FigureData>` report;
//! [`Scenario::run`](crate::scenario::Scenario::run) runs one end to end.
//! The reports carry the raw series (for the tests) and render the
//! paper's rows via `Display`. The `experiments` binary in
//! `rfcache-bench` dispatches through the scenario registry.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`fig1`] | IPC vs number of physical registers (48–256) |
//! | [`fig2`] | 1-cycle vs 2-cycle register files, bypass levels |
//! | [`fig3`] | cumulative distribution of live/needed register values |
//! | [`readstats`] | §3: fraction of values read at most once |
//! | [`fig5`] | register-file-cache caching × fetch policies |
//! | [`fig6`] | register file cache vs single bank, one bypass level |
//! | [`fig7`] | register file cache vs two-cycle full bypass |
//! | [`fig8`] | relative performance vs area (Pareto frontiers) |
//! | [`table2`] | C1–C4 port configurations: area and cycle time |
//! | [`fig9`] | instruction throughput with cycle time factored in |
//! | [`ablation`] | beyond the paper: upper-bank size, replacement, buses |
//! | [`onelevel`] | beyond the paper (§6 future work): one-level banked organization |
//! | [`sources`] | beyond the paper: operand-source and transfer-traffic breakdown |

pub mod ablation;
pub mod compare;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod onelevel;
pub mod readstats;
pub mod sources;
pub mod table2;

use rfcache_core::{
    CachingPolicy, FetchPolicy, RegFileCacheConfig, RegFileConfig, SingleBankConfig,
};

/// Common experiment options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOpts {
    /// Measured instructions per benchmark.
    pub insts: u64,
    /// Warmup instructions per benchmark (excluded from the counters).
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
    /// Reduced sweeps for smoke tests (affects fig8's port grid and the
    /// per-suite benchmark subsets of the heavyweight experiments).
    pub quick: bool,
    /// Worker threads for the benchmark sweeps (0 = one per available
    /// core); [`Scenario::run`](crate::scenario::Scenario::run) routes a
    /// scenario's specs through [`crate::run_suite_jobs`] with this count.
    pub jobs: usize,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            insts: crate::run::DEFAULT_INSTS,
            warmup: crate::run::DEFAULT_WARMUP,
            seed: 42,
            quick: false,
            jobs: 0,
        }
    }
}

impl ExperimentOpts {
    /// Small configuration for tests: two orders of magnitude fewer
    /// instructions and reduced sweeps.
    pub fn smoke() -> Self {
        ExperimentOpts { insts: 3_000, warmup: 500, seed: 42, quick: true, jobs: 0 }
    }

    /// Sets the worker-thread count (builder-style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// The non-pipelined 1-cycle single-banked baseline (unlimited ports).
pub fn one_cycle() -> RegFileConfig {
    RegFileConfig::Single(SingleBankConfig::one_cycle())
}

/// The 2-cycle single-banked file with a single bypass level.
pub fn two_cycle_single_bypass() -> RegFileConfig {
    RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass())
}

/// The 2-cycle single-banked file with a full bypass network.
pub fn two_cycle_full_bypass() -> RegFileConfig {
    RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass())
}

/// A register file cache with the given policies (unlimited bandwidth).
pub fn rfc(caching: CachingPolicy, fetch: FetchPolicy) -> RegFileConfig {
    RegFileConfig::Cache(RegFileCacheConfig::paper_default().with_policies(caching, fetch))
}

/// The paper's best register-file-cache configuration: non-bypass caching
/// with prefetch-first-pair.
pub fn rfc_best() -> RegFileConfig {
    rfc(CachingPolicy::NonBypass, FetchPolicy::PrefetchFirstPair)
}

/// Runs one experiment at [`ExperimentOpts::smoke`] scale through its
/// planner and assembler, returning the typed report its tests inspect.
#[cfg(test)]
pub(crate) fn smoke_run<T>(
    plan: fn(&ExperimentOpts) -> Vec<crate::RunSpec>,
    assemble: fn(&ExperimentOpts, Vec<crate::RunResult>) -> T,
) -> T {
    let opts = ExperimentOpts::smoke();
    assemble(&opts, crate::run_suite_jobs(&plan(&opts), opts.jobs))
}

/// Benchmarks used by the heavyweight sweeps: the full suites normally, a
/// representative subset in quick mode.
pub(crate) fn sweep_suites(opts: &ExperimentOpts) -> (Vec<&'static str>, Vec<&'static str>) {
    if opts.quick {
        (vec!["gcc", "li"], vec!["mgrid", "swim"])
    } else {
        (
            vec!["compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"],
            vec![
                "applu", "apsi", "fpppp", "hydro2d", "mgrid", "su2cor", "swim", "tomcatv",
                "turb3d", "wave5",
            ],
        )
    }
}
