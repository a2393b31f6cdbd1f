//! Golden-master regression tests: exact cycle counts for fixed
//! (benchmark, architecture, seed) triples.
//!
//! The simulator is fully deterministic, so any change to these numbers
//! means the *timing model changed* — which must be a conscious decision
//! (update the constants in the same commit and record why), never an
//! accident of refactoring. IPC-level tests elsewhere tolerate drift;
//! these do not.

use rfcache_core::{
    CachingPolicy, FetchPolicy, OneLevelBankedConfig, PortLimits, RegFileCacheConfig,
    RegFileConfig, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_pipeline::PipelineConfig;
use rfcache_sim::RunSpec;

struct Golden {
    bench: &'static str,
    rf: RegFileConfig,
    pipeline: PipelineConfig,
    cycles: u64,
    committed: u64,
    mispredicted: u64,
}

fn small_lsq() -> PipelineConfig {
    PipelineConfig { lsq_size: 8, ..PipelineConfig::default() }
}

/// A window and reorder buffer whose sizes are not powers of two.
fn odd_rob() -> PipelineConfig {
    PipelineConfig { window_size: 40, rob_size: 48, ..PipelineConfig::default() }
}

fn goldens() -> Vec<Golden> {
    // Regenerated when the workspace switched to the vendored offline
    // `rand` shim (vendor/rand): the workload RNG stream changed from
    // crates.io SmallRng to xoshiro256++, which shifts every trace and
    // therefore every count. The timing model itself did not change.
    vec![
        Golden {
            bench: "li",
            rf: RegFileConfig::Single(SingleBankConfig::one_cycle()),
            pipeline: PipelineConfig::default(),
            cycles: 10_142,
            committed: 20_003,
            mispredicted: 725,
        },
        Golden {
            bench: "li",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            pipeline: PipelineConfig::default(),
            cycles: 11_133,
            committed: 20_003,
            mispredicted: 725,
        },
        Golden {
            bench: "swim",
            rf: RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass()),
            pipeline: PipelineConfig::default(),
            cycles: 10_920,
            committed: 20_000,
            mispredicted: 130,
        },
        Golden {
            bench: "go",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            pipeline: PipelineConfig::default(),
            cycles: 15_726,
            committed: 20_001,
            mispredicted: 1_268,
        },
        // The other three register-file presets the benchmark runs, on
        // branchy workloads, so a change that shifts every execution mode
        // alike (invisible to the cross-mode byte-diffs) still shows here.
        Golden {
            bench: "gcc",
            rf: RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass()),
            pipeline: PipelineConfig::default(),
            cycles: 18_826,
            committed: 20_003,
            mispredicted: 1_303,
        },
        Golden {
            bench: "gcc",
            rf: RegFileConfig::Replicated(ReplicatedBankConfig::default()),
            pipeline: PipelineConfig::default(),
            cycles: 18_836,
            committed: 20_006,
            mispredicted: 1_303,
        },
        Golden {
            bench: "go",
            rf: RegFileConfig::OneLevel(OneLevelBankedConfig::default()),
            pipeline: PipelineConfig::default(),
            cycles: 14_755,
            committed: 20_002,
            mispredicted: 1_268,
        },
        // Register-file variants the presets above leave unpinned: the
        // ready caching policy (the only reader of the write-back stage's
        // ready-consumer set), on-demand fetch, and port-limited
        // accounting in the cache and the single bank.
        Golden {
            bench: "li",
            rf: RegFileConfig::Cache(
                RegFileCacheConfig::paper_default()
                    .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand),
            ),
            pipeline: PipelineConfig::default(),
            cycles: 13_007,
            committed: 20_000,
            mispredicted: 725,
        },
        Golden {
            bench: "gcc",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default().with_ports(3, 2, 2, 2)),
            pipeline: PipelineConfig::default(),
            cycles: 18_863,
            committed: 20_003,
            mispredicted: 1_303,
        },
        Golden {
            bench: "swim",
            rf: RegFileConfig::Single(
                SingleBankConfig::one_cycle().with_ports(PortLimits::limited(3, 2)),
            ),
            pipeline: PipelineConfig::default(),
            cycles: 9_023,
            committed: 20_000,
            mispredicted: 130,
        },
        Golden {
            bench: "go",
            rf: RegFileConfig::Cache(
                RegFileCacheConfig::paper_default()
                    .with_policies(CachingPolicy::Ready, FetchPolicy::PrefetchFirstPair)
                    .with_ports(4, 3, 2, 3),
            ),
            pipeline: PipelineConfig::default(),
            cycles: 17_871,
            committed: 20_002,
            mispredicted: 1_268,
        },
        // An 8-entry load/store queue: dispatch stalls on a full queue
        // about every other instruction, so loads keep waiting on older
        // store addresses and the issue stage's hold-and-release path for
        // them runs constantly.
        Golden {
            bench: "swim",
            rf: RegFileConfig::Single(SingleBankConfig::one_cycle()),
            pipeline: small_lsq(),
            cycles: 11_714,
            committed: 20_000,
            mispredicted: 130,
        },
        Golden {
            bench: "mgrid",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            pipeline: small_lsq(),
            cycles: 11_191,
            committed: 20_000,
            mispredicted: 61,
        },
        // Reorder buffers whose size is not a power of two, so the
        // per-instruction tables indexed by sequence number have more
        // slots than the buffer has entries. The 12-entry buffer stalls
        // dispatch on 5,235 of its 17,258 cycles, so sequence numbers
        // wrap around its slots constantly.
        Golden {
            bench: "gcc",
            rf: RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            pipeline: odd_rob(),
            cycles: 18_221,
            committed: 20_003,
            mispredicted: 1_303,
        },
        Golden {
            bench: "swim",
            rf: RegFileConfig::OneLevel(OneLevelBankedConfig::default()),
            pipeline: odd_rob(),
            cycles: 8_740,
            committed: 20_000,
            mispredicted: 130,
        },
        Golden {
            bench: "li",
            rf: RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass()),
            pipeline: PipelineConfig {
                window_size: 7,
                rob_size: 12,
                lsq_size: 5,
                ..PipelineConfig::default()
            },
            cycles: 17_258,
            committed: 20_002,
            mispredicted: 725,
        },
    ]
}

#[test]
fn timing_model_is_frozen() {
    for g in goldens() {
        let m = RunSpec::known(g.bench, g.rf)
            .pipeline(g.pipeline)
            .insts(20_000)
            .warmup(5_000)
            .seed(7)
            .run()
            .metrics;
        assert_eq!(
            (m.cycles, m.committed, m.mispredicted),
            (g.cycles, g.committed, g.mispredicted),
            "{} on {} (ROB {}, LSQ {}): timing model changed — if intentional, update this golden",
            g.bench,
            g.rf,
            g.pipeline.rob_size,
            g.pipeline.lsq_size,
        );
    }
}

#[test]
fn misprediction_counts_are_architecture_independent() {
    // The front end sees the same trace whatever the register file is;
    // only the *penalty* differs. Same seed ⇒ same mispredict count.
    let a = RunSpec::known("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
        .insts(20_000)
        .warmup(5_000)
        .seed(7)
        .run();
    let b = RunSpec::known("li", RegFileConfig::Cache(RegFileCacheConfig::paper_default()))
        .insts(20_000)
        .warmup(5_000)
        .seed(7)
        .run();
    assert_eq!(a.metrics.mispredicted, b.metrics.mispredicted);
    assert!(a.metrics.cycles < b.metrics.cycles, "rfc pays for transfers");
}
