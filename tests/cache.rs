//! Property tests for the persistent result cache: arbitrary
//! [`SimMetrics`] must survive a store → lookup round trip bit-exactly,
//! arbitrary single-byte corruption or truncation of the object file
//! must never be served (a miss, or the untouched original — never torn
//! data), the cache-backed executor must fall back to simulating and
//! heal the store, and a plan that repeats a spec must simulate and
//! store it once.

use proptest::prelude::*;
use rfcache_core::{RegFileCacheConfig, RegFileConfig, RegFileStats, SingleBankConfig};
use rfcache_frontend::FetchStats;
use rfcache_pipeline::{OccupancyHistogram, SimMetrics};
use rfcache_sim::executor::{run_shard_cached, Executor as _};
use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::metrics_codec::CampaignHeader;
use rfcache_sim::{Cache, InProcess, RunResult, RunSpec};
use std::path::{Path, PathBuf};

/// A throwaway cache directory unique to this test run.
fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfcache_cachetest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single object file of a one-entry cache.
fn sole_object_file(dir: &Path) -> PathBuf {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(dir.join("objects")).expect("objects dir") {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            files.extend(std::fs::read_dir(shard).unwrap().map(|e| e.unwrap().path()));
        }
    }
    assert_eq!(files.len(), 1, "expected exactly one object file, found {files:?}");
    files.pop().unwrap()
}

// Counter-pool builders in the metrics_codec test idiom: 49 counters
// fill every scalar field, so no field can be silently dropped.

fn rf_stats(next: &mut impl FnMut() -> u64) -> RegFileStats {
    RegFileStats {
        bypass_reads: next(),
        regfile_reads: next(),
        writebacks: next(),
        cached_results: next(),
        policy_skipped: next(),
        port_skipped: next(),
        evictions: next(),
        demand_transfers: next(),
        prefetch_transfers: next(),
        prefetch_dropped: next(),
        read_port_stalls: next(),
        upper_miss_stalls: next(),
        write_port_stalls: next(),
        values_never_read: next(),
        values_read_once: next(),
        values_read_many: next(),
    }
}

fn fetch_stats(next: &mut impl FnMut() -> u64) -> FetchStats {
    FetchStats {
        fetched: next(),
        blocks: next(),
        taken_breaks: next(),
        icache_stalls: next(),
        btb_bubbles: next(),
        branches: next(),
        mispredicted_branches: next(),
    }
}

fn metrics_from(counters: &[u64], hit_rate: Option<f64>, value_counts: Vec<u64>) -> SimMetrics {
    let mut it = counters.iter().copied();
    let mut next = move || it.next().expect("49 counters");
    SimMetrics {
        cycles: next(),
        committed: next(),
        branches: next(),
        mispredicted: next(),
        commit_idle_cycles: next(),
        stall_rob_full: next(),
        stall_window_full: next(),
        stall_no_phys_reg: next(),
        stall_lsq_full: next(),
        stall_branch_limit: next(),
        rf_int: rf_stats(&mut next),
        rf_fp: rf_stats(&mut next),
        fetch: fetch_stats(&mut next),
        dcache_hit_rate: hit_rate,
        occupancy_value: OccupancyHistogram::from_parts(value_counts.clone(), 7),
        occupancy_ready: OccupancyHistogram::from_parts(value_counts, 3),
    }
}

fn spec_for(seed: u64, insts: u64) -> RunSpec {
    bench_spec_for("li", seed, insts)
}

fn bench_spec_for(bench: &str, seed: u64, insts: u64) -> RunSpec {
    RunSpec::known(bench, RegFileConfig::Single(SingleBankConfig::one_cycle()))
        .insts(insts.max(1))
        .warmup(insts / 4)
        .seed(seed)
}

proptest! {
    /// Any metrics stored come back bit-exact: the cache must be a
    /// transparent substitute for running the simulation again.
    #[test]
    fn arbitrary_metrics_round_trip_bit_exact(
        counters in proptest::collection::vec(0u64..=u64::MAX, 49..50),
        hit_kind in 0u32..3,
        hit in 0.0f64..=1.0,
        value_counts in proptest::collection::vec(0u64..=u64::MAX, 0..6),
        seed in 0u64..1_000,
        fp_bit in 0u8..2,
    ) {
        // bench/fp must be consistent with the spec's workload —
        // lookup rejects an entry claiming otherwise — so the draw
        // selects which benchmark the whole round trip uses, not a
        // free bit on the stored side.
        let (bench, fp) = if fp_bit == 1 { ("applu", true) } else { ("li", false) };
        let hit_rate = match hit_kind {
            0 => None,
            1 => Some(hit),
            _ => Some(1.0),
        };
        let dir = temp_cache("roundtrip");
        let cache = Cache::open(&dir).expect("cache opens");
        let spec = bench_spec_for(bench, seed, 2_000);
        let stored =
            RunResult { bench: bench.to_string(), fp, metrics: metrics_from(&counters, hit_rate, value_counts) };
        cache.store(&spec, &stored).expect("store succeeds");
        let fetched = cache.lookup(&spec).expect("fresh store must hit");
        prop_assert_eq!(fetched.bench, stored.bench);
        prop_assert_eq!(fetched.fp, stored.fp);
        prop_assert_eq!(&fetched.metrics, &stored.metrics);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting or truncating the object file at an arbitrary byte must
    /// never surface altered metrics: the lookup either misses or — when
    /// the mutation landed on redundant trailing bytes the reader never
    /// consumed — returns the stored original exactly.
    #[test]
    fn corruption_is_a_miss_never_torn_data(
        counters in proptest::collection::vec(0u64..=u64::MAX, 49..50),
        position_frac in 0.0f64..1.0,
        delta in 1u8..=255,
        truncate_bit in 0u8..2,
    ) {
        let truncate = truncate_bit == 1;
        let dir = temp_cache("corrupt");
        let cache = Cache::open(&dir).expect("cache opens");
        let spec = spec_for(1, 2_000);
        let stored = RunResult {
            bench: "li".to_string(),
            fp: false,
            metrics: metrics_from(&counters, Some(0.5), vec![3, 1]),
        };
        cache.store(&spec, &stored).expect("store succeeds");

        let path = sole_object_file(&dir);
        let mut bytes = std::fs::read(&path).expect("object file reads");
        let position = ((bytes.len() as f64) * position_frac) as usize;
        let position = position.min(bytes.len() - 1);
        if truncate {
            bytes.truncate(position);
        } else {
            bytes[position] = bytes[position].wrapping_add(delta);
        }
        std::fs::write(&path, &bytes).expect("tampering writes");

        match cache.lookup(&spec) {
            None => {}
            Some(r) => {
                prop_assert_eq!(&r.metrics, &stored.metrics, "served metrics differ from stored");
                prop_assert_eq!(r.bench, stored.bench);
                prop_assert_eq!(r.fp, stored.fp);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// After corruption the cache-backed executor must fall back to actually
/// simulating — producing exactly the uncached result — and its store-back
/// must heal the cache for the next lookup.
#[test]
fn executor_falls_back_to_simulating_and_heals_after_corruption() {
    let dir = temp_cache("fallback");
    let spec = spec_for(42, 2_000);
    let baseline = spec.run();

    let executor = InProcess::new(1).with_cache(Cache::open(&dir).expect("cache opens"));
    let first = executor.execute(&[&spec]).expect("in-process execution is infallible");
    assert_eq!(first[0].metrics, baseline.metrics, "cold run must equal a plain simulation");

    // Flip one byte in the middle of the stored entry: the next execute
    // must reject it, re-simulate, and write a valid entry back.
    let path = sole_object_file(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let cache = Cache::open(&dir).expect("cache reopens");
    assert!(cache.lookup(&spec).is_none(), "corrupted entry must read as a miss");
    let second = executor.execute(&[&spec]).expect("in-process execution is infallible");
    assert_eq!(second[0].metrics, baseline.metrics, "fallback must re-simulate exactly");
    let healed = cache.lookup(&spec).expect("store-back must heal the entry");
    assert_eq!(healed.metrics, baseline.metrics);
    assert!(cache.verify().expect("verify reads").is_empty(), "healed cache must verify clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a cold cache used to simulate and store a repeated spec
/// once per plan index. Every cache-backed path now looks up, simulates
/// and stores each distinct spec once, while the session still counts
/// plan indices.
#[test]
fn a_cold_cache_simulates_and_stores_each_repeated_spec_once() {
    let (a, b) = (spec_for(3, 1_500), bench_spec_for("go", 3, 1_500));
    let plan = [&a, &b, &a, &a, &b];
    let reference = [a.run(), b.run()];
    let check = |results: &[RunResult]| {
        for (got, want) in results.iter().zip([0, 1, 0, 0, 1].map(|k| &reference[k])) {
            assert_eq!((&got.bench, &got.metrics), (&want.bench, &want.metrics));
        }
    };
    let session = |cache: &Cache| {
        let s = cache.stats().expect("stats read").last_session.expect("a session was recorded");
        (s.lookups, s.hits, s.stores)
    };

    let dir = temp_cache("dedupe");
    let cache = Cache::open(&dir).expect("cache opens");
    let executor = InProcess::new(2).with_cache(cache.clone());
    check(&executor.execute(&plan).expect("in-process execution is infallible"));
    assert_eq!(session(&cache), (5, 0, 2), "cold: five lookups, two stores");
    assert_eq!(cache.stats().unwrap().entries, 2);
    check(&executor.execute(&plan).expect("in-process execution is infallible"));
    assert_eq!(session(&cache), (5, 5, 0), "warm: every index hits");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = temp_cache("dedupe_shard");
    let cache = Cache::open(&dir).expect("cache opens");
    let opts = ExperimentOpts::smoke();
    let header = CampaignHeader::new(vec!["x".into()], &opts, 0, 1, plan.len());
    let mut out = Vec::new();
    run_shard_cached(&header, &plan, 2, Some(&cache), &mut out).expect("shard writes");
    assert_eq!(session(&cache), (5, 0, 2), "cold shard: five lookups, two stores");
    assert_eq!(cache.stats().unwrap().entries, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (forced shard-key collision): two different specs whose
/// entries land in the same object file must both round-trip — the full
/// stored spec, not the shard key, decides a hit.
#[test]
fn colliding_specs_round_trip_via_full_spec_match() {
    let dir = temp_cache("collide");
    let cache = Cache::with_shard_key(&dir, |_| 0x0bad_cafe).expect("cache opens");
    let a = spec_for(1, 2_000);
    let b = RunSpec::known("compress", RegFileConfig::Cache(RegFileCacheConfig::paper_default()))
        .insts(1_500)
        .warmup(300)
        .seed(9);
    assert_ne!(format!("{a:?}"), format!("{b:?}"), "specs must differ for the test to mean much");

    let result_a = RunResult {
        bench: "li".to_string(),
        fp: false,
        metrics: metrics_from(&[1; 49], None, vec![]),
    };
    let result_b = RunResult {
        bench: "compress".to_string(),
        fp: false,
        metrics: metrics_from(&[2; 49], Some(0.25), vec![5]),
    };
    cache.store(&a, &result_a).expect("store a");
    cache.store(&b, &result_b).expect("store b");

    let fetched_a = cache.lookup(&a).expect("a hits");
    let fetched_b = cache.lookup(&b).expect("b hits");
    assert_eq!(fetched_a.metrics, result_a.metrics, "collision must not cross-serve metrics");
    assert_eq!(fetched_b.metrics, result_b.metrics, "collision must not cross-serve metrics");
    assert_eq!(fetched_a.bench, "li");
    assert_eq!(fetched_b.bench, "compress");

    let stats = cache.stats().expect("stats read");
    assert_eq!((stats.entries, stats.files, stats.collision_files), (2, 1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
