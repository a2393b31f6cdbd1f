//! Property-based tests (proptest) on the core data structures and
//! timing invariants.

use proptest::prelude::*;
use rfcache_core::{
    PlanError, PlruTree, PortLimits, ReadPath, RegBitSet, RegFileConfig, SingleBankConfig,
};
use rfcache_isa::PhysReg;
use rfcache_mem::{CacheConfig, SetAssocCache};
use rfcache_pipeline::{Lsq, LsqId, StoreSearch};
use rfcache_workload::{BenchProfile, TraceGenerator};

/// One operation on the load/store queue in `lsq_matches_a_linear_reference`.
#[derive(Debug, Clone, Copy)]
enum LsqStep {
    /// Insert a load or a store at this byte address.
    Load(u64),
    Store(u64),
    /// Address (or data) ready for the live store at this index, modulo
    /// the number of live stores.
    AddressReady(usize),
    DataReady(usize),
    Retire,
}

/// Inserts are two steps in five, so the queue fills up as well as
/// drains. Addresses fall in four 8-byte words.
fn lsq_step() -> impl Strategy<Value = LsqStep> {
    prop_oneof![
        (0u64..32).prop_map(LsqStep::Load),
        (0u64..32).prop_map(LsqStep::Store),
        (0usize..16).prop_map(LsqStep::AddressReady),
        (0usize..16).prop_map(LsqStep::DataReady),
        Just(LsqStep::Retire),
    ]
}

/// The linear reference's copy of one LSQ entry.
struct RefEntry {
    id: LsqId,
    store: bool,
    addr: u64,
    addr_known: bool,
    data_ready: bool,
}

proptest! {
    /// The PLRU victim is never the most recently touched slot, for any
    /// touch sequence and any power-of-two tree size.
    #[test]
    fn plru_never_evicts_most_recent(
        size_pow in 1u32..=5,
        touches in proptest::collection::vec(0usize..32, 1..200),
    ) {
        let slots = 1usize << size_pow;
        let mut plru = PlruTree::new(slots.max(2));
        let mut last = None;
        for t in touches {
            let slot = t % plru.slots();
            plru.touch(slot);
            last = Some(slot);
        }
        if plru.slots() > 1 {
            prop_assert_ne!(plru.victim(), last.unwrap());
        }
    }

    /// A set-associative cache re-accessed at the same address always hits
    /// the second time, regardless of interleaved accesses to other sets.
    #[test]
    fn cache_rehit_within_set_capacity(
        addr in 0u64..(1 << 20),
        others in proptest::collection::vec(0u64..(1 << 20), 0..8),
    ) {
        let config = CacheConfig::spec_dcache();
        let mut cache = SetAssocCache::new(config);
        cache.access(addr, false);
        let set_of = |a: u64| (a / config.line_bytes) % config.num_sets();
        let mut evictions_possible = 0;
        for &o in &others {
            if set_of(o) == set_of(addr) && o / config.line_bytes != addr / config.line_bytes {
                evictions_possible += 1;
            }
            cache.access(o, false);
        }
        if evictions_possible < config.ways {
            prop_assert!(cache.access(addr, false).hit);
        }
    }

    /// Trace generation is a pure function of (profile, seed).
    #[test]
    fn trace_deterministic(seed in 0u64..1000) {
        let p = BenchProfile::by_name("go").unwrap();
        let a: Vec<_> = TraceGenerator::new(p, seed).take(300).collect();
        let b: Vec<_> = TraceGenerator::new(p, seed).take(300).collect();
        prop_assert_eq!(a, b);
    }

    /// Generated instructions are always well-formed: class-consistent
    /// operands, addresses within the data segment, targets recorded.
    #[test]
    fn trace_instructions_well_formed(seed in 0u64..50, bench_idx in 0usize..18) {
        let p = rfcache_workload::suite_all()[bench_idx];
        for inst in TraceGenerator::new(p, seed).take(500) {
            if let Some(dst) = inst.dst {
                prop_assert!(inst.op.is_mem() || dst.class() == inst.sources().next().unwrap().class());
            }
            if inst.op.is_mem() {
                let a = inst.mem_addr.unwrap();
                prop_assert!(a >= p.data_base() && a < p.data_base() + p.data_working_set);
            }
            if inst.op.is_branch() {
                prop_assert!(inst.branch.is_some());
            }
        }
    }

    /// The single-bank model never grants more reads per cycle than it has
    /// read ports, whatever the access pattern.
    #[test]
    fn read_port_budget_is_respected(
        ports in 1u32..4,
        requests in proptest::collection::vec(0u16..16, 1..40),
    ) {
        let config = SingleBankConfig::one_cycle().with_ports(PortLimits::limited(ports, 16));
        let mut rf = RegFileConfig::Single(config).build_model(16);
        rf.begin_cycle(0);
        for i in 0..16u16 {
            let preg = PhysReg::new(i);
            rf.on_alloc(preg);
            rf.schedule_result(preg, 0);
            rf.try_writeback(preg, 0, &RegBitSet::new(0));
        }
        // All values written at cycle 0; at cycle 5 everything is a
        // register-file read. Count how many reads the model grants.
        rf.begin_cycle(5);
        let mut granted = 0u32;
        for r in requests {
            match rf.plan_read(&[PhysReg::new(r)], 5) {
                Ok(plan) => {
                    prop_assert_eq!(plan[0].path, ReadPath::RegFile);
                    rf.commit_read(&plan);
                    granted += 1;
                }
                Err(PlanError::NoReadPort) => {}
                Err(e) => prop_assert!(false, "unexpected error {:?}", e),
            }
        }
        prop_assert!(granted <= ports);
    }

    /// LSQ forwarding always reports the *nearest* older matching store.
    #[test]
    fn lsq_forwards_from_nearest_store(
        n_stores in 1usize..6,
        load_word in 0u64..4,
    ) {
        let mut lsq = Lsq::new(16);
        // Stores at word addresses 0..4, data ready for even sequence
        // numbers only.
        for s in 0..n_stores {
            let addr = (s as u64 % 4) * 8;
            let store = lsq.insert(s as u64, true, addr);
            if s % 2 == 0 {
                lsq.store_data_ready(store);
            } else {
                lsq.store_address_ready(store);
            }
        }
        let load_addr = load_word * 8;
        let load = lsq.insert(n_stores as u64, false, load_addr);
        let nearest = (0..n_stores).rev().find(|s| (*s as u64 % 4) * 8 == load_addr);
        let result = lsq.search_older_stores(load, load_addr);
        match nearest {
            Some(s) if s % 2 == 0 => prop_assert_eq!(result, StoreSearch::Forward),
            Some(_) => prop_assert_eq!(result, StoreSearch::MustWait),
            None => prop_assert_eq!(result, StoreSearch::NoConflict),
        }
    }

    /// The handle-indexed LSQ, with its store-address barrier, answers
    /// every load's questions exactly as a linear walk of the queue does,
    /// under any mix of inserts, store progress and in-order retires.
    #[test]
    fn lsq_matches_a_linear_reference(
        steps in proptest::collection::vec(lsq_step(), 1..120),
    ) {
        let mut lsq = Lsq::new(16);
        let mut reference: Vec<RefEntry> = Vec::new();
        let mut next_seq = 0;
        for step in steps {
            match step {
                LsqStep::Load(addr) | LsqStep::Store(addr) => {
                    if lsq.is_full() {
                        continue;
                    }
                    let store = matches!(step, LsqStep::Store(_));
                    let id = lsq.insert(next_seq, store, addr);
                    reference.push(RefEntry { id, store, addr, addr_known: false, data_ready: false });
                    next_seq += 1;
                }
                LsqStep::AddressReady(pick) | LsqStep::DataReady(pick) => {
                    let stores: Vec<usize> =
                        (0..reference.len()).filter(|&i| reference[i].store).collect();
                    if stores.is_empty() {
                        continue;
                    }
                    let e = &mut reference[stores[pick % stores.len()]];
                    e.addr_known = true;
                    if matches!(step, LsqStep::DataReady(_)) {
                        e.data_ready = true;
                        lsq.store_data_ready(e.id);
                    } else {
                        lsq.store_address_ready(e.id);
                    }
                }
                LsqStep::Retire => {
                    if reference.is_empty() {
                        continue;
                    }
                    lsq.retire(reference.remove(0).id);
                }
            }
            prop_assert_eq!(lsq.len(), reference.len());
            for (i, load) in reference.iter().enumerate().filter(|(_, e)| !e.store) {
                let older = &reference[..i];
                let known = older.iter().all(|e| !e.store || e.addr_known);
                prop_assert_eq!(lsq.prior_store_addresses_known(load.id), known, "load {}", i);
                let word = load.addr >> 3;
                let expected = match older
                    .iter()
                    .rev()
                    .find(|e| e.store && e.addr_known && e.addr >> 3 == word)
                {
                    Some(e) if e.data_ready => StoreSearch::Forward,
                    Some(_) => StoreSearch::MustWait,
                    None => StoreSearch::NoConflict,
                };
                prop_assert_eq!(lsq.search_older_stores(load.id, load.addr), expected, "load {}", i);
            }
        }
    }

    /// Area and access time are monotone in every geometry dimension.
    #[test]
    fn area_model_monotonicity(
        regs_pow in 4u32..9,
        reads in 1u32..16,
        writes in 1u32..8,
    ) {
        use rfcache_area::BankGeometry;
        let regs = 1u32 << regs_pow;
        let g = BankGeometry::new(regs, 64, reads, writes);
        let bigger_regs = BankGeometry::new(regs * 2, 64, reads, writes);
        let more_reads = BankGeometry::new(regs, 64, reads + 1, writes);
        let more_writes = BankGeometry::new(regs, 64, reads, writes + 1);
        prop_assert!(bigger_regs.area_lambda2() > g.area_lambda2());
        prop_assert!(more_reads.area_lambda2() > g.area_lambda2());
        prop_assert!(more_writes.area_lambda2() > g.area_lambda2());
        prop_assert!(bigger_regs.access_time_ns() > g.access_time_ns());
        prop_assert!(more_reads.access_time_ns() > g.access_time_ns());
    }

    /// Every register-file model keeps the same books: whatever the
    /// sequence of protocol calls, under tight port limits, its
    /// write-back, operand and lifetime counters match a tally kept
    /// beside it.
    #[test]
    fn every_model_keeps_the_same_books(
        ops in proptest::collection::vec((0u8..7, 0u16..24), 1..300),
    ) {
        use rfcache_core::{OneLevelBankedConfig, RegFileCacheConfig, ReplicatedBankConfig};
        let kinds = [
            RegFileConfig::Single(SingleBankConfig::one_cycle().with_ports(PortLimits::limited(2, 1))),
            RegFileConfig::Cache(
                RegFileCacheConfig { upper_entries: 4, ..RegFileCacheConfig::paper_default() }
                    .with_ports(2, 1, 1, 1),
            ),
            RegFileConfig::Replicated(ReplicatedBankConfig {
                banks: 2,
                read_ports_per_bank: Some(1),
                remote_write_delay: 1,
            }),
            RegFileConfig::OneLevel(OneLevelBankedConfig {
                banks: 2,
                read_ports_per_bank: Some(1),
                write_ports_per_bank: Some(1),
            }),
        ];
        for config in kinds {
            let mut rf = config.build_model(24);
            let mut now = 0u64;
            rf.begin_cycle(now);
            let mut live = [false; 24];
            let mut scheduled = [false; 24];
            let (mut writebacks, mut operands, mut lifetimes) = (0u64, 0u64, 0u64);
            for &(op, reg) in &ops {
                let (preg, i) = (PhysReg::new(reg), reg as usize);
                match op {
                    0 => {
                        rf.on_alloc(preg);
                        live[i] = true;
                        scheduled[i] = false;
                    }
                    1 if live[i] => {
                        rf.schedule_result(preg, now);
                        scheduled[i] = true;
                    }
                    2 if scheduled[i] => {
                        writebacks += u64::from(rf.try_writeback(preg, now, &RegBitSet::new(0)));
                    }
                    3 | 4 => {
                        let pair = [preg, PhysReg::new((reg + 1) % 24)];
                        match rf.plan_read(&pair[..usize::from(op) - 2], now) {
                            Ok(plan) => {
                                rf.commit_read(&plan);
                                operands += plan.len() as u64;
                            }
                            Err(PlanError::UpperMiss(missing)) => {
                                for &m in missing.iter() {
                                    rf.request_demand(m);
                                }
                            }
                            Err(_) => {}
                        }
                    }
                    5 => {
                        if scheduled[i] {
                            lifetimes += 1;
                        }
                        rf.on_free(preg);
                        live[i] = false;
                        scheduled[i] = false;
                    }
                    6 => {
                        now += 1;
                        rf.begin_cycle(now);
                    }
                    _ => {}
                }
            }
            let s = rf.stats();
            prop_assert_eq!(s.writebacks, writebacks, "{}", config);
            prop_assert_eq!(s.bypass_reads + s.regfile_reads, operands, "{}", config);
            prop_assert_eq!(
                s.values_never_read + s.values_read_once + s.values_read_many,
                lifetimes,
                "{}",
                config
            );
        }
    }

    /// The register bitset is observationally equivalent to a
    /// `HashSet<u16>` under arbitrary insert/remove/contains/iter
    /// sequences (it replaced one on the cycle loop's hot path).
    #[test]
    fn reg_bitset_equivalent_to_hashset(
        capacity in 1usize..200,
        ops in proptest::collection::vec((0u8..4, 0u16..256), 0..300),
    ) {
        use std::collections::HashSet;
        let mut bitset = RegBitSet::new(capacity);
        let mut reference: HashSet<u16> = HashSet::new();
        for (op, raw) in ops {
            let key = raw % capacity as u16;
            match op {
                0 => prop_assert_eq!(bitset.insert(key), reference.insert(key)),
                1 => prop_assert_eq!(bitset.remove(key), reference.remove(&key)),
                2 => prop_assert_eq!(bitset.contains(key), reference.contains(&key)),
                _ => {
                    // Out-of-universe queries are answered, not panicked on.
                    let outside = capacity as u16 + raw;
                    prop_assert!(!bitset.contains(outside));
                    prop_assert!(!bitset.remove(outside));
                }
            }
            prop_assert_eq!(bitset.len(), reference.len());
            prop_assert_eq!(bitset.is_empty(), reference.is_empty());
            let mut sorted: Vec<u16> = reference.iter().copied().collect();
            sorted.sort_unstable();
            prop_assert_eq!(bitset.iter().collect::<Vec<u16>>(), sorted);
        }
        bitset.clear();
        prop_assert!(bitset.is_empty());
        prop_assert_eq!(bitset.iter().count(), 0);
    }

    /// The harmonic mean lies between min and max.
    #[test]
    fn harmonic_mean_bounds(values in proptest::collection::vec(0.01f64..100.0, 1..20)) {
        let h = rfcache_sim::harmonic_mean(&values).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(h >= min - 1e-9 && h <= max + 1e-9);
    }
}
