//! The register file cache: the paper's two-level multiple-banked
//! organization.
//!
//! All physical registers live in the **lower** bank; a small
//! fully-associative **upper** bank holds the values expected to be needed
//! soon. Functional units read only the upper bank (one cycle) or the
//! single bypass level, so the bypass network stays as cheap as a 1-cycle
//! monolithic file's. Results are always written to the lower bank and —
//! depending on the caching policy — also to the upper bank. Values absent
//! from the upper bank travel upward over a limited number of buses, on
//! demand or by prefetch.

use crate::bitset::RegBitSet;
use crate::config::{CachingPolicy, FetchPolicy, RegFileCacheConfig};
use crate::model::{MissList, PlanError, PregTable, ReadPath, ReadPlan, SourceRead};
use crate::plru::ReplacementState;
use rfcache_isa::{Cycle, PhysReg};
use std::collections::VecDeque;

/// How long a demand-transferred value is protected from eviction after
/// arrival (until first read), bounding the livelock where two operands of
/// one instruction keep evicting each other out of a small upper bank.
const DEMAND_PIN_CYCLES: u64 = 16;

/// Transfer status of one physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Transfer {
    /// No transfer pending.
    #[default]
    None,
    /// Waiting in the demand or prefetch queue.
    Queued,
    /// On a bus; readable from the upper bank at the given cycle.
    InFlight {
        /// First cycle at which an issuing instruction can read the value.
        ready_at: Cycle,
    },
}

/// Timing model of the two-level register file cache.
///
/// # Examples
///
/// Under ready caching a result no waiting instruction reads stays in the
/// lower bank; its consumer misses the upper bank, and a demand transfer
/// brings the value up `lower_latency` cycles after it starts.
///
/// ```
/// use rfcache_core::{
///     CachingPolicy, FetchPolicy, PlanError, RegBitSet, RegFileCacheConfig, RegFileConfig,
/// };
/// use rfcache_isa::PhysReg;
///
/// let config = RegFileCacheConfig::paper_default()
///     .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand);
/// let mut rf = RegFileConfig::Cache(config).build_model(32);
/// let p = PhysReg::new(3);
/// rf.begin_cycle(0);
/// rf.on_alloc(p);
/// rf.schedule_result(p, 2);
/// rf.begin_cycle(3);
/// assert!(rf.try_writeback(p, 3, &RegBitSet::new(32))); // lower bank only
/// assert!(matches!(rf.plan_read(&[p], 3), Err(PlanError::UpperMiss(_))));
/// rf.request_demand(p);
/// rf.begin_cycle(4); // the transfer starts
/// rf.begin_cycle(6); // and lands
/// assert!(rf.plan_read(&[p], 6).is_ok());
/// ```
#[derive(Debug)]
pub(crate) struct RegFileCacheModel {
    config: RegFileCacheConfig,
    transfers: Vec<Transfer>,
    /// Whether each preg currently resides in the upper bank.
    in_upper: Vec<bool>,
    /// Upper bank slots (`None` = free).
    slots: Vec<Option<PhysReg>>,
    /// Slot index of each preg when resident.
    slot_of: Vec<Option<u16>>,
    replacement: ReplacementState,
    free_slots: Vec<u16>,
    /// Demand transfer queue (oldest first).
    demand_queue: VecDeque<PhysReg>,
    /// Prefetch queue, served only when no demand is waiting.
    prefetch_queue: VecDeque<PhysReg>,
    /// Completion cycle of each busy bus (unlimited buses if `None`).
    bus_free_at: Option<Vec<Cycle>>,
    /// In-flight arrivals, ordered by readiness cycle; the flag marks
    /// demand (vs prefetch) transfers.
    arrivals: VecDeque<(Cycle, PhysReg, bool)>,
    /// Eviction protection for freshly demand-transferred values.
    pinned_until: Vec<Cycle>,
    /// Current cycle (for pin checks during insertion).
    now: Cycle,
    reads_used: u32,
    result_writes_used: u32,
    lower_writes_used: u32,
}

impl RegFileCacheModel {
    pub fn new(config: RegFileCacheConfig, phys_regs: usize) -> Self {
        let replacement = ReplacementState::new(config.replacement, config.upper_entries);
        RegFileCacheModel {
            transfers: vec![Transfer::None; phys_regs],
            in_upper: vec![false; phys_regs],
            slots: vec![None; config.upper_entries],
            slot_of: vec![None; phys_regs],
            replacement,
            free_slots: (0..config.upper_entries as u16).rev().collect(),
            demand_queue: VecDeque::new(),
            prefetch_queue: VecDeque::new(),
            bus_free_at: config.buses.map(|b| vec![0; b as usize]),
            arrivals: VecDeque::new(),
            pinned_until: vec![0; phys_regs],
            now: 0,
            reads_used: 0,
            result_writes_used: 0,
            lower_writes_used: 0,
            config,
        }
    }

    /// Inserts `preg` into the upper bank, evicting if necessary.
    fn insert_upper(&mut self, table: &mut PregTable, preg: PhysReg) {
        if self.in_upper[preg.index()] {
            if let Some(slot) = self.slot_of[preg.index()] {
                self.replacement.touch(slot as usize);
            }
            return;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let mut victim_slot = self.replacement.pick_victim() as u16;
                // A freshly demand-transferred value is protected until its
                // consumer reads it (or the pin expires): evicting it would
                // let two operands of one instruction displace each other
                // forever. Fall back to any unpinned slot; if everything is
                // pinned, evict the *most recently pinned* one — demand
                // requests are filed oldest-instruction-first, so the
                // oldest consumer's operands carry the oldest pins and
                // survive, guaranteeing forward progress.
                let pin_of = |s: u16| {
                    self.slots[s as usize]
                        .map(|p| self.pinned_until[p.index()])
                        .filter(|&until| until > self.now)
                };
                if pin_of(victim_slot).is_some() {
                    let slots = 0..self.slots.len() as u16;
                    if let Some(alt) = slots.clone().find(|&s| pin_of(s).is_none()) {
                        victim_slot = alt;
                    } else if let Some(youngest) = slots.max_by_key(|&s| pin_of(s).unwrap_or(0)) {
                        victim_slot = youngest;
                    }
                }
                if let Some(victim) = self.slots[victim_slot as usize] {
                    self.in_upper[victim.index()] = false;
                    self.slot_of[victim.index()] = None;
                    table.stats.evictions += 1;
                }
                victim_slot
            }
        };
        self.slots[slot as usize] = Some(preg);
        self.slot_of[preg.index()] = Some(slot);
        self.in_upper[preg.index()] = true;
        self.replacement.touch(slot as usize);
    }

    /// Removes `preg` from the upper bank without counting an eviction.
    fn remove_upper(&mut self, preg: PhysReg) {
        if let Some(slot) = self.slot_of[preg.index()].take() {
            self.slots[slot as usize] = None;
            self.free_slots.push(slot);
            self.in_upper[preg.index()] = false;
        }
    }

    /// Starts queued transfers on free buses, demands before prefetches.
    fn start_transfers(&mut self, table: &mut PregTable, now: Cycle) {
        loop {
            // Find a free bus (or synthesize one when unlimited).
            let bus_idx = match &self.bus_free_at {
                Some(buses) => match buses.iter().position(|&b| b <= now) {
                    Some(i) => Some(i),
                    None => break, // all buses busy
                },
                None => None,
            };

            // Pop the next startable request, preferring demands. Requests
            // whose preconditions lapsed (freed, already resident) are
            // dropped; requests for values not yet written to the lower
            // bank stay queued.
            let mut candidate = None;
            for queue_is_demand in [true, false] {
                let queue =
                    if queue_is_demand { &mut self.demand_queue } else { &mut self.prefetch_queue };
                let mut scanned = 0;
                while scanned < queue.len() {
                    let preg = queue[scanned];
                    let idx = preg.index();
                    if self.transfers[idx] != Transfer::Queued {
                        queue.remove(scanned); // stale (freed or restarted)
                        continue;
                    }
                    let st = table.state(preg);
                    if !st.live || self.in_upper[idx] {
                        queue.remove(scanned);
                        self.transfers[idx] = Transfer::None;
                        continue;
                    }
                    let written = matches!(st.written_at, Some(w) if w <= now);
                    if !written {
                        // Not yet in the lower bank: leave it queued and
                        // look past it (bounded scan keeps this cheap).
                        scanned += 1;
                        if scanned >= 8 {
                            break;
                        }
                        continue;
                    }
                    queue.remove(scanned);
                    candidate = Some((preg, queue_is_demand));
                    break;
                }
                if candidate.is_some() {
                    break;
                }
            }

            let Some((preg, is_demand)) = candidate else { break };
            let ready_at = now + self.config.lower_latency;
            self.transfers[preg.index()] = Transfer::InFlight { ready_at };
            self.arrivals.push_back((ready_at, preg, is_demand));
            if is_demand {
                table.stats.demand_transfers += 1;
            } else {
                table.stats.prefetch_transfers += 1;
            }
            if let (Some(i), Some(buses)) = (bus_idx, self.bus_free_at.as_mut()) {
                buses[i] = ready_at;
            }
        }
    }

    /// Lands transfers whose values become readable this cycle.
    fn process_arrivals(&mut self, table: &mut PregTable, now: Cycle) {
        while let Some(&(ready_at, preg, is_demand)) = self.arrivals.front() {
            if ready_at > now {
                break;
            }
            self.arrivals.pop_front();
            if self.transfers[preg.index()] == (Transfer::InFlight { ready_at })
                && table.state(preg).live
            {
                self.transfers[preg.index()] = Transfer::None;
                if is_demand {
                    self.pinned_until[preg.index()] = now + DEMAND_PIN_CYCLES;
                }
                self.insert_upper(table, preg);
            }
        }
    }

    pub fn begin_cycle(&mut self, table: &mut PregTable, now: Cycle) {
        self.now = now;
        self.reads_used = 0;
        self.result_writes_used = 0;
        self.lower_writes_used = 0;
        self.process_arrivals(table, now);
        self.start_transfers(table, now);
    }

    /// Drops any upper-bank copy, queued or in-flight transfer and pin of
    /// `preg`: its value's lifetime begins or ends. Queues drop stale
    /// entries lazily.
    pub fn forget(&mut self, preg: PhysReg) {
        self.transfers[preg.index()] = Transfer::None;
        self.pinned_until[preg.index()] = 0;
        self.remove_upper(preg);
    }

    pub fn try_writeback(
        &mut self,
        table: &mut PregTable,
        preg: PhysReg,
        now: Cycle,
        ready: &RegBitSet,
    ) -> bool {
        if let Some(limit) = self.config.lower_write_ports {
            if self.lower_writes_used >= limit {
                table.stats.write_port_stalls += 1;
                return false;
            }
        }
        self.lower_writes_used += 1;
        table.write(preg, now);

        let cache_it = match self.config.caching {
            CachingPolicy::NonBypass => !table.state(preg).bypass_consumed,
            CachingPolicy::Ready => ready.contains(preg.raw()),
        };
        if !cache_it {
            table.stats.policy_skipped += 1;
            return true;
        }
        if let Some(limit) = self.config.upper_write_ports {
            if self.result_writes_used >= limit {
                table.stats.port_skipped += 1;
                return true;
            }
        }
        self.result_writes_used += 1;
        self.insert_upper(table, preg);
        table.stats.cached_results += 1;
        true
    }

    pub fn plan_read(
        &self,
        table: &mut PregTable,
        srcs: &[PhysReg],
        now: Cycle,
    ) -> Result<ReadPlan, PlanError> {
        let mut plan = ReadPlan::new();
        let mut ports_needed = 0;
        let mut missing = MissList::new();
        let mut any_unproduced = false;
        for &preg in srcs {
            let Some(produced) = table.state(preg).produced_at else {
                any_unproduced = true;
                continue;
            };
            if now == produced {
                // Single bypass level: catch the value as it leaves the FU.
                plan.push(SourceRead { preg, path: ReadPath::Bypass });
            } else if now > produced && self.in_upper[preg.index()] {
                ports_needed += 1;
                plan.push(SourceRead { preg, path: ReadPath::RegFile });
            } else if now > produced {
                missing.push(preg);
            } else {
                any_unproduced = true;
            }
        }
        if any_unproduced {
            return Err(PlanError::NotReady);
        }
        if !missing.is_empty() {
            table.stats.upper_miss_stalls += 1;
            return Err(PlanError::UpperMiss(missing));
        }
        if let Some(limit) = self.config.upper_read_ports {
            if self.reads_used + ports_needed > limit {
                table.stats.read_port_stalls += 1;
                return Err(PlanError::NoReadPort);
            }
        }
        Ok(plan)
    }

    pub fn commit_read(&mut self, table: &mut PregTable, plan: &[SourceRead]) {
        for &read in plan {
            table.count_read(read);
            if read.path == ReadPath::RegFile {
                self.reads_used += 1;
                // The pinned value served its consumer; normal
                // replacement applies from here on.
                self.pinned_until[read.preg.index()] = 0;
                if let Some(slot) = self.slot_of[read.preg.index()] {
                    self.replacement.touch(slot as usize);
                }
            }
        }
    }

    pub fn request_demand(&mut self, table: &PregTable, preg: PhysReg) {
        let idx = preg.index();
        if !table.state(preg).live || self.in_upper[idx] || self.transfers[idx] != Transfer::None {
            return;
        }
        self.transfers[idx] = Transfer::Queued;
        self.demand_queue.push_back(preg);
    }

    pub fn request_prefetch(&mut self, table: &mut PregTable, preg: PhysReg) {
        if self.config.fetch != FetchPolicy::PrefetchFirstPair {
            return;
        }
        let idx = preg.index();
        let st = table.state(preg);
        // Values already resident or on their way need no prefetch; values
        // whose production is not even scheduled cannot be located. A
        // produced-but-not-yet-written value may queue: the bus scheduler
        // starts it once the lower-bank write completes.
        if !st.live
            || self.in_upper[idx]
            || self.transfers[idx] != Transfer::None
            || st.produced_at.is_none()
        {
            table.stats.prefetch_dropped += 1;
            return;
        }
        self.transfers[idx] = Transfer::Queued;
        self.prefetch_queue.push_back(preg);
    }

    pub fn debug_operand(&self, table: &PregTable, preg: PhysReg) -> String {
        let idx = preg.index();
        let queue_head: Vec<String> = self
            .demand_queue
            .iter()
            .take(10)
            .map(|p| {
                let i = p.index();
                format!(
                    "p{i}(q={:?},w={},u={},l={})",
                    self.transfers[i],
                    table.state(*p).written_at.is_some(),
                    self.in_upper[i],
                    table.state(*p).live
                )
            })
            .collect();
        format!(
            "in_upper={} transfer={:?} pinned_until={} demand_q={} prefetch_q={} dq_len={} dq_head=[{}]",
            self.in_upper[idx],
            self.transfers[idx],
            self.pinned_until[idx],
            self.demand_queue.iter().filter(|p| p.index() == idx).count(),
            self.prefetch_queue.iter().filter(|p| p.index() == idx).count(),
            self.demand_queue.len(),
            queue_head.join(" "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegFileConfig, Replacement};
    use crate::dispatch::{Model, RegFile};
    use proptest::prelude::*;

    fn preg(i: u16) -> PhysReg {
        PhysReg::new(i)
    }

    fn build(config: RegFileCacheConfig) -> RegFile {
        RegFileConfig::Cache(config).build_model(64)
    }

    fn model() -> RegFile {
        build(RegFileCacheConfig::paper_default())
    }

    /// The cache model inside `rf`.
    fn cache(rf: &mut RegFile) -> &mut RegFileCacheModel {
        match &mut rf.model {
            Model::Cache(m) => m,
            other => unreachable!("a cache configuration built {other:?}"),
        }
    }

    fn in_upper(rf: &mut RegFile, preg: PhysReg) -> bool {
        cache(rf).in_upper[preg.index()]
    }

    fn upper_occupancy(rf: &mut RegFile) -> usize {
        cache(rf).slots.iter().flatten().count()
    }

    /// Takes `preg` out of the upper bank, as an uncounted eviction.
    fn evict(rf: &mut RegFile, preg: PhysReg) {
        cache(rf).remove_upper(preg);
    }

    /// Alloc + schedule + (cycle p+1) writeback, returning at cycle p+1.
    fn produce_and_write(rf: &mut RegFile, r: PhysReg, p: Cycle, ready: &RegBitSet) {
        rf.on_alloc(r);
        rf.schedule_result(r, p);
        rf.begin_cycle(p + 1);
        assert!(rf.try_writeback(r, p + 1, ready));
    }

    #[test]
    fn non_bypassed_value_is_cached_and_readable() {
        let mut rf = model();
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0));
        assert!(in_upper(&mut rf, r));
        let plan = rf.plan_read(&[r], 3).unwrap();
        assert_eq!(plan[0].path, ReadPath::RegFile);
    }

    #[test]
    fn bypass_consumed_value_is_not_cached_under_non_bypass_policy() {
        let mut rf = model();
        let r = preg(0);
        rf.begin_cycle(0);
        rf.on_alloc(r);
        rf.schedule_result(r, 2);
        // A consumer catches it on the bypass at cycle 2 (EX at 3).
        rf.begin_cycle(2);
        let plan = rf.plan_read(&[r], 2).unwrap();
        assert_eq!(plan[0].path, ReadPath::Bypass);
        rf.commit_read(&plan);
        // Write-back next cycle: policy declines to cache it.
        rf.begin_cycle(3);
        assert!(rf.try_writeback(r, 3, &RegBitSet::new(0)));
        assert!(!in_upper(&mut rf, r));
        assert_eq!(rf.stats().policy_skipped, 1);
    }

    #[test]
    fn ready_caching_uses_window_information() {
        let mut ready = RegBitSet::new(64);
        ready.insert(0);
        let cfg = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand);
        let mut rf = build(cfg);
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &ready);
        assert!(in_upper(&mut rf, r));

        // Without a ready consumer the value stays in the lower bank only.
        let mut rf = build(cfg);
        let r = preg(1);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0));
        assert!(!in_upper(&mut rf, r));
    }

    #[test]
    fn upper_miss_reports_missing_registers() {
        let cfg = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand);
        let mut rf = build(cfg);
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0)); // not cached (Ready policy, no consumer)
        rf.begin_cycle(4);
        match rf.plan_read(&[r], 4) {
            Err(PlanError::UpperMiss(missing)) => assert_eq!(missing.as_slice(), &[r]),
            other => panic!("expected UpperMiss, got {other:?}"),
        }
    }

    #[test]
    fn demand_transfer_brings_value_up_after_lower_latency() {
        let cfg = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand)
            .with_ports(16, 8, 8, 2);
        let mut rf = build(cfg);
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0)); // in lower only, written at 3
        rf.request_demand(r);
        // Transfer starts at the next begin_cycle (4); lower latency 2 ⇒
        // readable for issues at cycle 6.
        rf.begin_cycle(4);
        assert!(matches!(rf.plan_read(&[r], 4), Err(PlanError::UpperMiss(_))));
        rf.begin_cycle(5);
        assert!(matches!(rf.plan_read(&[r], 5), Err(PlanError::UpperMiss(_))));
        rf.begin_cycle(6);
        let plan = rf.plan_read(&[r], 6).unwrap();
        assert_eq!(plan[0].path, ReadPath::RegFile);
        assert_eq!(rf.stats().demand_transfers, 1);
    }

    #[test]
    fn limited_buses_serialize_transfers() {
        let cfg = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand)
            .with_ports(16, 8, 8, 1); // single bus
        let mut rf = build(cfg);
        let (a, b) = (preg(0), preg(1));
        rf.on_alloc(a);
        rf.on_alloc(b);
        rf.schedule_result(a, 2);
        rf.schedule_result(b, 2);
        rf.begin_cycle(3);
        assert!(rf.try_writeback(a, 3, &RegBitSet::new(0)));
        assert!(rf.try_writeback(b, 3, &RegBitSet::new(0)));
        rf.request_demand(a);
        rf.request_demand(b);
        // Bus starts a at cycle 4 (ready 6); b must wait for the bus and
        // starts at 6 (ready 8).
        rf.begin_cycle(4);
        rf.begin_cycle(5);
        rf.begin_cycle(6);
        assert!(rf.plan_read(&[a], 6).is_ok());
        assert!(rf.plan_read(&[b], 6).is_err());
        rf.begin_cycle(7);
        assert!(rf.plan_read(&[b], 7).is_err());
        rf.begin_cycle(8);
        assert!(rf.plan_read(&[b], 8).is_ok());
    }

    #[test]
    fn prefetch_only_under_prefetch_policy() {
        let on_demand = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand);
        let mut rf = build(on_demand);
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0));
        rf.request_prefetch(r);
        rf.begin_cycle(10);
        assert!(rf.plan_read(&[r], 10).is_err(), "on-demand config must ignore prefetches");

        let pf = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::PrefetchFirstPair);
        let mut rf = build(pf);
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0));
        rf.request_prefetch(r);
        rf.begin_cycle(4);
        rf.begin_cycle(5);
        rf.begin_cycle(6);
        assert!(rf.plan_read(&[r], 6).is_ok());
        assert_eq!(rf.stats().prefetch_transfers, 1);
    }

    #[test]
    fn prefetch_of_unscheduled_value_is_dropped_but_scheduled_one_queues() {
        let pf = RegFileCacheConfig::paper_default();
        let mut rf = build(pf);
        let r = preg(0);
        rf.on_alloc(r);
        rf.begin_cycle(2);
        rf.request_prefetch(r); // production not even scheduled: dropped
        assert_eq!(rf.stats().prefetch_dropped, 1);

        rf.schedule_result(r, 5);
        rf.request_prefetch(r); // scheduled: queues, starts after WB
        assert_eq!(rf.stats().prefetch_dropped, 1);
        rf.begin_cycle(6);
        assert!(rf.try_writeback(r, 6, &RegBitSet::new(0)));
        evict(&mut rf, r); // undo non-bypass caching to force the transfer
        rf.begin_cycle(7);
        rf.begin_cycle(8);
        rf.begin_cycle(9);
        assert!(rf.plan_read(&[r], 9).is_ok());
        assert_eq!(rf.stats().prefetch_transfers, 1);
    }

    #[test]
    fn demands_have_priority_over_prefetches() {
        let cfg = RegFileCacheConfig::paper_default().with_ports(16, 8, 8, 1);
        let mut rf = build(cfg);
        let (d, p) = (preg(0), preg(1));
        for r in [d, p] {
            rf.on_alloc(r);
            rf.schedule_result(r, 2);
        }
        rf.begin_cycle(3);
        assert!(rf.try_writeback(d, 3, &RegBitSet::new(0)));
        assert!(rf.try_writeback(p, 3, &RegBitSet::new(0)));
        // Both were bypass-free so non-bypass caching already cached them;
        // remove them to force transfers.
        evict(&mut rf, d);
        evict(&mut rf, p);
        rf.request_prefetch(p); // queued first
        rf.request_demand(d);
        rf.begin_cycle(4); // single bus: demand d must win
        rf.begin_cycle(6);
        assert!(rf.plan_read(&[d], 6).is_ok());
        assert!(rf.plan_read(&[p], 6).is_err());
    }

    #[test]
    fn upper_bank_evicts_with_plru_when_full() {
        let cfg = RegFileCacheConfig { upper_entries: 4, ..RegFileCacheConfig::paper_default() };
        let mut rf = build(cfg);
        for i in 0..5u16 {
            let r = preg(i);
            rf.on_alloc(r);
            rf.schedule_result(r, 2 + u64::from(i));
            rf.begin_cycle(3 + u64::from(i));
            assert!(rf.try_writeback(r, 3 + u64::from(i), &RegBitSet::new(0)));
        }
        assert_eq!(upper_occupancy(&mut rf), 4);
        assert_eq!(rf.stats().evictions, 1);
        assert!(!in_upper(&mut rf, preg(0)), "the oldest untouched entry is the PLRU victim");
    }

    #[test]
    fn upper_write_port_exhaustion_skips_caching() {
        let cfg = RegFileCacheConfig::paper_default().with_ports(16, 1, 8, 2);
        let mut rf = build(cfg);
        let (a, b) = (preg(0), preg(1));
        for r in [a, b] {
            rf.on_alloc(r);
            rf.schedule_result(r, 2);
        }
        rf.begin_cycle(3);
        assert!(rf.try_writeback(a, 3, &RegBitSet::new(0)));
        assert!(rf.try_writeback(b, 3, &RegBitSet::new(0))); // lower write ok
        assert!(in_upper(&mut rf, a));
        assert!(!in_upper(&mut rf, b), "second caching write must be dropped");
        assert_eq!(rf.stats().port_skipped, 1);
        assert!(rf.is_written(b), "the lower-bank write still happened");
    }

    #[test]
    fn lower_write_port_exhaustion_defers_writeback() {
        let cfg = RegFileCacheConfig::paper_default().with_ports(16, 8, 1, 2);
        let mut rf = build(cfg);
        let (a, b) = (preg(0), preg(1));
        for r in [a, b] {
            rf.on_alloc(r);
            rf.schedule_result(r, 2);
        }
        rf.begin_cycle(3);
        assert!(rf.try_writeback(a, 3, &RegBitSet::new(0)));
        assert!(!rf.try_writeback(b, 3, &RegBitSet::new(0)));
        rf.begin_cycle(4);
        assert!(rf.try_writeback(b, 4, &RegBitSet::new(0)));
    }

    #[test]
    fn freed_register_disappears_from_upper_bank_and_queues() {
        let mut rf = model();
        let r = preg(0);
        produce_and_write(&mut rf, r, 2, &RegBitSet::new(0));
        assert!(in_upper(&mut rf, r));
        rf.on_free(r);
        assert!(!in_upper(&mut rf, r));
        assert_eq!(upper_occupancy(&mut rf), 0);
        // Freed slot is reusable without eviction.
        let s = preg(1);
        produce_and_write(&mut rf, s, 5, &RegBitSet::new(0));
        assert_eq!(rf.stats().evictions, 0);
    }

    #[test]
    fn demand_arrivals_are_pinned_against_churn() {
        // Livelock regression: with a tiny upper bank under heavy caching
        // churn, a demand-transferred value must survive until its
        // consumer reads it.
        let cfg = RegFileCacheConfig {
            upper_entries: 4,
            ..RegFileCacheConfig::paper_default().with_ports(16, 8, 8, 2)
        };
        let mut rf = build(cfg);
        let target = preg(0);
        rf.on_alloc(target);
        rf.schedule_result(target, 1);
        rf.begin_cycle(2);
        assert!(rf.try_writeback(target, 2, &RegBitSet::new(0)));
        evict(&mut rf, target); // simulate an earlier eviction
        rf.request_demand(target);
        rf.begin_cycle(3); // transfer starts (ready at 5)
        rf.begin_cycle(4);
        rf.begin_cycle(5); // arrival: pinned
        assert!(in_upper(&mut rf, target));
        // Now flood the 4-entry bank with fresh results for several
        // cycles; the pinned value must survive.
        let mut next = 1u16;
        for cycle in 6..10u64 {
            rf.begin_cycle(cycle);
            for _ in 0..3 {
                let p = preg(next);
                next += 1;
                rf.on_alloc(p);
                rf.schedule_result(p, cycle - 1);
                assert!(rf.try_writeback(p, cycle, &RegBitSet::new(0)));
            }
            assert!(in_upper(&mut rf, target), "pinned value evicted at cycle {cycle}");
        }
        // Reading it releases the pin; churn may now evict it.
        rf.begin_cycle(10);
        let plan = rf.plan_read(&[target], 10).unwrap();
        rf.commit_read(&plan);
        for _ in 0..6 {
            let p = preg(next);
            next += 1;
            rf.on_alloc(p);
            rf.schedule_result(p, 9);
            assert!(rf.try_writeback(p, 10, &RegBitSet::new(0)));
        }
        assert!(!in_upper(&mut rf, target), "unpinned value should be evictable again");
    }

    #[test]
    fn fifo_replacement_is_supported() {
        let cfg = RegFileCacheConfig {
            upper_entries: 4,
            replacement: Replacement::Fifo,
            ..RegFileCacheConfig::paper_default()
        };
        let mut rf = build(cfg);
        for i in 0..6u16 {
            let r = preg(i);
            rf.on_alloc(r);
            rf.schedule_result(r, 2 + u64::from(i));
            rf.begin_cycle(3 + u64::from(i));
            assert!(rf.try_writeback(r, 3 + u64::from(i), &RegBitSet::new(0)));
        }
        // FIFO: first two inserted are the first two evicted.
        assert!(!in_upper(&mut rf, preg(0)));
        assert!(!in_upper(&mut rf, preg(1)));
        assert!(in_upper(&mut rf, preg(5)));
    }

    proptest! {
        /// Random protocol sequences never break the register file
        /// cache's invariants: occupancy bounded by capacity, residency
        /// only for live values, and plan_read/commit_read never
        /// panicking.
        #[test]
        fn rfc_protocol_fuzz(ops in proptest::collection::vec((0u8..6, 0u16..24), 1..300)) {
            let cfg = RegFileCacheConfig { upper_entries: 4, ..RegFileCacheConfig::paper_default() }
                .with_ports(2, 1, 2, 1);
            let mut rf = RegFileConfig::Cache(cfg).build_model(24);
            let mut now = 0u64;
            let mut live = [false; 24];
            rf.begin_cycle(now);
            for (op, reg) in ops {
                let preg = PhysReg::new(reg);
                match op {
                    0 => {
                        rf.on_alloc(preg);
                        live[reg as usize] = true;
                    }
                    1 if live[reg as usize] => rf.schedule_result(preg, now),
                    2 if live[reg as usize] => {
                        let _ = rf.try_writeback(preg, now, &RegBitSet::new(0));
                    }
                    3 if live[reg as usize] => {
                        if let Ok(plan) = rf.plan_read(&[preg], now) {
                            rf.commit_read(&plan);
                        }
                    }
                    4 => rf.request_demand(preg),
                    5 => {
                        rf.request_prefetch(preg);
                        rf.on_free(preg);
                        live[reg as usize] = false;
                    }
                    _ => {}
                }
                now += 1;
                rf.begin_cycle(now);
                prop_assert!(upper_occupancy(&mut rf) <= 4);
                for i in 0..24u16 {
                    if in_upper(&mut rf, PhysReg::new(i)) {
                        prop_assert!(live[i as usize], "freed register resident in upper bank");
                    }
                }
            }
        }
    }
}
