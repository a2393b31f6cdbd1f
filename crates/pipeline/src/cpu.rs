//! The out-of-order core: per-cycle simulation loop.
//!
//! Stage order within one simulated cycle (all widths 8 by default):
//!
//! 1. `begin_cycle` on the register file models (port budgets reset, bus
//!    transfers advance and land).
//! 2. **Execute events**: loads reach their execute stage and access the
//!    data cache / forward from stores; completions mark results produced
//!    and resolve branches. A resolving mispredicted branch restarts
//!    fetch, which stopped right after it.
//! 3. **Commit**: up to `commit_width` finished instructions retire from
//!    the reorder-buffer head; stores update the data cache; superseded
//!    physical registers are freed.
//! 4. **Write-back**: produced results drain through the register file
//!    write ports, oldest first; the caching policy of the register file
//!    cache runs here.
//! 5. **Issue**: the window is scanned oldest-first; instructions whose
//!    operands are obtainable this cycle (bypass or register file read,
//!    ports permitting) and that win a functional unit are issued. Upper-
//!    bank misses file demand transfers; issues trigger
//!    prefetch-first-pair requests.
//! 6. **Dispatch** (decode/rename) and **fetch** refill the window.
//!
//! A result produced at the end of cycle `p` is written back at `p + 1`
//! and its instruction commits no earlier than `p + 2`, giving the 6-stage
//! pipeline of §4.1.

use crate::config::PipelineConfig;
use crate::fu::FuPool;
use crate::lsq::{Lsq, StoreSearch};
use crate::metrics::SimMetrics;
use crate::rename::RenameUnit;
use crate::rob::{InFlight, Rob, SlotId, Stage};
use crate::wheel::EventWheel;
use rfcache_core::{
    FetchPolicy, PlanError, ReadPlan, RegBitSet, RegFile, RegFileConfig, RegFileModel, SourceRead,
    WindowQuery,
};
use rfcache_frontend::{FetchUnit, FetchedInst};
use rfcache_isa::{Cycle, OpClass, PhysReg, RegClass, TraceInst};
use rfcache_mem::DataCache;
use std::collections::VecDeque;

/// Cycles without a commit after which the simulator declares deadlock
/// (a model-protocol bug, not a workload property).
const WATCHDOG_CYCLES: u64 = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A memory instruction reaches its execute (address) stage.
    ExStart,
    /// An instruction's result is produced (end of execute).
    Complete,
}

/// One class's ready-consumer bitset, answering the caching policy's
/// window queries.
struct ClassWindow<'a> {
    set: &'a RegBitSet,
}

impl WindowQuery for ClassWindow<'_> {
    fn has_ready_unissued_consumer(&self, preg: PhysReg) -> bool {
        self.set.contains(preg.raw())
    }
}

/// Sentinel for "no result scheduled yet" in the produced-cycle mirror.
const UNSCHEDULED: Cycle = Cycle::MAX;

/// The simulated processor.
///
/// Construct with a [`PipelineConfig`], a [`RegFileConfig`] (the
/// architecture under study), and a dynamic instruction trace; drive it
/// with [`Cpu::run`]. Each register class gets its own model of the
/// architecture, held as the statically dispatched [`RegFile`] enum.
pub struct Cpu<I: Iterator<Item = TraceInst>> {
    config: PipelineConfig,
    now: Cycle,
    fetch: FetchUnit<I>,
    fetch_buffer: VecDeque<FetchedInst>,
    rename: RenameUnit,
    rob: Rob,
    /// Dense per-ROB-slot "dispatched, unissued" flags — the window
    /// membership test. Set at dispatch and cleared at issue, so a set
    /// bit always means the slot's current occupant is waiting in the
    /// instruction window.
    in_window: Vec<bool>,
    /// Per-ROB-slot copy of the occupant's renamed sources, written at
    /// dispatch and immutable while `in_window` is set. The wakeup logic
    /// reads these without touching the (much larger, scattered) ROB
    /// entries.
    slot_srcs: Vec<[Option<(RegClass, PhysReg)>; 2]>,
    /// Per-ROB-slot copy of the occupant's sequence number (program
    /// order), valid while `in_window` is set.
    slot_seq: Vec<u64>,
    /// Per-class mirror of each physical register's scheduled production
    /// cycle ([`UNSCHEDULED`] when no result is scheduled). Maintained at
    /// the same points the models learn it (`seed_initial`,
    /// `schedule_result`, `on_alloc`), it lets the issue stage reason
    /// about operand readiness without touching model state.
    produced_by: [Vec<Cycle>; 2],
    /// Per-class, per-preg lists of window slots waiting for that
    /// register's result to be scheduled. Filled at dispatch, drained
    /// when `schedule_result` fires. An entry that reads one register
    /// twice is listed twice; `in_eligible` keeps it from entering
    /// `eligible` twice.
    waiters: [Vec<Vec<SlotId>>; 2],
    /// Wakeup calendar: slots whose operands are all scheduled, keyed by
    /// the first cycle the operands could possibly be obtainable.
    wake_wheel: EventWheel<SlotId>,
    /// Entries whose operands are all produced (or within bypass reach),
    /// sorted by sequence number — the only entries the issue scan
    /// visits. An entry stays here until it issues (it may be held up by
    /// ports, functional units, or the LSQ).
    eligible: Vec<(u64, SlotId)>,
    /// Dense "already in `eligible`" flags, preventing duplicate wakeups.
    in_eligible: Vec<bool>,
    /// Number of set `in_window` bits (dispatched, unissued entries).
    unissued: usize,
    /// Mirror of the historical window-vector length: the unissued count
    /// as of the last issue pass plus entries dispatched since. The
    /// dispatch window-full stall compares against this, preserving the
    /// one-cycle lag the explicit window vector had.
    win_len: usize,
    /// Cached `rf[0].read_latency()` (a config constant).
    read_latency: Cycle,
    lsq: Lsq,
    fus: FuPool,
    dcache: DataCache,
    rf: [RegFile; 2],
    wb_queue: VecDeque<SlotId>,
    events: EventWheel<(EventKind, SlotId)>,
    outstanding_branches: usize,
    metrics: SimMetrics,
    last_commit: Cycle,
    /// Cycle at which counters were last reset (warmup end).
    cycle_offset: Cycle,
    /// Scratch: per-class source registers of the instruction being
    /// planned in `issue` (reused every instruction, never allocated).
    srcs_scratch: [Vec<PhysReg>; 2],
    /// Scratch: write-back survivors, swapped with `wb_queue` per cycle.
    wb_scratch: VecDeque<SlotId>,
    /// Scratch: per-class ready-consumer sets for the write-back stage.
    ready_sets: [RegBitSet; 2],
    /// Scratch: per-class occupancy sample sets (Figure 3).
    occ_value: [RegBitSet; 2],
    occ_ready: [RegBitSet; 2],
    /// Whether any model actually prefetches — if not, the
    /// prefetch-first-pair window scan at issue is skipped entirely
    /// (`request_prefetch` would be a no-op anyway).
    prefetch_active: bool,
}

impl<I: Iterator<Item = TraceInst>> Cpu<I> {
    /// Creates a processor running `trace` with the given register file
    /// architecture; the models are seeded with the initial architectural
    /// state here.
    ///
    /// # Panics
    ///
    /// Panics with the violated bound if the configuration fails
    /// [`PipelineConfig::validate`].
    pub fn new(config: PipelineConfig, rf_config: RegFileConfig, trace: I) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid pipeline configuration: {reason}");
        }
        let mut rf =
            [rf_config.build_model(config.phys_regs), rf_config.build_model(config.phys_regs)];
        let prefetch_active =
            rf.iter().any(|m| m.fetch_policy() == Some(FetchPolicy::PrefetchFirstPair));
        let rename = RenameUnit::new(config.phys_regs);
        // The initial architectural state: logical register i lives in
        // physical register i, produced before the program starts.
        let mut produced_by =
            [vec![UNSCHEDULED; config.phys_regs], vec![UNSCHEDULED; config.phys_regs]];
        for class in RegClass::ALL {
            for preg in rename.mapped(class) {
                rf[class.index()].seed_initial(preg);
                produced_by[class.index()][preg.index()] = 0;
            }
        }
        let read_latency = rf[0].read_latency();
        Cpu {
            fetch: FetchUnit::new(config.fetch, trace),
            fetch_buffer: VecDeque::with_capacity(2 * config.fetch.width),
            rename,
            rob: Rob::new(config.rob_size),
            in_window: vec![false; config.rob_size],
            slot_srcs: vec![[None, None]; config.rob_size],
            slot_seq: vec![0; config.rob_size],
            produced_by,
            waiters: [vec![Vec::new(); config.phys_regs], vec![Vec::new(); config.phys_regs]],
            wake_wheel: EventWheel::new(),
            eligible: Vec::with_capacity(config.window_size),
            in_eligible: vec![false; config.rob_size],
            unissued: 0,
            win_len: 0,
            read_latency,
            lsq: Lsq::new(config.lsq_size),
            fus: FuPool::new(config.fu_counts),
            dcache: DataCache::new(config.dcache, config.mshrs),
            rf,
            wb_queue: VecDeque::new(),
            events: EventWheel::new(),
            outstanding_branches: 0,
            metrics: SimMetrics::default(),
            last_commit: 0,
            cycle_offset: 0,
            now: 0,
            srcs_scratch: [Vec::with_capacity(4), Vec::with_capacity(4)],
            wb_scratch: VecDeque::new(),
            ready_sets: [RegBitSet::new(config.phys_regs), RegBitSet::new(config.phys_regs)],
            occ_value: [RegBitSet::new(config.phys_regs), RegBitSet::new(config.phys_regs)],
            occ_ready: [RegBitSet::new(config.phys_regs), RegBitSet::new(config.phys_regs)],
            prefetch_active,
            config,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Resets the run counters (IPC, stall, and occupancy statistics)
    /// while keeping all microarchitectural state — predictor, caches,
    /// upper-bank contents, in-flight instructions. Call after a warmup
    /// run to measure steady-state behaviour, mirroring the paper's
    /// "skipping the initialization part".
    pub fn reset_metrics(&mut self) {
        self.metrics = SimMetrics::default();
        self.cycle_offset = self.now;
        self.last_commit = self.now;
    }

    /// Runs until `insts` instructions have committed (or the trace ends),
    /// returning the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (no commit for 50k cycles) — this
    /// indicates a model bug, never a workload property.
    pub fn run(&mut self, insts: u64) -> SimMetrics {
        while self.metrics.committed < insts {
            self.step();
            if self.fetch_done() && self.rob.is_empty() && self.fetch_buffer.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit < WATCHDOG_CYCLES,
                "deadlock at cycle {}: {} committed\n{}",
                self.now,
                self.metrics.committed,
                self.debug_head_state(),
            );
        }
        let mut m = self.metrics.clone();
        m.cycles = self.now - self.cycle_offset;
        m.rf_int = self.rf[0].stats().clone();
        m.rf_fp = self.rf[1].stats().clone();
        m.fetch = *self.fetch.stats();
        m.dcache_hit_rate = self.dcache.hit_rate();
        m
    }

    fn fetch_done(&mut self) -> bool {
        self.fetch.is_exhausted()
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        self.rf[0].begin_cycle(now);
        self.rf[1].begin_cycle(now);
        self.process_events(now);
        self.commit(now);
        self.writeback(now);
        self.issue(now);
        self.dispatch(now);
        self.do_fetch(now);
        if self.config.occupancy_sampling {
            self.sample_occupancy(now);
        }
        self.now += 1;
    }

    // ----- execute events ---------------------------------------------

    fn process_events(&mut self, now: Cycle) {
        let Some(list) = self.events.take(now) else { return };
        // Memory execute stages first, then completions, preserving order
        // within each kind.
        for &(kind, slot) in list.iter().filter(|(k, _)| *k == EventKind::ExStart) {
            debug_assert_eq!(kind, EventKind::ExStart);
            self.mem_ex_start(slot, now);
        }
        for &(kind, slot) in list.iter().filter(|(k, _)| *k == EventKind::Complete) {
            debug_assert_eq!(kind, EventKind::Complete);
            self.complete(slot, now);
        }
        self.events.recycle(now, list);
    }

    fn schedule(&mut self, cycle: Cycle, kind: EventKind, slot: SlotId) {
        self.events.schedule(self.now, cycle, (kind, slot));
    }

    // ----- operand wakeup ------------------------------------------------

    /// Records that `preg`'s result is scheduled for cycle `done` and
    /// wakes every window entry that was waiting on it. Must be called
    /// wherever a model learns the same fact via `schedule_result`.
    fn note_scheduled(&mut self, class: RegClass, preg: PhysReg, done: Cycle, now: Cycle) {
        self.produced_by[class.index()][preg.index()] = done;
        let mut list = std::mem::take(&mut self.waiters[class.index()][preg.index()]);
        for slot in list.drain(..) {
            self.try_wake(slot, now);
        }
        // Hand the drained buffer back so the list stays allocation-free.
        self.waiters[class.index()][preg.index()] = list;
    }

    /// If `slot` is a live window entry whose sources are all scheduled,
    /// queues it for the issue scan: immediately when the operands could
    /// already be obtainable, else on the wakeup calendar. A repeated
    /// wakeup falls out of the `in_eligible` check; the generation check
    /// guards against a handle whose ROB slot was reused after commit.
    fn try_wake(&mut self, slot: SlotId, now: Cycle) {
        let idx = slot.index as usize;
        if !self.in_window[idx] || self.in_eligible[idx] || self.rob.get(slot).is_none() {
            return;
        }
        let mut latest: Cycle = 0;
        for &(class, preg) in self.slot_srcs[idx].iter().flatten() {
            let done = self.produced_by[class.index()][preg.index()];
            if done == UNSCHEDULED {
                // Still waiting on another source; its wakeup re-runs
                // this check.
                return;
            }
            latest = latest.max(done);
        }
        // The earliest cycle the ready test can pass: `done <= c +
        // read_latency - 1`, i.e. `c >= done - (read_latency - 1)`.
        let ready_at = (latest + 1).saturating_sub(self.read_latency);
        if ready_at <= now {
            self.insert_eligible(slot);
        } else {
            self.wake_wheel.schedule(now, ready_at, slot);
        }
    }

    /// Inserts `slot` into the eligible list at its program-order
    /// position.
    fn insert_eligible(&mut self, slot: SlotId) {
        let idx = slot.index as usize;
        let seq = self.slot_seq[idx];
        let pos = self.eligible.partition_point(|&(s, _)| s < seq);
        self.eligible.insert(pos, (seq, slot));
        self.in_eligible[idx] = true;
    }

    fn mem_ex_start(&mut self, slot: SlotId, now: Cycle) {
        let Some(entry) = self.rob.get(slot) else { return };
        let seq = entry.seq;
        let addr = entry.inst.mem_addr.expect("memory op has an address");
        match entry.inst.op {
            OpClass::Store => {
                // Address and data are ready at the end of this cycle.
                self.lsq.store_address_ready(seq);
                self.complete(slot, now);
            }
            OpClass::Load => {
                let done = match self.lsq.search_older_stores(seq, addr) {
                    StoreSearch::Forward => now + 1,
                    StoreSearch::MustWait => {
                        // Retry next cycle; the producing store completes soon.
                        self.schedule(now + 1, EventKind::ExStart, slot);
                        return;
                    }
                    StoreSearch::NoConflict => {
                        let access = self.dcache.load(addr, now);
                        now + access.latency
                    }
                };
                if let Some((class, preg)) = self.rob.get(slot).and_then(|e| e.dst) {
                    self.rf[class.index()].schedule_result(preg, done);
                    self.note_scheduled(class, preg, done, now);
                }
                self.schedule(done, EventKind::Complete, slot);
            }
            other => unreachable!("non-memory op {other} in mem_ex_start"),
        }
    }

    fn complete(&mut self, slot: SlotId, now: Cycle) {
        let Some(entry) = self.rob.get_mut(slot) else { return };
        if entry.stage >= Stage::Completed {
            return;
        }
        entry.stage = Stage::Completed;
        entry.complete_cycle = Some(now);
        let seq = entry.seq;
        let is_store = entry.inst.op == OpClass::Store;
        let is_branch = entry.inst.op.is_branch();
        let mispredicted = entry.mispredicted;
        let has_dst = entry.dst.is_some();

        if has_dst {
            self.wb_queue.push_back(slot);
        } else {
            // Nothing to write back: the write-back stage is a no-op cycle.
            self.rob.get_mut(slot).expect("checked above").writeback_cycle = Some(now);
        }
        if is_store {
            self.lsq.store_data_ready(seq);
        }
        if is_branch && mispredicted {
            // Fetch stopped right after this branch, so no younger
            // instruction entered the core: resolution only restarts fetch.
            debug_assert!(
                self.fetch_buffer.is_empty() && self.rob.iter().all(|(_, e)| e.seq <= seq),
                "a resolving mispredicted branch must be the youngest instruction"
            );
            self.fetch.redirect(now);
        }
    }

    // ----- commit -------------------------------------------------------

    fn commit(&mut self, now: Cycle) {
        let mut committed_this_cycle = 0;
        while committed_this_cycle < self.config.commit_width {
            let Some(head) = self.rob.head() else { break };
            let entry = self.rob.get(head).expect("head is alive");
            let done = match entry.dst {
                Some(_) => entry.stage == Stage::WrittenBack,
                None => entry.stage >= Stage::Completed,
            };
            let settled = entry.writeback_cycle.is_some_and(|w| w < now);
            if !done || !settled {
                break;
            }
            let entry = self.rob.pop_head().expect("head exists");
            if let Some((class, old)) = entry.old_dst {
                self.rf[class.index()].on_free(old);
                self.rename.release(class, old);
            }
            match entry.inst.op {
                OpClass::Store => {
                    let addr = entry.inst.mem_addr.expect("store has an address");
                    let _ = self.dcache.store(addr, now);
                    self.lsq.remove(entry.seq);
                }
                OpClass::Load => self.lsq.remove(entry.seq),
                OpClass::Branch => {
                    self.outstanding_branches -= 1;
                    self.metrics.branches += 1;
                    if entry.mispredicted {
                        self.metrics.mispredicted += 1;
                    }
                }
                _ => {}
            }
            self.metrics.committed += 1;
            committed_this_cycle += 1;
        }
        if committed_this_cycle == 0 {
            self.metrics.commit_idle_cycles += 1;
        } else {
            self.last_commit = now;
        }
    }

    // ----- write-back ----------------------------------------------------

    /// Collects, per class into `ready_sets`, the registers read by
    /// unissued instructions whose source values are all produced (the
    /// *ready caching* window query, and the data behind Figure 3's
    /// dashed line).
    fn ready_consumer_sets(&mut self, now: Cycle) {
        // Slot order, not program order — the result is a pair of sets,
        // so the iteration order is unobservable. A set `in_window` bit
        // is exactly the old "alive and still `Dispatched`" test.
        for idx in 0..self.in_window.len() {
            if !self.in_window[idx] {
                continue;
            }
            let srcs = &self.slot_srcs[idx];
            let all_ready = srcs
                .iter()
                .flatten()
                .all(|&(class, preg)| self.rf[class.index()].is_produced(preg, now));
            if all_ready {
                for &(class, preg) in srcs.iter().flatten() {
                    self.ready_sets[class.index()].insert(preg.raw());
                }
            }
        }
    }

    fn writeback(&mut self, now: Cycle) {
        // The window scan is only needed by the *ready* caching policy;
        // skip it otherwise (it is the hottest part of the loop). The
        // sets are scratch fields, cleared before each use, so the stage
        // allocates nothing.
        self.ready_sets[0].clear();
        self.ready_sets[1].clear();
        let needs_window = self.rf[0].caching_policy() == Some(rfcache_core::CachingPolicy::Ready);
        if needs_window && !self.wb_queue.is_empty() {
            self.ready_consumer_sets(now);
        }
        let mut blocked = [false; 2];
        let mut remaining = std::mem::take(&mut self.wb_scratch);
        debug_assert!(remaining.is_empty());
        while let Some(slot) = self.wb_queue.pop_front() {
            let entry = self.rob.get(slot).expect("queued results belong to live entries");
            // Results written back the cycle after production at the
            // earliest (distinct pipeline stages).
            let produced = entry.complete_cycle.expect("queued results are produced");
            let (class, preg) = entry.dst.expect("write-back queue entries have results");
            let ci = class.index();
            if produced >= now || blocked[ci] {
                remaining.push_back(slot);
                continue;
            }
            let window = ClassWindow { set: &self.ready_sets[ci] };
            if self.rf[ci].try_writeback(preg, now, &window) {
                let entry = self.rob.get_mut(slot).expect("alive");
                entry.stage = Stage::WrittenBack;
                entry.writeback_cycle = Some(now);
            } else {
                blocked[ci] = true;
                remaining.push_back(slot);
            }
        }
        // The drained queue becomes next cycle's scratch; the survivors
        // become the queue.
        std::mem::swap(&mut self.wb_queue, &mut remaining);
        self.wb_scratch = remaining;
    }

    // ----- issue ---------------------------------------------------------

    fn issue(&mut self, now: Cycle) {
        // Snap the window-length mirror: the historical window vector was
        // compacted here, leaving exactly the entries that were unissued
        // at scan start.
        self.win_len = self.unissued;
        // Pull in entries whose operands become reachable this cycle.
        if let Some(list) = self.wake_wheel.take(now) {
            for &slot in list.iter() {
                let idx = slot.index as usize;
                if self.in_window[idx] && !self.in_eligible[idx] && self.rob.get(slot).is_some() {
                    self.insert_eligible(slot);
                }
            }
            self.wake_wheel.recycle(now, list);
        }
        if self.eligible.is_empty() {
            return;
        }
        let latency = self.read_latency;
        let ex_start = now + latency;
        // No model can make an operand obtainable at `now` unless its
        // result is scheduled to be produced by this cycle (bypass in the
        // baseline admits results up to `read_latency - 1` cycles ahead;
        // every other model requires production at or before `now`). The
        // mirror test below is therefore a necessary condition for
        // `operand_obtainable`; entries enter `eligible` exactly when it
        // first passes, so the scan visits every candidate the historical
        // full-window scan would have acted on, in the same program
        // order.
        let ready_horizon = ex_start - 1;
        let mut issued = 0;
        let mut keep = 0;
        for ei in 0..self.eligible.len() {
            let (seq_key, slot) = self.eligible[ei];
            let idx = slot.index as usize;
            debug_assert!(self.in_window[idx], "eligible entries wait in the window");
            self.eligible[keep] = (seq_key, slot);
            keep += 1;
            if issued >= self.config.issue_width {
                // Issue width exhausted: the rest of the pass only
                // compacts.
                continue;
            }

            // An eligible entry's operands stay scheduled: a source preg
            // cannot be reallocated (which would reset the mirror) until
            // its consumer commits, and issue precedes commit. So
            // readiness, once reached, is permanent.
            debug_assert!(
                !self.slot_srcs[idx]
                    .iter()
                    .flatten()
                    .any(|&(class, preg)| self.produced_by[class.index()][preg.index()]
                        > ready_horizon),
                "eligible entry regressed to waiting"
            );

            let entry = self.rob.get(slot).expect("in-window bit implies a live entry");
            let seq = entry.seq;
            let op = entry.inst.op;

            // Loads wait until all prior store addresses are known.
            if op == OpClass::Load && !self.lsq.prior_store_addresses_known(seq) {
                continue;
            }

            // No obtainability pre-check: `plan_read` classifies each
            // operand itself and its not-ready path touches no model
            // state, so planning directly avoids classifying twice.
            // Split sources by register class into the reused scratch
            // buffers.
            self.srcs_scratch[0].clear();
            self.srcs_scratch[1].clear();
            for &(class, preg) in self.slot_srcs[idx].iter().flatten() {
                self.srcs_scratch[class.index()].push(preg);
            }
            let dst = entry.dst;

            // Classes with no sources skip the model call entirely: every
            // model's `plan_read` is a no-op returning an empty plan for
            // an empty source list.
            let plan_int = if self.srcs_scratch[0].is_empty() {
                Ok(ReadPlan::new())
            } else {
                self.rf[0].plan_read(&self.srcs_scratch[0], now)
            };
            let plan_fp = if self.srcs_scratch[1].is_empty() {
                Ok(ReadPlan::new())
            } else {
                self.rf[1].plan_read(&self.srcs_scratch[1], now)
            };
            let (plan_int, plan_fp) = match (plan_int, plan_fp) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    self.file_demand_requests(a, b, now);
                    continue;
                }
            };

            // Functional unit for the execute stage.
            if !self.fus.reserve(op.fu_kind(), ex_start, op.exec_latency()) {
                continue;
            }

            self.commit_reads(&plan_int, &plan_fp, now);
            let entry = self.rob.get_mut(slot).expect("alive");
            entry.stage = Stage::Issued;
            entry.issue_cycle = Some(now);
            self.in_window[idx] = false;
            self.in_eligible[idx] = false;
            self.unissued -= 1;
            keep -= 1;

            // The prefetch peek must precede `note_scheduled`, which
            // drains the waiter list it reads. Model state for the
            // prefetched operand is disjoint from the destination's, so
            // the model sees the same requests either way.
            if self.prefetch_active {
                if let Some((class, preg)) = dst {
                    self.prefetch_first_pair(class, preg, now);
                }
            }

            match op {
                OpClass::Load | OpClass::Store => {
                    self.schedule(ex_start, EventKind::ExStart, slot);
                }
                _ => {
                    let done = ex_start + op.exec_latency() - 1;
                    if let Some((class, preg)) = dst {
                        self.rf[class.index()].schedule_result(preg, done);
                        // `done` is at least `ex_start`, so consumers wake
                        // through the calendar, never mid-scan.
                        self.note_scheduled(class, preg, done, now);
                    }
                    self.schedule(done, EventKind::Complete, slot);
                }
            }
            issued += 1;
        }
        self.eligible.truncate(keep);
    }

    fn commit_reads(&mut self, plan_int: &[SourceRead], plan_fp: &[SourceRead], now: Cycle) {
        if !plan_int.is_empty() {
            self.rf[0].commit_read(plan_int, now);
        }
        if !plan_fp.is_empty() {
            self.rf[1].commit_read(plan_fp, now);
        }
    }

    /// Files demand transfer requests for operands that are produced but
    /// absent from the upper bank — only when *no* operand is still
    /// unproduced (the paper's fetch-on-demand condition).
    fn file_demand_requests(
        &mut self,
        int: Result<ReadPlan, PlanError>,
        fp: Result<ReadPlan, PlanError>,
        now: Cycle,
    ) {
        if matches!(int, Err(PlanError::NotReady)) || matches!(fp, Err(PlanError::NotReady)) {
            return;
        }
        for (class, result) in [(0usize, int), (1usize, fp)] {
            if let Err(PlanError::UpperMiss(missing)) = result {
                for &preg in missing.iter() {
                    self.rf[class].request_demand(preg, now);
                }
            }
        }
    }

    /// The prefetch-first-pair heuristic: when an instruction producing
    /// `dst` issues, prefetch the other source operand of the first
    /// instruction in the window that consumes `dst`.
    fn prefetch_first_pair(&mut self, class: RegClass, dst: PhysReg, now: Cycle) {
        // Every live in-window consumer of `dst` sits in its waiter list:
        // `dst` stays unscheduled from allocation until this issue (loads:
        // until execute), so each consumer registered at dispatch — in
        // program order. The first live entry is therefore exactly what
        // the historical program-order window walk found, without touching
        // the ROB. A handle whose ROB slot was reused after commit fails
        // the liveness checks and is skipped.
        let first = self.waiters[class.index()][dst.index()]
            .iter()
            .copied()
            .find(|&s| self.in_window[s.index as usize] && self.rob.get(s).is_some());
        let Some(slot) = first else { return };
        let srcs = &self.slot_srcs[slot.index as usize];
        let target = srcs.iter().flatten().find(|&&(c, p)| !(c == class && p == dst)).copied();
        if let Some((oclass, opreg)) = target {
            self.rf[oclass.index()].request_prefetch(opreg, now);
        }
    }

    // ----- dispatch (decode + rename) -------------------------------------

    fn dispatch(&mut self, now: Cycle) {
        for _ in 0..self.config.decode_width {
            let Some(fetched) = self.fetch_buffer.front().copied() else { break };
            let inst = fetched.inst;

            if self.rob.is_full() {
                self.metrics.stall_rob_full += 1;
                break;
            }
            if self.win_len >= self.config.window_size {
                self.metrics.stall_window_full += 1;
                break;
            }
            if inst.op.is_mem() && self.lsq.is_full() {
                self.metrics.stall_lsq_full += 1;
                break;
            }
            if inst.op.is_branch() && self.outstanding_branches >= self.config.max_branches {
                self.metrics.stall_branch_limit += 1;
                break;
            }
            if let Some(dst) = inst.dst {
                if self.rename.free_count(dst.class()) == 0 {
                    self.metrics.stall_no_phys_reg += 1;
                    break;
                }
            }

            self.fetch_buffer.pop_front();
            let slot = self.rob.push(fetched.seq, inst);
            // Rename sources before allocating the destination (an
            // instruction may read the register it overwrites).
            let mut srcs = [None, None];
            for (i, src) in inst.srcs.iter().enumerate() {
                if let Some(arch) = src {
                    srcs[i] = Some((arch.class(), self.rename.lookup(*arch)));
                }
            }
            let mut dst_pair = None;
            let mut old_pair = None;
            if let Some(arch) = inst.dst {
                let alloc = self.rename.allocate(arch).expect("free list checked above");
                dst_pair = Some((arch.class(), alloc.new_preg));
                old_pair = Some((arch.class(), alloc.old_preg));
                self.rf[arch.class().index()].on_alloc(alloc.new_preg);
                self.produced_by[arch.class().index()][alloc.new_preg.index()] = UNSCHEDULED;
            }

            let entry = self.rob.get_mut(slot).expect("just pushed");
            entry.srcs = srcs;
            entry.dst = dst_pair;
            entry.old_dst = old_pair;
            entry.mispredicted = fetched.mispredicted;
            if inst.op.is_branch() {
                self.outstanding_branches += 1;
            }
            if inst.op.is_mem() {
                self.lsq.insert(
                    fetched.seq,
                    inst.op == OpClass::Store,
                    inst.mem_addr.expect("memory op has an address"),
                );
            }
            let idx = slot.index as usize;
            self.slot_srcs[idx] = srcs;
            self.slot_seq[idx] = fetched.seq;
            self.in_window[idx] = true;
            self.unissued += 1;
            self.win_len += 1;
            // Wire up the wakeup: wait on every source whose result is
            // not yet scheduled, or queue for issue directly.
            let mut waiting = false;
            for &(class, preg) in srcs.iter().flatten() {
                if self.produced_by[class.index()][preg.index()] == UNSCHEDULED {
                    self.waiters[class.index()][preg.index()].push(slot);
                    waiting = true;
                }
            }
            if !waiting {
                self.try_wake(slot, now);
            }
        }
    }

    /// Formats one reorder-buffer entry for
    /// [`debug_snapshot`](Cpu::debug_snapshot).
    fn format_rob_entry(entry: &InFlight) -> String {
        let dst = entry.dst.map(|(c, p)| format!("{c}:{p}")).unwrap_or_else(|| "-".to_string());
        let srcs: Vec<String> = entry.sources().map(|(c, p)| format!("{c}:{p}")).collect();
        format!(
            "[{:>6}] {:<12} {:<8?} dst {:<8} srcs [{}]{}",
            entry.seq,
            entry.inst.op.to_string(),
            entry.stage,
            dst,
            srcs.join(", "),
            if entry.mispredicted { " MISPREDICTED" } else { "" },
        )
    }

    fn do_fetch(&mut self, now: Cycle) {
        if self.fetch_buffer.len() + self.config.fetch.width <= 2 * self.config.fetch.width {
            self.fetch.fetch_block_into(now, &mut self.fetch_buffer);
        }
    }

    // ----- instrumentation -------------------------------------------------

    /// Figure 3 sampling: count registers whose produced value feeds an
    /// unissued instruction (solid line) and those feeding a fully-ready
    /// unissued instruction (dashed line).
    fn sample_occupancy(&mut self, now: Cycle) {
        for ci in 0..2 {
            self.occ_value[ci].clear();
            self.occ_ready[ci].clear();
        }
        // Slot order; both occupancy measures are sets, so iteration
        // order is unobservable.
        for idx in 0..self.in_window.len() {
            if !self.in_window[idx] {
                continue;
            }
            let mut all_ready = true;
            for &(class, preg) in self.slot_srcs[idx].iter().flatten() {
                if self.rf[class.index()].is_produced(preg, now) {
                    self.occ_value[class.index()].insert(preg.raw());
                } else {
                    all_ready = false;
                }
            }
            if all_ready {
                for &(class, preg) in self.slot_srcs[idx].iter().flatten() {
                    self.occ_ready[class.index()].insert(preg.raw());
                }
            }
        }
        self.metrics.occupancy_value.record(self.occ_value[0].len() + self.occ_value[1].len());
        self.metrics.occupancy_ready.record(self.occ_ready[0].len() + self.occ_ready[1].len());
    }

    /// Renders the reorder-buffer head and its operand states for the
    /// deadlock watchdog's panic message.
    fn debug_head_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let Some(head) = self.rob.head() else { return "ROB empty".into() };
        let Some(entry) = self.rob.get(head) else { return "ROB head stale".into() };
        let _ = writeln!(
            out,
            "head: seq {} {:?} {} (issue {:?}, complete {:?}, wb {:?})",
            entry.seq,
            entry.stage,
            entry.inst.op,
            entry.issue_cycle,
            entry.complete_cycle,
            entry.writeback_cycle
        );
        for (class, preg) in entry.sources() {
            let rf = &self.rf[class.index()];
            let _ = writeln!(
                out,
                "  src {class}:{preg} produced={} written={} obtainable={} {}",
                rf.is_produced(preg, self.now),
                rf.is_written(preg),
                rf.operand_obtainable(preg, self.now),
                rf.debug_operand(preg),
            );
        }
        out
    }

    /// Renders a human-readable snapshot of the machine state: the
    /// reorder buffer contents with stages and renamed operands, queue
    /// occupancies, and free-list levels. Intended for interactive
    /// debugging and teaching; not called on the simulation fast path.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {} | ROB {}/{} | window {} | LSQ {} | wb-queue {} | free regs int {} fp {}",
            self.now,
            self.rob.len(),
            self.config.rob_size,
            self.win_len,
            self.lsq.len(),
            self.wb_queue.len(),
            self.rename.free_count(RegClass::Int),
            self.rename.free_count(RegClass::Fp),
        );
        for (_, entry) in self.rob.iter().take(24) {
            let _ = writeln!(out, "  {}", Self::format_rob_entry(entry));
        }
        if self.rob.len() > 24 {
            let _ = writeln!(out, "  ... {} more", self.rob.len() - 24);
        }
        out
    }

    /// Debug invariant: every physical register is either free or mapped/
    /// in flight — no leaks, no double-frees. Cheap enough for tests only.
    #[doc(hidden)]
    pub fn check_register_accounting(&self) {
        for class in RegClass::ALL {
            let free = self.rename.free_count(class);
            let mut live: std::collections::HashSet<u16> =
                self.rename.mapped(class).map(|p| p.raw()).collect();
            for (_, entry) in self.rob.iter() {
                if let Some((c, p)) = entry.dst {
                    if c == class {
                        live.insert(p.raw());
                    }
                }
                if let Some((c, p)) = entry.old_dst {
                    if c == class {
                        live.insert(p.raw());
                    }
                }
            }
            assert!(
                free + live.len() == self.config.phys_regs,
                "{class}: {free} free + {} live != {}",
                live.len(),
                self.config.phys_regs
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfcache_core::{
        CachingPolicy, FetchPolicy, RegFileCacheConfig, ReplicatedBankConfig, SingleBankConfig,
    };
    use rfcache_workload::{BenchProfile, TraceGenerator};

    /// The scenario engine moves whole CPUs across worker threads; a
    /// non-`Send` field sneaking in (e.g. an `Rc` in a model) must fail
    /// here, at compile time, not in the engine.
    #[test]
    fn cpu_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Cpu<TraceGenerator>>();
    }

    fn run_arch(rf: RegFileConfig, bench: &str, insts: u64) -> SimMetrics {
        let profile = BenchProfile::by_name(bench).unwrap();
        let trace = TraceGenerator::new(profile, 1234);
        let mut cpu = Cpu::new(PipelineConfig::default(), rf, trace);
        let m = cpu.run(insts);
        cpu.check_register_accounting();
        m
    }

    fn one_cycle() -> RegFileConfig {
        RegFileConfig::Single(SingleBankConfig::one_cycle())
    }

    fn two_cycle_1byp() -> RegFileConfig {
        RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass())
    }

    fn two_cycle_full() -> RegFileConfig {
        RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass())
    }

    fn rfc() -> RegFileConfig {
        RegFileConfig::Cache(RegFileCacheConfig::paper_default())
    }

    #[test]
    fn commits_exactly_the_requested_instructions() {
        let m = run_arch(one_cycle(), "li", 5_000);
        assert!(m.committed >= 5_000);
        assert!(m.committed < 5_000 + 8, "commit width bounds the overshoot");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_arch(one_cycle(), "gcc", 3_000);
        let b = run_arch(one_cycle(), "gcc", 3_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.mispredicted, b.mispredicted);
    }

    #[test]
    fn ipc_is_plausible() {
        for bench in ["compress", "mgrid"] {
            let m = run_arch(one_cycle(), bench, 8_000);
            assert!(m.ipc() > 0.5, "{bench}: {}", m.ipc());
            assert!(m.ipc() <= 8.0, "{bench}: {}", m.ipc());
        }
    }

    #[test]
    fn one_cycle_beats_two_cycle_single_bypass() {
        for bench in ["go", "li"] {
            let fast = run_arch(one_cycle(), bench, 8_000);
            let slow = run_arch(two_cycle_1byp(), bench, 8_000);
            assert!(
                fast.ipc() > slow.ipc(),
                "{bench}: 1-cycle {} vs 2-cycle/1-bypass {}",
                fast.ipc(),
                slow.ipc()
            );
        }
    }

    #[test]
    fn full_bypass_beats_single_bypass_at_two_cycles() {
        for bench in ["go", "compress"] {
            let full = run_arch(two_cycle_full(), bench, 8_000);
            let single = run_arch(two_cycle_1byp(), bench, 8_000);
            assert!(
                full.ipc() >= single.ipc(),
                "{bench}: full {} vs single {}",
                full.ipc(),
                single.ipc()
            );
        }
    }

    #[test]
    fn register_file_cache_sits_between_one_and_two_cycle() {
        for bench in ["li", "m88ksim"] {
            let one = run_arch(one_cycle(), bench, 8_000);
            let two = run_arch(two_cycle_1byp(), bench, 8_000);
            let cache = run_arch(rfc(), bench, 8_000);
            assert!(
                cache.ipc() <= one.ipc() * 1.02,
                "{bench}: rfc {} should not beat 1-cycle {}",
                cache.ipc(),
                one.ipc()
            );
            assert!(
                cache.ipc() > two.ipc() * 0.98,
                "{bench}: rfc {} should be at least near 2-cycle {}",
                cache.ipc(),
                two.ipc()
            );
        }
    }

    /// Runs on every register-file model, so the debug-build check in
    /// `complete` (a resolving mispredicted branch is the youngest
    /// instruction) fires under each one.
    #[test]
    fn branches_resolve_and_mispredict() {
        let models = [
            one_cycle(),
            two_cycle_full(),
            rfc(),
            RegFileConfig::Replicated(ReplicatedBankConfig::default()),
            RegFileConfig::OneLevel(rfcache_core::OneLevelBankedConfig::default()),
        ];
        for rf in models {
            // Warm the predictor first (the paper skips initialization
            // too); a cold gshare on 900 static sites mispredicts far
            // above its steady-state rate.
            let profile = BenchProfile::by_name("go").unwrap();
            let trace = TraceGenerator::new(profile, 1234);
            let mut cpu = Cpu::new(PipelineConfig::default(), rf, trace);
            cpu.run(30_000);
            cpu.reset_metrics();
            let m = cpu.run(15_000);
            assert!(m.branches > 1_000, "{rf}: go is branchy: {}", m.branches);
            let rate = m.branch_mispredict_rate().unwrap();
            assert!(rate > 0.02, "{rf}: go must mispredict noticeably: {rate}");
            assert!(rate < 0.35, "{rf}: rate implausible: {rate}");
        }
    }

    #[test]
    fn fp_benchmark_exercises_fp_register_file() {
        let m = run_arch(rfc(), "swim", 8_000);
        assert!(m.rf_fp.writebacks > 1_000, "swim writes fp results: {:?}", m.rf_fp.writebacks);
        assert!(m.rf_int.writebacks > 0);
    }

    #[test]
    fn rfc_uses_transfers_and_caching() {
        let m = run_arch(rfc(), "li", 8_000);
        let rf = m.rf_combined();
        assert!(rf.cached_results > 0, "caching policy must cache some results");
        assert!(rf.policy_skipped > 0, "bypass-consumed values must be skipped");
        assert!(
            rf.demand_transfers + rf.prefetch_transfers > 0,
            "some operands must come from the lower bank"
        );
    }

    #[test]
    fn read_at_most_once_statistic_matches_paper_ballpark() {
        let m = run_arch(one_cycle(), "gcc", 15_000);
        let frac = m.rf_combined().read_at_most_once_fraction().unwrap();
        // The paper reports 88% (int) / 85% (fp); accept a generous band.
        assert!((0.6..=0.99).contains(&frac), "read-at-most-once {frac}");
    }

    #[test]
    fn occupancy_sampling_records_histograms() {
        let profile = BenchProfile::by_name("li").unwrap();
        let trace = TraceGenerator::new(profile, 7);
        let config = PipelineConfig::default().with_occupancy_sampling();
        let mut cpu = Cpu::new(config, one_cycle(), trace);
        let m = cpu.run(4_000);
        assert!(m.occupancy_value.samples() > 100);
        assert_eq!(m.occupancy_value.samples(), m.occupancy_ready.samples());
        // Ready values are a subset of live values.
        assert!(m.occupancy_ready.percentile(0.9) <= m.occupancy_value.percentile(0.9));
    }

    #[test]
    fn replicated_banks_run_and_commit() {
        let m = run_arch(RegFileConfig::Replicated(ReplicatedBankConfig::default()), "perl", 5_000);
        assert!(m.ipc() > 0.5);
    }

    #[test]
    fn ready_caching_policy_runs() {
        let cfg = RegFileCacheConfig::paper_default()
            .with_policies(CachingPolicy::Ready, FetchPolicy::OnDemand);
        let m = run_arch(RegFileConfig::Cache(cfg), "compress", 6_000);
        assert!(m.ipc() > 0.3);
        assert!(m.rf_combined().cached_results > 0);
    }

    #[test]
    fn smaller_window_does_not_crash_and_reduces_ilp() {
        let profile = BenchProfile::by_name("mgrid").unwrap();
        let big = {
            let mut cpu = Cpu::new(
                PipelineConfig::default().with_window(128),
                one_cycle(),
                TraceGenerator::new(profile, 3),
            );
            cpu.run(6_000)
        };
        let small = {
            let mut cpu = Cpu::new(
                PipelineConfig::default().with_window(16),
                one_cycle(),
                TraceGenerator::new(profile, 3),
            );
            cpu.run(6_000)
        };
        assert!(big.ipc() >= small.ipc(), "big {} vs small {}", big.ipc(), small.ipc());
    }

    #[test]
    fn fewer_phys_regs_reduce_ipc() {
        let profile = BenchProfile::by_name("mgrid").unwrap();
        let many = {
            let mut cpu = Cpu::new(
                PipelineConfig::default().with_phys_regs(128),
                one_cycle(),
                TraceGenerator::new(profile, 3),
            );
            cpu.run(6_000)
        };
        let few = {
            let mut cpu = Cpu::new(
                PipelineConfig::default().with_phys_regs(48),
                one_cycle(),
                TraceGenerator::new(profile, 3),
            );
            cpu.run(6_000)
        };
        assert!(many.ipc() > few.ipc(), "128 regs {} vs 48 regs {}", many.ipc(), few.ipc());
    }

    #[test]
    fn debug_snapshot_renders_in_flight_state() {
        let profile = BenchProfile::by_name("gcc").unwrap();
        let mut cpu =
            Cpu::new(PipelineConfig::default(), one_cycle(), TraceGenerator::new(profile, 1));
        for _ in 0..50 {
            cpu.step();
        }
        let snap = cpu.debug_snapshot();
        assert!(snap.contains("cycle 50"), "{snap}");
        assert!(snap.contains("ROB"), "{snap}");
        assert!(snap.contains("srcs ["), "{snap}");
    }

    #[test]
    fn port_limited_single_bank_loses_ipc() {
        use rfcache_core::PortLimits;
        let unlimited = run_arch(one_cycle(), "ijpeg", 6_000);
        let limited = run_arch(
            RegFileConfig::Single(
                SingleBankConfig::one_cycle().with_ports(PortLimits::limited(2, 1)),
            ),
            "ijpeg",
            6_000,
        );
        assert!(
            limited.ipc() < unlimited.ipc(),
            "limited {} vs unlimited {}",
            limited.ipc(),
            unlimited.ipc()
        );
    }
}
