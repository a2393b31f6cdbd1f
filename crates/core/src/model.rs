//! The cycle-accurate protocol between the out-of-order core and a
//! register file model, plus state shared by all implementations.
//!
//! # Timing contract
//!
//! * An instruction **issues** at cycle `c` and starts executing at
//!   `c + read_latency()`; its result is **produced** at the end of its
//!   execute stage (cycle `p`), which the core announces via
//!   [`RegFileModel::schedule_result`] as soon as `p` is known.
//! * The core retires produced results through a write-back queue: each
//!   cycle it offers them oldest-first via [`RegFileModel::try_writeback`];
//!   the model accepts as many as it has write ports, records the value as
//!   *written* (readable by reads starting that same cycle — write-before-
//!   read), and applies its caching policy.
//! * To issue an instruction the core calls [`RegFileModel::plan_read`]
//!   with the source registers; the model answers how each operand would be
//!   obtained at this cycle (bypass network or register file read) or that
//!   the instruction cannot issue yet (operand unavailable or read ports
//!   exhausted). If the core goes ahead it calls
//!   [`RegFileModel::commit_read`], which consumes ports and marks
//!   bypass-consumed values.
//! * The core must call [`RegFileModel::begin_cycle`] exactly once per
//!   cycle, before any other call of that cycle, with a strictly
//!   increasing cycle number.

use crate::config::{CachingPolicy, FetchPolicy};
use rfcache_isa::{Cycle, PhysReg};
use std::fmt;

/// How one source operand will be obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Caught from the bypass network (consumes no read port).
    #[default]
    Bypass,
    /// Read from the register file (upper bank for the register file
    /// cache); consumes one read port.
    RegFile,
}

/// One planned operand read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceRead {
    /// The physical register read.
    pub preg: PhysReg,
    /// The path the value takes.
    pub path: ReadPath,
}

/// A fixed-capacity inline list: the allocation-free carrier for read
/// plans and miss lists on the per-instruction issue path. Instructions
/// have at most two sources, so the capacity is never a constraint; it
/// dereferences to a slice, so call sites index and iterate as before.
///
/// # Panics
///
/// [`push`](SmallList::push) panics when the list is full — plans are
/// bounded by the ISA's source count, so overflow is a logic error.
#[derive(Clone, Copy)]
pub struct SmallList<T: Copy + Default, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    /// An empty list.
    #[inline]
    pub fn new() -> Self {
        SmallList { len: 0, items: [T::default(); N] }
    }

    /// Appends an element.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallList<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallList<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = SmallList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

/// The planned operand reads of one instruction (at most two sources).
pub type ReadPlan = SmallList<SourceRead, 4>;

/// The operands an [`PlanError::UpperMiss`] wants transferred.
pub type MissList = SmallList<PhysReg, 4>;

/// Why an instruction cannot issue this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Some operand's value cannot be obtained this cycle on any path
    /// (not yet produced, or in an availability hole awaiting write-back).
    NotReady,
    /// All operand values exist, but the listed ones are absent from the
    /// upper bank (register file cache only). The core should file demand
    /// transfer requests for them.
    UpperMiss(MissList),
    /// Operands are readable but the cycle's read ports are exhausted.
    NoReadPort,
}

/// Window information the caching policies need at write-back time. The
/// out-of-order core implements this over its issue queue.
pub trait WindowQuery {
    /// Whether some not-yet-issued instruction in the window uses `preg`
    /// as a source and has **all** of its source values produced.
    fn has_ready_unissued_consumer(&self, preg: PhysReg) -> bool;
}

/// A [`WindowQuery`] that reports no consumers; useful in unit tests and
/// for policies that do not need window information.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullWindow;

impl WindowQuery for NullWindow {
    fn has_ready_unissued_consumer(&self, _preg: PhysReg) -> bool {
        false
    }
}

/// Statistics accumulated by a register file model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegFileStats {
    /// Operands delivered by the bypass network.
    pub bypass_reads: u64,
    /// Operands delivered by register file (upper bank) reads.
    pub regfile_reads: u64,
    /// Results written back (to the lower/main bank).
    pub writebacks: u64,
    /// Results additionally written to the upper bank (cached).
    pub cached_results: u64,
    /// Results not cached because the caching policy declined.
    pub policy_skipped: u64,
    /// Results not cached because no upper write port was free.
    pub port_skipped: u64,
    /// Upper-bank evictions.
    pub evictions: u64,
    /// Demand transfers started.
    pub demand_transfers: u64,
    /// Prefetch transfers started.
    pub prefetch_transfers: u64,
    /// Prefetch requests dropped (value already cached, in flight, or not
    /// yet written to the lower bank).
    pub prefetch_dropped: u64,
    /// Issue attempts rejected for want of a read port.
    pub read_port_stalls: u64,
    /// Issue attempts rejected because an operand was absent from the
    /// upper bank (register file cache only).
    pub upper_miss_stalls: u64,
    /// Write-backs deferred for want of a write port.
    pub write_port_stalls: u64,
    /// Values freed having been read exactly zero times.
    pub values_never_read: u64,
    /// Values freed having been read exactly once.
    pub values_read_once: u64,
    /// Values freed having been read more than once.
    pub values_read_many: u64,
}

impl RegFileStats {
    /// Fraction of freed values read at most once (the §3 statistic: 88%
    /// for SpecInt95, 85% for SpecFP95).
    pub fn read_at_most_once_fraction(&self) -> Option<f64> {
        let total = self.values_never_read + self.values_read_once + self.values_read_many;
        (total > 0).then(|| (self.values_never_read + self.values_read_once) as f64 / total as f64)
    }

    /// Fraction of operands obtained from the bypass network.
    pub fn bypass_fraction(&self) -> Option<f64> {
        let total = self.bypass_reads + self.regfile_reads;
        (total > 0).then(|| self.bypass_reads as f64 / total as f64)
    }
}

impl fmt::Display for RegFileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} bypass / {} regfile; {} writebacks ({} cached); {} demand + {} prefetch transfers",
            self.bypass_reads,
            self.regfile_reads,
            self.writebacks,
            self.cached_results,
            self.demand_transfers,
            self.prefetch_transfers
        )
    }
}

/// The cycle-accurate register file protocol. See the module documentation
/// for the timing contract.
/// `Send` is a supertrait so whole CPUs (which box models as
/// `dyn RegFileModel`) can move across threads — the scenario engine runs
/// independent simulations on a worker pool.
pub trait RegFileModel: Send {
    /// Issue → execute distance in cycles.
    fn read_latency(&self) -> u64;

    /// Starts cycle `now`: resets per-cycle port budgets and advances
    /// internal machinery (e.g. bus transfers).
    fn begin_cycle(&mut self, now: Cycle);

    /// A physical register was allocated at rename; its previous life (if
    /// any) is over.
    fn on_alloc(&mut self, preg: PhysReg);

    /// Seeds `preg` with an architectural value that exists before the
    /// simulation starts (the initial mapping of the logical registers):
    /// live, produced and written at cycle 0, resident only in the main
    /// (lower) bank.
    fn seed_initial(&mut self, preg: PhysReg);

    /// The producer of `preg` will finish executing at the end of cycle
    /// `produced_at`.
    fn schedule_result(&mut self, preg: PhysReg, produced_at: Cycle);

    /// Offers the produced value of `preg` for write-back at cycle `now`.
    /// Returns `false` when no write port is free this cycle (the core
    /// retries next cycle). On success the model applies its caching
    /// policy using `window`.
    fn try_writeback(&mut self, preg: PhysReg, now: Cycle, window: &dyn WindowQuery) -> bool;

    /// Whether the value of `preg` has been written to the main (lower)
    /// bank — the condition for the producing instruction to commit.
    fn is_written(&self, preg: PhysReg) -> bool;

    /// Whether the value of `preg` has been produced (is architecturally
    /// available somewhere, not necessarily readable this cycle).
    fn is_produced(&self, preg: PhysReg, now: Cycle) -> bool;

    /// Cheap allocation-free pre-check: could [`plan_read`](Self::plan_read)
    /// make progress for `preg` at cycle `now` — either deliver the value
    /// on some path (ignoring port limits) or report it for a demand
    /// transfer? Used by the issue stage to skip full planning for
    /// operands that would only yield [`PlanError::NotReady`].
    fn operand_obtainable(&self, preg: PhysReg, now: Cycle) -> bool;

    /// Plans the operand reads of an instruction issuing at cycle `now`
    /// with the given source registers. On failure the error says why the
    /// instruction cannot issue this cycle.
    ///
    /// # Errors
    ///
    /// [`PlanError::NotReady`] when an operand is unobtainable this cycle,
    /// [`PlanError::UpperMiss`] when operands must first be transferred to
    /// the upper bank, [`PlanError::NoReadPort`] on port exhaustion.
    fn plan_read(&mut self, srcs: &[PhysReg], now: Cycle) -> Result<ReadPlan, PlanError>;

    /// Commits a plan returned by [`plan_read`](Self::plan_read) this same
    /// cycle: consumes ports, updates recency, marks bypassed values.
    fn commit_read(&mut self, plan: &[SourceRead], now: Cycle);

    /// Requests a demand transfer of `preg` into the upper bank (no-op for
    /// single-banked files).
    fn request_demand(&mut self, preg: PhysReg, now: Cycle);

    /// Requests a prefetch of `preg` into the upper bank (no-op unless the
    /// fetch policy is prefetch-first-pair).
    fn request_prefetch(&mut self, preg: PhysReg, now: Cycle);

    /// The physical register was freed (its renaming superseded at
    /// commit); the model clears all state for it.
    fn on_free(&mut self, preg: PhysReg);

    /// The caching policy (for reporting).
    fn caching_policy(&self) -> Option<CachingPolicy> {
        None
    }

    /// The fetch policy (for reporting).
    fn fetch_policy(&self) -> Option<FetchPolicy> {
        None
    }

    /// Accumulated statistics.
    fn stats(&self) -> &RegFileStats;

    /// Human-readable internal state of one operand (for deadlock
    /// diagnostics). The default implementation returns an empty string.
    fn debug_operand(&self, preg: PhysReg) -> String {
        let _ = preg;
        String::new()
    }
}

/// Forwarding impl so a boxed model is itself a model: keeps trait-object
/// CPUs (`Cpu<I, Box<dyn RegFileModel>>`) expressible now that the core
/// is generic over the model type, e.g. to test enum dispatch against
/// virtual dispatch.
impl RegFileModel for Box<dyn RegFileModel> {
    fn read_latency(&self) -> u64 {
        (**self).read_latency()
    }
    fn begin_cycle(&mut self, now: Cycle) {
        (**self).begin_cycle(now)
    }
    fn on_alloc(&mut self, preg: PhysReg) {
        (**self).on_alloc(preg)
    }
    fn seed_initial(&mut self, preg: PhysReg) {
        (**self).seed_initial(preg)
    }
    fn schedule_result(&mut self, preg: PhysReg, produced_at: Cycle) {
        (**self).schedule_result(preg, produced_at)
    }
    fn try_writeback(&mut self, preg: PhysReg, now: Cycle, window: &dyn WindowQuery) -> bool {
        (**self).try_writeback(preg, now, window)
    }
    fn is_written(&self, preg: PhysReg) -> bool {
        (**self).is_written(preg)
    }
    fn is_produced(&self, preg: PhysReg, now: Cycle) -> bool {
        (**self).is_produced(preg, now)
    }
    fn operand_obtainable(&self, preg: PhysReg, now: Cycle) -> bool {
        (**self).operand_obtainable(preg, now)
    }
    fn plan_read(&mut self, srcs: &[PhysReg], now: Cycle) -> Result<ReadPlan, PlanError> {
        (**self).plan_read(srcs, now)
    }
    fn commit_read(&mut self, plan: &[SourceRead], now: Cycle) {
        (**self).commit_read(plan, now)
    }
    fn request_demand(&mut self, preg: PhysReg, now: Cycle) {
        (**self).request_demand(preg, now)
    }
    fn request_prefetch(&mut self, preg: PhysReg, now: Cycle) {
        (**self).request_prefetch(preg, now)
    }
    fn on_free(&mut self, preg: PhysReg) {
        (**self).on_free(preg)
    }
    fn caching_policy(&self) -> Option<CachingPolicy> {
        (**self).caching_policy()
    }
    fn fetch_policy(&self) -> Option<FetchPolicy> {
        (**self).fetch_policy()
    }
    fn stats(&self) -> &RegFileStats {
        (**self).stats()
    }
    fn debug_operand(&self, preg: PhysReg) -> String {
        (**self).debug_operand(preg)
    }
}

/// Lifetime state of one physical register, shared by all models.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PregState {
    /// Cycle at the end of which the value is produced.
    pub produced_at: Option<Cycle>,
    /// Cycle from which the value is readable in the main/lower bank.
    pub written_at: Option<Cycle>,
    /// Whether any consumer obtained the value from the bypass network.
    pub bypass_consumed: bool,
    /// Lifetime read count.
    pub reads: u32,
    /// Whether the register currently holds a live allocation.
    pub live: bool,
}

impl PregState {
    /// Resets the state for a fresh allocation.
    pub fn reset_for_alloc(&mut self) {
        *self = PregState { live: true, ..PregState::default() };
    }

    /// Folds the finished lifetime into the read-count statistics.
    pub fn account_reads(&self, stats: &mut RegFileStats) {
        // Only count lifetimes that actually produced a value; squashed
        // allocations never had a readable value.
        if self.produced_at.is_some() {
            match self.reads {
                0 => stats.values_never_read += 1,
                1 => stats.values_read_once += 1,
                _ => stats.values_read_many += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_once_fraction() {
        let stats = RegFileStats {
            values_never_read: 10,
            values_read_once: 78,
            values_read_many: 12,
            ..RegFileStats::default()
        };
        assert!((stats.read_at_most_once_fraction().unwrap() - 0.88).abs() < 1e-9);
    }

    #[test]
    fn fractions_none_when_empty() {
        let stats = RegFileStats::default();
        assert_eq!(stats.read_at_most_once_fraction(), None);
        assert_eq!(stats.bypass_fraction(), None);
    }

    #[test]
    fn preg_state_alloc_reset() {
        let mut s = PregState {
            produced_at: Some(5),
            written_at: Some(6),
            bypass_consumed: true,
            reads: 3,
            live: true,
        };
        s.reset_for_alloc();
        assert!(s.live);
        assert_eq!(s.produced_at, None);
        assert_eq!(s.reads, 0);
        assert!(!s.bypass_consumed);
    }

    #[test]
    fn squashed_lifetimes_not_counted() {
        let mut stats = RegFileStats::default();
        let s = PregState { live: true, ..PregState::default() };
        s.account_reads(&mut stats);
        assert_eq!(stats.values_never_read, 0);
    }

    #[test]
    fn null_window_reports_nothing() {
        assert!(!NullWindow.has_ready_unissued_consumer(PhysReg::new(3)));
    }
}
