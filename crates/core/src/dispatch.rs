//! The register file the core drives: every register's lifetime, plus the
//! state of the one model that sets the architecture apart.
//!
//! The core calls into its register file several times per simulated
//! instruction. The lifetime calls answer from the [`PregTable`] directly;
//! the others match once on a plain enum of the concrete models and pass
//! the variant the table: one predictable branch per call instead of an
//! indirect one the optimizer cannot see through, so the model bodies
//! inline into the cycle loop.

use crate::bitset::RegBitSet;
use crate::config::RegFileConfig;
use crate::model::{PlanError, PregTable, ReadPlan, RegFileStats, SourceRead};
use crate::onelevel::OneLevelBankedModel;
use crate::replicated::ReplicatedBankModel;
use crate::rfc::RegFileCacheModel;
use crate::single::SingleBankModel;
use rfcache_isa::{Cycle, PhysReg};

/// One register class's register file: a cycle-accurate model of the
/// configured architecture, built by [`RegFileConfig::build_model`].
///
/// # Timing contract
///
/// * An instruction **issues** at cycle `c` and starts executing at
///   `c + L`, where `L` is the architecture's
///   [`RegFileConfig::read_latency`]; its result is **produced** at the
///   end of its execute stage (cycle `p`), which the core announces via
///   [`schedule_result`](Self::schedule_result) as soon as `p` is known.
/// * The core retires produced results through a write-back queue: each
///   cycle it offers them oldest-first via
///   [`try_writeback`](Self::try_writeback); the model accepts as many as
///   it has write ports, records the value as *written* (readable by
///   reads starting that same cycle — write-before-read), and applies its
///   caching policy.
/// * To issue an instruction the core calls [`plan_read`](Self::plan_read)
///   with the source registers; the model answers how each operand would
///   be obtained at this cycle (bypass network or register file read) or
///   that the instruction cannot issue yet (operand unavailable or read
///   ports exhausted). If the core goes ahead it calls
///   [`commit_read`](Self::commit_read), which consumes ports and marks
///   bypass-consumed values.
/// * The core must call [`begin_cycle`](Self::begin_cycle) exactly once
///   per cycle, before any other call of that cycle, with a strictly
///   increasing cycle number.
///
/// # Examples
///
/// A two-cycle file with a full bypass network forwards a result to a
/// consumer that issues the cycle before it is produced (back-to-back
/// execution); the register file cache caches a result no consumer took
/// from the bypass, so a later read hits its upper bank.
///
/// ```
/// use rfcache_core::{ReadPath, RegBitSet, RegFileCacheConfig, RegFileConfig, SingleBankConfig};
/// use rfcache_isa::PhysReg;
///
/// let p = PhysReg::new(3);
/// let mut rf = RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass()).build_model(8);
/// rf.begin_cycle(0);
/// rf.on_alloc(p);
/// rf.schedule_result(p, 5); // produced at the end of cycle 5
/// rf.begin_cycle(4); // executes at 6, right after production
/// assert_eq!(rf.plan_read(&[p], 4).unwrap()[0].path, ReadPath::Bypass);
///
/// let mut rf = RegFileConfig::Cache(RegFileCacheConfig::paper_default()).build_model(32);
/// rf.begin_cycle(0);
/// rf.on_alloc(p);
/// rf.schedule_result(p, 2);
/// rf.begin_cycle(3);
/// assert!(rf.try_writeback(p, 3, &RegBitSet::new(32)));
/// let plan = rf.plan_read(&[p], 3).unwrap();
/// assert_eq!(plan[0].path, ReadPath::RegFile); // upper-bank hit
/// rf.commit_read(&plan);
/// assert_eq!(rf.stats().regfile_reads, 1);
/// ```
#[derive(Debug)]
pub struct RegFile {
    /// Every register's lifetime and the shared statistics.
    pub(crate) table: PregTable,
    /// The architecture's own state: ports, banks, upper bank, buses.
    pub(crate) model: Model,
}

/// The state of one concrete model beyond the register lifetimes.
// The size skew is deliberate: the CPU stores two register files by value
// precisely so the active model's state is inline, not behind a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Model {
    Single(SingleBankModel),
    Cache(RegFileCacheModel),
    Replicated(ReplicatedBankModel),
    OneLevel(OneLevelBankedModel),
}

impl RegFile {
    /// Starts cycle `now`: resets per-cycle port budgets and advances
    /// internal machinery (e.g. bus transfers).
    #[inline]
    pub fn begin_cycle(&mut self, now: Cycle) {
        match &mut self.model {
            Model::Single(m) => m.begin_cycle(),
            Model::Cache(m) => m.begin_cycle(&mut self.table, now),
            Model::Replicated(m) => m.begin_cycle(),
            Model::OneLevel(m) => m.begin_cycle(),
        }
    }

    /// A physical register was allocated at rename; its previous life (if
    /// any) is over.
    #[inline]
    pub fn on_alloc(&mut self, preg: PhysReg) {
        self.table.alloc(preg);
        if let Model::Cache(m) = &mut self.model {
            m.forget(preg);
        }
    }

    /// Seeds `preg` with an architectural value that exists before the
    /// simulation starts (the initial mapping of the logical registers):
    /// live, produced and written at cycle 0, resident only in the main
    /// (lower) bank.
    pub fn seed_initial(&mut self, preg: PhysReg) {
        self.table.seed(preg);
    }

    /// The producer of `preg` will finish executing at the end of cycle
    /// `produced_at`.
    #[inline]
    pub fn schedule_result(&mut self, preg: PhysReg, produced_at: Cycle) {
        self.table.schedule(preg, produced_at);
        if let Model::Replicated(m) = &mut self.model {
            m.schedule_result(preg);
        }
    }

    /// Offers the produced value of `preg` for write-back at cycle `now`.
    /// Returns `false` when no write port is free this cycle (the core
    /// retries next cycle). On success the model applies its caching
    /// policy; `ready` holds the registers some not-yet-issued
    /// instruction reads with all of its source values produced (the
    /// *ready* caching policy's input).
    #[inline]
    pub fn try_writeback(&mut self, preg: PhysReg, now: Cycle, ready: &RegBitSet) -> bool {
        let table = &mut self.table;
        match &mut self.model {
            Model::Single(m) => m.try_writeback(table, preg, now),
            Model::Cache(m) => m.try_writeback(table, preg, now, ready),
            Model::Replicated(_) => {
                // Every bank has a dedicated write port per result bus
                // (full replication): write-back never stalls on ports.
                table.write(preg, now);
                true
            }
            Model::OneLevel(m) => m.try_writeback(table, preg, now),
        }
    }

    /// Whether the value of `preg` has been written to the main (lower)
    /// bank — the condition for the producing instruction to commit.
    #[inline]
    pub fn is_written(&self, preg: PhysReg) -> bool {
        self.table.state(preg).written_at.is_some()
    }

    /// Whether the value of `preg` has been produced (is architecturally
    /// available somewhere, not necessarily readable this cycle).
    #[inline]
    pub fn is_produced(&self, preg: PhysReg, now: Cycle) -> bool {
        matches!(self.produced_at(preg), Some(p) if p <= now)
    }

    /// The cycle at the end of which the value of `preg` is produced, or
    /// `None` while no producer has scheduled it.
    #[inline]
    pub fn produced_at(&self, preg: PhysReg) -> Option<Cycle> {
        self.table.state(preg).produced_at
    }

    /// Plans the operand reads of an instruction issuing at cycle `now`
    /// with the given source registers. On failure the error says why the
    /// instruction cannot issue this cycle.
    ///
    /// # Errors
    ///
    /// [`PlanError::NotReady`] when an operand is unobtainable this cycle,
    /// [`PlanError::UpperMiss`] when operands must first be transferred to
    /// the upper bank, [`PlanError::NoReadPort`] on port exhaustion.
    #[inline]
    pub fn plan_read(&mut self, srcs: &[PhysReg], now: Cycle) -> Result<ReadPlan, PlanError> {
        let table = &mut self.table;
        match &self.model {
            Model::Single(m) => m.plan_read(table, srcs, now),
            Model::Cache(m) => m.plan_read(table, srcs, now),
            Model::Replicated(m) => m.plan_read(table, srcs, now),
            Model::OneLevel(m) => m.plan_read(table, srcs, now),
        }
    }

    /// Commits a plan returned by [`plan_read`](Self::plan_read) this same
    /// cycle: consumes ports, updates recency, marks bypassed values.
    #[inline]
    pub fn commit_read(&mut self, plan: &[SourceRead]) {
        let table = &mut self.table;
        match &mut self.model {
            Model::Single(m) => m.commit_read(table, plan),
            Model::Cache(m) => m.commit_read(table, plan),
            Model::Replicated(m) => m.commit_read(table, plan),
            Model::OneLevel(m) => m.commit_read(table, plan),
        }
    }

    /// Requests a demand transfer of `preg` into the upper bank (no-op for
    /// one-level files).
    #[inline]
    pub fn request_demand(&mut self, preg: PhysReg) {
        match &mut self.model {
            Model::Cache(m) => m.request_demand(&self.table, preg),
            Model::Single(_) | Model::Replicated(_) | Model::OneLevel(_) => {}
        }
    }

    /// Requests a prefetch of `preg` into the upper bank (no-op unless the
    /// fetch policy is prefetch-first-pair).
    #[inline]
    pub fn request_prefetch(&mut self, preg: PhysReg) {
        match &mut self.model {
            Model::Cache(m) => m.request_prefetch(&mut self.table, preg),
            Model::Single(_) | Model::Replicated(_) | Model::OneLevel(_) => {}
        }
    }

    /// The physical register was freed (its renaming superseded at
    /// commit); the model clears all state for it.
    #[inline]
    pub fn on_free(&mut self, preg: PhysReg) {
        self.table.free(preg);
        if let Model::Cache(m) = &mut self.model {
            m.forget(preg);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RegFileStats {
        &self.table.stats
    }

    /// Human-readable internal state of one operand (for deadlock
    /// diagnostics); empty for models with no state beyond the lifetimes.
    pub fn debug_operand(&self, preg: PhysReg) -> String {
        match &self.model {
            Model::Cache(m) => m.debug_operand(&self.table, preg),
            Model::Single(_) | Model::Replicated(_) | Model::OneLevel(_) => String::new(),
        }
    }
}

impl RegFileConfig {
    /// Instantiates the configured timing model with `phys_regs` physical
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics with the violated bound if the configuration fails
    /// [`validate`](Self::validate).
    pub fn build_model(&self, phys_regs: usize) -> RegFile {
        if let Err(reason) = self.validate(phys_regs) {
            panic!("invalid register file configuration: {reason}");
        }
        let model = match *self {
            RegFileConfig::Single(c) => Model::Single(SingleBankModel::new(c)),
            RegFileConfig::Cache(c) => Model::Cache(RegFileCacheModel::new(c, phys_regs)),
            RegFileConfig::Replicated(c) => {
                Model::Replicated(ReplicatedBankModel::new(c, phys_regs))
            }
            RegFileConfig::OneLevel(c) => Model::OneLevel(OneLevelBankedModel::new(c)),
        };
        RegFile { table: PregTable::new(phys_regs), model }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegFileCacheConfig, SingleBankConfig};
    use crate::OneLevelBankedConfig;

    #[test]
    fn build_model_picks_the_configured_variant() {
        let single = RegFileConfig::Single(SingleBankConfig::one_cycle()).build_model(8);
        assert!(matches!(single.model, Model::Single(_)));
        let cache = RegFileConfig::Cache(RegFileCacheConfig::paper_default()).build_model(64);
        assert!(matches!(cache.model, Model::Cache(_)));
        let repl = RegFileConfig::Replicated(crate::config::ReplicatedBankConfig::default())
            .build_model(8);
        assert!(matches!(repl.model, Model::Replicated(_)));
        let one = RegFileConfig::OneLevel(OneLevelBankedConfig::default()).build_model(8);
        assert!(matches!(one.model, Model::OneLevel(_)));
    }

    #[test]
    fn enum_delegates_to_the_inner_model() {
        let config = RegFileConfig::Single(SingleBankConfig::one_cycle());
        assert_eq!(config.read_latency(), 1);
        let mut rf = config.build_model(8);
        rf.begin_cycle(0);
        let p = PhysReg::new(3);
        rf.on_alloc(p);
        rf.schedule_result(p, 0);
        assert!(rf.try_writeback(p, 0, &RegBitSet::new(0)));
        assert!(rf.is_written(p));
        rf.begin_cycle(5);
        let plan = rf.plan_read(&[p], 5).unwrap();
        rf.commit_read(&plan);
        assert_eq!(rf.stats().regfile_reads, 1);
    }
}
