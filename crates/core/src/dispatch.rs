//! Static dispatch over the concrete register file models.
//!
//! The core calls into its register file model several times per
//! simulated instruction. [`RegFile`] is a plain enum over the concrete
//! models: one predictable match per call instead of an indirect branch
//! the optimizer cannot see through, and the model bodies inline into the
//! cycle loop. It is the only model type the CPU holds; the
//! [`RegFileModel`] trait is the protocol every variant implements.

use crate::bitset::RegBitSet;
use crate::config::RegFileConfig;
use crate::model::{PlanError, PregTable, ReadPlan, RegFileModel, RegFileStats, SourceRead};
use crate::onelevel::OneLevelBankedModel;
use crate::replicated::ReplicatedBankModel;
use crate::rfc::RegFileCacheModel;
use crate::single::SingleBankModel;
use rfcache_isa::{Cycle, PhysReg};

/// Any concrete register file model, statically dispatched.
///
/// Built by [`RegFileConfig::build_model`]; implements [`RegFileModel`]
/// by delegating every method, defaulted ones included, to the variant
/// (a default here would skip a variant's override). The CPU holds one
/// per register class.
// The size skew is deliberate: the CPU stores two of these by value
// precisely so the active model's state is inline, not behind a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RegFile {
    /// [`SingleBankModel`].
    Single(SingleBankModel),
    /// [`RegFileCacheModel`].
    Cache(RegFileCacheModel),
    /// [`ReplicatedBankModel`].
    Replicated(ReplicatedBankModel),
    /// [`OneLevelBankedModel`].
    OneLevel(OneLevelBankedModel),
}

/// Expands one delegating method body.
macro_rules! delegate {
    ($self:ident, $m:ident ( $($arg:expr),* )) => {
        match $self {
            RegFile::Single(m) => m.$m($($arg),*),
            RegFile::Cache(m) => m.$m($($arg),*),
            RegFile::Replicated(m) => m.$m($($arg),*),
            RegFile::OneLevel(m) => m.$m($($arg),*),
        }
    };
}

impl RegFileModel for RegFile {
    #[inline]
    fn table(&self) -> &PregTable {
        delegate!(self, table())
    }
    #[inline]
    fn table_mut(&mut self) -> &mut PregTable {
        delegate!(self, table_mut())
    }
    #[inline]
    fn begin_cycle(&mut self, now: Cycle) {
        delegate!(self, begin_cycle(now))
    }
    #[inline]
    fn on_alloc(&mut self, preg: PhysReg) {
        delegate!(self, on_alloc(preg))
    }
    #[inline]
    fn seed_initial(&mut self, preg: PhysReg) {
        delegate!(self, seed_initial(preg))
    }
    #[inline]
    fn schedule_result(&mut self, preg: PhysReg, produced_at: Cycle) {
        delegate!(self, schedule_result(preg, produced_at))
    }
    #[inline]
    fn try_writeback(&mut self, preg: PhysReg, now: Cycle, ready: &RegBitSet) -> bool {
        delegate!(self, try_writeback(preg, now, ready))
    }
    #[inline]
    fn is_written(&self, preg: PhysReg) -> bool {
        delegate!(self, is_written(preg))
    }
    #[inline]
    fn is_produced(&self, preg: PhysReg, now: Cycle) -> bool {
        delegate!(self, is_produced(preg, now))
    }
    #[inline]
    fn plan_read(&mut self, srcs: &[PhysReg], now: Cycle) -> Result<ReadPlan, PlanError> {
        delegate!(self, plan_read(srcs, now))
    }
    #[inline]
    fn commit_read(&mut self, plan: &[SourceRead], now: Cycle) {
        delegate!(self, commit_read(plan, now))
    }
    #[inline]
    fn request_demand(&mut self, preg: PhysReg, now: Cycle) {
        delegate!(self, request_demand(preg, now))
    }
    #[inline]
    fn request_prefetch(&mut self, preg: PhysReg, now: Cycle) {
        delegate!(self, request_prefetch(preg, now))
    }
    #[inline]
    fn on_free(&mut self, preg: PhysReg) {
        delegate!(self, on_free(preg))
    }
    #[inline]
    fn stats(&self) -> &RegFileStats {
        delegate!(self, stats())
    }
    fn debug_operand(&self, preg: PhysReg) -> String {
        delegate!(self, debug_operand(preg))
    }
}

impl RegFileConfig {
    /// Instantiates the configured timing model as a statically
    /// dispatched [`RegFile`] with `phys_regs` physical registers.
    ///
    /// # Panics
    ///
    /// Panics with the violated bound if the configuration fails
    /// [`validate`](Self::validate).
    pub fn build_model(&self, phys_regs: usize) -> RegFile {
        match *self {
            RegFileConfig::Single(c) => RegFile::Single(SingleBankModel::new(c, phys_regs)),
            RegFileConfig::Cache(c) => RegFile::Cache(RegFileCacheModel::new(c, phys_regs)),
            RegFileConfig::Replicated(c) => {
                RegFile::Replicated(ReplicatedBankModel::new(c, phys_regs))
            }
            RegFileConfig::OneLevel(c) => RegFile::OneLevel(OneLevelBankedModel::new(c, phys_regs)),
        }
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
        assert!(matches!(single, RegFile::Single(_)));
        let cache = RegFileConfig::Cache(RegFileCacheConfig::paper_default()).build_model(64);
        assert!(matches!(cache, RegFile::Cache(_)));
        let repl = RegFileConfig::Replicated(crate::config::ReplicatedBankConfig::default())
            .build_model(8);
        assert!(matches!(repl, RegFile::Replicated(_)));
        let one = RegFileConfig::OneLevel(OneLevelBankedConfig::default()).build_model(8);
        assert!(matches!(one, RegFile::OneLevel(_)));
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
        rf.commit_read(&plan, 5);
        assert_eq!(rf.stats().regfile_reads, 1);
    }
}
