//! Conventional single-banked register file model (1- or 2-cycle access,
//! full or single-level bypass).

use crate::config::SingleBankConfig;
use crate::model::{PlanError, PregTable, ReadPath, ReadPlan, SourceRead};
use rfcache_isa::{Cycle, PhysReg};

/// Timing model of a conventional single-banked register file.
///
/// # Timing
///
/// With read latency `L` and a producer finishing execution at the end of
/// cycle `p`, a consumer issuing at cycle `c` (executing at `c + L`)
/// obtains the value:
///
/// * from the **full bypass network** when `p + 1 <= c + L <= p + L`
///   (i.e. `c` in `[p + 1 - L, p]`), enabling back-to-back execution;
/// * from the **single (last) bypass level** only when `c == p`;
/// * from the **register file** when the value has been written back
///   (`written_at <= c`), which requires a write port and happens at
///   `p + 1` at the earliest.
///
/// # Examples
///
/// With two read cycles and only the last bypass level, a consumer
/// issuing the cycle before production cannot catch the value: it would
/// execute right after production, before that level carries it.
///
/// ```
/// use rfcache_core::{PlanError, ReadPath, RegFileConfig, SingleBankConfig};
/// use rfcache_isa::PhysReg;
///
/// let config = SingleBankConfig::two_cycle_single_bypass();
/// let mut rf = RegFileConfig::Single(config).build_model(8);
/// let p = PhysReg::new(0);
/// rf.begin_cycle(0);
/// rf.on_alloc(p);
/// rf.schedule_result(p, 4); // produced at end of cycle 4
/// rf.begin_cycle(3);
/// assert_eq!(rf.plan_read(&[p], 3), Err(PlanError::NotReady));
/// rf.begin_cycle(4);
/// assert_eq!(rf.plan_read(&[p], 4).unwrap()[0].path, ReadPath::Bypass);
/// ```
#[derive(Debug)]
pub(crate) struct SingleBankModel {
    config: SingleBankConfig,
    reads_used: u32,
    writes_used: u32,
}

impl SingleBankModel {
    pub fn new(config: SingleBankConfig) -> Self {
        SingleBankModel { config, reads_used: 0, writes_used: 0 }
    }

    /// Classifies how `preg` would be read by an instruction issuing at
    /// `now`, or `None` if it cannot be obtained this cycle.
    fn classify(&self, table: &PregTable, preg: PhysReg, now: Cycle) -> Option<ReadPath> {
        let st = table.state(preg);
        let produced = st.produced_at?;
        let lat = self.config.latency;
        let t_ex = now + lat;
        let in_bypass = match self.config.bypass {
            crate::BypassNetwork::Full => t_ex > produced && t_ex <= produced + lat,
            crate::BypassNetwork::SingleLevel => now == produced,
        };
        if in_bypass {
            return Some(ReadPath::Bypass);
        }
        match st.written_at {
            Some(w) if now >= w => Some(ReadPath::RegFile),
            _ => None,
        }
    }

    pub fn begin_cycle(&mut self) {
        self.reads_used = 0;
        self.writes_used = 0;
    }

    pub fn try_writeback(&mut self, table: &mut PregTable, preg: PhysReg, now: Cycle) -> bool {
        if let Some(limit) = self.config.ports.write {
            if self.writes_used >= limit {
                table.stats.write_port_stalls += 1;
                return false;
            }
        }
        self.writes_used += 1;
        table.write(preg, now);
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
        for &preg in srcs {
            match self.classify(table, preg, now) {
                Some(path) => {
                    if path == ReadPath::RegFile {
                        ports_needed += 1;
                    }
                    plan.push(SourceRead { preg, path });
                }
                None => return Err(PlanError::NotReady),
            }
        }
        if let Some(limit) = self.config.ports.read {
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
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PortLimits, RegFileConfig};
    use crate::{RegBitSet, RegFile};

    fn model(config: SingleBankConfig, phys_regs: usize) -> RegFile {
        RegFileConfig::Single(config).build_model(phys_regs)
    }

    fn preg(i: u16) -> PhysReg {
        PhysReg::new(i)
    }

    /// Drives a model through alloc + schedule + writeback at the natural
    /// cycles: produced at `p`, written back at `p + 1`.
    fn produce(rf: &mut RegFile, r: PhysReg, p: Cycle) {
        rf.on_alloc(r);
        rf.schedule_result(r, p);
    }

    #[test]
    fn one_cycle_file_has_no_holes() {
        let mut rf = model(SingleBankConfig::one_cycle(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        produce(&mut rf, r, 5);

        // Before production: not ready.
        rf.begin_cycle(4);
        assert_eq!(rf.plan_read(&[r], 4), Err(PlanError::NotReady));
        // At production: bypass.
        rf.begin_cycle(5);
        assert_eq!(rf.plan_read(&[r], 5).unwrap()[0].path, ReadPath::Bypass);
        // Next cycle: written back, register file path.
        rf.begin_cycle(6);
        assert!(rf.try_writeback(r, 6, &RegBitSet::new(0)));
        assert_eq!(rf.plan_read(&[r], 6).unwrap()[0].path, ReadPath::RegFile);
        // Every later cycle: still readable.
        rf.begin_cycle(9);
        assert_eq!(rf.plan_read(&[r], 9).unwrap()[0].path, ReadPath::RegFile);
    }

    #[test]
    fn two_cycle_single_bypass_loses_back_to_back() {
        let mut rf = model(SingleBankConfig::two_cycle_single_bypass(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        produce(&mut rf, r, 5);

        // c = p - 1 would give EX start at p + 1 (back-to-back): impossible
        // with a single bypass level.
        rf.begin_cycle(4);
        assert_eq!(rf.plan_read(&[r], 4), Err(PlanError::NotReady));
        // c = p: last bypass level catches it (EX at p + 2).
        rf.begin_cycle(5);
        assert_eq!(rf.plan_read(&[r], 5).unwrap()[0].path, ReadPath::Bypass);
        // c = p + 1: written back this cycle; register file path (no hole).
        rf.begin_cycle(6);
        assert!(rf.try_writeback(r, 6, &RegBitSet::new(0)));
        assert_eq!(rf.plan_read(&[r], 6).unwrap()[0].path, ReadPath::RegFile);
    }

    #[test]
    fn two_cycle_full_bypass_allows_back_to_back() {
        let mut rf = model(SingleBankConfig::two_cycle_full_bypass(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        produce(&mut rf, r, 5);
        // c = p - 1 ⇒ EX at p + 1: the full network forwards it.
        rf.begin_cycle(4);
        assert_eq!(rf.plan_read(&[r], 4).unwrap()[0].path, ReadPath::Bypass);
        // c = p ⇒ EX at p + 2: second bypass level.
        rf.begin_cycle(5);
        assert_eq!(rf.plan_read(&[r], 5).unwrap()[0].path, ReadPath::Bypass);
        // c = p + 1 ⇒ RF (after write-back).
        rf.begin_cycle(6);
        assert!(rf.try_writeback(r, 6, &RegBitSet::new(0)));
        assert_eq!(rf.plan_read(&[r], 6).unwrap()[0].path, ReadPath::RegFile);
    }

    #[test]
    fn delayed_writeback_creates_hole_with_single_bypass() {
        let mut rf = model(SingleBankConfig::one_cycle(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        produce(&mut rf, r, 5);
        // Write-back does not happen (port contention); at c = p + 1 the
        // bypass window has passed and the RF copy does not exist yet.
        rf.begin_cycle(6);
        assert_eq!(rf.plan_read(&[r], 6), Err(PlanError::NotReady));
    }

    #[test]
    fn read_ports_are_enforced_per_cycle() {
        let cfg = SingleBankConfig::one_cycle().with_ports(PortLimits::limited(2, 8));
        let mut rf = model(cfg, 8);
        let (a, b, c) = (preg(0), preg(1), preg(2));
        rf.begin_cycle(0);
        for r in [a, b, c] {
            produce(&mut rf, r, 0);
        }
        rf.begin_cycle(1);
        for r in [a, b, c] {
            assert!(rf.try_writeback(r, 1, &RegBitSet::new(0)));
        }
        rf.begin_cycle(2);
        // Two RF reads fit...
        let plan = rf.plan_read(&[a, b], 2).unwrap();
        rf.commit_read(&plan);
        // ...a third does not.
        assert_eq!(rf.plan_read(&[c], 2), Err(PlanError::NoReadPort));
        assert_eq!(rf.stats().read_port_stalls, 1);
        // Next cycle the budget resets.
        rf.begin_cycle(3);
        assert!(rf.plan_read(&[c], 3).is_ok());
    }

    #[test]
    fn bypass_reads_do_not_consume_ports() {
        let cfg = SingleBankConfig::one_cycle().with_ports(PortLimits::limited(1, 8));
        let mut rf = model(cfg, 8);
        let (r, w) = (preg(0), preg(1));
        rf.begin_cycle(0);
        produce(&mut rf, w, 0);
        produce(&mut rf, r, 3);
        rf.begin_cycle(1);
        assert!(rf.try_writeback(w, 1, &RegBitSet::new(0)));
        rf.begin_cycle(3);
        let plan = rf.plan_read(&[r], 3).unwrap();
        assert_eq!(plan[0].path, ReadPath::Bypass);
        rf.commit_read(&plan);
        assert_eq!(rf.stats().bypass_reads, 1);
        // The bypass read left the one read port free for a register-file
        // read in the same cycle, which then takes it.
        let plan = rf.plan_read(&[w], 3).unwrap();
        assert_eq!(plan[0].path, ReadPath::RegFile);
        rf.commit_read(&plan);
        assert_eq!(rf.plan_read(&[w], 3), Err(PlanError::NoReadPort));
    }

    #[test]
    fn write_ports_are_enforced_per_cycle() {
        let cfg = SingleBankConfig::one_cycle().with_ports(PortLimits::limited(8, 1));
        let mut rf = model(cfg, 8);
        let (a, b) = (preg(0), preg(1));
        rf.begin_cycle(0);
        produce(&mut rf, a, 0);
        produce(&mut rf, b, 0);
        rf.begin_cycle(1);
        assert!(rf.try_writeback(a, 1, &RegBitSet::new(0)));
        assert!(!rf.try_writeback(b, 1, &RegBitSet::new(0)));
        assert_eq!(rf.stats().write_port_stalls, 1);
        rf.begin_cycle(2);
        assert!(rf.try_writeback(b, 2, &RegBitSet::new(0)));
        assert!(rf.is_written(b));
    }

    #[test]
    fn read_count_statistics_on_free() {
        let mut rf = model(SingleBankConfig::one_cycle(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        produce(&mut rf, r, 0);
        rf.begin_cycle(1);
        assert!(rf.try_writeback(r, 1, &RegBitSet::new(0)));
        let plan = rf.plan_read(&[r], 1).unwrap();
        rf.commit_read(&plan);
        rf.on_free(r);
        assert_eq!(rf.stats().values_read_once, 1);

        // A value produced but never read.
        produce(&mut rf, r, 1);
        rf.begin_cycle(2);
        assert!(rf.try_writeback(r, 2, &RegBitSet::new(0)));
        rf.on_free(r);
        assert_eq!(rf.stats().values_never_read, 1);
    }

    #[test]
    fn squashed_allocation_leaves_no_value_statistics() {
        let mut rf = model(SingleBankConfig::one_cycle(), 4);
        let r = preg(0);
        rf.begin_cycle(0);
        rf.on_alloc(r);
        rf.on_free(r); // freed before producing
        let s = rf.stats();
        assert_eq!(s.values_never_read + s.values_read_once + s.values_read_many, 0);
    }

    #[test]
    fn plan_with_multiple_sources_mixes_paths() {
        let mut rf = model(SingleBankConfig::one_cycle(), 4);
        let (a, b) = (preg(0), preg(1));
        rf.begin_cycle(0);
        produce(&mut rf, a, 0);
        produce(&mut rf, b, 1);
        rf.begin_cycle(1);
        assert!(rf.try_writeback(a, 1, &RegBitSet::new(0)));
        let plan = rf.plan_read(&[a, b], 1).unwrap();
        assert_eq!(plan[0].path, ReadPath::RegFile);
        assert_eq!(plan[1].path, ReadPath::Bypass);
    }
}
