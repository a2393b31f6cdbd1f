//! One-level multiple-banked register file (the paper's §3 "single-level
//! organization", evaluated as future work in §6 and related to Wallace &
//! Bagherzadeh's scalable register file).
//!
//! Physical registers are distributed across `banks` equal banks
//! (`bank = preg mod banks`); every bank feeds the functional units
//! directly in one cycle, but each has only a few read and write ports.
//! There is no replication and no inter-bank transfer: a result is written
//! to the one bank that holds its register, and reads contend for that
//! bank's ports. Port conflicts are the price of the cheaper banks; the
//! bypass network stays single-level like the register file cache's.

use crate::model::{PlanError, PregTable, ReadPath, ReadPlan, SourceRead};
use rfcache_isa::{Cycle, PhysReg};

/// Configuration of the one-level banked organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OneLevelBankedConfig {
    /// Number of banks the physical registers are distributed over.
    pub banks: u32,
    /// Read ports per bank per cycle (`None` = unlimited).
    pub read_ports_per_bank: Option<u32>,
    /// Write ports per bank per cycle (`None` = unlimited).
    pub write_ports_per_bank: Option<u32>,
}

impl OneLevelBankedConfig {
    /// The configuration studied by Wallace & Bagherzadeh (§5 of the
    /// paper): banks with two read ports and one write port.
    pub fn wallace(banks: u32) -> Self {
        OneLevelBankedConfig { banks, read_ports_per_bank: Some(2), write_ports_per_bank: Some(1) }
    }
}

impl Default for OneLevelBankedConfig {
    fn default() -> Self {
        OneLevelBankedConfig::wallace(8)
    }
}

/// Timing model of the one-level multiple-banked register file.
///
/// # Examples
///
/// Register `i` lives in bank `i mod banks`, so operands in one bank
/// contend for its read ports.
///
/// ```
/// use rfcache_core::{OneLevelBankedConfig, PlanError, RegFileConfig};
/// use rfcache_isa::PhysReg;
///
/// let mut rf = RegFileConfig::OneLevel(OneLevelBankedConfig::wallace(8)).build_model(128);
/// let (a, b, c) = (PhysReg::new(1), PhysReg::new(9), PhysReg::new(2)); // banks 1, 1, 2
/// rf.begin_cycle(0);
/// for p in [a, b, c] {
///     rf.seed_initial(p);
/// }
/// rf.begin_cycle(5);
/// let plan = rf.plan_read(&[a, b], 5).unwrap(); // both of bank 1's read ports
/// rf.commit_read(&plan);
/// assert_eq!(rf.plan_read(&[a], 5), Err(PlanError::NoReadPort));
/// assert!(rf.plan_read(&[c], 5).is_ok());
/// ```
#[derive(Debug)]
pub(crate) struct OneLevelBankedModel {
    config: OneLevelBankedConfig,
    reads_used: Vec<u32>,
    writes_used: Vec<u32>,
}

impl OneLevelBankedModel {
    pub fn new(config: OneLevelBankedConfig) -> Self {
        OneLevelBankedModel {
            reads_used: vec![0; config.banks as usize],
            writes_used: vec![0; config.banks as usize],
            config,
        }
    }

    /// Bank holding `preg`.
    fn bank_of(&self, preg: PhysReg) -> usize {
        preg.index() % self.config.banks as usize
    }

    pub fn begin_cycle(&mut self) {
        self.reads_used.fill(0);
        self.writes_used.fill(0);
    }

    pub fn try_writeback(&mut self, table: &mut PregTable, preg: PhysReg, now: Cycle) -> bool {
        let bank = self.bank_of(preg);
        if let Some(limit) = self.config.write_ports_per_bank {
            if self.writes_used[bank] >= limit {
                table.stats.write_port_stalls += 1;
                return false;
            }
        }
        self.writes_used[bank] += 1;
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
        for &preg in srcs {
            let st = table.state(preg);
            let Some(produced) = st.produced_at else { return Err(PlanError::NotReady) };
            if now == produced {
                plan.push(SourceRead { preg, path: ReadPath::Bypass });
            } else if matches!(st.written_at, Some(w) if now >= w) {
                plan.push(SourceRead { preg, path: ReadPath::RegFile });
            } else {
                return Err(PlanError::NotReady);
            }
        }
        if let Some(limit) = self.config.read_ports_per_bank {
            // Per-bank demand of this instruction alone, computed by
            // scanning the (at most two-entry) plan instead of a
            // banks-sized side table.
            let file_reads = || plan.iter().filter(|r| r.path == ReadPath::RegFile);
            for read in file_reads() {
                let bank = self.bank_of(read.preg);
                let demand = file_reads().filter(|r| self.bank_of(r.preg) == bank).count() as u32;
                if self.reads_used[bank] + demand > limit {
                    table.stats.read_port_stalls += 1;
                    return Err(PlanError::NoReadPort);
                }
            }
        }
        Ok(plan)
    }

    pub fn commit_read(&mut self, table: &mut PregTable, plan: &[SourceRead]) {
        for &read in plan {
            table.count_read(read);
            if read.path == ReadPath::RegFile {
                let bank = self.bank_of(read.preg);
                self.reads_used[bank] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegFileConfig;
    use crate::dispatch::{Model, RegFile};
    use crate::RegBitSet;

    fn model(banks: u32, r: u32, w: u32) -> RegFile {
        let config = OneLevelBankedConfig {
            banks,
            read_ports_per_bank: Some(r),
            write_ports_per_bank: Some(w),
        };
        RegFileConfig::OneLevel(config).build_model(32)
    }

    /// Bank holding `preg` in `rf`.
    fn bank_of(rf: &RegFile, preg: PhysReg) -> usize {
        match &rf.model {
            Model::OneLevel(m) => m.bank_of(preg),
            other => unreachable!("a one-level configuration built {other:?}"),
        }
    }

    fn seed_written(rf: &mut RegFile, pregs: &[u16]) {
        rf.begin_cycle(0);
        for &i in pregs {
            let p = PhysReg::new(i);
            rf.on_alloc(p);
            rf.schedule_result(p, 0);
            assert!(rf.try_writeback(p, 0, &RegBitSet::new(0)));
        }
    }

    #[test]
    fn registers_map_round_robin_to_banks() {
        let rf = model(4, 2, 1);
        assert_eq!(bank_of(&rf, PhysReg::new(0)), 0);
        assert_eq!(bank_of(&rf, PhysReg::new(5)), 1);
        assert_eq!(bank_of(&rf, PhysReg::new(7)), 3);
    }

    #[test]
    fn same_bank_reads_conflict_different_banks_do_not() {
        let mut rf = model(2, 1, 2);
        seed_written(&mut rf, &[0, 1, 2]);
        rf.begin_cycle(5);
        // preg0 and preg2 share bank 0: together they exceed 1 read port.
        assert_eq!(
            rf.plan_read(&[PhysReg::new(0), PhysReg::new(2)], 5),
            Err(PlanError::NoReadPort)
        );
        // preg0 (bank 0) and preg1 (bank 1) are fine.
        let plan = rf.plan_read(&[PhysReg::new(0), PhysReg::new(1)], 5).unwrap();
        rf.commit_read(&plan);
        // Bank 0's single port is now used; preg2 must wait a cycle.
        assert_eq!(rf.plan_read(&[PhysReg::new(2)], 5), Err(PlanError::NoReadPort));
        rf.begin_cycle(6);
        assert!(rf.plan_read(&[PhysReg::new(2)], 6).is_ok());
    }

    #[test]
    fn write_ports_are_per_bank() {
        let mut rf = model(2, 2, 1);
        rf.begin_cycle(0);
        for i in [0u16, 2, 1] {
            let p = PhysReg::new(i);
            rf.on_alloc(p);
            rf.schedule_result(p, 0);
        }
        rf.begin_cycle(1);
        assert!(rf.try_writeback(PhysReg::new(0), 1, &RegBitSet::new(0)));
        // Second write to bank 0 this cycle: stalls.
        assert!(!rf.try_writeback(PhysReg::new(2), 1, &RegBitSet::new(0)));
        // Bank 1 is unaffected.
        assert!(rf.try_writeback(PhysReg::new(1), 1, &RegBitSet::new(0)));
        rf.begin_cycle(2);
        assert!(rf.try_writeback(PhysReg::new(2), 2, &RegBitSet::new(0)));
    }

    #[test]
    fn bypass_does_not_consume_bank_ports() {
        let mut rf = model(2, 1, 1);
        rf.begin_cycle(0);
        let p = PhysReg::new(0);
        rf.on_alloc(p);
        rf.schedule_result(p, 4);
        rf.begin_cycle(4);
        let plan = rf.plan_read(&[p], 4).unwrap();
        assert_eq!(plan[0].path, ReadPath::Bypass);
    }

    #[test]
    fn wallace_preset() {
        let c = OneLevelBankedConfig::wallace(8);
        assert_eq!(c.read_ports_per_bank, Some(2));
        assert_eq!(c.write_ports_per_bank, Some(1));
        assert_eq!(OneLevelBankedConfig::default().banks, 8);
    }
}
