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

use crate::bitset::RegBitSet;
use crate::config::RegFileConfig;
use crate::model::{PlanError, PregTable, ReadPath, ReadPlan, RegFileModel, SourceRead};
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
/// ```
/// use rfcache_core::{OneLevelBankedConfig, OneLevelBankedModel, RegFileConfig};
///
/// let config = OneLevelBankedConfig::wallace(8);
/// assert_eq!(RegFileConfig::OneLevel(config).read_latency(), 1);
/// let rf = OneLevelBankedModel::new(config, 128);
/// assert_eq!(rf.bank_of(rfcache_isa::PhysReg::new(9)), 1);
/// ```
#[derive(Debug)]
pub struct OneLevelBankedModel {
    config: OneLevelBankedConfig,
    table: PregTable,
    reads_used: Vec<u32>,
    writes_used: Vec<u32>,
}

impl OneLevelBankedModel {
    /// Creates a model for `phys_regs` registers.
    ///
    /// # Panics
    ///
    /// Panics with the violated bound if the configuration fails
    /// [`RegFileConfig::validate`].
    pub fn new(config: OneLevelBankedConfig, phys_regs: usize) -> Self {
        RegFileConfig::OneLevel(config).expect_valid(phys_regs);
        OneLevelBankedModel {
            table: PregTable::new(phys_regs),
            reads_used: vec![0; config.banks as usize],
            writes_used: vec![0; config.banks as usize],
            config,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &OneLevelBankedConfig {
        &self.config
    }

    /// Bank holding `preg`.
    pub fn bank_of(&self, preg: PhysReg) -> usize {
        preg.index() % self.config.banks as usize
    }
}

impl RegFileModel for OneLevelBankedModel {
    fn table(&self) -> &PregTable {
        &self.table
    }

    fn table_mut(&mut self) -> &mut PregTable {
        &mut self.table
    }

    fn begin_cycle(&mut self, _now: Cycle) {
        self.reads_used.fill(0);
        self.writes_used.fill(0);
    }

    fn try_writeback(&mut self, preg: PhysReg, now: Cycle, _ready: &RegBitSet) -> bool {
        let bank = self.bank_of(preg);
        if let Some(limit) = self.config.write_ports_per_bank {
            if self.writes_used[bank] >= limit {
                self.table.stats.write_port_stalls += 1;
                return false;
            }
        }
        self.writes_used[bank] += 1;
        self.table.write(preg, now);
        true
    }

    fn plan_read(&mut self, srcs: &[PhysReg], now: Cycle) -> Result<ReadPlan, PlanError> {
        let mut plan = ReadPlan::new();
        for &preg in srcs {
            let st = self.table.state(preg);
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
            // banks-sized side table: each bank is checked once, at its
            // first register-file read.
            for (i, read) in plan.iter().enumerate() {
                if read.path != ReadPath::RegFile {
                    continue;
                }
                let bank = self.bank_of(read.preg);
                let already_counted = plan[..i]
                    .iter()
                    .any(|r| r.path == ReadPath::RegFile && self.bank_of(r.preg) == bank);
                if already_counted {
                    continue;
                }
                let demand = plan[i..]
                    .iter()
                    .filter(|r| r.path == ReadPath::RegFile && self.bank_of(r.preg) == bank)
                    .count() as u32;
                if self.reads_used[bank] + demand > limit {
                    self.table.stats.read_port_stalls += 1;
                    return Err(PlanError::NoReadPort);
                }
            }
        }
        Ok(plan)
    }

    fn commit_read(&mut self, plan: &[SourceRead], _now: Cycle) {
        for &read in plan {
            self.table.count_read(read);
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

    fn model(banks: u32, r: u32, w: u32) -> OneLevelBankedModel {
        let config = OneLevelBankedConfig {
            banks,
            read_ports_per_bank: Some(r),
            write_ports_per_bank: Some(w),
        };
        OneLevelBankedModel::new(config, 32)
    }

    fn seed_written(rf: &mut OneLevelBankedModel, pregs: &[u16]) {
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
        assert_eq!(rf.bank_of(PhysReg::new(0)), 0);
        assert_eq!(rf.bank_of(PhysReg::new(5)), 1);
        assert_eq!(rf.bank_of(PhysReg::new(7)), 3);
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
        rf.commit_read(&plan, 5);
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
