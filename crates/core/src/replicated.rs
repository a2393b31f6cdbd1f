//! One-level replicated multiple-banked organization (Alpha 21264 style),
//! included as the related-work baseline of §5: every bank holds a full
//! copy of the register file with fewer read ports; results are written to
//! every bank, reaching remote banks one cycle later; each functional-unit
//! cluster reads its local bank.

use crate::config::ReplicatedBankConfig;
use crate::model::{PlanError, PregTable, ReadPath, ReadPlan, SourceRead};
use rfcache_isa::{Cycle, PhysReg};

/// Timing model of a replicated-bank register file.
///
/// Instructions are assigned to clusters round-robin at issue. An operand
/// is readable in a cluster once the value has been written to that
/// cluster's bank: the producing cluster's bank at write-back, remote
/// banks [`ReplicatedBankConfig::remote_write_delay`] cycles later. The
/// bypass network forwards within a cluster only.
///
/// # Examples
///
/// ```
/// use rfcache_core::{PlanError, RegBitSet, RegFileConfig, ReplicatedBankConfig};
/// use rfcache_isa::PhysReg;
///
/// let config = ReplicatedBankConfig::default();
/// assert_eq!(RegFileConfig::Replicated(config).read_latency(), 1);
/// let mut rf = RegFileConfig::Replicated(config).build_model(128);
/// let p = PhysReg::new(0);
/// rf.begin_cycle(0);
/// rf.on_alloc(p);
/// rf.schedule_result(p, 2); // by cluster 0
/// rf.begin_cycle(3);
/// assert!(rf.try_writeback(p, 3, &RegBitSet::new(0)));
/// let plan = rf.plan_read(&[p], 3).unwrap(); // cluster 0 reads its own bank
/// rf.commit_read(&plan);
/// assert_eq!(rf.plan_read(&[p], 3), Err(PlanError::NotReady)); // cluster 1 waits
/// ```
#[derive(Debug)]
pub(crate) struct ReplicatedBankModel {
    config: ReplicatedBankConfig,
    /// Cluster that produced each register's value.
    producer_cluster: Vec<u32>,
    /// Cluster the next issuing instruction is assigned to.
    next_cluster: u32,
    /// Read ports consumed this cycle, per cluster.
    reads_used: Vec<u32>,
}

impl ReplicatedBankModel {
    pub fn new(config: ReplicatedBankConfig, phys_regs: usize) -> Self {
        ReplicatedBankModel {
            producer_cluster: vec![0; phys_regs],
            next_cluster: 0,
            reads_used: vec![0; config.banks as usize],
            config,
        }
    }

    fn readable_in(&self, table: &PregTable, preg: PhysReg, cluster: u32, now: Cycle) -> bool {
        let local = self.producer_cluster[preg.index()] == cluster;
        let delay = if local { 0 } else { self.config.remote_write_delay };
        table.state(preg).written_at.is_some_and(|w| now >= w + delay)
    }

    pub fn begin_cycle(&mut self) {
        self.reads_used.fill(0);
    }

    /// Attributes the value of `preg` to the cluster of its producer.
    pub fn schedule_result(&mut self, preg: PhysReg) {
        // The producing instruction itself ran in some cluster; attribute
        // round-robin like every other issue.
        self.producer_cluster[preg.index()] = self.next_cluster;
    }

    pub fn plan_read(
        &self,
        table: &mut PregTable,
        srcs: &[PhysReg],
        now: Cycle,
    ) -> Result<ReadPlan, PlanError> {
        let cluster = self.next_cluster;
        let mut plan = ReadPlan::new();
        let mut ports_needed = 0;
        for &preg in srcs {
            let Some(produced) = table.state(preg).produced_at else {
                return Err(PlanError::NotReady);
            };
            let local = self.producer_cluster[preg.index()] == cluster;
            if now == produced && local {
                plan.push(SourceRead { preg, path: ReadPath::Bypass });
            } else if self.readable_in(table, preg, cluster, now) {
                ports_needed += 1;
                plan.push(SourceRead { preg, path: ReadPath::RegFile });
            } else {
                return Err(PlanError::NotReady);
            }
        }
        if let Some(limit) = self.config.read_ports_per_bank {
            if self.reads_used[cluster as usize] + ports_needed > limit {
                table.stats.read_port_stalls += 1;
                return Err(PlanError::NoReadPort);
            }
        }
        Ok(plan)
    }

    pub fn commit_read(&mut self, table: &mut PregTable, plan: &[SourceRead]) {
        let cluster = self.next_cluster;
        for &read in plan {
            table.count_read(read);
            if read.path == ReadPath::RegFile {
                self.reads_used[cluster as usize] += 1;
            }
        }
        self.next_cluster = (self.next_cluster + 1) % self.config.banks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegFileConfig;
    use crate::dispatch::{Model, RegFile};
    use crate::RegBitSet;

    fn build(config: ReplicatedBankConfig) -> RegFile {
        RegFileConfig::Replicated(config).build_model(16)
    }

    fn two_banks() -> RegFile {
        build(ReplicatedBankConfig::default())
    }

    /// The cluster the next issuing instruction will use.
    fn current_cluster(rf: &RegFile) -> u32 {
        match &rf.model {
            Model::Replicated(m) => m.next_cluster,
            other => unreachable!("a replicated configuration built {other:?}"),
        }
    }

    #[test]
    fn remote_reads_wait_an_extra_cycle() {
        let mut rf = two_banks();
        let r = PhysReg::new(0);
        rf.begin_cycle(0);
        rf.on_alloc(r);
        rf.schedule_result(r, 2); // produced by cluster 0
        rf.begin_cycle(3);
        assert!(rf.try_writeback(r, 3, &RegBitSet::new(0)));
        // Cluster 0 (local): readable at 3.
        assert_eq!(current_cluster(&rf), 0);
        let plan = rf.plan_read(&[r], 3).unwrap();
        // Committing the read advances to cluster 1.
        rf.commit_read(&plan);
        // Cluster 1 (remote): not readable until 4.
        assert_eq!(current_cluster(&rf), 1);
        assert_eq!(rf.plan_read(&[r], 3), Err(PlanError::NotReady));
        rf.begin_cycle(4);
        assert!(rf.plan_read(&[r], 4).is_ok());
    }

    #[test]
    fn per_bank_read_ports() {
        let cfg =
            ReplicatedBankConfig { banks: 2, read_ports_per_bank: Some(1), remote_write_delay: 1 };
        let mut rf = build(cfg);
        let (a, b) = (PhysReg::new(0), PhysReg::new(1));
        rf.begin_cycle(0);
        for r in [a, b] {
            rf.on_alloc(r);
            rf.schedule_result(r, 0);
        }
        rf.begin_cycle(1);
        assert!(rf.try_writeback(a, 1, &RegBitSet::new(0)));
        assert!(rf.try_writeback(b, 1, &RegBitSet::new(0)));
        rf.begin_cycle(2);
        // Two operands need two ports in cluster 0: rejected.
        assert_eq!(rf.plan_read(&[a, b], 2), Err(PlanError::NoReadPort));
        // One operand fits.
        let plan = rf.plan_read(&[a], 2).unwrap();
        rf.commit_read(&plan);
        // The next instruction runs in cluster 1 with a fresh port budget.
        assert!(rf.plan_read(&[b], 2).is_ok());
    }

    #[test]
    fn bypass_only_within_producing_cluster() {
        let mut rf = two_banks();
        let r = PhysReg::new(0);
        rf.begin_cycle(0);
        rf.on_alloc(r);
        rf.schedule_result(r, 5); // producer assigned to cluster 0
        rf.begin_cycle(5);
        // Cluster 0 catches the bypass.
        let plan = rf.plan_read(&[r], 5).unwrap();
        assert_eq!(plan[0].path, ReadPath::Bypass);
        rf.commit_read(&plan);
        // Cluster 1 cannot: value not produced locally, not yet written.
        assert_eq!(rf.plan_read(&[r], 5), Err(PlanError::NotReady));
    }
}
