//! Operand-read plans, statistics, and the register-lifetime table all
//! four register file models share.
//!
//! [`RegFile`](crate::RegFile) documents the timing contract between the
//! core and a model.

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

/// Lifetime state of one physical register.
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

/// Every physical register's lifetime state, plus the statistics all
/// models keep the same way: write-backs, operand reads by path, and how
/// often each freed value was read.
///
/// [`RegFile`](crate::RegFile) drives it through allocation, scheduling
/// and freeing, and passes it to the model's own write-back and read
/// paths, which record into it.
#[derive(Debug)]
pub(crate) struct PregTable {
    states: Vec<PregState>,
    /// Accumulated statistics; models add their own stall, caching and
    /// transfer counts.
    pub stats: RegFileStats,
}

impl PregTable {
    /// A table of `phys_regs` registers, none of them live.
    pub fn new(phys_regs: usize) -> Self {
        PregTable { states: vec![PregState::default(); phys_regs], stats: RegFileStats::default() }
    }

    /// The lifetime state of `preg`.
    pub fn state(&self, preg: PhysReg) -> &PregState {
        &self.states[preg.index()]
    }

    /// Starts a fresh lifetime of `preg`: live, nothing produced yet.
    pub fn alloc(&mut self, preg: PhysReg) {
        self.states[preg.index()] = PregState { live: true, ..PregState::default() };
    }

    /// Starts a lifetime whose value exists before the simulation:
    /// produced and written at cycle 0.
    pub fn seed(&mut self, preg: PhysReg) {
        self.states[preg.index()] = PregState {
            produced_at: Some(0),
            written_at: Some(0),
            live: true,
            ..PregState::default()
        };
    }

    /// The value of `preg` is produced at the end of `produced_at`.
    pub fn schedule(&mut self, preg: PhysReg, produced_at: Cycle) {
        self.states[preg.index()].produced_at = Some(produced_at);
    }

    /// Records an accepted write-back: `preg` is readable from the main
    /// bank from `now` on.
    pub fn write(&mut self, preg: PhysReg, now: Cycle) {
        self.states[preg.index()].written_at = Some(now);
        self.stats.writebacks += 1;
    }

    /// Counts one committed operand read on its path.
    pub fn count_read(&mut self, read: SourceRead) {
        let st = &mut self.states[read.preg.index()];
        st.reads += 1;
        match read.path {
            ReadPath::Bypass => {
                st.bypass_consumed = true;
                self.stats.bypass_reads += 1;
            }
            ReadPath::RegFile => self.stats.regfile_reads += 1,
        }
    }

    /// Ends the lifetime of `preg`. A live value that was produced is
    /// counted by how often it was read (the §3 read-count statistic).
    pub fn free(&mut self, preg: PhysReg) {
        let st = std::mem::take(&mut self.states[preg.index()]);
        if st.live && st.produced_at.is_some() {
            match st.reads {
                0 => self.stats.values_never_read += 1,
                1 => self.stats.values_read_once += 1,
                _ => self.stats.values_read_many += 1,
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
        let mut table = PregTable::new(4);
        let p = PhysReg::new(2);
        table.alloc(p);
        table.schedule(p, 5);
        table.write(p, 6);
        table.count_read(SourceRead { preg: p, path: ReadPath::Bypass });
        table.alloc(p);
        let s = table.state(p);
        assert!(s.live);
        assert_eq!(s.produced_at, None);
        assert_eq!(s.reads, 0);
        assert!(!s.bypass_consumed);
    }

    #[test]
    fn squashed_lifetimes_not_counted() {
        // A lifetime that ends before its value is produced has no read
        // count to report.
        let mut table = PregTable::new(4);
        let p = PhysReg::new(0);
        table.alloc(p);
        table.free(p);
        assert_eq!(table.stats.values_never_read, 0);
    }
}
