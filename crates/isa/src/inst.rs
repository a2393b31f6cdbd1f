//! Dynamic (trace) instruction representation.

use crate::op::OpClass;
use crate::reg::ArchReg;
use std::fmt;

/// Control-flow information attached to a branch instruction in the trace.
///
/// The trace records the *actual* outcome; the simulated front-end predicts
/// it with gshare and pays the misprediction penalty when wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is actually taken.
    pub taken: bool,
    /// Address of the instruction executed after this branch.
    pub target: u64,
}

/// One dynamic instruction of a workload trace.
///
/// Construct instructions with the typed constructors ([`TraceInst::alu`],
/// [`TraceInst::load`], [`TraceInst::store`], [`TraceInst::branch`]) rather
/// than by filling fields, so that invariants (e.g. stores have no
/// destination) hold by construction.
///
/// # Examples
///
/// ```
/// use rfcache_isa::{ArchReg, OpClass, TraceInst};
///
/// let ld = TraceInst::load(ArchReg::int(4), ArchReg::int(29), 0x1000, 0x4000_0000);
/// assert!(ld.op.is_mem());
/// assert_eq!(ld.mem_addr, Some(0x1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInst {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Instruction class.
    pub op: OpClass,
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Up to two source architectural registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Branch outcome for branches.
    pub branch: Option<BranchInfo>,
}

impl TraceInst {
    /// Creates a register-register ALU-class instruction
    /// (`dst = src1 op src2`).
    pub fn alu(op: OpClass, dst: ArchReg, src1: ArchReg, src2: ArchReg) -> Self {
        debug_assert!(!op.is_mem() && !op.is_branch(), "alu() given {op}");
        TraceInst {
            pc: 0,
            op,
            dst: Some(dst),
            srcs: [Some(src1), Some(src2)],
            mem_addr: None,
            branch: None,
        }
    }

    /// Creates a load: `dst = mem[addr]`, with `base` the address register.
    pub fn load(dst: ArchReg, base: ArchReg, addr: u64, pc: u64) -> Self {
        TraceInst {
            pc,
            op: OpClass::Load,
            dst: Some(dst),
            srcs: [Some(base), None],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// Creates a store: `mem[addr] = data`, with `base` the address register.
    pub fn store(data: ArchReg, base: ArchReg, addr: u64, pc: u64) -> Self {
        TraceInst {
            pc,
            op: OpClass::Store,
            dst: None,
            srcs: [Some(base), Some(data)],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// Creates a conditional branch testing `cond`, with actual outcome
    /// `taken` and target `target`.
    pub fn branch(cond: ArchReg, taken: bool, target: u64, pc: u64) -> Self {
        TraceInst {
            pc,
            op: OpClass::Branch,
            dst: None,
            srcs: [Some(cond), None],
            mem_addr: None,
            branch: Some(BranchInfo { taken, target }),
        }
    }

    /// Sets the program counter (builder-style helper for trace generators).
    #[must_use]
    pub fn with_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// Iterator over the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Number of present source registers (0..=2).
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().flatten().count()
    }
}

impl fmt::Display for TraceInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if let Some(a) = self.mem_addr {
            write!(f, " @{a:#x}")?;
        }
        if let Some(b) = self.branch {
            write!(f, " {}->{:#x}", if b.taken { "T" } else { "N" }, b.target)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    #[test]
    fn constructors_enforce_shape() {
        let i = TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
        assert_eq!(i.num_sources(), 2);
        assert!(i.dst.is_some());

        let s = TraceInst::store(ArchReg::fp(1), ArchReg::int(2), 64, 0x100);
        assert!(s.dst.is_none());
        assert_eq!(s.num_sources(), 2);
        assert_eq!(s.mem_addr, Some(64));

        let b = TraceInst::branch(ArchReg::int(7), true, 0x40, 0x3c);
        assert!(b.branch.unwrap().taken);
        assert_eq!(b.num_sources(), 1);
    }

    #[test]
    fn load_destination_class_follows_register() {
        let fp_load = TraceInst::load(ArchReg::fp(2), ArchReg::int(3), 8, 0);
        assert_eq!(fp_load.dst.unwrap().class(), RegClass::Fp);
    }

    #[test]
    fn with_pc_sets_pc() {
        let i = TraceInst::alu(OpClass::FpAlu, ArchReg::fp(0), ArchReg::fp(1), ArchReg::fp(2))
            .with_pc(0x1234);
        assert_eq!(i.pc, 0x1234);
    }

    #[test]
    fn display_mentions_operands() {
        let i = TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
        let s = i.to_string();
        assert!(s.contains("r1"), "{s}");
        assert!(s.contains("int_alu"), "{s}");
    }

    #[test]
    fn sources_iterates_in_order() {
        let s = TraceInst::store(ArchReg::fp(1), ArchReg::int(2), 64, 0);
        let v: Vec<_> = s.sources().collect();
        assert_eq!(v, vec![ArchReg::int(2), ArchReg::fp(1)]);
    }
}
