//! Instruction classes, functional-unit kinds, and execution latencies.
//!
//! The classes and latencies follow Table 1 of the paper:
//!
//! | Functional units | latency |
//! |---|---|
//! | 6 simple integer | 1 |
//! | 3 integer mult/div | 2 (mult), 14 (div) |
//! | 4 simple FP | 2 |
//! | 2 FP divide | 14 |
//! | 4 load/store | address generation 1 + cache access |

use std::fmt;

/// Dynamic instruction class. Each class maps to one functional-unit kind
/// and a fixed execution latency (memory operations add cache latency on
/// top of address generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Simple floating-point operation (add/sub/mul/convert).
    FpAlu,
    /// Floating-point divide (or sqrt).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (resolved in a simple-integer unit).
    Branch,
}

impl OpClass {
    /// All instruction classes in a fixed order.
    pub const ALL: [OpClass; 8] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// Execution latency in cycles, excluding any cache access for memory
    /// operations (Table 1 of the paper).
    #[inline]
    pub fn exec_latency(self) -> u64 {
        match self {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMul => 2,
            OpClass::IntDiv => 14,
            OpClass::FpAlu => 2,
            OpClass::FpDiv => 14,
            // Address generation; the data cache adds its own latency.
            OpClass::Load | OpClass::Store => 1,
        }
    }

    /// Functional-unit kind required to execute this class.
    #[inline]
    pub fn fu_kind(self) -> FuKind {
        match self {
            OpClass::IntAlu | OpClass::Branch => FuKind::SimpleInt,
            OpClass::IntMul | OpClass::IntDiv => FuKind::IntMulDiv,
            OpClass::FpAlu => FuKind::SimpleFp,
            OpClass::FpDiv => FuKind::FpDiv,
            OpClass::Load | OpClass::Store => FuKind::LoadStore,
        }
    }

    /// Whether the class accesses data memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the class is a conditional branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Functional-unit kinds with their pool sizes from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Simple integer ALU / branch unit.
    SimpleInt,
    /// Integer multiply/divide unit.
    IntMulDiv,
    /// Simple floating-point unit.
    SimpleFp,
    /// Floating-point divide unit.
    FpDiv,
    /// Load/store (address generation) unit.
    LoadStore,
}

impl FuKind {
    /// All functional-unit kinds in a fixed order.
    pub const ALL: [FuKind; 5] =
        [FuKind::SimpleInt, FuKind::IntMulDiv, FuKind::SimpleFp, FuKind::FpDiv, FuKind::LoadStore];

    /// Dense index of the kind (for per-kind arrays).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            FuKind::SimpleInt => 0,
            FuKind::IntMulDiv => 1,
            FuKind::SimpleFp => 2,
            FuKind::FpDiv => 3,
            FuKind::LoadStore => 4,
        }
    }

    /// Default pool size from Table 1 of the paper.
    #[inline]
    pub fn default_count(self) -> usize {
        match self {
            FuKind::SimpleInt => 6,
            FuKind::IntMulDiv => 3,
            FuKind::SimpleFp => 4,
            FuKind::FpDiv => 2,
            FuKind::LoadStore => 4,
        }
    }

    /// Whether the unit is pipelined (accepts a new operation every cycle).
    /// Divide units are not pipelined, matching implementations of the era.
    #[inline]
    pub fn is_pipelined(self) -> bool {
        !matches!(self, FuKind::FpDiv)
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::SimpleInt => "simple_int",
            FuKind::IntMulDiv => "int_muldiv",
            FuKind::SimpleFp => "simple_fp",
            FuKind::FpDiv => "fp_div",
            FuKind::LoadStore => "load_store",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table1() {
        assert_eq!(OpClass::IntAlu.exec_latency(), 1);
        assert_eq!(OpClass::IntMul.exec_latency(), 2);
        assert_eq!(OpClass::IntDiv.exec_latency(), 14);
        assert_eq!(OpClass::FpAlu.exec_latency(), 2);
        assert_eq!(OpClass::FpDiv.exec_latency(), 14);
        assert_eq!(OpClass::Load.exec_latency(), 1);
    }

    #[test]
    fn fu_pool_sizes_match_table1() {
        assert_eq!(FuKind::SimpleInt.default_count(), 6);
        assert_eq!(FuKind::IntMulDiv.default_count(), 3);
        assert_eq!(FuKind::SimpleFp.default_count(), 4);
        assert_eq!(FuKind::FpDiv.default_count(), 2);
        assert_eq!(FuKind::LoadStore.default_count(), 4);
    }

    #[test]
    fn fu_kind_indices_are_dense() {
        for (i, kind) in FuKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn op_to_fu_mapping() {
        assert_eq!(OpClass::Branch.fu_kind(), FuKind::SimpleInt);
        assert_eq!(OpClass::IntDiv.fu_kind(), FuKind::IntMulDiv);
        assert_eq!(OpClass::Store.fu_kind(), FuKind::LoadStore);
    }

    #[test]
    fn mem_and_branch_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::Branch.is_branch());
        assert!(!OpClass::Load.is_branch());
    }

    #[test]
    fn display_is_nonempty_for_all() {
        for op in OpClass::ALL {
            assert!(!op.to_string().is_empty());
        }
        for fu in FuKind::ALL {
            assert!(!fu.to_string().is_empty());
        }
    }
}
