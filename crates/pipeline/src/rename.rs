//! Register renaming: per-class register alias tables and free lists.

use rfcache_isa::{ArchReg, PhysReg, RegClass, ARCH_REGS_PER_CLASS};

/// The rename unit. Logical registers of each class map to physical
/// registers of that class's register file; each in-flight result gets a
/// fresh physical register, eliminating WAR/WAW hazards.
///
/// # Examples
///
/// ```
/// use rfcache_isa::{ArchReg, RegClass};
/// use rfcache_pipeline::RenameUnit;
///
/// let mut rename = RenameUnit::new(64);
/// let r1 = ArchReg::int(1);
/// let before = rename.lookup(r1);
/// let fresh = rename.allocate(r1).unwrap();
/// assert_ne!(before, fresh.new_preg);
/// assert_eq!(rename.lookup(r1), fresh.new_preg);
/// ```
#[derive(Debug, Clone)]
pub struct RenameUnit {
    rat: [[PhysReg; 32]; 2],
    free: [Vec<PhysReg>; 2],
}

/// Result of allocating a destination register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// The freshly allocated physical register.
    pub new_preg: PhysReg,
    /// The previous mapping of the architectural register (to free at
    /// commit of the allocating instruction).
    pub old_preg: PhysReg,
}

impl RenameUnit {
    /// Creates a rename unit with `phys_regs` physical registers per
    /// class. Architectural register `i` initially maps to physical
    /// register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs <= ARCH_REGS_PER_CLASS`.
    pub fn new(phys_regs: usize) -> Self {
        let arch = usize::from(ARCH_REGS_PER_CLASS);
        assert!(phys_regs > arch, "need more physical than architectural registers");
        let identity = std::array::from_fn(|i| PhysReg::new(i as u16));
        let free_range = || (arch as u16..phys_regs as u16).rev().map(PhysReg::new).collect();
        RenameUnit { rat: [identity; 2], free: [free_range(), free_range()] }
    }

    /// Free physical registers currently available in `class`.
    pub fn free_count(&self, class: RegClass) -> usize {
        self.free[class.index()].len()
    }

    /// Current mapping of an architectural register.
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        self.rat[reg.class().index()][reg.index()]
    }

    /// Allocates a fresh physical register for `dst`, updating the RAT.
    /// Returns `None` when the class's free list is empty (dispatch must
    /// stall).
    pub fn allocate(&mut self, dst: ArchReg) -> Option<Allocation> {
        let class = dst.class().index();
        let new_preg = self.free[class].pop()?;
        let old_preg = std::mem::replace(&mut self.rat[class][dst.index()], new_preg);
        Some(Allocation { new_preg, old_preg })
    }

    /// Returns a physical register to the free list (at commit of the
    /// superseding instruction).
    pub fn release(&mut self, class: RegClass, preg: PhysReg) {
        debug_assert!(
            !self.free[class.index()].contains(&preg),
            "double release of {preg} ({class})"
        );
        self.free[class.index()].push(preg);
    }

    /// All physical registers currently mapped by the RAT of `class`.
    pub fn mapped(&self, class: RegClass) -> impl Iterator<Item = PhysReg> + '_ {
        self.rat[class.index()].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mapping_is_identity() {
        let r = RenameUnit::new(48);
        assert_eq!(r.lookup(ArchReg::int(7)), PhysReg::new(7));
        assert_eq!(r.lookup(ArchReg::fp(31)), PhysReg::new(31));
        assert_eq!(r.free_count(RegClass::Int), 16);
    }

    #[test]
    fn allocate_updates_rat_and_returns_old() {
        let mut r = RenameUnit::new(40);
        let a = r.allocate(ArchReg::int(3)).unwrap();
        assert_eq!(a.old_preg, PhysReg::new(3));
        assert_eq!(r.lookup(ArchReg::int(3)), a.new_preg);
        let b = r.allocate(ArchReg::int(3)).unwrap();
        assert_eq!(b.old_preg, a.new_preg);
    }

    #[test]
    fn classes_have_independent_free_lists() {
        let mut r = RenameUnit::new(33);
        assert!(r.allocate(ArchReg::int(0)).is_some());
        assert_eq!(r.free_count(RegClass::Int), 0);
        assert!(r.allocate(ArchReg::int(1)).is_none(), "int exhausted");
        assert!(r.allocate(ArchReg::fp(1)).is_some(), "fp unaffected");
    }

    #[test]
    fn release_replenishes() {
        let mut r = RenameUnit::new(33);
        let a = r.allocate(ArchReg::int(0)).unwrap();
        assert!(r.allocate(ArchReg::int(1)).is_none());
        r.release(RegClass::Int, a.old_preg);
        assert!(r.allocate(ArchReg::int(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "more physical than architectural")]
    fn too_small_rejected() {
        let _ = RenameUnit::new(32);
    }
}
