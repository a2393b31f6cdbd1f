//! The reorder buffer: in-flight instructions in program order, each named
//! by its sequence number.

use rfcache_isa::{Cycle, InstSeq, PhysReg, RegClass, TraceInst};
use std::collections::VecDeque;

/// One in-flight instruction. Its stage is the latest of its cycles that
/// is set: dispatched, issued, completed (result produced) or written
/// back.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The trace instruction.
    pub inst: TraceInst,
    /// Renamed destination, if any.
    pub dst: Option<(RegClass, PhysReg)>,
    /// Previous mapping of the destination architectural register (freed
    /// at commit).
    pub old_dst: Option<(RegClass, PhysReg)>,
    /// Whether the front end mispredicted this branch.
    pub mispredicted: bool,
    /// Cycle the instruction issued.
    pub issue_cycle: Option<Cycle>,
    /// Cycle the result was produced (end of execute).
    pub complete_cycle: Option<Cycle>,
    /// Cycle the result was written back (for an instruction without a
    /// result, the cycle it completed).
    pub writeback_cycle: Option<Cycle>,
}

/// The reorder buffer. Entries are appended in program order at dispatch,
/// which numbers them, and removed from the head at commit.
pub struct Rob {
    entries: VecDeque<InFlight>,
    /// Sequence number of the oldest entry (of the next one pushed when
    /// the buffer is empty).
    head: InstSeq,
    capacity: usize,
}

impl Rob {
    /// Creates a reorder buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob { entries: VecDeque::with_capacity(capacity), head: 0, capacity }
    }

    /// Number of occupied entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Appends an instruction at the tail and returns its sequence
    /// number, one more than the previous instruction's.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (callers must check
    /// [`is_full`](Self::is_full) first).
    pub fn push(&mut self, inst: TraceInst) -> InstSeq {
        assert!(!self.is_full(), "ROB overflow: check is_full() before push");
        self.entries.push_back(InFlight {
            inst,
            dst: None,
            old_dst: None,
            mispredicted: false,
            issue_cycle: None,
            complete_cycle: None,
            writeback_cycle: None,
        });
        self.head + self.entries.len() as u64 - 1
    }

    /// The entry of instruction `seq`, or `None` once it has committed.
    #[inline]
    pub fn get(&self, seq: InstSeq) -> Option<&InFlight> {
        self.entries.get(seq.wrapping_sub(self.head) as usize)
    }

    /// Mutable access to the entry of instruction `seq`, or `None` once it
    /// has committed.
    #[inline]
    pub fn get_mut(&mut self, seq: InstSeq) -> Option<&mut InFlight> {
        self.entries.get_mut(seq.wrapping_sub(self.head) as usize)
    }

    /// The oldest entry and its sequence number.
    #[inline]
    pub fn head(&self) -> Option<(InstSeq, &InFlight)> {
        self.entries.front().map(|entry| (self.head, entry))
    }

    /// Removes and returns the oldest entry.
    pub fn pop_head(&mut self) -> Option<InFlight> {
        let entry = self.entries.pop_front()?;
        self.head += 1;
        Some(entry)
    }

    /// Iterates over the entries in program order, with their sequence
    /// numbers.
    pub fn iter(&self) -> impl Iterator<Item = (InstSeq, &InFlight)> + '_ {
        (self.head..).zip(&self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfcache_isa::{ArchReg, OpClass};

    fn inst() -> TraceInst {
        TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3))
    }

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        let a = rob.push(inst().with_pc(0x10));
        let b = rob.push(inst().with_pc(0x14));
        assert_eq!((a, b), (0, 1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head().map(|(seq, _)| seq), Some(a));
        let popped = rob.pop_head().unwrap();
        assert_eq!(popped.inst.pc, 0x10);
        assert_eq!(rob.len(), 1);
        assert_eq!(rob.head().map(|(seq, _)| seq), Some(b));
    }

    #[test]
    fn stale_handles_are_invalidated() {
        let mut rob = Rob::new(2);
        let a = rob.push(inst());
        rob.pop_head();
        assert!(rob.get(a).is_none());
        // The next instruction takes the next number, never a committed
        // one, and a number not yet handed out names nothing.
        let b = rob.push(inst());
        assert_eq!(b, a + 1);
        assert!(rob.get(a).is_none());
        assert!(rob.get(b).is_some());
        assert!(rob.get(b + 1).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(inst());
        rob.push(inst());
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(inst());
        rob.push(inst());
    }

    #[test]
    fn iter_is_program_order_after_churn() {
        let mut rob = Rob::new(4);
        for pc in [0x10, 0x14] {
            rob.push(inst().with_pc(pc));
        }
        rob.pop_head();
        for pc in [0x18, 0x1c] {
            rob.push(inst().with_pc(pc));
        }
        let seen: Vec<_> = rob.iter().map(|(seq, e)| (seq, e.inst.pc)).collect();
        assert_eq!(seen, vec![(1, 0x14), (2, 0x18), (3, 0x1c)]);
        rob.get_mut(2).unwrap().issue_cycle = Some(7);
        assert_eq!(rob.get(2).unwrap().issue_cycle, Some(7));
    }
}
