//! The reorder buffer: a bounded circular buffer of in-flight
//! instructions with generation-checked stable handles.

use rfcache_isa::{Cycle, InstSeq, PhysReg, RegClass, TraceInst};

/// Pipeline stage of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Renamed and waiting in the instruction window.
    Dispatched,
    /// Issued; operands being read / executing.
    Issued,
    /// Result produced (end of execute).
    Completed,
    /// Result written to the register file.
    WrittenBack,
}

/// A stable, generation-checked handle to a reorder-buffer entry.
///
/// Events and wakeup lists hold `SlotId`s; once the entry commits and its
/// slot is reused, the generation mismatch marks any handle still held
/// as stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId {
    pub(crate) index: u32,
    pub(crate) gen: u32,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Dynamic sequence number (program order).
    pub seq: InstSeq,
    /// The trace instruction.
    pub inst: TraceInst,
    /// Current stage.
    pub stage: Stage,
    /// Renamed destination, if any.
    pub dst: Option<(RegClass, PhysReg)>,
    /// Previous mapping of the destination architectural register (freed
    /// at commit).
    pub old_dst: Option<(RegClass, PhysReg)>,
    /// Renamed sources.
    pub srcs: [Option<(RegClass, PhysReg)>; 2],
    /// Whether the front end mispredicted this branch.
    pub mispredicted: bool,
    /// Cycle the instruction issued.
    pub issue_cycle: Option<Cycle>,
    /// Cycle the result was (or will be) produced.
    pub complete_cycle: Option<Cycle>,
    /// Cycle the result was written back.
    pub writeback_cycle: Option<Cycle>,
}

impl InFlight {
    fn new(seq: InstSeq, inst: TraceInst) -> Self {
        InFlight {
            seq,
            inst,
            stage: Stage::Dispatched,
            dst: None,
            old_dst: None,
            srcs: [None, None],
            mispredicted: false,
            issue_cycle: None,
            complete_cycle: None,
            writeback_cycle: None,
        }
    }

    /// Renamed source registers that are present.
    pub fn sources(&self) -> impl Iterator<Item = (RegClass, PhysReg)> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

struct Slot {
    gen: u32,
    entry: Option<InFlight>,
}

/// The reorder buffer. Entries are appended in program order at dispatch
/// and removed from the head at commit.
pub struct Rob {
    slots: Vec<Slot>,
    /// Indices into `slots`, in program order.
    order: std::collections::VecDeque<u32>,
    free: Vec<u32>,
}

impl Rob {
    /// Creates a reorder buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            slots: (0..capacity).map(|_| Slot { gen: 0, entry: None }).collect(),
            order: std::collections::VecDeque::with_capacity(capacity),
            free: (0..capacity as u32).rev().collect(),
        }
    }

    /// Number of occupied entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether the buffer is full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Appends an instruction at the tail. Returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (callers must check
    /// [`is_full`](Self::is_full) first).
    pub fn push(&mut self, seq: InstSeq, inst: TraceInst) -> SlotId {
        let index = self.free.pop().expect("ROB overflow: check is_full() before push");
        let slot = &mut self.slots[index as usize];
        slot.entry = Some(InFlight::new(seq, inst));
        self.order.push_back(index);
        SlotId { index, gen: slot.gen }
    }

    /// Returns the entry for `id` if it is still alive.
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&InFlight> {
        let slot = &self.slots[id.index as usize];
        (slot.gen == id.gen).then_some(slot.entry.as_ref()).flatten()
    }

    /// Mutable access to the entry for `id` if it is still alive.
    #[inline]
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut InFlight> {
        let slot = &mut self.slots[id.index as usize];
        (slot.gen == id.gen).then_some(slot.entry.as_mut()).flatten()
    }

    /// Handle of the oldest entry.
    #[inline]
    pub fn head(&self) -> Option<SlotId> {
        self.order.front().map(|&index| SlotId { index, gen: self.slots[index as usize].gen })
    }

    /// Removes and returns the oldest entry.
    pub fn pop_head(&mut self) -> Option<InFlight> {
        let index = self.order.pop_front()?;
        let slot = &mut self.slots[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index);
        slot.entry.take()
    }

    /// Iterates over live entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &InFlight)> + '_ {
        self.order.iter().map(|&index| {
            let slot = &self.slots[index as usize];
            (
                SlotId { index, gen: slot.gen },
                slot.entry.as_ref().expect("ordered slot must be occupied"),
            )
        })
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
        let a = rob.push(0, inst());
        let _b = rob.push(1, inst());
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head(), Some(a));
        let popped = rob.pop_head().unwrap();
        assert_eq!(popped.seq, 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn stale_handles_are_invalidated() {
        let mut rob = Rob::new(2);
        let a = rob.push(0, inst());
        rob.pop_head();
        assert!(rob.get(a).is_none());
        // Reusing the slot bumps the generation.
        let b = rob.push(1, inst());
        assert!(rob.get(a).is_none());
        assert!(rob.get(b).is_some());
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(0, inst());
        rob.push(1, inst());
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(0, inst());
        rob.push(1, inst());
    }

    #[test]
    fn iter_is_program_order_after_churn() {
        let mut rob = Rob::new(4);
        rob.push(0, inst());
        rob.push(1, inst());
        rob.pop_head();
        rob.push(2, inst());
        rob.push(3, inst());
        let seqs: Vec<_> = rob.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }
}
