//! The load/store queue: program-ordered memory operations with
//! store→load forwarding and conservative load scheduling ("loads may
//! execute when prior store addresses are known", Table 1).
//!
//! [`Lsq::insert`] hands out an [`LsqId`] handle, so every later call
//! finds its entry in O(1). The queue also tracks a *barrier*: the oldest
//! store whose address is still unknown. A load may execute exactly when
//! it is older than the barrier, so [`Lsq::prior_store_addresses_known`]
//! is one comparison. The barrier only moves forward, and passes each
//! entry once. Memory operations commit in program order, so
//! [`Lsq::retire`] always pops the head.

use rfcache_isa::InstSeq;
use std::collections::VecDeque;

/// Word granularity used for forwarding/alias checks (8-byte words).
const WORD_SHIFT: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    seq: InstSeq,
    is_store: bool,
    addr: u64,
    /// Stores: address has been computed (the store has issued).
    addr_known: bool,
    /// Stores: data value is available for forwarding (store completed).
    data_ready: bool,
}

impl LsqEntry {
    /// Whether this entry holds back every younger load.
    fn blocks_loads(&self) -> bool {
        self.is_store && !self.addr_known
    }
}

/// Handle of one load/store-queue entry, returned by [`Lsq::insert`]: the
/// entry's insertion number, so handles follow program order. It names
/// its entry until [`Lsq::retire`] removes it; the queue's lookups panic
/// on a handle after that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqId(u64);

/// Outcome of searching the older stores for a load's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSearch {
    /// No older store overlaps: access the data cache.
    NoConflict,
    /// The nearest older overlapping store can forward its data.
    Forward,
    /// The nearest older overlapping store has not produced its data yet:
    /// the load must retry later.
    MustWait,
}

/// The load/store queue.
///
/// # Examples
///
/// ```
/// use rfcache_pipeline::{Lsq, StoreSearch};
///
/// let mut lsq = Lsq::new(8);
/// let store = lsq.insert(0, true, 0x100);
/// let load = lsq.insert(1, false, 0x100);
/// assert!(!lsq.prior_store_addresses_known(load)); // the store is the barrier
/// lsq.store_address_ready(store); // the barrier moves past the load
/// assert!(lsq.prior_store_addresses_known(load));
/// assert_eq!(lsq.search_older_stores(load, 0x100), StoreSearch::MustWait);
/// lsq.store_data_ready(store);
/// assert_eq!(lsq.search_older_stores(load, 0x100), StoreSearch::Forward);
/// lsq.retire(store); // commit pops the head
/// lsq.retire(load);
/// assert!(lsq.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    /// Live entries in program order; `entries[i]` has handle `head + i`.
    entries: VecDeque<LsqEntry>,
    /// Handle of the oldest live entry.
    head: u64,
    /// Handle of the oldest store whose address is unknown, or the next
    /// handle to be issued if there is none: every entry older than it is
    /// a load or a store with a known address.
    barrier: u64,
    capacity: usize,
}

impl Lsq {
    /// Creates a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq { entries: VecDeque::with_capacity(capacity), head: 0, barrier: 0, capacity }
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (dispatch must stall).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Handle the next insert will return.
    fn tail(&self) -> u64 {
        self.head + self.entries.len() as u64
    }

    /// Position of the live entry `id` in `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been retired.
    #[inline]
    fn index(&self, id: LsqId) -> usize {
        let i = id.0.wrapping_sub(self.head) as usize;
        assert!(i < self.entries.len(), "LSQ handle {} is not live", id.0);
        i
    }

    /// Appends a memory operation at dispatch (program order) and returns
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not monotonically
    /// increasing.
    pub fn insert(&mut self, seq: InstSeq, is_store: bool, addr: u64) -> LsqId {
        assert!(!self.is_full(), "LSQ overflow: check is_full() before insert");
        if let Some(last) = self.entries.back() {
            assert!(last.seq < seq, "LSQ inserts must follow program order");
        }
        let id = self.tail();
        let entry = LsqEntry { seq, is_store, addr, addr_known: false, data_ready: false };
        self.entries.push_back(entry);
        if self.barrier == id && !is_store {
            // No unknown store address ahead: the barrier stays at the tail.
            self.barrier += 1;
        }
        LsqId(id)
    }

    /// Moves the barrier past every entry that no longer blocks loads.
    fn advance_barrier(&mut self) {
        let tail = self.tail();
        while self.barrier < tail
            && !self.entries[(self.barrier - self.head) as usize].blocks_loads()
        {
            self.barrier += 1;
        }
    }

    /// Marks store `id` as having computed its address (it has issued).
    pub fn store_address_ready(&mut self, id: LsqId) {
        let i = self.index(id);
        debug_assert!(self.entries[i].is_store);
        self.entries[i].addr_known = true;
        if id.0 == self.barrier {
            self.advance_barrier();
        }
    }

    /// Marks store `id` as having its data available (it completed
    /// execution).
    pub fn store_data_ready(&mut self, id: LsqId) {
        let i = self.index(id);
        self.entries[i].data_ready = true;
        self.store_address_ready(id);
    }

    /// Whether every store older than `id` has a known address — the
    /// paper's condition for a load to begin execution.
    #[inline]
    pub fn prior_store_addresses_known(&self, id: LsqId) -> bool {
        id.0 <= self.barrier
    }

    /// Searches the stores older than `id` for one overlapping the load
    /// at `addr` (8-byte granularity), nearest first.
    pub fn search_older_stores(&self, id: LsqId, addr: u64) -> StoreSearch {
        let word = addr >> WORD_SHIFT;
        for e in self.entries.range(..self.index(id)).rev() {
            if e.is_store && e.addr_known && (e.addr >> WORD_SHIFT) == word {
                return if e.data_ready { StoreSearch::Forward } else { StoreSearch::MustWait };
            }
        }
        StoreSearch::NoConflict
    }

    /// Removes entry `id` at commit of its memory operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the oldest entry: memory operations commit
    /// in program order.
    pub fn retire(&mut self, id: LsqId) {
        assert_eq!(id.0, self.head, "LSQ entries retire in program order");
        self.entries.pop_front().expect("a live handle names an entry");
        self.head += 1;
        if self.barrier < self.head {
            // The barrier store itself retired.
            self.barrier = self.head;
            self.advance_barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_waits_for_unknown_store_addresses() {
        let mut lsq = Lsq::new(8);
        let s0 = lsq.insert(0, true, 0x40);
        let s1 = lsq.insert(1, true, 0x80);
        let load = lsq.insert(2, false, 0x40);
        assert!(!lsq.prior_store_addresses_known(load));
        lsq.store_address_ready(s0);
        assert!(!lsq.prior_store_addresses_known(load));
        lsq.store_address_ready(s1);
        assert!(lsq.prior_store_addresses_known(load));
    }

    #[test]
    fn forwarding_from_nearest_older_store() {
        let mut lsq = Lsq::new(8);
        let far = lsq.insert(0, true, 0x100); // far store, same word
        let near = lsq.insert(1, true, 0x100); // near store, same word
        let load = lsq.insert(2, false, 0x104); // same 8-byte word as 0x100
        lsq.store_data_ready(far);
        lsq.store_address_ready(near); // near store: address only
        assert_eq!(lsq.search_older_stores(load, 0x104), StoreSearch::MustWait);
        lsq.store_data_ready(near);
        assert_eq!(lsq.search_older_stores(load, 0x104), StoreSearch::Forward);
    }

    #[test]
    fn no_conflict_when_addresses_differ() {
        let mut lsq = Lsq::new(8);
        let store = lsq.insert(0, true, 0x100);
        let load = lsq.insert(1, false, 0x200);
        lsq.store_data_ready(store);
        assert_eq!(lsq.search_older_stores(load, 0x200), StoreSearch::NoConflict);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut lsq = Lsq::new(8);
        let load = lsq.insert(0, false, 0x100);
        let store = lsq.insert(1, true, 0x100);
        lsq.store_data_ready(store);
        assert_eq!(lsq.search_older_stores(load, 0x100), StoreSearch::NoConflict);
    }

    #[test]
    fn remove_retires_only_the_named_entry() {
        let mut lsq = Lsq::new(8);
        let store = lsq.insert(0, true, 0x40);
        let load = lsq.insert(1, false, 0x40);
        lsq.insert(2, false, 0x80);
        assert!(!lsq.prior_store_addresses_known(load));
        lsq.retire(store);
        assert_eq!(lsq.len(), 2);
        assert!(lsq.prior_store_addresses_known(load), "the committed store no longer blocks");
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn retiring_a_non_head_entry_panics() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, true, 0x40);
        let load = lsq.insert(1, false, 0x40);
        lsq.retire(load);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_rejected() {
        let mut lsq = Lsq::new(8);
        lsq.insert(5, false, 0);
        lsq.insert(3, false, 0);
    }

    #[test]
    fn capacity() {
        let mut lsq = Lsq::new(2);
        lsq.insert(0, false, 0);
        assert!(!lsq.is_full());
        lsq.insert(1, false, 0);
        assert!(lsq.is_full());
    }
}
