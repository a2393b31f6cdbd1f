//! The load/store queue: program-ordered memory operations with
//! store→load forwarding and conservative load scheduling ("loads may
//! execute when prior store addresses are known", Table 1).

use rfcache_isa::InstSeq;

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
/// lsq.insert(0, true, 0x100); // store
/// lsq.insert(1, false, 0x100); // load
/// assert!(!lsq.prior_store_addresses_known(1)); // store not issued yet
/// lsq.store_address_ready(0);
/// assert_eq!(lsq.search_older_stores(1, 0x100), StoreSearch::MustWait);
/// lsq.store_data_ready(0);
/// assert_eq!(lsq.search_older_stores(1, 0x100), StoreSearch::Forward);
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    entries: Vec<LsqEntry>,
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
        Lsq { entries: Vec::with_capacity(capacity), capacity }
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

    /// Appends a memory operation at dispatch (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not monotonically
    /// increasing.
    pub fn insert(&mut self, seq: InstSeq, is_store: bool, addr: u64) {
        assert!(!self.is_full(), "LSQ overflow: check is_full() before insert");
        if let Some(last) = self.entries.last() {
            assert!(last.seq < seq, "LSQ inserts must follow program order");
        }
        self.entries.push(LsqEntry { seq, is_store, addr, addr_known: false, data_ready: false });
    }

    fn position(&self, seq: InstSeq) -> Option<usize> {
        self.entries.iter().position(|e| e.seq == seq)
    }

    /// Marks the store with sequence `seq` as having computed its address
    /// (it has issued).
    pub fn store_address_ready(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].addr_known = true;
        }
    }

    /// Marks the store with sequence `seq` as having its data available
    /// (it completed execution).
    pub fn store_data_ready(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].addr_known = true;
            self.entries[i].data_ready = true;
        }
    }

    /// Whether every store older than `seq` has a known address — the
    /// paper's condition for a load to begin execution.
    #[inline]
    pub fn prior_store_addresses_known(&self, seq: InstSeq) -> bool {
        self.entries.iter().take_while(|e| e.seq < seq).all(|e| !e.is_store || e.addr_known)
    }

    /// Searches older stores for one overlapping the load at `addr`
    /// (8-byte granularity), nearest first.
    pub fn search_older_stores(&self, seq: InstSeq, addr: u64) -> StoreSearch {
        let word = addr >> WORD_SHIFT;
        for e in self.entries.iter().rev().skip_while(|e| e.seq >= seq) {
            if e.is_store && e.addr_known && (e.addr >> WORD_SHIFT) == word {
                return if e.data_ready { StoreSearch::Forward } else { StoreSearch::MustWait };
            }
        }
        StoreSearch::NoConflict
    }

    /// Removes the entry with sequence `seq` (commit of a memory op).
    pub fn remove(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            self.entries.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_waits_for_unknown_store_addresses() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, true, 0x40);
        lsq.insert(1, true, 0x80);
        lsq.insert(2, false, 0x40);
        assert!(!lsq.prior_store_addresses_known(2));
        lsq.store_address_ready(0);
        assert!(!lsq.prior_store_addresses_known(2));
        lsq.store_address_ready(1);
        assert!(lsq.prior_store_addresses_known(2));
    }

    #[test]
    fn forwarding_from_nearest_older_store() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, true, 0x100); // far store, same word
        lsq.insert(1, true, 0x100); // near store, same word
        lsq.insert(2, false, 0x104); // same 8-byte word as 0x100
        lsq.store_data_ready(0);
        lsq.store_address_ready(1); // near store: address only
        assert_eq!(lsq.search_older_stores(2, 0x104), StoreSearch::MustWait);
        lsq.store_data_ready(1);
        assert_eq!(lsq.search_older_stores(2, 0x104), StoreSearch::Forward);
    }

    #[test]
    fn no_conflict_when_addresses_differ() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, true, 0x100);
        lsq.insert(1, false, 0x200);
        lsq.store_data_ready(0);
        assert_eq!(lsq.search_older_stores(1, 0x200), StoreSearch::NoConflict);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, false, 0x100);
        lsq.insert(1, true, 0x100);
        lsq.store_data_ready(1);
        assert_eq!(lsq.search_older_stores(0, 0x100), StoreSearch::NoConflict);
    }

    #[test]
    fn remove_retires_only_the_named_entry() {
        let mut lsq = Lsq::new(8);
        lsq.insert(0, true, 0x40);
        lsq.insert(1, false, 0x40);
        lsq.insert(2, false, 0x80);
        assert!(!lsq.prior_store_addresses_known(1));
        lsq.remove(0);
        assert_eq!(lsq.len(), 2);
        assert!(lsq.prior_store_addresses_known(1), "the committed store no longer blocks");
        lsq.remove(0);
        assert_eq!(lsq.len(), 2, "removing an absent entry is a no-op");
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
