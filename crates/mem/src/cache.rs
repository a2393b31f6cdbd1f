//! Generic set-associative cache with per-set LRU replacement and
//! write-back dirty tracking.

use std::fmt;

/// Static configuration of a set-associative cache.
///
/// # Examples
///
/// ```
/// use rfcache_mem::CacheConfig;
/// let c = CacheConfig::spec_dcache();
/// assert_eq!(c.size_bytes(), 64 * 1024);
/// assert_eq!(c.num_sets(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Miss latency in cycles (clean victim).
    pub miss_latency: u64,
    /// Miss latency in cycles when the victim line is dirty.
    pub dirty_miss_latency: u64,
}

impl CacheConfig {
    /// The paper's instruction cache: 64KB, 2-way, 64-byte lines, 1-cycle
    /// hit, 6-cycle miss.
    pub fn spec_icache() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            miss_latency: 6,
            dirty_miss_latency: 6, // instruction cache lines are never dirty
        }
    }

    /// The paper's data cache: 64KB, 2-way, 64-byte lines, write-back,
    /// 1-cycle hit, 6-cycle miss (8 if the victim is dirty).
    pub fn spec_dcache() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            miss_latency: 6,
            dirty_miss_latency: 8,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of sets (`size / (ways * line)`).
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * self.line_bytes)
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways >= 1, "cache must have at least one way");
        assert!(
            self.num_sets().is_power_of_two() && self.num_sets() >= 1,
            "set count must be a power of two (size {}, ways {}, line {})",
            self.size_bytes,
            self.ways,
            self.line_bytes
        );
        assert!(self.dirty_miss_latency >= self.miss_latency);
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// Access latency in cycles (hit latency or the appropriate miss
    /// latency).
    pub latency: u64,
    /// Whether the access evicted a dirty victim line.
    pub dirty_writeback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotone counter value of the last touch, for LRU.
    last_use: u64,
}

const INVALID_LINE: Line = Line { tag: 0, valid: false, dirty: false, last_use: 0 };

/// A set-associative, write-back, write-allocate cache model.
///
/// Tracks only tags and dirty bits — the simulator is trace-driven and
/// never needs the data values themselves.
///
/// # Examples
///
/// ```
/// use rfcache_mem::{CacheConfig, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheConfig::spec_icache());
/// assert!(!c.access(0x4000, false).hit);
/// assert!(c.access(0x4000, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(num_sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
    /// `num_sets - 1`: a line's set is `line & set_mask`.
    set_mask: u64,
    lines: Vec<Line>, // num_sets * ways, set-major
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent (non
    /// power-of-two geometry, zero ways, or dirty-miss latency below the
    /// clean-miss latency).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        // `validate` guarantees power-of-two line size and set count, so
        // shifts and a mask split an address exactly as division would.
        let sets = config.num_sets();
        let total = (sets * u64::from(config.ways)) as usize;
        SetAssocCache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            lines: vec![INVALID_LINE; total],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Splits `addr` into the index of its set's first line and its tag.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        (set * self.config.ways as usize, line_addr >> self.set_shift)
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accesses `addr`; `write` marks the line dirty. Misses allocate the
    /// line (write-allocate), evicting the LRU way.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        let (base, tag) = self.locate(addr);
        let set_lines = &mut self.lines[base..base + self.config.ways as usize];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.tick;
            line.dirty |= write;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                latency: self.config.hit_latency,
                dirty_writeback: false,
            };
        }

        // Miss: pick the LRU way (invalid lines have last_use 0 and win).
        self.misses += 1;
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("cache set is never empty");
        let dirty_writeback = victim.valid && victim.dirty;
        *victim = Line { tag, valid: true, dirty: write, last_use: self.tick };
        let latency =
            if dirty_writeback { self.config.dirty_miss_latency } else { self.config.miss_latency };
        AccessOutcome { hit: false, latency, dirty_writeback }
    }

    /// Probes whether `addr` is resident without updating LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        self.lines[base..base + self.config.ways as usize].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Number of hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses, or `None` before the first access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Invalidates every line and clears statistics.
    pub fn reset(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way cache ({} hits / {} misses)",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.hits,
            self.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B: easy to force conflicts.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
            miss_latency: 6,
            dirty_miss_latency: 8,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        let first = c.access(0x100, false);
        assert!(!first.hit);
        assert_eq!(first.latency, 6);
        let second = c.access(0x13f, false); // same 64B line (0x100..0x140)
        assert!(second.hit);
        assert_eq!(second.latency, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = small_cache();
        // Three tags mapping to set 0 (set stride = 4 lines = 256B).
        let (a, b, d) = (0x000, 0x100, 0x200);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_costs_more() {
        let mut c = small_cache();
        c.access(0x000, true); // dirty line in set 0
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x000
        assert!(out.dirty_writeback);
        assert_eq!(out.latency, 8);
    }

    #[test]
    fn clean_eviction_costs_normal_miss() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert!(!out.dirty_writeback);
        assert_eq!(out.latency, 6);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x000, true); // dirty via write hit
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert!(out.dirty_writeback);
    }

    #[test]
    fn contains_does_not_perturb_lru() {
        let mut c = small_cache();
        c.access(0x000, false);
        c.access(0x100, false);
        // Probing `a` must not refresh it.
        assert!(c.contains(0x000));
        c.access(0x200, false); // still evicts 0x000 (the true LRU)
        assert!(!c.contains(0x000));
    }

    #[test]
    fn statistics_and_reset() {
        let mut c = small_cache();
        assert_eq!(c.hit_rate(), None);
        c.access(0x0, false);
        c.access(0x0, false);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), Some(0.5));
        c.reset();
        assert_eq!(c.hits(), 0);
        assert!(!c.contains(0x0));
    }

    #[test]
    fn spec_configs_have_paper_geometry() {
        let i = CacheConfig::spec_icache();
        assert_eq!(i.num_sets(), 512);
        let d = CacheConfig::spec_dcache();
        assert_eq!(d.dirty_miss_latency, 8);
        // Both must construct cleanly.
        let _ = SetAssocCache::new(i);
        let _ = SetAssocCache::new(d);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache();
        for set in 0..4u64 {
            c.access(set * 64, false);
        }
        for set in 0..4u64 {
            assert!(c.contains(set * 64));
        }
    }
}
