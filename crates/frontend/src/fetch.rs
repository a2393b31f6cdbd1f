//! The fetch engine: consumes a dynamic instruction trace at up to
//! `width` instructions per cycle, stopping at taken branches, paying
//! instruction-cache miss and BTB-bubble penalties, and stalling on
//! mispredicted branches until the back end redirects it.

use crate::btb::Btb;
use crate::gshare::Gshare;
use rfcache_isa::{Cycle, TraceInst};
use rfcache_mem::{CacheConfig, SetAssocCache};
use std::collections::VecDeque;

/// Configuration of the fetch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Maximum instructions fetched per cycle (8 in the paper).
    pub width: usize,
    /// Branch-history bits of the gshare predictor (16 ⇒ 64K entries).
    pub gshare_bits: u32,
    /// BTB entries.
    pub btb_entries: usize,
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            width: 8,
            gshare_bits: 16,
            btb_entries: 4096,
            icache: CacheConfig::spec_icache(),
        }
    }
}

/// One fetched instruction, annotated with the prediction outcome the back
/// end needs to restart fetch. Instructions are delivered in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInst {
    /// The trace instruction.
    pub inst: TraceInst,
    /// Whether the branch (if any) was mispredicted; the back end must call
    /// [`FetchUnit::redirect`] when such a branch resolves.
    pub mispredicted: bool,
}

/// Fetch-engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Instructions delivered to decode.
    pub fetched: u64,
    /// Non-empty fetch blocks delivered.
    pub blocks: u64,
    /// Fetch blocks cut short by a taken branch.
    pub taken_breaks: u64,
    /// Instruction-cache misses that stalled fetch.
    pub icache_stalls: u64,
    /// Bubbles charged for predicted-taken branches missing in the BTB.
    pub btb_bubbles: u64,
    /// Branches fetched.
    pub branches: u64,
    /// Branches fetched with a wrong direction prediction.
    pub mispredicted_branches: u64,
}

/// The fetch engine, generic over the trace source.
///
/// # Examples
///
/// ```
/// use rfcache_frontend::{FetchConfig, FetchUnit};
/// use rfcache_isa::{ArchReg, OpClass, TraceInst};
///
/// let trace = (0..32).map(|i| {
///     TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3))
///         .with_pc(0x1000 + i * 4)
/// });
/// let mut fetch = FetchUnit::new(FetchConfig::default(), trace);
/// let block = fetch.fetch_block(0);
/// assert!(block.is_empty()); // cycle 0: cold icache miss stalls fetch
/// let block = fetch.fetch_block(6);
/// assert_eq!(block.len(), 8); // full width once the line is resident
/// ```
#[derive(Debug)]
pub struct FetchUnit<I: Iterator<Item = TraceInst>> {
    trace: std::iter::Peekable<I>,
    predictor: Gshare,
    btb: Btb,
    icache: SetAssocCache,
    /// `log2` of the icache line size: a pc's line is `pc >> line_shift`.
    line_shift: u32,
    config: FetchConfig,
    stall_until: Cycle,
    waiting_for_redirect: bool,
    stats: FetchStats,
}

impl<I: Iterator<Item = TraceInst>> FetchUnit<I> {
    /// Creates a fetch engine reading from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `config.width == 0` or any sub-component configuration is
    /// invalid.
    pub fn new(config: FetchConfig, trace: I) -> Self {
        assert!(config.width > 0, "fetch width must be positive");
        FetchUnit {
            trace: trace.peekable(),
            predictor: Gshare::new(config.gshare_bits),
            btb: Btb::new(config.btb_entries),
            // `SetAssocCache::new` rejects a line size that is not a power
            // of two, so the shift is exact.
            icache: SetAssocCache::new(config.icache),
            line_shift: config.icache.line_bytes.trailing_zeros(),
            config,
            stall_until: 0,
            waiting_for_redirect: false,
            stats: FetchStats::default(),
        }
    }

    /// Fetches the next block of instructions at cycle `now`. Returns an
    /// empty vector while fetch is stalled (icache miss, BTB bubble, or an
    /// unresolved mispredicted branch).
    pub fn fetch_block(&mut self, now: Cycle) -> Vec<FetchedInst> {
        let mut block = Vec::with_capacity(self.config.width);
        self.fetch_block_with(now, |fi| block.push(fi));
        block
    }

    /// Like [`fetch_block`](Self::fetch_block), but appends the fetched
    /// instructions onto `out` — the steady-state path of the cycle loop
    /// allocates nothing.
    pub fn fetch_block_into(&mut self, now: Cycle, out: &mut VecDeque<FetchedInst>) {
        self.fetch_block_with(now, |fi| out.push_back(fi));
    }

    fn fetch_block_with(&mut self, now: Cycle, mut sink: impl FnMut(FetchedInst)) {
        if self.waiting_for_redirect || now < self.stall_until {
            return;
        }
        let mut current_line: Option<u64> = None;
        let mut fetched_count = 0;

        while fetched_count < self.config.width {
            let Some(next) = self.trace.peek() else { break };
            let line = next.pc >> self.line_shift;
            if current_line != Some(line) {
                let outcome = self.icache.access(next.pc, false);
                if !outcome.hit {
                    // Line not resident: instructions from it arrive after
                    // the miss completes. Anything already fetched this
                    // cycle is still delivered.
                    self.stats.icache_stalls += 1;
                    self.stall_until = now + outcome.latency;
                    break;
                }
                current_line = Some(line);
            }

            let inst = self.trace.next().expect("peeked instruction exists");
            let mut fetched = FetchedInst { inst, mispredicted: false };
            if let Some(branch) = inst.branch {
                self.stats.branches += 1;
                let pred = self.predictor.predict_and_update(inst.pc, branch.taken);
                fetched.mispredicted = !pred.correct;
                if pred.predicted && self.btb.lookup(inst.pc).is_none() {
                    // Predicted taken but no target available: one bubble.
                    self.stats.btb_bubbles += 1;
                    self.stall_until = now + 2;
                }
                if branch.taken {
                    self.btb.update(inst.pc, branch.target);
                }
                if fetched.mispredicted {
                    self.stats.mispredicted_branches += 1;
                    self.waiting_for_redirect = true;
                    sink(fetched);
                    fetched_count += 1;
                    break;
                }
                if branch.taken {
                    // Correctly predicted taken branch ends the block
                    // (at most one taken branch per fetch cycle).
                    self.stats.taken_breaks += 1;
                    sink(fetched);
                    fetched_count += 1;
                    break;
                }
            }
            sink(fetched);
            fetched_count += 1;
        }

        if fetched_count > 0 {
            self.stats.fetched += fetched_count as u64;
            self.stats.blocks += 1;
        }
    }

    /// Signals that the pending mispredicted branch resolved at cycle
    /// `now`; fetch resumes on the correct path the following cycle.
    pub fn redirect(&mut self, now: Cycle) {
        self.waiting_for_redirect = false;
        self.stall_until = self.stall_until.max(now + 1);
    }

    /// Whether fetch is stalled waiting for a mispredict resolution.
    pub fn awaiting_redirect(&self) -> bool {
        self.waiting_for_redirect
    }

    /// Whether the trace has been fully consumed.
    pub fn is_exhausted(&mut self) -> bool {
        self.trace.peek().is_none()
    }

    /// Fetch statistics.
    pub fn stats(&self) -> &FetchStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfcache_isa::{ArchReg, OpClass};

    fn seq_trace(n: u64, base: u64) -> impl Iterator<Item = TraceInst> {
        (0..n).map(move |i| {
            TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3))
                .with_pc(base + i * 4)
        })
    }

    fn drain<I: Iterator<Item = TraceInst>>(f: &mut FetchUnit<I>, cycles: u64) -> Vec<FetchedInst> {
        let mut all = Vec::new();
        for now in 0..cycles {
            all.extend(f.fetch_block(now));
        }
        all
    }

    #[test]
    fn fetches_full_width_on_hits() {
        let mut f = FetchUnit::new(FetchConfig::default(), seq_trace(64, 0x1000));
        // 64 sequential instructions span 4 icache lines; each cold line
        // costs a 6-cycle stall, so allow generous drain time.
        let all = drain(&mut f, 60);
        assert_eq!(all.len(), 64);
        // Delivered in trace order, none skipped or repeated.
        for (i, fi) in all.iter().enumerate() {
            assert_eq!(fi.inst.pc, 0x1000 + i as u64 * 4);
        }
    }

    #[test]
    fn icache_miss_stalls_fetch() {
        let mut f = FetchUnit::new(FetchConfig::default(), seq_trace(16, 0x1000));
        assert!(f.fetch_block(0).is_empty()); // cold miss
        assert!(f.fetch_block(3).is_empty()); // still waiting
        let block = f.fetch_block(6);
        assert_eq!(block.len(), 8);
        assert!(f.stats().icache_stalls >= 1);
    }

    #[test]
    fn taken_branch_ends_block() {
        // 3 ALUs then a taken branch, then more ALUs at the target.
        let mut insts: Vec<TraceInst> = (0..3)
            .map(|i| {
                TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3))
                    .with_pc(0x1000 + i * 4)
            })
            .collect();
        insts.push(TraceInst::branch(ArchReg::int(1), true, 0x1000, 0x100c));
        insts.extend((0..4).map(|i| {
            TraceInst::alu(OpClass::IntAlu, ArchReg::int(1), ArchReg::int(2), ArchReg::int(3))
                .with_pc(0x1000 + i * 4)
        }));
        let mut f = FetchUnit::new(FetchConfig::default(), insts.into_iter());
        let _ = f.fetch_block(0); // cold miss
        let block = f.fetch_block(6);
        // The branch is fetched; block ends at it (mispredicted, cold
        // predictor predicts not-taken, so fetch also stalls for redirect).
        assert!(block.len() <= 4);
        assert!(block.last().unwrap().inst.op.is_branch());
    }

    #[test]
    fn mispredicted_branch_stalls_until_redirect() {
        let insts = vec![TraceInst::branch(ArchReg::int(1), true, 0x2000, 0x1000)];
        let mut f = FetchUnit::new(FetchConfig::default(), insts.into_iter());
        let _ = f.fetch_block(0);
        let block = f.fetch_block(6);
        assert_eq!(block.len(), 1);
        assert!(block[0].mispredicted);
        assert!(f.awaiting_redirect());
        assert!(f.fetch_block(7).is_empty());
        f.redirect(20);
        assert!(!f.awaiting_redirect());
        assert!(f.fetch_block(20).is_empty()); // resumes the cycle *after*
    }

    #[test]
    fn exhaustion_reported() {
        let mut f = FetchUnit::new(FetchConfig::default(), seq_trace(4, 0));
        assert!(!f.is_exhausted());
        let _ = drain(&mut f, 16);
        assert!(f.is_exhausted());
    }

    #[test]
    fn well_predicted_loop_branch_costs_nothing_after_warmup() {
        // A loop of 7 ALUs + 1 taken branch back to the top; after the BTB
        // and gshare warm up, every iteration fetches in one cycle.
        let mut insts = Vec::new();
        for _ in 0..64 {
            for i in 0..7u64 {
                insts.push(
                    TraceInst::alu(
                        OpClass::IntAlu,
                        ArchReg::int(1),
                        ArchReg::int(2),
                        ArchReg::int(3),
                    )
                    .with_pc(0x1000 + i * 4),
                );
            }
            insts.push(TraceInst::branch(ArchReg::int(1), true, 0x1000, 0x101c));
        }
        let mut f = FetchUnit::new(FetchConfig::default(), insts.into_iter());
        let mut now = 0;
        let mut fetched = 0;
        // Warm up: resolve any mispredicts instantly (generous back end).
        while fetched < 64 * 8 && now < 10_000 {
            let block = f.fetch_block(now);
            if f.awaiting_redirect() {
                f.redirect(now);
            }
            fetched += block.len();
            now += 1;
        }
        assert_eq!(fetched, 64 * 8);
        // Steady state: ≥ 1 block of 8 per ~1 cycle; allow warmup slop.
        assert!(now < 200, "took {now} cycles");
    }
}
