//! Simulation metrics: IPC, stall accounting, and the Figure 3
//! register-occupancy distributions.

use rfcache_core::RegFileStats;
use rfcache_frontend::FetchStats;
use rfcache_isa::Cycle;
use std::fmt;

/// Histogram over "number of registers" with cumulative-distribution
/// queries, used for Figure 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    counts: Vec<u64>,
    samples: u64,
}

impl OccupancyHistogram {
    /// Records one cycle observing `n` registers.
    pub fn record(&mut self, n: usize) {
        if self.counts.len() <= n {
            self.counts.resize(n + 1, 0);
        }
        self.counts[n] += 1;
        self.samples += 1;
    }

    /// Number of recorded samples (cycles).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Fraction of cycles observing at most `n` registers.
    pub fn cumulative_at(&self, n: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().take(n + 1).sum();
        sum as f64 / self.samples as f64
    }

    /// Smallest `n` such that at least `fraction` of cycles observed at
    /// most `n` registers (e.g. `percentile(0.9)` = the paper's "90% of
    /// the time about 4 registers are enough").
    pub fn percentile(&self, fraction: f64) -> usize {
        let mut acc = 0u64;
        let target = (fraction * self.samples as f64).ceil() as u64;
        for (n, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return n;
            }
        }
        self.counts.len().saturating_sub(1)
    }

    /// The raw per-occupancy cycle counts (`counts()[n]` = cycles that
    /// observed exactly `n` registers). Together with
    /// [`samples`](Self::samples) this is the histogram's full state,
    /// which the shard-file metrics codec serializes.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from its serialized parts, the inverse of
    /// [`counts`](Self::counts) + [`samples`](Self::samples). A histogram
    /// built by [`record`](Self::record)/[`merge`](Self::merge) always
    /// keeps `samples` equal to the sum of `counts`; decoders pass both
    /// through so a round trip is exact.
    pub fn from_parts(counts: Vec<u64>, samples: u64) -> Self {
        OccupancyHistogram { counts, samples }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &OccupancyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.samples += other.samples;
    }
}

/// End-of-run metrics of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Simulated cycles.
    pub cycles: Cycle,
    /// Committed instructions.
    pub committed: u64,
    /// Committed branches.
    pub branches: u64,
    /// Committed mispredicted branches.
    pub mispredicted: u64,
    /// Cycles in which no instruction committed.
    pub commit_idle_cycles: u64,
    /// Dispatch stalls due to a full reorder buffer.
    pub stall_rob_full: u64,
    /// Dispatch stalls due to a full instruction window.
    pub stall_window_full: u64,
    /// Dispatch stalls due to an empty free list.
    pub stall_no_phys_reg: u64,
    /// Dispatch stalls due to a full load/store queue.
    pub stall_lsq_full: u64,
    /// Dispatch stalls due to the outstanding-branch limit.
    pub stall_branch_limit: u64,
    /// Register file statistics, integer class.
    pub rf_int: RegFileStats,
    /// Register file statistics, FP class.
    pub rf_fp: RegFileStats,
    /// Front-end statistics.
    pub fetch: FetchStats,
    /// Data-cache hit rate (if any access happened).
    pub dcache_hit_rate: Option<f64>,
    /// Figure 3, solid line: registers holding a produced value that is a
    /// source of at least one instruction still in the window.
    pub occupancy_value: OccupancyHistogram,
    /// Figure 3, dashed line: as above, but only counting values whose
    /// consuming instruction has all operands produced.
    pub occupancy_ready: OccupancyHistogram,
}

impl SimMetrics {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed as f64 / self.cycles as f64
    }

    /// Branch misprediction rate over committed branches.
    pub fn branch_mispredict_rate(&self) -> Option<f64> {
        (self.branches > 0).then(|| self.mispredicted as f64 / self.branches as f64)
    }

    /// Combined register-file statistics (both classes summed).
    pub fn rf_combined(&self) -> RegFileStats {
        let mut s = self.rf_int.clone();
        let o = &self.rf_fp;
        s.bypass_reads += o.bypass_reads;
        s.regfile_reads += o.regfile_reads;
        s.writebacks += o.writebacks;
        s.cached_results += o.cached_results;
        s.policy_skipped += o.policy_skipped;
        s.port_skipped += o.port_skipped;
        s.evictions += o.evictions;
        s.demand_transfers += o.demand_transfers;
        s.prefetch_transfers += o.prefetch_transfers;
        s.prefetch_dropped += o.prefetch_dropped;
        s.read_port_stalls += o.read_port_stalls;
        s.upper_miss_stalls += o.upper_miss_stalls;
        s.write_port_stalls += o.write_port_stalls;
        s.values_never_read += o.values_never_read;
        s.values_read_once += o.values_read_once;
        s.values_read_many += o.values_read_many;
        s
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPC {:.3} ({} insts / {} cycles), mispredict rate {}",
            self.ipc(),
            self.committed,
            self.cycles,
            self.branch_mispredict_rate()
                .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_division() {
        let m = SimMetrics { cycles: 100, committed: 250, ..SimMetrics::default() };
        assert!((m.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(SimMetrics::default().ipc(), 0.0);
    }

    #[test]
    fn histogram_cumulative_and_percentile() {
        let mut h = OccupancyHistogram::default();
        for n in [0, 1, 1, 2, 2, 2, 3, 3, 3, 3] {
            h.record(n);
        }
        assert_eq!(h.samples(), 10);
        assert!((h.cumulative_at(1) - 0.3).abs() < 1e-12);
        assert!((h.cumulative_at(3) - 1.0).abs() < 1e-12);
        assert_eq!(h.percentile(0.9), 3);
        assert_eq!(h.percentile(0.3), 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = OccupancyHistogram::default();
        a.record(1);
        let mut b = OccupancyHistogram::default();
        b.record(4);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert!((a.cumulative_at(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combined_rf_stats_sum() {
        let mut m = SimMetrics::default();
        m.rf_int.bypass_reads = 3;
        m.rf_fp.bypass_reads = 4;
        m.rf_int.values_read_once = 10;
        assert_eq!(m.rf_combined().bypass_reads, 7);
        assert_eq!(m.rf_combined().values_read_once, 10);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = OccupancyHistogram::default();
        assert_eq!(h.cumulative_at(10), 0.0);
        assert_eq!(h.percentile(0.9), 0);
    }
}
