//! Pipeline configuration (Table 1 of the paper).

use rfcache_frontend::FetchConfig;
use rfcache_isa::FuKind;
use rfcache_mem::CacheConfig;

/// Static configuration of the out-of-order core.
///
/// [`PipelineConfig::default`] reproduces Table 1 of the paper; Figure 1
/// additionally enlarges the window and reorder buffer to 256 entries
/// (use [`PipelineConfig::with_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Front-end configuration (fetch width, gshare, BTB, icache).
    pub fetch: FetchConfig,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Instruction-window (issue queue) entries.
    pub window_size: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Physical registers per register class.
    pub phys_regs: usize,
    /// Functional units per kind (indexed by [`FuKind::index`]).
    pub fu_counts: [usize; 5],
    /// Data-cache geometry and timing.
    pub dcache: CacheConfig,
    /// Outstanding data-cache misses.
    pub mshrs: usize,
    /// Maximum branches dispatched and not yet committed; dispatch stalls
    /// at the limit.
    pub max_branches: usize,
    /// Record the Figure 3 register-occupancy distributions (adds a
    /// per-cycle window scan; enable only for that experiment).
    pub occupancy_sampling: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let mut fu_counts = [0; 5];
        for kind in FuKind::ALL {
            fu_counts[kind.index()] = kind.default_count();
        }
        PipelineConfig {
            fetch: FetchConfig::default(),
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            window_size: 128,
            rob_size: 128,
            lsq_size: 64,
            phys_regs: 128,
            fu_counts,
            dcache: CacheConfig::spec_dcache(),
            mshrs: 16,
            max_branches: 48,
            occupancy_sampling: false,
        }
    }
}

impl PipelineConfig {
    /// Returns the configuration with window and reorder buffer resized
    /// (Figure 1 uses 256 to expose register-file pressure).
    #[must_use]
    pub fn with_window(mut self, entries: usize) -> Self {
        self.window_size = entries;
        self.rob_size = entries;
        self
    }

    /// Returns the configuration with a different physical register count
    /// per class (Figure 1 sweeps 48–256).
    #[must_use]
    pub fn with_phys_regs(mut self, regs: usize) -> Self {
        self.phys_regs = regs;
        self
    }

    /// Returns the configuration with occupancy sampling enabled
    /// (Figure 3).
    #[must_use]
    pub fn with_occupancy_sampling(mut self) -> Self {
        self.occupancy_sampling = true;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Names the first violated bound: a zero width, window, LSQ or
    /// branch limit, a window larger than the ROB, too few physical
    /// registers beyond the architectural ones or more than a 16-bit
    /// register tag can name, or a functional-unit kind with no unit.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("decode_width", self.decode_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("window_size", self.window_size),
            ("lsq_size", self.lsq_size),
            ("max_branches", self.max_branches),
        ];
        if let Some((name, _)) = positive.iter().find(|(_, value)| *value == 0) {
            return Err(format!("{name} must be at least 1"));
        }
        if self.rob_size < self.window_size {
            return Err(format!(
                "rob_size {} must be at least window_size {}",
                self.rob_size, self.window_size
            ));
        }
        let arch = usize::from(rfcache_isa::ARCH_REGS_PER_CLASS);
        if self.phys_regs < arch + 8 {
            return Err(format!(
                "phys_regs {} must be at least {}: need headroom beyond the {arch} \
                 architectural registers",
                self.phys_regs,
                arch + 8
            ));
        }
        let max = usize::from(u16::MAX);
        if self.phys_regs > max {
            return Err(format!("phys_regs {} must be at most {max}", self.phys_regs));
        }
        if self.fu_counts.contains(&0) {
            return Err("every FU kind needs at least one unit".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = PipelineConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.window_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!(c.phys_regs, 128);
        assert_eq!(c.fu_counts, [6, 3, 4, 2, 4]);
        assert_eq!(c.mshrs, 16);
    }

    #[test]
    fn builders() {
        let c = PipelineConfig::default().with_window(256).with_phys_regs(192);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.phys_regs, 192);
        assert!(c.with_occupancy_sampling().occupancy_sampling);
    }

    #[test]
    fn too_few_phys_regs_rejected() {
        let err = PipelineConfig::default().with_phys_regs(32).validate().unwrap_err();
        assert!(err.contains("phys_regs 32") && err.contains("headroom"), "{err}");
        let err = PipelineConfig::default().with_phys_regs(65_536).validate().unwrap_err();
        assert_eq!(err, "phys_regs 65536 must be at most 65535");
        assert_eq!(PipelineConfig::default().with_phys_regs(65_535).validate(), Ok(()));
        let err = PipelineConfig::default().with_window(0).validate().unwrap_err();
        assert!(err.contains("window_size"), "{err}");
    }
}
