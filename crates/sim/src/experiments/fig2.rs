//! Figure 2: the motivation experiment — IPC of a 1-cycle register file,
//! a 2-cycle file with full (two-level) bypass, and a 2-cycle file with a
//! single bypass level, per benchmark.
//!
//! The paper's findings to reproduce: the extra register file cycle costs
//! little when full bypass is present, but a lot with a single bypass
//! level (≈20% IPC for SpecInt95), and integer codes suffer more than FP.

use super::compare::{assemble_archs, plan_archs, CompareData};
use super::{one_cycle, two_cycle_full_bypass, two_cycle_single_bypass, ExperimentOpts};
use crate::scenario::Scenario;
use crate::{RunResult, RunSpec};
use rfcache_core::RegFileConfig;

/// Column labels of the Figure 2 table.
pub const LABELS: [&str; 3] = ["1cyc-1byp", "2cyc-2byp", "2cyc-1byp"];

const TITLE: &str = "Figure 2: register file latency and bypass levels (IPC)";

fn archs() -> [(&'static str, RegFileConfig); 3] {
    [
        (LABELS[0], one_cycle()),
        (LABELS[1], two_cycle_full_bypass()),
        (LABELS[2], two_cycle_single_bypass()),
    ]
}

/// Plans the Figure 2 simulation specs.
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    plan_archs(opts, &archs())
}

/// Assembles the results of [`plan`] into the Figure 2 matrix.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> CompareData {
    assemble_archs(opts, TITLE, &archs(), results)
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "fig2",
        "1-cycle vs 2-cycle register files, bypass levels",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn ordering_matches_paper() {
        let data = smoke_run(plan, assemble);
        // 1-cycle >= 2-cycle full bypass >= 2-cycle single bypass, and the
        // single-bypass penalty is the largest gap (the paper's point).
        let (i_full, f_full) = data.hmean_ratio(LABELS[0], LABELS[1]).unwrap();
        let (i_single, f_single) = data.hmean_ratio(LABELS[0], LABELS[2]).unwrap();
        assert!(i_full >= 0.99, "{i_full}");
        assert!(f_full >= 0.99, "{f_full}");
        assert!(i_single > i_full, "single bypass must cost more (int)");
        assert!(f_single > f_full, "single bypass must cost more (fp)");
        // Integer codes are more sensitive than FP codes.
        assert!(i_single > f_single * 0.95, "int {i_single} vs fp {f_single}");
    }
}
