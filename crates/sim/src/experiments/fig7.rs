//! Figure 7: the register file cache against a 2-cycle single bank with a
//! *full* bypass network.
//!
//! Paper finding: the conventional file wins by ~8% (int) / ~2% (fp), but
//! needs a much more complex (two-level) bypass network.

use super::compare::{assemble_archs, plan_archs, CompareData};
use super::{rfc_best, two_cycle_full_bypass, ExperimentOpts};
use crate::scenario::Scenario;
use crate::{RunResult, RunSpec};
use rfcache_core::RegFileConfig;

/// Column labels of the Figure 7 table.
pub const LABELS: [&str; 2] = ["rfc", "2cyc-full-bypass"];

const TITLE: &str = "Figure 7: register file cache vs 2-cycle single bank with full bypass (IPC)";

fn archs() -> [(&'static str, RegFileConfig); 2] {
    [(LABELS[0], rfc_best()), (LABELS[1], two_cycle_full_bypass())]
}

/// Plans the Figure 7 simulation specs.
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    plan_archs(opts, &archs())
}

/// Assembles the results of [`plan`] into the Figure 7 matrix.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> CompareData {
    assemble_archs(opts, TITLE, &archs(), results)
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new("fig7", "register file cache vs two-cycle full bypass", plan, |opts, results| {
        Box::new(assemble(opts, results))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn full_bypass_file_wins_modestly() {
        let data = smoke_run(plan, assemble);
        let (int_ratio, fp_ratio) = data.hmean_ratio(LABELS[0], LABELS[1]).unwrap();
        // The rfc is at most slightly ahead and at worst moderately
        // behind — its selling point is the single-level bypass at equal
        // or better IPC than the full-bypass file's.
        assert!(int_ratio < 1.12, "{int_ratio}");
        assert!(int_ratio > 0.85, "{int_ratio}");
        assert!(fp_ratio > 0.85, "{fp_ratio}");
    }
}
