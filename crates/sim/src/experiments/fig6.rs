//! Figure 6: the register file cache against single-banked files with the
//! same (single-level) bypass complexity.
//!
//! Paper findings: the register file cache gains ~10% (int) / ~4% (fp)
//! over the 2-cycle file and stays within ~10% (int) / ~2% (fp) of the
//! 1-cycle file.

use super::compare::{assemble_archs, plan_archs, CompareData};
use super::{one_cycle, rfc_best, two_cycle_single_bypass, ExperimentOpts};
use crate::scenario::Scenario;
use crate::{RunResult, RunSpec};
use rfcache_core::RegFileConfig;

/// Column labels of the Figure 6 table.
pub const LABELS: [&str; 3] = ["1-cycle", "rfc", "2-cycle"];

const TITLE: &str = "Figure 6: register file cache vs single bank, one bypass level (IPC)";

fn archs() -> [(&'static str, RegFileConfig); 3] {
    [(LABELS[0], one_cycle()), (LABELS[1], rfc_best()), (LABELS[2], two_cycle_single_bypass())]
}

/// Plans the Figure 6 simulation specs.
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    plan_archs(opts, &archs())
}

/// Assembles the results of [`plan`] into the Figure 6 matrix.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> CompareData {
    assemble_archs(opts, TITLE, &archs(), results)
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "fig6",
        "register file cache vs single bank, one bypass level",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn rfc_sits_between_the_single_banked_files() {
        let data = smoke_run(plan, assemble);
        let (int_vs_two, fp_vs_two) = data.hmean_ratio(LABELS[1], LABELS[2]).unwrap();
        assert!(int_vs_two > 1.03, "rfc must clearly beat the 2-cycle file (int): {int_vs_two}");
        assert!(fp_vs_two > 1.0, "rfc must beat the 2-cycle file (fp): {fp_vs_two}");
        let (int_vs_one, fp_vs_one) = data.hmean_ratio(LABELS[1], LABELS[0]).unwrap();
        assert!(int_vs_one < 1.02, "rfc must not beat the 1-cycle file (int): {int_vs_one}");
        assert!(int_vs_one > 0.80, "rfc must stay close to the 1-cycle file: {int_vs_one}");
        assert!(fp_vs_one > 0.80, "{fp_vs_one}");
    }
}
