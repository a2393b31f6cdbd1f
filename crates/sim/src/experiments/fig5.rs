//! Figure 5: the four register-file-cache configurations — {ready,
//! non-bypass} caching × {fetch-on-demand, prefetch-first-pair} — at
//! unlimited bandwidth.
//!
//! Paper findings: non-bypass caching beats ready caching by ~3% (int) /
//! ~2% (fp); prefetching helps a few programs at unlimited bandwidth and
//! more under port limits.

use super::compare::{assemble_archs, plan_archs, CompareData};
use super::{rfc, ExperimentOpts};
use crate::scenario::Scenario;
use crate::{RunResult, RunSpec};
use rfcache_core::{CachingPolicy, FetchPolicy, RegFileConfig};

/// Column labels of the Figure 5 table.
pub const LABELS: [&str; 4] =
    ["ready+demand", "nonbyp+demand", "ready+prefetch", "nonbyp+prefetch"];

const TITLE: &str = "Figure 5: register file cache caching and fetch policies (IPC)";

fn archs() -> [(&'static str, RegFileConfig); 4] {
    [
        (LABELS[0], rfc(CachingPolicy::Ready, FetchPolicy::OnDemand)),
        (LABELS[1], rfc(CachingPolicy::NonBypass, FetchPolicy::OnDemand)),
        (LABELS[2], rfc(CachingPolicy::Ready, FetchPolicy::PrefetchFirstPair)),
        (LABELS[3], rfc(CachingPolicy::NonBypass, FetchPolicy::PrefetchFirstPair)),
    ]
}

/// Plans the Figure 5 simulation specs.
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    plan_archs(opts, &archs())
}

/// Assembles the results of [`plan`] into the Figure 5 matrix.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> CompareData {
    assemble_archs(opts, TITLE, &archs(), results)
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new("fig5", "register-file-cache caching x fetch policies", plan, |opts, results| {
        Box::new(assemble(opts, results))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn non_bypass_caching_wins() {
        let data = smoke_run(plan, assemble);
        let (int_ratio, fp_ratio) = data.hmean_ratio(LABELS[3], LABELS[2]).unwrap();
        assert!(int_ratio > 0.99, "non-bypass vs ready (int): {int_ratio}");
        assert!(fp_ratio > 0.99, "non-bypass vs ready (fp): {fp_ratio}");
        // Prefetching must not hurt meaningfully at unlimited bandwidth.
        let (i, _f) = data.hmean_ratio(LABELS[3], LABELS[1]).unwrap();
        assert!(i > 0.97, "prefetch-first-pair must not cost IPC: {i}");
    }
}
