//! Figure 8: relative performance as a function of register file area.
//!
//! For each architecture (1-cycle single-banked, 2-cycle single-banked,
//! register file cache) the number of read/write ports (and buses) is
//! swept; configurations dominated by a cheaper, faster sibling are
//! discarded (Pareto frontier); performance is IPC relative to the
//! 1-cycle single-banked file with unlimited ports.
//!
//! Paper finding: the register file cache dominates the 2-cycle file over
//! the whole area range and tracks the 1-cycle file closely, occasionally
//! beating it at equal area (more upper-level ports for the same silicon).

use super::{one_cycle, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{harmonic_mean, pareto_frontier, ParetoPoint, RunResult, RunSpec, TextTable};
use rfcache_area::{SingleBankDesign, TwoLevelDesign};
use rfcache_core::{PortLimits, RegFileCacheConfig, RegFileConfig, SingleBankConfig};
use std::fmt;

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Human-readable port configuration.
    pub label: String,
    /// Register file area, in the paper's 10K λ² units.
    pub area_10k: f64,
    /// Suite harmonic-mean IPC relative to the unlimited-port 1-cycle
    /// baseline.
    pub rel_perf: f64,
}

/// Pareto frontiers per architecture and suite.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// Architecture labels (fixed order: 1-cycle, 2-cycle, rfc).
    pub archs: Vec<String>,
    /// `frontiers[arch][suite]` with suite 0 = SpecInt95, 1 = SpecFP95.
    pub frontiers: Vec<[Vec<Fig8Point>; 2]>,
}

struct Candidate {
    label: String,
    area_10k: f64,
    rf: RegFileConfig,
}

fn single_bank_candidates(stages: u32, quick: bool) -> Vec<Candidate> {
    let reads: &[u32] = if quick { &[3, 8] } else { &[2, 3, 4, 6, 8] };
    let writes: &[u32] = if quick { &[2] } else { &[1, 2, 3, 4] };
    let mut out = Vec::new();
    for &r in reads {
        for &w in writes {
            let design = SingleBankDesign::new(128, 64, r, w, stages);
            let base = if stages == 1 {
                SingleBankConfig::one_cycle()
            } else {
                SingleBankConfig::two_cycle_single_bypass()
            };
            out.push(Candidate {
                label: format!("{r}R/{w}W"),
                area_10k: design.area_lambda2() / 1e4,
                rf: RegFileConfig::Single(base.with_ports(PortLimits::limited(r, w))),
            });
        }
    }
    out
}

fn rfc_candidates(quick: bool) -> Vec<Candidate> {
    let upper_reads: &[u32] = if quick { &[4] } else { &[3, 4, 6] };
    let upper_writes: &[u32] = if quick { &[2] } else { &[2, 3, 4] };
    let buses: &[u32] = if quick { &[2] } else { &[1, 2, 3] };
    let lower_writes: &[u32] = &[2];
    let mut out = Vec::new();
    for &r in upper_reads {
        for &w in upper_writes {
            for &b in buses {
                for &lw in lower_writes {
                    let design = TwoLevelDesign::new(128, 16, 64, r, w, lw, b);
                    out.push(Candidate {
                        label: format!("{r}R/{w}W/{b}B"),
                        area_10k: design.area_lambda2() / 1e4,
                        rf: RegFileConfig::Cache(
                            RegFileCacheConfig::paper_default().with_ports(r, w, lw, b),
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The three candidate sets, in [`Fig8Data::archs`] order.
fn arch_candidates(quick: bool) -> [(&'static str, Vec<Candidate>); 3] {
    [
        ("1-cycle", single_bank_candidates(1, quick)),
        ("2-cycle", single_bank_candidates(2, quick)),
        ("rfc", rfc_candidates(quick)),
    ]
}

/// Plans the Figure 8 simulation specs: the unlimited-port 1-cycle
/// baseline first, then every candidate of every architecture on both
/// suites (candidate-major, benchmark-minor).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let mut specs: Vec<RunSpec> = int
        .iter()
        .chain(fp.iter())
        .map(|b| {
            RunSpec::known(b, one_cycle()).insts(opts.insts).warmup(opts.warmup).seed(opts.seed)
        })
        .collect();
    for (_, candidates) in arch_candidates(opts.quick) {
        for cand in &candidates {
            for b in int.iter().chain(fp.iter()) {
                specs.push(
                    RunSpec::known(b, cand.rf)
                        .insts(opts.insts)
                        .warmup(opts.warmup)
                        .seed(opts.seed),
                );
            }
        }
    }
    specs
}

/// Assembles the results of [`plan`] into the per-architecture Pareto
/// frontiers.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> Fig8Data {
    let (int, fp) = super::sweep_suites(opts);
    let per_bench = int.len() + fp.len();

    let base_results = &results[..per_bench];
    let base_hmean = |fp_suite: bool| {
        let vals: Vec<f64> =
            base_results.iter().filter(|r| r.fp == fp_suite).map(|r| r.ipc()).collect();
        harmonic_mean(&vals).unwrap_or(1.0)
    };
    let base = [base_hmean(false), base_hmean(true)];

    let mut archs = Vec::new();
    let mut frontiers = Vec::new();
    let mut offset = per_bench;
    for (name, candidates) in arch_candidates(opts.quick) {
        let results = &results[offset..offset + candidates.len() * per_bench];
        offset += candidates.len() * per_bench;

        let mut suite_points: [Vec<ParetoPoint<String>>; 2] = [Vec::new(), Vec::new()];
        for (ci, cand) in candidates.iter().enumerate() {
            let slice = &results[ci * per_bench..(ci + 1) * per_bench];
            for (si, fp_suite) in [(0usize, false), (1usize, true)] {
                let vals: Vec<f64> =
                    slice.iter().filter(|r| r.fp == fp_suite).map(|r| r.ipc()).collect();
                let hmean = harmonic_mean(&vals).unwrap_or(0.0);
                suite_points[si].push(ParetoPoint {
                    area: cand.area_10k,
                    perf: hmean / base[si],
                    payload: cand.label.clone(),
                });
            }
        }
        let fronts = suite_points.map(|pts| {
            pareto_frontier(pts)
                .into_iter()
                .map(|p| Fig8Point { label: p.payload, area_10k: p.area, rel_perf: p.perf })
                .collect::<Vec<_>>()
        });
        archs.push(name.to_string());
        frontiers.push(fronts);
    }
    assert_eq!(offset, results.len(), "result count must match the plan");
    Fig8Data { archs, frontiers }
}

impl Fig8Data {
    /// The frontier of `arch` for the given suite (0 = int, 1 = fp).
    pub fn frontier(&self, arch: &str, suite: usize) -> Option<&[Fig8Point]> {
        let idx = self.archs.iter().position(|a| a == arch)?;
        Some(&self.frontiers[idx][suite])
    }

    /// Best relative performance achieved by `arch` on the suite.
    pub fn best_perf(&self, arch: &str, suite: usize) -> Option<f64> {
        self.frontier(arch, suite)?
            .iter()
            .map(|p| p.rel_perf)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

impl fmt::Display for Fig8Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 8: Pareto frontiers of relative performance vs area (10K λ²)")?;
        for (si, suite) in ["SpecInt95", "SpecFP95"].iter().enumerate() {
            writeln!(f, "\n[{suite}] (performance relative to 1-cycle, unlimited ports)")?;
            let mut t = TextTable::new(vec![
                "architecture".into(),
                "ports".into(),
                "area".into(),
                "rel perf".into(),
            ]);
            for (ai, arch) in self.archs.iter().enumerate() {
                for p in &self.frontiers[ai][si] {
                    t.row(vec![
                        arch.clone(),
                        p.label.clone(),
                        format!("{:.0}", p.area_10k),
                        format!("{:.3}", p.rel_perf),
                    ]);
                }
            }
            t.fmt(f)?;
        }
        Ok(())
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "fig8",
        "relative performance vs area (Pareto frontiers)",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for Fig8Data {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "architecture".into(),
            "suite".into(),
            "ports".into(),
            "area_10k".into(),
            "rel_perf".into(),
        ]);
        for (arch, frontier) in self.archs.iter().zip(&self.frontiers) {
            for (suite, points) in ["int", "fp"].iter().zip(frontier.iter()) {
                for p in points {
                    t.row(vec![
                        arch.clone(),
                        (*suite).into(),
                        p.label.clone(),
                        format!("{:.1}", p.area_10k),
                        format!("{:.3}", p.rel_perf),
                    ]);
                }
            }
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for (arch, frontier) in self.archs.iter().zip(&self.frontiers) {
            for (suite, points) in ["int", "fp"].iter().zip(frontier.iter()) {
                out.push((
                    format!("area[{arch}][{suite}]"),
                    points.iter().map(|p| p.area_10k).collect(),
                ));
                out.push((
                    format!("rel_perf[{arch}][{suite}]"),
                    points.iter().map(|p| p.rel_perf).collect(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn frontiers_are_monotone_and_rfc_beats_two_cycle() {
        let data = smoke_run(plan, assemble);
        assert_eq!(data.archs, vec!["1-cycle", "2-cycle", "rfc"]);
        for ai in 0..data.archs.len() {
            for si in 0..2 {
                let front = &data.frontiers[ai][si];
                assert!(!front.is_empty());
                for w in front.windows(2) {
                    assert!(w[0].area_10k <= w[1].area_10k);
                    assert!(w[0].rel_perf < w[1].rel_perf);
                }
            }
        }
        // The rfc reaches higher relative performance than the 2-cycle
        // file on the integer suite (the paper's headline for Figure 8).
        let rfc_best = data.best_perf("rfc", 0).unwrap();
        let two_best = data.best_perf("2-cycle", 0).unwrap();
        assert!(rfc_best > two_best, "rfc {rfc_best} vs 2-cycle {two_best}");
    }
}
