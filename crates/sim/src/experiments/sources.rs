//! Operand-source breakdown (the statistics behind §3's caching-policy
//! design): for the best register file cache, where does each source
//! operand actually come from — the bypass network or the upper bank —
//! and how much inter-level traffic does each benchmark generate?

use super::{rfc_best, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{RunResult, RunSpec, TextTable};
use std::fmt;

/// Per-benchmark operand-source statistics.
#[derive(Debug, Clone)]
pub struct SourcesRow {
    /// Benchmark name.
    pub bench: String,
    /// SpecFP95 member.
    pub fp: bool,
    /// Fraction of operands caught on the bypass network.
    pub bypass_frac: f64,
    /// Fraction of produced results written to the upper bank.
    pub cached_frac: f64,
    /// Demand transfers per 1000 committed instructions.
    pub demands_per_kilo: f64,
    /// Prefetch transfers per 1000 committed instructions.
    pub prefetches_per_kilo: f64,
    /// Upper-bank evictions per 1000 committed instructions.
    pub evictions_per_kilo: f64,
}

/// Results of the operand-source experiment.
#[derive(Debug, Clone)]
pub struct SourcesData {
    /// One row per benchmark, suite order.
    pub rows: Vec<SourcesRow>,
}

/// Plans the operand-source specs (both suites on the best register
/// file cache).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    int.iter()
        .chain(fp.iter())
        .map(|b| {
            RunSpec::known(b, rfc_best()).insts(opts.insts).warmup(opts.warmup).seed(opts.seed)
        })
        .collect()
}

/// Assembles the results of [`plan`] into the per-benchmark breakdown.
pub fn assemble(_opts: &ExperimentOpts, results: Vec<RunResult>) -> SourcesData {
    let rows = results
        .iter()
        .map(|r| {
            let s = r.metrics.rf_combined();
            let kilo = r.metrics.committed as f64 / 1000.0;
            SourcesRow {
                bench: r.bench.to_string(),
                fp: r.fp,
                bypass_frac: s.bypass_fraction().unwrap_or(0.0),
                cached_frac: if s.writebacks > 0 {
                    s.cached_results as f64 / s.writebacks as f64
                } else {
                    0.0
                },
                demands_per_kilo: s.demand_transfers as f64 / kilo,
                prefetches_per_kilo: s.prefetch_transfers as f64 / kilo,
                evictions_per_kilo: s.evictions as f64 / kilo,
            }
        })
        .collect();
    SourcesData { rows }
}

impl SourcesData {
    /// Suite-average bypass fraction (int, fp).
    pub fn bypass_averages(&self) -> (f64, f64) {
        let avg = |fp: bool| {
            let v: Vec<f64> =
                self.rows.iter().filter(|r| r.fp == fp).map(|r| r.bypass_frac).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        (avg(false), avg(true))
    }
}

impl fmt::Display for SourcesData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Operand sources on the register file cache (non-bypass caching + prefetch-first-pair)"
        )?;
        let mut t = TextTable::new(vec![
            "benchmark".into(),
            "bypass".into(),
            "cached".into(),
            "demand/1k".into(),
            "prefetch/1k".into(),
            "evict/1k".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                format!("{:.0}%", r.bypass_frac * 100.0),
                format!("{:.0}%", r.cached_frac * 100.0),
                format!("{:.1}", r.demands_per_kilo),
                format!("{:.1}", r.prefetches_per_kilo),
                format!("{:.1}", r.evictions_per_kilo),
            ]);
        }
        t.fmt(f)?;
        let (i, p) = self.bypass_averages();
        writeln!(f, "bypass fraction averages: int {:.0}%, fp {:.0}%", i * 100.0, p * 100.0)
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "sources",
        "beyond the paper: operand sources and transfer traffic",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for SourcesData {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "benchmark".into(),
            "suite".into(),
            "bypass_frac".into(),
            "cached_frac".into(),
            "demands_per_kilo".into(),
            "prefetches_per_kilo".into(),
            "evictions_per_kilo".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.bench.clone(),
                if r.fp { "fp" } else { "int" }.into(),
                format!("{:.3}", r.bypass_frac),
                format!("{:.3}", r.cached_frac),
                format!("{:.2}", r.demands_per_kilo),
                format!("{:.2}", r.prefetches_per_kilo),
                format!("{:.2}", r.evictions_per_kilo),
            ]);
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("bypass_frac".into(), self.rows.iter().map(|r| r.bypass_frac).collect()),
            ("cached_frac".into(), self.rows.iter().map(|r| r.cached_frac).collect()),
            ("demands_per_kilo".into(), self.rows.iter().map(|r| r.demands_per_kilo).collect()),
            (
                "prefetches_per_kilo".into(),
                self.rows.iter().map(|r| r.prefetches_per_kilo).collect(),
            ),
            ("evictions_per_kilo".into(), self.rows.iter().map(|r| r.evictions_per_kilo).collect()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn breakdown_is_consistent() {
        let data = smoke_run(plan, assemble);
        assert_eq!(data.rows.len(), 4);
        for r in &data.rows {
            assert!((0.0..=1.0).contains(&r.bypass_frac), "{}: {}", r.bench, r.bypass_frac);
            assert!((0.0..=1.0).contains(&r.cached_frac));
            assert!(r.demands_per_kilo >= 0.0);
        }
        let (int_avg, fp_avg) = data.bypass_averages();
        assert!(int_avg > 0.05 && fp_avg > 0.05, "some operands must ride the bypass");
        assert!(data.to_string().contains("bypass fraction averages"));
    }
}
