//! §3 statistic: the fraction of register values read at most once.
//!
//! The paper motivates the caching policies with "88% of the values
//! generated by SpecInt95 and 85% of the FP register values produced by
//! SpecFP95" being read at most once.

use super::{one_cycle, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{RunResult, RunSpec, TextTable};
use std::fmt;

/// Per-benchmark and per-suite read-at-most-once fractions.
#[derive(Debug, Clone)]
pub struct ReadStatsData {
    /// `(benchmark, is_fp, fraction read at most once, fraction never read)`.
    pub rows: Vec<(String, bool, f64, f64)>,
    /// SpecInt95 average fraction read at most once.
    pub int_avg: f64,
    /// SpecFP95 average fraction read at most once.
    pub fp_avg: f64,
}

/// Plans the read-statistics simulation specs (both suites, 1-cycle
/// baseline).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    int.iter()
        .chain(fp.iter())
        .map(|b| {
            RunSpec::known(b, one_cycle()).insts(opts.insts).warmup(opts.warmup).seed(opts.seed)
        })
        .collect()
}

/// Assembles the results of [`plan`] into the per-benchmark fractions.
pub fn assemble(_opts: &ExperimentOpts, results: Vec<RunResult>) -> ReadStatsData {
    let mut rows = Vec::new();
    for r in &results {
        let s = r.metrics.rf_combined();
        let total = s.values_never_read + s.values_read_once + s.values_read_many;
        let at_most_once = if total > 0 {
            (s.values_never_read + s.values_read_once) as f64 / total as f64
        } else {
            0.0
        };
        let never = if total > 0 { s.values_never_read as f64 / total as f64 } else { 0.0 };
        rows.push((r.bench.to_string(), r.fp, at_most_once, never));
    }
    let avg = |fp: bool| {
        let vals: Vec<f64> =
            rows.iter().filter(|(_, f, _, _)| *f == fp).map(|(_, _, v, _)| *v).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    ReadStatsData { int_avg: avg(false), fp_avg: avg(true), rows }
}

impl fmt::Display for ReadStatsData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§3 statistic: fraction of register values read at most once")?;
        let mut t =
            TextTable::new(vec!["benchmark".into(), "read<=once".into(), "never read".into()]);
        for (bench, _, once, never) in &self.rows {
            t.row(vec![
                bench.clone(),
                format!("{:.1}%", once * 100.0),
                format!("{:.1}%", never * 100.0),
            ]);
        }
        t.fmt(f)?;
        writeln!(
            f,
            "SpecInt95 average {:.1}% (paper: 88%), SpecFP95 average {:.1}% (paper: 85%)",
            self.int_avg * 100.0,
            self.fp_avg * 100.0
        )
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "readstats",
        "fraction of register values read at most once (section 3)",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for ReadStatsData {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "benchmark".into(),
            "suite".into(),
            "read_at_most_once".into(),
            "never_read".into(),
        ]);
        for (bench, fp, once, never) in &self.rows {
            t.row(vec![
                bench.clone(),
                if *fp { "fp" } else { "int" }.into(),
                format!("{once:.3}"),
                format!("{never:.3}"),
            ]);
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("read_at_most_once".into(), self.rows.iter().map(|r| r.2).collect()),
            ("never_read".into(), self.rows.iter().map(|r| r.3).collect()),
            ("suite_avg_at_most_once".into(), vec![self.int_avg, self.fp_avg]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn most_values_read_at_most_once() {
        let data = smoke_run(plan, assemble);
        assert!(
            (0.75..=0.99).contains(&data.int_avg),
            "int read-at-most-once {} out of band",
            data.int_avg
        );
        assert!(
            (0.75..=0.99).contains(&data.fp_avg),
            "fp read-at-most-once {} out of band",
            data.fp_avg
        );
        assert!(data.to_string().contains("paper: 88%"));
    }
}
