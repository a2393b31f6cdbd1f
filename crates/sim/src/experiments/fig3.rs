//! Figure 3: cumulative distribution of the number of registers holding a
//! value that is a source operand of (a) any unexecuted instruction in
//! the window and (b) an unexecuted instruction whose operands are all
//! ready.
//!
//! The paper's observation: ~90% of the time, no more than 4–5 registers
//! hold such "needed" values — the justification for a 16-entry upper
//! bank.

use super::{one_cycle, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{RunResult, RunSpec, TextTable};
use rfcache_pipeline::{OccupancyHistogram, PipelineConfig};
use std::fmt;

/// Register counts tabulated by `Display` and [`ScenarioReport::to_table`].
const TABLE_POINTS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32];

/// Aggregated occupancy distributions per suite.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// SpecInt95, "value & instruction" (solid line).
    pub int_value: OccupancyHistogram,
    /// SpecInt95, "value & ready instruction" (dashed line).
    pub int_ready: OccupancyHistogram,
    /// SpecFP95, "value & instruction".
    pub fp_value: OccupancyHistogram,
    /// SpecFP95, "value & ready instruction".
    pub fp_ready: OccupancyHistogram,
}

/// Plans the Figure 3 simulation specs (both suites with occupancy
/// sampling enabled).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let pipeline = PipelineConfig::default().with_occupancy_sampling();
    int.iter()
        .chain(fp.iter())
        .map(|b| {
            RunSpec::known(b, one_cycle())
                .pipeline(pipeline)
                .insts(opts.insts)
                .warmup(opts.warmup)
                .seed(opts.seed)
        })
        .collect()
}

/// Assembles the results of [`plan`] into the per-suite histograms.
pub fn assemble(_opts: &ExperimentOpts, results: Vec<RunResult>) -> Fig3Data {
    let mut data = Fig3Data {
        int_value: OccupancyHistogram::default(),
        int_ready: OccupancyHistogram::default(),
        fp_value: OccupancyHistogram::default(),
        fp_ready: OccupancyHistogram::default(),
    };
    for r in &results {
        if r.fp {
            data.fp_value.merge(&r.metrics.occupancy_value);
            data.fp_ready.merge(&r.metrics.occupancy_ready);
        } else {
            data.int_value.merge(&r.metrics.occupancy_value);
            data.int_ready.merge(&r.metrics.occupancy_ready);
        }
    }
    data
}

impl fmt::Display for Fig3Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: cumulative distribution of registers with live needed values (% of cycles)"
        )?;
        let mut t = TextTable::new(vec![
            "#registers".into(),
            "Int value&inst".into(),
            "Int value&ready".into(),
            "FP value&inst".into(),
            "FP value&ready".into(),
        ]);
        for n in TABLE_POINTS {
            t.row(vec![
                n.to_string(),
                format!("{:.1}", self.int_value.cumulative_at(n) * 100.0),
                format!("{:.1}", self.int_ready.cumulative_at(n) * 100.0),
                format!("{:.1}", self.fp_value.cumulative_at(n) * 100.0),
                format!("{:.1}", self.fp_ready.cumulative_at(n) * 100.0),
            ]);
        }
        t.fmt(f)?;
        writeln!(
            f,
            "90th percentile: int value {} / ready {}, fp value {} / ready {} registers",
            self.int_value.percentile(0.9),
            self.int_ready.percentile(0.9),
            self.fp_value.percentile(0.9),
            self.fp_ready.percentile(0.9),
        )
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "fig3",
        "cumulative distribution of live/needed register values",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for Fig3Data {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "registers".into(),
            "int_value_cum".into(),
            "int_ready_cum".into(),
            "fp_value_cum".into(),
            "fp_ready_cum".into(),
        ]);
        for n in TABLE_POINTS {
            t.row_f64(
                &n.to_string(),
                &[
                    self.int_value.cumulative_at(n),
                    self.int_ready.cumulative_at(n),
                    self.fp_value.cumulative_at(n),
                    self.fp_ready.cumulative_at(n),
                ],
            );
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        let pcts =
            |h: &OccupancyHistogram| vec![h.percentile(0.5) as f64, h.percentile(0.9) as f64];
        vec![
            ("int_value_p50_p90".into(), pcts(&self.int_value)),
            ("int_ready_p50_p90".into(), pcts(&self.int_ready)),
            ("fp_value_p50_p90".into(), pcts(&self.fp_value)),
            ("fp_ready_p50_p90".into(), pcts(&self.fp_ready)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn ready_values_are_fewer_and_distribution_is_tight() {
        let data = smoke_run(plan, assemble);
        assert!(data.int_value.samples() > 0);
        // Ready values are a subset of live values.
        assert!(data.int_ready.percentile(0.9) <= data.int_value.percentile(0.9));
        assert!(data.fp_ready.percentile(0.9) <= data.fp_value.percentile(0.9));
        // The paper's point: a small number of registers suffices 90% of
        // the time (far fewer than the 128 physical registers).
        assert!(data.int_ready.percentile(0.9) <= 24);
        let s = data.to_string();
        assert!(s.contains("90th percentile"));
    }
}
