//! Shared machinery for the per-benchmark architecture comparisons
//! (Figures 2, 5, 6 and 7 all print the same shape: one row per SPEC95
//! program, one column per register file configuration, plus per-suite
//! harmonic means).

use super::ExperimentOpts;
use crate::scenario::ScenarioReport;
use crate::{harmonic_mean, RunResult, RunSpec, TextTable};
use rfcache_core::RegFileConfig;
use std::fmt;

/// IPC matrix of benchmarks × architectures.
#[derive(Debug, Clone)]
pub struct CompareData {
    /// Column labels (architecture names).
    pub labels: Vec<String>,
    /// `(benchmark, is_fp, ipc per architecture)` rows, suite order.
    pub rows: Vec<(String, bool, Vec<f64>)>,
    /// SpecInt95 harmonic mean per architecture.
    pub int_hmean: Vec<f64>,
    /// SpecFP95 harmonic mean per architecture.
    pub fp_hmean: Vec<f64>,
    /// Title printed above the table.
    pub title: String,
}

/// Specs for every benchmark of both suites on every architecture — one
/// flat list (benchmark-major, architecture-minor) so every simulation
/// can run in parallel, in the order [`assemble_archs`] expects back.
pub fn plan_archs(opts: &ExperimentOpts, archs: &[(&str, RegFileConfig)]) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let mut specs = Vec::with_capacity((int.len() + fp.len()) * archs.len());
    for bench in int.iter().chain(fp.iter()) {
        for &(_, rf) in archs {
            specs.push(
                RunSpec::known(bench, rf).insts(opts.insts).warmup(opts.warmup).seed(opts.seed),
            );
        }
    }
    specs
}

/// Folds the results of [`plan_archs`] (same `opts`, same `archs`,
/// results in spec order) into the IPC matrix.
pub fn assemble_archs(
    opts: &ExperimentOpts,
    title: &str,
    archs: &[(&str, RegFileConfig)],
    results: Vec<RunResult>,
) -> CompareData {
    let (int, fp) = super::sweep_suites(opts);
    let benches: Vec<(&str, bool)> =
        int.iter().map(|b| (*b, false)).chain(fp.iter().map(|b| (*b, true))).collect();
    assert_eq!(results.len(), benches.len() * archs.len(), "result count must match the plan");

    let mut rows = Vec::with_capacity(benches.len());
    for (bi, &(bench, is_fp)) in benches.iter().enumerate() {
        let ipcs: Vec<f64> =
            (0..archs.len()).map(|ai| results[bi * archs.len() + ai].ipc()).collect();
        rows.push((bench.to_string(), is_fp, ipcs));
    }

    let hmean_of = |fp: bool| -> Vec<f64> {
        (0..archs.len())
            .map(|ai| {
                let vals: Vec<f64> = rows
                    .iter()
                    .filter(|(_, is_fp, _)| *is_fp == fp)
                    .map(|(_, _, ipcs)| ipcs[ai])
                    .collect();
                harmonic_mean(&vals).unwrap_or(0.0)
            })
            .collect()
    };

    CompareData {
        labels: archs.iter().map(|(l, _)| l.to_string()).collect(),
        int_hmean: hmean_of(false),
        fp_hmean: hmean_of(true),
        rows,
        title: title.to_string(),
    }
}

impl CompareData {
    /// IPC column for the architecture labelled `label`.
    pub fn column(&self, label: &str) -> Option<Vec<f64>> {
        let idx = self.labels.iter().position(|l| l == label)?;
        Some(self.rows.iter().map(|(_, _, ipcs)| ipcs[idx]).collect())
    }

    /// Ratio of the two labelled columns' suite harmonic means
    /// (`a / b`), for (int, fp).
    pub fn hmean_ratio(&self, a: &str, b: &str) -> Option<(f64, f64)> {
        let ia = self.labels.iter().position(|l| l == a)?;
        let ib = self.labels.iter().position(|l| l == b)?;
        Some((self.int_hmean[ia] / self.int_hmean[ib], self.fp_hmean[ia] / self.fp_hmean[ib]))
    }
}

impl CompareData {
    /// Renders the comparison as a [`TextTable`] (also the CSV shape via
    /// [`TextTable::to_csv`]).
    pub fn to_table(&self) -> TextTable {
        let mut header = vec!["benchmark".to_string()];
        header.extend(self.labels.iter().cloned());
        let mut t = TextTable::new(header);
        let mut int_done = false;
        for (bench, is_fp, ipcs) in &self.rows {
            if *is_fp && !int_done {
                t.row_f64("Hmean(Int)", &self.int_hmean);
                int_done = true;
            }
            t.row_f64(bench, ipcs);
        }
        if !int_done {
            t.row_f64("Hmean(Int)", &self.int_hmean);
        }
        t.row_f64("Hmean(FP)", &self.fp_hmean);
        t
    }
}

impl fmt::Display for CompareData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        self.to_table().fmt(f)
    }
}

impl ScenarioReport for CompareData {
    fn to_table(&self) -> TextTable {
        CompareData::to_table(self)
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        let mut out: Vec<(String, Vec<f64>)> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                (format!("ipc[{label}]"), self.rows.iter().map(|(_, _, ipcs)| ipcs[i]).collect())
            })
            .collect();
        out.push(("int_hmean".into(), self.int_hmean.clone()));
        out.push(("fp_hmean".into(), self.fp_hmean.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{one_cycle, two_cycle_single_bypass};
    use crate::run_suite_jobs;

    #[test]
    fn matrix_shape_and_accessors() {
        let opts = ExperimentOpts::smoke();
        let archs = [("1-cycle", one_cycle()), ("2-cycle", two_cycle_single_bypass())];
        let results = run_suite_jobs(&plan_archs(&opts, &archs), opts.jobs);
        let data = assemble_archs(&opts, "test", &archs, results);
        assert_eq!(data.labels.len(), 2);
        assert_eq!(data.rows.len(), 4); // 2 int + 2 fp in quick mode
        let col = data.column("1-cycle").unwrap();
        assert_eq!(col.len(), 4);
        assert!(col.iter().all(|&v| v > 0.0));
        let (int_ratio, fp_ratio) = data.hmean_ratio("1-cycle", "2-cycle").unwrap();
        assert!(int_ratio > 1.0, "1-cycle must beat 2-cycle/1-bypass: {int_ratio}");
        assert!(fp_ratio > 1.0);
        assert!(data.column("bogus").is_none());
        let rendered = data.to_string();
        assert!(rendered.contains("Hmean(Int)"));
        assert!(rendered.contains("Hmean(FP)"));
        let csv = data.to_table().to_csv();
        assert!(csv.starts_with("benchmark,"));
        assert_eq!(csv.lines().count(), 1 + 4 + 2, "header + rows + hmeans");
    }
}
