//! Ablation study (beyond the paper): sensitivity of the register file
//! cache to the design choices DESIGN.md calls out — upper-bank size,
//! replacement policy, lower-bank latency, and bus count.
//!
//! Each variant perturbs one parameter of the best configuration
//! (non-bypass caching + prefetch-first-pair, 16 entries, pseudo-LRU,
//! 2-cycle lower bank, unlimited bandwidth except where noted).

use super::ExperimentOpts;
use crate::scenario::{Scenario, ScenarioReport};
use crate::{harmonic_mean, RunResult, RunSpec, TextTable};
use rfcache_core::{RegFileCacheConfig, RegFileConfig, Replacement};
use std::fmt;

/// One ablation variant and its result.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant description.
    pub label: String,
    /// SpecInt95 harmonic-mean IPC.
    pub int_hmean: f64,
    /// SpecFP95 harmonic-mean IPC.
    pub fp_hmean: f64,
}

/// Results of the ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationData {
    /// First row is the baseline; the rest are single-parameter variants.
    pub rows: Vec<AblationRow>,
}

fn variants() -> Vec<(String, RegFileCacheConfig)> {
    let base = RegFileCacheConfig::paper_default();
    let mut out = vec![("baseline (16e, PLRU, L2, ∞buses)".to_string(), base)];
    for entries in [8usize, 32] {
        out.push((
            format!("upper entries = {entries}"),
            RegFileCacheConfig { upper_entries: entries, ..base },
        ));
    }
    for repl in [Replacement::Fifo, Replacement::Random] {
        out.push((
            format!("replacement = {repl}"),
            RegFileCacheConfig { replacement: repl, ..base },
        ));
    }
    out.push(("lower latency = 3".to_string(), RegFileCacheConfig { lower_latency: 3, ..base }));
    for buses in [1u32, 2, 4] {
        out.push((format!("buses = {buses}"), RegFileCacheConfig { buses: Some(buses), ..base }));
    }
    out
}

/// Plans the ablation simulation specs: every variant on both suites
/// (variant-major, benchmark-minor).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let mut specs = Vec::new();
    for (_, cfg) in &variants() {
        for b in int.iter().chain(fp.iter()) {
            specs.push(
                RunSpec::known(b, RegFileConfig::Cache(*cfg))
                    .insts(opts.insts)
                    .warmup(opts.warmup)
                    .seed(opts.seed),
            );
        }
    }
    specs
}

/// Assembles the results of [`plan`] into the per-variant means.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> AblationData {
    let (int, fp) = super::sweep_suites(opts);
    let per_variant = int.len() + fp.len();
    let variants = variants();
    assert_eq!(results.len(), variants.len() * per_variant, "result count must match the plan");

    let mut rows = Vec::new();
    for (vi, (label, _)) in variants.iter().enumerate() {
        let slice = &results[vi * per_variant..(vi + 1) * per_variant];
        let hmean = |fp_suite: bool| {
            let vals: Vec<f64> =
                slice.iter().filter(|r| r.fp == fp_suite).map(|r| r.ipc()).collect();
            harmonic_mean(&vals).unwrap_or(0.0)
        };
        rows.push(AblationRow {
            label: label.clone(),
            int_hmean: hmean(false),
            fp_hmean: hmean(true),
        });
    }
    AblationData { rows }
}

impl AblationData {
    /// The baseline row.
    pub fn baseline(&self) -> &AblationRow {
        &self.rows[0]
    }

    /// The row whose label contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.label.contains(needle))
    }
}

impl fmt::Display for AblationData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: register file cache design choices (IPC, Δ vs baseline)")?;
        let base = self.baseline();
        let mut t = TextTable::new(vec![
            "variant".into(),
            "Int hmean".into(),
            "Int Δ%".into(),
            "FP hmean".into(),
            "FP Δ%".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.label.clone(),
                format!("{:.3}", row.int_hmean),
                format!("{:+.1}", (row.int_hmean / base.int_hmean - 1.0) * 100.0),
                format!("{:.3}", row.fp_hmean),
                format!("{:+.1}", (row.fp_hmean / base.fp_hmean - 1.0) * 100.0),
            ]);
        }
        t.fmt(f)
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "ablation",
        "beyond the paper: upper-bank size, replacement, buses",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for AblationData {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["variant".into(), "int_hmean".into(), "fp_hmean".into()]);
        for row in &self.rows {
            t.row_f64(&row.label, &[row.int_hmean, row.fp_hmean]);
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("int_hmean".into(), self.rows.iter().map(|r| r.int_hmean).collect()),
            ("fp_hmean".into(), self.rows.iter().map(|r| r.fp_hmean).collect()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn capacity_matters_most() {
        let data = smoke_run(plan, assemble);
        let base = data.baseline().clone();
        let small = data.find("= 8").unwrap();
        let big = data.find("= 32").unwrap();
        assert!(small.int_hmean < base.int_hmean, "8 entries must hurt");
        assert!(big.int_hmean >= base.int_hmean * 0.99, "32 entries must not hurt");
        // One bus throttles transfers.
        let one_bus = data.find("buses = 1").unwrap();
        assert!(one_bus.int_hmean <= base.int_hmean * 1.01);
        assert!(data.to_string().contains("baseline"));
    }
}
