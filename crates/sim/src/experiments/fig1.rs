//! Figure 1: IPC for a varying number of physical registers.
//!
//! The paper enlarges the reorder buffer and instruction window to 256
//! entries and sweeps the per-class physical register count from 48 to
//! 256 on a 1-cycle register file, showing that the curves flatten beyond
//! ~128 registers — the machine that the rest of the evaluation assumes.

use super::{one_cycle, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{harmonic_mean, RunResult, RunSpec, TextTable};
use rfcache_pipeline::PipelineConfig;
use std::fmt;

/// The register-count sweep of Figure 1.
pub const SIZES: [usize; 8] = [48, 64, 96, 128, 160, 192, 224, 256];

/// The sizes actually swept under the given options.
fn sizes(opts: &ExperimentOpts) -> Vec<usize> {
    if opts.quick {
        vec![48, 128, 256]
    } else {
        SIZES.to_vec()
    }
}

/// Results of the Figure 1 sweep.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Physical register counts evaluated.
    pub sizes: Vec<usize>,
    /// Harmonic-mean IPC of SpecInt95 per size.
    pub int_hmean: Vec<f64>,
    /// Harmonic-mean IPC of SpecFP95 per size.
    pub fp_hmean: Vec<f64>,
}

/// Plans the Figure 1 simulation specs: both suites at every swept
/// register count (size-major, benchmark-minor).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let sizes = sizes(opts);
    let mut specs = Vec::with_capacity(sizes.len() * (int.len() + fp.len()));
    for &size in &sizes {
        let pipeline = PipelineConfig::default().with_window(256).with_phys_regs(size);
        for b in int.iter().chain(fp.iter()) {
            specs.push(
                RunSpec::known(b, one_cycle())
                    .pipeline(pipeline)
                    .insts(opts.insts)
                    .warmup(opts.warmup)
                    .seed(opts.seed),
            );
        }
    }
    specs
}

/// Assembles the results of [`plan`] into the per-size suite means.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> Fig1Data {
    let (int, fp) = super::sweep_suites(opts);
    let per_size = int.len() + fp.len();
    let sizes = sizes(opts);
    assert_eq!(results.len(), sizes.len() * per_size, "result count must match the plan");
    let mut int_hmean = Vec::with_capacity(sizes.len());
    let mut fp_hmean = Vec::with_capacity(sizes.len());
    for chunk in results.chunks_exact(per_size) {
        let (ints, fps): (Vec<_>, Vec<_>) = chunk.iter().partition(|r| !r.fp);
        int_hmean
            .push(harmonic_mean(&ints.iter().map(|r| r.ipc()).collect::<Vec<_>>()).unwrap_or(0.0));
        fp_hmean
            .push(harmonic_mean(&fps.iter().map(|r| r.ipc()).collect::<Vec<_>>()).unwrap_or(0.0));
    }
    Fig1Data { sizes, int_hmean, fp_hmean }
}

impl fmt::Display for Fig1Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 1: IPC vs physical registers (window/ROB = 256, 1-cycle RF)")?;
        let mut t = TextTable::new(vec![
            "registers".into(),
            "SpecInt95 hmean".into(),
            "SpecFP95 hmean".into(),
        ]);
        for (i, &size) in self.sizes.iter().enumerate() {
            t.row_f64(&size.to_string(), &[self.int_hmean[i], self.fp_hmean[i]]);
        }
        t.fmt(f)
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new("fig1", "IPC vs number of physical registers (48-256)", plan, |opts, results| {
        Box::new(assemble(opts, results))
    })
}

impl ScenarioReport for Fig1Data {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["registers".into(), "int_hmean".into(), "fp_hmean".into()]);
        for (i, &size) in self.sizes.iter().enumerate() {
            t.row_f64(&size.to_string(), &[self.int_hmean[i], self.fp_hmean[i]]);
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("registers".into(), self.sizes.iter().map(|&s| s as f64).collect()),
            ("int_hmean".into(), self.int_hmean.clone()),
            ("fp_hmean".into(), self.fp_hmean.clone()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke_run;

    #[test]
    fn more_registers_do_not_hurt_and_curve_flattens() {
        let data = smoke_run(plan, assemble);
        assert_eq!(data.sizes, vec![48, 128, 256]);
        // 48 → 128 must help noticeably; 128 → 256 must help much less.
        let low = data.int_hmean[0].min(data.fp_hmean[0]);
        assert!(low > 0.0);
        let gain_mid = data.int_hmean[1] / data.int_hmean[0];
        let gain_top = data.int_hmean[2] / data.int_hmean[1];
        assert!(gain_mid > 1.02, "48→128 gain {gain_mid}");
        assert!(gain_top < gain_mid, "flattening expected: {gain_mid} then {gain_top}");
        let s = data.to_string();
        assert!(s.contains("Figure 1"));
    }
}
