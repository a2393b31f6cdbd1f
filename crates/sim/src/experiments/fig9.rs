//! Figure 9: instruction throughput with the register file access time
//! factored into the processor cycle time.
//!
//! For each Table 2 configuration (C1–C4), each architecture is simulated
//! with its port limits; throughput is `IPC / cycle_time_ns`, normalized
//! to the non-pipelined single-banked file at C1.
//!
//! Paper finding: choosing the best configuration per architecture, the
//! register file cache outperforms the non-pipelined single bank by ~87%
//! (int) / ~92% (fp) and the (optimistically) pipelined two-cycle bank by
//! ~9% (int).

use super::ExperimentOpts;
use crate::scenario::{Scenario, ScenarioReport};
use crate::{harmonic_mean, RunResult, RunSpec, TextTable};
use rfcache_area::table2_configs;
use rfcache_core::{PortLimits, RegFileCacheConfig, RegFileConfig, SingleBankConfig};
use std::fmt;

/// Architecture labels, fixed order.
pub const ARCHS: [&str; 3] = ["1-cycle", "rfc", "2-cycle-1byp"];

/// Relative throughput of one architecture at one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Cell {
    /// Suite harmonic-mean IPC.
    pub ipc: f64,
    /// Cycle time in ns from the analytical model.
    pub cycle_ns: f64,
    /// Throughput relative to the 1-cycle architecture at C1.
    pub relative: f64,
}

/// Results of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Data {
    /// Configuration names (C1..C4).
    pub configs: Vec<String>,
    /// `cells[suite][config][arch]`, suite 0 = SpecInt95, 1 = SpecFP95.
    pub cells: Vec<Vec<Vec<Fig9Cell>>>,
}

/// All (config, arch) register file configs plus cycle times, in plan
/// order.
fn setups() -> Vec<(String, &'static str, RegFileConfig, f64)> {
    let table = table2_configs();
    let mut setups: Vec<(String, &'static str, RegFileConfig, f64)> = Vec::new();
    for cfg in table {
        let s1 = cfg.single_bank_1stage(128);
        let s2 = cfg.single_bank_2stage(128);
        let rfc = cfg.register_file_cache(128, 16);
        setups.push((
            cfg.name.to_string(),
            ARCHS[0],
            RegFileConfig::Single(
                SingleBankConfig::one_cycle()
                    .with_ports(PortLimits::limited(cfg.single_read, cfg.single_write)),
            ),
            s1.cycle_time_ns(),
        ));
        setups.push((
            cfg.name.to_string(),
            ARCHS[1],
            RegFileConfig::Cache(RegFileCacheConfig::paper_default().with_ports(
                cfg.rfc_upper_read,
                cfg.rfc_upper_write,
                cfg.rfc_lower_write,
                cfg.rfc_buses,
            )),
            rfc.cycle_time_ns(),
        ));
        setups.push((
            cfg.name.to_string(),
            ARCHS[2],
            RegFileConfig::Single(
                SingleBankConfig::two_cycle_single_bypass()
                    .with_ports(PortLimits::limited(cfg.single_read, cfg.single_write)),
            ),
            s2.cycle_time_ns(),
        ));
    }
    setups
}

/// Plans the Figure 9 simulation specs: every (config, arch) setup on
/// both suites (setup-major, benchmark-minor).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let mut specs = Vec::new();
    for (_, _, rf, _) in &setups() {
        for b in int.iter().chain(fp.iter()) {
            specs
                .push(RunSpec::known(b, *rf).insts(opts.insts).warmup(opts.warmup).seed(opts.seed));
        }
    }
    specs
}

/// Assembles the results of [`plan`] into the throughput cells.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> Fig9Data {
    let (int, fp) = super::sweep_suites(opts);
    let table = table2_configs();
    let setups = setups();
    let per_setup = int.len() + fp.len();
    assert_eq!(results.len(), setups.len() * per_setup, "result count must match the plan");

    let mut cells = vec![vec![Vec::new(); table.len()]; 2];
    let mut baseline = [0.0f64; 2];
    for (si_setup, (_, _, _, cycle_ns)) in setups.iter().enumerate() {
        let slice = &results[si_setup * per_setup..(si_setup + 1) * per_setup];
        let config_idx = si_setup / ARCHS.len();
        for (suite, fp_suite) in [(0usize, false), (1usize, true)] {
            let vals: Vec<f64> =
                slice.iter().filter(|r| r.fp == fp_suite).map(|r| r.ipc()).collect();
            let ipc = harmonic_mean(&vals).unwrap_or(0.0);
            let throughput = ipc / cycle_ns;
            // The first setup of each suite is "1-cycle at C1": the
            // normalization baseline.
            if si_setup == 0 {
                baseline[suite] = throughput;
            }
            cells[suite][config_idx].push(Fig9Cell {
                ipc,
                cycle_ns: *cycle_ns,
                relative: throughput / baseline[suite],
            });
        }
    }

    Fig9Data { configs: table.iter().map(|c| c.name.to_string()).collect(), cells }
}

impl Fig9Data {
    /// Best relative throughput per architecture on a suite
    /// (0 = int, 1 = fp), in [`ARCHS`] order.
    pub fn best_per_arch(&self, suite: usize) -> Vec<f64> {
        (0..ARCHS.len())
            .map(|ai| {
                self.cells[suite]
                    .iter()
                    .map(|cfg| cfg[ai].relative)
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// Speedup of the register file cache's best configuration over the
    /// non-pipelined single bank's best, per suite.
    pub fn rfc_speedup(&self, suite: usize) -> f64 {
        let best = self.best_per_arch(suite);
        best[1] / best[0]
    }
}

impl fmt::Display for Fig9Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: relative instruction throughput with cycle time factored in")?;
        for (suite, name) in ["SpecInt95", "SpecFP95"].iter().enumerate() {
            writeln!(f, "\n[{name}] (normalized to 1-cycle @ C1)")?;
            let mut t = TextTable::new(vec![
                "config".into(),
                "1-cycle".into(),
                "rfc".into(),
                "2-cycle-1byp".into(),
            ]);
            for (ci, cfg) in self.configs.iter().enumerate() {
                let row: Vec<f64> = self.cells[suite][ci].iter().map(|c| c.relative).collect();
                t.row_f64(cfg, &row);
            }
            t.fmt(f)?;
            let best = self.best_per_arch(suite);
            writeln!(
                f,
                "best: 1-cycle {:.2}, rfc {:.2}, 2-cycle {:.2} → rfc speedup over 1-cycle: {:.0}%",
                best[0],
                best[1],
                best[2],
                (self.rfc_speedup(suite) - 1.0) * 100.0
            )?;
        }
        Ok(())
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "fig9",
        "instruction throughput with cycle time factored in",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for Fig9Data {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "config".into(),
            "suite".into(),
            "arch".into(),
            "ipc".into(),
            "cycle_ns".into(),
            "relative".into(),
        ]);
        for (si, suite) in ["int", "fp"].iter().enumerate() {
            for (ci, config) in self.configs.iter().enumerate() {
                for (ai, cell) in self.cells[si][ci].iter().enumerate() {
                    t.row(vec![
                        config.clone(),
                        (*suite).into(),
                        ARCHS[ai].into(),
                        format!("{:.3}", cell.ipc),
                        format!("{:.2}", cell.cycle_ns),
                        format!("{:.3}", cell.relative),
                    ]);
                }
            }
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for (si, suite) in ["int", "fp"].iter().enumerate() {
            for (ci, config) in self.configs.iter().enumerate() {
                out.push((
                    format!("relative[{suite}][{config}]"),
                    self.cells[si][ci].iter().map(|c| c.relative).collect(),
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
    fn rfc_dominates_when_cycle_time_counts() {
        let data = smoke_run(plan, assemble);
        assert_eq!(data.configs, vec!["C1", "C2", "C3", "C4"]);
        for suite in 0..2 {
            let best = data.best_per_arch(suite);
            // The rfc must crush the non-pipelined file once the clock is
            // set by the register file (paper: +87% int / +92% fp).
            assert!(
                data.rfc_speedup(suite) > 1.3,
                "suite {suite}: rfc {} vs 1-cycle {}",
                best[1],
                best[0]
            );
            // And be at least competitive with the optimistic 2-cycle file.
            assert!(best[1] > 0.85 * best[2], "suite {suite}: {best:?}");
        }
    }
}
