//! Extension experiment (the paper's §6 future work): the *one-level*
//! multiple-banked organization against the two-level register file
//! cache.
//!
//! A one-level organization splits the 128 physical registers over `N`
//! cheap banks (few ports each, no replication, no transfers); its cycle
//! time is set by one small bank, like the register file cache's upper
//! level, but reads that collide on a bank's ports must wait. This
//! experiment sweeps the bank count and per-bank ports and compares IPC
//! and area against the register file cache and the single-banked
//! baselines.

use super::{one_cycle, rfc_best, two_cycle_single_bypass, ExperimentOpts};
use crate::scenario::{Scenario, ScenarioReport};
use crate::{harmonic_mean, RunResult, RunSpec, TextTable};
use rfcache_area::{BankGeometry, TwoLevelDesign};
use rfcache_core::{OneLevelBankedConfig, RegFileConfig};
use std::fmt;

/// One evaluated organization.
#[derive(Debug, Clone)]
pub struct OneLevelRow {
    /// Description of the organization.
    pub label: String,
    /// Register file area in 10K λ² (analytical model).
    pub area_10k: f64,
    /// Model cycle time in ns.
    pub cycle_ns: f64,
    /// SpecInt95 harmonic-mean IPC.
    pub int_hmean: f64,
    /// SpecFP95 harmonic-mean IPC.
    pub fp_hmean: f64,
}

/// Results of the one-level comparison.
#[derive(Debug, Clone)]
pub struct OneLevelData {
    /// Rows: baselines first, then the bank sweep.
    pub rows: Vec<OneLevelRow>,
}

/// Area and cycle time of an `N`-bank one-level file: `N` banks of
/// `128/N` registers, each with the given ports.
fn one_level_geometry(banks: u32, reads: u32, writes: u32) -> (f64, f64) {
    let per_bank = BankGeometry::new(128 / banks, 64, reads, writes);
    (f64::from(banks) * per_bank.area_lambda2() / 1e4, per_bank.access_time_ns())
}

/// All evaluated organizations — baselines then the bank sweep — as
/// `(label, config, area_10k, cycle_ns)`, in plan order.
fn setups(quick: bool) -> Vec<(String, RegFileConfig, f64, f64)> {
    let rfc_design = TwoLevelDesign::new(128, 16, 64, 4, 3, 2, 3);
    let single_design = rfcache_area::SingleBankDesign::new(128, 64, 16, 8, 1);
    let mut setups: Vec<(String, RegFileConfig, f64, f64)> = vec![
        (
            "single 1-cycle (16R/8W)".into(),
            one_cycle(),
            single_design.area_lambda2() / 1e4,
            single_design.cycle_time_ns(),
        ),
        (
            "single 2-cycle (16R/8W)".into(),
            two_cycle_single_bypass(),
            single_design.area_lambda2() / 1e4,
            single_design.cycle_time_ns() / 2.0,
        ),
        (
            "rfc 16e (4R/3W/3B)".into(),
            rfc_best(),
            rfc_design.area_lambda2() / 1e4,
            rfc_design.cycle_time_ns(),
        ),
    ];
    let bank_sweep: &[(u32, u32, u32)] =
        if quick { &[(8, 2, 1)] } else { &[(4, 2, 1), (8, 2, 1), (8, 3, 2), (16, 2, 1)] };
    for &(banks, r, w) in bank_sweep {
        let (area, cycle) = one_level_geometry(banks, r, w);
        setups.push((
            format!("one-level {banks}x({r}R/{w}W)"),
            RegFileConfig::OneLevel(OneLevelBankedConfig {
                banks,
                read_ports_per_bank: Some(r),
                write_ports_per_bank: Some(w),
            }),
            area,
            cycle,
        ));
    }
    setups
}

/// Plans the one-level comparison specs: every organization on both
/// suites (organization-major, benchmark-minor).
pub fn plan(opts: &ExperimentOpts) -> Vec<RunSpec> {
    let (int, fp) = super::sweep_suites(opts);
    let mut specs = Vec::new();
    for (_, rf, _, _) in &setups(opts.quick) {
        for b in int.iter().chain(fp.iter()) {
            specs
                .push(RunSpec::known(b, *rf).insts(opts.insts).warmup(opts.warmup).seed(opts.seed));
        }
    }
    specs
}

/// Assembles the results of [`plan`] into the per-organization rows.
pub fn assemble(opts: &ExperimentOpts, results: Vec<RunResult>) -> OneLevelData {
    let (int, fp) = super::sweep_suites(opts);
    let per_setup = int.len() + fp.len();
    let setups = setups(opts.quick);
    assert_eq!(results.len(), setups.len() * per_setup, "result count must match the plan");

    let mut rows = Vec::new();
    for (si, (label, _, area, cycle)) in setups.iter().enumerate() {
        let slice = &results[si * per_setup..(si + 1) * per_setup];
        let hmean = |fp_suite: bool| {
            let vals: Vec<f64> =
                slice.iter().filter(|r| r.fp == fp_suite).map(|r| r.ipc()).collect();
            harmonic_mean(&vals).unwrap_or(0.0)
        };
        rows.push(OneLevelRow {
            label: label.clone(),
            area_10k: *area,
            cycle_ns: *cycle,
            int_hmean: hmean(false),
            fp_hmean: hmean(true),
        });
    }
    OneLevelData { rows }
}

impl OneLevelData {
    /// The row whose label contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&OneLevelRow> {
        self.rows.iter().find(|r| r.label.contains(needle))
    }
}

impl fmt::Display for OneLevelData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: one-level banked organization vs register file cache\n\
             (throughput = Int hmean IPC / cycle time, relative to the rfc row)"
        )?;
        let rfc_row = self.find("rfc").expect("rfc row present");
        let rfc_tp = rfc_row.int_hmean / rfc_row.cycle_ns;
        let mut t = TextTable::new(vec![
            "organization".into(),
            "area 10Kλ²".into(),
            "cycle ns".into(),
            "Int IPC".into(),
            "FP IPC".into(),
            "rel throughput".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                format!("{:.0}", r.area_10k),
                format!("{:.2}", r.cycle_ns),
                format!("{:.3}", r.int_hmean),
                format!("{:.3}", r.fp_hmean),
                format!("{:.2}", (r.int_hmean / r.cycle_ns) / rfc_tp),
            ]);
        }
        t.fmt(f)
    }
}

/// Registry entry for the scenario engine.
pub fn scenario() -> Scenario {
    Scenario::new(
        "onelevel",
        "beyond the paper: one-level banked organization",
        plan,
        |opts, results| Box::new(assemble(opts, results)),
    )
}

impl ScenarioReport for OneLevelData {
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "organization".into(),
            "area_10k".into(),
            "cycle_ns".into(),
            "int_hmean".into(),
            "fp_hmean".into(),
        ]);
        for r in &self.rows {
            t.row_f64(&r.label, &[r.area_10k, r.cycle_ns, r.int_hmean, r.fp_hmean]);
        }
        t
    }

    fn series(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("cycle_ns".into(), self.rows.iter().map(|r| r.cycle_ns).collect()),
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
    fn one_level_banks_trade_conflicts_for_area() {
        let data = smoke_run(plan, assemble);
        let rfc = data.find("rfc").unwrap();
        let one_level = data.find("one-level 8x").unwrap();
        // The banked file is much smaller...
        assert!(one_level.area_10k < rfc.area_10k);
        // IPC-wise the banked file can even beat the rfc (it has no
        // inter-level transfers; conflicts are its only cost)...
        assert!(one_level.int_hmean > 0.0);
        assert!(rfc.int_hmean > 0.0);
        // The unlimited-port single bank bounds everyone's IPC.
        let single = data.find("single 1-cycle").unwrap();
        assert!(single.int_hmean >= one_level.int_hmean * 0.95);
    }
}
