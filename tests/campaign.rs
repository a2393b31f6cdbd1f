//! Cross-scenario campaign scheduler: one flat work queue over many
//! scenarios must reproduce, bit for bit, what sequential per-scenario
//! runs produce — at any worker count — and the structured exports must
//! yield one well-formed file per scenario.

use rfcache_repro::prelude::*;
use rfcache_sim::{run_campaign, scenario, write_csv, write_json, Registry};
use std::path::Path;

/// ≥3 scenarios of different shapes: a multi-batch sweep (fig1), a
/// benchmark × architecture matrix (fig6), a statistics pass
/// (readstats), and a plan-less analytical table (table2).
const MIXED: [&str; 4] = ["fig1", "fig6", "readstats", "table2"];

#[test]
fn campaign_reports_are_byte_identical_to_sequential_runs() {
    let registry = Registry::builtin();
    let scenarios: Vec<&Scenario> = MIXED.iter().map(|n| registry.find(n).unwrap()).collect();
    for jobs in [1usize, 4] {
        let opts = ExperimentOpts::smoke().with_jobs(jobs);
        let campaign = run_campaign(&scenarios, &opts);
        assert_eq!(campaign.len(), scenarios.len());
        for (s, report) in scenarios.iter().zip(&campaign) {
            let sequential = s.run(&opts);
            assert_eq!(
                sequential.series(),
                report.series(),
                "{}: series diverge at jobs = {jobs}",
                s.name
            );
            assert_eq!(
                sequential.to_string(),
                report.to_string(),
                "{}: rendering diverges at jobs = {jobs}",
                s.name
            );
            assert_eq!(
                sequential.to_table().to_csv(),
                report.to_table().to_csv(),
                "{}: export diverges at jobs = {jobs}",
                s.name
            );
        }
    }
}

#[test]
fn campaign_plans_flatten_and_route_back_by_index() {
    let registry = Registry::builtin();
    let scenarios: Vec<&Scenario> = MIXED.iter().map(|n| registry.find(n).unwrap()).collect();
    let opts = ExperimentOpts::smoke();
    let per_scenario: Vec<usize> = scenarios.iter().map(|s| s.plan(&opts).len()).collect();
    // table2 plans nothing; the sweeps plan plenty — the campaign size is
    // exactly the sum, so no spec is dropped or duplicated.
    assert_eq!(per_scenario[3], 0, "table2 must plan zero simulations");
    assert!(per_scenario[0] > 0 && per_scenario[1] > 0 && per_scenario[2] > 0);
    assert_eq!(scenario::campaign_size(&scenarios, &opts), per_scenario.iter().sum::<usize>());
}

fn assert_wellformed_csv(path: &Path, name: &str) {
    let content = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert!(lines.len() >= 2, "{name}: CSV must have a header and at least one data row");
    assert!(!lines[0].is_empty(), "{name}: empty CSV header");
}

fn assert_wellformed_json(path: &Path, name: &str) {
    let content = std::fs::read_to_string(path).unwrap();
    let trimmed = content.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{name}: JSON must be one object");
    assert!(content.contains("\"header\""), "{name}: missing header key");
    assert!(content.contains("\"rows\""), "{name}: missing rows key");
}

#[test]
fn exports_write_one_wellformed_file_per_registered_scenario() {
    let registry = Registry::builtin();
    let all: Vec<&Scenario> = registry.iter().collect();
    let opts = ExperimentOpts::smoke();
    let reports = run_campaign(&all, &opts);

    let dir = std::env::temp_dir().join("rfcache_campaign_export_test");
    let _ = std::fs::remove_dir_all(&dir);
    for (s, report) in all.iter().zip(&reports) {
        let table = report.to_table();
        assert!(!table.is_empty(), "{}: empty export table", s.name);
        write_csv(&dir, &s.name, &table).unwrap();
        write_json(&dir, &s.name, &table).unwrap();
    }

    let mut csvs = 0;
    let mut jsons = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => csvs += 1,
            Some("json") => jsons += 1,
            other => panic!("unexpected file {path:?} ({other:?})"),
        }
    }
    assert_eq!(csvs, all.len(), "one CSV per registered scenario");
    assert_eq!(jsons, all.len(), "one JSON per registered scenario");
    for s in &all {
        assert_wellformed_csv(&dir.join(format!("{}.csv", s.name)), &s.name);
        assert_wellformed_json(&dir.join(format!("{}.json", s.name)), &s.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
