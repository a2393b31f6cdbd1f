//! Smoke test for the scenario engine: every registered experiment runs
//! to completion in quick mode and yields non-empty, finite series plus a
//! non-empty rendering.

use rfcache_sim::experiments::ExperimentOpts;
use rfcache_sim::Registry;

#[test]
fn every_registered_scenario_runs_to_completion() {
    let expected = [
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "readstats",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "ablation",
        "onelevel",
        "sources",
    ];
    let registry = Registry::builtin();
    let names: Vec<&str> = registry.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, expected, "registry must cover the paper's 13 experiments in run order");

    let opts = ExperimentOpts::smoke();
    for s in registry.iter() {
        let report = s.run(&opts);

        let series = report.series();
        assert!(!series.is_empty(), "{}: no series", s.name);
        assert!(
            series.iter().any(|(_, values)| !values.is_empty()),
            "{}: every series is empty",
            s.name
        );
        for (label, values) in &series {
            assert!(!label.is_empty(), "{}: unnamed series", s.name);
            assert!(
                values.iter().all(|v| v.is_finite()),
                "{}: non-finite value in series {label}",
                s.name
            );
        }

        let rendered = report.to_string();
        assert!(!rendered.trim().is_empty(), "{}: empty rendering", s.name);
    }
}

#[test]
fn explicit_jobs_do_not_change_results() {
    // The engine must be deterministic whatever the worker count.
    let registry = Registry::builtin();
    let fig6 = registry.find("fig6").unwrap();
    let serial = fig6.run(&ExperimentOpts::smoke().with_jobs(1));
    let parallel = fig6.run(&ExperimentOpts::smoke().with_jobs(4));
    assert_eq!(serial.series(), parallel.series());
}
