//! The unified scenario engine.
//!
//! Every experiment of the paper's evaluation registers here as a
//! [`Scenario`]: a name, a one-line description, and a two-phase runner —
//! a **planner** that expands [`ExperimentOpts`] into the experiment's
//! flat [`RunSpec`] list, and an **assembler** that folds the matching
//! [`RunResult`]s back into a boxed [`ScenarioReport`]. Frontends (the
//! `experiments` CLI, the smoke tests, the coordinator service) enumerate
//! and dispatch through a [`Registry`] instead of hard-coding the
//! experiment list, so adding an experiment means adding one module plus
//! one registry line — every frontend picks it up automatically.
//!
//! The split matters for scheduling: [`Scenario::run`] plans, simulates
//! and assembles one scenario, while [`run_campaign`] flattens the specs
//! of *many* scenarios into a single work queue so the worker pool stays
//! busy across scenario boundaries (no idle tail at the end of each
//! sweep). Results are routed back to their scenario by index, so both
//! paths produce byte-identical reports.
//!
//! # Examples
//!
//! ```
//! use rfcache_sim::experiments::ExperimentOpts;
//! use rfcache_sim::Registry;
//!
//! let registry = Registry::builtin();
//! let fig6 = registry.find("fig6").expect("registered");
//! let report = fig6.run(&ExperimentOpts::smoke());
//! assert!(report.series().iter().any(|(_, v)| !v.is_empty()));
//! ```

use crate::executor::{Executor, ExecutorError, InProcess};
use crate::experiments::{
    ablation, fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, onelevel, readstats, sources, table2,
    ExperimentOpts,
};
use crate::json::{render_json, JsonValue};
use crate::metrics_codec::CampaignHeader;
use crate::run::{campaign_fingerprint, flatten_plans, run_suite_jobs, RunResult, RunSpec};
use crate::table::TextTable;
use std::fmt;

/// What running a scenario yields: something renderable (the paper's
/// table/figure shape via `Display`), introspectable (named numeric
/// series for tests and downstream tooling), and exportable (a
/// [`TextTable`] that CSV/JSON serialization consumes).
pub trait ScenarioReport: fmt::Display + Send {
    /// The named numeric series underlying the figure or table. Every
    /// report exposes at least one non-empty series.
    fn series(&self) -> Vec<(String, Vec<f64>)>;

    /// The report as a structured table for export (`write_csv` /
    /// `write_json`).
    ///
    /// The default renders [`series`](Self::series) directly: one column
    /// per series (plus a leading index column) when all series have the
    /// same length, or long `(series, index, value)` rows otherwise.
    /// Reports with a richer natural shape (benchmark or variant labels)
    /// override this.
    fn to_table(&self) -> TextTable {
        let series = self.series();
        let uniform = series
            .first()
            .is_some_and(|(_, first)| series.iter().all(|(_, v)| v.len() == first.len()));
        if uniform {
            let mut header = vec!["index".to_string()];
            header.extend(series.iter().map(|(name, _)| name.clone()));
            let mut t = TextTable::new(header);
            for i in 0..series[0].1.len() {
                let mut row = vec![i.to_string()];
                row.extend(series.iter().map(|(_, v)| v[i].to_string()));
                t.row(row);
            }
            t
        } else {
            let mut t = TextTable::new(vec!["series".into(), "index".into(), "value".into()]);
            for (name, values) in &series {
                for (i, v) in values.iter().enumerate() {
                    t.row(vec![name.clone(), i.to_string(), v.to_string()]);
                }
            }
            t
        }
    }
}

/// Expands the options into the scenario's simulation specs.
pub type Planner = Box<dyn Fn(&ExperimentOpts) -> Vec<RunSpec> + Send + Sync>;

/// Folds the results of the planned specs (same options, same order)
/// into the scenario's report.
pub type Assembler =
    Box<dyn Fn(&ExperimentOpts, Vec<RunResult>) -> Box<dyn ScenarioReport> + Send + Sync>;

/// One registered experiment: a built-in (the paper's 13 figures and
/// tables, compiled in) or a runtime-loaded declarative sweep
/// ([`crate::sweep`]). Both are plain owned values, so a [`Registry`]
/// can mix them freely.
pub struct Scenario {
    /// CLI name (`fig1` … `fig9`, `table2`, `ablation`, `onelevel`,
    /// `sources`, `readstats`, or a sweep's declared name).
    pub name: String,
    /// One-line description shown by `experiments --list`.
    pub description: String,
    planner: Planner,
    assembler: Assembler,
}

impl Scenario {
    /// Builds a scenario (used by the experiment modules and the sweep
    /// loader). Plain `fn` items and capturing closures both coerce.
    pub fn new<P, A>(
        name: impl Into<String>,
        description: impl Into<String>,
        planner: P,
        assembler: A,
    ) -> Self
    where
        P: Fn(&ExperimentOpts) -> Vec<RunSpec> + Send + Sync + 'static,
        A: Fn(&ExperimentOpts, Vec<RunResult>) -> Box<dyn ScenarioReport> + Send + Sync + 'static,
    {
        Scenario {
            name: name.into(),
            description: description.into(),
            planner: Box::new(planner),
            assembler: Box::new(assembler),
        }
    }

    /// The scenario's simulation specs for the given options, in the
    /// order [`assemble`](Self::assemble) expects the results back.
    pub fn plan(&self, opts: &ExperimentOpts) -> Vec<RunSpec> {
        (self.planner)(opts)
    }

    /// Folds the results of [`plan`](Self::plan) (run with the *same*
    /// options, results in spec order) into the scenario's report.
    pub fn assemble(
        &self,
        opts: &ExperimentOpts,
        results: Vec<RunResult>,
    ) -> Box<dyn ScenarioReport> {
        (self.assembler)(opts, results)
    }

    /// Runs the scenario on its own: plan, simulate (parallel per
    /// `opts.jobs`), assemble.
    pub fn run(&self, opts: &ExperimentOpts) -> Box<dyn ScenarioReport> {
        let specs = self.plan(opts);
        let results = run_suite_jobs(&specs, opts.jobs);
        self.assemble(opts, results)
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Runs many scenarios through **one** global work queue.
///
/// All scenarios' specs are flattened into a single
/// [`run_batch`](crate::run_batch), so the tail of one scenario's sweep
/// overlaps the head of the next, the worker pool stays saturated across
/// scenario boundaries, and a spec or instruction stream that several
/// scenarios plan is simulated or generated once.
/// Each result is routed back to its scenario by index, so the returned
/// reports (in input order) are byte-identical to what the same
/// [`Scenario::run`] calls would produce sequentially.
pub fn run_campaign(
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
) -> Vec<Box<dyn ScenarioReport>> {
    let plans = scenarios.iter().map(|s| s.plan(opts)).collect();
    run_campaign_planned(scenarios, opts, plans)
}

/// [`run_campaign`] over pre-computed plans — one `Vec<RunSpec>` per
/// scenario, as returned by [`Scenario::plan`] with the *same* `opts` —
/// for callers that already planned (e.g. to size the campaign) and
/// should not pay for planning twice.
///
/// # Panics
///
/// Panics if `plans` and `scenarios` differ in length.
pub fn run_campaign_planned(
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
    plans: Vec<Vec<RunSpec>>,
) -> Vec<Box<dyn ScenarioReport>> {
    run_campaign_planned_with(&InProcess::new(opts.jobs), scenarios, opts, plans)
        .expect("the in-process executor is infallible")
}

/// [`run_campaign_planned`] through an explicit execution backend —
/// the seam the multi-process (and, later, multi-host) backends plug
/// into. The executor sees the flattened plan and must return one
/// result per spec in plan order; the reports are byte-identical across
/// backends.
///
/// # Errors
///
/// Propagates the executor's failure (worker crash, corrupt shard file,
/// plan drift); the in-process backend never fails.
///
/// # Panics
///
/// Panics if `plans` and `scenarios` differ in length.
pub fn run_campaign_planned_with(
    executor: &dyn Executor,
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
    plans: Vec<Vec<RunSpec>>,
) -> Result<Vec<Box<dyn ScenarioReport>>, ExecutorError> {
    let results = executor.execute(&flatten_plans(&plans))?;
    Ok(assemble_plans(scenarios, opts, &plans, results))
}

/// The assemble half of a campaign: folds a complete, plan-ordered
/// result vector back through each scenario's
/// [`assemble`](Scenario::assemble).
///
/// # Panics
///
/// Panics if `plans` and `scenarios` differ in length, or if `results`
/// does not hold exactly one result per planned spec.
fn assemble_plans(
    scenarios: &[&Scenario],
    opts: &ExperimentOpts,
    plans: &[Vec<RunSpec>],
    results: Vec<RunResult>,
) -> Vec<Box<dyn ScenarioReport>> {
    assert_eq!(plans.len(), scenarios.len(), "one plan per scenario");
    let total: usize = plans.iter().map(Vec::len).sum();
    assert_eq!(results.len(), total, "one result per planned spec");
    let mut results = results.into_iter();
    scenarios
        .iter()
        .zip(plans)
        .map(|(s, plan)| s.assemble(opts, results.by_ref().take(plan.len()).collect()))
        .collect()
}

/// Total number of simulation specs the scenarios plan under `opts`
/// (what [`run_campaign`] will schedule).
pub fn campaign_size(scenarios: &[&Scenario], opts: &ExperimentOpts) -> usize {
    scenarios.iter().map(|s| s.plan(opts).len()).sum()
}

/// The built-in scenarios, in the canonical run order of
/// `experiments all` (constructed once, on first use).
fn builtins() -> &'static [Scenario] {
    static BUILTINS: std::sync::OnceLock<Vec<Scenario>> = std::sync::OnceLock::new();
    BUILTINS.get_or_init(|| {
        vec![
            table2::scenario(),
            fig1::scenario(),
            fig2::scenario(),
            fig3::scenario(),
            readstats::scenario(),
            fig5::scenario(),
            fig6::scenario(),
            fig7::scenario(),
            fig8::scenario(),
            fig9::scenario(),
            ablation::scenario(),
            onelevel::scenario(),
            sources::scenario(),
        ]
    })
}

/// A scenario namespace: the 13 built-ins plus any runtime-loaded
/// declarative sweeps ([`crate::sweep`]).
///
/// Built-ins live in a process-wide static; the registry only owns the
/// sweeps, so building one is cheap. Every path that resolves campaign
/// names — the CLI run path, workers, `merge`, `resume`, the submission
/// service — builds a `Registry` from whatever sweep definitions travel
/// with the campaign, so a name always means the same plan everywhere.
#[derive(Default)]
pub struct Registry {
    sweeps: Vec<Scenario>,
    /// Canonical JSON text of each sweep, aligned with `sweeps` — what
    /// a [`CampaignRequest`] carries so other processes can rebuild
    /// this registry.
    texts: Vec<String>,
}

impl Registry {
    /// A registry holding only the built-ins.
    pub fn builtin() -> Self {
        Registry::default()
    }

    /// A registry holding the built-ins plus the given sweep
    /// definitions (in order).
    ///
    /// # Errors
    ///
    /// Rejects a sweep whose name collides with a built-in scenario or
    /// another sweep in the list.
    pub fn with_sweeps(defs: Vec<crate::sweep::SweepDef>) -> Result<Self, String> {
        let mut registry = Registry::default();
        for def in defs {
            if builtins().iter().any(|s| s.name == def.name) {
                return Err(format!("sweep `{}` collides with a built-in scenario", def.name));
            }
            if registry.sweeps.iter().any(|s| s.name == def.name) {
                return Err(format!("duplicate sweep name `{}`", def.name));
            }
            registry.texts.push(def.text.clone());
            registry.sweeps.push(def.into_scenario());
        }
        Ok(registry)
    }

    /// Rebuilds a registry from the canonical sweep texts a
    /// [`CampaignRequest`] carries.
    ///
    /// # Errors
    ///
    /// Returns a reason when a text fails to parse or validate, or when
    /// names collide.
    pub fn from_texts(texts: &[String]) -> Result<Self, String> {
        let defs = texts
            .iter()
            .map(|t| crate::sweep::SweepDef::parse(t))
            .collect::<Result<Vec<_>, _>>()?;
        Self::with_sweeps(defs)
    }

    /// All scenarios — built-ins first, then sweeps, each in order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        builtins().iter().chain(self.sweeps.iter())
    }

    /// The sweep scenarios only (what `--list` renders separately).
    pub fn sweeps(&self) -> &[Scenario] {
        &self.sweeps
    }

    /// The canonical JSON texts of the loaded sweeps, in registry order
    /// — what campaign headers and submission requests embed.
    pub fn sweep_texts(&self) -> &[String] {
        &self.texts
    }

    /// Looks up a scenario by name (built-ins shadow nothing: sweep
    /// names are rejected at load time if they collide).
    pub fn find(&self, name: &str) -> Option<&Scenario> {
        self.iter().find(|s| s.name == name)
    }

    /// Resolves a list of scenario names, preserving input order.
    ///
    /// # Errors
    ///
    /// Names the first unknown scenario.
    pub fn resolve(&self, names: &[String]) -> Result<Vec<&Scenario>, String> {
        names.iter().map(|name| self.position(name).map(|at| self.at(at))).collect()
    }

    /// The position of a scenario in [`iter`](Self::iter) order.
    fn position(&self, name: &str) -> Result<usize, String> {
        self.iter()
            .position(|s| s.name == name)
            .ok_or_else(|| format!("unknown scenario `{name}` (see experiments --list)"))
    }

    /// The scenario at a [`position`](Self::position).
    fn at(&self, at: usize) -> &Scenario {
        builtins().get(at).unwrap_or_else(|| &self.sweeps[at - builtins().len()])
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("builtins", &builtins().len())
            .field("sweeps", &self.sweeps.iter().map(|s| &s.name).collect::<Vec<_>>())
            .finish()
    }
}

/// A campaign description: which scenarios to run, the declarative
/// sweeps they may name, and the [`ExperimentOpts`] to plan them under.
///
/// This is the one description of a campaign. Its JSON form —
/// `{"scenarios": ["fig1", ...], "sweeps": [{...}, ...], "insts": N,
/// "warmup": N, "seed": N, "quick": bool}` — is the `POST /campaigns`
/// body, and with the shard slice appended it is the first line of every
/// shard file and journal and the campaign of every `hello` frame
/// ([`CampaignHeader`]). Every process derives the campaign's runs
/// through [`plan`](Self::plan), so a name always means the same plan
/// everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Scenario names, in run order (`all` already expanded by the
    /// submitting client; may name embedded sweeps).
    pub scenarios: Vec<String>,
    /// Canonical JSON texts of embedded declarative sweep definitions.
    /// A runtime sweep has no name another process could resolve, so
    /// the definition itself travels with the request.
    pub sweeps: Vec<String>,
    /// The options every scenario is planned and assembled with (`jobs`
    /// is never encoded: worker-side parallelism is the workers'
    /// business).
    pub opts: ExperimentOpts,
}

/// Which document a campaign description is decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// A `POST /campaigns` body: unknown keys are rejected (a typo'd
    /// option must not silently plan a default campaign), omitted
    /// options default, and every sweep is an object.
    Post,
    /// A shard-file, journal or `hello` header: the caller reads the
    /// other keys, every option is required, and a sweep may also be the
    /// escaped string that older headers carry.
    Header,
}

impl CampaignRequest {
    /// Builds a description for registered scenario names.
    pub fn new(scenarios: Vec<String>, opts: ExperimentOpts) -> Self {
        CampaignRequest { scenarios, sweeps: Vec::new(), opts }
    }

    /// Attaches embedded sweep definitions (canonical JSON texts,
    /// builder-style).
    #[must_use]
    pub fn with_sweeps(mut self, sweeps: Vec<String>) -> Self {
        self.sweeps = sweeps;
        self
    }

    /// Renders the description as one JSON object. Sweep definitions
    /// embed as raw JSON objects (they are canonical JSON texts already)
    /// and are omitted when there are none.
    pub fn to_json(&self) -> String {
        let names: Vec<String> =
            self.scenarios.iter().map(|s| format!("\"{}\"", crate::json::escape(s))).collect();
        let sweeps = if self.sweeps.is_empty() {
            String::new()
        } else {
            format!("\"sweeps\": [{}], ", self.sweeps.join(", "))
        };
        format!(
            "{{\"scenarios\": [{}], {sweeps}\"insts\": {}, \"warmup\": {}, \"seed\": {}, \"quick\": {}}}",
            names.join(", "),
            self.opts.insts,
            self.opts.warmup,
            self.opts.seed,
            self.opts.quick
        )
    }

    /// Parses one submitted campaign description (a `POST /campaigns`
    /// body).
    ///
    /// Strict on shape: unknown top-level keys are rejected, `scenarios`
    /// must name at least one scenario, and every sweep must be an
    /// object. Whether the names resolve and the sweeps validate is
    /// [`plan`](Self::plan)'s call.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason fit for a `400` response body.
    pub fn from_json(body: &str) -> Result<Self, String> {
        Self::decode(&crate::parse_json(body).map_err(|e| e.to_string())?, Source::Post)
    }

    /// Decodes a parsed description read from `source`.
    pub(crate) fn decode(v: &JsonValue, source: Source) -> Result<Self, String> {
        let JsonValue::Object(fields) = v else {
            return Err("campaign description must be a JSON object".to_string());
        };
        let known = ["scenarios", "sweeps", "insts", "warmup", "seed", "quick"];
        if source == Source::Post {
            if let Some((key, _)) = fields.iter().find(|(key, _)| !known.contains(&key.as_str())) {
                return Err(format!("unknown campaign field `{key}`"));
            }
        }
        let scenarios = v
            .get("scenarios")
            .ok_or("campaign description lacks `scenarios`")?
            .as_array()
            .ok_or("`scenarios` must be an array of scenario names")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string entry in `scenarios`".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        if scenarios.is_empty() {
            return Err("`scenarios` must name at least one scenario".to_string());
        }
        let sweeps = match v.get("sweeps") {
            None => Vec::new(),
            Some(s) => s
                .as_array()
                .ok_or("`sweeps` must be an array of sweep definition objects")?
                .iter()
                .map(|def| match def {
                    JsonValue::Object(_) => Ok(render_json(def)),
                    JsonValue::String(text) if source == Source::Header => Ok(text.clone()),
                    _ => Err("`sweeps` must be an array of sweep definition objects".to_string()),
                })
                .collect::<Result<Vec<String>, String>>()?,
        };
        let defaults = ExperimentOpts::default();
        let option = |key: &str| match v.get(key) {
            None if source == Source::Header => Err(format!("missing field `{key}`")),
            value => Ok(value),
        };
        let number = |key: &str, default: u64| match option(key)? {
            None => Ok(default),
            Some(n) => n.as_u64().ok_or_else(|| format!("`{key}` must be a whole number")),
        };
        let opts = ExperimentOpts {
            insts: number("insts", defaults.insts)?,
            warmup: number("warmup", defaults.warmup)?,
            seed: number("seed", defaults.seed)?,
            quick: match option("quick")? {
                None => defaults.quick,
                Some(q) => q.as_bool().ok_or("`quick` must be a boolean")?,
            },
            ..defaults
        };
        Ok(CampaignRequest { scenarios, sweeps, opts })
    }

    /// Plans the campaign: builds the registry from the embedded sweeps,
    /// resolves the names, plans every scenario and fingerprints the
    /// flattened plan. Every process that runs, serves, merges or resumes
    /// a campaign plans it here.
    ///
    /// # Errors
    ///
    /// Returns the reason when an embedded sweep fails to parse or
    /// validate, sweep names collide, or a name resolves to no scenario.
    pub fn plan(&self) -> Result<CampaignPlan, String> {
        let registry = Registry::from_texts(&self.sweeps)?;
        let positions = self
            .scenarios
            .iter()
            .map(|name| registry.position(name))
            .collect::<Result<Vec<usize>, String>>()?;
        let plans: Vec<Vec<RunSpec>> =
            positions.iter().map(|&at| registry.at(at).plan(&self.opts)).collect();
        let fingerprint = campaign_fingerprint(&flatten_plans(&plans));
        Ok(CampaignPlan { request: self.clone(), registry, positions, plans, fingerprint })
    }
}

/// A planned campaign ([`CampaignRequest::plan`]): the description, the
/// registry its names resolve in, each scenario's specs, and the
/// campaign fingerprint the worker handshake and journals compare.
#[derive(Debug)]
pub struct CampaignPlan {
    request: CampaignRequest,
    registry: Registry,
    /// Each requested scenario's position in the registry, resolved
    /// once, so assembling never depends on a name resolving again.
    positions: Vec<usize>,
    plans: Vec<Vec<RunSpec>>,
    fingerprint: u64,
}

impl CampaignPlan {
    /// The description this plan was derived from.
    pub fn request(&self) -> &CampaignRequest {
        &self.request
    }

    /// Every scenario's specs in one list, in plan order: what executors,
    /// shard workers and lease tables index.
    pub fn flat(&self) -> Vec<&RunSpec> {
        flatten_plans(&self.plans)
    }

    /// How many specs the campaign plans.
    pub fn runs(&self) -> usize {
        self.plans.iter().map(Vec::len).sum()
    }

    /// [`campaign_fingerprint`] of the flattened plan.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The header of slice `shard` of `of` of this campaign.
    pub fn header(&self, shard: usize, of: usize) -> CampaignHeader {
        CampaignHeader { campaign: self.request.clone(), shard, of, runs: self.runs() }
    }

    /// Folds a complete, plan-ordered result vector back through each
    /// scenario's [`assemble`](Scenario::assemble), one report per
    /// requested scenario.
    ///
    /// # Panics
    ///
    /// Panics if `results` does not hold exactly one result per planned
    /// spec (callers verify coverage first).
    pub fn assemble(&self, results: Vec<RunResult>) -> Vec<Box<dyn ScenarioReport>> {
        let scenarios: Vec<&Scenario> =
            self.positions.iter().map(|&at| self.registry.at(at)).collect();
        assemble_plans(&scenarios, &self.request.opts, &self.plans, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let registry = Registry::builtin();
        let names: Vec<&str> = registry.iter().map(|s| s.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        for name in names {
            assert_eq!(registry.find(name).unwrap().name, name);
        }
        assert!(registry.find("fig4").is_none(), "the paper has no figure 4");
    }

    #[test]
    fn resolve_preserves_order_and_names_the_unknown() {
        let registry = Registry::builtin();
        let names: Vec<String> = vec!["fig6".into(), "table2".into()];
        let resolved = registry.resolve(&names).unwrap();
        assert_eq!(resolved[0].name, "fig6");
        assert_eq!(resolved[1].name, "table2");
        let bad: Vec<String> = vec!["fig6".into(), "fig4".into()];
        let err = registry.resolve(&bad).unwrap_err();
        assert!(err.contains("`fig4`"), "{err}");
    }

    #[test]
    fn descriptions_are_nonempty() {
        for s in Registry::builtin().iter() {
            assert!(!s.description.is_empty(), "{} lacks a description", s.name);
        }
    }

    #[test]
    fn plan_sizes_match_what_run_consumes() {
        let registry = Registry::builtin();
        let opts = ExperimentOpts::smoke();
        let (fig6, table2) = (registry.find("fig6").unwrap(), registry.find("table2").unwrap());
        let scenarios: Vec<&Scenario> = vec![fig6, table2];
        assert_eq!(
            campaign_size(&scenarios, &opts),
            scenarios.iter().map(|s| s.plan(&opts).len()).sum::<usize>()
        );
        // table2 is purely analytical: it plans zero simulations.
        assert!(table2.plan(&opts).is_empty());
        assert!(!fig6.plan(&opts).is_empty());
    }

    struct RaggedReport;

    impl fmt::Display for RaggedReport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "ragged")
        }
    }

    impl ScenarioReport for RaggedReport {
        fn series(&self) -> Vec<(String, Vec<f64>)> {
            vec![("a".into(), vec![1.0, 2.0]), ("b".into(), vec![3.0])]
        }
    }

    #[test]
    fn default_table_falls_back_to_long_format_for_ragged_series() {
        let t = RaggedReport.to_table();
        assert_eq!(t.header_cells(), &["series", "index", "value"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.data_rows()[2], vec!["b".to_string(), "0".into(), "3".into()]);
    }

    #[test]
    fn campaign_request_round_trips_and_defaults_omitted_options() {
        let opts = ExperimentOpts { insts: 9_000, quick: true, ..Default::default() };
        let req = CampaignRequest::new(vec!["fig6".into(), "table2".into()], opts);
        let parsed = CampaignRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed.scenarios, req.scenarios);
        assert_eq!(parsed.opts.insts, 9_000);
        assert!(parsed.opts.quick);
        let plan = parsed.plan().unwrap();
        let fig6 = Registry::builtin().find("fig6").unwrap().plan(&parsed.opts);
        assert_eq!(plan.runs(), fig6.len(), "table2 plans no simulations");

        let minimal = CampaignRequest::from_json("{\"scenarios\": [\"fig6\"]}").unwrap();
        assert_eq!(minimal.opts.insts, ExperimentOpts::default().insts);
        assert_eq!(minimal.opts.seed, 42);
        assert!(!minimal.opts.quick);
    }

    #[test]
    fn campaign_request_rejects_bad_descriptions_with_useful_reasons() {
        let unknown = CampaignRequest::from_json("{\"scenarios\": [\"fig4\"]}")
            .and_then(|request| request.plan())
            .unwrap_err();
        assert!(unknown.contains("fig4"), "{unknown}");
        let typo =
            CampaignRequest::from_json("{\"scenarios\": [\"fig6\"], \"inst\": 5}").unwrap_err();
        assert!(typo.contains("inst"), "{typo}");
        assert!(CampaignRequest::from_json("{\"scenarios\": []}").is_err(), "empty campaign");
        assert!(CampaignRequest::from_json("{}").is_err(), "missing scenarios");
        assert!(CampaignRequest::from_json("[1, 2]").is_err(), "non-object");
        assert!(CampaignRequest::from_json("{not json").is_err());
        assert!(
            CampaignRequest::from_json("{\"scenarios\": [\"fig6\"], \"quick\": 1}").is_err(),
            "non-boolean quick"
        );
        assert!(
            CampaignRequest::from_json("{\"scenarios\": [\"fig6\"], \"seed\": -1}").is_err(),
            "negative seed"
        );
    }
}
