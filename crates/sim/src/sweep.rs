//! Declarative sweep campaigns: data-defined experiments.
//!
//! The paper's 13 scenarios are compiled-in tables; a *sweep* is the
//! same two-phase scenario (plan, assemble) defined by a JSON document
//! instead of Rust code. The document declares **axes** — a workload
//! list (benchmark names, recorded traces, seeded families), a register
//! file list (presets or full config objects whose fields may
//! themselves be arrays), and optional `insts`/`warmup`/`seed` lists —
//! and the planner expands their cross-product into the flat
//! [`RunSpec`] list every executor already understands. The assembler
//! folds the results into a generic long-format `(series, index,
//! value)` IPC report, one series per workload x register-file pair.
//!
//! # Schema
//!
//! ```json
//! {
//!   "name": "ports-vs-banks",
//!   "description": "optional one-liner",
//!   "workloads": ["li",
//!                 {"trace": "ci/fixtures/li.rfct", "name": "li-trace"},
//!                 {"family": "go", "members": 2}],
//!   "rf": ["one-cycle",
//!          {"onelevel": {"banks": [4, 8], "read_ports_per_bank": 2}}],
//!   "insts": [3000, 6000],
//!   "warmup": 500,
//!   "seed": [42, 43]
//! }
//! ```
//!
//! * `name` (required): the scenario name the sweep registers under —
//!   lowercase alphanumerics, `-`, `_`; must not collide with a
//!   built-in scenario or the reserved `all`.
//! * `workloads` (required, non-empty): a benchmark name, a
//!   `{"trace": path}` object (optional `"name"` label and `"fp"`
//!   flag; the path is read when the sweep is parsed, relative to the
//!   process working directory, and the spec fingerprint covers the
//!   file *content*), or a `{"family": bench, "members": N}` object
//!   expanding to members `1..=N` of the seeded family
//!   ([`rfcache_workload::family_member`]).
//! * `rf` (required, non-empty): a preset name (`one-cycle`,
//!   `two-cycle-single-bypass`, `two-cycle-full-bypass`, `rfc`) or an
//!   object with exactly one kind key — `single`, `cache`,
//!   `replicated`, `onelevel` — whose fields default to the paper's
//!   configuration. Any field may be an array; the sweep expands the
//!   cross-product and labels each expansion with its varying fields
//!   (`onelevel banks=4`). An optional `"name"` overrides the label
//!   base.
//! * `insts`, `warmup`, `seed` (optional): a number or array of
//!   numbers. Omitted axes use the campaign's [`ExperimentOpts`]
//!   values, so `--insts`/`--quick` still scale a sweep that does not
//!   pin them.
//!
//! Plan order is workload-major: for each workload, for each register
//! file, for each `insts` x `warmup` x `seed` point. Every process
//! re-derives the identical plan from the canonical definition text,
//! which travels in the campaign description ([`crate::CampaignRequest`]),
//! so sweeps shard, merge, distribute, cache and resume exactly like
//! built-in scenarios.

use crate::experiments::ExperimentOpts;
use crate::json::{parse_json, render_json, JsonValue};
use crate::run::{RunResult, RunSpec, TraceWorkload, WorkloadSource};
use crate::scenario::{Scenario, ScenarioReport};
use crate::table::TextTable;
use rfcache_core::{
    BypassNetwork, CachingPolicy, FetchPolicy, OneLevelBankedConfig, RegFileCacheConfig,
    RegFileConfig, Replacement, ReplicatedBankConfig, SingleBankConfig,
};
use rfcache_pipeline::PipelineConfig;
use rfcache_workload::BenchProfile;
use std::collections::HashSet;
use std::fmt;

/// Largest accepted definition text. Sweeps travel inline in campaign
/// headers, journals and HTTP bodies; the cap keeps a typo'd upload
/// from ballooning every header line.
pub const MAX_SWEEP_BYTES: usize = 64 * 1024;

/// Largest accepted cross-product (runs per sweep), checked on the axis
/// lengths before any register file is built.
pub const MAX_SWEEP_RUNS: usize = 65_536;

/// Largest accepted family `members` count.
const MAX_FAMILY_MEMBERS: u64 = 64;

/// A parsed, validated sweep definition.
///
/// `text` is the canonical rendering of the source document
/// (`render_json`), so two processes parsing the same definition —
/// whatever its original whitespace — agree on the byte-exact text the
/// campaign header carries.
#[derive(Debug, Clone)]
pub struct SweepDef {
    /// Scenario name the sweep registers under.
    pub name: String,
    /// Optional one-line description from the document.
    pub description: String,
    /// Canonical JSON text of the definition.
    pub text: String,
    workloads: Vec<WorkloadSource>,
    rfs: Vec<(String, RegFileConfig)>,
    insts: Vec<u64>,
    warmup: Vec<u64>,
    seeds: Vec<u64>,
}

/// One field of a register-file kind: its key, and a setter that
/// decodes one JSON value into the config.
type Field<C> = (&'static str, fn(&mut C, &JsonValue) -> Result<(), String>);

/// A register-file kind of the `rf` axis: the label and defaults of an
/// entry that sets nothing, and every field it accepts, in the order the
/// expansion varies them (first slowest) and names them in labels.
struct Kind<C: 'static> {
    label: &'static str,
    base: fn() -> C,
    wrap: fn(C) -> RegFileConfig,
    fields: &'static [Field<C>],
}

/// The register files one `rf` entry expands to, built lazily in plan
/// order, each with its label.
type RfWalk<'a> = Box<dyn Iterator<Item = Result<(String, RegFileConfig), String>> + 'a>;

const SINGLE: Kind<SingleBankConfig> = Kind {
    label: "single",
    base: SingleBankConfig::one_cycle,
    wrap: RegFileConfig::Single,
    fields: &[
        ("latency", |c, v| set(&mut c.latency, decode_u64(v))),
        ("bypass", |c, v| {
            let choices =
                [("full", BypassNetwork::Full), ("single-level", BypassNetwork::SingleLevel)];
            set(&mut c.bypass, decode_keyword(v, &choices))
        }),
        ("read_ports", |c, v| set(&mut c.ports.read, decode_port(v))),
        ("write_ports", |c, v| set(&mut c.ports.write, decode_port(v))),
    ],
};

const CACHE: Kind<RegFileCacheConfig> = Kind {
    label: "rfc",
    base: RegFileCacheConfig::paper_default,
    wrap: RegFileConfig::Cache,
    fields: &[
        ("upper_entries", |c, v| set(&mut c.upper_entries, decode_usize(v))),
        ("lower_latency", |c, v| set(&mut c.lower_latency, decode_u64(v))),
        ("caching", |c, v| {
            let choices =
                [("non-bypass", CachingPolicy::NonBypass), ("ready", CachingPolicy::Ready)];
            set(&mut c.caching, decode_keyword(v, &choices))
        }),
        ("fetch", |c, v| {
            let choices = [
                ("on-demand", FetchPolicy::OnDemand),
                ("prefetch-first-pair", FetchPolicy::PrefetchFirstPair),
            ];
            set(&mut c.fetch, decode_keyword(v, &choices))
        }),
        ("replacement", |c, v| {
            let choices = [
                ("pseudo-lru", Replacement::PseudoLru),
                ("fifo", Replacement::Fifo),
                ("random", Replacement::Random),
            ];
            set(&mut c.replacement, decode_keyword(v, &choices))
        }),
        ("upper_read_ports", |c, v| set(&mut c.upper_read_ports, decode_port(v))),
        ("upper_write_ports", |c, v| set(&mut c.upper_write_ports, decode_port(v))),
        ("lower_write_ports", |c, v| set(&mut c.lower_write_ports, decode_port(v))),
        ("buses", |c, v| set(&mut c.buses, decode_port(v))),
    ],
};

const REPLICATED: Kind<ReplicatedBankConfig> = Kind {
    label: "replicated",
    base: ReplicatedBankConfig::default,
    wrap: RegFileConfig::Replicated,
    fields: &[
        ("banks", |c, v| set(&mut c.banks, decode_u32(v))),
        ("read_ports_per_bank", |c, v| set(&mut c.read_ports_per_bank, decode_port(v))),
        ("remote_write_delay", |c, v| set(&mut c.remote_write_delay, decode_u64(v))),
    ],
};

const ONELEVEL: Kind<OneLevelBankedConfig> = Kind {
    label: "onelevel",
    base: OneLevelBankedConfig::default,
    wrap: RegFileConfig::OneLevel,
    fields: &[
        ("banks", |c, v| set(&mut c.banks, decode_u32(v))),
        ("read_ports_per_bank", |c, v| set(&mut c.read_ports_per_bank, decode_port(v))),
        ("write_ports_per_bank", |c, v| set(&mut c.write_ports_per_bank, decode_port(v))),
    ],
};

/// Stores a decoded field value.
fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// The values of a scalar-or-array field or axis (a scalar is one
/// value); `None` for an empty array.
fn elements(v: &JsonValue) -> Option<&[JsonValue]> {
    match v {
        JsonValue::Array(items) if items.is_empty() => None,
        JsonValue::Array(items) => Some(items),
        scalar => Some(std::slice::from_ref(scalar)),
    }
}

/// Renders a scalar JSON value for a label part (`null` → `unlimited`).
fn label_text(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "unlimited".to_string(),
        JsonValue::String(s) => s.clone(),
        JsonValue::Number(n) => n.clone(),
        JsonValue::Bool(b) => b.to_string(),
        _ => "?".to_string(),
    }
}

fn decode_u64(v: &JsonValue) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| "expected a whole number".to_string())
}

fn decode_u32(v: &JsonValue) -> Result<u32, String> {
    u32::try_from(decode_u64(v)?).map_err(|_| "value exceeds u32".to_string())
}

fn decode_usize(v: &JsonValue) -> Result<usize, String> {
    usize::try_from(decode_u64(v)?).map_err(|_| "value exceeds usize".to_string())
}

/// `null` means "unlimited" for port-count fields.
fn decode_port(v: &JsonValue) -> Result<Option<u32>, String> {
    match v {
        JsonValue::Null => Ok(None),
        other => decode_u32(other).map(Some),
    }
}

fn decode_keyword<T: Copy>(v: &JsonValue, choices: &[(&str, T)]) -> Result<T, String> {
    let s = v.as_str().ok_or_else(|| "expected a string".to_string())?;
    choices.iter().find(|(k, _)| *k == s).map(|(_, t)| *t).ok_or_else(|| {
        let names: Vec<&str> = choices.iter().map(|(k, _)| *k).collect();
        format!("unknown value `{s}` (expected one of: {})", names.join(", "))
    })
}

/// Rejects keys `known` does not accept (a typo'd field must not
/// silently sweep the default).
fn check_keys(v: &JsonValue, kind: &str, known: impl Fn(&str) -> bool) -> Result<(), String> {
    let JsonValue::Object(fields) = v else {
        return Err(format!("`{kind}` must be an object"));
    };
    match fields.iter().find(|(key, _)| !known(key)) {
        Some((key, _)) => Err(format!("unknown `{kind}` field `{key}`")),
        None => Ok(()),
    }
}

/// Reads a kind's body against its field table — every key must be a
/// field and every given value must decode — and returns how many
/// register files it expands to, with the walk that builds them: the
/// cross-product of the given fields from the kind's defaults, in table
/// order with the first field slowest. A field given two or more values
/// adds `key=value` to the label.
fn expand<'a, C: Copy>(
    key: &str,
    kind: &'a Kind<C>,
    body: &'a JsonValue,
    name: Option<&'a str>,
) -> Result<(usize, RfWalk<'a>), String> {
    check_keys(body, key, |field| kind.fields.iter().any(|(known, _)| *known == field))?;
    let base = (kind.base)();
    let mut axes = Vec::new();
    for &(field, set) in kind.fields {
        let Some(raw) = body.get(field) else { continue };
        let values =
            elements(raw).ok_or_else(|| format!("field `{field}` must not be an empty array"))?;
        for value in values {
            let mut scratch = base;
            set(&mut scratch, value).map_err(|reason| format!("field `{field}`: {reason}"))?;
        }
        axes.push((field, set, values));
    }
    let count = axes.iter().map(|(_, _, values)| values.len()).fold(1, usize::saturating_mul);
    let walk = (0..count).map(move |rank| {
        let (mut config, mut stride) = (base, count);
        let mut label = name.unwrap_or(kind.label).to_string();
        for &(field, set, values) in &axes {
            stride /= values.len();
            let value = &values[rank / stride % values.len()];
            set(&mut config, value)?;
            if values.len() > 1 {
                label += &format!(" {field}={}", label_text(value));
            }
        }
        Ok((label, (kind.wrap)(config)))
    });
    Ok((count, Box::new(walk)))
}

/// Reads one entry of the `rf` axis: how many register files it
/// expands to, and the walk that builds them.
fn parse_rf_entry(entry: &JsonValue) -> Result<(usize, RfWalk<'_>), String> {
    if let Some(preset) = entry.as_str() {
        let config = match preset {
            "one-cycle" => RegFileConfig::Single(SingleBankConfig::one_cycle()),
            "two-cycle-single-bypass" => {
                RegFileConfig::Single(SingleBankConfig::two_cycle_single_bypass())
            }
            "two-cycle-full-bypass" => {
                RegFileConfig::Single(SingleBankConfig::two_cycle_full_bypass())
            }
            "rfc" => RegFileConfig::Cache(RegFileCacheConfig::paper_default()),
            other => {
                return Err(format!(
                    "unknown rf preset `{other}` (expected one of: one-cycle, \
                     two-cycle-single-bypass, two-cycle-full-bypass, rfc, or a config object)"
                ));
            }
        };
        return Ok((1, Box::new(std::iter::once(Ok((preset.to_string(), config))))));
    }
    let JsonValue::Object(fields) = entry else {
        return Err("rf entries must be preset names or config objects".to_string());
    };
    let name = match entry.get("name") {
        None => None,
        Some(n) => Some(n.as_str().ok_or("rf `name` must be a string")?),
    };
    let kinds: Vec<&str> =
        fields.iter().map(|(k, _)| k.as_str()).filter(|k| *k != "name").collect();
    let [kind] = kinds[..] else {
        return Err(format!(
            "an rf object must have exactly one kind key (single, cache, replicated, \
             onelevel), found {}",
            kinds.len()
        ));
    };
    let body = entry.get(kind).expect("kind key just enumerated");
    match kind {
        "single" => expand(kind, &SINGLE, body, name),
        "cache" => expand(kind, &CACHE, body, name),
        "replicated" => expand(kind, &REPLICATED, body, name),
        "onelevel" => expand(kind, &ONELEVEL, body, name),
        other => Err(format!(
            "unknown rf kind `{other}` (expected single, cache, replicated or onelevel)"
        )),
    }
}

/// Parses one entry of the `workloads` axis.
fn parse_workload_entry(entry: &JsonValue) -> Result<Vec<WorkloadSource>, String> {
    if let Some(bench) = entry.as_str() {
        let profile =
            BenchProfile::by_name(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
        return Ok(vec![WorkloadSource::Synthetic(profile)]);
    }
    let JsonValue::Object(_) = entry else {
        return Err("workload entries must be benchmark names or objects".to_string());
    };
    if let Some(path) = entry.get("trace") {
        check_keys(entry, "trace workload", |key| ["trace", "name", "fp"].contains(&key))?;
        let path = path.as_str().ok_or("`trace` must be a path string")?;
        let label = match entry.get("name") {
            None => None,
            Some(n) => Some(n.as_str().ok_or("trace `name` must be a string")?),
        };
        let fp = match entry.get("fp") {
            None => false,
            Some(b) => b.as_bool().ok_or("trace `fp` must be a boolean")?,
        };
        let trace = TraceWorkload::load(path, label, fp)?;
        return Ok(vec![WorkloadSource::Trace(trace)]);
    }
    if let Some(bench) = entry.get("family") {
        check_keys(entry, "family workload", |key| ["family", "members"].contains(&key))?;
        let bench = bench.as_str().ok_or("`family` must be a benchmark name")?;
        let base =
            BenchProfile::by_name(bench).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
        let members = entry
            .get("members")
            .ok_or("family workloads need a `members` count")?
            .as_u64()
            .ok_or("`members` must be a whole number")?;
        if members == 0 || members > MAX_FAMILY_MEMBERS {
            return Err(format!("`members` must be in 1..={MAX_FAMILY_MEMBERS}"));
        }
        return Ok((1..=members as u32)
            .map(|member| WorkloadSource::Family { base, member })
            .collect());
    }
    Err("workload objects must have a `trace` or `family` key".to_string())
}

/// Parses an optional number-or-array axis (`insts`, `warmup`, `seed`).
/// Missing → empty (the campaign's option value fills in at plan time).
fn parse_param_axis(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    let Some(raw) = v.get(key) else { return Ok(Vec::new()) };
    let values = elements(raw).ok_or_else(|| format!("`{key}` must not be an empty array"))?;
    let wanted = match raw {
        JsonValue::Array(_) => "entries must be whole numbers",
        _ => "must be a whole number",
    };
    values.iter().map(|n| n.as_u64().ok_or_else(|| format!("`{key}` {wanted}"))).collect()
}

impl SweepDef {
    /// Parses and validates one sweep definition document.
    ///
    /// Trace workloads are loaded here (relative to the process working
    /// directory), so a parsed definition is fully materialized: every
    /// later [`plan`](Self::plan) is pure.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason: malformed JSON, unknown fields,
    /// a bad axis value, a register file no model can be built from
    /// (named by its label), an unknown benchmark, an unreadable trace,
    /// an oversized definition, or a cross-product beyond
    /// [`MAX_SWEEP_RUNS`].
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.len() > MAX_SWEEP_BYTES {
            return Err(format!(
                "sweep definition is {} bytes; the limit is {MAX_SWEEP_BYTES}",
                text.len()
            ));
        }
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let keys = ["name", "description", "workloads", "rf", "insts", "warmup", "seed"];
        check_keys(&v, "sweep", |key| keys.contains(&key))?;

        let name = v
            .get("name")
            .ok_or("sweep definitions need a `name`")?
            .as_str()
            .ok_or("sweep `name` must be a string")?
            .to_string();
        if name.is_empty() || name.len() > 64 {
            return Err("sweep `name` must be 1-64 characters".to_string());
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(format!(
                "sweep name `{name}` may only use lowercase letters, digits, `-` and `_`"
            ));
        }
        if name == "all" {
            return Err("sweep name `all` is reserved (it expands to every scenario)".to_string());
        }
        let description = match v.get("description") {
            None => String::new(),
            Some(d) => d.as_str().ok_or("sweep `description` must be a string")?.to_string(),
        };

        let workloads = v
            .get("workloads")
            .ok_or("sweep definitions need a `workloads` axis")?
            .as_array()
            .ok_or("`workloads` must be an array")?
            .iter()
            .map(parse_workload_entry)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
        if workloads.is_empty() {
            return Err("`workloads` must list at least one workload".to_string());
        }

        let rf = v
            .get("rf")
            .ok_or("sweep definitions need an `rf` axis")?
            .as_array()
            .ok_or("`rf` must be an array")?;
        if rf.is_empty() {
            return Err("`rf` must list at least one register file".to_string());
        }
        let rf_walks = rf.iter().map(parse_rf_entry).collect::<Result<Vec<_>, _>>()?;
        let insts = parse_param_axis(&v, "insts")?;
        let warmup = parse_param_axis(&v, "warmup")?;
        let seeds = parse_param_axis(&v, "seed")?;

        // Sized from the axis lengths, before any register file is built.
        let rf_count = rf_walks.iter().map(|(count, _)| *count).fold(0, usize::saturating_add);
        let runs = [workloads.len(), rf_count, insts.len(), warmup.len(), seeds.len()]
            .into_iter()
            .map(|len| len.max(1))
            .fold(1, usize::saturating_mul);
        if runs > MAX_SWEEP_RUNS {
            return Err(format!("sweep expands to {runs} runs; the limit is {MAX_SWEEP_RUNS}"));
        }

        let rfs = rf_walks.into_iter().flat_map(|(_, walk)| walk).collect::<Result<Vec<_>, _>>()?;
        let phys_regs = PipelineConfig::default().phys_regs;
        let mut labels = HashSet::with_capacity(rfs.len());
        for (label, config) in &rfs {
            if !labels.insert(label) {
                return Err(format!("rf label `{label}` is ambiguous; set distinct `name`s"));
            }
            config.validate(phys_regs).map_err(|reason| format!("rf `{label}`: {reason}"))?;
        }

        Ok(SweepDef {
            name,
            description,
            text: render_json(&v),
            workloads,
            rfs,
            insts,
            warmup,
            seeds,
        })
    }

    /// Reads and parses a sweep definition file.
    ///
    /// # Errors
    ///
    /// Returns a reason naming the file on read or parse failure.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read sweep file {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The parameter-axis lengths under `opts` (omitted axes contribute
    /// one point from the campaign options).
    fn param_points(&self, opts: &ExperimentOpts) -> Vec<(u64, u64, u64)> {
        let insts = if self.insts.is_empty() { vec![opts.insts] } else { self.insts.clone() };
        let warmup = if self.warmup.is_empty() { vec![opts.warmup] } else { self.warmup.clone() };
        let seeds = if self.seeds.is_empty() { vec![opts.seed] } else { self.seeds.clone() };
        let mut out = Vec::with_capacity(insts.len() * warmup.len() * seeds.len());
        for &i in &insts {
            for &w in &warmup {
                for &s in &seeds {
                    out.push((i, w, s));
                }
            }
        }
        out
    }

    /// Expands the cross-product into the flat spec list, in canonical
    /// plan order (workload-major, then register file, then parameter
    /// points).
    pub fn plan(&self, opts: &ExperimentOpts) -> Vec<RunSpec> {
        let points = self.param_points(opts);
        let mut specs = Vec::with_capacity(self.workloads.len() * self.rfs.len() * points.len());
        for workload in &self.workloads {
            for (_, rf) in &self.rfs {
                for &(insts, warmup, seed) in &points {
                    specs.push(
                        RunSpec::from_workload(workload.clone(), *rf)
                            .insts(insts)
                            .warmup(warmup)
                            .seed(seed),
                    );
                }
            }
        }
        specs
    }

    /// Total runs the sweep plans under `opts`.
    pub fn runs(&self, opts: &ExperimentOpts) -> usize {
        self.workloads.len() * self.rfs.len() * self.param_points(opts).len()
    }

    /// A one-line axis summary for `experiments --list`
    /// (`3 workloads x 2 rf x 4 points`).
    pub fn axis_summary(&self) -> String {
        let points = self.insts.len().max(1) * self.warmup.len().max(1) * self.seeds.len().max(1);
        format!(
            "{} workload{} x {} rf x {} point{}",
            self.workloads.len(),
            if self.workloads.len() == 1 { "" } else { "s" },
            self.rfs.len(),
            points,
            if points == 1 { "" } else { "s" },
        )
    }

    /// Folds plan-ordered results into the sweep's report.
    fn assemble(&self, opts: &ExperimentOpts, results: Vec<RunResult>) -> SweepReport {
        let points = self.param_points(opts).len();
        let mut series = Vec::with_capacity(self.workloads.len() * self.rfs.len());
        let mut results = results.into_iter();
        for workload in &self.workloads {
            for (rf_label, _) in &self.rfs {
                let values: Vec<f64> = results.by_ref().take(points).map(|r| r.ipc()).collect();
                series.push((format!("{}/{rf_label}", workload.label()), values));
            }
        }
        SweepReport { name: self.name.clone(), series }
    }

    /// Wraps the definition as a [`Scenario`] for a
    /// [`Registry`](crate::scenario::Registry).
    pub fn into_scenario(self) -> Scenario {
        let description = if self.description.is_empty() {
            format!("declarative sweep: {}", self.axis_summary())
        } else {
            format!("{} ({})", self.description, self.axis_summary())
        };
        let name = self.name.clone();
        let planner_def = self.clone();
        let assembler_def = self;
        Scenario::new(
            name,
            description,
            move |opts: &ExperimentOpts| planner_def.plan(opts),
            move |opts: &ExperimentOpts, results| {
                Box::new(assembler_def.assemble(opts, results)) as Box<dyn ScenarioReport>
            },
        )
    }
}

/// A sweep's generic report: one IPC series per workload x register
/// file pair, exported in long `(series, index, value)` format.
pub struct SweepReport {
    name: String,
    series: Vec<(String, Vec<f64>)>,
}

impl ScenarioReport for SweepReport {
    fn series(&self) -> Vec<(String, Vec<f64>)> {
        self.series.clone()
    }

    /// Always long format, even when every series has the same length:
    /// sweep exports feed generic tooling (`scripts/plot.py`) that
    /// pivots on the series column, and a fixed shape means the tooling
    /// never has to guess.
    fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["series".into(), "index".into(), "value".into()]);
        for (name, values) in &self.series {
            for (i, v) in values.iter().enumerate() {
                t.row(vec![name.clone(), i.to_string(), v.to_string()]);
            }
        }
        t
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sweep {} (IPC per series point)", self.name)?;
        self.to_table().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(name: &str) -> String {
        format!("{{\"name\": \"{name}\", \"workloads\": [\"li\"], \"rf\": [\"one-cycle\"]}}")
    }

    #[test]
    fn minimal_sweep_parses_and_plans_one_run_from_opts() {
        let def = SweepDef::parse(&minimal("tiny")).unwrap();
        assert_eq!(def.name, "tiny");
        let opts = ExperimentOpts::smoke();
        let plan = def.plan(&opts);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].insts, opts.insts);
        assert_eq!(plan[0].warmup, opts.warmup);
        assert_eq!(plan[0].seed, opts.seed);
        assert_eq!(def.runs(&opts), 1);
    }

    #[test]
    fn canonical_text_is_whitespace_independent() {
        let a = SweepDef::parse(&minimal("tiny")).unwrap();
        let b = SweepDef::parse(
            "{\"name\":    \"tiny\",\n\"workloads\": [\"li\"],\n\n\"rf\": [\"one-cycle\"]}",
        )
        .unwrap();
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn axes_cross_product_in_declared_order() {
        let def = SweepDef::parse(
            r#"{"name": "axes", "workloads": ["li", "go"],
                "rf": ["one-cycle", "rfc"],
                "insts": [1000, 2000], "warmup": 100, "seed": [1, 2]}"#,
        )
        .unwrap();
        let opts = ExperimentOpts::default();
        let plan = def.plan(&opts);
        assert_eq!(plan.len(), 2 * 2 * 2 * 2);
        assert_eq!(def.runs(&opts), plan.len());
        // Workload-major: the first 8 specs are all li.
        assert!(plan[..8].iter().all(|s| s.workload.label() == "li"));
        // Parameter points: insts outermost, then warmup, then seed.
        assert_eq!((plan[0].insts, plan[0].seed), (1000, 1));
        assert_eq!((plan[1].insts, plan[1].seed), (1000, 2));
        assert_eq!((plan[2].insts, plan[2].seed), (2000, 1));
        assert!(plan.iter().all(|s| s.warmup == 100));
        assert_eq!(def.axis_summary(), "2 workloads x 2 rf x 4 points");
    }

    #[test]
    fn rf_objects_expand_array_fields_with_labels() {
        let def = SweepDef::parse(
            r#"{"name": "banks", "workloads": ["li"],
                "rf": [{"onelevel": {"banks": [4, 8], "read_ports_per_bank": 2}}]}"#,
        )
        .unwrap();
        let labels: Vec<&str> = def.rfs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["onelevel banks=4", "onelevel banks=8"]);
        match &def.rfs[0].1 {
            RegFileConfig::OneLevel(c) => {
                assert_eq!(c.banks, 4);
                assert_eq!(c.read_ports_per_bank, Some(2));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rf_policy_axes_and_null_ports_expand() {
        let def = SweepDef::parse(
            r#"{"name": "policies", "workloads": ["li"],
                "rf": [{"cache": {"caching": ["non-bypass", "ready"],
                                  "upper_read_ports": [2, null]}, "name": "c"}]}"#,
        )
        .unwrap();
        assert_eq!(def.rfs.len(), 4);
        let labels: Vec<&str> = def.rfs.iter().map(|(l, _)| l.as_str()).collect();
        // Declared field order: caching varies slowest, ports fastest.
        assert_eq!(
            labels,
            [
                "c caching=non-bypass upper_read_ports=2",
                "c caching=non-bypass upper_read_ports=unlimited",
                "c caching=ready upper_read_ports=2",
                "c caching=ready upper_read_ports=unlimited",
            ]
        );
        match &def.rfs[1].1 {
            RegFileConfig::Cache(c) => {
                assert_eq!(c.caching, CachingPolicy::NonBypass);
                assert_eq!(c.upper_read_ports, None);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// Pins the whole rf expansion: every field of every kind given two
    /// legal values, the four presets and a `"name"` override, hashed
    /// over each choice's label and config in `rfs` order.
    #[test]
    fn rf_expansion_is_pinned() {
        let def = SweepDef::parse(
            r#"{"name": "pin", "workloads": ["li"], "rf": [
                "one-cycle", "two-cycle-single-bypass", "two-cycle-full-bypass", "rfc",
                {"single": {"latency": [1, 2], "bypass": ["full", "single-level"],
                            "read_ports": [2, null], "write_ports": [1, null]}},
                {"cache": {"upper_entries": [8, 16], "lower_latency": [1, 2],
                           "caching": ["non-bypass", "ready"],
                           "fetch": ["on-demand", "prefetch-first-pair"],
                           "replacement": ["pseudo-lru", "fifo"],
                           "upper_read_ports": [2, null], "upper_write_ports": [0, 2],
                           "lower_write_ports": [1, null], "buses": [1, 3]}},
                {"replicated": {"banks": [2, 4], "read_ports_per_bank": [1, null],
                                "remote_write_delay": [0, 1]}, "name": "rep"},
                {"onelevel": {"banks": [4, 8], "read_ports_per_bank": [1, null],
                              "write_ports_per_bank": [1, 2]}}]}"#,
        )
        .unwrap();
        assert_eq!(def.rfs.len(), 4 + 16 + 512 + 8 + 8);
        let lines: Vec<String> =
            def.rfs.iter().map(|(label, config)| format!("{label}\t{config:?}")).collect();
        let hash = crate::run::fnv1a_64(lines.join("\n").into_bytes());
        assert_eq!(hash, 0xd1df_08e8_159e_7641, "{hash:016x}\n{}", lines[..8].join("\n"));
    }

    #[test]
    fn family_workloads_expand_members() {
        let def = SweepDef::parse(
            r#"{"name": "fam", "workloads": [{"family": "go", "members": 3}],
                "rf": ["one-cycle"]}"#,
        )
        .unwrap();
        let labels: Vec<String> = def.workloads.iter().map(WorkloadSource::label).collect();
        assert_eq!(labels, ["go~1", "go~2", "go~3"]);
    }

    #[test]
    fn assemble_produces_one_series_per_pair_in_long_format() {
        let def = SweepDef::parse(
            r#"{"name": "rep", "workloads": ["li"], "rf": ["one-cycle", "rfc"],
                "seed": [1, 2]}"#,
        )
        .unwrap();
        let opts = ExperimentOpts { insts: 2_000, warmup: 300, ..Default::default() };
        let results: Vec<RunResult> = def.plan(&opts).iter().map(RunSpec::run).collect();
        let report = def.assemble(&opts, results);
        let series = report.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "li/one-cycle");
        assert_eq!(series[1].0, "li/rfc");
        assert!(series.iter().all(|(_, v)| v.len() == 2 && v.iter().all(|x| *x > 0.0)));
        let t = report.to_table();
        assert_eq!(t.header_cells(), &["series", "index", "value"]);
        assert_eq!(t.len(), 4);
        assert!(format!("{report}").contains("sweep rep"));
    }

    #[test]
    fn scenario_wrapper_matches_direct_plan_and_assemble() {
        let def = SweepDef::parse(&minimal("wrap")).unwrap();
        let opts = ExperimentOpts::smoke();
        let direct = def.plan(&opts);
        let scenario = def.clone().into_scenario();
        assert_eq!(scenario.name, "wrap");
        assert!(scenario.description.contains("1 workload x 1 rf x 1 point"));
        let via = scenario.plan(&opts);
        assert_eq!(via.len(), direct.len());
        assert_eq!(via[0].fingerprint(), direct[0].fingerprint());
        let report = scenario.run(&opts);
        assert_eq!(report.series().len(), 1);
    }

    #[test]
    fn rejects_bad_definitions_with_useful_reasons() {
        let cases: &[(&str, &str)] = &[
            ("{\"workloads\": [\"li\"], \"rf\": [\"one-cycle\"]}", "need a `name`"),
            (&minimal("all"), "reserved"),
            (&minimal("Bad Name"), "lowercase"),
            (
                "{\"name\": \"x\", \"workloads\": [], \"rf\": [\"one-cycle\"]}",
                "at least one workload",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"quake\"], \"rf\": [\"one-cycle\"]}",
                "unknown benchmark `quake`",
            ),
            ("{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [\"fast\"]}", "unknown rf preset"),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"onelevel\": {\"banke\": 4}}]}",
                "unknown `onelevel` field `banke`",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"single\": {}, \"cache\": {}}]}",
                "exactly one kind",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [\"one-cycle\"], \"bogus\": 1}",
                "unknown `sweep` field `bogus`",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [\"one-cycle\"], \"seed\": []}",
                "empty array",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [{\"family\": \"go\", \"members\": 0}], \"rf\": [\"one-cycle\"]}",
                "1..=64",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [{\"trace\": \"/nonexistent.rfct\"}], \"rf\": [\"one-cycle\"]}",
                "cannot read trace file",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [\"one-cycle\", \"one-cycle\"]}",
                "ambiguous",
            ),
            // Register files no model can be built from, one per bound,
            // named by their label.
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"single\": {\"latency\": 0}}]}",
                "rf `single`: latency must be at least 1",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"upper_entries\": 1}}]}",
                "rf `rfc`: upper_entries 1 must be at least 2",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"upper_entries\": [8, 12]}}]}",
                "rf `rfc upper_entries=12`: upper_entries 12 must be a power of two",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"upper_entries\": 128, \"replacement\": \"fifo\"}}]}",
                "upper_entries 128 must be fewer than phys_regs 128",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"cache\": {\"lower_latency\": 0}, \"name\": \"slow\"}]}",
                "rf `slow`: lower_latency must be at least 1",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"replicated\": {\"banks\": 0}}]}",
                "rf `replicated`: banks must be at least 1",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"onelevel\": {\"banks\": 0}}]}",
                "rf `onelevel`: banks must be at least 1",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"replicated\": {\"banks\": [2, 129]}}]}",
                "rf `replicated banks=129`: banks 129 must be at most phys_regs 128",
            ),
            (
                "{\"name\": \"x\", \"workloads\": [\"li\"], \"rf\": [{\"onelevel\": {\"banks\": 4294967295}}]}",
                "rf `onelevel`: banks 4294967295 must be at most phys_regs 128",
            ),
        ];
        for (text, needle) in cases {
            let err = SweepDef::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
        assert!(SweepDef::parse(&"x".repeat(MAX_SWEEP_BYTES + 1)).unwrap_err().contains("limit"));
        let huge = r#"{"name": "big", "workloads": ["li"], "rf": ["one-cycle"],
                       "seed": [SEEDS]}"#
            .replace("SEEDS", &(0..70_000).map(|i| i.to_string()).collect::<Vec<_>>().join(", "));
        assert!(SweepDef::parse(&huge).unwrap_err().contains("limit"));
    }

    /// The run cap is checked on the axis lengths, before any register
    /// file is built: a short definition may name millions of choices.
    #[test]
    fn run_cap_is_checked_before_the_cross_product_is_built() {
        let values =
            |n: u32| format!("[{}]", (1..=n).map(|i| i.to_string()).collect::<Vec<_>>().join(", "));
        // 711 bytes, 30^5 = 24.3M register files.
        let v30 = values(30);
        let huge = format!(
            r#"{{"name": "huge", "workloads": ["li"], "rf": [{{"cache": {{"lower_latency": {v30}, "upper_read_ports": {v30}, "upper_write_ports": {v30}, "lower_write_ports": {v30}, "buses": {v30}}}}}]}}"#
        );
        assert_eq!(huge.len(), 711);
        assert_eq!(
            SweepDef::parse(&huge).unwrap_err(),
            "sweep expands to 24300000 runs; the limit is 65536"
        );
        // Two rf entries: 255 x 256 + 256 = 65,536 runs parse, one more does not.
        let at_cap = |extra: &str| {
            format!(
                r#"{{"name": "cap", "workloads": ["li"], "rf": [{extra}
                    {{"cache": {{"upper_read_ports": {}, "buses": {}}}}},
                    {{"single": {{"read_ports": {}}}}}]}}"#,
                values(255),
                values(256),
                values(256)
            )
        };
        let def = SweepDef::parse(&at_cap("")).unwrap();
        assert_eq!(def.runs(&ExperimentOpts::default()), MAX_SWEEP_RUNS);
        assert_eq!(
            SweepDef::parse(&at_cap(r#""one-cycle","#)).unwrap_err(),
            "sweep expands to 65537 runs; the limit is 65536"
        );
        // A product past usize saturates instead of wrapping to a small
        // count: six fields of 2048 values each name 2^66 choices.
        let ones = format!("[{}]", vec!["1"; 2048].join(", "));
        let fields: Vec<String> = CACHE
            .fields
            .iter()
            .filter(|(key, _)| !["caching", "fetch", "replacement"].contains(key))
            .map(|(key, _)| format!(r#""{key}": {ones}"#))
            .collect();
        let wide = format!(
            r#"{{"name": "wide", "workloads": ["li"], "rf": [{{"cache": {{{}}}}}]}}"#,
            fields.join(", ")
        );
        let err = SweepDef::parse(&wide).unwrap_err();
        assert_eq!(err, format!("sweep expands to {} runs; the limit is 65536", usize::MAX));
    }

    /// A port or bus count of 0 builds a register file that deadlocks, so
    /// the parser rejects each such field, naming the rf label.
    #[test]
    fn zero_port_and_bus_counts_are_rejected_by_rf_label() {
        let cases = [
            (r#"{"cache": {"buses": 0}}"#, "rfc", "buses"),
            (r#"{"cache": {"upper_read_ports": 0}}"#, "rfc", "upper_read_ports"),
            (
                r#"{"cache": {"lower_write_ports": [2, 0]}}"#,
                "rfc lower_write_ports=0",
                "lower_write_ports",
            ),
            (r#"{"single": {"read_ports": 0}, "name": "narrow"}"#, "narrow", "read_ports"),
            (r#"{"single": {"write_ports": 0}}"#, "single", "write_ports"),
            (r#"{"replicated": {"read_ports_per_bank": 0}}"#, "replicated", "read_ports_per_bank"),
            (r#"{"onelevel": {"read_ports_per_bank": 0}}"#, "onelevel", "read_ports_per_bank"),
            (r#"{"onelevel": {"write_ports_per_bank": 0}}"#, "onelevel", "write_ports_per_bank"),
        ];
        for (rf, label, field) in cases {
            let text = format!(r#"{{"name": "x", "workloads": ["li"], "rf": [{rf}]}}"#);
            let err = SweepDef::parse(&text).unwrap_err();
            assert_eq!(err, format!("rf `{label}`: {field} must be at least 1"), "{rf}");
        }
        // An upper bank without write ports still runs: results reach it
        // by transfer.
        let text =
            r#"{"name": "x", "workloads": ["li"], "rf": [{"cache": {"upper_write_ports": 0}}]}"#;
        assert!(SweepDef::parse(text).is_ok());
    }

    /// A trace path is checked before it is opened or decoded: a FIFO
    /// would block the parsing process (for `POST /campaigns`, the
    /// coordinator's only thread), and a device, a file over the cap or
    /// a header claiming millions of records would fill its memory.
    #[test]
    fn trace_workloads_are_bounded_before_they_are_read() {
        let dir = std::env::temp_dir().join(format!("rfct-sweep-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("fifo.rfct");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.is_ok_and(|status| status.success()), "mkfifo {}", fifo.display());
        let header = dir.join("header.rfct");
        let mut bytes = b"RFCT\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&(1u64 << 24).to_le_bytes()); // and no record
        std::fs::write(&header, bytes).unwrap();
        let big = dir.join("big.rfct"); // sparse: only its length is set
        let file = std::fs::File::create(&big).unwrap();
        file.set_len(crate::run::MAX_TRACE_BYTES + 1).unwrap();
        for (path, reason) in [
            (fifo.to_str().unwrap(), "not a regular file"),
            ("/dev/zero", "not a regular file"),
            (header.to_str().unwrap(), "bad trace file"),
            (big.to_str().unwrap(), "is larger than 67108864 bytes"),
        ] {
            let text = format!(
                "{{\"name\": \"t\", \"workloads\": [{{\"trace\": \"{path}\"}}], \"rf\": [\"one-cycle\"]}}"
            );
            let err = SweepDef::parse(&text).unwrap_err();
            assert!(err.contains(path) && err.contains(reason), "{path}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reads_files_and_names_them_in_errors() {
        let dir = std::env::temp_dir().join(format!("rfct-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.json");
        std::fs::write(&path, minimal("filed")).unwrap();
        let def = SweepDef::load(path.to_str().unwrap()).unwrap();
        assert_eq!(def.name, "filed");
        std::fs::write(&path, "{").unwrap();
        assert!(SweepDef::load(path.to_str().unwrap()).unwrap_err().contains("s.json"));
        assert!(SweepDef::load("/nonexistent/sweep.json").unwrap_err().contains("cannot read"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
