//! Simulator facade and experiment harness.
//!
//! This crate ties the substrates together — workloads, front end, memory,
//! register file architectures, and the out-of-order core — behind a small
//! API ([`RunSpec`] → [`RunResult`]), and implements one module per figure
//! and table of the paper's evaluation under [`experiments`].
//!
//! # Examples
//!
//! ```
//! use rfcache_core::{RegFileConfig, SingleBankConfig};
//! use rfcache_sim::RunSpec;
//!
//! let spec = RunSpec::new("li", RegFileConfig::Single(SingleBankConfig::one_cycle()))
//!     .expect("li is a known benchmark")
//!     .insts(5_000)
//!     .warmup(1_000);
//! let result = spec.run();
//! assert!(result.metrics.ipc() > 0.5);
//! ```

#![warn(missing_docs)]

pub mod cache;
mod conn;
mod csv;
pub mod executor;
pub mod experiments;
pub mod http;
mod json;
mod means;
pub mod metrics_codec;
mod readiness;
mod run;
pub mod scenario;
pub mod service;
pub mod sweep;
mod table;
pub mod transport;

pub use cache::{Cache, CacheSession, CacheStats};
pub use csv::write_csv;
pub use executor::{Executor, ExecutorError, InProcess};
pub use json::{parse_json, write_json, JsonParseError, JsonValue};
pub use means::{geometric_mean, harmonic_mean};
pub use rfcache_area::{pareto_frontier, ParetoPoint};
#[doc(hidden)]
pub use run::run_batch_capped;
pub use run::{
    campaign_fingerprint, flatten_plans, fnv1a_64, par_indexed, run_batch, run_suite,
    run_suite_jobs, RunResult, RunSpec, TraceWorkload, WorkloadSource, DEFAULT_INSTS,
    DEFAULT_WARMUP,
};
pub use scenario::{
    run_campaign, run_campaign_planned, run_campaign_planned_with, CampaignPlan, CampaignRequest,
    Registry, Scenario, ScenarioReport,
};
pub use service::{ServiceConfig, ServiceSummary};
pub use sweep::{SweepDef, SweepReport};
pub use table::TextTable;

pub use rfcache_area as area;
pub use rfcache_core as core;
pub use rfcache_frontend as frontend;
pub use rfcache_isa as isa;
pub use rfcache_mem as mem;
pub use rfcache_pipeline as pipeline;
pub use rfcache_workload as workload;
