//! Cycle-level out-of-order superscalar core.
//!
//! Models the paper's machine (Table 1): a 6-stage pipeline — fetch,
//! decode/rename, register read, execute, write-back, commit — 8-wide at
//! every stage, with a 128-entry instruction window, register renaming
//! over 128 physical registers per class, a 64-entry load/store queue with
//! store→load forwarding, and the functional-unit pools of Table 1. The
//! simulation is trace-driven: fetch stops at a mispredicted branch and
//! restarts once it resolves, so no wrong-path instruction enters the core.
//!
//! The register read stage is delegated to a [`rfcache_core::RegFile`]
//! (one per register class), which is where the compared register file
//! architectures differ: read latency, bypass coverage, port arbitration,
//! caching and transfer policies.
//!
//! # Examples
//!
//! ```
//! use rfcache_core::{RegFileConfig, SingleBankConfig};
//! use rfcache_pipeline::{Cpu, PipelineConfig};
//! use rfcache_workload::{BenchProfile, TraceGenerator};
//!
//! let profile = BenchProfile::by_name("li").unwrap();
//! let trace = TraceGenerator::new(profile, 42);
//! let config = PipelineConfig::default();
//! let rf = RegFileConfig::Single(SingleBankConfig::one_cycle());
//! let mut cpu = Cpu::new(config, rf, trace);
//! let metrics = cpu.run(10_000);
//! assert!(metrics.ipc() > 0.5);
//! ```

#![warn(missing_docs)]

mod config;
mod cpu;
mod fu;
mod lsq;
mod metrics;
mod rename;
mod rob;
mod wheel;

pub use config::PipelineConfig;
pub use cpu::Cpu;
pub use fu::FuPool;
pub use lsq::{Lsq, LsqId, StoreSearch};
pub use metrics::{OccupancyHistogram, SimMetrics};
pub use rename::RenameUnit;
pub use rob::Rob;
