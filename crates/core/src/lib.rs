//! Register file architectures — the paper's core contribution.
//!
//! This crate implements the timing behaviour of the register file
//! organizations compared in Cruz et al., ISCA 2000:
//!
//! * [`SingleBankModel`] — a conventional single-banked register file with
//!   a 1- or 2-cycle access and either a full bypass network or a single
//!   (last) level of bypass.
//! * [`RegFileCacheModel`] — the proposed two-level *register file cache*:
//!   a small fully-associative upper bank read by the functional units in
//!   one cycle, backed by the full physical register file in the lower
//!   bank, connected by a limited number of transfer buses. Results are
//!   selectively written into the upper bank (*non-bypass* or *ready*
//!   caching); values missing from the upper bank are transferred on
//!   demand or prefetched (*prefetch-first-pair*).
//! * [`ReplicatedBankModel`] — a one-level organization with fully
//!   replicated banks (Alpha 21264 style), included as the related-work
//!   baseline of §5.
//! * [`OneLevelBankedModel`] — the non-replicated one-level multi-banked
//!   organization (Wallace & Bagherzadeh style), the extension the paper
//!   lists as future work in §6.
//!
//! All models speak the same cycle-accurate protocol, [`RegFileModel`],
//! which the out-of-order core (`rfcache-pipeline`) drives once per cycle:
//! `begin_cycle` → write-backs (`try_writeback`) → issue (`plan_read` /
//! `commit_read`) plus transfer requests. The protocol's timing contract is
//! documented on the trait. Register lifetimes (allocation, production,
//! write-back, reads, freeing) live in each model's [`PregTable`], and the
//! trait implements the lifetime calls once over it; a model adds only its
//! port budgets, operand paths and write-back. The read latency and the
//! caching and fetch policies are properties of the [`RegFileConfig`].
//!
//! # Examples
//!
//! ```
//! use rfcache_core::{RegFileConfig, RegFileModel, SingleBankConfig};
//!
//! // A one-cycle, single-banked file with unlimited ports.
//! let config = RegFileConfig::Single(SingleBankConfig::one_cycle());
//! assert_eq!(config.read_latency(), 1);
//! let model = config.build_model(128);
//! assert_eq!(model.stats().writebacks, 0);
//! ```

#![warn(missing_docs)]

mod bitset;
mod config;
mod dispatch;
mod model;
mod onelevel;
mod plru;
mod replicated;
mod rfc;
mod single;

pub use bitset::RegBitSet;
pub use config::{
    BypassNetwork, CachingPolicy, FetchPolicy, PortLimits, RegFileCacheConfig, RegFileConfig,
    Replacement, ReplicatedBankConfig, SingleBankConfig,
};
pub use dispatch::RegFile;
pub use model::{
    MissList, PlanError, PregTable, ReadPath, ReadPlan, RegFileModel, RegFileStats, SmallList,
    SourceRead,
};
pub use onelevel::{OneLevelBankedConfig, OneLevelBankedModel};
pub use plru::{PlruTree, ReplacementState};
pub use replicated::ReplicatedBankModel;
pub use rfc::RegFileCacheModel;
pub use single::SingleBankModel;
