//! Register file architectures — the paper's core contribution.
//!
//! This crate implements the timing behaviour of the register file
//! organizations compared in Cruz et al., ISCA 2000, each configured by a
//! [`RegFileConfig`] variant:
//!
//! * [`SingleBankConfig`] — a conventional single-banked register file
//!   with a 1- or 2-cycle access and either a full bypass network or a
//!   single (last) level of bypass.
//! * [`RegFileCacheConfig`] — the proposed two-level *register file
//!   cache*: a small fully-associative upper bank read by the functional
//!   units in one cycle, backed by the full physical register file in the
//!   lower bank, connected by a limited number of transfer buses. Results
//!   are selectively written into the upper bank (*non-bypass* or *ready*
//!   caching); values missing from the upper bank are transferred on
//!   demand or prefetched (*prefetch-first-pair*).
//! * [`ReplicatedBankConfig`] — a one-level organization with fully
//!   replicated banks (Alpha 21264 style), included as the related-work
//!   baseline of §5.
//! * [`OneLevelBankedConfig`] — the non-replicated one-level multi-banked
//!   organization (Wallace & Bagherzadeh style), the extension the paper
//!   lists as future work in §6.
//!
//! [`RegFileConfig::build_model`] builds a [`RegFile`], which the
//! out-of-order core (`rfcache-pipeline`) drives once per cycle:
//! `begin_cycle` → write-backs (`try_writeback`) → issue (`plan_read` /
//! `commit_read`) plus transfer requests. Its documentation states the
//! timing contract. A register's lifetime (allocation, production,
//! write-back, reads, freeing) is the same in every organization, so
//! `RegFile` keeps it once; a model adds only its port budgets, operand
//! paths and write-back. The read latency and the caching and fetch
//! policies are properties of the [`RegFileConfig`].
//!
//! # Examples
//!
//! ```
//! use rfcache_core::{RegFileConfig, SingleBankConfig};
//!
//! // A one-cycle, single-banked file with unlimited ports.
//! let config = RegFileConfig::Single(SingleBankConfig::one_cycle());
//! assert_eq!(config.read_latency(), 1);
//! let rf = config.build_model(128);
//! assert_eq!(rf.stats().writebacks, 0);
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
pub use model::{MissList, PlanError, ReadPath, ReadPlan, RegFileStats, SmallList, SourceRead};
pub use onelevel::OneLevelBankedConfig;
pub use plru::{PlruTree, ReplacementState};
