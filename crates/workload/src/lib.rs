//! Synthetic SPEC95-like workloads for the rfcache simulator.
//!
//! The paper evaluates on the complete SPEC95 suite, simulating 100M
//! instructions per program after skipping initialization. SPEC95 binaries
//! (and an Alpha functional front end) are not available in this
//! environment, so this crate synthesizes dynamic instruction traces that
//! reproduce the *microarchitecturally relevant* properties of each
//! program — the properties the register-file study actually exercises:
//!
//! * **instruction mix** over the paper's functional-unit classes,
//! * **register dependence distances** (how soon values are consumed,
//!   which determines how many operands arrive via the bypass network vs.
//!   the register file — the statistic behind Figure 3 and the caching
//!   policies),
//! * **branch density and predictability** per static site (loop
//!   back-edges, biased branches, and hard random branches), which set the
//!   misprediction rate and hence the sensitivity to register-file latency,
//! * **data and code working sets**, which set cache miss rates and value
//!   lifetimes.
//!
//! Each SPEC95 program has a [`BenchProfile`] whose parameters are chosen
//! from its published characterization (mix, misprediction rate, memory
//! behaviour); [`TraceGenerator`] turns a profile into a deterministic,
//! seeded instruction stream.
//!
//! # Examples
//!
//! ```
//! use rfcache_workload::{BenchProfile, TraceGenerator};
//!
//! let profile = BenchProfile::by_name("mgrid").unwrap();
//! let mut gen = TraceGenerator::new(profile, 42);
//! let inst = gen.next().unwrap();
//! assert!(inst.pc >= profile.code_base());
//! ```

#![warn(missing_docs)]

mod branches;
mod family;
mod gen;
mod memgen;
mod profile;
mod stats;
mod tracefile;

pub use branches::{BranchBehavior, BranchSite};
pub use family::family_member;
pub use gen::TraceGenerator;
pub use memgen::AddressGenerator;
pub use profile::{suite_all, suite_fp, suite_int, BenchProfile, OpMix};
pub use stats::TraceStats;
pub use tracefile::{decode_trace, read_trace, write_trace};
