//! Synthetic workload generators standing in for the SPEC CPU 2006 and
//! CloudSuite traces used by the RLR paper (HPCA 2021).
//!
//! The original evaluation replays proprietary SimPoint traces through
//! ChampSim. Those traces are not redistributable, so this crate builds the
//! closest synthetic equivalents: each benchmark is modeled as a composition
//! of memory access *pattern primitives* (streams, cyclic working sets,
//! Zipf-distributed references, pointer chases, stencils) whose parameters
//! are tuned to the benchmark's published memory personality. The
//! personalities — footprint size relative to the LLC, reuse-distance
//! profile, store ratio, compute density, instruction footprint — are
//! exactly the axes along which replacement policies differentiate, which is
//! what makes the substitution sound for reproducing the paper's *relative*
//! results (who wins, by roughly what factor).
//!
//! # Quick start
//!
//! ```
//! use workloads::{spec2006, TraceEntry};
//!
//! let workload = spec2006("429.mcf").expect("known benchmark");
//! let first: Vec<TraceEntry> = workload.stream().take(4).collect();
//! assert_eq!(first.len(), 4);
//! // Streams are deterministic for a fixed workload seed.
//! let again: Vec<TraceEntry> = workload.stream().take(4).collect();
//! assert_eq!(first, again);
//! ```

mod characterize;
mod cloud;
mod entry;
mod mix;
pub mod objects;
mod pattern;
mod power_law;
mod recipe;
mod spec;
pub mod tenants;
mod workload;

pub use characterize::{Characterization, ReuseBuckets};
pub use cloud::{cloudsuite, CLOUDSUITE};
pub use entry::TraceEntry;
pub use mix::{random_spec_mixes, WorkloadMix};
pub use objects::{ObjectRequest, ObjectStream, ObjectTraffic};
pub use power_law::PowerLaw;
pub use recipe::Recipe;
pub use spec::{spec2006, SPEC2006, TRAINING_SET};
pub use tenants::{
    SyntheticStream, TenantAccess, TenantClass, TenantMix, TenantSource, TenantSpec,
    WeightedInterleave,
};
pub use workload::{Stream, Workload};

/// Line size, in bytes, assumed by all generators (matches the simulated
/// caches).
pub const LINE_BYTES: u64 = 64;

/// Looks up a workload by name in both the SPEC 2006 and CloudSuite suites.
///
/// ```
/// assert!(workloads::by_name("470.lbm").is_some());
/// assert!(workloads::by_name("cassandra").is_some());
/// assert!(workloads::by_name("no-such-benchmark").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Workload> {
    spec2006(name).or_else(|| cloudsuite(name))
}
