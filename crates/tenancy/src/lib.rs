//! # tenancy — the multi-tenant shared-LLC serving tier
//!
//! N tenants of different priority classes share one LLC. This crate
//! layers tenant identity, isolation, and QoS accounting over the packed
//! [`cache_sim::SetAssocCache`]:
//!
//! * [`TenantPolicy`] — `RLR(unopt)` ([`rlr::RlrPolicy`]) in an isolation
//!   shell, under one of three [`IsolationMode`]s: `Shared`
//!   (free-for-all), `WayPartition` (per-tenant way masks enforced by the
//!   cache's fill mask and the masked victim query
//!   [`rlr::RlrPolicy::select_victim_masked`]), and `LearnedPriority` (a
//!   derived per-tenant priority table as RLR's `P_core` term with a fixed
//!   table, [`rlr::RlrPolicy::with_core_ranks`]).
//! * [`MultiTenantLlc`] — the serving wrapper: tags every line with its
//!   owning tenant, maintains per-tenant occupancy/hit/miss counters and
//!   exact p50/p99 miss-latency histograms fed by the event timing
//!   model's DRAM layer.
//! * [`partition_by_weight`] — contiguous way slices proportional to
//!   priority-class weights.
//!
//! The experiment harness (`experiments::tenancy`) runs tenant mixes
//! through this crate in every mode and derives the learned priority
//! table offline; `rlr tenancy run|compare|derive` is the CLI entry.

mod llc;
mod policy;

pub use llc::{LatencyHist, MultiTenantLlc, TenantQos};
pub use policy::{partition_by_weight, IsolationMode, TenantPolicy, MAX_PRIORITY, MAX_TENANTS};
