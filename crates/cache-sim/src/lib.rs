//! ChampSim-style cache hierarchy simulator.
//!
//! This crate is the substrate the RLR paper's evaluation runs on: a
//! three-level cache hierarchy (private L1I/L1D and L2 per core, shared
//! last-level cache) with pluggable LLC replacement policies, hardware
//! prefetchers (next-line at L1, IP-stride at L2, none at the LLC), and a
//! simplified out-of-order core timing model (3-issue, 256-entry ROB,
//! MSHR-limited memory-level parallelism) that converts cache behaviour into
//! IPC — mirroring Table III of the paper. That model, [`TimingModel`], has
//! two modes ([`TimingMode`]) that differ in three rules: memory misses
//! complete after a constant latency or after queueing on a DRAM bank, a
//! full MSHR file waits for the oldest miss or the earliest completion,
//! and the end of a run waits for the youngest miss or the latest one.
//!
//! The design deliberately separates *function* from *time*: caches are
//! simulated functionally in program order, so the LLC access stream is
//! identical for every LLC replacement policy. That invariant is what makes
//! the offline Belady oracle (and the RL agent's reward) exact.
//!
//! # Quick start
//!
//! ```
//! use cache_sim::{SingleCoreSystem, SystemConfig, TrueLru};
//! use workloads::spec2006;
//!
//! let config = SystemConfig::paper_single_core();
//! let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
//! let stats = system.run(spec2006("429.mcf").unwrap().stream(), 50_000);
//! assert!(stats.ipc() > 0.0);
//! ```

mod access;
mod cache;
mod capture;
mod config;
mod dram;
mod hierarchy;
mod prefetch;
pub mod reference;
mod replacement;
mod stats;
mod system;
mod timing;

pub use access::{Access, AccessKind};
pub use cache::{AccessOutcome, SetAssocCache};
pub use reference::ReferenceCache;
pub use capture::{LlcRecord, LlcTrace};
pub use dram::{DramModel, DramTiming};
pub use config::{CacheConfig, L2PrefetcherKind, SystemConfig};
pub use hierarchy::{CoreHierarchy, DataRequest, MemTraffic, ServiceLevel, SharedLlc};
pub use prefetch::{IpStridePrefetcher, KpcPrefetcher, NextLinePrefetcher, PrefetchRequest, Prefetcher};
pub use replacement::{LineSnapshot, RandomLite, ReplacementPolicy, TrueLru};
pub use stats::{CacheStats, KindCounts};
pub use system::{MultiCoreSystem, RunStats, SingleCoreSystem};
pub use timing::{TimingMode, TimingModel};

/// Cache line size in bytes used throughout the simulator.
pub const LINE_BYTES: u64 = 64;
