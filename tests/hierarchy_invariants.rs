//! Property-based invariants of the simulation substrate, on the in-tree
//! `simrng::prop` harness.

use cache_sim::{
    Access, AccessKind, CacheConfig, SetAssocCache, SingleCoreSystem, SystemConfig, TrueLru,
};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng};
use workloads::{Recipe, Workload};

/// A cache never reports more hits than accesses, never contains
/// duplicate lines in a set, and hit/miss accounting is consistent.
#[test]
fn cache_accounting_is_consistent() {
    check(
        "cache_accounting_is_consistent",
        Config::with_cases(24),
        |rng| {
            let n = rng.gen_range(1..400usize);
            (0..n).map(|_| rng.gen_range(0..4096u64)).collect::<Vec<_>>()
        },
        |addrs| {
            let cfg = CacheConfig { sets: 8, ways: 4, latency: 1 };
            let mut cache = SetAssocCache::new("t", cfg, Box::new(TrueLru::new(&cfg)));
            for (i, &a) in addrs.iter().enumerate() {
                let kind = match i % 5 {
                    0 => AccessKind::Rfo,
                    1 => AccessKind::Prefetch,
                    2 => AccessKind::Writeback,
                    _ => AccessKind::Load,
                };
                let access = Access { pc: a * 8, addr: a * 64, kind, core: 0, seq: i as u64 };
                let out = cache.access(&access);
                // After any access, the line must be resident: every miss allocates.
                prop_assert!(cache.contains(a * 64));
                // Hits never evict.
                if out.hit {
                    prop_assert!(out.evicted.is_none());
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.accesses(), addrs.len() as u64);
            prop_assert!(stats.hits() <= stats.accesses());
            prop_assert!(stats.writebacks_out <= stats.evictions);
            Ok(())
        },
    );
}

/// Rerunning a workload yields identical statistics (determinism), and
/// instruction targets are honoured.
#[test]
fn simulation_is_deterministic() {
    check(
        "simulation_is_deterministic",
        Config::with_cases(24),
        |rng| (rng.gen_range(0..1000u64), rng.gen_range(64..4096u64)),
        |&(seed, footprint_kb)| {
            let wl = Workload::new(
                "prop",
                Recipe::Zipf { bytes: footprint_kb << 10, skew: 0.9, store_ratio: 0.3 },
            )
            .with_seed(seed);
            let config = SystemConfig::paper_single_core();
            let run = || {
                let mut system =
                    SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
                system.run(wl.stream(), 60_000)
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a, &b);
            prop_assert!(a.instructions >= 60_000);
            Ok(())
        },
    );
}

/// Demand accesses filtered by L1/L2 can never exceed the accesses
/// issued by the core, and every LLC demand miss implies a memory read.
#[test]
fn hierarchy_filters_monotonically() {
    check(
        "hierarchy_filters_monotonically",
        Config::with_cases(24),
        |rng| rng.gen_range(0..1000u64),
        |&seed| {
            let wl = Workload::new(
                "prop2",
                Recipe::Mix(vec![
                    (3, Recipe::Chase { bytes: 4 << 20 }),
                    (1, Recipe::Cyclic { bytes: 1 << 20, stride: 64, store_ratio: 0.4 }),
                ]),
            )
            .with_seed(seed);
            let config = SystemConfig::paper_single_core();
            let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
            let stats = system.run(wl.stream(), 80_000);
            prop_assert!(
                stats.l2.demand_accesses() <= stats.l1d.demand_misses() + stats.l1d.demand_accesses()
            );
            prop_assert!(stats.llc.demand_accesses() <= stats.l2.accesses());
            prop_assert!(stats.memory_reads >= stats.llc.demand_misses());
            // IPC is bounded by the issue width.
            prop_assert!(stats.ipc() <= f64::from(config.issue_width) + 1e-9);
            Ok(())
        },
    );
}

#[test]
fn prefetch_traffic_reaches_the_llc_for_streams() {
    let wl = Workload::new(
        "stream",
        Recipe::Cyclic { bytes: 16 << 20, stride: 64, store_ratio: 0.0 },
    )
    .with_local(0.0);
    let config = SystemConfig::paper_single_core();
    let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
    let stats = system.run(wl.stream(), 300_000);
    let pf = stats.llc.by_kind[AccessKind::Prefetch.index()].accesses;
    assert!(pf > 0, "a sequential stream must generate LLC prefetch traffic");
    let demand = stats.llc.demand_accesses();
    assert!(demand > 0, "dropped/late prefetches must leave demand traffic");
}
