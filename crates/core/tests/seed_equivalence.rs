//! Differential wall for the RLR policy itself: the packed, single-scan
//! [`RlrPolicy`] against the frozen seed implementation
//! ([`rlr::SeedRlrPolicy`]: three metadata arrays, triple age
//! recomputation). Both ride the same [`ReferenceCache`], so any
//! divergence is the policy's — not the cache's. Each variant runs on a
//! small 4-way geometry and on the paper's 16-way associativity, whose
//! packed scan takes four full lane stripes (and, on AVX-512 hosts, the
//! vector kernel with its packed core-rank table for RLR-MC).

use cache_sim::{Access, AccessKind, CacheConfig, ReferenceCache};
use rlr::{RlrConfig, RlrPolicy, SeedRlrPolicy};
use simrng::prop::{check, Config};
use simrng::{prop_assert_eq, Rng, SimRng};

/// 16 sets (not the paper's 2048) keep the short property streams long
/// enough to fill sets and force victim scans.
fn geometries() -> [CacheConfig; 2] {
    [CacheConfig { sets: 8, ways: 4, latency: 20 }, CacheConfig { sets: 16, ways: 16, latency: 20 }]
}

fn stream(cfg: &CacheConfig, seed: u64, len: usize) -> Vec<Access> {
    let mut rng = SimRng::seed_from_u64(seed);
    let lines = u64::from(cfg.sets) * u64::from(cfg.ways) * 4;
    (0..len)
        .map(|seq| {
            let kind = match rng.gen_range(0..10u64) {
                0..=5 => AccessKind::Load,
                6..=7 => AccessKind::Rfo,
                8 => AccessKind::Prefetch,
                _ => AccessKind::Writeback,
            };
            Access {
                pc: 0x400 + rng.gen_range(0..16u64) * 4,
                addr: rng.gen_range(0..lines) << 6,
                kind,
                core: rng.gen_range(0..4u64) as u8,
                seq: seq as u64,
            }
        })
        .collect()
}

fn variants() -> [(&'static str, RlrConfig); 3] {
    [
        ("optimized", RlrConfig::optimized()),
        ("unoptimized", RlrConfig::unoptimized()),
        ("multicore", RlrConfig::multicore(4)),
    ]
}

#[test]
fn packed_policy_matches_seed_policy_on_long_streams() {
    for cfg in geometries() {
        let accesses = stream(&cfg, 0x5EED_0001, 30_000);
        for (label, rlr_cfg) in variants() {
            let label = format!("{label} {}x{}", cfg.sets, cfg.ways);
            let mut seed = ReferenceCache::new(
                "seed",
                cfg,
                Box::new(SeedRlrPolicy::with_config(rlr_cfg, &cfg)),
            );
            let mut packed =
                ReferenceCache::new("packed", cfg, Box::new(RlrPolicy::with_config(rlr_cfg, &cfg)));
            for (i, access) in accesses.iter().enumerate() {
                let a = seed.access(access);
                let b = packed.access(access);
                assert_eq!(a, b, "[{label}] diverged at access {i} ({access:?})");
            }
            assert_eq!(seed.stats(), packed.stats(), "[{label}] stats diverged");
            assert!(seed.stats().evictions > 0, "[{label}] stream produced no evictions");
        }
    }
}

#[test]
fn packed_policy_matches_seed_policy_on_random_short_streams() {
    let mut case = 0usize;
    check(
        "packed_policy_matches_seed_policy_on_random_short_streams",
        Config::with_cases(24),
        |rng| {
            // Cases alternate between the two geometries.
            let cfg = geometries()[case % 2];
            case += 1;
            let accesses = stream(&cfg, rng.gen_range(0..u64::MAX / 2), rng.gen_range(1usize..800));
            (accesses, cfg)
        },
        |(accesses, cfg)| {
            let cfg = *cfg;
            for (label, rlr_cfg) in variants() {
                let mut seed = ReferenceCache::new(
                    "seed",
                    cfg,
                    Box::new(SeedRlrPolicy::with_config(rlr_cfg, &cfg)),
                );
                let mut packed = ReferenceCache::new(
                    "packed",
                    cfg,
                    Box::new(RlrPolicy::with_config(rlr_cfg, &cfg)),
                );
                for (i, access) in accesses.iter().enumerate() {
                    let a = seed.access(access);
                    let b = packed.access(access);
                    prop_assert_eq!(a, b, "[{}] diverged at access {}", label, i);
                }
            }
            Ok(())
        },
    );
}
