//! Differential wall for the RLR policy itself: the packed, single-scan
//! [`RlrPolicy`] against the frozen seed implementation
//! ([`rlr::SeedRlrPolicy`]: three metadata arrays, triple age
//! recomputation). Both ride the same [`ReferenceCache`], so any
//! divergence is the policy's — not the cache's. Each variant runs on a
//! small 4-way geometry and on the paper's 16-way associativity, whose
//! byte-row scan takes two full lane stripes.

use cache_sim::{Access, AccessKind, CacheConfig, ReferenceCache, SetAssocCache};
use rlr::{RecencyMode, RlrConfig, RlrPolicy, SeedRlrPolicy};
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

fn variants() -> [(&'static str, RlrConfig); 4] {
    [
        ("optimized", RlrConfig::optimized()),
        ("unoptimized", RlrConfig::unoptimized()),
        ("multicore", RlrConfig::multicore(4)),
        // The widest age a byte row holds: ages saturate at 255 and RD can
        // pass it.
        ("unoptimized 8-bit age", RlrConfig { age_bits: 8, ..RlrConfig::unoptimized() }),
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

/// Lines that stay resident, untouched, for longer than the widest age
/// counter holds. Each round hits three pinned lines once, then scans
/// 2100 fresh lines through their set: the scan outlasts the stale-RD
/// escape, so RD returns to full protection, the pinned lines keep
/// `P_hit` and outlive every scan line, and their next hits read ages
/// saturated at 255 as preuse distances. A byte age that wrapped or
/// saturated early would move RD.
#[test]
fn saturated_byte_ages_match_the_seed_stamps() {
    let cfg = CacheConfig { sets: 2, ways: 4, latency: 20 };
    for recency in [RecencyMode::Exact, RecencyMode::AgeApprox] {
        let rlr_cfg = RlrConfig { age_bits: 8, recency, ..RlrConfig::unoptimized() };
        let mut seed = SetAssocCache::new("seed", cfg, SeedRlrPolicy::with_config(rlr_cfg, &cfg));
        let mut packed = SetAssocCache::new("packed", cfg, RlrPolicy::with_config(rlr_cfg, &cfg));
        let (mut seq, mut scan_line, mut top_rd) = (0u64, 1u64 << 20, 0);
        for round in 0..40 {
            // Even lines map to set 0.
            let pinned: Vec<u64> = (0..3).map(|l| 2 * l).collect();
            let scan: Vec<u64> = (0..2100).map(|i| 2 * (scan_line + i)).collect();
            scan_line += 2100;
            for lines in [pinned, scan] {
                for line in lines {
                    let access =
                        Access { pc: 0x400, addr: line << 6, kind: AccessKind::Load, core: 0, seq };
                    seq += 1;
                    assert_eq!(seed.access(&access), packed.access(&access), "{recency:?} at {seq}");
                }
                let rd = seed.policy().predicted_reuse_distance();
                assert_eq!(rd, packed.policy().predicted_reuse_distance(), "{recency:?} round {round}");
                top_rd = top_rd.max(rd);
            }
        }
        assert_eq!(top_rd, 510, "{recency:?}: a window of saturated preuse distances sets RD");
    }
}
