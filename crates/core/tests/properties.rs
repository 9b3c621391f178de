//! Property-based invariants of the RLR policy under arbitrary access
//! sequences, on the in-tree `simrng::prop` harness.

use cache_sim::{Access, AccessKind, CacheConfig, SetAssocCache};
use rlr::{RlrConfig, RlrPolicy};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng, SimRng};

fn kind_of(tag: u8) -> AccessKind {
    match tag % 4 {
        0 => AccessKind::Load,
        1 => AccessKind::Rfo,
        2 => AccessKind::Prefetch,
        _ => AccessKind::Writeback,
    }
}

fn line_tag_seq(
    rng: &mut SimRng,
    lines: u16,
    tags: u8,
    len: std::ops::Range<usize>,
) -> Vec<(u16, u8)> {
    let n = rng.gen_range(len);
    (0..n).map(|_| (rng.gen_range(0..lines), rng.gen_range(0..tags))).collect()
}

/// Drives a cache+policy with a random access sequence and checks global
/// accounting invariants.
fn drive(config: RlrConfig, accesses: &[(u16, u8)]) {
    let geometry = CacheConfig { sets: 8, ways: 4, latency: 1 };
    let mut cache = SetAssocCache::new(
        "prop",
        geometry,
        Box::new(RlrPolicy::with_config(config, &geometry)),
    );
    for (i, &(line, tag)) in accesses.iter().enumerate() {
        let access = Access {
            pc: u64::from(tag) * 4,
            addr: u64::from(line) * 64,
            kind: kind_of(tag),
            core: 0,
            seq: i as u64,
        };
        let out = cache.access(&access);
        // Every miss allocates, so every access ends resident.
        assert!(cache.contains(access.addr));
        if out.hit {
            assert!(out.evicted.is_none());
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.accesses(), accesses.len() as u64);
    assert!(stats.hits() <= stats.accesses());
}

#[test]
fn optimized_never_misbehaves() {
    check(
        "optimized_never_misbehaves",
        Config::with_cases(48),
        |rng| line_tag_seq(rng, 256, 16, 1..600),
        |seq| {
            drive(RlrConfig::optimized(), seq);
            Ok(())
        },
    );
}

#[test]
fn unoptimized_never_misbehaves() {
    check(
        "unoptimized_never_misbehaves",
        Config::with_cases(48),
        |rng| line_tag_seq(rng, 256, 16, 1..600),
        |seq| {
            drive(RlrConfig::unoptimized(), seq);
            Ok(())
        },
    );
}

#[test]
fn multicore_never_misbehaves() {
    check(
        "multicore_never_misbehaves",
        Config::with_cases(48),
        |rng| line_tag_seq(rng, 256, 16, 1..600),
        |seq| {
            drive(RlrConfig::multicore(4), seq);
            Ok(())
        },
    );
}

/// The predicted reuse distance never exceeds `multiplier x max_age`
/// (the accumulator adds saturated ages only). The policy is driven
/// directly through a faithful miniature cache loop so its RD is
/// observable after every access.
#[test]
fn rd_is_bounded() {
    check(
        "rd_is_bounded",
        Config::with_cases(48),
        |rng| line_tag_seq(rng, 64, 16, 1..800),
        |seq| {
            use cache_sim::ReplacementPolicy;
            let geometry = CacheConfig { sets: 4, ways: 4, latency: 1 };
            let config = RlrConfig::unoptimized();
            let mut policy = RlrPolicy::with_config(config, &geometry);
            let (sets, ways) = (geometry.sets as usize, geometry.ways as usize);
            let mut tags = vec![u64::MAX; sets * ways];
            let bound = (config.rd_multiplier * config.max_age() as f64).round() as u64;
            for (i, &(line16, tag)) in seq.iter().enumerate() {
                let line = u64::from(line16);
                let access = Access {
                    pc: u64::from(tag) * 4,
                    addr: line * 64,
                    kind: kind_of(tag),
                    core: 0,
                    seq: i as u64,
                };
                let set = (line % sets as u64) as usize;
                let base = set * ways;
                if let Some(w) = (0..ways).find(|&w| tags[base + w] == line) {
                    policy.on_hit(set as u32, w as u16, &access);
                } else {
                    policy.on_miss(set as u32, &access);
                    let w = if let Some(free) = (0..ways).find(|&w| tags[base + w] == u64::MAX) {
                        free
                    } else {
                        usize::from(policy.select_victim(set as u32, &access))
                    };
                    tags[base + w] = line;
                    policy.on_fill(set as u32, w as u16, &access);
                }
                prop_assert!(
                    policy.predicted_reuse_distance() <= bound.max(config.max_age()),
                    "RD {} exceeded bound {}",
                    policy.predicted_reuse_distance(),
                    bound
                );
            }
            Ok(())
        },
    );
}

/// Two identical access sequences produce identical victim choices
/// (full determinism, required for the replay methodology).
#[test]
fn policy_is_deterministic() {
    check(
        "policy_is_deterministic",
        Config::with_cases(48),
        |rng| line_tag_seq(rng, 128, 16, 1..400),
        |seq| {
            let geometry = CacheConfig { sets: 4, ways: 4, latency: 1 };
            let run = || {
                let mut cache = SetAssocCache::new(
                    "det",
                    geometry,
                    Box::new(RlrPolicy::optimized(&geometry)),
                );
                let mut evictions = Vec::new();
                for (i, &(line, tag)) in seq.iter().enumerate() {
                    let access = Access {
                        pc: u64::from(tag) * 4,
                        addr: u64::from(line) * 64,
                        kind: kind_of(tag),
                        core: 0,
                        seq: i as u64,
                    };
                    let out = cache.access(&access);
                    evictions.push(out.evicted);
                }
                evictions
            };
            prop_assert_eq!(run(), run());
            Ok(())
        },
    );
}

#[test]
fn overhead_grows_with_counter_widths() {
    use cache_sim::ReplacementPolicy;
    let llc = CacheConfig::with_capacity_kb(2048, 16, 26);
    let mut previous = 0;
    for bits in 2..=8 {
        let config = RlrConfig { age_bits: bits, ..RlrConfig::unoptimized() };
        let policy = RlrPolicy::with_config(config, &llc);
        let overhead = policy.overhead_bits(&llc);
        assert!(overhead > previous, "overhead must grow with age bits");
        previous = overhead;
    }
}
