//! The differential test wall for the hot-path rewrite.
//!
//! [`cache_sim::ReferenceCache`] is the original array-of-structs,
//! `Box<dyn>`-dispatched cache, frozen as the semantic oracle. Every test
//! here replays an identical access stream through the oracle and through
//! the packed, statically-dispatched [`SetAssocCache`] and requires
//! **bit-identical** behaviour: the same [`AccessOutcome`] for every
//! access (hit/miss, fill way, eviction, writeback), the same
//! final [`cache_sim::CacheStats`], and the same per-way line state.
//!
//! The roster comes from `experiments::PolicyKind::ALL_ONLINE` (its 15
//! online policies, plus the Belady oracle), so every policy the repo
//! simulates crosses this wall. The designs that appear only in Table I
//! are storage formulas there, with no simulator to compare.

use cache_sim::{
    Access, AccessKind, AccessOutcome, CacheConfig, LlcRecord, LlcTrace, ReferenceCache,
    SetAssocCache,
};
use experiments::{LlcPolicy, PolicyKind};
use simrng::prop::{check, Config};
use simrng::{prop_assert_eq, Rng, SimRng};

/// Small geometry so random streams conflict hard and every policy takes
/// thousands of victim decisions.
fn geometry() -> CacheConfig {
    CacheConfig { sets: 16, ways: 8, latency: 20 }
}

fn kind_of(tag: u64) -> AccessKind {
    match tag % 10 {
        0..=5 => AccessKind::Load,
        6..=7 => AccessKind::Rfo,
        8 => AccessKind::Prefetch,
        _ => AccessKind::Writeback,
    }
}

/// A random access stream over a working set a few times the cache size,
/// with a small PC pool (so PC-based policies train) and 4 cores.
fn random_stream(seed: u64, len: usize) -> Vec<Access> {
    let cfg = geometry();
    let mut rng = SimRng::seed_from_u64(seed);
    let lines = u64::from(cfg.sets) * u64::from(cfg.ways) * 4;
    (0..len)
        .map(|seq| {
            let tag = rng.gen_range(0..10u64);
            Access {
                pc: 0x400 + rng.gen_range(0..32u64) * 4,
                addr: rng.gen_range(0..lines) << 6,
                kind: kind_of(tag),
                core: rng.gen_range(0..4u64) as u8,
                seq: seq as u64,
            }
        })
        .collect()
}

/// Drives both implementations with the same policy state machine and the
/// same stream; panics with context on the first divergence. Returns the
/// outcome stream for further checks.
fn assert_equivalent(
    label: &str,
    old: &mut ReferenceCache,
    new: &mut SetAssocCache<LlcPolicy>,
    stream: &[Access],
) -> Vec<AccessOutcome> {
    let mut outcomes = Vec::with_capacity(stream.len());
    for (i, access) in stream.iter().enumerate() {
        let a = old.access(access);
        let b = new.access(access);
        assert_eq!(
            a, b,
            "[{label}] outcome diverged at access {i} ({access:?}): \
             reference {a:?} vs packed {b:?}"
        );
        outcomes.push(b);
    }
    assert_same_final_state(label, old, new);
    outcomes
}

/// Final-state bit-identity: statistics, per-way line state, occupancy.
fn assert_same_final_state(label: &str, old: &ReferenceCache, new: &SetAssocCache<LlcPolicy>) {
    assert_eq!(old.stats(), new.stats(), "[{label}] final statistics diverged");
    let cfg = *new.config();
    for set in 0..cfg.sets {
        let snapshot = new.set_snapshot(set);
        let mut valid = 0;
        for way in 0..cfg.ways {
            let reference = old.line_state(set, way);
            let packed = snapshot[way as usize];
            assert_eq!(
                reference, packed,
                "[{label}] line state diverged at set {set} way {way}"
            );
            valid += u32::from(packed.valid);
        }
        assert_eq!(
            new.occupancy(set),
            valid,
            "[{label}] occupancy bitmap disagrees with per-line valid state at set {set}"
        );
    }
}

fn run_kind(kind: PolicyKind, trace: Option<&LlcTrace>, stream: &[Access]) {
    let cfg = geometry();
    let mut old = ReferenceCache::new("ref", cfg, Box::new(kind.build(&cfg, trace)));
    let mut new = SetAssocCache::new("packed", cfg, kind.build(&cfg, trace));
    let outcomes = assert_equivalent(kind.name(), &mut old, &mut new, stream);
    let hits = outcomes.iter().filter(|o| o.hit).count();
    let evictions = outcomes.iter().filter(|o| o.evicted.is_some()).count();
    assert!(hits > 0, "[{}] stream produced no hits — not a real exercise", kind.name());
    assert!(evictions > 0, "[{}] stream produced no evictions", kind.name());
}

/// Every online policy of the paper's roster, old path vs new path, on a
/// long adversarial stream.
#[test]
fn every_online_policy_is_dispatch_equivalent() {
    let stream = random_stream(0xD1FF_0001, 20_000);
    for kind in PolicyKind::ALL_ONLINE {
        run_kind(kind, None, &stream);
    }
}

/// The Belady oracle keys on sequence numbers — the one roster member the
/// online sweep above does not cover.
#[test]
fn belady_is_dispatch_equivalent() {
    let stream = random_stream(0xD1FF_0002, 8_000);
    let mut trace = LlcTrace::new();
    for a in &stream {
        trace.push(LlcRecord { pc: a.pc, line: a.addr >> 6, kind: a.kind, core: a.core });
    }
    run_kind(PolicyKind::Belady, Some(&trace), &stream);
}

/// RFO-dirtying (L1 store semantics) must flow through both paths
/// identically under RLR.
#[test]
fn rfo_mode_is_dispatch_equivalent() {
    let cfg = geometry();
    let stream = random_stream(0xD1FF_0003, 12_000);
    let build = || LlcPolicy::Rlr(rlr::RlrPolicy::with_config(rlr::RlrConfig::optimized(), &cfg));
    let mut old = ReferenceCache::new("ref", cfg, Box::new(build()));
    let mut new = SetAssocCache::new("packed", cfg, build());
    old.set_rfo_dirties(true);
    new.set_rfo_dirties(true);
    assert_equivalent("RLR-rfo", &mut old, &mut new, &stream);
}

/// Randomized differential property with shrinking: arbitrary short
/// streams through representative policies, RLR-MC included for its
/// per-line core table. On failure the harness shrinks
/// the stream and reports a `PROP_SEED` for exact replay.
#[test]
fn random_streams_shrink_to_minimal_divergence() {
    let cfg = geometry();
    check(
        "random_streams_shrink_to_minimal_divergence",
        Config::with_cases(24),
        |rng| {
            let n = rng.gen_range(1usize..600);
            let seed = rng.gen_range(0..u64::MAX / 2);
            random_stream(seed, n)
        },
        |stream| {
            for kind in [PolicyKind::Rlr, PolicyKind::Srrip, PolicyKind::RlrMulticore] {
                let mut old = ReferenceCache::new("ref", cfg, Box::new(kind.build(&cfg, None)));
                let mut new = SetAssocCache::new("packed", cfg, kind.build(&cfg, None));
                for (i, access) in stream.iter().enumerate() {
                    let a = old.access(access);
                    let b = new.access(access);
                    prop_assert_eq!(a, b, "{} diverged at access {}", kind.name(), i);
                }
                prop_assert_eq!(old.stats(), new.stats(), "{} stats diverged", kind.name());
            }
            Ok(())
        },
    );
}

/// The set probe has a fixed-width, branch-free form for 8 and 16 ways and
/// a loop for every other width. Each case takes the next associativity in
/// 1..=32 (so 64 cases visit every width twice, both probe forms
/// included) and replays a random stream through the oracle and the packed
/// cache with `rfo_dirties` off and on. Outcomes, residency (`contains`
/// before every access), statistics and every set snapshot must agree.
#[test]
fn every_associativity_probes_like_the_reference() {
    let mut case = 0u16;
    check(
        "every_associativity_probes_like_the_reference",
        Config::with_cases(64),
        |rng| {
            let ways = case % 32 + 1;
            case += 1;
            let cfg = CacheConfig { sets: 4, ways, latency: 20 };
            let lines = u64::from(cfg.sets) * u64::from(ways) * 3;
            let n = rng.gen_range(1usize..800);
            // A quarter of the accesses go to a hot region holding line 0,
            // the tag every way starts with while it is still invalid.
            let stream: Vec<Access> = (0..n)
                .map(|seq| {
                    let hot = rng.gen_range(0..4u8) == 0;
                    let span = if hot { 2 * u64::from(cfg.sets) } else { lines };
                    Access {
                        pc: 0x400 + rng.gen_range(0..16u64) * 4,
                        addr: rng.gen_range(0..span) << 6,
                        kind: kind_of(rng.gen_range(0..10u64)),
                        core: rng.gen_range(0..4u64) as u8,
                        seq: seq as u64,
                    }
                })
                .collect();
            (stream, ways)
        },
        |(stream, ways)| {
            let cfg = CacheConfig { sets: 4, ways: *ways, latency: 20 };
            for rfo_dirties in [false, true] {
                for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Rlr] {
                    let label = format!("{} ways={ways} rfo_dirties={rfo_dirties}", kind.name());
                    let mut old = ReferenceCache::new("ref", cfg, Box::new(kind.build(&cfg, None)));
                    let mut new = SetAssocCache::new("packed", cfg, kind.build(&cfg, None));
                    old.set_rfo_dirties(rfo_dirties);
                    new.set_rfo_dirties(rfo_dirties);
                    for (i, access) in stream.iter().enumerate() {
                        let resident = old.contains(access.addr);
                        prop_assert_eq!(
                            resident,
                            new.contains(access.addr),
                            "[{}] contains diverged before access {}",
                            label,
                            i
                        );
                        let a = old.access(access);
                        let b = new.access(access);
                        prop_assert_eq!(a, b, "[{}] outcome diverged at access {}", label, i);
                        prop_assert_eq!(
                            b.hit,
                            resident,
                            "[{}] hit disagrees with contains at access {}",
                            label,
                            i
                        );
                    }
                    prop_assert_eq!(old.stats(), new.stats(), "[{}] stats diverged", label);
                    for set in 0..cfg.sets {
                        let snapshot = new.set_snapshot(set);
                        for way in 0..cfg.ways {
                            prop_assert_eq!(
                                old.line_state(set, way),
                                snapshot[usize::from(way)],
                                "[{}] line state diverged at set {} way {}",
                                label,
                                set,
                                way
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Multicore RLR through both caches: four cores with private PC pools and
/// partially-overlapping address regions, round-robin interleaved so
/// P_core re-rankings decide real evictions. The policy reads the core of
/// each line from its own table in either cache, so per-access outcomes,
/// per-core hit counters, final statistics, and line state must all stay
/// bit-identical.
#[test]
fn multicore_rlr_interleaved_streams_match_reference() {
    let cfg = geometry();
    let lines = u64::from(cfg.sets) * u64::from(cfg.ways) * 4;
    let mut rng = SimRng::seed_from_u64(0x3C0_0006);
    let stream: Vec<Access> = (0..40_000u64)
        .map(|seq| {
            let core = (seq % 4) as u8;
            // Half the traffic hits a shared region (cross-core conflict),
            // half a per-core private region (hit-rate asymmetry drives the
            // re-ranking apart).
            let addr = if rng.gen_range(0..2u64) == 0 {
                rng.gen_range(0..lines / 2) << 6
            } else {
                (lines / 2 + u64::from(core) * (lines / 8) + rng.gen_range(0..lines / 8)) << 6
            };
            Access {
                pc: 0x400 + u64::from(core) * 0x1000 + rng.gen_range(0..8u64) * 4,
                addr,
                kind: kind_of(rng.gen_range(0..10u64)),
                core,
                seq,
            }
        })
        .collect();

    let kind = PolicyKind::RlrMulticore;
    let mut old = ReferenceCache::new("ref", cfg, Box::new(kind.build(&cfg, None)));
    let mut new = SetAssocCache::new("packed", cfg, kind.build(&cfg, None));
    let mut reference_hits = [0u64; 4];
    let mut packed_hits = [0u64; 4];
    let mut evictions = 0u64;
    for (i, access) in stream.iter().enumerate() {
        let a = old.access(access);
        let b = new.access(access);
        assert_eq!(
            a, b,
            "[RLR-MC] outcome diverged at access {i} ({access:?}): \
             reference {a:?} vs packed {b:?}"
        );
        let core = usize::from(access.core);
        reference_hits[core] += u64::from(a.hit);
        packed_hits[core] += u64::from(b.hit);
        evictions += u64::from(b.evicted.is_some());
    }
    assert_eq!(reference_hits, packed_hits, "[RLR-MC] per-core hit counters diverged");
    assert_same_final_state("RLR-MC", &old, &new);
    assert!(evictions > 0, "[RLR-MC] stream produced no evictions");
    for (core, &hits) in packed_hits.iter().enumerate() {
        assert!(hits > 0, "[RLR-MC] core {core} produced no hits — not a real exercise");
    }
}
