//! The differential test wall for the hot-path rewrite.
//!
//! [`cache_sim::ReferenceCache`] is the original array-of-structs,
//! `Box<dyn>`-dispatched cache, frozen as the semantic oracle. Every test
//! here replays an identical access stream through the oracle and through
//! the packed, statically-dispatched [`SetAssocCache`] and requires
//! **bit-identical** behaviour: the same [`AccessOutcome`] for every
//! access (hit/miss, fill way, eviction, writeback, bypass), the same
//! final [`cache_sim::CacheStats`], and the same per-way line state.
//!
//! The roster comes from `experiments::PolicyKind::ALL_ONLINE` (plus the
//! Belady oracle), so every policy the paper evaluates crosses this wall.

use cache_sim::{
    Access, AccessKind, AccessOutcome, CacheConfig, LlcRecord, LlcTrace, ReferenceCache,
    ReplacementPolicy, SetAssocCache,
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

/// The Belady oracle keys on sequence numbers and reads line snapshots —
/// the one roster member the online sweep above does not cover.
#[test]
fn belady_is_dispatch_equivalent() {
    let stream = random_stream(0xD1FF_0002, 8_000);
    let mut trace = LlcTrace::new();
    for a in &stream {
        trace.push(LlcRecord { pc: a.pc, line: a.addr >> 6, kind: a.kind, core: a.core });
    }
    run_kind(PolicyKind::Belady, Some(&trace), &stream);
}

/// Bypass decisions (RLR's §IV-C option) must flow through both paths
/// identically — including the deterministic way-0 fallback when the cache
/// refuses the bypass.
#[test]
fn bypass_and_rfo_modes_are_dispatch_equivalent() {
    let cfg = geometry();
    let stream = random_stream(0xD1FF_0003, 12_000);
    let mut bypass_cfg = rlr::RlrConfig::optimized();
    bypass_cfg.bypass = true;
    for allow in [false, true] {
        let build = || LlcPolicy::Rlr(rlr::RlrPolicy::with_config(bypass_cfg, &cfg));
        let mut old = ReferenceCache::new("ref", cfg, Box::new(build()));
        let mut new = SetAssocCache::new("packed", cfg, build());
        old.set_allow_bypass(allow);
        new.set_allow_bypass(allow);
        old.set_rfo_dirties(true);
        new.set_rfo_dirties(true);
        let label = format!("RLR-bypass(allow={allow})");
        let outcomes = assert_equivalent(&label, &mut old, &mut new, &stream);
        if allow {
            assert!(
                outcomes.iter().any(|o| o.bypassed),
                "stream never triggered a bypass — weak test"
            );
        }
    }
}

/// Randomized differential property with shrinking: arbitrary short
/// streams through representative snapshot-free (RLR, SRRIP) and
/// snapshot-consuming (RLR-MC) policies. On failure the harness shrinks
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

/// Snapshot skipping must be decided by the policy: a policy that asks for
/// snapshots gets a full set's worth; the roster's flags match what each
/// `select_victim` actually reads.
#[test]
fn snapshot_flags_match_roster_expectations() {
    let cfg = geometry();
    for kind in PolicyKind::ALL_ONLINE {
        let policy = kind.build(&cfg, None);
        let wants = policy.uses_line_snapshots();
        // Every online policy owns its scan inputs — multicore RLR keeps a
        // per-line core mirror, so even P_core reads no snapshot.
        assert!(
            !wants,
            "{}: uses_line_snapshots() = {wants}, but the whole roster elides snapshots",
            kind.name()
        );
    }
}

/// Multicore RLR through the snapshot-elided packed path: four cores with
/// private PC pools and partially-overlapping address regions, round-robin
/// interleaved so P_core re-rankings decide real evictions. The packed
/// policy reads its own per-line core mirror (it gets an empty snapshot
/// slice); the oracle feeds the frozen `ReferenceCache`'s full snapshots —
/// per-access outcomes, per-core hit counters, final statistics, and line
/// state must all stay bit-identical.
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
