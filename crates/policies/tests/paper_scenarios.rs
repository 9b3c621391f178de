//! Scenario tests: each baseline policy's defining behaviour on the access
//! pattern its paper motivates it with.

use cache_sim::{Access, AccessKind, CacheConfig, SetAssocCache, TrueLru};
use policies::{Drrip, Hawkeye, KpcR, Ship, Srrip};

fn geometry() -> CacheConfig {
    CacheConfig { sets: 4, ways: 4, latency: 1 }
}

fn load(pc: u64, line: u64, seq: u64) -> Access {
    Access { pc, addr: line * 64, kind: AccessKind::Load, core: 0, seq }
}

/// One-set workload: a promoted hot pair interleaved with scan bursts.
/// The hot pair is touched twice up front so promotion-based policies have
/// their hit bit/RRPV established before the scans begin.
fn scan_with_hot<P: cache_sim::ReplacementPolicy>(
    cache: &mut SetAssocCache<P>,
    rounds: u64,
) -> (u64, u64) {
    let mut seq = 0u64;
    let mut touch = |cache: &mut SetAssocCache<P>, line: u64, pc: u64| {
        let hit = cache.access(&load(pc, line * 4, seq)).hit; // stay in set 0 (4 sets)
        seq += 1;
        hit
    };
    // Warm the hot pair (two rounds establish reuse).
    for _ in 0..2 {
        let _ = touch(cache, 1, 0x400);
        let _ = touch(cache, 2, 0x404);
    }
    let mut hot_hits = 0;
    let mut hot_refs = 0;
    for r in 0..rounds {
        // Three one-shot scan lines, then the hot pair again.
        for k in 0..3 {
            let _ = touch(cache, 1_000 + r * 3 + k, 0x900);
        }
        for (line, pc) in [(1u64, 0x400u64), (2, 0x404)] {
            hot_refs += 1;
            hot_hits += u64::from(touch(cache, line, pc));
        }
    }
    (hot_hits, hot_refs)
}

#[test]
fn srrip_protects_hot_lines_against_scans_better_than_lru() {
    let cfg = geometry();
    let mut lru = SetAssocCache::new("lru", cfg, TrueLru::new(&cfg));
    let mut srrip = SetAssocCache::new("srrip", cfg, Srrip::new(&cfg));
    let (lru_hits, refs) = scan_with_hot(&mut lru, 1_500);
    let (srrip_hits, _) = scan_with_hot(&mut srrip, 1_500);
    assert!(
        srrip_hits > lru_hits + refs / 4,
        "scan resistance: SRRIP {srrip_hits} vs LRU {lru_hits} of {refs}"
    );
}

#[test]
fn drrip_survives_pure_thrash_where_lru_gets_nothing() {
    // Cyclic pattern of 6 lines per 4-way set, in *follower* sets (set 0 is
    // a dueling leader): LRU yields zero hits; DRRIP's BRRIP mode keeps a
    // resident subset.
    let cfg = geometry(); // 4 sets: sets 1-3 are followers
    let run = |policy: Box<dyn cache_sim::ReplacementPolicy>| {
        let mut cache = SetAssocCache::new("t", cfg, policy);
        let mut hits = 0u64;
        let mut seq = 0u64;
        for lap in 0..1_500u64 {
            for elem in 0..6u64 {
                // 6 distinct lines per set, touching all 4 sets per element.
                for set in 0..4u64 {
                    let line = elem * 4 + set;
                    let hit = cache.access(&load(0x400, line, seq)).hit;
                    seq += 1;
                    if set != 0 && lap > 2 {
                        hits += u64::from(hit); // count follower sets, warm laps
                    }
                }
            }
        }
        hits
    };
    let lru_hits = run(Box::new(TrueLru::new(&cfg)));
    let drrip_hits = run(Box::new(Drrip::new(&cfg)));
    assert_eq!(lru_hits, 0, "LRU thrashes the 6-line cycles");
    assert!(drrip_hits > 3_000, "DRRIP must stabilize a resident subset: {drrip_hits}");
}

#[test]
fn ship_discriminates_by_signature() {
    // PC A's lines are always reused; PC B's never. After training, SHiP
    // must protect A-lines over B-lines.
    let cfg = geometry();
    let mut cache = SetAssocCache::new("ship", cfg, Box::new(Ship::new(&cfg)));
    let mut seq = 0u64;
    let mut a_hits = 0u64;
    let mut a_refs = 0u64;
    for i in 0..4_000u64 {
        let a_line = i % 8; // reused A-lines
        a_refs += 1;
        if cache.access(&load(0xA000, a_line, seq)).hit {
            a_hits += 1;
        }
        seq += 1;
        let b_line = 10_000 + i; // one-shot B-lines
        let _ = cache.access(&load(0xB000, b_line, seq));
        seq += 1;
    }
    assert!(
        a_hits as f64 / a_refs as f64 > 0.8,
        "SHiP must learn that A-lines are reused: {a_hits}/{a_refs}"
    );
}

#[test]
fn hawkeye_learns_like_belady_on_a_friendly_loop() {
    // A loop that fits: OPTgen labels everything cache-friendly, so after
    // warm-up the hit rate approaches 100%.
    let cfg = geometry();
    let mut cache = SetAssocCache::new("hawk", cfg, Box::new(Hawkeye::new(&cfg)));
    let mut late_hits = 0u64;
    let mut late_refs = 0u64;
    for i in 0..8_000u64 {
        let line = i % 12;
        let hit = cache.access(&load(0x400 + line * 4, line, i)).hit;
        if i > 4_000 {
            late_refs += 1;
            late_hits += u64::from(hit);
        }
    }
    assert!(
        late_hits as f64 / late_refs as f64 > 0.95,
        "a fitting loop must stabilize: {late_hits}/{late_refs}"
    );
}

#[test]
fn kpcr_demotes_prefetched_lines() {
    // Prefetched lines that are never demanded must be evicted before
    // demand lines of the same age.
    let cfg = CacheConfig { sets: 1, ways: 4, latency: 1 };
    let mut cache = SetAssocCache::new("kpc", cfg, Box::new(KpcR::new(&cfg)));
    // Two demand lines, two prefetched lines.
    let mut seq = 0;
    for (line, kind) in [
        (1u64, AccessKind::Load),
        (2, AccessKind::Prefetch),
        (3, AccessKind::Load),
        (4, AccessKind::Prefetch),
    ] {
        let a = Access { pc: 0x400, addr: line * 64, kind, core: 0, seq };
        let _ = cache.access(&a);
        seq += 1;
    }
    // Re-touch the demand lines so they are promoted.
    for line in [1u64, 3] {
        let _ = cache.access(&load(0x400, line, seq));
        seq += 1;
    }
    // The next two fills must evict the prefetched lines, not the demand ones.
    for line in [5u64, 6] {
        let _ = cache.access(&load(0x500, line, seq));
        seq += 1;
    }
    assert!(cache.contains(64), "demand line 1 must survive");
    assert!(cache.contains(3 * 64), "demand line 3 must survive");
    assert!(!cache.contains(2 * 64), "unreused prefetch 2 must be evicted");
    assert!(!cache.contains(4 * 64), "unreused prefetch 4 must be evicted");
}
