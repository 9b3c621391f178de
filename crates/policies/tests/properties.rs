//! Property-based invariants shared by every baseline policy, on the
//! in-tree `simrng::prop` harness.

use cache_sim::{Access, AccessKind, CacheConfig, LlcRecord, LlcTrace, SetAssocCache, TrueLru};
use policies::{Belady, Brrip, Drrip, Eva, Fifo, Hawkeye, KpcR, Pdp, Ship, ShipPp, Srrip};
use simrng::prop::{check, Config};
use simrng::{prop_assert, Rng};

type MakePolicy = Box<dyn Fn(&CacheConfig) -> Box<dyn cache_sim::ReplacementPolicy>>;

fn kind_of(tag: u8) -> AccessKind {
    match tag % 4 {
        0 => AccessKind::Load,
        1 => AccessKind::Rfo,
        2 => AccessKind::Prefetch,
        _ => AccessKind::Writeback,
    }
}

/// Drives one policy with the sequence, checking cache-level invariants
/// (residency after access, accounting, no eviction on hits).
fn drive(
    make: &dyn Fn(&CacheConfig) -> Box<dyn cache_sim::ReplacementPolicy>,
    seq: &[(u16, u8)],
) {
    let geometry = CacheConfig { sets: 8, ways: 4, latency: 1 };
    let mut cache = SetAssocCache::new("prop", geometry, make(&geometry));
    for (i, &(line, tag)) in seq.iter().enumerate() {
        let access = Access {
            pc: u64::from(tag) * 4 + 0x400,
            addr: u64::from(line) * 64,
            kind: kind_of(tag),
            core: 0,
            seq: i as u64,
        };
        let out = cache.access(&access);
        assert!(cache.contains(access.addr), "line must be resident after access");
        if out.hit {
            assert!(out.evicted.is_none());
        }
    }
    assert_eq!(cache.stats().accesses(), seq.len() as u64);
}

/// Generates a line/tag access sequence of `lines` distinct lines.
fn line_tag_seq(rng: &mut simrng::SimRng, lines: u16, tags: u8, len: std::ops::Range<usize>) -> Vec<(u16, u8)> {
    let n = rng.gen_range(len);
    (0..n).map(|_| (rng.gen_range(0..lines), rng.gen_range(0..tags))).collect()
}

#[test]
fn every_policy_maintains_invariants() {
    check(
        "every_policy_maintains_invariants",
        Config::with_cases(24),
        |rng| line_tag_seq(rng, 256, 16, 1..500),
        |seq| {
            let makes: Vec<MakePolicy> = vec![
                Box::new(|c| Box::new(Fifo::new(c))),
                Box::new(|c| Box::new(Srrip::new(c))),
                Box::new(|c| Box::new(Brrip::new(c))),
                Box::new(|c| Box::new(Drrip::new(c))),
                Box::new(|c| Box::new(KpcR::new(c))),
                Box::new(|c| Box::new(Ship::new(c))),
                Box::new(|c| Box::new(ShipPp::new(c))),
                Box::new(|c| Box::new(Hawkeye::new(c))),
                Box::new(|c| Box::new(Pdp::new(c))),
                Box::new(|c| Box::new(Eva::new(c))),
            ];
            for make in &makes {
                drive(make.as_ref(), seq);
            }
            Ok(())
        },
    );
}

/// Belady's optimum never yields fewer hits than LRU or FIFO on any
/// load-only trace — the defining property of MIN.
#[test]
fn belady_dominates_heuristics() {
    check(
        "belady_dominates_heuristics",
        Config::with_cases(24),
        |rng| {
            let n = rng.gen_range(32..500usize);
            (0..n).map(|_| rng.gen_range(0..24u64)).collect::<Vec<_>>()
        },
        |lines| {
            let geometry = CacheConfig { sets: 2, ways: 4, latency: 1 };
            let trace: LlcTrace = lines
                .iter()
                .map(|&l| LlcRecord { pc: 0x400, line: l, kind: AccessKind::Load, core: 0 })
                .collect();

            let hits_with = |policy: Box<dyn cache_sim::ReplacementPolicy>| {
                let mut cache = SetAssocCache::new("b", geometry, policy);
                let mut hits = 0u64;
                for (i, &line) in lines.iter().enumerate() {
                    let access = Access {
                        pc: 0x400,
                        addr: line * 64,
                        kind: AccessKind::Load,
                        core: 0,
                        seq: i as u64,
                    };
                    if cache.access(&access).hit {
                        hits += 1;
                    }
                }
                hits
            };

            let opt = hits_with(Box::new(Belady::from_trace(&trace, &geometry)));
            let lru = hits_with(Box::new(TrueLru::new(&geometry)));
            let fifo = hits_with(Box::new(Fifo::new(&geometry)));
            prop_assert!(opt >= lru, "OPT {opt} < LRU {lru}");
            prop_assert!(opt >= fifo, "OPT {opt} < FIFO {fifo}");
            Ok(())
        },
    );
}

/// PDP's recomputed protecting distance stays within its 1..=256 search
/// range under arbitrary traffic (drive the policy by value through a
/// faithful miniature cache loop so it stays observable).
#[test]
fn pdp_protecting_distance_in_range() {
    check(
        "pdp_protecting_distance_in_range",
        Config::with_cases(24),
        |rng| line_tag_seq(rng, 64, 4, 200..2000),
        |seq| {
            use cache_sim::ReplacementPolicy;
            let geometry = CacheConfig { sets: 4, ways: 4, latency: 1 };
            let mut pdp = Pdp::new(&geometry);
            let (sets, ways) = (geometry.sets as usize, geometry.ways as usize);
            let mut tags = vec![u64::MAX; sets * ways];
            for (i, &(line16, tag)) in seq.iter().enumerate() {
                let line = u64::from(line16);
                let access = Access {
                    pc: 0x400,
                    addr: line * 64,
                    kind: kind_of(tag),
                    core: 0,
                    seq: i as u64,
                };
                let set = (line % sets as u64) as usize;
                let base = set * ways;
                if let Some(w) = (0..ways).find(|&w| tags[base + w] == line) {
                    pdp.on_hit(set as u32, w as u16, &access);
                } else {
                    pdp.on_miss(set as u32, &access);
                    let w = if let Some(free) = (0..ways).find(|&w| tags[base + w] == u64::MAX) {
                        free
                    } else {
                        usize::from(pdp.select_victim(set as u32, &access))
                    };
                    tags[base + w] = line;
                    pdp.on_fill(set as u32, w as u16, &access);
                }
                let pd = pdp.protecting_distance();
                prop_assert!((1..=256).contains(&pd), "PD {pd} out of range");
            }
            Ok(())
        },
    );
}
