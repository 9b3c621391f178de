//! The equivalence wall for [`SetAssocCache::repeat_hit`].
//!
//! `CoreHierarchy` answers an L1 access to the line of the cache's newest
//! touch with `repeat_hit`, which records the hit and the dirty bit but
//! skips the probe and the LRU re-stamp. Every case
//! here runs one access stream twice through a `TrueLru` cache: once
//! through `access` alone, and once with `repeat_hit` wherever an access
//! repeats the previous access's line. The two runs must agree exactly on
//! every non-repeat outcome (so on every victim and writeback), on the
//! final statistics, and on the per-way state of every set.

use cache_sim::{Access, AccessKind, AccessOutcome, CacheConfig, SetAssocCache, TrueLru};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng};

const KINDS: [AccessKind; 4] =
    [AccessKind::Load, AccessKind::Rfo, AccessKind::Prefetch, AccessKind::Writeback];

/// A small geometry and whether RFOs dirty lines (L1 store semantics).
#[derive(Clone, Copy, Debug)]
struct Setup {
    config: CacheConfig,
    rfo_dirties: bool,
}

fn cache(setup: Setup) -> SetAssocCache<TrueLru> {
    let mut c = SetAssocCache::new("L1", setup.config, TrueLru::new(&setup.config));
    c.set_rfo_dirties(setup.rfo_dirties);
    c
}

fn access(line: u64, kind: AccessKind) -> Access {
    Access { pc: 0x400, addr: line << 6, kind, core: 0, seq: 0 }
}

/// Random small geometries, and streams over about three times the cache's
/// lines in which half the accesses repeat the previous line.
fn gen_case(rng: &mut simrng::SimRng) -> (Vec<(u64, AccessKind)>, Setup) {
    let config = CacheConfig {
        sets: 1 << rng.gen_range(0..4u32),
        ways: rng.gen_range(1..=8u16),
        latency: 1,
    };
    let setup = Setup { config, rfo_dirties: rng.gen() };
    let lines = config.lines() * 3;
    let mut line = 0;
    let stream = (0..rng.gen_range(1..2000usize))
        .map(|_| {
            if !rng.gen_bool(0.5) {
                line = rng.gen_range(0..lines);
            }
            (line, KINDS[rng.gen_range(0..4usize)])
        })
        .collect();
    (stream, setup)
}

#[test]
fn repeat_hit_matches_full_accesses() {
    let mut repeats = 0u64;
    check(
        "repeat_hit is indistinguishable from a full access",
        Config::with_cases(96),
        gen_case,
        |(stream, setup)| {
            let mut full = cache(*setup);
            let mut fast = cache(*setup);
            let mut last: Option<(u64, u16)> = None;
            for (i, &(line, kind)) in stream.iter().enumerate() {
                let expected: AccessOutcome = full.access(&access(line, kind));
                match last {
                    Some((last_line, way)) if last_line == line => {
                        prop_assert!(expected.hit, "access {i}: a repeat must hit");
                        prop_assert_eq!(expected.way, way, "access {i}: repeat moved way");
                        fast.repeat_hit(line, way, kind);
                        repeats += 1;
                    }
                    _ => {
                        let got = fast.access(&access(line, kind));
                        prop_assert_eq!(
                            got,
                            expected,
                            "access {i} ({line:#x}, {kind:?}): {got:?} vs {expected:?}"
                        );
                        last = Some((line, got.way));
                    }
                }
            }
            prop_assert_eq!(fast.stats(), full.stats());
            for set in 0..setup.config.sets {
                prop_assert_eq!(fast.set_snapshot(set), full.set_snapshot(set), "set {set}");
            }
            Ok(())
        },
    );
    assert!(repeats > 1000, "the streams exercised only {repeats} repeat hits");
}

#[test]
fn repeat_hit_records_the_kind_and_dirties_like_access() {
    let config = CacheConfig { sets: 1, ways: 2, latency: 1 };
    for rfo_dirties in [false, true] {
        for kind in KINDS {
            let setup = Setup { config, rfo_dirties };
            let (mut full, mut fast) = (cache(setup), cache(setup));
            let way = full.access(&access(5, AccessKind::Load)).way;
            fast.access(&access(5, AccessKind::Load));
            full.access(&access(5, kind));
            fast.repeat_hit(5, way, kind);
            assert_eq!(fast.stats(), full.stats(), "{kind:?}");
            assert_eq!(fast.set_snapshot(0), full.set_snapshot(0), "{kind:?} rfo_dirties={rfo_dirties}");
        }
    }
}
