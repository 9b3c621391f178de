//! The RLR victim scan over one set's byte rows, as a standalone,
//! differential-testable kernel.
//!
//! [`RlrPolicy`](crate::RlrPolicy) keeps its per-line state as byte rows,
//! one row of `ways` bytes per field: the saturating age, the packed
//! [`LineMeta`], the exact-recency rank (under
//! [`RecencyMode::Exact`](crate::RecencyMode)) and the core (under
//! `P_core`). A victim scan reduces a set to the minimum of a packed
//! per-way key:
//!
//! ```text
//! bits [16..26]  priority   (≤ 1023, enforced by RlrConfig::validate)
//! bits [ 8..16]  staleness  (exact rank, or the age when recency is approximate)
//! bits [ 0.. 8]  way index
//! ```
//!
//! Lowest priority loses, most-recent (smallest staleness) breaks priority
//! ties, and the way index in the low bits makes every key unique — so the
//! scan is an argmin over unique `u32` keys, and `min` over them is an
//! associative, commutative fold whose result cannot depend on reduction
//! order. That order-insensitivity is what licenses the lane kernel
//! ([`scan_lanes`]): one branch-free pass whose keys and running minimum
//! the compiler spreads over vector lanes, merged by a horizontal min at
//! the end. [`scan_scalar`] is the one-accumulator reference, kept
//! compiled beside it as the oracle of the differential property suite
//! (`tests/simd_scan_equivalence.rs`). The masked variants
//! ([`scan_masked_lanes`], [`scan_masked_scalar`]) restrict the argmin to
//! a way mask and share the same kernels.

use crate::packed::LineMeta;

/// `u16` keys per 128-bit vector in the lane kernel's narrow layout; the
/// differential tests sweep every way-count remainder around it.
pub const LANES: usize = 8;

/// Largest set the key's 8-bit way field (and a byte rank) can describe.
pub const MAX_SCAN_WAYS: usize = 256;

/// Loop-invariant inputs of one victim scan, hoisted by the caller.
#[derive(Clone, Copy, Debug)]
pub struct ScanParams {
    /// Predicted reuse distance in age units, saturated to a byte (ages
    /// never exceed 255, so `age ≤ rd` reads the same).
    pub rd: u8,
    /// Largest value the staleness row may hold: the top exact-recency
    /// rank `ways − 1`, or the maximum age. The lane kernel sizes its
    /// narrow key by it.
    pub max_staleness: u8,
    /// Weight of the age term (`8` in the paper's P_line).
    pub age_weight: u32,
    /// Whether the type term (penalize unreused prefetches) is active.
    pub use_type: bool,
    /// Whether the hit term is active.
    pub use_hit: bool,
}

/// One set's rows, one byte per way.
#[derive(Clone, Copy, Debug)]
pub struct SetRows<'a> {
    /// Saturating age of each line in the configured unit.
    pub ages: &'a [u8],
    /// The recency tie-break, smaller = more recent: the exact-recency
    /// rank row, or the age row itself when recency is approximated by
    /// age.
    pub staleness: &'a [u8],
    /// Packed hit/type metadata ([`LineMeta::bits`]).
    pub metas: &'a [u8],
    /// Core that inserted or last touched each way; read only when
    /// `core_rank` is non-empty. May be empty otherwise.
    pub cores: &'a [u8],
    /// Per-core priority levels; empty disables the P_core term, and a
    /// core past its end ranks 0.
    pub core_rank: &'a [u32],
}

/// Full key of a single way — the per-way kernel of the reference and of
/// the lane kernel's wide path. `cores` is read only when P_core is on
/// (`core_rank` non-empty).
#[inline(always)]
fn way_key(
    p: &ScanParams,
    core_rank: &[u32],
    ages: &[u8],
    stale: &[u8],
    metas: &[u8],
    cores: &[u8],
    way: usize,
) -> u32 {
    let meta = LineMeta::from_bits(metas[way]);
    let mut prio = (u32::from(ages[way] <= p.rd).wrapping_neg() & p.age_weight)
        + u32::from(p.use_type & !meta.last_prefetch())
        + u32::from(p.use_hit & (meta.hit_count() > 0));
    if !core_rank.is_empty() {
        prio += core_rank.get(usize::from(cores[way])).copied().unwrap_or(0);
    }
    debug_assert!(prio < 1024, "priority must fit the key's 10-bit field");
    (prio << 16) | (u32::from(stale[way]) << 8) | way as u32
}

#[inline(always)]
fn check_shape(rows: &SetRows) -> usize {
    let n = rows.ages.len();
    assert!(n > 0, "victim scan over an empty set");
    assert!(n <= MAX_SCAN_WAYS, "way index must fit the key's 8-bit field");
    assert_eq!(rows.staleness.len(), n, "staleness must cover every way");
    assert_eq!(rows.metas.len(), n, "metadata must cover every way");
    if !rows.core_rank.is_empty() {
        assert_eq!(rows.cores.len(), n, "core ids must cover every way");
    }
    n
}

/// Validates a way mask for the masked scan: at least one eligible way,
/// and a set narrow enough for the 32-bit mask to cover.
#[inline(always)]
fn check_mask(mask: u32, n: usize) -> u32 {
    assert!(n <= 32, "masked scans cover at most 32 ways");
    let set_bits = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mask = mask & set_bits;
    assert!(mask != 0, "masked scan with no eligible way");
    mask
}

/// One-accumulator reference scan over the ways whose bit is set in
/// `mask` (every way when `mask` is `None`): the way of the minimum full
/// key.
fn scalar(params: &ScanParams, rows: &SetRows, mask: Option<u32>) -> u16 {
    let n = check_shape(rows);
    let mask = mask.map(|m| check_mask(m, n));
    let best_key = (0..n)
        .filter(|&w| mask.is_none_or(|m| m & (1 << w) != 0))
        .map(|w| {
            way_key(params, rows.core_rank, rows.ages, rows.staleness, rows.metas, rows.cores, w)
        })
        .min()
        .expect("a checked mask leaves at least one way");
    (best_key & 0xFF) as u16
}

/// One-accumulator reference scan, compiled in every build as the oracle
/// for the lane kernel.
pub fn scan_scalar(params: &ScanParams, rows: &SetRows) -> u16 {
    scalar(params, rows, None)
}

/// One-accumulator reference for the masked scan: identical to
/// [`scan_scalar`] over the subset of ways whose bit is set in `mask`.
/// Ineligible ways contribute no key, so a partitioned victim scan can
/// never name a way outside its mask.
pub fn scan_masked_scalar(params: &ScanParams, rows: &SetRows, mask: u32) -> u16 {
    scalar(params, rows, Some(mask))
}

/// Lane-parallel scan: identical result to [`scan_scalar`] for any input,
/// since the keys are unique and the min is reduction-order-insensitive.
#[inline]
pub fn scan_lanes(params: &ScanParams, rows: &SetRows) -> u16 {
    let n = check_shape(rows);
    lanes::<false>(params, rows, n, 0)
}

/// Lane-parallel masked scan: the same kernel as [`scan_lanes`], with
/// ineligible ways forced to all-ones keys (so they can never win the
/// argmin). Identical result to [`scan_masked_scalar`] for any input.
#[inline]
pub fn scan_masked_lanes(params: &ScanParams, rows: &SetRows, mask: u32) -> u16 {
    let n = check_shape(rows);
    let mask = check_mask(mask, n);
    lanes::<true>(params, rows, n, mask)
}

/// Widest set the narrow key's 5-bit way field covers (and the caches'
/// associativity limit).
const NARROW_WAYS: usize = 32;

/// Bits of the narrow key's way field.
const WAY_BITS: u32 = 5;

/// Longest P_core rank table the narrow key covers (four cores, or up to
/// four tenants).
const NARROW_RANKS: usize = 4;

/// The lane kernel: one branch-free pass over the rows, whose keys and
/// running minimum the compiler keeps in vector lanes. The rows are
/// re-sliced to `n` up front, so the pass has no bounds checks, and the
/// 8- and 16-way sets get a copy of the pass with `n` a constant, so
/// their keys fill whole vectors.
#[inline(always)]
fn lanes<const MASKED: bool>(p: &ScanParams, rows: &SetRows, n: usize, mask: u32) -> u16 {
    match n {
        8 => lanes_n::<MASKED>(p, rows, 8, mask),
        16 => lanes_n::<MASKED>(p, rows, 16, mask),
        _ => lanes_n::<MASKED>(p, rows, n, mask),
    }
}

/// [`lanes`] over `n` ways.
///
/// For sets of at most 32 ways, rank tables of at most four entries and
/// priorities that fit, the keys are `u16`, with `s` the bit width of
/// [`ScanParams::max_staleness`]:
///
/// ```text
/// bits [5+s..16]  code       weight' · P_age + P_type + P_hit + P_core
/// bits [5..5+s]   staleness
/// bits [0..5]     way index
/// ```
///
/// The code orders ways exactly as the priority does, with the age
/// weight capped at `weight' = min(age_weight, top rank + 3)`: P_type +
/// P_hit + P_core is at most `top rank + 2`, so above that cap both sort
/// first by P_age and then by the rest, and a smaller weight is kept as
/// it is. Twice as many `u16` keys fit a vector as `u32` keys. P_core
/// takes no indexed load: each way's rank is a branch-free select over
/// the four table entries by core id. Wider sets, longer tables or larger
/// priorities take the full `u32` layout of [`way_key`]. Either way the
/// scan returns the victim way. Masked scans add a per-way keep word
/// from the mask bit: `key | !keep` is `key` for eligible ways and
/// all-ones for ineligible ones.
#[inline(always)]
fn lanes_n<const MASKED: bool>(p: &ScanParams, rows: &SetRows, n: usize, mask: u32) -> u16 {
    let (ages, stale, metas) = (&rows.ages[..n], &rows.staleness[..n], &rows.metas[..n]);
    let keep = |way: usize| {
        if MASKED {
            (mask >> (way % NARROW_WAYS)) & 1 != 0
        } else {
            true
        }
    };
    let top_rank = rows.core_rank.iter().copied().max().unwrap_or(0);
    let weight = p.age_weight.min(top_rank.saturating_add(3));
    let shift = WAY_BITS + (u8::BITS - p.max_staleness.leading_zeros());
    let code_max = u64::from(weight) + 2 + u64::from(top_rank);
    let narrow = n <= NARROW_WAYS
        && rows.core_rank.len() <= NARROW_RANKS
        && code_max < 1 << (u16::BITS - shift);
    if narrow {
        debug_assert!(stale.iter().all(|&s| s <= p.max_staleness), "staleness above its bound");
        let (weight, type_on, hit_on) =
            (weight as u16, u16::from(p.use_type), u16::from(p.use_hit));
        let key = |way: usize| {
            let meta = metas[way];
            let code = (u16::from(ages[way] <= p.rd).wrapping_neg() & weight)
                + (type_on & u16::from(meta & LineMeta::PREFETCH_BIT == 0))
                + (hit_on & u16::from(meta & LineMeta::HIT_MASK != 0));
            (code << shift) | (u16::from(stale[way]) << WAY_BITS) | way as u16
        };
        let mut best = u16::MAX;
        if rows.core_rank.is_empty() {
            for way in 0..n {
                best = best.min(key(way) | !u16::from(keep(way)).wrapping_neg());
            }
        } else {
            let cores = &rows.cores[..n];
            let mut table = [0u16; NARROW_RANKS];
            for (slot, &rank) in table.iter_mut().zip(rows.core_rank) {
                *slot = (rank as u16) << shift;
            }
            for (way, &core) in cores.iter().enumerate() {
                let rank = (0..NARROW_RANKS).fold(0, |sum, c| {
                    sum + (u16::from(usize::from(core) == c).wrapping_neg() & table[c])
                });
                best = best.min((key(way) + rank) | !u16::from(keep(way)).wrapping_neg());
            }
        }
        best & ((1 << WAY_BITS) - 1)
    } else {
        let cores = if rows.core_rank.is_empty() { ages } else { &rows.cores[..n] };
        let mut best = u32::MAX;
        for way in 0..n {
            let key = way_key(p, rows.core_rank, ages, stale, metas, cores, way);
            best = best.min(key | !u32::from(keep(way)).wrapping_neg());
        }
        (best & 0xFF) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScanParams {
        ScanParams { rd: 4, max_staleness: 15, age_weight: 8, use_type: true, use_hit: true }
    }

    fn metas(spec: &[(u8, bool)]) -> Vec<u8> {
        spec.iter()
            .map(|&(hits, pf)| {
                let mut m = LineMeta::filled(pf, !pf);
                m.set_hit_count(hits);
                m.bits()
            })
            .collect()
    }

    #[test]
    fn schedules_agree_on_a_mixed_set() {
        let ages = [10, 3, 1, 7, 0, 0, 8, 2, 5];
        let ranks = [8, 3, 1, 7, 0, 2, 6, 4, 5];
        let metas = metas(&[
            (0, false),
            (1, false),
            (0, true),
            (2, false),
            (0, true),
            (1, false),
            (0, false),
            (3, true),
            (0, false),
        ]);
        let cores = [0u8, 1, 2, 3, 0, 1, 9, 2, 3];
        let core_rank = [3u32, 2, 1, 0];
        let p = params();
        for staleness in [&ages, &ranks] {
            for core_rank in [&core_rank[..], &[]] {
                let rows =
                    SetRows { ages: &ages, staleness, metas: &metas, cores: &cores, core_rank };
                assert_eq!(scan_scalar(&p, &rows), scan_lanes(&p, &rows));
            }
        }
    }

    #[test]
    fn masked_schedules_agree_and_stay_inside_the_mask() {
        let ages = [10u8, 3, 1, 7, 0, 0, 8, 5, 9];
        let ranks = [8u8, 3, 1, 7, 0, 2, 6, 4, 5];
        let metas: Vec<u8> = (0..9)
            .map(|i| {
                let mut m = LineMeta::filled(i % 3 == 0, i % 3 != 0);
                m.set_hit_count((i % 2) as u8);
                m.bits()
            })
            .collect();
        let cores = [0u8, 1, 2, 0, 1, 2, 0, 1, 2];
        let core_rank = [2u32, 1, 0];
        let rows = SetRows {
            ages: &ages,
            staleness: &ranks,
            metas: &metas,
            cores: &cores,
            core_rank: &core_rank,
        };
        let p = params();
        for mask in 1u32..(1 << 9) {
            let scalar = scan_masked_scalar(&p, &rows, mask);
            assert_eq!(scalar, scan_masked_lanes(&p, &rows, mask), "mask {mask:#b}");
            assert!(mask & (1 << scalar) != 0, "victim outside mask {mask:#b}");
        }
        assert_eq!(scan_masked_lanes(&p, &rows, u32::MAX), scan_lanes(&p, &rows));
    }

    #[test]
    #[should_panic(expected = "no eligible way")]
    fn empty_mask_is_rejected() {
        let ages = [0u8; 4];
        let metas = [LineMeta::filled(false, true).bits(); 4];
        let rows =
            SetRows { ages: &ages, staleness: &ages, metas: &metas, cores: &[], core_rank: &[] };
        scan_masked_scalar(&params(), &rows, 0xF0);
    }

    /// Random rows at every age weight around the narrow key's cap of
    /// `top rank + 3`, with and without P_core tables (short enough for
    /// the narrow key or not), tight and loose staleness bounds, and sets
    /// too wide for the narrow key.
    #[test]
    fn narrow_and_wide_keys_agree_with_the_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let tables: [&[u32]; 5] = [&[], &[4, 1, 0], &[0, 3, 1, 2], &[2, 0, 5, 1, 3, 4], &[300]];
        for n in (1..=40).chain([64, 255, 256]) {
            for age_weight in 0..=9 {
                for core_rank in tables {
                    let ages: Vec<u8> = (0..n).map(|_| (next() % 6) as u8).collect();
                    let ranks: Vec<u8> = (0..n).map(|_| (next() % 4) as u8).collect();
                    let metas: Vec<u8> = (0..n).map(|_| next() as u8).collect();
                    let cores: Vec<u8> = (0..n).map(|_| (next() % 8) as u8).collect();
                    let p = ScanParams {
                        rd: (next() % 6) as u8,
                        max_staleness: [5, 7, 255][(next() % 3) as usize],
                        age_weight,
                        use_type: next() % 2 == 0,
                        use_hit: next() % 2 == 0,
                    };
                    for staleness in [&ages, &ranks] {
                        let rows = SetRows {
                            ages: &ages,
                            staleness,
                            metas: &metas,
                            cores: &cores,
                            core_rank,
                        };
                        assert_eq!(
                            scan_scalar(&p, &rows),
                            scan_lanes(&p, &rows),
                            "{n} ways, weight {age_weight}, ranks {core_rank:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every two-way set over the inputs that decide an order: age inside
    /// or outside RD, prefetch and hit bits, core (one past each table),
    /// staleness order, age weights around the cap, and each switch.
    #[test]
    fn every_two_way_order_matches_the_reference() {
        let tables: [&[u32]; 3] = [&[], &[4, 1, 0], &[0, 3, 1, 2]];
        let metas: Vec<u8> = (0..4u8)
            .map(|m| {
                let mut meta = LineMeta::filled(m & 1 != 0, m & 1 == 0);
                meta.set_hit_count(m >> 1);
                meta.bits()
            })
            .collect();
        for core_rank in tables {
            for age_weight in 0..=10 {
                for switches in 0..4 {
                    let p = ScanParams {
                        rd: 0,
                        max_staleness: 1,
                        age_weight,
                        use_type: switches & 1 != 0,
                        use_hit: switches & 2 != 0,
                    };
                    // Bits 0-1: ages; 2-5: metas; above: the core pair.
                    for case in 0..(1 << 6) * 5 * 5 {
                        let ages = [(case & 1) as u8, (case >> 1 & 1) as u8];
                        let meta = [metas[case >> 2 & 3], metas[case >> 4 & 3]];
                        let cores = [(case >> 6) as u8 % 5, (case >> 6) as u8 / 5];
                        for staleness in [[0, 1], [1, 0], [1, 1]] {
                            let rows = SetRows {
                                ages: &ages,
                                staleness: &staleness,
                                metas: &meta,
                                cores: &cores,
                                core_rank,
                            };
                            let lanes = scan_lanes(&p, &rows);
                            assert_eq!(scan_scalar(&p, &rows), lanes, "{rows:?} {p:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_tie_picks_the_lowest_way() {
        for n in 1..=20 {
            let ages = vec![5u8; n];
            let metas = vec![LineMeta::filled(false, true).bits(); n];
            let rows = SetRows {
                ages: &ages,
                staleness: &ages,
                metas: &metas,
                cores: &[],
                core_rank: &[],
            };
            assert_eq!(scan_lanes(&params(), &rows), 0, "{n} ways");
            assert_eq!(scan_scalar(&params(), &rows), 0, "{n} ways");
        }
    }
}
