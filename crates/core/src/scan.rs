//! The RLR victim scan as a standalone, differential-testable kernel.
//!
//! [`RlrPolicy::select_victim`](crate::RlrPolicy) reduces a set to the
//! minimum of a packed per-way key:
//!
//! ```text
//! bits [54..64]  priority  (≤ 1023, enforced by RlrConfig::validate)
//! bits [16..54]  staleness (clock − stamp, saturated to 38 bits)
//! bits [ 0..16]  way index
//! ```
//!
//! Lowest priority loses, most-recent (smallest staleness) breaks priority
//! ties, and the way index in the low bits makes every key unique — so the
//! scan is an argmin over unique u64 keys, and `min` over them is an
//! associative, commutative fold whose result cannot depend on reduction
//! order. That order-insensitivity is what licenses the lane backend
//! ([`scan_lanes`]): four independent accumulator lanes consume the ways
//! in stripes, then a horizontal min merges the lanes; any non-multiple-of-
//! four remainder folds in scalarly. [`scan_scalar`] is the one-accumulator
//! reference, kept compiled beside it as the oracle of the differential
//! property suite (`tests/simd_scan_equivalence.rs`). The masked variants
//! ([`scan_masked_lanes`], [`scan_masked_scalar`]) restrict the argmin to
//! a way mask and share the same kernels.

use crate::packed::LineMeta;

/// Accumulator lanes in the vectorized scan.
pub const LANES: usize = 4;

/// Width mask of the staleness field: 38 bits cover ~2.7×10¹¹ set accesses
/// before the saturating clamp could fire.
pub const REC_MASK: u64 = (1 << 38) - 1;

/// Loop-invariant inputs of one victim scan, hoisted by the caller.
#[derive(Clone, Copy, Debug)]
pub struct ScanParams {
    /// Current value of the configured age clock (set accesses or epochs).
    pub now: u64,
    /// Current per-set access clock (exact-recency staleness).
    pub clock: u64,
    /// Predicted reuse distance, in age units.
    pub rd: u64,
    /// Saturation bound of the age counter.
    pub max_age: u64,
    /// Weight of the age term (`8` in the paper's P_line).
    pub age_weight: u32,
    /// Whether the type term (penalize unreused prefetches) is active.
    pub use_type: bool,
    /// Whether the hit term is active.
    pub use_hit: bool,
    /// Exact recency: staleness is `clock − access stamp` rather than the
    /// clamped age.
    pub exact_recency: bool,
}

/// Per-way inputs: parallel slices, one element per way.
#[derive(Clone, Copy, Debug)]
pub struct ScanWays<'a> {
    /// Stamp of the last touch in the configured age unit.
    pub age_stamps: &'a [u64],
    /// Stamp of the last touch on the per-set access clock.
    pub rec_stamps: &'a [u64],
    /// Packed hit/type metadata.
    pub metas: &'a [LineMeta],
    /// Core that inserted or last touched each way; consulted only when
    /// `core_rank` is non-empty. May be empty otherwise.
    pub cores: &'a [u8],
    /// Per-core priority levels; empty disables the P_core term.
    pub core_rank: &'a [u32],
}

/// What a scan found: the minimum packed key, victim way in the low 16
/// bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Minimum `(priority | staleness | way)` key over the set.
    pub best_key: u64,
}

impl ScanOutcome {
    /// The victim way encoded in the winning key.
    #[must_use]
    pub fn victim(self) -> u16 {
        (self.best_key & 0xFFFF) as u16
    }
}

/// Key of a single way — the shared per-element kernel of both backends,
/// so they can only differ in reduction schedule.
#[inline(always)]
fn way_key(p: &ScanParams, ways: &ScanWays, way: usize) -> u64 {
    let age = (p.now - ways.age_stamps[way]).min(p.max_age);
    let meta = ways.metas[way];
    let mut prio = u32::from(age <= p.rd) * p.age_weight
        + u32::from(p.use_type && !meta.last_prefetch())
        + u32::from(p.use_hit && meta.hit_count() > 0);
    if !ways.core_rank.is_empty() {
        let core = ways.cores[way];
        prio += ways.core_rank.get(usize::from(core)).copied().unwrap_or(0);
    }
    let staleness = if p.exact_recency { p.clock - ways.rec_stamps[way] } else { age };
    debug_assert!(prio < 1024, "priority must fit the key's 10-bit field");
    (u64::from(prio) << 54) | (staleness.min(REC_MASK) << 16) | way as u64
}

fn check_shape(ways: &ScanWays) -> usize {
    let n = ways.age_stamps.len();
    assert!(n > 0, "victim scan over an empty set");
    assert!(n <= 0xFFFF, "way index must fit the key's 16-bit field");
    assert_eq!(ways.rec_stamps.len(), n, "recency stamps must cover every way");
    assert_eq!(ways.metas.len(), n, "metadata must cover every way");
    if !ways.core_rank.is_empty() {
        assert_eq!(ways.cores.len(), n, "core ids must cover every way");
    }
    n
}

/// One-accumulator reference scan, compiled in every build as the oracle
/// for the lane backend.
pub fn scan_scalar(params: &ScanParams, ways: &ScanWays) -> ScanOutcome {
    let n = check_shape(ways);
    let mut best_key = u64::MAX;
    for way in 0..n {
        best_key = best_key.min(way_key(params, ways, way));
    }
    ScanOutcome { best_key }
}

/// Lane-parallel scan: [`LANES`] independent accumulators consume the ways
/// in stripes, the remainder folds in scalarly, and a horizontal min
/// merges the lanes. Identical result to [`scan_scalar`] for any input —
/// the keys are unique, so the min is reduction-order-insensitive.
pub fn scan_lanes(params: &ScanParams, ways: &ScanWays) -> ScanOutcome {
    by_core_mode::<false>(params, ways, 0)
}

/// Lane-parallel masked scan: the same stripe kernel as [`scan_lanes`],
/// with ineligible lanes forced to `u64::MAX` keys (so they can never win
/// the argmin). Identical result to [`scan_masked_scalar`] for any input.
///
/// Ineligible ways' stamps are still *read* (then discarded), which is
/// sound because every stamp in a set is written from the same per-set
/// clock and therefore never exceeds `now`/`clock`.
pub fn scan_masked_lanes(params: &ScanParams, ways: &ScanWays, mask: u32) -> ScanOutcome {
    by_core_mode::<true>(params, ways, mask)
}

/// Picks the P_core mode of one scan from the shape of its rank table.
#[inline(always)]
fn by_core_mode<const MASKED: bool>(
    params: &ScanParams,
    ways: &ScanWays,
    mask: u32,
) -> ScanOutcome {
    if ways.core_rank.is_empty() {
        dispatch::<CORE_OFF, MASKED>(params, ways, mask)
    } else if ways.core_rank.len() <= 8 && ways.core_rank.iter().all(|&r| r <= 0xFF) {
        // The common multicore shape (≤ 8 cores, tiny rank values): the
        // whole rank table packs into one u64 and the per-way lookup
        // becomes a variable shift, which vectorizes where a gather
        // cannot.
        dispatch::<CORE_PACKED, MASKED>(params, ways, mask)
    } else {
        dispatch::<CORE_GATHER, MASKED>(params, ways, mask)
    }
}

/// P_core is off ([`ScanWays::core_rank`] empty).
const CORE_OFF: u8 = 0;
/// P_core reads a rank table packed into one u64, one byte per core.
const CORE_PACKED: u8 = 1;
/// P_core falls back to an indexed load per way (rank table too big or
/// rank values too large to pack).
const CORE_GATHER: u8 = 2;

/// Routes one scan to the AVX-512VL kernel when the host has it and the
/// shape allows it, and to the portable body ([`scan_lanes_impl`])
/// otherwise. The intrinsics kernel mirrors the portable body term for
/// term on exact integers, so the result is bit-identical across hosts,
/// and the differential wall only ever has to compare two schedules
/// (scalar vs lanes), not one per ISA.
#[inline]
fn dispatch<const MODE: u8, const MASKED: bool>(
    params: &ScanParams,
    ways: &ScanWays,
    mask: u32,
) -> ScanOutcome {
    #[cfg(target_arch = "x86_64")]
    {
        // Detection results are cached by std; steady state is one
        // predictable load+branch per scan. The hand-vectorized kernel
        // implements neither way masks nor the (rare) gather fallback —
        // those shapes stay on the portable body.
        if !MASKED
            && MODE != CORE_GATHER
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: feature presence was just verified at runtime.
            return unsafe { avx512::scan::<MODE>(params, ways) };
        }
    }
    scan_lanes_impl::<MODE, MASKED>(params, ways, mask)
}

/// The hand-vectorized stripe kernel: AVX-512VL gives unsigned 64-bit
/// min (`vpminuq`), unsigned 64-bit compares into mask registers, and
/// per-lane variable shifts — everything the packed-key argmin needs as
/// single instructions over 4×u64 lanes. Autovectorization never fires
/// on the portable body (the mix of u8 widening, bool selects, and u64
/// min defeats SLP), so this path writes the lanes explicitly.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    use super::{
        way_key, ScanOutcome, ScanParams, ScanWays, CORE_PACKED, LANES, REC_MASK,
    };
    use crate::packed::LineMeta;

    /// Lane-by-lane identical to [`super::scan_lanes_impl`]: the same
    /// terms in the same widths, only expressed as explicit 256-bit ops.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vl` at runtime.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn scan<const MODE: u8>(params: &ScanParams, ways: &ScanWays) -> ScanOutcome {
        let n = super::check_shape(ways);
        let p = *params;
        let splat = |v: u64| _mm256_set1_epi64x(v as i64);
        let now = splat(p.now);
        let max_age = splat(p.max_age);
        let rd = splat(p.rd);
        let weight = splat(u64::from(p.age_weight));
        let type_on = splat(u64::from(p.use_type));
        let hit_on = splat(u64::from(p.use_hit));
        let clock = splat(p.clock);
        // All-ones selects the exact recency clock, all-zeros the age.
        let exact = splat((p.exact_recency as u64).wrapping_neg());
        let rec_mask = splat(REC_MASK);
        let pf_bit = splat(u64::from(LineMeta::PREFETCH_BIT));
        let hit_mask = splat(u64::from(LineMeta::HIT_MASK));
        // CORE_PACKED: the rank table as one u64, byte `c` = core c's rank.
        let rank_table = splat(
            ways.core_rank
                .iter()
                .enumerate()
                .fold(0u64, |t, (c, &r)| t | (u64::from(r) << (8 * c))),
        );
        let rank_len = splat(ways.core_rank.len() as u64);

        let mut best = splat(u64::MAX);
        let mut idx = _mm256_set_epi64x(3, 2, 1, 0);
        let step = splat(LANES as u64);
        let mut way = 0;
        while way + LANES <= n {
            // SAFETY: `check_shape` proved every slice holds `n` elements
            // and `way + LANES <= n`, so all four-lane loads are in
            // bounds; LineMeta is `repr(transparent)` over u8.
            let age_stamps =
                _mm256_loadu_si256(ways.age_stamps.as_ptr().add(way).cast::<__m256i>());
            let rec_stamps =
                _mm256_loadu_si256(ways.rec_stamps.as_ptr().add(way).cast::<__m256i>());
            let meta_bytes = ways.metas.as_ptr().add(way).cast::<u32>().read_unaligned();
            let metas = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(meta_bytes as i32));

            let age = _mm256_min_epu64(_mm256_sub_epi64(now, age_stamps), max_age);
            // P_age: + weight where age ≤ RD.
            let le_rd = _mm256_cmple_epu64_mask(age, rd);
            let mut prio = _mm256_maskz_mov_epi64(le_rd, weight);
            // P_type: + use_type where the last access was not a prefetch.
            let pf_clear = _mm256_testn_epi64_mask(metas, pf_bit);
            prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(pf_clear, type_on));
            // P_hit: + use_hit where the hit counter is non-zero.
            let hit_nz = _mm256_test_epi64_mask(metas, hit_mask);
            prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(hit_nz, hit_on));
            if MODE == CORE_PACKED {
                let core_bytes = ways.cores.as_ptr().add(way).cast::<u32>().read_unaligned();
                let cores = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(core_bytes as i32));
                // rank = byte `core` of the table, 0 when out of range.
                let keep = _mm256_cmplt_epu64_mask(cores, rank_len);
                let shift = _mm256_slli_epi64(_mm256_and_si256(cores, splat(7)), 3);
                let rank =
                    _mm256_and_si256(_mm256_srlv_epi64(rank_table, shift), splat(0xFF));
                prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(keep, rank));
            }
            // staleness = exact ? clock − rec_stamp : age, clamped.
            let rec = _mm256_sub_epi64(clock, rec_stamps);
            let staleness = _mm256_or_si256(
                _mm256_and_si256(exact, rec),
                _mm256_andnot_si256(exact, age),
            );
            let staleness = _mm256_min_epu64(staleness, rec_mask);
            let key = _mm256_or_si256(
                _mm256_or_si256(_mm256_slli_epi64(prio, 54), _mm256_slli_epi64(staleness, 16)),
                idx,
            );
            best = _mm256_min_epu64(best, key);
            idx = _mm256_add_epi64(idx, step);
            way += LANES;
        }

        let mut lanes = [0u64; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), best);
        let mut best_key = lanes.into_iter().fold(u64::MAX, u64::min);
        while way < n {
            best_key = best_key.min(way_key(params, ways, way));
            way += 1;
        }
        ScanOutcome { best_key }
    }
}

/// The lane kernel, monomorphized on the P_core mode and on whether a way
/// mask applies. The stripe body is branch-free u64 arithmetic over
/// fixed-size array views, so the compiler sees no bounds checks and no
/// data-dependent control flow; every term matches [`way_key`] bit for bit
/// (priority sums stay < 1024, so widening the math to u64 cannot change a
/// result, and in `CORE_PACKED` mode the byte extracted by the shift
/// equals the table entry the gather would load, with out-of-range cores
/// masked to the same 0). Masked scans add a per-lane keep word from the
/// mask bit: `key | !keep` is `key` for eligible lanes and `u64::MAX` for
/// ineligible ones — unmasked scans keep every lane, and the select folds
/// away.
#[inline(always)]
fn scan_lanes_impl<const MODE: u8, const MASKED: bool>(
    params: &ScanParams,
    ways: &ScanWays,
    mask: u32,
) -> ScanOutcome {
    let n = check_shape(ways);
    let mask = if MASKED { check_mask(mask, n) } else { 0 };
    let p = *params;
    let weight = u64::from(p.age_weight);
    let type_on = u64::from(p.use_type);
    let hit_on = u64::from(p.use_hit);
    // All-ones when staleness is the exact recency clock, all-zeros when it
    // reuses the clamped age — a branchless select below.
    let exact = (p.exact_recency as u64).wrapping_neg();
    // CORE_PACKED: the whole rank table as one u64, byte `c` holding
    // core `c`'s rank.
    let rank_table = if MODE == CORE_PACKED {
        ways.core_rank.iter().enumerate().fold(0u64, |t, (c, &r)| t | (u64::from(r) << (8 * c)))
    } else {
        0
    };
    let rank_len = ways.core_rank.len() as u64;
    let mut best = [u64::MAX; LANES];
    let mut way = 0;
    while way + LANES <= n {
        let stripe = way..way + LANES;
        let age_s: &[u64; LANES] = ways.age_stamps[stripe.clone()].try_into().expect("stripe");
        let rec_s: &[u64; LANES] = ways.rec_stamps[stripe.clone()].try_into().expect("stripe");
        let metas: &[LineMeta; LANES] = ways.metas[stripe.clone()].try_into().expect("stripe");
        let cores: &[u8; LANES] = if MODE == CORE_OFF {
            &[0; LANES]
        } else {
            ways.cores[stripe.clone()].try_into().expect("stripe")
        };
        for lane in 0..LANES {
            let keep = if MASKED {
                u64::from((mask >> (way + lane)) & 1).wrapping_neg()
            } else {
                u64::MAX
            };
            let age = (p.now - age_s[lane]).min(p.max_age);
            let meta = metas[lane];
            let mut prio = u64::from(age <= p.rd) * weight
                + (type_on & u64::from(!meta.last_prefetch()))
                + (hit_on & u64::from(meta.hit_count() > 0));
            if MODE == CORE_PACKED {
                let core = u64::from(cores[lane]);
                let in_table = ((core < rank_len) as u64).wrapping_neg();
                prio += (rank_table >> ((core & 7) * 8)) & 0xFF & in_table;
            } else if MODE == CORE_GATHER {
                let core = usize::from(cores[lane]);
                prio += u64::from(ways.core_rank.get(core).copied().unwrap_or(0));
            }
            // wrapping_sub: the difference is only meaningful (and only
            // kept) when `exact` selects it, and then rec ≤ clock holds.
            let staleness = (exact & p.clock.wrapping_sub(rec_s[lane])) | (!exact & age);
            let key = (prio << 54) | (staleness.min(REC_MASK) << 16) | (way + lane) as u64;
            best[lane] = best[lane].min(key | !keep);
        }
        way += LANES;
    }
    let mut best_key = best.into_iter().fold(u64::MAX, u64::min);
    while way < n {
        if !MASKED || mask & (1 << way) != 0 {
            best_key = best_key.min(way_key(params, ways, way));
        }
        way += 1;
    }
    ScanOutcome { best_key }
}

/// Validates a way mask for the masked scan: at least one eligible way,
/// and a set narrow enough for the 32-bit mask to cover.
fn check_mask(mask: u32, n: usize) -> u32 {
    assert!(n <= 32, "masked scans cover at most 32 ways");
    let set_bits = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mask = mask & set_bits;
    assert!(mask != 0, "masked scan with no eligible way");
    mask
}

/// One-accumulator reference for the masked scan: identical to
/// [`scan_scalar`] over the subset of ways whose bit is set in `mask`.
/// Ineligible ways contribute no key, so a partitioned victim scan can
/// never name a way outside its mask.
pub fn scan_masked_scalar(params: &ScanParams, ways: &ScanWays, mask: u32) -> ScanOutcome {
    let n = check_shape(ways);
    let mask = check_mask(mask, n);
    let mut best_key = u64::MAX;
    for way in 0..n {
        if mask & (1 << way) != 0 {
            best_key = best_key.min(way_key(params, ways, way));
        }
    }
    ScanOutcome { best_key }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScanParams {
        ScanParams {
            now: 10,
            clock: 10,
            rd: 4,
            max_age: 31,
            age_weight: 8,
            use_type: true,
            use_hit: true,
            exact_recency: true,
        }
    }

    #[test]
    fn backends_agree_on_a_mixed_set() {
        let age_stamps = [0, 7, 9, 3, 10, 10, 2];
        let rec_stamps = [1, 7, 9, 3, 10, 10, 2];
        let metas: Vec<LineMeta> = [(0u8, false), (1, false), (0, true), (2, false), (0, true), (1, false), (0, false)]
            .iter()
            .map(|&(hits, pf)| {
                let mut m = LineMeta::filled(pf, !pf);
                m.set_hit_count(hits);
                m
            })
            .collect();
        let cores = [0u8, 1, 2, 3, 0, 1, 9];
        let core_rank = [3u32, 2, 1, 0];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &rec_stamps,
            metas: &metas,
            cores: &cores,
            core_rank: &core_rank,
        };
        let p = params();
        assert_eq!(scan_scalar(&p, &ways), scan_lanes(&p, &ways));
        assert_eq!(scan_lanes(&p, &ways), scan_scalar(&p, &ways));
    }

    #[test]
    fn masked_backends_agree_and_stay_inside_the_mask() {
        let age_stamps = [0u64, 7, 9, 3, 10, 10, 2, 5, 1];
        let rec_stamps = [1u64, 7, 9, 3, 10, 10, 2, 5, 1];
        let metas: Vec<LineMeta> = (0..9)
            .map(|i| {
                let mut m = LineMeta::filled(i % 3 == 0, i % 3 != 0);
                m.set_hit_count((i % 2) as u8);
                m
            })
            .collect();
        let cores = [0u8, 1, 2, 0, 1, 2, 0, 1, 2];
        let core_rank = [2u32, 1, 0];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &rec_stamps,
            metas: &metas,
            cores: &cores,
            core_rank: &core_rank,
        };
        let p = params();
        for mask in 1u32..(1 << 9) {
            let scalar = scan_masked_scalar(&p, &ways, mask);
            let lanes = scan_masked_lanes(&p, &ways, mask);
            assert_eq!(scalar, lanes, "mask {mask:#b}");
            assert!(mask & (1 << scalar.victim()) != 0, "victim outside mask {mask:#b}");
        }
    }

    #[test]
    fn full_mask_matches_the_unmasked_scan() {
        let age_stamps = [0u64, 7, 9, 3, 10, 10, 2];
        let metas = vec![LineMeta::filled(false, true); 7];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        let p = params();
        assert_eq!(scan_masked_lanes(&p, &ways, u32::MAX), scan_lanes(&p, &ways));
    }

    #[test]
    #[should_panic(expected = "no eligible way")]
    fn empty_mask_is_rejected() {
        let age_stamps = [0u64; 4];
        let metas = vec![LineMeta::filled(false, true); 4];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        scan_masked_scalar(&params(), &ways, 0xF0);
    }

    #[test]
    fn full_tie_picks_the_lowest_way() {
        let age_stamps = [5u64; 6];
        let metas = vec![LineMeta::filled(false, true); 6];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        let p = params();
        assert_eq!(scan_lanes(&p, &ways).victim(), 0);
        assert_eq!(scan_scalar(&p, &ways).victim(), 0);
    }
}
