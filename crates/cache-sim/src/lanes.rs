//! Lane-parallel u64 min-reduction for victim scans.
//!
//! Victim selection across the workspace reduces a set to the minimum of a
//! packed per-way key whose low bits carry the way index. Because every key
//! is unique (the way disambiguates full ties), `min` over the keys is a
//! plain associative, commutative fold — the reduction order cannot change
//! the winner — so the scan can run as [`LANES`] independent accumulator
//! lanes that LLVM keeps in vector registers (or, on targets without an
//! unsigned 64-bit vector min, as independent scalar chains that still
//! break the serial dependency of a one-accumulator loop).
//!
//! Scans call [`min_key_lanes`]; [`min_key_scalar`] is the one-accumulator
//! reference the unit tests and the differential walls compare it with.

/// Accumulator lanes in the vectorized reduction.
pub const LANES: usize = 4;

/// One-accumulator reference reduction: the minimum key in `keys`.
///
/// # Panics
///
/// Panics when `keys` is empty (a victim scan always sees ≥ 1 way).
#[inline]
pub fn min_key_scalar(keys: &[u64]) -> u64 {
    assert!(!keys.is_empty(), "victim scan over an empty set");
    keys.iter().copied().fold(u64::MAX, u64::min)
}

/// Lane-parallel reduction: identical result to [`min_key_scalar`] for any
/// input, in any build, on any target — only the schedule differs.
///
/// # Panics
///
/// Panics when `keys` is empty (a victim scan always sees ≥ 1 way).
#[inline]
pub fn min_key_lanes(keys: &[u64]) -> u64 {
    assert!(!keys.is_empty(), "victim scan over an empty set");
    #[cfg(target_arch = "x86_64")]
    {
        // `vpminuq` needs AVX-512VL; detection results are cached by std.
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: feature presence was just verified at runtime.
            return unsafe { min_key_lanes_avx512(keys) };
        }
    }
    min_key_lanes_portable(keys)
}

/// [`min_key_lanes_portable`] compiled with the unsigned 64-bit vector min
/// available, so the lane accumulators become one `vpminuq` per stripe.
/// Same fold, same result — the wrapper only widens the registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn min_key_lanes_avx512(keys: &[u64]) -> u64 {
    min_key_lanes_portable(keys)
}

#[inline(always)]
fn min_key_lanes_portable(keys: &[u64]) -> u64 {
    let mut acc = [u64::MAX; LANES];
    let mut chunks = keys.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &k) in acc.iter_mut().zip(chunk) {
            *a = (*a).min(k);
        }
    }
    let mut best = acc.into_iter().fold(u64::MAX, u64::min);
    for &k in chunks.remainder() {
        best = best.min(k);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_all_lengths_and_positions() {
        for n in 1..=33usize {
            for min_at in 0..n {
                let keys: Vec<u64> =
                    (0..n).map(|i| if i == min_at { 7 } else { 1000 + i as u64 }).collect();
                assert_eq!(min_key_scalar(&keys), 7);
                assert_eq!(min_key_lanes(&keys), 7);
            }
        }
    }

    #[test]
    fn extreme_values_survive_both_backends() {
        let keys = [u64::MAX, u64::MAX - 1, 0, u64::MAX];
        assert_eq!(min_key_scalar(&keys), 0);
        assert_eq!(min_key_lanes(&keys), 0);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_scan_panics() {
        let _ = min_key_lanes(&[]);
    }
}
