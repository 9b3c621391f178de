//! The policy *contract* shared by the fast cache and the reference oracle.
//!
//! Everything in this module is part of the behavioural specification: the
//! feature bucketings, the derived-rule scoring, the GDSF priority formula,
//! and the admission frequency sketch. Both [`crate::ObjectCache`] and
//! [`crate::ReferenceObjectCache`] call these functions; what they do *not*
//! share is the bookkeeping machinery (lazy victim heaps vs linear scans),
//! which is exactly what the differential wall cross-checks.
//!
//! All scoring is integer arithmetic so the two implementations can be
//! required to match bit-for-bit.

/// Fixed-point scale for the GDSF priority `H = L + freq * SCALE / size`.
/// With sizes up to a few MiB the per-object term stays >= 2^8, so unequal
/// sizes remain distinguishable after the integer division.
pub const GDSF_SCALE: u64 = 1 << 30;

/// Frequency cap shared by the eviction feature and the admission sketch
/// estimate (matches the 4-bit saturating counters the paper's hardware
/// budget allows).
pub const FREQ_CAP: u32 = 15;

/// Eviction + admission policy of an object cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjPolicyKind {
    /// Evict the least-recently-used object; admit everything that fits.
    Lru,
    /// Segmented LRU: new objects enter a probation segment and are promoted
    /// to a protected segment on re-reference; probation is evicted first.
    Slru,
    /// Greedy-Dual-Size-Frequency: evict the minimum `L + freq*SCALE/size`,
    /// inflating `L` to the victim's priority.
    Gdsf,
    /// The RLR-style derived rule: integer-weighted admission and eviction
    /// scores over object features (frequency, size, TTL slack), with
    /// recency as the tie-break.
    DerivedRlr(DerivedWeights),
}

impl ObjPolicyKind {
    /// Display / checkpoint name.
    pub fn name(&self) -> &'static str {
        match self {
            ObjPolicyKind::Lru => "LRU",
            ObjPolicyKind::Slru => "SLRU",
            ObjPolicyKind::Gdsf => "GDSF",
            ObjPolicyKind::DerivedRlr(_) => "RLR-derived",
        }
    }

    /// Parses a policy name as used by the CLI (`--policies lru,slru,...`).
    /// `rlr` / `derived` / `rlr-derived` resolve to the pinned
    /// [`DerivedWeights::paper_default`] rule.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "lru" => Some(ObjPolicyKind::Lru),
            "slru" => Some(ObjPolicyKind::Slru),
            "gdsf" => Some(ObjPolicyKind::Gdsf),
            "rlr" | "derived" | "rlr-derived" => {
                Some(ObjPolicyKind::DerivedRlr(DerivedWeights::paper_default()))
            }
            _ => None,
        }
    }

    /// All four roster policies with the pinned derived rule.
    pub fn roster() -> Vec<ObjPolicyKind> {
        vec![
            ObjPolicyKind::Lru,
            ObjPolicyKind::Slru,
            ObjPolicyKind::Gdsf,
            ObjPolicyKind::DerivedRlr(DerivedWeights::paper_default()),
        ]
    }
}

/// Integer weights of the derived admission + eviction rule — the output of
/// the paper's derivation loop (offline agent -> weight analysis ->
/// quantized rule) ported to object features.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DerivedWeights {
    /// Eviction: weight on the capped hit count.
    pub ev_freq: i32,
    /// Eviction: weight on the inverse-log-size feature (favors small).
    pub ev_size: i32,
    /// Eviction: weight on remaining-TTL slack.
    pub ev_ttl: i32,
    /// Admission: weight on the sketch frequency estimate.
    pub ad_freq: i32,
    /// Admission: weight on the inverse-log-size feature.
    pub ad_size: i32,
    /// Admission: weight on the full-TTL slack.
    pub ad_ttl: i32,
    /// Admit iff the admission score is >= this threshold.
    pub ad_threshold: i32,
}

impl DerivedWeights {
    /// The pinned rule used by `ObjPolicyKind::parse("rlr")`, tests, and the
    /// CLI default. Produced by `objcache::derive` on the
    /// `ObjectTraffic::internet_default()` trace (see `derive.rs` tests) and
    /// frozen here so results are stable across hosts.
    pub fn paper_default() -> Self {
        Self {
            ev_freq: 8,
            ev_size: 1,
            ev_ttl: 1,
            ad_freq: 8,
            ad_size: 1,
            ad_ttl: 0,
            ad_threshold: 51,
        }
    }

    /// Compact fingerprint for checkpoint keys: two derived rules with
    /// different weights must never share a sweep cell.
    pub fn fingerprint(&self) -> String {
        format!(
            "w{}/{}/{}|a{}/{}/{}|t{}",
            self.ev_freq, self.ev_size, self.ev_ttl, self.ad_freq, self.ad_size, self.ad_ttl,
            self.ad_threshold
        )
    }
}

/// `floor(log2(x))`, with `log2(0) = 0`.
#[inline]
pub fn ilog2(x: u64) -> u32 {
    if x == 0 { 0 } else { 63 - x.leading_zeros() }
}

/// Capped hit-count feature.
#[inline]
pub fn freq_feat(freq: u32) -> i64 {
    freq.min(FREQ_CAP) as i64
}

/// Inverse-log-size feature: larger for *smaller* objects, 0 at >= 4 MiB.
#[inline]
pub fn size_feat(size: u32) -> i64 {
    let l = ilog2(size.max(1) as u64).min(22);
    (22 - l) as i64
}

/// TTL-slack feature: `log2(seconds remaining + 1)`, capped at 15.
#[inline]
pub fn ttl_feat(remaining_ms: u64) -> i64 {
    ilog2(remaining_ms / 1000 + 1).min(15) as i64
}

/// Eviction priority of a resident object under the derived rule: the
/// lowest-priority object (ties broken by least-recent use) is evicted.
#[inline]
pub fn derived_priority(w: &DerivedWeights, freq: u32, size: u32, remaining_ms: u64) -> i64 {
    w.ev_freq as i64 * freq_feat(freq)
        + w.ev_size as i64 * size_feat(size)
        + w.ev_ttl as i64 * ttl_feat(remaining_ms)
}

/// Upper bound on `|derived_priority|` for max-magnitude-8 weights
/// (8 * (15 + 22 + 15) = 416, rounded up), used to keep ranks non-negative.
pub const DERIVED_PRIO_OFFSET: i64 = 512;

/// The derived rule's eviction *rank*: its priority shifted by the same
/// inflation mechanism GDSF uses (`L` = rank of the last victim). Without
/// inflation, a formerly hot object — a dead flash-crowd key, say — keeps a
/// high frequency score forever and pins its bytes; the rising waterline
/// ages it out exactly as it does for GDSF. Assigned at touch time; the
/// minimum `(rank, last_seq)` is the victim.
#[inline]
pub fn derived_rank(
    inflation: u64,
    w: &DerivedWeights,
    freq: u32,
    size: u32,
    remaining_ms: u64,
) -> u64 {
    let p = derived_priority(w, freq, size, remaining_ms) + DERIVED_PRIO_OFFSET;
    debug_assert!(p >= 0, "derived priority exceeded its offset bound");
    inflation + p.max(0) as u64
}

/// Admission score of a missing object; admit iff `>= w.ad_threshold`.
#[inline]
pub fn admission_score(w: &DerivedWeights, freq_est: u32, size: u32, ttl_ms: u64) -> i64 {
    w.ad_freq as i64 * freq_feat(freq_est)
        + w.ad_size as i64 * size_feat(size)
        + w.ad_ttl as i64 * ttl_feat(ttl_ms)
}

/// GDSF priority `H = L + freq * SCALE / size`.
#[inline]
pub fn gdsf_priority(inflation: u64, freq: u32, size: u32) -> u64 {
    inflation + (freq as u64 * GDSF_SCALE) / size.max(1) as u64
}

/// A tiny count-min sketch (2 hash rows folded into one array) feeding the
/// derived rule's admission frequency estimate. Records *every* request —
/// hits and misses — and halves all counters every 8192 requests so the
/// estimate tracks recent popularity. Fully deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreqSketch {
    counters: Vec<u8>,
    ops: u64,
}

const SKETCH_SLOTS: usize = 4096;
const SKETCH_AGE_PERIOD: u64 = 8192;
const SKETCH_SALT_A: u64 = 0x9E37_79B9_7F4A_7C15;
const SKETCH_SALT_B: u64 = 0xD1B5_4A32_D192_ED03;

impl FreqSketch {
    pub fn new() -> Self {
        Self { counters: vec![0; SKETCH_SLOTS], ops: 0 }
    }

    #[inline]
    fn slot(key: u64, salt: u64) -> usize {
        let mut x = key ^ salt;
        x = simrng::splitmix64(&mut x);
        (x as usize) & (SKETCH_SLOTS - 1)
    }

    /// Records one request for `key`.
    pub fn record(&mut self, key: u64) {
        self.ops += 1;
        let a = Self::slot(key, SKETCH_SALT_A);
        let b = Self::slot(key, SKETCH_SALT_B);
        self.counters[a] = self.counters[a].saturating_add(1);
        if b != a {
            self.counters[b] = self.counters[b].saturating_add(1);
        }
        if self.ops.is_multiple_of(SKETCH_AGE_PERIOD) {
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
    }

    /// Estimated request count for `key` (an overestimate, capped for the
    /// admission feature by [`freq_feat`]).
    pub fn estimate(&self, key: u64) -> u32 {
        let a = self.counters[Self::slot(key, SKETCH_SALT_A)];
        let b = self.counters[Self::slot(key, SKETCH_SALT_B)];
        a.min(b) as u32
    }
}

impl Default for FreqSketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilog2_matches_std() {
        for x in [1u64, 2, 3, 4, 1023, 1024, 1025, u64::MAX] {
            assert_eq!(ilog2(x), 63 - x.leading_zeros(), "x={x}");
        }
        assert_eq!(ilog2(0), 0);
    }

    #[test]
    fn sketch_counts_and_ages() {
        let mut s = FreqSketch::new();
        for _ in 0..5 {
            s.record(77);
        }
        assert!(s.estimate(77) >= 5);
        assert_eq!(s.estimate(123_456), 0);
        for i in 0..SKETCH_AGE_PERIOD {
            s.record(1_000_000 + i);
        }
        assert!(s.estimate(77) <= 3, "aging should halve stale counts");
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in ObjPolicyKind::roster() {
            assert_eq!(ObjPolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(ObjPolicyKind::parse("rlr"), ObjPolicyKind::parse("derived"));
        assert!(ObjPolicyKind::parse("belady").is_none());
    }
}
