//! The replacement-policy interface and the built-in reference policies.

use crate::access::Access;
use crate::config::CacheConfig;

/// A read-only view of one way's tag-store state, returned by
/// [`crate::SetAssocCache::set_snapshot`] and
/// [`crate::ReferenceCache::line_state`] so tests can compare the two
/// caches way by way. Policies never see it: they keep their own tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LineSnapshot {
    /// Whether the way holds a valid line.
    pub valid: bool,
    /// Line address (byte address >> 6) stored in the way; 0 when invalid.
    pub line: u64,
    /// Dirty bit.
    pub dirty: bool,
}

/// An LLC replacement policy.
///
/// The cache drives the policy with three callbacks:
///
/// * [`select_victim`](ReplacementPolicy::select_victim) — on a miss whose
///   set is full, pick the way to evict. Every miss allocates: no policy
///   can decline a fill.
/// * [`on_hit`](ReplacementPolicy::on_hit) — the access hit in `way`.
/// * [`on_fill`](ReplacementPolicy::on_fill) — the missing line was inserted
///   into `way` (after any eviction).
///
/// Policies keep all their per-line metadata internally, indexed by
/// `(set, way)`, exactly as the hardware tables they model would: the
/// victim query passes no view of the set, so anything a policy scans
/// (including the core that last touched a line) it records itself from
/// the `on_hit`/`on_fill` callbacks.
/// [`overhead_bits`](ReplacementPolicy::overhead_bits) reports that metadata
/// cost, reproducing Table I of the paper.
pub trait ReplacementPolicy: Send {
    /// Human-readable policy name (e.g. `"DRRIP"`).
    fn name(&self) -> String;

    /// Notifies the policy that `access` missed in `set`, before any victim
    /// selection or fill. Called for every miss, including fills into
    /// invalid ways, so policies can count set misses exactly.
    fn on_miss(&mut self, _set: u32, _access: &Access) {}

    /// Chooses the way to evict for `access`, which missed in full `set`.
    fn select_victim(&mut self, set: u32, access: &Access) -> u16;

    /// Notifies the policy that `access` hit in `(set, way)`.
    fn on_hit(&mut self, set: u32, way: u16, access: &Access);

    /// Notifies the policy that `access` was filled into `(set, way)`.
    fn on_fill(&mut self, set: u32, way: u16, access: &Access);

    /// Metadata storage in bits for a cache of this geometry.
    fn overhead_bits(&self, config: &CacheConfig) -> u64;

    /// Ways `access` is allowed to *fill* into, as a bitmap (bit `w` = way
    /// `w` eligible). The cache intersects this with its invalid-way scan
    /// before consulting [`select_victim`](ReplacementPolicy::select_victim),
    /// so a partitioning policy can confine each requestor to its slice of
    /// the set; the policy's own victim choice must respect the same mask.
    /// Lookups are unaffected — a hit is served wherever the line resides,
    /// exactly like hardware way-partitioning, which constrains allocation
    /// only. The default keeps every way eligible.
    fn fill_mask(&self, _access: &Access) -> u32 {
        u32::MAX
    }
}

/// Boxed policies behave exactly like the policy they wrap, so the generic
/// [`crate::SetAssocCache`] can fall back to dynamic dispatch
/// (`SetAssocCache<Box<dyn ReplacementPolicy>>`, the default type
/// parameter) wherever the concrete policy type is not known statically.
impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn on_miss(&mut self, set: u32, access: &Access) {
        (**self).on_miss(set, access);
    }

    fn select_victim(&mut self, set: u32, access: &Access) -> u16 {
        (**self).select_victim(set, access)
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        (**self).on_hit(set, way, access);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        (**self).on_fill(set, way, access);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        (**self).overhead_bits(config)
    }

    fn fill_mask(&self, access: &Access) -> u32 {
        (**self).fill_mask(access)
    }
}

/// Full (true) LRU with one recency counter per line.
///
/// Used as the default policy for L1/L2 and as the paper's baseline at the
/// LLC. Storage: `log2(ways)` bits per line (Table I: 16 KB for a 2 MB
/// 16-way LLC).
///
/// ```
/// use cache_sim::{CacheConfig, ReplacementPolicy, TrueLru};
///
/// let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
/// let lru = TrueLru::new(&cfg);
/// assert_eq!(lru.overhead_bits(&cfg), 16 * 8 * 1024); // 16 KB
/// ```
#[derive(Clone, Debug)]
pub struct TrueLru {
    ways: u16,
    /// Per-line recency stamp; larger = more recent. Indexed `set*ways+way`.
    stamps: Vec<u64>,
    clock: u64,
}

impl TrueLru {
    /// Creates an LRU policy for the given geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            ways: config.ways,
            stamps: vec![0; config.lines() as usize],
            clock: 0,
        }
    }

    fn idx(&self, set: u32, way: u16) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn touch(&mut self, set: u32, way: u16) {
        self.clock += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.clock;
    }

    /// Whether `(set, way)` holds the most recent touch in the whole cache
    /// (its stamp is the current clock).
    pub(crate) fn is_newest(&self, set: u32, way: u16) -> bool {
        self.clock > 0 && self.stamps[self.idx(set, way)] == self.clock
    }
}

impl ReplacementPolicy for TrueLru {
    fn name(&self) -> String {
        "LRU".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        // Min over packed keys `(stamp << way_bits) | way`. Stamps are
        // unique whenever non-zero (the clock ticks on every touch), and
        // zero-stamp ties resolve to the lowest way because the way sits in
        // the low bits — exactly the first-minimum the old `min_by_key`
        // scan returned. 6 way bits leave 2^58 clock ticks of headroom.
        // Keys are unique, so the fold's order cannot change the minimum:
        // four independent minima keep the compare chain short.
        let base = self.idx(set, 0);
        let stamps = &self.stamps[base..base + usize::from(self.ways)];
        let key = |way: usize| {
            debug_assert!(stamps[way] < 1 << 58, "LRU clock exceeds the packed-key range");
            (stamps[way] << 6) | way as u64
        };
        let mut lanes = [u64::MAX; 4];
        let quads = stamps.len() / 4 * 4;
        for first in (0..quads).step_by(4) {
            for (lane, min) in lanes.iter_mut().enumerate() {
                *min = (*min).min(key(first + lane));
            }
        }
        let tail = (quads..stamps.len()).map(key);
        let best = lanes.into_iter().chain(tail).fold(u64::MAX, u64::min);
        (best & 0x3F) as u16
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        self.touch(set, way);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        config.lines() * u64::from(config.way_bits())
    }

}

/// A trivial pseudo-random policy (xorshift), useful as a floor baseline
/// and for differential testing. Zero metadata.
#[derive(Clone, Debug)]
pub struct RandomLite {
    ways: u16,
    state: u64,
}

impl RandomLite {
    /// Creates the policy with a fixed internal seed.
    pub fn new(config: &CacheConfig) -> Self {
        Self { ways: config.ways, state: 0x9E37_79B9_7F4A_7C15 }
    }
}

impl ReplacementPolicy for RandomLite {
    fn name(&self) -> String {
        "Random".to_owned()
    }

    fn select_victim(&mut self, _set: u32, _access: &Access) -> u16 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state % u64::from(self.ways)) as u16
    }

    fn on_hit(&mut self, _set: u32, _way: u16, _access: &Access) {}

    fn on_fill(&mut self, _set: u32, _way: u16, _access: &Access) {}

    fn overhead_bits(&self, _config: &CacheConfig) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;

    fn access(addr: u64) -> Access {
        Access { pc: 0, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cfg = CacheConfig { sets: 1, ways: 4, latency: 1 };
        let mut lru = TrueLru::new(&cfg);
        for way in 0..4 {
            lru.on_fill(0, way, &access(way as u64 * 64));
        }
        lru.on_hit(0, 0, &access(0)); // way 0 becomes MRU; way 1 is now LRU
        assert_eq!(lru.select_victim(0, &access(999 * 64)), 1);
    }

    #[test]
    fn lru_victim_is_the_first_minimum_at_every_width() {
        for ways in 1..=32u16 {
            let cfg = CacheConfig { sets: 2, ways, latency: 1 };
            for victim in 0..ways {
                let mut lru = TrueLru::new(&cfg);
                // Set 1: every way filled, then all but `victim` touched.
                for way in 0..ways {
                    lru.on_fill(1, way, &access(0));
                }
                for way in (0..ways).rev().filter(|&w| w != victim) {
                    lru.on_hit(1, way, &access(0));
                }
                assert_eq!(lru.select_victim(1, &access(0)), victim);
                // Set 0: only the ways below `victim` touched; the untouched
                // ways tie at stamp 0 and the lowest of them wins.
                for way in 0..victim {
                    lru.on_fill(0, way, &access(0));
                }
                assert_eq!(lru.select_victim(0, &access(0)), victim);
            }
        }
    }

    #[test]
    fn lru_overhead_matches_table_i() {
        let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
        let lru = TrueLru::new(&cfg);
        // Table I: 16 KB for LRU in a 16-way 2 MB cache.
        assert_eq!(lru.overhead_bits(&cfg), 16 * 1024 * 8);
    }

    #[test]
    fn random_victims_are_in_range() {
        let cfg = CacheConfig { sets: 2, ways: 8, latency: 1 };
        let mut r = RandomLite::new(&cfg);
        for i in 0..100 {
            assert!(r.select_victim(0, &access(i * 64)) < 8);
        }
    }
}
