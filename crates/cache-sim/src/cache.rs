//! A generic set-associative, write-back, write-allocate cache with a
//! pluggable replacement policy.
//!
//! This is the simulator's hot path. Two layout decisions keep it fast
//! without changing semantics (the [`crate::reference::ReferenceCache`]
//! oracle and the `dispatch_equivalence` test wall pin them down):
//!
//! * **Static dispatch.** The policy is a type parameter, so a concrete
//!   `SetAssocCache<TrueLru>` (or an enum of policies) monomorphizes every
//!   `on_hit`/`on_miss`/`select_victim`/`on_fill` call. The default
//!   parameter `Box<dyn ReplacementPolicy>` preserves the old dynamic
//!   behaviour for call sites that need runtime polymorphism.
//! * **Struct-of-arrays metadata.** Tags live in one contiguous `u64`
//!   array; valid and dirty bits are one `u32` bitmap per set. A lookup
//!   touches 8·ways bytes of tag plus 8 bytes of bitmap instead of
//!   24·ways bytes of `Line` structs, and the invalid-way scan is a single
//!   `trailing_zeros`. The tag store holds nothing a policy reads: a
//!   victim query is `select_victim(set, access)`, and every scan input
//!   lives in the policy's own tables.
//! * **Branch-free set probe.** For the 8- and 16-way geometries every
//!   paper cache uses, a lookup compares the set's tag row as a fixed
//!   `[u64; W]` array, ORs the compares into a match bitmap, masks it with
//!   the valid bitmap and takes `trailing_zeros`: the lowest valid matching
//!   way, where the ascending probe loop stops. Other widths keep that
//!   loop. [`SetAssocCache::access`] and [`SetAssocCache::contains`] share
//!   the probe.

use crate::access::{Access, AccessKind};
use crate::config::CacheConfig;
use crate::replacement::{LineSnapshot, ReplacementPolicy, TrueLru};
use crate::stats::CacheStats;

/// Maximum associativity: the width of the per-set valid/dirty bitmaps.
pub(crate) const MAX_WAYS: usize = 32;

/// The result of one cache access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit.
    pub hit: bool,
    /// The way that served or received the line: every miss allocates.
    pub way: u16,
    /// Line address of a dirty victim that must be written back below.
    pub writeback: Option<u64>,
    /// Line address of the evicted victim, dirty or clean.
    pub evicted: Option<u64>,
}

/// A set-associative cache.
///
/// Semantics, mirroring ChampSim's per-level behaviour:
///
/// * misses always allocate (write-allocate); writeback misses allocate the
///   line dirty without fetching from below,
/// * invalid ways are filled before the policy is consulted (lowest index
///   first),
/// * dirty victims produce a writeback to the level below,
/// * otherwise the way [`ReplacementPolicy::select_victim`] returns is
///   evicted; no fill is ever declined.
///
/// ```
/// use cache_sim::{Access, AccessKind, CacheConfig, SetAssocCache, TrueLru};
///
/// let cfg = CacheConfig { sets: 2, ways: 2, latency: 1 };
/// // Statically dispatched: P = TrueLru.
/// let mut cache = SetAssocCache::new("L1D", cfg, TrueLru::new(&cfg));
/// let a = Access { pc: 0, addr: 0x80, kind: AccessKind::Load, core: 0, seq: 0 };
/// assert!(!cache.access(&a).hit); // cold miss
/// assert!(cache.access(&a).hit); // now resident
/// ```
pub struct SetAssocCache<P: ReplacementPolicy = Box<dyn ReplacementPolicy>> {
    name: String,
    config: CacheConfig,
    /// Line address stored in each way, indexed `set * ways + way`.
    /// Meaningful only where the corresponding valid bit is set.
    tags: Vec<u64>,
    /// Per-set valid bitmap (bit `w` = way `w` holds a line).
    valid: Vec<u32>,
    /// Per-set dirty bitmap.
    dirty: Vec<u32>,
    /// Precomputed `sets - 1` for set indexing.
    set_mask: u64,
    /// Precomputed `(1 << ways) - 1`.
    ways_mask: u32,
    policy: P,
    stats: CacheStats,
    /// If set, RFO accesses dirty the line (used at L1, where RFO models a
    /// store; at L2/LLC an RFO is a read and data is dirtied only by a
    /// later writeback).
    rfo_dirties: bool,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates a cache with the given replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds the supported maximum (32).
    pub fn new(name: impl Into<String>, config: CacheConfig, policy: P) -> Self {
        assert!(
            (config.ways as usize) <= MAX_WAYS,
            "associativity above {MAX_WAYS} is not supported"
        );
        Self {
            name: name.into(),
            config,
            tags: vec![0; config.lines() as usize],
            valid: vec![0; config.sets as usize],
            dirty: vec![0; config.sets as usize],
            set_mask: u64::from(config.sets - 1),
            ways_mask: if config.ways as usize == MAX_WAYS {
                u32::MAX
            } else {
                (1u32 << config.ways) - 1
            },
            policy,
            stats: CacheStats::default(),
            rfo_dirties: false,
        }
    }

    /// Makes RFO accesses mark lines dirty (L1 store semantics).
    pub fn set_rfo_dirties(&mut self, dirties: bool) {
        self.rfo_dirties = dirties;
    }

    /// The cache's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents are preserved), used at the end
    /// of a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The replacement policy (e.g. to read policy-specific counters).
    /// Statically typed: no trait object involved.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Returns whether `addr`'s line is resident (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> 6;
        self.probe((line & self.set_mask) as usize, line) != 0
    }

    /// The valid ways of `set` that hold `line`, as a bitmap whose lowest
    /// set bit is the way the ascending probe stops at (a resident line
    /// sits in exactly one way, so at most one bit is set in practice).
    ///
    /// The 8- and 16-way geometries compare a fixed-width tag row without
    /// branches; other widths walk the valid ways and report the first
    /// match alone.
    #[inline(always)]
    fn probe(&self, set: usize, line: u64) -> u32 {
        let ways = self.config.ways as usize;
        let row = &self.tags[set * ways..(set + 1) * ways];
        let valid = self.valid[set];
        match ways {
            8 => match_mask::<8>(row.try_into().expect("8-way row"), line) & valid,
            16 => match_mask::<16>(row.try_into().expect("16-way row"), line) & valid,
            _ => {
                let mut probe = valid;
                while probe != 0 {
                    let w = probe.trailing_zeros();
                    if row[w as usize] == line {
                        return 1 << w;
                    }
                    probe &= probe - 1;
                }
                0
            }
        }
    }

    /// Number of valid lines in `set` (drawn from the valid bitmap).
    pub fn occupancy(&self, set: u32) -> u32 {
        self.valid[set as usize].count_ones()
    }

    /// The full per-way state of one set, reconstructed from the packed
    /// arrays — used by invariant tests to cross-check the bitmaps against
    /// per-line state and by debugging tooling.
    pub fn set_snapshot(&self, set: u32) -> Vec<LineSnapshot> {
        let base = set as usize * self.config.ways as usize;
        let valid = self.valid[set as usize];
        let dirty = self.dirty[set as usize];
        (0..self.config.ways as usize)
            .map(|w| LineSnapshot {
                valid: valid & (1 << w) != 0,
                line: if valid & (1 << w) != 0 { self.tags[base + w] } else { 0 },
                dirty: dirty & (1 << w) != 0,
            })
            .collect()
    }

    /// Performs one access: lookup, policy update, and fill on miss.
    #[inline]
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        let line = access.line();
        let set = (line & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;

        let hits = self.probe(set, line);
        if hits != 0 {
            let way = hits.trailing_zeros() as u16;
            self.stats.record(access.kind, true);
            if access.kind == AccessKind::Writeback
                || (self.rfo_dirties && access.kind == AccessKind::Rfo)
            {
                self.dirty[set] |= 1 << way;
            }
            self.policy.on_hit(set as u32, way, access);
            return AccessOutcome { hit: true, way, ..AccessOutcome::default() };
        }

        self.stats.record(access.kind, false);
        self.policy.on_miss(set as u32, access);

        // Fill the lowest-index invalid way the policy's fill mask allows
        // (the default mask is all-ones, so unpartitioned policies keep the
        // plain invalid-way scan).
        let free = !self.valid[set] & self.ways_mask & self.policy.fill_mask(access);
        let outcome = if free != 0 {
            AccessOutcome { way: free.trailing_zeros() as u16, ..AccessOutcome::default() }
        } else {
            let w = self.policy.select_victim(set as u32, access);
            assert!(
                (w as usize) < ways,
                "policy {} chose way {w} of {ways} in cache {}",
                self.policy.name(),
                self.name
            );
            self.evict(set, base, w)
        };

        let victim_way = outcome.way;
        self.valid[set] |= 1 << victim_way;
        self.tags[base + victim_way as usize] = line;
        let dirties = access.kind == AccessKind::Writeback
            || (self.rfo_dirties && access.kind == AccessKind::Rfo);
        if dirties {
            self.dirty[set] |= 1 << victim_way;
        } else {
            self.dirty[set] &= !(1 << victim_way);
        }
        self.policy.on_fill(set as u32, victim_way, access);
        outcome
    }

    /// Evicts way `w` of a full `set`, accounting the writeback if dirty.
    #[inline]
    fn evict(&mut self, set: usize, base: usize, w: u16) -> AccessOutcome {
        let victim_line = self.tags[base + w as usize];
        let writeback = (self.dirty[set] & (1 << w) != 0).then_some(victim_line);
        if writeback.is_some() {
            self.stats.writebacks_out += 1;
        }
        self.stats.evictions += 1;
        AccessOutcome { hit: false, way: w, writeback, evicted: Some(victim_line) }
    }
}

impl SetAssocCache<TrueLru> {
    /// Records a hit on `line`, resident in `way`, without probing the set
    /// or re-stamping the line's LRU age.
    ///
    /// Exact only when `line` is this cache's newest touch (the line its
    /// latest access hit or filled). The line then already holds the
    /// largest LRU stamp in the cache, so a re-stamp would leave the order
    /// of every set unchanged and no future victim can differ; the
    /// statistics and the dirty bit are updated as
    /// [`access`](Self::access) would update them.
    #[inline]
    pub fn repeat_hit(&mut self, line: u64, way: u16, kind: AccessKind) {
        let set = (line & self.set_mask) as usize;
        debug_assert!(
            self.valid[set] & (1 << way) != 0
                && self.tags[set * self.config.ways as usize + usize::from(way)] == line,
            "repeat_hit on a line that is not resident in way {way}"
        );
        debug_assert!(
            self.policy.is_newest(set as u32, way),
            "repeat_hit on a line that is not the cache's newest touch"
        );
        self.stats.record(kind, true);
        if kind == AccessKind::Writeback || (self.rfo_dirties && kind == AccessKind::Rfo) {
            self.dirty[set] |= 1 << way;
        }
    }
}

/// Bit `w` set where `row[w] == line`: `W` independent compares OR-ed into
/// a mask, which the compiler keeps free of branches.
#[inline(always)]
fn match_mask<const W: usize>(row: &[u64; W], line: u64) -> u32 {
    let mut mask = 0u32;
    for (w, &tag) in row.iter().enumerate() {
        mask |= u32::from(tag == line) << w;
    }
    mask
}

impl<P: ReplacementPolicy> std::fmt::Debug for SetAssocCache<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u32, ways: u16) -> SetAssocCache<TrueLru> {
        let cfg = CacheConfig { sets, ways, latency: 1 };
        SetAssocCache::new("test", cfg, TrueLru::new(&cfg))
    }

    fn load(addr: u64) -> Access {
        Access { pc: 0x400, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    fn writeback(addr: u64) -> Access {
        Access { pc: 0, addr, kind: AccessKind::Writeback, core: 0, seq: 0 }
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut c = cache(1, 4);
        for i in 0..4 {
            let out = c.access(&load(i * 64));
            assert!(!out.hit);
            assert!(out.evicted.is_none(), "no eviction while ways are free");
        }
        let out = c.access(&load(4 * 64));
        assert!(out.evicted.is_some(), "full set must evict");
    }

    #[test]
    fn lru_eviction_order_in_cache() {
        let mut c = cache(1, 2);
        c.access(&load(0)); // A
        c.access(&load(64)); // B
        c.access(&load(0)); // touch A
        let out = c.access(&load(128)); // must evict B
        assert_eq!(out.evicted, Some(1));
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn writeback_allocates_dirty_and_evicts_with_writeback() {
        let mut c = cache(1, 1);
        let out = c.access(&writeback(0));
        assert!(!out.hit);
        assert!(out.writeback.is_none());
        // Evicting the dirty line must produce a writeback below.
        let out = c.access(&load(64));
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = cache(1, 1);
        c.access(&load(0));
        let out = c.access(&load(64));
        assert!(out.writeback.is_none());
        assert_eq!(out.evicted, Some(0));
    }

    #[test]
    fn rfo_dirties_only_when_configured() {
        let mut l1 = cache(1, 2);
        l1.set_rfo_dirties(true);
        let rfo = Access { pc: 0, addr: 0, kind: AccessKind::Rfo, core: 0, seq: 0 };
        l1.access(&rfo);
        l1.access(&load(64));
        let out = l1.access(&load(128)); // evicts the RFO line (LRU)
        assert_eq!(out.writeback, Some(0), "L1 store line must be dirty");

        let mut l2 = cache(1, 2);
        let rfo2 = Access { pc: 0, addr: 0, kind: AccessKind::Rfo, core: 0, seq: 0 };
        l2.access(&rfo2);
        l2.access(&load(64));
        let out = l2.access(&load(128));
        assert!(out.writeback.is_none(), "L2 RFO line is clean until written back");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = cache(4, 2);
        c.access(&load(0));
        c.access(&load(0));
        c.access(&load(64 * 4)); // same set 0, different tag
        assert_eq!(c.stats().accesses(), 3);
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn same_line_different_sets_do_not_alias() {
        let mut c = cache(2, 1);
        c.access(&load(0)); // set 0
        c.access(&load(64)); // set 1
        assert!(c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = cache(2, 2);
        c.access(&load(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(&load(0)).hit, "contents survive stats reset");
    }

    #[test]
    fn boxed_policy_still_works_via_default_parameter() {
        let cfg = CacheConfig { sets: 2, ways: 2, latency: 1 };
        let mut c: SetAssocCache =
            SetAssocCache::new("dyn", cfg, Box::new(TrueLru::new(&cfg)) as Box<dyn ReplacementPolicy>);
        assert!(!c.access(&load(0)).hit);
        assert!(c.access(&load(0)).hit);
        assert_eq!(c.policy().name(), "LRU");
    }

    #[test]
    fn occupancy_follows_fills_and_full_width_sets_work() {
        // 32 ways exercises the full bitmap width (ways_mask == u32::MAX).
        let mut c = cache(1, 32);
        for i in 0..32 {
            c.access(&load(i * 64));
            assert_eq!(c.occupancy(0), i as u32 + 1);
        }
        let out = c.access(&load(32 * 64));
        assert!(out.evicted.is_some());
        assert_eq!(c.occupancy(0), 32);
    }

    /// LRU confined to a fixed slice of each set via `fill_mask`: victim
    /// selection considers only masked ways, mirroring what a partitioning
    /// policy does with the masked victim scan.
    struct SlicedLru {
        stamps: Vec<u64>,
        ways: u16,
        clock: u64,
        mask: u32,
    }

    impl ReplacementPolicy for SlicedLru {
        fn name(&self) -> String {
            "SlicedLRU".to_owned()
        }

        fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
            let base = set as usize * usize::from(self.ways);
            (0..self.ways)
                .filter(|&w| self.mask & (1 << w) != 0)
                .min_by_key(|&w| self.stamps[base + usize::from(w)])
                .expect("mask has eligible ways")
        }

        fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
            self.clock += 1;
            self.stamps[set as usize * usize::from(self.ways) + usize::from(way)] = self.clock;
        }

        fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
            assert!(self.mask & (1 << way) != 0, "fill escaped the slice");
            self.clock += 1;
            self.stamps[set as usize * usize::from(self.ways) + usize::from(way)] = self.clock;
        }

        fn overhead_bits(&self, config: &CacheConfig) -> u64 {
            config.lines() * u64::from(config.way_bits())
        }

        fn fill_mask(&self, _access: &Access) -> u32 {
            self.mask
        }
    }

    #[test]
    fn fill_mask_confines_fills_to_the_masked_ways() {
        let cfg = CacheConfig { sets: 1, ways: 4, latency: 1 };
        // Only ways 1 and 2 are eligible.
        let mut c = SetAssocCache::new(
            "sliced",
            cfg,
            SlicedLru { stamps: vec![0; cfg.lines() as usize], ways: cfg.ways, clock: 0, mask: 0b0110 },
        );
        for i in 0..8 {
            let out = c.access(&load(i * 64));
            let w = out.way;
            assert!(0b0110 & (1 << w) != 0, "fill landed outside the mask");
        }
        // Ways outside the slice never became valid.
        assert_eq!(c.occupancy(0), 2);
        // Evictions started once the two masked ways were exhausted.
        assert_eq!(c.stats().evictions, 6);
    }
}
