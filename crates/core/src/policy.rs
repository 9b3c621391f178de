//! The RLR replacement policy (paper §IV).

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::config::{AgeUnit, RecencyMode, RlrConfig};
use crate::packed::LineMeta;
use crate::scan::{self, ScanParams, ScanWays};

/// Saturation bound of the per-core demand-hit counters (12-bit, §IV-D).
const CORE_HIT_MAX: u32 = (1 << 12) - 1;

/// Reinforcement Learned Replacement.
///
/// See the [crate-level documentation](crate) for the algorithm. Construct
/// with [`RlrPolicy::optimized`], [`RlrPolicy::unoptimized`],
/// [`RlrPolicy::multicore`], [`RlrPolicy::with_config`] for ablations, or
/// [`RlrPolicy::with_core_ranks`] for a fixed `P_core` table.
#[derive(Clone, Debug)]
pub struct RlrPolicy {
    config: RlrConfig,
    ways: u16,
    /// `log2(misses_per_epoch)` — epochs derive from the per-set miss
    /// counter with a shift (the width is validated to be a power of
    /// two); 0 when ages count set accesses.
    epoch_shift: u32,
    /// Per-set access clock (unoptimized age unit + exact recency).
    access_clock: Vec<u64>,
    /// Per-set miss counter (optimized age unit).
    miss_count: Vec<u64>,
    /// Per-line: access-clock stamp at last touch.
    access_stamp: Vec<u64>,
    /// Per-line: miss-epoch stamp at last touch.
    epoch_stamp: Vec<u64>,
    /// Per-line: hit counter plus both access-type flags, packed into one
    /// byte ([`LineMeta`]) so the victim scan touches a third of the
    /// metadata memory the unpacked layout did.
    meta: Vec<LineMeta>,
    /// Predicted reuse distance (age units).
    rd: u64,
    /// Preuse-distance accumulator over the current demand-hit window.
    preuse_accum: u64,
    /// Demand hits in the current window.
    window_hits: u32,
    /// LLC accesses since the last RD update (stale-RD escape).
    accesses_since_rd_update: u64,
    /// Per-line: core that inserted or last touched the line, written by
    /// `on_fill` and `on_hit` and read by the victim scan's `P_core` term
    /// (the cache keeps no per-line core of its own). Empty when P_core is
    /// off.
    line_core: Vec<u8>,
    /// Per-core demand-hit counters (multicore extension).
    core_hits: Vec<u32>,
    /// Per-core priority levels from the last re-ranking.
    core_priority: Vec<u32>,
    /// Accesses left until the next core re-ranking — a countdown instead
    /// of `accesses % period` so the hot path never divides. Unused
    /// (stays at the period) when P_core is off.
    until_rerank: u64,
}

impl RlrPolicy {
    /// The paper's final 16.75 KB design.
    pub fn optimized(cache: &CacheConfig) -> Self {
        Self::with_config(RlrConfig::optimized(), cache)
    }

    /// `RLR(unopt)`: the pre-optimization design.
    pub fn unoptimized(cache: &CacheConfig) -> Self {
        Self::with_config(RlrConfig::unoptimized(), cache)
    }

    /// The multicore extension for `cores` cores.
    pub fn multicore(cores: u8, cache: &CacheConfig) -> Self {
        Self::with_config(RlrConfig::multicore(cores), cache)
    }

    /// Builds RLR with an explicit configuration (used by the ablations).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RlrConfig::validate`].
    pub fn with_config(config: RlrConfig, cache: &CacheConfig) -> Self {
        config.validate();
        let lines = cache.lines() as usize;
        let cores = usize::from(config.core_priority_cores);
        Self {
            ways: cache.ways,
            epoch_shift: match config.age_unit {
                AgeUnit::SetAccesses => 0,
                AgeUnit::MissEpochs { misses_per_epoch } => misses_per_epoch.trailing_zeros(),
            },
            access_clock: vec![0; cache.sets as usize],
            miss_count: vec![0; cache.sets as usize],
            access_stamp: vec![0; lines],
            epoch_stamp: vec![0; lines],
            meta: vec![LineMeta::default(); lines],
            // Start fully protective: until the estimator has observed real
            // preuse distances, every line stays inside RD and victim
            // selection falls to the (anti-thrash) recency tie-break.
            rd: config.max_age(),
            preuse_accum: 0,
            window_hits: 0,
            accesses_since_rd_update: 0,
            line_core: if cores > 0 { vec![0; lines] } else { Vec::new() },
            core_hits: vec![0; cores],
            core_priority: vec![0; cores],
            until_rerank: config.core_update_period,
            config,
        }
    }

    /// Builds RLR whose `P_core` term reads the fixed per-core table
    /// `core_ranks`, never re-ranked (`core_priority_cores` stays 0); an
    /// empty table turns `P_core` off, as [`RlrPolicy::with_config`] does.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RlrConfig::validate`] or ranks
    /// cores itself, or if a rank overflows the victim key's 10-bit field.
    pub fn with_core_ranks(config: RlrConfig, cache: &CacheConfig, core_ranks: Vec<u32>) -> Self {
        assert_eq!(config.core_priority_cores, 0, "a fixed rank table replaces the hit ranking");
        let top = u64::from(core_ranks.iter().copied().max().unwrap_or(0));
        let fits = u64::from(config.age_weight) + 2 + top <= 1023;
        assert!(fits, "maximum line priority must fit the victim key's 10-bit field");
        let mut policy = Self::with_config(config, cache);
        if !core_ranks.is_empty() {
            policy.line_core = vec![0; cache.lines() as usize];
        }
        policy.core_priority = core_ranks;
        policy
    }

    /// The active configuration.
    pub fn config(&self) -> &RlrConfig {
        &self.config
    }

    /// The current predicted reuse distance (in age units).
    pub fn predicted_reuse_distance(&self) -> u64 {
        self.rd
    }

    fn idx(&self, set: u32, way: u16) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn current_epoch(&self, set: u32) -> u64 {
        match self.config.age_unit {
            AgeUnit::SetAccesses => 0,
            AgeUnit::MissEpochs { .. } => self.miss_count[set as usize] >> self.epoch_shift,
        }
    }

    /// The line's age in the configured unit, saturated to the counter
    /// width.
    fn age(&self, set: u32, way: u16) -> u64 {
        let i = self.idx(set, way);
        let raw = match self.config.age_unit {
            AgeUnit::SetAccesses => self.access_clock[set as usize] - self.access_stamp[i],
            AgeUnit::MissEpochs { .. } => self.current_epoch(set) - self.epoch_stamp[i],
        };
        raw.min(self.config.max_age())
    }

    /// Stamps a line as just-touched.
    fn touch(&mut self, set: u32, way: u16) {
        let epoch = self.current_epoch(set);
        let i = self.idx(set, way);
        self.access_stamp[i] = self.access_clock[set as usize];
        self.epoch_stamp[i] = epoch;
    }

    /// LLC accesses tolerated without an RD update before the estimate is
    /// considered stale. A workload phase that produces no demand hits
    /// (pure thrash) would otherwise freeze RD at a value from the
    /// previous phase and lock the policy into LRU-like churn.
    const RD_STALE_LIMIT: u64 = 2048;

    fn record_access(&mut self) {
        if !self.core_hits.is_empty() {
            self.until_rerank -= 1;
            if self.until_rerank == 0 {
                self.until_rerank = self.config.core_update_period;
                self.rerank_cores();
            }
        }
        self.accesses_since_rd_update += 1;
        if self.accesses_since_rd_update > Self::RD_STALE_LIMIT {
            // Stale-RD escape: fall back to full protection so the recency
            // tie-break (which pins an old subset) can re-establish hits.
            self.rd = self.config.max_age();
            self.accesses_since_rd_update = 0;
        }
    }

    /// Assigns priority levels by demand-hit frequency: the core with the
    /// most demand hits gets the highest level (§IV-D).
    fn rerank_cores(&mut self) {
        let mut order: Vec<usize> = (0..self.core_hits.len()).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(self.core_hits[c]));
        for (rank, &core) in order.iter().enumerate() {
            self.core_priority[core] = (self.core_hits.len() - 1 - rank) as u32;
        }
        // Decay so the ranking follows phases.
        for h in &mut self.core_hits {
            *h /= 2;
        }
    }

    /// [`ReplacementPolicy::select_victim`] over only the ways in `mask`
    /// (bit `w` = way `w`): ways outside it can never be the victim.
    /// Panics if `mask` names no way of the set.
    pub fn select_victim_masked(&self, set: u32, mask: u32) -> u16 {
        self.victim(set, Some(mask))
    }

    /// The victim of `set`, over every way or only the ways in `mask`.
    fn victim(&self, set: u32, mask: Option<u32>) -> u16 {
        // The victim scan is the policy's hot loop: every set-wide value
        // (clock/epoch, RD, the configuration knobs, the slice bases) is
        // hoisted here, and the per-way argmin over the packed
        // `(priority | staleness | way)` key runs in the lane-parallel
        // [`crate::scan`] kernel, bit-identical to its scalar reference
        // (see the module docs for the key layout and the
        // order-insensitivity argument).
        let ways = usize::from(self.ways);
        let base = self.idx(set, 0);
        let unit = self.config.age_unit;
        let params = ScanParams {
            now: match unit {
                AgeUnit::SetAccesses => self.access_clock[set as usize],
                AgeUnit::MissEpochs { .. } => self.current_epoch(set),
            },
            clock: self.access_clock[set as usize],
            rd: self.rd,
            max_age: self.config.max_age(),
            age_weight: self.config.age_weight,
            use_type: self.config.use_type_priority,
            use_hit: self.config.use_hit_priority,
            exact_recency: self.config.recency == RecencyMode::Exact,
        };
        let access_stamps = &self.access_stamp[base..base + ways];
        let scan_ways = ScanWays {
            age_stamps: match unit {
                AgeUnit::SetAccesses => access_stamps,
                AgeUnit::MissEpochs { .. } => &self.epoch_stamp[base..base + ways],
            },
            rec_stamps: access_stamps,
            metas: &self.meta[base..base + ways],
            cores: if self.line_core.is_empty() { &[] } else { &self.line_core[base..base + ways] },
            core_rank: &self.core_priority,
        };
        let outcome = match mask {
            None => scan::scan_lanes(&params, &scan_ways),
            Some(mask) => scan::scan_masked_lanes(&params, &scan_ways, mask),
        };
        outcome.victim()
    }
}

impl ReplacementPolicy for RlrPolicy {
    fn name(&self) -> String {
        match (self.config == RlrConfig::optimized(), self.config == RlrConfig::unoptimized()) {
            (true, _) => "RLR".to_owned(),
            (_, true) => "RLR(unopt)".to_owned(),
            _ if self.config.core_priority_cores > 0 => "RLR-MC".to_owned(),
            _ => "RLR(custom)".to_owned(),
        }
    }

    fn on_miss(&mut self, set: u32, _access: &Access) {
        self.access_clock[set as usize] += 1;
        self.miss_count[set as usize] += 1;
        self.record_access();
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.victim(set, None)
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        // The line's age at the moment of the hit is its preuse distance
        // (the hit itself does not count toward it).
        let preuse = self.age(set, way);
        self.access_clock[set as usize] += 1;
        self.record_access();

        // On a demand hit, feed the RD estimator (Fig. 9's accumulator) —
        // unless the line's previous touch was a prefetch or writeback, in
        // which case `preuse` measures prefetch timeliness or an L2
        // round-trip, not reuse.
        let i = self.idx(set, way);
        let counts_for_rd =
            !self.config.rd_ignores_non_demand_preuse || self.meta[i].last_demand();
        if access.kind.is_demand() {
            if counts_for_rd {
                self.preuse_accum += preuse;
                self.window_hits += 1;
            }
            if self.window_hits == self.config.demand_hit_window {
                let avg =
                    self.preuse_accum as f64 / f64::from(self.config.demand_hit_window);
                // Round to nearest: with coarse (epoch) age units, truncation
                // would collapse sub-unit averages to RD = 0 and disable the
                // age protection entirely. Hardware: add half before the
                // shift.
                self.rd = (avg * self.config.rd_multiplier).round() as u64;
                self.preuse_accum = 0;
                self.window_hits = 0;
                self.accesses_since_rd_update = 0;
            }
            if let Some(h) = self.core_hits.get_mut(usize::from(access.core)) {
                *h = (*h + 1).min(CORE_HIT_MAX);
            }
        }

        let hit_max = (1u32 << self.config.hit_bits) - 1;
        let meta = &mut self.meta[i];
        meta.set_hit_count((u32::from(meta.hit_count()) + 1).min(hit_max) as u8);
        meta.set_access_type(access.kind == AccessKind::Prefetch, access.kind.is_demand());
        // The line's core follows its latest touch, on hits as on fills
        // (the seed oracle's P_core reads the same rule).
        if let Some(core) = self.line_core.get_mut(i) {
            *core = access.core;
        }
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let i = self.idx(set, way);
        self.meta[i] =
            LineMeta::filled(access.kind == AccessKind::Prefetch, access.kind.is_demand());
        if let Some(core) = self.line_core.get_mut(i) {
            *core = access.core;
        }
        self.touch(set, way);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        let mut per_line = u64::from(self.config.age_bits) + u64::from(self.config.hit_bits);
        if self.config.use_type_priority {
            per_line += 1;
        }
        if self.config.recency == RecencyMode::Exact {
            per_line += u64::from(config.way_bits());
        }
        let mut bits = config.lines() * per_line;
        if let AgeUnit::MissEpochs { misses_per_epoch } = self.config.age_unit {
            bits += u64::from(config.sets) * u64::from(misses_per_epoch.trailing_zeros());
        }
        // Per-core demand-hit counters, 12 bits each (§IV-D).
        bits += u64::from(self.config.core_priority_cores) * 12;
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_cfg() -> CacheConfig {
        CacheConfig { sets: 4, ways: 4, latency: 1 }
    }

    fn access(kind: AccessKind, core: u8) -> Access {
        Access { pc: 0x400, addr: 0, kind, core, seq: 0 }
    }

    fn victim(p: &mut RlrPolicy, set: u32) -> u16 {
        p.select_victim(set, &access(AccessKind::Load, 0))
    }

    #[test]
    fn optimized_overhead_is_exactly_16_75_kb() {
        let llc = CacheConfig::with_capacity_kb(2048, 16, 26);
        let p = RlrPolicy::optimized(&llc);
        assert_eq!(p.overhead_bits(&llc), 16_75 * 1024 * 8 / 100); // 16.75 KB
        assert_eq!(p.overhead_bits(&llc), 137_216);
    }

    #[test]
    fn unreused_prefetched_line_is_evicted_first() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        for w in 0..4 {
            let kind = if w == 2 { AccessKind::Prefetch } else { AccessKind::Load };
            p.on_fill(0, w, &access(kind, 0));
        }
        assert_eq!(victim(&mut p, 0), 2, "P_type must doom the unreused prefetch");
    }

    #[test]
    fn reused_prefetched_line_is_protected() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        for w in 0..4 {
            let kind = if w == 2 { AccessKind::Prefetch } else { AccessKind::Load };
            p.on_fill(0, w, &access(kind, 0));
        }
        // A demand hit clears the prefetch type and sets the hit register.
        p.on_hit(0, 2, &access(AccessKind::Load, 0));
        let v = victim(&mut p, 0);
        assert_ne!(v, 2, "a reused prefetch must lose its eviction priority");
    }

    #[test]
    fn hit_register_protects_lines() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        for w in 0..4 {
            p.on_fill(0, w, &access(AccessKind::Load, 0));
        }
        p.on_hit(0, 0, &access(AccessKind::Load, 0));
        p.on_hit(0, 1, &access(AccessKind::Load, 0));
        p.on_hit(0, 3, &access(AccessKind::Load, 0));
        assert_eq!(victim(&mut p, 0), 2, "the only never-hit line must be evicted");
    }

    #[test]
    fn aged_out_line_loses_age_priority() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        p.rd = 3;
        for w in 0..4 {
            p.on_fill(0, w, &access(AccessKind::Load, 0));
        }
        // Age way 1 past RD by pushing misses through the set.
        for _ in 0..6 {
            p.on_miss(0, &access(AccessKind::Load, 0));
        }
        // Refresh all ways except way 1 (their age resets below RD).
        for w in [0u16, 2, 3] {
            p.on_hit(0, w, &access(AccessKind::Load, 0));
        }
        assert_eq!(victim(&mut p, 0), 1, "the line past RD has P_age = 0");
    }

    #[test]
    fn tie_breaks_evict_most_recent_with_exact_recency() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        // With a large RD every line keeps P_age, so all four lines tie;
        // fills happen in way order, so way 3 is the most recently inserted
        // and must be the victim.
        p.rd = 31;
        for w in 0..4 {
            p.on_miss(0, &access(AccessKind::Load, 0));
            p.on_fill(0, w, &access(AccessKind::Load, 0));
        }
        assert_eq!(victim(&mut p, 0), 3);
    }

    #[test]
    fn tie_breaks_use_lowest_way_with_age_approx() {
        let mut p = RlrPolicy::optimized(&cache_cfg());
        for w in 0..4 {
            p.on_fill(0, w, &access(AccessKind::Load, 0));
        }
        // All lines share age 0 (same epoch), so the lowest way goes.
        assert_eq!(victim(&mut p, 0), 0);
    }

    #[test]
    fn rd_is_twice_the_average_preuse() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        p.on_fill(0, 0, &access(AccessKind::Load, 0));
        // Produce 32 demand hits, each with preuse distance exactly 4:
        // 3 misses age the line by 3 (plus the hit's own tick pattern).
        for _ in 0..32 {
            for _ in 0..4 {
                p.on_miss(1, &access(AccessKind::Load, 0)); // other set: no aging here
                p.on_miss(0, &access(AccessKind::Load, 0)); // ages set 0 by 1
            }
            p.on_hit(0, 0, &access(AccessKind::Load, 0));
        }
        assert_eq!(p.predicted_reuse_distance(), 8, "RD = 2 x avg preuse (4)");
    }

    #[test]
    fn optimized_age_advances_once_per_eight_misses() {
        let mut p = RlrPolicy::optimized(&cache_cfg());
        p.on_fill(0, 0, &access(AccessKind::Load, 0));
        for _ in 0..7 {
            p.on_miss(0, &access(AccessKind::Load, 0));
        }
        assert_eq!(p.age(0, 0), 0, "still inside the first epoch");
        p.on_miss(0, &access(AccessKind::Load, 0));
        assert_eq!(p.age(0, 0), 1, "epoch rollover increments ages");
        for _ in 0..100 {
            p.on_miss(0, &access(AccessKind::Load, 0));
        }
        assert_eq!(p.age(0, 0), 3, "2-bit age saturates");
    }

    #[test]
    fn disabling_type_priority_removes_prefetch_penalty() {
        let mut cfg = RlrConfig::unoptimized();
        cfg.use_type_priority = false;
        let mut p = RlrPolicy::with_config(cfg, &cache_cfg());
        p.rd = 31; // neutralize P_age so only P_type could differ
        for w in 0..4 {
            let kind = if w == 2 { AccessKind::Prefetch } else { AccessKind::Load };
            p.on_miss(0, &access(kind, 0));
            p.on_fill(0, w, &access(kind, 0));
        }
        // Without P_type everything ties; exact recency evicts the newest.
        assert_eq!(victim(&mut p, 0), 3);
    }

    #[test]
    fn core_priority_protects_hit_rich_cores() {
        let llc = cache_cfg();
        let mut p = RlrPolicy::multicore(2, &llc);
        // Core 1 produces many demand hits; core 0 produces none.
        p.on_fill(0, 0, &access(AccessKind::Load, 1));
        for _ in 0..2100 {
            p.on_hit(0, 0, &access(AccessKind::Load, 1));
        }
        assert!(p.core_priority[1] > p.core_priority[0]);
        // Identical lines, way 0 from core 0 and the rest from core 1:
        // core 0's line must go first.
        let mut q = RlrPolicy::multicore(2, &llc);
        q.core_priority = p.core_priority.clone();
        for w in 0..4 {
            q.on_fill(1, w, &access(AccessKind::Load, u8::from(w > 0)));
        }
        assert_eq!(victim(&mut q, 1), 0, "low-hit core's line is the victim");
    }

    #[test]
    fn fixed_core_ranks_protect_high_rank_cores_and_never_rerank() {
        let mut p =
            RlrPolicy::with_core_ranks(RlrConfig::unoptimized(), &cache_cfg(), vec![0, 5]);
        p.rd = 31;
        for w in 0..4 {
            p.on_miss(0, &access(AccessKind::Load, (w % 2) as u8));
            p.on_fill(0, w, &access(AccessKind::Load, (w % 2) as u8));
        }
        // Demand hits from core 0 alone would re-rank a multicore policy.
        for _ in 0..2100 {
            p.on_hit(0, 0, &access(AccessKind::Load, 0));
        }
        assert_eq!(p.core_priority, [0, 5], "a fixed table is never re-ranked");
        assert_eq!(p.config().core_priority_cores, 0);
        // Way 0 was hit (and refreshed); way 2 is core 0's other line.
        assert_eq!(victim(&mut p, 0), 2, "the rank-0 core's line goes first");
    }

    #[test]
    fn empty_core_ranks_are_the_plain_policy() {
        let mut plain = RlrPolicy::unoptimized(&cache_cfg());
        let mut ranked =
            RlrPolicy::with_core_ranks(RlrConfig::unoptimized(), &cache_cfg(), Vec::new());
        for (w, core) in [(0u16, 1u8), (1, 0), (2, 1), (3, 0)] {
            for p in [&mut plain, &mut ranked] {
                p.on_miss(0, &access(AccessKind::Load, core));
                p.on_fill(0, w, &access(AccessKind::Load, core));
            }
        }
        assert!(ranked.line_core.is_empty());
        assert_eq!(victim(&mut ranked, 0), victim(&mut plain, 0));
    }

    #[test]
    fn masked_victims_stay_inside_the_mask() {
        let mut p = RlrPolicy::unoptimized(&cache_cfg());
        p.rd = 31;
        for w in 0..4 {
            p.on_miss(0, &access(AccessKind::Load, 0));
            p.on_fill(0, w, &access(AccessKind::Load, 0));
        }
        // Unmasked, exact recency evicts the newest fill (way 3).
        assert_eq!(victim(&mut p, 0), 3);
        assert_eq!(p.select_victim_masked(0, 0b0111), 2);
        assert_eq!(p.select_victim_masked(0, 0b0001), 0);
        assert_eq!(p.select_victim_masked(0, 0b1111), 3);
    }

    #[test]
    #[should_panic(expected = "replaces the hit ranking")]
    fn fixed_ranks_reject_a_multicore_config() {
        RlrPolicy::with_core_ranks(RlrConfig::multicore(2), &cache_cfg(), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "10-bit field")]
    fn fixed_ranks_must_fit_the_priority_field() {
        RlrPolicy::with_core_ranks(RlrConfig::unoptimized(), &cache_cfg(), vec![1014, 0]);
    }

    #[test]
    fn names_distinguish_variants() {
        let llc = cache_cfg();
        assert_eq!(RlrPolicy::optimized(&llc).name(), "RLR");
        assert_eq!(RlrPolicy::unoptimized(&llc).name(), "RLR(unopt)");
        assert_eq!(RlrPolicy::multicore(4, &llc).name(), "RLR-MC");
    }
}
