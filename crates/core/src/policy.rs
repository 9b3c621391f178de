//! The RLR replacement policy (paper §IV).

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::config::{AgeUnit, RecencyMode, RlrConfig};
use crate::packed::LineMeta;
use crate::scan::{self, ScanParams, SetRows};

/// Saturation bound of the per-core demand-hit counters (12-bit, §IV-D).
const CORE_HIT_MAX: u32 = (1 << 12) - 1;

/// Reinforcement Learned Replacement.
///
/// See the [crate-level documentation](crate) for the algorithm. Construct
/// with [`RlrPolicy::optimized`], [`RlrPolicy::unoptimized`],
/// [`RlrPolicy::multicore`], [`RlrPolicy::with_config`] for ablations, or
/// [`RlrPolicy::with_core_ranks`] for a fixed `P_core` table.
///
/// Per-line state is one byte per field, kept as rows: each set owns a
/// block of `ways`-byte rows — the age row, the [`LineMeta`] row, then
/// the exact-recency rank row (only under [`RecencyMode::Exact`]) and the
/// core row (only when `P_core` is on). A 16-way set's rows fit one
/// 64-byte host cache line.
#[derive(Clone, Debug)]
pub struct RlrPolicy {
    config: RlrConfig,
    ways: u16,
    /// Bytes per set: `ways` times the number of rows kept.
    stride: usize,
    /// Offset of the rank row within a set's block; `None` when recency
    /// is approximated by age.
    rank_row: Option<usize>,
    /// Offset of the core row within a set's block; `None` when P_core is
    /// off.
    core_row: Option<usize>,
    /// Every set's rows, `stride` bytes per set:
    /// * ages: saturating at [`RlrConfig::max_age`], 0 on touch, and +1
    ///   for the whole row at each set access (`SetAccesses`) or each
    ///   epoch rollover (`MissEpochs`);
    /// * metas: [`LineMeta::bits`];
    /// * ranks: 0 for the most recently touched way; never-touched ways
    ///   tie at the top rank `ways − 1`;
    /// * cores: the core that inserted or last touched the line.
    rows: Vec<u8>,
    /// Per-set miss count modulo `misses_per_epoch` (the hardware's 3-bit
    /// counter for the paper's 8); empty when ages count set accesses.
    miss_phase: Vec<u32>,
    /// `misses_per_epoch − 1` (validated to be a power of two).
    phase_mask: u32,
    /// [`RlrConfig::max_age`] as a byte (validated: `age_bits ≤ 8`).
    max_age: u8,
    /// Predicted reuse distance (age units).
    rd: u64,
    /// Preuse-distance accumulator over the current demand-hit window.
    preuse_accum: u64,
    /// Demand hits in the current window.
    window_hits: u32,
    /// LLC accesses since the last RD update (stale-RD escape).
    accesses_since_rd_update: u64,
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
    /// Panics if the configuration fails [`RlrConfig::validate`], or if
    /// the cache has more ways than a byte rank can order.
    pub fn with_config(config: RlrConfig, cache: &CacheConfig) -> Self {
        Self::build(config, cache, config.core_priority_cores > 0)
    }

    fn build(config: RlrConfig, cache: &CacheConfig, core_row: bool) -> Self {
        config.validate();
        let ways = usize::from(cache.ways);
        assert!(ways <= scan::MAX_SCAN_WAYS, "at most {} ways per set", scan::MAX_SCAN_WAYS);
        let exact = config.recency == RecencyMode::Exact;
        let rank_row = exact.then_some(2 * ways);
        let core_row = core_row.then_some((2 + usize::from(exact)) * ways);
        let stride = (2 + usize::from(exact) + usize::from(core_row.is_some())) * ways;
        let mut rows = vec![0; stride * cache.sets as usize];
        if let Some(at) = rank_row {
            for block in rows.chunks_exact_mut(stride) {
                block[at..at + ways].fill((ways - 1) as u8);
            }
        }
        let (miss_phase, phase_mask) = match config.age_unit {
            AgeUnit::SetAccesses => (Vec::new(), 0),
            AgeUnit::MissEpochs { misses_per_epoch } => {
                (vec![0; cache.sets as usize], misses_per_epoch - 1)
            }
        };
        let cores = usize::from(config.core_priority_cores);
        Self {
            ways: cache.ways,
            stride,
            rank_row,
            core_row,
            rows,
            miss_phase,
            phase_mask,
            max_age: config.max_age() as u8,
            // Start fully protective: until the estimator has observed real
            // preuse distances, every line stays inside RD and victim
            // selection falls to the (anti-thrash) recency tie-break.
            rd: config.max_age(),
            preuse_accum: 0,
            window_hits: 0,
            accesses_since_rd_update: 0,
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
        let mut policy = Self::build(config, cache, !core_ranks.is_empty());
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

    /// The byte offset of `set`'s block in `rows`.
    fn block(&self, set: u32) -> usize {
        set as usize * self.stride
    }

    fn ways(&self) -> usize {
        usize::from(self.ways)
    }

    /// The line's age in the configured unit, saturated to the counter
    /// width.
    fn age(&self, set: u32, way: u16) -> u64 {
        u64::from(self.rows[self.block(set) + usize::from(way)])
    }

    /// Ages every line of `set` by one, saturating at the counter width.
    fn age_set(&mut self, set: u32) {
        let (at, ways, max) = (self.block(set), self.ways(), self.max_age);
        for age in &mut self.rows[at..at + ways] {
            *age += u8::from(*age < max);
        }
    }

    /// Marks a line as just touched: age 0 and, under exact recency, the
    /// most recent rank, every more recent way moving down one.
    fn touch(&mut self, set: u32, way: u16) {
        let (at, way) = (self.block(set), usize::from(way));
        self.rows[at + way] = 0;
        if let Some(row) = self.rank_row {
            let ranks = &mut self.rows[at + row..at + row + usize::from(self.ways)];
            let old = ranks[way];
            for rank in ranks.iter_mut() {
                *rank += u8::from(*rank < old);
            }
            ranks[way] = 0;
        }
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
        // The per-way argmin over the packed `(priority | staleness | way)`
        // key runs in the lane-parallel [`crate::scan`] kernel over the
        // set's rows, bit-identical to its scalar reference (see the
        // module docs for the key layout and the order-insensitivity
        // argument).
        let ways = self.ways();
        let block = &self.rows[self.block(set)..self.block(set) + self.stride];
        let ages = &block[..ways];
        let params = ScanParams {
            rd: self.rd.min(255) as u8,
            max_staleness: if self.rank_row.is_some() { (ways - 1) as u8 } else { self.max_age },
            age_weight: self.config.age_weight,
            use_type: self.config.use_type_priority,
            use_hit: self.config.use_hit_priority,
        };
        let rows = SetRows {
            ages,
            staleness: self.rank_row.map_or(ages, |at| &block[at..at + ways]),
            metas: &block[ways..2 * ways],
            cores: self.core_row.map_or(&[], |at| &block[at..at + ways]),
            core_rank: &self.core_priority,
        };
        match mask {
            None => scan::scan_lanes(&params, &rows),
            Some(mask) => scan::scan_masked_lanes(&params, &rows, mask),
        }
    }

    /// The line's packed metadata.
    fn meta(&self, set: u32, way: u16) -> LineMeta {
        LineMeta::from_bits(self.rows[self.block(set) + self.ways() + usize::from(way)])
    }

    fn set_meta(&mut self, set: u32, way: u16, meta: LineMeta) {
        let at = self.block(set) + self.ways() + usize::from(way);
        self.rows[at] = meta.bits();
    }

    /// Records the core of a line's latest touch, when P_core reads it.
    fn set_core(&mut self, set: u32, way: u16, core: u8) {
        if let Some(row) = self.core_row {
            let at = self.block(set) + row + usize::from(way);
            self.rows[at] = core;
        }
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
        match self.config.age_unit {
            AgeUnit::SetAccesses => self.age_set(set),
            AgeUnit::MissEpochs { .. } => {
                let phase = &mut self.miss_phase[set as usize];
                *phase = (*phase + 1) & self.phase_mask;
                if *phase == 0 {
                    self.age_set(set);
                }
            }
        }
        self.record_access();
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.victim(set, None)
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        // The line's age at the moment of the hit is its preuse distance
        // (the hit itself does not count toward it).
        let preuse = self.age(set, way);
        if self.config.age_unit == AgeUnit::SetAccesses {
            self.age_set(set);
        }
        self.record_access();

        // On a demand hit, feed the RD estimator (Fig. 9's accumulator) —
        // unless the line's previous touch was a prefetch or writeback, in
        // which case `preuse` measures prefetch timeliness or an L2
        // round-trip, not reuse.
        let mut meta = self.meta(set, way);
        let counts_for_rd = !self.config.rd_ignores_non_demand_preuse || meta.last_demand();
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
        meta.set_hit_count((u32::from(meta.hit_count()) + 1).min(hit_max) as u8);
        meta.set_access_type(access.kind == AccessKind::Prefetch, access.kind.is_demand());
        self.set_meta(set, way, meta);
        // The line's core follows its latest touch, on hits as on fills
        // (the seed oracle's P_core reads the same rule).
        self.set_core(set, way, access.core);
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let meta = LineMeta::filled(access.kind == AccessKind::Prefetch, access.kind.is_demand());
        self.set_meta(set, way, meta);
        self.set_core(set, way, access.core);
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
        assert!(ranked.core_row.is_none());
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
