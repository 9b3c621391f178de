//! The seed (pre-optimization) RLR implementation, frozen verbatim as a
//! differential oracle and benchmark baseline.
//!
//! [`SeedRlrPolicy`] is the policy exactly as it stood before the
//! hot-path overhaul: three parallel metadata arrays (`hit_count`,
//! `last_prefetch`, `last_demand`) where [`crate::RlrPolicy`] now packs
//! one [`crate::packed::LineMeta`] byte per line, and a victim scan that
//! recomputes each line's age three times where the packed policy
//! computes it once. Like every policy it reads no view of the set: the
//! per-line core that its `P_core` term needs lives in its own
//! `line_core` array, written on every hit and fill. The
//! `seed_equivalence` test drives both policies
//! through identical caches and requires identical decisions; the
//! `ci_smoke` bench measures the rewrite's speedup against it.
//! It is deliberately not maintained for speed; any behavioural change to
//! [`crate::RlrPolicy`] must be mirrored here first (and justified).

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::config::{AgeUnit, RecencyMode, RlrConfig};

/// Saturation bound of the per-core demand-hit counters (12-bit, §IV-D).
const CORE_HIT_MAX: u32 = (1 << 12) - 1;

/// Reinforcement Learned Replacement.
///
/// See the [crate-level documentation](crate) for the algorithm. Construct
/// with [`SeedRlrPolicy::optimized`], [`SeedRlrPolicy::unoptimized`],
/// [`SeedRlrPolicy::multicore`], or [`SeedRlrPolicy::with_config`] for ablations.
#[derive(Clone, Debug)]
pub struct SeedRlrPolicy {
    config: RlrConfig,
    ways: u16,
    /// Per-set access clock (unoptimized age unit + exact recency).
    access_clock: Vec<u64>,
    /// Per-set miss counter (optimized age unit).
    miss_count: Vec<u64>,
    /// Per-line: access-clock stamp at last touch.
    access_stamp: Vec<u64>,
    /// Per-line: miss-epoch stamp at last touch.
    epoch_stamp: Vec<u64>,
    /// Per-line: hits since insertion (saturating at the configured width).
    hit_count: Vec<u8>,
    /// Per-line: last access was a prefetch.
    last_prefetch: Vec<bool>,
    /// Per-line: last access was a demand access (for the RD filter).
    last_demand: Vec<bool>,
    /// Per-line: core that inserted or last touched the line (P_core).
    line_core: Vec<u8>,
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
    /// Total LLC accesses (drives core-priority re-ranking).
    accesses: u64,
}

impl SeedRlrPolicy {
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
            access_clock: vec![0; cache.sets as usize],
            miss_count: vec![0; cache.sets as usize],
            access_stamp: vec![0; lines],
            epoch_stamp: vec![0; lines],
            hit_count: vec![0; lines],
            last_prefetch: vec![false; lines],
            last_demand: vec![false; lines],
            line_core: vec![0; lines],
            // Start fully protective: until the estimator has observed real
            // preuse distances, every line stays inside RD and victim
            // selection falls to the (anti-thrash) recency tie-break.
            rd: config.max_age(),
            preuse_accum: 0,
            window_hits: 0,
            accesses_since_rd_update: 0,
            core_hits: vec![0; cores],
            core_priority: vec![0; cores],
            accesses: 0,
            config,
        }
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
            AgeUnit::MissEpochs { misses_per_epoch } => {
                self.miss_count[set as usize] / u64::from(misses_per_epoch)
            }
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
        self.accesses += 1;
        if !self.core_hits.is_empty() && self.accesses.is_multiple_of(self.config.core_update_period) {
            self.rerank_cores();
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

    /// The per-line priority `8·P_age + P_type + P_hit + P_core`.
    fn priority(&self, set: u32, way: u16) -> u32 {
        let i = self.idx(set, way);
        let p_age = u32::from(self.age(set, way) <= self.rd) * self.config.age_weight;
        let p_type = u32::from(self.config.use_type_priority && !self.last_prefetch[i]);
        let p_hit = u32::from(self.config.use_hit_priority && self.hit_count[i] > 0);
        let p_core = self
            .core_priority
            .get(usize::from(self.line_core[i]))
            .copied()
            .unwrap_or(0);
        p_age + p_type + p_hit + p_core
    }

    /// Tie-break key: larger = evicted first among equal priorities
    /// (the *most recently* accessed line goes, then the lowest way).
    fn recency_key(&self, set: u32, way: u16) -> u64 {
        match self.config.recency {
            RecencyMode::Exact => self.access_stamp[self.idx(set, way)],
            RecencyMode::AgeApprox => u64::MAX - self.age(set, way),
        }
    }
}

impl ReplacementPolicy for SeedRlrPolicy {
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
        let mut best: Option<(u32, u64, u16)> = None;
        for way in 0..self.ways {
            let p = self.priority(set, way);
            let rec = self.recency_key(set, way);
            // Strict comparisons keep the lowest way index on full ties.
            let better = match best {
                None => true,
                Some((bp, brec, _)) => p < bp || (p == bp && rec > brec),
            };
            if better {
                best = Some((p, rec, way));
            }
        }
        let (_, _, way) = best.expect("non-empty set");
        way
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
            !self.config.rd_ignores_non_demand_preuse || self.last_demand[i];
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
        self.hit_count[i] = (u32::from(self.hit_count[i]) + 1).min(hit_max) as u8;
        self.last_prefetch[i] = access.kind == AccessKind::Prefetch;
        self.last_demand[i] = access.kind.is_demand();
        self.line_core[i] = access.core;
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let i = self.idx(set, way);
        self.hit_count[i] = 0;
        self.last_prefetch[i] = access.kind == AccessKind::Prefetch;
        self.last_demand[i] = access.kind.is_demand();
        self.line_core[i] = access.core;
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

