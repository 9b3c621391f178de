//! EVA: Economic Value Added replacement (Beckmann & Sanchez, HPCA 2017).
//!
//! EVA ranks lines by the difference between the hits a line of a given age
//! is still expected to contribute and the cache space-time it is expected
//! to consume, priced at the cache's average hit rate per unit space-time.
//! Ages are tracked in coarse quanta; per-age hit and eviction counters are
//! folded into an EVA table periodically.
//!
//! This is a single-class implementation (no reused/non-reused
//! classification) of the published design; the paper reproduced here found
//! EVA slightly *below* LRU on its trace selection, which this
//! implementation also exhibits on prefetch-heavy workloads since EVA does
//! not model non-demand accesses.

use cache_sim::{Access, CacheConfig, ReplacementPolicy};

/// Number of coarse age buckets.
const AGE_BUCKETS: usize = 64;
/// Set accesses per age quantum.
const AGE_QUANTUM: u64 = 16;
/// Recompute the EVA table after this many recorded events.
const RECOMPUTE_PERIOD: u64 = 64 * 1024;

/// The EVA replacement policy.
#[derive(Clone, Debug)]
pub struct Eva {
    ways: u16,
    set_clock: Vec<u64>,
    stamp: Vec<u64>,
    hits: Vec<u64>,
    evictions: Vec<u64>,
    /// Rank per age bucket; the line whose age has the smallest rank is
    /// evicted.
    rank: Vec<f64>,
    events: u64,
}

impl Eva {
    /// Creates EVA for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            ways: config.ways,
            set_clock: vec![0; config.sets as usize],
            stamp: vec![0; config.lines() as usize],
            hits: vec![0; AGE_BUCKETS],
            evictions: vec![0; AGE_BUCKETS],
            // Until trained, prefer evicting older lines (LRU-like).
            rank: (0..AGE_BUCKETS).map(|a| -(a as f64)).collect(),
            events: 0,
        }
    }

    fn idx(&self, set: u32, way: u16) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn age_bucket(&self, set: u32, way: u16) -> usize {
        let age = self.set_clock[set as usize].saturating_sub(self.stamp[self.idx(set, way)]);
        ((age / AGE_QUANTUM) as usize).min(AGE_BUCKETS - 1)
    }

    fn record(&mut self, bucket: usize, hit: bool) {
        if hit {
            self.hits[bucket] += 1;
        } else {
            self.evictions[bucket] += 1;
        }
        self.events += 1;
        if self.events.is_multiple_of(RECOMPUTE_PERIOD) {
            self.recompute();
        }
    }

    /// Folds the event counters into per-age EVA values:
    /// `EVA(a) = (hits expected above age a − g · space-time above age a)
    ///           / lines reaching age a`,
    /// where `g` is the cache's overall hit rate per unit space-time.
    fn recompute(&mut self) {
        let total_hits: u64 = self.hits.iter().sum();
        let total_events: u64 = total_hits + self.evictions.iter().sum::<u64>();
        if total_events == 0 {
            return;
        }
        // Mean lifetime (in quanta) weighted by events ending at each age.
        let total_lifetime: u64 = (0..AGE_BUCKETS)
            .map(|a| (a as u64 + 1) * (self.hits[a] + self.evictions[a]))
            .sum();
        let g = total_hits as f64 / total_lifetime.max(1) as f64;

        let mut cum_hits = 0u64;
        let mut cum_events = 0u64;
        let mut cum_lifetime = 0u64;
        for a in (0..AGE_BUCKETS).rev() {
            cum_hits += self.hits[a];
            let events_here = self.hits[a] + self.evictions[a];
            cum_events += events_here;
            // Lines ending at age x >= a live (x - a + 1) further quanta.
            cum_lifetime += cum_events; // telescoping sum of remaining quanta
            self.rank[a] = if cum_events == 0 {
                // Never observed: treat like the oldest age.
                f64::NEG_INFINITY
            } else {
                (cum_hits as f64 - g * cum_lifetime as f64) / cum_events as f64
            };
        }
        for h in &mut self.hits {
            *h /= 2;
        }
        for e in &mut self.evictions {
            *e /= 2;
        }
    }
}

impl ReplacementPolicy for Eva {
    fn name(&self) -> String {
        "EVA".to_owned()
    }

    fn on_miss(&mut self, set: u32, _access: &Access) {
        self.set_clock[set as usize] += 1;
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        let mut victim = 0u16;
        let mut worst = f64::INFINITY;
        for w in 0..self.ways {
            let bucket = self.age_bucket(set, w);
            let value = self.rank[bucket];
            if value < worst {
                worst = value;
                victim = w;
            }
        }
        let bucket = self.age_bucket(set, victim);
        self.record(bucket, false);
        victim
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.set_clock[set as usize] += 1;
        let bucket = self.age_bucket(set, way);
        self.record(bucket, true);
        let i = self.idx(set, way);
        self.stamp[i] = self.set_clock[set as usize];
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        let i = self.idx(set, way);
        self.stamp[i] = self.set_clock[set as usize];
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        // Coarse per-line age (6 bits), per-set clock, event counters and
        // the EVA table (the published design's budget class).
        config.lines() * 6
            + u64::from(config.sets) * 8
            + (AGE_BUCKETS as u64) * 2 * 16
            + (AGE_BUCKETS as u64) * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::AccessKind;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 4, ways: 4, latency: 1 }
    }

    fn access(addr: u64) -> Access {
        Access { pc: 0, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn untrained_eva_behaves_like_lru() {
        let mut p = Eva::new(&cfg());
        for w in 0..4 {
            p.on_fill(0, w, &access(u64::from(w) * 64));
        }
        // Age way 0 by touching the others many times.
        for _ in 0..AGE_QUANTUM * 2 {
            for w in 1..4 {
                p.on_hit(0, w, &access(u64::from(w) * 64));
            }
        }
        let victim = p.select_victim(0, &access(999 * 64));
        assert_eq!(victim, 0, "oldest line evicted before training");
    }

    #[test]
    fn recompute_prefers_to_keep_hit_rich_ages() {
        let mut p = Eva::new(&cfg());
        // Most lines hit young (cheaply); a small population of dead lines
        // lingers to old age. The dead old lines must rank lowest.
        p.hits[2] = 50_000;
        p.evictions[40] = 10_000;
        p.recompute();
        assert!(
            p.rank[33] < p.rank[1],
            "old, hit-less ages ({}) must rank below young, hit-rich ages ({})",
            p.rank[33],
            p.rank[1]
        );
    }

    #[test]
    fn events_trigger_periodic_recompute() {
        let mut p = Eva::new(&cfg());
        let before = p.rank.clone();
        for i in 0..RECOMPUTE_PERIOD {
            p.on_hit(0, (i % 4) as u16, &access((i % 4) * 64));
        }
        assert_ne!(before, p.rank, "recompute must have produced a trained table");
    }
}
