//! Per-cache statistics.

use crate::access::AccessKind;

/// Hit/miss counters for one access kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Accesses of this kind.
    pub accesses: u64,
    /// Hits of this kind.
    pub hits: u64,
}

impl KindCounts {
    /// Misses of this kind (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// Statistics for one cache level.
///
/// ```
/// use cache_sim::{AccessKind, CacheStats};
///
/// let mut s = CacheStats::default();
/// s.record(AccessKind::Load, true);
/// s.record(AccessKind::Load, false);
/// assert_eq!(s.demand_hits(), 1);
/// assert_eq!(s.demand_misses(), 1);
/// assert!((s.hit_rate() - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counters indexed by [`AccessKind::index`].
    pub by_kind: [KindCounts; 4],
    /// Dirty evictions sent to the level below.
    pub writebacks_out: u64,
    /// Fills declined by the cache. Always 0: every miss allocates. The
    /// field stays because checkpoint cells and benchmark digest lines
    /// carry it, and dropping it would change their bytes.
    pub bypasses: u64,
    /// Lines evicted (valid victims replaced).
    pub evictions: u64,
}

impl CacheStats {
    /// Records one access of `kind`.
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        let c = &mut self.by_kind[kind.index()];
        c.accesses += 1;
        if hit {
            c.hits += 1;
        }
    }

    /// Total accesses of all kinds.
    pub fn accesses(&self) -> u64 {
        self.by_kind.iter().map(|c| c.accesses).sum()
    }

    /// Total hits of all kinds.
    pub fn hits(&self) -> u64 {
        self.by_kind.iter().map(|c| c.hits).sum()
    }

    /// Total misses of all kinds.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Demand (load + RFO) accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.by_kind[0].accesses + self.by_kind[1].accesses
    }

    /// Demand (load + RFO) hits.
    pub fn demand_hits(&self) -> u64 {
        self.by_kind[0].hits + self.by_kind[1].hits
    }

    /// Demand (load + RFO) misses.
    pub fn demand_misses(&self) -> u64 {
        self.demand_accesses() - self.demand_hits()
    }

    /// Overall hit rate in `[0, 1]`; 0 if there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }

    /// Demand hit rate in `[0, 1]`; 0 if there were no demand accesses.
    pub fn demand_hit_rate(&self) -> f64 {
        if self.demand_accesses() == 0 {
            0.0
        } else {
            self.demand_hits() as f64 / self.demand_accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counters_are_separate() {
        let mut s = CacheStats::default();
        s.record(AccessKind::Prefetch, true);
        s.record(AccessKind::Writeback, false);
        s.record(AccessKind::Rfo, true);
        assert_eq!(s.by_kind[AccessKind::Prefetch.index()].hits, 1);
        assert_eq!(s.by_kind[AccessKind::Writeback.index()].misses(), 1);
        assert_eq!(s.demand_hits(), 1);
        assert_eq!(s.accesses(), 3);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.demand_hit_rate(), 0.0);
    }
}
