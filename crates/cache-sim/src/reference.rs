//! The pre-optimization cache implementation, kept verbatim as a
//! differential oracle.
//!
//! [`ReferenceCache`] is the array-of-structs, `Box<dyn>`-dispatched cache
//! that [`crate::SetAssocCache`] replaced. It is deliberately *not*
//! maintained for speed: its job is to define the semantics. The
//! `dispatch_equivalence` test wall replays identical access streams
//! through both implementations and asserts bit-identical
//! [`AccessOutcome`] streams and [`CacheStats`], and the `ci_smoke` bench
//! measures the new path's speedup against it. Any behavioural change to
//! the hot path must first be mirrored here (and justified), which keeps
//! Table I / Fig. 1–13 outputs byte-stable across performance work.

use crate::access::{Access, AccessKind};
use crate::cache::AccessOutcome;
use crate::config::CacheConfig;
use crate::replacement::{LineSnapshot, ReplacementPolicy};
use crate::stats::CacheStats;

/// Maximum associativity (the packed cache's bitmap width).
const MAX_WAYS: usize = 32;

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    line: u64,
    dirty: bool,
}

/// The original set-associative cache: one `Line` struct per way, policy
/// behind a `Box<dyn ReplacementPolicy>`, linear lookup and invalid-way
/// scans. Semantically identical to [`crate::SetAssocCache`] by
/// construction (and by the differential test wall).
pub struct ReferenceCache {
    name: String,
    config: CacheConfig,
    lines: Vec<Line>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    rfo_dirties: bool,
}

impl ReferenceCache {
    /// Creates a cache with the given replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds the supported maximum (32).
    pub fn new(
        name: impl Into<String>,
        config: CacheConfig,
        policy: Box<dyn ReplacementPolicy>,
    ) -> Self {
        assert!(
            (config.ways as usize) <= MAX_WAYS,
            "associativity above {MAX_WAYS} is not supported"
        );
        Self {
            name: name.into(),
            config,
            lines: vec![Line::default(); config.lines() as usize],
            policy,
            stats: CacheStats::default(),
            rfo_dirties: false,
        }
    }

    /// Makes RFO accesses mark lines dirty (L1 store semantics).
    pub fn set_rfo_dirties(&mut self, dirties: bool) {
        self.rfo_dirties = dirties;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns whether `addr`'s line is resident (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.config.set_of(addr);
        let line = addr >> 6;
        self.set_lines(set).iter().any(|l| l.valid && l.line == line)
    }

    /// The (valid, line, dirty) state of one way, for cross-checking
    /// against the packed implementation.
    pub fn line_state(&self, set: u32, way: u16) -> LineSnapshot {
        let l = &self.lines[self.set_base(set) + way as usize];
        LineSnapshot { valid: l.valid, line: l.line, dirty: l.dirty }
    }

    fn set_base(&self, set: u32) -> usize {
        set as usize * self.config.ways as usize
    }

    fn set_lines(&self, set: u32) -> &[Line] {
        let base = self.set_base(set);
        &self.lines[base..base + self.config.ways as usize]
    }

    /// Performs one access: lookup, policy update, and fill on miss.
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        let set = self.config.set_of(access.addr);
        let line = access.line();
        let base = self.set_base(set);
        let ways = self.config.ways as usize;

        // Lookup.
        let mut hit_way = None;
        for w in 0..ways {
            let l = &self.lines[base + w];
            if l.valid && l.line == line {
                hit_way = Some(w as u16);
                break;
            }
        }

        if let Some(way) = hit_way {
            self.stats.record(access.kind, true);
            let l = &mut self.lines[base + way as usize];
            if access.kind == AccessKind::Writeback
                || (self.rfo_dirties && access.kind == AccessKind::Rfo)
            {
                l.dirty = true;
            }
            self.policy.on_hit(set, way, access);
            return AccessOutcome { hit: true, way, ..AccessOutcome::default() };
        }

        self.stats.record(access.kind, false);
        self.policy.on_miss(set, access);

        // Fill an invalid way if one exists.
        let invalid_way = (0..ways).find(|&w| !self.lines[base + w].valid).map(|w| w as u16);
        let outcome = if let Some(w) = invalid_way {
            AccessOutcome { hit: false, way: w, ..AccessOutcome::default() }
        } else {
            let w = self.policy.select_victim(set, access);
            assert!(
                (w as usize) < ways,
                "policy {} chose way {w} of {ways} in cache {}",
                self.policy.name(),
                self.name
            );
            let victim = self.lines[base + w as usize];
            let writeback = victim.dirty.then_some(victim.line);
            if writeback.is_some() {
                self.stats.writebacks_out += 1;
            }
            self.stats.evictions += 1;
            AccessOutcome { hit: false, way: w, writeback, evicted: Some(victim.line) }
        };

        let slot = &mut self.lines[base + outcome.way as usize];
        slot.valid = true;
        slot.line = line;
        slot.dirty = access.kind == AccessKind::Writeback
            || (self.rfo_dirties && access.kind == AccessKind::Rfo);
        self.policy.on_fill(set, outcome.way, access);
        outcome
    }
}

impl std::fmt::Debug for ReferenceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceCache")
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
    use crate::replacement::TrueLru;

    fn load(addr: u64) -> Access {
        Access { pc: 0x400, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn reference_cache_keeps_old_semantics() {
        let cfg = CacheConfig { sets: 1, ways: 2, latency: 1 };
        let mut c = ReferenceCache::new("ref", cfg, Box::new(TrueLru::new(&cfg)));
        c.access(&load(0));
        c.access(&load(64));
        c.access(&load(0));
        let out = c.access(&load(128)); // LRU evicts line 1
        assert_eq!(out.evicted, Some(1));
        assert!(c.contains(0));
        assert!(!c.contains(64));
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().hits(), 1);
    }
}
