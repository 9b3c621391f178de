//! KPC-R: the replacement half of "Kill the Program Counter" (Kim et al.,
//! 2017) — the paper's strongest non-PC baseline.
//!
//! KPC-R is RRIP-based and uses global counters to adapt the insertion
//! depth between "near LRU" (RRPV 2) and "LRU" (RRPV 3) across program
//! phases, without any PC information. Prefetch fills always insert at
//! distant RRPV, and prefetch re-references promote only part-way, limiting
//! LLC pollution from the prefetcher.

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::rrip::{duel_role, DuelRole, RrpvTable, LONG_RRPV, MAX_RRPV};

/// Selector saturation (10-bit counter centred on zero).
const PSEL_MAX: i32 = 511;

/// The KPC-R replacement policy.
#[derive(Clone, Debug)]
pub struct KpcR {
    table: RrpvTable,
    /// Global phase selector: positive means near-LRU-insertion leaders are
    /// missing more, so followers insert at LRU (distant).
    psel: i32,
}

impl KpcR {
    /// Creates KPC-R for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self { table: RrpvTable::new(config), psel: 0 }
    }
}

impl ReplacementPolicy for KpcR {
    fn name(&self) -> String {
        "KPC-R".to_owned()
    }

    fn select_victim(&mut self, set: u32, access: &Access) -> u16 {
        if access.kind != AccessKind::Writeback {
            match duel_role(set) {
                DuelRole::LeaderA => self.psel = (self.psel + 1).min(PSEL_MAX),
                DuelRole::LeaderB => self.psel = (self.psel - 1).max(-PSEL_MAX - 1),
                DuelRole::Follower => {}
            }
        }
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        if access.kind == AccessKind::Prefetch {
            // Prefetch re-references promote only to "long", so lines kept
            // alive purely by the prefetcher still age out quickly.
            let current = self.table.get(set, way);
            self.table.set(set, way, current.min(LONG_RRPV));
        } else {
            self.table.set(set, way, 0);
        }
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let rrpv = if access.kind == AccessKind::Prefetch {
            // All prefetched lines are inserted at the LRU position.
            MAX_RRPV
        } else {
            match duel_role(set) {
                DuelRole::LeaderA => LONG_RRPV,
                DuelRole::LeaderB => MAX_RRPV,
                DuelRole::Follower => {
                    if self.psel <= 0 {
                        LONG_RRPV
                    } else {
                        MAX_RRPV
                    }
                }
            }
        };
        self.table.set(set, way, rrpv);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        // RRPVs plus the global selector and phase counters (~0.57 KB of
        // global state in the original proposal).
        RrpvTable::overhead_bits(config) + 10 + 4672
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 64, ways: 4, latency: 1 }
    }

    fn access(kind: AccessKind) -> Access {
        Access { pc: 0x400, addr: 0, kind, core: 0, seq: 0 }
    }

    #[test]
    fn prefetch_fills_insert_distant() {
        let mut p = KpcR::new(&cfg());
        p.on_fill(2, 0, &access(AccessKind::Prefetch));
        assert_eq!(p.table.get(2, 0), MAX_RRPV);
    }

    #[test]
    fn demand_hit_promotes_fully_prefetch_hit_partially() {
        let mut p = KpcR::new(&cfg());
        p.on_fill(2, 0, &access(AccessKind::Prefetch));
        p.on_hit(2, 0, &access(AccessKind::Prefetch));
        assert_eq!(p.table.get(2, 0), LONG_RRPV);
        p.on_hit(2, 0, &access(AccessKind::Load));
        assert_eq!(p.table.get(2, 0), 0);
    }

    #[test]
    fn followers_track_the_selector() {
        let mut p = KpcR::new(&cfg());
        for _ in 0..50 {
            let _ = p.select_victim(0, &access(AccessKind::Load));
        }
        assert!(p.psel > 0);
        p.on_fill(7, 0, &access(AccessKind::Load));
        assert_eq!(p.table.get(7, 0), MAX_RRPV, "followers insert distant when near-LRU leaders miss");
    }

    #[test]
    fn overhead_is_near_table_i() {
        let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
        let p = KpcR::new(&cfg);
        let kb = p.overhead_bits(&cfg) as f64 / 8.0 / 1024.0;
        // Table I reports 8.57 KB.
        assert!((8.0..9.2).contains(&kb), "KPC-R overhead {kb:.2} KB");
    }
}
