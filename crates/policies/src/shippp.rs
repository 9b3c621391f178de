//! SHiP++: the enhanced signature-based hit predictor (Young et al.,
//! CRC2 2017), the strongest PC-based baseline in the paper's single-core
//! results.

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::pc_signature;
use crate::rrip::{RrpvTable, LONG_RRPV, MAX_RRPV};

/// Signature width in bits.
const SIG_BITS: u32 = 14;
/// Signature history counter table entries.
const SHCT_ENTRIES: usize = 1 << SIG_BITS;
/// SHCT counter ceiling (3-bit counters in SHiP++).
const SHCT_MAX: u8 = 7;
/// One of every `SAMPLE_PERIOD` sets carries training metadata.
const SAMPLE_PERIOD: u32 = 8;
/// Salt mixed into prefetch signatures so prefetches train separately.
const PREFETCH_SALT: u64 = 0x5A5A_5A5A_0000_0000;

/// SHiP++, implementing the five published enhancements over SHiP:
///
/// 1. fills whose signature counter is saturated insert at RRPV 0,
/// 2. the SHCT is trained only on a line's *first* re-reference,
/// 3. writeback fills insert at distant RRPV 3,
/// 4. prefetch accesses use a separate signature space,
/// 5. re-references by prefetch accesses do not promote the line.
#[derive(Clone, Debug)]
pub struct ShipPp {
    table: RrpvTable,
    shct: Vec<u8>,
    ways: u16,
    sampler_sig: Vec<u16>,
    sampler_reused: Vec<bool>,
    sampler_valid: Vec<bool>,
}

impl ShipPp {
    /// Creates SHiP++ for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        let sampled_lines =
            (config.sets as usize).div_ceil(SAMPLE_PERIOD as usize) * config.ways as usize;
        Self {
            table: RrpvTable::new(config),
            shct: vec![0; SHCT_ENTRIES],
            ways: config.ways,
            sampler_sig: vec![0; sampled_lines],
            sampler_reused: vec![false; sampled_lines],
            sampler_valid: vec![false; sampled_lines],
        }
    }

    fn signature(access: &Access) -> u16 {
        let pc = if access.kind == AccessKind::Prefetch {
            access.pc ^ PREFETCH_SALT
        } else {
            access.pc
        };
        pc_signature(pc, SIG_BITS) as u16
    }

    fn sampler_slot(&self, set: u32, way: u16) -> Option<usize> {
        set.is_multiple_of(SAMPLE_PERIOD)
            .then(|| (set / SAMPLE_PERIOD) as usize * self.ways as usize + way as usize)
    }
}

impl ReplacementPolicy for ShipPp {
    fn name(&self) -> String {
        "SHiP++".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        // Enhancement 5: prefetch re-references leave the RRPV untouched.
        if access.kind != AccessKind::Prefetch {
            self.table.set(set, way, 0);
        }
        if let Some(slot) = self.sampler_slot(set, way) {
            // Enhancement 2: only the first re-reference trains the SHCT.
            if self.sampler_valid[slot] && !self.sampler_reused[slot] {
                self.sampler_reused[slot] = true;
                let sig = self.sampler_sig[slot] as usize;
                self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
            }
        }
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let sig = Self::signature(access);
        if let Some(slot) = self.sampler_slot(set, way) {
            if self.sampler_valid[slot] && !self.sampler_reused[slot] {
                let old = self.sampler_sig[slot] as usize;
                self.shct[old] = self.shct[old].saturating_sub(1);
            }
            self.sampler_sig[slot] = sig;
            self.sampler_reused[slot] = false;
            self.sampler_valid[slot] = true;
        }
        // Enhancement 3: writebacks insert distant.
        let rrpv = if access.kind == AccessKind::Writeback {
            MAX_RRPV
        } else {
            match self.shct[sig as usize] {
                // Enhancement 1: saturated counters insert at MRU.
                c if c == SHCT_MAX => 0,
                0 => MAX_RRPV,
                _ => LONG_RRPV,
            }
        };
        self.table.set(set, way, rrpv);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        let rrpv = RrpvTable::overhead_bits(config);
        let shct = SHCT_ENTRIES as u64 * 3;
        let sampled_lines =
            u64::from(config.sets.div_ceil(SAMPLE_PERIOD)) * u64::from(config.ways);
        rrpv + shct + sampled_lines * (u64::from(SIG_BITS) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 64, ways: 4, latency: 1 }
    }

    fn access(pc: u64, kind: AccessKind) -> Access {
        Access { pc, addr: 0, kind, core: 0, seq: 0 }
    }

    #[test]
    fn writebacks_insert_distant() {
        let mut p = ShipPp::new(&cfg());
        p.on_fill(3, 0, &access(0, AccessKind::Writeback));
        assert_eq!(p.table.get(3, 0), MAX_RRPV);
    }

    #[test]
    fn saturated_signature_inserts_mru() {
        let mut p = ShipPp::new(&cfg());
        let pc = 0x400;
        let sig = ShipPp::signature(&access(pc, AccessKind::Load)) as usize;
        p.shct[sig] = SHCT_MAX;
        p.on_fill(5, 1, &access(pc, AccessKind::Load));
        assert_eq!(p.table.get(5, 1), 0);
    }

    #[test]
    fn only_first_rereference_trains() {
        let mut p = ShipPp::new(&cfg());
        let pc = 0x400;
        let sig = ShipPp::signature(&access(pc, AccessKind::Load)) as usize;
        p.on_fill(0, 0, &access(pc, AccessKind::Load));
        p.on_hit(0, 0, &access(pc, AccessKind::Load));
        p.on_hit(0, 0, &access(pc, AccessKind::Load));
        p.on_hit(0, 0, &access(pc, AccessKind::Load));
        assert_eq!(p.shct[sig], 1, "repeat hits must not inflate the counter");
    }

    #[test]
    fn prefetch_signature_is_separate() {
        let demand = ShipPp::signature(&access(0x400, AccessKind::Load));
        let prefetch = ShipPp::signature(&access(0x400, AccessKind::Prefetch));
        assert_ne!(demand, prefetch);
    }

    #[test]
    fn prefetch_hits_do_not_promote() {
        let mut p = ShipPp::new(&cfg());
        p.on_fill(1, 2, &access(0x99, AccessKind::Load));
        let before = p.table.get(1, 2);
        p.on_hit(1, 2, &access(0x99, AccessKind::Prefetch));
        assert_eq!(p.table.get(1, 2), before);
        p.on_hit(1, 2, &access(0x99, AccessKind::Load));
        assert_eq!(p.table.get(1, 2), 0);
    }

    #[test]
    fn overhead_is_near_table_i() {
        let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
        let p = ShipPp::new(&cfg);
        let kb = p.overhead_bits(&cfg) as f64 / 8.0 / 1024.0;
        // Table I reports 20 KB.
        assert!((14.0..24.0).contains(&kb), "SHiP++ overhead {kb:.2} KB");
    }
}
