//! SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).

use cache_sim::{Access, CacheConfig, ReplacementPolicy};

use crate::pc_signature;
use crate::rrip::{RrpvTable, LONG_RRPV, MAX_RRPV};

/// Signature width in bits.
const SIG_BITS: u32 = 14;
/// Signature history counter table entries.
const SHCT_ENTRIES: usize = 1 << SIG_BITS;
/// SHCT counter ceiling (2-bit counters).
const SHCT_MAX: u8 = 3;
/// One of every `SAMPLE_PERIOD` sets carries training metadata.
const SAMPLE_PERIOD: u32 = 16;

/// SHiP: predicts a fill's re-reference behaviour from a PC signature.
///
/// Lines inserted by PCs with a non-zero Signature History Counter get
/// RRPV 2 (likely reused); others get RRPV 3 (distant). The SHCT is trained
/// in sampled sets: incremented when a sampled line is re-referenced,
/// decremented when a sampled line is evicted without reuse. The sampling
/// keeps the hardware budget at Table I's 14 KB.
#[derive(Clone, Debug)]
pub struct Ship {
    table: RrpvTable,
    shct: Vec<u8>,
    ways: u16,
    /// Per sampled line: (signature, has been re-referenced, slot in use).
    sampler_sig: Vec<u16>,
    sampler_reused: Vec<bool>,
    sampler_valid: Vec<bool>,
}

impl Ship {
    /// Creates SHiP for the geometry.
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

    fn sampler_slot(&self, set: u32, way: u16) -> Option<usize> {
        set.is_multiple_of(SAMPLE_PERIOD)
            .then(|| (set / SAMPLE_PERIOD) as usize * self.ways as usize + way as usize)
    }
}

impl ReplacementPolicy for Ship {
    fn name(&self) -> String {
        "SHiP".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        self.table.find_victim(set)
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        self.table.set(set, way, 0);
        if let Some(slot) = self.sampler_slot(set, way) {
            if self.sampler_valid[slot] {
                self.sampler_reused[slot] = true;
                let sig = self.sampler_sig[slot] as usize;
                self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
            }
        }
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let sig = pc_signature(access.pc, SIG_BITS) as u16;
        if let Some(slot) = self.sampler_slot(set, way) {
            // Train down on a dead (never re-referenced) sampled line.
            if self.sampler_valid[slot] && !self.sampler_reused[slot] {
                let old = self.sampler_sig[slot] as usize;
                self.shct[old] = self.shct[old].saturating_sub(1);
            }
            self.sampler_sig[slot] = sig;
            self.sampler_reused[slot] = false;
            self.sampler_valid[slot] = true;
        }
        let rrpv = if self.shct[sig as usize] > 0 { LONG_RRPV } else { MAX_RRPV };
        self.table.set(set, way, rrpv);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        let rrpv = RrpvTable::overhead_bits(config);
        let shct = SHCT_ENTRIES as u64 * 2;
        let sampled_lines =
            u64::from(config.sets.div_ceil(SAMPLE_PERIOD)) * u64::from(config.ways);
        // Signature + reuse bit per sampled line.
        rrpv + shct + sampled_lines * (u64::from(SIG_BITS) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::AccessKind;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 64, ways: 4, latency: 1 }
    }

    fn access(pc: u64, addr: u64) -> Access {
        Access { pc, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn trained_pc_inserts_at_long() {
        let mut p = Ship::new(&cfg());
        let hot_pc = 0x400;
        // Fill + re-reference in the sampled set 0 to train the signature.
        p.on_fill(0, 0, &access(hot_pc, 0));
        p.on_hit(0, 0, &access(hot_pc, 0));
        // A later fill from the same PC (any set) now predicts reuse.
        p.on_fill(5, 2, &access(hot_pc, 64));
        assert_eq!(p.table.get(5, 2), LONG_RRPV);
    }

    #[test]
    fn untrained_pc_inserts_distant() {
        let mut p = Ship::new(&cfg());
        p.on_fill(7, 1, &access(0x1234, 0));
        assert_eq!(p.table.get(7, 1), MAX_RRPV);
    }

    #[test]
    fn dead_lines_detrain_the_signature() {
        let mut p = Ship::new(&cfg());
        let pc = 0x400;
        let sig = pc_signature(pc, SIG_BITS) as usize;
        // Train up.
        p.on_fill(0, 0, &access(pc, 0));
        p.on_hit(0, 0, &access(pc, 0));
        assert_eq!(p.shct[sig], 1);
        // Replace the (already reused) line, then kill one without reuse.
        p.on_fill(0, 0, &access(pc, 64));
        p.on_fill(0, 0, &access(pc, 128));
        assert_eq!(p.shct[sig], 0, "unreused sampled line must decrement SHCT");
    }

    #[test]
    fn overhead_is_near_table_i() {
        let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
        let p = Ship::new(&cfg);
        let kb = p.overhead_bits(&cfg) as f64 / 8.0 / 1024.0;
        // Table I reports 14 KB; our structure accounting lands close.
        assert!((11.0..17.0).contains(&kb), "SHiP overhead {kb:.2} KB");
    }
}
