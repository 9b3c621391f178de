//! First-in first-out replacement.

use cache_sim::{Access, CacheConfig, ReplacementPolicy};

/// FIFO replacement: evicts the line that has been resident longest,
/// ignoring hits entirely.
///
/// Not evaluated in the paper, but a useful floor baseline and differential
/// test subject (FIFO equals LRU on access streams with no reuse).
#[derive(Clone, Debug)]
pub struct Fifo {
    ways: u16,
    /// Insertion stamp per line; smallest = oldest.
    stamps: Vec<u64>,
    clock: u64,
}

impl Fifo {
    /// Creates a FIFO policy for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self { ways: config.ways, stamps: vec![0; config.lines() as usize], clock: 0 }
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> String {
        "FIFO".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        let base = set as usize * self.ways as usize;
        (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w as usize])
            .expect("at least one way")
    }

    fn on_hit(&mut self, _set: u32, _way: u16, _access: &Access) {}

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        self.clock += 1;
        self.stamps[set as usize * self.ways as usize + way as usize] = self.clock;
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        config.lines() * u64::from(config.way_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::AccessKind;

    fn access(addr: u64) -> Access {
        Access { pc: 0, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn hits_do_not_change_order() {
        let cfg = CacheConfig { sets: 1, ways: 3, latency: 1 };
        let mut fifo = Fifo::new(&cfg);
        for way in 0..3 {
            fifo.on_fill(0, way, &access(u64::from(way) * 64));
        }
        fifo.on_hit(0, 0, &access(0)); // should be irrelevant
        let victim = fifo.select_victim(0, &access(999));
        assert_eq!(victim, 0, "oldest insertion wins despite the hit");
    }
}
