//! PDP: Protecting Distance based Policy (Duong et al., MICRO 2012).
//!
//! PDP protects every line until it has survived `PD` set accesses since
//! its last touch, where the protecting distance `PD` is recomputed
//! periodically from a reuse-distance histogram by maximizing the expected
//! hits per unit of cache occupancy.

use cache_sim::{Access, CacheConfig, ReplacementPolicy};

/// Largest protecting distance considered (the paper searches below 256).
const MAX_PD: usize = 256;
/// Recompute the PD after this many LLC accesses.
const RECOMPUTE_PERIOD: u64 = 128 * 1024;

/// The PDP replacement policy.
#[derive(Clone, Debug)]
pub struct Pdp {
    ways: u16,
    /// Per-set access counters (ages are derived lazily from stamps).
    set_clock: Vec<u64>,
    /// Per-line set-access stamp at last touch.
    stamp: Vec<u64>,
    /// Reuse-distance histogram (set accesses between touches), capped.
    hist: Vec<u64>,
    /// Current protecting distance.
    pd: u64,
    accesses: u64,
}

impl Pdp {
    /// Creates PDP for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        Self {
            ways: config.ways,
            set_clock: vec![0; config.sets as usize],
            stamp: vec![0; config.lines() as usize],
            hist: vec![0; MAX_PD + 1],
            pd: 64,
            accesses: 0,
        }
    }

    /// The protecting distance currently in force.
    pub fn protecting_distance(&self) -> u64 {
        self.pd
    }

    fn idx(&self, set: u32, way: u16) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn tick(&mut self, set: u32) -> u64 {
        self.set_clock[set as usize] += 1;
        self.accesses += 1;
        if self.accesses.is_multiple_of(RECOMPUTE_PERIOD) {
            self.recompute_pd();
        }
        self.set_clock[set as usize]
    }

    /// Chooses the PD maximizing E(dp) = hits(dp) / line-time(dp): the
    /// expected hits per unit of cache occupancy (the paper's "hits per
    /// line per unit time" criterion).
    fn recompute_pd(&mut self) {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return;
        }
        let mut best_pd = self.pd;
        let mut best_score = 0.0f64;
        let mut hits: u64 = 0;
        let mut weighted_time: u64 = 0;
        for d in 1..=MAX_PD as u64 {
            let h = self.hist[d as usize];
            hits += h;
            weighted_time += d * h;
            // Lines that never hit within d occupy the cache for d accesses.
            let occupancy = weighted_time + d * (total - hits);
            if occupancy > 0 {
                let score = hits as f64 / occupancy as f64;
                if score > best_score {
                    best_score = score;
                    best_pd = d;
                }
            }
        }
        self.pd = best_pd;
        // Decay so the estimate follows phase changes.
        for h in &mut self.hist {
            *h /= 2;
        }
    }
}

impl ReplacementPolicy for Pdp {
    fn name(&self) -> String {
        "PDP".to_owned()
    }

    fn on_miss(&mut self, set: u32, _access: &Access) {
        self.tick(set);
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        let clock = self.set_clock[set as usize];
        let base = self.idx(set, 0);
        let mut unprotected: Option<(u16, u64)> = None;
        let mut oldest: (u16, u64) = (0, 0);
        for w in 0..self.ways {
            let age = clock - self.stamp[base + w as usize];
            if age > self.pd && unprotected.is_none_or(|(_, a)| age > a) {
                unprotected = Some((w, age));
            }
            if age >= oldest.1 {
                oldest = (w, age);
            }
        }
        // All lines protected: evict the one closest to losing protection.
        unprotected.map_or(oldest.0, |(w, _)| w)
    }

    fn on_hit(&mut self, set: u32, way: u16, _access: &Access) {
        let clock = self.tick(set);
        let i = self.idx(set, way);
        let distance = (clock - self.stamp[i]).min(MAX_PD as u64);
        self.hist[distance as usize] += 1;
        self.stamp[i] = clock;
    }

    fn on_fill(&mut self, set: u32, way: u16, _access: &Access) {
        // `on_miss` already advanced the clock for this access.
        let clock = self.set_clock[set as usize];
        let i = self.idx(set, way);
        self.stamp[i] = clock;
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        // The paper's implementation: an n-bit distance counter per line
        // (8 bits covers PD < 256), a per-set access counter, the RD
        // histogram, and the search logic's registers.
        config.lines() * 8 + u64::from(config.sets) * 8 + (MAX_PD as u64 + 1) * 16
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
    fn protected_lines_survive_until_pd() {
        let mut p = Pdp::new(&cfg());
        p.pd = 10;
        for w in 0..4 {
            p.on_fill(0, w, &access(u64::from(w) * 64));
        }
        // Immediately after filling, everything is protected: the policy
        // falls back to the oldest line.
        assert!(p.select_victim(0, &access(999 * 64)) < 4);
    }

    #[test]
    fn unprotected_line_is_chosen() {
        let mut p = Pdp::new(&cfg());
        p.pd = 2;
        for w in 0..4 {
            p.on_fill(0, w, &access(u64::from(w) * 64));
        }
        // Touch ways 1..3 repeatedly; way 0 ages beyond PD.
        for _ in 0..4 {
            for w in 1..4 {
                p.on_hit(0, w, &access(u64::from(w) * 64));
            }
        }
        assert_eq!(p.select_victim(0, &access(999 * 64)), 0);
    }

    #[test]
    fn recompute_picks_reuse_knee() {
        let mut p = Pdp::new(&cfg());
        // All observed reuse happens at distance 8: the best PD is 8
        // (protecting longer only wastes occupancy).
        p.hist[8] = 1000;
        p.recompute_pd();
        assert_eq!(p.protecting_distance(), 8);
    }
}
