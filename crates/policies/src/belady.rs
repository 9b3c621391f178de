//! Belady's optimal replacement (MIN), driven by a precomputed next-use
//! oracle.
//!
//! Belady's algorithm evicts the line whose next reference is farthest in
//! the future. It requires future knowledge, so — exactly as in the paper,
//! where RL and Belady run in a separate trace-driven simulator — it is
//! driven by an oracle built from a captured LLC access trace
//! ([`cache_sim::LlcTrace::next_use_table`]). Because the simulated LLC
//! access stream is invariant across LLC policies, replaying the same
//! workload with this policy is exact.

use cache_sim::{Access, CacheConfig, LlcTrace, ReplacementPolicy};

/// Belady's optimal policy (OPT/MIN).
///
/// ```
/// use cache_sim::{AccessKind, LlcRecord, LlcTrace};
/// use policies::Belady;
///
/// let trace: LlcTrace = [
///     LlcRecord { pc: 0, line: 1, kind: AccessKind::Load, core: 0 },
///     LlcRecord { pc: 0, line: 2, kind: AccessKind::Load, core: 0 },
///     LlcRecord { pc: 0, line: 1, kind: AccessKind::Load, core: 0 },
/// ].into_iter().collect();
/// let cfg = cache_sim::CacheConfig { sets: 1, ways: 2, latency: 1 };
/// let opt = Belady::from_trace(&trace, &cfg);
/// ```
#[derive(Clone, Debug)]
pub struct Belady {
    ways: u16,
    /// For access index `i`, the index of the next access to the same line.
    next_use: Vec<u64>,
    /// Per resident line: the sequence number of its next reference.
    line_next: Vec<u64>,
}

impl Belady {
    /// Builds the oracle from a captured LLC trace for a cache of the given
    /// geometry.
    pub fn from_trace(trace: &LlcTrace, config: &CacheConfig) -> Self {
        Self::from_next_use(trace.next_use_table(), config)
    }

    /// Builds the policy from a precomputed next-use table.
    pub fn from_next_use(next_use: Vec<u64>, config: &CacheConfig) -> Self {
        Self {
            ways: config.ways,
            next_use,
            line_next: vec![u64::MAX; config.lines() as usize],
        }
    }

    fn oracle(&self, seq: u64) -> u64 {
        self.next_use.get(seq as usize).copied().unwrap_or(u64::MAX)
    }
}

impl ReplacementPolicy for Belady {
    fn name(&self) -> String {
        "Belady".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        let base = set as usize * self.ways as usize;
        (0..usize::from(self.ways))
            .max_by_key(|&w| (self.line_next[base + w], std::cmp::Reverse(w)))
            .expect("non-empty set") as u16
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        self.line_next[set as usize * self.ways as usize + way as usize] =
            self.oracle(access.seq);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        self.line_next[set as usize * self.ways as usize + way as usize] =
            self.oracle(access.seq);
    }

    fn overhead_bits(&self, _config: &CacheConfig) -> u64 {
        // Not implementable in hardware: requires future knowledge.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, CacheConfig, SetAssocCache};

    /// Simulates `lines` through a one-set cache of `ways`, returning hits.
    fn run_policy(
        accesses: &[u64],
        ways: u16,
        make: impl Fn(&LlcTrace, &CacheConfig) -> Box<dyn ReplacementPolicy>,
    ) -> u64 {
        let trace: LlcTrace = accesses
            .iter()
            .map(|&l| cache_sim::LlcRecord { pc: 0, line: l, kind: AccessKind::Load, core: 0 })
            .collect();
        let cfg = CacheConfig { sets: 1, ways, latency: 1 };
        let mut cache = SetAssocCache::new("llc", cfg, make(&trace, &cfg));
        let mut hits = 0;
        for (i, &line) in accesses.iter().enumerate() {
            let a = Access {
                pc: 0,
                addr: line * 64,
                kind: AccessKind::Load,
                core: 0,
                seq: i as u64,
            };
            if cache.access(&a).hit {
                hits += 1;
            }
        }
        hits
    }

    #[test]
    fn classic_belady_example() {
        // 2-way cache. A B A C B C: OPT evicts A at the fill of C (A is
        // never needed again) and hits on the B and C reuses (2 hits); LRU
        // evicts B there and gets only 1 hit.
        let pattern = [1, 2, 1, 3, 2, 3];
        let opt_hits = run_policy(&pattern, 2, |t, c| Box::new(Belady::from_trace(t, c)));
        let lru_hits = run_policy(&pattern, 2, |_, _| {
            Box::new(cache_sim::TrueLru::new(&CacheConfig { sets: 1, ways: 2, latency: 1 }))
        });
        assert_eq!(opt_hits, 3);
        assert_eq!(lru_hits, 2);
    }

    #[test]
    fn belady_never_loses_to_lru_on_random_streams() {
        use simrng::Rng;
        let mut rng = simrng::SimRng::seed_from_u64(11);
        for trial in 0..20 {
            let pattern: Vec<u64> = (0..400).map(|_| rng.gen_range(0..12)).collect();
            let opt = run_policy(&pattern, 4, |t, c| Box::new(Belady::from_trace(t, c)));
            let lru = run_policy(&pattern, 4, |_, _| {
                Box::new(cache_sim::TrueLru::new(&CacheConfig { sets: 1, ways: 4, latency: 1 }))
            });
            assert!(opt >= lru, "trial {trial}: OPT {opt} < LRU {lru}");
        }
    }

    #[test]
    fn thrash_pattern_optimal_keeps_a_subset() {
        // Cyclic pattern over 5 lines in a 4-way cache: LRU gets zero hits;
        // OPT retains 4 of 5 lines and hits on 3 of every 5 accesses
        // asymptotically.
        let mut pattern = Vec::new();
        for _ in 0..40 {
            for l in 0..5 {
                pattern.push(l);
            }
        }
        let opt = run_policy(&pattern, 4, |t, c| Box::new(Belady::from_trace(t, c)));
        let lru = run_policy(&pattern, 4, |_, _| {
            Box::new(cache_sim::TrueLru::new(&CacheConfig { sets: 1, ways: 4, latency: 1 }))
        });
        assert_eq!(lru, 0, "LRU thrashes the cyclic pattern");
        assert!(opt > 100, "OPT must retain most of the working set, got {opt}");
    }
}
