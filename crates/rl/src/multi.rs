//! Multi-agent training: one agent per cache-set group.
//!
//! The paper's framework uses a single network for all sets but notes that
//! "designers can choose to use multiple agents by training them using
//! different combinations of cache sets" (§III-A). This module implements
//! that extension: sets are partitioned by `set % agents`, each partition
//! gets its own DQN (network + replay memory), and decisions/training are
//! routed by the accessed set.

use cache_sim::{CacheConfig, LlcTrace};
use simrng::SimRng;

use crate::agent::{train_partitions, Agent, AgentConfig, TrainingReport};
use crate::cachemodel::{LlcModel, ModelStats};
use crate::replay::ReplayBuffer;

/// A group of agents partitioned over the cache sets.
pub struct MultiAgentTrainer {
    agents: Vec<Agent>,
    replays: Vec<ReplayBuffer>,
    rng: SimRng,
}

impl MultiAgentTrainer {
    /// Creates `agents` partitions for a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is zero.
    pub fn new(agents: usize, config: AgentConfig, cache: &CacheConfig) -> Self {
        assert!(agents > 0, "need at least one agent");
        Self {
            agents: (0..agents)
                .map(|i| {
                    let mut c = config;
                    c.seed = config.seed ^ ((i as u64 + 1) << 16);
                    Agent::new(c, cache)
                })
                .collect(),
            replays: (0..agents).map(|_| ReplayBuffer::new(config.replay_capacity)).collect(),
            rng: SimRng::seed_from_u64(config.seed ^ 0x3417),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.agents.len()
    }

    /// The agent owning `set`.
    pub fn agent_for(&self, set: u32) -> &Agent {
        &self.agents[set as usize % self.agents.len()]
    }

    /// One ε-greedy training epoch over the trace, routing every decision
    /// to the owning partition.
    pub fn train_epoch(&mut self, trace: &LlcTrace, cache: &CacheConfig) -> TrainingReport {
        train_partitions(&mut self.agents, &mut self.replays, &mut self.rng, trace, cache)
    }

    /// Greedy evaluation, each decision routed to the owning partition.
    pub fn evaluate(&self, trace: &LlcTrace, cache: &CacheConfig) -> ModelStats {
        let mut model = LlcModel::new(cache, trace);
        let n = self.agents.len();
        let agents = &self.agents;
        model.run(trace, &mut |view| {
            agents[view.set_number as usize % n].decide_greedy(view)
        })
    }
}

impl std::fmt::Debug for MultiAgentTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiAgentTrainer")
            .field("partitions", &self.agents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use cache_sim::LlcRecord;

    fn trace(len: usize) -> LlcTrace {
        (0..len)
            .map(|i| LlcRecord {
                pc: 0x400 + (i as u64 % 13) * 4,
                line: (i as u64 * 7) % 24,
                kind: cache_sim::AccessKind::Load,
                core: 0,
            })
            .collect()
    }

    fn cache() -> CacheConfig {
        CacheConfig { sets: 4, ways: 4, latency: 1 }
    }

    #[test]
    fn partitions_route_by_set() {
        let trainer = MultiAgentTrainer::new(2, AgentConfig::small(FeatureSet::full(), 3), &cache());
        assert_eq!(trainer.partitions(), 2);
        let a0 = trainer.agent_for(0) as *const Agent;
        let a2 = trainer.agent_for(2) as *const Agent;
        let a1 = trainer.agent_for(1) as *const Agent;
        assert_eq!(a0, a2, "sets 0 and 2 share partition 0 of 2");
        assert_ne!(a0, a1);
    }

    #[test]
    fn multi_agent_training_runs_and_learns_signal() {
        let t = trace(4000);
        let cache = cache();
        let mut trainer = MultiAgentTrainer::new(2, AgentConfig::small(FeatureSet::full(), 5), &cache);
        let first = trainer.train_epoch(&t, &cache);
        assert!(first.stats.decisions > 0);
        let second = trainer.train_epoch(&t, &cache);
        // Training proceeds without degenerating (loss finite, stats sane).
        assert!(second.mean_loss.is_finite());
        assert!(second.stats.accesses == t.len() as u64);
    }

    /// Pins two epochs of a three-partition trainer and its greedy
    /// evaluation to the bit: decision counts, reward tallies, the mean
    /// loss's bits and every model counter.
    #[test]
    fn training_and_evaluation_are_pinned() {
        let t = trace(3000);
        let cache = cache();
        let mut trainer = MultiAgentTrainer::new(3, AgentConfig::small(FeatureSet::full(), 11), &cache);
        let digest = |r: &TrainingReport| {
            (r.optimal_decisions, r.harmful_decisions, r.mean_loss.to_bits(), r.stats)
        };
        let first = trainer.train_epoch(&t, &cache);
        let second = trainer.train_epoch(&t, &cache);
        let stats = |hits: u64, decisions: u64| ModelStats {
            accesses: 3000,
            hits,
            demand_accesses: 3000,
            demand_hits: hits,
            decisions,
        };
        assert_eq!(digest(&first), (841, 552, 4_600_837_673_532_444_632, stats(1591, 1393)));
        assert_eq!(digest(&second), (1083, 186, 4_596_381_083_134_879_862, stats(1715, 1269)));
        assert_eq!(trainer.evaluate(&t, &cache), stats(1772, 1212));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let t = trace(2000);
        let cache = cache();
        let mut trainer = MultiAgentTrainer::new(3, AgentConfig::small(FeatureSet::full(), 9), &cache);
        let _ = trainer.train_epoch(&t, &cache);
        assert_eq!(trainer.evaluate(&t, &cache), trainer.evaluate(&t, &cache));
    }
}
