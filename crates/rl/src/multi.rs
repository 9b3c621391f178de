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

use crate::agent::{Agent, AgentConfig, TrainingReport};
use crate::cachemodel::{LlcModel, ModelStats, StepOutcome};
use crate::replay::{ReplayBuffer, Transition};

/// A group of agents partitioned over the cache sets.
pub struct MultiAgentTrainer {
    agents: Vec<Agent>,
    replays: Vec<ReplayBuffer>,
    /// Per-partition pending transition awaiting its successor state.
    pending: Vec<Option<(Vec<f32>, u16, f32)>>,
    rng: SimRng,
    config: AgentConfig,
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
            pending: vec![None; agents],
            rng: SimRng::seed_from_u64(config.seed ^ 0x3417),
            config,
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
        let mut model = LlcModel::new(cache, trace);
        let mut report = TrainingReport::default();
        let mut losses = 0.0f64;
        let mut updates = 0u64;
        let train_every = self.config.train_every.max(1);
        let batch = self.config.batch_size;
        let mut decisions = 0u32;

        for record in trace.records() {
            let n = self.agents.len();
            let agents = &mut self.agents;
            let mut decided: Option<(usize, Vec<f32>, u16)> = None;
            let outcome = model.step(record, &mut |view| {
                let partition = view.set_number as usize % n;
                let (state, action) = agents[partition].decide(view);
                decided = Some((partition, state, action));
                action
            });
            if let StepOutcome::Evicted {
                victim_next_use,
                farthest_next_use,
                inserted_next_use,
                ..
            } = outcome
            {
                let (partition, state, action) = decided.expect("chooser ran");
                let reward = if victim_next_use == farthest_next_use {
                    report.optimal_decisions += 1;
                    1.0
                } else if victim_next_use < inserted_next_use {
                    report.harmful_decisions += 1;
                    -1.0
                } else {
                    0.0
                };
                if let Some((ps, pa, pr)) = self.pending[partition].take() {
                    self.replays[partition].push(Transition {
                        state: ps,
                        action: pa,
                        reward: pr,
                        next_state: state.clone(),
                    });
                }
                self.pending[partition] = Some((state, action, reward));

                decisions += 1;
                if decisions.is_multiple_of(train_every) && !self.replays[partition].is_empty() {
                    for _ in 0..batch {
                        let t = self.replays[partition]
                            .sample(&mut self.rng)
                            .expect("buffer checked non-empty");
                        losses += f64::from(self.agents[partition].learn(t));
                        updates += 1;
                    }
                }
            }
        }
        for (partition, pending) in self.pending.iter_mut().enumerate() {
            if let Some((ps, pa, pr)) = pending.take() {
                self.replays[partition].push(Transition {
                    state: ps,
                    action: pa,
                    reward: pr,
                    next_state: Vec::new(),
                });
            }
        }
        report.stats = *model.stats();
        report.mean_loss = if updates == 0 { 0.0 } else { losses / updates as f64 };
        report
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

    #[test]
    fn evaluation_is_deterministic() {
        let t = trace(2000);
        let cache = cache();
        let mut trainer = MultiAgentTrainer::new(3, AgentConfig::small(FeatureSet::full(), 9), &cache);
        let _ = trainer.train_epoch(&t, &cache);
        assert_eq!(trainer.evaluate(&t, &cache), trainer.evaluate(&t, &cache));
    }
}
