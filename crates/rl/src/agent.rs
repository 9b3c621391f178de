//! The DQN agent and its trainer (paper §III-A).

use cache_sim::{CacheConfig, LlcTrace};
use simrng::{Rng, SimRng};

use crate::cachemodel::{LlcModel, ModelStats, StepOutcome};
use crate::features::{DecisionView, FeatureSet, StateEncoder};
use crate::mlp::Mlp;
use crate::replay::{ReplayBuffer, Transition};
use crate::wire;

/// Hyperparameters of the agent, defaulting to the paper's choices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentConfig {
    /// Observed feature subset (default: all of Table II).
    pub features: FeatureSet,
    /// Hidden-layer width (paper: 175).
    pub hidden: usize,
    /// ε for ε-greedy exploration (paper: 0.1).
    pub epsilon: f32,
    /// Discount factor for the DQN target.
    pub gamma: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Replay-memory capacity.
    pub replay_capacity: usize,
    /// Minibatch size per training round.
    pub batch_size: usize,
    /// Train once per this many decisions.
    pub train_every: u32,
    /// Sync a frozen target network every this many updates (the Mnih et
    /// al. stabilization the DQN method the paper trains with is built on);
    /// 0 disables the target network and bootstraps from the live network.
    pub target_sync: u32,
    /// RNG seed (exploration + initialization).
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            features: FeatureSet::full(),
            hidden: 175,
            epsilon: 0.1,
            gamma: 0.5,
            learning_rate: 5e-3,
            momentum: 0.9,
            replay_capacity: 8192,
            batch_size: 32,
            train_every: 4,
            target_sync: 0,
            seed: 0xCAFE,
        }
    }
}

impl AgentConfig {
    /// The largest `batch_size` [`Trainer::load_checkpoint`] accepts:
    /// 2048× the in-tree configurations' 32, seconds per training round at
    /// paper width (one bit flip can make 2^40, a year-long round).
    pub const MAX_BATCH_SIZE: usize = 1 << 16;

    /// A reduced configuration for fast exploration (hill climbing, tests):
    /// a small hidden layer and lighter replay traffic.
    pub fn small(features: FeatureSet, seed: u64) -> Self {
        Self {
            features,
            hidden: 24,
            replay_capacity: 2048,
            seed,
            ..Self::default()
        }
    }
}

/// Why a network cannot drive an agent: its shape does not fit the state
/// encoder or the cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetShapeError {
    /// The network's input width differs from the encoder's state width.
    Inputs {
        /// Inputs of the network.
        net: usize,
        /// Width of the encoded state.
        encoder: usize,
    },
    /// The network's output width differs from the cache's ways.
    Outputs {
        /// Outputs of the network.
        net: usize,
        /// Ways of the cache.
        ways: usize,
    },
}

impl std::fmt::Display for NetShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Inputs { net, encoder } => {
                write!(f, "network has {net} inputs, but the encoded state has {encoder} features")
            }
            Self::Outputs { net, ways } => {
                write!(f, "network has {net} outputs, but the cache has {ways} ways")
            }
        }
    }
}

impl std::error::Error for NetShapeError {}

/// The victim-selection agent: an MLP estimating per-way eviction quality.
#[derive(Clone, Debug)]
pub struct Agent {
    net: Mlp,
    /// Frozen copy used for bootstrap targets when `target_sync > 0`.
    target_net: Option<Mlp>,
    updates_since_sync: u32,
    encoder: StateEncoder,
    config: AgentConfig,
    rng: SimRng,
}

impl Agent {
    /// Creates an agent for a cache geometry.
    pub fn new(config: AgentConfig, cache: &CacheConfig) -> Self {
        let encoder = StateEncoder::new(config.features, cache.ways as usize, cache.sets);
        let net = Mlp::new(encoder.dims(), config.hidden, cache.ways as usize, config.seed);
        let target_net = (config.target_sync > 0).then(|| net.clone());
        Self {
            net,
            target_net,
            updates_since_sync: 0,
            encoder,
            config,
            rng: SimRng::seed_from_u64(config.seed ^ 0x5EED),
        }
    }

    /// Reconstructs an agent around a previously trained network (e.g. one
    /// loaded via [`Mlp::load`]). The network may come from a file, so a
    /// well-formed network of the wrong width is an error, not a panic.
    ///
    /// # Errors
    ///
    /// Returns [`NetShapeError`] when the network's inputs differ from the
    /// encoder's state width or its outputs from the cache's ways.
    pub fn from_net(
        config: AgentConfig,
        cache: &CacheConfig,
        net: Mlp,
    ) -> Result<Self, NetShapeError> {
        let encoder = StateEncoder::new(config.features, cache.ways as usize, cache.sets);
        if net.inputs() != encoder.dims() {
            return Err(NetShapeError::Inputs { net: net.inputs(), encoder: encoder.dims() });
        }
        if net.outputs() != cache.ways as usize {
            return Err(NetShapeError::Outputs { net: net.outputs(), ways: cache.ways as usize });
        }
        let target_net = (config.target_sync > 0).then(|| net.clone());
        Ok(Self {
            net,
            target_net,
            updates_since_sync: 0,
            encoder,
            config,
            rng: SimRng::seed_from_u64(config.seed ^ 0x5EED),
        })
    }

    /// The state encoder in use.
    pub fn encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// The underlying network (e.g. for weight analysis).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// ε-greedy decision: the encoded state and the chosen way.
    pub fn decide(&mut self, view: &DecisionView) -> (Vec<f32>, u16) {
        let state = self.encoder.encode(view);
        let ways = self.net.outputs() as u16;
        let action = if self.rng.gen::<f32>() < self.config.epsilon {
            self.rng.gen_range(0..ways)
        } else {
            self.greedy_from_state(&state)
        };
        (state, action)
    }

    /// Greedy (exploitation-only) decision.
    pub fn decide_greedy(&self, view: &DecisionView) -> u16 {
        self.greedy_from_state(&self.encoder.encode(view))
    }

    fn greedy_from_state(&self, state: &[f32]) -> u16 {
        let q = self.net.predict(state);
        let mut best = 0usize;
        for (i, &v) in q.iter().enumerate() {
            if v > q[best] {
                best = i;
            }
        }
        best as u16
    }

    /// One DQN update on a single transition (shared with the multi-agent
    /// trainer).
    pub(crate) fn learn(&mut self, t: &Transition) -> f32 {
        if let Some(target) = &mut self.target_net {
            self.updates_since_sync += 1;
            if self.updates_since_sync >= self.config.target_sync {
                *target = self.net.clone();
                self.updates_since_sync = 0;
            }
        }
        let future = if t.next_state.is_empty() {
            0.0
        } else {
            let bootstrap_net = self.target_net.as_ref().unwrap_or(&self.net);
            let q_next = bootstrap_net.predict(&t.next_state);
            q_next.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        };
        // Rewards are in [-1, 1], so the true Q-value is bounded by the
        // geometric series 1/(1-γ); clamping the bootstrapped target to
        // that range prevents divergence.
        let q_max = 1.0 / (1.0 - self.config.gamma.min(0.99));
        let target = (t.reward + self.config.gamma * future).clamp(-q_max, q_max);
        self.net.train_action(
            &t.state,
            t.action as usize,
            target,
            self.config.learning_rate,
            self.config.momentum,
        )
    }
}

/// Summary of one training run over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrainingReport {
    /// Model statistics of the (exploring) training run.
    pub stats: ModelStats,
    /// Decisions that earned the +1 (Belady-agreeing) reward.
    pub optimal_decisions: u64,
    /// Decisions that earned the −1 (harmful) reward.
    pub harmful_decisions: u64,
    /// Mean squared TD error over the run's updates.
    pub mean_loss: f64,
}

impl TrainingReport {
    /// Fraction of decisions that matched Belady's choice.
    pub fn optimal_rate(&self) -> f64 {
        if self.stats.decisions == 0 {
            0.0
        } else {
            self.optimal_decisions as f64 / self.stats.decisions as f64
        }
    }
}

/// One training epoch over `trace` for agents that split the cache sets
/// by `set % agents.len()`: each decision goes to the agent owning its set
/// (ε-greedy), earns its reward from the Belady oracle, and becomes a
/// transition in that partition's replay memory. Every `train_every`-th
/// decision overall trains the deciding partition on `batch_size` samples
/// drawn with the shared `rng`. One agent is the paper's single network.
pub(crate) fn train_partitions(
    agents: &mut [Agent],
    replays: &mut [ReplayBuffer],
    rng: &mut SimRng,
    trace: &LlcTrace,
    cache: &CacheConfig,
) -> TrainingReport {
    let mut model = LlcModel::new(cache, trace);
    let mut report = TrainingReport::default();
    // Per partition, the latest decision awaiting its successor state.
    let mut pending: Vec<Option<(Vec<f32>, u16, f32)>> = vec![None; agents.len()];
    let mut losses = 0.0f64;
    let mut updates = 0u64;
    let train_every = agents[0].config().train_every.max(1);
    let batch = agents[0].config().batch_size;
    let mut decision_count = 0u32;
    let n = agents.len();

    for record in trace.records() {
        let mut decided: Option<(usize, Vec<f32>, u16)> = None;
        let outcome = model.step(record, &mut |view| {
            let partition = view.set_number as usize % n;
            let (state, action) = agents[partition].decide(view);
            decided = Some((partition, state, action));
            action
        });
        if let StepOutcome::Evicted { victim_next_use, farthest_next_use, inserted_next_use, .. } =
            outcome
        {
            let (partition, state, action) = decided.expect("chooser ran");
            // Paper reward: +1 for evicting the farthest-reuse line, −1 for
            // evicting a line that would be reused before the inserted one,
            // 0 otherwise.
            let reward = if victim_next_use == farthest_next_use {
                report.optimal_decisions += 1;
                1.0
            } else if victim_next_use < inserted_next_use {
                report.harmful_decisions += 1;
                -1.0
            } else {
                0.0
            };
            // Complete the partition's previous transition with this
            // decision's state as its successor.
            if let Some((ps, pa, pr)) = pending[partition].take() {
                replays[partition].push(Transition {
                    state: ps,
                    action: pa,
                    reward: pr,
                    next_state: state.clone(),
                });
            }
            pending[partition] = Some((state, action, reward));

            decision_count += 1;
            if decision_count.is_multiple_of(train_every) && !replays[partition].is_empty() {
                for _ in 0..batch {
                    let t = replays[partition].sample(rng).expect("buffer checked non-empty");
                    losses += f64::from(agents[partition].learn(t));
                    updates += 1;
                }
            }
        }
    }
    // Flush each partition's final decision as a terminal transition.
    for (replay, last) in replays.iter_mut().zip(pending) {
        if let Some((ps, pa, pr)) = last {
            replay.push(Transition { state: ps, action: pa, reward: pr, next_state: Vec::new() });
        }
    }
    report.stats = *model.stats();
    report.mean_loss = if updates == 0 { 0.0 } else { losses / updates as f64 };
    report
}

/// Drives agent training over captured LLC traces (Fig. 2's loop).
#[derive(Clone, Debug)]
pub struct Trainer {
    agent: Agent,
    replay: ReplayBuffer,
    rng: SimRng,
}

impl Trainer {
    /// Creates a trainer around a fresh agent.
    pub fn new(config: AgentConfig, cache: &CacheConfig) -> Self {
        Self {
            replay: ReplayBuffer::new(config.replay_capacity),
            rng: SimRng::seed_from_u64(config.seed ^ 0x7EA1),
            agent: Agent::new(config, cache),
        }
    }

    /// The trained agent.
    pub fn agent(&self) -> &Agent {
        &self.agent
    }

    /// Consumes the trainer, returning the agent.
    pub fn into_agent(self) -> Agent {
        self.agent
    }

    /// Runs one training epoch over `trace` (ε-greedy decisions, rewards
    /// from the Belady oracle, experience replay updates).
    pub fn train_epoch(&mut self, trace: &LlcTrace, cache: &CacheConfig) -> TrainingReport {
        train_partitions(
            std::slice::from_mut(&mut self.agent),
            std::slice::from_mut(&mut self.replay),
            &mut self.rng,
            trace,
            cache,
        )
    }

    /// Evaluates the current agent greedily (no exploration, no learning).
    pub fn evaluate(&self, trace: &LlcTrace, cache: &CacheConfig) -> ModelStats {
        let mut model = LlcModel::new(cache, trace);
        let agent = &self.agent;
        model.run(trace, &mut |view| agent.decide_greedy(view))
    }

    /// Serializes the complete training state after `epoch` finished
    /// epochs: hyperparameters, network weights *and* optimizer momentum,
    /// the frozen target network, both RNG streams, and the replay buffer.
    /// A trainer restored via [`Trainer::load_checkpoint`] continues
    /// bit-for-bit as if training had never been interrupted.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_checkpoint<W: std::io::Write>(&self, mut w: W, epoch: u64) -> std::io::Result<()> {
        let c = &self.agent.config;
        w.write_all(b"RLCK")?;
        wire::write_u32(&mut w, 1)?;
        wire::write_u64(&mut w, epoch)?;
        wire::write_u32(&mut w, c.features.bits())?;
        wire::write_u64(&mut w, c.hidden as u64)?;
        wire::write_f32(&mut w, c.epsilon)?;
        wire::write_f32(&mut w, c.gamma)?;
        wire::write_f32(&mut w, c.learning_rate)?;
        wire::write_f32(&mut w, c.momentum)?;
        wire::write_u64(&mut w, c.replay_capacity as u64)?;
        wire::write_u64(&mut w, c.batch_size as u64)?;
        wire::write_u32(&mut w, c.train_every)?;
        wire::write_u32(&mut w, c.target_sync)?;
        wire::write_u64(&mut w, c.seed)?;
        for s in self.agent.rng.state().into_iter().chain(self.rng.state()) {
            wire::write_u64(&mut w, s)?;
        }
        wire::write_u32(&mut w, self.agent.updates_since_sync)?;
        self.agent.net.save_full(&mut w)?;
        match &self.agent.target_net {
            Some(t) => {
                w.write_all(&[1])?;
                t.save_full(&mut w)?;
            }
            None => w.write_all(&[0])?,
        }
        self.replay.save(&mut w)
    }

    /// Restores a trainer from a [`Trainer::save_checkpoint`] stream,
    /// returning it together with the number of completed epochs. The
    /// agent configuration is read from the checkpoint itself, so resuming
    /// cannot silently diverge from the interrupted run's hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input, and an
    /// `InvalidData` error when a network, the target network or a replay
    /// transition does not fit `cache`'s geometry or the checkpoint's own
    /// configuration — a checkpoint that would otherwise panic on its first
    /// update — or when its `batch_size` is 0 or above
    /// [`AgentConfig::MAX_BATCH_SIZE`].
    pub fn load_checkpoint<R: std::io::Read>(
        mut r: R,
        cache: &CacheConfig,
    ) -> std::io::Result<(Self, u64)> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"RLCK" {
            return Err(wire::bad_data("bad checkpoint magic"));
        }
        if wire::read_u32(&mut r)? != 1 {
            return Err(wire::bad_data("unsupported checkpoint version"));
        }
        let epoch = wire::read_u64(&mut r)?;
        let config = AgentConfig {
            features: FeatureSet::from_bits(wire::read_u32(&mut r)?),
            hidden: wire::read_u64(&mut r)? as usize,
            epsilon: wire::read_f32(&mut r)?,
            gamma: wire::read_f32(&mut r)?,
            learning_rate: wire::read_f32(&mut r)?,
            momentum: wire::read_f32(&mut r)?,
            replay_capacity: wire::read_u64(&mut r)? as usize,
            batch_size: wire::read_u64(&mut r)? as usize,
            train_every: wire::read_u32(&mut r)?,
            target_sync: wire::read_u32(&mut r)?,
            seed: wire::read_u64(&mut r)?,
        };
        if config.batch_size == 0 || config.batch_size > AgentConfig::MAX_BATCH_SIZE {
            return Err(wire::bad_data("checkpoint batch size is out of range"));
        }
        let mut states = [0u64; 8];
        for s in &mut states {
            *s = wire::read_u64(&mut r)?;
        }
        let updates_since_sync = wire::read_u32(&mut r)?;
        let net = Mlp::load_full(&mut r)?;
        let mut target_flag = [0u8; 1];
        r.read_exact(&mut target_flag)?;
        let target_net = match target_flag[0] {
            0 => None,
            1 => Some(Mlp::load_full(&mut r)?),
            _ => return Err(wire::bad_data("bad target-network flag")),
        };
        let replay = ReplayBuffer::load(&mut r)?;

        let encoder = StateEncoder::new(config.features, cache.ways as usize, cache.sets);
        let (dims, ways) = (encoder.dims(), cache.ways as usize);
        if net.inputs() != dims || net.outputs() != ways || net.hidden() != config.hidden {
            return Err(wire::bad_data("checkpoint network does not match the cache geometry"));
        }
        let shape = |n: &Mlp| (n.inputs(), n.hidden(), n.outputs());
        if target_net.as_ref().is_some_and(|t| shape(t) != shape(&net)) {
            return Err(wire::bad_data("checkpoint target network does not match its network"));
        }
        if config.replay_capacity == 0 || replay.len() > config.replay_capacity {
            return Err(wire::bad_data("checkpoint replay buffer exceeds its capacity"));
        }
        let fits = |t: &Transition| {
            t.state.len() == dims
                && (t.next_state.is_empty() || t.next_state.len() == dims)
                && usize::from(t.action) < ways
        };
        if !replay.transitions().iter().all(fits) {
            return Err(wire::bad_data("checkpoint replay transition does not match the geometry"));
        }
        let agent = Agent {
            net,
            target_net,
            updates_since_sync,
            encoder,
            config,
            rng: SimRng::from_state([states[0], states[1], states[2], states[3]]),
        };
        let trainer = Self {
            agent,
            replay,
            rng: SimRng::from_state([states[4], states[5], states[6], states[7]]),
        };
        Ok((trainer, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, LlcRecord};

    fn thrash_trace(lines: u64, len: usize) -> LlcTrace {
        (0..len)
            .map(|i| LlcRecord {
                pc: 0x400 + (i as u64 % lines) * 4,
                line: i as u64 % lines,
                kind: AccessKind::Load,
                core: 0,
            })
            .collect()
    }

    fn small_cache() -> CacheConfig {
        CacheConfig { sets: 2, ways: 4, latency: 1 }
    }

    #[test]
    fn training_improves_over_random_on_thrash() {
        // Cyclic pattern over 12 lines in a 2x4 cache: optimal keeps a
        // subset; a random/untrained agent churns.
        let cache = small_cache();
        let trace = thrash_trace(12, 6000);
        let features = FeatureSet::full();
        let mut trainer = Trainer::new(AgentConfig::small(features, 7), &cache);
        let before = trainer.evaluate(&trace, &cache);
        for _ in 0..6 {
            let _ = trainer.train_epoch(&trace, &cache);
        }
        let after = trainer.evaluate(&trace, &cache);
        assert!(
            after.hits > before.hits,
            "training must help: {} → {} hits",
            before.hits,
            after.hits
        );
        // And it should close most of the gap to Belady.
        let mut opt = LlcModel::new(&cache, &trace);
        let opt_stats = opt.run_belady(&trace);
        assert!(
            after.hits as f64 >= 0.5 * opt_stats.hits as f64,
            "trained agent ({}) should approach Belady ({})",
            after.hits,
            opt_stats.hits
        );
    }

    #[test]
    fn rewards_follow_the_paper_rules() {
        let cache = CacheConfig { sets: 1, ways: 2, latency: 1 };
        // 1, 2, 3, 1: evicting 1 at the decision is harmful (reused before
        // the never-reused 3); evicting 2 is optimal.
        let t: LlcTrace = [1u64, 2, 3, 1]
            .into_iter()
            .map(|l| LlcRecord { pc: 0, line: l, kind: AccessKind::Load, core: 0 })
            .collect();
        let mut cfg = AgentConfig::small(FeatureSet::full(), 1);
        cfg.epsilon = 0.0;
        let mut trainer = Trainer::new(cfg, &cache);
        let report = trainer.train_epoch(&t, &cache);
        // The untrained net picks the first victim from its initial weights:
        // evicting 2 (optimal, +1) ends the trace with one decision, while
        // evicting 1 (harmful, −1) forces a second miss whose eviction is a
        // tie at infinity and therefore optimal. Either way every decision
        // is classified and at most the first can be harmful.
        assert_eq!(report.stats.decisions, 1 + report.harmful_decisions);
        assert!(report.harmful_decisions <= 1);
        assert_eq!(
            report.optimal_decisions + report.harmful_decisions,
            report.stats.decisions,
            "each decision here is either optimal (evict 2) or harmful (evict 1)"
        );
    }

    #[test]
    fn target_network_training_converges_too() {
        let cache = small_cache();
        let trace = thrash_trace(12, 5000);
        let mut config = AgentConfig::small(FeatureSet::full(), 7);
        config.target_sync = 256;
        let mut trainer = Trainer::new(config, &cache);
        let mut random_model = crate::cachemodel::LlcModel::new(&cache, &trace);
        let mut state = 99u64;
        let random = random_model.run(&trace, &mut |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 4) as u16
        });
        for _ in 0..6 {
            let _ = trainer.train_epoch(&trace, &cache);
        }
        let trained = trainer.evaluate(&trace, &cache);
        assert!(
            trained.hits > random.hits,
            "target-network DQN must beat random: {} vs {}",
            trained.hits,
            random.hits
        );
    }

    #[test]
    fn inconsistent_checkpoints_are_rejected() {
        let cache = CacheConfig { sets: 2, ways: 4, latency: 1 };
        let trace = thrash_trace(12, 600);
        let mut config = AgentConfig::small(FeatureSet::full(), 5);
        config.target_sync = 64;
        let mut trainer = Trainer::new(config, &cache);
        let _ = trainer.train_epoch(&trace, &cache);
        let save = |t: &Trainer| {
            let mut bytes = Vec::new();
            t.save_checkpoint(&mut bytes, 1).expect("in-memory save");
            bytes
        };
        let valid = save(&trainer);
        assert!(Trainer::load_checkpoint(valid.as_slice(), &cache).is_ok());

        let dims = trainer.agent.encoder.dims();
        let transition = |state: usize, next_state: usize, action: u16| Transition {
            state: vec![0.0; state],
            action,
            reward: 0.0,
            next_state: vec![0.0; next_state],
        };
        let with_transition = |t: Transition| {
            let mut patched = trainer.clone();
            patched.replay.push(t);
            save(&patched)
        };
        let mut other_target = trainer.clone();
        other_target.agent.target_net = Some(Mlp::new(dims, config.hidden + 1, 4, 0));
        // The `hidden` field of the configuration sits after the magic,
        // version, epoch and feature bits.
        let mut other_hidden = valid.clone();
        other_hidden[20..28].copy_from_slice(&(config.hidden as u64 + 1).to_le_bytes());

        for (what, bytes) in [
            ("short state", with_transition(transition(dims - 1, dims, 0))),
            ("short next state", with_transition(transition(dims, dims - 1, 0))),
            ("action past the ways", with_transition(transition(dims, 0, 4))),
            ("target net of another width", save(&other_target)),
            ("config hidden differs from the net", other_hidden),
        ] {
            let err = Trainer::load_checkpoint(bytes.as_slice(), &cache)
                .err()
                .unwrap_or_else(|| panic!("{what}: inconsistent checkpoint loaded"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // A terminal transition (empty next state) is consistent.
        let terminal = with_transition(transition(dims, 0, 3));
        assert!(Trainer::load_checkpoint(terminal.as_slice(), &cache).is_ok());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let cache = small_cache();
        let trace = thrash_trace(10, 2000);
        let mut trainer = Trainer::new(AgentConfig::small(FeatureSet::full(), 3), &cache);
        let _ = trainer.train_epoch(&trace, &cache);
        let a = trainer.evaluate(&trace, &cache);
        let b = trainer.evaluate(&trace, &cache);
        assert_eq!(a, b);
    }
}
