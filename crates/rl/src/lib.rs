//! The offline reinforcement-learning pipeline used to *derive* RLR
//! (paper §III).
//!
//! The paper's methodology, reproduced end to end:
//!
//! 1. Capture LLC access traces `<PC, type, address>` from the hierarchy
//!    simulator ([`cache_sim::LlcTrace`]).
//! 2. Replay them through a trace-driven, LLC-only functional simulator
//!    ([`LlcModel`]) that maintains the full Table II feature state.
//! 3. On every non-compulsory miss, a DQN agent ([`Agent`]) — an MLP with
//!    one hidden layer (334→175→16, tanh/linear) trained with experience
//!    replay and an ε-greedy policy — picks the victim way.
//! 4. The reward compares the eviction with Belady's choice, using a
//!    next-use oracle computed from the trace: +1 for evicting the line
//!    with the farthest reuse, −1 for evicting a line that would have been
//!    reused before the inserted one, 0 otherwise.
//! 5. The trained network's first-layer weights are aggregated into the
//!    per-feature heat map of Fig. 3 ([`analysis::weight_heatmap`]), and
//!    greedy forward feature selection ([`analysis::hill_climb`])
//!    identifies the critical feature subset that RLR hard-codes.
//!
//! The victim statistics behind Figs. 4–7 (preuse-vs-reuse gap, victim age
//! by access type, hits at eviction, victim recency) are collected by
//! [`stats`].

pub mod analysis;
mod agent;
mod cachemodel;
mod features;
mod mlp;
mod multi;
mod replay;
pub mod stats;
mod wire;

pub use agent::{Agent, AgentConfig, NetShapeError, Trainer, TrainingReport};
pub use cachemodel::{LlcModel, ModelStats, StepOutcome};
pub use features::{
    DecisionView, Feature, FeatureSet, LineView, StateEncoder, NUM_FEATURES,
    NUM_FEATURES_EXTENDED,
};
pub use multi::MultiAgentTrainer;
pub use mlp::Mlp;
pub use replay::{ReplayBuffer, Transition};
