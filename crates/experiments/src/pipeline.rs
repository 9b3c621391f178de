//! The shared RL pipeline: captured traces and trained agents per training
//! benchmark, cached on disk so the five RL-driven figures don't retrain.

use std::fs;
use std::path::{Path, PathBuf};

use cache_sim::{CacheConfig, LlcTrace, SystemConfig};
use rl::{Agent, AgentConfig, FeatureSet, Mlp, Trainer};
use workloads::TRAINING_SET;

use crate::checkpoint::write_atomic;
use crate::report::results_dir;
use crate::scale::Scale;

/// One benchmark's trace and trained agent.
pub struct TrainedBenchmark {
    /// Benchmark name (e.g. `"429.mcf"`).
    pub name: &'static str,
    /// The captured LLC access trace.
    pub trace: LlcTrace,
    /// The trained agent.
    pub agent: Agent,
}

/// The full trained pipeline over the paper's eight training benchmarks.
pub struct TrainedPipeline {
    /// LLC geometry the agents were trained for.
    pub cache: CacheConfig,
    /// Per-benchmark artifacts, in [`TRAINING_SET`] order.
    pub benchmarks: Vec<TrainedBenchmark>,
}

/// The agent configuration used by the pipeline at a given scale.
pub fn agent_config(scale: Scale) -> AgentConfig {
    AgentConfig {
        hidden: scale.rl_hidden(),
        features: FeatureSet::full(),
        seed: 0x524C_5231, // "RLR1"
        ..AgentConfig::default()
    }
}

fn cache_dir() -> PathBuf {
    results_dir().join("cache")
}

fn net_path(name: &str, scale: Scale) -> PathBuf {
    cache_dir().join(format!("{}_{}.mlp", name.replace('.', "_"), scale))
}

fn train_ck_path(name: &str, scale: Scale) -> PathBuf {
    cache_dir().join(format!("{}_{}.ck", name.replace('.', "_"), scale))
}

/// The agent around the cached network at `path`: `None` when there is no
/// file, an error when the file is unreadable, malformed, or shaped for
/// another configuration or cache geometry.
fn load_cached_agent(
    path: &Path,
    config: AgentConfig,
    cache: &CacheConfig,
) -> Result<Option<Agent>, String> {
    let f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let net = Mlp::load(std::io::BufReader::new(f)).map_err(|e| e.to_string())?;
    if net.hidden() != config.hidden {
        return Err(format!(
            "network has {} hidden units, the configuration {}",
            net.hidden(),
            config.hidden
        ));
    }
    Agent::from_net(config, cache, net).map(Some).map_err(|e| e.to_string())
}

/// Captures (or loads from cache) the LLC traces of the eight training
/// benchmarks without training agents — enough for the trace-only
/// statistics (Fig. 4).
pub fn training_traces(scale: Scale) -> Vec<(&'static str, LlcTrace)> {
    let _ = fs::create_dir_all(cache_dir());
    let retrain = std::env::var("RLR_RETRAIN").is_ok();
    TRAINING_SET
        .iter()
        .map(|&name| (name, TrainedPipeline::load_or_capture_trace(name, scale, retrain)))
        .collect()
}

impl TrainedPipeline {
    /// Builds (or loads from the on-disk cache) the traces and trained
    /// agents for all eight training benchmarks. Progress is logged to
    /// stderr; set `RLR_RETRAIN=1` to ignore the cache.
    pub fn build(scale: Scale) -> Self {
        let system = SystemConfig::paper_single_core();
        let cache = system.llc;
        let retrain = std::env::var("RLR_RETRAIN").is_ok();
        let _ = fs::create_dir_all(cache_dir());

        let benchmarks = TRAINING_SET
            .iter()
            .map(|&name| {
                let trace = Self::load_or_capture_trace(name, scale, retrain);
                let agent = Self::load_or_train_agent(name, scale, &cache, &trace, retrain);
                TrainedBenchmark { name, trace, agent }
            })
            .collect();
        Self { cache, benchmarks }
    }

    fn load_or_capture_trace(name: &'static str, scale: Scale, retrain: bool) -> LlcTrace {
        // The corpus handles the whole resolution chain: an existing
        // compressed container or a fresh capture published atomically.
        crate::corpus::load_or_capture(name, scale, retrain)
            .unwrap_or_else(|e| panic!("[pipeline] {name}: trace unavailable: {e}"))
    }

    fn load_or_train_agent(
        name: &'static str,
        scale: Scale,
        cache: &CacheConfig,
        trace: &LlcTrace,
        retrain: bool,
    ) -> Agent {
        let config = agent_config(scale);
        let path = net_path(name, scale);
        if !retrain {
            match load_cached_agent(&path, config, cache) {
                Ok(Some(agent)) => {
                    eprintln!("[pipeline] {name}: loaded cached agent");
                    return agent;
                }
                Ok(None) => {}
                Err(e) => eprintln!("[pipeline] {name}: unusable cached agent ({e}); retraining"),
            }
        }
        let ck_path = train_ck_path(name, scale);
        // Resume an interrupted training run from its epoch checkpoint;
        // the checkpoint stores the full trainer state, so the resumed run
        // is bit-identical to one that never stopped.
        let mut trainer = None;
        let mut start_epoch = 0usize;
        if !retrain {
            if let Ok(f) = fs::File::open(&ck_path) {
                match Trainer::load_checkpoint(std::io::BufReader::new(f), cache) {
                    Ok((t, done)) if *t.agent().config() == config => {
                        eprintln!("[pipeline] {name}: resuming training after epoch {done}");
                        start_epoch = done as usize;
                        trainer = Some(t);
                    }
                    Ok(_) => eprintln!("[pipeline] {name}: checkpoint config mismatch; retraining"),
                    Err(e) => eprintln!("[pipeline] {name}: unusable checkpoint ({e}); retraining"),
                }
            }
        }
        let mut trainer = trainer.unwrap_or_else(|| Trainer::new(config, cache));
        eprintln!(
            "[pipeline] {name}: training agent (epochs {start_epoch}..{})...",
            scale.rl_epochs()
        );
        for epoch in start_epoch..scale.rl_epochs() {
            let report = trainer.train_epoch(trace, cache);
            eprintln!(
                "[pipeline] {name}: epoch {epoch}: hit rate {:.1}%, {:.1}% Belady-optimal decisions",
                report.stats.demand_hit_rate() * 100.0,
                report.optimal_rate() * 100.0,
            );
            let mut bytes = Vec::new();
            if trainer.save_checkpoint(&mut bytes, epoch as u64 + 1).is_ok() {
                let _ = write_atomic(&ck_path, &bytes);
            }
        }
        let agent = trainer.into_agent();
        let mut bytes = Vec::new();
        if agent.net().save(&mut bytes).is_ok() {
            let _ = write_atomic(&path, &bytes);
        }
        // The finished network supersedes the in-progress checkpoint.
        let _ = fs::remove_file(&ck_path);
        agent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file in the system temp directory, removed on drop.
    struct TempFile(PathBuf);

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    fn write_net(tag: &str, net: &Mlp) -> TempFile {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rlr-pipeline-{tag}-{}.mlp", std::process::id()));
        let mut bytes = Vec::new();
        net.save(&mut bytes).expect("in-memory save");
        fs::write(&path, bytes).expect("write the cached net");
        TempFile(path)
    }

    #[test]
    fn a_cached_net_of_the_wrong_width_is_unusable_not_a_panic() {
        let cache = CacheConfig { sets: 64, ways: 16, latency: 26 };
        let config = AgentConfig { hidden: 4, ..agent_config(Scale::Small) };
        // A well-formed MLP1 file whose 10 inputs fit no encoder.
        let narrow = write_net("narrow", &Mlp::new(10, 4, 16, 1));
        let err = load_cached_agent(&narrow.0, config, &cache)
            .expect_err("a 10-input net must be rejected");
        assert!(err.contains("10 inputs"), "{err}");
        // Another hidden width is unusable too, and a missing file is no cache.
        let dims = rl::StateEncoder::new(config.features, 16, cache.sets).dims();
        let wide = write_net("wide", &Mlp::new(dims, 5, 16, 1));
        assert!(load_cached_agent(&wide.0, config, &cache).is_err());
        let missing = std::env::temp_dir().join("rlr-pipeline-no-such-file.mlp");
        assert!(matches!(load_cached_agent(&missing, config, &cache), Ok(None)));
        // The right shape loads.
        let fits = write_net("fits", &Mlp::new(dims, 4, 16, 1));
        assert!(matches!(load_cached_agent(&fits.0, config, &cache), Ok(Some(_))));
    }
}
