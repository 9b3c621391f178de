//! `rl_train`: one DQN training epoch and a greedy evaluation.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cache_sim::{CacheConfig, LlcTrace, SystemConfig};
use experiments::runner;
use experiments::Scale;
use rl::{AgentConfig, LlcModel, ModelStats, Trainer, TrainingReport};

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::{ns_since, ratio, run_cell, CellOutcome, Ctx, Workload};

/// The LLC model and its oracle.
pub const L_MODEL: &str = "rl::cachemodel";
/// Network forward passes that choose victims.
pub const L_INFER: &str = "rl::agent(infer)";
/// Replay sampling and network updates.
pub const L_LEARN: &str = "rl::agent(learn)";

/// DQN training on an `429.mcf` LLC trace.
pub struct RlTrain;

/// LLC records captured; the training trace keeps the first `RECORDS` of
/// those that fall in `RL_LLC.sets` sampled sets (about 3k of them), so
/// every seed trains on the same number of records.
const CAPTURED: usize = 100_000;
/// Records of the training trace.
const RECORDS: usize = 2_000;

/// The LLC slice the agent is trained against: the paper's 16 ways, so the
/// network keeps the paper's 334→175→16 shape, over 64 sets. The trace is
/// set-sampled — every record of the first 64 of the paper LLC's sets over a
/// long capture — so each set sees the reuse it sees in the full cache; a
/// short contiguous window of mcf would be all cold misses, where every
/// victim ties for Belady.
pub const RL_LLC: CacheConfig = CacheConfig {
    sets: 64,
    ways: 16,
    latency: 26,
};

/// The captured trace.
pub struct RlInput {
    trace: LlcTrace,
}

/// One pass: the training report and the evaluation statistics.
pub struct RlOut {
    train: Option<TrainingReport>,
    eval: Option<ModelStats>,
}

fn model_line(s: &ModelStats) -> String {
    format!(
        "a{} h{} da{} dh{} d{}",
        s.accesses, s.hits, s.demand_accesses, s.demand_hits, s.decisions
    )
}

/// Network updates one epoch makes: a minibatch every `train_every`
/// decisions (the replay buffer is non-empty from the second decision on).
fn updates(decisions: u64) -> u64 {
    let c = AgentConfig::default();
    decisions / u64::from(c.train_every.max(1)) * c.batch_size as u64
}

impl Workload for RlTrain {
    type Input = RlInput;
    type Out = RlOut;

    fn setup(&self, ctx: &Ctx) -> RlInput {
        let wl = workloads::spec2006("429.mcf").expect("benchmark in the SPEC roster");
        let seed = ctx.reseed(wl.seed());
        let captured = runner::capture_llc_trace(&wl.with_seed(seed), Scale::Small, CAPTURED)
            .expect("capture yields a trace");
        let paper_sets = SystemConfig::paper_single_core().llc.sets as u64;
        let trace = captured
            .records()
            .iter()
            .filter(|r| r.line % paper_sets < RL_LLC.sets as u64)
            .take(RECORDS)
            .copied()
            .collect();
        RlInput { trace }
    }

    fn pass(&self, _ctx: &Ctx, input: &RlInput, tracer: &mut Tracer) -> (Vec<CellOutcome>, RlOut) {
        let mut trainer = Trainer::new(AgentConfig::default(), &RL_LLC);
        let mut out = RlOut {
            train: None,
            eval: None,
        };
        let train = tracer.span("cell train_epoch", L_LEARN, |_| {
            run_cell("429.mcf/train_epoch".into(), || {
                let r = trainer.train_epoch(&input.trace, &RL_LLC);
                out.train = Some(r);
                format!(
                    "{} opt{} harm{} loss{:016x}",
                    model_line(&r.stats),
                    r.optimal_decisions,
                    r.harmful_decisions,
                    r.mean_loss.to_bits()
                )
            })
        });
        crate::calib::tick();
        let eval = tracer.span("cell evaluate", L_INFER, |_| {
            run_cell("429.mcf/evaluate".into(), || {
                let s = trainer.evaluate(&input.trace, &RL_LLC);
                out.eval = Some(s);
                model_line(&s)
            })
        });
        (vec![train, eval], out)
    }

    fn work(&self, out: &RlOut) -> f64 {
        (out.train.map_or(0, |r| r.stats.decisions) + out.eval.map_or(0, |s| s.decisions)) as f64
    }

    fn summarize(&self, out: &RlOut, pass_s: f64, m: &mut Metrics) {
        if let Some(r) = out.train {
            m.set("model.belady_agree_pct", 100.0 * r.optimal_rate());
        }
        m.set("train_kdps", self.work(out) / pass_s / 1e3);
    }

    fn layers(
        &self,
        _ctx: &Ctx,
        input: &RlInput,
        out: &RlOut,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>> {
        // The model alone: every record, a trivial victim choice.
        let t = Instant::now();
        let mut model = LlcModel::new(&RL_LLC, &input.trace);
        black_box(model.run(&input.trace, &mut |_| 0));
        let model_ns = ns_since(t);
        let span_ns = |name: &str| {
            traced
                .spans()
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.dur_ns() as f64)
        };
        let (train_ns, eval_ns) = (span_ns("cell train_epoch"), span_ns("cell evaluate"));
        let train_dec = out.train.map_or(0, |r| r.stats.decisions);
        let eval_dec = out.eval.map_or(0, |s| s.decisions);
        let infer = ratio((eval_ns - model_ns).max(0.0), eval_dec as f64);
        let n_updates = updates(train_dec);
        let learn_ns = (train_ns - model_ns - infer * train_dec as f64).max(0.0);
        let records = input.trace.len() as f64;
        m.set("rl.model_ns_per_record", ratio(model_ns, records));
        m.set("rl.infer_ns_per_decision", infer);
        m.set("rl.learn_ns_per_update", ratio(learn_ns, n_updates as f64));
        m.set("rl.decisions", (train_dec + eval_dec) as f64);
        m.set("rl.updates", n_updates as f64);
        let mut splits = BTreeMap::new();
        splits.insert(
            "cell train_epoch".to_owned(),
            vec![
                (L_MODEL, ratio(model_ns, train_ns).min(1.0)),
                (L_INFER, ratio(infer * train_dec as f64, train_ns)),
            ],
        );
        splits.insert(
            "cell evaluate".to_owned(),
            vec![(L_MODEL, ratio(model_ns, eval_ns).min(1.0))],
        );
        splits
    }
}
