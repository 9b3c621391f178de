//! End-to-end RL pipeline test: capture → train → evaluate → interpret,
//! on a real (scaled-down) workload.

use cache_sim::{CacheConfig, SingleCoreSystem, SystemConfig, TrueLru};
use rl::{analysis, AgentConfig, FeatureSet, LlcModel, Trainer};
use workloads::{Recipe, Workload};

/// Captures a short LLC trace from the full hierarchy.
fn capture(workload: &Workload, instructions: u64) -> cache_sim::LlcTrace {
    let config = SystemConfig::paper_single_core();
    let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
    system.llc_mut().enable_capture();
    let _ = system.run(workload.stream(), instructions);
    system.llc_mut().take_capture().expect("capture enabled")
}

#[test]
fn agent_learns_a_mixed_workload_end_to_end() {
    // Hot Zipf set + a scan bigger than the LLC: the agent must learn to
    // keep the hot lines while aging out scan lines. (A pure thrash
    // pattern would be a bad test: constant-way eviction — which an
    // untrained network produces — is already optimal there.)
    // Footprints must exceed the 256 KB L2, or the LLC never sees reuse.
    let wl = Workload::new(
        "e2e-mix",
        Recipe::Mix(vec![
            (2, Recipe::Zipf { bytes: 1 << 20, skew: 1.2, store_ratio: 0.1 }),
            (1, Recipe::Cyclic { bytes: 4 << 20, stride: 64, store_ratio: 0.0 }),
        ]),
    )
    .with_local(0.2);
    let llc = CacheConfig { sets: 64, ways: 16, latency: 26 }; // 64 KB
    let mut trace = capture(&wl, 300_000);
    trace.truncate(40_000);
    assert!(trace.len() > 2_000, "trace too small: {}", trace.len());

    let config = AgentConfig { hidden: 24, seed: 5, features: FeatureSet::full(), ..AgentConfig::default() };
    let mut trainer = Trainer::new(config, &llc);
    // Baseline: a seeded random chooser (no learning at all).
    let mut random_model = LlcModel::new(&llc, &trace);
    let mut state = 0x1234_5678u64;
    let ways = llc.ways as u64;
    let random = random_model.run(&trace, &mut |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % ways) as u16
    });
    for _ in 0..2 {
        let _ = trainer.train_epoch(&trace, &llc);
    }
    let trained = trainer.evaluate(&trace, &llc);
    let mut belady = LlcModel::new(&llc, &trace);
    let optimal = belady.run_belady(&trace);

    assert!(
        trained.hits > random.hits,
        "training must beat random eviction: {} -> {}",
        random.hits,
        trained.hits
    );
    assert!(optimal.hits >= trained.hits, "nothing beats Belady");

    // Interpretation must produce a full heat map.
    let heat = analysis::weight_heatmap(trainer.agent());
    assert_eq!(heat.len(), rl::NUM_FEATURES);
}

#[test]
fn trained_network_round_trips_through_disk() {
    let llc = CacheConfig { sets: 16, ways: 4, latency: 26 };
    let wl = Workload::new("rt", Recipe::Zipf { bytes: 64 << 10, skew: 0.8, store_ratio: 0.2 });
    let trace = capture(&wl, 100_000);
    let config = AgentConfig { hidden: 16, seed: 2, ..AgentConfig::default() };
    let mut trainer = Trainer::new(config, &llc);
    let _ = trainer.train_epoch(&trace, &llc);

    let mut buf = Vec::new();
    trainer.agent().net().save(&mut buf).expect("in-memory save");
    let net = rl::Mlp::load(buf.as_slice()).expect("load");
    let restored = rl::Agent::from_net(config, &llc, net).expect("the network fits the cache");

    // Greedy decisions must be identical before and after the round trip.
    let mut model_a = LlcModel::new(&llc, &trace);
    let mut model_b = LlcModel::new(&llc, &trace);
    let a = model_a.run(&trace, &mut |v| trainer.agent().decide_greedy(v));
    let b = model_b.run(&trace, &mut |v| restored.decide_greedy(v));
    assert_eq!(a, b);
}

#[test]
fn hill_climbing_finds_reuse_features_on_thrash() {
    // On a pure cyclic thrash pattern, age/recency-style features are the
    // signal; hill climbing should pick features and improve the score.
    let wl = Workload::new(
        "hc",
        Recipe::Cyclic { bytes: 48 << 10, stride: 64, store_ratio: 0.0 },
    )
    .with_local(0.0);
    let llc = CacheConfig { sets: 16, ways: 16, latency: 26 }; // 16 KB
    let trace = capture(&wl, 80_000);
    let rounds = analysis::hill_climb(&[("hc", &trace)], &llc, 2, 1, 3);
    assert!(!rounds.is_empty(), "at least one feature must help");
    assert!(rounds[0].score > 0.0);
}
