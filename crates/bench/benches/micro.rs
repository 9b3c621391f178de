//! Micro-benchmarks: policy decision latency, simulator and MLP
//! throughput, on the in-tree wall-clock harness.

use std::hint::black_box;

use cache_sim::{SingleCoreSystem, SystemConfig};
use experiments::PolicyKind;
use rl::Mlp;
use rlr_bench::harness;

/// Simulated instructions per iteration for the end-to-end benches.
const SIM_INSTRUCTIONS: u64 = 200_000;

fn main() {
    let _ = rlr_bench::start("micro");
    let mut measurements = Vec::new();

    let config = SystemConfig::paper_single_core();
    let workload = workloads::spec2006("429.mcf").expect("known benchmark");
    println!("simulate_mcf_200k_instructions:");
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Hawkeye,
        PolicyKind::Rlr,
        PolicyKind::RlrUnopt,
    ] {
        measurements.push(harness::bench(
            &format!("simulate_mcf_200k/{}", kind.name()),
            || {
                let mut system = SingleCoreSystem::new(&config, kind.build(&config.llc, None));
                black_box(system.run(workload.stream(), SIM_INSTRUCTIONS))
            },
        ));
    }

    // The paper's agent: 334 -> 175 -> 16.
    let net = Mlp::new(334, 175, 16, 7);
    let input = vec![0.25f32; 334];
    println!("mlp inference and training:");
    measurements.push(harness::bench("mlp_334_175_16_inference", || {
        // One inference is far below timer resolution; time a burst.
        for _ in 0..64 {
            black_box(net.predict(black_box(&input)));
        }
    }));
    // One DQN update: a forward pass plus a backward pass that applies
    // SGD with momentum to every weight, at the agent's default rates.
    let mut learner = net.clone();
    measurements.push(harness::bench("mlp_334_175_16_train_action", || {
        for i in 0..64 {
            black_box(learner.train_action(black_box(&input), i % 16, 0.5, 5e-3, 0.9));
        }
    }));

    harness::write_json("micro", &measurements);
}
