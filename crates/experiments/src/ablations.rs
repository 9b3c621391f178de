//! RLR design-choice ablations (§V-B and §IV-C of the paper).

use cache_sim::{ReplacementPolicy, SystemConfig};
use rlr::{AgeUnit, RecencyMode, RlrConfig, RlrPolicy};
use workloads::{spec2006, TRAINING_SET};

use crate::geomean_speedup_pct;
use crate::report::Table;
use crate::runner::simulate_single;
use crate::scale::Scale;

/// Runs a workload with an explicitly configured policy (statically
/// dispatched — `P` monomorphizes the whole system).
fn run_with<P: ReplacementPolicy>(
    workload: &workloads::Workload,
    policy: P,
    scale: Scale,
) -> cache_sim::RunStats {
    let config = SystemConfig::paper_single_core();
    simulate_single(&config, workload, policy, scale.warmup(), scale.instructions())
}

/// Geomean speedup over LRU of an RLR configuration across the training
/// benchmarks (the memory-sensitive subset, keeping ablations fast).
fn geomean_speedup(config: RlrConfig, scale: Scale) -> f64 {
    let system = SystemConfig::paper_single_core();
    geomean_speedup_pct(TRAINING_SET.iter().map(|&name| {
        let workload = spec2006(name).expect("training benchmark");
        let lru = run_with(&workload, cache_sim::TrueLru::new(&system.llc), scale);
        let stats = run_with(&workload, RlrPolicy::with_config(config, &system.llc), scale);
        stats.speedup_pct_over(&lru)
    }))
}

/// §V-B: contribution of the hit and type priorities. The paper reports
/// that disabling the hit register costs 12% of RLR's speedup and disabling
/// the type register costs 30%.
pub fn hit_type_ablation(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: hit/type priority contributions (training set)",
        vec!["variant".into(), "speedup over LRU (%)".into(), "share of full speedup (%)".into()],
    );
    let full = geomean_speedup(RlrConfig::optimized(), scale);
    let variants: Vec<(&str, RlrConfig)> = vec![
        ("RLR (full)", RlrConfig::optimized()),
        ("- hit priority", RlrConfig { use_hit_priority: false, ..RlrConfig::optimized() }),
        ("- type priority", RlrConfig { use_type_priority: false, ..RlrConfig::optimized() }),
        ("- both", RlrConfig {
            use_hit_priority: false,
            use_type_priority: false,
            ..RlrConfig::optimized()
        }),
    ];
    for (name, config) in variants {
        let s = geomean_speedup(config, scale);
        let share = if full.abs() < 1e-9 { 0.0 } else { s / full * 100.0 };
        table.push_row(vec![name.to_owned(), Table::fmt(s), Table::fmt(share)]);
    }
    table.push_note("paper: -12% of gain without hit register, -30% without type register");
    table
}

/// §IV-C: age-counter width sweep (2–8 bits on the unoptimized base).
pub fn age_bits_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: age counter width (unoptimized base)",
        vec!["age bits".into(), "speedup over LRU (%)".into()],
    );
    for bits in 2..=8u32 {
        let config = RlrConfig { age_bits: bits, ..RlrConfig::unoptimized() };
        table.push_row(vec![bits.to_string(), Table::fmt(geomean_speedup(config, scale))]);
    }
    table.push_note("paper picks 5 bits as the quality/cost knee");
    table
}

/// RD-multiplier sweep (the paper doubles the average preuse distance).
pub fn rd_multiplier_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: RD multiplier",
        vec!["multiplier".into(), "speedup over LRU (%)".into()],
    );
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let config = RlrConfig { rd_multiplier: mult, ..RlrConfig::optimized() };
        table.push_row(vec![format!("{mult:.1}"), Table::fmt(geomean_speedup(config, scale))]);
    }
    table.push_note("paper: x2 lets lines with preuse < reuse distance survive to their reuse");
    table
}

/// Demand-hit window sweep (RD update period; the paper uses 32).
pub fn window_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: RD demand-hit window",
        vec!["window".into(), "speedup over LRU (%)".into()],
    );
    for window in [8u32, 16, 32, 64, 128] {
        let config = RlrConfig { demand_hit_window: window, ..RlrConfig::optimized() };
        table.push_row(vec![window.to_string(), Table::fmt(geomean_speedup(config, scale))]);
    }
    table
}

/// Recency representation: exact log2(ways) bits vs the age==0
/// approximation, on both age units.
pub fn recency_mode_ablation(scale: Scale) -> Table {
    let mut table = Table::new(
        "Ablation: recency representation and age unit",
        vec!["variant".into(), "speedup over LRU (%)".into(), "overhead (KB)".into()],
    );
    let llc = SystemConfig::paper_single_core().llc;
    let variants: Vec<(&str, RlrConfig)> = vec![
        ("optimized (epochs + age-approx)", RlrConfig::optimized()),
        (
            "epochs + exact recency",
            RlrConfig { recency: RecencyMode::Exact, ..RlrConfig::optimized() },
        ),
        (
            "set accesses + age-approx",
            RlrConfig {
                age_unit: AgeUnit::SetAccesses,
                age_bits: 5,
                recency: RecencyMode::AgeApprox,
                ..RlrConfig::optimized()
            },
        ),
        ("unoptimized (accesses + exact)", RlrConfig::unoptimized()),
    ];
    for (name, config) in variants {
        let policy = RlrPolicy::with_config(config, &llc);
        let kb = policy.overhead_bits(&llc) as f64 / 8.0 / 1024.0;
        table.push_row(vec![
            name.to_owned(),
            Table::fmt(geomean_speedup(config, scale)),
            Table::fmt(kb),
        ]);
    }
    table
}

/// §V-B prefetcher study: KPC-R and RLR under the default IP-stride L2
/// prefetcher versus KPC-P. The paper reports that with KPC-P, KPC-R and
/// RLR improve by 3.9% and 5.5% respectively on SPEC — RLR stays ahead of
/// KPC-R even under KPC's own prefetcher.
pub fn kpc_prefetcher_comparison(scale: Scale) -> Table {
    use crate::roster::PolicyKind;
    let mut table = Table::new(
        "Ablation: L2 prefetcher study (SV-B) - speedup over LRU (%) on the training set",
        vec!["policy".into(), "IP-stride".into(), "KPC-P".into()],
    );
    let speedup = |policy: PolicyKind, kpc: bool| {
        let mut system = SystemConfig::paper_single_core();
        if kpc {
            system = system.with_kpc_prefetcher();
        }
        crate::geomean_speedup_pct(TRAINING_SET.iter().map(|&name| {
            let workload = spec2006(name).expect("training benchmark");
            let run = |kind: PolicyKind| {
                let policy = kind.build(&system.llc, None);
                simulate_single(&system, &workload, policy, scale.warmup(), scale.instructions())
            };
            run(policy).speedup_pct_over(&run(PolicyKind::Lru))
        }))
    };
    for policy in [PolicyKind::KpcR, PolicyKind::Rlr, PolicyKind::Drrip] {
        table.push_row(vec![
            policy.name().to_owned(),
            Table::fmt(speedup(policy, false)),
            Table::fmt(speedup(policy, true)),
        ]);
    }
    table.push_note("paper (full SPEC): with KPC-P, KPC-R gains 3.9% and RLR 5.5% over LRU");
    table
}

/// RL extensions the paper mentions but does not build: PC-augmented
/// features ("RL performance can be improved by including PC-based
/// features") and multiple agents partitioned over cache sets (§III-A).
/// Trains each variant on a subset of the training benchmarks and reports
/// trace-replay demand hit rates against Belady.
pub fn rl_extensions(scale: Scale) -> Table {
    use rl::{AgentConfig, FeatureSet, LlcModel, MultiAgentTrainer, Trainer};

    // A smaller model LLC (512 KB) that the scaled-down traces can warm;
    // only *relative* hit rates across agent variants matter here.
    let llc = cache_sim::CacheConfig { sets: 512, ways: 16, latency: 26 };
    let mut table = Table::new(
        "RL extensions: trace-replay demand hit rate (%)",
        vec![
            "benchmark".into(),
            "RL (Table II)".into(),
            "RL + PC features".into(),
            "RL x2 agents".into(),
            "Belady".into(),
        ],
    );
    // Two representative training benchmarks keep this affordable.
    for name in ["450.soplex", "483.xalancbmk"] {
        let workload = spec2006(name).expect("training benchmark");
        let trace = crate::runner::capture_llc_trace(&workload, scale, scale.rl_trace_len())
            .expect("capture is enabled for the whole run");
        let epochs = scale.rl_epochs().min(3);

        let base_config = AgentConfig {
            hidden: scale.rl_hidden().min(64),
            seed: 0x5EED_0001,
            features: FeatureSet::full(),
            ..AgentConfig::default()
        };
        let mut base = Trainer::new(base_config, &llc);
        for _ in 0..epochs {
            let _ = base.train_epoch(&trace, &llc);
        }
        let base_rate = base.evaluate(&trace, &llc).demand_hit_rate() * 100.0;

        let pc_config = AgentConfig { features: FeatureSet::full_with_pc(), ..base_config };
        let mut with_pc = Trainer::new(pc_config, &llc);
        for _ in 0..epochs {
            let _ = with_pc.train_epoch(&trace, &llc);
        }
        let pc_rate = with_pc.evaluate(&trace, &llc).demand_hit_rate() * 100.0;

        let mut multi = MultiAgentTrainer::new(2, base_config, &llc);
        for _ in 0..epochs {
            let _ = multi.train_epoch(&trace, &llc);
        }
        let multi_rate = multi.evaluate(&trace, &llc).demand_hit_rate() * 100.0;

        let mut opt = LlcModel::new(&llc, &trace);
        let belady = opt.run_belady(&trace).demand_hit_rate() * 100.0;

        table.push_row(vec![
            name.to_owned(),
            Table::fmt(base_rate),
            Table::fmt(pc_rate),
            Table::fmt(multi_rate),
            Table::fmt(belady),
        ]);
        eprintln!("[rl-ext] {name} done");
    }
    table.push_note("extensions the paper mentions (SIII-A / SI) but leaves unbuilt");
    table
}

/// §III-B: greedy forward feature selection. The paper's hill climb over
/// the Table II features converged on five: access preuse, line preuse,
/// line last access type, line hits since insertion, and line recency.
/// This reruns the procedure on (scaled-down) captured traces.
///
/// The search model uses a smaller LLC than Table III so that short traces
/// warm it: feature *rankings* transfer across sizes, which is all the
/// selection needs.
pub fn hill_climb_selection(scale: Scale) -> Table {
    let small_llc = cache_sim::CacheConfig { sets: 256, ways: 16, latency: 26 };
    let mut table = Table::new(
        "Hill climbing feature selection (SIII-B)",
        vec!["round".into(), "feature added".into(), "demand hit rate (%)".into()],
    );
    let names = ["450.soplex", "471.omnetpp", "483.xalancbmk"];
    let mut traces = Vec::new();
    for name in names {
        let workload = spec2006(name).expect("training benchmark");
        let mut trace = crate::runner::capture_llc_trace(&workload, scale, scale.hill_trace_len())
            .expect("capture is enabled for the whole run");
        trace.truncate(scale.hill_trace_len());
        traces.push((name, trace));
    }
    let refs: Vec<(&str, &cache_sim::LlcTrace)> =
        traces.iter().map(|(n, t)| (*n, t)).collect();
    let rounds = rl::analysis::hill_climb(&refs, &small_llc, scale.hill_max_features(), 1, 0xC11B);
    for (i, round) in rounds.iter().enumerate() {
        table.push_row(vec![
            (i + 1).to_string(),
            round.added.to_string(),
            Table::fmt(round.score * 100.0),
        ]);
    }
    table.push_note(
        "paper's converged set: access preuse, line preuse, line last access type, \
         line hits since insertion, line recency",
    );
    table
}

/// Every ablation, in sequence.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        hit_type_ablation(scale),
        age_bits_sweep(scale),
        rd_multiplier_sweep(scale),
        window_sweep(scale),
        recency_mode_ablation(scale),
        kpc_prefetcher_comparison(scale),
    ]
}
