//! Every figure of the paper's evaluation, as harness functions.

use rl::stats::{collect_victim_stats, preuse_reuse_gap};
use rl::LlcModel;
use workloads::{random_spec_mixes, spec2006, CLOUDSUITE, SPEC2006};

use crate::checkpoint::Cell as _;
use crate::pipeline::TrainedPipeline;
use crate::report::Table;
use crate::roster::PolicyKind;
use crate::runner::{
    mix_speedup_pct, run_mix, run_roster_resilient, run_single, ResilientSweep, SingleCoreCell,
    SweepOptions,
};
use crate::scale::Scale;
use crate::geomean_speedup_pct;

/// Fraction of a trace-driven replay excluded from measurement (model
/// cold-start; the 2 MB LLC needs a sizeable slice of the trace to fill).
const REPLAY_WARM_FRACTION: f64 = 0.5;

/// Replays a trace through the LLC-only model with `chooser`, skipping the
/// warm fraction, and returns the demand hit rate in percent.
fn replay_hit_rate(
    trace: &cache_sim::LlcTrace,
    cache: &cache_sim::CacheConfig,
    mut chooser: impl FnMut(&rl::DecisionView) -> u16,
) -> f64 {
    let mut model = LlcModel::new(cache, trace);
    let skip = (trace.len() as f64 * REPLAY_WARM_FRACTION) as usize;
    for (i, record) in trace.records().iter().enumerate() {
        if i == skip {
            model.reset_stats();
        }
        let _ = model.step(record, &mut chooser);
    }
    model.stats().demand_hit_rate() * 100.0
}

/// Belady hit rate on a trace (same measured window as [`replay_hit_rate`]).
fn belady_hit_rate(trace: &cache_sim::LlcTrace, cache: &cache_sim::CacheConfig) -> f64 {
    let mut model = LlcModel::new(cache, trace);
    let skip = (trace.len() as f64 * REPLAY_WARM_FRACTION) as usize;
    for (i, record) in trace.records().iter().enumerate() {
        if i == skip {
            model.reset_stats();
        }
        let _ = model.step_belady(record);
    }
    model.stats().demand_hit_rate() * 100.0
}

/// Figure 1: LLC demand hit rate for LRU, DRRIP, SHiP, SHiP++, Hawkeye and
/// RLR (full-hierarchy runs), plus the trained RL agent and Belady
/// (trace-driven replay, as in the paper's footnote 1), over the eight
/// training benchmarks.
pub fn fig1(scale: Scale) -> Table {
    let pipeline = TrainedPipeline::build(scale);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::ShipPp,
        PolicyKind::Hawkeye,
        PolicyKind::Rlr,
    ];
    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(policies.iter().map(|p| p.name().to_owned()));
    headers.push("LRU*".to_owned());
    headers.push("RL*".to_owned());
    headers.push("Belady*".to_owned());
    let mut table = Table::new("Fig 1: LLC hit rate (%)", headers);

    for tb in &pipeline.benchmarks {
        let workload = spec2006(tb.name).expect("training benchmark");
        let mut row = vec![tb.name.to_owned()];
        for &p in &policies {
            let stats = run_single(&workload, p, scale);
            row.push(Table::fmt(stats.llc_hit_rate_pct()));
        }
        // Trace-driven LRU baseline: evict the line with the largest age.
        row.push(Table::fmt(replay_hit_rate(&tb.trace, &pipeline.cache, |v| {
            let mut victim = 0usize;
            for (w, line) in v.lines.iter().enumerate() {
                if line.age_since_last_access
                    > v.lines[victim].age_since_last_access
                {
                    victim = w;
                }
            }
            victim as u16
        })));
        let agent = &tb.agent;
        row.push(Table::fmt(replay_hit_rate(&tb.trace, &pipeline.cache, |v| {
            agent.decide_greedy(v)
        })));
        row.push(Table::fmt(belady_hit_rate(&tb.trace, &pipeline.cache)));
        table.push_row(row);
    }
    table.push_note(
        "Starred columns replay the captured trace in the LLC-only simulator (the paper's \
         footnote 1); compare RL*/Belady* against LRU*, not the full-hierarchy columns.",
    );
    table
}

/// Figure 3: heat map of first-layer weight magnitudes per feature (rows)
/// and training benchmark (columns). Higher = more important to the agent.
pub fn fig3(scale: Scale) -> Table {
    let pipeline = TrainedPipeline::build(scale);
    let mut headers = vec!["feature".to_owned()];
    headers.extend(pipeline.benchmarks.iter().map(|b| b.name.to_owned()));
    let mut table = Table::new("Fig 3: weight heat map (mean |w|)", headers);

    let maps: Vec<Vec<(rl::Feature, f64)>> = pipeline
        .benchmarks
        .iter()
        .map(|b| rl::analysis::weight_heatmap(&b.agent))
        .collect();
    // The agents observe the Table II features; rows follow the first
    // map's feature list (identical across agents).
    for (i, &(feature, _)) in maps[0].iter().enumerate() {
        let mut row = vec![feature.short_name().to_owned()];
        for map in &maps {
            row.push(format!("{:.4}", map[i].1));
        }
        table.push_row(row);
    }
    table.push_note("paper's top features: access preuse, line preuse, line last access type, line hits since insertion, line recency");
    table
}

/// Figure 4: distribution of |preuse − reuse| for reused lines, per
/// training benchmark.
pub fn fig4(scale: Scale) -> Table {
    let llc = cache_sim::SystemConfig::paper_single_core().llc;
    let mut table = Table::new(
        "Fig 4: |preuse - reuse| distribution (% of reused lines)",
        vec!["benchmark".into(), "<10".into(), "10-50".into(), ">50".into()],
    );
    for (name, trace) in crate::pipeline::training_traces(scale) {
        let gap = preuse_reuse_gap(&trace, &llc);
        let p = gap.percentages();
        table.push_row(vec![
            name.to_owned(),
            Table::fmt(p[0]),
            Table::fmt(p[1]),
            Table::fmt(p[2]),
        ]);
    }
    table
}

/// Figures 5–7 share one replay of the trained agent per benchmark.
fn victim_stats_table(scale: Scale, which: VictimFigure) -> Table {
    let pipeline = TrainedPipeline::build(scale);
    let ways = pipeline.cache.ways as usize;
    let mut table = match which {
        VictimFigure::AgeByType => Table::new(
            "Fig 5: average victim age by access type",
            vec!["benchmark".into(), "LOAD".into(), "RFO".into(), "PREFETCH".into(), "WRITEBACK".into()],
        ),
        VictimFigure::Hits => Table::new(
            "Fig 6: victims by hits at eviction (%)",
            vec!["benchmark".into(), "0 hits".into(), "1 hit".into(), ">1 hits".into()],
        ),
        VictimFigure::Recency => {
            let mut headers = vec!["benchmark".to_owned()];
            headers.extend((0..ways).map(|r| r.to_string()));
            Table::new("Fig 7: victim recency distribution (%)", headers)
        }
    };

    for tb in &pipeline.benchmarks {
        let agent = &tb.agent;
        let stats = collect_victim_stats(&tb.trace, &pipeline.cache, &mut |v| {
            agent.decide_greedy(v)
        });
        let mut row = vec![tb.name.to_owned()];
        match which {
            VictimFigure::AgeByType => {
                row.extend(stats.avg_age_by_kind().iter().map(|&v| Table::fmt(v)));
            }
            VictimFigure::Hits => {
                row.extend(stats.hits_percentages().iter().map(|&v| Table::fmt(v)));
            }
            VictimFigure::Recency => {
                row.extend(stats.recency_percentages().iter().map(|&v| Table::fmt(v)));
            }
        }
        table.push_row(row);
    }
    table
}

#[derive(Clone, Copy)]
enum VictimFigure {
    AgeByType,
    Hits,
    Recency,
}

/// Figure 5: average victim age (set accesses since last access), per
/// access type, for the trained agent's evictions.
pub fn fig5(scale: Scale) -> Table {
    victim_stats_table(scale, VictimFigure::AgeByType)
}

/// Figure 6: percentage of the agent's victims with 0, 1, and >1 hits.
pub fn fig6(scale: Scale) -> Table {
    victim_stats_table(scale, VictimFigure::Hits)
}

/// Figure 7: recency distribution of the agent's victims.
pub fn fig7(scale: Scale) -> Table {
    victim_stats_table(scale, VictimFigure::Recency)
}

/// Runs the full single-core sweep used by Figs. 10/12 and Table IV,
/// sharded over the worker pool (`RLR_JOBS` / available parallelism) with
/// failure isolation, retries, and per-cell resume (`RLR_RETRIES`,
/// `RLR_CHECKPOINT`; see [`SweepOptions::from_env`]). Failed cells appear
/// as `Err` and degrade to annotated gaps in the rendered tables.
pub fn single_core_sweep(benchmarks: &[&str], scale: Scale) -> ResilientSweep {
    let mut policies = vec![PolicyKind::Lru];
    policies.extend_from_slice(&PolicyKind::SINGLE_CORE);
    let opts = SweepOptions::from_env(SingleCoreCell::FAMILY);
    run_roster_resilient(benchmarks, &policies, scale, &opts)
        .expect("roster benchmark names are statically known")
}

/// Builds a speedup-over-LRU table from a resilient sweep, degrading
/// gracefully: a failed policy cell renders as `failed` (and is excluded
/// from the Overall geomean), a failed LRU baseline blanks its whole row,
/// and every failure is listed in a footnote.
pub fn speedup_table(title: &str, sweep: &ResilientSweep) -> Table {
    let mut headers = vec!["benchmark".to_owned()];
    headers.extend(PolicyKind::SINGLE_CORE.iter().map(|p| p.name().to_owned()));
    let mut table = Table::new(title, headers);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); PolicyKind::SINGLE_CORE.len()];
    let mut failures: Vec<String> = Vec::new();
    for (name, runs) in sweep {
        let mut row = vec![name.clone()];
        match &runs[0].1 {
            Err(e) => {
                failures.push(format!("{name}/LRU: {}", e.kind));
                row.extend(std::iter::repeat_n("n/a".to_owned(), PolicyKind::SINGLE_CORE.len()));
            }
            Ok(lru) => {
                for (i, (policy, cell)) in runs[1..].iter().enumerate() {
                    match cell {
                        Ok(stats) => {
                            let s = stats.speedup_pct_over(lru);
                            per_policy[i].push(s);
                            row.push(Table::fmt(s));
                        }
                        Err(e) => {
                            failures.push(format!("{name}/{}: {}", policy.name(), e.kind));
                            row.push("failed".to_owned());
                        }
                    }
                }
            }
        }
        table.push_row(row);
    }
    let mut overall = vec!["Overall".to_owned()];
    for col in &per_policy {
        overall.push(Table::fmt(geomean_speedup_pct(col.iter().copied())));
    }
    table.push_row(overall);
    if !failures.is_empty() {
        table.push_note(format!(
            "failed cells (excluded from Overall): {}",
            failures.join("; ")
        ));
    }
    table
}

/// Figure 10: IPC speedup over LRU for all 29 SPEC CPU 2006 benchmarks.
pub fn fig10(scale: Scale) -> Table {
    let sweep = single_core_sweep(&SPEC2006, scale);
    speedup_table("Fig 10: IPC speedup over LRU (%), SPEC CPU 2006", &sweep)
}

/// Figure 11: IPC speedup over LRU for the CloudSuite benchmarks.
pub fn fig11(scale: Scale) -> Table {
    let sweep = single_core_sweep(&CLOUDSUITE, scale);
    speedup_table("Fig 11: IPC speedup over LRU (%), CloudSuite", &sweep)
}

/// Figure 12: demand MPKI for every benchmark whose LRU MPKI exceeds 3
/// (the paper's filter), all policies including LRU.
pub fn fig12(scale: Scale) -> Table {
    let sweep = single_core_sweep(&SPEC2006, scale);
    let mut headers = vec!["benchmark".to_owned(), "LRU".to_owned()];
    headers.extend(PolicyKind::SINGLE_CORE.iter().map(|p| p.name().to_owned()));
    let mut table = Table::new("Fig 12: demand MPKI (benchmarks with LRU MPKI > 3)", headers);
    let mut failures: Vec<String> = Vec::new();
    for (name, runs) in &sweep {
        let Ok(lru) = &runs[0].1 else {
            // Without the LRU baseline the MPKI filter can't be applied;
            // report the gap instead of silently dropping the benchmark.
            failures.push(format!("{name}/LRU"));
            continue;
        };
        let lru_mpki = lru.llc_demand_mpki();
        if lru_mpki <= 3.0 {
            continue;
        }
        let mut row = vec![name.clone(), Table::fmt(lru_mpki)];
        for (policy, cell) in &runs[1..] {
            match cell {
                Ok(stats) => row.push(Table::fmt(stats.llc_demand_mpki())),
                Err(_) => {
                    failures.push(format!("{name}/{}", policy.name()));
                    row.push("failed".to_owned());
                }
            }
        }
        table.push_row(row);
    }
    if !failures.is_empty() {
        table.push_note(format!("failed cells: {}", failures.join("; ")));
    }
    table
}

/// Figure 13: per-mix 4-core speedups over LRU for random SPEC mixes.
pub fn fig13(scale: Scale) -> Table {
    let mixes = random_spec_mixes(scale.mix_count(), 4, 2021);
    let mut headers = vec!["mix".to_owned(), "workloads".to_owned()];
    headers.extend(PolicyKind::MULTI_CORE.iter().map(|p| p.name().to_owned()));
    let mut table = Table::new("Fig 13: 4-core IPC speedup over LRU (%), SPEC mixes", headers);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); PolicyKind::MULTI_CORE.len()];
    for mix in &mixes {
        let lru = run_mix(mix, PolicyKind::Lru, scale);
        let mut row = vec![
            mix.name().to_owned(),
            mix.workloads()
                .iter()
                .map(|w| w.name().split('.').next_back().unwrap_or(w.name()))
                .collect::<Vec<_>>()
                .join("+"),
        ];
        for (i, &p) in PolicyKind::MULTI_CORE.iter().enumerate() {
            let runs = run_mix(mix, p, scale);
            let s = mix_speedup_pct(&runs, &lru);
            per_policy[i].push(s);
            row.push(Table::fmt(s));
        }
        eprintln!("[fig13] {} done", mix.name());
        table.push_row(row);
    }
    let mut overall = vec!["Overall".to_owned(), String::new()];
    for col in &per_policy {
        overall.push(Table::fmt(geomean_speedup_pct(col.iter().copied())));
    }
    table.push_row(overall);
    table
}

