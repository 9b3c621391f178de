//! `sim_1core` and `sim_4core_event`: full-hierarchy simulation.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cache_sim::{
    CacheStats, CoreHierarchy, DataRequest, MultiCoreSystem, RunStats, SetAssocCache, SharedLlc,
    SingleCoreSystem, SystemConfig, TimingMode,
};
use experiments::runner::{self, HierarchyReplayMode, RunOptions};
use experiments::{PolicyKind, Scale};
use workloads::{TraceEntry, WorkloadMix};

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::{ns_since, ratio, CellOutcome, Ctx, Workload};

/// Layer names used in the simulation waterfalls.
pub const L_WORKLOADS: &str = "workloads";
/// L1I/L1D/L2 and the prefetchers.
pub const L_HIERARCHY: &str = "cache_sim::hierarchy";
/// LLC probe, fill and victim choice.
pub const L_LLC: &str = "cache_sim::cache+policies+rlr";
/// Instruction fetch plus the core timing model.
pub const L_FETCH_TIMING: &str = "cache_sim::timing+fetch";
/// The discrete-event core and DRAM bank queues, beyond analytic timing.
pub const L_EVENT: &str = "cache_sim::event+dram";
/// The system loop (and, on 4 cores, the scheduler with everything the
/// analytic model runs).
pub const L_SYSTEM: &str = "cache_sim::system";

/// Canonical counter line of one cache level.
pub fn cache_line(c: &CacheStats) -> String {
    let kinds: Vec<String> = c
        .by_kind
        .iter()
        .map(|k| format!("{}/{}", k.accesses, k.hits))
        .collect();
    format!(
        "{} wb{} by{} ev{}",
        kinds.join(","),
        c.writebacks_out,
        c.bypasses,
        c.evictions
    )
}

/// Canonical counter line of one simulated run: every functional counter
/// and the cycle count.
pub fn stats_line(s: &RunStats) -> String {
    format!(
        "i{} c{} l1d[{}] l2[{}] llc[{}] mr{} mw{} rh{} rm{}",
        s.instructions,
        s.cycles,
        cache_line(&s.l1d),
        cache_line(&s.l2),
        cache_line(&s.llc),
        s.memory_reads,
        s.memory_writes,
        s.dram_row_hits,
        s.dram_row_misses
    )
}

fn pct(num: u64, den: u64) -> f64 {
    100.0 * ratio(num as f64, den as f64)
}

/// Hierarchy counters summed over `runs`, LLC and DRAM counters over
/// `llcs` (a multicore run reports its shared LLC on every core, so only
/// one core per run is passed there).
fn hierarchy_metrics(runs: &[&RunStats], llcs: &[&RunStats], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&RunStats) -> u64, rs: &[&RunStats]| rs.iter().map(|s| f(s)).sum::<u64>();
    m.set(
        "hierarchy.l1d_hit_pct",
        pct(
            sum(&|s| s.l1d.hits(), runs),
            sum(&|s| s.l1d.accesses(), runs),
        ),
    );
    m.set(
        "hierarchy.l2_hit_pct",
        pct(sum(&|s| s.l2.hits(), runs), sum(&|s| s.l2.accesses(), runs)),
    );
    m.set(
        "hierarchy.l2_requests",
        sum(&|s| s.l2.accesses(), runs) as f64,
    );
    m.set(
        "hierarchy.llc_prefetches",
        sum(&|s| s.llc.by_kind[2].accesses, llcs) as f64,
    );
    m.set("llc.accesses", sum(&|s| s.llc.accesses(), llcs) as f64);
    m.set("llc.evictions", sum(&|s| s.llc.evictions, llcs) as f64);
    m.set(
        "llc.writebacks",
        sum(&|s| s.llc.writebacks_out, llcs) as f64,
    );
    m.set(
        "dram.row_hit_pct",
        pct(
            sum(&|s| s.dram_row_hits, llcs),
            sum(&|s| s.dram_row_hits + s.dram_row_misses, llcs),
        ),
    );
    m.set("sim.cycles", sum(&|s| s.cycles, runs) as f64);
}

fn policy_metric(p: PolicyKind) -> Option<&'static str> {
    Some(match p {
        PolicyKind::Lru => "llc.lru.ns_per_access",
        PolicyKind::Srrip => "llc.srrip.ns_per_access",
        PolicyKind::Drrip => "llc.drrip.ns_per_access",
        PolicyKind::ShipPp => "llc.shippp.ns_per_access",
        PolicyKind::Hawkeye => "llc.hawkeye.ns_per_access",
        PolicyKind::Rlr | PolicyKind::RlrMulticore => "llc.rlr.ns_per_access",
        _ => return None,
    })
}

/// Sets `llc.<policy>.ns_per_access` from (ns, accesses) totals, and the
/// RLR-over-LRU difference when both were measured.
pub fn llc_policy_metrics(totals: &[(PolicyKind, f64, f64)], m: &mut Metrics) {
    for &(p, ns, n) in totals {
        if let Some(name) = policy_metric(p) {
            m.set(name, ratio(ns, n));
        }
    }
    if let (Some(rlr), Some(lru)) = (
        m.get("llc.rlr.ns_per_access"),
        m.get("llc.lru.ns_per_access"),
    ) {
        m.set("llc.rlr_over_lru_ns", rlr - lru);
    }
}

/// Accumulates (ns, count) per key in first-seen order.
pub fn add_total<K: PartialEq>(acc: &mut Vec<(K, f64, f64)>, key: K, ns: f64, n: f64) {
    match acc.iter_mut().find(|(k, _, _)| *k == key) {
        Some(row) => {
            row.1 += ns;
            row.2 += n;
        }
        None => acc.push((key, ns, n)),
    }
}

/// Durations of the traced pass's cell spans, by span name.
fn cell_spans(traced: &Tracer) -> BTreeMap<String, f64> {
    traced
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("cell "))
        .map(|s| (s.name.clone(), s.dur_ns() as f64))
        .collect()
}

// ---------------------------------------------------------------------------
// sim_1core
// ---------------------------------------------------------------------------

/// The `rlr compare` path on one core.
pub struct Sim1Core;

/// Benchmarks of `sim_1core`, from L1-resident (gamess) to far beyond the
/// LLC (mcf, lbm).
pub const SIM1_BENCHES: [&str; 6] = [
    "416.gamess",
    "444.namd",
    "403.gcc",
    "450.soplex",
    "429.mcf",
    "470.lbm",
];
/// Policies of `sim_1core`.
pub const SIM1_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Drrip,
    PolicyKind::Hawkeye,
    PolicyKind::Rlr,
];
/// Entries per half of the layer-split replay (first half warms, second is
/// timed).
const PROBE_HALF: usize = 100_000;

/// Inputs of `sim_1core`.
pub struct Sim1Input {
    workloads: Vec<workloads::Workload>,
}

/// Per-cell statistics of one pass (`None` for a failed cell).
pub struct Sim1Out {
    stats: Vec<Option<RunStats>>,
}

fn reseeded(ctx: &Ctx, name: &str) -> workloads::Workload {
    let wl = workloads::spec2006(name).expect("benchmark in the SPEC roster");
    let seed = ctx.reseed(wl.seed());
    wl.with_seed(seed)
}

/// Runs `cells` through the resilient pool on one worker, recording one
/// span per cell, and returns each cell's result.
fn run_cells<T: Sync, R: Send>(
    tracer: &mut Tracer,
    cells: &[T],
    name: impl Fn(&T) -> String,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, runner::TaskFailure>> {
    let times = Mutex::new(vec![None; cells.len()]);
    let results = runner::run_tasks_resilient(cells, 1, &RunOptions::none(), |i, cell| {
        let start = Instant::now();
        let out = f(cell);
        times.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some((start, Instant::now()));
        crate::calib::tick();
        out
    });
    for (cell, t) in cells
        .iter()
        .zip(times.into_inner().unwrap_or_else(PoisonError::into_inner))
    {
        if let Some((start, end)) = t {
            tracer.record(&format!("cell {}", name(cell)), L_SYSTEM, start, end);
        }
    }
    results
}

/// Runs a single-core system over a materialised stream: the first half
/// warms it, the second half is timed. Returns (host ns, instructions).
fn timed_system_run(cfg: &SystemConfig, p: PolicyKind, entries: &[TraceEntry]) -> (f64, u64) {
    let (warm, meas) = entries.split_at(entries.len() / 2);
    let instr = |es: &[TraceEntry]| es.iter().map(TraceEntry::instructions).sum::<u64>();
    let mut sys = SingleCoreSystem::new(cfg, p.build(&cfg.llc, None));
    // Targets stop a few instructions short of each half, and the stream
    // never ends, so the run cannot outlive the materialised entries.
    let last = *entries.last().expect("non-empty prefix");
    let mut it = entries.iter().copied().chain(std::iter::repeat(last));
    sys.warm_up(&mut it, instr(warm).saturating_sub(16));
    let t = Instant::now();
    let stats = black_box(sys.run(&mut it, instr(meas).saturating_sub(16)));
    (ns_since(t), stats.instructions)
}

fn outcome(name: String, r: Result<String, runner::TaskFailure>) -> CellOutcome {
    CellOutcome {
        name,
        counters: r.map_err(|e| e.to_string()),
    }
}

impl Workload for Sim1Core {
    type Input = Sim1Input;
    type Out = Sim1Out;

    fn setup(&self, ctx: &Ctx) -> Sim1Input {
        Sim1Input {
            workloads: SIM1_BENCHES.iter().map(|n| reseeded(ctx, n)).collect(),
        }
    }

    fn pass(
        &self,
        _ctx: &Ctx,
        input: &Sim1Input,
        tracer: &mut Tracer,
    ) -> (Vec<CellOutcome>, Sim1Out) {
        // `run_roster_resilient` with checkpoints off is exactly this pool
        // over `run_single`; it resolves names to pinned seeds, so the
        // benchmark drives the pool itself to run reseeded workloads.
        let tasks: Vec<(usize, PolicyKind)> = (0..SIM1_BENCHES.len())
            .flat_map(|b| SIM1_POLICIES.iter().map(move |&p| (b, p)))
            .collect();
        let name = |&(b, p): &(usize, PolicyKind)| format!("{}/{}", SIM1_BENCHES[b], p.name());
        let results = run_cells(tracer, &tasks, name, |&(b, p)| {
            runner::run_single(&input.workloads[b], p, Scale::Small)
        });
        let cells = tasks
            .iter()
            .zip(&results)
            .map(|(t, r)| outcome(name(t), r.as_ref().map(stats_line).map_err(Clone::clone)))
            .collect();
        let stats = results.into_iter().map(Result::ok).collect();
        (cells, Sim1Out { stats })
    }

    fn work(&self, _out: &Sim1Out) -> f64 {
        let per_cell = Scale::Small.warmup() + Scale::Small.instructions();
        (SIM1_BENCHES.len() * SIM1_POLICIES.len()) as f64 * per_cell as f64
    }

    fn summarize(&self, out: &Sim1Out, pass_s: f64, m: &mut Metrics) {
        let np = SIM1_POLICIES.len();
        let ipc = |b: usize, p: usize| out.stats[b * np + p].map(|s| s.ipc());
        let rlr = SIM1_POLICIES
            .iter()
            .position(|&p| p == PolicyKind::Rlr)
            .expect("RLR in roster");
        let speedups: Vec<f64> = (0..SIM1_BENCHES.len())
            .filter_map(|b| Some((ipc(b, rlr)? / ipc(b, 0)? - 1.0) * 100.0))
            .collect();
        m.set(
            "model.rlr_ipc_speedup_pct",
            experiments::geomean_speedup_pct(speedups),
        );
        m.set("sim_mips", self.work(out) / pass_s / 1e6);
    }

    fn layers(
        &self,
        _ctx: &Ctx,
        input: &Sim1Input,
        out: &Sim1Out,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>> {
        let cfg = SystemConfig::paper_single_core();
        let cells = cell_spans(traced);
        let mut splits = BTreeMap::new();
        let (mut gen_ns, mut gen_n) = (0.0, 0.0);
        let (mut hier_ns, mut hier_n) = (0.0, 0.0);
        let mut llc_totals = Vec::new();
        let mut shares = [0.0f64; 4];
        let mut weight = 0.0;
        for (b, wl) in input.workloads.iter().enumerate() {
            // The first `2 * PROBE_HALF` entries of the benchmark's stream;
            // generating them is the generator's cost.
            let t = Instant::now();
            let prefix: Vec<TraceEntry> = wl.stream().take(2 * PROBE_HALF).collect();
            let gen_half = ns_since(t) / 2.0;
            let entries = &prefix;
            gen_ns += 2.0 * gen_half;
            gen_n += entries.len() as f64;
            let meas = &entries[entries.len() / 2..];
            let requests: Vec<DataRequest> = entries
                .iter()
                .map(|e| DataRequest {
                    pc: e.pc,
                    addr: e.addr,
                    is_store: e.is_store,
                })
                .collect();
            for &p in &SIM1_POLICIES {
                let (sys_ns, _) = timed_system_run(&cfg, p, entries);
                // Its data requests through L1D/L2 and a shared LLC.
                let mut core = CoreHierarchy::new(0, &cfg);
                let mut llc = SharedLlc::new(&cfg, p.build(&cfg.llc, None));
                llc.enable_capture();
                runner::replay_hierarchy(
                    &mut core,
                    &mut llc,
                    &requests[..PROBE_HALF],
                    HierarchyReplayMode::PerAccess,
                );
                let warm_llc = llc.drain_capture().unwrap_or_default();
                let t = Instant::now();
                black_box(runner::replay_hierarchy(
                    &mut core,
                    &mut llc,
                    &requests[PROBE_HALF..],
                    HierarchyReplayMode::PerAccess,
                ));
                let hier_ns_p = ns_since(t);
                let meas_llc = llc.take_capture().unwrap_or_default();
                // Their LLC accesses through the bare cache.
                let mut cache = SetAssocCache::new("LLC", cfg.llc, p.build(&cfg.llc, None));
                runner::replay_llc_trace(&mut cache, &warm_llc);
                let t = Instant::now();
                black_box(runner::replay_llc_trace(&mut cache, &meas_llc));
                let llc_ns = ns_since(t);
                add_total(&mut llc_totals, p, llc_ns, meas_llc.len() as f64);
                hier_ns += (hier_ns_p - llc_ns).max(0.0);
                hier_n += meas.len() as f64;
                // Shares of one cell: generation is fused into the run.
                let total = gen_half + sys_ns;
                let s = [
                    gen_half / total,
                    (hier_ns_p - llc_ns).max(0.0) / total,
                    llc_ns.min(hier_ns_p) / total,
                    (sys_ns - hier_ns_p).max(0.0) / total,
                ];
                let name = format!("cell {}/{}", SIM1_BENCHES[b], p.name());
                let cell_ns = cells.get(&name).copied().unwrap_or(0.0);
                for (acc, v) in shares.iter_mut().zip(s) {
                    *acc += v * cell_ns;
                }
                weight += cell_ns;
                splits.insert(
                    name,
                    vec![
                        (L_WORKLOADS, s[0]),
                        (L_HIERARCHY, s[1]),
                        (L_LLC, s[2]),
                        (L_FETCH_TIMING, s[3]),
                    ],
                );
            }
        }
        m.set("workloads.ns_per_entry", ratio(gen_ns, gen_n));
        m.set("workloads.entries", gen_n);
        m.set("hierarchy.ns_per_request", ratio(hier_ns, hier_n));
        llc_policy_metrics(&llc_totals, m);
        for (name, v) in [
            "sim.workloads_share_pct",
            "sim.hierarchy_share_pct",
            "sim.llc_share_pct",
            "sim.fetch_timing_share_pct",
        ]
        .into_iter()
        .zip(shares)
        {
            m.set(name, 100.0 * ratio(v, weight));
        }
        let runs: Vec<&RunStats> = out.stats.iter().flatten().collect();
        hierarchy_metrics(&runs, &runs, m);
        splits
    }
}

// ---------------------------------------------------------------------------
// sim_4core_event
// ---------------------------------------------------------------------------

/// A 4-core mix under the discrete-event timing model.
pub struct Sim4CoreEvent;

/// The mix of `sim_4core_event`.
pub const SIM4_MIX: [&str; 4] = ["429.mcf", "450.soplex", "416.gamess", "470.lbm"];
/// Policies of `sim_4core_event`.
pub const SIM4_POLICIES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::RlrMulticore];
/// Per-core warm-up and measured instructions of the layer-split replay.
const PROBE_MC: (u64, u64) = (100_000, 300_000);
/// Entries materialised per core for the event-versus-analytic replay.
const PROBE_MC_ENTRIES: usize = 200_000;

/// Inputs of `sim_4core_event`.
pub struct Sim4Input {
    mix: WorkloadMix,
}

/// Per-policy, per-core statistics of one pass.
pub struct Sim4Out {
    runs: Vec<Option<Vec<RunStats>>>,
}

/// Core `core`'s stream of `run_mix`: a distinct seed and a PC salt per
/// core (the library builds these internally; the layer split needs the
/// same entries).
fn core_stream(wl: &workloads::Workload, core: usize) -> impl Iterator<Item = TraceEntry> {
    let seeded = wl
        .clone()
        .with_seed(wl.seed() ^ (core as u64 + 1).wrapping_mul(0x9E37));
    let pc_salt = (core as u64 + 1) << 44;
    seeded.stream().map(move |mut e| {
        e.pc ^= pc_salt;
        e
    })
}

/// Runs the probe mix through `MultiCoreSystem` under event timing, with
/// live generators behind counting wrappers as `run_mix` builds them;
/// returns (host ns, entries consumed per core, instructions consumed).
fn probe_mix(input: &Sim4Input, policy: PolicyKind) -> (f64, Vec<u64>, u64) {
    let cfg = SystemConfig::paper_quad_core().with_timing(TimingMode::Event);
    let counts: Vec<Arc<AtomicU64>> = SIM4_MIX
        .iter()
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let instrs = Arc::new(AtomicU64::new(0));
    let streams = input
        .mix
        .workloads()
        .iter()
        .enumerate()
        .map(|(core, wl)| {
            let (e, i) = (Arc::clone(&counts[core]), Arc::clone(&instrs));
            Box::new(core_stream(wl, core).inspect(move |x| {
                e.fetch_add(1, Ordering::Relaxed);
                i.fetch_add(x.instructions(), Ordering::Relaxed);
            })) as Box<dyn Iterator<Item = TraceEntry> + Send>
        })
        .collect();
    let mut sys = MultiCoreSystem::new(&cfg, policy.build(&cfg.llc, None), streams);
    let t = Instant::now();
    black_box(sys.run(PROBE_MC.0, PROBE_MC.1));
    let per_core = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    (ns_since(t), per_core, instrs.load(Ordering::Relaxed))
}

impl Workload for Sim4CoreEvent {
    type Input = Sim4Input;
    type Out = Sim4Out;

    fn setup(&self, ctx: &Ctx) -> Sim4Input {
        let mix = WorkloadMix::new(
            "bench-mix",
            SIM4_MIX.iter().map(|n| reseeded(ctx, n)).collect(),
        );
        Sim4Input { mix }
    }

    fn pass(
        &self,
        _ctx: &Ctx,
        input: &Sim4Input,
        tracer: &mut Tracer,
    ) -> (Vec<CellOutcome>, Sim4Out) {
        let name = |p: &PolicyKind| format!("mix/{}", p.name());
        // RLR_TIMING=event is set for this workload, so run_mix uses the
        // event core.
        let results = run_cells(tracer, &SIM4_POLICIES, name, |&p| {
            runner::run_mix(&input.mix, p, Scale::Small)
        });
        let cells = SIM4_POLICIES
            .iter()
            .zip(&results)
            .map(|(p, r)| {
                let line = r
                    .as_ref()
                    .map(|runs| runs.iter().map(stats_line).collect::<Vec<_>>().join(" | "));
                outcome(name(p), line.map_err(Clone::clone))
            })
            .collect();
        (
            cells,
            Sim4Out {
                runs: results.into_iter().map(Result::ok).collect(),
            },
        )
    }

    fn work(&self, _out: &Sim4Out) -> f64 {
        let per_core = Scale::Small.mc_warmup() + Scale::Small.mc_instructions();
        (SIM4_POLICIES.len() * SIM4_MIX.len()) as f64 * per_core as f64
    }

    fn summarize(&self, out: &Sim4Out, pass_s: f64, m: &mut Metrics) {
        if let (Some(lru), Some(rlr)) = (&out.runs[0], &out.runs[1]) {
            m.set(
                "model.rlr_ipc_speedup_pct",
                runner::mix_speedup_pct(rlr, lru),
            );
        }
        m.set("sim_mips", self.work(out) / pass_s / 1e6);
    }

    fn layers(
        &self,
        _ctx: &Ctx,
        input: &Sim4Input,
        out: &Sim4Out,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>> {
        // The event model's own cost: the same materialised single-core
        // streams under analytic and under event timing, so both runs do
        // identical functional work.
        let single = SystemConfig::paper_single_core();
        let (mut event_extra, mut event_instr) = (0.0, 0.0);
        for (c, wl) in input.mix.workloads().iter().enumerate() {
            // Per-core streams exactly as `run_mix` builds them, materialised.
            let prefix: Vec<TraceEntry> = core_stream(wl, c).take(PROBE_MC_ENTRIES).collect();
            let (ta, n) = timed_system_run(&single, PolicyKind::Lru, &prefix);
            let (te, _) = timed_system_run(
                &single.with_timing(TimingMode::Event),
                PolicyKind::Lru,
                &prefix,
            );
            event_extra += te - ta;
            event_instr += n as f64;
        }
        let event_per_instr = ratio(event_extra, event_instr);
        let cells = cell_spans(traced);
        let mut splits = BTreeMap::new();
        let (mut sys_ns, mut instr_total, mut useful_req) = (0.0, 0.0, 0.0);
        let (mut gen_ns, mut gen_n) = (0.0, 0.0);
        let (mut gen_share_w, mut event_share_w, mut weight) = (0.0, 0.0, 0.0);
        for &p in &SIM4_POLICIES {
            let (te, per_core, ie) = probe_mix(input, p);
            // Generation alone: as many entries per core as the run consumed.
            let t = Instant::now();
            for (c, wl) in input.mix.workloads().iter().enumerate() {
                black_box(core_stream(wl, c).take(per_core[c] as usize).count());
            }
            let gen = ns_since(t);
            gen_ns += gen;
            gen_n += per_core.iter().sum::<u64>() as f64;
            sys_ns += te;
            instr_total += ie as f64;
            useful_req += (SIM4_MIX.len() as u64 * (PROBE_MC.0 + PROBE_MC.1)) as f64;
            let gen_s = ratio(gen, te).min(1.0);
            let event_s = ratio(event_per_instr.max(0.0), ratio(te, ie as f64)).min(1.0 - gen_s);
            let name = format!("cell mix/{}", p.name());
            let cell_ns = cells.get(&name).copied().unwrap_or(0.0);
            gen_share_w += gen_s * cell_ns;
            event_share_w += event_s * cell_ns;
            weight += cell_ns;
            splits.insert(name, vec![(L_WORKLOADS, gen_s), (L_EVENT, event_s)]);
        }
        m.set("workloads.ns_per_entry", ratio(gen_ns, gen_n));
        m.set("workloads.entries", gen_n);
        m.set("timing.event_ns_per_instr", event_per_instr);
        m.set("system.ns_per_instr", ratio(sys_ns, instr_total));
        m.set(
            "system.useful_instr_pct",
            100.0 * ratio(useful_req, instr_total),
        );
        m.set(
            "sim.workloads_share_pct",
            100.0 * ratio(gen_share_w, weight),
        );
        m.set(
            "sim.fetch_timing_share_pct",
            100.0 * ratio(event_share_w, weight),
        );
        let runs: Vec<&RunStats> = out.runs.iter().flatten().flatten().collect();
        let llcs: Vec<&RunStats> = out
            .runs
            .iter()
            .flatten()
            .filter_map(|r| r.first())
            .collect();
        hierarchy_metrics(&runs, &llcs, m);
        splits
    }
}
