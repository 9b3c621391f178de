//! The CLI subcommands.

use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use cache_sim::{LlcTrace, SystemConfig, TimingMode};
use experiments::checkpoint::{run_checkpointed_sweep, write_atomic, Cell as _};
use experiments::fault::FaultWriter;
use experiments::runner::{
    capture_llc, replay_llc_reader, simulate_single, SingleCoreCell, SweepOptions,
};
use experiments::{PolicyKind, Table};
use rl::{Agent, AgentConfig, FeatureSet, LlcModel, Mlp, Trainer};
use trace_io::{TraceReader, TraceWriter};
use objcache::{ObjCacheConfig, ObjPolicyKind};
use workloads::{ObjectTraffic, TenantMix, Workload, CLOUDSUITE, SPEC2006};

use crate::args::{ArgError, Args};

/// Resolves a policy by (case-insensitive) name.
pub fn policy_by_name(name: &str) -> Result<PolicyKind, ArgError> {
    let needle = name.to_lowercase();
    for kind in PolicyKind::ALL_ONLINE {
        if kind.name().to_lowercase() == needle {
            return Ok(kind);
        }
    }
    match needle.as_str() {
        "rlr-unopt" | "rlrunopt" | "rlr_unopt" => Ok(PolicyKind::RlrUnopt),
        "rlr-mc" | "rlr-multicore" => Ok(PolicyKind::RlrMulticore),
        "ship" => Ok(PolicyKind::Ship),
        "ship++" | "shippp" => Ok(PolicyKind::ShipPp),
        "belady" | "opt" | "min" => Ok(PolicyKind::Belady),
        _ => Err(ArgError(format!(
            "unknown policy `{name}`; try `rlr list` for the roster"
        ))),
    }
}

fn workload_by_name(name: &str) -> Result<Workload, ArgError> {
    workloads::by_name(name)
        .ok_or_else(|| ArgError(format!("unknown benchmark `{name}`; try `rlr list`")))
}

/// Resolves the core timing model: `--timing` wins, then `RLR_TIMING`,
/// then the analytic default.
fn timing_by_args(args: &Args) -> Result<TimingMode, ArgError> {
    match args.get("timing") {
        None => TimingMode::try_from_env().map_err(ArgError),
        Some(raw) => TimingMode::parse(raw)
            .ok_or_else(|| ArgError(format!("--timing must be `analytic` or `event`, got `{raw}`"))),
    }
}

/// Resolves the experiment scale from `RLR_SCALE`; a bad value is an
/// input error like a bad flag.
fn scale_from_env() -> Result<experiments::Scale, ArgError> {
    experiments::Scale::try_from_env().map_err(ArgError)
}

/// Resolves a policy that runs online inside a simulation: Belady needs
/// the whole future of a captured trace, so only `rlr replay` runs it.
fn online_policy_by_name(name: &str) -> Result<PolicyKind, ArgError> {
    match policy_by_name(name)? {
        PolicyKind::Belady => Err(ArgError("Belady is replay-only; use `rlr replay`".to_owned())),
        kind => Ok(kind),
    }
}

fn parse_policies(raw: &str) -> Result<Vec<PolicyKind>, ArgError> {
    raw.split(',').map(online_policy_by_name).collect()
}

/// What `rlr list` prints: the benchmarks, then one policy per line,
/// each under a name [`policy_by_name`] resolves back to it.
pub fn listing() -> String {
    let mut out = format!("SPEC CPU 2006 benchmarks ({}):\n", SPEC2006.len());
    for chunk in SPEC2006.chunks(5) {
        out += &format!("  {}\n", chunk.join("  "));
    }
    out += &format!("\nCloudSuite benchmarks ({}):\n", CLOUDSUITE.len());
    out += &format!("  {}\n", CLOUDSUITE.join("  "));
    out += "\nPolicies:\n";
    for kind in PolicyKind::ALL_ONLINE {
        // The multicore RLR is `RLR` in figures and checkpoint keys, like
        // the single-core design; list the alias that reaches it.
        let name = if kind == PolicyKind::RlrMulticore { "RLR-MC" } else { kind.name() };
        let note = if kind.uses_pc() { "(PC-based)" } else { "" };
        out += &format!("  {name:12} {note}\n");
    }
    out += &format!("  {:12} (offline optimum; replay only)\n", "Belady");
    out
}

/// `rlr run <bench> [--policy P] [--instructions N] [--warmup N]
///  [--no-prefetch] [--timing analytic|event]` — one single-core
/// simulation.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["policy", "instructions", "warmup", "no-prefetch", "timing"])?;
    let bench = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("usage: rlr run <benchmark> [--policy P]".to_owned()))?;
    let workload = workload_by_name(bench)?;
    let kind = online_policy_by_name(args.get_or("policy", "RLR"))?;
    let instructions = args.get_num("instructions", 10_000_000u64)?;
    let warmup = args.get_num("warmup", 2_000_000u64)?;
    let timing = timing_by_args(args)?;
    let mut config = SystemConfig::paper_single_core().with_timing(timing);
    if args.has_flag("no-prefetch") {
        config = config.without_prefetchers();
    }

    let stats =
        simulate_single(&config, &workload, kind.build(&config.llc, None), warmup, instructions);

    println!("benchmark    {bench}");
    println!("policy       {}", kind.name());
    println!("timing       {timing}");
    println!("instructions {}", stats.instructions);
    println!("cycles       {}", stats.cycles);
    println!("IPC          {:.4}", stats.ipc());
    println!("L1D hit      {:.2}%", stats.l1d.hit_rate() * 100.0);
    println!("L2 hit       {:.2}%", stats.l2.hit_rate() * 100.0);
    println!("LLC demand   {:.2}% hit, {:.2} MPKI", stats.llc_hit_rate_pct(), stats.llc_demand_mpki());
    println!("memory       {} reads, {} writes", stats.memory_reads, stats.memory_writes);
    println!("DRAM         {:.1}% row-buffer hits", stats.dram_row_hit_rate() * 100.0);
    Ok(())
}

/// `rlr compare <bench...> [--policies a,b,c] [--instructions N]
///  [--warmup N] [--jobs N]` — speedup-over-LRU table, sharded over a
/// worker pool (every benchmark × policy cell is an independent task).
pub fn compare(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["policies", "instructions", "warmup", "jobs", "timing"])?;
    if args.positional().is_empty() {
        return Err(ArgError("usage: rlr compare <benchmark...> [--policies a,b,c]".to_owned()));
    }
    let kinds = parse_policies(args.get_or("policies", "DRRIP,KPC-R,SHiP,RLR,Hawkeye,SHiP++"))?;
    let instructions = args.get_num("instructions", 10_000_000u64)?;
    let warmup = args.get_num("warmup", 2_000_000u64)?;
    let jobs = args.get_num("jobs", 0usize)?;
    let timing = timing_by_args(args)?;
    let config = SystemConfig::paper_single_core().with_timing(timing);

    // Resolve every benchmark up front so typos fail before any work runs.
    let workloads: Vec<Workload> = args
        .positional()
        .iter()
        .map(|b| workload_by_name(b))
        .collect::<Result<_, _>>()?;
    let mut all_kinds = vec![PolicyKind::Lru];
    all_kinds.extend_from_slice(&kinds);
    let benches = args.positional();
    let cells: Vec<SingleCoreCell> = benches
        .iter()
        .zip(&workloads)
        .flat_map(|(bench, workload)| {
            all_kinds.iter().map(|&policy| SingleCoreCell {
                bench,
                workload,
                policy,
                config: &config,
                warmup,
                instructions,
                origin: "cli",
            })
        })
        .collect();
    // Failure handling and per-cell resume: a crashing cell is retried
    // (RLR_RETRIES), then reported as `failed` without aborting the rest;
    // completed cells are checkpointed so a killed run resumes where it
    // stopped (disable with RLR_CHECKPOINT=0).
    let mut opts = SweepOptions::from_env(SingleCoreCell::FAMILY);
    opts.jobs = (jobs > 0).then_some(jobs);
    let results = run_checkpointed_sweep(&cells, &opts);

    let mut headers = vec!["benchmark".to_owned(), "LRU IPC".to_owned()];
    headers.extend(kinds.iter().map(|k| k.name().to_owned()));
    let mut table = Table::new(format!("IPC speedup over LRU (%), {timing} timing"), headers);
    let mut failures: Vec<String> = Vec::new();
    for (b, bench) in benches.iter().enumerate() {
        let base = b * all_kinds.len();
        let mut row = vec![bench.clone()];
        match &results[base] {
            Err(e) => {
                failures.push(format!("{bench}/LRU: {}", e.kind));
                row.extend(std::iter::repeat_n("n/a".to_owned(), all_kinds.len()));
            }
            Ok(lru) => {
                row.push(format!("{:.4}", lru.ipc()));
                for k in 1..all_kinds.len() {
                    match &results[base + k] {
                        Ok(stats) => row.push(Table::fmt(stats.speedup_pct_over(lru))),
                        Err(e) => {
                            failures.push(format!("{bench}/{}: {}", all_kinds[k].name(), e.kind));
                            row.push("failed".to_owned());
                        }
                    }
                }
            }
        }
        table.push_row(row);
    }
    if !failures.is_empty() {
        table.push_note(format!("failed cells: {}", failures.join("; ")));
    }
    println!("{}", table.render());
    Ok(())
}

/// The instruction ceiling of the CLI's single-core captures: the first
/// 1M-instruction slice past 400M.
const CLI_CAPTURE_CEILING: u64 = 401_000_000;

/// Loads a whole `RLT1` trace into memory.
fn load_trace(path: &str) -> Result<LlcTrace, ArgError> {
    trace_io::read_trace_file(Path::new(path)).map_err(|e| ArgError(format!("read {path}: {e}")))
}

/// `rlr replay <trace> [--policy P|belady|agent] [--agent FILE]` —
/// trace-driven replay of an `RLT1` container through the LLC-only model
/// or a full cache. Belady and the agent load the trace whole; an online
/// policy streams it block-by-block without loading it.
pub fn replay(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["policy", "agent"])?;
    let path = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("usage: rlr replay <trace> [--policy P]".to_owned()))?;
    let config = SystemConfig::paper_single_core();
    let name = args.get_or("policy", "belady").to_lowercase();
    if name != "agent" && args.given("agent") {
        return Err(ArgError("--agent applies only to --policy agent".to_owned()));
    }

    // (policy, demand hit rate, hits, accesses)
    let stats: (String, f64, u64, u64) = if name == "agent" {
        let trace = load_trace(path)?;
        let agent_path = args
            .get("agent")
            .ok_or_else(|| ArgError("--agent <file> required with --policy agent".to_owned()))?;
        let agent = load_agent(agent_path, &config.llc)?;
        let mut model = LlcModel::new(&config.llc, &trace);
        let s = model.run(&trace, &mut |view| agent.decide_greedy(view));
        ("RL agent".to_owned(), s.demand_hit_rate(), s.hits, s.accesses)
    } else {
        let kind = policy_by_name(&name)?;
        if kind == PolicyKind::Belady {
            let trace = load_trace(path)?;
            let mut model = LlcModel::new(&config.llc, &trace);
            let s = model.run_belady(&trace);
            ("Belady".to_owned(), s.demand_hit_rate(), s.hits, s.accesses)
        } else {
            let file = fs::File::open(path).map_err(|e| ArgError(format!("open {path}: {e}")))?;
            let mut reader = TraceReader::new(BufReader::new(file))
                .map_err(|e| ArgError(format!("read {path}: {e}")))?;
            let mut cache =
                cache_sim::SetAssocCache::new("LLC", config.llc, kind.build(&config.llc, None));
            let summary = replay_llc_reader(&mut cache, &mut reader)
                .map_err(|e| ArgError(format!("replay {path}: {e}")))?;
            (kind.name().to_owned(), summary.demand_hit_rate(), summary.hits, summary.accesses)
        }
    };

    println!("trace        {path} ({} records)", stats.3);
    println!("policy       {}", stats.0);
    println!("demand hit   {:.2}%", stats.1 * 100.0);
    println!("total hits   {} / {}", stats.2, stats.3);
    Ok(())
}

/// `rlr train <bench|trace.rlt> --out agent.mlp [--epochs N] [--hidden N]
///  [--records N] [--resume] [--checkpoint FILE] [--stop-after N]` — train
/// a DQN agent and save its network. `--records` sizes the capture of a
/// benchmark; a trace file trains whole, so it rejects `--records`.
///
/// Training checkpoints after every epoch (atomically, to `--checkpoint`,
/// default `<out>.ck`); `--resume` continues an interrupted run from that
/// checkpoint and is bit-identical to a run that never stopped.
/// `--stop-after N` deterministically interrupts after N epochs, leaving
/// the checkpoint behind (used by tests and CI to exercise resume).
pub fn train(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&[
        "out", "epochs", "hidden", "records", "seed", "resume", "checkpoint", "stop-after",
    ])?;
    let source = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("usage: rlr train <benchmark|trace.rlt> --out agent.mlp".to_owned()))?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out <file> is required".to_owned()))?;
    let epochs = args.get_num("epochs", 3usize)?;
    if epochs == 0 {
        return Err(ArgError("--epochs must be positive".to_owned()));
    }
    let hidden = args.get_num("hidden", 64usize)?;
    if hidden == 0 {
        return Err(ArgError("--hidden must be positive".to_owned()));
    }
    let records = args.get_num("records", 60_000u64)?;
    if records == 0 {
        return Err(ArgError("--records must be positive".to_owned()));
    }
    let seed = args.get_num("seed", 0xCAFEu64)?;
    let ck_path = args.get("checkpoint").map_or_else(|| format!("{out}.ck"), str::to_owned);
    let stop_after = args.get_num("stop-after", 0usize)?;

    let config = SystemConfig::paper_single_core();
    let trace = if Path::new(source).is_file() {
        if args.get("records").is_some() {
            return Err(ArgError(format!(
                "--records applies to a benchmark capture; {source} is a trace file and trains whole"
            )));
        }
        load_trace(source)?
    } else {
        let workload = workload_by_name(source)?;
        println!("capturing {records} LLC records from {source}...");
        let mut trace = LlcTrace::new();
        capture_llc(&workload, 0, records, CLI_CAPTURE_CEILING, |slice| {
            slice.iter().for_each(|&r| trace.push(r));
            Ok::<_, ArgError>(())
        })?;
        trace
    };

    let agent_config = AgentConfig {
        hidden,
        seed,
        features: FeatureSet::full(),
        ..AgentConfig::default()
    };
    let mut start_epoch = 0usize;
    let mut trainer = if args.has_flag("resume") {
        let file = fs::File::open(&ck_path)
            .map_err(|e| ArgError(format!("--resume: open {ck_path}: {e}")))?;
        let (trainer, done) = Trainer::load_checkpoint(BufReader::new(file), &config.llc)
            .map_err(|e| ArgError(format!("--resume: load {ck_path}: {e}")))?;
        if *trainer.agent().config() != agent_config {
            return Err(ArgError(format!(
                "--resume: {ck_path} was written with different hyperparameters; \
                 pass the original --hidden/--seed or drop --resume"
            )));
        }
        println!("resuming from {ck_path} after epoch {done}");
        start_epoch = done as usize;
        trainer
    } else {
        Trainer::new(agent_config, &config.llc)
    };
    for epoch in start_epoch..epochs {
        let report = trainer.train_epoch(&trace, &config.llc);
        println!(
            "epoch {epoch}: demand hit {:.1}%, {:.1}% Belady-optimal, TD loss {:.4}",
            report.stats.demand_hit_rate() * 100.0,
            report.optimal_rate() * 100.0,
            report.mean_loss
        );
        let mut bytes = Vec::new();
        trainer
            .save_checkpoint(&mut bytes, epoch as u64 + 1)
            .and_then(|()| write_atomic(std::path::Path::new(&ck_path), &bytes))
            .map_err(|e| ArgError(format!("write checkpoint {ck_path}: {e}")))?;
        if stop_after > 0 && epoch + 1 >= stop_after && epoch + 1 < epochs {
            println!(
                "stopped after epoch {} (checkpoint at {ck_path}); rerun with --resume to finish",
                epoch + 1
            );
            return Ok(());
        }
    }
    let mut bytes = Vec::new();
    trainer
        .agent()
        .net()
        .save(&mut bytes)
        .and_then(|()| write_atomic(std::path::Path::new(out), &bytes))
        .map_err(|e| ArgError(format!("write {out}: {e}")))?;
    // The finished network supersedes the in-progress checkpoint.
    let _ = fs::remove_file(&ck_path);
    println!("saved agent network to {out}");
    Ok(())
}

/// The agent around the `MLP1` network in `path`, with the default
/// configuration at the network's hidden width. A network whose widths do
/// not fit `llc` and the full feature set is an error, like a malformed
/// file.
fn load_agent(path: &str, llc: &cache_sim::CacheConfig) -> Result<Agent, ArgError> {
    let file = fs::File::open(path).map_err(|e| ArgError(format!("open {path}: {e}")))?;
    let net = Mlp::load(BufReader::new(file)).map_err(|e| ArgError(format!("load {path}: {e}")))?;
    let config = AgentConfig { hidden: net.hidden(), ..AgentConfig::default() };
    Agent::from_net(config, llc, net).map_err(|e| ArgError(format!("load {path}: {e}")))
}

/// `rlr analyze --agent agent.mlp [--top N]` — weight heat map of a trained
/// agent.
pub fn analyze(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["agent", "top"])?;
    let agent_path = args
        .get("agent")
        .ok_or_else(|| ArgError("--agent <file> is required".to_owned()))?;
    let top = args.get_num("top", rl::NUM_FEATURES)?;
    let config = SystemConfig::paper_single_core();
    let agent = load_agent(agent_path, &config.llc)?;
    let mut heat = rl::analysis::weight_heatmap(&agent);
    heat.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("feature importance (mean |first-layer weight|):");
    for (feature, weight) in heat.iter().take(top) {
        println!("  {weight:.4}  {feature}");
    }
    Ok(())
}

/// `rlr characterize <bench> [--entries N]` — workload personality.
pub fn characterize(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["entries"])?;
    let bench = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("usage: rlr characterize <benchmark>".to_owned()))?;
    let entries = args.get_num("entries", 500_000u64)?;
    if entries == 0 {
        return Err(ArgError("--entries must be positive".to_owned()));
    }
    let workload = workload_by_name(bench)?;
    println!("benchmark        {bench}");
    println!("{}", workloads::Characterization::measure(&workload, entries));
    Ok(())
}

/// `rlr overhead` — Table I.
pub fn overhead() -> Result<(), ArgError> {
    println!("{}", experiments::tables::table1().render());
    Ok(())
}

/// `rlr trace <capture|export|info|verify> ...` — the compressed
/// trace-container toolbox.
pub fn trace(args: &Args) -> Result<(), ArgError> {
    let usage = "usage: rlr trace <capture|export|info|verify> ...";
    let action = args.positional().first().ok_or_else(|| ArgError(usage.to_owned()))?.clone();
    match action.as_str() {
        "capture" => trace_capture(args),
        "export" => trace_export(args),
        "info" => trace_info(args),
        "verify" => trace_verify(args),
        other => Err(ArgError(format!("unknown trace action `{other}`; {usage}"))),
    }
}

/// The `--block N` records-per-block option of `trace capture` and `trace
/// export`, checked before any simulation runs or any file is opened, so a
/// rejected value leaves an existing `--out` file as it was.
fn block_len_arg(args: &Args) -> Result<u32, ArgError> {
    let block = args.get_num("block", trace_io::DEFAULT_BLOCK_LEN)?;
    if block == 0 || block > trace_io::MAX_BLOCK_LEN {
        return Err(ArgError(format!(
            "--block must be between 1 and {} records",
            trace_io::MAX_BLOCK_LEN
        )));
    }
    Ok(block)
}

/// Opens a container writer behind the I/O fault seam, so `RLR_FAIL_PLAN`
/// torn/flip/enospc directives reach `trace capture` and `trace export`
/// exactly like any other faultable write.
fn open_trace_writer(
    out: &str,
    block: u32,
) -> Result<TraceWriter<FaultWriter<BufWriter<fs::File>>>, ArgError> {
    let file = fs::File::create(out).map_err(|e| ArgError(format!("create {out}: {e}")))?;
    TraceWriter::with_block_len(FaultWriter::new(BufWriter::new(file)), block)
        .map_err(|e| ArgError(format!("write {out}: {e}")))
}

/// `rlr trace capture <bench> --out FILE [--records N] [--warmup N]
///  [--block N]` — stream an LLC capture straight into a compressed
/// container. The capture buffer is drained every simulation slice, so
/// memory stays bounded by one slice plus one block at any trace length.
///
/// With `--mix`, `<bench>` is a comma-separated list run on one core
/// each through the shared LLC; every record carries its issuing core's
/// id, so the container splits back per core with
/// `rlr trace export <file.rlt> --core N`.
fn trace_capture(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["out", "records", "warmup", "block", "mix"])?;
    // `--mix a,b` (value form) and `<a,b> --mix` (flag form) both work;
    // the value form needs no positional benchmark at all.
    let bench = match (args.get("mix"), args.positional().get(1)) {
        (Some(list), _) => list.to_owned(),
        (None, Some(bench)) => bench.clone(),
        (None, None) => {
            return Err(ArgError("usage: rlr trace capture <benchmark> --out trace.rlt".to_owned()))
        }
    };
    let bench = bench.as_str();
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out <file> is required".to_owned()))?;
    let records = args.get_num("records", 100_000u64)?;
    let warmup = args.get_num("warmup", 1_000_000u64)?;
    let block = block_len_arg(args)?;
    if args.has_flag("mix") || args.get("mix").is_some() {
        let names: Vec<&str> = bench.split(',').filter(|s| !s.is_empty()).collect();
        if names.len() < 2 {
            return Err(ArgError("--mix needs a comma-separated benchmark list".to_owned()));
        }
        let trace = experiments::runner::capture_mix_llc_trace(
            &names,
            scale_from_env()?,
            records as usize,
        )
        .map_err(|e| ArgError(e.to_string()))?;
        let mut writer = open_trace_writer(out, block)?;
        writer.extend(trace.records()).map_err(|e| ArgError(format!("write {out}: {e}")))?;
        writer.finish().map_err(|e| ArgError(format!("write {out}: {e}")))?;
        let cores = trace.cores();
        println!(
            "captured {} LLC records from {}-core mix {bench} into {out} (cores seen: {cores:?})",
            trace.len(),
            names.len()
        );
        return Ok(());
    }
    let workload = workload_by_name(bench)?;

    let mut writer = open_trace_writer(out, block)?;
    let written = capture_llc(&workload, warmup, records, CLI_CAPTURE_CEILING, |slice| {
        writer.extend(slice).map_err(|e| ArgError(format!("write {out}: {e}")))
    })?;
    writer.finish().map_err(|e| ArgError(format!("write {out}: {e}")))?;
    println!("captured {written} LLC records from {bench} into {out}");
    Ok(())
}

/// `rlr trace export <bench> --out FILE [--records N] [--block N]` —
/// write a synthetic workload's raw demand stream (pre-hierarchy) as a
/// container, without simulating the caches.
///
/// When the first argument is an existing trace file instead of a
/// benchmark name, export filters *that container*:
/// `rlr trace export <file.rlt> --core N --out FILE` keeps only core
/// `N`'s records (in their original order) — the split side of a
/// `trace capture --mix` round trip.
fn trace_export(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["out", "records", "block", "core"])?;
    let bench = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("usage: rlr trace export <benchmark> --out trace.rlt".to_owned()))?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out <file> is required".to_owned()))?;
    let records = args.get_num("records", 100_000u64)?;
    let block = block_len_arg(args)?;
    if Path::new(bench).is_file() {
        if args.given("records") {
            return Err(ArgError(format!(
                "--records applies to a benchmark export; {bench} is a trace file and exports whole"
            )));
        }
        let core = args
            .get_num::<u8>("core", 0)
            .map_err(|_| ArgError("--core must be a core id (0-255)".to_owned()))?;
        if args.get("core").is_none() {
            return Err(ArgError(format!(
                "{bench} is a trace file; container export needs --core N"
            )));
        }
        let full = load_trace(bench)?;
        let filtered = full.filter_core(core);
        if filtered.is_empty() {
            return Err(ArgError(format!(
                "{bench} has no records from core {core} (cores present: {:?})",
                full.cores()
            )));
        }
        let mut writer = open_trace_writer(out, block)?;
        writer.extend(filtered.records()).map_err(|e| ArgError(format!("write {out}: {e}")))?;
        writer.finish().map_err(|e| ArgError(format!("write {out}: {e}")))?;
        println!(
            "exported {} of {} records (core {core}) from {bench} into {out}",
            filtered.len(),
            full.len()
        );
        return Ok(());
    }
    if args.given("core") {
        return Err(ArgError(format!(
            "--core applies only to a trace-file source; {bench} is not a file"
        )));
    }
    let workload = workload_by_name(bench)?;

    let mut writer = open_trace_writer(out, block)?;
    let written = trace_io::export_workload(&workload, records, &mut writer)
        .map_err(|e| ArgError(format!("write {out}: {e}")))?;
    writer.finish().map_err(|e| ArgError(format!("write {out}: {e}")))?;
    println!("exported {written} demand records from {bench} into {out}");
    Ok(())
}

/// `rlr trace info <FILE>` — summarize a container.
fn trace_info(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&[])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("usage: rlr trace info <file>".to_owned()))?;
    let file = fs::File::open(path).map_err(|e| ArgError(format!("open {path}: {e}")))?;
    let summary =
        trace_io::scan(BufReader::new(file)).map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!("{summary}");
    Ok(())
}

/// `rlr trace verify <FILE> [--repair] [--out FILE]` — full verifying scan
/// (checksums, structure, end-frame totals); exits non-zero on the first
/// violation. With `--repair`, a damaged container is salvaged instead:
/// every block whose checksum verifies is rewritten as a clean container
/// (to `--out`, or in place with the original kept at `<file>.damaged`),
/// and the per-block salvage report is printed. Repair fails only when
/// nothing is salvageable.
fn trace_verify(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["repair", "out"])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("usage: rlr trace verify <file> [--repair] [--out FILE]".to_owned()))?;
    if args.given("out") && !args.has_flag("repair") {
        return Err(ArgError("--out applies only with --repair".to_owned()));
    }
    let file = fs::File::open(path).map_err(|e| ArgError(format!("open {path}: {e}")))?;
    let error = match trace_io::scan(BufReader::new(file)) {
        Ok(summary) => {
            println!("{path}: OK — {} records in {} blocks verified", summary.records, summary.blocks);
            return Ok(());
        }
        Err(e) => e,
    };
    if !args.has_flag("repair") {
        return Err(ArgError(format!("{path}: {error}")));
    }
    let (report, bytes) =
        trace_io::salvage_file(Path::new(path)).map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!("{path}: {error}");
    println!("{report}");
    if report.recovered_records == 0 {
        return Err(ArgError(format!("{path}: nothing salvageable")));
    }
    let dest = match args.get("out") {
        Some(out) => out.to_owned(),
        None => {
            // In-place repair: keep the damaged original as evidence. The
            // `.damaged` extension keeps it out of `*.rlt` globs and the
            // corpus registry.
            let backup = format!("{path}.damaged");
            fs::rename(path, &backup).map_err(|e| ArgError(format!("backup {backup}: {e}")))?;
            println!("damaged original kept at {backup}");
            path.clone()
        }
    };
    write_atomic(Path::new(&dest), &bytes).map_err(|e| ArgError(format!("write {dest}: {e}")))?;
    println!(
        "repaired container written to {dest} ({} records in {} blocks)",
        report.recovered_records, report.recovered_blocks
    );
    Ok(())
}

/// `rlr doctor [--dry-run]` — scan the results tree (checkpoint cells and
/// corpus containers), classify every artifact as
/// ok / repaired / quarantined / damaged, repair what can be repaired, and
/// print the summary. `--dry-run` reports the same classification without
/// touching anything. Honours `RLR_RESULTS_DIR`.
pub fn doctor(args: &Args) -> Result<(), ArgError> {
    args.expect_known(&["dry-run"])?;
    let root = experiments::report::results_dir();
    let repair = !args.has_flag("dry-run");
    let report = experiments::doctor::run(&root, repair);
    println!("{}", report.render());
    if report.all_clean() {
        println!("doctor: {} is clean", root.display());
    } else if !repair {
        println!("doctor: dry run — re-run without --dry-run to repair");
    }
    Ok(())
}

/// Builds the object-cache scenario (traffic + cache shape + trace length)
/// from the shared `rlr objcache` flags, starting from the internet-scale
/// default.
fn objcache_scenario(args: &Args) -> Result<(ObjectTraffic, ObjCacheConfig, u64), ArgError> {
    let mut traffic = ObjectTraffic::internet_default();
    traffic.catalog = args.get_num("catalog", traffic.catalog)?;
    traffic.skew = args.get_num("skew", traffic.skew)?;
    traffic.rps = args.get_num("rps", traffic.rps)?;
    traffic.seed = args.get_num("seed", traffic.seed)?;
    traffic.flash_every = args.get_num("flash-every", traffic.flash_every)?;
    traffic.flash_len = args.get_num("flash-len", traffic.flash_len)?;
    traffic.flash_share_pct = args.get_num("flash-share", traffic.flash_share_pct)?;
    if traffic.catalog == 0 {
        return Err(ArgError("--catalog must be positive".to_owned()));
    }
    if traffic.rps == 0 {
        return Err(ArgError("--rps must be positive".to_owned()));
    }
    if !(traffic.skew.is_finite() && traffic.skew >= 0.0) {
        return Err(ArgError("--skew must be finite and non-negative".to_owned()));
    }
    if traffic.flash_every > 0 && traffic.flash_len >= traffic.flash_every {
        return Err(ArgError("--flash-len must be smaller than --flash-every".to_owned()));
    }
    if traffic.flash_share_pct > 100 {
        return Err(ArgError("--flash-share is a percentage, at most 100".to_owned()));
    }
    let mib = args.get_num("capacity-mib", 256u64)?;
    let mut cfg = ObjCacheConfig::try_with_capacity_mib(mib)
        .ok_or_else(|| ArgError(format!("--capacity-mib {mib} exceeds 2^64 bytes")))?;
    cfg.protected_pct = args.get_num("protected-pct", cfg.protected_pct)?;
    if cfg.capacity_bytes == 0 || cfg.protected_pct > 100 {
        return Err(ArgError(
            "--capacity-mib must be positive and --protected-pct at most 100".to_owned(),
        ));
    }
    let requests = args.get_num("requests", 200_000u64)?;
    Ok((traffic, cfg, requests))
}

const OBJCACHE_FLAGS: &[&str] = &[
    "catalog",
    "skew",
    "rps",
    "seed",
    "flash-every",
    "flash-len",
    "flash-share",
    "capacity-mib",
    "protected-pct",
    "requests",
];

/// `rlr objcache <run|compare|derive> ...` — the object-cache serving
/// tier: variable-size values, byte budget, TTLs, and an explicit
/// admission decision point.
pub fn objcache(args: &Args) -> Result<(), ArgError> {
    let usage = "usage: rlr objcache <run|compare|derive> ...";
    let action = args.positional().first().ok_or_else(|| ArgError(usage.to_owned()))?.clone();
    match action.as_str() {
        "run" => objcache_run(args),
        "compare" => objcache_compare(args),
        "derive" => objcache_derive(args),
        other => Err(ArgError(format!("unknown objcache action `{other}`; {usage}"))),
    }
}

/// `rlr objcache run [--policy P] [scenario flags]` — one replay.
fn objcache_run(args: &Args) -> Result<(), ArgError> {
    let known: Vec<&str> = OBJCACHE_FLAGS.iter().copied().chain(["policy"]).collect();
    args.expect_known(&known)?;
    let (traffic, cfg, requests) = objcache_scenario(args)?;
    let raw = args.get_or("policy", "rlr");
    let policy = ObjPolicyKind::parse(raw)
        .ok_or_else(|| ArgError(format!("unknown object-cache policy `{raw}`; try lru, slru, gdsf, or rlr")))?;
    let stats = experiments::objects::run_object_cell(&traffic, requests, cfg, policy);
    println!("policy           {}", policy.name());
    println!("trace            {}", traffic.fingerprint());
    println!("capacity         {} MiB ({}% protected)", cfg.capacity_bytes >> 20, cfg.protected_pct);
    println!("requests         {}", stats.requests);
    println!("hit rate         {:.4}", stats.hit_rate());
    println!("miss-byte ratio  {:.4}", stats.miss_byte_ratio());
    println!("admitted         {} ({} rejected)", stats.admitted, stats.rejected);
    println!("evictions        {} ({} bytes)", stats.evictions, stats.evicted_bytes);
    println!("expirations      {} ({} bytes)", stats.expirations, stats.expired_bytes);
    Ok(())
}

/// `rlr objcache compare [--policies a,b,c] [--jobs N] [scenario flags]` —
/// the roster sweep with per-cell checkpoint resume, rendered as the
/// serving-tier comparison table and saved as CSV.
fn objcache_compare(args: &Args) -> Result<(), ArgError> {
    let known: Vec<&str> = OBJCACHE_FLAGS.iter().copied().chain(["policies", "jobs"]).collect();
    args.expect_known(&known)?;
    let (traffic, cfg, requests) = objcache_scenario(args)?;
    let policies: Vec<ObjPolicyKind> = match args.get("policies") {
        None => ObjPolicyKind::roster(),
        Some(raw) => raw
            .split(',')
            .map(|name| {
                ObjPolicyKind::parse(name).ok_or_else(|| {
                    ArgError(format!("unknown object-cache policy `{name}`; try lru, slru, gdsf, or rlr"))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let jobs = args.get_num("jobs", 0usize)?;
    let mut opts = SweepOptions::from_env(experiments::objects::ObjCell::FAMILY);
    opts.jobs = (jobs > 0).then_some(jobs);
    let results = experiments::objects::run_object_sweep(&traffic, requests, cfg, &policies, &opts);
    let table = experiments::objects::compare_table(&traffic, requests, &cfg, &results);
    println!("{}", table.render());
    match table.write_csv(experiments::report::results_dir()) {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => eprintln!("warning: could not save CSV: {e}"),
    }
    Ok(())
}

/// `rlr objcache derive [--horizon N] [--epochs N] [scenario flags]` — run
/// the paper's derivation loop on the configured trace and print the
/// offline agent's weights next to the quantized rule.
fn objcache_derive(args: &Args) -> Result<(), ArgError> {
    let known: Vec<&str> = OBJCACHE_FLAGS.iter().copied().chain(["horizon", "epochs"]).collect();
    args.expect_known(&known)?;
    let (traffic, _, requests) = objcache_scenario(args)?;
    let mut cfg = objcache::DeriveConfig::default();
    cfg.horizon = args.get_num("horizon", cfg.horizon)?;
    cfg.epochs = args.get_num("epochs", cfg.epochs)?;
    let trace: Vec<_> = traffic.stream().take(requests as usize).collect();
    let (model, weights) = objcache::derive_weights(&trace, &cfg);
    println!("trace            {} (n={requests})", traffic.fingerprint());
    println!("samples          {} ({} positive)", model.samples, model.positives);
    println!("eviction head    freq {:+.4}  size {:+.4}  ttl {:+.4}  recency {:+.4}  bias {:+.4}",
        model.ev_weights[0], model.ev_weights[1], model.ev_weights[2], model.ev_weights[3], model.ev_bias);
    println!("admission head   freq {:+.4}  size {:+.4}  ttl {:+.4}  bias {:+.4}",
        model.ad_weights[0], model.ad_weights[1], model.ad_weights[2], model.ad_bias);
    println!("derived rule     evict  {}*freq + {}*size + {}*ttl (min wins, LRU tie-break)",
        weights.ev_freq, weights.ev_size, weights.ev_ttl);
    println!("                 admit  {}*freq + {}*size + {}*ttl >= {}",
        weights.ad_freq, weights.ad_size, weights.ad_ttl, weights.ad_threshold);
    if weights == objcache::DerivedWeights::paper_default() {
        println!("matches the pinned paper_default rule");
    } else {
        println!("differs from the pinned paper_default rule ({})",
            objcache::DerivedWeights::paper_default().fingerprint());
    }
    Ok(())
}

/// Shared `rlr tenancy` scenario flags: the pinned three-class mix with
/// an optional interleave seed, the scaled-down contended LLC with
/// optional geometry overrides, the access budget, and the scale.
fn tenancy_scenario(
    args: &Args,
) -> Result<(TenantMix, cache_sim::CacheConfig, u64, experiments::Scale), ArgError> {
    let scale = scale_from_env()?;
    let mut mix = TenantMix::default_three_class();
    mix.seed = args.get_num("seed", mix.seed)?;
    let mut llc = experiments::tenancy::default_llc();
    llc.sets = args.get_num("sets", llc.sets)?;
    llc.ways = args.get_num("ways", llc.ways)?;
    if llc.sets == 0 || !llc.sets.is_power_of_two() {
        return Err(ArgError("--sets must be a positive power of two".to_owned()));
    }
    if usize::from(llc.ways) < mix.tenants.len() || llc.ways > 32 {
        return Err(ArgError(format!(
            "--ways must cover the {} tenants and fit the 32-lane scan",
            mix.tenants.len()
        )));
    }
    let accesses = args.get_num("accesses", experiments::tenancy::accesses_for(scale))?;
    if accesses == 0 {
        return Err(ArgError("--accesses must be positive".to_owned()));
    }
    Ok((mix, llc, accesses, scale))
}

const TENANCY_FLAGS: &[&str] = &["seed", "sets", "ways", "accesses"];

/// Parses `--ranks a,b,c` (one per tenant); `default` when absent.
fn tenancy_ranks(args: &Args, tenants: usize, default: Vec<u32>) -> Result<Vec<u32>, ArgError> {
    let Some(raw) = args.get("ranks") else { return Ok(default) };
    let ranks: Vec<u32> = raw
        .split(',')
        .map(|r| r.trim().parse().map_err(|_| ArgError(format!("bad rank `{r}` in --ranks"))))
        .collect::<Result<_, _>>()?;
    if ranks.len() != tenants {
        return Err(ArgError(format!("--ranks needs {tenants} comma-separated values")));
    }
    if let Some(bad) = ranks.iter().find(|&&r| r > tenancy::MAX_PRIORITY) {
        return Err(ArgError(format!("rank {bad} exceeds the maximum {}", tenancy::MAX_PRIORITY)));
    }
    Ok(ranks)
}

/// `rlr tenancy <run|compare|derive> ...` — the multi-tenant shared-LLC
/// serving tier: isolation modes, per-tenant QoS, and the learned
/// per-tenant priority table.
pub fn tenancy(args: &Args) -> Result<(), ArgError> {
    let usage = "usage: rlr tenancy <run|compare|derive> ...";
    let action = args.positional().first().ok_or_else(|| ArgError(usage.to_owned()))?.clone();
    match action.as_str() {
        "run" => tenancy_run(args),
        "compare" => tenancy_compare(args),
        "derive" => tenancy_derive(args),
        other => Err(ArgError(format!("unknown tenancy action `{other}`; {usage}"))),
    }
}

/// `rlr tenancy run [--mode M] [--ranks a,b,c] [scenario flags]` — one
/// run of the pinned mix under a single isolation mode.
fn tenancy_run(args: &Args) -> Result<(), ArgError> {
    let known: Vec<&str> = TENANCY_FLAGS.iter().copied().chain(["mode", "ranks"]).collect();
    args.expect_known(&known)?;
    let (mix, llc, accesses, scale) = tenancy_scenario(args)?;
    let mode_name = args.get_or("mode", "shared");
    if args.given("ranks") && !matches!(mode_name, "learned-priority" | "learned") {
        return Err(ArgError(format!(
            "--ranks applies only to --mode learned-priority, not `{mode_name}`"
        )));
    }
    let mode = match mode_name {
        "shared" => tenancy::IsolationMode::Shared,
        "way-partition" | "partition" => tenancy::IsolationMode::WayPartition(
            tenancy::partition_by_weight(llc.ways, &mix.weights()),
        ),
        "learned-priority" | "learned" => tenancy::IsolationMode::LearnedPriority(
            tenancy_ranks(args, mix.tenants.len(), vec![4, 1, 0])?,
        ),
        other => {
            return Err(ArgError(format!(
                "unknown isolation mode `{other}`; try shared, way-partition, or learned-priority"
            )))
        }
    };
    let stats = experiments::tenancy::run_tenant_mix(&mix, &mode, &llc, accesses, scale);
    println!("mode             {}", mode.name());
    println!("mix              {}", mix.fingerprint());
    println!("llc              {} sets x {} ways", llc.sets, llc.ways);
    for (spec, s) in mix.tenants.iter().zip(&stats) {
        println!(
            "tenant {:<10} {:<7} accesses {:<8} demand-miss {:.4}  peak-occ {:<5} p50 {} p99 {}",
            spec.name,
            spec.class.name(),
            s.accesses,
            s.demand_miss_rate(),
            s.peak_occupancy,
            s.lat_p50,
            s.lat_p99,
        );
    }
    println!(
        "weighted demand miss rate {:.4}",
        experiments::tenancy::weighted_rate(&stats, &mix.weights())
    );
    Ok(())
}

/// `rlr tenancy compare [--jobs N] [--ranks a,b,c] [scenario flags]` —
/// all three isolation modes side by side with per-tenant QoS and the
/// slowdown index vs isolated runs; resumable via cell checkpoints.
fn tenancy_compare(args: &Args) -> Result<(), ArgError> {
    let known: Vec<&str> = TENANCY_FLAGS.iter().copied().chain(["jobs", "ranks"]).collect();
    args.expect_known(&known)?;
    let (mix, llc, accesses, scale) = tenancy_scenario(args)?;
    let ranks = tenancy_ranks(args, mix.tenants.len(), vec![4, 1, 0])?;
    let jobs = args.get_num("jobs", 0usize)?;
    let mut opts = SweepOptions::from_env(experiments::tenancy::TenancyCell::FAMILY);
    opts.jobs = (jobs > 0).then_some(jobs);
    let modes = experiments::tenancy::standard_modes(&mix, &llc, ranks);
    let results = experiments::tenancy::run_tenancy_sweep(&mix, &modes, &llc, accesses, scale, &opts);
    let baselines: Vec<_> = (0..mix.tenants.len())
        .map(|t| experiments::tenancy::run_isolated_tenant(&mix, t, &llc, accesses, scale))
        .collect();
    let table = experiments::tenancy::compare_table(&mix, &llc, &results, &baselines);
    println!("{}", table.render());
    let weights = mix.weights();
    let rate_of = |want: fn(&tenancy::IsolationMode) -> bool| {
        results.iter().find_map(|(mode, r)| {
            if !want(mode) {
                return None;
            }
            r.as_ref().ok().map(|stats| experiments::tenancy::weighted_rate(stats, &weights))
        })
    };
    if let (Some(shared), Some(learned)) = (
        rate_of(|m| matches!(m, tenancy::IsolationMode::Shared)),
        rate_of(|m| matches!(m, tenancy::IsolationMode::LearnedPriority(_))),
    ) {
        if learned < shared {
            println!(
                "learned-priority beats shared: {:.4} vs {:.4} weighted demand miss rate ({:.2}% better)",
                learned,
                shared,
                100.0 * (shared - learned) / shared,
            );
        } else {
            println!(
                "learned-priority does NOT beat shared here: {learned:.4} vs {shared:.4} weighted demand miss rate"
            );
        }
    }
    match table.write_csv(experiments::report::results_dir()) {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => eprintln!("warning: could not save CSV: {e}"),
    }
    Ok(())
}

/// `rlr tenancy derive [scenario flags]` — the offline weight-analysis
/// loop over the per-tenant rank table; prints the derived table and the
/// miss-rate delta vs the shared baseline.
fn tenancy_derive(args: &Args) -> Result<(), ArgError> {
    args.expect_known(TENANCY_FLAGS)?;
    let (mix, llc, accesses, scale) = tenancy_scenario(args)?;
    let outcome = experiments::tenancy::derive_priorities(&mix, &llc, accesses, scale);
    println!("mix              {}", mix.fingerprint());
    println!("evaluated        {} candidate tables", outcome.evaluated);
    for (spec, rank) in mix.tenants.iter().zip(&outcome.ranks) {
        println!("tenant {:<10} {:<7} rank {rank}", spec.name, spec.class.name());
    }
    println!("shared baseline  {:.4} weighted demand miss rate", outcome.shared_rate);
    println!("derived table    {:.4} weighted demand miss rate", outcome.derived_rate);
    if outcome.derived_rate < outcome.shared_rate {
        println!(
            "improvement      {:.2}%  (replay with: rlr tenancy compare --ranks {})",
            100.0 * (outcome.shared_rate - outcome.derived_rate) / outcome.shared_rate,
            outcome.ranks.iter().map(u32::to_string).collect::<Vec<_>>().join(","),
        );
    } else {
        println!("no improvement over shared on this mix (table stays all-zero)");
    }
    Ok(())
}

/// `rlr help` — usage.
pub fn help() {
    println!(
        "rlr — RLR cache replacement reproduction (HPCA 2021)

USAGE: rlr <command> [options]

COMMANDS:
  list                          benchmarks and policies
  run <bench>                   one simulation       [--policy P] [--instructions N]
                                                     [--warmup N] [--no-prefetch]
                                                     [--timing analytic|event]
  compare <bench...>            speedup-over-LRU     [--policies a,b,c] [--instructions N]
                                                     [--jobs N] [--timing analytic|event]
  replay <trace.rlt>            trace-driven replay  [--policy P|belady|agent] [--agent FILE]
                                (an online policy streams the container block-by-block)
  train <bench|trace.rlt>       train a DQN agent    --out FILE [--epochs N] [--hidden N]
                                                     [--records N (bench only)] [--resume]
                                                     [--checkpoint FILE] [--stop-after N]
  analyze                       agent weight heatmap --agent FILE [--top N]
  characterize <bench>          workload personality [--entries N]
  overhead                      Table I (policy metadata budgets)
  trace capture <bench>         streaming compressed capture  --out FILE [--records N]
                                                     [--warmup N] [--block N]
                                (--mix a,b,... captures a multi-core run into one
                                container, core ids tagged per record)
  trace export <bench>          workload demand stream -> container  --out FILE [--records N]
                                (<file.rlt> --core N filters one core's records
                                out of a multi-core capture)
  trace info <file>             summarize an RLT1 container
  trace verify <file>           checksum-verify an RLT1 container  [--repair] [--out FILE]
                                (--repair salvages intact blocks into a clean container)
  objcache run                  object-cache replay  [--policy lru|slru|gdsf|rlr]
                                                     [--requests N] [--capacity-mib N]
  objcache compare              serving-tier roster  [--policies a,b,c] [--jobs N]
                                (miss-byte ratio; resumable via cell checkpoints)
  objcache derive               derivation loop: offline agent -> quantized rule
                                                     [--horizon N] [--epochs N]
  tenancy run                   multi-tenant LLC run [--mode shared|way-partition|
                                                     learned-priority] [--ranks a,b,c]
                                                     [--accesses N] [--sets N] [--ways N]
  tenancy compare               isolation modes side by side, per-tenant QoS +
                                slowdown vs isolated runs  [--jobs N] [--ranks a,b,c]
  tenancy derive                learn the per-tenant priority table offline
                                (coordinate ascent on weighted demand miss rate)
  doctor                        scan results/ artifacts; repair or quarantine damage
                                [--dry-run]
  help                          this text

FAULT TOLERANCE (compare + bench sweeps):
  RLR_RETRIES=N       retries per crashing cell (default 1)
  RLR_BACKOFF_MS=N    base retry backoff, doubled per attempt (default 100)
  RLR_TASK_BUDGET=N   logical work-unit watchdog per task (default off)
  RLR_CHECKPOINT=0    disable per-cell result checkpoints (resume-on-rerun)
  RLR_RESULTS_DIR=D   relocate results/ and its cell-checkpoint cache
  RLR_FAIL_PLAN=...   deterministic fault injection: task faults
                      (\"panic:3:2;stall:1\") and I/O faults at the storage
                      seam (\"torn:64\", \"flip:100@2\", \"enospc\", \"short-read:40\")

TIMING:
  --timing analytic|event  core timing model (default analytic; functional
                           hit/miss counters are identical in both modes)
  RLR_TIMING=MODE          same selector for bench/experiment runs without
                           a --timing flag (CLI flag wins when both set)

The full per-figure evaluation lives in `cargo bench -p rlr-bench` (see README)."
    );
}
