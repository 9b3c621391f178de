//! Simulation drivers shared by every experiment, including the sharded
//! parallel roster runner.
//!
//! # Determinism
//!
//! [`run_single`] is a pure function of `(workload, policy, scale)`: every
//! random stream is owned by the workload and seeded from its definition,
//! never from global state or scheduling order. The parallel runner
//! exploits this — each (workload, policy) task is independent, results
//! land in pre-assigned slots, and the output of
//! [`run_roster_resilient`] is byte-identical to a serial sweep regardless
//! of worker count or interleaving.
//!
//! # Fault tolerance
//!
//! [`run_tasks_resilient`] isolates each task behind `catch_unwind`: a
//! panicking cell becomes a structured [`TaskFailure`] instead of
//! poisoning the pool, with bounded deterministic retry
//! ([`RunOptions::retries`]) and an optional logical work-unit watchdog
//! ([`RunOptions::budget`], ticked by cooperative loops via
//! [`watchdog_tick`]) that aborts runaway tasks without wall-clock timers.
//! [`run_roster_resilient`] runs the roster as [`SingleCoreCell`]s through
//! [`checkpoint::run_checkpointed_sweep`], which layers per-cell
//! checkpoints on top so interrupted sweeps resume. All failure paths are
//! exercised deterministically through [`crate::fault::FailPlan`].

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use cache_sim::{
    Access, AccessKind, CoreHierarchy, DataRequest, DramTiming, LlcRecord, LlcTrace,
    MultiCoreSystem, ReplacementPolicy, RunStats, ServiceLevel, SetAssocCache, SharedLlc,
    SingleCoreSystem, SystemConfig, TimingMode, TimingModel,
};
use workloads::{cloudsuite, spec2006, TraceEntry, Workload, WorkloadMix};

use crate::checkpoint::{self, CellKey};
use crate::fault::{FailPlan, FaultKind};
use crate::roster::PolicyKind;
use crate::scale::Scale;

/// An error preventing a task from being *started* (as opposed to a
/// [`TaskFailure`], which is a task that started and died).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunnerError {
    /// A benchmark name matched neither the SPEC nor the CloudSuite
    /// roster. Detected up front, before any worker runs.
    UnknownBenchmark(String),
    /// The LLC model produced no capture buffer (capture was not enabled
    /// or was already taken).
    CaptureUnavailable,
    /// A multi-core capture was asked for this many cores; it takes 1 to
    /// 255.
    CoreCount(usize),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownBenchmark(name) => write!(f, "unknown benchmark `{name}`"),
            Self::CaptureUnavailable => write!(f, "LLC capture buffer unavailable"),
            Self::CoreCount(n) => write!(f, "a mix takes 1 to 255 benchmarks, got {n}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Why one task attempt (and, after retries, the whole task) failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The task panicked; carries the panic message.
    Panicked(String),
    /// The task exceeded its logical work-unit budget (see
    /// [`watchdog_tick`]).
    BudgetExceeded {
        /// The budget that was exhausted, in work units.
        budget: u64,
    },
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked(msg) => write!(f, "panicked: {msg}"),
            Self::BudgetExceeded { budget } => {
                write!(f, "exceeded work budget of {budget} units")
            }
        }
    }
}

/// A task that failed every attempt. The pool keeps running; the failure
/// is returned in the task's slot for the caller to report or degrade on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFailure {
    /// The task's index in the pool's input slice.
    pub index: usize,
    /// How many attempts were made (1 + retries).
    pub attempts: u32,
    /// The final attempt's failure.
    pub kind: FailureKind,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} failed after {} attempt(s): {}", self.index, self.attempts, self.kind)
    }
}

impl std::error::Error for TaskFailure {}

/// Failure-handling knobs for [`run_tasks_resilient`].
#[derive(Debug)]
pub struct RunOptions {
    /// Retries after the first failed attempt (total attempts = 1 + this).
    pub retries: u32,
    /// Base backoff before retry `n` (delay = `backoff_ms << (n-1)`,
    /// capped at 10 s). Zero disables sleeping entirely.
    pub backoff_ms: u64,
    /// Logical work-unit budget per attempt; `None` disables the watchdog.
    pub budget: Option<u64>,
    /// Deterministic fault injection schedule (empty in production).
    pub fail_plan: FailPlan,
}

impl RunOptions {
    /// No retries, no watchdog, no injection: a plain isolated pool.
    pub fn none() -> Self {
        Self { retries: 0, backoff_ms: 0, budget: None, fail_plan: FailPlan::none() }
    }

    /// Production defaults, overridable via `RLR_RETRIES`,
    /// `RLR_BACKOFF_MS`, `RLR_TASK_BUDGET`, and `RLR_FAIL_PLAN`.
    pub fn from_env() -> Self {
        Self {
            retries: env_num("RLR_RETRIES").unwrap_or(1),
            backoff_ms: env_num("RLR_BACKOFF_MS").unwrap_or(100),
            budget: env_num("RLR_TASK_BUDGET").filter(|&b| b > 0),
            fail_plan: FailPlan::from_env(),
        }
    }
}

/// Parses a numeric knob; anything unparsable *or out of range for `T`*
/// is `None`, so the caller's default applies.
fn parse_num<T: std::str::FromStr>(raw: &str) -> Option<T> {
    raw.trim().parse().ok()
}

fn env_num<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| parse_num(&v))
}

/// Runs one workload on the paper's single-core system with the given LLC
/// policy, honouring the scale's warm-up/measure split. The core timing
/// model follows `RLR_TIMING` (`analytic` by default, `event` for
/// simulated time with DRAM bank queueing); functional counters are
/// identical either way.
pub fn run_single(workload: &Workload, policy: PolicyKind, scale: Scale) -> RunStats {
    let config = SystemConfig::paper_single_core().with_timing(TimingMode::from_env());
    let policy = policy.build(&config.llc, None);
    simulate_single(&config, workload, policy, scale.warmup(), scale.instructions())
}

/// Runs one workload on a single-core `config` under `policy`: `warmup`
/// unmeasured instructions, then `instructions` measured ones. Every
/// warm-up-then-measure single-core run goes through here.
pub fn simulate_single<P: ReplacementPolicy>(
    config: &SystemConfig,
    workload: &Workload,
    policy: P,
    warmup: u64,
    instructions: u64,
) -> RunStats {
    let mut system = SingleCoreSystem::new(config, policy);
    let mut stream = workload.stream();
    system.warm_up(&mut stream, warmup);
    system.run(stream, instructions)
}

/// Instructions simulated between two drains of a single-core capture.
const CAPTURE_SLICE: u64 = 1_000_000;

/// Instructions simulated between two drains of a multi-core capture.
const MIX_CAPTURE_SLICE: u64 = 250_000;

/// Captures a workload's LLC access stream on the paper's single-core
/// system under LRU, handing it to `sink` one simulation slice at a time.
/// Every single-core capture (the corpus, the trace-driven figures, the
/// CLI) goes through here.
///
/// The system runs `warmup` unmeasured instructions, then enables capture
/// and runs in 1M-instruction slices. Each slice ticks the task watchdog
/// and drains the capture buffer into `sink`, so memory stays bounded by
/// one slice of records. The capture stops once `sink` has seen
/// `max_records` records or the slices reach `max_instructions`, whichever
/// comes first. The stream is policy-invariant: the LLC access stream does
/// not depend on the LLC replacement policy in this simulator.
///
/// Returns the number of records delivered (at most `max_records`).
///
/// # Errors
///
/// Returns the first error of `sink` unchanged, which also stops the
/// capture, or [`RunnerError::CaptureUnavailable`] (through `E::from`) if
/// the LLC yields no capture buffer.
pub fn capture_llc<E: From<RunnerError>>(
    workload: &Workload,
    warmup: u64,
    max_records: u64,
    max_instructions: u64,
    sink: impl FnMut(&[LlcRecord]) -> Result<(), E>,
) -> Result<u64, E> {
    let config = SystemConfig::paper_single_core();
    let mut system = SingleCoreSystem::new(&config, PolicyKind::Lru.build(&config.llc, None));
    let mut stream = workload.stream();
    system.warm_up(&mut stream, warmup);
    system.llc_mut().enable_capture();
    capture_slices(CAPTURE_SLICE, max_records, max_instructions, sink, |target| {
        let _ = system.run(&mut stream, target);
        system.llc_mut().drain_capture()
    })
}

/// The one capture stop rule. Grows the instruction target by `slice`;
/// `run_to` advances the system to that target and drains its capture
/// buffer. Each slice ticks the watchdog and feeds `sink` at most the
/// records still missing from `max_records`; the loop ends once the quota
/// is met or the target reaches `max_instructions`.
fn capture_slices<E: From<RunnerError>>(
    slice: u64,
    max_records: u64,
    max_instructions: u64,
    mut sink: impl FnMut(&[LlcRecord]) -> Result<(), E>,
    mut run_to: impl FnMut(u64) -> Option<LlcTrace>,
) -> Result<u64, E> {
    let mut delivered = 0u64;
    let mut target = 0u64;
    loop {
        watchdog_tick(1);
        target += slice;
        let drained = run_to(target).ok_or(RunnerError::CaptureUnavailable)?;
        let take = (max_records - delivered).min(drained.len() as u64) as usize;
        sink(&drained.records()[..take])?;
        delivered += take as u64;
        if delivered >= max_records || target >= max_instructions {
            return Ok(delivered);
        }
    }
}

/// Appends every record of a slice to `trace`: the in-memory capture sink.
fn push_records(trace: &mut LlcTrace, records: &[LlcRecord]) -> Result<(), RunnerError> {
    for &r in records {
        trace.push(r);
    }
    Ok(())
}

/// Runs a workload once with LRU and captures its LLC access trace
/// (`max_records` records, collected after warm-up), for the trace-driven
/// pipeline (RL training, Belady, Figs. 1 and 3–7): [`capture_llc`] into
/// memory over the scale's window, a `scale.warmup() / 2` warm-up and a
/// `40 × scale.instructions()` ceiling.
///
/// # Errors
///
/// Returns [`RunnerError::CaptureUnavailable`] if the LLC yields no
/// capture buffer.
pub fn capture_llc_trace(
    workload: &Workload,
    scale: Scale,
    max_records: usize,
) -> Result<LlcTrace, RunnerError> {
    let mut trace = LlcTrace::new();
    capture_llc(
        workload,
        scale.warmup() / 2,
        max_records as u64,
        40 * scale.instructions(),
        |records| push_records(&mut trace, records),
    )?;
    Ok(trace)
}

/// Aggregate counters of one trace replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Total accesses replayed.
    pub accesses: u64,
    /// Hits across all access kinds.
    pub hits: u64,
    /// Demand (load + RFO) accesses.
    pub demand_accesses: u64,
    /// Demand hits.
    pub demand_hits: u64,
}

impl ReplaySummary {
    /// Demand hit rate in `[0, 1]` (0 when the trace has no demand traffic).
    pub fn demand_hit_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_hits as f64 / self.demand_accesses as f64
        }
    }
}

/// The sequence counter and running summary one replay threads through
/// its records, shared by the in-memory and streaming replay paths so their
/// access streams (and therefore results) are identical.
#[derive(Default)]
struct ReplayState {
    seq: u64,
    summary: ReplaySummary,
}

impl ReplayState {
    /// Replays `records` one access at a time, continuing the running
    /// sequence numbering.
    ///
    /// Inlined into its caller, with the counters in locals for the
    /// block: called out of line from `replay_llc_reader`'s closure, the
    /// loop ran ~4% slower pinned to one CPU of a 2-vCPU VM (perfbench
    /// `llc_replay` median `wall_ref_s` 0.2786 vs 0.2683 s, slower in 6
    /// of 6 alternating rounds).
    #[inline(always)]
    fn feed<P: ReplacementPolicy>(&mut self, cache: &mut SetAssocCache<P>, records: &[LlcRecord]) {
        let (mut seq, mut summary) = (self.seq, self.summary);
        for r in records {
            let access = Access { pc: r.pc, addr: r.line << 6, kind: r.kind, core: r.core, seq };
            seq += 1;
            let hit = cache.access(&access).hit;
            summary.accesses += 1;
            summary.hits += u64::from(hit);
            if r.kind.is_demand() {
                summary.demand_accesses += 1;
                summary.demand_hits += u64::from(hit);
            }
        }
        (self.seq, self.summary) = (seq, summary);
    }
}

/// Replays a captured LLC trace through a standalone cache, numbering
/// records in trace order. This is the hot loop of trace-driven evaluation
/// (CLI `replay`, benches).
pub fn replay_llc_trace<P: ReplacementPolicy>(
    cache: &mut SetAssocCache<P>,
    trace: &LlcTrace,
) -> ReplaySummary {
    let mut state = ReplayState::default();
    state.feed(cache, trace.records());
    state.summary
}

/// Replays a compressed trace container *as it streams* — each decoded
/// block is fed straight through the same loop as [`replay_llc_trace`],
/// while [`trace_io::TraceReader::for_each_block`] decodes the next block
/// on a helper thread. Peak memory is three container blocks, and the
/// resulting [`ReplaySummary`] is identical to loading the whole trace
/// first.
///
/// # Errors
///
/// Propagates any [`trace_io::TraceIoError`] from the reader (corrupt or
/// truncated containers fail the replay rather than silently shortening it).
pub fn replay_llc_reader<P: ReplacementPolicy, R: std::io::Read + Send>(
    cache: &mut SetAssocCache<P>,
    reader: &mut trace_io::TraceReader<R>,
) -> Result<ReplaySummary, trace_io::TraceIoError> {
    let mut state = ReplayState::default();
    reader.for_each_block(|block| {
        // The closure runs on this thread, so watchdog ticks keep
        // streamed replays budgetable.
        watchdog_tick(1);
        state.feed(cache, block);
    })?;
    Ok(state.summary)
}

/// The replay mode argument of [`replay_hierarchy`]. Each cache level has
/// one access path, so there is only one mode; the type exists only so
/// existing callers that name `HierarchyReplayMode::PerAccess` still
/// compile, and [`replay_hierarchy`] ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchyReplayMode {
    /// One [`CoreHierarchy::data_access`] call per request.
    PerAccess,
}

/// Replays a demand data stream through one core's private hierarchy and a
/// shared LLC, returning the [`ServiceLevel`] of every request in order.
pub fn replay_hierarchy<P: ReplacementPolicy>(
    core: &mut CoreHierarchy,
    llc: &mut SharedLlc<P>,
    requests: &[DataRequest],
    _mode: HierarchyReplayMode,
) -> Vec<ServiceLevel> {
    requests.iter().map(|r| core.data_access(r.pc, r.addr, r.is_store, llc)).collect()
}

/// Timing result of one [`replay_hierarchy_timed`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimedReplay {
    /// Instructions the synthetic core retired (requests + leading
    /// compute).
    pub instructions: u64,
    /// Simulated cycles under `config.timing`.
    pub cycles: u64,
}

impl TimedReplay {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Leading compute instructions charged per replayed request by
/// [`replay_hierarchy_timed`] — a fixed op mix so replays are comparable
/// across policies and timing modes.
const TIMED_REPLAY_LEADING: u32 = 2;

/// Replays a demand data stream through one core's private hierarchy and a
/// shared LLC *under the timing model selected by `config.timing`*,
/// returning simulated time. Each request retires a fixed
/// `TIMED_REPLAY_LEADING`-instruction compute burst, then one
/// independent memory op at whatever [`ServiceLevel`] the functional
/// hierarchy reports — so the functional stream (and every hit/miss
/// counter) is identical across timing modes, while cycles reflect the
/// selected model. This is the substrate of the timing differential wall.
/// Build `llc` from the same `config`: under event timing it records the
/// background traffic the bank queues need.
pub fn replay_hierarchy_timed<P: ReplacementPolicy>(
    core: &mut CoreHierarchy,
    llc: &mut SharedLlc<P>,
    requests: &[DataRequest],
    config: &SystemConfig,
) -> TimedReplay {
    let mut timing = TimingModel::new(config);
    let mut dram = DramTiming::new(config);
    for r in requests {
        timing.retire(TIMED_REPLAY_LEADING);
        let level = core.data_access(r.pc, r.addr, r.is_store, llc);
        timing.memory_op(level, false, r.addr >> 6, &mut dram);
        llc.drain_traffic(|traffic| timing.background(traffic, &mut dram));
    }
    timing.finish();
    TimedReplay { instructions: timing.instructions(), cycles: timing.cycles() }
}

/// Extracts a demand-request stream from a captured LLC trace for
/// hierarchy replay: loads and RFOs keep their PC and address; prefetches
/// and writebacks are dropped, since a replayed private hierarchy
/// regenerates its own.
pub fn demand_requests(trace: &LlcTrace) -> Vec<DataRequest> {
    trace
        .records()
        .iter()
        .filter(|r| r.kind.is_demand())
        .map(|r| DataRequest { pc: r.pc, addr: r.line << 6, is_store: r.kind == AccessKind::Rfo })
        .collect()
}

/// Core `core`'s instruction stream in a multi-core mix. Distinct per-core
/// seeds keep identical benchmarks from running in lockstep; a per-core PC
/// salt models distinct binaries/address spaces (without it, every
/// synthetic workload allocates PCs from the same base and cross-core
/// collisions poison shared PC-indexed predictors).
fn core_stream(wl: &Workload, core: usize) -> Box<dyn Iterator<Item = TraceEntry> + Send> {
    let seeded = wl.clone().with_seed(wl.seed() ^ (core as u64 + 1).wrapping_mul(0x9E37));
    let pc_salt = (core as u64 + 1) << 44;
    Box::new(seeded.stream().map(move |mut e| {
        e.pc ^= pc_salt;
        e
    }))
}

/// Runs a 4-core mix on the paper's quad-core system; returns per-core
/// statistics.
pub fn run_mix(mix: &WorkloadMix, policy: PolicyKind, scale: Scale) -> Vec<RunStats> {
    let config = SystemConfig::paper_quad_core().with_timing(TimingMode::from_env());
    let streams =
        mix.workloads().iter().enumerate().map(|(core, wl)| core_stream(wl, core)).collect();
    let mut system = MultiCoreSystem::new(&config, policy.build(&config.llc, None), streams);
    system.run(scale.mc_warmup(), scale.mc_instructions())
}

/// Captures the shared LLC's access stream for a multi-core mix into one
/// trace — every record carries its issuing core's id, so the container
/// can later be split per core ([`cache_sim::LlcTrace::filter_core`],
/// `rlr trace export <file.rlt> --core N`).
///
/// The same stop rule as [`capture_llc`] on
/// [`MultiCoreSystem::warm_up`]/[`MultiCoreSystem::run_until`]: warm up
/// unmeasured, then enable capture and grow the instruction target in
/// 250k-instruction slices, draining the buffer each slice so capture
/// memory stays bounded, up to a `40 × scale.mc_instructions()` ceiling.
///
/// # Errors
///
/// Returns [`RunnerError::CoreCount`] unless there are 1 to 255
/// benchmarks (core ids are one byte and the system counts its cores in
/// one), [`RunnerError::UnknownBenchmark`] for the first unknown name, or
/// [`RunnerError::CaptureUnavailable`] if the LLC stops yielding its
/// capture buffer.
pub fn capture_mix_llc_trace(
    benchmarks: &[&str],
    scale: Scale,
    max_records: usize,
) -> Result<LlcTrace, RunnerError> {
    let cores = u8::try_from(benchmarks.len())
        .ok()
        .filter(|&n| n > 0)
        .ok_or(RunnerError::CoreCount(benchmarks.len()))?;
    let mut config = SystemConfig::paper_quad_core();
    config.cores = cores;
    let streams = benchmarks
        .iter()
        .enumerate()
        .map(|(core, name)| Ok(core_stream(&resolve_workload(name)?, core)))
        .collect::<Result<_, RunnerError>>()?;
    let mut system =
        MultiCoreSystem::new(&config, PolicyKind::Lru.build(&config.llc, None), streams);
    system.warm_up(scale.mc_warmup());
    system.llc_mut().enable_capture();
    let mut trace = LlcTrace::new();
    capture_slices(
        MIX_CAPTURE_SLICE,
        max_records as u64,
        40 * scale.mc_instructions(),
        |records| push_records(&mut trace, records),
        |target| {
            let _ = system.run_until(target);
            system.llc_mut().drain_capture()
        },
    )?;
    Ok(trace)
}

/// Resolves the experiment worker count: an explicit `jobs` wins, then the
/// `RLR_JOBS` environment variable, then the machine's available
/// parallelism (1 if that cannot be determined).
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    jobs.filter(|&j| j > 0)
        .or_else(|| env_num("RLR_JOBS").filter(|&j| j > 0))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

// ---------------------------------------------------------------------------
// Watchdog: a logical, deterministic per-task budget.
//
// Wall-clock timeouts make tests flaky and results machine-dependent, so
// runaway tasks are bounded in *work units* instead: cooperative loops
// (e.g. the capture slices above) call `watchdog_tick`, and when an armed
// task exhausts its budget the tick panics with a private payload that the
// pool classifies as `FailureKind::BudgetExceeded`.
// ---------------------------------------------------------------------------

/// Panic payload distinguishing a watchdog abort from an organic panic.
struct WatchdogAbort {
    budget: u64,
}

#[derive(Clone, Copy)]
struct WatchdogState {
    remaining: u64,
    budget: u64,
}

thread_local! {
    static WATCHDOG: Cell<Option<WatchdogState>> = const { Cell::new(None) };
}

/// Consumes `units` of the current task's work budget; a no-op when no
/// watchdog is armed (e.g. serial use outside the pool).
///
/// # Panics
///
/// Panics with a pool-internal payload once an armed budget is exhausted;
/// [`run_tasks_resilient`] converts this into
/// [`FailureKind::BudgetExceeded`].
pub fn watchdog_tick(units: u64) {
    WATCHDOG.with(|w| {
        if let Some(mut state) = w.get() {
            if units >= state.remaining {
                w.set(None);
                std::panic::panic_any(WatchdogAbort { budget: state.budget });
            }
            state.remaining -= units;
            w.set(Some(state));
        }
    });
}

fn watchdog_armed() -> bool {
    WATCHDOG.with(|w| w.get().is_some())
}

/// Arms the thread's watchdog for the lifetime of the guard.
struct WatchdogGuard;

impl WatchdogGuard {
    fn arm(budget: u64) -> Self {
        WATCHDOG.with(|w| w.set(Some(WatchdogState { remaining: budget.max(1), budget })));
        Self
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        WATCHDOG.with(|w| w.set(None));
    }
}

fn inject_fault(kind: FaultKind) {
    match kind {
        FaultKind::Panic => std::panic::panic_any("injected fault: panic".to_owned()),
        FaultKind::Stall => {
            // A stall only terminates through the watchdog. Injecting one
            // without an armed budget would hang forever, so that
            // misconfiguration degrades to an ordinary panic.
            if !watchdog_armed() {
                std::panic::panic_any("injected fault: stall with no watchdog armed".to_owned());
            }
            loop {
                watchdog_tick(1);
            }
        }
    }
}

fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> FailureKind {
    match payload.downcast::<WatchdogAbort>() {
        Ok(abort) => FailureKind::BudgetExceeded { budget: abort.budget },
        Err(other) => {
            let msg = other
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| other.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            FailureKind::Panicked(msg)
        }
    }
}

fn retry_delay_ms(backoff_ms: u64, failed_attempts: u32) -> u64 {
    if backoff_ms == 0 {
        return 0;
    }
    let shift = (failed_attempts.saturating_sub(1)).min(16);
    backoff_ms.saturating_mul(1u64 << shift).min(10_000)
}

/// Runs one task to completion or final failure under `opts`; `index` is
/// the task index fault directives and [`TaskFailure::index`] refer to.
pub(crate) fn run_one_task<T, R, F>(
    opts: &RunOptions,
    index: usize,
    item: &T,
    f: &F,
) -> Result<R, TaskFailure>
where
    F: Fn(usize, &T) -> R,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = opts.budget.map(WatchdogGuard::arm);
            if let Some(fault) = opts.fail_plan.fault_for(index) {
                inject_fault(fault);
            }
            f(index, item)
        }));
        match outcome {
            Ok(result) => return Ok(result),
            Err(payload) => {
                let kind = classify_panic(payload);
                if attempts <= opts.retries {
                    let delay = retry_delay_ms(opts.backoff_ms, attempts);
                    eprintln!(
                        "[pool] task {index} attempt {attempts} failed ({kind}); \
                         retrying in {delay} ms"
                    );
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                } else {
                    return Err(TaskFailure { index, attempts, kind });
                }
            }
        }
    }
}

/// Applies `f` to every item on a pool of `jobs` scoped threads, isolating
/// each task's failures.
///
/// Work is handed out through an atomic cursor (a sharded work queue, so
/// an expensive item does not stall the others) and each result is written
/// to the slot of its input: the returned vector matches input order
/// exactly, independent of scheduling. A panicking or over-budget task
/// yields `Err(TaskFailure)` in its slot after exhausting
/// [`RunOptions::retries`]; every other task still completes.
pub fn run_tasks_resilient<T, R, F>(
    items: &[T],
    jobs: usize,
    opts: &RunOptions,
    f: F,
) -> Vec<Result<R, TaskFailure>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_pool(items, jobs, |i, t| run_one_task(opts, i, t, &f))
}

/// Applies `task` to every item on a pool of `jobs` scoped threads, with
/// results in input order. The scheduling core of [`run_tasks_resilient`];
/// `task` must not panic (wrap it in [`run_one_task`]).
pub(crate) fn run_pool<T, R, F>(items: &[T], jobs: usize, task: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| task(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = task(i, item);
                // Recover a poisoned slot rather than cascading: the
                // poisoning panic was already captured as that task's
                // failure, and the lock protects a plain Option.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled slot")
        })
        .collect()
}

/// One sweep cell: the run's statistics, or why the cell failed.
pub type CellResult = Result<RunStats, TaskFailure>;

/// A roster sweep's output: per benchmark, per policy, a [`CellResult`].
pub type ResilientSweep = Vec<(String, Vec<(PolicyKind, CellResult)>)>;

/// Configuration for [`run_roster_resilient`].
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker count; `None` defers to [`resolve_jobs`].
    pub jobs: Option<usize>,
    /// Failure handling for the underlying pool.
    pub run: RunOptions,
    /// Cell-checkpoint directory; `None` disables checkpointing.
    pub cache_dir: Option<PathBuf>,
}

impl SweepOptions {
    /// No checkpointing, no retries — the pure in-memory sweep.
    pub fn none() -> Self {
        Self { jobs: None, run: RunOptions::none(), cache_dir: None }
    }

    /// Production defaults: env-tunable failure handling ([`RunOptions::from_env`])
    /// and cell checkpoints under the family's `results/cache/<family>/`
    /// (disable with `RLR_CHECKPOINT=0`; relocate with `RLR_RESULTS_DIR`).
    pub fn from_env(family: &str) -> Self {
        let checkpointing = !matches!(std::env::var("RLR_CHECKPOINT").as_deref(), Ok("0"));
        Self {
            jobs: None,
            run: RunOptions::from_env(),
            cache_dir: checkpointing.then(|| checkpoint::cache_dir_for(family)),
        }
    }
}

fn resolve_workload(name: &str) -> Result<Workload, RunnerError> {
    spec2006(name)
        .or_else(|| cloudsuite(name))
        .ok_or_else(|| RunnerError::UnknownBenchmark(name.to_owned()))
}

/// One single-core simulation cell: `workload` under `policy` on
/// `config`, `warmup` unmeasured plus `instructions` measured
/// instructions. Both the roster sweep and `rlr compare` run these.
pub struct SingleCoreCell<'a> {
    /// Benchmark name (key and label).
    pub bench: &'a str,
    /// The resolved workload.
    pub workload: &'a Workload,
    /// LLC replacement policy.
    pub policy: PolicyKind,
    /// System under simulation; its timing mode is part of the key.
    pub config: &'a SystemConfig,
    /// Unmeasured warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Leading key params naming the sweep that owns the cell
    /// (`single|<scale>` for the roster, `cli` for `rlr compare`).
    pub origin: &'a str,
}

impl checkpoint::Cell for SingleCoreCell<'_> {
    const FAMILY: &'static str = "sweep";
    type Out = RunStats;

    fn key(&self) -> CellKey {
        // The timing mode is part of the key: analytic and event sweeps of
        // the same roster must never satisfy each other's checkpoints.
        let params = format!(
            "{}|i{}|w{}|t{}",
            self.origin, self.instructions, self.warmup, self.config.timing
        );
        checkpoint::cell_key(self.bench, self.policy.name(), &params)
    }

    fn label(&self) -> String {
        format!("{}/{}", self.bench, self.policy.name())
    }

    fn run(&self) -> RunStats {
        let policy = self.policy.build(&self.config.llc, None);
        simulate_single(self.config, self.workload, policy, self.warmup, self.instructions)
    }
}

/// Runs the full `benchmarks` × `policies` roster with failure isolation
/// and per-cell resume ([`checkpoint::run_checkpointed_sweep`]).
///
/// Benchmark names are validated *before* any worker starts. Failed cells
/// surface as `Err(TaskFailure)` in their slot; the rest of the sweep
/// completes.
///
/// # Errors
///
/// Returns [`RunnerError::UnknownBenchmark`] for the first unknown name.
pub fn run_roster_resilient(
    benchmarks: &[&str],
    policies: &[PolicyKind],
    scale: Scale,
    opts: &SweepOptions,
) -> Result<ResilientSweep, RunnerError> {
    let workloads: Vec<Workload> =
        benchmarks.iter().map(|&name| resolve_workload(name)).collect::<Result<_, _>>()?;
    let config = SystemConfig::paper_single_core().with_timing(TimingMode::from_env());
    let origin = format!("single|{scale}");
    let cells: Vec<SingleCoreCell> = benchmarks
        .iter()
        .zip(&workloads)
        .flat_map(|(&bench, workload)| {
            policies.iter().map(|&policy| SingleCoreCell {
                bench,
                workload,
                policy,
                config: &config,
                warmup: scale.warmup(),
                instructions: scale.instructions(),
                origin: &origin,
            })
        })
        .collect();
    let mut results = checkpoint::run_checkpointed_sweep(&cells, opts).into_iter();
    Ok(benchmarks
        .iter()
        .map(|&name| {
            let runs = policies.iter().map(|&p| (p, results.next().expect("one result per cell")));
            (name.to_owned(), runs.collect())
        })
        .collect())
}

/// The paper's multicore per-mix metric: the geometric mean over cores of
/// each core's IPC speedup versus the same core under LRU.
pub fn mix_speedup_pct(policy_runs: &[RunStats], lru_runs: &[RunStats]) -> f64 {
    assert_eq!(policy_runs.len(), lru_runs.len(), "core counts must match");
    let mut log_sum = 0.0;
    for (p, l) in policy_runs.iter().zip(lru_runs) {
        log_sum += (p.ipc() / l.ipc()).ln();
    }
    ((log_sum / policy_runs.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec2006;

    /// A scale smaller than `Scale::Small` is not exposed publicly; tests
    /// use Small but with the cheapest benchmark.
    #[test]
    fn capture_produces_bounded_trace() {
        let wl = spec2006("429.mcf").expect("known benchmark");
        let trace = capture_llc_trace(&wl, Scale::Small, 5_000).expect("capture succeeds");
        assert!(trace.len() <= 5_000);
        assert!(trace.len() >= 4_000, "mcf floods the LLC: got {}", trace.len());
    }

    #[test]
    fn mix_capture_rejects_core_counts_outside_one_byte() {
        // 257 names used to panic on an assert; 256 reached the system
        // with a zero core count and panicked there.
        for n in [0, 256, 257] {
            let names = vec!["429.mcf"; n];
            let err = capture_mix_llc_trace(&names, Scale::Small, 10).expect_err("rejected");
            assert_eq!(err, RunnerError::CoreCount(n));
        }
    }

    #[test]
    fn mix_speedup_is_zero_against_itself() {
        let stats = RunStats { instructions: 100, cycles: 50, ..RunStats::default() };
        let s = mix_speedup_pct(&[stats, stats], &[stats, stats]);
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn watchdog_is_a_noop_when_disarmed() {
        // Ticking without an armed budget must never panic.
        for _ in 0..10 {
            watchdog_tick(u64::MAX);
        }
        assert!(!watchdog_armed());
    }

    #[test]
    fn watchdog_guard_disarms_on_drop() {
        {
            let _guard = WatchdogGuard::arm(100);
            assert!(watchdog_armed());
            watchdog_tick(50);
        }
        assert!(!watchdog_armed());
        watchdog_tick(u64::MAX); // disarmed again: no panic
    }

    #[test]
    fn retry_delay_grows_and_caps() {
        assert_eq!(retry_delay_ms(0, 5), 0);
        assert_eq!(retry_delay_ms(100, 1), 100);
        assert_eq!(retry_delay_ms(100, 2), 200);
        assert_eq!(retry_delay_ms(100, 3), 400);
        assert_eq!(retry_delay_ms(100, 40), 10_000, "capped");
    }

    #[test]
    fn out_of_range_knobs_parse_as_malformed() {
        assert_eq!(parse_num::<u32>(" 3 "), Some(3));
        assert_eq!(parse_num::<u32>("4294967295"), Some(u32::MAX));
        // One past u32::MAX used to wrap to 0 retries through an `as` cast.
        assert_eq!(parse_num::<u32>("4294967296"), None);
        assert_eq!(parse_num::<u32>("-1"), None);
        assert_eq!(parse_num::<u64>("lots"), None);
    }

    #[test]
    fn unknown_benchmark_is_an_upfront_error() {
        let err = run_roster_resilient(
            &["not.a.benchmark"],
            &[PolicyKind::Lru],
            Scale::Small,
            &SweepOptions::none(),
        )
        .expect_err("must be rejected");
        assert_eq!(err, RunnerError::UnknownBenchmark("not.a.benchmark".to_owned()));
    }
}
