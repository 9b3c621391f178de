//! Single-core and multi-core simulation drivers.

use workloads::TraceEntry;

use crate::config::SystemConfig;
use crate::dram::DramTiming;
use crate::hierarchy::{CoreHierarchy, SharedLlc};
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;
use crate::timing::TimingModel;

/// Results of one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Instructions retired in the measured phase.
    pub instructions: u64,
    /// Cycles elapsed in the measured phase.
    pub cycles: u64,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Shared LLC statistics (whole LLC; in multi-core runs this is the
    /// same object reported for every core).
    pub llc: CacheStats,
    /// Lines fetched from main memory.
    pub memory_reads: u64,
    /// Dirty lines written to main memory.
    pub memory_writes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses.
    pub dram_row_misses: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC demand (load + RFO) misses per kilo-instruction — the paper's
    /// MPKI metric (Fig. 12).
    pub fn llc_demand_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.demand_misses() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// LLC demand hit rate in percent (Fig. 1's metric).
    pub fn llc_hit_rate_pct(&self) -> f64 {
        self.llc.demand_hit_rate() * 100.0
    }

    /// DRAM row-buffer hit rate in `[0, 1]`.
    pub fn dram_row_hit_rate(&self) -> f64 {
        let total = self.dram_row_hits + self.dram_row_misses;
        if total == 0 {
            0.0
        } else {
            self.dram_row_hits as f64 / total as f64
        }
    }

    /// IPC speedup of `self` over a `baseline` run, in percent.
    pub fn speedup_pct_over(&self, baseline: &RunStats) -> f64 {
        (self.ipc() / baseline.ipc() - 1.0) * 100.0
    }
}

/// Runs one core's entry through the hierarchy and timing model.
///
/// Event-mode ordering rule (deterministic by construction): the fetch and
/// demand charges land first — they are the critical path — then the
/// background traffic the op generated (prefetch fills, writebacks) queues
/// on the DRAM banks in the functional order the LLC emitted it.
fn step<P: ReplacementPolicy>(
    entry: &TraceEntry,
    hierarchy: &mut CoreHierarchy,
    timing: &mut TimingModel,
    llc: &mut SharedLlc<P>,
    dram: &mut DramTiming,
) {
    let fetch_level = hierarchy.instr_fetch(entry.pc, llc);
    timing.instr_fetch(fetch_level, entry.pc >> 6, dram);
    timing.retire(entry.leading);
    let level = hierarchy.data_access(entry.pc, entry.addr, entry.is_store, llc);
    timing.memory_op(level, entry.dependent, entry.addr >> 6, dram);
    llc.drain_traffic(|traffic| timing.background(traffic, dram));
}

/// A single core over the full hierarchy, with a pluggable LLC policy.
///
/// ```
/// use cache_sim::{SingleCoreSystem, SystemConfig, TrueLru};
/// use workloads::{Recipe, Workload};
///
/// let cfg = SystemConfig::paper_single_core();
/// let wl = Workload::new("loop", Recipe::Cyclic { bytes: 1 << 16, stride: 64, store_ratio: 0.0 });
/// let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
/// let stats = sys.run(wl.stream(), 20_000);
/// assert!(stats.instructions >= 20_000);
/// ```
pub struct SingleCoreSystem<P: ReplacementPolicy = Box<dyn ReplacementPolicy>> {
    config: SystemConfig,
    hierarchy: CoreHierarchy,
    llc: SharedLlc<P>,
    timing: TimingModel,
    dram_timing: DramTiming,
}

impl<P: ReplacementPolicy> SingleCoreSystem<P> {
    /// Creates the system with the given LLC replacement policy.
    pub fn new(config: &SystemConfig, policy: P) -> Self {
        Self {
            config: *config,
            hierarchy: CoreHierarchy::new(0, config),
            llc: SharedLlc::new(config, policy),
            timing: TimingModel::new(config),
            dram_timing: DramTiming::new(config),
        }
    }

    /// Access to the shared LLC (e.g. to enable trace capture).
    pub fn llc_mut(&mut self) -> &mut SharedLlc<P> {
        &mut self.llc
    }

    /// Read access to the shared LLC.
    pub fn llc(&self) -> &SharedLlc<P> {
        &self.llc
    }

    /// Runs `instructions` of the stream to warm the caches, then zeroes
    /// all statistics. Mirrors the paper's 200M-instruction warm-up.
    ///
    /// Deliberately consumes the stream one entry at a time: warm-up and
    /// the measured phase share one iterator, so any look-ahead here would
    /// shift the warm-up/measure boundary and change results.
    pub fn warm_up<I: Iterator<Item = TraceEntry>>(&mut self, stream: &mut I, instructions: u64) {
        let mut local = TimingModel::new(&self.config);
        while local.instructions() < instructions {
            let entry = stream.next().expect("workload streams are infinite");
            step(
                &entry,
                &mut self.hierarchy,
                &mut local,
                &mut self.llc,
                &mut self.dram_timing,
            );
        }
        self.hierarchy.reset_stats();
        self.llc.reset_stats();
        self.timing = TimingModel::new(&self.config);
        // The warm-up clock is discarded with its timing model; queued bank
        // work is anchored to that clock, so it goes too.
        self.dram_timing.reset();
    }

    /// Runs at least `instructions` instructions and returns the measured
    /// statistics.
    pub fn run<I: Iterator<Item = TraceEntry>>(&mut self, mut stream: I, instructions: u64) -> RunStats {
        while self.timing.instructions() < instructions {
            let entry = stream.next().expect("workload streams are infinite");
            step(
                &entry,
                &mut self.hierarchy,
                &mut self.timing,
                &mut self.llc,
                &mut self.dram_timing,
            );
        }
        self.timing.finish();
        RunStats {
            instructions: self.timing.instructions(),
            cycles: self.timing.cycles(),
            l1d: *self.hierarchy.l1d_stats(),
            l2: *self.hierarchy.l2_stats(),
            llc: *self.llc.stats(),
            memory_reads: self.llc.memory_reads(),
            memory_writes: self.llc.memory_writes(),
            dram_row_hits: self.llc.dram().row_hits(),
            dram_row_misses: self.llc.dram().row_misses(),
        }
    }
}

impl<P: ReplacementPolicy> std::fmt::Debug for SingleCoreSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleCoreSystem").field("llc", &self.llc).finish()
    }
}

struct CoreSlot {
    hierarchy: CoreHierarchy,
    timing: TimingModel,
    stream: Box<dyn Iterator<Item = TraceEntry> + Send>,
    /// `timing.cycles()` (0 for a fresh model), refreshed after each step
    /// of this core: only the stepped core's clock moves, so the scheduler
    /// reads this instead of recomputing every core's cycle count per step.
    cycles: u64,
    /// Cycles snapshot taken when the core crossed the instruction target.
    finished: Option<(u64, u64)>,
}

/// A multi-programmed system: one workload per core over a shared LLC.
///
/// Cores advance in global cycle order (the core with the fewest elapsed
/// cycles executes next), interleaving their LLC traffic realistically.
/// When a core reaches the instruction target its statistics are frozen,
/// but it keeps executing to provide interference until every core has
/// finished — mirroring the paper's methodology of wrapping traces.
pub struct MultiCoreSystem<P: ReplacementPolicy = Box<dyn ReplacementPolicy>> {
    config: SystemConfig,
    llc: SharedLlc<P>,
    cores: Vec<CoreSlot>,
    /// One shared bank-timing model: cross-core DRAM contention is part of
    /// what the event mode measures. Core clocks are kept loosely in sync
    /// by the fewest-cycles-first scheduler.
    dram_timing: DramTiming,
}

impl<P: ReplacementPolicy> MultiCoreSystem<P> {
    /// Creates the system; `streams[i]` feeds core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` does not match `config.cores`.
    pub fn new(
        config: &SystemConfig,
        policy: P,
        streams: Vec<Box<dyn Iterator<Item = TraceEntry> + Send>>,
    ) -> Self {
        assert_eq!(
            streams.len(),
            config.cores as usize,
            "need exactly one stream per core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| CoreSlot {
                hierarchy: CoreHierarchy::new(i as u8, config),
                timing: TimingModel::new(config),
                stream,
                cycles: 0,
                finished: None,
            })
            .collect();
        Self {
            config: *config,
            llc: SharedLlc::new(config, policy),
            cores,
            dram_timing: DramTiming::new(config),
        }
    }

    /// Access to the shared LLC.
    pub fn llc_mut(&mut self) -> &mut SharedLlc<P> {
        &mut self.llc
    }

    /// Interleaves all cores until each has retired `instructions`, with an
    /// initial `warm_up` phase whose statistics are discarded. Returns one
    /// [`RunStats`] per core (LLC fields are shared totals).
    pub fn run(&mut self, warm_up: u64, instructions: u64) -> Vec<RunStats> {
        if warm_up > 0 {
            self.warm_up(warm_up);
        }
        self.run_until(instructions)
    }

    /// Runs a warm-up phase alone and discards its statistics — the
    /// `warm_up` prefix of [`run`](MultiCoreSystem::run), split out so
    /// callers can change LLC state between warm-up and measurement (for
    /// example, enable trace capture only for the measured phase).
    pub fn warm_up(&mut self, instructions: u64) {
        self.run_phase(instructions);
        for core in &mut self.cores {
            core.hierarchy.reset_stats();
            core.timing = TimingModel::new(&self.config);
            core.cycles = 0;
            core.finished = None;
        }
        self.llc.reset_stats();
        self.dram_timing.reset();
    }

    /// Runs every core to the *absolute* retired-instruction target,
    /// clearing the per-core finish latches first so repeated calls with a
    /// growing target advance the same system incrementally (the slice
    /// loop of a capped trace capture). Statistics accumulate across
    /// calls.
    pub fn run_until(&mut self, instructions: u64) -> Vec<RunStats> {
        for core in &mut self.cores {
            core.finished = None;
        }
        self.run_phase(instructions);
        self.cores
            .iter()
            .map(|core| {
                let (instrs, cycles) =
                    core.finished.expect("run_phase finishes every core");
                RunStats {
                    instructions: instrs,
                    cycles,
                    l1d: *core.hierarchy.l1d_stats(),
                    l2: *core.hierarchy.l2_stats(),
                    llc: *self.llc.stats(),
                    memory_reads: self.llc.memory_reads(),
                    memory_writes: self.llc.memory_writes(),
                    dram_row_hits: self.llc.dram().row_hits(),
                    dram_row_misses: self.llc.dram().row_misses(),
                }
            })
            .collect()
    }

    fn run_phase(&mut self, instructions: u64) {
        loop {
            // Advance the core with the fewest elapsed cycles; finished
            // cores keep running to generate interference.
            let mut next: Option<(usize, u64)> = None;
            let mut all_done = true;
            for (i, core) in self.cores.iter().enumerate() {
                if core.finished.is_none() {
                    all_done = false;
                }
                let c = core.cycles;
                if next.is_none_or(|(_, best)| c < best) {
                    next = Some((i, c));
                }
            }
            if all_done {
                break;
            }
            let (i, _) = next.expect("at least one core exists");
            let core = &mut self.cores[i];
            let entry = core.stream.next().expect("workload streams are infinite");
            step(
                &entry,
                &mut core.hierarchy,
                &mut core.timing,
                &mut self.llc,
                &mut self.dram_timing,
            );
            core.cycles = core.timing.cycles();
            if core.finished.is_none() && core.timing.instructions() >= instructions {
                let mut t = core.timing.clone();
                t.finish();
                core.finished = Some((t.instructions(), t.cycles()));
            }
        }
    }
}

impl<P: ReplacementPolicy> std::fmt::Debug for MultiCoreSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCoreSystem")
            .field("cores", &self.cores.len())
            .field("llc", &self.llc)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::TrueLru;
    use crate::timing::TimingMode;
    use workloads::{Recipe, Workload};

    fn small_loop(bytes: u64) -> Workload {
        Workload::new("loop", Recipe::Cyclic { bytes, stride: 64, store_ratio: 0.1 })
    }

    #[test]
    fn run_reaches_instruction_target() {
        let cfg = SystemConfig::paper_single_core();
        let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
        let stats = sys.run(small_loop(1 << 16).stream(), 10_000);
        assert!(stats.instructions >= 10_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn cache_resident_loop_has_high_ipc() {
        let cfg = SystemConfig::paper_single_core();
        let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
        let mut stream = small_loop(16 << 10).stream();
        sys.warm_up(&mut stream, 5_000);
        let stats = sys.run(stream, 20_000);
        assert!(stats.ipc() > 1.5, "L1-resident loop should be fast, ipc={}", stats.ipc());
    }

    #[test]
    fn memory_bound_chase_has_low_ipc() {
        let cfg = SystemConfig::paper_single_core();
        let wl = Workload::new("chase", Recipe::Chase { bytes: 64 << 20 }).with_compute(1, 2);
        let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
        let stats = sys.run(wl.stream(), 20_000);
        assert!(stats.ipc() < 0.5, "random chase must be memory bound, ipc={}", stats.ipc());
    }

    #[test]
    fn warm_up_discards_statistics_but_keeps_contents() {
        let cfg = SystemConfig::paper_single_core();
        let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
        let mut stream = small_loop(8 << 10).stream();
        sys.warm_up(&mut stream, 10_000);
        assert_eq!(sys.llc().stats().accesses(), 0);
        let stats = sys.run(stream, 10_000);
        // After warming, the small loop (plus the stack region) is resident:
        // overwhelmingly L1 hits.
        assert!(stats.l1d.hit_rate() > 0.9, "l1d hit rate = {}", stats.l1d.hit_rate());
    }

    #[test]
    fn multicore_runs_all_cores_to_target() {
        let cfg = SystemConfig::paper_quad_core();
        let streams: Vec<Box<dyn Iterator<Item = TraceEntry> + Send>> = (0..4)
            .map(|i| {
                Box::new(small_loop(1 << 20).with_seed(i).stream())
                    as Box<dyn Iterator<Item = TraceEntry> + Send>
            })
            .collect();
        let mut sys = MultiCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)), streams);
        let per_core = sys.run(1_000, 5_000);
        assert_eq!(per_core.len(), 4);
        for s in &per_core {
            assert!(s.instructions >= 5_000);
            assert!(s.cycles > 0);
        }
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn multicore_stream_count_must_match() {
        let cfg = SystemConfig::paper_quad_core();
        let _ = MultiCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)), Vec::new());
    }

    #[test]
    fn event_mode_keeps_functional_counters_identical() {
        let analytic_cfg = SystemConfig::paper_single_core();
        let event_cfg = analytic_cfg.with_timing(TimingMode::Event);
        let run = |cfg: &SystemConfig| {
            let mut sys = SingleCoreSystem::new(cfg, Box::new(TrueLru::new(&cfg.llc)));
            let mut stream = small_loop(1 << 18).stream();
            sys.warm_up(&mut stream, 3_000);
            sys.run(stream, 10_000)
        };
        let a = run(&analytic_cfg);
        let e = run(&event_cfg);
        // Timing is a pure consumer: everything but cycles is identical.
        assert_eq!(a.instructions, e.instructions);
        assert_eq!(a.l1d, e.l1d);
        assert_eq!(a.l2, e.l2);
        assert_eq!(a.llc, e.llc);
        assert_eq!(a.memory_reads, e.memory_reads);
        assert_eq!(a.memory_writes, e.memory_writes);
        assert_eq!(a.dram_row_hits, e.dram_row_hits);
        assert!(e.cycles > 0);
    }

    #[test]
    fn event_mode_single_core_is_deterministic() {
        let cfg = SystemConfig::paper_single_core().with_timing(TimingMode::Event);
        let run = || {
            let wl = Workload::new("chase", Recipe::Chase { bytes: 8 << 20 }).with_compute(1, 2);
            let mut sys = SingleCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)));
            sys.run(wl.stream(), 20_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_mode_multicore_runs_and_repeats() {
        let cfg = SystemConfig::paper_quad_core().with_timing(TimingMode::Event);
        let run = || {
            let streams: Vec<Box<dyn Iterator<Item = TraceEntry> + Send>> = (0..4)
                .map(|i| {
                    Box::new(small_loop(1 << 20).with_seed(i).stream())
                        as Box<dyn Iterator<Item = TraceEntry> + Send>
                })
                .collect();
            let mut sys = MultiCoreSystem::new(&cfg, Box::new(TrueLru::new(&cfg.llc)), streams);
            sys.run(1_000, 5_000)
        };
        let first = run();
        assert_eq!(first.len(), 4);
        for s in &first {
            assert!(s.instructions >= 5_000);
            assert!(s.cycles > 0);
        }
        assert_eq!(first, run(), "shared-bank multicore timing must be deterministic");
    }

    #[test]
    fn speedup_helper_is_relative() {
        let a = RunStats { instructions: 1000, cycles: 500, ..RunStats::default() };
        let b = RunStats { instructions: 1000, cycles: 1000, ..RunStats::default() };
        assert!((a.speedup_pct_over(&b) - 100.0).abs() < 1e-9);
    }
}
