//! Core timing models: the analytic formula, the mode selector, and the
//! facade that lets the drivers swap in the discrete-event core.
//!
//! The analytic model ([`CoreTiming`]) converts a stream of retired
//! instructions and memory-service levels into cycles. It captures the
//! three effects that matter for LLC replacement studies:
//!
//! 1. **Issue width** — non-memory instructions retire at `issue_width` per
//!    cycle.
//! 2. **Memory-level parallelism** — long-latency accesses (LLC and beyond)
//!    overlap, bounded by the MSHR count and by the reorder buffer: a miss
//!    blocks retirement once `rob_entries` younger instructions have been
//!    issued behind it.
//! 3. **Dependent chains** — an access flagged as address-dependent on the
//!    previous one (pointer chasing) cannot issue until that access's data
//!    returns, serializing misses regardless of MSHR capacity.
//!
//! L1 hits are considered fully pipelined; L2 hits expose a small fixed
//! penalty. This is deliberately simpler than a cycle-accurate core: the
//! paper's results are *relative* IPC across LLC policies, which this model
//! preserves because cycles are driven by the same LLC hit/miss outcomes a
//! detailed core would see.
//!
//! The discrete-event model ([`crate::EventCore`]) adds DRAM bank queueing
//! and writeback backpressure on top of the same accounting; select it with
//! [`TimingMode::Event`] (see [`crate::SystemConfig::timing`]). Both models
//! share one fixed-point time base ([`ticks_per_cycle`]): time advances in
//! integer *sub-slots* of `1 / (2 × issue_width)` cycles, so every charge —
//! per-instruction issue slots, full latencies, and the fetch path's
//! half-latency — is exact u64 arithmetic and cycle counts are
//! bit-reproducible across platforms (the earlier f64 accumulator could
//! round differently at retire boundaries).

use std::collections::VecDeque;

use crate::config::SystemConfig;
use crate::dram::DramTiming;
use crate::event::{EventCore, MemTraffic};
use crate::hierarchy::ServiceLevel;

/// Cycles of exposed latency charged for an L2 hit (the OOO window hides
/// the rest).
pub(crate) const L2_EXPOSED_CYCLES: u64 = 1;

/// Sub-slots per cycle for the fixed-point time base shared by both timing
/// models: `2 × issue_width`. One instruction is exactly 2 sub-slots
/// (`1/width` cycles), a full latency of `L` cycles is `L × scale`
/// sub-slots, and the instruction-fetch path's half-latency charge
/// (`L × width` sub-slots) stays integral for any width.
pub(crate) fn ticks_per_cycle(config: &SystemConfig) -> u64 {
    2 * u64::from(config.issue_width.max(1))
}

/// Which core timing model converts hit/miss outcomes into cycles.
///
/// The functional (hit/miss) path is identical under both modes — timing is
/// a pure consumer of service levels — so counters, captures, and oracle
/// results never depend on this selector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TimingMode {
    /// The analytic MLP-aware formula ([`CoreTiming`]): latencies are
    /// charged per-op with MSHR/ROB/dependence limits, but memory service
    /// time is a constant per row-buffer class.
    #[default]
    Analytic,
    /// The discrete-event core ([`crate::EventCore`]): miss completion
    /// times come from per-bank DRAM busy-until queues, and prefetch /
    /// writeback traffic occupies the same banks (backpressure).
    Event,
}

impl TimingMode {
    /// Stable lower-case name (CLI flag value, checkpoint key component).
    pub fn name(self) -> &'static str {
        match self {
            TimingMode::Analytic => "analytic",
            TimingMode::Event => "event",
        }
    }

    /// Parses a mode name as accepted by the CLI and `RLR_TIMING`.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "analytic" => Some(TimingMode::Analytic),
            "event" => Some(TimingMode::Event),
            _ => None,
        }
    }

    /// Resolves the mode from the `RLR_TIMING` environment variable
    /// (unset or empty means [`TimingMode::Analytic`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable on an unrecognized value: a
    /// typo silently falling back to the analytic model would mislabel
    /// every figure produced by the run.
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var("RLR_TIMING") {
            Err(_) => Ok(TimingMode::Analytic),
            Ok(raw) if raw.trim().is_empty() => Ok(TimingMode::Analytic),
            Ok(raw) => Self::parse(&raw)
                .ok_or_else(|| format!("RLR_TIMING must be `analytic` or `event`, got `{raw}`")),
        }
    }

    /// [`TimingMode::try_from_env`] for callers with no error channel.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `RLR_TIMING` value.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl std::fmt::Display for TimingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One in-flight long-latency miss, in program order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Outstanding {
    /// Completion time in sub-slots.
    pub(crate) done_at: u64,
    /// Instruction count when the miss issued (ROB occupancy anchor).
    pub(crate) at_instr: u64,
}

/// Per-core cycle accounting (the analytic model).
///
/// ```
/// use cache_sim::{CoreTiming, SystemConfig};
/// use cache_sim::ServiceLevel;
///
/// let cfg = SystemConfig::paper_single_core();
/// let mut t = CoreTiming::new(&cfg);
/// t.retire(300);
/// t.memory_op(ServiceLevel::L1, false, &cfg);
/// assert_eq!(t.instructions(), 301);
/// t.finish();
/// assert!(t.cycles() >= 100); // 300 instructions at width 3
/// ```
#[derive(Clone, Debug)]
pub struct CoreTiming {
    /// Sub-slots per cycle (see [`ticks_per_cycle`]).
    scale: u64,
    rob_entries: u64,
    mshrs: usize,
    /// Elapsed time in sub-slots.
    now: u64,
    instructions: u64,
    pending: VecDeque<Outstanding>,
    last_long_done: u64,
}

impl CoreTiming {
    /// Creates a timing model from the system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            scale: ticks_per_cycle(config),
            rob_entries: u64::from(config.rob_entries),
            mshrs: config.mshrs as usize,
            now: 0,
            instructions: 0,
            pending: VecDeque::with_capacity(config.mshrs as usize),
            last_long_done: 0,
        }
    }

    /// Retires `n` non-memory instructions.
    pub fn retire(&mut self, n: u32) {
        self.instructions += u64::from(n);
        self.now += 2 * u64::from(n);
    }

    /// Accounts for one memory operation serviced at `level`.
    ///
    /// `dependent` marks an access whose address depends on the previous
    /// access's data.
    pub fn memory_op(&mut self, level: ServiceLevel, dependent: bool, config: &SystemConfig) {
        self.instructions += 1;
        self.now += 2;

        // Retire any misses that completed in the meantime.
        while let Some(front) = self.pending.front() {
            if front.done_at <= self.now {
                self.pending.pop_front();
            } else {
                break;
            }
        }

        if dependent {
            // Cannot even compute the address before the previous access's
            // data arrives.
            self.now = self.now.max(self.last_long_done);
        }

        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => {
                self.now += L2_EXPOSED_CYCLES * self.scale;
            }
            ServiceLevel::Llc | ServiceLevel::MemoryRowHit | ServiceLevel::Memory => {
                // MSHR full: stall until the oldest miss returns.
                while self.pending.len() >= self.mshrs {
                    let front = self.pending.pop_front().expect("len >= mshrs > 0");
                    self.now = self.now.max(front.done_at);
                }
                // ROB full behind the oldest miss: stall for it.
                while let Some(front) = self.pending.front() {
                    if self.instructions - front.at_instr >= self.rob_entries {
                        self.now = self.now.max(front.done_at);
                        self.pending.pop_front();
                    } else {
                        break;
                    }
                }
                let done_at = self.now + u64::from(level.latency(config)) * self.scale;
                self.pending.push_back(Outstanding { done_at, at_instr: self.instructions });
                self.last_long_done = done_at;
            }
        }
    }

    /// Charges a front-end (instruction fetch) service; cheap for L1/L2,
    /// treated as a long-latency stall beyond that.
    pub fn instr_fetch(&mut self, level: ServiceLevel, config: &SystemConfig) {
        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => self.now += L2_EXPOSED_CYCLES * self.scale,
            ServiceLevel::Llc | ServiceLevel::MemoryRowHit | ServiceLevel::Memory => {
                // Front-end misses drain the pipeline: expose half the full
                // latency (fetch-ahead hides the rest). `L × scale / 2` is
                // `L × issue_width`, always integral.
                self.now += u64::from(level.latency(config)) * self.scale / 2;
            }
        }
    }

    /// Drains outstanding misses (call once at the end of a run).
    pub fn finish(&mut self) {
        if let Some(back) = self.pending.back() {
            self.now = self.now.max(back.done_at);
        }
        self.pending.clear();
    }

    /// Total cycles so far (rounded up).
    pub fn cycles(&self) -> u64 {
        self.now.div_ceil(self.scale)
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Misses currently in flight (issued, not yet completed).
    pub fn outstanding_misses(&self) -> usize {
        self.pending.iter().filter(|o| o.done_at > self.now).count()
    }
}

/// The timing model selected by [`SystemConfig::timing`], behind one
/// call surface so the simulation drivers are mode-agnostic.
///
/// The analytic variant ignores the DRAM bank state (its memory service
/// time is a constant per row-buffer class); the event variant routes every
/// long-latency completion through [`DramTiming`].
#[derive(Clone, Debug)]
pub enum TimingModel {
    /// The analytic MLP-aware formula.
    Analytic(CoreTiming),
    /// The discrete-event core with DRAM bank queueing.
    Event(EventCore),
}

impl TimingModel {
    /// Builds the model selected by `config.timing`.
    pub fn new(config: &SystemConfig) -> Self {
        match config.timing {
            TimingMode::Analytic => TimingModel::Analytic(CoreTiming::new(config)),
            TimingMode::Event => TimingModel::Event(EventCore::new(config)),
        }
    }

    /// Which mode this model implements.
    pub fn mode(&self) -> TimingMode {
        match self {
            TimingModel::Analytic(_) => TimingMode::Analytic,
            TimingModel::Event(_) => TimingMode::Event,
        }
    }

    /// Retires `n` non-memory instructions.
    pub fn retire(&mut self, n: u32) {
        match self {
            TimingModel::Analytic(t) => t.retire(n),
            TimingModel::Event(t) => t.retire(n),
        }
    }

    /// Charges one instruction fetch serviced at `level` for the cache
    /// line `line` (byte address >> 6; used for bank mapping in event
    /// mode, ignored by the analytic model).
    pub fn instr_fetch(
        &mut self,
        level: ServiceLevel,
        line: u64,
        dram: &mut DramTiming,
        config: &SystemConfig,
    ) {
        match self {
            TimingModel::Analytic(t) => t.instr_fetch(level, config),
            TimingModel::Event(t) => t.instr_fetch(level, line, dram),
        }
    }

    /// Accounts for one memory operation on cache line `line` serviced at
    /// `level`.
    pub fn memory_op(
        &mut self,
        level: ServiceLevel,
        dependent: bool,
        line: u64,
        dram: &mut DramTiming,
        config: &SystemConfig,
    ) {
        match self {
            TimingModel::Analytic(t) => t.memory_op(level, dependent, config),
            TimingModel::Event(t) => t.memory_op(level, dependent, line, dram),
        }
    }

    /// Charges background memory traffic (prefetch fills, dirty
    /// writebacks) against the DRAM banks without stalling the core.
    /// A no-op for the analytic model.
    pub fn background(&mut self, traffic: &[MemTraffic], dram: &mut DramTiming) {
        if let TimingModel::Event(t) = self {
            for t_req in traffic {
                t.background(t_req, dram);
            }
        }
    }

    /// Drains outstanding misses (call once at the end of a run).
    pub fn finish(&mut self) {
        match self {
            TimingModel::Analytic(t) => t.finish(),
            TimingModel::Event(t) => t.finish(),
        }
    }

    /// Total cycles so far (rounded up).
    pub fn cycles(&self) -> u64 {
        match self {
            TimingModel::Analytic(t) => t.cycles(),
            TimingModel::Event(t) => t.cycles(),
        }
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        match self {
            TimingModel::Analytic(t) => t.instructions(),
            TimingModel::Event(t) => t.instructions(),
        }
    }

    /// Misses currently in flight (issued, not yet completed).
    pub fn outstanding_misses(&self) -> usize {
        match self {
            TimingModel::Analytic(t) => t.outstanding_misses(),
            TimingModel::Event(t) => t.outstanding_misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_single_core()
    }

    #[test]
    fn compute_only_ipc_equals_width() {
        let c = cfg();
        let mut t = CoreTiming::new(&c);
        t.retire(3000);
        t.finish();
        let ipc = t.instructions() as f64 / t.cycles() as f64;
        assert!((ipc - 3.0).abs() < 0.01, "ipc = {ipc}");
    }

    #[test]
    fn independent_misses_overlap() {
        let c = cfg();
        // 8 independent memory accesses: with 16 MSHRs they all overlap.
        let mut overlapped = CoreTiming::new(&c);
        for _ in 0..8 {
            overlapped.memory_op(ServiceLevel::Memory, false, &c);
        }
        overlapped.finish();

        // The same 8 accesses serialized by dependence.
        let mut serial = CoreTiming::new(&c);
        for _ in 0..8 {
            serial.memory_op(ServiceLevel::Memory, true, &c);
        }
        serial.finish();

        assert!(
            serial.cycles() > overlapped.cycles() * 5,
            "dependent chain ({}) must be far slower than parallel misses ({})",
            serial.cycles(),
            overlapped.cycles()
        );
    }

    #[test]
    fn mshr_limit_caps_parallelism() {
        let mut c = cfg();
        c.mshrs = 2;
        let mut narrow = CoreTiming::new(&c);
        for _ in 0..32 {
            narrow.memory_op(ServiceLevel::Memory, false, &c);
        }
        narrow.finish();

        let wide_cfg = cfg();
        let mut wide = CoreTiming::new(&wide_cfg);
        for _ in 0..32 {
            wide.memory_op(ServiceLevel::Memory, false, &wide_cfg);
        }
        wide.finish();

        assert!(narrow.cycles() > wide.cycles(), "fewer MSHRs must cost cycles");
    }

    #[test]
    fn rob_limits_run_ahead() {
        let c = cfg();
        let mut t = CoreTiming::new(&c);
        // One miss, then far more compute than the ROB can hold: the miss
        // must eventually block retirement.
        t.memory_op(ServiceLevel::Memory, false, &c);
        t.retire(10_000);
        t.finish();
        // 10_001 instructions at width 3 is ~3334 cycles; the 242-cycle miss
        // is fully hidden, so total is just over the compute time.
        let cycles = t.cycles();
        assert!(cycles >= 3334, "cycles = {cycles}");
        assert!(cycles < 3600, "miss should be mostly hidden: {cycles}");
    }

    #[test]
    fn llc_hits_cost_less_than_memory() {
        let c = cfg();
        let mut llc = CoreTiming::new(&c);
        let mut mem = CoreTiming::new(&c);
        for _ in 0..1000 {
            llc.memory_op(ServiceLevel::Llc, true, &c);
            mem.memory_op(ServiceLevel::Memory, true, &c);
        }
        llc.finish();
        mem.finish();
        assert!(llc.cycles() < mem.cycles() / 2);
    }

    #[test]
    fn finish_drains_pending() {
        let c = cfg();
        let mut t = CoreTiming::new(&c);
        t.memory_op(ServiceLevel::Memory, false, &c);
        assert_eq!(t.outstanding_misses(), 1);
        t.finish();
        assert_eq!(t.outstanding_misses(), 0);
        assert!(t.cycles() >= u64::from(ServiceLevel::Memory.latency(&c)));
    }

    /// The fixed-point conversion is exact rational arithmetic: a canonical
    /// stream pins the cycle count, derived by hand in sub-slots
    /// (scale = 6): retire(1000) → 2000; Memory op → 2002, done 3454;
    /// dependent Memory op → stall to 3454, done 4906; retire(10) → 3474;
    /// finish → 4906; ceil(4906/6) = 818.
    #[test]
    fn analytic_cycles_are_exact_and_pinned() {
        let c = cfg();
        let mut t = CoreTiming::new(&c);
        t.retire(1000);
        t.memory_op(ServiceLevel::Memory, false, &c);
        t.memory_op(ServiceLevel::Memory, true, &c);
        t.retire(10);
        t.finish();
        assert_eq!(t.cycles(), 818);
        assert_eq!(t.instructions(), 1012);
    }

    #[test]
    fn timing_mode_parses_and_displays() {
        assert_eq!(TimingMode::parse("analytic"), Some(TimingMode::Analytic));
        assert_eq!(TimingMode::parse(" Event "), Some(TimingMode::Event));
        assert_eq!(TimingMode::parse("cycle-accurate"), None);
        assert_eq!(TimingMode::Event.to_string(), "event");
        assert_eq!(TimingMode::default(), TimingMode::Analytic);
    }

    #[test]
    fn facade_selects_model_by_config() {
        let analytic = TimingModel::new(&cfg());
        assert_eq!(analytic.mode(), TimingMode::Analytic);
        let event = TimingModel::new(&cfg().with_timing(TimingMode::Event));
        assert_eq!(event.mode(), TimingMode::Event);
    }
}
