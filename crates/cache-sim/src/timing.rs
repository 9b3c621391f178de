//! The core timing model: one out-of-order core skeleton that converts
//! retired instructions and memory-service levels into cycles.
//!
//! [`TimingModel`] captures the three effects that matter for LLC
//! replacement studies:
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
//! [`TimingMode`] (see [`crate::SystemConfig::timing`]) changes exactly
//! three rules; everything else is shared:
//!
//! - **Memory completion.** [`TimingMode::Analytic`] charges a constant
//!   latency per row-buffer class. [`TimingMode::Event`] queues the request
//!   on its [`DramTiming`] bank when it reaches the memory controller, so
//!   misses to one bank serialize, and prefetch fills and dirty writebacks
//!   ([`TimingModel::background`]) occupy the same banks. On an idle bank
//!   both give the same tick; LLC hits cost the same in both modes.
//! - **MSHR-full stall.** Analytic waits for the oldest miss in program
//!   order. Event advances to the earliest future completion: an MSHR is
//!   released as soon as its data returns, even behind an older miss.
//! - **Finish.** Analytic waits for the youngest miss, event for the
//!   latest completion.
//!
//! Time is one fixed-point base ([`ticks_per_cycle`]): it advances in
//! integer *sub-slots* of `1 / (2 × issue_width)` cycles, so every charge —
//! per-instruction issue slots, full latencies, and the fetch path's
//! half-latency — is exact u64 arithmetic and cycle counts are
//! bit-reproducible across platforms (the earlier f64 accumulator could
//! round differently at retire boundaries).

use std::collections::VecDeque;

use crate::config::SystemConfig;
use crate::dram::DramTiming;
use crate::hierarchy::{MemTraffic, ServiceLevel};

/// Cycles of exposed latency charged for an L2 hit (the OOO window hides
/// the rest).
const L2_EXPOSED_CYCLES: u64 = 1;

/// Sub-slots per cycle for the fixed-point time base shared by both timing
/// modes and the DRAM bank queues: `2 × issue_width`. One instruction is
/// exactly 2 sub-slots (`1/width` cycles), a full latency of `L` cycles is
/// `L × scale` sub-slots, and the instruction-fetch path's half-latency
/// charge (`L × width` sub-slots) stays integral for any width.
pub(crate) fn ticks_per_cycle(config: &SystemConfig) -> u64 {
    2 * u64::from(config.issue_width.max(1))
}

/// Which rules [`TimingModel`] uses to convert hit/miss outcomes into
/// cycles.
///
/// The functional (hit/miss) path is identical under both modes — timing is
/// a pure consumer of service levels — so counters, captures, and oracle
/// results never depend on this selector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TimingMode {
    /// The analytic MLP-aware formula: latencies are charged per-op with
    /// MSHR/ROB/dependence limits, but memory service time is a constant
    /// per row-buffer class.
    #[default]
    Analytic,
    /// Discrete-event memory: miss completion times come from per-bank
    /// DRAM busy-until queues, and prefetch / writeback traffic occupies
    /// the same banks (backpressure).
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
struct Outstanding {
    /// Completion time in sub-slots.
    done_at: u64,
    /// Instruction count when the miss issued (ROB occupancy anchor).
    at_instr: u64,
}

/// Per-core cycle accounting under the mode selected by
/// [`SystemConfig::timing`].
///
/// ```
/// use cache_sim::{DramTiming, ServiceLevel, SystemConfig, TimingMode, TimingModel};
///
/// for mode in [TimingMode::Analytic, TimingMode::Event] {
///     let cfg = SystemConfig::paper_single_core().with_timing(mode);
///     let mut dram = DramTiming::new(&cfg);
///     let mut t = TimingModel::new(&cfg);
///     t.retire(300);
///     t.memory_op(ServiceLevel::Memory, false, 0x1234, &mut dram);
///     assert_eq!(t.instructions(), 301);
///     t.finish();
///     // 300 instructions at width 3, then the miss on an idle bank.
///     assert_eq!(t.cycles(), 100 + 1 + 242);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TimingModel {
    mode: TimingMode,
    /// Sub-slots per cycle (see [`ticks_per_cycle`]).
    scale: u64,
    rob_entries: u64,
    mshrs: usize,
    /// Cumulative L1+L2+LLC latency in sub-slots: the LLC hit service
    /// time, and the time for a miss to reach the memory controller.
    llc_ticks: u64,
    /// Analytic memory service after `llc_ticks`, for a row-buffer hit
    /// and a row-buffer miss.
    row_hit_ticks: u64,
    row_miss_ticks: u64,
    /// Elapsed time in sub-slots.
    now: u64,
    instructions: u64,
    pending: VecDeque<Outstanding>,
    last_long_done: u64,
}

impl TimingModel {
    /// Creates the model selected by `config.timing`.
    pub fn new(config: &SystemConfig) -> Self {
        let scale = ticks_per_cycle(config);
        let mshrs = (config.mshrs as usize).max(1);
        Self {
            mode: config.timing,
            scale,
            rob_entries: u64::from(config.rob_entries),
            mshrs,
            llc_ticks: u64::from(ServiceLevel::Llc.latency(config)) * scale,
            row_hit_ticks: u64::from(config.memory_row_hit_latency) * scale,
            row_miss_ticks: u64::from(config.memory_latency) * scale,
            now: 0,
            instructions: 0,
            pending: VecDeque::with_capacity(mshrs),
            last_long_done: 0,
        }
    }

    /// Retires `n` non-memory instructions.
    pub fn retire(&mut self, n: u32) {
        self.instructions += u64::from(n);
        self.now += 2 * u64::from(n);
    }

    /// Retires completed misses from the head of the program-order queue.
    fn drain_completed(&mut self) {
        while let Some(front) = self.pending.front() {
            if front.done_at <= self.now {
                self.pending.pop_front();
            } else {
                break;
            }
        }
    }

    /// Completion time of a long-latency access to `line` issued now. LLC
    /// hits are a fixed pipeline latency; memory requests arrive at the
    /// controller after `llc_ticks` and are then served in constant time
    /// (analytic) or queued on their DRAM bank (event).
    fn long_done_at(&self, level: ServiceLevel, line: u64, dram: &mut DramTiming) -> u64 {
        let arrival = self.now + self.llc_ticks;
        let row_hit = match level {
            ServiceLevel::Llc => return arrival,
            ServiceLevel::MemoryRowHit => true,
            ServiceLevel::Memory => false,
            ServiceLevel::L1 | ServiceLevel::L2 => unreachable!("short levels have no completion"),
        };
        match self.mode {
            TimingMode::Analytic if row_hit => arrival + self.row_hit_ticks,
            TimingMode::Analytic => arrival + self.row_miss_ticks,
            TimingMode::Event => dram.request(line, arrival, row_hit),
        }
    }

    /// Stalls until an MSHR is free for a new miss.
    fn wait_for_mshr(&mut self) {
        match self.mode {
            TimingMode::Analytic => {
                while self.pending.len() >= self.mshrs {
                    let front = self.pending.pop_front().expect("len >= mshrs > 0");
                    self.now = self.now.max(front.done_at);
                }
            }
            // Each pass advances `now` to the earliest outstanding
            // completion, releasing at least one entry.
            TimingMode::Event => {
                while self.outstanding_misses() >= self.mshrs {
                    self.now = self
                        .pending
                        .iter()
                        .map(|o| o.done_at)
                        .filter(|&d| d > self.now)
                        .min()
                        .expect("a miss in flight has a future completion");
                }
            }
        }
    }

    /// Accounts for one memory operation on cache line `line` (byte
    /// address >> 6) serviced at `level`. `dependent` marks an access whose
    /// address depends on the previous access's data.
    pub fn memory_op(
        &mut self,
        level: ServiceLevel,
        dependent: bool,
        line: u64,
        dram: &mut DramTiming,
    ) {
        self.instructions += 1;
        self.now += 2;
        self.drain_completed();

        if dependent {
            // Cannot even compute the address before the previous access's
            // data arrives.
            self.now = self.now.max(self.last_long_done);
        }

        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => self.now += L2_EXPOSED_CYCLES * self.scale,
            ServiceLevel::Llc | ServiceLevel::MemoryRowHit | ServiceLevel::Memory => {
                self.wait_for_mshr();
                // The event stall only advances the clock; release what
                // completed meanwhile.
                self.drain_completed();
                // ROB full behind the oldest miss: stall for it.
                while let Some(front) = self.pending.front() {
                    if self.instructions - front.at_instr >= self.rob_entries {
                        self.now = self.now.max(front.done_at);
                        self.pending.pop_front();
                    } else {
                        break;
                    }
                }
                let done_at = self.long_done_at(level, line, dram);
                self.pending.push_back(Outstanding { done_at, at_instr: self.instructions });
                self.last_long_done = done_at;
            }
        }
    }

    /// Charges one instruction fetch of cache line `line` serviced at
    /// `level`. L1/L2 are cheap; beyond L2 the pipeline drains and exposes
    /// half the completion latency (fetch-ahead hides the rest). In
    /// analytic mode that half is `L × scale / 2 = L × issue_width`, always
    /// integral.
    pub fn instr_fetch(&mut self, level: ServiceLevel, line: u64, dram: &mut DramTiming) {
        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => self.now += L2_EXPOSED_CYCLES * self.scale,
            ServiceLevel::Llc | ServiceLevel::MemoryRowHit | ServiceLevel::Memory => {
                let done_at = self.long_done_at(level, line, dram);
                self.now += (done_at - self.now) / 2;
            }
        }
    }

    /// Queues background memory traffic (prefetch fills, dirty writebacks)
    /// on its DRAM banks without stalling the core: later demand misses to
    /// a busy bank complete later. Analytic completions never read the
    /// banks, so there it changes no cycle count.
    pub fn background(&self, traffic: &[MemTraffic], dram: &mut DramTiming) {
        let arrival = self.now + self.llc_ticks;
        for t in traffic {
            dram.request(t.line, arrival, t.row_hit);
        }
    }

    /// Drains outstanding misses (call once at the end of a run).
    pub fn finish(&mut self) {
        let end = match self.mode {
            TimingMode::Analytic => self.pending.back().map(|o| o.done_at),
            TimingMode::Event => self.pending.iter().map(|o| o.done_at).max(),
        };
        if let Some(end) = end {
            self.now = self.now.max(end);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_single_core()
    }

    /// A fresh model and bank state for `config`.
    fn sys(config: &SystemConfig) -> (TimingModel, DramTiming) {
        (TimingModel::new(config), DramTiming::new(config))
    }

    /// `n` memory ops at `level` on line 0, then `finish`; returns cycles.
    fn run_ops(config: &SystemConfig, n: usize, level: ServiceLevel, dependent: bool) -> u64 {
        let (mut t, mut dram) = sys(config);
        for _ in 0..n {
            t.memory_op(level, dependent, 0, &mut dram);
        }
        t.finish();
        t.cycles()
    }

    #[test]
    fn compute_only_ipc_equals_width() {
        let (mut t, _) = sys(&cfg());
        t.retire(3000);
        t.finish();
        let ipc = t.instructions() as f64 / t.cycles() as f64;
        assert!((ipc - 3.0).abs() < 0.01, "ipc = {ipc}");
    }

    #[test]
    fn independent_misses_overlap() {
        // 8 independent memory accesses: with 16 MSHRs they all overlap;
        // the same 8 serialized by dependence cost far more.
        let c = cfg();
        let overlapped = run_ops(&c, 8, ServiceLevel::Memory, false);
        let serial = run_ops(&c, 8, ServiceLevel::Memory, true);
        assert!(
            serial > overlapped * 5,
            "dependent chain ({serial}) must be far slower than parallel misses ({overlapped})"
        );
    }

    #[test]
    fn mshr_limit_caps_parallelism() {
        let mut narrow = cfg();
        narrow.mshrs = 2;
        assert!(
            run_ops(&narrow, 32, ServiceLevel::Memory, false)
                > run_ops(&cfg(), 32, ServiceLevel::Memory, false),
            "fewer MSHRs must cost cycles"
        );
    }

    #[test]
    fn zero_mshrs_behave_as_one() {
        for mode in [TimingMode::Analytic, TimingMode::Event] {
            let mut zero = cfg().with_timing(mode);
            zero.mshrs = 0;
            let mut one = zero;
            one.mshrs = 1;
            assert_eq!(
                run_ops(&zero, 4, ServiceLevel::Memory, false),
                run_ops(&one, 4, ServiceLevel::Memory, false),
                "{mode}"
            );
        }
    }

    #[test]
    fn rob_limits_run_ahead() {
        let (mut t, mut dram) = sys(&cfg());
        // One miss, then far more compute than the ROB can hold: the miss
        // must eventually block retirement.
        t.memory_op(ServiceLevel::Memory, false, 0, &mut dram);
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
        let llc = run_ops(&c, 1000, ServiceLevel::Llc, true);
        let mem = run_ops(&c, 1000, ServiceLevel::Memory, true);
        assert!(llc < mem / 2);
    }

    #[test]
    fn finish_drains_pending() {
        let c = cfg();
        let (mut t, mut dram) = sys(&c);
        t.memory_op(ServiceLevel::Memory, false, 0, &mut dram);
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
        let (mut t, mut dram) = sys(&cfg());
        t.retire(1000);
        t.memory_op(ServiceLevel::Memory, false, 0, &mut dram);
        t.memory_op(ServiceLevel::Memory, true, 0, &mut dram);
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

    fn event_cfg() -> SystemConfig {
        cfg().with_timing(TimingMode::Event)
    }

    #[test]
    fn uncontended_miss_matches_analytic_latency() {
        let c = event_cfg();
        // Idle bank: arrival (now + 42) + 200 service = the analytic 242,
        // plus the op's own issue slot.
        assert_eq!(
            run_ops(&c, 1, ServiceLevel::Memory, false),
            u64::from(ServiceLevel::Memory.latency(&c)) + 1
        );
    }

    #[test]
    fn same_bank_misses_queue_up() {
        let c = event_cfg();
        // Row misses to one bank (a stride of banks × row_lines) serialize;
        // one row per bank runs fully parallel.
        let run = |stride: u64| {
            let (mut t, mut dram) = sys(&c);
            for i in 0..8u64 {
                t.memory_op(ServiceLevel::Memory, false, i * stride, &mut dram);
            }
            t.finish();
            t.cycles()
        };
        let (same, spread) = (run(16 * 128), run(128));
        assert!(
            same > spread * 3,
            "bank-conflicting misses ({same}) must serialize vs spread ({spread})"
        );
    }

    #[test]
    fn writeback_backpressure_delays_demand() {
        let c = event_cfg();
        let clean = run_ops(&c, 1, ServiceLevel::Memory, false);

        let (mut dirty, mut dram) = sys(&c);
        // A burst of writebacks to the demand line's bank before the read.
        dirty.background(&[MemTraffic { line: 0, row_hit: false }; 4], &mut dram);
        dirty.memory_op(ServiceLevel::Memory, false, 0, &mut dram);
        dirty.finish();

        assert!(
            dirty.cycles() > clean + 3 * u64::from(c.memory_latency),
            "writeback traffic must back-pressure the demand read: {} vs {clean}",
            dirty.cycles(),
        );
    }

    #[test]
    fn row_hits_complete_faster() {
        let c = event_cfg();
        assert!(
            run_ops(&c, 100, ServiceLevel::MemoryRowHit, true)
                < run_ops(&c, 100, ServiceLevel::Memory, true)
        );
    }

    #[test]
    fn mshr_occupancy_is_bounded() {
        let mut c = event_cfg();
        c.mshrs = 4;
        let (mut t, mut dram) = sys(&c);
        for i in 0..64u64 {
            t.memory_op(ServiceLevel::Memory, false, i * 128, &mut dram);
            assert!(t.outstanding_misses() <= 4, "at op {i}");
        }
        t.finish();
        assert_eq!(t.outstanding_misses(), 0);
    }

    #[test]
    fn event_runs_are_bit_identical() {
        let run = || {
            let (mut t, mut dram) = sys(&event_cfg());
            for i in 0..500u64 {
                let level = match i % 3 {
                    0 => ServiceLevel::Memory,
                    1 => ServiceLevel::MemoryRowHit,
                    _ => ServiceLevel::Llc,
                };
                t.memory_op(level, i % 7 == 0, i.wrapping_mul(0x9E37_79B9), &mut dram);
                t.retire((i % 5) as u32);
                if i % 11 == 0 {
                    t.background(&[MemTraffic { line: i * 3, row_hit: false }], &mut dram);
                }
            }
            t.finish();
            t.cycles()
        };
        assert_eq!(run(), run());
    }
}
