//! Property suite for the timing layer, run against BOTH timing modes.
//!
//! Each case is a raw `Vec<u64>` (so the simrng harness can shrink it by
//! halving) decoded deterministically into a sequence of timing operations.
//! The invariants hold for the analytic and the event model alike:
//!
//! - IPC never exceeds the issue width,
//! - the cycle count is monotone non-decreasing across operations,
//! - MSHR occupancy never exceeds `config.mshrs`,
//! - dependent long-latency chains serialize (no MLP credit),
//! - `finish()` drains every pending miss,
//! - event-mode runs are bit-deterministic,
//! - without bank contention, event timing equals analytic timing,
//! - the integer fixed-point clock matches an f64 replica of the same
//!   control flow to within rounding error.

use cache_sim::{DramTiming, ServiceLevel, SystemConfig, TimingMode, TimingModel};
use simrng::prop::{check, Config};
use simrng::{prop_assert, Rng};

/// One decoded timing operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Retire `n` non-memory instructions.
    Retire(u32),
    /// One memory operation at `level`; `dependent` chains it on the
    /// previous long-latency access.
    Mem { level: ServiceLevel, dependent: bool, line: u64 },
    /// One instruction fetch at `level`.
    Fetch { level: ServiceLevel, line: u64 },
}

/// Decodes one raw word into an operation. Purely arithmetic so a shrunk
/// (halved) word decodes to a nearby, usually simpler, operation.
fn decode(word: u64) -> Op {
    let line = (word >> 16) % 65_536;
    match word % 10 {
        0..=2 => Op::Retire((word >> 4) as u32 % 32),
        3 => Op::Mem { level: ServiceLevel::L1, dependent: false, line },
        4 => Op::Mem { level: ServiceLevel::L2, dependent: false, line },
        5 => Op::Mem { level: ServiceLevel::Llc, dependent: word >> 4 & 1 == 1, line },
        6 | 7 => Op::Mem { level: ServiceLevel::Memory, dependent: word >> 4 & 1 == 1, line },
        8 => Op::Mem { level: ServiceLevel::MemoryRowHit, dependent: word >> 4 & 1 == 1, line },
        _ => Op::Fetch {
            level: if word >> 4 & 1 == 1 { ServiceLevel::Memory } else { ServiceLevel::L2 },
            line,
        },
    }
}

/// Replays `ops` on a fresh model pair, checking the per-step invariants,
/// and returns the finished (cycles, instructions).
fn replay(ops: &[Op], config: &SystemConfig) -> Result<(u64, u64), String> {
    let mut timing = TimingModel::new(config);
    let mut dram = DramTiming::new(config);
    let mut last_cycles = 0u64;
    for op in ops {
        match *op {
            Op::Retire(n) => timing.retire(n),
            Op::Mem { level, dependent, line } => {
                timing.memory_op(level, dependent, line, &mut dram);
            }
            Op::Fetch { level, line } => timing.instr_fetch(level, line, &mut dram),
        }
        prop_assert!(
            timing.cycles() >= last_cycles,
            "cycles went backwards: {} -> {} after {op:?}",
            last_cycles,
            timing.cycles()
        );
        last_cycles = timing.cycles();
        prop_assert!(
            timing.outstanding_misses() <= config.mshrs as usize,
            "{} misses in flight with only {} MSHRs",
            timing.outstanding_misses(),
            config.mshrs
        );
    }
    timing.finish();
    prop_assert!(
        timing.cycles() >= last_cycles,
        "finish() moved the clock backwards"
    );
    prop_assert!(
        timing.outstanding_misses() == 0,
        "finish() left {} misses pending",
        timing.outstanding_misses()
    );
    Ok((timing.cycles(), timing.instructions()))
}

/// Generates (raw op words, mshr budget) — small MSHR counts are the
/// interesting regime for the occupancy bound.
fn gen_case(rng: &mut simrng::SimRng) -> (Vec<u64>, u32) {
    let len = rng.gen_range(0..400usize);
    let ops = (0..len).map(|_| rng.next_u64()).collect();
    let mshrs = rng.gen_range(1..12u32);
    (ops, mshrs)
}

fn config_for(mode: TimingMode, mshrs: u32) -> SystemConfig {
    let mut config = SystemConfig::paper_single_core().with_timing(mode);
    config.mshrs = mshrs;
    config
}

fn check_mode(mode: TimingMode) {
    check(
        &format!("timing invariants ({mode})"),
        Config::with_cases(64),
        gen_case,
        move |(raw, mshrs)| {
            let config = config_for(mode, *mshrs);
            let ops: Vec<Op> = raw.iter().copied().map(decode).collect();
            let (cycles, instructions) = replay(&ops, &config)?;

            // IPC is bounded by the issue width (each instruction costs at
            // least 1/width cycles, so instructions <= cycles * width).
            prop_assert!(
                instructions <= cycles * u64::from(config.issue_width) || cycles == 0,
                "IPC above issue width: {instructions} instrs in {cycles} cycles"
            );
            Ok(())
        },
    );
}

#[test]
fn invariants_hold_in_analytic_mode() {
    check_mode(TimingMode::Analytic);
}

#[test]
fn invariants_hold_in_event_mode() {
    check_mode(TimingMode::Event);
}

#[test]
fn event_mode_is_deterministic_per_case() {
    check(
        "event replay is bit-identical",
        Config::with_cases(48),
        gen_case,
        |(raw, mshrs)| {
            let config = config_for(TimingMode::Event, *mshrs);
            let ops: Vec<Op> = raw.iter().copied().map(decode).collect();
            let first = replay(&ops, &config)?;
            let second = replay(&ops, &config)?;
            prop_assert!(
                first == second,
                "two event replays diverged: {first:?} vs {second:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn dependent_chains_serialize() {
    check(
        "dependent memory chain costs at least the serial latency",
        Config::with_cases(32),
        |rng| (rng.gen_range(1..40u64), rng.gen_range(0..2u64) == 1),
        |&(chain, event)| {
            let mode = if event { TimingMode::Event } else { TimingMode::Analytic };
            let config = config_for(mode, 16);
            let mut timing = TimingModel::new(&config);
            let mut dram = DramTiming::new(&config);
            for i in 0..chain {
                // Spread lines across banks so only the dependence — not
                // bank contention — can serialize the chain.
                timing.memory_op(ServiceLevel::Memory, true, i * 128, &mut dram);
            }
            timing.finish();
            let serial = chain * u64::from(ServiceLevel::Memory.latency(&config));
            prop_assert!(
                timing.cycles() >= serial,
                "{chain}-long dependent chain finished in {} cycles (< serial {serial})",
                timing.cycles()
            );
            Ok(())
        },
    );
}

/// Event timing is analytic timing plus DRAM queueing, so on a stream that
/// never queues the two agree exactly. Each long memory op is made
/// dependent, which issues it only after the previous miss is back and
/// leaves at most one demand miss at a bank, and each fetch becomes an L2
/// hit, which reaches no bank. Then neither MSHR-full nor the final drain
/// can tell the modes apart: one miss is in flight at a time.
#[test]
fn uncontended_event_timing_equals_analytic() {
    check(
        "uncontended event timing equals analytic timing",
        Config::with_cases(64),
        gen_case,
        |(raw, mshrs)| {
            let ops: Vec<Op> = raw
                .iter()
                .copied()
                .map(|word| match decode(word) {
                    Op::Mem { level, line, .. } if level.is_long() => {
                        Op::Mem { level, dependent: true, line }
                    }
                    Op::Fetch { line, .. } => Op::Fetch { level: ServiceLevel::L2, line },
                    op => op,
                })
                .collect();
            let analytic = replay(&ops, &config_for(TimingMode::Analytic, *mshrs))?;
            let event = replay(&ops, &config_for(TimingMode::Event, *mshrs))?;
            prop_assert!(
                analytic == event,
                "uncontended replay diverged: analytic {analytic:?} vs event {event:?}"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Fixed-point equivalence: an f64 replica of the analytic control flow.
// ---------------------------------------------------------------------------

/// The analytic model with an f64 clock measured in cycles — the
/// representation analytic timing used before the fixed-point conversion.
/// Control flow mirrors analytic `TimingModel` exactly; only the time base
/// differs.
struct FloatCore {
    width: f64,
    rob_entries: u64,
    mshrs: usize,
    now: f64,
    instructions: u64,
    pending: std::collections::VecDeque<(f64, u64)>,
    last_long_done: f64,
}

impl FloatCore {
    fn new(config: &SystemConfig) -> Self {
        Self {
            width: f64::from(config.issue_width.max(1)),
            rob_entries: u64::from(config.rob_entries),
            mshrs: config.mshrs as usize,
            now: 0.0,
            instructions: 0,
            pending: std::collections::VecDeque::new(),
            last_long_done: 0.0,
        }
    }

    fn retire(&mut self, n: u32) {
        self.instructions += u64::from(n);
        self.now += f64::from(n) / self.width;
    }

    fn memory_op(&mut self, level: ServiceLevel, dependent: bool, config: &SystemConfig) {
        self.instructions += 1;
        self.now += 1.0 / self.width;
        while let Some(&(done_at, _)) = self.pending.front() {
            if done_at <= self.now {
                self.pending.pop_front();
            } else {
                break;
            }
        }
        if dependent {
            self.now = self.now.max(self.last_long_done);
        }
        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => self.now += 1.0,
            _ => {
                while self.pending.len() >= self.mshrs {
                    let (done_at, _) = self.pending.pop_front().expect("non-empty");
                    self.now = self.now.max(done_at);
                }
                while let Some(&(done_at, at_instr)) = self.pending.front() {
                    if self.instructions - at_instr >= self.rob_entries {
                        self.now = self.now.max(done_at);
                        self.pending.pop_front();
                    } else {
                        break;
                    }
                }
                let done_at = self.now + f64::from(level.latency(config));
                self.pending.push_back((done_at, self.instructions));
                self.last_long_done = done_at;
            }
        }
    }

    fn instr_fetch(&mut self, level: ServiceLevel, config: &SystemConfig) {
        match level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => self.now += 1.0,
            _ => self.now += f64::from(level.latency(config)) / 2.0,
        }
    }

    fn finish(&mut self) {
        if let Some(&(done_at, _)) = self.pending.back() {
            self.now = self.now.max(done_at);
        }
        self.pending.clear();
    }

    fn cycles(&self) -> u64 {
        self.now.ceil() as u64
    }
}

#[test]
fn fixed_point_clock_matches_f64_replica() {
    check(
        "u64 sub-slot clock tracks the f64 cycle clock",
        Config::with_cases(64),
        gen_case,
        |(raw, mshrs)| {
            let config = config_for(TimingMode::Analytic, *mshrs);
            let mut exact = TimingModel::new(&config);
            let mut dram = DramTiming::new(&config);
            let mut float = FloatCore::new(&config);
            for op in raw.iter().copied().map(decode) {
                match op {
                    Op::Retire(n) => {
                        exact.retire(n);
                        float.retire(n);
                    }
                    Op::Mem { level, dependent, line } => {
                        exact.memory_op(level, dependent, line, &mut dram);
                        float.memory_op(level, dependent, &config);
                    }
                    Op::Fetch { level, line } => {
                        exact.instr_fetch(level, line, &mut dram);
                        float.instr_fetch(level, &config);
                    }
                }
            }
            exact.finish();
            float.finish();
            let (a, b) = (exact.cycles(), float.cycles());
            // The integer clock is exact; the f64 replica accumulates
            // rounding error, so allow a couple of cycles of slack.
            prop_assert!(
                a.abs_diff(b) <= 2,
                "fixed-point clock {a} drifted from f64 replica {b}"
            );
            Ok(())
        },
    );
}
