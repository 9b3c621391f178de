//! A bank/row-buffer main-memory model.
//!
//! Each DRAM bank keeps one row open; an access to the open row is a *row
//! hit* (column access only), while any other access must precharge and
//! activate first (*row miss*). The model is functional — it tracks which
//! row each bank has open and classifies accesses — and feeds the timing
//! model two latency classes instead of one flat memory latency. Streams
//! (which walk rows sequentially) therefore see cheaper memory than
//! pointer chasing, as on real hardware.

use crate::config::SystemConfig;

/// Default bank count (a typical DDR4 single-rank shape).
const DEFAULT_BANKS: u32 = 16;
/// Default 8 KB row = 128 cache lines.
const DEFAULT_ROW_LINES: u32 = 128;

/// The bank/row-buffer state of main memory.
#[derive(Clone, Debug)]
pub struct DramModel {
    /// Open row per bank (`u64::MAX` = closed).
    open_rows: Vec<u64>,
    row_lines: u64,
    row_hits: u64,
    row_misses: u64,
}

impl DramModel {
    /// Creates a model with `banks` banks and `row_lines` cache lines per
    /// row (rounded up to powers of two).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(banks: u32, row_lines: u32) -> Self {
        assert!(banks > 0 && row_lines > 0, "DRAM geometry must be positive");
        Self {
            open_rows: vec![u64::MAX; banks.next_power_of_two() as usize],
            row_lines: u64::from(row_lines.next_power_of_two()),
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Performs one access for the cache line at `line` (byte address
    /// >> 6); returns `true` on a row-buffer hit.
    ///
    /// Rows are interleaved across banks (`bank = row % banks`), the
    /// standard mapping that spreads sequential rows over the chip.
    pub fn access(&mut self, line: u64) -> bool {
        let row = line / self.row_lines;
        let bank = (row % self.open_rows.len() as u64) as usize;
        let hit = self.open_rows[bank] == row;
        self.open_rows[bank] = row;
        if hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        hit
    }

    /// Row-buffer hits so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Zeroes the statistics (open-row state is preserved).
    pub fn reset_stats(&mut self) {
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::new(DEFAULT_BANKS, DEFAULT_ROW_LINES)
    }
}

/// Per-bank DRAM service timing for event-mode [`crate::TimingModel`]:
/// each bank is busy until its last request completes, so requests mapping
/// to the same bank serialize while requests to distinct banks overlap.
///
/// This is the *timing* companion of [`DramModel`], with the same default
/// geometry and bank mapping. Row-hit/miss classification stays with the
/// functional model (which runs in program order and therefore never
/// depends on timing); [`DramTiming`] only turns that classification plus
/// an arrival time into a completion time. All times are in the timing
/// layer's integer sub-slot ticks — callers never convert units, they pass
/// times from [`crate::TimingModel`] straight through.
#[derive(Clone, Debug)]
pub struct DramTiming {
    /// Tick at which each bank becomes idle.
    busy_until: Vec<u64>,
    row_lines: u64,
    /// Row-buffer-hit service time in ticks (column access only).
    row_hit_ticks: u64,
    /// Row-buffer-miss service time in ticks (precharge + activate +
    /// column access).
    row_miss_ticks: u64,
}

impl DramTiming {
    /// Creates the bank timing for `config`, mirroring the functional
    /// model's default geometry.
    pub fn new(config: &SystemConfig) -> Self {
        let scale = crate::timing::ticks_per_cycle(config);
        Self {
            busy_until: vec![0; DEFAULT_BANKS.next_power_of_two() as usize],
            row_lines: u64::from(DEFAULT_ROW_LINES),
            row_hit_ticks: u64::from(config.memory_row_hit_latency) * scale,
            row_miss_ticks: u64::from(config.memory_latency) * scale,
        }
    }

    /// Queues one request for the cache line at `line` arriving at the
    /// memory controller at tick `arrival`; returns its completion tick.
    /// The bank starts service when both the request has arrived and the
    /// bank is idle, and stays busy for the whole service time.
    pub fn request(&mut self, line: u64, arrival: u64, row_hit: bool) -> u64 {
        let row = line / self.row_lines;
        let bank = (row % self.busy_until.len() as u64) as usize;
        let service = if row_hit { self.row_hit_ticks } else { self.row_miss_ticks };
        let done = arrival.max(self.busy_until[bank]) + service;
        self.busy_until[bank] = done;
        done
    }

    /// Forgets all queued work (used when a warm-up phase's clock is
    /// discarded; bank *state* has no functional side to preserve).
    pub fn reset(&mut self) {
        self.busy_until.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_lines_hit_the_open_row() {
        let mut d = DramModel::new(4, 128);
        assert!(!d.access(0), "first touch activates the row");
        for line in 1..128 {
            assert!(d.access(line), "line {line} is in the open row");
        }
        assert!(!d.access(128), "next row must activate");
        assert_eq!(d.row_misses(), 2);
        assert_eq!(d.row_hits(), 127);
    }

    #[test]
    fn random_rows_mostly_miss() {
        let mut d = DramModel::new(16, 128);
        let mut hits = 0;
        for i in 0..1000u64 {
            // Jump a row every access.
            if d.access(i * 131 * 128) {
                hits += 1;
            }
        }
        assert!(hits < 50, "row-jumping traffic should rarely hit: {hits}");
    }

    #[test]
    fn banks_hold_independent_rows() {
        let mut d = DramModel::new(2, 1);
        // Rows 0 and 1 map to banks 0 and 1; alternating stays open.
        assert!(!d.access(0));
        assert!(!d.access(1));
        assert!(d.access(0));
        assert!(d.access(1));
    }

    #[test]
    fn bank_timing_serializes_same_bank_requests() {
        let cfg = SystemConfig::paper_single_core();
        let mut t = DramTiming::new(&cfg);
        let miss = u64::from(cfg.memory_latency) * crate::timing::ticks_per_cycle(&cfg);
        // Same line twice: second waits for the first.
        assert_eq!(t.request(0, 100, false), 100 + miss);
        assert_eq!(t.request(0, 100, false), 100 + 2 * miss);
        // A different bank is idle.
        assert_eq!(t.request(128, 100, false), 100 + miss);
    }

    #[test]
    fn bank_timing_reset_clears_queues() {
        let cfg = SystemConfig::paper_single_core();
        let mut t = DramTiming::new(&cfg);
        let _ = t.request(0, 1000, false);
        t.reset();
        let miss = u64::from(cfg.memory_latency) * crate::timing::ticks_per_cycle(&cfg);
        assert_eq!(t.request(0, 0, false), miss);
    }

    #[test]
    fn stats_reset_preserves_open_rows() {
        let mut d = DramModel::new(4, 128);
        let _ = d.access(0);
        d.reset_stats();
        assert_eq!(d.row_misses(), 0);
        assert!(d.access(1), "row stayed open across the stats reset");
    }
}
