//! A minimal wall-clock harness for the `ci_smoke` timing target:
//! [`bench()`] prints an ungated row, [`paired_ratios`] measures a gated
//! A/B ratio, and [`Bound::holds`] is the one rule every gate applies.
//!
//! Replaces the external `criterion` dependency so `cargo bench` works in
//! a hermetic (offline, registry-free) build. Iteration counts are small
//! and fixed; the goal is regression visibility, not microsecond-precise
//! statistics.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of `f` discarded before timing starts.
const WARMUP_ITERS: u32 = 1;
/// Timed iterations of `f` per measurement.
const TIMED_ITERS: u32 = 7;
/// Timed rounds of a paired comparison; each round yields one ratio.
pub const ROUNDS: usize = 15;

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub name: String,
    pub iters: u32,
    pub median_ns: u64,
    pub p90_ns: u64,
}

impl Measurement {
    fn from_samples(name: &str, mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self {
            name: name.to_string(),
            iters: samples.len() as u32,
            median_ns: nearest_rank(&samples, 0.50),
            p90_ns: nearest_rank(&samples, 0.90),
        }
    }
}

/// The nearest-rank `q`-quantile of an ascending, non-empty slice.
fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    let n = sorted.len();
    sorted[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1]
}

/// Times `f` over `WARMUP_ITERS` discarded + `TIMED_ITERS` timed
/// iterations and prints a one-line median/p90 summary.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    for _ in 0..WARMUP_ITERS {
        black_box(f());
    }
    let samples: Vec<u64> = (0..TIMED_ITERS)
        .map(|_| {
            let begin = Instant::now();
            black_box(f());
            begin.elapsed().as_nanos() as u64
        })
        .collect();
    let m = Measurement::from_samples(name, samples);
    println!(
        "  {:<44} median {:>12}  p90 {:>12}  ({} iters)",
        m.name,
        format_ns(m.median_ns),
        format_ns(m.p90_ns),
        m.iters,
    );
    m
}

/// Times two sides of a comparison in [`ROUNDS`] paired rounds and returns
/// the per-round ratios `a_ns / b_ns`.
///
/// Each side first runs once untimed, to warm caches and branch
/// predictors. The rounds then alternate which side goes first (a,b, then
/// b,a, ...). Both timings of a round see the same machine state, so
/// frequency scaling and load drift cancel inside each ratio instead of
/// landing on one side.
pub fn paired_ratios<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> Vec<f64> {
    fn timed<R>(f: &mut impl FnMut() -> R) -> f64 {
        let begin = Instant::now();
        black_box(f());
        begin.elapsed().as_nanos().max(1) as f64
    }
    black_box(a());
    black_box(b());
    (0..ROUNDS)
        .map(|round| {
            let (a_ns, b_ns) = if round % 2 == 0 {
                let a_ns = timed(&mut a);
                (a_ns, timed(&mut b))
            } else {
                let b_ns = timed(&mut b);
                (timed(&mut a), b_ns)
            };
            a_ns / b_ns
        })
        .collect()
}

/// Lower quartile, median and upper quartile (nearest rank) of `ratios`.
pub fn quartiles(ratios: &[f64]) -> [f64; 3] {
    let mut sorted = ratios.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    [0.25, 0.50, 0.75].map(|q| nearest_rank(&sorted, q))
}

/// Which way a gated ratio must not move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// A speedup: the ratio must not fall below the limit.
    Floor,
    /// A cost ratio: the ratio must not climb above the limit.
    Ceiling,
}

impl Bound {
    /// The gate rule: fails only when at least three quarters of the
    /// rounds are past `limit`. For a floor that is the upper quartile
    /// falling below the limit; for a ceiling, the lower quartile rising
    /// above it. A regression shifts every round, while a preempted round
    /// moves only itself, so one wild ratio cannot fail a gate.
    pub fn holds(self, ratios: &[f64], limit: f64) -> bool {
        let past = ratios
            .iter()
            .filter(|&&r| match self {
                Bound::Floor => r < limit,
                Bound::Ceiling => r > limit,
            })
            .count();
        4 * past < 3 * ratios.len()
    }
}

/// Renders a nanosecond figure with a human-scale unit.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns} ns"),
        1_000..=999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.3} s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn percentiles_are_nearest_rank() {
        let m = Measurement::from_samples("t", vec![50, 10, 40, 20, 30]);
        assert_eq!(m.iters, 5);
        assert_eq!(m.median_ns, 30);
        assert_eq!(m.p90_ns, 50);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let m = Measurement::from_samples("t", vec![123]);
        assert_eq!((m.median_ns, m.p90_ns), (123, 123));
    }

    #[test]
    fn bench_runs_and_counts_iterations() {
        let mut calls = 0u32;
        let m = bench("noop", || calls += 1);
        assert_eq!(m.iters, TIMED_ITERS);
        assert_eq!(calls, WARMUP_ITERS + TIMED_ITERS);
    }

    #[test]
    fn formats_scale_with_magnitude() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(25_000), "25.00 µs");
        assert_eq!(format_ns(25_000_000), "25.00 ms");
        assert_eq!(format_ns(2_500_000_000), "2.500 s");
    }

    #[test]
    fn paired_rounds_warm_up_then_alternate_which_side_goes_first() {
        let calls = RefCell::new(String::new());
        let ratios =
            paired_ratios(|| calls.borrow_mut().push('a'), || calls.borrow_mut().push('b'));
        assert_eq!(ratios.len(), ROUNDS);
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));
        let calls = calls.into_inner();
        let (warm_up, rounds) = calls.split_at(2);
        assert_eq!(warm_up, "ab");
        assert_eq!(rounds.len(), 2 * ROUNDS);
        for (round, pair) in rounds.as_bytes().chunks(2).enumerate() {
            let expected: &[u8] = if round % 2 == 0 { b"ab" } else { b"ba" };
            assert_eq!(pair, expected, "round {round} of {calls}");
        }
    }

    #[test]
    fn quartiles_are_nearest_rank_over_fifteen_rounds() {
        let ratios: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(quartiles(&ratios), [4.0, 8.0, 12.0]);
    }

    /// `n` rounds at `past` (beyond the limit), the rest at `within`.
    fn rounds(n: usize, past: f64, within: f64) -> Vec<f64> {
        (0..ROUNDS).map(|i| if i < n { past } else { within }).collect()
    }

    #[test]
    fn floor_fails_only_when_three_quarters_of_rounds_are_below_it() {
        let floor = 3.0;
        assert!(Bound::Floor.holds(&rounds(7, 2.9, 3.1), floor), "straddling ratios pass");
        assert!(Bound::Floor.holds(&rounds(11, 2.9, 3.1), floor), "11 of 15 below passes");
        assert!(!Bound::Floor.holds(&rounds(12, 2.9, 3.1), floor), "12 of 15 below fails");
        assert!(!Bound::Floor.holds(&rounds(ROUNDS, 2.9, 3.1), floor));
        assert!(Bound::Floor.holds(&rounds(0, 2.9, floor), floor), "the limit itself is within");
    }

    #[test]
    fn ceiling_fails_only_when_three_quarters_of_rounds_are_above_it() {
        let ceiling = 1.5;
        assert!(Bound::Ceiling.holds(&rounds(7, 1.6, 1.4), ceiling), "straddling ratios pass");
        assert!(Bound::Ceiling.holds(&rounds(11, 1.6, 1.4), ceiling), "11 of 15 above passes");
        assert!(!Bound::Ceiling.holds(&rounds(12, 1.6, 1.4), ceiling), "12 of 15 above fails");
        assert!(!Bound::Ceiling.holds(&rounds(ROUNDS, 1.6, 1.4), ceiling));
        assert!(
            Bound::Ceiling.holds(&rounds(0, 1.6, ceiling), ceiling),
            "the limit itself is within"
        );
    }

    #[test]
    fn one_wild_round_does_not_fail_a_gate() {
        // A tenancy-shaped cost ratio near 1.2 with one preempted round at
        // 6.10, against a 1.50 ceiling.
        assert!(Bound::Ceiling.holds(&rounds(1, 6.10, 1.21), 1.50));
        // A SIMD-shaped speedup near 3.4 with one round collapsed to 1.48,
        // against a 2.7 floor.
        assert!(Bound::Floor.holds(&rounds(1, 1.48, 3.4), 2.7));
    }
}
