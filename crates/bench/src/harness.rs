//! A minimal wall-clock benchmark harness: warmup, N timed iterations,
//! median/p90 summary, JSON artifacts under `results/bench/`.
//!
//! Replaces the external `criterion` dependency so `cargo bench` works in
//! a hermetic (offline, registry-free) build. Iteration counts are small
//! and fixed; the goal is regression visibility, not microsecond-precise
//! statistics.

use std::hint::black_box;
use std::time::Instant;

use experiments::json::Json;

/// Iterations of `f` discarded before timing starts.
const WARMUP_ITERS: u32 = 1;
/// Timed iterations of `f` per measurement.
const TIMED_ITERS: u32 = 7;

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub name: String,
    pub iters: u32,
    pub median_ns: u64,
    pub p90_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Measurement {
    /// Summarizes externally collected per-iteration samples — for
    /// callers that interleave measurements themselves (e.g. paired
    /// A/B ratio benches) instead of going through [`bench`].
    pub fn from_samples(name: &str, mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let n = samples.len();
        // Nearest-rank percentiles on the sorted sample vector.
        let rank = |q: f64| samples[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1];
        Self {
            name: name.to_string(),
            iters: n as u32,
            median_ns: rank(0.50),
            p90_ns: rank(0.90),
            min_ns: samples[0],
            max_ns: samples[n - 1],
        }
    }
}

/// Times `f` over [`WARMUP_ITERS`] discarded + [`TIMED_ITERS`] timed
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

/// A [`Measurement`] annotated with how many cache accesses one iteration
/// performed, from which throughput derives.
#[derive(Clone, Debug)]
pub struct Throughput {
    pub measurement: Measurement,
    /// Accesses performed per timed iteration.
    pub accesses: u64,
}

impl Throughput {
    /// Median replay throughput in accesses per second.
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 * 1e9 / self.measurement.median_ns.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let m = &self.measurement;
        Json::obj([
            ("name", Json::Str(m.name.clone())),
            ("iters", Json::U64(u64::from(m.iters))),
            ("median_ns", Json::U64(m.median_ns)),
            ("p90_ns", Json::U64(m.p90_ns)),
            ("min_ns", Json::U64(m.min_ns)),
            ("max_ns", Json::U64(m.max_ns)),
            ("accesses", Json::U64(self.accesses)),
            ("accesses_per_sec", Json::U64(self.accesses_per_sec().round() as u64)),
        ])
    }
}

/// Saves throughput rows as `results/bench/<target>.json` — the
/// perf-trajectory artifacts read by `experiments::perf`: one file per
/// bench target, one row per measurement with both raw timings and
/// accesses/sec.
pub fn write_throughput_json(target: &str, rows: &[Throughput]) {
    let dir = experiments::report::results_dir().join("bench");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let doc = Json::obj([
        ("target", Json::Str(target.to_owned())),
        ("rows", Json::Arr(rows.iter().map(Throughput::to_json).collect())),
    ]);
    let path = dir.join(format!("{target}.json"));
    if std::fs::write(&path, doc.encode() + "\n").is_ok() {
        println!("  saved {}", path.display());
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

    #[test]
    fn percentiles_are_nearest_rank() {
        let m = Measurement::from_samples("t", vec![50, 10, 40, 20, 30]);
        assert_eq!(m.iters, 5);
        assert_eq!(m.median_ns, 30);
        assert_eq!(m.p90_ns, 50);
        assert_eq!(m.min_ns, 10);
        assert_eq!(m.max_ns, 50);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let m = Measurement::from_samples("t", vec![123]);
        assert_eq!((m.median_ns, m.p90_ns, m.min_ns, m.max_ns), (123, 123, 123, 123));
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

    /// The writer and `experiments::perf`'s reader share no schema code:
    /// rows must survive the trip through the file with every field the
    /// perf-over-time report reads.
    #[test]
    fn written_rows_read_back_through_the_perf_report_loader() {
        let dir = std::env::temp_dir().join(format!("rlr-bench-rows-{}", std::process::id()));
        std::env::set_var("RLR_RESULTS_DIR", &dir);
        let rows = [
            Throughput {
                measurement: Measurement::from_samples(
                    "replay/\"quoted\"",
                    vec![3_000, 1_000, 2_000],
                ),
                accesses: 40_538,
            },
            Throughput { measurement: Measurement::from_samples("scan", vec![7]), accesses: 3 },
        ];
        write_throughput_json("roundtrip", &rows);
        let loaded = experiments::perf::load_bench_rows("roundtrip");
        std::env::remove_var("RLR_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&dir);

        let loaded = loaded.expect("written rows parse back");
        let expected: Vec<experiments::perf::BenchRow> = rows
            .iter()
            .map(|t| experiments::perf::BenchRow {
                name: t.measurement.name.clone(),
                median_ns: t.measurement.median_ns,
                accesses_per_sec: t.accesses_per_sec().round() as u64,
            })
            .collect();
        assert_eq!(loaded, expected);
        assert_eq!(loaded[0].accesses_per_sec, 20_269_000_000);
    }
}
