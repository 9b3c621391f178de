//! End-to-end benchmark of the RLR reproduction.
//!
//! One process runs one workload with one worker thread: it builds the
//! workload's inputs from the seed (timed as set-up, several times), runs
//! passes over the workload's cells until the measuring time is used,
//! checks every cell's simulated counters, and prints every metric by name
//! with its unit. A traced run adds spans around each call into the library,
//! replays the same inputs through lower-level entry points to split calls
//! that cover several layers, and prints the per-layer metrics and a
//! waterfall. See `README.md` in this directory for the workloads and
//! metrics.

pub mod calib;
pub mod digest;
pub mod json;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod wl_replay;
pub mod wl_rl;
pub mod wl_serving;
pub mod wl_sim;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::Metrics;
use spans::Tracer;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed; 0 keeps every generator's pinned seed.
    pub seed: u64,
    /// Measuring time for the untraced passes.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The run's private scratch directory (inside the checkout).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Derives a generator seed from its pinned value and the run's seed.
    /// Seed 0 is the pinned configuration the digests were recorded on.
    pub fn reseed(&self, pinned: u64) -> u64 {
        reseed(pinned, self.seed)
    }
}

/// Mixes the run seed into a generator's pinned seed (identity for seed 0).
pub fn reseed(pinned: u64, seed: u64) -> u64 {
    if seed == 0 {
        return pinned;
    }
    let mut state = pinned ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    simrng::splitmix64(&mut state)
}

/// The functional result of one cell: its counters as one canonical line,
/// or why it failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOutcome {
    /// Cell name, e.g. `429.mcf/LRU`.
    pub name: String,
    /// Canonical counter line, or the failure.
    pub counters: Result<String, String>,
}

/// Runs `f` as one cell, turning a panic into a failed cell.
pub fn run_cell(name: String, f: impl FnOnce() -> String) -> CellOutcome {
    let counters = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())
    });
    CellOutcome { name, counters }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Inputs built during set-up.
    type Input;
    /// Everything one pass produced beyond its cells' counters.
    type Out;

    /// Builds the inputs from the seed.
    fn setup(&self, ctx: &Ctx) -> Self::Input;

    /// One pass over the workload's cells, with spans around each call
    /// into the library.
    fn pass(
        &self,
        ctx: &Ctx,
        input: &Self::Input,
        tracer: &mut Tracer,
    ) -> (Vec<CellOutcome>, Self::Out);

    /// Units of work one pass did (see `metrics::END_TO_END`).
    fn work(&self, out: &Self::Out) -> f64;

    /// Model outputs and the workload's own throughput metric, from a pass
    /// and its measured time.
    fn summarize(&self, out: &Self::Out, pass_s: f64, m: &mut Metrics);

    /// Traced run only: measures the per-layer metrics by replaying the
    /// inputs through lower-level entry points, and returns, per span name
    /// of the traced pass, the shares other layers took of that span.
    fn layers(
        &self,
        ctx: &Ctx,
        input: &Self::Input,
        out: &Self::Out,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>>;
}

/// Set-up repetitions whose median is `setup_s`: at least the first, more
/// while the repetitions so far took under `SETUP_BUDGET_S`, up to the
/// second.
pub const SETUP_REPS: (usize, usize) = (5, 15);
/// Host time after which no further set-up repetition starts.
pub const SETUP_BUDGET_S: f64 = 2.0;
/// Shortest timed set-up repetition: a set-up quicker than this is built
/// several times in a row per repetition, and the repetition's time divided,
/// so timer and allocator noise do not dominate a microsecond set-up.
pub const SETUP_MIN_REP_S: f64 = 0.02;

/// What a run measured, before it is printed.
#[derive(Debug)]
pub struct RunResult {
    /// Every metric the run prints.
    pub metrics: Metrics,
    /// Cells checked, over every pass.
    pub attempted: u64,
    /// Cells that failed, over every pass.
    pub failed: u64,
    /// Names (and reasons) of failed cells.
    pub failures: Vec<String>,
    /// Human-readable report printed before the result line.
    pub report: String,
}

/// Runs one workload end to end as `ctx` asks.
pub fn run<W: Workload>(w: &W, ctx: &Ctx) -> RunResult {
    // The first set-up is untimed: it pays the process's first-touch page
    // faults, and sizes the repetitions.
    let t = Instant::now();
    let mut input = w.setup(ctx);
    let batch = (SETUP_MIN_REP_S / t.elapsed().as_secs_f64()).ceil().clamp(1.0, 1e6) as usize;
    let mut setups: Vec<calib::Timed> = Vec::new();
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1
            && setups.iter().map(|t| t.raw_s).sum::<f64>() * (batch as f64) < SETUP_BUDGET_S)
    {
        let ((), timed) = calib::measure(|| {
            for _ in 0..batch {
                drop(std::mem::replace(&mut input, w.setup(ctx)));
            }
        });
        setups.push(timed.per(batch));
    }

    // Untraced passes: as many as fit in the measuring time, at least one.
    // A traced run makes exactly one, the baseline of the tracing overhead.
    let mut off = Tracer::off();
    let mut passes: Vec<calib::Timed> = Vec::new();
    let mut rates = Vec::new();
    let mut reference: Option<(Vec<CellOutcome>, W::Out)> = None;
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let started = Instant::now();
    loop {
        let ((cells, out), timed) = calib::measure(|| w.pass(ctx, &input, &mut off));
        passes.push(timed);
        rates.push(w.work(&out) / timed.norm_s / 1e6);
        attempted += cells.len() as u64;
        match &reference {
            None => {
                failures.extend(digest::check(ctx, &cells));
                reference = Some((cells, out));
            }
            // Every pass must reproduce the first one's counters exactly.
            Some((first, _)) => failures.extend(digest::compare("repeat pass", first, &cells)),
        }
        let budget_left = ctx.seconds - started.elapsed().as_secs_f64();
        let pass_s: Vec<f64> = passes.iter().map(|t| t.raw_s).collect();
        if ctx.trace || budget_left < stats::median(&pass_s) {
            break;
        }
    }
    let median_of = |ts: &[calib::Timed], f: fn(&calib::Timed) -> f64| {
        stats::median(&ts.iter().map(f).collect::<Vec<_>>())
    };
    let wall_s = median_of(&passes, |t| t.raw_s);
    let wall_ref_s = median_of(&passes, |t| t.norm_s);
    let setup_s = median_of(&setups, |t| t.norm_s);
    let kernel_ms = 1e3 * median_of(&passes, |t| t.kernel_s);
    let (first_cells, _) = reference.expect("one pass ran");

    let mut m = Metrics::default();
    let mut report = String::new();
    if ctx.trace {
        let mut on = Tracer::on();
        let (cells, out) = on.span(
            &format!("pass {}", ctx.workload),
            "experiments::runner",
            |t| w.pass(ctx, &input, t),
        );
        attempted += cells.len() as u64;
        failures.extend(digest::compare("traced pass", &first_cells, &cells));
        let traced_s = on.wall_ns() as f64 / 1e9;
        let splits = w.layers(ctx, &input, &out, &on, &mut m);
        w.summarize(&out, wall_s, &mut m);
        let overhead = 100.0 * (traced_s / wall_s - 1.0);
        m.set(metrics::TRACE_OVERHEAD.name, overhead);
        m.set("host.wall_s", wall_s);
        m.set("host.kernel_ms", kernel_ms);
        let rows = on.waterfall(&splits);
        report.push_str(&spans::render_waterfall(
            &ctx.workload,
            &rows,
            on.wall_ns(),
            overhead,
            wall_s,
        ));
        let _ = std::fs::write(
            ctx.scratch.join(format!("spans-seed{}.tsv", ctx.seed)),
            on.to_tsv(),
        );
        for name in metrics::per_layer_names() {
            if m.get(name).is_none() {
                m.set(name, 0.0);
            }
        }
    } else {
        m.set("setup_s", setup_s);
        m.set("wall_ref_s", wall_ref_s);
        m.set("work_ref_mps", stats::median(&rates));
        m.set("peak_rss_mb", peak_rss_mb());
    }
    let spread = |ts: &[calib::Timed], f: fn(&calib::Timed) -> f64| {
        stats::relative_spread(&ts.iter().map(f).collect::<Vec<_>>())
    };
    let _ = std::fmt::Write::write_fmt(
        &mut report,
        format_args!(
            "{}: set-up median {:.4e} s at reference speed (spread {:.3}, n={}), \
             pass median {:.4} s at reference speed (spread {:.3}, n={}), \
             {:.4} s raw (spread {:.3}), calibration kernel {:.3} ms (reference {:.3}), \
             cells {} attempted, {} failed (cell_fail_frac {:.4})\n",
            ctx.workload,
            setup_s,
            spread(&setups, |t| t.norm_s),
            setups.len(),
            wall_ref_s,
            spread(&passes, |t| t.norm_s),
            passes.len(),
            wall_s,
            spread(&passes, |t| t.raw_s),
            kernel_ms,
            1e3 * calib::REF_KERNEL_S,
            attempted,
            failures.len(),
            failures.len() as f64 / attempted.max(1) as f64,
        ),
    );
    RunResult {
        metrics: m,
        attempted,
        failed: failures.len() as u64,
        failures,
        report,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds elapsed since `t`, as a float.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clears every `RLR_*` variable the library reads and sets the ones the
/// benchmark fixes, so nothing exported in the caller's shell changes the
/// program under measurement or injects faults into its I/O. Must run
/// before any other thread starts.
pub fn hermetic_env(ctx: &Ctx) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RLR_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("RLR_RESULTS_DIR", ctx.scratch.join("results"));
    std::env::set_var("RLR_SCALE", "small");
    std::env::set_var("RLR_JOBS", "1");
    std::env::set_var("RLR_CHECKPOINT", "0");
    std::env::set_var("RLR_RETRIES", "0");
    std::env::set_var("RLR_BACKOFF_MS", "0");
    let timing = if ctx.workload == "sim_4core_event" {
        "event"
    } else {
        "analytic"
    };
    std::env::set_var("RLR_TIMING", timing);
}

/// Prints the result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(r: &RunResult, names: &[&'static str]) -> String {
    let mut parts = Vec::new();
    let mut finite = true;
    for &name in names {
        let def = metrics::def(name).expect("declared");
        let v = r.metrics.get(name).unwrap_or(f64::NAN);
        finite &= v.is_finite();
        let v = if v.is_finite() { v } else { 0.0 };
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            def.unit
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finite && r.failed == 0,
        r.attempted.max(1),
        r.failed,
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_keeps_pinned_seeds_on_zero_and_separates_others() {
        assert_eq!(reseed(0xC0FF_EE00, 0), 0xC0FF_EE00);
        let a = reseed(0xC0FF_EE00, 1);
        let b = reseed(0xC0FF_EE00, 2);
        assert!(a != 0xC0FF_EE00 && a != b);
        assert_eq!(a, reseed(0xC0FF_EE00, 1), "same seed, same inputs");
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let ok = run_cell("a".into(), || "1 2".into());
        let bad = run_cell("b".into(), || panic!("boom"));
        assert_eq!(ok.counters, Ok("1 2".into()));
        assert_eq!(bad.counters, Err("boom".into()));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("wall_ref_s", 1.5);
        let r = RunResult {
            metrics,
            attempted: 4,
            failed: 0,
            failures: Vec::new(),
            report: String::new(),
        };
        let v = json::Json::parse(&result_line(&r, &["wall_ref_s"])).expect("valid JSON");
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_ref_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(json::Json::as_f64), Some(1.5));
        // A missing value makes the run incorrect rather than printing NaN.
        let v = json::Json::parse(&result_line(&r, &["wall_ref_s", "setup_s"])).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(false)));
    }
}
