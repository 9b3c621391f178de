//! Shared glue for the benchmark targets that regenerate the paper's
//! tables and figures, plus a dependency-free wall-clock harness for the
//! `ci_smoke` timing gate (the workspace builds offline; Criterion is
//! deliberately not used).
//!
//! Each figure/table target prints an aligned table to stdout, saves a
//! CSV under `results/`, and reports its own wall-clock time. `ci_smoke`
//! prints its rows and gates four paired ratios against
//! `crates/bench/ci_baseline.json`.

pub mod harness;

use experiments::Scale;
use std::time::Instant;

/// Standard preamble: resolve the scale and announce the target.
pub fn start(target: &str) -> Scale {
    let scale = Scale::from_env();
    println!("[{target}] RLR_SCALE={scale}");
    scale
}

/// Runs a one-shot bench body (a figure/table regeneration) and reports
/// its wall-clock time on stdout.
pub fn timed<R>(target: &str, body: impl FnOnce() -> R) -> R {
    let begin = Instant::now();
    let out = body();
    println!("[{target}] completed in {:.3} s", begin.elapsed().as_secs_f64());
    out
}
