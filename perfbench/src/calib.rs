//! Host-speed calibration of measured times.
//!
//! On a shared host (a cloud VM, a CI runner) other tenants' work slows
//! memory-bound code by tens of percent for minutes at a time, through the
//! shared last-level cache and memory bus. The simulator's tables live
//! there, so its raw times drift with the neighbours rather than with the
//! code. A fixed reference kernel — random read-modify-writes over a buffer
//! larger than a core's private L2, so it runs from the shared cache like
//! the simulator — is timed before, between and after the measured cells.
//! Each measured time is scaled by `REF_KERNEL_S / median(kernel times)`:
//! seconds at the reference host speed. The kernel is part of the benchmark,
//! not of the program, so a faster program still reads faster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::stats;

/// Words in the kernel's buffer (4 MiB).
const WORDS: usize = 1 << 19;
/// Read-modify-writes per kernel run.
const STEPS: usize = 1 << 20;
/// The kernel's time at the reference host speed. Any fixed value works;
/// this one is close to an unloaded server core, so scaled times stay near
/// raw ones.
pub const REF_KERNEL_S: f64 = 0.0025;

/// Kernel times and the time the kernel took inside a measurement.
struct State {
    buf: Vec<u64>,
    samples: Vec<f64>,
    spent: Duration,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    buf: Vec::new(),
    samples: Vec::new(),
    spent: Duration::ZERO,
});

/// One measured call: its raw time (kernel runs excluded) and that time at
/// the reference host speed.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Host seconds.
    pub raw_s: f64,
    /// Median kernel time around and inside the call, seconds.
    pub kernel_s: f64,
    /// `raw_s` scaled to the reference host speed.
    pub norm_s: f64,
}

impl Timed {
    /// The time of one of `n` equal repetitions measured together.
    pub fn per(self, n: usize) -> Self {
        let n = n as f64;
        Self {
            raw_s: self.raw_s / n,
            norm_s: self.norm_s / n,
            ..self
        }
    }
}

fn run_kernel(state: &mut State) {
    if state.buf.is_empty() {
        state.buf = (0..WORDS as u64).collect();
    }
    // Bring the whole buffer back into the cache first, so the timed part
    // does not depend on how much of it the measured work evicted.
    std::hint::black_box(state.buf.iter().fold(0u64, |a, &w| a ^ w));
    let t = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_u64, 0u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 33) as usize & (WORDS - 1);
        acc = acc.wrapping_add(state.buf[i]);
        state.buf[i] = acc;
    }
    std::hint::black_box(acc);
    let took = t.elapsed();
    state.samples.push(took.as_secs_f64());
    state.spent += took;
}

/// Between two cells of a measured call: times the kernel once. Does
/// nothing outside [`measure`], so traced passes are not perturbed.
pub fn tick() {
    if ACTIVE.load(Ordering::Relaxed) {
        run_kernel(&mut STATE.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Runs `f` with the kernel timed before and after it (and wherever `f`
/// calls [`tick`]), and returns its raw and scaled times.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    {
        let mut s = STATE.lock().unwrap_or_else(PoisonError::into_inner);
        s.samples.clear();
        run_kernel(&mut s);
        s.spent = Duration::ZERO;
    }
    ACTIVE.store(true, Ordering::Relaxed);
    let t = Instant::now();
    let out = f();
    let elapsed = t.elapsed();
    ACTIVE.store(false, Ordering::Relaxed);
    let mut s = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    let raw_s = elapsed.saturating_sub(s.spent).as_secs_f64();
    run_kernel(&mut s);
    let kernel_s = stats::median(&s.samples);
    let timed = Timed {
        raw_s,
        kernel_s,
        norm_s: raw_s * REF_KERNEL_S / kernel_s,
    };
    (out, timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_are_excluded_and_scaling_is_by_the_median_kernel() {
        let (v, t) = measure(|| {
            tick();
            tick();
            7
        });
        assert_eq!(v, 7);
        assert!(t.kernel_s > 0.0);
        // Four kernel runs happened, none of them inside the raw time.
        assert!(t.raw_s < t.kernel_s, "{t:?}");
        assert!((t.norm_s - t.raw_s * REF_KERNEL_S / t.kernel_s).abs() < 1e-15);
        // Outside a measurement a tick does nothing.
        let before = STATE.lock().unwrap().samples.len();
        tick();
        assert_eq!(STATE.lock().unwrap().samples.len(), before);
    }
}
