//! The tenancy sweep determinism wall: the batched sweep (one interleave
//! feeding every mode's LLC in lockstep) is a pure function of (mix, modes,
//! LLC, accesses) — it equals each mode run alone, and worker count,
//! injected crashes and checkpoint resume never change a counter. Mirrors
//! `objcache_determinism.rs` for the tenancy tier.

use std::fs;
use std::path::PathBuf;

use experiments::fault::FailPlan;
use experiments::runner::{FailureKind, RunOptions, SweepOptions};
use experiments::tenancy::{
    default_llc, load_tenancy_cell, run_tenancy_sweep, run_tenant_mix, standard_modes,
    store_tenancy_cell, tenancy_cell_key, TenancyCellResult, TenantCellStats,
};
use experiments::Scale;
use tenancy::IsolationMode;
use workloads::tenants::TenantMix;

/// Long enough to span several interleave blocks plus a partial one.
const ACCESSES: u64 = 20_000;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlr_tenancy_det_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> (TenantMix, Vec<IsolationMode>) {
    let mix = TenantMix::default_three_class();
    let modes = standard_modes(&mix, &default_llc(), vec![4, 1, 0]);
    (mix, modes)
}

fn sweep(mix: &TenantMix, modes: &[IsolationMode], opts: &SweepOptions) -> Vec<TenancyCellResult> {
    run_tenancy_sweep(mix, modes, &default_llc(), ACCESSES, Scale::Small, opts)
        .into_iter()
        .map(|(_, cell)| cell)
        .collect()
}

fn stats_of(results: &[TenancyCellResult]) -> Vec<Vec<TenantCellStats>> {
    results.iter().map(|c| c.as_ref().unwrap_or_else(|e| panic!("{e}")).clone()).collect()
}

fn jobs(n: usize) -> SweepOptions {
    SweepOptions { jobs: Some(n), run: RunOptions::none(), cache_dir: None }
}

/// One lockstep pass over every mode equals each mode run on its own.
#[test]
fn batched_sweep_equals_per_mode_runs() {
    let (mix, modes) = scenario();
    let swept = stats_of(&sweep(&mix, &modes, &jobs(1)));
    for (mode, stats) in modes.iter().zip(&swept) {
        let alone = run_tenant_mix(&mix, mode, &default_llc(), ACCESSES, Scale::Small);
        assert_eq!(stats, &alone, "{}", mode.name());
    }
    assert_ne!(swept[0], swept[2], "the modes must differ for the comparison to mean anything");
}

/// One batch of three cells and three batches of one are bit-identical.
#[test]
fn serial_and_parallel_sweeps_are_bit_identical() {
    let (mix, modes) = scenario();
    assert_eq!(stats_of(&sweep(&mix, &modes, &jobs(1))), stats_of(&sweep(&mix, &modes, &jobs(4))));
}

/// A crash injected into mode 1 with no retries fails that cell alone and
/// checkpoints the other two; resuming over the same directory loads them
/// and reproduces the clean sweep bit for bit.
#[test]
fn killed_then_resumed_sweep_is_bit_identical() {
    let (mix, modes) = scenario();
    let llc = default_llc();
    let clean = stats_of(&sweep(&mix, &modes, &jobs(1)));
    let dir = scratch_dir("resume");
    let killed_opts = SweepOptions {
        jobs: Some(2),
        run: RunOptions {
            fail_plan: FailPlan::parse("panic:1:*").expect("valid plan"),
            ..RunOptions::none()
        },
        cache_dir: Some(dir.clone()),
    };
    let killed = sweep(&mix, &modes, &killed_opts);
    let failure = killed[1].as_ref().expect_err("the injected crash fails mode 1");
    assert_eq!((failure.index, failure.attempts), (1, 1), "cell index as task index, no retry");
    assert!(matches!(&failure.kind, FailureKind::Panicked(m) if m.contains("injected")));
    for (i, mode) in modes.iter().enumerate() {
        let key = tenancy_cell_key(&mix, mode, &llc, ACCESSES);
        let stored = load_tenancy_cell(&dir, &key);
        if i == 1 {
            assert!(stored.is_none(), "the crashed cell leaves no checkpoint");
        } else {
            assert_eq!(killed[i].as_ref().ok(), Some(&clean[i]), "{} completes", mode.name());
            assert_eq!(stored.as_ref(), Some(&clean[i]), "{} is checkpointed", mode.name());
        }
    }

    // A planted marker proves a checkpointed cell is loaded, not recomputed.
    let resume_opts = SweepOptions { cache_dir: Some(dir.clone()), ..jobs(1) };
    let key0 = tenancy_cell_key(&mix, &modes[0], &llc, ACCESSES);
    let mut marker = clean[0].clone();
    marker[0].hits += 1_000_000;
    store_tenancy_cell(&dir, &key0, &marker);
    let resumed = sweep(&mix, &modes, &resume_opts);
    assert_eq!(resumed[0].as_ref().ok(), Some(&marker), "a checkpointed cell must be loaded");
    store_tenancy_cell(&dir, &key0, &clean[0]);
    let resumed = stats_of(&sweep(&mix, &modes, &resume_opts));
    assert_eq!(resumed, clean, "resume is bit-identical to a clean sweep");
    let _ = fs::remove_dir_all(&dir);
}
