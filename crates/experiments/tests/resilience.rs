//! Fault-tolerance of the experiment pipeline, exercised end to end with
//! deterministic fault injection — no timing, no flakiness.

use std::path::PathBuf;

use experiments::fault::FailPlan;
use experiments::figures::speedup_table;
use experiments::runner::{
    replay_llc_reader, run_roster_resilient, run_tasks_resilient, watchdog_tick, FailureKind,
    RunOptions, RunnerError, SweepOptions, TaskFailure,
};
use experiments::{PolicyKind, Scale};

fn opts(plan: &str, retries: u32) -> RunOptions {
    RunOptions {
        retries,
        backoff_ms: 0, // keep tests instant; delay growth is unit-tested
        budget: None,
        fail_plan: FailPlan::parse(plan).expect("valid plan"),
    }
}

#[test]
fn injected_panic_spares_every_other_task() {
    let items: Vec<u64> = (0..6).collect();
    let results = run_tasks_resilient(&items, 3, &opts("panic:2:*", 1), |_, &x| x * 10);
    for (i, r) in results.iter().enumerate() {
        if i == 2 {
            let failure = r.as_ref().expect_err("task 2 must fail");
            assert_eq!(failure.index, 2);
            assert_eq!(failure.attempts, 2, "1 attempt + 1 retry");
            assert!(
                matches!(&failure.kind, FailureKind::Panicked(msg) if msg.contains("injected")),
                "unexpected kind: {:?}",
                failure.kind
            );
        } else {
            assert_eq!(*r.as_ref().expect("other tasks succeed"), i as u64 * 10);
        }
    }
}

#[test]
fn retry_recovers_a_task_that_fails_transiently() {
    let items = [0u8; 5];
    // The fault fires on the first two attempts; with two retries the
    // third attempt succeeds.
    let results = run_tasks_resilient(&items, 2, &opts("panic:4:2", 2), |i, _| i);
    assert!(results.iter().all(Result::is_ok), "all tasks recover: {results:?}");
    // One retry fewer and the same fault is terminal.
    let results = run_tasks_resilient(&items, 2, &opts("panic:4:2", 1), |i, _| i);
    let failure = results[4].as_ref().expect_err("retry budget exhausted");
    assert_eq!(failure.attempts, 2);
}

#[test]
fn watchdog_stops_a_stalled_task() {
    let items = [(); 3];
    let options = RunOptions { budget: Some(50), ..opts("stall:1", 0) };
    let results = run_tasks_resilient(&items, 3, &options, |i, ()| i);
    assert_eq!(results[0], Ok(0));
    assert_eq!(results[2], Ok(2));
    let failure = results[1].as_ref().expect_err("stalled task is aborted");
    assert_eq!(failure.kind, FailureKind::BudgetExceeded { budget: 50 });
}

#[test]
fn watchdog_bounds_a_runaway_loop_in_the_task_body() {
    // A cooperative loop that never finishes on its own (the shape of
    // capture_llc_trace's slice loop) is cut off at the budget.
    let items = [(); 1];
    let options = RunOptions { budget: Some(100), ..opts("", 0) };
    let results = run_tasks_resilient(&items, 1, &options, |_, ()| {
        let mut spins = 0u64;
        loop {
            watchdog_tick(1);
            spins += 1;
            assert!(spins <= 100, "watchdog must fire within the budget");
        }
    });
    assert!(
        matches!(results[0], Err(TaskFailure { kind: FailureKind::BudgetExceeded { budget: 100 }, .. }))
    );
}

#[test]
fn watchdog_stops_a_streamed_replay_and_the_call_returns() {
    // 64 blocks of 16 records; each block ticks the watchdog once, on the
    // caller's thread, while the next block decodes on a helper thread.
    let trace: cache_sim::LlcTrace = (0..1024u64)
        .map(|i| cache_sim::LlcRecord {
            pc: 0x40_0000 + (i % 13) * 4,
            line: (i * 7) % 4096,
            kind: cache_sim::AccessKind::Load,
            core: 0,
        })
        .collect();
    let bytes = trace_io::encode_trace(&trace, 16).expect("encode");
    let items = [(); 2];
    let options = RunOptions { budget: Some(5), ..opts("", 0) };
    let results = run_tasks_resilient(&items, 2, &options, |_, ()| {
        let config = cache_sim::SystemConfig::paper_single_core();
        let policy = PolicyKind::Lru.build(&config.llc, None);
        let mut cache = cache_sim::SetAssocCache::new("LLC", config.llc, policy);
        let mut reader = trace_io::TraceReader::new(bytes.as_slice()).expect("header");
        replay_llc_reader(&mut cache, &mut reader).expect("intact container")
    });
    for result in &results {
        assert!(
            matches!(result, Err(TaskFailure { kind: FailureKind::BudgetExceeded { budget: 5 }, .. })),
            "{result:?}"
        );
    }
}

#[test]
fn unknown_benchmark_fails_before_any_work() {
    let err = run_roster_resilient(
        &["429.mcf", "999.bogus"],
        &[PolicyKind::Lru],
        Scale::Small,
        &SweepOptions::none(),
    )
    .expect_err("bogus name is rejected");
    assert_eq!(err, RunnerError::UnknownBenchmark("999.bogus".to_owned()));
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlr_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole acceptance test: a sweep interrupted by a crashing cell
/// and then re-run against the same checkpoint directory produces output
/// identical to a sweep that was never interrupted — for every pool shape.
#[test]
fn interrupted_sweep_resumes_identically_to_a_clean_run() {
    let benchmarks = ["429.mcf", "470.lbm"];
    let policies = [PolicyKind::Lru, PolicyKind::Fifo];
    let clean = run_roster_resilient(&benchmarks, &policies, Scale::Small, &SweepOptions::none())
        .expect("clean sweep");
    assert!(clean.iter().all(|(_, runs)| runs.iter().all(|(_, c)| c.is_ok())));

    for jobs in [1usize, 2, 8] {
        let dir = scratch_dir(&format!("resume_j{jobs}"));
        // "Interrupted" run: task 3 (470.lbm under Fifo) crashes with no
        // retry; the three other cells complete and are checkpointed.
        let interrupted = run_roster_resilient(
            &benchmarks,
            &policies,
            Scale::Small,
            &SweepOptions {
                jobs: Some(jobs),
                run: opts("panic:3:*", 0),
                cache_dir: Some(dir.clone()),
            },
        )
        .expect("sweep runs");
        let (_, lbm_runs) = &interrupted[1];
        assert!(lbm_runs[1].1.is_err(), "injected cell must fail (jobs={jobs})");
        assert_eq!(
            interrupted.iter().flat_map(|(_, r)| r).filter(|(_, c)| c.is_ok()).count(),
            3,
            "every non-injected cell completes (jobs={jobs})"
        );

        // Resumed run: no injection, same checkpoint dir. Cached cells are
        // loaded, the failed one is recomputed.
        let resumed = run_roster_resilient(
            &benchmarks,
            &policies,
            Scale::Small,
            &SweepOptions {
                jobs: Some(jobs),
                run: RunOptions::none(),
                cache_dir: Some(dir.clone()),
            },
        )
        .expect("sweep resumes");
        assert_eq!(resumed, clean, "resumed sweep diverged from clean run (jobs={jobs})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_cells_degrade_to_annotated_gaps_in_reports() {
    // Build a synthetic sweep shaped like single_core_sweep's output: one
    // failed policy cell and one failed LRU baseline.
    let ok = cache_sim::RunStats {
        instructions: 1_000,
        cycles: 2_000,
        ..cache_sim::RunStats::default()
    };
    let fail = |index| TaskFailure {
        index,
        attempts: 2,
        kind: FailureKind::Panicked("boom".to_owned()),
    };
    let cells = |dead: Option<usize>| -> Vec<(PolicyKind, experiments::CellResult)> {
        std::iter::once(PolicyKind::Lru)
            .chain(PolicyKind::SINGLE_CORE.iter().copied())
            .enumerate()
            .map(|(i, p)| (p, if dead == Some(i) { Err(fail(i)) } else { Ok(ok) }))
            .collect()
    };
    let sweep = vec![
        ("one.ok".to_owned(), cells(None)),
        ("two.cell".to_owned(), cells(Some(2))),
        ("three.lru".to_owned(), cells(Some(0))),
    ];
    let table = speedup_table("degradation test", &sweep);
    let text = table.render();
    assert!(text.contains("failed"), "failed cell is visible:\n{text}");
    assert!(text.contains("n/a"), "missing baseline blanks the row:\n{text}");
    assert!(text.contains("note:") && text.contains("boom"), "failures are annotated:\n{text}");
    assert!(text.contains("Overall"), "overall row still renders:\n{text}");
}
