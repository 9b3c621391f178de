//! The sharded roster runner is bit-identical to a serial sweep: results
//! depend only on (workload, policy, scale), never on worker count or
//! scheduling order.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cache_sim::RunStats;
use experiments::runner::{
    resolve_jobs, run_roster_resilient, run_tasks_resilient, RunOptions, SweepOptions,
};
use experiments::{PolicyKind, Scale};

/// A stable per-(workload, policy) fingerprint of the full RunStats.
fn fingerprint(name: &str, policy: PolicyKind, stats: &RunStats) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    policy.name().hash(&mut h);
    format!("{stats:?}").hash(&mut h);
    h.finish()
}

fn fingerprints(sweep: &[(String, Vec<(PolicyKind, RunStats)>)]) -> Vec<(String, String, u64)> {
    sweep
        .iter()
        .flat_map(|(name, runs)| {
            runs.iter().map(move |(policy, stats)| {
                (name.clone(), policy.name().to_owned(), fingerprint(name, *policy, stats))
            })
        })
        .collect()
}

/// An uncheckpointed, no-retry roster sweep on `jobs` workers; any failed
/// cell fails the test.
fn roster(
    benchmarks: &[&str],
    policies: &[PolicyKind],
    jobs: usize,
) -> Vec<(String, Vec<(PolicyKind, RunStats)>)> {
    let opts = SweepOptions { jobs: Some(jobs), ..SweepOptions::none() };
    run_roster_resilient(benchmarks, policies, Scale::Small, &opts)
        .expect("known roster")
        .into_iter()
        .map(|(name, runs)| {
            let runs =
                runs.into_iter().map(|(p, cell)| (p, cell.unwrap_or_else(|e| panic!("{e}"))));
            (name, runs.collect())
        })
        .collect()
}

#[test]
fn parallel_roster_is_bit_identical_to_serial() {
    let benchmarks = ["429.mcf", "482.sphinx3"];
    let policies = [PolicyKind::Lru, PolicyKind::Rlr];
    let serial = roster(&benchmarks, &policies, 1);
    // More workers than tasks exercises the pool clamp and, on multi-core
    // hosts, true interleaving; on a single-core host it still runs the
    // whole queue through scoped worker threads.
    let parallel = roster(&benchmarks, &policies, 3);

    // Bit-identical stats, per (workload, policy) cell.
    assert_eq!(serial, parallel);
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));

    // Grouping preserves both input orders.
    let names: Vec<&str> = serial.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, benchmarks);
    for (_, runs) in &serial {
        let kinds: Vec<PolicyKind> = runs.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, policies);
    }
}

#[test]
fn task_pool_preserves_input_order_under_any_worker_count() {
    let items: Vec<u64> = (0..97).collect();
    for jobs in [1, 2, 5, 128] {
        let out: Vec<u64> = run_tasks_resilient(&items, jobs, &RunOptions::none(), |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        })
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, expected, "jobs={jobs}");
    }
}

#[test]
fn job_resolution_prefers_explicit_then_env() {
    assert_eq!(resolve_jobs(Some(7)), 7);
    // `None` must yield at least one worker no matter the environment.
    assert!(resolve_jobs(None) >= 1);
}
