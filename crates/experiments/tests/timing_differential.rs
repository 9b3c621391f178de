//! Differential wall between the two timing modes on the golden `429.mcf`
//! RLT fixture: the event-driven core must (a) be bit-deterministic,
//! (b) leave every functional counter byte-identical to analytic mode —
//! timing is a pure consumer of the hit/miss stream — and (c) preserve
//! the analytic policy ranking, so figures produced from simulated time
//! tell the same story in either mode. Event-mode cycle counts are pinned
//! so any change to the bank model or queue arithmetic is a conscious one.

use cache_sim::{CacheStats, CoreHierarchy, SharedLlc, SystemConfig, TimingMode};
use experiments::runner::{demand_requests, replay_hierarchy_timed, TimedReplay};
use experiments::PolicyKind;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../trace-io/tests/data/golden_429mcf.rlt");

const POLICIES: [PolicyKind; 4] =
    [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Drrip, PolicyKind::Rlr];

/// The golden demand stream, looped three times. A single pass carries
/// almost no LLC-level reuse (every policy ties at ~0 demand hits); the
/// repeats turn it into a cyclic scan larger than the shrunken LLC, the
/// regime where retention policies genuinely separate.
fn fixture_requests() -> Vec<cache_sim::DataRequest> {
    let trace = trace_io::read_trace_file(std::path::Path::new(FIXTURE))
        .expect("golden fixture is committed and verifies");
    let requests = demand_requests(&trace);
    assert!(requests.len() > 3000, "fixture must carry a real demand stream");
    requests.repeat(3)
}

/// The paper config with the LLC shrunk to 64 KB. The fixture's demand
/// stream fits the full 2 MB LLC (every policy would tie with zero
/// evictions); a small LLC puts real replacement pressure on the stream
/// so the policies — and the ranking wall — actually separate.
fn pressured_config(mode: TimingMode) -> SystemConfig {
    let mut config = SystemConfig::paper_single_core().with_timing(mode);
    config.llc = cache_sim::CacheConfig::with_capacity_kb(64, 16, config.llc.latency);
    config
}

/// One timed replay of the fixture: simulated time plus everything
/// functional the run observed.
fn replay(
    policy: PolicyKind,
    requests: &[cache_sim::DataRequest],
    mode: TimingMode,
) -> (TimedReplay, CacheStats, u64, u64) {
    let config = pressured_config(mode);
    let mut core = CoreHierarchy::new(0, &config);
    let mut llc = SharedLlc::new(&config, policy.build(&config.llc, None));
    let timed = replay_hierarchy_timed(&mut core, &mut llc, requests, &config);
    (timed, *llc.stats(), llc.memory_reads(), llc.memory_writes())
}

/// Two event-mode replays of the same stream must agree bit-for-bit —
/// the bank queues are deterministic state, not a stochastic model.
#[test]
fn event_replay_is_deterministic_on_golden_mcf() {
    let requests = fixture_requests();
    for policy in POLICIES {
        let first = replay(policy, &requests, TimingMode::Event);
        let second = replay(policy, &requests, TimingMode::Event);
        assert_eq!(first, second, "[{}] event replay diverged between runs", policy.name());
    }
}

/// The timing mode must be invisible to the functional simulation:
/// identical LLC hit/miss/writeback counters, memory traffic, and
/// retired-instruction counts in both modes, for every policy.
#[test]
fn functional_counters_identical_across_modes() {
    let requests = fixture_requests();
    for policy in POLICIES {
        let (timed_a, stats_a, reads_a, writes_a) =
            replay(policy, &requests, TimingMode::Analytic);
        let (timed_e, stats_e, reads_e, writes_e) = replay(policy, &requests, TimingMode::Event);
        assert_eq!(stats_a, stats_e, "[{}] LLC counters diverged across modes", policy.name());
        assert_eq!(reads_a, reads_e, "[{}] memory reads diverged", policy.name());
        assert_eq!(writes_a, writes_e, "[{}] memory writes diverged", policy.name());
        assert_eq!(
            timed_a.instructions,
            timed_e.instructions,
            "[{}] instruction counts diverged",
            policy.name()
        );
    }
}

/// For every pair of policies the analytic model separates, the event
/// model must agree on which one is faster: bank queueing scales the
/// cost of misses, it does not reward a policy that misses more.
#[test]
fn policy_ranking_preserved_across_modes() {
    let requests = fixture_requests();
    let analytic: Vec<(PolicyKind, u64)> = POLICIES
        .iter()
        .map(|&p| (p, replay(p, &requests, TimingMode::Analytic).0.cycles))
        .collect();
    let event: Vec<(PolicyKind, u64)> = POLICIES
        .iter()
        .map(|&p| (p, replay(p, &requests, TimingMode::Event).0.cycles))
        .collect();
    assert!(
        analytic.iter().any(|&(_, c)| c != analytic[0].1),
        "fixture no longer separates the policies — the ranking wall is vacuous"
    );
    for i in 0..POLICIES.len() {
        for j in i + 1..POLICIES.len() {
            let (pa, ca_i) = analytic[i];
            let (pb, ca_j) = analytic[j];
            if ca_i == ca_j {
                continue; // analytic dead heat: either order is fine
            }
            let (ce_i, ce_j) = (event[i].1, event[j].1);
            assert_eq!(
                ca_i < ca_j,
                ce_i < ce_j,
                "ranking flipped across modes: analytic {}={ca_i} vs {}={ca_j}, \
                 event {}={ce_i} vs {}={ce_j}",
                pa.name(),
                pb.name(),
                pa.name(),
                pb.name()
            );
        }
    }
}

/// Pinned event-mode cycle counts on the golden stream. These encode the
/// exact DRAM bank geometry, row-buffer service times, and queue
/// arithmetic; a failure here means the event timing model changed, not
/// that it broke — update deliberately, alongside DESIGN.md.
#[test]
fn event_cycle_counts_are_pinned_on_golden_mcf() {
    let requests = fixture_requests();
    let pinned: [(PolicyKind, u64); 4] = [
        (PolicyKind::Lru, 372_828),
        (PolicyKind::Srrip, 372_718),
        (PolicyKind::Drrip, 348_663),
        (PolicyKind::Rlr, 341_877),
    ];
    for (policy, expect) in pinned {
        let got = replay(policy, &requests, TimingMode::Event).0.cycles;
        assert_eq!(got, expect, "[{}] pinned event-mode cycle count moved", policy.name());
    }
}
