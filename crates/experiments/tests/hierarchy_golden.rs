//! Golden full-hierarchy counters: the demand stream of the committed
//! `429.mcf` RLT fixture replayed through one core's L1D/L2 and a shared
//! LLC with [`replay_hierarchy`], under LRU and RLR at the LLC.
//!
//! Every literal below is a pinned counter that any refactor of
//! `CoreHierarchy::data_access` must reproduce exactly: the service level
//! of every request, the L1D/L2/LLC [`CacheStats`], and the memory
//! read/write counts.
//!
//! Two geometries are pinned. The paper's single-core system
//! (Table III) is the configuration every experiment runs; on this short
//! stream its 2 MB LLC never evicts and every L1D writeback hits the L2.
//! The pressured variant shrinks the L2 and LLC so the rest of the chain
//! runs too: L1D writebacks miss the L2, the L2's dirty victims reach the
//! LLC, the LLC evicts (so LRU and RLR diverge) and writes back to memory.

use cache_sim::{
    CacheConfig, CacheStats, CoreHierarchy, KindCounts, ServiceLevel, SharedLlc, SystemConfig,
};
use experiments::runner::{demand_requests, replay_hierarchy, HierarchyReplayMode};
use experiments::PolicyKind;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../trace-io/tests/data/golden_429mcf.rlt");

/// Requests in the fixture's demand stream.
const REQUESTS: usize = 3938;

/// Everything observable about one replay.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Requests serviced at L1, L2, LLC, memory (row hit), memory.
    levels: [u64; 5],
    l1d: CacheStats,
    l2: CacheStats,
    llc: CacheStats,
    memory_reads: u64,
    memory_writes: u64,
}

/// A [`CacheStats`] literal: `(accesses, hits)` per load/RFO/prefetch/
/// writeback, then dirty evictions and evictions (`bypasses` is always 0).
fn stats(by_kind: [(u64, u64); 4], writebacks_out: u64, evictions: u64) -> CacheStats {
    CacheStats {
        by_kind: by_kind.map(|(accesses, hits)| KindCounts { accesses, hits }),
        writebacks_out,
        bypasses: 0,
        evictions,
    }
}

/// The paper's single-core system with a 32 KB L2 and a 128 KB LLC.
fn pressured_config() -> SystemConfig {
    let mut config = SystemConfig::paper_single_core();
    config.l2 = CacheConfig::with_capacity_kb(32, 8, 12);
    config.llc = CacheConfig::with_capacity_kb(128, 16, 26);
    config
}

fn replay(config: &SystemConfig, policy: PolicyKind) -> Pin {
    let trace = trace_io::read_trace_file(std::path::Path::new(FIXTURE))
        .expect("golden fixture is committed and verifies");
    let requests = demand_requests(&trace);
    assert_eq!(requests.len(), REQUESTS, "fixture demand stream changed");
    let mut core = CoreHierarchy::new(0, config);
    let mut llc = SharedLlc::new(config, policy.build(&config.llc, None));
    let served = replay_hierarchy(&mut core, &mut llc, &requests, HierarchyReplayMode::PerAccess);
    assert_eq!(served.len(), REQUESTS, "one service level per request");
    let mut levels = [0u64; 5];
    for level in served {
        levels[match level {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::Llc => 2,
            ServiceLevel::MemoryRowHit => 3,
            ServiceLevel::Memory => 4,
        }] += 1;
    }
    assert_eq!(core.l1i_stats(), &CacheStats::default(), "a data stream never touches L1I");
    Pin {
        levels,
        l1d: *core.l1d_stats(),
        l2: *core.l2_stats(),
        llc: *llc.stats(),
        memory_reads: llc.memory_reads(),
        memory_writes: llc.memory_writes(),
    }
}

/// The private levels see the same stream whatever the LLC policy, and on
/// the paper's 2 MB LLC this short stream never forces an eviction, so
/// LRU and RLR pin identical counters.
fn paper_pin() -> Pin {
    Pin {
        levels: [0, 3, 10, 5, 3920],
        l1d: stats([(3610, 0), (328, 0), (3938, 0), (0, 0)], 310, 7364),
        l2: stats([(3610, 3), (328, 0), (3938, 12), (310, 310)], 129, 3768),
        llc: stats([(3607, 8), (328, 2), (3926, 8), (129, 129)], 0, 0),
        memory_reads: 7843,
        memory_writes: 0,
    }
}

#[test]
fn paper_hierarchy_counters_are_pinned_under_lru() {
    assert_eq!(replay(&SystemConfig::paper_single_core(), PolicyKind::Lru), paper_pin());
}

#[test]
fn paper_hierarchy_counters_are_pinned_under_rlr() {
    assert_eq!(replay(&SystemConfig::paper_single_core(), PolicyKind::Rlr), paper_pin());
}

#[test]
fn pressured_hierarchy_counters_are_pinned_under_lru() {
    let expected = Pin {
        levels: [0, 0, 0, 6, 3932],
        l1d: stats([(3610, 0), (328, 0), (3938, 0), (0, 0)], 310, 7364),
        l2: stats([(3610, 0), (328, 0), (3938, 1), (310, 0)], 284, 7673),
        llc: stats([(3610, 0), (328, 0), (3937, 5), (284, 284)], 198, 5822),
        memory_reads: 7870,
        memory_writes: 198,
    };
    assert_eq!(replay(&pressured_config(), PolicyKind::Lru), expected);
}

#[test]
fn pressured_hierarchy_counters_are_pinned_under_rlr() {
    let expected = Pin {
        levels: [0, 0, 10, 5, 3923],
        l1d: stats([(3610, 0), (328, 0), (3938, 0), (0, 0)], 310, 7364),
        l2: stats([(3610, 0), (328, 0), (3938, 1), (310, 0)], 284, 7673),
        llc: stats([(3610, 8), (328, 2), (3937, 7), (284, 155)], 129, 5939),
        memory_reads: 7858,
        memory_writes: 129,
    };
    assert_eq!(replay(&pressured_config(), PolicyKind::Rlr), expected);
}
