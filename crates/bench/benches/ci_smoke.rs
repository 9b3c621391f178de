//! CI bench smoke: four in-process ratio gates, each a pair of sub-second
//! workloads timed against each other.
//!
//! Absolute timings vary wildly across CI machines, so every gate is the
//! *ratio* of two paths measured in the same process in paired rounds
//! ([`harness::paired_ratios`]): both timings of a round see the same
//! machine, load, and frequency scaling, and the ratio cancels them out.
//! Every gate applies one rule ([`Bound::holds`]): it fails only when at
//! least three quarters of its 15 rounds are past `baseline × tolerance`,
//! where the baseline is the median ratio checked in at
//! `crates/bench/ci_baseline.json`.
//!
//! Regenerate the baseline after deliberate hot-path changes with
//! `RLR_UPDATE_BENCH_BASELINE=1 cargo bench --offline -p rlr-bench --bench ci_smoke`.
//!
//! After the gates it prints, ungated, the rows perfbench has no
//! counterpart for: RLT1 trace encode and per-level hierarchy throughput.

use std::hint::black_box;

use cache_sim::{
    Access, CoreHierarchy, LlcTrace, ReferenceCache, SetAssocCache, SharedLlc, SingleCoreSystem,
    SystemConfig, TimingMode,
};
use experiments::json::Json;
use experiments::runner::replay_llc_trace;
use experiments::PolicyKind;
use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, ScanWays};
use rlr_bench::harness::{self, Bound};

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/ci_baseline.json");

/// One gated ratio: its paired rounds and the baseline it is held to.
struct Gate {
    label: &'static str,
    /// The baseline's field in `ci_baseline.json`.
    field: &'static str,
    bound: Bound,
    /// The limit is `baseline × tolerance`.
    tolerance: f64,
    ratios: Vec<f64>,
}

fn capture_small_trace(config: &SystemConfig) -> LlcTrace {
    let mut system = SingleCoreSystem::new(config, PolicyKind::Lru.build(&config.llc, None));
    system.llc_mut().enable_capture();
    let mut stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
    system.warm_up(&mut stream, 100_000);
    let _ = system.run(stream, 400_000);
    system.llc_mut().take_capture().expect("capture enabled")
}

/// The hot-path ratio: the seed path (reference cache + seed RLR policy)
/// against the packed hot path, replaying the same captured trace.
fn seed_over_packed(config: &SystemConfig, trace: &LlcTrace) -> Vec<f64> {
    harness::paired_ratios(
        || {
            let mut cache = ReferenceCache::new(
                "seed",
                config.llc,
                Box::new(rlr::SeedRlrPolicy::optimized(&config.llc)),
            );
            let mut hits = 0u64;
            for (seq, r) in trace.records().iter().enumerate() {
                let access = Access {
                    pc: r.pc,
                    addr: r.line << 6,
                    kind: r.kind,
                    core: r.core,
                    seq: seq as u64,
                };
                hits += u64::from(cache.access(&access).hit);
            }
            hits
        },
        || {
            let mut cache =
                SetAssocCache::new("packed", config.llc, PolicyKind::Rlr.build(&config.llc, None));
            replay_llc_trace(&mut cache, trace).hits
        },
    )
}

/// The victim-scan ratio: scalar reference against the lane backend over
/// LLC-shaped sets on deterministic warm-cache data.
fn scalar_over_lanes(config: &SystemConfig) -> Vec<f64> {
    let sets = config.llc.sets as usize;
    let ways = usize::from(config.llc.ways);
    let lines = sets * ways;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let now = 1u64 << 20;
    let clock = 1u64 << 24;
    let age_stamps: Vec<u64> = (0..lines).map(|_| now - (next() % 8)).collect();
    let rec_stamps: Vec<u64> = (0..lines).map(|_| clock - (next() % 4096)).collect();
    let metas: Vec<LineMeta> = (0..lines)
        .map(|_| {
            let bits = next();
            let mut meta = LineMeta::filled(bits & 0x40 != 0, bits & 0x80 != 0);
            meta.set_hit_count((bits & 0x3) as u8);
            meta
        })
        .collect();
    let params = ScanParams {
        now,
        clock,
        rd: 4,
        max_age: 3,
        age_weight: 8,
        use_type: true,
        use_hit: true,
        exact_recency: false,
    };
    let scan_every_set = |scan_set: fn(&ScanParams, &ScanWays) -> scan::ScanOutcome| {
        let mut acc = 0u64;
        for set in 0..sets {
            let range = set * ways..(set + 1) * ways;
            let scan_ways = ScanWays {
                age_stamps: &age_stamps[range.clone()],
                rec_stamps: &rec_stamps[range.clone()],
                metas: &metas[range],
                cores: &[],
                core_rank: &[],
            };
            acc ^= scan_set(&params, &scan_ways).best_key;
        }
        acc
    };
    harness::paired_ratios(
        || scan_every_set(scan::scan_scalar),
        || scan_every_set(scan::scan_lanes),
    )
}

/// The timing-layer cost ratio: full-system 429.mcf runs under the
/// analytic and the event timing model. It rises when the analytic replay
/// path gets slower relative to event timing.
fn analytic_over_event(config: &SystemConfig) -> Vec<f64> {
    const INSTRUCTIONS: u64 = 150_000;
    let run = |mode: TimingMode| {
        let timed = config.with_timing(mode);
        let mut system = SingleCoreSystem::new(&timed, PolicyKind::Rlr.build(&timed.llc, None));
        let stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
        system.run(stream, INSTRUCTIONS).cycles
    };
    harness::paired_ratios(|| run(TimingMode::Analytic), || run(TimingMode::Event))
}

/// Materializes the pinned three-class tenant mix (all-synthetic sources,
/// so no corpus capture) into `(tenant, pc, addr)` rows, each tenant
/// relocated into its own address space like the tenancy experiment does.
fn tenant_mix_rows(n: usize) -> Vec<(u8, u64, u64)> {
    let mix = workloads::TenantMix::default_three_class();
    let streams: Vec<_> = mix
        .tenants
        .iter()
        .map(|t| t.source.synthetic_stream().expect("the default mix is synthetic"))
        .collect();
    workloads::WeightedInterleave::new(streams, &mix.rates(), mix.seed)
        .take(n)
        .map(|(t, a)| {
            let salt = (t as u64 + 1) << 40;
            (t as u8, a.pc ^ salt, (a.line ^ salt) << 6)
        })
        .collect()
}

/// The tenancy-layer cost ratio: the same interleaved mix through the
/// multi-tenant LLC (learned-priority mode — the mode with every table
/// active) and through the bare packed cache + RLR policy it wraps.
fn tenant_over_single() -> Vec<f64> {
    const ACCESSES: usize = 60_000;
    let rows = tenant_mix_rows(ACCESSES);
    let llc = cache_sim::CacheConfig { sets: 256, ways: 8, latency: 26 };
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = llc;
    harness::paired_ratios(
        || {
            let mut sys = tenancy::MultiTenantLlc::new(
                &cfg,
                3,
                tenancy::IsolationMode::LearnedPriority(vec![4, 1, 0]),
            );
            for &(t, pc, addr) in &rows {
                sys.access(t, pc, addr, cache_sim::AccessKind::Load);
            }
            sys.qos_all().iter().map(|q| q.hits).sum::<u64>()
        },
        || {
            let mut cache = SetAssocCache::new("packed", llc, PolicyKind::Rlr.build(&llc, None));
            let mut hits = 0u64;
            for (seq, &(_, pc, addr)) in rows.iter().enumerate() {
                let access = Access {
                    pc,
                    addr,
                    kind: cache_sim::AccessKind::Load,
                    core: 0,
                    seq: seq as u64,
                };
                hits += u64::from(cache.access(&access).hit);
            }
            hits
        },
    )
}

/// Ungated rows: demand accesses over cyclic working sets resident in L1,
/// L2 and the LLC, through the full `CoreHierarchy` + `SharedLlc` stack.
fn bench_hierarchy_levels(config: &SystemConfig) {
    const ACCESSES: u64 = 200_000;
    for (label, bytes) in
        [("l1_resident", 16u64 << 10), ("l2_resident", 128 << 10), ("llc_resident", 1 << 20)]
    {
        let lines = bytes / 64;
        harness::bench(&format!("hierarchy/{label}"), || {
            let mut core = CoreHierarchy::new(0, config);
            let mut llc = SharedLlc::new(config, PolicyKind::Rlr.build(&config.llc, None));
            for i in 0..ACCESSES {
                let addr = (i % lines) * 64;
                black_box(core.data_access(0x400 + (i % 32) * 4, addr, i % 13 == 0, &mut llc));
            }
        });
    }
}

fn main() {
    let _ = rlr_bench::start("ci_smoke");
    let config = SystemConfig::paper_single_core();
    let trace = capture_small_trace(&config);
    println!("captured smoke trace: {} LLC accesses", trace.len());

    let gates = [
        Gate {
            label: "hot-path seed/packed",
            field: "speedup",
            bound: Bound::Floor,
            tolerance: 0.8,
            ratios: seed_over_packed(&config, &trace),
        },
        Gate {
            label: "victim-scan scalar/lanes",
            field: "simd_speedup",
            bound: Bound::Floor,
            tolerance: 0.8,
            ratios: scalar_over_lanes(&config),
        },
        Gate {
            label: "timing analytic/event",
            field: "timing_ratio",
            bound: Bound::Ceiling,
            tolerance: 1.05,
            ratios: analytic_over_event(&config),
        },
        // Wider than the timing gate: it divides two sub-100 ms replays,
        // which carry more scheduler noise than two full-system runs.
        Gate {
            label: "tenancy tenant/single",
            field: "tenancy_ratio",
            bound: Bound::Ceiling,
            tolerance: 1.25,
            ratios: tenant_over_single(),
        },
    ];
    for gate in &gates {
        let [q1, median, q3] = harness::quartiles(&gate.ratios);
        println!(
            "{}: median {median:.2}, quartiles {q1:.2}-{q3:.2} ({} paired rounds)",
            gate.label,
            gate.ratios.len()
        );
    }

    // Object-cache serving tier, printed (not gated): requests/sec of the
    // derived admission+eviction rule on a small Zipf + flash-crowd trace.
    let obj_traffic = workloads::ObjectTraffic {
        catalog: 20_000,
        flash_every: 4_000,
        flash_len: 800,
        ..workloads::ObjectTraffic::internet_default()
    };
    let obj_trace: Vec<workloads::ObjectRequest> = obj_traffic.stream().take(20_000).collect();
    let obj_cfg = objcache::ObjCacheConfig::with_capacity_mib(32);
    let obj_row = harness::bench("objcache/replay/RLR-derived", || {
        objcache::replay(
            obj_cfg,
            objcache::ObjPolicyKind::parse("rlr").expect("pinned"),
            obj_trace.iter().copied(),
        )
        .hit_bytes
    });
    println!(
        "objcache replay (derived rule): {:.0} requests/sec",
        obj_trace.len() as f64 * 1e9 / obj_row.median_ns.max(1) as f64
    );
    harness::bench("trace_io/encode", || {
        trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode").len()
    });
    bench_hierarchy_levels(&config);

    if std::env::var("RLR_UPDATE_BENCH_BASELINE").is_ok_and(|v| !v.trim().is_empty()) {
        // The JSON subset has no floats, so each ratio is a decimal string.
        let doc = Json::obj(
            gates
                .iter()
                .map(|g| (g.field, Json::Str(format!("{:.2}", harness::quartiles(&g.ratios)[1]))))
                .chain([
                    ("bench", Json::Str("ci_smoke".to_owned())),
                    (
                        "note",
                        Json::Str(
                            "median per-round ratios: seed/packed replay, scalar/lane scan, \
                             analytic/event timing, tenant/single replay; regenerate with \
                             RLR_UPDATE_BENCH_BASELINE=1"
                                .to_owned(),
                        ),
                    ),
                ]),
        );
        std::fs::write(BASELINE_PATH, doc.encode() + "\n").expect("write baseline");
        println!("baseline updated: {BASELINE_PATH}");
        return;
    }

    let Ok(text) = std::fs::read_to_string(BASELINE_PATH) else {
        eprintln!(
            "ci_smoke: no baseline at {BASELINE_PATH}; \
             run with RLR_UPDATE_BENCH_BASELINE=1 to create it"
        );
        std::process::exit(1);
    };
    let baseline = Json::parse(&text).ok();
    let mut failed = false;
    for gate in &gates {
        let base =
            baseline.as_ref().and_then(|doc| doc.get(gate.field)?.as_str()?.parse::<f64>().ok());
        let Some(base) = base else {
            eprintln!(
                "ci_smoke: baseline at {BASELINE_PATH} lacks the {} field; \
                 regenerate with RLR_UPDATE_BENCH_BASELINE=1",
                gate.field
            );
            failed = true;
            continue;
        };
        let limit = base * gate.tolerance;
        let kind = match gate.bound {
            Bound::Floor => "floor",
            Bound::Ceiling => "ceiling",
        };
        println!("{}: baseline {base:.2}, {kind} {limit:.2}", gate.label);
        if !gate.bound.holds(&gate.ratios, limit) {
            eprintln!(
                "ci_smoke: {} regressed: at least 3/4 of rounds past the {kind} {limit:.2} \
                 (baseline {base:.2})",
                gate.label
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ci_smoke: OK");
}
