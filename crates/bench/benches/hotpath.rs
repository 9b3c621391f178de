//! Perf trajectory of the hot-path rewrite: the frozen reference cache
//! (array-of-structs, `Box<dyn>` dispatch, unconditional snapshots) vs
//! the packed, statically dispatched [`SetAssocCache`].
//!
//! Two sweeps, both recorded to `results/bench/hotpath.json` in
//! accesses/sec:
//!
//! * **Per policy** — replay of the captured 429.mcf LLC trace (the
//!   paper's most memory-bound training benchmark) through both
//!   implementations; the headline number is the packed path's speedup.
//! * **Per hierarchy level** — demand accesses over cyclic working sets
//!   resident in L1, L2, and the LLC, through the full
//!   `CoreHierarchy` + `SharedLlc` stack.

use std::hint::black_box;

use cache_sim::{
    Access, CoreHierarchy, LlcTrace, ReferenceCache, SetAssocCache, SharedLlc, SingleCoreSystem,
    SystemConfig, TimingMode,
};
use experiments::runner::{
    demand_requests, replay_hierarchy, replay_llc_reader, replay_llc_trace, HierarchyReplayMode,
};
use experiments::PolicyKind;
use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, ScanWays};
use rlr_bench::harness::{self, Throughput};
use trace_io::TraceReader;

const WARMUP: u64 = 200_000;
const MEASURE: u64 = 800_000;

/// The LLC stream is policy-invariant, so one capture serves every
/// policy.
fn capture_mcf(config: &SystemConfig) -> LlcTrace {
    let mut system = SingleCoreSystem::new(config, PolicyKind::Lru.build(&config.llc, None));
    system.llc_mut().enable_capture();
    let mut stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
    system.warm_up(&mut stream, WARMUP);
    let _ = system.run(stream, MEASURE);
    system.llc_mut().take_capture().expect("capture enabled")
}

/// The old path's replay loop: one virtual-dispatch access per record.
fn replay_reference(cache: &mut ReferenceCache, trace: &LlcTrace) -> u64 {
    let mut hits = 0u64;
    for (seq, r) in trace.records().iter().enumerate() {
        let access =
            Access { pc: r.pc, addr: r.line << 6, kind: r.kind, core: r.core, seq: seq as u64 };
        hits += u64::from(cache.access(&access).hit);
    }
    hits
}

fn main() {
    let _ = rlr_bench::start("hotpath");
    let config = SystemConfig::paper_single_core();
    let trace = capture_mcf(&config);
    let accesses = trace.len() as u64;
    println!("captured 429.mcf LLC trace: {accesses} accesses");

    let mut rows: Vec<Throughput> = Vec::new();
    let mut headline = 0.0f64;
    println!("llc_trace_replay (429.mcf), reference vs packed:");
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::KpcR,
        PolicyKind::Ship,
        PolicyKind::ShipPp,
        PolicyKind::Hawkeye,
        PolicyKind::Pdp,
        PolicyKind::Eva,
        PolicyKind::Rlr,
        PolicyKind::RlrUnopt,
        PolicyKind::RlrMulticore,
    ] {
        let old = harness::bench(&format!("llc_replay/{kind:?}/reference"), || {
            let mut cache =
                ReferenceCache::new("ref", config.llc, Box::new(kind.build(&config.llc, None)));
            black_box(replay_reference(&mut cache, &trace))
        });
        let new = harness::bench(&format!("llc_replay/{kind:?}/packed"), || {
            let mut cache = SetAssocCache::new("packed", config.llc, kind.build(&config.llc, None));
            black_box(replay_llc_trace(&mut cache, &trace).hits)
        });
        let speedup = old.median_ns as f64 / new.median_ns.max(1) as f64;
        println!("    {kind:?}: {speedup:.2}x");
        if kind == PolicyKind::Rlr {
            headline = speedup;
        }
        rows.push(Throughput { measurement: old, accesses });
        rows.push(Throughput { measurement: new, accesses });
    }
    println!("cache-only: packed RLR replay is {headline:.2}x the reference cache");

    // Headline: the whole overhaul. Old path = seed simulator (AoS cache,
    // `Box<dyn>` dispatch, unconditional snapshots, seed RLR policy with
    // three metadata arrays and a triple-age victim scan); new path =
    // packed cache + packed single-scan policy.
    let seed = harness::bench("llc_replay/Rlr/seed", || {
        let mut cache = ReferenceCache::new(
            "seed",
            config.llc,
            Box::new(rlr::SeedRlrPolicy::optimized(&config.llc)),
        );
        black_box(replay_reference(&mut cache, &trace))
    });
    let packed = harness::bench("llc_replay/Rlr/packed_headline", || {
        let mut cache =
            SetAssocCache::new("packed", config.llc, PolicyKind::Rlr.build(&config.llc, None));
        black_box(replay_llc_trace(&mut cache, &trace).hits)
    });
    let overall = seed.median_ns as f64 / packed.median_ns.max(1) as f64;
    println!("headline: packed RLR replay is {overall:.2}x the seed simulator");
    rows.push(Throughput { measurement: seed, accesses });
    rows.push(Throughput { measurement: packed, accesses });

    // Compressed trace container vs the raw fixed-width encoding: codec
    // throughput, size ratio, and whether streaming replay from the
    // compressed form keeps up with the in-memory path.
    let compressed = trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN)
        .expect("in-memory encode cannot fail");
    let raw_bytes = 12 + 18 * accesses; // legacy LLCT fixed-width size
    let pct = compressed.len() as f64 * 100.0 / raw_bytes as f64;
    println!(
        "trace_io: container {} bytes vs {} raw fixed-width ({pct:.1}% of raw)",
        compressed.len(),
        raw_bytes
    );
    let enc = harness::bench("trace_io/encode", || {
        black_box(
            trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode").len(),
        )
    });
    let dec = harness::bench("trace_io/decode", || {
        let reader = TraceReader::new(compressed.as_slice()).expect("valid header");
        black_box(reader.read_to_trace().expect("valid container").len())
    });
    let streamed = harness::bench("llc_replay/Rlr/compressed_stream", || {
        let mut reader = TraceReader::new(compressed.as_slice()).expect("valid header");
        let mut cache =
            SetAssocCache::new("packed", config.llc, PolicyKind::Rlr.build(&config.llc, None));
        black_box(replay_llc_reader(&mut cache, &mut reader).expect("valid container").hits)
    });
    rows.push(Throughput { measurement: enc, accesses });
    rows.push(Throughput { measurement: dec, accesses });
    rows.push(Throughput { measurement: streamed, accesses });

    // Per hierarchy level: the private levels are monomorphized TrueLru
    // caches; drive them with working sets each level can hold.
    const LEVEL_ACCESSES: u64 = 200_000;
    println!("hierarchy levels (cyclic resident working sets):");
    for (label, bytes) in
        [("l1_resident", 16u64 << 10), ("l2_resident", 128 << 10), ("llc_resident", 1 << 20)]
    {
        let lines = bytes / 64;
        let m = harness::bench(&format!("hierarchy/{label}"), || {
            let mut core = CoreHierarchy::new(0, &config);
            let mut llc = SharedLlc::new(&config, PolicyKind::Rlr.build(&config.llc, None));
            for i in 0..LEVEL_ACCESSES {
                let addr = (i % lines) * 64;
                black_box(core.data_access(0x400 + (i % 32) * 4, addr, i % 13 == 0, &mut llc));
            }
        });
        rows.push(Throughput { measurement: m, accesses: LEVEL_ACCESSES });
    }

    // Full three-level replay of the captured 429.mcf demand stream
    // (counters pinned by `experiments/tests/hierarchy_golden.rs`).
    let requests = demand_requests(&trace);
    let demand = requests.len() as u64;
    println!("hierarchy_replay (429.mcf demand stream, {demand} requests):");
    let m = harness::bench("hierarchy_replay/per_access", || {
        let mut core = CoreHierarchy::new(0, &config);
        let mut llc = SharedLlc::new(&config, PolicyKind::Rlr.build(&config.llc, None));
        let mode = HierarchyReplayMode::PerAccess;
        black_box(replay_hierarchy(&mut core, &mut llc, &requests, mode).len())
    });
    rows.push(Throughput { measurement: m, accesses: demand });

    // Timing modes over the full system: the analytic MLP formula vs the
    // discrete-event core with DRAM bank queueing. Same functional stream
    // in both (wall-checked by `experiments/tests/timing_differential.rs`);
    // the row pair tracks how much simulated-time fidelity costs.
    const TIMING_INSTRUCTIONS: u64 = 300_000;
    println!("timing modes (full system, 429.mcf, {TIMING_INSTRUCTIONS} instructions):");
    let mut timing_rows = [0.0f64; 2];
    for (slot, mode) in [TimingMode::Analytic, TimingMode::Event].into_iter().enumerate() {
        let timed = config.with_timing(mode);
        let m = harness::bench(&format!("timing/{mode}"), || {
            let mut system =
                SingleCoreSystem::new(&timed, PolicyKind::Rlr.build(&timed.llc, None));
            let stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
            black_box(system.run(stream, TIMING_INSTRUCTIONS).cycles)
        });
        timing_rows[slot] = m.min_ns as f64;
        rows.push(Throughput { measurement: m, accesses: TIMING_INSTRUCTIONS });
    }
    println!(
        "    event core costs {:.2}x the analytic formula",
        timing_rows[1] / timing_rows[0].max(1.0)
    );

    // The victim scan in isolation: the RLR per-way key computation over
    // LLC-shaped sets, scalar reference vs lane-parallel backend.
    let (params, age_stamps, rec_stamps, metas) = scan_fixture(&config);
    let sets = config.llc.sets as usize;
    let ways = usize::from(config.llc.ways);
    let mut scan_rows = [0.0f64; 2];
    for (slot, label) in ["scalar", "simd"].into_iter().enumerate() {
        let m = harness::bench(&format!("victim_scan/{label}"), || {
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
                let outcome = if slot == 0 {
                    scan::scan_scalar(&params, &scan_ways)
                } else {
                    scan::scan_lanes(&params, &scan_ways)
                };
                acc ^= outcome.best_key;
            }
            black_box(acc)
        });
        scan_rows[slot] = m.min_ns as f64;
        rows.push(Throughput { measurement: m, accesses: sets as u64 });
    }
    println!(
        "victim_scan: lane backend is {:.2}x the scalar reference \
         ({sets} sets x {ways} ways per call)",
        scan_rows[0] / scan_rows[1].max(1.0)
    );

    // The object-cache serving tier: replay a Zipf + flash-crowd object
    // trace (variable sizes, byte budget, TTLs) through the roster's two
    // poles — plain LRU and the derived admission+eviction rule, whose
    // extra work (frequency sketch, rank recomputation) is what this row
    // prices. Functional results are wall-checked by the objcache
    // differential suite; this tracks requests/sec only.
    let obj_traffic = workloads::ObjectTraffic {
        catalog: 100_000,
        flash_every: 10_000,
        flash_len: 2_000,
        ..workloads::ObjectTraffic::internet_default()
    };
    let obj_trace: Vec<workloads::ObjectRequest> = obj_traffic.stream().take(60_000).collect();
    let obj_cfg = objcache::ObjCacheConfig::with_capacity_mib(64);
    println!("objcache_replay ({} object requests):", obj_trace.len());
    let mut obj_ns = [0.0f64; 2];
    for (slot, policy) in
        [objcache::ObjPolicyKind::Lru, objcache::ObjPolicyKind::parse("rlr").expect("pinned")]
            .into_iter()
            .enumerate()
    {
        let m = harness::bench(&format!("objcache/replay/{}", policy.name()), || {
            black_box(objcache::replay(obj_cfg, policy, obj_trace.iter().copied()).hit_bytes)
        });
        obj_ns[slot] = m.median_ns as f64;
        rows.push(Throughput { measurement: m, accesses: obj_trace.len() as u64 });
    }
    println!(
        "    derived rule costs {:.2}x plain LRU per request",
        obj_ns[1] / obj_ns[0].max(1.0)
    );

    // The multi-tenant serving tier: the pinned three-class mix (synthetic
    // sources, per-tenant address spaces) through the multi-tenant LLC in
    // each isolation mode, against the bare packed cache + RLR policy on
    // the same stream. Prices the tenancy layer — tenant policy, owner
    // mirror, QoS + DRAM-latency accounting — per isolation mode.
    const TENANT_ACCESSES: usize = 200_000;
    let mix = workloads::TenantMix::default_three_class();
    let streams: Vec<_> = mix
        .tenants
        .iter()
        .map(|t| t.source.synthetic_stream().expect("the default mix is synthetic"))
        .collect();
    let tenant_rows: Vec<(u8, u64, u64)> =
        workloads::WeightedInterleave::new(streams, &mix.rates(), mix.seed)
            .take(TENANT_ACCESSES)
            .map(|(t, a)| {
                let salt = (t as u64 + 1) << 40;
                (t as u8, a.pc ^ salt, (a.line ^ salt) << 6)
            })
            .collect();
    let tenant_llc = cache_sim::CacheConfig { sets: 256, ways: 8, latency: 26 };
    let mut tenant_cfg = config.clone();
    tenant_cfg.llc = tenant_llc;
    println!("tenancy replay (3-class mix, {TENANT_ACCESSES} accesses):");
    let single = harness::bench("tenancy/single_tenant", || {
        let mut cache =
            SetAssocCache::new("packed", tenant_llc, PolicyKind::Rlr.build(&tenant_llc, None));
        let mut hits = 0u64;
        for (seq, &(_, pc, addr)) in tenant_rows.iter().enumerate() {
            let access = Access {
                pc,
                addr,
                kind: cache_sim::AccessKind::Load,
                core: 0,
                seq: seq as u64,
            };
            hits += u64::from(cache.access(&access).hit);
        }
        black_box(hits)
    });
    let single_ns = single.median_ns.max(1) as f64;
    rows.push(Throughput { measurement: single, accesses: TENANT_ACCESSES as u64 });
    for (label, mode) in [
        ("shared", tenancy::IsolationMode::Shared),
        (
            "way_partition",
            tenancy::IsolationMode::WayPartition(tenancy::partition_by_weight(
                tenant_llc.ways,
                &mix.weights(),
            )),
        ),
        ("learned_priority", tenancy::IsolationMode::LearnedPriority(vec![4, 1, 0])),
    ] {
        let m = harness::bench(&format!("tenancy/replay/{label}"), || {
            let mut sys = tenancy::MultiTenantLlc::new(&tenant_cfg, 3, mode.clone());
            for &(t, pc, addr) in &tenant_rows {
                sys.access(t, pc, addr, cache_sim::AccessKind::Load);
            }
            black_box(sys.qos_all().iter().map(|q| q.hits).sum::<u64>())
        });
        println!(
            "    {label}: {:.2}x the bare packed path",
            m.median_ns as f64 / single_ns
        );
        rows.push(Throughput { measurement: m, accesses: TENANT_ACCESSES as u64 });
    }

    harness::write_throughput_json("hotpath", &rows);
}

/// Deterministic per-way scan inputs shaped like a warm LLC: epoch-unit
/// ages a few epochs deep, recency stamps spread over the last few
/// thousand accesses, mixed access types and hit counts.
fn scan_fixture(config: &SystemConfig) -> (ScanParams, Vec<u64>, Vec<u64>, Vec<LineMeta>) {
    let lines = config.llc.sets as usize * usize::from(config.llc.ways);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let now = 1 << 20;
    let clock = 1 << 24;
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
    (params, age_stamps, rec_stamps, metas)
}
