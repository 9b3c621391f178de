//! CI bench smoke: guards the hot-path speedup with a sub-second replay.
//!
//! Absolute accesses/sec vary wildly across CI machines, so the gate is
//! the *ratio* between the seed path (reference cache + seed RLR policy)
//! and the packed hot path, measured
//! in-process back to back: both paths see the same machine, load, and
//! frequency scaling, and the ratio cancels them out. The run fails
//! (non-zero exit) when the measured speedup drops more than 20% below
//! the checked-in baseline in `crates/bench/ci_baseline.json`.
//!
//! Regenerate the baseline after deliberate hot-path changes with
//! `RLR_UPDATE_BENCH_BASELINE=1 cargo bench --offline -p rlr-bench --bench ci_smoke`.
//!
//! Beside the gated ratios it records, ungated, the rows perfbench has no
//! counterpart for: RLT1 trace encode and per-level hierarchy throughput.

use std::hint::black_box;

use cache_sim::{
    Access, CoreHierarchy, LlcTrace, ReferenceCache, SetAssocCache, SharedLlc, SingleCoreSystem,
    SystemConfig, TimingMode,
};
use experiments::runner::replay_llc_trace;
use experiments::PolicyKind;
use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, ScanWays};
use rlr_bench::harness::{self, Throughput};

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/ci_baseline.json");
/// Fail when the measured speedup falls below this fraction of baseline.
const TOLERANCE: f64 = 0.8;
/// Fail when the analytic-vs-event cost ratio climbs above this multiple
/// of baseline — i.e. the analytic replay path regressed relative to the
/// (heavier) event core measured on the same machine in the same process.
const TIMING_TOLERANCE: f64 = 1.05;
/// Fail when the multi-tenant-vs-single-tenant replay cost ratio climbs
/// above this multiple of baseline — i.e. the tenancy layer (tenant
/// policy, owner mirror, QoS + DRAM-latency accounting) got more
/// expensive relative to the bare packed path it wraps. Wider than the
/// timing gate: the ratio divides two sub-100ms replays, so it carries
/// more scheduler noise than the paired-round timing median.
const TENANCY_TOLERANCE: f64 = 1.25;

fn capture_small_trace(config: &SystemConfig) -> LlcTrace {
    let mut system = SingleCoreSystem::new(config, PolicyKind::Lru.build(&config.llc, None));
    system.llc_mut().enable_capture();
    let mut stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
    system.warm_up(&mut stream, 100_000);
    let _ = system.run(stream, 400_000);
    system.llc_mut().take_capture().expect("capture enabled")
}

/// Pulls one numeric field out of the baseline JSON without a parser dep.
/// The needle includes the quotes and colon, so `"speedup":` never
/// false-matches inside `"simd_speedup":`.
fn baseline_field(text: &str, key: &str) -> Option<f64> {
    let tail = text.split(&format!("\"{key}\":")).nth(1)?;
    tail.trim_start().split(|c: char| c != '.' && !c.is_ascii_digit()).next()?.parse().ok()
}

/// The in-process victim-scan ratio: scalar reference vs lane backend over
/// LLC-shaped sets on deterministic warm-cache data. Returns
/// `scalar_min_ns / lanes_min_ns` — the SIMD-path speedup this machine
/// sees right now — plus both measurements for the JSON record.
fn victim_scan_speedup(config: &SystemConfig) -> (f64, [Throughput; 2]) {
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
    let mut mins = [0.0f64; 2];
    let mut rows: Vec<Throughput> = Vec::with_capacity(2);
    for (slot, label) in ["scalar", "simd"].into_iter().enumerate() {
        let m = harness::bench(&format!("ci_smoke/victim_scan_{label}"), || {
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
        mins[slot] = m.min_ns.max(1) as f64;
        rows.push(Throughput { measurement: m, accesses: sets as u64 });
    }
    let rows: [Throughput; 2] = rows.try_into().expect("two scan rows");
    (mins[0] / mins[1], rows)
}

/// The timing-layer cost ratio: full-system 429.mcf runs under both
/// timing modes, *paired per round* — analytic then event back to back —
/// so frequency scaling and load drift cancel within each round. Returns
/// the median per-round `analytic_ns / event_ns` ratio — which rises when
/// the analytic replay path gets slower relative to the event core — plus
/// a summary row per mode for the JSON record.
fn timing_mode_ratio(config: &SystemConfig) -> (f64, [Throughput; 2]) {
    const INSTRUCTIONS: u64 = 150_000;
    const ROUNDS: usize = 15;
    let run = |mode: TimingMode| {
        let timed = config.with_timing(mode);
        let mut system = SingleCoreSystem::new(&timed, PolicyKind::Rlr.build(&timed.llc, None));
        let stream = workloads::spec2006("429.mcf").expect("known benchmark").stream();
        black_box(system.run(stream, INSTRUCTIONS).cycles)
    };
    run(TimingMode::Analytic); // warm caches and branch predictors
    run(TimingMode::Event);
    let mut analytic_ns = Vec::with_capacity(ROUNDS);
    let mut event_ns = Vec::with_capacity(ROUNDS);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let begin = std::time::Instant::now();
        run(TimingMode::Analytic);
        let a = begin.elapsed().as_nanos() as u64;
        let begin = std::time::Instant::now();
        run(TimingMode::Event);
        let e = begin.elapsed().as_nanos() as u64;
        analytic_ns.push(a);
        event_ns.push(e);
        ratios.push(a as f64 / e.max(1) as f64);
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let rows = [
        Throughput {
            measurement: harness::Measurement::from_samples(
                "ci_smoke/timing_analytic",
                analytic_ns,
            ),
            accesses: INSTRUCTIONS,
        },
        Throughput {
            measurement: harness::Measurement::from_samples("ci_smoke/timing_event", event_ns),
            accesses: INSTRUCTIONS,
        },
    ];
    (ratios[ROUNDS / 2], rows)
}

/// Per hierarchy level: demand accesses over cyclic working sets resident
/// in L1, L2 and the LLC, through the full `CoreHierarchy` + `SharedLlc`
/// stack.
fn hierarchy_level_rows(config: &SystemConfig) -> Vec<Throughput> {
    const ACCESSES: u64 = 200_000;
    [("l1_resident", 16u64 << 10), ("l2_resident", 128 << 10), ("llc_resident", 1 << 20)]
        .into_iter()
        .map(|(label, bytes)| {
            let lines = bytes / 64;
            let m = harness::bench(&format!("hierarchy/{label}"), || {
                let mut core = CoreHierarchy::new(0, config);
                let mut llc = SharedLlc::new(config, PolicyKind::Rlr.build(&config.llc, None));
                for i in 0..ACCESSES {
                    let addr = (i % lines) * 64;
                    black_box(core.data_access(0x400 + (i % 32) * 4, addr, i % 13 == 0, &mut llc));
                }
            });
            Throughput { measurement: m, accesses: ACCESSES }
        })
        .collect()
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
/// Returns `tenant_min_ns / single_min_ns` plus both rows for the JSON
/// record.
fn tenancy_replay_ratio() -> (f64, [Throughput; 2]) {
    const ACCESSES: usize = 60_000;
    let rows = tenant_mix_rows(ACCESSES);
    let llc = cache_sim::CacheConfig { sets: 256, ways: 8, latency: 26 };
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = llc;
    let tenant = harness::bench("tenancy/replay", || {
        let mut sys = tenancy::MultiTenantLlc::new(
            &cfg,
            3,
            tenancy::IsolationMode::LearnedPriority(vec![4, 1, 0]),
        );
        for &(t, pc, addr) in &rows {
            sys.access(t, pc, addr, cache_sim::AccessKind::Load);
        }
        black_box(sys.qos_all().iter().map(|q| q.hits).sum::<u64>())
    });
    let single = harness::bench("tenancy/single_tenant", || {
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
        black_box(hits)
    });
    let ratio = tenant.min_ns.max(1) as f64 / single.min_ns.max(1) as f64;
    let rows = [
        Throughput { measurement: tenant, accesses: ACCESSES as u64 },
        Throughput { measurement: single, accesses: ACCESSES as u64 },
    ];
    (ratio, rows)
}

fn main() {
    let _ = rlr_bench::start("ci_smoke");
    let config = SystemConfig::paper_single_core();
    let trace = capture_small_trace(&config);
    let accesses = trace.len() as u64;
    println!("captured smoke trace: {accesses} LLC accesses");

    let old = harness::bench("ci_smoke/seed", || {
        let mut cache = ReferenceCache::new(
            "seed",
            config.llc,
            Box::new(rlr::SeedRlrPolicy::optimized(&config.llc)),
        );
        let mut hits = 0u64;
        for (seq, r) in trace.records().iter().enumerate() {
            let access =
                Access { pc: r.pc, addr: r.line << 6, kind: r.kind, core: r.core, seq: seq as u64 };
            hits += u64::from(cache.access(&access).hit);
        }
        black_box(hits)
    });
    let new = harness::bench("ci_smoke/packed", || {
        let mut cache =
            SetAssocCache::new("packed", config.llc, PolicyKind::Rlr.build(&config.llc, None));
        black_box(replay_llc_trace(&mut cache, &trace).hits)
    });
    // Min-over-iters is the stablest estimator on a noisy CI box.
    let speedup = old.min_ns as f64 / new.min_ns.max(1) as f64;
    println!("measured packed-vs-seed speedup: {speedup:.2}x");

    let (simd_speedup, scan_rows) = victim_scan_speedup(&config);
    println!("measured lane-vs-scalar victim-scan speedup: {simd_speedup:.2}x");
    let [scan_scalar_row, scan_simd_row] = scan_rows;

    let (timing_ratio, timing_rows) = timing_mode_ratio(&config);
    println!("measured analytic-vs-event timing cost ratio: {timing_ratio:.2}");
    let [timing_analytic_row, timing_event_row] = timing_rows;

    let (tenancy_ratio, tenancy_rows) = tenancy_replay_ratio();
    println!("measured multi-tenant-vs-single-tenant replay cost ratio: {tenancy_ratio:.2}");
    let [tenancy_row, tenancy_single_row] = tenancy_rows;

    // Object-cache serving tier, recorded (not gated): requests/sec of the
    // derived admission+eviction rule on a small Zipf + flash-crowd trace,
    // so the perf-over-time report sees the `objcache/replay` trajectory
    // from the same sub-second smoke run.
    let obj_traffic = workloads::ObjectTraffic {
        catalog: 20_000,
        flash_every: 4_000,
        flash_len: 800,
        ..workloads::ObjectTraffic::internet_default()
    };
    let obj_trace: Vec<workloads::ObjectRequest> = obj_traffic.stream().take(20_000).collect();
    let obj_cfg = objcache::ObjCacheConfig::with_capacity_mib(32);
    let obj_row = harness::bench("objcache/replay/RLR-derived", || {
        black_box(
            objcache::replay(
                obj_cfg,
                objcache::ObjPolicyKind::parse("rlr").expect("pinned"),
                obj_trace.iter().copied(),
            )
            .hit_bytes,
        )
    });
    let obj_accesses = obj_trace.len() as u64;
    println!(
        "objcache replay (derived rule): {:.0} requests/sec",
        obj_accesses as f64 * 1e9 / obj_row.median_ns.max(1) as f64
    );

    let encode_row = harness::bench("trace_io/encode", || {
        black_box(
            trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode").len(),
        )
    });

    let mut rows = vec![
        Throughput { measurement: old, accesses },
        Throughput { measurement: new, accesses },
        scan_scalar_row,
        scan_simd_row,
        timing_analytic_row,
        timing_event_row,
        tenancy_row,
        tenancy_single_row,
        Throughput { measurement: obj_row, accesses: obj_accesses },
        Throughput { measurement: encode_row, accesses },
    ];
    rows.extend(hierarchy_level_rows(&config));
    harness::write_throughput_json("ci_smoke", &rows);

    if std::env::var("RLR_UPDATE_BENCH_BASELINE").is_ok_and(|v| !v.trim().is_empty()) {
        let json = format!(
            "{{\"bench\": \"ci_smoke\", \"speedup\": {speedup:.2}, \
             \"simd_speedup\": {simd_speedup:.2}, \
             \"timing_ratio\": {timing_ratio:.2}, \
             \"tenancy_ratio\": {tenancy_ratio:.2}, \
             \"note\": \"packed/reference replay + lane/scalar scan + \
             analytic/event timing + tenancy/single-tenant ratios; \
             regenerate with RLR_UPDATE_BENCH_BASELINE=1\"}}\n"
        );
        std::fs::write(BASELINE_PATH, json).expect("write baseline");
        println!("baseline updated: {BASELINE_PATH}");
        return;
    }

    let text = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(text) => text,
        Err(_) => {
            eprintln!(
                "ci_smoke: no baseline at {BASELINE_PATH}; \
                 run with RLR_UPDATE_BENCH_BASELINE=1 to create it"
            );
            std::process::exit(1);
        }
    };
    let mut failed = false;
    for (label, measured, base) in [
        ("hot-path", speedup, baseline_field(&text, "speedup")),
        ("victim-scan SIMD", simd_speedup, baseline_field(&text, "simd_speedup")),
    ] {
        let Some(base) = base else {
            eprintln!(
                "ci_smoke: baseline at {BASELINE_PATH} lacks the {label} field; \
                 regenerate with RLR_UPDATE_BENCH_BASELINE=1"
            );
            failed = true;
            continue;
        };
        let floor = base * TOLERANCE;
        println!("{label}: baseline {base:.2}x, floor {floor:.2}x");
        if measured < floor {
            eprintln!(
                "ci_smoke: {label} speedup regressed: {measured:.2}x < {floor:.2}x \
                 (baseline {base:.2}x - 20%)"
            );
            failed = true;
        }
    }
    // The timing gate is one-sided the other way: the ratio RISING means
    // the analytic replay path slowed down relative to the event core.
    match baseline_field(&text, "timing_ratio") {
        None => {
            eprintln!(
                "ci_smoke: baseline at {BASELINE_PATH} lacks the timing_ratio field; \
                 regenerate with RLR_UPDATE_BENCH_BASELINE=1"
            );
            failed = true;
        }
        Some(base) => {
            let ceiling = base * TIMING_TOLERANCE;
            println!("timing analytic/event: baseline {base:.2}, ceiling {ceiling:.2}");
            if timing_ratio > ceiling {
                eprintln!(
                    "ci_smoke: analytic timing path regressed: ratio {timing_ratio:.2} > \
                     {ceiling:.2} (baseline {base:.2} + 5%)"
                );
                failed = true;
            }
        }
    }
    // Same one-sided shape for the tenancy layer: the ratio RISING means
    // multi-tenant replay slowed down relative to the packed path.
    match baseline_field(&text, "tenancy_ratio") {
        None => {
            eprintln!(
                "ci_smoke: baseline at {BASELINE_PATH} lacks the tenancy_ratio field; \
                 regenerate with RLR_UPDATE_BENCH_BASELINE=1"
            );
            failed = true;
        }
        Some(base) => {
            let ceiling = base * TENANCY_TOLERANCE;
            println!("tenancy multi/single: baseline {base:.2}, ceiling {ceiling:.2}");
            if tenancy_ratio > ceiling {
                eprintln!(
                    "ci_smoke: multi-tenant replay regressed: ratio {tenancy_ratio:.2} > \
                     {ceiling:.2} (baseline {base:.2} + 25%)"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ci_smoke: OK");
}
