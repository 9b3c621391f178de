//! Integration tests for the substrate extensions: DRAM row buffers,
//! KPC-P prefetching, and trace record/replay.

use cache_sim::{SingleCoreSystem, SystemConfig, TrueLru};
use workloads::{Recipe, TraceEntry, Workload};

#[test]
fn streams_enjoy_dram_row_locality_chases_do_not() {
    let config = SystemConfig::paper_single_core();
    let run = |wl: &Workload| {
        let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
        system.run(wl.stream(), 400_000)
    };
    let stream = run(
        &Workload::new("s", Recipe::Cyclic { bytes: 32 << 20, stride: 64, store_ratio: 0.0 })
            .with_local(0.0),
    );
    let chase = run(&Workload::new("c", Recipe::Chase { bytes: 64 << 20 }).with_local(0.0));
    assert!(
        stream.dram_row_hit_rate() > chase.dram_row_hit_rate() + 0.2,
        "sequential memory traffic must hit open rows far more: {:.2} vs {:.2}",
        stream.dram_row_hit_rate(),
        chase.dram_row_hit_rate()
    );
}

#[test]
fn row_locality_translates_into_ipc() {
    // Same instruction mix, same miss count class — the streaming version
    // must be faster than the row-jumping one because of DRAM latency alone
    // (prefetchers disabled to isolate the memory system).
    let config = SystemConfig::paper_single_core().without_prefetchers();
    let run = |wl: &Workload| {
        let mut system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
        system.run(wl.stream(), 300_000)
    };
    let sequential = run(
        &Workload::new("seq", Recipe::Cyclic { bytes: 64 << 20, stride: 64, store_ratio: 0.0 })
            .with_local(0.0)
            .with_compute(2, 2),
    );
    // Stride of a full DRAM row (8 KB) jumps rows every access.
    let jumping = run(
        &Workload::new("jump", Recipe::Cyclic { bytes: 64 << 20, stride: 8192, store_ratio: 0.0 })
            .with_local(0.0)
            .with_compute(2, 2),
    );
    assert!(
        sequential.ipc() > jumping.ipc(),
        "row hits must be cheaper: {:.3} vs {:.3}",
        sequential.ipc(),
        jumping.ipc()
    );
}

#[test]
fn kpc_prefetcher_runs_and_limits_l2_fills() {
    use cache_sim::AccessKind;
    let ip = SystemConfig::paper_single_core();
    let kpc = SystemConfig::paper_single_core().with_kpc_prefetcher();
    let wl = Workload::new("mix", Recipe::Mix(vec![
        (1, Recipe::Cyclic { bytes: 16 << 20, stride: 64, store_ratio: 0.1 }),
        (1, Recipe::Zipf { bytes: 8 << 20, skew: 0.9, store_ratio: 0.2 }),
    ]))
    .with_local(0.5);
    let run = |config: &SystemConfig| {
        let mut system = SingleCoreSystem::new(config, Box::new(TrueLru::new(&config.llc)));
        system.run(wl.stream(), 500_000)
    };
    let with_ip = run(&ip);
    let with_kpc = run(&kpc);
    // Both prefetch into the LLC.
    assert!(with_ip.llc.by_kind[AccessKind::Prefetch.index()].accesses > 0);
    assert!(with_kpc.llc.by_kind[AccessKind::Prefetch.index()].accesses > 0);
    // KPC-P's low-confidence prefetches skip L2, so L2 sees fewer prefetch
    // fills relative to its LLC prefetch issue volume.
    let ip_l2_pf = with_ip.l2.by_kind[AccessKind::Prefetch.index()].accesses as f64
        / with_ip.llc.by_kind[AccessKind::Prefetch.index()].accesses.max(1) as f64;
    let kpc_l2_pf = with_kpc.l2.by_kind[AccessKind::Prefetch.index()].accesses as f64
        / with_kpc.llc.by_kind[AccessKind::Prefetch.index()].accesses.max(1) as f64;
    assert!(
        kpc_l2_pf <= ip_l2_pf + 0.5,
        "KPC-P must not flood L2 more than IP-stride: {kpc_l2_pf:.2} vs {ip_l2_pf:.2}"
    );
}

#[test]
fn recorded_traces_drive_the_simulator_identically() {
    let config = SystemConfig::paper_single_core();
    let wl = Workload::new("rec", Recipe::Zipf { bytes: 4 << 20, skew: 1.0, store_ratio: 0.3 });
    let recorded: Vec<TraceEntry> = wl.stream().take(200_000).collect();

    let mut live_system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
    let live = live_system.run(wl.stream(), 100_000);

    let mut replay_system = SingleCoreSystem::new(&config, Box::new(TrueLru::new(&config.llc)));
    let replayed = replay_system.run(recorded.into_iter(), 100_000);

    assert_eq!(live, replayed, "a recorded stream must replay bit-identically");
}
