//! Round-trip wall for per-core capture: a multi-core mix captured into
//! one `RLT1` container must carry core ids end-to-end, split cleanly per
//! core, and reassemble into exactly the original stream.

use cache_sim::LlcTrace;
use experiments::runner::capture_mix_llc_trace;
use experiments::Scale;

#[test]
fn mix_capture_splits_per_core_and_reassembles_exactly() {
    let trace = capture_mix_llc_trace(&["429.mcf", "470.lbm"], Scale::Small, 20_000)
        .expect("both benchmarks are in the roster");
    assert!(trace.len() >= 10_000, "mix capture produced only {} records", trace.len());
    let cores = trace.cores();
    assert_eq!(cores, vec![0, 1], "both cores reach the shared LLC");

    // Through the container and back, then split.
    let dir = std::env::temp_dir().join(format!("rlr-mix-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mix.rlt");
    trace_io::write_trace_file(&path, &trace, trace_io::DEFAULT_BLOCK_LEN).expect("container writes");
    let reread = trace_io::read_trace_file(&path).expect("container decodes");
    assert_eq!(reread.records(), trace.records(), "container round trip is exact");

    let per_core: Vec<LlcTrace> = cores.iter().map(|&c| reread.filter_core(c)).collect();
    let total: usize = per_core.iter().map(LlcTrace::len).sum();
    assert_eq!(total, trace.len(), "the split partitions the trace");
    for (slice, &core) in per_core.iter().zip(&cores) {
        assert!(!slice.is_empty());
        assert!(slice.records().iter().all(|r| r.core == core), "split leaks another core");
    }

    // Reassemble by stable merge on original order: filter_core preserves
    // order, so walking the full trace and popping from the right slice
    // must consume every slice exactly.
    let mut idx = vec![0usize; cores.len()];
    for r in trace.records() {
        let c = usize::from(r.core);
        assert_eq!(per_core[c].records()[idx[c]], *r);
        idx[c] += 1;
    }
    assert!(idx.iter().zip(&per_core).all(|(&i, t)| i == t.len()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mix_capture_is_deterministic() {
    let a = capture_mix_llc_trace(&["429.mcf", "403.gcc"], Scale::Small, 4_000).unwrap();
    let b = capture_mix_llc_trace(&["429.mcf", "403.gcc"], Scale::Small, 4_000).unwrap();
    assert_eq!(a.records(), b.records(), "capture is a pure function of its inputs");
}
