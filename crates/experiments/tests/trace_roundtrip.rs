//! The trace-io acceptance wall: a captured 429.mcf LLC trace must
//! round-trip bit-identically through the compressed container, the
//! streaming capture must produce the identical record stream as the
//! in-memory capture, streaming replay must produce identical statistics
//! to in-memory replay, and the container must stay at or under half the
//! raw fixed-width encoding. The capture stop rule is pinned too: the
//! record quota counts only post-warm-up records, the instruction ceiling
//! ends a capture that cannot fill its quota, and a sink error ends it.

use cache_sim::{SetAssocCache, SystemConfig};
use experiments::runner::{capture_llc, capture_llc_trace, replay_llc_reader, replay_llc_trace};
use experiments::{PolicyKind, RunnerError, Scale};
use trace_io::{TraceReader, TraceWriter};

const RECORDS: usize = 20_000;

fn mcf_trace() -> cache_sim::LlcTrace {
    let wl = workloads::spec2006("429.mcf").expect("known benchmark");
    capture_llc_trace(&wl, Scale::Small, RECORDS).expect("capture succeeds")
}

#[test]
fn container_round_trip_is_bit_identical() {
    let trace = mcf_trace();
    assert_eq!(trace.len(), RECORDS);
    let bytes = trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode");
    let back = TraceReader::new(bytes.as_slice())
        .expect("valid header")
        .read_to_trace()
        .expect("valid container");
    assert_eq!(trace, back, "container round-trip must be bit-identical");
}

#[test]
fn streaming_capture_matches_in_memory_capture() {
    let wl = workloads::spec2006("429.mcf").expect("known benchmark");
    let reference = mcf_trace();
    let mut writer = TraceWriter::new(Vec::new()).expect("header");
    let (warmup, ceiling) = (Scale::Small.warmup() / 2, 40 * Scale::Small.instructions());
    let written = capture_llc(&wl, warmup, RECORDS as u64, ceiling, |slice| {
        writer.extend(slice).map_err(Box::<dyn std::error::Error>::from)
    })
    .expect("streaming capture succeeds");
    assert_eq!(written, RECORDS as u64);
    let bytes = writer.finish().expect("finish");
    let streamed = TraceReader::new(bytes.as_slice())
        .expect("valid header")
        .read_to_trace()
        .expect("valid container");
    assert_eq!(reference, streamed, "drain-based capture must produce the same stream");
}

#[test]
fn streaming_replay_matches_in_memory_replay() {
    let trace = mcf_trace();
    let config = SystemConfig::paper_single_core();
    let in_memory = {
        let mut cache =
            SetAssocCache::new("LLC", config.llc, PolicyKind::Rlr.build(&config.llc, None));
        replay_llc_trace(&mut cache, &trace)
    };
    // Deliberately small blocks so the replay crosses many block
    // boundaries (and the per-block delta restart actually matters).
    let bytes = trace_io::encode_trace(&trace, 512).expect("encode");
    let streamed = {
        let mut reader = TraceReader::new(bytes.as_slice()).expect("valid header");
        let mut cache =
            SetAssocCache::new("LLC", config.llc, PolicyKind::Rlr.build(&config.llc, None));
        replay_llc_reader(&mut cache, &mut reader).expect("valid container")
    };
    assert_eq!(in_memory, streamed, "streaming replay must be statistically identical");
    assert!(in_memory.accesses == RECORDS as u64);
    assert!(in_memory.demand_hits > 0, "mcf replay should see some demand hits");
}

#[test]
fn compression_stays_at_or_under_half_of_raw() {
    let trace = mcf_trace();
    let bytes = trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode");
    let raw = 12 + 18 * trace.len();
    assert!(
        bytes.len() * 2 <= raw,
        "container must be <= 50% of the fixed-width encoding: {} vs {} raw",
        bytes.len(),
        raw
    );
}

#[test]
fn capture_after_warm_up_delivers_exactly_the_quota() {
    // A 1M-instruction warm-up sends ~19k mcf accesses to the LLC; none of
    // them may count toward the quota.
    let wl = workloads::spec2006("429.mcf").expect("known benchmark");
    let mut seen = 0usize;
    let delivered = capture_llc(&wl, 1_000_000, RECORDS as u64, u64::MAX, |slice| {
        seen += slice.len();
        Ok::<_, RunnerError>(())
    })
    .expect("capture succeeds");
    assert_eq!(delivered, RECORDS as u64);
    assert_eq!(seen, RECORDS);
}

#[test]
fn instruction_ceiling_stops_a_capture_short_of_its_quota() {
    // A 16 KiB loop lives in the L1D: almost nothing reaches the LLC, so
    // only the 3M-instruction ceiling (three 1M slices) ends the capture.
    let wl = workloads::Workload::new(
        "l1-loop",
        workloads::Recipe::Cyclic { bytes: 16 << 10, stride: 64, store_ratio: 0.0 },
    );
    let (mut seen, mut slices) = (0u64, 0u32);
    let delivered = capture_llc(&wl, 100_000, 10_000, 3_000_000, |slice| {
        seen += slice.len() as u64;
        slices += 1;
        Ok::<_, RunnerError>(())
    })
    .expect("capture succeeds");
    assert!(delivered < 10_000, "an L1-resident loop filled the quota: {delivered}");
    assert_eq!(seen, delivered, "the sink saw exactly the returned count");
    assert_eq!(slices, 3, "the ceiling is reached after the third slice");
}

#[derive(Debug, PartialEq)]
enum SinkError {
    Full(usize),
    Runner(RunnerError),
}

impl From<RunnerError> for SinkError {
    fn from(e: RunnerError) -> Self {
        Self::Runner(e)
    }
}

#[test]
fn sink_error_stops_the_capture_and_comes_back_unchanged() {
    let wl = workloads::spec2006("429.mcf").expect("known benchmark");
    let mut calls = 0u32;
    let err = capture_llc(&wl, 0, RECORDS as u64, u64::MAX, |slice| {
        calls += 1;
        Err(SinkError::Full(slice.len()))
    })
    .expect_err("the sink refused the first slice");
    assert!(matches!(err, SinkError::Full(n) if n > 0), "{err:?}");
    assert_eq!(calls, 1, "no slice is simulated after the sink fails");
}
