//! Golden-fixture wall for the on-disk container format.
//!
//! `tests/data/golden_429mcf.rlt` was captured once with
//! `rlr trace capture 429.mcf --records 8192 --warmup 200000` and is
//! committed. Every future reader must keep decoding it to the exact
//! same records: these assertions fail if the wire format, the LZ
//! codec, or the varint layer changes incompatibly.

use std::path::Path;

use cache_sim::LlcTrace;
use trace_io::{fnv1a, read_trace_file, scan, TraceReader};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_429mcf.rlt");
const RECORDS: u64 = 8192;

/// fnv1a over the decoded records re-serialized by [`fixed_width`] —
/// i.e. a digest of the *records*, independent of the container's own
/// framing.
const DECODED_DIGEST: u64 = 0x688A_2357_FF6D_4736;

/// A plain fixed-width serialization the digest is taken over: the
/// magic `LLCT`, a `u64` record count, then 18 bytes per record (`pc`,
/// `line`, kind index, core). It exists only to pin the records; no
/// reader of this layout is left.
fn fixed_width(trace: &LlcTrace) -> Vec<u8> {
    let mut out = b"LLCT".to_vec();
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for r in trace.records() {
        out.extend_from_slice(&r.pc.to_le_bytes());
        out.extend_from_slice(&r.line.to_le_bytes());
        out.extend_from_slice(&[r.kind.index() as u8, r.core]);
    }
    out
}

#[test]
fn golden_fixture_scans_clean() {
    let file = std::fs::File::open(FIXTURE).expect("committed fixture exists");
    let summary = scan(std::io::BufReader::new(file)).expect("committed fixture verifies");
    assert_eq!(summary.version, 1);
    assert_eq!(summary.records, RECORDS);
    assert_eq!(summary.blocks, 2);
    assert_eq!(summary.kind_counts, [3610, 328, 3940, 314]);
    assert!(
        summary.compressed_pct_of_fixed() <= 50.0,
        "fixture must stay at or under half of fixed-width: {:.1}%",
        summary.compressed_pct_of_fixed()
    );
}

#[test]
fn golden_fixture_decodes_to_pinned_records() {
    let trace = read_trace_file(Path::new(FIXTURE)).expect("committed fixture decodes");
    assert_eq!(trace.len(), RECORDS as usize);
    assert_eq!(
        fnv1a(&fixed_width(&trace)),
        DECODED_DIGEST,
        "decoded records changed — the container format is no longer stable"
    );
}

#[test]
fn golden_fixture_round_trips_through_the_container() {
    let trace = read_trace_file(Path::new(FIXTURE)).expect("committed fixture decodes");
    let reencoded = trace_io::encode_trace(&trace, trace_io::DEFAULT_BLOCK_LEN).expect("encode");
    let twice = TraceReader::new(reencoded.as_slice())
        .expect("valid header")
        .read_to_trace()
        .expect("valid container");
    assert_eq!(trace, twice);
}
