//! The trace-io acceptance wall: a captured 429.mcf LLC trace must
//! round-trip bit-identically through the compressed container, the
//! streaming capture must produce the identical record stream as the
//! in-memory capture, streaming replay must produce identical statistics
//! to in-memory replay, and the container must stay at or under half the
//! raw fixed-width encoding. The capture stop rule is pinned too: the
//! record quota counts only post-warm-up records, the instruction ceiling
//! ends a capture that cannot fill its quota, and a sink error ends it.
//! Streamed replay, which decodes ahead on a helper thread (inline on a
//! one-CPU host), must match a plain serial decode loop on intact and
//! damaged containers alike.

use cache_sim::{Access, AccessKind, CacheStats, LlcRecord, SetAssocCache, SystemConfig};
use experiments::runner::{
    capture_llc, capture_llc_trace, replay_llc_reader, replay_llc_trace, ReplaySummary,
};
use experiments::{PolicyKind, RunnerError, Scale};
use simrng::prop::{check, Config};
use simrng::{prop_assert_eq, Rng, SimRng};
use trace_io::{TraceIoError, TraceReader, TraceWriter};

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

/// How a generated container is damaged after encoding: `kind` 0 leaves
/// it intact, 1 flips one byte and 2 truncates it, at `at` modulo its
/// length.
#[derive(Clone, Copy, Debug)]
struct Damage {
    block_len: u32,
    kind: u8,
    at: u64,
}

fn random_container(rng: &mut SimRng) -> (Vec<LlcRecord>, Damage) {
    let n = rng.gen_range(0..400usize);
    let records = (0..n)
        .map(|_| LlcRecord {
            pc: 0x40_0000 + rng.gen_range(0..64u64) * 4,
            line: rng.gen_range(0..1u64 << 20),
            kind: AccessKind::ALL[rng.gen_range(0..4usize)],
            core: 0,
        })
        .collect();
    let damage = Damage {
        block_len: rng.gen_range(1..65u32),
        kind: rng.gen_range(0..3u8),
        at: rng.next_u64(),
    };
    (records, damage)
}

fn damaged_bytes(records: &[LlcRecord], damage: Damage) -> Vec<u8> {
    let trace: cache_sim::LlcTrace = records.iter().copied().collect();
    let mut bytes = trace_io::encode_trace(&trace, damage.block_len).expect("encode");
    let at = (damage.at % bytes.len() as u64) as usize;
    match damage.kind {
        1 => bytes[at] ^= 1 << (damage.at % 8),
        2 => bytes.truncate(at),
        _ => {}
    }
    bytes
}

/// What one replay leaves behind: the summary or the error text, the
/// cache's counters, and the reader's block and record counts.
type Replayed = (Result<ReplaySummary, String>, CacheStats, u64, u64);

fn llc() -> SetAssocCache<experiments::LlcPolicy> {
    let config = SystemConfig::paper_single_core();
    SetAssocCache::new("LLC", config.llc, PolicyKind::Rlr.build(&config.llc, None))
}

/// The reference: a plain `next_block` loop feeding the cache one record
/// at a time, numbered in trace order.
fn replay_serially(reader: &mut TraceReader<&[u8]>) -> Replayed {
    let mut cache = llc();
    let mut summary = ReplaySummary::default();
    let mut seq = 0u64;
    let outcome = (|| -> Result<(), TraceIoError> {
        while let Some(block) = reader.next_block()? {
            for r in block {
                let access = Access {
                    pc: r.pc,
                    addr: r.line << 6,
                    kind: r.kind,
                    core: r.core,
                    seq,
                };
                seq += 1;
                let hit = cache.access(&access).hit;
                summary.accesses += 1;
                summary.hits += u64::from(hit);
                if r.kind.is_demand() {
                    summary.demand_accesses += 1;
                    summary.demand_hits += u64::from(hit);
                }
            }
        }
        Ok(())
    })();
    let result = outcome.map(|()| summary).map_err(|e| e.to_string());
    (
        result,
        *cache.stats(),
        reader.blocks_read(),
        reader.records_read(),
    )
}

fn replay_streamed(reader: &mut TraceReader<&[u8]>) -> Replayed {
    let mut cache = llc();
    let result = replay_llc_reader(&mut cache, reader).map_err(|e| e.to_string());
    (
        result,
        *cache.stats(),
        reader.blocks_read(),
        reader.records_read(),
    )
}

/// The equivalence property, on whichever decode path this host takes.
fn streamed_replay_matches_serial_decoding() {
    check(
        "streamed_replay_matches_serial_decoding",
        Config::with_cases(48),
        random_container,
        |(records, damage)| {
            let bytes = damaged_bytes(records, *damage);
            // A header too damaged to open fails both sides identically.
            let (Ok(mut serial), Ok(mut streamed)) = (
                TraceReader::new(bytes.as_slice()),
                TraceReader::new(bytes.as_slice()),
            ) else {
                return Ok(());
            };
            prop_assert_eq!(replay_streamed(&mut streamed), replay_serially(&mut serial));
            Ok(())
        },
    );
}

#[test]
fn streamed_replay_matches_a_serial_next_block_loop() {
    streamed_replay_matches_serial_decoding();
}

/// The first CPU this process may run on (Linux `Cpus_allowed_list`), or
/// CPU 0 when that cannot be read.
fn first_allowed_cpu() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Some(list.trim().split([',', '-']).next()?.to_owned())
        })
        .unwrap_or_else(|| "0".to_owned())
}

/// On a host with one available CPU the reader decodes inline. Elsewhere
/// this test runs itself again pinned to one CPU with `taskset`, so both
/// decode paths are checked on every host that has it.
#[test]
fn streamed_replay_matches_a_serial_next_block_loop_on_one_cpu() {
    const NAME: &str = "streamed_replay_matches_a_serial_next_block_loop_on_one_cpu";
    if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
        streamed_replay_matches_serial_decoding();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let pinned = std::process::Command::new("taskset")
        .args(["-c", &first_allowed_cpu()])
        .arg(exe)
        .args(["--exact", NAME, "--test-threads", "1"])
        .output();
    match pinned {
        // The pinned copy started, so it must have passed.
        Ok(out) if String::from_utf8_lossy(&out.stdout).contains("running 1 test") => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "pinned run failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        Ok(out) => eprintln!(
            "taskset could not pin this test ({}); the inline path is covered by trace-io's \
             unit tests",
            String::from_utf8_lossy(&out.stderr).trim()
        ),
        Err(e) => eprintln!(
            "taskset unavailable ({e}); the inline path is covered by trace-io's unit tests"
        ),
    }
}
