//! Property-based round-trip and corruption invariants for the trace
//! container stack — varint, delta, LZ, and the full block format — on
//! the in-tree `simrng::prop` harness (with shrinking).

use cache_sim::{AccessKind, LlcRecord};
use simrng::prop::{check, Config};
use simrng::{prop_assert_eq, Rng, SimRng};
use trace_io::varint::{get_delta, get_varint, put_delta, put_varint, unzigzag, zigzag};
use trace_io::{lz, TraceIoError, TraceReader, TraceWriter};

fn random_values(rng: &mut SimRng) -> Vec<u64> {
    let n = rng.gen_range(0..200usize);
    (0..n)
        .map(|_| {
            // Mix magnitudes so varints of every length show up.
            let shift = rng.gen_range(0..64u32);
            rng.next_u64() >> shift
        })
        .collect()
}

#[test]
fn varint_round_trips() {
    check(
        "varint_round_trips",
        Config::with_cases(64),
        random_values,
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                put_varint(&mut buf, v);
            }
            let mut pos = 0usize;
            for &v in values {
                let got = get_varint(&buf, &mut pos)
                    .ok_or_else(|| "varint decode failed".to_string())?;
                prop_assert_eq!(got, v);
            }
            prop_assert_eq!(pos, buf.len());
            Ok(())
        },
    );
}

#[test]
fn zigzag_is_an_involution() {
    check(
        "zigzag_is_an_involution",
        Config::with_cases(64),
        random_values,
        |values| {
            for &v in values {
                prop_assert_eq!(unzigzag(zigzag(v as i64)), v as i64);
            }
            Ok(())
        },
    );
}

#[test]
fn delta_chains_round_trip() {
    check(
        "delta_chains_round_trip",
        Config::with_cases(64),
        random_values,
        |values| {
            let mut buf = Vec::new();
            let mut prev = 0u64;
            for &v in values {
                put_delta(&mut buf, prev, v);
                prev = v;
            }
            let mut pos = 0usize;
            let mut decoded_prev = 0u64;
            for &v in values {
                let got = get_delta(&buf, &mut pos, decoded_prev)
                    .ok_or_else(|| "delta decode failed".to_string())?;
                prop_assert_eq!(got, v);
                decoded_prev = got;
            }
            prop_assert_eq!(pos, buf.len());
            Ok(())
        },
    );
}

fn random_bytes(rng: &mut SimRng) -> Vec<u8> {
    // Mix compressible runs with incompressible noise.
    let n = rng.gen_range(0..2000usize);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if rng.gen_range(0..2u8) == 0 {
            let b = rng.gen_range(0..8u8);
            let run = rng.gen_range(1..64usize).min(n - out.len());
            out.extend(std::iter::repeat_n(b, run));
        } else {
            out.push(rng.gen_range(0..=255u8));
        }
    }
    out
}

#[test]
fn lz_round_trips() {
    check(
        "lz_round_trips",
        Config::with_cases(64),
        random_bytes,
        |data| {
            let mut compressed = Vec::new();
            lz::compress(data, &mut compressed);
            let mut back = Vec::new();
            lz::decompress(&compressed, data.len(), &mut back)
                .map_err(|e| format!("decompress failed: {e}"))?;
            prop_assert_eq!(&back, data);
            Ok(())
        },
    );
}

fn random_records(rng: &mut SimRng) -> Vec<LlcRecord> {
    let n = rng.gen_range(0..1500usize);
    let mut pc = rng.next_u64() >> 16;
    let mut line = rng.next_u64() >> 20;
    (0..n)
        .map(|_| {
            // Mostly local strides with occasional long jumps, like a
            // real LLC stream.
            if rng.gen_range(0..16u8) == 0 {
                pc = rng.next_u64() >> 16;
                line = rng.next_u64() >> 20;
            } else {
                pc = pc.wrapping_add(rng.gen_range(0..64u64));
                line = line.wrapping_add(rng.gen_range(0..8u64)).wrapping_sub(3);
            }
            LlcRecord {
                pc,
                line,
                kind: AccessKind::ALL[rng.gen_range(0..4usize)],
                core: rng.gen_range(0..4u8),
            }
        })
        .collect()
}

#[test]
fn container_round_trips_arbitrary_streams() {
    check(
        "container_round_trips_arbitrary_streams",
        Config::with_cases(48),
        |rng| (random_records(rng), rng.gen_range(1..300usize) as u32),
        |(records, block_len)| {
            let mut writer = TraceWriter::with_block_len(Vec::new(), *block_len)
                .map_err(|e| format!("writer: {e}"))?;
            writer.extend(records).map_err(|e| format!("push: {e}"))?;
            let bytes = writer.finish().map_err(|e| format!("finish: {e}"))?;
            let trace = TraceReader::new(bytes.as_slice())
                .map_err(|e| format!("header: {e}"))?
                .read_to_trace()
                .map_err(|e| format!("read: {e}"))?;
            prop_assert_eq!(trace.records(), records.as_slice());
            Ok(())
        },
    );
}

/// Flipping any byte of a container must surface as a typed error —
/// never a panic, never silently different records.
#[test]
fn corrupt_containers_fail_cleanly() {
    check(
        "corrupt_containers_fail_cleanly",
        Config::with_cases(64),
        |rng| {
            let records = random_records(rng);
            let mut writer = TraceWriter::with_block_len(Vec::new(), 128).expect("writer");
            writer.extend(&records).expect("push");
            let bytes = writer.finish().expect("finish");
            let pos = rng.gen_range(0..bytes.len());
            let mask = rng.gen_range(0..=255u8) | 1; // never a no-op flip
            (bytes, (pos, mask))
        },
        |(bytes, (pos, mask))| {
            // Shrinking halves `bytes`, so re-wrap the flip position; the
            // property (typed error, no panic) holds for any prefix too.
            let mut corrupt = bytes.clone();
            let pos = pos % corrupt.len();
            corrupt[pos] ^= mask;
            let outcome =
                TraceReader::new(corrupt.as_slice()).and_then(|r| r.read_to_trace());
            match outcome {
                Ok(_) => Err(format!("byte {pos} flip with mask {mask:#04x} was undetected")),
                Err(
                    TraceIoError::BadMagic(_)
                    | TraceIoError::UnsupportedVersion(_)
                    | TraceIoError::Truncated(_)
                    | TraceIoError::Corrupt(_)
                    | TraceIoError::ChecksumMismatch { .. }
                    | TraceIoError::CountMismatch { .. },
                ) => Ok(()),
                Err(other) => Err(format!("unexpected error class: {other}")),
            }
        },
    );
}
