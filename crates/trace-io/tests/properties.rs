//! Property-based round-trip and corruption invariants for the trace
//! container stack — varint, delta, LZ, and the full block format — on
//! the in-tree `simrng::prop` harness (with shrinking).

use cache_sim::{AccessKind, LlcRecord};
use simrng::prop::{check, Config};
use simrng::{prop_assert_eq, Rng, SimRng};
use trace_io::varint::{get_delta, get_varint, put_delta, put_varint, unzigzag, zigzag};
use trace_io::{
    fnv1a, lz, salvage, BlockOutcome, TailStatus, TraceIoError, TraceReader, TraceWriter,
};

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

/// The byte-at-a-time decompressor the chunked match copy replaced, frozen
/// as the reference: every match byte is pushed from `offset` bytes back,
/// so an overlapping match replicates its own output.
fn reference_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, &'static str> {
    fn len(input: &[u8], pos: &mut usize, nibble: usize) -> Result<usize, &'static str> {
        let mut len = nibble;
        if nibble == 15 {
            loop {
                let b = *input.get(*pos).ok_or("truncated length extension")?;
                *pos += 1;
                len += usize::from(b);
                if b < 255 {
                    break;
                }
            }
        }
        Ok(len)
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        let token = *input.get(pos).ok_or("truncated token")?;
        pos += 1;
        let lit_len = len(input, &mut pos, usize::from(token >> 4))?;
        let lit_end = pos.checked_add(lit_len).ok_or("literal length overflow")?;
        if lit_end > input.len() {
            return Err("truncated literals");
        }
        if out.len() + lit_len > expected_len {
            return Err("output exceeds declared length");
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if pos == input.len() {
            break;
        }
        if pos + 2 > input.len() {
            return Err("truncated offset");
        }
        let offset = usize::from(u16::from_le_bytes([input[pos], input[pos + 1]]));
        pos += 2;
        let match_len = lz::MIN_MATCH + len(input, &mut pos, usize::from(token & 0x0F))?;
        if offset == 0 || offset > out.len() {
            return Err("match offset outside window");
        }
        if out.len() + match_len > expected_len {
            return Err("output exceeds declared length");
        }
        for _ in 0..match_len {
            out.push(out[out.len() - offset]);
        }
    }
    if out.len() != expected_len {
        return Err("output shorter than declared length");
    }
    Ok(out)
}

/// Appends one LZ sequence (token, literals, and a match unless
/// `match_len` is 0), in the compressor's encoding.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: u16) {
    fn put_len(out: &mut Vec<u8>, mut extra: usize) {
        while extra >= 255 {
            out.push(255);
            extra -= 255;
        }
        out.push(extra as u8);
    }
    let lit_nib = literals.len().min(15);
    let match_nib = if match_len == 0 { 0 } else { (match_len - lz::MIN_MATCH).min(15) };
    out.push(((lit_nib as u8) << 4) | match_nib as u8);
    if lit_nib == 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&offset.to_le_bytes());
        if match_nib == 15 {
            put_len(out, match_len - lz::MIN_MATCH - 15);
        }
    }
}

/// Match lengths on both sides of the token nibble's escape (15) and of
/// the first and second 255-byte extension steps.
fn boundary_match_lengths() -> impl Iterator<Item = usize> {
    let extras = (0..=20).chain(250..=275).chain(505..=530);
    extras.map(|extra| lz::MIN_MATCH + extra)
}

/// Overlapping matches (offset below the match length) copy their source
/// in period-doubling chunks; they must produce exactly what the frozen
/// byte-at-a-time decoder produces, for every short period and for
/// lengths around each length-extension boundary.
#[test]
fn overlapping_matches_decode_like_the_byte_at_a_time_reference() {
    let literals: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
    for offset in 1..=16u16 {
        for match_len in boundary_match_lengths() {
            let mut stream = Vec::new();
            put_sequence(&mut stream, &literals, match_len, offset);
            put_sequence(&mut stream, b"tail", 0, 0);
            let expected_len = literals.len() + match_len + 4;
            let reference = reference_decompress(&stream, expected_len);
            assert!(reference.is_ok(), "offset {offset} length {match_len}: {reference:?}");
            let mut out = vec![0xEE]; // decompress appends; the prefix must survive
            let got = lz::decompress(&stream, expected_len, &mut out).map(|()| out[1..].to_vec());
            assert_eq!(got, reference, "offset {offset} length {match_len}");
            assert_eq!(out[0], 0xEE, "offset {offset} length {match_len}: prefix overwritten");
        }
    }
}

/// Random chains of sequences with short offsets — including offsets
/// past the window and declared lengths that are off by a little — must
/// give the reference's bytes or the reference's error.
#[test]
fn random_match_chains_decode_like_the_reference() {
    check(
        "random_match_chains_decode_like_the_reference",
        Config::with_cases(128),
        |rng| {
            let boundaries: Vec<usize> = boundary_match_lengths().collect();
            let mut stream = Vec::new();
            let mut produced = 0usize;
            for _ in 0..rng.gen_range(1..8usize) {
                let literals: Vec<u8> =
                    (0..rng.gen_range(0..20usize)).map(|_| rng.gen_range(0..=255u8)).collect();
                let match_len = if rng.gen_range(0..2u8) == 0 {
                    rng.gen_range(lz::MIN_MATCH..300)
                } else {
                    boundaries[rng.gen_range(0..boundaries.len())]
                };
                let offset = rng.gen_range(1..=18u16);
                put_sequence(&mut stream, &literals, match_len, offset);
                produced += literals.len() + match_len;
            }
            put_sequence(&mut stream, &[], 0, 0);
            let declared = (produced + rng.gen_range(0..3usize)).saturating_sub(1);
            (stream, declared)
        },
        |(stream, declared)| {
            let mut out = Vec::new();
            let got = lz::decompress(stream, *declared, &mut out).map(|()| out.clone());
            prop_assert_eq!(got, reference_decompress(stream, *declared));
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

/// Zigzag values at both ends of varint width `w` (1..=10 bytes).
fn zigzag_ends_of_width(w: u32) -> [u64; 2] {
    let low = if w == 1 { 0 } else { 1u64 << (7 * (w - 1)) };
    let high = if w == 10 { u64::MAX } else { (1u64 << (7 * w)) - 1 };
    [low, high]
}

/// The PC column ends and the line column starts inside one payload, with
/// no separator between them. Blocks whose last PC delta and first line
/// delta take every varint width from 1 to 10 bytes must round-trip.
#[test]
fn varints_of_every_width_round_trip_at_the_column_boundary() {
    for pc_width in 1..=10u32 {
        for line_width in 1..=10u32 {
            for (end, (&pc_z, &line_z)) in zigzag_ends_of_width(pc_width)
                .iter()
                .zip(&zigzag_ends_of_width(line_width))
                .enumerate()
            {
                for n in [1u64, 2, 5] {
                    let mut records: Vec<LlcRecord> = (0..n)
                        .map(|i| LlcRecord {
                            pc: 0x40_0000 + 4 * i,
                            line: (unzigzag(line_z) as u64).wrapping_add(i),
                            kind: AccessKind::ALL[(i % 4) as usize],
                            core: i as u8,
                        })
                        .collect();
                    // The last PC is `pc_z` (as a delta) past its predecessor.
                    let last = records.len() - 1;
                    let pc_prev = if last == 0 { 0 } else { records[last - 1].pc };
                    records[last].pc = pc_prev.wrapping_add(unzigzag(pc_z) as u64);
                    let mut widths = Vec::new();
                    put_delta(&mut widths, pc_prev, records[last].pc);
                    assert_eq!(widths.len(), pc_width as usize, "generator: PC width");
                    widths.clear();
                    put_delta(&mut widths, 0, records[0].line);
                    assert_eq!(widths.len(), line_width as usize, "generator: line width");

                    let mut writer = TraceWriter::with_block_len(Vec::new(), 8).expect("writer");
                    writer.extend(&records).expect("push");
                    let bytes = writer.finish().expect("finish");
                    let back = TraceReader::new(bytes.as_slice())
                        .and_then(TraceReader::read_to_trace)
                        .expect("round trip");
                    assert_eq!(
                        back.records(),
                        records.as_slice(),
                        "PC width {pc_width}, line width {line_width}, end {end}, n {n}"
                    );
                }
            }
        }
    }
}

/// A one-block container whose payload is stored raw (`comp_len ==
/// raw_len`) and checksummed, so `payload` reaches the block decoder as
/// written; the end frame is valid for that block.
fn stored_raw_container(n_records: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"RLT1");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&64u32.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    let checksum = fnv1a(payload);
    // The chained digest is FNV-1a over the header and then each block
    // checksum; FNV-1a streams, so it is one hash over their concatenation.
    let mut chain = bytes.clone();
    chain.extend_from_slice(&checksum.to_le_bytes());
    bytes.push(0x01);
    bytes.extend_from_slice(&n_records.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.push(0xFF);
    bytes.extend_from_slice(&u64::from(n_records).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&chain).to_le_bytes());
    bytes
}

/// Malformed varints in a checksum-valid block keep their exact reader
/// errors and salvage reports: truncated and overlong encodings in either
/// column, and payloads longer or shorter than the columns they declare.
#[test]
fn malformed_block_payloads_keep_their_exact_errors() {
    let mut ten_byte_max = Vec::new();
    put_varint(&mut ten_byte_max, u64::MAX);
    let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
    let cases: Vec<(u32, Vec<u8>, &str)> = vec![
        (1, vec![], "bad PC varint"),
        (1, vec![0x80], "bad PC varint"),
        (1, ten_byte_max[..9].to_vec(), "bad PC varint"),
        (1, [0x80; 11].to_vec(), "bad PC varint"),
        (1, [&overflow[..], &[0x02, 0x00, 0x00]].concat(), "bad PC varint"),
        (2, vec![0x02], "bad PC varint"),
        (1, vec![0x02], "bad line varint"),
        (1, vec![0x7F, 0x80], "bad line varint"),
        (1, [&[0x02][..], &[0x80; 11]].concat(), "bad line varint"),
        (1, [&[0x02][..], &overflow[..], &[0x00, 0x00]].concat(), "bad line varint"),
        (2, vec![0x02, 0x04, 0x02], "bad line varint"),
        (1, vec![0x02, 0x02, 0x00], "block payload length mismatch"),
        (1, vec![0x02, 0x02, 0x00, 0x00, 0x00], "block payload length mismatch"),
        (5, vec![0x02; 10], "block payload length mismatch"),
    ];
    for (n_records, payload, message) in cases {
        let bytes = stored_raw_container(n_records, &payload);
        let label = format!("{n_records} records, payload {payload:02x?}");
        match TraceReader::new(bytes.as_slice()).and_then(TraceReader::read_to_trace) {
            Err(TraceIoError::Corrupt(what)) => assert_eq!(what, message, "{label}"),
            other => panic!("{label}: expected Corrupt({message:?}), got {other:?}"),
        }
        let (report, _) = salvage(bytes.as_slice(), Vec::new()).expect("salvage");
        assert_eq!(report.blocks, vec![BlockOutcome::Undecodable(message)], "{label}");
        assert_eq!(report.tail, TailStatus::CleanEnd, "{label}");
        assert_eq!(report.recovered_records, 0, "{label}");
    }
    // The same frame with a well-formed payload decodes, so the errors
    // above come from the payloads alone.
    let good = stored_raw_container(1, &[0x02, 0x7F, 0x03, 0x09]);
    let back = TraceReader::new(good.as_slice())
        .and_then(TraceReader::read_to_trace)
        .expect("well-formed stored-raw block");
    let expected = LlcRecord { pc: 1, line: u64::MAX - 63, kind: AccessKind::ALL[3], core: 9 };
    assert_eq!(back.records(), &[expected]);
}
