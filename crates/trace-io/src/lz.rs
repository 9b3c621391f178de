//! An in-tree byte-oriented LZ compressor for trace blocks.
//!
//! LZ4-style sequence stream: each sequence is a token byte packing the
//! literal length and match length into nibbles (15 escapes to 255-run
//! extension bytes), the literals, then a 2-byte little-endian backwards
//! offset and a match of at least [`MIN_MATCH`] bytes. The final sequence
//! carries literals only. The match finder is a single-probe hash table
//! over 4-byte windows with greedy forward extension — a few lines of
//! state, no allocation beyond the table, and fast enough that replay
//! stays simulator-bound.
//!
//! The decompressor trusts nothing: offsets, lengths, and the total
//! output size are validated against the caller-supplied expected length,
//! so corrupt input yields an error instead of unbounded allocation.

/// Shortest match worth encoding (token + offset cost 3 bytes).
pub const MIN_MATCH: usize = 4;
/// Largest representable backwards offset (2-byte field; 0 is invalid).
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 14;

fn hash4(bytes: &[u8]) -> usize {
    let seq = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (seq.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    let lit_nib = literals.len().min(15);
    let match_nib = if match_len == 0 { 0 } else { (match_len - MIN_MATCH).min(15) };
    out.push(((lit_nib as u8) << 4) | match_nib as u8);
    if lit_nib == 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_nib == 15 {
            put_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

/// Appends the compressed form of `input` to `out`.
///
/// The output is self-delimiting only together with the original length;
/// the container stores both, plus a checksum, in the block frame.
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut anchor = 0usize;
    let mut pos = 0usize;
    // The last MIN_MATCH-1 bytes can never start a match.
    let search_end = input.len().saturating_sub(MIN_MATCH - 1);
    while pos < search_end {
        let h = hash4(&input[pos..]);
        let candidate = table[h];
        table[h] = pos;
        let valid = candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if !valid {
            pos += 1;
            continue;
        }
        let mut len = MIN_MATCH;
        while pos + len < input.len() && input[candidate + len] == input[pos + len] {
            len += 1;
        }
        emit(out, &input[anchor..pos], len, pos - candidate);
        pos += len;
        anchor = pos;
    }
    emit(out, &input[anchor..], 0, 0);
}

fn get_len(input: &[u8], pos: &mut usize, nibble: usize) -> Result<usize, &'static str> {
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

/// Appends exactly `expected_len` decompressed bytes to `out`.
///
/// # Errors
///
/// Returns a description of the first structural violation: truncated
/// sequences, zero or out-of-window offsets, or an output length other
/// than `expected_len`. `out` is restored to its original length on error.
pub fn decompress(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    let base = out.len();
    let result = decompress_inner(input, expected_len, out, base);
    if result.is_err() {
        out.truncate(base);
    }
    result
}

fn decompress_inner(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
    base: usize,
) -> Result<(), &'static str> {
    let mut pos = 0usize;
    out.reserve(expected_len);
    loop {
        let token = *input.get(pos).ok_or("truncated token")?;
        pos += 1;
        let lit_len = get_len(input, &mut pos, usize::from(token >> 4))?;
        let lit_end = pos.checked_add(lit_len).ok_or("literal length overflow")?;
        if lit_end > input.len() {
            return Err("truncated literals");
        }
        if out.len() - base + lit_len > expected_len {
            return Err("output exceeds declared length");
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if pos == input.len() {
            break; // final, literal-only sequence
        }
        if pos + 2 > input.len() {
            return Err("truncated offset");
        }
        let offset = usize::from(u16::from_le_bytes([input[pos], input[pos + 1]]));
        pos += 2;
        let match_len = MIN_MATCH + get_len(input, &mut pos, usize::from(token & 0x0F))?;
        if offset == 0 || offset > out.len() - base {
            return Err("match offset outside window");
        }
        if out.len() - base + match_len > expected_len {
            return Err("output exceeds declared length");
        }
        // The match repeats the `offset` bytes before it with that period,
        // also when it overlaps its own output (offset < match_len), as the
        // compressor assumed. Everything from `start` on keeps that period,
        // so each chunk copies all of it and the source doubles each round.
        let start = out.len() - offset;
        let end = out.len() + match_len;
        while out.len() < end {
            let chunk = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + chunk);
        }
    }
    if out.len() - base != expected_len {
        return Err("output shorter than declared length");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        compress(data, &mut comp);
        let mut back = Vec::new();
        decompress(&comp, data.len(), &mut back).expect("valid stream");
        assert_eq!(back, data);
        comp
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_input_compresses() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 16) as u8).collect();
        let comp = roundtrip(&data);
        assert!(comp.len() * 4 < data.len(), "16-byte cycle must shrink: {}", comp.len());
    }

    #[test]
    fn incompressible_input_still_round_trips() {
        // xorshift noise defeats the 4-byte match finder.
        let mut state = 0x9E37_79B9_u32;
        let data: Vec<u8> = (0..2048)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_runs_exercise_length_extensions() {
        let mut data = vec![7u8; 5000]; // match length ≫ 15 + 255
        data.extend(std::iter::repeat_n(0u8, 16).chain(1..=255u8).cycle().take(600));
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_fail_without_panicking() {
        let data: Vec<u8> = (0..512u32).map(|i| (i / 7) as u8).collect();
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        // Wrong expected length (both directions).
        let mut out = Vec::new();
        assert!(decompress(&comp, data.len() + 1, &mut out).is_err());
        assert!(decompress(&comp, data.len().saturating_sub(1), &mut out).is_err());
        // Truncation at every prefix must error, never panic or hang.
        for cut in 0..comp.len() {
            let _ = decompress(&comp[..cut], data.len(), &mut out);
            assert!(out.is_empty(), "failed decompress must restore the output buffer");
        }
        // A zero offset is structurally invalid.
        let bad = [0x40, b'a', b'b', b'c', b'd', 0x00, 0x00];
        assert!(decompress(&bad, 8, &mut out).is_err());
    }
}
