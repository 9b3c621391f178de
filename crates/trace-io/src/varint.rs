//! LEB128 varints and zigzag mapping for delta-encoded record fields.
//!
//! Trace fields (PCs, line addresses) are strongly locally correlated:
//! consecutive records differ by small signed strides. Each field is
//! stored as the zigzag-mapped difference from its predecessor, so a
//! stride of ±1 line costs one byte instead of eight.

/// Maps a signed delta onto an unsigned value with small magnitudes first
/// (`0, -1, 1, -2, 2, ...`), so varint encoding stays short for deltas of
/// either sign.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Longest encoding of a `u64` varint (ten 7-bit groups cover 64 bits).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint at `*pos`, advancing it past the encoding.
///
/// Returns `None` on a truncated buffer or an encoding that does not fit
/// in 64 bits (more than [`MAX_VARINT_BYTES`] groups, or high bits set in
/// the tenth group) — both only occur on corrupt input.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    // One-byte encodings (values below 128) are the common case of a
    // small stride; they skip the group loop.
    let first = *buf.get(*pos)?;
    if first < 0x80 {
        *pos += 1;
        return Some(u64::from(first));
    }
    let mut v = 0u64;
    for i in 0..MAX_VARINT_BYTES {
        let b = *buf.get(*pos)?;
        *pos += 1;
        let group = u64::from(b & 0x7F);
        if i == MAX_VARINT_BYTES - 1 && group > 1 {
            return None; // 64-bit overflow
        }
        v |= group << (7 * i);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None // continuation bit set on the final permitted group
}

/// Appends `current` as a zigzag-varint delta against `prev`.
pub fn put_delta(out: &mut Vec<u8>, prev: u64, current: u64) {
    put_varint(out, zigzag(current.wrapping_sub(prev) as i64));
}

/// Reads one zigzag-varint delta and applies it to `prev`.
#[inline]
pub fn get_delta(buf: &[u8], pos: &mut usize, prev: u64) -> Option<u64> {
    Some(prev.wrapping_add(unzigzag(get_varint(buf, pos)?) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_orders_by_magnitude() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varints_round_trip_across_widths() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_and_overlong_varints_are_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(get_varint(&buf[..buf.len() - 1], &mut 0), None, "truncated");
        // Eleven continuation groups never terminate within the limit.
        assert_eq!(get_varint(&[0x80u8; 11], &mut 0), None, "overlong");
        // A tenth group carrying more than the top bit overflows 64 bits.
        let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(get_varint(&overflow, &mut 0), None, "overflow");
    }

    #[test]
    fn deltas_wrap_cleanly() {
        let mut buf = Vec::new();
        put_delta(&mut buf, u64::MAX, 3); // wraps forward by 4
        put_delta(&mut buf, 3, u64::MAX); // wraps backward
        let mut pos = 0;
        assert_eq!(get_delta(&buf, &mut pos, u64::MAX), Some(3));
        assert_eq!(get_delta(&buf, &mut pos, 3), Some(u64::MAX));
    }
}
