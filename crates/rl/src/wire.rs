//! Little-endian binary (de)serialization helpers shared by the network
//! and checkpoint formats.

use std::io::{self, Read, Write};

pub(crate) fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_f32s<W: Write>(w: &mut W, vs: &[f32]) -> io::Result<()> {
    write_u64(w, vs.len() as u64)?;
    write_f32_array(w, vs)
}

/// Writes `vs` with no length prefix.
pub(crate) fn write_f32_array<W: Write>(w: &mut W, vs: &[f32]) -> io::Result<()> {
    let bytes: Vec<u8> = vs.iter().flat_map(|v| v.to_le_bytes()).collect();
    w.write_all(&bytes)
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Reads a length-prefixed `f32` vector, rejecting implausible lengths so
/// a corrupt checkpoint cannot trigger a huge allocation.
pub(crate) fn read_f32s<R: Read>(r: &mut R) -> io::Result<Vec<f32>> {
    let len = read_u64(r)? as usize;
    if len > (1 << 28) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible vector length"));
    }
    read_f32_array(r, len)
}

/// Reads `n` `f32`s with no length prefix, growing the buffer as they
/// arrive so a short stream fails before a large allocation.
pub(crate) fn read_f32_array<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

pub(crate) fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}
