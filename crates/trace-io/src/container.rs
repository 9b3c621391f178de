//! The `RLT1` versioned trace container and its streaming writer/reader.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header     "RLT1" | u16 version (=1) | u32 block_len | u16 flags (=0)
//! block*     0x01 | u32 n_records | u32 raw_len | u32 comp_len
//!                 | u64 fnv1a(payload) | payload[comp_len]
//! end        0xFF | u64 total_records | u64 chained digest
//! ```
//!
//! Each block holds up to `block_len` records, columnar-encoded
//! (`encode_block`) and compressed with the in-tree LZ codec; a payload
//! that does not shrink is stored raw, signalled by `comp_len == raw_len`.
//! Blocks are self-contained (delta bases restart at zero), so a reader
//! needs O(block) memory, corruption is confined to one block, and the
//! per-block checksum is verified *before* any decoding. The end frame
//! chains every block checksum into one digest and repeats the record
//! count, so truncation — even at a block boundary — is always detected.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use cache_sim::{AccessKind, LlcRecord, LlcTrace};

use crate::lz;
use crate::varint;

/// Container magic: "RLT" + format generation.
pub const MAGIC: [u8; 4] = *b"RLT1";
/// Current schema version.
pub const VERSION: u16 = 1;
/// Records per block when the writer is not told otherwise. Large enough
/// that varint deltas and the LZ window have context to bite on, small
/// enough that a streaming reader holds ~100 KB, not the trace.
pub const DEFAULT_BLOCK_LEN: u32 = 4096;
/// Upper bound on `block_len` accepted from headers and callers; bounds
/// reader memory even when the header itself is hostile.
pub const MAX_BLOCK_LEN: u32 = 1 << 20;

const FRAME_BLOCK: u8 = 0x01;
const FRAME_END: u8 = 0xFF;
/// Worst-case encoded bytes per record (two max-width varints + kind
/// 2-bit share + core byte), used to bound declared block sizes.
const MAX_RECORD_BYTES: u32 = 2 * varint::MAX_VARINT_BYTES as u32 + 2;

/// Why a trace could not be read or verified.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// A future (or garbage) schema version.
    UnsupportedVersion(u16),
    /// The stream ended before the structure it promised.
    Truncated(&'static str),
    /// A structural invariant was violated; the payload names it.
    Corrupt(&'static str),
    /// A block's stored payload does not match its checksum.
    ChecksumMismatch {
        /// Zero-based index of the failing block.
        block: u64,
        /// Checksum recorded in the block frame.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The end frame's totals disagree with the blocks that preceded it.
    CountMismatch {
        /// Records promised by the end frame.
        expected: u64,
        /// Records actually decoded.
        actual: u64,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::BadMagic(m) => write!(f, "not an RLT1 trace (magic \"{}\")", m.escape_ascii()),
            Self::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            Self::Truncated(what) => write!(f, "truncated trace: {what}"),
            Self::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            Self::ChecksumMismatch { block, expected, actual } => write!(
                f,
                "block {block} checksum mismatch (stored {expected:#018x}, read {actual:#018x})"
            ),
            Self::CountMismatch { expected, actual } => {
                write!(f, "record count mismatch (end frame says {expected}, decoded {actual})")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Maps mid-structure EOF to [`TraceIoError::Truncated`] so a torn file is
/// reported as truncation, not a generic I/O error.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated(what)
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// A validated 12-byte container header.
struct Header {
    version: u16,
    block_len: u32,
    /// The chained digest's seed: fnv1a over the header bytes.
    digest: u64,
}

/// Reads and validates the header. Both the reader and [`salvage`] start
/// here; damage in these 12 bytes is fatal to either, because `block_len`
/// and the digest seed come from them.
fn read_header(r: &mut impl Read) -> Result<Header, TraceIoError> {
    let mut header = [0u8; 12];
    read_exact_or(r, &mut header[0..4], "header magic")?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    read_exact_or(r, &mut header[4..12], "header fields")?;
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let block_len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes"));
    if block_len == 0 || block_len > MAX_BLOCK_LEN {
        return Err(TraceIoError::Corrupt("block length out of range"));
    }
    Ok(Header { version, block_len, digest: fnv1a(&header) })
}

/// The 20 bytes after a block tag.
struct BlockHead {
    n_records: u32,
    raw_len: u32,
    comp_len: u32,
    checksum: u64,
}

impl BlockHead {
    /// Parses a block head and applies the plausibility bounds, so both
    /// buffers are bounded before anything is allocated: a hostile frame
    /// cannot demand more than `block_len` × worst-case bytes. Beyond
    /// these bounds `comp_len` is untrustworthy and the frame cannot even
    /// be skipped; the error names the bound that failed.
    fn parse(head: &[u8; 20], block_len: u32) -> Result<Self, &'static str> {
        let n_records = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
        let raw_len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        let comp_len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        let checksum = u64::from_le_bytes(head[12..20].try_into().expect("8 bytes"));
        if n_records == 0 || n_records > block_len {
            return Err("block record count out of range");
        }
        if raw_len > n_records * MAX_RECORD_BYTES {
            return Err("block raw length out of range");
        }
        if comp_len > raw_len {
            return Err("compressed length exceeds raw length");
        }
        Ok(Self { n_records, raw_len, comp_len, checksum })
    }
}

/// FNV-1a over `bytes` (the same digest the checkpoint machinery uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Block codec: columnar delta/varint encoding of a record slice.
// ---------------------------------------------------------------------------

/// Encodes `records` into `out`: zigzag-varint PC deltas, zigzag-varint
/// line deltas, 2-bit-packed kinds (four per byte, low bits first), then
/// raw core bytes. Delta bases start at zero, keeping every block
/// independently decodable.
fn encode_block(records: &[LlcRecord], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for r in records {
        varint::put_delta(out, prev, r.pc);
        prev = r.pc;
    }
    prev = 0;
    for r in records {
        varint::put_delta(out, prev, r.line);
        prev = r.line;
    }
    for chunk in records.chunks(4) {
        let mut b = 0u8;
        for (i, r) in chunk.iter().enumerate() {
            b |= (r.kind.index() as u8) << (2 * i);
        }
        out.push(b);
    }
    for r in records {
        out.push(r.core);
    }
}

/// Decodes exactly `n` records from `buf`, appending to `records`.
///
/// The records are decoded in place: one `resize` makes room, then one
/// pass per varint column and one pass that fills kinds and cores.
fn decode_block(buf: &[u8], n: usize, records: &mut Vec<LlcRecord>) -> Result<(), TraceIoError> {
    let base = records.len();
    records.resize(base + n, LlcRecord { pc: 0, line: 0, kind: AccessKind::Load, core: 0 });
    let block = &mut records[base..];
    let mut pos = 0usize;
    let mut prev = 0u64;
    for r in block.iter_mut() {
        prev = varint::get_delta(buf, &mut pos, prev)
            .ok_or(TraceIoError::Corrupt("bad PC varint"))?;
        r.pc = prev;
    }
    prev = 0;
    for r in block.iter_mut() {
        prev = varint::get_delta(buf, &mut pos, prev)
            .ok_or(TraceIoError::Corrupt("bad line varint"))?;
        r.line = prev;
    }
    let kind_bytes = n.div_ceil(4);
    if pos + kind_bytes + n != buf.len() {
        return Err(TraceIoError::Corrupt("block payload length mismatch"));
    }
    let (kinds, cores) = buf[pos..].split_at(kind_bytes);
    for (i, (r, &core)) in block.iter_mut().zip(cores).enumerate() {
        // Every 2-bit value is a valid AccessKind, so kinds need no
        // rejection path.
        r.kind = AccessKind::ALL[usize::from((kinds[i / 4] >> (2 * (i % 4))) & 3)];
        r.core = core;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming trace writer: buffers at most one block of records, so
/// capture memory is O(`block_len`) regardless of trace length.
///
/// Dropping a writer without [`TraceWriter::finish`] leaves the stream
/// without an end frame, which every reader reports as truncation — a
/// torn capture can never be mistaken for a complete one.
pub struct TraceWriter<W: Write> {
    w: W,
    block_len: usize,
    pending: Vec<LlcRecord>,
    raw_buf: Vec<u8>,
    comp_buf: Vec<u8>,
    total_records: u64,
    digest: u64,
    compressed_payload: u64,
    raw_payload: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a container with [`DEFAULT_BLOCK_LEN`] records per block.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the header.
    pub fn new(w: W) -> Result<Self, TraceIoError> {
        Self::with_block_len(w, DEFAULT_BLOCK_LEN)
    }

    /// Starts a container with a caller-chosen block length.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Corrupt`] for a zero or over-large block
    /// length, or any I/O error from writing the header.
    pub fn with_block_len(mut w: W, block_len: u32) -> Result<Self, TraceIoError> {
        if block_len == 0 || block_len > MAX_BLOCK_LEN {
            return Err(TraceIoError::Corrupt("block length out of range"));
        }
        let mut header = [0u8; 12];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..10].copy_from_slice(&block_len.to_le_bytes());
        header[10..12].copy_from_slice(&0u16.to_le_bytes()); // flags, reserved
        w.write_all(&header)?;
        Ok(Self {
            w,
            block_len: block_len as usize,
            pending: Vec::with_capacity(block_len as usize),
            raw_buf: Vec::new(),
            comp_buf: Vec::new(),
            total_records: 0,
            // Seeding the chained digest with the header bytes makes the
            // end frame cover the header fields the magic check doesn't.
            digest: fnv1a(&header),
            compressed_payload: 0,
            raw_payload: 0,
            finished: false,
        })
    }

    /// Appends one record, flushing a block when the buffer fills.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from flushing a completed block.
    pub fn push(&mut self, record: LlcRecord) -> Result<(), TraceIoError> {
        self.pending.push(record);
        if self.pending.len() == self.block_len {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends a slice of records (capture slices, converted traces).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from flushing completed blocks.
    pub fn extend(&mut self, records: &[LlcRecord]) -> Result<(), TraceIoError> {
        for &r in records {
            self.push(r)?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceIoError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.raw_buf.clear();
        encode_block(&self.pending, &mut self.raw_buf);
        self.comp_buf.clear();
        lz::compress(&self.raw_buf, &mut self.comp_buf);
        // Store raw when compression does not help; `comp_len == raw_len`
        // is the stored-raw marker.
        let payload =
            if self.comp_buf.len() < self.raw_buf.len() { &self.comp_buf } else { &self.raw_buf };
        let checksum = fnv1a(payload);
        self.w.write_all(&[FRAME_BLOCK])?;
        self.w.write_all(&(self.pending.len() as u32).to_le_bytes())?;
        self.w.write_all(&(self.raw_buf.len() as u32).to_le_bytes())?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&checksum.to_le_bytes())?;
        self.w.write_all(payload)?;
        self.digest = fnv1a_continue(self.digest, &checksum.to_le_bytes());
        self.total_records += self.pending.len() as u64;
        self.compressed_payload += payload.len() as u64;
        self.raw_payload += self.raw_buf.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial block, writes the end frame, and returns
    /// the inner writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the final writes.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        self.flush_block()?;
        self.w.write_all(&[FRAME_END])?;
        self.w.write_all(&self.total_records.to_le_bytes())?;
        self.w.write_all(&self.digest.to_le_bytes())?;
        self.w.flush()?;
        self.finished = true;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming trace reader: holds one decoded block at a time.
pub struct TraceReader<R: Read> {
    r: R,
    block_len: u32,
    version: u16,
    records: Vec<LlcRecord>,
    payload_buf: Vec<u8>,
    raw_buf: Vec<u8>,
    records_read: u64,
    blocks_read: u64,
    compressed_payload: u64,
    raw_payload: u64,
    digest: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a container, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::BadMagic`], an unsupported version, an
    /// out-of-range block length, or truncation within the header.
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let Header { version, block_len, digest } = read_header(&mut r)?;
        Ok(Self {
            r,
            block_len,
            version,
            records: Vec::new(),
            payload_buf: Vec::new(),
            raw_buf: Vec::new(),
            records_read: 0,
            blocks_read: 0,
            compressed_payload: 0,
            raw_payload: 0,
            digest,
            done: false,
        })
    }

    /// The header's records-per-block bound.
    pub fn block_len(&self) -> u32 {
        self.block_len
    }

    /// The container's schema version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Blocks decoded so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Stored (possibly compressed) payload bytes consumed so far.
    pub fn compressed_payload_bytes(&self) -> u64 {
        self.compressed_payload
    }

    /// Pre-compression payload bytes represented so far.
    pub fn raw_payload_bytes(&self) -> u64 {
        self.raw_payload
    }

    /// Decodes the next block, returning its records, or `Ok(None)` after
    /// a valid end frame. The returned slice borrows the reader's reusable
    /// buffer; memory stays O(block) for any trace length.
    ///
    /// # Errors
    ///
    /// Returns checksum, structure, count, or truncation errors; EOF
    /// *before* the end frame is [`TraceIoError::Truncated`].
    pub fn next_block(&mut self) -> Result<Option<&[LlcRecord]>, TraceIoError> {
        if self.done {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        read_exact_or(&mut self.r, &mut tag, "frame tag (missing end frame)")?;
        match tag[0] {
            FRAME_BLOCK => {
                let mut head = [0u8; 20];
                read_exact_or(&mut self.r, &mut head, "block header")?;
                let BlockHead { n_records, raw_len, comp_len, checksum } =
                    BlockHead::parse(&head, self.block_len).map_err(TraceIoError::Corrupt)?;
                self.payload_buf.resize(comp_len as usize, 0);
                read_exact_or(&mut self.r, &mut self.payload_buf, "block payload")?;
                let actual = fnv1a(&self.payload_buf);
                if actual != checksum {
                    return Err(TraceIoError::ChecksumMismatch {
                        block: self.blocks_read,
                        expected: checksum,
                        actual,
                    });
                }
                let raw = if comp_len == raw_len {
                    &self.payload_buf // stored uncompressed
                } else {
                    self.raw_buf.clear();
                    lz::decompress(&self.payload_buf, raw_len as usize, &mut self.raw_buf)
                        .map_err(TraceIoError::Corrupt)?;
                    &self.raw_buf
                };
                self.records.clear();
                decode_block(raw, n_records as usize, &mut self.records)?;
                self.digest = fnv1a_continue(self.digest, &checksum.to_le_bytes());
                self.records_read += u64::from(n_records);
                self.blocks_read += 1;
                self.compressed_payload += u64::from(comp_len);
                self.raw_payload += u64::from(raw_len);
                Ok(Some(&self.records))
            }
            FRAME_END => {
                let mut tail = [0u8; 16];
                read_exact_or(&mut self.r, &mut tail, "end frame")?;
                let total = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
                let digest = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
                if total != self.records_read {
                    return Err(TraceIoError::CountMismatch {
                        expected: total,
                        actual: self.records_read,
                    });
                }
                if digest != self.digest {
                    return Err(TraceIoError::Corrupt("chained block digest mismatch"));
                }
                self.done = true;
                Ok(None)
            }
            _ => Err(TraceIoError::Corrupt("unknown frame tag")),
        }
    }

    /// Drains the remaining blocks into an in-memory [`LlcTrace`] (for
    /// consumers that need random access, e.g. Belady's next-use table).
    ///
    /// # Errors
    ///
    /// Propagates any [`TraceReader::next_block`] error.
    pub fn read_to_trace(mut self) -> Result<LlcTrace, TraceIoError> {
        let mut all: Vec<LlcRecord> = Vec::new();
        while let Some(block) = self.next_block()? {
            all.extend_from_slice(block);
        }
        Ok(all.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Whole-container summaries and file helpers
// ---------------------------------------------------------------------------

/// What a full verifying scan of a container found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Schema version from the header.
    pub version: u16,
    /// Records-per-block bound from the header.
    pub block_len: u32,
    /// Blocks decoded.
    pub blocks: u64,
    /// Records decoded.
    pub records: u64,
    /// Stored payload bytes (after compression).
    pub compressed_payload: u64,
    /// Payload bytes before compression.
    pub raw_payload: u64,
    /// Records per [`AccessKind`], indexed by [`AccessKind::index`].
    pub kind_counts: [u64; 4],
}

impl TraceSummary {
    /// Size of a fixed-width encoding (12-byte header, 18 bytes per
    /// record), the baseline the compression ratio is quoted against.
    pub fn fixed_width_bytes(&self) -> u64 {
        12 + 18 * self.records
    }

    /// Stored payload bytes as a percentage of the fixed-width encoding.
    pub fn compressed_pct_of_fixed(&self) -> f64 {
        self.compressed_payload as f64 * 100.0 / self.fixed_width_bytes().max(1) as f64
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "format       RLT version {} ({} records/block)", self.version, self.block_len)?;
        writeln!(f, "records      {} in {} blocks", self.records, self.blocks)?;
        writeln!(
            f,
            "kinds        {} LD, {} RFO, {} PF, {} WB",
            self.kind_counts[0], self.kind_counts[1], self.kind_counts[2], self.kind_counts[3]
        )?;
        write!(
            f,
            "payload      {} bytes compressed / {} encoded / {} fixed-width ({:.1}% of fixed)",
            self.compressed_payload,
            self.raw_payload,
            self.fixed_width_bytes(),
            self.compressed_pct_of_fixed()
        )
    }
}

/// Reads and verifies every block (checksums, structure, end-frame
/// totals), returning the summary. This is `trace verify`'s engine.
///
/// # Errors
///
/// Propagates the first error the streaming reader reports.
pub fn scan<R: Read>(r: R) -> Result<TraceSummary, TraceIoError> {
    let mut reader = TraceReader::new(r)?;
    let mut kind_counts = [0u64; 4];
    while let Some(block) = reader.next_block()? {
        for rec in block {
            kind_counts[rec.kind.index()] += 1;
        }
    }
    Ok(TraceSummary {
        version: reader.version(),
        block_len: reader.block_len(),
        blocks: reader.blocks_read(),
        records: reader.records_read(),
        compressed_payload: reader.compressed_payload_bytes(),
        raw_payload: reader.raw_payload_bytes(),
        kind_counts,
    })
}

/// Loads a whole `RLT1` trace into memory.
///
/// # Errors
///
/// Returns [`TraceIoError::BadMagic`] for any other file, or the
/// reader's validation and I/O errors.
pub fn read_trace_file(path: &Path) -> Result<LlcTrace, TraceIoError> {
    TraceReader::new(io::BufReader::new(fs::File::open(path)?))?.read_to_trace()
}

/// Writes `trace` to `path` as an `RLT1` container.
///
/// # Errors
///
/// Returns any container or I/O error.
pub fn write_trace_file(path: &Path, trace: &LlcTrace, block_len: u32) -> Result<(), TraceIoError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = TraceWriter::with_block_len(io::BufWriter::new(fs::File::create(path)?), block_len)?;
    w.extend(trace.records())?;
    w.finish()?;
    Ok(())
}

/// Encodes `trace` as an in-memory `RLT1` container (tests, benches,
/// atomic-publish paths that hand bytes to `write_atomic`).
///
/// # Errors
///
/// Never fails in practice (`Vec` writes are infallible); the signature
/// matches the streaming writer's.
pub fn encode_trace(trace: &LlcTrace, block_len: u32) -> Result<Vec<u8>, TraceIoError> {
    let mut w = TraceWriter::with_block_len(Vec::new(), block_len)?;
    w.extend(trace.records())?;
    w.finish()
}

/// Streams a synthetic workload's demand-access stream into `writer` as
/// trace records, without running the cache hierarchy: `line = addr >> 6`,
/// loads vs RFOs by the entry's store flag, core 0. This is the *raw*
/// reference stream of a workload (every demand touch), as opposed to an
/// LLC capture, which only sees accesses the private levels missed.
///
/// # Errors
///
/// Returns any writer error.
pub fn export_workload<W: Write>(
    workload: &workloads::Workload,
    max_records: u64,
    writer: &mut TraceWriter<W>,
) -> Result<u64, TraceIoError> {
    let mut written = 0u64;
    for entry in workload.stream() {
        if written == max_records {
            break;
        }
        let kind = if entry.is_store { AccessKind::Rfo } else { AccessKind::Load };
        writer.push(LlcRecord { pc: entry.pc, line: entry.addr >> 6, kind, core: 0 })?;
        written += 1;
    }
    Ok(written)
}

// ---------------------------------------------------------------------------
// Salvage: best-effort recovery from a damaged container
// ---------------------------------------------------------------------------

/// What the salvage pass found for one block frame, in file order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockOutcome {
    /// Checksum verified and the payload decoded; the block's records are
    /// in the salvaged output.
    Recovered {
        /// Records carried by this block.
        records: u32,
    },
    /// The stored payload does not match its checksum. The frame header
    /// was plausible, so the block was skipped cleanly (framing holds).
    ChecksumFailed {
        /// Checksum recorded in the block frame.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        actual: u64,
    },
    /// Checksum verified but the payload would not decompress/decode —
    /// the writer itself emitted garbage. Skipped like a checksum failure.
    Undecodable(&'static str),
}

/// How the salvage scan ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailStatus {
    /// A structurally valid end frame whose totals match every *declared*
    /// block (recovered or skipped): the file's framing is intact end to
    /// end.
    CleanEnd,
    /// An end frame was found but its record total or chained digest
    /// disagrees with the frames that preceded it.
    EndFrameMismatch(&'static str),
    /// The stream ended mid-structure; the payload names the structure
    /// that was cut short (`"missing end frame"` for a clean cut at a
    /// frame boundary).
    Truncated(&'static str),
    /// A frame header was implausible (unknown tag, out-of-range sizes).
    /// Frame lengths can no longer be trusted, so the scan cannot skip
    /// forward; everything from this offset on is unrecoverable.
    FramingLost(&'static str),
}

/// Everything a salvage pass learned about a damaged container.
#[derive(Debug)]
pub struct SalvageReport {
    /// Per-block outcomes, in file order, up to where framing held.
    pub blocks: Vec<BlockOutcome>,
    /// Blocks whose records made it into the salvaged output.
    pub recovered_blocks: u64,
    /// Records in the salvaged output.
    pub recovered_records: u64,
    /// Blocks skipped (checksum failure or undecodable payload).
    pub damaged_blocks: u64,
    /// How the scan ended.
    pub tail: TailStatus,
}

impl SalvageReport {
    /// `true` when nothing was wrong: every block recovered and the end
    /// frame checked out. (`trace verify --repair` uses this to say "no
    /// repair needed".)
    pub fn is_intact(&self) -> bool {
        self.damaged_blocks == 0 && self.tail == TailStatus::CleanEnd
    }
}

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "salvage      {} of {} blocks recovered ({} records)",
            self.recovered_blocks,
            self.blocks.len(),
            self.recovered_records
        )?;
        for (i, outcome) in self.blocks.iter().enumerate() {
            match outcome {
                BlockOutcome::Recovered { .. } => {}
                BlockOutcome::ChecksumFailed { expected, actual } => writeln!(
                    f,
                    "  block {i}: checksum mismatch (stored {expected:#018x}, read {actual:#018x})"
                )?,
                BlockOutcome::Undecodable(what) => {
                    writeln!(f, "  block {i}: undecodable payload ({what})")?
                }
            }
        }
        match self.tail {
            TailStatus::CleanEnd => write!(f, "tail         clean end frame"),
            TailStatus::EndFrameMismatch(what) => {
                write!(f, "tail         end frame disagrees with blocks ({what})")
            }
            TailStatus::Truncated(what) => write!(f, "tail         truncated: {what}"),
            TailStatus::FramingLost(what) => {
                write!(f, "tail         framing lost: {what} (rest of file unrecoverable)")
            }
        }
    }
}

/// Reads to EOF-or-filled: `Ok(true)` when `buf` was filled, `Ok(false)`
/// on EOF anywhere inside it. Salvage treats both as data, never as an
/// abort — only real I/O errors propagate.
fn read_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Best-effort recovery of a damaged `RLT1` stream: walks the frames,
/// keeps every block whose checksum verifies and payload decodes, skips
/// damaged blocks (their known `comp_len` preserves framing), stops at a
/// truncated tail or lost framing, and rewrites the survivors as a fresh,
/// clean container (same `block_len`) into `out`.
///
/// Returns the per-block [`SalvageReport`] and the finished output writer.
/// The salvaged container always verifies; what it *contains* is exactly
/// the report's `recovered_records`.
///
/// # Errors
///
/// Only damage that leaves nothing to salvage is an error: a header that
/// is not a readable `RLT1` header ([`TraceIoError::BadMagic`],
/// [`TraceIoError::UnsupportedVersion`], out-of-range block length,
/// truncation inside the 12 header bytes) — plus real I/O errors from
/// either stream. All *content* damage is data, reported, never `Err`.
pub fn salvage<R: Read, W: Write>(mut r: R, out: W) -> Result<(SalvageReport, W), TraceIoError> {
    let Header { block_len, digest: header_digest, .. } = read_header(&mut r)?;
    let mut writer = TraceWriter::with_block_len(out, block_len)?;
    let mut report = SalvageReport {
        blocks: Vec::new(),
        recovered_blocks: 0,
        recovered_records: 0,
        damaged_blocks: 0,
        tail: TailStatus::CleanEnd,
    };
    // The original end frame covers *every* block it was written after —
    // damaged ones included — so judge it against the declared totals and
    // the stored checksums, not against what we recovered.
    let mut declared_records = 0u64;
    let mut declared_digest = header_digest;
    let mut payload = Vec::new();
    let mut raw = Vec::new();
    let mut records: Vec<LlcRecord> = Vec::new();

    report.tail = loop {
        let mut tag = [0u8; 1];
        if !read_or_eof(&mut r, &mut tag).map_err(TraceIoError::Io)? {
            break TailStatus::Truncated("missing end frame");
        }
        match tag[0] {
            FRAME_BLOCK => {
                let mut head = [0u8; 20];
                if !read_or_eof(&mut r, &mut head).map_err(TraceIoError::Io)? {
                    break TailStatus::Truncated("block header");
                }
                // A failed bound leaves comp_len untrustworthy, so the frame
                // can't even be skipped — framing is gone.
                let BlockHead { n_records, raw_len, comp_len, checksum } =
                    match BlockHead::parse(&head, block_len) {
                        Ok(head) => head,
                        Err(what) => break TailStatus::FramingLost(what),
                    };
                payload.resize(comp_len as usize, 0);
                if !read_or_eof(&mut r, &mut payload).map_err(TraceIoError::Io)? {
                    break TailStatus::Truncated("block payload");
                }
                declared_records += u64::from(n_records);
                declared_digest = fnv1a_continue(declared_digest, &checksum.to_le_bytes());
                let actual = fnv1a(&payload);
                if actual != checksum {
                    report.blocks.push(BlockOutcome::ChecksumFailed { expected: checksum, actual });
                    report.damaged_blocks += 1;
                    continue;
                }
                let decoded: Result<&[u8], &'static str> = if comp_len == raw_len {
                    Ok(&payload)
                } else {
                    raw.clear();
                    lz::decompress(&payload, raw_len as usize, &mut raw).map(|()| &raw[..])
                };
                records.clear();
                let outcome = decoded.and_then(|buf| {
                    decode_block(buf, n_records as usize, &mut records).map_err(|e| match e {
                        TraceIoError::Corrupt(what) => what,
                        _ => "block decode failed",
                    })
                });
                match outcome {
                    Ok(()) => {
                        writer.extend(&records)?;
                        report.blocks.push(BlockOutcome::Recovered { records: n_records });
                        report.recovered_blocks += 1;
                        report.recovered_records += u64::from(n_records);
                    }
                    Err(what) => {
                        report.blocks.push(BlockOutcome::Undecodable(what));
                        report.damaged_blocks += 1;
                    }
                }
            }
            FRAME_END => {
                let mut tail = [0u8; 16];
                if !read_or_eof(&mut r, &mut tail).map_err(TraceIoError::Io)? {
                    break TailStatus::Truncated("end frame");
                }
                let total = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
                let digest = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
                break if total != declared_records {
                    TailStatus::EndFrameMismatch("record total")
                } else if digest != declared_digest {
                    TailStatus::EndFrameMismatch("chained digest")
                } else {
                    TailStatus::CleanEnd
                };
            }
            _ => break TailStatus::FramingLost("unknown frame tag"),
        }
    };
    let out = writer.finish()?;
    Ok((report, out))
}

/// [`salvage`] over a file, returning the report and the clean container
/// bytes (for the caller to publish atomically).
///
/// # Errors
///
/// Same conditions as [`salvage`], plus failure to open the file.
pub fn salvage_file(path: &Path) -> Result<(SalvageReport, Vec<u8>), TraceIoError> {
    salvage(io::BufReader::new(fs::File::open(path)?), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> LlcTrace {
        (0..n)
            .map(|i| LlcRecord {
                pc: 0x400_000 + (i % 37) * 4,
                line: 0x8000 + (i * 7) % 513,
                kind: AccessKind::ALL[(i % 4) as usize],
                core: (i % 3) as u8,
            })
            .collect()
    }

    #[test]
    fn round_trips_across_block_boundaries() {
        for n in [0u64, 1, 63, 64, 65, 1000] {
            let trace = sample(n);
            let bytes = encode_trace(&trace, 64).expect("encode");
            let back = TraceReader::new(bytes.as_slice())
                .expect("header")
                .read_to_trace()
                .expect("decode");
            assert_eq!(trace, back, "n = {n}");
        }
    }

    #[test]
    fn reader_is_streaming_with_bounded_blocks() {
        let trace = sample(300);
        let bytes = encode_trace(&trace, 64).expect("encode");
        let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
        let mut sizes = Vec::new();
        while let Some(block) = reader.next_block().expect("block") {
            sizes.push(block.len());
        }
        assert_eq!(sizes, vec![64, 64, 64, 64, 44]);
        assert_eq!(reader.records_read(), 300);
        // Idempotent after the end frame.
        assert!(reader.next_block().expect("done").is_none());
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let trace = sample(130);
        let bytes = encode_trace(&trace, 64).expect("encode");
        for cut in 0..bytes.len() {
            let result =
                TraceReader::new(&bytes[..cut]).and_then(TraceReader::read_to_trace);
            assert!(result.is_err(), "prefix of {cut} bytes must not verify");
        }
    }

    #[test]
    fn single_byte_corruption_is_detected() {
        let trace = sample(200);
        let bytes = encode_trace(&trace, 64).expect("encode");
        // Flip one byte at a time; every position must fail verification
        // (header, frame headers, payloads, end frame — all covered).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let result = TraceReader::new(bad.as_slice()).and_then(|mut r| {
                while r.next_block()?.is_some() {}
                Ok(())
            });
            assert!(result.is_err(), "flipping byte {i} must not verify");
        }
    }

    #[test]
    fn scan_reports_counts_and_sizes() {
        let trace = sample(256);
        let bytes = encode_trace(&trace, 64).expect("encode");
        let summary = scan(bytes.as_slice()).expect("scan");
        assert_eq!(summary.records, 256);
        assert_eq!(summary.blocks, 4);
        assert_eq!(summary.kind_counts, [64, 64, 64, 64]);
        assert_eq!(summary.fixed_width_bytes(), 12 + 18 * 256);
        assert!(summary.compressed_payload <= summary.raw_payload);
    }

    #[test]
    fn hostile_headers_cannot_demand_memory() {
        // A block frame claiming u32::MAX records must be rejected from
        // its header alone, before any allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.push(FRAME_BLOCK);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // n_records
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // raw_len
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // comp_len
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
        assert!(matches!(reader.next_block(), Err(TraceIoError::Corrupt(_))));
    }

    #[test]
    fn salvage_of_a_clean_container_is_intact_and_lossless() {
        let trace = sample(300);
        let bytes = encode_trace(&trace, 64).expect("encode");
        let (report, out) = salvage(bytes.as_slice(), Vec::new()).expect("salvage");
        assert!(report.is_intact());
        assert_eq!(report.recovered_blocks, 5);
        assert_eq!(report.recovered_records, 300);
        assert_eq!(report.damaged_blocks, 0);
        assert_eq!(report.tail, TailStatus::CleanEnd);
        let back = TraceReader::new(out.as_slice()).expect("header").read_to_trace().expect("ok");
        assert_eq!(back, trace);
    }

    #[test]
    fn salvage_skips_a_payload_corrupted_block_and_keeps_the_rest() {
        let trace = sample(300);
        let mut bytes = encode_trace(&trace, 64).expect("encode");
        // Corrupt one payload byte of block 0. Its payload starts right
        // after the 12-byte header and 21-byte frame header; its length is
        // the frame's comp_len field (bytes 21..25 of the file).
        let comp_len =
            u32::from_le_bytes(bytes[12 + 9..12 + 13].try_into().expect("4 bytes")) as usize;
        let target = 12 + 21 + comp_len / 2;
        bytes[target] ^= 0xFF;
        let (report, out) = salvage(bytes.as_slice(), Vec::new()).expect("salvage");
        assert_eq!(report.blocks.len(), 5);
        assert!(matches!(report.blocks[0], BlockOutcome::ChecksumFailed { .. }));
        assert_eq!(report.recovered_blocks, 4);
        assert_eq!(report.recovered_records, 300 - 64);
        assert_eq!(report.damaged_blocks, 1);
        // The end frame still matches its *declared* blocks: framing is
        // intact even though one payload is rotten.
        assert_eq!(report.tail, TailStatus::CleanEnd);
        assert!(!report.is_intact());
        // The salvaged output is a clean, verifying container holding
        // exactly the surviving records.
        let summary = scan(out.as_slice()).expect("salvaged output verifies");
        assert_eq!(summary.records, 300 - 64);
        let back = TraceReader::new(out.as_slice()).expect("header").read_to_trace().expect("ok");
        assert_eq!(back.records(), &trace.records()[64..]);
    }

    #[test]
    fn salvage_reports_a_truncated_tail_and_keeps_the_prefix() {
        let trace = sample(300);
        let bytes = encode_trace(&trace, 64).expect("encode");
        // Cut inside the last block's payload.
        let cut = bytes.len() - 30;
        let (report, out) = salvage(&bytes[..cut], Vec::new()).expect("salvage");
        assert!(matches!(report.tail, TailStatus::Truncated(_)));
        assert!(report.recovered_records >= 64, "intact prefix blocks recovered");
        let summary = scan(out.as_slice()).expect("salvaged output verifies");
        assert_eq!(summary.records, report.recovered_records);
    }

    #[test]
    fn salvage_rejects_only_unusable_headers() {
        assert!(matches!(
            salvage(&b"NOPE"[..], Vec::new()),
            Err(TraceIoError::BadMagic(_))
        ));
        assert!(matches!(
            salvage(&b"RL"[..], Vec::new()),
            Err(TraceIoError::Truncated(_))
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            TraceReader::new(&b"NOPE"[..]),
            Err(TraceIoError::BadMagic(_))
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&9u16.to_le_bytes());
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            TraceReader::new(bytes.as_slice()),
            Err(TraceIoError::UnsupportedVersion(9))
        ));
    }
}
