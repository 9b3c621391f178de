//! Streaming compressed LLC-trace container (`RLT1`).
//!
//! The simulator's legacy `LLCT` format stores fixed-width 18-byte
//! records and must be fully resident to write or read. This crate adds a
//! versioned block container around the same [`cache_sim::LlcRecord`]
//! stream: per-block delta/varint columnar encoding, an in-tree LZ
//! compressor ([`lz`]), FNV-1a checksums on every block plus a chained
//! end-frame digest, and streaming [`TraceWriter`]/[`TraceReader`] pairs
//! whose memory is bounded by the block length — capture once, replay
//! many, at any trace length.
//!
//! Everything is hand-rolled in-tree; the crate adds no external
//! dependencies, matching the workspace's hermetic-build policy.

pub mod container;
pub mod lz;
pub mod varint;

pub use container::{
    encode_trace, fnv1a, read_trace_file, salvage, salvage_file, scan, sniff_format,
    write_trace_file, export_workload, BlockOutcome, SalvageReport, TailStatus, TraceFormat,
    TraceIoError, TraceReader, TraceSummary, TraceWriter, DEFAULT_BLOCK_LEN, MAX_BLOCK_LEN,
};
