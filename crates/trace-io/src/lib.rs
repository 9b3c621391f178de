//! Streaming compressed LLC-trace container (`RLT1`), the one on-disk
//! trace format.
//!
//! `cache-sim` holds traces in memory only; this crate stores them. The
//! container is a versioned block format around the
//! [`cache_sim::LlcRecord`] stream: per-block delta/varint columnar
//! encoding, an in-tree LZ compressor ([`lz`]), FNV-1a checksums on every
//! block plus a chained end-frame digest, and streaming
//! [`TraceWriter`]/[`TraceReader`] pairs whose memory is bounded by the
//! block length — capture once, replay many, at any trace length.
//!
//! Everything is hand-rolled in-tree; the crate adds no external
//! dependencies, matching the workspace's hermetic-build policy.

pub mod container;
pub mod lz;
pub mod varint;

pub use container::{
    encode_trace, fnv1a, read_trace_file, salvage, salvage_file, scan, write_trace_file,
    export_workload, BlockOutcome, SalvageReport, TailStatus, TraceIoError, TraceReader,
    TraceSummary, TraceWriter, DEFAULT_BLOCK_LEN, MAX_BLOCK_LEN,
};
