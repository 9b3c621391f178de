//! The trace corpus: capture-once / replay-many storage for LLC traces.
//!
//! The corpus stores each `(benchmark, scale)` trace exactly once, as a
//! compressed `RLT1` container under `results/corpus/`, and hands it to
//! any number of replays. Publication is atomic
//! ([`crate::checkpoint::write_atomic`]), so an interrupted capture can
//! never be mistaken for a complete trace — complementing the container's
//! own end-frame truncation detection.
//!
//! A *corrupt* container (checksum failure, torn tail, garbage) never
//! fails a sweep: [`load_or_capture`] quarantines it into
//! `results/corpus/quarantine/` (preserving the evidence for `rlr doctor`
//! / `trace verify --repair`), logs the move, and re-captures. Reads go
//! through the [`crate::fault`] seam, so every corruption shape is
//! reproducible in tests.

use std::fs;
use std::path::{Path, PathBuf};

use cache_sim::LlcTrace;
use trace_io::{TraceIoError, TraceReader};
use workloads::spec2006;

use crate::checkpoint::write_atomic;
use crate::fault::FaultReader;
use crate::report::results_dir;
use crate::runner::{capture_llc_trace, RunnerError};
use crate::scale::Scale;

/// Why a corpus trace could not be produced or loaded.
#[derive(Debug)]
pub enum CorpusError {
    /// The underlying simulation could not run.
    Runner(RunnerError),
    /// Reading or writing the container failed.
    Trace(TraceIoError),
    /// Filesystem failure outside the container codec.
    Io(std::io::Error),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Runner(e) => write!(f, "capture failed: {e}"),
            Self::Trace(e) => write!(f, "trace container: {e}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<RunnerError> for CorpusError {
    fn from(e: RunnerError) -> Self {
        Self::Runner(e)
    }
}

impl From<TraceIoError> for CorpusError {
    fn from(e: TraceIoError) -> Self {
        Self::Trace(e)
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Where corpus containers live (honours `RLR_RESULTS_DIR`).
pub fn corpus_dir() -> PathBuf {
    results_dir().join("corpus")
}

/// The corpus file for one `(benchmark, scale)` pair.
pub fn corpus_path(name: &str, scale: Scale) -> PathBuf {
    corpus_file(&corpus_dir(), name, scale)
}

fn corpus_file(dir: &Path, name: &str, scale: Scale) -> PathBuf {
    dir.join(format!("{}_{}.rlt", name.replace('.', "_"), scale))
}

/// Moves a damaged artifact into a `quarantine/` subdirectory beside it,
/// returning the destination. Never overwrites earlier quarantined copies
/// (a numeric suffix disambiguates), so repeated corruption of the same
/// path preserves every specimen.
///
/// # Errors
///
/// Returns the error from creating the quarantine directory or renaming.
pub fn quarantine_file(path: &Path) -> std::io::Result<PathBuf> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("artifact path has no file name"))?;
    let mut dest = qdir.join(name);
    let mut n = 1u32;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs::rename(path, &dest)?;
    Ok(dest)
}

/// Reads the container at `path` through the fault seam. A missing file
/// surfaces as `CorpusError::Io` with `NotFound`; anything else that fails
/// is damage.
fn read_container(path: &Path) -> Result<LlcTrace, CorpusError> {
    let f = FaultReader::new(fs::File::open(path)?);
    Ok(TraceReader::new(std::io::BufReader::new(f))?.read_to_trace()?)
}

/// Loads a `(benchmark, scale)` trace from the corpus, building it if
/// needed. Resolution order:
///
/// 1. an existing corpus container with at least half the scale's target
///    record count (so a smaller-scale capture is never silently reused);
/// 2. a fresh capture, published atomically.
///
/// `retrain` (the pipeline's `RLR_RETRAIN` switch) skips 1.
///
/// A container that exists but is *damaged* (bad checksum, torn tail,
/// garbage bytes) is quarantined into `quarantine/` beside it — evidence
/// preserved for `rlr doctor` — the move is logged on stderr, and capture
/// proceeds as if the entry were absent. A merely short container is
/// re-captured in place.
///
/// # Errors
///
/// Returns any capture error; a missing, short, or corrupt cached file is
/// never an error — it falls through to the next source.
pub fn load_or_capture(
    name: &'static str,
    scale: Scale,
    retrain: bool,
) -> Result<LlcTrace, CorpusError> {
    load_or_capture_in(&corpus_dir(), name, scale, retrain)
}

/// [`load_or_capture`] against an explicit corpus directory. This is the
/// seam the crash-consistency tests use: no environment mutation, no
/// shared global directory.
pub fn load_or_capture_in(
    dir: &Path,
    name: &'static str,
    scale: Scale,
    retrain: bool,
) -> Result<LlcTrace, CorpusError> {
    let min_len = scale.rl_trace_len() / 2;
    let path = corpus_file(dir, name, scale);
    if !retrain {
        match read_container(&path) {
            Ok(trace) if trace.len() >= min_len => {
                eprintln!("[corpus] {name}: loaded {} records from {}", trace.len(), path.display());
                return Ok(trace);
            }
            Ok(trace) => {
                eprintln!(
                    "[corpus] {name}: cached trace too short ({} records), re-capturing",
                    trace.len()
                );
            }
            Err(CorpusError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => match quarantine_file(&path) {
                Ok(dest) => eprintln!(
                    "[corpus] {name}: corrupt container ({e}); quarantined to {}, re-capturing",
                    dest.display()
                ),
                Err(qe) => eprintln!(
                    "[corpus] {name}: corrupt container ({e}); quarantine failed ({qe}), \
                     re-capturing over it"
                ),
            },
        }
    }
    eprintln!("[corpus] {name}: capturing LLC trace...");
    let workload = spec2006(name).ok_or_else(|| {
        CorpusError::Runner(RunnerError::UnknownBenchmark(name.to_owned()))
    })?;
    let trace = capture_llc_trace(&workload, scale, scale.rl_trace_len())?;
    publish(&path, &trace)?;
    Ok(trace)
}

/// Encodes `trace` and publishes it atomically at `path`.
fn publish(path: &Path, trace: &LlcTrace) -> Result<(), CorpusError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let bytes = trace_io::encode_trace(trace, trace_io::DEFAULT_BLOCK_LEN)?;
    write_atomic(path, &bytes)?;
    Ok(())
}

/// Full verification pass over one corpus entry (used by `trace verify`
/// and the experiment preflight): checksums, structure, and totals.
///
/// # Errors
///
/// Returns the first container error the scan hits.
pub fn verify(name: &str, scale: Scale) -> Result<trace_io::TraceSummary, CorpusError> {
    let f = FaultReader::new(fs::File::open(corpus_path(name, scale))?);
    Ok(trace_io::scan(std::io::BufReader::new(f))?)
}

/// A corpus entry opened for streaming replay; reads go through the fault
/// seam so tests can inject short reads.
pub type CorpusReader = TraceReader<std::io::BufReader<FaultReader<fs::File>>>;

/// Opens one corpus entry as a streaming reader (bounded-memory replay).
///
/// # Errors
///
/// Returns any open or header-validation error.
pub fn open(name: &str, scale: Scale) -> Result<CorpusReader, CorpusError> {
    let f = FaultReader::new(fs::File::open(corpus_path(name, scale))?);
    Ok(TraceReader::new(std::io::BufReader::new(f))?)
}
