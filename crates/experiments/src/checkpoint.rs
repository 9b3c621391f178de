//! The checkpointed sweep: every experiment grid (benchmark × policy,
//! trace × object-cache policy, mix × isolation mode) runs through
//! [`run_checkpointed_sweep`], which persists each completed [`Cell`] as a
//! small JSON file under a cache directory, keyed by a fingerprint of
//! everything that determines its value. Re-running the sweep loads
//! finished cells instead of recomputing them, so an interrupted run
//! resumes where it stopped — and because every cell result is all `u64`s
//! and the codec is exact ([`CellCodec`], [`crate::json`]), a resumed sweep
//! is byte-identical to an uninterrupted one.
//!
//! The on-disk format is one decision made here: a JSON object holding the
//! cell's `key` string plus the result's exact-u64 fields, stored as
//! `{fnv1a(key):016x}.json`. [`encode_cell`]/[`decode_cell`] and
//! [`store_cell`]/[`load_cell`] are generic over the result type, so the
//! LLC, object-cache and tenancy families differ only in their fields.
//!
//! # Durability contract
//!
//! [`write_atomic`] provides *atomic visibility* and *rename durability*:
//!
//! * Data goes to a scratch file of its own (`.{name}.tmp.{pid}.{n}`, `n`
//!   unique per call) in the target directory, is `fsync`ed there, and
//!   only then `rename`d into place. A reader therefore sees either no
//!   file or the complete file — never a torn one — and the renamed
//!   file's *contents* are on stable storage before the name appears.
//! * After a successful rename the parent **directory** is `fsync`ed too
//!   (on Unix), so the new directory entry itself survives power loss; a
//!   checkpoint that `write_atomic` returned `Ok` for cannot silently
//!   vanish.
//! * A failed write leaves the scratch file behind, exactly as a crash
//!   would; [`sweep_orphans`] (run when a checkpoint directory is opened
//!   for a sweep) deletes such leftovers. Resume correctness never depends
//!   on the sweep — loads only look at final names — it just stops killed
//!   runs leaking files forever.
//!
//! Loads verify the embedded key string and treat any mismatch, short
//! read, or corruption as a miss (the cell is recomputed). All file I/O
//! goes through the [`crate::fault`] seam, so every one of these crash
//! shapes is drivable deterministically from a test or `RLR_FAIL_PLAN`.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cache_sim::{CacheStats, KindCounts, RunStats};

use crate::fault::{FaultReader, FaultWriter};
use crate::json::Json;
use crate::runner::{
    resolve_jobs, run_one_task, run_pool, run_tasks_resilient, RunOptions, SweepOptions,
    TaskFailure,
};

/// Version prefix baked into every cell key; bump to invalidate all
/// existing checkpoints when the simulator's semantics change.
const KEY_VERSION: &str = "v1";

/// Identifies one sweep cell: a human-readable key plus its hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellKey {
    /// The full key string (embedded in the checkpoint for verification).
    pub key: String,
    /// FNV-1a hash of `key`, used as the file name.
    pub hash: u64,
}

impl CellKey {
    /// Wraps a full key string, e.g. one read back from a cell file.
    pub fn new(key: String) -> Self {
        let hash = trace_io::fnv1a(key.as_bytes());
        Self { key, hash }
    }

    /// File name for this cell's checkpoint.
    pub fn file_name(&self) -> String {
        format!("{:016x}.json", self.hash)
    }
}

/// Builds the key for one cell from the benchmark, policy, and a free-form
/// `params` string capturing everything else that affects the result
/// (scale, instruction counts, config knobs).
pub fn cell_key(bench: &str, policy: &str, params: &str) -> CellKey {
    CellKey::new(format!("{KEY_VERSION}|{bench}|{policy}|{params}"))
}

/// One unit of a checkpointed sweep: a deterministic computation plus
/// everything [`run_checkpointed_sweep`] needs to cache it.
pub trait Cell: Sync {
    /// Checkpoint family: the `results/cache/<family>/` directory the
    /// cells live in by default and the tag of their progress lines.
    const FAMILY: &'static str;
    /// The cell's result, persisted through its exact codec.
    type Out: CellCodec + Send;
    /// Everything that determines [`Cell::run`]'s result.
    fn key(&self) -> CellKey;
    /// Human-readable name for progress lines (`[family] label done`).
    fn label(&self) -> String;
    /// Computes the cell. Must be a pure function of [`Cell::key`].
    fn run(&self) -> Self::Out;
    /// `true` when [`Cell::run_batch`] computes several cells of one sweep
    /// more cheaply than running them one by one (the sweep then hands it
    /// the missing cells in at most `jobs` contiguous batches).
    const BATCHED: bool = false;
    /// Computes `cells` together; the results are in `cells` order and
    /// each equals that cell's [`Cell::run`].
    fn run_batch(cells: &[&Self]) -> Vec<Self::Out>
    where
        Self: Sized,
    {
        cells.iter().map(|c| c.run()).collect()
    }
}

/// The exact on-disk form of a cell result or one of its parts: a `u64`,
/// or objects and fixed-length arrays built from them, so
/// decode(encode(x)) == x. A cell result ([`Cell::Out`]) encodes as an
/// object, into which [`encode_cell`] adds the `key` field.
pub trait CellCodec: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// Rebuilds the value, or `None` if any part is missing or malformed.
    fn from_json(v: &Json) -> Option<Self>;
}

/// Implements [`CellCodec`] for a struct as a JSON object holding each
/// listed field under its own name. The one field list serves both
/// directions, and the struct literal makes the compiler reject a list
/// that misses a field.
macro_rules! cell_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::checkpoint::CellCodec for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([$((stringify!($field), self.$field.to_json())),+])
            }

            fn from_json(v: &$crate::json::Json) -> Option<Self> {
                use $crate::checkpoint::CellCodec;
                Some(Self { $($field: CellCodec::from_json(v.get(stringify!($field))?)?),+ })
            }
        }
    };
}
pub(crate) use cell_object;

/// Runs `cells` on the worker pool with failure isolation and per-cell
/// resume. The one implementation of the sweep loop for every family.
///
/// Opening `opts.cache_dir` first reaps crash residue ([`sweep_orphans`]).
/// Each cell is then looked up there (a hit skips the computation — this
/// is what makes interrupted sweeps resumable) and stored there atomically
/// on completion; a `[family] label cached|done` line goes to stderr
/// either way. Failed cells surface as `Err(TaskFailure)` in their slot
/// after [`crate::runner::RunOptions::retries`]; results match `cells`
/// order independent of scheduling.
///
/// A family that batches ([`Cell::BATCHED`]) gets its missing cells in at
/// most `jobs` contiguous batches, each one pool task. Three cases keep
/// the per-cell path — one pool task per cell, the cell index as task
/// index, the configured retries: cells a fault directive targets
/// ([`crate::fault::FailPlan::targets`]), every cell when a watchdog
/// budget is armed (a budget is per cell), and every cell of a batch that
/// panicked.
pub fn run_checkpointed_sweep<C: Cell>(
    cells: &[C],
    opts: &SweepOptions,
) -> Vec<Result<C::Out, TaskFailure>> {
    if let Some(dir) = &opts.cache_dir {
        let swept = sweep_orphans(dir);
        if swept > 0 {
            let dir = dir.display();
            eprintln!("[{}] removed {swept} orphaned scratch file(s) from {dir}", C::FAMILY);
        }
    }
    let jobs = resolve_jobs(opts.jobs);
    let per_cell = |_: usize, cell: &C| {
        load_cached(cell, opts).unwrap_or_else(|| {
            let out = cell.run();
            store_done(cell, opts, &out);
            out
        })
    };
    if !C::BATCHED || opts.run.budget.is_some() {
        return run_tasks_resilient(cells, jobs, &opts.run, per_cell);
    }

    let mut results: Vec<Option<Result<C::Out, TaskFailure>>> =
        cells.iter().map(|_| None).collect();
    let mut per_cell_idx = Vec::new();
    let mut missing = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if opts.run.fail_plan.targets(i) {
            per_cell_idx.push(i);
        } else if let Some(out) = load_cached(cell, opts) {
            results[i] = Some(Ok(out));
        } else {
            missing.push(i);
        }
    }
    let batches: Vec<&[usize]> = missing.chunks(missing.len().div_ceil(jobs).max(1)).collect();
    let outs = run_tasks_resilient(&batches, jobs, &RunOptions::none(), |_, batch| {
        let batch_cells: Vec<&C> = batch.iter().map(|&i| &cells[i]).collect();
        let outs = C::run_batch(&batch_cells);
        assert_eq!(outs.len(), batch.len(), "one result per batched cell");
        for (cell, out) in batch_cells.into_iter().zip(&outs) {
            store_done(cell, opts, out);
        }
        outs
    });
    for (batch, out) in batches.into_iter().zip(outs) {
        match out {
            Ok(outs) => {
                for (&i, out) in batch.iter().zip(outs) {
                    results[i] = Some(Ok(out));
                }
            }
            Err(failure) => {
                eprintln!(
                    "[{}] batch of {} cell(s) failed ({}); rerunning them one by one",
                    C::FAMILY,
                    batch.len(),
                    failure.kind
                );
                per_cell_idx.extend_from_slice(batch);
            }
        }
    }
    per_cell_idx.sort_unstable();
    let reruns =
        run_pool(&per_cell_idx, jobs, |_, &i| run_one_task(&opts.run, i, &cells[i], &per_cell));
    for (i, r) in per_cell_idx.into_iter().zip(reruns) {
        results[i] = Some(r);
    }
    results.into_iter().map(|r| r.expect("every cell is resolved")).collect()
}

/// The cell's checkpoint from `opts.cache_dir`, if there is a valid one;
/// prints the `cached` line.
fn load_cached<C: Cell>(cell: &C, opts: &SweepOptions) -> Option<C::Out> {
    let out = load_cell(opts.cache_dir.as_deref()?, &cell.key())?;
    eprintln!("[{}] {} cached", C::FAMILY, cell.label());
    Some(out)
}

/// Stores a computed cell under `opts.cache_dir` (if any) and prints the
/// `done` line.
fn store_done<C: Cell>(cell: &C, opts: &SweepOptions, out: &C::Out) {
    if let Some(dir) = &opts.cache_dir {
        store_cell(dir, &cell.key(), out);
    }
    eprintln!("[{}] {} done", C::FAMILY, cell.label());
}

/// Writes `contents` to `path` atomically and durably: scratch file,
/// `fsync`, `rename`, parent-directory `fsync` (see the module docs for
/// the full contract).
///
/// # Errors
///
/// Returns any I/O error from creating the parent directory, writing or
/// syncing the scratch file, or renaming it into place. A write/sync
/// failure leaves the scratch file on disk — the same residue a crash
/// leaves — for [`sweep_orphans`] to clean up; the final name is never
/// created or modified on any error path.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    // A scratch name unique to this call (pid plus a process-wide counter),
    // so neither concurrent processes nor two threads storing the same cell
    // can share, truncate or steal each other's scratch file; rename within
    // one directory is atomic on POSIX.
    static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);
    let scratch = dir.join(format!(
        ".{}.tmp.{}.{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("checkpoint"),
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = FaultWriter::new(fs::File::create(&scratch)?);
    f.write_all(contents)?;
    f.get_ref().sync_all()?;
    drop(f);
    match fs::rename(&scratch, path) {
        Ok(()) => {
            sync_dir(dir);
            Ok(())
        }
        Err(e) => {
            let _ = fs::remove_file(&scratch);
            Err(e)
        }
    }
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
/// Best-effort: a failure here cannot un-publish the rename, and some
/// filesystems refuse directory fsync, so errors are ignored.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// `true` for the scratch-file names [`write_atomic`] uses
/// (`.{name}.tmp.{pid}.{n}`), i.e. the residue of a killed or failed write.
/// Older `.{name}.tmp.{pid}` residue matches too.
pub(crate) fn is_scratch_name(name: &str) -> bool {
    name.starts_with('.') && name.contains(".tmp.")
}

/// Deletes orphaned scratch files (`.{name}.tmp.{pid}.{n}` leftovers from
/// killed or fault-injected runs) in `dir`, returning how many were
/// removed. Final-name checkpoints are never touched. Called when a sweep
/// opens its checkpoint directory; racing a *live* writer's scratch file
/// is benign — its rename fails, [`store_cell`] warns, and that one cell
/// is recomputed on the next run.
pub fn sweep_orphans(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        if is_scratch_name(&entry.file_name().to_string_lossy())
            && fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

impl CellCodec for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }

    fn from_json(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

/// A fixed-length array, rejected unless exactly `N` elements long.
impl<T: CellCodec + Copy + Default, const N: usize> CellCodec for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Json) -> Option<Self> {
        let arr = v.as_arr()?;
        if arr.len() != N {
            return None;
        }
        let mut out = [T::default(); N];
        for (slot, x) in out.iter_mut().zip(arr) {
            *slot = T::from_json(x)?;
        }
        Some(out)
    }
}

/// `[accesses, hits]`; a pair with more hits than accesses is corrupt.
impl CellCodec for KindCounts {
    fn to_json(&self) -> Json {
        [self.accesses, self.hits].to_json()
    }

    fn from_json(v: &Json) -> Option<Self> {
        let [accesses, hits] = <[u64; 2]>::from_json(v)?;
        (hits <= accesses).then_some(KindCounts { accesses, hits })
    }
}

// `bypasses` is always 0 (every miss allocates) but stays in the format:
// dropping it would change the bytes of every stored cell.
cell_object!(CacheStats { by_kind, writebacks_out, bypasses, evictions });

cell_object!(RunStats {
    instructions,
    cycles,
    l1d,
    l2,
    llc,
    memory_reads,
    memory_writes,
    dram_row_hits,
    dram_row_misses,
});

/// Encodes a cell checkpoint: the verification key plus the result's
/// fields.
pub fn encode_cell<T: CellCodec>(key: &CellKey, out: &T) -> String {
    let Json::Obj(mut fields) = out.to_json() else {
        panic!("a cell result must encode as a JSON object");
    };
    fields.insert("key".to_owned(), Json::Str(key.key.clone()));
    Json::Obj(fields).encode()
}

/// Decodes a cell checkpoint, verifying its embedded key matches `key`.
pub fn decode_cell<T: CellCodec>(text: &str, key: &CellKey) -> Option<T> {
    let v = Json::parse(text).ok()?;
    if v.get("key")?.as_str()? != key.key {
        return None; // hash collision or stale file from another config
    }
    T::from_json(&v)
}

/// Loads the checkpoint for `key` from `dir`, or `None` if absent,
/// corrupt, or written for a different key.
pub fn load_cell<T: CellCodec>(dir: &Path, key: &CellKey) -> Option<T> {
    let mut text = String::new();
    let mut reader = FaultReader::new(fs::File::open(dir.join(key.file_name())).ok()?);
    reader.read_to_string(&mut text).ok()?;
    decode_cell(&text, key)
}

/// Persists one completed cell. Failure to write is reported on stderr but
/// never aborts the sweep — a missing checkpoint only costs recomputation.
pub fn store_cell<T: CellCodec>(dir: &Path, key: &CellKey, out: &T) {
    let path = dir.join(key.file_name());
    if let Err(e) = write_atomic(&path, encode_cell(key, out).as_bytes()) {
        eprintln!("warning: could not write checkpoint {}: {e}", path.display());
    }
}

/// Cell-checkpoint directory for a named family: `results/cache/<family>/`.
/// Each experiment family (`sweep`, `objcache`, `tenancy`, ...) keeps its
/// cells in its own subdirectory so `rlr doctor` can walk and classify
/// them uniformly.
pub fn cache_dir_for(family: &str) -> PathBuf {
    crate::report::results_dir().join("cache").join(family)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> RunStats {
        let mut stats = RunStats {
            instructions: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            cycles: seed + 17,
            memory_reads: seed * 3,
            memory_writes: seed / 2,
            dram_row_hits: u64::MAX - seed,
            dram_row_misses: 0,
            ..RunStats::default()
        };
        for (i, k) in stats.llc.by_kind.iter_mut().enumerate() {
            k.accesses = seed + 10 * i as u64;
            k.hits = (seed + 10 * i as u64) / 2;
        }
        stats.llc.evictions = seed;
        stats.l1d.writebacks_out = seed + 1;
        stats
    }

    #[test]
    fn cell_roundtrips_exactly() {
        for seed in [0, 1, 12345, u64::MAX / 3] {
            let key = cell_key("429.mcf", "rlr", "small|i1000");
            let stats = sample_stats(seed);
            let decoded: RunStats =
                decode_cell(&encode_cell(&key, &stats), &key).expect("roundtrip");
            assert_eq!(decoded, stats);
        }
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let key = cell_key("429.mcf", "rlr", "small");
        let other = cell_key("429.mcf", "lru", "small");
        let text = encode_cell(&key, &sample_stats(7));
        assert!(decode_cell::<RunStats>(&text, &other).is_none());
        assert!(decode_cell::<RunStats>("{\"key\":1}", &key).is_none(), "corrupt text is a miss");
        assert!(decode_cell::<RunStats>("", &key).is_none());
    }

    #[test]
    fn distinct_cells_get_distinct_files() {
        let a = cell_key("429.mcf", "rlr", "small");
        let b = cell_key("429.mcf", "rlr", "medium");
        let c = cell_key("470.lbm", "rlr", "small");
        assert_ne!(a.file_name(), b.file_name());
        assert_ne!(a.file_name(), c.file_name());
        // Same inputs must always map to the same file (stable hash).
        assert_eq!(a, cell_key("429.mcf", "rlr", "small"));
    }

    #[test]
    fn store_and_load_via_disk() {
        let dir = std::env::temp_dir().join(format!("rlr_ck_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = cell_key("483.xalancbmk", "ship", "small|i5000");
        assert!(load_cell::<RunStats>(&dir, &key).is_none(), "cold cache misses");
        let stats = sample_stats(99);
        store_cell(&dir, &key, &stats);
        assert_eq!(load_cell(&dir, &key), Some(stats));
        // A torn write (scratch file left behind) must not be visible.
        assert!(
            fs::read_dir(&dir).expect("dir exists").all(|e| {
                !e.expect("entry").file_name().to_string_lossy().contains(".tmp.")
            }),
            "no scratch files survive a successful store"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_sweep_removes_scratch_but_not_checkpoints() {
        let dir = std::env::temp_dir().join(format!("rlr_orphan_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = cell_key("429.mcf", "rlr", "small");
        let stats = sample_stats(3);
        store_cell(&dir, &key, &stats);
        // Fabricate the residue of two killed runs plus an unrelated dotfile.
        fs::write(dir.join(".aaaa.json.tmp.123"), b"torn").expect("orphan 1");
        fs::write(dir.join(".bbbb.json.tmp.99999"), b"").expect("orphan 2");
        fs::write(dir.join(".keepme"), b"not a scratch file").expect("dotfile");
        assert_eq!(sweep_orphans(&dir), 2);
        assert_eq!(load_cell(&dir, &key), Some(stats), "checkpoint survives the sweep");
        assert!(dir.join(".keepme").exists(), "non-scratch dotfiles survive");
        assert_eq!(sweep_orphans(&dir), 0, "sweep is idempotent");
        assert_eq!(sweep_orphans(Path::new("/nonexistent/rlr")), 0, "missing dir is a no-op");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_cell_never_share_a_scratch_file() {
        let dir = std::env::temp_dir().join(format!("rlr_race_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = cell_key("429.mcf", "LRU", "small");
        let path = dir.join(key.file_name());
        let encoded = encode_cell(&key, &sample_stats(5));
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let (path, encoded) = (&path, &encoded);
                scope.spawn(move || {
                    for call in 0..50 {
                        write_atomic(path, encoded.as_bytes()).unwrap_or_else(|e| {
                            panic!("thread {thread}, call {call}: {e}")
                        });
                    }
                });
            }
        });
        assert_eq!(fs::read(&path).expect("published cell"), encoded.as_bytes());
        assert_eq!(sweep_orphans(&dir), 0, "no scratch file is left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_scratch_and_no_checkpoint() {
        use crate::fault::{with_io_plan, IoFailPlan};
        let dir = std::env::temp_dir().join(format!("rlr_torn_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = cell_key("429.mcf", "rlr", "small");
        let path = dir.join(key.file_name());
        let encoded = encode_cell(&key, &sample_stats(11));
        with_io_plan(IoFailPlan::parse("torn:8").expect("valid"), || {
            write_atomic(&path, encoded.as_bytes()).expect_err("torn write fails");
        });
        assert!(!path.exists(), "no final-name file appears on a torn write");
        assert!(load_cell::<RunStats>(&dir, &key).is_none());
        assert_eq!(sweep_orphans(&dir), 1, "the crash residue is exactly one scratch file");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cell whose result is derived from its seed and which counts how
    /// often it actually ran.
    struct CountingCell<'a> {
        seed: u64,
        runs: &'a std::sync::atomic::AtomicUsize,
    }

    impl Cell for CountingCell<'_> {
        const FAMILY: &'static str = "test";
        type Out = RunStats;
        fn key(&self) -> CellKey {
            cell_key("counting", "none", &format!("seed{}", self.seed))
        }
        fn label(&self) -> String {
            format!("seed{}", self.seed)
        }
        fn run(&self) -> RunStats {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            sample_stats(self.seed)
        }
    }

    /// A batching cell: counts its batches, and a batch holding the
    /// `poison` seed panics (one cell alone never does).
    struct BatchCell<'a> {
        seed: u64,
        poison: u64,
        batches: &'a std::sync::atomic::AtomicUsize,
    }

    impl Cell for BatchCell<'_> {
        const FAMILY: &'static str = "test";
        type Out = RunStats;
        fn key(&self) -> CellKey {
            cell_key("batching", "none", &format!("seed{}", self.seed))
        }
        fn label(&self) -> String {
            format!("seed{}", self.seed)
        }
        fn run(&self) -> RunStats {
            sample_stats(self.seed)
        }
        const BATCHED: bool = true;
        fn run_batch(cells: &[&Self]) -> Vec<RunStats> {
            cells[0].batches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert!(
                cells.len() == 1 || cells.iter().all(|c| c.seed != c.poison),
                "poisoned batch"
            );
            cells.iter().map(|c| c.run()).collect()
        }
    }

    #[test]
    fn batched_sweep_falls_back_per_cell_on_targets_and_panics() {
        use crate::fault::FailPlan;
        use crate::runner::RunOptions;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let batches = AtomicUsize::new(0);
        let cells: Vec<BatchCell> =
            (0..7).map(|seed| BatchCell { seed, poison: 5, batches: &batches }).collect();
        let opts = |plan: &str| SweepOptions {
            jobs: Some(2),
            run: RunOptions {
                fail_plan: FailPlan::parse(plan).expect("valid"),
                ..RunOptions::none()
            },
            cache_dir: None,
        };
        // Cell 0 is targeted, so cells 1..7 go out as batches [1,2,3] and
        // [4,5,6]; the second is poisoned and its cells rerun one by one.
        let out = run_checkpointed_sweep(&cells, &opts("panic:0"));
        assert_eq!(batches.load(Ordering::Relaxed), 2, "at most `jobs` batches");
        let failure = out[0].as_ref().expect_err("the targeted cell fails");
        assert_eq!((failure.index, failure.attempts), (0, 1));
        for (seed, cell) in out.iter().enumerate().skip(1) {
            assert_eq!(cell.as_ref().ok(), Some(&sample_stats(seed as u64)), "cell {seed}");
        }
        // A budget sends every cell down the per-cell path: no batches.
        let budgeted = SweepOptions {
            run: RunOptions { budget: Some(1 << 20), ..RunOptions::none() },
            ..opts("")
        };
        assert!(run_checkpointed_sweep(&cells, &budgeted).iter().all(Result::is_ok));
        assert_eq!(batches.load(Ordering::Relaxed), 2, "a watchdog budget disables batching");
    }

    #[test]
    fn sweep_stores_cold_cells_and_loads_warm_ones() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("rlr_sweep_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(".dead.json.tmp.1"), b"torn").expect("orphan");
        let runs = AtomicUsize::new(0);
        let cells: Vec<CountingCell> =
            (0..5).map(|seed| CountingCell { seed, runs: &runs }).collect();
        let opts =
            SweepOptions { jobs: Some(2), cache_dir: Some(dir.clone()), ..SweepOptions::none() };
        let unwrap = |r: Vec<Result<RunStats, TaskFailure>>| -> Vec<RunStats> {
            r.into_iter().map(|c| c.expect("cell ok")).collect()
        };
        let cold = unwrap(run_checkpointed_sweep(&cells, &opts));
        assert_eq!(runs.load(Ordering::Relaxed), 5, "every cold cell runs");
        assert!(!dir.join(".dead.json.tmp.1").exists(), "opening the sweep reaps orphans");
        let warm = unwrap(run_checkpointed_sweep(&cells, &opts));
        assert_eq!(runs.load(Ordering::Relaxed), 5, "every warm cell loads");
        assert_eq!(cold, warm);
        assert_eq!(cold, (0..5).map(sample_stats).collect::<Vec<_>>(), "results keep input order");
        let uncached = unwrap(run_checkpointed_sweep(&cells, &SweepOptions::none()));
        assert_eq!(runs.load(Ordering::Relaxed), 10, "no cache dir, no loads");
        assert_eq!(uncached, cold);
        let _ = fs::remove_dir_all(&dir);
    }
}
