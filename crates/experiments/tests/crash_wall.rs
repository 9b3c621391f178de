//! The crash-consistency wall: a checkpoint write torn at *every* byte
//! offset must never expose a partial cell, a damaged cell is always a
//! miss (never silently wrong data), an I/O fault mid-sweep never stops
//! the sweep or perturbs its results, the corpus quarantines and
//! re-captures corrupt containers, and `doctor` heals a battered results
//! tree in one pass.

use std::fs;
use std::path::PathBuf;

use cache_sim::{AccessKind, LlcRecord, LlcTrace, RunStats};
use experiments::checkpoint::{
    cell_key, decode_cell, encode_cell, load_cell, store_cell, sweep_orphans, write_atomic,
};
use experiments::fault::{with_io_plan, IoFailPlan};
use experiments::runner::{run_roster_resilient, RunOptions, SweepOptions};
use experiments::{PolicyKind, Scale};
use simrng::prop::{check, Config};
use simrng::{Rng, SimRng};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlr_crash_wall_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic non-trivial stats, parameterised so property tests can
/// vary every field from plain `u64` draws.
fn stats_from(seeds: &[u64]) -> RunStats {
    let at = |i: usize| seeds.get(i).copied().unwrap_or(i as u64 * 7 + 1);
    let mut stats = RunStats {
        instructions: at(0),
        cycles: at(1),
        memory_reads: at(2),
        memory_writes: at(3),
        dram_row_hits: at(4),
        dram_row_misses: at(5),
        ..RunStats::default()
    };
    for (i, k) in stats.llc.by_kind.iter_mut().enumerate() {
        k.accesses = at(6 + i);
        k.hits = k.accesses / 2;
    }
    stats.llc.evictions = at(10);
    stats.l1d.writebacks_out = at(11);
    stats
}

fn list_scratch_files(dir: &std::path::Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect()
}

/// Tearing the checkpoint write at every byte offset: the write fails, no
/// final-name file ever appears, a resumed load is a miss, and the only
/// residue is one scratch file that the orphan sweep removes.
#[test]
fn torn_write_at_every_offset_never_exposes_a_partial_checkpoint() {
    let dir = scratch_dir("torn_offsets");
    let key = cell_key("429.mcf", "rlr", "crash-wall");
    let path = dir.join(key.file_name());
    let stats = stats_from(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]);
    let encoded = encode_cell(&key, &stats);
    for cut in 0..encoded.len() {
        let plan = IoFailPlan::parse(&format!("torn:{cut}")).expect("valid plan");
        with_io_plan(plan, || {
            write_atomic(&path, encoded.as_bytes())
                .expect_err(&format!("a write torn at byte {cut} must fail"));
        });
        assert!(!path.exists(), "cut {cut}: no final-name file may appear");
        assert!(load_cell::<RunStats>(&dir, &key).is_none(), "cut {cut}: a torn cell is a miss");
        assert_eq!(sweep_orphans(&dir), 1, "cut {cut}: exactly one scratch file of residue");
    }
    // A fault *past* the payload never fires: the write goes through.
    let plan = IoFailPlan::parse(&format!("torn:{}", encoded.len())).expect("valid plan");
    with_io_plan(plan, || {
        write_atomic(&path, encoded.as_bytes()).expect("untriggered fault is a clean write");
    });
    assert_eq!(load_cell(&dir, &key), Some(stats));
    assert!(list_scratch_files(&dir).is_empty(), "a successful write leaves no scratch file");
    let _ = fs::remove_dir_all(&dir);
}

/// An `enospc` fault behaves like the torn write: the error surfaces, the
/// final name never appears, and only scratch residue is left behind.
#[test]
fn enospc_write_is_invisible_and_leaves_only_scratch_residue() {
    let dir = scratch_dir("enospc");
    let key = cell_key("470.lbm", "lru", "crash-wall");
    let path = dir.join(key.file_name());
    let encoded = encode_cell(&key, &stats_from(&[42]));
    with_io_plan(IoFailPlan::parse("enospc").expect("valid plan"), || {
        let err = write_atomic(&path, encoded.as_bytes()).expect_err("full disk fails the write");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    });
    assert!(!path.exists());
    assert!(load_cell::<RunStats>(&dir, &key).is_none());
    assert_eq!(sweep_orphans(&dir), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A short read of a perfectly good checkpoint is a miss, never a panic
/// or a truncated decode.
#[test]
fn short_read_makes_a_stored_cell_a_miss() {
    let dir = scratch_dir("short_read");
    let key = cell_key("429.mcf", "fifo", "crash-wall");
    let stats = stats_from(&[7, 7, 7]);
    store_cell(&dir, &key, &stats);
    with_io_plan(IoFailPlan::parse("short-read:10").expect("valid plan"), || {
        assert!(
            load_cell::<RunStats>(&dir, &key).is_none(),
            "a 10-byte read of the cell is a miss"
        );
    });
    assert_eq!(load_cell(&dir, &key), Some(stats), "the cell itself is undamaged");
    let _ = fs::remove_dir_all(&dir);
}

/// Property: a checkpoint cell truncated at *any* byte offset decodes as
/// a miss — for arbitrary stats, including the shrunk prefixes of the
/// seed vector.
#[test]
fn truncated_cell_always_decodes_as_a_miss() {
    check(
        "truncated_cell_always_decodes_as_a_miss",
        Config::with_cases(24),
        |rng: &mut SimRng| (0..12).map(|_| rng.gen_range(0..u64::MAX)).collect::<Vec<u64>>(),
        |seeds: &Vec<u64>| {
            let key = cell_key("429.mcf", "rlr", "truncation-prop");
            let stats = stats_from(seeds);
            let text = encode_cell(&key, &stats);
            if decode_cell(&text, &key).as_ref() != Some(&stats) {
                return Err("the untruncated cell must round-trip".to_owned());
            }
            // The encoding is pure ASCII, so every byte offset is a valid
            // char boundary.
            for cut in 0..text.len() {
                if decode_cell::<RunStats>(&text[..cut], &key).is_some() {
                    return Err(format!("prefix of {cut}/{} bytes decoded", text.len()));
                }
            }
            Ok(())
        },
    );
}

/// Flipping any single byte of a stored cell on disk makes the load a
/// miss: the high bit set by the flip can never survive key verification
/// or JSON parsing, so a resumed sweep recomputes rather than trusting
/// damaged data.
#[test]
fn flipped_cell_byte_at_every_offset_is_a_miss() {
    let dir = scratch_dir("flip_offsets");
    let key = cell_key("429.mcf", "ship++", "crash-wall");
    let stats = stats_from(&[11, 22, 33]);
    store_cell(&dir, &key, &stats);
    let path = dir.join(key.file_name());
    let pristine = fs::read(&path).expect("stored cell");
    for pos in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[pos] ^= experiments::fault::FLIP_MASK;
        fs::write(&path, &bytes).expect("plant corruption");
        assert!(
            load_cell::<RunStats>(&dir, &key).is_none(),
            "flip at byte {pos} must be a miss, not silently-wrong stats"
        );
    }
    fs::write(&path, &pristine).expect("restore");
    assert_eq!(load_cell(&dir, &key), Some(stats));
    let _ = fs::remove_dir_all(&dir);
}

/// I/O faults mid-sweep — a torn checkpoint store, then a full disk — are
/// benign: the sweep completes with results identical to a fault-free
/// run, the failed store leaves one scratch orphan plus a gap that resume
/// recomputes, and the resumed run (which also reaps the orphan) is
/// byte-identical to the clean baseline.
#[test]
fn faulted_checkpoint_stores_never_perturb_a_sweep_or_its_resume() {
    let benchmarks = ["429.mcf"];
    let policies = [PolicyKind::Lru, PolicyKind::Fifo];
    let clean = run_roster_resilient(&benchmarks, &policies, Scale::Small, &SweepOptions::none())
        .expect("clean run");
    for plan in ["torn:16", "enospc"] {
        let dir = scratch_dir(&format!("sweep_{}", plan.split(':').next().expect("tag")));
        let opts = SweepOptions {
            // jobs = 1 keeps the sweep on this thread, where the scoped
            // I/O plan is installed (it deliberately does not leak into
            // pool workers).
            jobs: Some(1),
            run: RunOptions::none(),
            cache_dir: Some(dir.clone()),
        };
        let faulted = with_io_plan(IoFailPlan::parse(plan).expect("valid plan"), || {
            run_roster_resilient(&benchmarks, &policies, Scale::Small, &opts)
        })
        .expect("a failed checkpoint store must not fail the sweep");
        assert_eq!(faulted, clean, "plan {plan}: results are computed, not read from disk");
        assert_eq!(
            list_scratch_files(&dir).len(),
            1,
            "plan {plan}: the first store's crash residue is one scratch file"
        );
        let resumed = run_roster_resilient(&benchmarks, &policies, Scale::Small, &opts)
            .expect("resumed run");
        assert_eq!(resumed, clean, "plan {plan}: resume is identical to the clean run");
        assert!(
            list_scratch_files(&dir).is_empty(),
            "plan {plan}: opening the checkpoint dir reaps the orphan"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A corrupt corpus container never fails a sweep: it is quarantined
/// (evidence preserved), logged, and re-captured — and the re-capture
/// reproduces the original trace exactly.
#[test]
fn corrupt_corpus_container_is_quarantined_and_recaptured() {
    let dir = scratch_dir("corpus");
    let first = experiments::corpus::load_or_capture_in(&dir, "429.mcf", Scale::Small, false)
        .expect("initial capture");
    let container: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rlt"))
        .collect();
    assert_eq!(container.len(), 1, "capture published exactly one container");
    let path = &container[0];
    let mut bytes = fs::read(path).expect("container bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(path, &bytes).expect("plant corruption");
    let second = experiments::corpus::load_or_capture_in(&dir, "429.mcf", Scale::Small, false)
        .expect("recovery capture");
    assert_eq!(second.records(), first.records(), "re-capture reproduces the trace exactly");
    let quarantined = dir.join("quarantine").join(path.file_name().expect("name"));
    assert_eq!(
        fs::read(&quarantined).expect("quarantined evidence"),
        bytes,
        "the damaged bytes are preserved verbatim in quarantine"
    );
    let republished = fs::read(path).expect("republished container");
    trace_io::scan(republished.as_slice()).expect("the fresh container verifies");
    let _ = fs::remove_dir_all(&dir);
}

/// The tenancy sweep's cells sit behind the same wall: a torn write
/// never exposes a partial cell, every truncation of a stored cell is a
/// miss, and `doctor` quarantines a torn cell out of `cache/tenancy/`.
#[test]
fn torn_tenancy_cell_is_a_miss_and_doctor_quarantines_it() {
    use experiments::tenancy::{
        default_llc, load_tenancy_cell, store_tenancy_cell, tenancy_cell_key, TenantCellStats,
    };

    let root = scratch_dir("tenancy_cell");
    let dir = root.join("cache").join("tenancy");
    let mix = workloads::TenantMix::default_three_class();
    let mode = tenancy::IsolationMode::LearnedPriority(vec![4, 1, 0]);
    let key = tenancy_cell_key(&mix, &mode, &default_llc(), 9_000);
    let stats: Vec<TenantCellStats> = (0..3)
        .map(|t| TenantCellStats {
            accesses: 1_000 + t,
            hits: 500,
            demand_accesses: 900,
            demand_hits: 400,
            occupancy: 10 + t,
            peak_occupancy: 20,
            miss_count: 500,
            miss_ticks: 90_000,
            lat_p50: 180,
            lat_p99: 400,
        })
        .collect();
    let encoded = encode_cell(&key, &stats);

    // Torn mid-write: the write fails, no final-name file appears, the
    // resume is a miss, and the only residue is one scratch file.
    for cut in [0, 1, encoded.len() / 2, encoded.len() - 1] {
        let plan = IoFailPlan::parse(&format!("torn:{cut}")).expect("valid plan");
        with_io_plan(plan, || {
            write_atomic(&dir.join(key.file_name()), encoded.as_bytes())
                .expect_err("a torn write must fail");
        });
        assert!(!dir.join(key.file_name()).exists(), "cut {cut}: no final-name file");
        assert!(load_tenancy_cell(&dir, &key).is_none(), "cut {cut}: a torn cell is a miss");
        assert_eq!(sweep_orphans(&dir), 1, "cut {cut}: one scratch file of residue");
    }

    // Every truncation of the encoded cell decodes as a miss.
    store_tenancy_cell(&dir, &key, &stats);
    for cut in 0..encoded.len() {
        assert!(decode_cell::<Vec<TenantCellStats>>(&encoded[..cut], &key).is_none(), "cut {cut}");
    }
    assert_eq!(load_tenancy_cell(&dir, &key), Some(stats));

    // A torn sibling planted on disk: one doctor pass quarantines it and
    // leaves the valid cell in place.
    fs::write(dir.join("00000000deadbeef.json"), &encoded.as_bytes()[..encoded.len() / 2])
        .expect("plant torn cell");
    experiments::doctor::run(&root, true);
    assert!(dir.join(key.file_name()).exists(), "valid cell untouched");
    assert!(!dir.join("00000000deadbeef.json").exists());
    assert!(dir.join("quarantine").join("00000000deadbeef.json").exists(), "evidence kept");
    assert!(experiments::doctor::run(&root, true).all_clean());
    let _ = fs::remove_dir_all(&root);
}

fn sample_records(n: u64) -> Vec<LlcRecord> {
    (0..n)
        .map(|i| LlcRecord {
            pc: 0x400_000 + (i % 91) * 4,
            line: 0x8000 + (i * 13) % 777,
            kind: AccessKind::ALL[(i % 4) as usize],
            core: 0,
        })
        .collect()
}

/// End-to-end doctor pass over a battered results tree: every artifact
/// family damaged at once, one `run(root, true)` heals all of it, and a
/// second pass finds a clean tree.
#[test]
fn doctor_heals_a_battered_results_tree_in_one_pass() {
    use experiments::doctor::{self, ArtifactStatus};
    let root = scratch_dir("doctor");
    // Checkpoint cells: one valid, one garbage, one orphan.
    let sweep = root.join("cache").join("sweep");
    let key = cell_key("429.mcf", "lru", "doctor-wall");
    store_cell(&sweep, &key, &stats_from(&[1, 2, 3]));
    fs::write(sweep.join("00000000deadbeef.json"), b"{torn").expect("garbage cell");
    fs::write(sweep.join(".z.json.tmp.41"), b"").expect("orphan");
    // Corpus: one valid container, one with a flipped byte near the end
    // (all blocks salvageable), one that is not a container at all.
    let corpus = root.join("corpus");
    let records = sample_records(500);
    let trace: LlcTrace = records.iter().cloned().collect();
    let encoded = trace_io::encode_trace(&trace, 64).expect("encode");
    write_atomic(&corpus.join("good_small.rlt"), &encoded).expect("good container");
    let mut damaged = encoded.clone();
    let n = damaged.len();
    damaged[n - 5] ^= 0xA5; // inside the end frame: framing intact, digest broken
    write_atomic(&corpus.join("bad_small.rlt"), &damaged).expect("damaged container");
    write_atomic(&corpus.join("junk_small.rlt"), b"not a container").expect("junk");

    let report = doctor::run(&root, true);
    let count = |status: ArtifactStatus| {
        report.artifacts.iter().filter(|a| a.status == status).count()
    };
    assert_eq!(count(ArtifactStatus::Ok), 2, "valid cell and container: {report:?}");
    assert_eq!(count(ArtifactStatus::Repaired), 1, "damaged container: {report:?}");
    assert_eq!(count(ArtifactStatus::Quarantined), 2, "garbage cell and junk rlt: {report:?}");
    assert_eq!(count(ArtifactStatus::Damaged), 0, "{report:?}");
    assert_eq!(report.orphans_removed, 1);

    // The repaired container verifies and holds every original record
    // (only the end frame was damaged).
    let repaired = fs::read(corpus.join("bad_small.rlt")).expect("repaired container");
    let summary = trace_io::scan(repaired.as_slice()).expect("repaired container verifies");
    assert_eq!(summary.records, records.len() as u64);
    // Evidence for everything that was moved aside.
    assert!(corpus.join("quarantine").join("bad_small.rlt").exists());
    assert!(corpus.join("quarantine").join("junk_small.rlt").exists());
    assert!(sweep.join("quarantine").join("00000000deadbeef.json").exists());
    // Idempotence: the healed tree is clean.
    assert!(doctor::run(&root, true).all_clean(), "second pass finds nothing to do");
    let _ = fs::remove_dir_all(&root);
}
