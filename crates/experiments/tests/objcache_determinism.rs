//! The object-cache sweep determinism wall: the roster sweep is a pure
//! function of (traffic, config, policies) — worker count, checkpoint
//! resume, injected crashes, and torn checkpoint stores must never change
//! a single counter. Extends the LLC walls (`parallel_determinism.rs`,
//! `crash_wall.rs`) to the serving tier.

use std::fs;
use std::path::PathBuf;

use experiments::fault::{with_io_plan, FailPlan, IoFailPlan};
use experiments::checkpoint::{decode_cell, encode_cell};
use experiments::objects::{
    load_obj_cell, obj_cell_key, run_object_sweep, store_obj_cell, ObjCellResult,
};
use experiments::runner::{RunOptions, SweepOptions};
use objcache::{ObjCacheConfig, ObjPolicyKind};
use workloads::ObjectTraffic;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlr_objcache_det_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but non-trivial scenario: tight capacity plus short TTLs so
/// every counter (evictions, expirations, rejections) is exercised.
fn scenario() -> (ObjectTraffic, ObjCacheConfig, u64) {
    let traffic = ObjectTraffic {
        catalog: 3_000,
        // 6k requests at 300 rps span 20 simulated seconds against 1-10s
        // TTLs, so lazy expiry fires alongside capacity evictions.
        rps: 300,
        min_ttl_s: 1,
        max_ttl_s: 10,
        flash_every: 1_500,
        flash_len: 300,
        ..ObjectTraffic::internet_default()
    };
    (traffic, ObjCacheConfig::with_capacity_mib(8), 6_000)
}

fn stats_of(results: &[(ObjPolicyKind, ObjCellResult)]) -> Vec<objcache::ObjStats> {
    results.iter().map(|(p, c)| *c.as_ref().unwrap_or_else(|e| panic!("{}: {e}", p.name()))).collect()
}

/// Serial and 4-worker sweeps are bit-identical, in roster order. This is
/// the `RLR_JOBS=4` contract without mutating process-global env: an
/// explicit job count takes the same code path `resolve_jobs` routes the
/// env var through.
#[test]
fn parallel_object_sweep_is_bit_identical_to_serial() {
    let (traffic, cfg, n) = scenario();
    let roster = ObjPolicyKind::roster();
    let sweep = |jobs| {
        let opts = SweepOptions { jobs: Some(jobs), run: RunOptions::none(), cache_dir: None };
        run_object_sweep(&traffic, n, cfg, &roster, &opts)
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(stats_of(&serial), stats_of(&parallel));
    let order: Vec<String> = serial.iter().map(|(p, _)| p.name().to_owned()).collect();
    assert_eq!(order, vec!["LRU", "SLRU", "GDSF", "RLR-derived"]);
    // The replay did real work on this scenario.
    for s in stats_of(&serial) {
        assert!(s.evictions > 0 && s.expirations > 0, "scenario exerts no pressure: {s:?}");
    }
}

/// A sweep killed mid-run (one cell crashes, the rest checkpoint) and then
/// resumed through the checkpoint seam is bit-identical to an
/// uninterrupted serial sweep — and the resume really does load the
/// surviving cells instead of recomputing them.
#[test]
fn killed_then_resumed_sweep_is_bit_identical() {
    let (traffic, cfg, n) = scenario();
    let roster = ObjPolicyKind::roster();
    let clean = run_object_sweep(&traffic, n, cfg, &roster, &SweepOptions::none());

    let dir = scratch_dir("resume");
    // "Kill" the GDSF cell: an injected panic with zero retries leaves its
    // slot failed and its checkpoint missing, exactly like a crashed
    // worker; the other three cells complete and persist.
    let killed_opts = SweepOptions {
        jobs: Some(1),
        run: RunOptions {
            fail_plan: FailPlan::parse("panic:2").expect("valid plan"),
            ..RunOptions::none()
        },
        cache_dir: Some(dir.clone()),
    };
    let killed = run_object_sweep(&traffic, n, cfg, &roster, &killed_opts);
    assert!(killed[2].1.is_err(), "the injected crash must surface in the GDSF slot");
    assert_eq!(
        killed.iter().filter(|(_, c)| c.is_ok()).count(),
        roster.len() - 1,
        "every other cell completes"
    );
    for (i, (policy, _)) in killed.iter().enumerate() {
        let key = obj_cell_key(&traffic, n, &cfg, policy);
        assert_eq!(
            load_obj_cell(&dir, &key).is_some(),
            i != 2,
            "{}: exactly the surviving cells are checkpointed",
            policy.name()
        );
    }

    // Resume: tamper-evident marker cells prove cached results are loaded,
    // not recomputed — then a second pristine resume must equal the clean
    // baseline bit for bit.
    let resume_opts =
        SweepOptions { jobs: Some(1), run: RunOptions::none(), cache_dir: Some(dir.clone()) };
    let marker_key = obj_cell_key(&traffic, n, &cfg, &roster[0]);
    let mut marker = *killed[0].1.as_ref().expect("LRU survived");
    marker.hits += 1_000_000;
    store_obj_cell(&dir, &marker_key, &marker);
    let resumed = run_object_sweep(&traffic, n, cfg, &roster, &resume_opts);
    assert_eq!(
        resumed[0].1.as_ref().expect("loaded"),
        &marker,
        "a checkpointed cell must be loaded, not recomputed"
    );
    store_obj_cell(&dir, &marker_key, killed[0].1.as_ref().expect("LRU survived"));
    let resumed = run_object_sweep(&traffic, n, cfg, &roster, &resume_opts);
    assert_eq!(stats_of(&resumed), stats_of(&clean), "resume is bit-identical to a clean sweep");
    let _ = fs::remove_dir_all(&dir);
}

/// A torn checkpoint store mid-sweep neither perturbs the results nor
/// poisons the resume: the sweep computes everything, leaves only scratch
/// residue for the gap, and the next run over the same directory is again
/// bit-identical.
#[test]
fn torn_checkpoint_store_never_perturbs_sweep_or_resume() {
    let (traffic, cfg, n) = scenario();
    let roster = ObjPolicyKind::roster();
    let clean = run_object_sweep(&traffic, n, cfg, &roster, &SweepOptions::none());
    let dir = scratch_dir("torn");
    let opts = SweepOptions {
        // jobs = 1 keeps the sweep on this thread, where the scoped I/O
        // plan is installed (it deliberately does not leak into workers).
        jobs: Some(1),
        run: RunOptions::none(),
        cache_dir: Some(dir.clone()),
    };
    let faulted = with_io_plan(IoFailPlan::parse("torn:16").expect("valid plan"), || {
        run_object_sweep(&traffic, n, cfg, &roster, &opts)
    });
    assert_eq!(stats_of(&faulted), stats_of(&clean), "results are computed, not read from disk");
    let resumed = run_object_sweep(&traffic, n, cfg, &roster, &opts);
    assert_eq!(stats_of(&resumed), stats_of(&clean), "resume over the torn store is identical");
    let _ = fs::remove_dir_all(&dir);
}

/// The codec layer refuses corrupted or mismatched cells at every byte
/// offset — a damaged object-cache checkpoint is always a miss, never
/// silently-wrong counters.
#[test]
fn flipped_obj_cell_byte_at_every_offset_is_a_miss() {
    let (traffic, cfg, n) = scenario();
    let policy = ObjPolicyKind::parse("rlr").expect("pinned rule");
    let key = obj_cell_key(&traffic, n, &cfg, &policy);
    let stats = objcache::ObjStats {
        requests: n,
        hits: 123,
        misses: n - 123,
        hit_bytes: 456_789,
        miss_bytes: 987_654,
        admitted: 4_000,
        rejected: 1_877,
        evictions: 3_210,
        evicted_bytes: 9_999_999,
        expirations: 55,
        expired_bytes: 321,
    };
    let dir = scratch_dir("flip");
    store_obj_cell(&dir, &key, &stats);
    let path = dir.join(key.file_name());
    let pristine = fs::read(&path).expect("stored cell");
    assert_eq!(decode_cell(&String::from_utf8(pristine.clone()).expect("utf8"), &key), Some(stats));
    for pos in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[pos] ^= experiments::fault::FLIP_MASK;
        fs::write(&path, &bytes).expect("plant corruption");
        assert!(
            load_obj_cell(&dir, &key).is_none(),
            "flip at byte {pos} must be a miss, not silently-wrong stats"
        );
    }
    // A different scenario's key never accepts this cell either.
    let other = obj_cell_key(&traffic, n + 1, &cfg, &policy);
    assert!(decode_cell::<objcache::ObjStats>(&encode_cell(&key, &stats), &other).is_none());
    let _ = fs::remove_dir_all(&dir);
}
