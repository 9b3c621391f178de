//! Fuzz of the model-file readers: `Mlp::load`, `Mlp::load_full` and
//! `Trainer::load_checkpoint` over every truncation of a valid blob, every
//! single-bit flip of it, and random bytes.
//!
//! A truncated blob and random bytes must be rejected. A bit flip may land
//! in a weight, which no reader can tell from a trained value (the formats
//! carry no checksum), so a flipped blob may load; it must then describe no
//! more parameters than its bytes hold. No input may panic, and no reader
//! may ask the allocator for more than 4 MiB in one request, whatever size
//! a header claims; a global allocator records each thread's largest
//! request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cache_sim::{AccessKind, CacheConfig, LlcRecord, LlcTrace};
use rl::{AgentConfig, FeatureSet, Mlp, Trainer};
use simrng::prop::{check, Config};
use simrng::{prop_assert, Rng, SimRng};

/// The system allocator, recording the largest request of each thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The most bytes any reader may request at once: it pre-sizes a buffer
/// for at most 2^20 floats before their bytes arrive, far below the
/// 2^28-parameter bound on what it accepts.
const ALLOC_BOUND: usize = 4 << 20;

/// A reader under test: the parameter count of what it loaded (the
/// network's, or the checkpoint network's), or its error.
type Reader = fn(&[u8]) -> io::Result<usize>;

fn params(net: &Mlp) -> usize {
    let (i, h, o) = (net.inputs(), net.hidden(), net.outputs());
    i * h + h + h * o + o
}

fn read_mlp1(bytes: &[u8]) -> io::Result<usize> {
    Mlp::load(bytes).map(|n| params(&n))
}

fn read_mlpf(bytes: &[u8]) -> io::Result<usize> {
    Mlp::load_full(bytes).map(|n| params(&n))
}

fn ck_cache() -> CacheConfig {
    CacheConfig { sets: 2, ways: 4, latency: 1 }
}

fn read_checkpoint(bytes: &[u8]) -> io::Result<usize> {
    Trainer::load_checkpoint(bytes, &ck_cache()).map(|(t, _)| params(t.agent().net()))
}

/// Runs `read` on `bytes`: `Ok(Some(params))` if it loaded, `Ok(None)` if
/// it returned an error, `Err` if it panicked or over-allocated.
fn probe(read: Reader, bytes: &[u8]) -> Result<Option<usize>, String> {
    LARGEST.with(|l| l.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| read(bytes)));
    let largest = LARGEST.with(Cell::get);
    if largest > ALLOC_BOUND {
        return Err(format!("one allocation of {largest} bytes from {} input bytes", bytes.len()));
    }
    match outcome {
        Ok(result) => Ok(result.ok()),
        Err(_) => Err(format!("panicked on {} input bytes", bytes.len())),
    }
}

fn mlp_blob(full: bool) -> Vec<u8> {
    let mut net = Mlp::new(6, 5, 3, 11);
    for i in 0..8 {
        net.train_action(&[0.1, -0.2, 0.3, 0.4, -0.5, 0.6], i % 3, 0.5, 0.01, 0.9);
    }
    let mut bytes = Vec::new();
    if full { net.save_full(&mut bytes) } else { net.save(&mut bytes) }.expect("in-memory save");
    bytes
}

/// A checkpoint of a tiny trainer: a target network and a few replay
/// transitions, so every section of the format is present.
fn checkpoint_blob() -> Vec<u8> {
    // 13 lines cycling through a 2×4 cache: every set overflows, so the
    // agent makes decisions and the replay memory fills.
    let trace: LlcTrace = (0..96u64)
        .map(|i| LlcRecord {
            pc: 0x400 + (i % 13) * 4,
            line: i % 13,
            kind: AccessKind::Load,
            core: 0,
        })
        .collect();
    let config = AgentConfig {
        hidden: 2,
        replay_capacity: 3,
        target_sync: 8,
        ..AgentConfig::small(FeatureSet::full(), 3)
    };
    let mut trainer = Trainer::new(config, &ck_cache());
    let _ = trainer.train_epoch(&trace, &ck_cache());
    let mut bytes = Vec::new();
    trainer.save_checkpoint(&mut bytes, 1).expect("in-memory save");
    bytes
}

fn readers() -> [(&'static str, Reader, Vec<u8>); 3] {
    [
        ("Mlp::load", read_mlp1, mlp_blob(false)),
        ("Mlp::load_full", read_mlpf, mlp_blob(true)),
        ("Trainer::load_checkpoint", read_checkpoint, checkpoint_blob()),
    ]
}

#[test]
fn every_truncation_is_rejected() {
    for (name, read, blob) in readers() {
        assert!(probe(read, &blob).expect(name).is_some(), "{name}: the valid blob must load");
        for n in 0..blob.len() {
            let outcome = probe(read, &blob[..n]).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(outcome, None, "{name}: a blob cut to {n} of {} bytes loaded", blob.len());
        }
    }
}

#[test]
fn every_bit_flip_is_rejected_or_fits_its_bytes() {
    for (name, read, blob) in readers() {
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome =
                probe(read, &flipped).unwrap_or_else(|e| panic!("{name}, bit {bit}: {e}"));
            if let Some(params) = outcome {
                assert!(
                    params * 4 <= blob.len(),
                    "{name}, bit {bit}: {params} parameters from {} bytes",
                    blob.len()
                );
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn every_header_dimension_flip_of_an_mlp1_blob_is_rejected() {
    // Bytes 4..28 hold the three `u64` dimensions. A flip that grows one
    // runs out of weights; one that shrinks it leaves trailing bytes.
    let blob = mlp_blob(false);
    let mut flipped = blob.clone();
    for bit in 4 * 8..28 * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let outcome = probe(read_mlp1, &flipped).unwrap_or_else(|e| panic!("bit {bit}: {e}"));
        assert_eq!(outcome, None, "bit {bit}: a flipped header dimension loaded");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn random_bytes_are_rejected() {
    for (name, read, blob) in readers() {
        check(
            name,
            Config::with_cases(256),
            |rng: &mut SimRng| {
                let len = rng.gen_range(0..2 * blob.len());
                (0..len).map(|_| rng.gen::<u32>() as u8).collect::<Vec<u8>>()
            },
            |bytes| {
                prop_assert!(probe(read, bytes)?.is_none(), "random bytes loaded");
                Ok(())
            },
        );
    }
}

#[test]
fn random_bytes_behind_a_valid_prefix_never_panic() {
    // Pure random bytes die at the magic. Keeping a prefix of the valid
    // blob (its header, or more) sends the reader into the dimension
    // checks and the payload; such a blob may even load.
    for (name, read, blob) in readers() {
        check(
            name,
            Config::with_cases(256),
            |rng: &mut SimRng| {
                let keep = rng.gen_range(4..blob.len());
                let tail = rng.gen_range(0..blob.len());
                let mut bytes = blob[..keep].to_vec();
                bytes.extend((0..tail).map(|_| rng.gen::<u32>() as u8));
                bytes
            },
            |bytes| {
                if let Some(params) = probe(read, bytes)? {
                    prop_assert!(params * 4 <= bytes.len(), "{params} parameters");
                }
                Ok(())
            },
        );
    }
}
