//! Bit-level pins of the MLP kernels and the DQN trainer.
//!
//! The other MLP tests compare one network against another, so a change
//! in the order a kernel sums its products would pass them while moving
//! every trained weight. These literals were computed once and are
//! compared by bits: the kernels may change shape, never arithmetic.

use cache_sim::{AccessKind, CacheConfig, LlcRecord, LlcTrace};
use rl::{AgentConfig, FeatureSet, Mlp, Trainer};
use simrng::{Rng, SimRng};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// What one shape's training run produced, each as an FNV-1a digest.
#[derive(Debug, PartialEq)]
struct Digests {
    losses: u64,
    save_full: u64,
    predict: u64,
}

/// Trains a `334 → hidden → 16` network for `steps` DQN-style updates on
/// random inputs, then digests the losses, the full serialized state and
/// one prediction.
fn train_shape(hidden: usize, steps: usize) -> Digests {
    const INPUTS: usize = 334;
    const OUTPUTS: usize = 16;
    let mut net = Mlp::new(INPUTS, hidden, OUTPUTS, 0xC0FF_EE00 ^ hidden as u64);
    let mut rng = SimRng::seed_from_u64(hidden as u64);
    let mut input = vec![0.0f32; INPUTS];
    let mut losses = Fnv::new();
    for _ in 0..steps {
        for x in &mut input {
            *x = rng.gen_range(-1.0f32..1.0);
        }
        let action = rng.gen_range(0..OUTPUTS);
        let target = rng.gen_range(-2.0f32..2.0);
        let loss = net.train_action(&input, action, target, 5e-3, 0.9);
        losses.bytes(&loss.to_bits().to_le_bytes());
    }
    let mut bytes = Vec::new();
    net.save_full(&mut bytes).expect("in-memory save");
    let mut save_full = Fnv::new();
    save_full.bytes(&bytes);
    for x in &mut input {
        *x = rng.gen_range(-1.0f32..1.0);
    }
    let mut predict = Fnv::new();
    predict.f32s(&net.predict(&input));
    Digests { losses: losses.0, save_full: save_full.0, predict: predict.0 }
}

#[test]
fn paper_shape_334_175_16_is_bit_pinned() {
    // 175 hidden units: whole register blocks plus a tail.
    assert_eq!(
        train_shape(175, 12),
        Digests {
            losses: 16_610_212_832_523_158_154,
            save_full: 9_427_269_934_134_069_539,
            predict: 9_800_369_811_427_519_039,
        }
    );
}

#[test]
fn small_scale_shape_334_64_16_is_bit_pinned() {
    // 64 hidden units: whole register blocks only.
    assert_eq!(
        train_shape(64, 24),
        Digests {
            losses: 4_808_351_985_651_632_223,
            save_full: 3_875_175_315_368_529_628,
            predict: 14_300_288_630_178_183_495,
        }
    );
}

#[test]
fn hill_climb_shape_334_24_16_is_bit_pinned() {
    // 24 hidden units: a tail only.
    assert_eq!(
        train_shape(24, 48),
        Digests {
            losses: 955_681_102_197_428_931,
            save_full: 5_147_261_967_424_274_988,
            predict: 6_990_558_864_263_654_442,
        }
    );
}

/// A 16-way trace mixing a loop that overflows its sets with random
/// one-off lines, so decisions earn all three rewards.
fn mixed_trace(len: usize) -> LlcTrace {
    let mut rng = SimRng::seed_from_u64(0x7EA1);
    (0..len)
        .map(|i| {
            let line =
                if rng.gen_bool(0.75) { i as u64 % 96 } else { 1_000 + rng.gen_range(0..4_000u64) };
            let kind = if rng.gen_bool(0.2) { AccessKind::Rfo } else { AccessKind::Load };
            LlcRecord { pc: 0x400 + (line % 7) * 4, line, kind, core: 0 }
        })
        .collect()
}

#[test]
fn trainer_epoch_is_bit_pinned() {
    let cache = CacheConfig { sets: 4, ways: 16, latency: 1 };
    let trace = mixed_trace(700);
    let mut config = AgentConfig::small(FeatureSet::full(), 11);
    config.hidden = 40;
    let mut trainer = Trainer::new(config, &cache);
    let report = trainer.train_epoch(&trace, &cache);
    assert_eq!(
        (report.stats.decisions, report.optimal_decisions, report.harmful_decisions),
        (481, 197, 257)
    );
    assert_eq!(report.mean_loss.to_bits(), 4_607_410_601_724_559_155);
}

/// `load` then `save` must reproduce an `MLP1` file byte for byte.
fn assert_round_trips(bytes: &[u8], what: &str) {
    let net = Mlp::load(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut back = Vec::new();
    net.save(&mut back).expect("in-memory save");
    assert!(back == bytes, "{what}: load → save changed the bytes");
}

#[test]
fn small_scale_agent_file_round_trips_byte_for_byte() {
    // A trained Small-scale agent as the pipeline caches it.
    let mut net = Mlp::new(334, 64, 16, 0x524C_5231);
    let mut rng = SimRng::seed_from_u64(64);
    let mut input = vec![0.0f32; 334];
    for _ in 0..8 {
        for x in &mut input {
            *x = rng.gen_range(-1.0f32..1.0);
        }
        net.train_action(&input, rng.gen_range(0..16), 1.0, 5e-3, 0.9);
    }
    let mut bytes = Vec::new();
    net.save(&mut bytes).expect("in-memory save");
    let mut digest = Fnv::new();
    digest.bytes(&bytes);
    assert_eq!(digest.0, 17_824_570_872_876_167_977, "MLP1 bytes of the trained agent");
    assert_round_trips(&bytes, "trained Small-scale agent");
    let back = Mlp::load(bytes.as_slice()).expect("load");
    assert_eq!(back.predict(&input), net.predict(&input));
}

#[test]
fn truncated_agents_are_rejected_and_whole_ones_round_trip() {
    // A freshly built Small-scale agent holds the whole payload its header
    // declares and must load and save back byte for byte. The same file
    // cut short anywhere past its header must be rejected with
    // `UnexpectedEof`, never loaded or panicked on; the pipeline then
    // retrains it.
    let net = Mlp::new(334, 64, 16, 0x5EED);
    let mut bytes = Vec::new();
    net.save(&mut bytes).expect("in-memory save");
    let dim = |k: usize| u64::from_le_bytes(bytes[4 + 8 * k..12 + 8 * k].try_into().unwrap());
    let (i, h, o) = (dim(0), dim(1), dim(2));
    let declared = 28 + 4 * (i * h + h + h * o + o);
    assert_eq!(bytes.len() as u64, declared, "a whole agent holds its declared payload");
    assert_round_trips(&bytes, "freshly built Small-scale agent");
    // 28: header only; 50_592: the size the pipeline once committed for
    // 429.mcf; len - 1: one byte short.
    for cut in [28, 29, 50_592, bytes.len() - 1] {
        let err = Mlp::load(&bytes[..cut]).expect_err("a truncated agent must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}
