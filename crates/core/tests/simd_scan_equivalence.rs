//! Differential wall between the victim-scan backends: the lane-parallel
//! reduction ([`rlr::scan::scan_lanes`], which every policy scan calls)
//! against the one-accumulator scalar reference
//! ([`rlr::scan::scan_scalar`]), which stays compiled exactly so this
//! suite can cross-check it.
//!
//! The property sweeps randomized way counts (1..=32, deliberately
//! including non-multiples of the lane width), stamp distributions from
//! all-distinct to heavily tied (including staleness values past the
//! 38-bit saturation clamp), random metadata bytes, out-of-range core ids,
//! and every configuration axis of the scan. Failures shrink to a minimal
//! way vector and report a `PROP_SEED` for exact replay.

use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, ScanWays, LANES, REC_MASK};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng, SimRng};

/// One way's generated inputs: `(age_stamp, rec_stamp, meta_bits, core)`.
/// `meta_bits` encodes hit count (low 6 bits), prefetch (bit 6), and
/// demand (bit 7), mirroring [`LineMeta`]'s packing.
type WayInput = (u64, u64, u8, u8);

/// Scan-wide knobs; rides along the shrunk way vector unchanged.
#[derive(Clone, Debug)]
struct Knobs {
    now: u64,
    clock: u64,
    rd: u64,
    max_age: u64,
    age_weight: u32,
    use_type: bool,
    use_hit: bool,
    exact_recency: bool,
    core_rank: Vec<u32>,
}

type Case = (Vec<WayInput>, Knobs);

fn meta_of(bits: u8) -> LineMeta {
    let mut meta = LineMeta::filled(bits & 0x40 != 0, bits & 0x80 != 0);
    meta.set_hit_count(bits & 0x3F);
    meta
}

fn gen_case(rng: &mut SimRng) -> Case {
    let ways = rng.gen_range(1..=32usize);
    // Stamp spread: 2^0 (everything ties) up to 2^39 (staleness saturates
    // past REC_MASK when the clock is high enough).
    let spread = 1u64 << rng.gen_range(0..40u32);
    let now = rng.gen_range(0..1u64 << 40);
    let clock = now + rng.gen_range(0..64u64);
    let inputs = (0..ways)
        .map(|_| {
            let age_stamp = now - rng.gen_range(0..spread.min(now + 1));
            let rec_stamp = clock - rng.gen_range(0..spread.min(clock + 1));
            (age_stamp, rec_stamp, rng.gen_range(0..=255u64) as u8, rng.gen_range(0..8u64) as u8)
        })
        .collect();
    let knobs = Knobs {
        now,
        clock,
        rd: rng.gen_range(0..64u64),
        max_age: [3, 31, rng.gen_range(1..1u64 << 38)][rng.gen_range(0..3u64) as usize],
        age_weight: rng.gen_range(0..=256u32),
        use_type: rng.gen_range(0..2u64) == 1,
        use_hit: rng.gen_range(0..2u64) == 1,
        exact_recency: rng.gen_range(0..2u64) == 1,
        // Empty disables P_core; 4 entries exercises it, with way cores
        // drawn from 0..8 so out-of-range ids hit the unwrap_or(0) path.
        core_rank: if rng.gen_range(0..2u64) == 1 {
            (0..4).map(|_| rng.gen_range(0..4u64) as u32).collect()
        } else {
            Vec::new()
        },
    };
    (inputs, knobs)
}

fn run_case((inputs, knobs): &Case) -> Result<(), String> {
    let age_stamps: Vec<u64> = inputs.iter().map(|w| w.0).collect();
    let rec_stamps: Vec<u64> = inputs.iter().map(|w| w.1).collect();
    let metas: Vec<LineMeta> = inputs.iter().map(|w| meta_of(w.2)).collect();
    let cores: Vec<u8> = inputs.iter().map(|w| w.3).collect();
    let params = ScanParams {
        now: knobs.now,
        clock: knobs.clock,
        rd: knobs.rd,
        max_age: knobs.max_age,
        age_weight: knobs.age_weight,
        use_type: knobs.use_type,
        use_hit: knobs.use_hit,
        exact_recency: knobs.exact_recency,
    };
    let ways = ScanWays {
        age_stamps: &age_stamps,
        rec_stamps: &rec_stamps,
        metas: &metas,
        cores: if knobs.core_rank.is_empty() { &[] } else { &cores },
        core_rank: &knobs.core_rank,
    };
    let scalar = scan::scan_scalar(&params, &ways);
    let lanes = scan::scan_lanes(&params, &ways);
    let selected = scan::scan_lanes(&params, &ways);
    prop_assert_eq!(
        scalar,
        lanes,
        "backends diverged on {} ways: scalar {:?} vs lanes {:?}",
        inputs.len(),
        scalar,
        lanes
    );
    prop_assert_eq!(selected, scalar, "the policies' backend disagrees with the reference");
    prop_assert!(
        usize::from(scalar.victim()) < inputs.len(),
        "victim {} out of range for {} ways",
        scalar.victim(),
        inputs.len()
    );
    Ok(())
}

#[test]
fn lane_scan_matches_scalar_scan_on_random_sets() {
    check(
        "lane_scan_matches_scalar_scan_on_random_sets",
        Config::with_cases(512),
        gen_case,
        run_case,
    );
}

/// Saturated staleness on every way: keys tie on the clamped REC_MASK
/// field and only the way index separates them — both backends must fall
/// back to the lowest way, whatever the way count's remainder mod LANES.
#[test]
fn saturated_staleness_ties_break_identically() {
    for ways in 1..=(3 * LANES + 1) {
        let age_stamps = vec![0u64; ways];
        let rec_stamps = vec![0u64; ways];
        let metas = vec![LineMeta::filled(false, true); ways];
        let params = ScanParams {
            now: REC_MASK + 17,
            clock: REC_MASK + 17,
            rd: 4,
            max_age: u64::MAX,
            age_weight: 8,
            use_type: true,
            use_hit: true,
            exact_recency: true,
        };
        let scan_ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &rec_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        let scalar = scan::scan_scalar(&params, &scan_ways);
        let lanes = scan::scan_lanes(&params, &scan_ways);
        assert_eq!(scalar, lanes, "{ways} ways");
        assert_eq!(scalar.victim(), 0, "{ways} ways: full tie must keep the lowest way");
    }
}

/// The single-way set (the smallest non-multiple of the lane width) and
/// each remainder class around one full stripe.
#[test]
fn tiny_sets_cover_every_lane_remainder() {
    let mut rng = SimRng::seed_from_u64(0x51AD_0001);
    for ways in 1..=(2 * LANES) {
        for _ in 0..64 {
            let (mut inputs, knobs) = gen_case(&mut rng);
            inputs.truncate(ways);
            if inputs.is_empty() {
                continue;
            }
            run_case(&(inputs, knobs)).expect("backends must agree");
        }
    }
}
