//! Differential wall between the victim-scan schedules: the lane-parallel
//! reduction ([`rlr::scan::scan_lanes`], which every policy scan calls)
//! against the one-accumulator scalar reference
//! ([`rlr::scan::scan_scalar`]), which stays compiled exactly so this
//! suite can cross-check it.
//!
//! The property sweeps randomized way counts (1..=32, deliberately
//! including non-multiples of the lane width), byte rows from all-tied to
//! every value up to the widest age counter, random metadata bytes,
//! out-of-range core ids, and every configuration axis of the scan.
//! Failures shrink to a minimal way vector and report a `PROP_SEED` for
//! exact replay.

use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, SetRows, LANES};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng, SimRng};

/// One way's generated inputs: `(age, rank, meta_bits, core)`.
/// `meta_bits` encodes hit count (low 6 bits), prefetch (bit 6), and
/// demand (bit 7), mirroring [`LineMeta`]'s packing.
type WayInput = (u8, u8, u8, u8);

/// Scan-wide knobs; rides along the shrunk way vector unchanged.
#[derive(Clone, Debug)]
struct Knobs {
    rd: u8,
    max_staleness: u8,
    age_weight: u32,
    use_type: bool,
    use_hit: bool,
    exact_recency: bool,
    core_rank: Vec<u32>,
}

type Case = (Vec<WayInput>, Knobs);

fn meta_of(bits: u8) -> u8 {
    let mut meta = LineMeta::filled(bits & 0x40 != 0, bits & 0x80 != 0);
    meta.set_hit_count(bits & 0x3F);
    meta.bits()
}

fn gen_case(rng: &mut SimRng) -> Case {
    let ways = rng.gen_range(1..=32usize);
    // Row spread: 1 (everything ties) up to 256 (every byte value), with
    // ages saturated at one of the counter widths the configs use.
    let spread = 1u64 << rng.gen_range(0..=8u32);
    let max_age = [3u64, 31, 255][rng.gen_range(0..3usize)];
    let inputs = (0..ways)
        .map(|_| {
            let age = rng.gen_range(0..spread).min(max_age) as u8;
            let rank = rng.gen_range(0..spread) as u8;
            (age, rank, rng.gen_range(0..=255u64) as u8, rng.gen_range(0..8u64) as u8)
        })
        .collect();
    let exact_recency = rng.gen_range(0..2u64) == 1;
    let knobs = Knobs {
        rd: rng.gen_range(0..=255u64) as u8,
        // The staleness row's bound: ranks stay below the spread, ages
        // also at the counter's maximum.
        max_staleness: if exact_recency { spread - 1 } else { (spread - 1).min(max_age) } as u8,
        age_weight: rng.gen_range(0..=256u32),
        use_type: rng.gen_range(0..2u64) == 1,
        use_hit: rng.gen_range(0..2u64) == 1,
        exact_recency,
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
    let ages: Vec<u8> = inputs.iter().map(|w| w.0).collect();
    let ranks: Vec<u8> = inputs.iter().map(|w| w.1).collect();
    let metas: Vec<u8> = inputs.iter().map(|w| meta_of(w.2)).collect();
    let cores: Vec<u8> = inputs.iter().map(|w| w.3).collect();
    let params = ScanParams {
        rd: knobs.rd,
        max_staleness: knobs.max_staleness,
        age_weight: knobs.age_weight,
        use_type: knobs.use_type,
        use_hit: knobs.use_hit,
    };
    let rows = SetRows {
        ages: &ages,
        staleness: if knobs.exact_recency { &ranks } else { &ages },
        metas: &metas,
        cores: if knobs.core_rank.is_empty() { &[] } else { &cores },
        core_rank: &knobs.core_rank,
    };
    let scalar = scan::scan_scalar(&params, &rows);
    let lanes = scan::scan_lanes(&params, &rows);
    prop_assert_eq!(
        scalar,
        lanes,
        "schedules diverged on {} ways: scalar {} vs lanes {}",
        inputs.len(),
        scalar,
        lanes
    );
    prop_assert!(
        usize::from(scalar) < inputs.len(),
        "victim {} out of range for {} ways",
        scalar,
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

/// Saturated rows on every way: keys tie on the top staleness byte and
/// only the way index separates them — both schedules must fall back to
/// the lowest way, whatever the way count's remainder mod LANES.
#[test]
fn saturated_staleness_ties_break_identically() {
    for ways in 1..=(3 * LANES + 1) {
        let ages = vec![u8::MAX; ways];
        let metas = vec![LineMeta::filled(false, true).bits(); ways];
        let params = ScanParams {
            rd: 4,
            max_staleness: u8::MAX,
            age_weight: 8,
            use_type: true,
            use_hit: true,
        };
        let rows =
            SetRows { ages: &ages, staleness: &ages, metas: &metas, cores: &[], core_rank: &[] };
        let scalar = scan::scan_scalar(&params, &rows);
        let lanes = scan::scan_lanes(&params, &rows);
        assert_eq!(scalar, lanes, "{ways} ways");
        assert_eq!(scalar, 0, "{ways} ways: full tie must keep the lowest way");
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
            run_case(&(inputs, knobs)).expect("schedules must agree");
        }
    }
}
