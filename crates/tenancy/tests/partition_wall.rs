//! The partition wall: randomized properties pinning the two guarantees
//! way-partitioned tenancy rests on.
//!
//! 1. The masked victim scan ([`rlr::scan::scan_masked_lanes`]) agrees with the
//!    one-accumulator scalar reference bit-for-bit on arbitrary sets and
//!    masks, never names a victim outside the mask, and degenerates to
//!    the unmasked scan when the mask covers every way.
//! 2. Under [`IsolationMode::WayPartition`], no tenant's lines ever
//!    appear outside its way allocation — checked way-by-way against the
//!    owner mirror throughout randomized multi-tenant runs, along with
//!    the occupancy bound it implies.
//!
//! Failures shrink toward a minimal counterexample and report a
//! `PROP_SEED` for exact replay, like the other differential walls.

use cache_sim::{Access, AccessKind, AccessOutcome, CacheConfig, SetAssocCache, SystemConfig};
use rlr::packed::LineMeta;
use rlr::scan::{self, ScanParams, ScanWays};
use simrng::prop::{check, Config};
use simrng::{prop_assert, prop_assert_eq, Rng, SimRng};
use tenancy::{partition_by_weight, IsolationMode, MultiTenantLlc, TenantPolicy};

/// One way's generated inputs: `(age_stamp, rec_stamp, meta_bits, core)`.
type WayInput = (u64, u64, u8, u8);

/// Scan-wide knobs; ride along the shrunk way vector unchanged.
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
    mask: u32,
}

type Case = (Vec<WayInput>, Knobs);

fn meta_of(bits: u8) -> LineMeta {
    let mut meta = LineMeta::filled(bits & 0x40 != 0, bits & 0x80 != 0);
    meta.set_hit_count(bits & 0x3F);
    meta
}

fn gen_case(rng: &mut SimRng) -> Case {
    let ways = rng.gen_range(1..=32usize);
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
        core_rank: if rng.gen_range(0..2u64) == 1 {
            (0..4).map(|_| rng.gen_range(0..4u64) as u32).collect()
        } else {
            Vec::new()
        },
        // Any nonzero bits; clipped to the (possibly shrunk) way count in
        // the property so shrinking can never make the mask invalid.
        mask: rng.gen_range(1..=u32::MAX as u64) as u32,
    };
    (inputs, knobs)
}

fn run_masked_case((inputs, knobs): &Case) -> Result<(), String> {
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
        cores: &cores,
        core_rank: &knobs.core_rank,
    };
    let n = inputs.len();
    let set_bits = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mask = if knobs.mask & set_bits == 0 { 1 } else { knobs.mask & set_bits };

    let scalar = scan::scan_masked_scalar(&params, &ways, mask);
    let lanes = scan::scan_masked_lanes(&params, &ways, mask);
    let dispatch = scan::scan_masked_lanes(&params, &ways, mask);
    prop_assert_eq!(scalar, lanes);
    prop_assert_eq!(scalar, dispatch);
    prop_assert!(
        mask >> scalar.victim() & 1 == 1,
        "victim way {} escapes mask {mask:#010b}",
        scalar.victim()
    );
    // A full mask is the unmasked scan, key and bypass vote included.
    prop_assert_eq!(
        scan::scan_masked_scalar(&params, &ways, set_bits),
        scan::scan_lanes(&params, &ways)
    );
    Ok(())
}

#[test]
fn masked_scan_backends_agree_and_never_leave_the_mask() {
    check(
        "masked_scan_backends_agree_and_never_leave_the_mask",
        Config::with_cases(400),
        gen_case,
        run_masked_case,
    );
}

/// Randomized partitioned runs: `(tenants, rng seed, weights...)`, shrunk
/// as a plain seed vector.
fn gen_partition_case(rng: &mut SimRng) -> Vec<u64> {
    let tenants = rng.gen_range(2..=4u64);
    let mut case = vec![tenants, rng.gen_range(0..u64::MAX)];
    case.extend((0..tenants).map(|_| rng.gen_range(1..5u64)));
    case
}

fn run_partition_case(case: &Vec<u64>) -> Result<(), String> {
    // Defensive decode: shrinking may cut the vector; clamp back to a
    // valid scenario rather than panicking mid-shrink.
    let tenants = case.first().copied().unwrap_or(2).clamp(2, 4) as usize;
    let seed = case.get(1).copied().unwrap_or(0);
    let weights: Vec<u32> = (0..tenants)
        .map(|t| case.get(2 + t).copied().unwrap_or(1).clamp(1, 4) as u32)
        .collect();

    let llc = CacheConfig { sets: 16, ways: 8, latency: 26 };
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = llc;
    let masks = partition_by_weight(llc.ways, &weights);
    let mut sys = MultiTenantLlc::new(&cfg, tenants as u8, IsolationMode::WayPartition(masks.clone()));

    let mut rng = SimRng::seed_from_u64(seed ^ 0x7ab5_0a11_0c0d_e5e5);
    let check_isolation = |sys: &MultiTenantLlc, at: usize| -> Result<(), String> {
        for set in 0..llc.sets {
            let owners = sys.set_owners(set);
            let mut per_tenant = vec![0u32; tenants];
            for (way, owner) in owners.iter().enumerate() {
                if let Some(t) = owner {
                    let t = usize::from(*t);
                    prop_assert!(
                        masks[t] >> way & 1 == 1,
                        "access {at}: tenant {t} owns way {way} of set {set} \
                         outside its mask {:#010b}",
                        masks[t]
                    );
                    per_tenant[t] += 1;
                }
            }
            for (t, &count) in per_tenant.iter().enumerate() {
                prop_assert!(count <= masks[t].count_ones());
            }
        }
        for (t, q) in sys.qos_all().iter().enumerate() {
            let cap = u64::from(masks[t].count_ones()) * u64::from(llc.sets);
            prop_assert!(
                q.peak_occupancy <= cap,
                "tenant {t} peaked at {} lines, allocation is {cap}",
                q.peak_occupancy
            );
        }
        Ok(())
    };

    for at in 0..4_000usize {
        let tenant = rng.gen_range(0..tenants as u64) as u8;
        // A small hot region plus a long tail, so sets fill, hit, and
        // churn victims rather than only streaming. Tenants get disjoint
        // address spaces (the serving tier's deployment model — the
        // tenancy experiment salts every stream the same way); a *shared*
        // address hands its slot to whichever tenant hits it, which is
        // ownership transfer by design, not an isolation leak.
        let line = if rng.gen_range(0..4u64) == 0 {
            rng.gen_range(0..48u64)
        } else {
            rng.gen_range(0..2_048u64)
        } | (u64::from(tenant) + 1) << 34;
        let kind = AccessKind::ALL[rng.gen_range(0..4u64) as usize];
        sys.access(tenant, 0x400 + line % 13, line << 6, kind);
        if at % 256 == 0 {
            check_isolation(&sys, at)?;
        }
    }
    check_isolation(&sys, 4_000)
}

#[test]
fn way_partition_occupancy_never_leaves_the_allocation() {
    check(
        "way_partition_occupancy_never_leaves_the_allocation",
        Config::with_cases(24),
        gen_partition_case,
        run_partition_case,
    );
}

/// A saturating single-tenant burst inside a one-way partition: the
/// victim scan has exactly one eligible way and must keep naming it, so
/// the tenant's footprint stays pinned at one line per set while its
/// neighbour is untouched.
#[test]
fn one_way_partition_pins_a_tenant_to_one_line_per_set() {
    let llc = CacheConfig { sets: 8, ways: 4, latency: 26 };
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = llc;
    let masks = vec![0b0001u32, 0b1110];
    let mut sys = MultiTenantLlc::new(&cfg, 2, IsolationMode::WayPartition(masks));
    for i in 0..4_096u64 {
        sys.access(0, 0x400, i << 6, AccessKind::Load);
    }
    assert_eq!(sys.qos(0).peak_occupancy, u64::from(llc.sets), "one way per set, ever");
    assert_eq!(sys.qos(1).occupancy, 0, "the idle neighbour is untouched");
    for set in 0..llc.sets {
        let owners = sys.set_owners(set);
        assert_eq!(owners[0], Some(0), "the partition's single way is in use");
        assert!(owners[1..].iter().all(Option::is_none), "ways 1..3 stay empty");
    }
}

/// FNV-1a over the little-endian bytes of `word`, chained from `hash`.
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs a fixed mixed-kind, three-tenant stream through a bare
/// `SetAssocCache<TenantPolicy>` and digests every [`AccessOutcome`],
/// the predicted reuse distance every 512 accesses, and its final value.
/// Returns `(digest, distinct RD values seen)`.
fn tenant_policy_digest(mode: IsolationMode) -> (u64, usize) {
    let llc = CacheConfig { sets: 16, ways: 8, latency: 26 };
    let mut cache = SetAssocCache::new("pin", llc, TenantPolicy::new(&llc, 3, mode));
    let mut rng = SimRng::seed_from_u64(0x5eed_7e4a_4c1e_0024);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut rds = Vec::new();
    for seq in 0..24_000u64 {
        let tenant = rng.gen_range(0..3u64) as u8;
        // Reuse-heavy phases around a pure streaming phase: the RD
        // estimator sees demand-hit windows, then the stale-RD escape.
        let streaming = (9_000..13_000).contains(&seq);
        let line = if streaming {
            (1 << 30) + seq
        } else {
            match rng.gen_range(0..8u64) {
                // A region every tenant touches (ownership moves on hits).
                0 => rng.gen_range(0..32u64),
                1..=4 => rng.gen_range(0..96u64) | (u64::from(tenant) + 1) << 20,
                _ => rng.gen_range(0..1_024u64) | (u64::from(tenant) + 1) << 20,
            }
        };
        let kind = AccessKind::ALL[rng.gen_range(0..4u64) as usize];
        let pc = 0x400 + 4 * rng.gen_range(0..6u64);
        let out: AccessOutcome =
            cache.access(&Access { pc, addr: line << 6, kind, core: tenant, seq });
        let option = |o: Option<u64>| o.map_or(0, |v| v + 1);
        for word in [
            u64::from(out.hit),
            option(out.way.map(u64::from)),
            u64::from(out.bypassed),
            option(out.writeback),
            option(out.evicted),
        ] {
            hash = fnv1a_word(hash, word);
        }
        if seq % 512 == 0 {
            let rd = cache.policy().predicted_reuse_distance();
            hash = fnv1a_word(hash, rd);
            rds.push(rd);
        }
    }
    let rd = cache.policy().predicted_reuse_distance();
    rds.push(rd);
    rds.sort_unstable();
    rds.dedup();
    (fnv1a_word(hash, rd), rds.len())
}

/// Pins `TenantPolicy`'s exact victim choices and RD trajectory in every
/// isolation mode on a stream that mixes all four access kinds — the
/// prefetch and writeback kinds drive the RD filter and the type term,
/// which the Load-only tenancy mixes never reach. Any change to the
/// policy's replacement state machine moves these digests.
#[test]
fn tenant_policy_outcomes_are_pinned_on_mixed_kind_streams() {
    let modes = [
        IsolationMode::Shared,
        IsolationMode::WayPartition(partition_by_weight(8, &[4, 2, 1])),
        IsolationMode::LearnedPriority(vec![4, 1, 0]),
    ];
    let digests: Vec<(u64, usize)> = modes.into_iter().map(tenant_policy_digest).collect();
    for &(_, distinct_rds) in &digests {
        assert!(distinct_rds > 2, "the RD estimator must move during the stream");
    }
    let digests: Vec<u64> = digests.iter().map(|d| d.0).collect();
    assert_eq!(
        digests,
        [0xe210_41ae_16ed_fecd, 0xbb0a_7738_9b70_ad1d, 0x9dc4_1ac8_353d_11ef],
        "digests {digests:#018x?}"
    );
}
