//! Tables I and IV of the paper.

use cache_sim::{CacheConfig, ReplacementPolicy};
use workloads::{cloudsuite, random_spec_mixes, CLOUDSUITE, SPEC2006};

use crate::figures::single_core_sweep;
use crate::report::Table;
use crate::roster::PolicyKind;
use crate::runner::{mix_speedup_pct, run_mix};
use crate::scale::Scale;
use crate::geomean_speedup_pct;

/// Table I: hardware overhead per policy in a 16-way 2 MB LLC. Simulated
/// policies report their own metadata accounting (`overhead_bits`). The
/// paper cites MPPPB and Glider only here, and the counter-based AIP not
/// at all, so no simulator stands behind those three rows: each is the
/// storage formula of its design (`mpppb_bits`, `glider_bits`,
/// `aip_bits`).
pub fn table1() -> Table {
    let llc = CacheConfig::with_capacity_kb(2048, 16, 26);
    let mut table = Table::new(
        "Table I: hardware overhead (16-way 2MB LLC)",
        vec!["policy".into(), "uses PC".into(), "overhead (KB)".into(), "paper (KB)".into()],
    );
    let simulated = |kind: PolicyKind, paper| {
        (kind.name(), kind.uses_pc(), kind.build(&llc, None).overhead_bits(&llc), paper)
    };
    let rows = [
        simulated(PolicyKind::Lru, "16"),
        simulated(PolicyKind::Drrip, "8"),
        simulated(PolicyKind::KpcR, "8.57"),
        ("MPPPB", true, mpppb_bits(&llc), "28"),
        simulated(PolicyKind::Ship, "14"),
        simulated(PolicyKind::ShipPp, "20"),
        simulated(PolicyKind::Hawkeye, "28"),
        ("Glider", true, glider_bits(&llc), "61.6"),
        simulated(PolicyKind::Rlr, "16.75"),
        simulated(PolicyKind::RlrUnopt, "40"),
        ("Counter(AIP)", true, aip_bits(&llc), "-"),
        simulated(PolicyKind::Srrip, "-"),
        simulated(PolicyKind::Brrip, "-"),
        simulated(PolicyKind::Fifo, "-"),
        simulated(PolicyKind::Pdp, "-"),
        simulated(PolicyKind::Eva, "-"),
        simulated(PolicyKind::Random, "-"),
    ];
    for (name, uses_pc, bits, paper) in rows {
        table.push_row(vec![
            name.to_owned(),
            if uses_pc { "yes" } else { "no" }.to_owned(),
            format!("{:.2}", bits as f64 / 8.0 / 1024.0),
            paper.to_owned(),
        ]);
    }
    table.push_note(
        "Glider's paper budget (61.6 KB) includes larger tables than this implementation's; \
         rows marked '-' have no Table I entry in the paper.",
    );
    table
}

/// One of every 32 sets feeds the sampler of MPPPB and Glider.
const SAMPLE_PERIOD: u32 = 32;

/// MPPPB (multiperspective perceptron): 2-bit RRPVs per line, six tables of
/// 2^8 six-bit weights, and per sampled line its six 8-bit feature indices
/// plus a reuse bit.
fn mpppb_bits(llc: &CacheConfig) -> u64 {
    const TABLES: u64 = 6;
    const TABLE_BITS: u32 = 8;
    let rrpv = llc.lines() * 2;
    let weights = TABLES * (1 << TABLE_BITS) * 6;
    let sampled_lines = u64::from(llc.sets.div_ceil(SAMPLE_PERIOD)) * u64::from(llc.ways);
    rrpv + weights + sampled_lines * (TABLES * u64::from(TABLE_BITS) + 1)
}

/// Glider: 3-bit RRPVs per line, an integer SVM of 2^11 rows by 16 six-bit
/// weights, a PC history register of five 11-bit hashes, and a sampled
/// OPTgen (as in Hawkeye). Each sampled set holds an 8×ways window of 4-bit
/// occupancies and 2×ways sampler entries, each with the 11-bit hashes of
/// its PC and its five-PC history plus two 8-bit fields.
fn glider_bits(llc: &CacheConfig) -> u64 {
    const HISTORY: u64 = 5;
    const ROW_BITS: u32 = 11;
    const WEIGHTS_PER_ROW: u64 = 16;
    let ways = u64::from(llc.ways);
    let rrpv = llc.lines() * 3;
    let isvm = (1 << ROW_BITS) * WEIGHTS_PER_ROW * 6;
    let pchr = HISTORY * u64::from(ROW_BITS);
    let window = 8 * ways;
    let sampled = u64::from(llc.sets.div_ceil(SAMPLE_PERIOD));
    let optgen = sampled * (window * 4 + 2 * ways * (u64::from(ROW_BITS) * (1 + HISTORY) + 8 + 8));
    rrpv + isvm + pchr + optgen
}

/// Counter-based AIP: per line a 6-bit access-interval counter, a 6-bit
/// threshold and a 12-bit PC signature, plus a prediction table of 2^12
/// six-bit thresholds.
fn aip_bits(llc: &CacheConfig) -> u64 {
    const TABLE_BITS: u32 = 12;
    llc.lines() * (6 + 6 + u64::from(TABLE_BITS)) + (1 << TABLE_BITS) * 6
}

/// Table IV: overall geometric-mean IPC speedup over LRU for 1-core
/// (2 MB LLC) and 4-core (8 MB LLC) systems, on SPEC CPU 2006 and
/// CloudSuite.
pub fn table4(scale: Scale) -> Table {
    let mut table = Table::new(
        "Table IV: overall speedup over LRU (%)",
        vec![
            "policy".into(),
            "1-core SPEC".into(),
            "1-core Cloud".into(),
            "4-core SPEC".into(),
            "4-core Cloud".into(),
        ],
    );

    // Single-core sweeps. Failed cells (or a failed LRU baseline) are
    // dropped from the geomean rather than aborting the whole table.
    let spec = single_core_sweep(&SPEC2006, scale);
    let cloud = single_core_sweep(&CLOUDSUITE, scale);
    let overall_1c = |sweep: &crate::runner::ResilientSweep, kind: PolicyKind| {
        geomean_speedup_pct(sweep.iter().filter_map(|(_, runs)| {
            let lru = runs[0].1.as_ref().ok()?;
            runs.iter()
                .find(|(p, _)| *p == kind)
                .expect("policy in sweep")
                .1
                .as_ref()
                .ok()
                .map(|s| s.speedup_pct_over(lru))
        }))
    };

    // Multi-core: random SPEC mixes + homogeneous CloudSuite mixes.
    let spec_mixes = random_spec_mixes(scale.mix_count(), 4, 2021);
    let cloud_mixes: Vec<workloads::WorkloadMix> = CLOUDSUITE
        .iter()
        .map(|name| {
            let wl = cloudsuite(name).expect("cloud benchmark");
            workloads::WorkloadMix::new(
                format!("cloud-{name}"),
                (0..4).map(|i| wl.clone().with_seed(wl.seed() ^ i)).collect(),
            )
        })
        .collect();

    let mc_speedups = |mixes: &[workloads::WorkloadMix], kind: PolicyKind| {
        geomean_speedup_pct(mixes.iter().map(|mix| {
            let lru = run_mix(mix, PolicyKind::Lru, scale);
            let runs = run_mix(mix, kind, scale);
            mix_speedup_pct(&runs, &lru)
        }))
    };

    // The paper's Table IV rows.
    let rows: Vec<(PolicyKind, PolicyKind)> = vec![
        // (single-core variant, multicore variant)
        (PolicyKind::Drrip, PolicyKind::Drrip),
        (PolicyKind::KpcR, PolicyKind::KpcR),
        (PolicyKind::Rlr, PolicyKind::RlrMulticore),
        (PolicyKind::RlrUnopt, PolicyKind::RlrUnopt),
        (PolicyKind::Ship, PolicyKind::Ship),
        (PolicyKind::Hawkeye, PolicyKind::Hawkeye),
        (PolicyKind::ShipPp, PolicyKind::ShipPp),
    ];
    for (single, multi) in rows {
        eprintln!("[table4] {}", single.name());
        table.push_row(vec![
            if single == PolicyKind::RlrUnopt { "RLR(unopt)".to_owned() } else { single.name().to_owned() },
            Table::fmt(overall_1c(&spec, single)),
            Table::fmt(overall_1c(&cloud, single)),
            Table::fmt(mc_speedups(&spec_mixes, multi)),
            Table::fmt(mc_speedups(&cloud_mixes, multi)),
        ]);
    }
    table
}
