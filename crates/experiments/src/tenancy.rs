//! The multi-tenant LLC experiment: run a [`TenantMix`] under each
//! [`IsolationMode`], account per-tenant QoS, and derive the learned
//! per-tenant priority table.
//!
//! Each (mix, mode) pair is a [`TenancyCell`] run through the shared
//! checkpointed sweep ([`crate::checkpoint::run_checkpointed_sweep`]); its
//! result is one exact all-`u64` row per tenant. Cells live under
//! `results/cache/tenancy/`, a sibling of the LLC sweep's cells, and
//! `rlr doctor` walks them with the rest of the tree.
//!
//! # The learned priority table
//!
//! [`derive_priorities`] is the paper's offline weight-analysis loop
//! transplanted to tenancy: observe per-tenant reuse under the `Shared`
//! baseline, then coordinate-ascend the per-tenant rank table, accepting a
//! candidate only when the *weighted* demand miss rate strictly improves.
//! Because an all-zero rank table prices every tenant identically — the
//! scan adds rank 0 to every line, reproducing `Shared` key-for-key — the
//! ascent starts exactly at the baseline and can only move down: the
//! derived table is never worse than `Shared` by construction.

use cache_sim::{AccessKind, CacheConfig, LlcRecord, SystemConfig};
use tenancy::{partition_by_weight, IsolationMode, MultiTenantLlc, TenantQos};
use workloads::tenants::{TenantMix, TenantSource, TenantSpec};
use workloads::WeightedInterleave;

use std::path::Path;

use crate::checkpoint::{self, Cell, CellCodec, CellKey};
use crate::json::Json;
use crate::report::Table;
use crate::runner::{watchdog_tick, SweepOptions, TaskFailure};
use crate::scale::Scale;

/// Per-tenant address/PC salt shift: tenant `t`'s traffic is relocated by
/// `(t+1) << 40`, modelling disjoint address spaces (no cross-tenant
/// sharing, like the per-core PC salt in `run_mix`).
const TENANT_SALT_SHIFT: u32 = 40;

/// One tenancy sweep cell: per-tenant QoS counters, or why the run died.
pub type TenancyCellResult = Result<Vec<TenantCellStats>, TaskFailure>;

/// The LLC the tenancy experiment shares between tenants. Deliberately
/// smaller than the paper's 2 MiB LLC so the pinned default mix actually
/// contends: the gold tenant's working set is ~3/4 of it and the bronze
/// scanner could stream the rest away.
pub fn default_llc() -> CacheConfig {
    CacheConfig { sets: 256, ways: 8, latency: 26 }
}

/// Interleaved accesses a tenancy run serves at `scale`.
pub fn accesses_for(scale: Scale) -> u64 {
    match scale {
        Scale::Small => 240_000,
        Scale::Medium => 1_200_000,
        Scale::Full => 6_000_000,
    }
}

/// The exact, checkpointable snapshot of one tenant's [`TenantQos`] —
/// every field a `u64`, so a resumed sweep is byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCellStats {
    /// All LLC accesses the tenant issued.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Demand (load/RFO) accesses.
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Lines owned at the end of the run.
    pub occupancy: u64,
    /// Most lines ever owned at once.
    pub peak_occupancy: u64,
    /// Misses with a recorded DRAM round-trip.
    pub miss_count: u64,
    /// Sum of those round-trips, in timing ticks.
    pub miss_ticks: u64,
    /// Median miss latency, in ticks.
    pub lat_p50: u64,
    /// 99th-percentile miss latency, in ticks.
    pub lat_p99: u64,
}

impl TenantCellStats {
    /// Demand miss rate in 0..=1 (0 with no demand traffic).
    pub fn demand_miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            1.0 - self.demand_hits as f64 / self.demand_accesses as f64
        }
    }

    /// Average memory-access time proxy in ticks: LLC latency for hits,
    /// the recorded DRAM round-trip for misses. The slowdown index is a
    /// ratio of these.
    pub fn amat(&self, llc: &CacheConfig) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        (self.hits as f64 * f64::from(llc.latency) + self.miss_ticks as f64) / self.accesses as f64
    }
}

fn snapshot(q: &TenantQos) -> TenantCellStats {
    TenantCellStats {
        accesses: q.accesses,
        hits: q.hits,
        demand_accesses: q.demand_accesses,
        demand_hits: q.demand_hits,
        occupancy: q.occupancy,
        peak_occupancy: q.peak_occupancy,
        miss_count: q.miss_latency.count(),
        miss_ticks: q.miss_latency.total(),
        lat_p50: q.miss_latency.percentile(0.50),
        lat_p99: q.miss_latency.percentile(0.99),
    }
}

/// Aggregate demand miss rate weighted by the mix's class weights — the
/// serving tier's headline, and the objective the derive loop descends.
pub fn weighted_rate(stats: &[TenantCellStats], weights: &[u32]) -> f64 {
    assert_eq!(stats.len(), weights.len());
    let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
    stats
        .iter()
        .zip(weights)
        .map(|(s, &w)| f64::from(w) * s.demand_miss_rate())
        .sum::<f64>()
        / total
}

/// Materializes one tenant's endless access stream, relocated into its
/// private address space. Benchmark tenants replay their corpus trace
/// (captured on demand) in a loop, keeping the original access kinds;
/// synthetic tenants are demand loads.
///
/// # Panics
///
/// Panics when a benchmark tenant's trace cannot be captured — under the
/// resilient sweep runner that surfaces as a structured [`TaskFailure`]
/// for that cell rather than killing the sweep.
fn tenant_stream(
    spec: &TenantSpec,
    tenant: usize,
    scale: Scale,
) -> Box<dyn Iterator<Item = (u64, u64, AccessKind)>> {
    let salt = (tenant as u64 + 1) << TENANT_SALT_SHIFT;
    match &spec.source {
        TenantSource::Benchmark(name) => {
            // The corpus keys on the roster's `&'static` names; intern
            // through it so an unknown tenant fails loudly here.
            let interned = workloads::SPEC2006
                .iter()
                .chain(workloads::CLOUDSUITE.iter())
                .copied()
                .find(|&n| n == name.as_str())
                .unwrap_or_else(|| panic!("benchmark tenant {name} is not in the roster"));
            let trace = crate::corpus::load_or_capture(interned, scale, false)
                .unwrap_or_else(|e| panic!("capture {name} for tenant {tenant}: {e}"));
            let records: Vec<LlcRecord> = trace.records().to_vec();
            assert!(!records.is_empty(), "empty corpus trace for {name}");
            let mut at = 0usize;
            Box::new(std::iter::from_fn(move || {
                let r = records[at % records.len()];
                at += 1;
                Some((r.pc ^ salt, r.line ^ salt, r.kind))
            }))
        }
        source => {
            let stream = source.synthetic_stream().expect("non-benchmark sources are synthetic");
            Box::new(stream.map(move |a| (a.pc ^ salt, a.line ^ salt, AccessKind::Load)))
        }
    }
}

/// Runs `mix` under `mode` for `accesses` interleaved LLC accesses and
/// returns one [`TenantCellStats`] per tenant: the one-mode case of
/// [`run_tenant_modes`].
///
/// Deterministic: the interleave order depends only on the mix (seed and
/// rates), never on the mode, so per-tenant access counts are identical
/// across modes and any QoS difference is the isolation policy's doing.
pub fn run_tenant_mix(
    mix: &TenantMix,
    mode: &IsolationMode,
    llc: &CacheConfig,
    accesses: u64,
    scale: Scale,
) -> Vec<TenantCellStats> {
    run_tenant_modes(mix, &[mode], llc, accesses, scale).pop().expect("one result per mode")
}

/// Interleaved accesses [`run_tenant_modes`] draws at a time: 32 KiB of
/// buffered accesses. A 4096-access (128 KiB) block measured 0.1–0.2 MiB
/// more peak RSS on the `serving_tiers` sweep and no speed-up.
const BLOCK: usize = 1024;

/// Interleaved accesses per watchdog tick (one unit per mode); a multiple
/// of [`BLOCK`].
const TICK_EVERY: usize = 4096;

/// Runs `mix` under every mode in `modes` for `accesses` interleaved LLC
/// accesses, returning one [`run_tenant_mix`] result per mode.
///
/// The interleave does not depend on the mode, so it is drawn once: each
/// block of `BLOCK` accesses feeds every mode's [`MultiTenantLlc`] in
/// turn, and each mode sees exactly the stream it would see alone.
pub fn run_tenant_modes(
    mix: &TenantMix,
    modes: &[&IsolationMode],
    llc: &CacheConfig,
    accesses: u64,
    scale: Scale,
) -> Vec<Vec<TenantCellStats>> {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = *llc;
    let tenants = mix.tenants.len() as u8;
    let mut systems: Vec<MultiTenantLlc> =
        modes.iter().map(|&mode| MultiTenantLlc::new(&cfg, tenants, mode.clone())).collect();
    let streams: Vec<_> =
        mix.tenants.iter().enumerate().map(|(t, spec)| tenant_stream(spec, t, scale)).collect();
    let mut interleave =
        WeightedInterleave::new(streams, &mix.rates(), mix.seed).take(accesses as usize);
    let mut block = Vec::with_capacity(BLOCK);
    let mut drawn = 0;
    loop {
        block.clear();
        block.extend(interleave.by_ref().take(BLOCK));
        if block.is_empty() {
            break;
        }
        if drawn % TICK_EVERY == 0 {
            watchdog_tick(systems.len() as u64);
        }
        drawn += block.len();
        for sys in &mut systems {
            for &(tenant, (pc, line, kind)) in &block {
                sys.access(tenant as u8, pc, line << 6, kind);
            }
        }
    }
    systems.iter().map(|sys| sys.qos_all().iter().map(snapshot).collect()).collect()
}

/// Runs tenant `t` of `mix` *alone* on the full LLC for the same access
/// volume it would get in the interleave — the isolated baseline the
/// slowdown index compares against.
pub fn run_isolated_tenant(
    mix: &TenantMix,
    tenant: usize,
    llc: &CacheConfig,
    accesses: u64,
    scale: Scale,
) -> TenantCellStats {
    let rates = mix.rates();
    let total: u64 = rates.iter().map(|&r| u64::from(r)).sum();
    let share = accesses * u64::from(rates[tenant]) / total.max(1);
    let mut cfg = SystemConfig::paper_single_core();
    cfg.llc = *llc;
    let mut sys = MultiTenantLlc::new(&cfg, 1, IsolationMode::Shared);
    for (i, (pc, line, kind)) in tenant_stream(&mix.tenants[tenant], tenant, scale)
        .take(share as usize)
        .enumerate()
    {
        if i % 4096 == 0 {
            watchdog_tick(1);
        }
        sys.access(0, pc, line << 6, kind);
    }
    snapshot(&sys.qos_all()[0])
}

/// Cell name of one isolation mode, embedding its tables so two different
/// partitions or rank vectors never share a checkpoint.
pub fn mode_cell_name(mode: &IsolationMode) -> String {
    match mode {
        IsolationMode::Shared => "shared".to_owned(),
        IsolationMode::WayPartition(masks) => format!("way-partition{masks:?}"),
        IsolationMode::LearnedPriority(ranks) => format!("learned-priority{ranks:?}"),
    }
}

/// Checkpoint key for one tenancy cell.
pub fn tenancy_cell_key(
    mix: &TenantMix,
    mode: &IsolationMode,
    llc: &CacheConfig,
    accesses: u64,
) -> CellKey {
    let params = format!(
        "{}|llc s{} w{} l{}|n{accesses}",
        mix.fingerprint(),
        llc.sets,
        llc.ways,
        llc.latency
    );
    checkpoint::cell_key("tenancy", &mode_cell_name(mode), &params)
}

/// On disk a tenant is one row of its ten counters in field order.
impl CellCodec for TenantCellStats {
    fn to_json(&self) -> Json {
        let s = self;
        [
            s.accesses,
            s.hits,
            s.demand_accesses,
            s.demand_hits,
            s.occupancy,
            s.peak_occupancy,
            s.miss_count,
            s.miss_ticks,
            s.lat_p50,
            s.lat_p99,
        ]
        .to_json()
    }

    fn from_json(v: &Json) -> Option<Self> {
        let [
            accesses,
            hits,
            demand_accesses,
            demand_hits,
            occupancy,
            peak_occupancy,
            miss_count,
            miss_ticks,
            lat_p50,
            lat_p99,
        ] = <[u64; 10]>::from_json(v)?;
        Some(TenantCellStats {
            accesses,
            hits,
            demand_accesses,
            demand_hits,
            occupancy,
            peak_occupancy,
            miss_count,
            miss_ticks,
            lat_p50,
            lat_p99,
        })
    }
}

/// A tenancy cell is `{"tenants": [row, ...]}`, one row per tenant.
impl CellCodec for Vec<TenantCellStats> {
    fn to_json(&self) -> Json {
        Json::obj([("tenants", Json::Arr(self.iter().map(CellCodec::to_json).collect()))])
    }

    fn from_json(v: &Json) -> Option<Self> {
        v.get("tenants")?.as_arr()?.iter().map(TenantCellStats::from_json).collect()
    }
}

/// Loads the checkpoint for `key` from `dir` ([`checkpoint::load_cell`]).
pub fn load_tenancy_cell(dir: &Path, key: &CellKey) -> Option<Vec<TenantCellStats>> {
    checkpoint::load_cell(dir, key)
}

/// Persists one completed cell ([`checkpoint::store_cell`]).
pub fn store_tenancy_cell(dir: &Path, key: &CellKey, stats: &[TenantCellStats]) {
    checkpoint::store_cell(dir, key, &stats.to_vec());
}

/// The three modes `rlr tenancy compare` runs: free-for-all, proportional
/// way partitions, and the learned table (`ranks`).
pub fn standard_modes(mix: &TenantMix, llc: &CacheConfig, ranks: Vec<u32>) -> Vec<IsolationMode> {
    vec![
        IsolationMode::Shared,
        IsolationMode::WayPartition(partition_by_weight(llc.ways, &mix.weights())),
        IsolationMode::LearnedPriority(ranks),
    ]
}

/// One tenancy sweep cell: `mix` under `mode` for `accesses` interleaved
/// LLC accesses.
pub struct TenancyCell<'a> {
    /// The tenant mix.
    pub(crate) mix: &'a TenantMix,
    /// Isolation mode under test.
    pub(crate) mode: &'a IsolationMode,
    /// The shared LLC.
    pub(crate) llc: &'a CacheConfig,
    /// Interleaved accesses served.
    pub(crate) accesses: u64,
    /// Scale of benchmark tenants' corpus traces.
    pub(crate) scale: Scale,
}

impl Cell for TenancyCell<'_> {
    const FAMILY: &'static str = "tenancy";
    type Out = Vec<TenantCellStats>;

    fn key(&self) -> CellKey {
        tenancy_cell_key(self.mix, self.mode, self.llc, self.accesses)
    }

    fn label(&self) -> String {
        mode_cell_name(self.mode)
    }

    fn run(&self) -> Vec<TenantCellStats> {
        run_tenant_mix(self.mix, self.mode, self.llc, self.accesses, self.scale)
    }

    /// The cells of one sweep share a scenario, so one interleave serves
    /// them all ([`run_tenant_modes`]).
    const BATCHED: bool = true;

    fn run_batch(cells: &[&Self]) -> Vec<Vec<TenantCellStats>> {
        let Some(first) = cells.first() else { return Vec::new() };
        assert!(
            cells.iter().all(|c| c.mix.fingerprint() == first.mix.fingerprint()
                && c.llc == first.llc
                && c.accesses == first.accesses
                && c.scale == first.scale),
            "a tenancy batch shares one scenario"
        );
        let modes: Vec<&IsolationMode> = cells.iter().map(|c| c.mode).collect();
        run_tenant_modes(first.mix, &modes, first.llc, first.accesses, first.scale)
    }
}

/// Runs `modes` over one mix as a checkpointed sweep. Results preserve
/// `modes` order independent of scheduling.
pub fn run_tenancy_sweep(
    mix: &TenantMix,
    modes: &[IsolationMode],
    llc: &CacheConfig,
    accesses: u64,
    scale: Scale,
    opts: &SweepOptions,
) -> Vec<(IsolationMode, TenancyCellResult)> {
    let cells: Vec<TenancyCell> =
        modes.iter().map(|mode| TenancyCell { mix, mode, llc, accesses, scale }).collect();
    modes.iter().cloned().zip(checkpoint::run_checkpointed_sweep(&cells, opts)).collect()
}

/// What [`derive_priorities`] found.
#[derive(Clone, Debug, PartialEq)]
pub struct DeriveOutcome {
    /// The derived per-tenant rank table.
    pub ranks: Vec<u32>,
    /// Weighted demand miss rate of the `Shared` baseline.
    pub shared_rate: f64,
    /// Weighted demand miss rate under the derived table.
    pub derived_rate: f64,
    /// Candidate tables evaluated (ascent cost, for reporting).
    pub evaluated: u32,
}

/// Rank levels the ascent may assign a tenant. Spread exponentially: one
/// rank step must out-price the scan's hit bit (+1) and, at the top, the
/// whole age term (+8).
const RANK_LEVELS: [u32; 6] = [0, 1, 2, 4, 8, 16];

/// Derives the learned per-tenant priority table: the paper's offline
/// weight-analysis loop with the per-tenant rank vector as the weight
/// space and the weighted demand miss rate as the objective.
///
/// Coordinate ascent from the all-zero table (= the `Shared` baseline,
/// exactly — rank 0 adds nothing to any key), accepting a move only on
/// strict improvement. The result therefore never loses to `Shared`; on
/// contended mixes it wins by pricing high-weight tenants' lines up.
pub fn derive_priorities(
    mix: &TenantMix,
    llc: &CacheConfig,
    accesses: u64,
    scale: Scale,
) -> DeriveOutcome {
    let weights = mix.weights();
    let shared_rate = weighted_rate(&run_tenant_mix(mix, &IsolationMode::Shared, llc, accesses, scale), &weights);
    let mut ranks = vec![0u32; mix.tenants.len()];
    let mut best = shared_rate;
    let mut evaluated = 1u32;
    for _pass in 0..2 {
        let mut improved = false;
        // Heaviest class first: its rank moves the weighted objective
        // most, so the ascent converges in fewer evaluations.
        let mut order: Vec<usize> = (0..ranks.len()).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(weights[t]), t));
        for &t in &order {
            for level in RANK_LEVELS {
                if level == ranks[t] {
                    continue;
                }
                let mut trial = ranks.clone();
                trial[t] = level;
                let rate = weighted_rate(
                    &run_tenant_mix(mix, &IsolationMode::LearnedPriority(trial.clone()), llc, accesses, scale),
                    &weights,
                );
                evaluated += 1;
                if rate < best {
                    best = rate;
                    ranks = trial;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    DeriveOutcome { ranks, shared_rate, derived_rate: best, evaluated }
}

/// Renders a sweep as the per-mode QoS table: one row per (mode, tenant)
/// with occupancy, demand miss rate, miss-latency percentiles, and the
/// slowdown index vs `baselines` (the isolated runs from
/// [`run_isolated_tenant`]), then one aggregate row per mode.
pub fn compare_table(
    mix: &TenantMix,
    llc: &CacheConfig,
    results: &[(IsolationMode, TenancyCellResult)],
    baselines: &[TenantCellStats],
) -> Table {
    let weights = mix.weights();
    let mut table = Table::new(
        "Multi-tenant LLC: per-tenant QoS by isolation mode",
        ["mode", "tenant", "class", "accesses", "demand miss", "peak occ", "p50", "p99", "slowdown"]
            .map(String::from)
            .to_vec(),
    );
    for (mode, cell) in results {
        let stats = match cell {
            Ok(stats) => stats,
            Err(e) => {
                table.push_row(vec![
                    mode.name().to_owned(),
                    format!("FAILED: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        let mut slowdowns = Vec::new();
        for (t, (spec, s)) in mix.tenants.iter().zip(stats).enumerate() {
            let iso = baselines.get(t).map_or(0.0, |b| b.amat(llc));
            let slowdown = if iso > 0.0 { s.amat(llc) / iso } else { 0.0 };
            slowdowns.push(slowdown);
            table.push_row(vec![
                mode.name().to_owned(),
                spec.name.clone(),
                spec.class.name().to_owned(),
                s.accesses.to_string(),
                Table::fmt(s.demand_miss_rate()),
                s.peak_occupancy.to_string(),
                s.lat_p50.to_string(),
                s.lat_p99.to_string(),
                format!("{slowdown:.3}"),
            ]);
        }
        let spread = match (
            slowdowns.iter().cloned().filter(|s| *s > 0.0).reduce(f64::min),
            slowdowns.iter().cloned().reduce(f64::max),
        ) {
            (Some(lo), Some(hi)) if lo > 0.0 => hi / lo,
            _ => 0.0,
        };
        table.push_row(vec![
            mode.name().to_owned(),
            "= aggregate".to_owned(),
            String::new(),
            String::new(),
            Table::fmt(weighted_rate(stats, &weights)),
            String::new(),
            String::new(),
            String::new(),
            format!("spread {spread:.3}"),
        ]);
    }
    table.push_note(format!(
        "mix {} | llc {}x{} | weights {:?} (weighted demand miss rate; slowdown = AMAT vs isolated run)",
        mix.fingerprint(),
        llc.sets,
        llc.ways,
        weights,
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (TenantMix, CacheConfig, u64) {
        (TenantMix::default_three_class(), default_llc(), 60_000)
    }

    #[test]
    fn runs_are_deterministic_and_mode_independent_in_volume() {
        let (mix, llc, n) = small();
        let shared = run_tenant_mix(&mix, &IsolationMode::Shared, &llc, n, Scale::Small);
        let again = run_tenant_mix(&mix, &IsolationMode::Shared, &llc, n, Scale::Small);
        assert_eq!(shared, again, "the run is a pure function of its inputs");
        let part = run_tenant_mix(
            &mix,
            &IsolationMode::WayPartition(partition_by_weight(llc.ways, &mix.weights())),
            &llc,
            n,
            Scale::Small,
        );
        for (s, p) in shared.iter().zip(&part) {
            assert_eq!(s.accesses, p.accesses, "interleave volume is mode-independent");
        }
        let total: u64 = shared.iter().map(|s| s.accesses).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn all_zero_learned_table_reproduces_shared_exactly() {
        let (mix, llc, n) = small();
        let shared = run_tenant_mix(&mix, &IsolationMode::Shared, &llc, n, Scale::Small);
        let zeros = run_tenant_mix(
            &mix,
            &IsolationMode::LearnedPriority(vec![0; mix.tenants.len()]),
            &llc,
            n,
            Scale::Small,
        );
        assert_eq!(shared, zeros, "rank 0 everywhere must be a no-op on the victim keys");
    }

    #[test]
    fn cell_codec_roundtrips_exactly() {
        let (mix, llc, n) = small();
        let mode = IsolationMode::WayPartition(partition_by_weight(llc.ways, &mix.weights()));
        let key = tenancy_cell_key(&mix, &mode, &llc, n);
        let stats = run_tenant_mix(&mix, &mode, &llc, 8_000, Scale::Small);
        let text = checkpoint::encode_cell(&key, &stats);
        assert_eq!(checkpoint::decode_cell(&text, &key), Some(stats));
        let other = tenancy_cell_key(&mix, &IsolationMode::Shared, &llc, n);
        assert!(checkpoint::decode_cell::<Vec<TenantCellStats>>(&text, &other).is_none());
    }

    #[test]
    fn mode_cell_names_separate_tables() {
        assert_ne!(
            mode_cell_name(&IsolationMode::LearnedPriority(vec![1, 0])),
            mode_cell_name(&IsolationMode::LearnedPriority(vec![0, 1])),
        );
        assert_ne!(
            mode_cell_name(&IsolationMode::WayPartition(vec![0xF, 0xF0])),
            mode_cell_name(&IsolationMode::WayPartition(vec![0x3, 0xFC])),
        );
    }

    #[test]
    fn sweep_matches_serial_runs_and_renders() {
        let (mix, llc, _) = small();
        let n = 20_000;
        let modes = standard_modes(&mix, &llc, vec![4, 1, 0]);
        let swept =
            run_tenancy_sweep(&mix, &modes, &llc, n, Scale::Small, &SweepOptions::none());
        for (mode, cell) in &swept {
            let direct = run_tenant_mix(&mix, mode, &llc, n, Scale::Small);
            assert_eq!(cell.as_ref().expect("cell ok"), &direct, "{}", mode.name());
        }
        let baselines: Vec<TenantCellStats> = (0..mix.tenants.len())
            .map(|t| run_isolated_tenant(&mix, t, &llc, n, Scale::Small))
            .collect();
        let rendered = compare_table(&mix, &llc, &swept, &baselines).render();
        assert!(rendered.contains("way-partition"), "{rendered}");
        assert!(rendered.contains("= aggregate"), "{rendered}");
    }

    #[test]
    fn derived_table_beats_shared_on_the_default_mix() {
        let (mix, llc, _) = small();
        let n = 60_000;
        let outcome = derive_priorities(&mix, &llc, n, Scale::Small);
        assert!(
            outcome.derived_rate <= outcome.shared_rate,
            "ascent can never accept a regression: {} vs {}",
            outcome.derived_rate,
            outcome.shared_rate
        );
        assert!(
            outcome.derived_rate < outcome.shared_rate - 1e-6,
            "the pinned default mix must be contended enough for the learned table to win \
             (derived {}, shared {}, ranks {:?})",
            outcome.derived_rate,
            outcome.shared_rate,
            outcome.ranks
        );
        assert!(outcome.ranks.iter().any(|&r| r > 0), "a winning table is non-trivial");
    }
}
