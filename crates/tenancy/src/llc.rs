//! The multi-tenant LLC: a packed [`SetAssocCache`] driven per tenant,
//! with per-tenant occupancy, hit/miss, and miss-latency accounting.
//!
//! Miss latencies come from the event timing model's DRAM layer
//! ([`DramTiming`]): every miss is queued at its bank with the current
//! arrival tick, so a tenant that saturates the banks inflates its
//! neighbours' p99 — exactly the contention a QoS report must surface.
//! Row hit/miss classification stays with the functional [`DramModel`],
//! mirroring how `cache_sim::event` splits the two.

use cache_sim::{
    Access, AccessKind, AccessOutcome, CacheConfig, DramModel, DramTiming, SetAssocCache,
    SystemConfig,
};

use crate::policy::{IsolationMode, TenantPolicy};

/// Ticks the LLC's clock advances per access — the arrival cadence of the
/// serving tier's request stream at the memory controller.
const TICKS_PER_ACCESS: u64 = 4;

/// Miss latencies at or above this many ticks share the top histogram
/// bucket (far above any DRAM round-trip the timing model produces).
const HIST_BUCKETS: usize = 4096;

/// An exact integer latency histogram: one bucket per tick value, so any
/// percentile is reconstructed without sampling error.
#[derive(Clone, Debug, Default)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    total: u64,
}

impl LatencyHist {
    fn record(&mut self, ticks: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        let b = (ticks as usize).min(HIST_BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.total += ticks;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded latencies, in ticks (exact — the checkpoint
    /// codec stores this rather than the floating-point mean).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean latency in ticks (0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.total as f64 / self.count as f64 }
    }

    /// The smallest latency `l` such that at least `p` (0..=1) of all
    /// samples are ≤ `l`. Returns 0 with no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (lat, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return lat as u64;
            }
        }
        (HIST_BUCKETS - 1) as u64
    }
}

/// Per-tenant QoS counters maintained by [`MultiTenantLlc`].
#[derive(Clone, Debug, Default)]
pub struct TenantQos {
    /// All LLC accesses issued by the tenant.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Demand (load/RFO) accesses.
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Lines the tenant currently owns.
    pub occupancy: u64,
    /// Most lines the tenant ever owned at once.
    pub peak_occupancy: u64,
    /// Miss-latency distribution (DRAM round-trips, in timing ticks).
    pub miss_latency: LatencyHist,
}

impl TenantQos {
    /// Demand miss rate in 0..=1 (0 with no demand traffic).
    pub fn demand_miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            1.0 - self.demand_hits as f64 / self.demand_accesses as f64
        }
    }
}

/// A shared LLC serving up to [`crate::MAX_TENANTS`] tenants under one
/// [`IsolationMode`], with per-tenant QoS accounting.
///
/// ```
/// use cache_sim::{AccessKind, SystemConfig};
/// use tenancy::{IsolationMode, MultiTenantLlc};
///
/// let mut cfg = SystemConfig::paper_single_core();
/// cfg.llc = cache_sim::CacheConfig { sets: 64, ways: 8, latency: 26 };
/// let mut llc = MultiTenantLlc::new(&cfg, 2, IsolationMode::Shared);
/// llc.access(0, 0x400, 0x1000, AccessKind::Load);
/// llc.access(1, 0x400, 0x2000, AccessKind::Load);
/// assert_eq!(llc.qos(0).accesses, 1);
/// ```
pub struct MultiTenantLlc {
    cache: SetAssocCache<TenantPolicy>,
    tenants: u8,
    /// Per line slot: owning tenant + 1, 0 when the slot is empty. The
    /// mirror the occupancy counters are maintained from.
    owner: Vec<u8>,
    qos: Vec<TenantQos>,
    dram_model: DramModel,
    dram_timing: DramTiming,
    /// Current arrival tick.
    now: u64,
    seq: u64,
}

impl MultiTenantLlc {
    /// Creates the LLC over `config.llc` for `tenants` tenants.
    ///
    /// # Panics
    ///
    /// Panics on invalid tenant counts or mode tables (see
    /// [`TenantPolicy::new`]).
    pub fn new(config: &SystemConfig, tenants: u8, mode: IsolationMode) -> Self {
        let llc = config.llc;
        let policy = TenantPolicy::new(&llc, tenants, mode);
        Self {
            cache: SetAssocCache::new("MT-LLC", llc, policy),
            tenants,
            owner: vec![0; llc.lines() as usize],
            qos: vec![TenantQos::default(); usize::from(tenants)],
            dram_model: DramModel::new(8, 128),
            dram_timing: DramTiming::new(config),
            now: 0,
            seq: 0,
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> u8 {
        self.tenants
    }

    /// The LLC geometry.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// The active isolation mode.
    pub fn mode(&self) -> &IsolationMode {
        self.cache.policy().mode()
    }

    /// QoS counters for one tenant.
    pub fn qos(&self, tenant: u8) -> &TenantQos {
        &self.qos[usize::from(tenant)]
    }

    /// QoS counters for every tenant.
    pub fn qos_all(&self) -> &[TenantQos] {
        &self.qos
    }

    /// The owning tenant of each way in `set` (`None` = empty slot) — the
    /// property walls cross-check per-set occupancy against way masks with
    /// this.
    pub fn set_owners(&self, set: u32) -> Vec<Option<u8>> {
        let base = set as usize * usize::from(self.cache.config().ways);
        (0..usize::from(self.cache.config().ways))
            .map(|w| {
                let o = self.owner[base + w];
                (o != 0).then(|| o - 1)
            })
            .collect()
    }

    /// Serves one access for `tenant`. The tenant id rides in
    /// [`Access::core`]; isolation is whatever the policy's mode dictates.
    ///
    /// # Panics
    ///
    /// Panics on a tenant id at or above [`MultiTenantLlc::tenants`].
    pub fn access(&mut self, tenant: u8, pc: u64, addr: u64, kind: AccessKind) -> AccessOutcome {
        assert!(tenant < self.tenants, "unknown tenant {tenant}");
        self.seq += 1;
        let access = Access { pc, addr, kind, core: tenant, seq: self.seq };
        let out = self.cache.access(&access);

        let line = addr >> 6;
        let set = self.cache.config().set_of(addr) as usize;
        let q = &mut self.qos[usize::from(tenant)];
        q.accesses += 1;
        if kind.is_demand() {
            q.demand_accesses += 1;
        }
        if out.hit {
            q.hits += 1;
            if kind.is_demand() {
                q.demand_hits += 1;
            }
        } else if !out.bypassed {
            // Model the DRAM round-trip the miss pays: bank queueing from
            // the shared timing model plus the row hit/miss service time.
            // The requester then *blocks* until the line returns (closed
            // loop, like the event model's dependent loads) — without
            // that back-pressure an open-loop arrival cadence outruns the
            // banks and every queue grows without bound, saturating the
            // histogram instead of measuring contention.
            let row_hit = self.dram_model.access(line);
            let done = self.dram_timing.request(line, self.now, row_hit);
            q.miss_latency.record(done - self.now);
            self.now = done;
        }

        // Maintain the ownership mirror from the outcome: a fill (and a
        // hit, whose tag-store core field the cache rewrites) hands the
        // slot to `tenant`.
        if let Some(w) = out.way {
            let idx = set * usize::from(self.cache.config().ways) + usize::from(w);
            let prev = self.owner[idx];
            if prev != tenant + 1 {
                if prev != 0 {
                    self.qos[usize::from(prev - 1)].occupancy -= 1;
                }
                let q = &mut self.qos[usize::from(tenant)];
                q.occupancy += 1;
                q.peak_occupancy = q.peak_occupancy.max(q.occupancy);
                self.owner[idx] = tenant + 1;
            }
        }

        self.now += TICKS_PER_ACCESS;
        out
    }

    /// The policy, e.g. to read the predicted reuse distance.
    pub fn policy(&self) -> &TenantPolicy {
        self.cache.policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::partition_by_weight;

    fn system(sets: u32, ways: u16) -> SystemConfig {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.llc = CacheConfig { sets, ways, latency: 26 };
        cfg
    }

    #[test]
    fn occupancy_mirror_balances_across_tenants() {
        let cfg = system(16, 4);
        let mut llc = MultiTenantLlc::new(&cfg, 2, IsolationMode::Shared);
        for i in 0..200u64 {
            llc.access((i % 2) as u8, 0x400, i * 64, AccessKind::Load);
        }
        let total: u64 = llc.qos_all().iter().map(|q| q.occupancy).sum();
        assert_eq!(total, 64, "every slot is owned once the cache is warm");
        for set in 0..16 {
            let owners = llc.set_owners(set);
            assert!(owners.iter().all(Option::is_some));
        }
    }

    #[test]
    fn way_partition_caps_per_set_occupancy() {
        let cfg = system(8, 8);
        let masks = partition_by_weight(8, &[1, 1]);
        let mut llc = MultiTenantLlc::new(&cfg, 2, IsolationMode::WayPartition(masks.clone()));
        for i in 0..4000u64 {
            llc.access((i % 2) as u8, 0x400, i * 64, AccessKind::Load);
        }
        for set in 0..8 {
            let owners = llc.set_owners(set);
            for t in 0..2u8 {
                let held = owners.iter().filter(|&&o| o == Some(t)).count() as u32;
                assert!(
                    held <= masks[usize::from(t)].count_ones(),
                    "tenant {t} holds {held} ways in set {set}, mask allows {}",
                    masks[usize::from(t)].count_ones()
                );
            }
        }
    }

    #[test]
    fn miss_latencies_are_recorded_with_exact_percentiles() {
        let cfg = system(16, 4);
        let mut llc = MultiTenantLlc::new(&cfg, 1, IsolationMode::Shared);
        for i in 0..500u64 {
            llc.access(0, 0x400, i * 64 * 17, AccessKind::Load);
        }
        let q = llc.qos(0);
        assert_eq!(q.miss_latency.count(), q.accesses - q.hits);
        let p50 = q.miss_latency.percentile(0.50);
        let p99 = q.miss_latency.percentile(0.99);
        assert!(p50 > 0, "DRAM round-trips take time");
        assert!(p99 >= p50);
        assert!(q.miss_latency.mean() > 0.0);
    }

    #[test]
    fn hist_percentiles_are_exact_on_known_data() {
        let mut h = LatencyHist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.count(), 100);
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn out_of_range_tenant_is_rejected() {
        let cfg = system(8, 4);
        let mut llc = MultiTenantLlc::new(&cfg, 2, IsolationMode::Shared);
        llc.access(2, 0, 0, AccessKind::Load);
    }
}
