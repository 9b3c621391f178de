//! The tenant-aware replacement policy behind [`crate::MultiTenantLlc`].
//!
//! [`TenantPolicy`] is `RLR(unopt)` — one [`RlrPolicy`] built from
//! [`RlrConfig::unoptimized`], with 5-bit ages in set accesses, exact
//! recency and the dynamically estimated reuse distance — in an isolation
//! shell for up to [`MAX_TENANTS`] tenants sharing one LLC. The tenant id
//! rides in [`Access::core`] (the cache already tags every line with its
//! last toucher there), and the [`IsolationMode`] decides what the victim
//! scan does with it:
//!
//! * [`IsolationMode::Shared`] — the id is ignored; plain RLR over the
//!   whole set.
//! * [`IsolationMode::WayPartition`] — each tenant owns a way mask;
//!   fills are confined to it via [`ReplacementPolicy::fill_mask`] and
//!   [`RlrPolicy::select_victim_masked`] scans the tenant's slice only, so
//!   no tenant can evict outside its partition.
//! * [`IsolationMode::LearnedPriority`] — the per-tenant priority table
//!   (derived offline by the weight-analysis loop in
//!   `experiments::tenancy`) is RLR's `P_core` term with a fixed table
//!   ([`RlrPolicy::with_core_ranks`]): a tenant's rank is added to every
//!   one of its lines' priorities, with learned levels instead of
//!   demand-hit ranks.

use cache_sim::{Access, CacheConfig, Decision, LineSnapshot, ReplacementPolicy};
use rlr::{RlrConfig, RlrPolicy};

/// Most tenants one LLC serves: the scan's packed rank path covers 8
/// cores, and tenant ids share that plumbing.
pub const MAX_TENANTS: usize = 8;

/// Largest learned priority level (fits the scan's packed one-byte ranks
/// and keeps the summed priority far below the key's 10-bit field).
pub const MAX_PRIORITY: u32 = 255;

/// How the shared LLC isolates its tenants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsolationMode {
    /// Free-for-all: tenant ids are recorded but never influence victim
    /// selection.
    Shared,
    /// Hard isolation: tenant `t` may fill (and evict) only inside way
    /// mask `masks[t]`. Masks may overlap — overlapping ways are shared
    /// capacity.
    WayPartition(Vec<u32>),
    /// Soft isolation: tenant `t`'s lines gain `ranks[t]` priority in the
    /// victim scan, so low-rank tenants' lines are evicted first.
    LearnedPriority(Vec<u32>),
}

impl IsolationMode {
    /// Short mode name used in reports and checkpoint keys.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Shared => "shared",
            Self::WayPartition(_) => "way-partition",
            Self::LearnedPriority(_) => "learned-priority",
        }
    }
}

/// Splits `ways` into contiguous per-tenant slices proportional to
/// `weights` (every tenant gets at least one way; remainders go to the
/// heaviest tenants first). Returns one mask per tenant.
///
/// # Panics
///
/// Panics on zero tenants, more tenants than ways, or zero total weight.
#[must_use]
pub fn partition_by_weight(ways: u16, weights: &[u32]) -> Vec<u32> {
    let n = weights.len();
    assert!(n > 0, "no tenants to partition for");
    assert!(n <= usize::from(ways), "more tenants than ways");
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "all tenant weights are zero");
    // Ideal share, floored, with one way guaranteed each.
    let mut counts: Vec<u64> =
        weights.iter().map(|&w| (u64::from(ways) * u64::from(w) / total).max(1)).collect();
    // Trim/award until the counts sum to exactly `ways`, adjusting the
    // heaviest tenants first (deterministic: index breaks ties).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    loop {
        let sum: u64 = counts.iter().sum();
        match sum.cmp(&u64::from(ways)) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                let i = order.iter().copied().find(|&i| counts[i] < u64::from(ways)).unwrap();
                counts[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                let i = order.iter().rev().copied().find(|&i| counts[i] > 1).expect("trimmable");
                counts[i] -= 1;
            }
        }
    }
    let mut masks = Vec::with_capacity(n);
    let mut base = 0u32;
    for &c in &counts {
        let c = c as u32;
        let mask = if c >= 32 { u32::MAX } else { ((1u32 << c) - 1) << base };
        masks.push(mask);
        base += c;
    }
    masks
}

/// The tenant-aware RLR policy: `RLR(unopt)` under one of the three
/// [`IsolationMode`]s.
#[derive(Clone, Debug)]
pub struct TenantPolicy {
    mode: IsolationMode,
    tenants: u8,
    /// The replacement state machine: `RLR(unopt)`, whose fixed `P_core`
    /// table holds the tenant ranks under `LearnedPriority`.
    rlr: RlrPolicy,
}

impl TenantPolicy {
    /// Creates the policy for `tenants` tenants over `cache`'s geometry.
    ///
    /// # Panics
    ///
    /// Panics when the tenant count exceeds [`MAX_TENANTS`], when a mode
    /// vector's length disagrees with the tenant count, when a partition
    /// mask is empty or reaches outside the set, or when a learned
    /// priority exceeds [`MAX_PRIORITY`].
    pub fn new(cache: &CacheConfig, tenants: u8, mode: IsolationMode) -> Self {
        assert!(tenants >= 1, "at least one tenant");
        assert!(usize::from(tenants) <= MAX_TENANTS, "at most {MAX_TENANTS} tenants");
        let ways_bits = ((1u64 << cache.ways.min(32)) - 1) as u32;
        let ranks = match &mode {
            IsolationMode::Shared => Vec::new(),
            IsolationMode::WayPartition(masks) => {
                assert_eq!(masks.len(), usize::from(tenants), "one mask per tenant");
                for (t, &m) in masks.iter().enumerate() {
                    assert!(m & ways_bits != 0, "tenant {t} has an empty way mask");
                    assert!(m & !ways_bits == 0, "tenant {t}'s mask reaches outside the set");
                }
                Vec::new()
            }
            IsolationMode::LearnedPriority(ranks) => {
                assert_eq!(ranks.len(), usize::from(tenants), "one rank per tenant");
                for (t, &r) in ranks.iter().enumerate() {
                    assert!(r <= MAX_PRIORITY, "tenant {t}'s priority {r} exceeds {MAX_PRIORITY}");
                }
                ranks.clone()
            }
        };
        let rlr = RlrPolicy::with_core_ranks(RlrConfig::unoptimized(), cache, ranks);
        Self { mode, tenants, rlr }
    }

    /// The active isolation mode.
    pub fn mode(&self) -> &IsolationMode {
        &self.mode
    }

    /// The current predicted reuse distance (set accesses).
    pub fn predicted_reuse_distance(&self) -> u64 {
        self.rlr.predicted_reuse_distance()
    }

    fn tenant_of(&self, access: &Access) -> usize {
        let t = usize::from(access.core);
        assert!(t < usize::from(self.tenants), "access from unknown tenant {t}");
        t
    }
}

impl ReplacementPolicy for TenantPolicy {
    fn name(&self) -> String {
        format!("Tenant[{}]", self.mode.name())
    }

    fn on_miss(&mut self, set: u32, access: &Access) {
        self.rlr.on_miss(set, access);
    }

    fn uses_line_snapshots(&self) -> bool {
        // Like RLR, every scan input lives in the policy's own tables.
        false
    }

    fn fill_mask(&self, access: &Access) -> u32 {
        match &self.mode {
            IsolationMode::WayPartition(masks) => masks[self.tenant_of(access)],
            _ => u32::MAX,
        }
    }

    fn select_victim(&mut self, set: u32, lines: &[LineSnapshot], access: &Access) -> Decision {
        match &self.mode {
            // The masked query can only name a way inside the tenant's
            // slice, and the cache filled every invalid slice way before
            // consulting us, so the scanned metadata is always live.
            IsolationMode::WayPartition(masks) => {
                self.rlr.select_victim_masked(set, masks[self.tenant_of(access)])
            }
            _ => self.rlr.select_victim(set, lines, access),
        }
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        self.rlr.on_hit(set, way, access);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        self.rlr.on_fill(set, way, access);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        // 5-bit age + 1-bit hit + 1-bit type + exact recency + 3-bit
        // tenant tag per line, plus the per-tenant tables.
        let per_line = 5 + 1 + 1 + u64::from(config.way_bits()) + 3;
        let per_tenant = match &self.mode {
            IsolationMode::Shared => 0,
            IsolationMode::WayPartition(_) => u64::from(config.ways), // one mask bit per way
            IsolationMode::LearnedPriority(_) => 8,                   // one rank byte
        };
        config.lines() * per_line + u64::from(self.tenants) * per_tenant
    }
}

#[cfg(test)]
mod tests {
    use cache_sim::AccessKind;

    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 4, ways: 8, latency: 26 }
    }

    fn access(tenant: u8, addr: u64) -> Access {
        Access { pc: 0x400, addr, kind: AccessKind::Load, core: tenant, seq: 0 }
    }

    #[test]
    fn partition_by_weight_covers_every_way_exactly_once_for_disjoint_slices() {
        let masks = partition_by_weight(8, &[4, 2, 1]);
        assert_eq!(masks.len(), 3);
        let union = masks.iter().fold(0u32, |u, &m| u | m);
        let sum: u32 = masks.iter().map(|m| m.count_ones()).sum();
        assert_eq!(union, 0xFF, "slices cover the set");
        assert_eq!(sum, 8, "slices are disjoint");
        assert!(masks[0].count_ones() >= masks[1].count_ones());
        assert!(masks[1].count_ones() >= masks[2].count_ones());
    }

    #[test]
    fn partition_by_weight_guarantees_a_way_per_tenant() {
        let masks = partition_by_weight(4, &[100, 1, 1, 1]);
        assert!(masks.iter().all(|m| m.count_ones() >= 1));
        assert_eq!(masks.iter().map(|m| m.count_ones()).sum::<u32>(), 4);
    }

    #[test]
    fn way_partition_fill_mask_follows_the_tenant() {
        let masks = partition_by_weight(8, &[1, 1]);
        let p = TenantPolicy::new(&cfg(), 2, IsolationMode::WayPartition(masks.clone()));
        assert_eq!(p.fill_mask(&access(0, 0)), masks[0]);
        assert_eq!(p.fill_mask(&access(1, 0)), masks[1]);
    }

    #[test]
    fn shared_and_learned_modes_leave_fills_unconstrained() {
        let p = TenantPolicy::new(&cfg(), 2, IsolationMode::Shared);
        assert_eq!(p.fill_mask(&access(1, 0)), u32::MAX);
        let q = TenantPolicy::new(&cfg(), 2, IsolationMode::LearnedPriority(vec![2, 0]));
        assert_eq!(q.fill_mask(&access(0, 0)), u32::MAX);
    }

    #[test]
    fn learned_priority_protects_high_rank_tenants_lines() {
        let mut p = TenantPolicy::new(&cfg(), 2, IsolationMode::LearnedPriority(vec![2, 0]));
        // Fill the set alternating tenants; all else equal, a rank-0
        // tenant's line must be the victim.
        for w in 0..8u16 {
            p.on_miss(0, &access((w % 2) as u8, 0));
            p.on_fill(0, w, &access((w % 2) as u8, 0));
        }
        match p.select_victim(0, &[], &access(0, 0)) {
            Decision::Evict(w) => assert_eq!(w % 2, 1, "rank-0 tenant's line goes first"),
            Decision::Bypass => panic!("tenancy policy never bypasses"),
        }
    }

    #[test]
    fn way_partition_victims_stay_inside_the_mask() {
        let masks = vec![0b0000_1111u32, 0b1111_0000];
        let mut p = TenantPolicy::new(&cfg(), 2, IsolationMode::WayPartition(masks));
        for w in 0..8u16 {
            let t = u8::from(w >= 4);
            p.on_miss(0, &access(t, 0));
            p.on_fill(0, w, &access(t, 0));
        }
        for _ in 0..32 {
            match p.select_victim(0, &[], &access(1, 0)) {
                Decision::Evict(w) => assert!(w >= 4, "tenant 1 evicted way {w} of tenant 0"),
                Decision::Bypass => panic!("tenancy policy never bypasses"),
            }
            p.on_miss(0, &access(1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_partition_mask_is_rejected() {
        TenantPolicy::new(&cfg(), 2, IsolationMode::WayPartition(vec![0xF, 0]));
    }

    #[test]
    #[should_panic(expected = "outside the set")]
    fn oversized_partition_mask_is_rejected() {
        TenantPolicy::new(&cfg(), 1, IsolationMode::WayPartition(vec![0x1FF]));
    }
}
