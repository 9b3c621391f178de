//! Object-cache serving tier: a byte-budget, TTL-aware, variable-size
//! object cache simulator with an explicit admission decision point.
//!
//! This crate ports the paper's derivation story (offline agent → weight
//! analysis → cheap derived rule) from hardware LLC replacement to the
//! serving-tier domain of Cold-RL / DEAP Cache: internet-scale object
//! caches where values have sizes and lifetimes, capacity is a byte budget,
//! and *whether to admit* an object matters as much as *what to evict*.
//!
//! - [`ObjectCache`] — the fast implementation (hash lookup + lazy-deletion
//!   victim heaps).
//! - [`ReferenceObjectCache`] — the naive linear-scan oracle it is
//!   differentially tested against.
//! - [`policy`] — the shared policy contract: LRU / SLRU / GDSF baselines
//!   and the integer-weight derived rule ([`DerivedWeights`]).
//! - [`derive`](mod@derive) — the offline derivation loop that produces those weights
//!   from a traffic trace.
//!
//! # Request semantics
//!
//! Both implementations follow this contract exactly, per request `r`
//! (with `seq` the 0-based request counter):
//!
//! 1. If the policy is the derived rule, record `r.key` in the admission
//!    frequency sketch (hits included).
//! 2. If `r.key` is resident and `r.now_ms >= expires_at`, the entry has
//!    lazily expired: count one expiration, free its bytes, and treat the
//!    request as a miss (step 4).
//! 3. Otherwise if resident: a hit. `hit_bytes += r.size`; the policy
//!    updates its entry state (recency, frequency, SLRU promotion, GDSF /
//!    derived priority recomputed from this moment's inflation and TTL
//!    slack). TTLs are **not** refreshed by hits.
//! 4. Miss: `miss_bytes += r.size`, then the admission decision. Objects
//!    larger than the whole budget are always rejected; the derived rule
//!    additionally requires its admission score to clear the threshold.
//!    Rejected objects are *not* inserted and evict nothing.
//! 5. Admitted objects evict the policy's victims one at a time until the
//!    object fits. A victim whose TTL already lapsed counts as an
//!    expiration, not an eviction (GDSF still takes its inflation from it).
//! 6. The object is inserted with `expires_at = now_ms + ttl_ms`.

pub mod cache;
pub mod derive;
pub mod policy;
pub mod reference;

pub use cache::ObjectCache;
pub use derive::{derive_weights, DeriveConfig, DerivedModel};
pub use policy::{DerivedWeights, ObjPolicyKind};
pub use reference::ReferenceObjectCache;
use workloads::ObjectRequest;

/// Capacity configuration of an object cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjCacheConfig {
    /// Total byte budget.
    pub capacity_bytes: u64,
    /// SLRU: the protected segment's share of the budget, in percent.
    pub protected_pct: u32,
}

impl ObjCacheConfig {
    /// A cache of `mib` MiB with the default 80% protected segment.
    ///
    /// # Panics
    ///
    /// Panics if `mib` MiB is more bytes than a `u64` holds; see
    /// [`ObjCacheConfig::try_with_capacity_mib`].
    pub fn with_capacity_mib(mib: u64) -> Self {
        Self::try_with_capacity_mib(mib).expect("capacity in bytes fits in a u64")
    }

    /// [`ObjCacheConfig::with_capacity_mib`], or `None` when `mib` MiB is
    /// more bytes than a `u64` holds.
    pub fn try_with_capacity_mib(mib: u64) -> Option<Self> {
        Some(Self { capacity_bytes: mib.checked_mul(1 << 20)?, protected_pct: 80 })
    }

    /// SLRU protected-segment byte budget, `capacity_bytes ×
    /// protected_pct / 100` rounded down. It is computed as
    /// `(c / 100) × p + (c % 100) × p / 100`, which is exact and, for a
    /// share of at most 100%, overflows for no `u64` budget.
    ///
    /// # Panics
    ///
    /// Panics if `protected_pct` is over 100 and the share exceeds
    /// `u64::MAX` bytes; both caches reject such a config when built.
    pub fn protected_capacity(&self) -> u64 {
        let (c, p) = (self.capacity_bytes, u64::from(self.protected_pct));
        (c / 100)
            .checked_mul(p)
            .and_then(|whole| whole.checked_add(c % 100 * p / 100))
            .expect("a share of at most 100% fits in the budget's u64")
    }

    pub(crate) fn validate(&self) {
        assert!(self.capacity_bytes > 0, "object cache needs a byte budget");
        assert!(self.protected_pct <= 100, "protected share is a percentage");
    }

    /// Fingerprint for sweep checkpoint keys.
    pub fn fingerprint(&self) -> String {
        format!("cap{}|p{}", self.capacity_bytes, self.protected_pct)
    }
}

/// Outcome counters of a replay. All integers, so sweeps checkpoint and
/// resume bit-identically through the exact-u64 JSON codec.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ObjStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub hit_bytes: u64,
    pub miss_bytes: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub evictions: u64,
    pub evicted_bytes: u64,
    pub expirations: u64,
    pub expired_bytes: u64,
}

impl ObjStats {
    /// Fraction of requested bytes that missed — the serving-tier headline
    /// metric (each missed byte is origin egress).
    pub fn miss_byte_ratio(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            return 0.0;
        }
        self.miss_bytes as f64 / total as f64
    }

    /// Fraction of requests that hit.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits as f64 / self.requests as f64
    }
}

/// Replays a request trace through a fresh [`ObjectCache`] and returns its
/// counters. The semantics contract both implementations follow is
/// documented on the crate root.
pub fn replay<I>(cfg: ObjCacheConfig, policy: ObjPolicyKind, requests: I) -> ObjStats
where
    I: IntoIterator<Item = ObjectRequest>,
{
    let mut cache = ObjectCache::new(cfg, policy);
    for r in requests {
        cache.request(&r);
    }
    *cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ObjectTraffic;

    fn small_traffic() -> ObjectTraffic {
        ObjectTraffic {
            catalog: 2000,
            max_size: 1 << 16,
            flash_every: 1000,
            flash_len: 200,
            ..ObjectTraffic::internet_default()
        }
    }

    #[test]
    fn capacity_arithmetic_does_not_wrap() {
        let bytes = |mib| ObjCacheConfig::try_with_capacity_mib(mib).map(|c| c.capacity_bytes);
        assert_eq!(bytes(3), Some(3 << 20));
        assert_eq!(bytes(u64::MAX >> 20), Some((u64::MAX >> 20) << 20));
        // (2^44 + 1) MiB used to wrap to 1 MiB.
        assert_eq!(bytes((1 << 44) + 1), None);
        let huge = ObjCacheConfig { capacity_bytes: u64::MAX, protected_pct: 80 };
        assert_eq!(huge.protected_capacity(), 14_757_395_258_967_641_292);
        let all = ObjCacheConfig { capacity_bytes: u64::MAX, protected_pct: 100 };
        assert_eq!(all.protected_capacity(), u64::MAX);
    }

    #[test]
    fn replay_accounts_every_request() {
        let t = small_traffic();
        for policy in ObjPolicyKind::roster() {
            let s = replay(ObjCacheConfig::with_capacity_mib(4), policy, t.stream().take(5000));
            assert_eq!(s.requests, 5000, "{}", policy.name());
            assert_eq!(s.hits + s.misses, s.requests, "{}", policy.name());
            assert_eq!(s.admitted + s.rejected, s.misses, "{}", policy.name());
        }
    }

    #[test]
    fn oversized_objects_are_rejected() {
        let r = ObjectRequest { now_ms: 0, key: 1, size: 2048, ttl_ms: 60_000 };
        let cfg = ObjCacheConfig { capacity_bytes: 1024, protected_pct: 80 };
        let s = replay(cfg, ObjPolicyKind::Lru, [r, r]);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn ttl_expiry_counts_as_expiration_not_eviction() {
        let mk = |now_ms| ObjectRequest { now_ms, key: 7, size: 100, ttl_ms: 1000 };
        let cfg = ObjCacheConfig { capacity_bytes: 1 << 20, protected_pct: 80 };
        let s = replay(cfg, ObjPolicyKind::Lru, [mk(0), mk(500), mk(2000)]);
        assert_eq!(s.hits, 1, "second request hits before expiry");
        assert_eq!(s.expirations, 1, "third request finds the entry expired");
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = ObjCacheConfig { capacity_bytes: 300, protected_pct: 80 };
        let mk = |key, now_ms| ObjectRequest { now_ms, key, size: 100, ttl_ms: 1 << 30 };
        // Fill with 1,2,3; touch 1; insert 4 -> victim must be 2.
        let s = replay(
            cfg,
            ObjPolicyKind::Lru,
            [mk(1, 0), mk(2, 1), mk(3, 2), mk(1, 3), mk(4, 4), mk(2, 5)],
        );
        assert_eq!(s.evictions, 2, "4 evicts 2; re-fetching 2 evicts 3");
        // The touch of 1 kept it resident: requests = 6, hits = 1 (key 1).
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn gdsf_prefers_evicting_large_cold_objects() {
        let cfg = ObjCacheConfig { capacity_bytes: 3000, protected_pct: 80 };
        let big = ObjectRequest { now_ms: 0, key: 1, size: 2000, ttl_ms: 1 << 30 };
        let small = ObjectRequest { now_ms: 1, key: 2, size: 500, ttl_ms: 1 << 30 };
        let newer = ObjectRequest { now_ms: 2, key: 3, size: 2000, ttl_ms: 1 << 30 };
        let s = replay(cfg, ObjPolicyKind::Gdsf, [big, small, newer]);
        // big (2000B) has the lowest H; inserting `newer` evicts it even
        // though `small` is equally cold — LRU would have evicted neither.
        assert_eq!(s.evictions, 1);
        let s2 = replay(cfg, ObjPolicyKind::Gdsf, [big, small, newer, small, big]);
        assert_eq!(s2.hits, 1, "small survived, big was the victim");
    }

    #[test]
    fn slru_protects_rereferenced_objects() {
        let cfg = ObjCacheConfig { capacity_bytes: 300, protected_pct: 50 };
        let mk = |key, now_ms| ObjectRequest { now_ms, key, size: 100, ttl_ms: 1 << 30 };
        // 1 is promoted to protected; scanning 2,3,4,5 churns probation but
        // must not evict 1.
        let s = replay(
            cfg,
            ObjPolicyKind::Slru,
            [mk(1, 0), mk(1, 1), mk(2, 2), mk(3, 3), mk(4, 4), mk(5, 5), mk(1, 6)],
        );
        assert_eq!(s.hits, 2, "the scan must not flush the protected entry");
    }
}
