//! The object-cache serving-tier experiment: sweep the admission+eviction
//! roster (`LRU` / `SLRU` / `GDSF` / the RLR-derived rule) over one
//! [`ObjectTraffic`] trace and report miss-byte ratios.
//!
//! Each (trace, policy) pair is an [`ObjCell`] run through the shared
//! checkpointed sweep ([`crate::checkpoint::run_checkpointed_sweep`]):
//! same worker pool, same `RLR_JOBS` resolution, same per-cell resume as
//! the LLC roster. Only the result differs — [`ObjStats`] byte counters,
//! admissions and expirations, all exact `u64` fields — so a resumed sweep
//! is byte-identical to an uninterrupted one (the `objcache_determinism`
//! wall holds this down).

use std::path::Path;

use objcache::{ObjCacheConfig, ObjPolicyKind, ObjStats};
use workloads::ObjectTraffic;

use crate::checkpoint::{self, Cell, CellKey};
use crate::report::Table;
use crate::runner::{watchdog_tick, SweepOptions, TaskFailure};

/// One object-cache sweep cell: the replay's counters, or why it failed.
pub type ObjCellResult = Result<ObjStats, TaskFailure>;

/// Cell name for one policy. The derived rule embeds its weight
/// fingerprint so two different derived rules never share a checkpoint.
pub fn policy_cell_name(policy: &ObjPolicyKind) -> String {
    match policy {
        ObjPolicyKind::DerivedRlr(w) => format!("{}[{}]", policy.name(), w.fingerprint()),
        _ => policy.name().to_owned(),
    }
}

/// Checkpoint key for one object-cache cell: the policy plus everything
/// else that determines the result.
pub fn obj_cell_key(
    traffic: &ObjectTraffic,
    requests: u64,
    cfg: &ObjCacheConfig,
    policy: &ObjPolicyKind,
) -> CellKey {
    let params = format!("{}|{}|n{requests}", traffic.fingerprint(), cfg.fingerprint());
    checkpoint::cell_key("objcache", &policy_cell_name(policy), &params)
}

checkpoint::cell_object!(ObjStats {
    requests,
    hits,
    misses,
    hit_bytes,
    miss_bytes,
    admitted,
    rejected,
    evictions,
    evicted_bytes,
    expirations,
    expired_bytes,
});

/// Loads the checkpoint for `key` from `dir` ([`checkpoint::load_cell`]).
pub fn load_obj_cell(dir: &Path, key: &CellKey) -> Option<ObjStats> {
    checkpoint::load_cell(dir, key)
}

/// Persists one completed cell ([`checkpoint::store_cell`]).
pub fn store_obj_cell(dir: &Path, key: &CellKey, stats: &ObjStats) {
    checkpoint::store_cell(dir, key, stats);
}

/// Replays `requests` of `traffic` through one policy, feeding the task
/// watchdog so a runaway replay can be budget-aborted like any LLC cell.
pub fn run_object_cell(
    traffic: &ObjectTraffic,
    requests: u64,
    cfg: ObjCacheConfig,
    policy: ObjPolicyKind,
) -> ObjStats {
    let mut cache = objcache::ObjectCache::new(cfg, policy);
    for (i, r) in traffic.stream().take(requests as usize).enumerate() {
        if i % 1024 == 0 {
            watchdog_tick(1);
        }
        cache.request(&r);
    }
    *cache.stats()
}

/// One object-cache sweep cell: `requests` of `traffic` through `policy`.
pub struct ObjCell<'a> {
    /// The request trace.
    pub(crate) traffic: &'a ObjectTraffic,
    /// Requests replayed.
    pub(crate) requests: u64,
    /// Cache geometry.
    pub(crate) cfg: ObjCacheConfig,
    /// Admission + eviction policy.
    pub(crate) policy: ObjPolicyKind,
}

impl Cell for ObjCell<'_> {
    const FAMILY: &'static str = "objcache";
    type Out = ObjStats;

    fn key(&self) -> CellKey {
        obj_cell_key(self.traffic, self.requests, &self.cfg, &self.policy)
    }

    fn label(&self) -> String {
        policy_cell_name(&self.policy)
    }

    fn run(&self) -> ObjStats {
        run_object_cell(self.traffic, self.requests, self.cfg, self.policy)
    }
}

/// Runs the policy roster over one trace as a checkpointed sweep. Results
/// preserve `policies` order independent of scheduling.
pub fn run_object_sweep(
    traffic: &ObjectTraffic,
    requests: u64,
    cfg: ObjCacheConfig,
    policies: &[ObjPolicyKind],
    opts: &SweepOptions,
) -> Vec<(ObjPolicyKind, ObjCellResult)> {
    let cells: Vec<ObjCell> =
        policies.iter().map(|&policy| ObjCell { traffic, requests, cfg, policy }).collect();
    policies.iter().copied().zip(checkpoint::run_checkpointed_sweep(&cells, opts)).collect()
}

/// Renders a sweep as the serving-tier comparison table: per policy, the
/// object hit rate, the headline miss-byte ratio, and the admission /
/// eviction / expiry traffic behind it.
pub fn compare_table(
    traffic: &ObjectTraffic,
    requests: u64,
    cfg: &ObjCacheConfig,
    results: &[(ObjPolicyKind, ObjCellResult)],
) -> Table {
    let mut table = Table::new(
        "Object-cache serving tier: miss-byte ratio by policy",
        ["policy", "hit rate", "miss-byte ratio", "admitted", "rejected", "evictions", "expirations"]
            .map(String::from)
            .to_vec(),
    );
    for (policy, cell) in results {
        match cell {
            Ok(s) => table.push_row(vec![
                policy.name().to_owned(),
                Table::fmt(s.hit_rate()),
                Table::fmt(s.miss_byte_ratio()),
                s.admitted.to_string(),
                s.rejected.to_string(),
                s.evictions.to_string(),
                s.expirations.to_string(),
            ]),
            Err(e) => table.push_row(vec![
                policy.name().to_owned(),
                format!("FAILED: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    table.push_note(format!(
        "trace {} | n={requests} | capacity {} MiB, protected {}%",
        traffic.fingerprint(),
        cfg.capacity_bytes >> 20,
        cfg.protected_pct
    ));
    let ratio = |name: &str| {
        results
            .iter()
            .find(|(p, _)| p.name() == name)
            .and_then(|(_, c)| c.as_ref().ok())
            .map(ObjStats::miss_byte_ratio)
    };
    if let (Some(lru), Some(derived)) = (ratio("LRU"), ratio("RLR-derived")) {
        table.push_note(if derived < lru {
            format!("derived-RLR beats LRU: {:.4} vs {:.4} miss-byte ratio", derived, lru)
        } else {
            format!("derived-RLR does NOT beat LRU: {:.4} vs {:.4}", derived, lru)
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> (ObjectTraffic, u64, ObjCacheConfig) {
        let traffic = ObjectTraffic {
            catalog: 2_000,
            flash_every: 1_000,
            flash_len: 200,
            ..ObjectTraffic::internet_default()
        };
        (traffic, 4_000, ObjCacheConfig::with_capacity_mib(8))
    }

    #[test]
    fn obj_cell_codec_roundtrips_exactly() {
        let (traffic, n, cfg) = small_scenario();
        let policy = ObjPolicyKind::parse("rlr").expect("pinned rule");
        let key = obj_cell_key(&traffic, n, &cfg, &policy);
        let stats = run_object_cell(&traffic, n, cfg, policy);
        let text = checkpoint::encode_cell(&key, &stats);
        assert_eq!(checkpoint::decode_cell(&text, &key), Some(stats));
        // Another cell's key must refuse this payload.
        let other = obj_cell_key(&traffic, n + 1, &cfg, &policy);
        assert!(checkpoint::decode_cell::<ObjStats>(&text, &other).is_none());
    }

    #[test]
    fn cell_names_separate_derived_rules() {
        let mut w = objcache::DerivedWeights::paper_default();
        let a = policy_cell_name(&ObjPolicyKind::DerivedRlr(w));
        w.ad_threshold += 1;
        let b = policy_cell_name(&ObjPolicyKind::DerivedRlr(w));
        assert_ne!(a, b);
        assert_eq!(policy_cell_name(&ObjPolicyKind::Lru), "LRU");
    }

    #[test]
    fn sweep_matches_serial_replay_and_renders() {
        let (traffic, n, cfg) = small_scenario();
        let roster = ObjPolicyKind::roster();
        let swept = run_object_sweep(&traffic, n, cfg, &roster, &SweepOptions::none());
        for (policy, cell) in &swept {
            let direct = run_object_cell(&traffic, n, cfg, *policy);
            assert_eq!(cell.as_ref().expect("cell ok"), &direct, "{}", policy.name());
        }
        let rendered = compare_table(&traffic, n, &cfg, &swept).render();
        assert!(rendered.contains("GDSF"), "table lists the roster:\n{rendered}");
        assert!(rendered.contains("miss-byte ratio"), "{rendered}");
    }
}
