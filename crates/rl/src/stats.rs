//! Victim and trace statistics behind Figs. 4–7.

use cache_sim::{CacheConfig, LlcTrace};

use crate::cachemodel::{LlcModel, StepOutcome};
use crate::features::DecisionView;

/// Fig. 4: distribution of |preuse − reuse| over reused lines, bucketed as
/// `< 10`, `10–50`, and `> 50` set accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreuseReuseGap {
    /// Reused lines with |preuse − reuse| < 10.
    pub under_10: u64,
    /// Reused lines with 10 ≤ |preuse − reuse| ≤ 50.
    pub between_10_and_50: u64,
    /// Reused lines with |preuse − reuse| > 50.
    pub over_50: u64,
}

impl PreuseReuseGap {
    /// Total classified samples.
    pub fn total(&self) -> u64 {
        self.under_10 + self.between_10_and_50 + self.over_50
    }

    /// The three buckets as percentages (<10, 10–50, >50).
    pub fn percentages(&self) -> [f64; 3] {
        let t = self.total().max(1) as f64;
        [
            self.under_10 as f64 * 100.0 / t,
            self.between_10_and_50 as f64 * 100.0 / t,
            self.over_50 as f64 * 100.0 / t,
        ]
    }
}

/// Computes the Fig. 4 distribution from a trace alone: for every access
/// with both a previous and a next reference to the same line, compare the
/// backward gap (preuse) with the forward gap (reuse), both measured in
/// accesses *to that line's set*.
pub fn preuse_reuse_gap(trace: &LlcTrace, config: &CacheConfig) -> PreuseReuseGap {
    let records = trace.records();
    let set_mask = u64::from(config.sets - 1);
    // Per-record set-access index.
    let mut set_counts = vec![0u64; config.sets as usize];
    let mut set_index = Vec::with_capacity(records.len());
    for r in records {
        let s = (r.line & set_mask) as usize;
        set_counts[s] += 1;
        set_index.push(set_counts[s]);
    }
    // Per line: (set-time of last access, preuse distance of that access).
    let mut gap = PreuseReuseGap::default();
    let mut pending: std::collections::HashMap<u64, (u64, Option<u64>)> =
        std::collections::HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let t = set_index[i];
        match pending.get_mut(&r.line) {
            None => {
                pending.insert(r.line, (t, None));
            }
            Some(entry) => {
                let (last_t, preuse_of_last) = *entry;
                let this_gap = t - last_t;
                // `this_gap` is the reuse distance of the *previous* access
                // and the preuse distance of *this* access.
                if let Some(prev_preuse) = preuse_of_last {
                    let diff = prev_preuse.abs_diff(this_gap);
                    if diff < 10 {
                        gap.under_10 += 1;
                    } else if diff <= 50 {
                        gap.between_10_and_50 += 1;
                    } else {
                        gap.over_50 += 1;
                    }
                }
                *entry = (t, Some(this_gap));
            }
        }
    }
    gap
}

/// Victim statistics collected while replaying a trace with a chooser:
/// the inputs to Figs. 5 (age by last access type), 6 (hits at eviction),
/// and 7 (victim recency).
#[derive(Clone, Debug)]
pub struct VictimStats {
    /// Summed victim age (since last access) per last-access kind.
    pub age_sum: [u64; 4],
    /// Victim count per last-access kind.
    pub age_n: [u64; 4],
    /// Victims with zero, one, and more-than-one hits.
    pub hits_buckets: [u64; 3],
    /// Victim count per recency rank (index 0 = LRU).
    pub recency_hist: Vec<u64>,
    /// Total victims observed.
    pub victims: u64,
}

impl VictimStats {
    fn new(ways: usize) -> Self {
        Self {
            age_sum: [0; 4],
            age_n: [0; 4],
            hits_buckets: [0; 3],
            recency_hist: vec![0; ways],
            victims: 0,
        }
    }

    /// Fig. 5: average victim age per access kind (LD, RFO, PF, WB).
    pub fn avg_age_by_kind(&self) -> [f64; 4] {
        std::array::from_fn(|k| {
            if self.age_n[k] > 0 {
                self.age_sum[k] as f64 / self.age_n[k] as f64
            } else {
                0.0
            }
        })
    }

    /// Fig. 6: percentage of victims with 0, 1, and >1 hits.
    pub fn hits_percentages(&self) -> [f64; 3] {
        let t = self.victims.max(1) as f64;
        [
            self.hits_buckets[0] as f64 * 100.0 / t,
            self.hits_buckets[1] as f64 * 100.0 / t,
            self.hits_buckets[2] as f64 * 100.0 / t,
        ]
    }

    /// Fig. 7: percentage of victims at each recency rank.
    pub fn recency_percentages(&self) -> Vec<f64> {
        let t = self.victims.max(1) as f64;
        self.recency_hist.iter().map(|&c| c as f64 * 100.0 / t).collect()
    }
}

/// Replays `trace` with `chooser` making the eviction decisions and
/// collects the victim statistics.
pub fn collect_victim_stats(
    trace: &LlcTrace,
    config: &CacheConfig,
    chooser: &mut dyn FnMut(&DecisionView) -> u16,
) -> VictimStats {
    let mut model = LlcModel::new(config, trace);
    let mut stats = VictimStats::new(config.ways as usize);
    for record in trace.records() {
        if let StepOutcome::Evicted { victim, .. } = model.step(record, chooser) {
            stats.victims += 1;
            let k = victim.last_type.index();
            stats.age_sum[k] += victim.age_since_last_access;
            stats.age_n[k] += 1;
            let bucket = match victim.hits {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            stats.hits_buckets[bucket] += 1;
            stats.recency_hist[victim.recency as usize] += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, LlcRecord};

    fn rec(line: u64, kind: AccessKind) -> LlcRecord {
        LlcRecord { pc: 0, line, kind, core: 0 }
    }

    #[test]
    fn constant_stride_reuse_has_zero_gap() {
        // One set (sets=1). Lines 0..4 accessed round-robin: for every
        // line, preuse == reuse == 5 set accesses, so all diffs are < 10.
        let cfg = CacheConfig { sets: 1, ways: 4, latency: 1 };
        let trace: LlcTrace = (0..60).map(|i| rec(i % 5, AccessKind::Load)).collect();
        let gap = preuse_reuse_gap(&trace, &cfg);
        assert!(gap.total() > 0);
        assert_eq!(gap.between_10_and_50, 0);
        assert_eq!(gap.over_50, 0);
    }

    #[test]
    fn irregular_reuse_lands_in_larger_buckets() {
        let cfg = CacheConfig { sets: 1, ways: 4, latency: 1 };
        let mut records = Vec::new();
        // Line 9: preuse 2, then reuse 80 — diff 78 lands in >50.
        records.push(rec(9, AccessKind::Load));
        records.push(rec(1, AccessKind::Load));
        records.push(rec(9, AccessKind::Load)); // preuse=2
        for i in 0..79 {
            records.push(rec(100 + i, AccessKind::Load));
        }
        records.push(rec(9, AccessKind::Load)); // reuse=80
        let trace: LlcTrace = records.into_iter().collect();
        let gap = preuse_reuse_gap(&trace, &cfg);
        assert_eq!(gap.over_50, 1);
    }

    #[test]
    fn victim_stats_bucket_hits_and_types() {
        let cfg = CacheConfig { sets: 1, ways: 2, latency: 1 };
        // Fill 1 (prefetch, never hit) and 2 (load, hit once), then insert
        // 3 and evict way 0 (the prefetch line).
        let trace: LlcTrace = vec![
            rec(1, AccessKind::Prefetch),
            rec(2, AccessKind::Load),
            rec(2, AccessKind::Load),
            rec(3, AccessKind::Load),
        ]
        .into_iter()
        .collect();
        let stats = collect_victim_stats(&trace, &cfg, &mut |_| 0);
        assert_eq!(stats.victims, 1);
        assert_eq!(stats.age_n[AccessKind::Prefetch.index()], 1);
        assert_eq!(stats.hits_buckets, [1, 0, 0]);
    }

    #[test]
    fn recency_histogram_sums_to_victims() {
        let cfg = CacheConfig { sets: 2, ways: 4, latency: 1 };
        let trace: LlcTrace = (0..500u64).map(|i| rec(i * 7 % 40, AccessKind::Load)).collect();
        let stats = collect_victim_stats(&trace, &cfg, &mut |v| (v.lines.len() - 1) as u16);
        assert_eq!(stats.recency_hist.iter().sum::<u64>(), stats.victims);
        assert!(stats.victims > 0);
    }
}
