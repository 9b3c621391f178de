//! Hawkeye (Jain & Lin, ISCA 2016): learn from Belady's OPT.
//!
//! Hawkeye reconstructs, for a handful of sampled sets, what Belady's
//! optimal policy *would have done* (OPTgen), and trains a PC-indexed
//! predictor with those labels. Fills from "cache-friendly" PCs are
//! inserted at MRU; fills from "cache-averse" PCs are marked for immediate
//! eviction.

use std::collections::HashMap;

use cache_sim::{Access, AccessKind, CacheConfig, ReplacementPolicy};

use crate::pc_signature;

/// Hawkeye uses 3-bit RRIP values; 7 marks cache-averse lines.
const MAX_RRPV: u8 = 7;
/// Predictor index width (8K entries).
const PRED_BITS: u32 = 13;
/// 3-bit predictor counters; >= this value predicts cache-friendly.
const PRED_THRESHOLD: u8 = 4;
const PRED_MAX: u8 = 7;
/// One of every `SAMPLE_PERIOD` sets feeds OPTgen (64 sampled sets for the
/// paper's 2048-set LLC, matching the published hardware budget).
const SAMPLE_PERIOD: u32 = 32;

/// Per-sampled-set OPTgen state: a sliding occupancy vector over the last
/// `window` set accesses, plus the last access time and PC per line.
#[derive(Clone, Debug)]
struct OptGenSet {
    time: u64,
    window: usize,
    /// occupancy[i] = lines Belady would keep live during quantum
    /// `time - window + i`.
    occupancy: Vec<u8>,
    last_access: HashMap<u64, (u64, u64)>,
}

impl OptGenSet {
    fn new(window: usize) -> Self {
        Self { time: 0, window, occupancy: vec![0; window], last_access: HashMap::new() }
    }

    /// Records an access to `line` by `pc`; returns `Some((prev_pc, opt_hit))`
    /// when a training label for the previous access is available.
    fn access(&mut self, line: u64, pc: u64, ways: u16) -> Option<(u64, bool)> {
        let now = self.time;
        self.time += 1;
        // Slide the window: quantum `now` starts empty.
        self.occupancy[(now % self.window as u64) as usize] = 0;

        let label = self.last_access.get(&line).copied().map(|(prev_t, prev_pc)| {
            let age = now - prev_t;
            if age == 0 || age >= self.window as u64 {
                (prev_pc, false)
            } else {
                let fits = (prev_t..now)
                    .all(|t| self.occupancy[(t % self.window as u64) as usize] < ways as u8);
                if fits {
                    for t in prev_t..now {
                        self.occupancy[(t % self.window as u64) as usize] += 1;
                    }
                }
                (prev_pc, fits)
            }
        });
        self.last_access.insert(line, (now, pc));
        // Keep the map bounded to lines that can still produce labels.
        if self.last_access.len() > 4 * self.window {
            let horizon = now.saturating_sub(self.window as u64);
            self.last_access.retain(|_, &mut (t, _)| t >= horizon);
        }
        label
    }
}

/// The Hawkeye replacement policy.
#[derive(Clone, Debug)]
pub struct Hawkeye {
    ways: u16,
    rrpv: Vec<u8>,
    /// Hashed PC that last touched each line (for eviction-time detraining).
    line_sig: Vec<u16>,
    predictor: Vec<u8>,
    optgen: Vec<OptGenSet>,
}

impl Hawkeye {
    /// Creates Hawkeye for the geometry.
    pub fn new(config: &CacheConfig) -> Self {
        let sampled = (config.sets as usize).div_ceil(SAMPLE_PERIOD as usize);
        let window = 8 * config.ways as usize;
        assert!(config.ways <= 32, "the victim search keeps one bit per way in a u32");
        Self {
            ways: config.ways,
            rrpv: vec![MAX_RRPV; config.lines() as usize],
            line_sig: vec![0; config.lines() as usize],
            predictor: vec![PRED_THRESHOLD; 1 << PRED_BITS],
            optgen: (0..sampled).map(|_| OptGenSet::new(window)).collect(),
        }
    }

    fn idx(&self, set: u32, way: u16) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    fn predict_friendly(&self, sig: u16) -> bool {
        self.predictor[sig as usize] >= PRED_THRESHOLD
    }

    fn train(&mut self, sig: u16, up: bool) {
        let c = &mut self.predictor[sig as usize];
        if up {
            *c = (*c + 1).min(PRED_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Runs OPTgen for sampled sets and trains the predictor.
    fn observe(&mut self, set: u32, access: &Access) {
        if access.kind == AccessKind::Writeback || !set.is_multiple_of(SAMPLE_PERIOD) {
            return;
        }
        let slot = (set / SAMPLE_PERIOD) as usize;
        let ways = self.ways;
        if let Some((prev_pc, opt_hit)) =
            self.optgen[slot].access(access.line(), access.pc, ways)
        {
            let sig = pc_signature(prev_pc, PRED_BITS) as u16;
            self.train(sig, opt_hit);
        }
    }

    fn apply_prediction(&mut self, set: u32, way: u16, access: &Access, is_fill: bool) {
        let sig = pc_signature(access.pc, PRED_BITS) as u16;
        let i = self.idx(set, way);
        self.line_sig[i] = sig;
        let friendly = access.kind != AccessKind::Writeback && self.predict_friendly(sig);
        if friendly {
            if is_fill {
                // Age the other friendly lines, as in the original design.
                let base = set as usize * self.ways as usize;
                age_friendly_fill(&mut self.rrpv[base..base + self.ways as usize], way);
            }
            self.rrpv[i] = 0;
        } else {
            self.rrpv[i] = MAX_RRPV;
        }
    }
}

/// Ages every way of the row except `me` by one, stopping at
/// `MAX_RRPV − 1` so a friendly line never turns averse: one branch-free
/// pass whose sum only adds where the rule allows.
fn age_friendly_fill(row: &mut [u8], me: u16) {
    for (w, r) in row.iter_mut().enumerate() {
        *r += u8::from(w != usize::from(me) && *r < MAX_RRPV - 1);
    }
}

/// Hawkeye's victim in one set's RRPV row, and whether it is averse.
///
/// One pass takes the row's maximum `m` and a bitmask of the ways holding
/// it. A cache-averse line holds `MAX_RRPV`, so the ways at `m` are the
/// averse ways exactly when `m == MAX_RRPV`, and then the lowest of them
/// wins (the first averse way in way order). Otherwise no way is averse
/// and the victim is the highest way at `m`: the oldest friendly line,
/// with ties going to the last maximum as `Iterator::max_by_key` does.
fn row_victim(row: &[u8]) -> (u16, bool) {
    debug_assert!(!row.is_empty() && row.len() <= 32, "one bit per way in a u32");
    let m = row.iter().fold(0, |m, &r| m.max(r));
    let mut at_max = 0u32;
    for (w, &r) in row.iter().enumerate() {
        at_max |= u32::from(r == m) << w;
    }
    if m == MAX_RRPV {
        (at_max.trailing_zeros() as u16, true)
    } else {
        ((31 - at_max.leading_zeros()) as u16, false)
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> String {
        "Hawkeye".to_owned()
    }

    fn select_victim(&mut self, set: u32, _access: &Access) -> u16 {
        // Prefer a cache-averse line; with none, evict the oldest friendly
        // line and detrain its PC.
        let base = set as usize * self.ways as usize;
        let (victim, averse) = row_victim(&self.rrpv[base..base + self.ways as usize]);
        if !averse {
            let sig = self.line_sig[base + usize::from(victim)];
            self.train(sig, false);
        }
        victim
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        self.observe(set, access);
        self.apply_prediction(set, way, access, false);
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        self.observe(set, access);
        self.apply_prediction(set, way, access, true);
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        let rrpv = config.lines() * 3;
        let predictor = (1u64 << PRED_BITS) * 3;
        // Sampled-set OPTgen: per sampled set, an occupancy vector (4 bits
        // per quantum over an 8x-associativity window) plus last-access tags
        // (13-bit PC hash + 8-bit time + 8-bit partial tag) for 2x ways of
        // tracked lines, as in the published 28 KB budget.
        let window = 8 * u64::from(config.ways);
        let sampled = u64::from(config.sets.div_ceil(SAMPLE_PERIOD));
        let optgen = sampled * (window * 4 + 2 * u64::from(config.ways) * (13 + 8 + 8));
        rrpv + predictor + optgen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig { sets: 64, ways: 4, latency: 1 }
    }

    fn access(pc: u64, addr: u64) -> Access {
        Access { pc, addr, kind: AccessKind::Load, core: 0, seq: 0 }
    }

    #[test]
    fn averse_lines_are_evicted_first() {
        let mut h = Hawkeye::new(&cfg());
        let sig = pc_signature(0x999, PRED_BITS) as usize;
        h.predictor[sig] = 0; // averse PC
        h.on_fill(1, 2, &access(0x999, 64));
        let friendly_sig = pc_signature(0x400, PRED_BITS) as usize;
        h.predictor[friendly_sig] = PRED_MAX;
        h.on_fill(1, 0, &access(0x400, 128));
        h.on_fill(1, 1, &access(0x400, 192));
        h.on_fill(1, 3, &access(0x400, 256));
        let victim = h.select_victim(1, &access(0x1, 320));
        assert_eq!(victim, 2, "the averse line must go first");
    }

    #[test]
    fn optgen_rewards_short_reuse() {
        // In a sampled set, a tight reuse must OPT-hit and train up.
        let mut h = Hawkeye::new(&cfg());
        let pc = 0x400;
        let sig = pc_signature(pc, PRED_BITS) as usize;
        let before = h.predictor[sig];
        h.on_fill(0, 0, &access(pc, 0));
        h.on_hit(0, 0, &access(pc, 0)); // immediate reuse: OPT would hit
        assert!(h.predictor[sig] > before, "short reuse must train the PC up");
    }

    #[test]
    fn optgen_punishes_thrash() {
        // A line reused only after far more than 8*ways distinct intervening
        // accesses can never fit in OPT's occupancy window.
        let mut h = Hawkeye::new(&cfg());
        let pc = 0x400;
        let sig = pc_signature(pc, PRED_BITS) as usize;
        h.predictor[sig] = PRED_THRESHOLD;
        h.on_fill(0, 0, &access(pc, 0));
        for i in 1..100u64 {
            h.on_fill(0, (i % 4) as u16, &access(pc, i * 64 * 64));
        }
        // Reuse of the very first line, far beyond the window.
        h.on_fill(0, 0, &access(pc, 0));
        assert!(h.predictor[sig] < PRED_THRESHOLD, "distant reuse must train down");
    }

    #[test]
    fn evicting_friendly_line_detrains_it() {
        let mut h = Hawkeye::new(&cfg());
        let pc = 0x400;
        let sig = pc_signature(pc, PRED_BITS) as usize;
        h.predictor[sig] = PRED_MAX;
        for w in 0..4 {
            h.on_fill(2, w, &access(pc, u64::from(w) * 64));
        }
        let _ = h.select_victim(2, &access(0x1, 999 * 64));
        assert!(h.predictor[sig] < PRED_MAX, "forced eviction of a friendly line detrains");
    }

    /// The search [`row_victim`] replaces: the first averse way, else the
    /// last way holding the maximum RRPV.
    fn early_exit_victim(row: &[u8]) -> (u16, bool) {
        if let Some(w) = row.iter().position(|&r| r == MAX_RRPV) {
            return (w as u16, true);
        }
        let w = (0..row.len()).max_by_key(|&w| row[w]).expect("at least one way");
        (w as u16, false)
    }

    /// The fill aging [`age_friendly_fill`] replaces.
    fn branchy_fill_aging(row: &mut [u8], me: u16) {
        for (w, r) in row.iter_mut().enumerate() {
            if w != usize::from(me) && *r < MAX_RRPV - 1 {
                *r += 1;
            }
        }
    }

    #[test]
    fn victim_search_matches_the_early_exit_scan() {
        simrng::prop::check(
            "victim_search_matches_the_early_exit_scan",
            simrng::prop::Config::with_cases(2048),
            |rng| crate::gen_rrpv_row(rng, MAX_RRPV),
            |row| {
                simrng::prop_assert_eq!(row_victim(row), early_exit_victim(row), "row {:?}", row);
                Ok(())
            },
        );
    }

    #[test]
    fn fill_aging_matches_the_branchy_loop() {
        simrng::prop::check(
            "fill_aging_matches_the_branchy_loop",
            simrng::prop::Config::with_cases(2048),
            |rng| crate::gen_rrpv_row(rng, MAX_RRPV),
            |row| {
                for me in 0..row.len() as u16 {
                    let (mut fast, mut slow) = (row.clone(), row.clone());
                    age_friendly_fill(&mut fast, me);
                    branchy_fill_aging(&mut slow, me);
                    simrng::prop_assert_eq!(fast, slow, "row {:?} filling way {}", row, me);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn select_victim_detrains_only_friendly_victims() {
        // Through the policy: the row, the victim and the predictor all
        // match the early-exit scan with its detraining rule.
        simrng::prop::check(
            "select_victim_detrains_only_friendly_victims",
            simrng::prop::Config::with_cases(512),
            |rng| crate::gen_rrpv_row(rng, MAX_RRPV),
            |row| {
                let ways = row.len() as u16;
                let mut h = Hawkeye::new(&CacheConfig { sets: 2, ways, latency: 1 });
                h.rrpv[ways as usize..].copy_from_slice(row);
                for w in 0..ways {
                    h.line_sig[(ways + w) as usize] = w;
                }
                let (expected, averse) = early_exit_victim(row);
                let before = h.predictor.clone();
                simrng::prop_assert_eq!(h.select_victim(1, &access(0x1, 64)), expected);
                simrng::prop_assert_eq!(&h.rrpv[ways as usize..], &row[..], "the row is read only");
                let mut trained = before;
                if !averse {
                    trained[usize::from(expected)] -= 1;
                }
                simrng::prop_assert_eq!(h.predictor, trained, "detraining of row {:?}", row);
                Ok(())
            },
        );
    }

    #[test]
    fn overhead_is_near_table_i() {
        let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
        let h = Hawkeye::new(&cfg);
        let kb = h.overhead_bits(&cfg) as f64 / 8.0 / 1024.0;
        // Table I reports 28 KB.
        assert!((20.0..34.0).contains(&kb), "Hawkeye overhead {kb:.2} KB");
    }
}
