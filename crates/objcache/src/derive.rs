//! The paper's derivation loop ported to object features: train an offline
//! agent on a traffic trace, inspect its weights, and distill them into the
//! cheap integer rule the cache actually runs ([`DerivedWeights`]).
//!
//! Pipeline (mirrors RLR's "RL agent → weight analysis → derived policy"):
//!
//! 1. **Label extraction** — for every request, look *forward* in the trace
//!    (the offline luxury): the label is 1 iff the object is re-requested
//!    within `horizon` requests *and* before its TTL lapses, i.e. caching
//!    it would have produced a hit.
//! 2. **Offline agent** — two logistic heads over normalized object
//!    features, trained by deterministic SGD with a simrng-shuffled visit
//!    order:
//!    - the *eviction head* sees what a resident entry knows: exact prior
//!      hit count, log size, TTL slack, and recency (requests since the
//!      previous occurrence);
//!    - the *admission head* sees only what the runtime admission point
//!      can afford for a non-resident object: the frequency-sketch
//!      estimate (simulated over the trace with the same
//!      [`crate::policy::FreqSketch`] the cache runs), log
//!      size, and TTL.
//! 3. **Weight analysis** — each head's weights are rescaled to small
//!    integers (max magnitude 8, the budget RLR's hardware rule uses).
//!    Recency is handled *structurally*: eviction breaks rank ties by
//!    least-recent use instead of spending a weight on it. The admission
//!    bias becomes the threshold (admit iff the model says reuse is more
//!    likely than not).
//!
//! The result of running this on `ObjectTraffic::internet_default()` is
//! frozen as [`DerivedWeights::paper_default`]; tests keep the pinned rule
//! honest against re-derivation.

use crate::policy::{DerivedWeights, FreqSketch, FREQ_CAP};
use simrng::{Rng, SimRng};
use std::collections::HashMap;
use workloads::ObjectRequest;

/// Hyperparameters of the offline agent.
#[derive(Clone, Copy, Debug)]
pub struct DeriveConfig {
    /// A re-reference within this many requests counts as "soon".
    pub horizon: u64,
    /// SGD epochs.
    pub epochs: u32,
    /// Initial learning rate (decays per epoch).
    pub lr: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        Self { horizon: 50_000, epochs: 4, lr: 0.5, seed: 1 }
    }
}

/// The trained float agent, kept for reporting (`rlr objcache derive`
/// prints it next to the quantized rule).
#[derive(Clone, Copy, Debug)]
pub struct DerivedModel {
    /// Eviction head over `[freq, size, ttl, recency]` (normalized).
    pub ev_weights: [f64; 4],
    pub ev_bias: f64,
    /// Admission head over `[sketch_freq, size, ttl]` (normalized).
    pub ad_weights: [f64; 3],
    pub ad_bias: f64,
    /// Number of training samples / positive labels, for the report.
    pub samples: u64,
    pub positives: u64,
}

/// Normalization caps per feature: freq / TTL / recency share the 4-bit
/// bucket budget, size uses the 22-bucket inverse log scale.
const EV_CAPS: [f64; 4] = [FREQ_CAP as f64, 22.0, 15.0, 15.0];
const AD_CAPS: [f64; 3] = [FREQ_CAP as f64, 22.0, 15.0];

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

struct Samples {
    ev: Vec<[f64; 4]>,
    ad: Vec<[f64; 3]>,
    labels: Vec<bool>,
}

/// Extracts per-request features and forward-looking labels.
fn collect(trace: &[ObjectRequest], horizon: u64) -> Samples {
    // Next occurrence of each request's key, by a backward scan.
    let mut next = vec![usize::MAX; trace.len()];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for i in (0..trace.len()).rev() {
        next[i] = last_pos.get(&trace[i].key).copied().unwrap_or(usize::MAX);
        last_pos.insert(trace[i].key, i);
    }
    let mut out = Samples {
        ev: Vec::with_capacity(trace.len()),
        ad: Vec::with_capacity(trace.len()),
        labels: Vec::with_capacity(trace.len()),
    };
    let mut seen: HashMap<u64, (u32, usize)> = HashMap::new();
    // The admission head trains on the estimate the deployed sketch would
    // actually produce at this point in the trace (own request included,
    // matching the runtime order: record, then estimate).
    let mut sketch = FreqSketch::new();
    for (i, r) in trace.iter().enumerate() {
        sketch.record(r.key);
        let (freq_before, last_idx) = seen.get(&r.key).copied().unwrap_or((0, usize::MAX));
        let recency_buckets = if last_idx == usize::MAX {
            15.0
        } else {
            crate::policy::ttl_feat(((i - last_idx) as u64 + 1).saturating_mul(1000)) as f64
        };
        let sizef = crate::policy::size_feat(r.size) as f64;
        let ttlf = crate::policy::ttl_feat(r.ttl_ms) as f64;
        out.ev.push([
            crate::policy::freq_feat(freq_before) as f64 / EV_CAPS[0],
            sizef / EV_CAPS[1],
            ttlf / EV_CAPS[2],
            recency_buckets / EV_CAPS[3],
        ]);
        out.ad.push([
            crate::policy::freq_feat(sketch.estimate(r.key)) as f64 / AD_CAPS[0],
            sizef / AD_CAPS[1],
            ttlf / AD_CAPS[2],
        ]);
        out.labels.push(
            next[i] != usize::MAX
                && (next[i] - i) as u64 <= horizon
                && trace[next[i]].now_ms < r.now_ms + r.ttl_ms,
        );
        seen.insert(r.key, (freq_before.saturating_add(1), i));
    }
    out
}

/// One logistic head trained with deterministic SGD.
fn train_head<const N: usize>(
    xs: &[[f64; N]],
    ys: &[bool],
    cfg: &DeriveConfig,
) -> ([f64; N], f64) {
    assert!(!xs.is_empty(), "derivation needs a non-empty trace");
    let mut w = [0.0f64; N];
    let mut b = 0.0f64;
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    const L2: f64 = 1e-5;
    for epoch in 0..cfg.epochs {
        // Fisher–Yates with the sim RNG: same seed, same visit order.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let lr = cfg.lr / (1.0 + epoch as f64);
        for &i in &order {
            let x = &xs[i];
            let z = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
            let g = sigmoid(z) - if ys[i] { 1.0 } else { 0.0 };
            for j in 0..N {
                w[j] -= lr * (g * x[j] + L2 * w[j]);
            }
            b -= lr * g;
        }
    }
    (w, b)
}

/// Weight analysis: distill the float agent into the integer rule.
pub fn quantize(model: &DerivedModel) -> DerivedWeights {
    // Coefficient per *integer* feature unit (undo the normalization), then
    // rescale so the largest magnitude lands on 8.
    let scale_to_i32 = |coeffs: &[f64]| -> (Vec<i32>, f64) {
        let max_mag = coeffs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
        let scale = 8.0 / max_mag;
        (coeffs.iter().map(|v| (v * scale).round().clamp(-8.0, 8.0) as i32).collect(), scale)
    };
    let ev_c: Vec<f64> =
        model.ev_weights[..3].iter().zip(EV_CAPS).map(|(w, cap)| w / cap).collect();
    let (ev_q, _) = scale_to_i32(&ev_c);
    let ad_c: Vec<f64> = model.ad_weights.iter().zip(AD_CAPS).map(|(w, cap)| w / cap).collect();
    let (ad_q, ad_scale) = scale_to_i32(&ad_c);
    // Admit iff P(reuse) >= 1/2, i.e. score + bias >= 0 in model units.
    let threshold = (-model.ad_bias * ad_scale).round().clamp(-512.0, 512.0) as i32;
    DerivedWeights {
        ev_freq: ev_q[0],
        ev_size: ev_q[1],
        ev_ttl: ev_q[2],
        ad_freq: ad_q[0],
        ad_size: ad_q[1],
        ad_ttl: ad_q[2],
        ad_threshold: threshold,
    }
}

/// Runs the full loop: label extraction → offline agent → weight analysis.
pub fn derive_weights(
    trace: &[ObjectRequest],
    cfg: &DeriveConfig,
) -> (DerivedModel, DerivedWeights) {
    let s = collect(trace, cfg.horizon);
    let (ev_weights, ev_bias) = train_head(&s.ev, &s.labels, cfg);
    let (ad_weights, ad_bias) = train_head(&s.ad, &s.labels, cfg);
    let model = DerivedModel {
        ev_weights,
        ev_bias,
        ad_weights,
        ad_bias,
        samples: s.labels.len() as u64,
        positives: s.labels.iter().filter(|&&y| y).count() as u64,
    };
    (model, quantize(&model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ObjectTraffic;

    fn trace(n: usize) -> Vec<ObjectRequest> {
        ObjectTraffic { catalog: 20_000, ..ObjectTraffic::internet_default() }
            .stream()
            .take(n)
            .collect()
    }

    #[test]
    fn derivation_is_deterministic() {
        let t = trace(20_000);
        let cfg = DeriveConfig::default();
        let (m1, w1) = derive_weights(&t, &cfg);
        let (m2, w2) = derive_weights(&t, &cfg);
        assert_eq!(m1.ev_weights, m2.ev_weights);
        assert_eq!(m1.ad_weights, m2.ad_weights);
        assert_eq!(m1.ev_bias, m2.ev_bias);
        assert_eq!(w1, w2);
    }

    #[test]
    fn agent_learns_the_popularity_signal() {
        let t = trace(30_000);
        let (model, w) = derive_weights(&t, &DeriveConfig::default());
        assert!(
            model.ev_weights[0] > 0.0,
            "frequency must predict re-reference, got {:?}",
            model.ev_weights
        );
        assert!(model.ad_weights[0] > 0.0, "admission head lost frequency: {:?}", model.ad_weights);
        assert!(w.ev_freq > 0, "quantized rule lost the frequency signal: {w:?}");
        assert!(model.positives > 0 && model.positives < model.samples);
    }
}
