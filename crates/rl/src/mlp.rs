//! A from-scratch multi-layer perceptron.
//!
//! One hidden layer with tanh activation and a linear output layer — the
//! architecture the paper settled on after its hyperparameter exploration
//! ("simple enough for interpretation but performs almost as well as
//! denser networks"). Trained with SGD plus momentum.

use std::io::{self, Read, Write};

use simrng::{Rng, SimRng};

use crate::wire;

/// Main register-block width of `affine` in the portable compile: 32
/// accumulators are eight 4-lane SSE registers.
const BLOCK: usize = 32;

/// Main register-block width of `affine` in the AVX2 compile: 64
/// accumulators are eight 8-lane registers, so eight independent add chains
/// stay in flight, as in the portable compile.
#[cfg(target_arch = "x86_64")]
const WIDE_BLOCK: usize = 64;

/// Largest parameter count [`Mlp::load`] accepts (1 GiB of weights).
const MAX_PARAMS: usize = 1 << 28;

/// A two-layer perceptron: `inputs → hidden (tanh) → outputs (linear)`.
///
/// ```
/// use rl::Mlp;
///
/// let mut net = Mlp::new(4, 8, 2, 42);
/// let out = net.forward(&[0.1, -0.2, 0.3, 0.0]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    inputs: usize,
    hidden: usize,
    outputs: usize,
    /// `w1[i * hidden + h]`: input `i` → hidden `h` (column-major, so one
    /// input's weights to every hidden unit are contiguous).
    w1: Vec<f32>,
    b1: Vec<f32>,
    /// `w2[h * outputs + o]`: hidden `h` → output `o`.
    w2: Vec<f32>,
    b2: Vec<f32>,
    // Momentum buffers, laid out like their weights.
    m_w1: Vec<f32>,
    m_b1: Vec<f32>,
    m_w2: Vec<f32>,
    m_b2: Vec<f32>,
    // Scratch from the last forward pass (for backprop).
    last_input: Vec<f32>,
    last_hidden: Vec<f32>,
}

/// The `rows × cols` row-major matrix `src`, transposed to `cols × rows`.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols).flat_map(|c| (0..rows).map(move |r| src[r * cols + c])).collect()
}

/// `out[j] = bias[j] + Σᵢ weights[i][j] · input[i]`, `weights` being
/// `[input.len()][bias.len()]`. Every output adds its products in input
/// order, one after another, starting from its bias: the arithmetic of a
/// row-major dot product, run for a block of outputs at once so the adds
/// vectorize across outputs instead of chaining within one.
///
/// Blocks of `MAIN` outputs come first, one walk over the input rows each.
/// The remainder (fewer than `MAIN`, at most 63) is split into blocks of
/// 32, 16, 8, 4, 2 and 1 outputs, one of each width its binary form
/// needs, and all of them walk the rows together: a lone narrow block
/// would be one add chain waiting on its own latency at every row. Every
/// block has a const width, so its accumulators live in registers.
#[inline(always)]
fn affine<const MAIN: usize>(bias: &[f32], weights: &[f32], input: &[f32], out: &mut [f32]) {
    const { assert!(MAIN <= 64, "the tail blocks cover at most 63 outputs") };
    let width = bias.len();
    let mut start = 0;
    while width - start >= MAIN {
        let mut acc = Block::<MAIN>::new(&mut start, bias);
        for (row, &x) in weights.chunks_exact(width).zip(input) {
            acc.add(row, x);
        }
        acc.store(out);
    }
    let mut b32 = Block::<32>::new(&mut start, bias);
    let mut b16 = Block::<16>::new(&mut start, bias);
    let mut b8 = Block::<8>::new(&mut start, bias);
    let mut b4 = Block::<4>::new(&mut start, bias);
    let mut b2 = Block::<2>::new(&mut start, bias);
    let mut b1 = Block::<1>::new(&mut start, bias);
    debug_assert_eq!(start, width, "the tail blocks cover the remainder");
    for (row, &x) in weights.chunks_exact(width).zip(input) {
        b32.add(row, x);
        b16.add(row, x);
        b8.add(row, x);
        b4.add(row, x);
        b2.add(row, x);
        b1.add(row, x);
    }
    b32.store(out);
    b16.store(out);
    b8.store(out);
    b4.store(out);
    b2.store(out);
    b1.store(out);
}

/// The accumulators of `N` consecutive outputs of [`affine`], or of none
/// when fewer than `N` outputs remain.
struct Block<const N: usize> {
    /// First output of the block; `None` when the block is empty.
    at: Option<usize>,
    acc: [f32; N],
}

impl<const N: usize> Block<N> {
    /// The block at `*start`, starting from its biases, and `*start`
    /// advanced past it; an empty block when fewer than `N` remain.
    #[inline(always)]
    fn new(start: &mut usize, bias: &[f32]) -> Self {
        let s = *start;
        if bias.len() - s < N {
            return Self { at: None, acc: [0.0; N] };
        }
        *start = s + N;
        Self { at: Some(s), acc: bias[s..s + N].try_into().expect("whole block") }
    }

    /// Adds `row[j] * x` to each accumulator `j` of the block.
    #[inline(always)]
    fn add(&mut self, row: &[f32], x: f32) {
        if let Some(s) = self.at {
            let w: &[f32; N] = row[s..s + N].try_into().expect("whole block");
            for (a, w) in self.acc.iter_mut().zip(w) {
                *a += w * x;
            }
        }
    }

    /// Writes the block's sums to its outputs.
    #[inline(always)]
    fn store(&self, out: &mut [f32]) {
        if let Some(s) = self.at {
            out[s..s + N].copy_from_slice(&self.acc);
        }
    }
}

/// One SGD-with-momentum step, elementwise: `m ← momentum·m − lr·g`,
/// `w ← w + m`, with `g = grad(d[j])`.
#[inline(always)]
fn sgd(
    w: &mut [f32],
    m: &mut [f32],
    d: &[f32],
    grad: impl Fn(f32) -> f32,
    learning_rate: f32,
    momentum: f32,
) {
    for ((w, m), &d) in w.iter_mut().zip(m.iter_mut()).zip(d) {
        *m = momentum * *m - learning_rate * grad(d);
        *w += *m;
    }
}

/// [`sgd`] on a `[rows][d.len()]` matrix whose row `r` has gradient
/// `d[j] · a[r]`.
#[inline(always)]
fn sgd_outer(
    w: &mut [f32],
    m: &mut [f32],
    d: &[f32],
    a: &[f32],
    learning_rate: f32,
    momentum: f32,
) {
    let width = d.len();
    for ((w, m), &a) in w.chunks_exact_mut(width).zip(m.chunks_exact_mut(width)).zip(a) {
        sgd(w, m, d, |d| d * a, learning_rate, momentum);
    }
}

/// The forward pass: `affine`, `tanh`, `affine`, into `hidden` and `out`.
#[inline(always)]
fn infer_body<const MAIN: usize>(net: &Mlp, input: &[f32], hidden: &mut [f32], out: &mut [f32]) {
    affine::<MAIN>(&net.b1, &net.w1, input, hidden);
    for a in hidden.iter_mut() {
        *a = a.tanh();
    }
    affine::<MAIN>(&net.b2, &net.w2, hidden, out);
}

/// Backpropagation of `d_out` from the activations of the last forward
/// pass, with one SGD-with-momentum update of every parameter.
#[inline(always)]
fn backward_body(net: &mut Mlp, d_out: &[f32], learning_rate: f32, momentum: f32) {
    // Hidden-layer error: δh = (Σo w2[h,o]·δo) · (1 − tanh²), summed in
    // output order.
    let d_hidden: Vec<f32> = net
        .w2
        .chunks_exact(net.outputs)
        .zip(&net.last_hidden)
        .map(|(row, &a)| {
            let mut acc = 0.0f32;
            for (w, d) in row.iter().zip(d_out) {
                acc += w * d;
            }
            acc * (1.0 - a * a)
        })
        .collect();
    let (lr, mu) = (learning_rate, momentum);
    sgd(&mut net.b2, &mut net.m_b2, d_out, |d| d, lr, mu);
    sgd_outer(&mut net.w2, &mut net.m_w2, d_out, &net.last_hidden, lr, mu);
    sgd(&mut net.b1, &mut net.m_b1, &d_hidden, |d| d, lr, mu);
    sgd_outer(&mut net.w1, &mut net.m_w1, &d_hidden, &net.last_input, lr, mu);
}

/// Which compile of the kernel bodies runs. Both compute the same bits:
/// the AVX2 compile only widens the vectors that run across accumulators,
/// and enables no fused or approximate float operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernels {
    /// The target's baseline instruction set; the only compile off x86-64.
    Portable,
    /// The same bodies compiled with AVX2. Only [`Kernels::host`] returns
    /// it, and only on a host that has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernels {
    /// The widest compile this host runs. std caches the detection, so
    /// this is a load and a branch per call.
    fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }
}

/// The AVX2 compiles of the kernel bodies. `avx2` implies no `fma`, and
/// Rust never contracts `a * b + c` into a fused op, so every product and
/// sum rounds exactly as in the portable compile.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{backward_body, infer_body, Mlp, WIDE_BLOCK};

    #[target_feature(enable = "avx2")]
    pub(super) fn infer(net: &Mlp, input: &[f32], hidden: &mut [f32], out: &mut [f32]) {
        infer_body::<WIDE_BLOCK>(net, input, hidden, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn backward(net: &mut Mlp, d_out: &[f32], learning_rate: f32, momentum: f32) {
        backward_body(net, d_out, learning_rate, momentum);
    }
}

/// Element counts of `w1`, `b1`, `w2` and `b2` for `[inputs, hidden,
/// outputs]`, or `None` when a dimension is zero or the total overflows or
/// exceeds [`MAX_PARAMS`].
fn param_sizes([inputs, hidden, outputs]: [usize; 3]) -> Option<[usize; 4]> {
    let sizes = [inputs.checked_mul(hidden)?, hidden, hidden.checked_mul(outputs)?, outputs];
    let total = sizes.iter().try_fold(0usize, |t, &n| t.checked_add(n))?;
    (inputs > 0 && hidden > 0 && outputs > 0 && total <= MAX_PARAMS).then_some(sizes)
}

impl Mlp {
    /// Creates a network with Xavier-style initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(inputs: usize, hidden: usize, outputs: usize, seed: u64) -> Self {
        assert!(inputs > 0 && hidden > 0 && outputs > 0, "dimensions must be positive");
        let mut rng = SimRng::seed_from_u64(seed);
        let s1 = (6.0 / (inputs + hidden) as f32).sqrt();
        let s2 = (6.0 / (hidden + outputs) as f32).sqrt();
        // Drawn in the serialized `[hidden][inputs]`, `[outputs][hidden]` order.
        let w1: Vec<f32> = (0..inputs * hidden).map(|_| rng.gen_range(-s1..s1)).collect();
        let w2: Vec<f32> = (0..hidden * outputs).map(|_| rng.gen_range(-s2..s2)).collect();
        Self::from_serialized(
            [inputs, hidden, outputs],
            [w1, vec![0.0; hidden], w2, vec![0.0; outputs]],
            None,
        )
    }

    /// Builds a network from weights in the serialized layout
    /// (`[hidden][inputs]`, `[hidden]`, `[outputs][hidden]`, `[outputs]`),
    /// with zero momentum unless `momentum` holds the same four buffers.
    fn from_serialized(
        dims: [usize; 3],
        params: [Vec<f32>; 4],
        momentum: Option<[Vec<f32>; 4]>,
    ) -> Self {
        let [inputs, hidden, outputs] = dims;
        let [w1, b1, w2, b2] = params;
        let [m_w1, m_b1, m_w2, m_b2] = momentum.unwrap_or_else(|| {
            [vec![0.0; w1.len()], vec![0.0; hidden], vec![0.0; w2.len()], vec![0.0; outputs]]
        });
        Self {
            inputs,
            hidden,
            outputs,
            w1: transpose(&w1, hidden, inputs),
            b1,
            w2: transpose(&w2, outputs, hidden),
            b2,
            m_w1: transpose(&m_w1, hidden, inputs),
            m_b1,
            m_w2: transpose(&m_w2, outputs, hidden),
            m_b2,
            last_input: vec![0.0; inputs],
            last_hidden: vec![0.0; hidden],
        }
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Output dimension.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// First-layer weights, laid out `[hidden][inputs]` row-major — the
    /// matrix the Fig. 3 heat map aggregates.
    pub fn first_layer_weights(&self) -> Vec<f32> {
        transpose(&self.w1, self.inputs, self.hidden)
    }

    /// The hidden activations and outputs for `input`, from `kernels`.
    fn infer(&self, kernels: Kernels, input: &[f32], hidden: &mut [f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.inputs, "input dimension mismatch");
        let mut out = vec![0.0; self.outputs];
        match kernels {
            Kernels::Portable => infer_body::<BLOCK>(self, input, hidden, &mut out),
            // SAFETY: `Kernels::host` returns `Avx2` only when the host has it.
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => unsafe { avx2::infer(self, input, hidden, &mut out) },
        }
        out
    }

    /// [`Mlp::forward`] on `kernels`.
    fn forward_on(&mut self, kernels: Kernels, input: &[f32]) -> Vec<f32> {
        let mut hidden = std::mem::take(&mut self.last_hidden);
        let out = self.infer(kernels, input, &mut hidden);
        self.last_hidden = hidden;
        self.last_input.copy_from_slice(input);
        out
    }

    /// Runs a forward pass, caching activations for a subsequent
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input dimension.
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        self.forward_on(Kernels::host(), input)
    }

    /// [`Mlp::predict`] on `kernels`.
    fn predict_on(&self, kernels: Kernels, input: &[f32]) -> Vec<f32> {
        self.infer(kernels, input, &mut vec![0.0; self.hidden])
    }

    /// Inference without touching the backprop scratch state.
    pub fn predict(&self, input: &[f32]) -> Vec<f32> {
        self.predict_on(Kernels::host(), input)
    }

    /// [`Mlp::backward`] on `kernels`.
    fn backward_on(&mut self, kernels: Kernels, d_out: &[f32], learning_rate: f32, momentum: f32) {
        assert_eq!(d_out.len(), self.outputs, "gradient dimension mismatch");
        match kernels {
            Kernels::Portable => backward_body(self, d_out, learning_rate, momentum),
            // SAFETY: `Kernels::host` returns `Avx2` only when the host has it.
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2 => unsafe { avx2::backward(self, d_out, learning_rate, momentum) },
        }
    }

    /// Backpropagates `d_out` (∂loss/∂output) from the activations cached
    /// by the last [`Mlp::forward`], applying one SGD-with-momentum update.
    ///
    /// # Panics
    ///
    /// Panics if `d_out.len()` differs from the output dimension.
    pub fn backward(&mut self, d_out: &[f32], learning_rate: f32, momentum: f32) {
        self.backward_on(Kernels::host(), d_out, learning_rate, momentum);
    }

    /// The dimensions header and the weights (with the momentum buffers
    /// when `full`), matrices in the serialized layout.
    fn write<W: Write>(&self, mut w: W, magic: &[u8; 4], full: bool) -> io::Result<()> {
        w.write_all(magic)?;
        for dim in [self.inputs, self.hidden, self.outputs] {
            wire::write_u64(&mut w, dim as u64)?;
        }
        let params = [&self.w1, &self.b1, &self.w2, &self.b2];
        let momentum = [&self.m_w1, &self.m_b1, &self.m_w2, &self.m_b2];
        for [w1, b1, w2, b2] in std::iter::once(params).chain(full.then_some(momentum)) {
            wire::write_f32_array(&mut w, &transpose(w1, self.inputs, self.hidden))?;
            wire::write_f32_array(&mut w, b1)?;
            wire::write_f32_array(&mut w, &transpose(w2, self.hidden, self.outputs))?;
            wire::write_f32_array(&mut w, b2)?;
        }
        Ok(())
    }

    /// Reads what [`Mlp::write`] wrote under `magic`. Dimensions that
    /// [`param_sizes`] rejects are rejected before any weight is read.
    fn read<R: Read>(mut r: R, magic: &[u8; 4], full: bool) -> io::Result<Self> {
        let mut found = [0u8; 4];
        r.read_exact(&mut found)?;
        if &found != magic {
            return Err(wire::bad_data("bad MLP magic"));
        }
        let mut dims = [0usize; 3];
        for d in &mut dims {
            // A dimension past `usize` saturates, and `param_sizes` rejects it.
            *d = usize::try_from(wire::read_u64(&mut r)?).unwrap_or(usize::MAX);
        }
        let sizes = param_sizes(dims).ok_or_else(|| wire::bad_data("implausible MLP dimensions"))?;
        let mut read_set = || -> io::Result<[Vec<f32>; 4]> {
            let mut set = sizes.map(|_| Vec::new());
            for (buf, n) in set.iter_mut().zip(sizes) {
                *buf = wire::read_f32_array(&mut r, n)?;
            }
            Ok(set)
        };
        let params = read_set()?;
        let momentum = if full { Some(read_set()?) } else { None };
        Ok(Self::from_serialized(dims, params, momentum))
    }

    /// Serializes the network (dimensions and weights; optimizer state is
    /// not persisted). The `MLP1` layout stores `w1` as `[hidden][inputs]`
    /// and `w2` as `[outputs][hidden]`, whatever the in-memory layout.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        self.write(w, b"MLP1", false)
    }

    /// Deserializes a network written by [`Mlp::save`]. The network must
    /// end the stream: a header dimension flipped smaller would otherwise
    /// load a smaller net from misaligned weights.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input, including a
    /// header whose dimensions are zero or too large and bytes after the
    /// last weight.
    pub fn load<R: Read>(mut r: R) -> io::Result<Self> {
        let net = Self::read(&mut r, b"MLP1", false)?;
        if r.take(1).read_to_end(&mut Vec::new())? > 0 {
            return Err(wire::bad_data("trailing bytes after the MLP weights"));
        }
        Ok(net)
    }

    /// Serializes the network *including* the SGD momentum buffers, so a
    /// restored network continues training bit-for-bit where it stopped.
    /// The backprop scratch (`last_input`/`last_hidden`) is not persisted:
    /// every [`Mlp::backward`] is preceded by a [`Mlp::forward`] that
    /// rewrites it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_full<W: Write>(&self, w: W) -> io::Result<()> {
        self.write(w, b"MLPF", true)
    }

    /// Deserializes a network written by [`Mlp::save_full`]. Unlike
    /// [`Mlp::load`] it stops at the last weight, since checkpoints carry
    /// more sections after the network.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input, including a
    /// header whose dimensions are zero or too large.
    pub fn load_full<R: Read>(r: R) -> io::Result<Self> {
        Self::read(r, b"MLPF", true)
    }

    /// Mean-squared-error convenience: forward on `input`, backward against
    /// `target` on the selected `action` output only (other outputs receive
    /// zero gradient, as in DQN), returning the squared error.
    pub fn train_action(
        &mut self,
        input: &[f32],
        action: usize,
        target: f32,
        learning_rate: f32,
        momentum: f32,
    ) -> f32 {
        self.train_action_on(Kernels::host(), input, action, target, learning_rate, momentum)
    }

    /// [`Mlp::train_action`] on `kernels`.
    fn train_action_on(
        &mut self,
        kernels: Kernels,
        input: &[f32],
        action: usize,
        target: f32,
        learning_rate: f32,
        momentum: f32,
    ) -> f32 {
        let out = self.forward_on(kernels, input);
        let mut d_out = vec![0.0f32; self.outputs];
        let err = out[action] - target;
        // Huber-style gradient clipping keeps large TD errors from blowing
        // up the weights (the standard DQN stabilization).
        d_out[action] = err.clamp(-1.0, 1.0);
        self.backward_on(kernels, &d_out, learning_rate, momentum);
        err * err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The forward pass as plain row-major dot products, one output at a
    /// time: the arithmetic every compile of `infer_body` must reproduce.
    fn reference_predict(net: &Mlp, input: &[f32]) -> Vec<f32> {
        let dense = |bias: &[f32], weights: &[f32], x: &[f32]| -> Vec<f32> {
            let width = bias.len();
            (0..width)
                .map(|j| {
                    let mut acc = bias[j];
                    for (i, &x) in x.iter().enumerate() {
                        acc += weights[i * width + j] * x;
                    }
                    acc
                })
                .collect()
        };
        let hidden: Vec<f32> = dense(&net.b1, &net.w1, input).into_iter().map(f32::tanh).collect();
        dense(&net.b2, &net.w2, &hidden)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The differential wall between the compiles: for every tail shape of
    /// both layers, the portable compile matches the reference forward pass
    /// bit for bit, and the host's widest compile matches the portable one
    /// in its predictions and in the `save_full` bytes after 50 updates.
    #[test]
    fn every_compile_computes_the_same_bits() {
        let wide = Kernels::host();
        if wide == Kernels::Portable {
            println!("host has no wider compile: checking the portable kernels only");
        }
        let hidden_widths = (1..=33).chain([64, 175, 176]);
        for hidden in hidden_widths {
            for outputs in 1..=17 {
                let seed = (hidden * 100 + outputs) as u64;
                let mut rng = SimRng::seed_from_u64(seed);
                let inputs = if hidden >= 175 { 334 } else { rng.gen_range(1..=48) };
                let shape = format!("{inputs}→{hidden}→{outputs}");
                let mut portable = Mlp::new(inputs, hidden, outputs, seed);
                let mut host = portable.clone();
                let mut x = vec![0.0f32; inputs];
                for _ in 0..50 {
                    x.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0));
                    let action = rng.gen_range(0..outputs);
                    let target = rng.gen_range(-2.0f32..2.0);
                    let p = portable.predict_on(Kernels::Portable, &x);
                    assert_eq!(bits(&p), bits(&reference_predict(&portable, &x)), "{shape}");
                    assert_eq!(bits(&p), bits(&host.predict_on(wide, &x)), "{shape}");
                    let a =
                        portable.train_action_on(Kernels::Portable, &x, action, target, 5e-3, 0.9);
                    let b = host.train_action_on(wide, &x, action, target, 5e-3, 0.9);
                    assert_eq!(a.to_bits(), b.to_bits(), "{shape}: loss");
                }
                let save = |net: &Mlp| {
                    let mut bytes = Vec::new();
                    net.save_full(&mut bytes).expect("in-memory save");
                    bytes
                };
                assert!(save(&portable) == save(&host), "{shape}: save_full bytes differ");
            }
        }
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let mut a = Mlp::new(6, 5, 3, 7);
        let mut b = Mlp::new(6, 5, 3, 7);
        let x = [0.5, -0.5, 0.25, 0.0, 1.0, -1.0];
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = Mlp::new(6, 5, 3, 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn predict_matches_forward() {
        let mut net = Mlp::new(4, 6, 2, 1);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(net.forward(&x), net.predict(&x));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut net = Mlp::new(3, 4, 2, 9);
        let x = [0.3, -0.7, 0.2];
        let action = 1;
        let target = 0.5f32;

        // Analytic gradient for one first-layer weight via a probe update.
        let eps = 1e-3f32;
        let loss = |n: &Mlp| {
            let y = n.predict(&x)[action];
            0.5 * (y - target) * (y - target)
        };
        for &idx in &[0usize, 5, 11] {
            let mut plus = net.clone();
            plus.w1[idx] += eps;
            let mut minus = net.clone();
            minus.w1[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);

            // Analytic: δ = (y−t); backprop by hand through the probe.
            let mut probe = net.clone();
            let y = probe.forward(&x)[action];
            let mut d_out = vec![0.0; 2];
            d_out[action] = y - target;
            // Use learning rate 1, momentum 0: weight delta = -gradient.
            let before = probe.w1[idx];
            probe.backward(&d_out, 1.0, 0.0);
            let analytic = before - probe.w1[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "w1[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        let _ = net.forward(&x); // keep net "used"
    }

    #[test]
    fn training_reduces_error_on_a_fixed_target() {
        let mut net = Mlp::new(5, 12, 4, 3);
        let x = [0.2, -0.1, 0.7, -0.6, 0.05];
        let first = net.train_action(&x, 2, 1.0, 0.05, 0.9);
        for _ in 0..200 {
            net.train_action(&x, 2, 1.0, 0.05, 0.9);
        }
        let last = net.train_action(&x, 2, 1.0, 0.05, 0.9);
        assert!(last < first / 10.0, "error must shrink: {first} → {last}");
    }

    #[test]
    fn learns_a_simple_function() {
        use simrng::Rng;
        // Teach output 0 to be the sign-ish of x[0].
        let mut net = Mlp::new(2, 8, 1, 5);
        let mut rng = simrng::SimRng::seed_from_u64(17);
        for _ in 0..4000 {
            let x: f32 = rng.gen_range(-1.0..1.0);
            let target = if x > 0.0 { 1.0 } else { -1.0 };
            let _ = net.train_action(&[x, 1.0 - x.abs()], 0, target, 0.02, 0.8);
        }
        assert!(net.predict(&[0.8, 0.2])[0] > 0.4);
        assert!(net.predict(&[-0.8, 0.2])[0] < -0.4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let mut net = Mlp::new(3, 3, 3, 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let mut net = Mlp::new(7, 5, 3, 21);
        for i in 0..50 {
            net.train_action(&[0.1; 7], i % 3, 0.5, 0.01, 0.9);
        }
        let mut buf = Vec::new();
        net.save(&mut buf).expect("in-memory save");
        let back = Mlp::load(buf.as_slice()).expect("load");
        let x = [0.3, -0.1, 0.2, 0.9, -0.9, 0.0, 0.4];
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Mlp::load(&b"NOT A NET"[..]).is_err());
        assert!(Mlp::load_full(&b"NOT A NET"[..]).is_err());
    }

    #[test]
    fn load_rejects_crafted_dimension_headers() {
        // (1, 1, 2^62) asks for 2^62 output weights; (2^33, 2^33, 1)
        // overflows `inputs * hidden`. Both must fail as data errors.
        for dims in [[1u64, 1, 1 << 62], [1 << 33, 1 << 33, 1]] {
            for magic in [b"MLP1", b"MLPF"] {
                let mut header = magic.to_vec();
                for d in dims {
                    header.extend_from_slice(&d.to_le_bytes());
                }
                header.extend_from_slice(&[0; 8]);
                assert_eq!(header.len(), 36);
                let err = if magic == b"MLP1" {
                    Mlp::load(header.as_slice())
                } else {
                    Mlp::load_full(header.as_slice())
                }
                .expect_err("crafted header must be rejected");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{dims:?}");
            }
        }
    }

    #[test]
    fn full_roundtrip_preserves_momentum() {
        let mut net = Mlp::new(4, 6, 3, 13);
        for i in 0..40 {
            net.train_action(&[0.2, -0.4, 0.6, 0.1], i % 3, 0.25, 0.02, 0.9);
        }
        let mut buf = Vec::new();
        net.save_full(&mut buf).expect("in-memory save");
        let mut back = Mlp::load_full(buf.as_slice()).expect("load");
        // Training both copies further must stay bit-identical — this only
        // holds if the momentum buffers survived the roundtrip.
        for i in 0..40 {
            let a = net.train_action(&[0.3, 0.1, -0.2, 0.0], i % 3, -0.5, 0.02, 0.9);
            let b = back.train_action(&[0.3, 0.1, -0.2, 0.0], i % 3, -0.5, 0.02, 0.9);
            assert_eq!(a, b);
        }
        assert_eq!(net.predict(&[0.1; 4]), back.predict(&[0.1; 4]));
    }
}
