//! Network layers with hand-derived backward passes.
//!
//! Every layer implements [`Layer`] with two forward passes:
//! `forward` is the training pass and caches whatever the backward pass
//! needs, `forward_infer` is the inference pass and touches no state.
//! `backward` consumes the upstream gradient and returns the downstream
//! one while accumulating parameter gradients.
//! Parameters and their gradients are exposed as flat slices so any
//! [`crate::optimizer::Optimizer`] can update them uniformly.

use nd_linalg::rng::SplitMix64;
use nd_linalg::Mat;

/// A differentiable network layer.
pub trait Layer {
    /// Training forward pass over a batch (`rows` = samples): caches
    /// activations for `backward` and, for [`Dropout`], draws a fresh
    /// mask.
    fn forward(&mut self, input: &Mat) -> Mat;

    /// Inference forward pass: no activation caching, no gradient
    /// state touched. Taking `&self` lets a frozen layer stack be
    /// shared across threads (the serving path runs concurrent
    /// forward passes over one `Arc`-held network).
    fn forward_infer(&self, input: &Mat) -> Mat;

    /// Backward pass: consumes `dL/d(output)` and returns
    /// `dL/d(input)`, accumulating parameter gradients internally.
    fn backward(&mut self, grad_output: &Mat) -> Mat;

    /// Flat view of trainable parameters (empty for stateless layers).
    fn params(&self) -> &[f64] {
        &[]
    }

    /// Mutable flat view of trainable parameters.
    fn params_mut(&mut self) -> &mut [f64] {
        &mut []
    }

    /// Flat view of parameter gradients, parallel to [`Layer::params`].
    fn grads(&self) -> &[f64] {
        &[]
    }

    /// Zeroes accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Human-readable layer description.
    fn name(&self) -> String;

    /// Output feature count for a given input feature count.
    fn output_dim(&self, input_dim: usize) -> usize;
}

/// Activation functions (paper Table 1). Softmax is handled inside the
/// cross-entropy loss for numerical stability and is therefore not an
/// activation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    #[inline]
    fn apply(&self, z: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            Activation::Tanh => z.tanh(),
            Activation::Relu => z.max(0.0),
        }
    }

    /// Derivative expressed through the *output* value `a = f(z)`.
    #[inline]
    fn derivative_from_output(&self, a: f64) -> f64 {
        match self {
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Tanh => 1.0 - a * a,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Element-wise activation layer.
pub struct ActivationLayer {
    activation: Activation,
    cached_output: Mat,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(activation: Activation) -> Self {
        ActivationLayer { activation, cached_output: Mat::zeros(0, 0) }
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, input: &Mat) -> Mat {
        let out = self.forward_infer(input);
        self.cached_output = out.clone();
        out
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        input.map(|z| self.activation.apply(z))
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        let act = self.activation;
        grad_output
            .hadamard(&self.cached_output.map(|a| act.derivative_from_output(a)))
            .expect("activation backward shape")
    }

    fn name(&self) -> String {
        format!("{:?}", self.activation)
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

/// Fully-connected layer `y = x W + b`.
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// `in_dim * out_dim` weights followed by `out_dim` biases.
    params: Vec<f64>,
    grads: Vec<f64>,
    cached_input: Mat,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform initialized weights
    /// and zero biases, deterministically from `seed`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        let mut params = Vec::with_capacity(in_dim * out_dim + out_dim);
        for _ in 0..in_dim * out_dim {
            params.push(rng.next_range(-bound, bound));
        }
        params.extend(std::iter::repeat_n(0.0, out_dim));
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        let grads = vec![0.0; params.len()];
        Dense { in_dim, out_dim, params, grads, cached_input: Mat::zeros(0, 0) }
    }
}

/// Fixed batch chunk for `Conv1d`'s parameter-gradient reduction: the
/// partial sums must combine in an order that does not move with the
/// thread count. (`Dense` gets the same guarantee for free from the
/// GEMM kernel's fixed depth-block order.)
const GRAD_CHUNK: usize = 16;

impl Layer for Dense {
    fn forward(&mut self, input: &Mat) -> Mat {
        self.cached_input = input.clone();
        self.forward_infer(input)
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        debug_assert_eq!(input.cols(), self.in_dim, "dense input width");
        let batch = input.rows();
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let mut out = Mat::zeros(batch, out_dim);
        // X·W through the packed GEMM kernel; thread-local scratch
        // because the serving path calls this through `&self`.
        nd_linalg::gemm::with_tls_scratch(|s| {
            nd_linalg::gemm::gemm_into(
                batch,
                in_dim,
                out_dim,
                input.as_slice(),
                false,
                &self.params[..in_dim * out_dim],
                false,
                false,
                s,
                out.as_mut_slice(),
            );
        });
        let bias = &self.params[in_dim * out_dim..];
        for row in out.as_mut_slice().chunks_mut(out_dim) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        let batch = grad_output.rows();
        debug_assert_eq!(grad_output.cols(), self.out_dim);
        debug_assert_eq!(self.cached_input.rows(), batch);
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);

        // Parameter gradients (averaged over the batch by the loss, so
        // plain accumulation here). Weight gradient Xᵀ·G accumulates
        // straight into the running grads: the GEMM kernel's serial
        // depth-block order makes the sum thread-count invariant, so no
        // per-chunk partial buffers are needed.
        let input = &self.cached_input;
        let mut grad_input = Mat::zeros(batch, in_dim);
        nd_linalg::gemm::with_tls_scratch(|s| {
            nd_linalg::gemm::gemm_into(
                in_dim,
                batch,
                out_dim,
                input.as_slice(),
                true,
                grad_output.as_slice(),
                false,
                true,
                s,
                &mut self.grads[..in_dim * out_dim],
            );
            // Input gradient: G·Wᵀ through the same kernel.
            nd_linalg::gemm::gemm_into(
                batch,
                out_dim,
                in_dim,
                grad_output.as_slice(),
                false,
                &self.params[..in_dim * out_dim],
                true,
                false,
                s,
                grad_input.as_mut_slice(),
            );
        });
        // Bias gradient: column sums of G, ascending rows.
        let gb = &mut self.grads[in_dim * out_dim..];
        for r in 0..batch {
            for (gbj, &gj) in gb.iter_mut().zip(grad_output.row(r)) {
                *gbj += gj;
            }
        }
        grad_input
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn grads(&self) -> &[f64] {
        &self.grads
    }

    fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> String {
        format!("Dense({}→{})", self.in_dim, self.out_dim)
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.out_dim
    }
}

/// 1-D convolution over the feature axis (single input channel,
/// `n_filters` output channels, stride 1, valid padding).
///
/// Input: `(batch, length)`. Output: `(batch, n_filters * out_len)`
/// with `out_len = length - kernel + 1`, laid out filter-major
/// (filter 0's positions, then filter 1's, …).
pub struct Conv1d {
    length: usize,
    kernel: usize,
    n_filters: usize,
    /// `n_filters * kernel` weights followed by `n_filters` biases.
    params: Vec<f64>,
    grads: Vec<f64>,
    cached_input: Mat,
    /// Per-chunk partial-gradient buffers, reused across backward
    /// passes so the training loop allocates nothing per step.
    grad_partials: Vec<Vec<f64>>,
}

impl Conv1d {
    /// Creates a convolution for inputs of width `length`.
    ///
    /// # Panics
    /// Panics when `kernel > length` or `kernel == 0` — a construction
    /// error.
    pub fn new(length: usize, kernel: usize, n_filters: usize, seed: u64) -> Self {
        assert!(kernel > 0 && kernel <= length, "kernel must fit the input");
        let mut rng = SplitMix64::new(seed);
        let bound = (6.0 / (kernel + n_filters) as f64).sqrt();
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        let mut params = Vec::with_capacity(n_filters * kernel + n_filters);
        for _ in 0..n_filters * kernel {
            params.push(rng.next_range(-bound, bound));
        }
        params.extend(std::iter::repeat_n(0.0, n_filters));
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        let grads = vec![0.0; params.len()];
        Conv1d {
            length,
            kernel,
            n_filters,
            params,
            grads,
            cached_input: Mat::zeros(0, 0),
            grad_partials: Vec::new(), // nd-lint: allow(hot-loop-alloc)
        }
    }

    /// Output positions per filter.
    pub fn out_len(&self) -> usize {
        self.length - self.kernel + 1
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Mat) -> Mat {
        self.cached_input = input.clone();
        self.forward_infer(input)
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        debug_assert_eq!(input.cols(), self.length, "conv input width");
        let batch = input.rows();
        let out_len = self.out_len();
        let (kernel, n_filters) = (self.kernel, self.n_filters);
        let params = &self.params;
        let mut out = Mat::zeros(batch, n_filters * out_len);
        nd_par::par_for_rows(
            out.as_mut_slice(),
            n_filters * out_len,
            nd_par::auto_chunk_len(batch, 4),
            n_filters * out_len * kernel,
            |r0, block| {
                for (rk, o) in block.chunks_mut(n_filters * out_len).enumerate() {
                    let x = input.row(r0 + rk);
                    for f in 0..n_filters {
                        let w = &params[f * kernel..(f + 1) * kernel];
                        let b = params[n_filters * kernel + f];
                        for p in 0..out_len {
                            let mut acc = b;
                            for (k, &wk) in w.iter().enumerate() {
                                acc += wk * x[p + k];
                            }
                            o[f * out_len + p] = acc;
                        }
                    }
                }
            },
        );
        out
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        let batch = grad_output.rows();
        let out_len = self.out_len();
        let (kernel, n_filters) = (self.kernel, self.n_filters);

        // Filter/bias gradients: each fixed-size chunk fills its own
        // persistent partial buffer, folded into the running grads in
        // ascending chunk order — thread-count invariant and
        // allocation-free once the buffers are warm.
        let plen = n_filters * kernel + n_filters;
        let nchunks = batch.div_ceil(GRAD_CHUNK);
        let x_cache = &self.cached_input;
        let partials = &mut self.grad_partials;
        partials.resize_with(nchunks, Vec::new);
        nd_par::par_for_rows(
            &mut partials[..nchunks],
            1,
            1,
            GRAD_CHUNK * n_filters * out_len * kernel,
            |ci, slot| {
                let part = &mut slot[0];
                part.clear();
                part.resize(plen, 0.0);
                let lo = ci * GRAD_CHUNK;
                let hi = (lo + GRAD_CHUNK).min(batch);
                for r in lo..hi {
                    let x = x_cache.row(r);
                    let g = grad_output.row(r);
                    for f in 0..n_filters {
                        let mut gb = 0.0;
                        for p in 0..out_len {
                            let go = g[f * out_len + p];
                            if go == 0.0 {
                                continue;
                            }
                            gb += go;
                            for k in 0..kernel {
                                part[f * kernel + k] += go * x[p + k];
                            }
                        }
                        part[n_filters * kernel + f] += gb;
                    }
                }
            },
        );
        for part in partials.iter() {
            for (gsum, &p) in self.grads.iter_mut().zip(part.iter()) {
                *gsum += p;
            }
        }

        // Input gradient: rows independent; reads weights in place
        // rather than copying each filter per sample.
        let mut grad_input = Mat::zeros(batch, self.length);
        let params = &self.params;
        let length = self.length;
        nd_par::par_for_rows(
            grad_input.as_mut_slice(),
            length,
            nd_par::auto_chunk_len(batch, 4),
            n_filters * out_len * kernel,
            |r0, block| {
                for (rk, gi) in block.chunks_mut(length).enumerate() {
                    let g = grad_output.row(r0 + rk);
                    for f in 0..n_filters {
                        let w = &params[f * kernel..(f + 1) * kernel];
                        for p in 0..out_len {
                            let go = g[f * out_len + p];
                            if go == 0.0 {
                                continue;
                            }
                            for (k, &wk) in w.iter().enumerate() {
                                gi[p + k] += go * wk;
                            }
                        }
                    }
                }
            },
        );
        grad_input
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn grads(&self) -> &[f64] {
        &self.grads
    }

    fn zero_grads(&mut self) {
        self.grads.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> String {
        format!("Conv1d(len={}, k={}, f={})", self.length, self.kernel, self.n_filters)
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.n_filters * self.out_len()
    }
}

/// Max pooling over each filter map of a [`Conv1d`] output.
///
/// Input layout must match `Conv1d`'s: `n_filters` maps of `in_len`
/// positions. Pool windows are non-overlapping (`pool` wide); a
/// trailing partial window is pooled too.
pub struct MaxPool1d {
    n_filters: usize,
    in_len: usize,
    pool: usize,
    /// Argmax index per output cell, cached for the backward pass.
    cached_argmax: Vec<usize>,
    cached_batch: usize,
}

impl MaxPool1d {
    /// Creates a pooling layer for `n_filters` maps of `in_len`.
    ///
    /// # Panics
    /// Panics when `pool == 0`.
    pub fn new(n_filters: usize, in_len: usize, pool: usize) -> Self {
        assert!(pool > 0, "pool width must be positive");
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        MaxPool1d { n_filters, in_len, pool, cached_argmax: Vec::new(), cached_batch: 0 }
    }

    /// Pooled positions per filter map.
    pub fn out_len(&self) -> usize {
        self.in_len.div_ceil(self.pool)
    }

    /// The pooling computation; fills `argmax` (when given) with the
    /// winning index per output cell for the backward pass.
    fn pool(&self, input: &Mat, mut argmax: Option<&mut Vec<usize>>) -> Mat {
        debug_assert_eq!(input.cols(), self.n_filters * self.in_len, "pool input width");
        let batch = input.rows();
        let out_len = self.out_len();
        let mut out = Mat::zeros(batch, self.n_filters * out_len);
        for r in 0..batch {
            let x = input.row(r);
            let o = out.row_mut(r);
            for f in 0..self.n_filters {
                for p in 0..out_len {
                    let lo = p * self.pool;
                    let hi = ((p + 1) * self.pool).min(self.in_len);
                    let mut best = f64::NEG_INFINITY;
                    let mut best_idx = lo;
                    for q in lo..hi {
                        let v = x[f * self.in_len + q];
                        if v > best {
                            best = v;
                            best_idx = q;
                        }
                    }
                    o[f * out_len + p] = best;
                    if let Some(marks) = argmax.as_deref_mut() {
                        marks[r * self.n_filters * out_len + f * out_len + p] = best_idx;
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Mat) -> Mat {
        let batch = input.rows();
        // Reuse the cached argmax buffer across training steps.
        let mut argmax = std::mem::take(&mut self.cached_argmax);
        argmax.clear();
        argmax.resize(batch * self.n_filters * self.out_len(), 0);
        let out = self.pool(input, Some(&mut argmax));
        self.cached_argmax = argmax;
        self.cached_batch = batch;
        out
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        self.pool(input, None)
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        let batch = grad_output.rows();
        debug_assert_eq!(batch, self.cached_batch, "backward batch mismatch");
        let out_len = self.out_len();
        let mut grad_input = Mat::zeros(batch, self.n_filters * self.in_len);
        for r in 0..batch {
            let g = grad_output.row(r);
            let gi = grad_input.row_mut(r);
            for f in 0..self.n_filters {
                for p in 0..out_len {
                    let idx =
                        self.cached_argmax[r * self.n_filters * out_len + f * out_len + p];
                    gi[f * self.in_len + idx] += g[f * out_len + p];
                }
            }
        }
        grad_input
    }

    fn name(&self) -> String {
        format!("MaxPool1d(f={}, len={}, pool={})", self.n_filters, self.in_len, self.pool)
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.n_filters * self.out_len()
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1/(1-rate)`, so
/// inference needs no rescaling. A regularization extension beyond the
/// paper's Figures 2–3 (exposed for the ablation benches).
pub struct Dropout {
    rate: f64,
    rng: SplitMix64,
    mask: Vec<f64>,
    cols: usize,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        // nd-lint: allow(hot-loop-alloc) — constructor, runs once.
        Dropout { rate, rng: SplitMix64::new(seed), mask: Vec::new(), cols: 0 }
    }

    /// Training-mode forward: draws a fresh mask into the reused mask
    /// buffer and applies it.
    fn forward_train(&mut self, input: &Mat) -> Mat {
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.cols = input.cols();
        let rng = &mut self.rng;
        self.mask.clear();
        self.mask
            .extend((0..input.len()).map(|_| if rng.next_bool(keep) { scale } else { 0.0 }));
        let mut out = input.clone();
        for (v, &m) in out.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        out
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Mat) -> Mat {
        if self.rate == 0.0 {
            return input.clone();
        }
        self.forward_train(input)
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        // Inverted dropout: inference is the identity.
        input.clone()
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        if self.mask.is_empty() {
            return grad_output.clone();
        }
        debug_assert_eq!(grad_output.len(), self.mask.len());
        let mut out = grad_output.clone();
        for (g, &m) in out.as_mut_slice().iter_mut().zip(&self.mask) {
            *g *= m;
        }
        out
    }

    fn name(&self) -> String {
        format!("Dropout({})", self.rate)
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical-vs-analytic gradient check for a layer, using the sum
    /// of outputs as the scalar loss (so dL/d(output) is all ones).
    fn check_param_gradients(layer: &mut dyn Layer, input: &Mat, tol: f64) {
        let out = layer.forward(input);
        let ones = Mat::filled(out.rows(), out.cols(), 1.0);
        layer.zero_grads();
        layer.backward(&ones);
        let analytic = layer.grads().to_vec();

        let eps = 1e-5;
        for (p, &a) in analytic.iter().enumerate() {
            let orig = layer.params()[p];
            layer.params_mut()[p] = orig + eps;
            let plus = layer.forward_infer(input).sum();
            layer.params_mut()[p] = orig - eps;
            let minus = layer.forward_infer(input).sum();
            layer.params_mut()[p] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - a).abs() < tol,
                "param {p}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    /// Numerical check of the input gradient.
    fn check_input_gradients(layer: &mut dyn Layer, input: &Mat, tol: f64) {
        let out = layer.forward(input);
        let ones = Mat::filled(out.rows(), out.cols(), 1.0);
        layer.zero_grads();
        let grad_in = layer.backward(&ones);

        let eps = 1e-5;
        let mut x = input.clone();
        for i in 0..input.rows() {
            for j in 0..input.cols() {
                let orig = x.get(i, j);
                x.set(i, j, orig + eps);
                let plus = layer.forward_infer(&x).sum();
                x.set(i, j, orig - eps);
                let minus = layer.forward_infer(&x).sum();
                x.set(i, j, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (numeric - grad_in.get(i, j)).abs() < tol,
                    "input ({i},{j}): numeric {numeric} vs analytic {}",
                    grad_in.get(i, j)
                );
            }
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 0);
        d.params_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        // W = [[1,2],[3,4]], b = [0.5,-0.5]; x = [1, 1] -> [4.5, 5.5]
        let x = Mat::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let y = d.forward_infer(&x);
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn dense_gradients_match_numerical() {
        let mut d = Dense::new(3, 2, 7);
        let x = Mat::random_normal(4, 3, 0.0, 1.0, 1);
        check_param_gradients(&mut d, &x, 1e-6);
        check_input_gradients(&mut d, &x, 1e-6);
    }

    #[test]
    fn conv_forward_known_values() {
        let mut c = Conv1d::new(4, 2, 1, 0);
        c.params_mut().copy_from_slice(&[1.0, -1.0, 0.0]); // filter [1,-1], bias 0
        let x = Mat::from_vec(1, 4, vec![3.0, 1.0, 4.0, 1.0]).unwrap();
        let y = c.forward_infer(&x);
        // positions: 3-1=2, 1-4=-3, 4-1=3
        assert_eq!(y.row(0), &[2.0, -3.0, 3.0]);
        assert_eq!(c.out_len(), 3);
    }

    #[test]
    fn conv_gradients_match_numerical() {
        let mut c = Conv1d::new(6, 3, 2, 9);
        let x = Mat::random_normal(3, 6, 0.0, 1.0, 2);
        check_param_gradients(&mut c, &x, 1e-6);
        check_input_gradients(&mut c, &x, 1e-6);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut p = MaxPool1d::new(1, 4, 2);
        let x = Mat::from_vec(1, 4, vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let y = p.forward(&x);
        assert_eq!(y.row(0), &[5.0, 3.0]);
        // Gradient routes to the argmax positions only.
        let g = Mat::from_vec(1, 2, vec![10.0, 20.0]).unwrap();
        let gi = p.backward(&g);
        assert_eq!(gi.row(0), &[0.0, 10.0, 0.0, 20.0]);
    }

    #[test]
    fn maxpool_partial_window() {
        let p = MaxPool1d::new(1, 5, 2);
        assert_eq!(p.out_len(), 3);
        let x = Mat::from_vec(1, 5, vec![1.0, 2.0, 3.0, 4.0, 9.0]).unwrap();
        let y = p.forward_infer(&x);
        assert_eq!(y.row(0), &[2.0, 4.0, 9.0]);
    }

    #[test]
    fn maxpool_multifilter_layout() {
        let p = MaxPool1d::new(2, 2, 2);
        // filter 0 map [1, 7], filter 1 map [4, 2]
        let x = Mat::from_vec(1, 4, vec![1.0, 7.0, 4.0, 2.0]).unwrap();
        let y = p.forward_infer(&x);
        assert_eq!(y.row(0), &[7.0, 4.0]);
    }

    #[test]
    fn activations_apply_and_differentiate() {
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let mut l = ActivationLayer::new(act);
            let x = Mat::random_normal(3, 4, 0.0, 1.5, 5);
            check_input_gradients(&mut l, &x, 1e-5);
        }
    }

    #[test]
    fn relu_clamps_negative() {
        let l = ActivationLayer::new(Activation::Relu);
        let x = Mat::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        assert_eq!(l.forward_infer(&x).row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_range() {
        let l = ActivationLayer::new(Activation::Sigmoid);
        let x = Mat::random_normal(2, 5, 0.0, 3.0, 8);
        let y = l.forward_infer(&x);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn output_dims() {
        assert_eq!(Dense::new(10, 4, 0).output_dim(10), 4);
        assert_eq!(Conv1d::new(10, 3, 2, 0).output_dim(10), 16);
        assert_eq!(MaxPool1d::new(2, 8, 4).output_dim(16), 4);
        assert_eq!(ActivationLayer::new(Activation::Relu).output_dim(7), 7);
    }

    #[test]
    #[should_panic(expected = "kernel must fit")]
    fn conv_kernel_too_large_panics() {
        Conv1d::new(2, 5, 1, 0);
    }

    #[test]
    fn dense_deterministic_init() {
        let a = Dense::new(4, 3, 42);
        let b = Dense::new(4, 3, 42);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn dropout_identity_at_inference() {
        let d = Dropout::new(0.5, 1);
        let x = Mat::random_normal(3, 5, 0.0, 1.0, 2);
        assert_eq!(d.forward_infer(&x), x);
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let mut d = Dropout::new(0.5, 7);
        let x = Mat::filled(50, 20, 1.0);
        let y = d.forward(&x);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let scaled = y.as_slice().iter().filter(|&&v| (v - 2.0).abs() < 1e-12).count();
        assert_eq!(zeros + scaled, 1000, "entries are either dropped or rescaled");
        let frac = zeros as f64 / 1000.0;
        assert!((0.4..0.6).contains(&frac), "drop fraction {frac}");
        // Expectation preserved (inverted dropout).
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {}", y.mean());
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 9);
        let x = Mat::filled(4, 6, 1.0);
        let y = d.forward(&x);
        let g = d.backward(&Mat::filled(4, 6, 1.0));
        // Gradient flows exactly where activations survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn dropout_rejects_rate_one() {
        Dropout::new(1.0, 0);
    }
}
