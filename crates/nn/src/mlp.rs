use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::LaneScratch;
use crate::simd::{self, Isa};
use crate::{Activation, Matrix, MatrixView, NnError, Result, Scratch};

/// Cache-block tile sizes for the batched layer kernel: `ROW_BLOCK` batch
/// rows × `COL_BLOCK` output neurons per tile, sized so one tile's weight
/// rows and input rows stay resident in L1 while they are reused.
const ROW_BLOCK: usize = 32;
const COL_BLOCK: usize = 16;

/// One dense layer: `outputs = act(W * inputs + b)` with `W` stored row-major
/// (`out_dim × in_dim`).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform initialization keeps sigmoid layers out of
        // saturation at the start of training.
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weights = (0..in_dim * out_dim).map(|_| rng.gen_range(-bound..bound)).collect();
        let biases = vec![0.0; out_dim];
        Self { in_dim, out_dim, weights, biases, activation }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width (number of neurons).
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// This layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Row-major weight matrix (`out_dim × in_dim`).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bias vector (`out_dim`).
    #[must_use]
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Number of multiply-accumulate operations one evaluation performs.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.in_dim * self.out_dim
    }

    fn forward_into(&self, input: &[f64], output: &mut [f64]) {
        self.forward_batch_into(1, input, output, Isa::Scalar, &mut LaneScratch::default());
    }

    /// Evaluates one layer on a limited-precision datapath: weights, biases,
    /// and the activated outputs are all rounded to a `2^-bits` grid — the
    /// behaviour of an analog or reduced-width digital implementation.
    fn forward_into_quantized(&self, input: &[f64], output: &mut [f64], bits: u32) {
        self.forward_batch_into_quantized(
            1,
            input,
            output,
            bits,
            Isa::Scalar,
            &mut LaneScratch::default(),
        );
    }

    /// Cache-blocked batched evaluation of `n` rows (`input` is flat
    /// row-major `n × in_dim`, `output` `n × out_dim`).
    ///
    /// Blocking only reorders *which* `(row, neuron)` output element is
    /// produced when; each element's inner dot product is the exact serial
    /// loop (bias first, then ascending input index), so every output is
    /// bit-identical to the per-sample path regardless of tile shape. The
    /// SIMD path keeps the same contract by mapping vector lanes to batch
    /// rows (one whole accumulator per lane — see `simd`), so dispatching
    /// on `isa` never changes the produced bits, only the speed.
    pub(crate) fn forward_batch_into(
        &self,
        n: usize,
        input: &[f64],
        output: &mut [f64],
        isa: Isa,
        lanes: &mut LaneScratch,
    ) {
        debug_assert_eq!(input.len(), n * self.in_dim);
        debug_assert_eq!(output.len(), n * self.out_dim);
        if isa.lanes_f64() > 1 && n >= isa.lanes_f64() {
            let LaneScratch { xt, yt, .. } = lanes;
            tile_lanes(
                self.in_dim,
                self.out_dim,
                self.activation,
                n,
                input,
                output,
                isa,
                xt,
                yt,
                &self.weights,
                &self.biases,
                None,
            );
            return;
        }
        for r0 in (0..n).step_by(ROW_BLOCK) {
            let r1 = (r0 + ROW_BLOCK).min(n);
            for o0 in (0..self.out_dim).step_by(COL_BLOCK) {
                let o1 = (o0 + COL_BLOCK).min(self.out_dim);
                for r in r0..r1 {
                    let input_row = &input[r * self.in_dim..(r + 1) * self.in_dim];
                    let output_row = &mut output[r * self.out_dim..(r + 1) * self.out_dim];
                    for (o, out_val) in (o0..).zip(output_row[o0..o1].iter_mut()) {
                        let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
                        let mut acc = self.biases[o];
                        for (w, x) in row.iter().zip(input_row) {
                            acc += w * x;
                        }
                        *out_val = self.activation.apply(acc);
                    }
                }
            }
        }
    }

    /// Quantized counterpart of [`Layer::forward_batch_into`]; same tiling,
    /// same per-element rounding as the serial quantized path.
    ///
    /// The grid-rounded weights and biases are hoisted into `lanes` once
    /// per call instead of re-deriving `q(w)` for every `(row, element)`
    /// pair in the inner loop; the grid is a pure per-element function, so
    /// the output bits are unchanged.
    pub(crate) fn forward_batch_into_quantized(
        &self,
        n: usize,
        input: &[f64],
        output: &mut [f64],
        bits: u32,
        isa: Isa,
        lanes: &mut LaneScratch,
    ) {
        debug_assert_eq!(input.len(), n * self.in_dim);
        debug_assert_eq!(output.len(), n * self.out_dim);
        let scale = f64::from(1u32 << bits.min(30));
        let q = |v: f64| (v * scale).round() / scale;
        let LaneScratch { xt, yt, qw, qb } = lanes;
        let qw = simd::ensure_len(qw, self.weights.len());
        for (dst, &w) in qw.iter_mut().zip(&self.weights) {
            *dst = q(w);
        }
        let qb = simd::ensure_len(qb, self.biases.len());
        for (dst, &b) in qb.iter_mut().zip(&self.biases) {
            *dst = q(b);
        }
        if isa.lanes_f64() > 1 && n >= isa.lanes_f64() {
            tile_lanes(
                self.in_dim,
                self.out_dim,
                self.activation,
                n,
                input,
                output,
                isa,
                xt,
                yt,
                qw,
                qb,
                Some(scale),
            );
            return;
        }
        for r0 in (0..n).step_by(ROW_BLOCK) {
            let r1 = (r0 + ROW_BLOCK).min(n);
            for o0 in (0..self.out_dim).step_by(COL_BLOCK) {
                let o1 = (o0 + COL_BLOCK).min(self.out_dim);
                for r in r0..r1 {
                    let input_row = &input[r * self.in_dim..(r + 1) * self.in_dim];
                    let output_row = &mut output[r * self.out_dim..(r + 1) * self.out_dim];
                    for (o, out_val) in (o0..).zip(output_row[o0..o1].iter_mut()) {
                        let row = &qw[o * self.in_dim..(o + 1) * self.in_dim];
                        let mut acc = qb[o];
                        for (w, x) in row.iter().zip(input_row) {
                            acc += w * x;
                        }
                        *out_val = q(self.activation.apply(acc));
                    }
                }
            }
        }
    }
}

/// The SIMD batched layer kernel: lanes are batch rows.
///
/// Each `ROW_BLOCK` tile of input rows is transpose-packed into `xt`
/// (feature-major, rows padded to the lane width), then every output
/// neuron is evaluated across all tile rows at once — per row the exact
/// serial reduction (`bias`, then one multiply-then-add per feature,
/// ascending). Padding lanes compute finite garbage that is never
/// unpacked. `quant_scale` applies the quantized path's output rounding;
/// its hoisted weights/biases arrive via `weights`/`biases`.
#[allow(clippy::too_many_arguments)]
fn tile_lanes(
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    n: usize,
    input: &[f64],
    output: &mut [f64],
    isa: Isa,
    xt: &mut Vec<f64>,
    yt: &mut Vec<f64>,
    weights: &[f64],
    biases: &[f64],
    quant_scale: Option<f64>,
) {
    let lw = isa.lanes_f64();
    for r0 in (0..n).step_by(ROW_BLOCK) {
        let r1 = (r0 + ROW_BLOCK).min(n);
        let rows = r1 - r0;
        let rp = rows.next_multiple_of(lw);
        let xt = simd::ensure_len(xt, in_dim * rp);
        for (k, col) in xt.chunks_exact_mut(rp).enumerate() {
            for (r, c) in col[..rows].iter_mut().enumerate() {
                *c = input[(r0 + r) * in_dim + k];
            }
            for c in &mut col[rows..] {
                *c = 0.0;
            }
        }
        let yt = simd::ensure_len(yt, rp);
        for (o, (wrow, &bias)) in weights.chunks_exact(in_dim).zip(biases).enumerate() {
            simd::neuron_rows_dispatch(isa, wrow, bias, xt, rp, yt);
            match quant_scale {
                None => {
                    for (r, &acc) in yt[..rows].iter().enumerate() {
                        output[(r0 + r) * out_dim + o] = act.apply(acc);
                    }
                }
                Some(scale) => {
                    for (r, &acc) in yt[..rows].iter().enumerate() {
                        output[(r0 + r) * out_dim + o] = (act.apply(acc) * scale).round() / scale;
                    }
                }
            }
        }
    }
}

/// A dense feed-forward network (multi-layer perceptron).
///
/// Construction is seeded; two networks built with the same topology,
/// activation, and seed are identical.
///
/// # Examples
///
/// ```
/// use rumba_nn::{Activation, Mlp};
///
/// # fn main() -> Result<(), rumba_nn::NnError> {
/// let mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 42)?;
/// let out = mlp.forward(&[0.1, 0.9])?;
/// assert_eq!(out.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    topology: Vec<usize>,
}

impl Mlp {
    /// Builds a network with the given layer sizes, e.g. `&[6, 8, 4, 1]` for
    /// the paper's `6->8->4->1` notation. Hidden layers use `hidden_act`;
    /// the output layer is always [`Activation::Identity`] so the network
    /// can regress outside `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTopology`] if fewer than two layer sizes are
    /// given or any size is zero.
    pub fn new(layers: &[usize], hidden_act: Activation, seed: u64) -> Result<Self> {
        if layers.len() < 2 || layers.contains(&0) {
            return Err(NnError::InvalidTopology { layers: layers.to_vec() });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut built = Vec::with_capacity(layers.len() - 1);
        for w in layers.windows(2) {
            let is_output = built.len() == layers.len() - 2;
            let act = if is_output { Activation::Identity } else { hidden_act };
            built.push(Layer::new(w[0], w[1], act, &mut rng));
        }
        Ok(Self { layers: built, topology: layers.to_vec() })
    }

    /// The layer sizes this network was constructed with.
    #[must_use]
    pub fn topology(&self) -> &[usize] {
        &self.topology
    }

    /// The paper's arrow notation for the topology, e.g. `"6->8->4->1"`.
    #[must_use]
    pub fn topology_string(&self) -> String {
        self.topology.iter().map(ToString::to_string).collect::<Vec<_>>().join("->")
    }

    /// Input width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.topology[0]
    }

    /// Output width.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        *self.topology.last().expect("topology has at least two entries")
    }

    /// The network's layers, input side first.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total number of trainable parameters (weights + biases).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len() + l.biases.len()).sum()
    }

    /// Total multiply-accumulates per evaluation; the accelerator cycle
    /// model is built on this.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(Layer::mac_count).sum()
    }

    /// Evaluates the network on one input row.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `input` has the wrong width.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>> {
        if input.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: input.len(),
                port: "network input",
            });
        }
        let mut cur = input.to_vec();
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into(&cur, &mut next);
            cur = next;
        }
        Ok(cur)
    }

    /// Evaluates the network on many input rows through the cache-blocked
    /// batched kernel, fanning row chunks out over the deterministic pool.
    ///
    /// `scratch` holds the reusable activation workspaces: after the first
    /// call at a given batch shape, repeated calls perform no heap
    /// allocation (on the single-thread path; the threaded path allocates
    /// one bounded workspace per chunk). Each row's result is bit-identical
    /// to [`Mlp::forward`] — at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `inputs` has the wrong
    /// width.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumba_nn::{Activation, Matrix, MatrixView, Mlp, Scratch};
    ///
    /// # fn main() -> Result<(), rumba_nn::NnError> {
    /// let mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 42)?;
    /// let rows = [0.1, 0.9, 0.5, 0.5];
    /// let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
    /// mlp.forward_batch(MatrixView::new(&rows, 2, 2), &mut scratch, &mut out)?;
    /// assert_eq!(out.row(0), mlp.forward(&rows[..2])?.as_slice());
    /// # Ok(())
    /// # }
    /// ```
    pub fn forward_batch(
        &self,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.forward_batch_with(inputs, None, scratch, out)
    }

    /// Batched counterpart of [`Mlp::forward_quantized`]; bit-identical to
    /// the per-row quantized path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `inputs` has the wrong
    /// width.
    pub fn forward_batch_quantized(
        &self,
        inputs: MatrixView<'_>,
        bits: u32,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        self.forward_batch_with(inputs, Some(bits), scratch, out)
    }

    fn forward_batch_with(
        &self,
        inputs: MatrixView<'_>,
        quant: Option<u32>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<()> {
        if inputs.cols() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: inputs.cols(),
                port: "network input",
            });
        }
        let n = inputs.rows();
        let out_dim = self.output_dim();
        out.resize(n, out_dim);
        let pool = rumba_parallel::ThreadPool::new();
        if pool.threads() <= 1 {
            let Scratch { a, b, lanes, .. } = scratch;
            self.forward_rows_flat(n, inputs.as_slice(), quant, a, b, lanes, out.as_mut_slice());
        } else {
            // Rows are independent, so chunking over them is bit-exact at
            // any thread count; each chunk runs in its thread's workspace.
            pool.par_chunks_mut(out.as_mut_slice(), out_dim, |_c, range, chunk_out| {
                let sub = inputs.rows_range(range.start, range.end);
                Scratch::with_thread_local(|local| {
                    self.forward_rows_flat(
                        sub.rows(),
                        sub.as_slice(),
                        quant,
                        &mut local.a,
                        &mut local.b,
                        &mut local.lanes,
                        chunk_out,
                    );
                });
            });
        }
        Ok(())
    }

    /// Serial whole-network batched forward over a flat `n × input_dim`
    /// buffer, writing the flat `n × output_dim` result into `out`.
    /// `a`/`b` are the grow-only ping-pong activation workspaces; `lanes`
    /// is the SIMD tile workspace. The ISA is resolved once per call and
    /// recorded in telemetry; dispatch never changes the produced bits.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_rows_flat(
        &self,
        n: usize,
        input: &[f64],
        quant: Option<u32>,
        a: &mut Matrix,
        b: &mut Matrix,
        lanes: &mut LaneScratch,
        out: &mut [f64],
    ) {
        let isa = simd::active_isa();
        simd::note_dispatch(isa);
        let run = |layer: &Layer, src: &[f64], dst: &mut [f64], lanes: &mut LaneScratch| match quant
        {
            None => layer.forward_batch_into(n, src, dst, isa, lanes),
            Some(bits) => layer.forward_batch_into_quantized(n, src, dst, bits, isa, lanes),
        };
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            // Layer li reads the previous layer's workspace and writes the
            // other one (the final layer writes straight into `out`); each
            // branch borrows the two workspaces disjointly.
            if li == last {
                let src: &[f64] = if li == 0 {
                    input
                } else if li % 2 == 1 {
                    a.as_slice()
                } else {
                    b.as_slice()
                };
                run(layer, src, out, lanes);
            } else if li == 0 {
                a.resize(n, layer.out_dim());
                run(layer, input, a.as_mut_slice(), lanes);
            } else if li % 2 == 1 {
                b.resize(n, layer.out_dim());
                run(layer, a.as_slice(), b.as_mut_slice(), lanes);
            } else {
                a.resize(n, layer.out_dim());
                run(layer, b.as_slice(), a.as_mut_slice(), lanes);
            }
        }
    }

    /// Evaluates the network on a limited-precision datapath: every weight,
    /// bias, and activation is rounded to a `2^-bits` grid, modeling an
    /// analog or reduced-width accelerator implementation (St. Amant et
    /// al.'s limited-precision analog NPU is the paper's cited example).
    ///
    /// `bits = 0` collapses everything to integers; large values converge
    /// to [`Mlp::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `input` has the wrong width.
    pub fn forward_quantized(&self, input: &[f64], bits: u32) -> Result<Vec<f64>> {
        if input.len() != self.input_dim() {
            return Err(NnError::DimensionMismatch {
                expected: self.input_dim(),
                actual: input.len(),
                port: "network input",
            });
        }
        let mut cur = input.to_vec();
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into_quantized(&cur, &mut next, bits);
            cur = next;
        }
        Ok(cur)
    }

    /// Evaluates the network keeping every layer's activated output; index 0
    /// is the input itself. The production trainer traces whole batches
    /// through the blocked kernel; this per-sample version remains the
    /// reference implementation the bit-exactness tests compare against.
    #[cfg(test)]
    pub(crate) fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let mut next = vec![0.0; layer.out_dim];
            layer.forward_into(acts.last().expect("nonempty"), &mut next);
            acts.push(next);
        }
        acts
    }

    pub(crate) fn apply_gradients(
        &mut self,
        grads_w: &[Vec<f64>],
        grads_b: &[Vec<f64>],
        vel_w: &mut [Vec<f64>],
        vel_b: &mut [Vec<f64>],
        lr: f64,
        momentum: f64,
    ) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (w, (g, v)) in
                layer.weights.iter_mut().zip(grads_w[li].iter().zip(vel_w[li].iter_mut()))
            {
                *v = momentum * *v - lr * g;
                *w += *v;
            }
            for (b, (g, v)) in
                layer.biases.iter_mut().zip(grads_b[li].iter().zip(vel_b[li].iter_mut()))
            {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
        }
    }

    /// Serializes all parameters into one flat vector (layer by layer,
    /// weights then biases) — the format the accelerator's config queue and
    /// coefficient buffers consume.
    #[must_use]
    pub fn to_flat_params(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            flat.extend_from_slice(&layer.weights);
            flat.extend_from_slice(&layer.biases);
        }
        flat
    }

    /// Restores parameters from [`Mlp::to_flat_params`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DimensionMismatch`] if `flat` has the wrong length
    /// for this topology.
    pub fn set_flat_params(&mut self, flat: &[f64]) -> Result<()> {
        if flat.len() != self.param_count() {
            return Err(NnError::DimensionMismatch {
                expected: self.param_count(),
                actual: flat.len(),
                port: "flat parameter vector",
            });
        }
        let mut off = 0;
        for layer in &mut self.layers {
            let wn = layer.weights.len();
            layer.weights.copy_from_slice(&flat[off..off + wn]);
            off += wn;
            let bn = layer.biases.len();
            layer.biases.copy_from_slice(&flat[off..off + bn]);
            off += bn;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_topologies() {
        assert!(Mlp::new(&[], Activation::Sigmoid, 0).is_err());
        assert!(Mlp::new(&[3], Activation::Sigmoid, 0).is_err());
        assert!(Mlp::new(&[3, 0, 1], Activation::Sigmoid, 0).is_err());
    }

    #[test]
    fn same_seed_same_network() {
        let a = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 9).unwrap();
        let b = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 9).unwrap();
        assert_eq!(a, b);
        let c = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn forward_checks_width() {
        let mlp = Mlp::new(&[2, 3, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.forward(&[1.0]).is_err());
        assert_eq!(mlp.forward(&[1.0, 2.0]).unwrap().len(), 1);
    }

    #[test]
    fn param_and_mac_counts() {
        let mlp = Mlp::new(&[3, 8, 8, 1], Activation::Sigmoid, 0).unwrap();
        // (3*8 + 8) + (8*8 + 8) + (8*1 + 1)
        assert_eq!(mlp.param_count(), 32 + 72 + 9);
        assert_eq!(mlp.mac_count(), 24 + 64 + 8);
    }

    #[test]
    fn topology_string_uses_arrow_notation() {
        let mlp = Mlp::new(&[6, 8, 4, 1], Activation::Sigmoid, 0).unwrap();
        assert_eq!(mlp.topology_string(), "6->8->4->1");
    }

    #[test]
    fn flat_params_round_trip() {
        let src = Mlp::new(&[2, 5, 2], Activation::Tanh, 3).unwrap();
        let mut dst = Mlp::new(&[2, 5, 2], Activation::Tanh, 99).unwrap();
        assert_ne!(src, dst);
        dst.set_flat_params(&src.to_flat_params()).unwrap();
        assert_eq!(src.forward(&[0.1, 0.2]).unwrap(), dst.forward(&[0.1, 0.2]).unwrap());
    }

    #[test]
    fn set_flat_params_checks_length() {
        let mut mlp = Mlp::new(&[2, 2, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.set_flat_params(&[0.0; 3]).is_err());
    }

    #[test]
    fn output_layer_is_identity() {
        let mlp = Mlp::new(&[1, 4, 1], Activation::Sigmoid, 1).unwrap();
        assert_eq!(mlp.layers().last().unwrap().activation(), Activation::Identity);
    }

    #[test]
    fn quantized_forward_converges_to_exact() {
        let mlp = Mlp::new(&[2, 6, 2], Activation::Sigmoid, 8).unwrap();
        let x = [0.31, -0.57];
        let exact = mlp.forward(&x).unwrap();
        let coarse = mlp.forward_quantized(&x, 3).unwrap();
        let fine = mlp.forward_quantized(&x, 24).unwrap();
        let dist = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| (p - q).abs()).sum::<f64>();
        assert!(dist(&fine, &exact) < dist(&coarse, &exact));
        assert!(dist(&fine, &exact) < 1e-5, "24-bit grid is near-exact");
        assert!(dist(&coarse, &exact) > 0.0, "3-bit grid must actually perturb");
    }

    #[test]
    fn quantized_forward_checks_width() {
        let mlp = Mlp::new(&[2, 3, 1], Activation::Sigmoid, 0).unwrap();
        assert!(mlp.forward_quantized(&[1.0], 8).is_err());
    }

    #[test]
    fn quantized_forward_is_deterministic() {
        let mlp = Mlp::new(&[1, 4, 1], Activation::Tanh, 2).unwrap();
        assert_eq!(
            mlp.forward_quantized(&[0.4], 6).unwrap(),
            mlp.forward_quantized(&[0.4], 6).unwrap()
        );
    }

    #[test]
    fn forward_trace_layers_match_forward() {
        let mlp = Mlp::new(&[2, 3, 2], Activation::Sigmoid, 5).unwrap();
        let x = [0.3, -0.4];
        let trace = mlp.forward_trace(&x);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.last().unwrap(), &mlp.forward(&x).unwrap());
    }
}
