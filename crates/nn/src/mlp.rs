//! Multi-layer perceptrons with backpropagation.

use rand::rngs::StdRng;
use warper_linalg::Matrix;

use crate::layer::{Activation, Linear, LinearGrads};

/// A feed-forward network: alternating [`Linear`] layers and activations.
///
/// Hidden layers share one activation; the output layer has its own (usually
/// [`Activation::Identity`] for regression/logits). The paper's modules
/// (Table 3) are all instances of this type:
///
/// * Encoder `E`: `m → 128 → 128 → |z|`, Leaky ReLU;
/// * Generator `G`: `|z| → 128 → 128 → m`, Leaky ReLU;
/// * Discriminator `D`: a single `|z| → 3` layer;
/// * LM-mlp and the MSCN head are also built from `Mlp`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    out_act: Activation,
}

/// Per-layer parameter gradients for an [`Mlp`].
#[derive(Debug, Clone, Default)]
pub struct MlpGrads {
    /// One entry per linear layer, in forward order.
    pub layers: Vec<LinearGrads>,
}

impl MlpGrads {
    /// Elementwise sum of two gradient sets (used when a model contributes to
    /// more than one loss term, e.g. the generator in `L_GAN`).
    pub fn add(&mut self, other: &MlpGrads) {
        assert_eq!(self.layers.len(), other.layers.len());
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.dw.axpy(1.0, &b.dw);
            for (x, y) in a.db.iter_mut().zip(&b.db) {
                *x += y;
            }
        }
    }

    /// Scales all gradients by `s`.
    pub fn scale(&mut self, s: f64) {
        for g in &mut self.layers {
            g.dw.scale_inplace(s);
            for v in &mut g.db {
                *v *= s;
            }
        }
    }
}

/// Intermediate activations retained by [`Mlp::forward_cached`] for use in
/// [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input to each linear layer (`inputs[0]` is the network input).
    inputs: Vec<Matrix>,
    /// Pre-activation output of each linear layer.
    pre: Vec<Matrix>,
}

/// Reusable scratch for [`Mlp::forward_ws`]/[`Mlp::backprop_ws`].
///
/// Holds every intermediate a forward/backward pass needs — per-layer
/// activations, pre-activations, the gradient ping-pong pair, and the
/// parameter gradients — so a training loop that keeps one workspace alive
/// performs no matrix allocations after the first step. The loss methods
/// ([`Self::mse`], [`Self::l1`], [`Self::softmax_cross_entropy`]) write
/// `∂L/∂output` straight into the workspace, where the backward pass picks
/// it up. One workspace serves one network; the buffers resize on first use
/// and whenever the batch size grows.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `acts[0]` is the network input; `acts[i + 1]` the output of layer `i`
    /// after its activation. `acts.last()` is the network output.
    acts: Vec<Matrix>,
    /// Pre-activation output of each linear layer.
    pre: Vec<Matrix>,
    /// Gradient flowing into the current layer: `∂L/∂output` before a
    /// backward pass, `∂L/∂input` after one that computed it.
    dy: Matrix,
    /// `∂L/∂x` of the layer being processed; swapped with `dy` per layer.
    dx: Matrix,
    /// What `dy` currently holds.
    dy_holds: GradSlot,
    /// Parameter gradients produced by the latest backward pass.
    pub grads: MlpGrads,
}

/// The meaning of [`Workspace`]'s gradient buffer at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum GradSlot {
    /// Nothing usable (a backward pass consumed it without computing
    /// `∂L/∂input`).
    #[default]
    Empty,
    /// `∂L/∂output`, ready for a backward pass.
    OutputGrad,
    /// `∂L/∂input` from the latest backward pass.
    InputGrad,
}

impl Workspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output of the latest [`Mlp::forward_ws`].
    ///
    /// # Panics
    /// Panics if no forward pass has run yet.
    pub fn output(&self) -> &Matrix {
        Self::last(&self.acts)
    }

    /// `∂L/∂input` from the latest backward pass.
    ///
    /// # Panics
    /// Panics unless that pass computed it ([`Mlp::backward_ws`], or
    /// [`Mlp::backprop_ws`] with `input_grad`).
    pub fn input_grad(&self) -> &Matrix {
        assert_eq!(
            self.dy_holds,
            GradSlot::InputGrad,
            "the latest backward pass did not compute ∂L/∂input"
        );
        &self.dy
    }

    /// The `∂L/∂output` buffer the next [`Mlp::backprop_ws`] starts from,
    /// for losses computed outside the workspace. The caller must leave it
    /// shaped like [`Self::output`].
    pub fn output_grad_mut(&mut self) -> &mut Matrix {
        self.dy_holds = GradSlot::OutputGrad;
        &mut self.dy
    }

    /// Mean squared error of [`Self::output`] against `target`
    /// ([`crate::loss::mse`]); `∂L/∂output` stays in the workspace.
    pub fn mse(&mut self, target: &Matrix) -> f64 {
        self.dy_holds = GradSlot::OutputGrad;
        crate::loss::mse_into(Self::last(&self.acts), target, &mut self.dy)
    }

    /// Mean absolute error of [`Self::output`] against `target`
    /// ([`crate::loss::l1`]); `∂L/∂output` stays in the workspace.
    pub fn l1(&mut self, target: &Matrix) -> f64 {
        self.dy_holds = GradSlot::OutputGrad;
        crate::loss::l1_into(Self::last(&self.acts), target, &mut self.dy)
    }

    /// Softmax cross-entropy of [`Self::output`] (logits) against `labels`
    /// ([`crate::loss::softmax_cross_entropy`]); `∂L/∂output` stays in the
    /// workspace.
    pub fn softmax_cross_entropy(&mut self, labels: &[usize]) -> f64 {
        self.dy_holds = GradSlot::OutputGrad;
        crate::loss::softmax_cross_entropy_into(Self::last(&self.acts), labels, &mut self.dy)
    }

    fn last(acts: &[Matrix]) -> &Matrix {
        acts.last()
            .expect("no forward_ws has run on this workspace")
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[20, 128, 128, 8]`
    /// for a 20-input, 8-output network with two hidden layers of 128.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_act,
            out_act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// The activation applied after layer `layer_idx` (the output layer gets
    /// `out_act`, every other layer `hidden_act`). Used by the serving-side
    /// quantizer to mirror the network structure in f32.
    pub fn activation_for(&self, layer_idx: usize) -> Activation {
        self.act_for(layer_idx)
    }

    fn act_for(&self, layer_idx: usize) -> Activation {
        if layer_idx + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    /// Forward pass for a `batch × in_dim` input.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&h);
            h = self.act_for(i).forward(&pre);
        }
        h
    }

    /// Forward pass for a single example.
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        let m = Matrix::from_vec(1, x.len(), x.to_vec());
        self.forward(&m).row(0).to_vec()
    }

    /// Forward pass that retains intermediate activations for backprop.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, ForwardCache) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pres = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(h.clone());
            let pre = layer.forward(&h);
            h = self.act_for(i).forward(&pre);
            pres.push(pre);
        }
        (h, ForwardCache { inputs, pre: pres })
    }

    /// Backward pass. `dout` is `∂L/∂output`; returns parameter gradients.
    pub fn backward(&self, cache: &ForwardCache, dout: &Matrix) -> MlpGrads {
        self.backward_with_input_grad(cache, dout).0
    }

    /// Backward pass that also returns `∂L/∂input`, needed when gradients
    /// must flow through this network into an upstream one (the GAN's
    /// generator update flows through `E` and `D`; paper §3.3).
    pub fn backward_with_input_grad(
        &self,
        cache: &ForwardCache,
        dout: &Matrix,
    ) -> (MlpGrads, Matrix) {
        let mut grads: Vec<Option<LinearGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut dy = dout.clone();
        for i in (0..self.layers.len()).rev() {
            let dpre = self.act_for(i).backward(&cache.pre[i], &dy);
            let (g, dx) = self.layers[i].backward(&cache.inputs[i], &dpre);
            grads[i] = Some(g);
            dy = dx;
        }
        let layers = grads.into_iter().map(Option::unwrap).collect();
        (MlpGrads { layers }, dy)
    }

    /// Forward pass whose intermediates live in `ws` — the allocation-free
    /// counterpart of [`Self::forward_cached`]. Returns the network output
    /// (also reachable later via [`Workspace::output`]).
    pub fn forward_ws<'a>(&self, x: &Matrix, ws: &'a mut Workspace) -> &'a Matrix {
        let n = self.layers.len();
        if ws.acts.len() != n + 1 {
            ws.acts.resize_with(n + 1, Matrix::default);
        }
        if ws.pre.len() != n {
            ws.pre.resize_with(n, Matrix::default);
        }
        ws.acts[0].copy_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(&ws.acts[i], &mut ws.pre[i]);
            ws.acts[i + 1].copy_from(&ws.pre[i]);
            self.act_for(i).forward_inplace(&mut ws.acts[i + 1]);
        }
        &ws.acts[n]
    }

    /// Backward pass over the activations left in `ws` by a preceding
    /// [`Self::forward_ws`] call, from the upstream gradient `dout`.
    /// Parameter gradients land in `ws.grads`; `∂L/∂input` is available from
    /// [`Workspace::input_grad`] afterwards.
    pub fn backward_ws(&self, ws: &mut Workspace, dout: &Matrix) {
        ws.output_grad_mut().copy_from(dout);
        self.backprop_ws(ws, true);
    }

    /// Backward pass from the `∂L/∂output` already in `ws` (written there by
    /// one of its loss methods or through [`Workspace::output_grad_mut`]),
    /// over the activations of the preceding [`Self::forward_ws`].
    /// Parameter gradients land in `ws.grads`. `∂L/∂input` — the first
    /// layer's `dY·W` product — is computed only when `input_grad` is set;
    /// a network at the head of a chain, whose input gradient nobody reads,
    /// skips it.
    ///
    /// # Panics
    /// Panics without a prior forward pass or without `∂L/∂output` in `ws`.
    pub fn backprop_ws(&self, ws: &mut Workspace, input_grad: bool) {
        let n = self.layers.len();
        assert_eq!(ws.pre.len(), n, "backprop_ws requires a prior forward_ws");
        assert_eq!(
            ws.dy_holds,
            GradSlot::OutputGrad,
            "backprop_ws requires ∂L/∂output in the workspace"
        );
        if ws.grads.layers.len() != n {
            ws.grads.layers = self
                .layers
                .iter()
                .map(|_| LinearGrads {
                    dw: Matrix::default(),
                    db: Vec::new(),
                })
                .collect();
        }
        for i in (0..n).rev() {
            self.act_for(i).backward_inplace(&ws.pre[i], &mut ws.dy);
            let dx = (i > 0 || input_grad).then_some(&mut ws.dx);
            let has_dx = dx.is_some();
            self.layers[i].backward_into(&ws.acts[i], &ws.dy, &mut ws.grads.layers[i], dx);
            if has_dx {
                std::mem::swap(&mut ws.dy, &mut ws.dx);
            }
        }
        ws.dy_holds = if input_grad {
            GradSlot::InputGrad
        } else {
            GradSlot::Empty
        };
    }

    /// One epoch of mini-batch MSE training: examples are visited in `order`
    /// (pre-shuffled by the caller, so the caller controls the RNG stream)
    /// in `batch`-sized chunks. Returns the last batch's loss, matching what
    /// the per-module trainers report.
    ///
    /// All per-step matrices — the loss gradient included — come from `ws`
    /// and two batch-staging buffers reused across chunks, so steady-state
    /// epochs allocate nothing. The input gradient is never computed.
    #[allow(clippy::too_many_arguments)]
    pub fn train_epoch<O: crate::optim::Optimizer>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        order: &[usize],
        batch: usize,
        opt: &mut O,
        lr: f64,
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(x.rows(), y.rows(), "example/target count mismatch");
        let mut bx = Matrix::default();
        let mut by = Matrix::default();
        let mut last_loss = 0.0;
        for chunk in order.chunks(batch.max(1)) {
            bx.gather_rows(x, chunk);
            by.gather_rows(y, chunk);
            self.forward_ws(&bx, ws);
            let loss = ws.mse(&by);
            self.backprop_ws(ws, false);
            opt.step(self, &ws.grads, lr);
            last_loss = loss;
        }
        last_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, softmax_cross_entropy};
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::new(
            &[4, 128, 128, 2],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut rng(1),
        );
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        // (4*128+128) + (128*128+128) + (128*2+2)
        assert_eq!(mlp.param_count(), 640 + 16512 + 258);
        let x = Matrix::zeros(5, 4);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn forward_one_matches_forward() {
        let mlp = Mlp::new(
            &[3, 8, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng(2),
        );
        let x = vec![0.1, -0.5, 0.9];
        let single = mlp.forward_one(&x);
        let batch = mlp.forward(&Matrix::from_vec(1, 3, x));
        assert_eq!(single, batch.row(0).to_vec());
    }

    #[test]
    fn full_gradient_check_mse() {
        let mlp = Mlp::new(
            &[2, 5, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(7),
        );
        let x = Matrix::from_rows(&[vec![0.3, -0.6], vec![0.9, 0.1]]);
        let y = Matrix::from_rows(&[vec![1.0], vec![-1.0]]);
        let (out, cache) = mlp.forward_cached(&x);
        let (_, dout) = mse(&out, &y);
        let grads = mlp.backward(&cache, &dout);

        let eps = 1e-6;
        for li in 0..mlp.layers().len() {
            for wi in 0..mlp.layers()[li].w.data().len() {
                let mut mp = mlp.clone();
                mp.layers_mut()[li].w.data_mut()[wi] += eps;
                let mut mm = mlp.clone();
                mm.layers_mut()[li].w.data_mut()[wi] -= eps;
                let fp = mse(&mp.forward(&x), &y).0;
                let fm = mse(&mm.forward(&x), &y).0;
                let num = (fp - fm) / (2.0 * eps);
                let ana = grads.layers[li].dw.data()[wi];
                assert!(
                    (num - ana).abs() < 1e-5,
                    "layer {li} w[{wi}]: {num} vs {ana}"
                );
            }
            for bi in 0..mlp.layers()[li].b.len() {
                let mut mp = mlp.clone();
                mp.layers_mut()[li].b[bi] += eps;
                let mut mm = mlp.clone();
                mm.layers_mut()[li].b[bi] -= eps;
                let fp = mse(&mp.forward(&x), &y).0;
                let fm = mse(&mm.forward(&x), &y).0;
                let num = (fp - fm) / (2.0 * eps);
                let ana = grads.layers[li].db[bi];
                assert!(
                    (num - ana).abs() < 1e-5,
                    "layer {li} b[{bi}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_check_cross_entropy() {
        let mlp = Mlp::new(
            &[3, 6, 3],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut rng(9),
        );
        let x = Matrix::from_rows(&[vec![0.2, 0.4, -0.3]]);
        let labels = vec![1usize];
        let (out, cache) = mlp.forward_cached(&x);
        let (_, dout) = softmax_cross_entropy(&out, &labels);
        let (_, dx) = mlp.backward_with_input_grad(&cache, &dout);

        let eps = 1e-6;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, xp.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, xm.get(0, c) - eps);
            let fp = softmax_cross_entropy(&mlp.forward(&xp), &labels).0;
            let fm = softmax_cross_entropy(&mlp.forward(&xm), &labels).0;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.get(0, c)).abs() < 1e-6,
                "dx[{c}]: {num} vs {}",
                dx.get(0, c)
            );
        }
    }

    #[test]
    fn workspace_path_matches_cached_path_bitwise() {
        let mlp = Mlp::new(
            &[3, 16, 2],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut rng(11),
        );
        let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3], vec![0.5, 0.4, -0.6]]);
        let y = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let (out, cache) = mlp.forward_cached(&x);
        let (_, dout) = mse(&out, &y);
        let (grads, dx) = mlp.backward_with_input_grad(&cache, &dout);

        let mut ws = Workspace::new();
        // Run twice so the second pass exercises warm (reused) buffers.
        for _ in 0..2 {
            assert_eq!(mlp.forward_ws(&x, &mut ws), &out);
            mlp.backward_ws(&mut ws, &dout);
            assert_eq!(ws.input_grad(), &dx);
            for (a, b) in grads.layers.iter().zip(&ws.grads.layers) {
                assert_eq!(a.dw, b.dw);
                assert_eq!(a.db, b.db);
            }
        }
    }

    #[test]
    fn workspace_losses_and_skipped_input_grad_match_allocating_path() {
        let mlp = Mlp::new(
            &[4, 18, 8, 3],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut rng(13),
        );
        let x = Matrix::from_rows(&[
            vec![0.1, -0.2, 0.3, 0.9],
            vec![0.5, 0.4, -0.6, 0.0],
            vec![-0.7, 0.2, 0.8, -0.1],
        ]);
        let t = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, -0.5],
            vec![0.2, 0.3, 0.4],
        ]);
        let labels = [2usize, 0, 1];
        let (out, cache) = mlp.forward_cached(&x);
        type Loss<'a> = (
            &'a dyn Fn(&Matrix) -> (f64, Matrix),
            &'a dyn Fn(&mut Workspace) -> f64,
        );
        let losses: [Loss; 3] = [
            (&|o| mse(o, &t), &|ws| ws.mse(&t)),
            (&|o| crate::loss::l1(o, &t), &|ws| ws.l1(&t)),
            (&|o| softmax_cross_entropy(o, &labels), &|ws| {
                ws.softmax_cross_entropy(&labels)
            }),
        ];
        let mut ws = Workspace::new();
        for (alloc, in_ws) in losses {
            let (loss, dout) = alloc(&out);
            let (grads, dx) = mlp.backward_with_input_grad(&cache, &dout);
            for input_grad in [false, true] {
                mlp.forward_ws(&x, &mut ws);
                assert_eq!(in_ws(&mut ws).to_bits(), loss.to_bits());
                mlp.backprop_ws(&mut ws, input_grad);
                for (a, b) in grads.layers.iter().zip(&ws.grads.layers) {
                    assert_eq!(a.dw, b.dw);
                    assert_eq!(a.db, b.db);
                }
                if input_grad {
                    assert_eq!(ws.input_grad(), &dx);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "did not compute")]
    fn input_grad_refuses_a_skipped_gradient() {
        let mlp = Mlp::new(
            &[2, 3, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(4),
        );
        let mut ws = Workspace::new();
        mlp.forward_ws(&Matrix::from_rows(&[vec![1.0, 2.0]]), &mut ws);
        ws.mse(&Matrix::from_rows(&[vec![0.5]]));
        mlp.backprop_ws(&mut ws, false);
        let _ = ws.input_grad();
    }

    #[test]
    fn train_epoch_matches_manual_loop() {
        let (mut m1, x, y) = {
            let mlp = Mlp::new(
                &[2, 8, 1],
                Activation::Tanh,
                Activation::Identity,
                &mut rng(5),
            );
            let x = Matrix::from_rows(&[
                vec![0.0, 0.1],
                vec![1.0, 0.4],
                vec![0.3, 0.9],
                vec![0.7, 0.2],
            ]);
            let y = Matrix::from_rows(&[vec![0.1], vec![1.4], vec![1.2], vec![0.9]]);
            (mlp, x, y)
        };
        let mut m2 = m1.clone();
        let order = [2usize, 0, 3, 1];
        let batch = 3;

        let mut opt1 = crate::optim::Sgd::new();
        let mut ws = Workspace::new();
        let mut last_ws = 0.0;
        for _ in 0..5 {
            last_ws = m1.train_epoch(&x, &y, &order, batch, &mut opt1, 0.05, &mut ws);
        }

        let mut opt2 = crate::optim::Sgd::new();
        let mut last_manual = 0.0;
        for _ in 0..5 {
            for chunk in order.chunks(batch) {
                let bx = Matrix::from_rows(
                    &chunk.iter().map(|&i| x.row(i).to_vec()).collect::<Vec<_>>(),
                );
                let by = Matrix::from_rows(
                    &chunk.iter().map(|&i| y.row(i).to_vec()).collect::<Vec<_>>(),
                );
                let (out, cache) = m2.forward_cached(&bx);
                let (loss, dout) = mse(&out, &by);
                let grads = m2.backward(&cache, &dout);
                crate::optim::Optimizer::step(&mut opt2, &mut m2, &grads, 0.05);
                last_manual = loss;
            }
        }
        assert_eq!(last_ws, last_manual);
        for (l1, l2) in m1.layers().iter().zip(m2.layers()) {
            assert_eq!(l1.w, l2.w);
            assert_eq!(l1.b, l2.b);
        }
    }

    #[test]
    fn grads_add_and_scale() {
        let mlp = Mlp::new(
            &[2, 3, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(4),
        );
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let y = Matrix::from_rows(&[vec![0.5]]);
        let (out, cache) = mlp.forward_cached(&x);
        let (_, dout) = mse(&out, &y);
        let g1 = mlp.backward(&cache, &dout);
        let mut g2 = g1.clone();
        g2.add(&g1);
        g2.scale(0.5);
        for (a, b) in g1.layers.iter().zip(&g2.layers) {
            assert!((&a.dw - &b.dw).frobenius_norm() < 1e-12);
        }
    }
}
