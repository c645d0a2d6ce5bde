//! Optimizers and the paper's learning-rate schedule.

use warper_linalg::Matrix;

use crate::mlp::{Mlp, MlpGrads};

/// The paper's schedule (§3.5): a base learning rate of `1e-3` with
/// "half-decay after every 10 epochs".
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct LrSchedule {
    /// Learning rate at epoch 0.
    pub base: f64,
    /// Halve the rate every this many epochs. Zero disables decay.
    pub half_every: usize,
}

impl LrSchedule {
    /// The paper's default: 1e-3 halved every 10 epochs.
    pub fn paper_default() -> Self {
        Self {
            base: 1e-3,
            half_every: 10,
        }
    }

    /// A constant learning rate.
    pub fn constant(base: f64) -> Self {
        Self {
            base,
            half_every: 0,
        }
    }

    /// Learning rate at `epoch`.
    pub fn lr(&self, epoch: usize) -> f64 {
        if self.half_every == 0 {
            return self.base;
        }
        self.base * 0.5_f64.powi((epoch / self.half_every) as i32)
    }
}

/// A first-order optimizer stepping an [`Mlp`]'s parameters.
pub trait Optimizer {
    /// Applies one update with the given learning rate.
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrads, lr: f64);

    /// Resets internal state (moment estimates); used when a model is
    /// re-trained from scratch.
    fn reset(&mut self);
}

/// Plain stochastic gradient descent, optionally with momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    momentum: f64,
    velocity: Option<Vec<(Matrix, Vec<f64>)>>,
}

impl Sgd {
    /// SGD without momentum.
    pub fn new() -> Self {
        Self {
            momentum: 0.0,
            velocity: None,
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(momentum: f64) -> Self {
        Self {
            momentum,
            velocity: None,
        }
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrads, lr: f64) {
        if self.momentum == 0.0 {
            for (layer, g) in model.layers_mut().iter_mut().zip(&grads.layers) {
                layer.w.axpy(-lr, &g.dw);
                for (b, db) in layer.b.iter_mut().zip(&g.db) {
                    *b -= lr * db;
                }
            }
            return;
        }
        let velocity = self.velocity.get_or_insert_with(|| {
            model
                .layers()
                .iter()
                .map(|l| (Matrix::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()]))
                .collect()
        });
        for ((layer, g), (vw, vb)) in model
            .layers_mut()
            .iter_mut()
            .zip(&grads.layers)
            .zip(velocity.iter_mut())
        {
            vw.scale_inplace(self.momentum);
            vw.axpy(1.0, &g.dw);
            layer.w.axpy(-lr, vw);
            for ((b, db), v) in layer.b.iter_mut().zip(&g.db).zip(vb.iter_mut()) {
                *v = self.momentum * *v + db;
                *b -= lr * *v;
            }
        }
    }

    fn reset(&mut self) {
        self.velocity = None;
    }
}

/// Adam (Kingma & Ba) with the standard defaults β₁=0.9, β₂=0.999, ε=1e-8.
#[derive(Debug, Clone)]
pub struct Adam {
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    moments: Option<Vec<AdamLayerState>>,
}

#[derive(Debug, Clone)]
struct AdamLayerState {
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Adam {
    /// Adam with standard hyperparameters.
    pub fn new() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: None,
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

/// The constants of one Adam step.
struct AdamStep {
    beta1: f64,
    beta2: f64,
    eps: f64,
    lr: f64,
    /// Bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ`.
    bc1: f64,
    bc2: f64,
}

impl AdamStep {
    /// Updates parameters `w` and their moments `m`, `v` from gradient `g`.
    ///
    /// The loop runs over zipped slices, with no index and no bounds check,
    /// so it vectorizes. Each element still gets exactly the scalar
    /// operation sequence — `m̂ = m / bc1` and `v̂ = v / bc2` are true
    /// divisions, not multiplies by a reciprocal, and no `mul_add` — so the
    /// update is bit-identical at any SIMD width (DESIGN §3.7).
    fn apply(&self, w: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64]) {
        assert_eq!(g.len(), w.len(), "gradient/parameter length mismatch");
        let (one_m_b1, one_m_b2) = (1.0 - self.beta1, 1.0 - self.beta2);
        for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
            *m = self.beta1 * *m + one_m_b1 * g;
            *v = self.beta2 * *v + one_m_b2 * g * g;
            let mhat = *m / self.bc1;
            let vhat = *v / self.bc2;
            *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut Mlp, grads: &MlpGrads, lr: f64) {
        let moments = self.moments.get_or_insert_with(|| {
            model
                .layers()
                .iter()
                .map(|l| AdamLayerState {
                    mw: Matrix::zeros(l.w.rows(), l.w.cols()),
                    vw: Matrix::zeros(l.w.rows(), l.w.cols()),
                    mb: vec![0.0; l.b.len()],
                    vb: vec![0.0; l.b.len()],
                })
                .collect()
        });
        self.t += 1;
        let t = self.t as f64;
        let c = AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            lr,
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        };
        for ((layer, g), st) in model
            .layers_mut()
            .iter_mut()
            .zip(&grads.layers)
            .zip(moments.iter_mut())
        {
            c.apply(
                layer.w.data_mut(),
                st.mw.data_mut(),
                st.vw.data_mut(),
                g.dw.data(),
            );
            c.apply(&mut layer.b, &mut st.mb, &mut st.vb, &g.db);
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.moments = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::loss::mse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_halves() {
        let s = LrSchedule::paper_default();
        assert_eq!(s.lr(0), 1e-3);
        assert_eq!(s.lr(9), 1e-3);
        assert_eq!(s.lr(10), 5e-4);
        assert_eq!(s.lr(20), 2.5e-4);
        let c = LrSchedule::constant(0.01);
        assert_eq!(c.lr(1000), 0.01);
    }

    fn tiny_problem() -> (Mlp, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        // Learn y = x0 + x1 on a few points.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
            vec![1.0, 1.0],
        ]);
        let y = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![1.0], vec![2.0]]);
        (mlp, x, y)
    }

    fn train_loss(opt: &mut dyn Optimizer, iters: usize, lr: f64) -> f64 {
        let (mut mlp, x, y) = tiny_problem();
        let mut last = f64::INFINITY;
        for _ in 0..iters {
            let (out, cache) = mlp.forward_cached(&x);
            let (loss, dout) = mse(&out, &y);
            let grads = mlp.backward(&cache, &dout);
            opt.step(&mut mlp, &grads, lr);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_reduces_loss() {
        let before = {
            let (mlp, x, y) = tiny_problem();
            mse(&mlp.forward(&x), &y).0
        };
        let after = train_loss(&mut Sgd::new(), 500, 0.05);
        assert!(after < before * 0.2, "before {before}, after {after}");
    }

    #[test]
    fn momentum_and_adam_converge() {
        let a = train_loss(&mut Sgd::with_momentum(0.9), 300, 0.02);
        let b = train_loss(&mut Adam::new(), 300, 0.01);
        assert!(a < 0.05, "momentum loss {a}");
        assert!(b < 0.05, "adam loss {b}");
    }

    /// The scalar, index-based Adam loop `Adam::step` must match bit for
    /// bit: per element `m`, `v`, `m̂ = m / bc1`, `v̂ = v / bc2`, then
    /// `w -= lr · m̂ / (√v̂ + ε)`, in exactly this operation order.
    fn reference_adam_step(
        w: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        g: &[f64],
        lr: f64,
        t: u64,
    ) {
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - f64::powf(beta1, t as f64);
        let bc2 = 1.0 - f64::powf(beta2, t as f64);
        for i in 0..w.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            w[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    #[test]
    fn adam_step_matches_scalar_reference_bitwise() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        // Widths that leave ragged tails for any SIMD lane count.
        let mut mlp = Mlp::new(
            &[7, 33, 18, 1],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut rng,
        );
        let mut reference: Vec<(Vec<f64>, Vec<f64>)> = mlp
            .layers()
            .iter()
            .map(|l| (l.w.data().to_vec(), l.b.clone()))
            .collect();
        let mut moments: Vec<[Vec<f64>; 4]> = reference
            .iter()
            .map(|(w, b)| {
                [
                    vec![0.0; w.len()],
                    vec![0.0; w.len()],
                    vec![0.0; b.len()],
                    vec![0.0; b.len()],
                ]
            })
            .collect();
        let mut adam = Adam::new();
        for t in 1..=25u64 {
            let grads = MlpGrads {
                layers: mlp
                    .layers()
                    .iter()
                    .map(|l| crate::layer::LinearGrads {
                        dw: Matrix::from_vec(
                            l.w.rows(),
                            l.w.cols(),
                            (0..l.w.data().len())
                                .map(|_| rng.random_range(-2.0..2.0))
                                .collect(),
                        ),
                        db: (0..l.b.len())
                            .map(|_| rng.random_range(-2.0..2.0))
                            .collect(),
                    })
                    .collect(),
            };
            let lr = 1e-3 * 0.5_f64.powi((t / 10) as i32);
            adam.step(&mut mlp, &grads, lr);
            for (((w, b), [mw, vw, mb, vb]), g) in reference
                .iter_mut()
                .zip(moments.iter_mut())
                .zip(&grads.layers)
            {
                reference_adam_step(w, mw, vw, g.dw.data(), lr, t);
                reference_adam_step(b, mb, vb, &g.db, lr, t);
            }
            for (layer, (w, b)) in mlp.layers().iter().zip(&reference) {
                assert_eq!(layer.w.data(), w.as_slice(), "weights at t={t}");
                assert_eq!(&layer.b, b, "biases at t={t}");
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut adam = Adam::new();
        let _ = train_loss(&mut adam, 5, 0.01);
        adam.reset();
        assert!(adam.moments.is_none());
        assert_eq!(adam.t, 0);
    }
}
