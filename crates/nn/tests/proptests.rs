//! Property-based tests for the NN substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_linalg::Matrix;
use warper_nn::tree::{RegressionTree, TreeParams};
use warper_nn::{Activation, GbtParams, GradientBoostedTrees, Mlp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mlp_forward_is_finite_on_bounded_inputs(
        seed in 0u64..1000,
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 5), 1..20),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[5, 16, 8, 2], Activation::LeakyRelu(0.01), Activation::Identity, &mut rng);
        let out = mlp.forward(&Matrix::from_rows(&rows));
        prop_assert!(out.is_finite());
        prop_assert_eq!(out.rows(), rows.len());
        prop_assert_eq!(out.cols(), 2);
    }

    #[test]
    fn tree_predictions_bounded_by_target_range(
        data in prop::collection::vec((0.0f64..100.0, -50.0f64..50.0), 10..100),
    ) {
        let x: Vec<Vec<f64>> = data.iter().map(|d| vec![d.0]).collect();
        let y: Vec<f64> = data.iter().map(|d| d.1).collect();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default());
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for xi in &x {
            let p = tree.predict_one(xi);
            // Leaf values are means of subsets → inside the target range.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    #[test]
    fn gbt_never_worse_than_constant_on_train(
        data in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 20..80),
    ) {
        let x: Vec<Vec<f64>> = data.iter().map(|d| vec![d.0]).collect();
        let y: Vec<f64> = data.iter().map(|d| d.1).collect();
        let model = GradientBoostedTrees::fit(
            &x,
            &y,
            &GbtParams { n_trees: 30, learning_rate: 0.2, ..Default::default() },
        );
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let sse_const: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
        let sse_model: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (model.predict_one(xi) - yi).powi(2))
            .sum();
        // Squared-loss boosting from the mean can only reduce train SSE.
        prop_assert!(sse_model <= sse_const + 1e-6);
    }

    #[test]
    fn activations_preserve_shape_and_finiteness(
        values in prop::collection::vec(-50.0f64..50.0, 1..30),
    ) {
        let m = Matrix::from_vec(1, values.len(), values);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let out = act.forward(&m);
            prop_assert_eq!(out.cols(), m.cols());
            prop_assert!(out.is_finite());
        }
    }

    #[test]
    fn softmax_cross_entropy_nonnegative(
        logits in prop::collection::vec(prop::collection::vec(-20.0f64..20.0, 3), 1..10),
        label in 0usize..3,
    ) {
        let m = Matrix::from_rows(&logits);
        let labels = vec![label; logits.len()];
        let (loss, grad) = warper_nn::loss::softmax_cross_entropy(&m, &labels);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.is_finite());
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..grad.rows() {
            let s: f64 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-9);
        }
    }
}

/// Scalar, index-based Adam (β₁ 0.9, β₂ 0.999, ε 1e-8) over one parameter
/// slice: the per-element operation order `Adam::step` must reproduce.
fn reference_adam(w: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64], lr: f64, t: u64) {
    let bc1 = 1.0 - 0.9f64.powf(t as f64);
    let bc2 = 1.0 - 0.999f64.powf(t as f64);
    for i in 0..w.len() {
        m[i] = 0.9 * m[i] + (1.0 - 0.9) * g[i];
        v[i] = 0.999 * v[i] + (1.0 - 0.999) * g[i] * g[i];
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        w[i] -= lr * mhat / (vhat.sqrt() + 1e-8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `train_epoch` (workspace losses, skipped input gradient, vectorized
    /// Adam) trains the same bits as the allocating forward/backward path
    /// stepped by a scalar Adam loop.
    #[test]
    fn train_epoch_with_adam_matches_scalar_reference(
        seed in 0u64..10_000,
        widths in (1usize..24, 1usize..40, 1usize..20),
        batch in 1usize..40,
        examples in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [widths.0, widths.1, widths.2, 1];
        let mut net = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let mut reference = net.clone();
        let x = Matrix::from_vec(
            examples,
            widths.0,
            (0..examples * widths.0).map(|i| ((i as f64) * 0.37 + seed as f64).sin()).collect(),
        );
        let y = Matrix::from_vec(
            examples,
            1,
            (0..examples).map(|i| ((i as f64) * 1.3).cos() * 3.0).collect(),
        );
        let order: Vec<usize> = (0..examples).rev().collect();

        let mut opt = warper_nn::Adam::new();
        let mut ws = warper_nn::Workspace::new();
        let mut moments: Vec<[Vec<f64>; 4]> = reference
            .layers()
            .iter()
            .map(|l| {
                let (nw, nb) = (l.w.data().len(), l.b.len());
                [vec![0.0; nw], vec![0.0; nw], vec![0.0; nb], vec![0.0; nb]]
            })
            .collect();
        let mut t = 0;
        for epoch in 0..3 {
            let lr = 1e-2 / (1 + epoch) as f64;
            net.train_epoch(&x, &y, &order, batch, &mut opt, lr, &mut ws);
            for chunk in order.chunks(batch) {
                let bx = Matrix::from_rows(&chunk.iter().map(|&i| x.row(i).to_vec()).collect::<Vec<_>>());
                let by = Matrix::from_rows(&chunk.iter().map(|&i| y.row(i).to_vec()).collect::<Vec<_>>());
                let (out, cache) = reference.forward_cached(&bx);
                let (_, dout) = warper_nn::loss::mse(&out, &by);
                let grads = reference.backward(&cache, &dout);
                t += 1;
                for ((layer, g), [mw, vw, mb, vb]) in reference
                    .layers_mut()
                    .iter_mut()
                    .zip(&grads.layers)
                    .zip(moments.iter_mut())
                {
                    reference_adam(layer.w.data_mut(), mw, vw, g.dw.data(), lr, t);
                    reference_adam(&mut layer.b, mb, vb, &g.db, lr, t);
                }
            }
        }
        for (a, b) in net.layers().iter().zip(reference.layers()) {
            prop_assert_eq!(&a.w, &b.w);
            prop_assert_eq!(&a.b, &b.b);
        }
    }
}
