//! Loss functions with analytic gradients.
//!
//! All losses are **mean-reduced over the batch** so learning rates are
//! independent of batch size; the layer backward passes in
//! [`crate::layer::Linear::backward`] accumulate raw sums, so the `1/n`
//! factor lives here, in the initial gradient.

use warper_linalg::Matrix;

/// Mean squared error. Returns `(loss, ∂L/∂pred)`.
///
/// Used to train the LM regression models on `log(card + 1)` targets.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let mut grad = Matrix::default();
    let loss = mse_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`mse`] writing `∂L/∂pred` into `grad`, reusing its buffer.
pub fn mse_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f64 {
    assert_eq!((pred.rows(), pred.cols()), (target.rows(), target.cols()));
    let n = (pred.rows() * pred.cols()).max(1) as f64;
    grad.ensure_shape(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    loss / n
}

/// Mean absolute (L1) error. Returns `(loss, ∂L/∂pred)`.
///
/// The paper's auto-encoder reconstruction loss `L_AE = |q - q̂|` (Eq. 1).
/// The subgradient at zero is taken as 0.
pub fn l1(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let mut grad = Matrix::default();
    let loss = l1_into(pred, target, &mut grad);
    (loss, grad)
}

/// [`l1`] writing `∂L/∂pred` into `grad`, reusing its buffer.
pub fn l1_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f64 {
    assert_eq!((pred.rows(), pred.cols()), (target.rows(), target.cols()));
    let n = (pred.rows() * pred.cols()).max(1) as f64;
    grad.ensure_shape(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d.abs();
        *g = if d == 0.0 { 0.0 } else { d.signum() / n };
    }
    loss / n
}

/// Row-wise softmax of a logits matrix.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_inplace(&mut out);
    out
}

/// Row-wise softmax, in place.
fn softmax_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax cross-entropy against integer class labels.
///
/// Returns `(mean loss, ∂L/∂logits)`. This is the discriminator loss
/// `L_discr = CrossEntropy(l, l_d)` and, with the target class forced to
/// `new`, the generator loss `L_gen` of paper §3.3.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    let mut grad = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] writing `∂L/∂logits` into `grad`, reusing its
/// buffer (the softmax is computed in place there).
pub fn softmax_cross_entropy_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "label count mismatch");
    grad.copy_from(logits);
    softmax_inplace(grad);
    let n = logits.rows().max(1) as f64;
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let g = grad.row_mut(r);
        loss -= g[label].max(1e-300).ln();
        g[label] -= 1.0;
        for v in g.iter_mut() {
            *v /= n;
        }
    }
    loss / n
}

/// Per-row entropy of a probability matrix (rows must sum to 1).
///
/// Used by the entropy-based active-learning picker ablation (paper §4.3).
pub fn row_entropy(probs: &Matrix) -> Vec<f64> {
    (0..probs.rows())
        .map(|r| {
            probs
                .row(r)
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_perfect_prediction_is_zero() {
        let p = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let (loss, grad) = mse(&p, &p);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_known_value_and_grad() {
        let p = Matrix::from_vec(2, 1, vec![3.0, 0.0]);
        let t = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let (loss, grad) = mse(&p, &t);
        assert!((loss - 2.0).abs() < 1e-12); // (4 + 0) / 2
        assert!((grad.get(0, 0) - 2.0).abs() < 1e-12); // 2*2/2
        assert_eq!(grad.get(1, 0), 0.0);
    }

    #[test]
    fn l1_known_value_and_grad() {
        let p = Matrix::from_vec(1, 2, vec![3.0, -1.0]);
        let t = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let (loss, grad) = l1(&p, &t);
        assert!((loss - 1.0).abs() < 1e-12); // (2 + 0) / 2
        assert!((grad.get(0, 0) - 0.5).abs() < 1e-12);
        assert_eq!(grad.get(0, 1), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for c in 0..3 {
            assert!((pa.get(0, c) - pb.get(0, c)).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = vec![2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp.set(r, c, lp.get(r, c) + eps);
                let mut lm = logits.clone();
                lm.set(r, c, lm.get(r, c) - eps);
                let (fp, _) = softmax_cross_entropy(&lp, &labels);
                let (fm, _) = softmax_cross_entropy(&lm, &labels);
                let num = (fp - fm) / (2.0 * eps);
                assert!(
                    (num - grad.get(r, c)).abs() < 1e-6,
                    "grad[{r},{c}]: {num} vs {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let logits = Matrix::from_vec(1, 3, vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        let (loss_wrong, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss_wrong > 10.0);
    }

    #[test]
    fn entropy_uniform_is_max() {
        let uniform = Matrix::from_vec(1, 3, vec![1.0 / 3.0; 3]);
        let peaked = Matrix::from_vec(1, 3, vec![0.98, 0.01, 0.01]);
        let eu = row_entropy(&uniform)[0];
        let ep = row_entropy(&peaked)[0];
        assert!((eu - 3.0_f64.ln()).abs() < 1e-12);
        assert!(ep < eu);
    }
}
