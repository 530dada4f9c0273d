//! Loss kernels: softmax cross-entropy and accuracy. (ReLU is two
//! elementwise loops in `dlion_nn::layer::Relu`, over arena buffers.)

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax needs rank-2 logits");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut out = logits.clone();
    for r in 0..n {
        let row = &mut out.data_mut()[r * c..(r + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Softmax cross-entropy with integer labels.
///
/// Returns `(mean_loss, dlogits)` where `dlogits = (softmax - onehot)/N` —
/// the mean-reduced gradient matching Eq. 2 of the paper (gradients are
/// averaged over the minibatch).
pub fn softmax_xent(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2);
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "labels/batch mismatch");
    let probs = softmax_rows(logits);
    let mut dlogits = probs.clone();
    let mut loss = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range (classes {c})");
        let p = probs.at(&[r, y]).max(1e-12);
        loss += -(p as f64).ln();
        *dlogits.at_mut(&[r, y]) -= 1.0;
    }
    dlogits.scale(inv_n);
    ((loss / n as f64) as f32, dlogits)
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.shape().rank(), 2);
    let n = logits.shape().dim(0);
    assert_eq!(labels.len(), n);
    if n == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &y)| logits.argmax_row(r) == y)
        .count();
    correct as f64 / n as f64
}

/// One-hot encode labels into an `N×C` tensor.
pub fn one_hot(labels: &[usize], classes: usize) -> Tensor {
    let mut t = Tensor::zeros(Shape::d2(labels.len(), classes));
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < classes);
        *t.at_mut(&[r, y]) = 1.0;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let logits = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
        assert!(p.at(&[0, 2]) > p.at(&[0, 1]) && p.at(&[0, 1]) > p.at(&[0, 0]));
        // Large logits must not produce NaN (stability).
        assert!(!p.has_non_finite());
        assert!((p.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn xent_uniform_logits_loss_is_ln_c() {
        let logits = Tensor::zeros(Shape::d2(4, 10));
        let labels = vec![0, 3, 7, 9];
        let (loss, _) = softmax_xent(&logits, &labels);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn xent_gradient_matches_numerical() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(31);
        let logits = Tensor::randn(Shape::d2(3, 5), 1.0, &mut rng);
        let labels = vec![1, 4, 0];
        let (_, grad) = softmax_xent(&logits, &labels);
        let eps = 1e-3;
        let mut lp = logits.clone();
        for i in 0..logits.numel() {
            let orig = lp.data()[i];
            lp.data_mut()[i] = orig + eps;
            let (fp, _) = softmax_xent(&lp, &labels);
            lp.data_mut()[i] = orig - eps;
            let (fm, _) = softmax_xent(&lp, &labels);
            lp.data_mut()[i] = orig;
            let ng = (fp - fm) / (2.0 * eps);
            assert!(
                (grad.data()[i] - ng).abs() < 1e-3,
                "idx {i}: {} vs {ng}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn xent_gradient_rows_sum_to_zero() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(32);
        let logits = Tensor::randn(Shape::d2(4, 6), 2.0, &mut rng);
        let labels = vec![0, 1, 2, 3];
        let (_, grad) = softmax_xent(&logits, &labels);
        for r in 0..4 {
            let s: f32 = grad.data()[r * 6..(r + 1) * 6].iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sums to {s}");
        }
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(Shape::d2(3, 2), vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn one_hot_encoding() {
        let t = one_hot(&[2, 0], 3);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn xent_bad_label_panics() {
        let logits = Tensor::zeros(Shape::d2(1, 3));
        softmax_xent(&logits, &[5]);
    }
}
