//! Small statistics helpers.
//!
//! The LBS controller profiles each worker by fitting a line through
//! (local batch size, iteration time) samples — [`linear_fit`] is that
//! regression. Experiment harnesses use [`mean`]/[`std_dev`]/[`ci95`] to
//! report the paper-style "average of three runs with 95 % confidence
//! interval" rows.

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (0 for < 2 samples).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample (Bessel-corrected) standard deviation (0 for < 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Half-width of the normal-approximation 95 % confidence interval of the
/// mean (`1.96 * s / sqrt(n)`).
pub fn ci95(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Ordinary least-squares line fit: returns `(intercept, slope)` minimizing
/// `sum (y - (a + b x))^2`.
///
/// Degenerate inputs (fewer than two points, or zero x-variance) return a
/// flat line through the mean.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "linear_fit input length mismatch");
    let n = xs.len();
    if n < 2 {
        return (mean(ys), 0.0);
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        sxx += dx * dx;
        sxy += dx * (ys[i] - my);
    }
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// Linear interpolated percentile in `[0, 100]` of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0) / 100.0;
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn ci95_scaling() {
        let xs = [1.0, 2.0, 3.0];
        let expected = 1.96 * std_dev(&xs) / 3.0f64.sqrt();
        assert!((ci95(&xs) - expected).abs() < 1e-12);
        assert_eq!(ci95(&[5.0]), 0.0);
    }

    #[test]
    fn linear_fit_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = linear_fit(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_noisy_line_recovers_slope() {
        // Deterministic "noise".
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let (a, b) = linear_fit(&xs, &ys);
        assert!((b - 0.5).abs() < 0.01, "slope {b}");
        assert!((a - 1.0).abs() < 0.15, "intercept {a}");
    }

    #[test]
    fn linear_fit_degenerate() {
        assert_eq!(linear_fit(&[], &[]), (0.0, 0.0));
        assert_eq!(linear_fit(&[1.0], &[5.0]), (5.0, 0.0));
        // Zero x-variance.
        let (a, b) = linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!((a, b), (2.0, 0.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 15.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 50.0), 35.0);
        assert_eq!(percentile(&xs, 25.0), 20.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
