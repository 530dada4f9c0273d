//! Order statistics for repeated timings.
//!
//! Single-shot wall times on the sandbox host do not repeat within a tenth
//! (see README "Noise"), so every timed region is repeated in-process and
//! summarized here. [`quartiles`] mirrors Python's
//! `statistics.quantiles(values, n=4)` so `stackbench compare` computes the
//! same inter-quartile spread the acceptance driver does.

use dlion_tensor::stats::{mean, percentile};

/// Median of `xs` (mean of the two middle values for even counts; 0 for no
/// samples, so a run too short to produce one reports 0 for that row
/// instead of aborting the whole benchmark).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    s
}

/// `(q1, q2, q3)` by Python's default "exclusive" method: cut point `i`
/// sits at rank `i·(n+1)/4`, linearly interpolated, clamped to the data.
/// Needs at least two samples (like `statistics.quantiles`).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let s = sorted(xs);
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 after clamping — that is the method's
        // extrapolation past the last interval, kept for parity.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance driver holds against a metric's bound.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Mean of `xs` without its smallest and largest value (plain mean below
/// three samples). Used for set-up time, which is bimodal where the program
/// polls with a sleep (TCP accept): the median of such samples jumps
/// between the modes from run to run, the mean moves with their mix, and
/// dropping the extremes keeps one host hiccup out of it.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    mean(if s.len() >= 3 { &s[1..s.len() - 1] } else { &s })
}

/// A tail percentile backed by enough samples to mean something.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in (0, 100).
    pub pct: f64,
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub n: usize,
}

/// The highest percentile, capped at the 99th, that still has at least ten
/// samples beyond it; with fewer than 21 samples no percentile above the
/// median qualifies and the median itself is returned (`pct = 50`; 0 for
/// no samples, like [`median`]).
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n < 21 {
        return Tail {
            pct: 50.0,
            value: median(xs),
            n,
        };
    }
    // Index of the 99th percentile (nearest rank), pulled down until ten
    // samples lie strictly beyond it.
    let p99 = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = p99.min(n - 11);
    Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: s[idx],
        n,
    }
}

/// Five-number summary carried next to every reported median.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summary(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let (q1, q2, q3) = if s.len() >= 2 {
        quartiles(&s)
    } else {
        (s[0], s[0], s[0])
    };
    Summary {
        n: s.len(),
        min: s[0],
        q1,
        median: q2,
        q3,
        max: s[s.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0]), (12.5, 30.0, 70.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: nothing above the median has ten beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 50.0);
        assert_eq!(tail(&xs).value, 10.5);
        // 100 samples: p99 has one beyond; the rule pulls down to rank 90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 2000 samples: the 99th percentile has twenty beyond it and wins.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 1980.0);
        assert!((t.pct - 99.0).abs() < 1e-9);
        assert_eq!(t.n, 2000);
    }

    #[test]
    fn trimmed_mean_drops_one_sample_at_each_end() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 0.0]), 2.0);
        assert_eq!(trimmed_mean(&[4.0, 10.0]), 7.0);
        // Bimodal samples: the value follows the mix of the modes.
        assert_eq!(trimmed_mean(&[4.0, 4.0, 4.0, 10.0, 10.0, 10.0]), 7.0);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!(summary(&[7.0]).q3, 7.0);
    }
}
