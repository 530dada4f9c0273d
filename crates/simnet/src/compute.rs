//! The micro-cloud compute model.
//!
//! Each worker has a capacity schedule in "capacity units" — CPU cores for
//! the local cluster (Table 3's 24/24/12/12/6/6 patterns), or GPU-scaled
//! units for the Amazon cluster — the analogue of the paper's `stress`-based
//! emulation. Iteration time follows
//!
//! ```text
//! iter_time(w, lbs, t) = overhead
//!     + cost_per_sample * REF_LBS * (lbs / REF_LBS)^batch_exponent / capacity(w, t)
//! ```
//!
//! `cost_per_sample` is the per-sample cost at the reference batch size
//! [`REF_LBS`]; `batch_exponent <= 1` captures batching efficiency — real
//! training hardware processes large batches at better per-sample
//! throughput (vectorization, cache reuse, GPU occupancy), which is exactly
//! the data-parallelism headroom DLion's dynamic batching exploits (§3.2).
//! An exponent of 1 gives the plain linear law.
//!
//! [`ComputeModel::profile`] produces the noisy `(lbs, time)` samples that
//! the LBS controller regresses to estimate each worker's relative compute
//! power (§3.2), mirroring how the real system measures rather than reads
//! hardware specs.

use crate::schedule::PiecewiseConst;
use dlion_tensor::DetRng;

/// Reference batch size at which `cost_per_sample` is calibrated.
pub const REF_LBS: f64 = 32.0;

/// Per-worker compute capacity schedules plus the workload's cost law.
pub struct ComputeModel {
    capacity: Vec<PiecewiseConst>,
    /// Core-seconds of compute per training sample at [`REF_LBS`].
    cost_per_sample: f64,
    /// Fixed per-iteration overhead in seconds (framework + update costs).
    overhead: f64,
    /// Batch-scaling exponent in (0, 1]; 1 = linear.
    batch_exponent: f64,
}

impl ComputeModel {
    pub fn new(capacity: Vec<PiecewiseConst>, cost_per_sample: f64, overhead: f64) -> Self {
        assert!(!capacity.is_empty());
        assert!(cost_per_sample > 0.0 && overhead >= 0.0);
        ComputeModel {
            capacity,
            cost_per_sample,
            overhead,
            batch_exponent: 1.0,
        }
    }

    /// Set the batch-scaling exponent (see module docs).
    pub fn with_batch_exponent(mut self, beta: f64) -> Self {
        assert!(
            beta > 0.0 && beta <= 1.0,
            "batch exponent must be in (0, 1]"
        );
        self.batch_exponent = beta;
        self
    }

    pub fn batch_exponent(&self) -> f64 {
        self.batch_exponent
    }

    /// Homogeneous cluster of `n` workers with `units` capacity each.
    pub fn homogeneous(n: usize, units: f64, cost_per_sample: f64, overhead: f64) -> Self {
        ComputeModel::new(
            vec![PiecewiseConst::constant(units); n],
            cost_per_sample,
            overhead,
        )
    }

    /// Heterogeneous cluster from constant per-worker capacities.
    pub fn heterogeneous(units: &[f64], cost_per_sample: f64, overhead: f64) -> Self {
        ComputeModel::new(
            units.iter().map(|&u| PiecewiseConst::constant(u)).collect(),
            cost_per_sample,
            overhead,
        )
    }

    pub fn n(&self) -> usize {
        self.capacity.len()
    }

    pub fn cost_per_sample(&self) -> f64 {
        self.cost_per_sample
    }

    pub fn overhead(&self) -> f64 {
        self.overhead
    }

    /// Capacity units of worker `w` at time `t`.
    pub fn capacity_at(&self, w: usize, t: f64) -> f64 {
        self.capacity[w].value_at(t)
    }

    /// Multiply one worker's capacity schedule by a dimensionless factor
    /// schedule (a scenario's diurnal wave, an outage window, ...).
    pub fn scale_capacity(&mut self, w: usize, factor: &PiecewiseConst) {
        self.capacity[w] = self.capacity[w].product_with(factor);
    }

    /// Time for worker `w` to execute one iteration over `lbs` samples
    /// starting at time `t` (capacity sampled at iteration start).
    pub fn iter_time(&self, w: usize, lbs: usize, t: f64) -> f64 {
        let cap = self.capacity_at(w, t);
        assert!(cap > 0.0, "worker {w} has zero capacity at t={t}");
        let effective = REF_LBS * (lbs as f64 / REF_LBS).powf(self.batch_exponent);
        self.overhead + effective * self.cost_per_sample / cap
    }

    /// Profile worker `w` at time `t`: measured `(lbs, seconds)` pairs with
    /// multiplicative measurement noise of relative std `noise`.
    pub fn profile(
        &self,
        w: usize,
        lbs_values: &[usize],
        t: f64,
        noise: f64,
        rng: &mut DetRng,
    ) -> Vec<(f64, f64)> {
        assert!(noise >= 0.0);
        lbs_values
            .iter()
            .map(|&lbs| {
                let base = self.iter_time(w, lbs, t);
                let factor = (1.0 + rng.normal_ms(0.0, noise)).max(0.1);
                (lbs as f64, base * factor)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_time_linear_in_lbs() {
        let cm = ComputeModel::homogeneous(2, 24.0, 1.425, 0.1);
        let t32 = cm.iter_time(0, 32, 0.0);
        let t64 = cm.iter_time(0, 64, 0.0);
        assert!((t32 - (0.1 + 32.0 * 1.425 / 24.0)).abs() < 1e-12);
        // Doubling lbs doubles the variable part only.
        assert!((t64 - 0.1 - 2.0 * (t32 - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_capacities() {
        let cm = ComputeModel::heterogeneous(&[24.0, 12.0, 4.0], 1.425, 0.0);
        let t_fast = cm.iter_time(0, 32, 0.0);
        let t_mid = cm.iter_time(1, 32, 0.0);
        let t_slow = cm.iter_time(2, 32, 0.0);
        assert!((t_mid / t_fast - 2.0).abs() < 1e-9);
        assert!((t_slow / t_fast - 6.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_capacity_changes_iter_time() {
        let mut cm = ComputeModel::homogeneous(1, 24.0, 1.425, 0.1);
        cm.scale_capacity(0, &PiecewiseConst::steps(vec![(0.0, 1.0), (100.0, 0.5)]));
        let before = cm.iter_time(0, 32, 50.0);
        let after = cm.iter_time(0, 32, 150.0);
        assert!(after > before);
        assert!(((after - 0.1) / (before - 0.1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn batch_exponent_sublinear_scaling() {
        let lin = ComputeModel::homogeneous(1, 24.0, 1.425, 0.1);
        let sub = ComputeModel::homogeneous(1, 24.0, 1.425, 0.1).with_batch_exponent(0.75);
        // Identical at the reference batch size.
        assert!((lin.iter_time(0, 32, 0.0) - sub.iter_time(0, 32, 0.0)).abs() < 1e-12);
        // Sublinear above it, superlinear cost-saving: 8x batch < 8x time.
        let t32 = sub.iter_time(0, 32, 0.0) - 0.1;
        let t256 = sub.iter_time(0, 256, 0.0) - 0.1;
        assert!(
            t256 / t32 < 8.0,
            "sublinear scaling expected: {}",
            t256 / t32
        );
        assert!((t256 / t32 - 8.0f64.powf(0.75)).abs() < 1e-9);
        // Per-sample throughput improves with batch size.
        let thr32 = 32.0 / sub.iter_time(0, 32, 0.0);
        let thr256 = 256.0 / sub.iter_time(0, 256, 0.0);
        assert!(thr256 > thr32);
    }

    #[test]
    #[should_panic(expected = "batch exponent")]
    fn bad_batch_exponent_panics() {
        let _ = ComputeModel::homogeneous(1, 24.0, 1.0, 0.0).with_batch_exponent(1.5);
    }

    #[test]
    fn profile_is_roughly_linear() {
        let cm = ComputeModel::homogeneous(1, 24.0, 1.425, 0.1);
        let mut rng = DetRng::seed_from_u64(1);
        let samples = cm.profile(0, &[8, 16, 32, 64, 128], 0.0, 0.02, &mut rng);
        assert_eq!(samples.len(), 5);
        let xs: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let (a, b) = dlion_tensor::stats::linear_fit(&xs, &ys);
        assert!((a - 0.1).abs() < 0.05, "intercept {a}");
        assert!((b - 1.425 / 24.0).abs() < 0.01, "slope {b}");
    }

    #[test]
    fn profile_noise_zero_is_exact() {
        let cm = ComputeModel::homogeneous(1, 12.0, 2.0, 0.05);
        let mut rng = DetRng::seed_from_u64(2);
        let samples = cm.profile(0, &[10, 20], 0.0, 0.0, &mut rng);
        assert_eq!(samples[0].1, cm.iter_time(0, 10, 0.0));
        assert_eq!(samples[1].1, cm.iter_time(0, 20, 0.0));
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn zero_capacity_panics() {
        let cm = ComputeModel::heterogeneous(&[0.0], 1.0, 0.0);
        cm.iter_time(0, 32, 0.0);
    }
}
