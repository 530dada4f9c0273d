//! Piecewise-constant resource schedules.
//!
//! Both compute capacity ("how many cores does worker *i* have right now")
//! and link bandwidth ("how many Mbps does link *i→j* carry right now") are
//! modelled as right-continuous step functions of virtual time. Dynamism —
//! the paper's Dynamic SYS A/B environments and the fluctuating resources of
//! Figures 19/20 — is just a schedule with several steps.

/// A right-continuous step function of time: value is `points[k].1` for
/// `t ∈ [points[k].0, points[k+1].0)`. The first point must be at `t = 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseConst {
    points: Vec<(f64, f64)>,
}

impl PiecewiseConst {
    /// A constant schedule.
    pub fn constant(v: f64) -> Self {
        assert!(v.is_finite());
        PiecewiseConst {
            points: vec![(0.0, v)],
        }
    }

    /// Build from `(start_time, value)` steps; must start at 0 and be
    /// strictly increasing in time.
    pub fn steps(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "schedule needs at least one step");
        assert_eq!(points[0].0, 0.0, "schedule must start at t=0");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "step times must be strictly increasing");
        }
        assert!(points.iter().all(|p| p.1.is_finite()));
        PiecewiseConst { points }
    }

    /// Concatenate per-phase constant values, each lasting `phase_len`
    /// seconds (the Dynamic SYS A/B pattern: one environment per phase).
    pub fn phases(values: &[f64], phase_len: f64) -> Self {
        assert!(!values.is_empty() && phase_len > 0.0);
        let points = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * phase_len, v))
            .collect();
        PiecewiseConst::steps(points)
    }

    /// Value at time `t` (clamped to the first step for `t < 0`).
    pub fn value_at(&self, t: f64) -> f64 {
        // Index of the first step strictly after `t`; the step before it is
        // in effect. `t` before the first step clamps to the first value.
        let i = self.points.partition_point(|p| p.0 <= t);
        self.points[i.saturating_sub(1)].1
    }

    /// Time of the first step strictly after `t` (`INFINITY` past the last).
    fn next_step_after(&self, t: f64) -> f64 {
        match self.points.get(self.points.partition_point(|p| p.0 <= t)) {
            Some(&(s, _)) => s,
            None => f64::INFINITY,
        }
    }

    /// Integral of the schedule over `[t0, t0 + dt]`.
    pub fn integrate(&self, t0: f64, dt: f64) -> f64 {
        assert!(dt >= 0.0);
        if dt == 0.0 {
            return 0.0;
        }
        let t1 = t0 + dt;
        let mut acc = 0.0;
        let mut cur = t0;
        while cur < t1 {
            let v = self.value_at(cur);
            let next_step = self.next_step_after(cur).min(t1);
            acc += v * (next_step - cur);
            cur = next_step;
        }
        acc
    }

    /// Starting at `t0`, how long until the integral of the schedule reaches
    /// `amount`? Returns `f64::INFINITY` if the schedule's tail is zero and
    /// the amount is never reached. Used to compute the duration of a byte
    /// transfer under time-varying bandwidth.
    pub fn time_to_accumulate(&self, t0: f64, amount: f64) -> f64 {
        assert!(amount >= 0.0);
        if amount == 0.0 {
            return 0.0;
        }
        let mut remaining = amount;
        let mut cur = t0;
        loop {
            let v = self.value_at(cur);
            let next_step = self.next_step_after(cur);
            if v > 0.0 {
                let seg = next_step - cur;
                let needed = remaining / v;
                if needed <= seg {
                    return cur + needed - t0;
                }
                remaining -= v * seg;
            } else if next_step.is_infinite() {
                return f64::INFINITY;
            }
            if next_step.is_infinite() && v > 0.0 {
                // Handled above by needed <= seg (seg = inf).
                unreachable!();
            }
            cur = next_step;
        }
    }

    /// The underlying steps.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Pointwise minimum of two schedules (merging their step points).
    ///
    /// Used to derive a directed link's bandwidth from two per-worker
    /// bandwidth figures: the link `i→j` carries `min(bw_i, bw_j)`.
    pub fn min_with(&self, other: &PiecewiseConst) -> PiecewiseConst {
        let mut times: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|p| p.0)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup();
        let points = times
            .into_iter()
            .map(|t| (t, self.value_at(t).min(other.value_at(t))))
            .collect();
        PiecewiseConst { points }
    }

    /// Pointwise product of two schedules (merging their step points).
    ///
    /// Used to apply a scenario's dimensionless factor schedule (diurnal
    /// wave, outage window) to a base capacity or bandwidth schedule.
    pub fn product_with(&self, other: &PiecewiseConst) -> PiecewiseConst {
        let mut times: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|p| p.0)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup();
        let points = times
            .into_iter()
            .map(|t| (t, self.value_at(t) * other.value_at(t)))
            .collect();
        PiecewiseConst { points }
    }

    /// Scale all values by a factor (e.g. a `stress`-style capacity cut).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        PiecewiseConst {
            points: self.points.iter().map(|&(t, v)| (t, v * factor)).collect(),
        }
    }
}

impl AsRef<[(f64, f64)]> for PiecewiseConst {
    fn as_ref(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_value_everywhere() {
        let s = PiecewiseConst::constant(24.0);
        assert_eq!(s.value_at(0.0), 24.0);
        assert_eq!(s.value_at(1e9), 24.0);
        assert_eq!(s.value_at(-5.0), 24.0);
    }

    #[test]
    fn steps_lookup() {
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (100.0, 5.0), (200.0, 20.0)]);
        assert_eq!(s.value_at(0.0), 10.0);
        assert_eq!(s.value_at(99.999), 10.0);
        assert_eq!(s.value_at(100.0), 5.0);
        assert_eq!(s.value_at(150.0), 5.0);
        assert_eq!(s.value_at(200.0), 20.0);
        assert_eq!(s.value_at(1e6), 20.0);
    }

    #[test]
    fn phases_builder() {
        let s = PiecewiseConst::phases(&[50.0, 35.0, 20.0], 500.0);
        assert_eq!(s.value_at(0.0), 50.0);
        assert_eq!(s.value_at(600.0), 35.0);
        assert_eq!(s.value_at(1400.0), 20.0);
    }

    #[test]
    fn integrate_across_steps() {
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (100.0, 5.0)]);
        assert_eq!(s.integrate(0.0, 50.0), 500.0);
        assert_eq!(s.integrate(50.0, 100.0), 10.0 * 50.0 + 5.0 * 50.0);
        assert_eq!(s.integrate(150.0, 10.0), 50.0);
        assert_eq!(s.integrate(0.0, 0.0), 0.0);
    }

    #[test]
    fn time_to_accumulate_constant() {
        let s = PiecewiseConst::constant(4.0);
        assert_eq!(s.time_to_accumulate(0.0, 8.0), 2.0);
        assert_eq!(s.time_to_accumulate(123.0, 8.0), 2.0);
        assert_eq!(s.time_to_accumulate(0.0, 0.0), 0.0);
    }

    #[test]
    fn time_to_accumulate_across_steps() {
        // 10 units/s for 100 s, then 5 units/s.
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (100.0, 5.0)]);
        // 1050 units starting at t=0: 1000 in first 100 s, 50 more at 5/s = 10 s.
        assert_eq!(s.time_to_accumulate(0.0, 1050.0), 110.0);
        // Starting mid-segment.
        assert_eq!(s.time_to_accumulate(95.0, 100.0), 5.0 + 10.0);
    }

    #[test]
    fn time_to_accumulate_through_zero_segment() {
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (10.0, 0.0), (20.0, 10.0)]);
        // 150 units: 100 in [0,10), stall in [10,20), 50 more by t=25.
        assert_eq!(s.time_to_accumulate(0.0, 150.0), 25.0);
    }

    #[test]
    fn time_to_accumulate_never() {
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (10.0, 0.0)]);
        assert!(s.time_to_accumulate(0.0, 101.0).is_infinite());
        assert_eq!(s.time_to_accumulate(0.0, 100.0), 10.0);
    }

    #[test]
    fn integral_consistency_with_time_to_accumulate() {
        let s = PiecewiseConst::steps(vec![(0.0, 3.0), (7.0, 9.0), (30.0, 1.0)]);
        for &(t0, amount) in &[(0.0, 10.0), (5.0, 100.0), (29.0, 17.0), (100.0, 3.0)] {
            let dt = s.time_to_accumulate(t0, amount);
            let got = s.integrate(t0, dt);
            assert!(
                (got - amount).abs() < 1e-9,
                "t0={t0} amount={amount}: {got}"
            );
        }
    }

    #[test]
    fn scaled_schedule() {
        let s = PiecewiseConst::steps(vec![(0.0, 10.0), (50.0, 20.0)]).scaled(0.5);
        assert_eq!(s.value_at(0.0), 5.0);
        assert_eq!(s.value_at(60.0), 10.0);
    }

    #[test]
    fn min_with_merges_steps() {
        let a = PiecewiseConst::steps(vec![(0.0, 50.0), (100.0, 20.0)]);
        let b = PiecewiseConst::steps(vec![(0.0, 35.0), (150.0, 60.0)]);
        let m = a.min_with(&b);
        assert_eq!(m.value_at(0.0), 35.0);
        assert_eq!(m.value_at(120.0), 20.0);
        assert_eq!(m.value_at(200.0), 20.0);
        let m2 = b.min_with(&a);
        for t in [0.0, 50.0, 100.0, 149.0, 151.0, 400.0] {
            assert_eq!(
                m.value_at(t),
                m2.value_at(t),
                "min must be symmetric at t={t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_steps_panic() {
        PiecewiseConst::steps(vec![(0.0, 1.0), (5.0, 2.0), (5.0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn steps_not_from_zero_panic() {
        PiecewiseConst::steps(vec![(1.0, 1.0)]);
    }
}
