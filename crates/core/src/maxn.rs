//! Per-link prioritized gradient exchange (§3.3).
//!
//! Two cooperating modules:
//!
//! * **Data quality assurance** — the *Max N* algorithm: per weight
//!   variable, select gradient entries whose absolute value is within `N%`
//!   of that variable's maximum absolute value (implemented in
//!   `dlion_tensor::sparse`).
//! * **Transmission speed assurance** — per link, per iteration, find the
//!   *largest* `N` whose selection fits the link's byte budget
//!   `BW_net_j × iteration_time` (the data the link can carry while one
//!   iteration runs, shared across the n−1 peer links of the NIC).
//!
//! [`MaxNPlanner`] inverts a budget without sorting and without a
//! histogram. `new` keeps, per variable, a borrow of the gradient, its
//! largest magnitude and its nonzero count, from one fused pass.
//! The inversion bisects `[min_n, 100]` forty times, and each midpoint's
//! count is exact: every variable holds the count of its entries already
//! `>= thr(lo)` and a *view* that contains every entry still undecided,
//! `thr(hi) <= |g| < thr(lo)`. A midpoint counts only the view (a popcount
//! of compare masks, sixteen entries at a time) and adds the decided count.
//! A view starts as the whole gradient and is compacted (a compress-store
//! of its undecided entries into the inversion's buffer) once at most half
//! of it is undecided, so the entries read over all forty steps stay a
//! small multiple of the gradient instead of forty times it (compacting
//! after every step reads as many but writes them all, and times slower:
//! DESIGN.md, "One Max N pass"). No midpoint
//! below 100 counts more than the nonzero entries, so a budget they fit
//! in is inverted without a pass (a link that carries almost the whole
//! gradient).
//!
//! The answer is the one a full count at every midpoint gives, bit for bit.
//! `thr(N) = (1 - N/100)·max` is non-increasing in `N`, so for `lo < mid <
//! hi` every entry `>= thr(lo)` is `>= thr(mid)` and every entry `<
//! thr(hi)` is `< thr(mid)`: only the undecided entries can fall on either
//! side, and each is counted by the same compare a full pass makes. Every
//! midpoint's outcome, hence every later midpoint and the returned `N`, is
//! the same.
//!
//! [`MaxNPlanner::select`] takes each variable's maximum from the planner
//! and selects with `SparseVec::from_dense_threshold` (one counting pass,
//! then one fill of exact-size vectors).

use dlion_tensor::sparse::{
    count_selected, extend_band, max_abs_nonzero, max_n_threshold, retain_band, SparseVec,
};
use dlion_tensor::Tensor;

/// One weight variable's gradient, as the planner keeps it.
struct Var<'a> {
    /// The gradient itself, borrowed from the caller.
    grad: &'a [f32],
    /// Max `|g|` (0.0 for an all-zero variable).
    max_abs: f32,
    /// Entries Max N can ever select below `N = 100`: nonzero, not NaN.
    nonzero: usize,
}

impl Var<'_> {
    fn thr(&self, n: f64) -> f32 {
        max_n_threshold(self.max_abs, n)
    }
}

/// The smallest positive float: a band's lower bound when the threshold is
/// 0, so that `lo <= |g|` keeps what Max N keeps there (exact zeros never
/// travel).
const TINY: f32 = f32::from_bits(1);

/// One variable's part in a budget inversion.
struct Share {
    /// Its entries `>= thr(lo)` and `>= thr(hi)` (while `hi = 100`, its
    /// nonzero ones): `at_hi - at_lo` are undecided.
    at_lo: usize,
    at_hi: usize,
    /// The undecided magnitudes lie in `[band.0, band.1)`: `[thr(hi),
    /// thr(lo))`, with [`TINY`] for a `thr(hi)` of 0.
    band: (f32, f32),
    /// Where the view is: `None` while it is the whole gradient, else a
    /// range of the inversion's buffer.
    view: Option<(usize, usize)>,
    /// The counted entries the view does not hold (`at_lo` when it was
    /// last compacted).
    outside: usize,
    /// This step's threshold and count.
    thr: f32,
    at_mid: usize,
}

impl Share {
    /// Count `v` at the minimum N: everything below it is undecided.
    fn new(v: &Var, min_n: f64) -> Share {
        let thr = v.thr(min_n);
        let at_lo = count_selected(v.grad, thr);
        Share {
            at_lo,
            at_hi: v.nonzero,
            band: (TINY, thr),
            view: None,
            outside: 0,
            thr,
            at_mid: at_lo,
        }
    }

    /// Its count at `mid`: the view's entries `>= thr(mid)` and what the
    /// view leaves out, all of it above.
    fn count(&mut self, v: &Var, mid: f64, buf: &[f32]) -> usize {
        self.at_mid = self.at_lo;
        if self.at_hi > self.at_lo {
            self.thr = v.thr(mid);
            let view = match self.view {
                None => v.grad,
                Some((at, len)) => &buf[at..at + len],
            };
            self.at_mid = self.outside + count_selected(view, self.thr);
        }
        self.at_mid
    }

    /// Take the step's outcome: the midpoint becomes the band's upper edge
    /// if the step fit, its lower edge if not. The view is compacted once
    /// at most half of it is undecided.
    fn decide(&mut self, v: &Var, fits: bool, buf: &mut Vec<f32>) {
        if self.at_hi == self.at_lo {
            return;
        }
        if fits {
            (self.at_lo, self.band.1) = (self.at_mid, self.thr);
        } else {
            (self.at_hi, self.band.0) = (self.at_mid, self.thr.max(TINY));
        }
        let undecided = self.at_hi - self.at_lo;
        let (lo, hi) = self.band;
        self.view = match self.view {
            _ if undecided == 0 => return,
            None if 2 * undecided <= v.grad.len() => {
                let at = buf.len();
                extend_band(v.grad, lo, hi, buf);
                Some((at, buf.len() - at))
            }
            Some((at, len)) if 2 * undecided <= len => {
                Some((at, retain_band(&mut buf[at..at + len], lo, hi)))
            }
            _ => return,
        };
        self.outside = self.at_lo;
        debug_assert_eq!(self.view.map(|(_, len)| len), Some(undecided));
    }
}

/// Per-variable maxima over one iteration's gradients, and the exact budget
/// inversion above.
///
/// ```
/// use dlion_core::MaxNPlanner;
/// use dlion_tensor::{DetRng, Shape, Tensor};
///
/// let mut rng = DetRng::seed_from_u64(1);
/// let grads = vec![Tensor::randn(Shape::d1(1000), 1.0, &mut rng)];
/// let planner = MaxNPlanner::new(&grads);
///
/// // A 100-entry link budget inverts to the largest admissible N...
/// let n = planner.n_for_entry_budget(100, 0.85);
/// assert!(planner.count_for_n(n) <= 100);
/// // ...and an unconstrained link ships the dense gradient (N = 100).
/// assert_eq!(planner.n_for_entry_budget(usize::MAX, 0.85), 100.0);
/// ```
pub struct MaxNPlanner<'a> {
    vars: Vec<Var<'a>>,
    total_entries: usize,
}

impl<'a> MaxNPlanner<'a> {
    /// Build from one model gradient (one tensor per weight variable): one
    /// pass over each, which the planner then borrows.
    pub fn new(grads: &'a [Tensor]) -> Self {
        let vars = grads
            .iter()
            .map(|g| {
                let (max_abs, nonzero) = max_abs_nonzero(g.data());
                Var {
                    grad: g.data(),
                    max_abs,
                    nonzero,
                }
            })
            .collect();
        MaxNPlanner {
            vars,
            total_entries: grads.iter().map(|g| g.data().len()).sum(),
        }
    }

    /// Total gradient entries across all variables.
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// How many entries Max N selects at parameter `n` (0 < n <= 100): one
    /// counting pass over the gradient.
    pub fn count_for_n(&self, n: f64) -> usize {
        if n >= 100.0 {
            return self.total_entries;
        }
        self.vars
            .iter()
            .map(|v| count_selected(v.grad, v.thr(n)))
            .sum()
    }

    /// The largest `N ∈ [min_n, 100]` whose selection fits `budget_entries`
    /// entries, by forty bisection steps over the undecided entries (module
    /// header). Returns `min_n` when even the minimum overflows (the
    /// data-quality floor the paper sets with "minimum N = 0.85").
    pub fn n_for_entry_budget(&self, budget_entries: usize, min_n: f64) -> f64 {
        let min_n = min_n.clamp(1e-6, 100.0);
        if self.total_entries <= budget_entries {
            return 100.0;
        }
        if min_n >= 100.0 {
            return min_n;
        }
        // No count below N = 100 passes the nonzero entries: if they fit,
        // every step does.
        if self.vars.iter().map(|v| v.nonzero).sum::<usize>() <= budget_entries {
            return (0..40).fold(min_n, |lo, _| 0.5 * (lo + 100.0));
        }
        let mut shares: Vec<Share> = self.vars.iter().map(|v| Share::new(v, min_n)).collect();
        if shares.iter().map(|s| s.at_lo).sum::<usize>() > budget_entries {
            return min_n;
        }
        // A view is at most half its gradient when it moves here, so the
        // buffer never outgrows this.
        let mut buf = Vec::with_capacity(self.total_entries);
        let (mut lo, mut hi) = (min_n, 100.0);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let vars = self.vars.iter().zip(&mut shares);
            let fits = vars.map(|(v, s)| s.count(v, mid, &buf)).sum::<usize>() <= budget_entries;
            if fits {
                lo = mid;
            } else {
                hi = mid;
            }
            for (v, s) in self.vars.iter().zip(&mut shares) {
                s.decide(v, fits, &mut buf);
            }
        }
        lo
    }

    /// Materialize the Max N selection at parameter `n` of `grads`, the
    /// gradients this planner was built from, each variable's threshold
    /// taken from the maximum the planner holds.
    pub fn select(&self, grads: &[Tensor], n: f64) -> Vec<SparseVec> {
        assert_eq!(grads.len(), self.vars.len());
        let entries: usize = grads.iter().map(|g| g.data().len()).sum();
        assert_eq!(entries, self.total_entries, "not this planner's gradients");
        if n >= 100.0 {
            let full = |g: &Tensor| SparseVec::from_dense_full(g.data());
            return grads.iter().map(full).collect();
        }
        grads
            .iter()
            .zip(&self.vars)
            .map(|(g, var)| SparseVec::from_dense_threshold(g.data(), var.thr(n)))
            .collect()
    }

    /// Convenience: plan and select for a link byte budget. Returns
    /// `(n, selection)`.
    pub fn select_for_budget(
        &self,
        grads: &[Tensor],
        budget_bytes: f64,
        bytes_per_entry: f64,
        min_n: f64,
    ) -> (f64, Vec<SparseVec>) {
        let n = self.n_for_entry_budget(budget_entries(budget_bytes, bytes_per_entry), min_n);
        (n, self.select(grads, n))
    }
}

/// Whole sparse entries a byte budget carries — all of a link's budget
/// that [`MaxNPlanner::n_for_entry_budget`] looks at.
pub(crate) fn budget_entries(budget_bytes: f64, bytes_per_entry: f64) -> usize {
    assert!(bytes_per_entry > 0.0);
    (budget_bytes / bytes_per_entry).floor().max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_tensor::{DetRng, Shape};

    fn grads() -> Vec<Tensor> {
        let mut rng = DetRng::seed_from_u64(1);
        vec![
            Tensor::randn(Shape::d1(500), 1.0, &mut rng),
            Tensor::randn(Shape::d1(300), 0.1, &mut rng),
            Tensor::randn(Shape::d2(10, 20), 2.0, &mut rng),
        ]
    }

    #[test]
    fn count_matches_actual_selection() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        for n in [0.85, 5.0, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let counted = p.count_for_n(n);
            let selected: usize = p.select(&g, n).iter().map(|s| s.nnz()).sum();
            assert_eq!(counted, selected, "mismatch at N={n}");
        }
    }

    #[test]
    fn count_is_monotone_in_n() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        let mut prev = 0;
        for i in 1..=100 {
            let c = p.count_for_n(i as f64);
            assert!(c >= prev, "count must grow with N");
            prev = c;
        }
        assert_eq!(prev, p.total_entries());
    }

    #[test]
    fn budget_inversion_is_tight() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        for budget in [1usize, 10, 50, 100, 400, 799, 1000] {
            let n = p.n_for_entry_budget(budget, 0.85);
            let c = p.count_for_n(n);
            assert!(
                c <= budget || n <= 0.85 + 1e-9,
                "budget {budget}: N={n} selects {c}"
            );
            // Largest admissible: a slightly larger N must overflow (unless
            // already at 100).
            if n < 100.0 - 1e-6 && c <= budget {
                let c_up = p.count_for_n((n + 0.5).min(100.0));
                assert!(c_up >= c);
            }
        }
    }

    #[test]
    fn full_budget_gives_n_100() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        assert_eq!(p.n_for_entry_budget(p.total_entries(), 0.85), 100.0);
        assert_eq!(p.n_for_entry_budget(usize::MAX, 0.85), 100.0);
    }

    #[test]
    fn starving_budget_clamps_to_min_n() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        let n = p.n_for_entry_budget(0, 0.85);
        assert_eq!(n, 0.85);
    }

    #[test]
    fn per_variable_thresholds_are_independent() {
        // Variable 1 has tiny magnitudes (std 0.1) but must still contribute
        // entries at moderate N because its threshold is relative to its own
        // max — "Max N is applied per weight variable".
        let g = grads();
        let p = MaxNPlanner::new(&g);
        let sel = p.select(&g, 50.0);
        assert!(sel[1].nnz() > 0, "small-magnitude variable starved");
    }

    #[test]
    fn select_for_budget_bytes() {
        let g = grads();
        let p = MaxNPlanner::new(&g);
        let bytes_per_entry = 704.0; // wire-scaled sparse entry
        let (n, sel) = p.select_for_budget(&g, 70_400.0, bytes_per_entry, 0.85);
        let entries: usize = sel.iter().map(|s| s.nnz()).sum();
        assert!(
            entries <= 100,
            "100-entry budget violated: {entries} at N={n}"
        );
        assert!(n < 100.0);
    }

    #[test]
    fn large_gradient_counts_exactly() {
        let mut rng = DetRng::seed_from_u64(3);
        let g = vec![Tensor::randn(Shape::d1(600_000), 1.0, &mut rng)];
        let p = MaxNPlanner::new(&g);
        for n in [0.85, 10.0, 50.0, 90.0, 99.5] {
            let thr = max_n_threshold(p.vars[0].max_abs, n);
            let direct = g[0].data().iter().filter(|v| v.abs() >= thr).count();
            assert_eq!(p.count_for_n(n), direct, "N={n}");
            assert_eq!(p.select(&g, n)[0].nnz(), direct, "N={n}");
        }
    }

    #[test]
    fn zero_gradient_variable_handled() {
        let g = vec![Tensor::zeros(Shape::d1(50)), grads()[0].clone()];
        let p = MaxNPlanner::new(&g);
        assert_eq!(p.count_for_n(100.0), p.total_entries());
        let c = p.count_for_n(50.0);
        let sel: usize = p.select(&g, 50.0).iter().map(|s| s.nnz()).sum();
        assert_eq!(c, sel);
    }
}
