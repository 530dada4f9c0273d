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
//! [`MaxNPlanner`] makes the inversion cheap without sorting: each
//! variable's magnitudes are histogrammed once per iteration into buckets
//! (an O(E) counting pass, replacing the old O(E log E) sort). A quantile
//! query then charges every bucket strictly above the threshold from the
//! precomputed offsets and scans only the one bucket the threshold lands
//! in. The largest admissible `N` is found by bisection over
//! `[min_n, 100]`.
//!
//! The bucket of a magnitude is `⌊|g| · (n_buckets / max|g|)⌋`, capped at
//! the last bucket: one multiply by a factor computed once per variable.
//! The count is exact, not approximate, for *any* such factor — also one
//! that rounds badly, overflows to ∞ (a denormal maximum) or is 0 (an
//! infinite one) — because a float multiply by a non-negative constant, the
//! truncating cast and the cap are each non-decreasing, and so is their
//! composition. The threshold goes through the same map, so an entry in a
//! higher bucket than the threshold's is `> thr`, one in a lower bucket is
//! `< thr`, and only the threshold's own bucket holds entries on both
//! sides. How evenly the map spreads the entries decides the cost of that
//! scan, never the answer.
//!
//! The histogram that answers "how many" also sizes the selection itself:
//! [`MaxNPlanner::select`] hands each variable's threshold and count to
//! `SparseVec::from_dense_counted`, which fills exact-size vectors in one
//! branch-free pass.

use dlion_tensor::sparse::{max_abs, max_n_threshold, SparseVec};
use dlion_tensor::Tensor;

/// Per-variable magnitude histogram: nonzero `|g|` values grouped by bucket
/// (a counting sort without the within-bucket ordering — queries never need
/// it).
struct VarTable {
    /// Nonzero magnitudes, grouped so bucket `b` occupies
    /// `bucketed[starts[b]..starts[b + 1]]`.
    bucketed: Vec<f32>,
    /// Bucket start offsets; `starts.len() == n_buckets + 1`.
    starts: Vec<u32>,
    /// Max `|g|` (0.0 for an all-zero variable).
    max_abs: f32,
    /// `n_buckets / max_abs`: what [`bucket_of`] multiplies by.
    scale: f64,
}

/// Bucket of magnitude `v` among `nb`. Non-decreasing in `v` whatever
/// `scale` is (module header), which is all the counting needs.
#[inline(always)]
fn bucket_of(v: f32, scale: f64, nb: usize) -> usize {
    ((v as f64 * scale) as usize).min(nb - 1)
}

impl VarTable {
    fn bucket(&self, v: f32) -> usize {
        bucket_of(v, self.scale, self.starts.len() - 1)
    }

    fn build(data: &[f32]) -> Self {
        let mx = max_abs(data);
        let nonzero = data.iter().filter(|g| g.abs() > 0.0).count();
        if mx == 0.0 {
            return VarTable {
                bucketed: Vec::new(),
                starts: vec![0, 0],
                max_abs: 0.0,
                scale: 0.0,
            };
        }
        // A vector's worth of expected entries per bucket: the scan of the
        // threshold's bucket stays one or two instructions, and the offset
        // table — zeroed, summed and walked at random by both passes below
        // — stays an eighth of the data. The cap bounds it outright, and
        // keeps every bucket id, the spare one included, a `u16`.
        let nb = (nonzero / 8).clamp(16, u16::MAX as usize);
        let scale = nb as f64 / mx as f64;
        // Counting pass. Each entry's bucket is computed here, once, and
        // kept for the placement pass; what no query counts (exact zeros,
        // NaN) goes to a spare bucket `nb` past the real ones, so neither
        // pass branches on the data. Bucket `b` is counted two slots up,
        // at `starts[b + 2]`...
        let mut starts = vec![0u32; nb + 3];
        let mut ids = vec![0u16; data.len()];
        for (id, &g) in ids.iter_mut().zip(data) {
            let a = g.abs();
            let b = if a > 0.0 { bucket_of(a, scale, nb) } else { nb };
            *id = b as u16;
            starts[b + 2] += 1;
        }
        // ...so that after the prefix sum `starts[b + 1]` is where bucket
        // `b` starts...
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        // ...and, used as its cursor by the placement pass, ends up where
        // bucket `b + 1` starts: `starts[b]` is then bucket `b`'s offset.
        let mut bucketed = vec![0.0f32; data.len()];
        for (&g, &b) in data.iter().zip(&ids) {
            let cursor = &mut starts[b as usize + 1];
            bucketed[*cursor as usize] = g.abs();
            *cursor += 1;
        }
        // Drop the spare bucket: the tail of `bucketed`, the last two slots.
        bucketed.truncate(nonzero);
        starts.truncate(nb + 1);
        VarTable {
            bucketed,
            starts,
            max_abs: mx,
            scale,
        }
    }

    /// Entries with `|g| >= thr` and `|g| > 0` — the Max N selection count
    /// for one variable (matches `SparseVec::from_dense_threshold`).
    fn count_at_threshold(&self, thr: f32) -> usize {
        if self.max_abs == 0.0 {
            return 0;
        }
        if thr <= 0.0 {
            return self.bucketed.len();
        }
        let b = self.bucket(thr);
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        let above = self.bucketed.len() - hi;
        let in_bucket = self.bucketed[lo..hi].iter().filter(|&&v| v >= thr).count();
        above + in_bucket
    }
}

/// Precomputed per-variable magnitude tables for one iteration's gradients.
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
pub struct MaxNPlanner {
    vars: Vec<VarTable>,
    total_entries: usize,
}

impl MaxNPlanner {
    /// Build from one model gradient (one tensor per weight variable).
    /// O(E) in the total entry count — two counting passes, no sort.
    pub fn new(grads: &[Tensor]) -> Self {
        let mut vars = Vec::with_capacity(grads.len());
        let mut total = 0;
        for g in grads {
            total += g.data().len();
            vars.push(VarTable::build(g.data()));
        }
        MaxNPlanner {
            vars,
            total_entries: total,
        }
    }

    /// Total gradient entries across all variables.
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// How many entries Max N selects at parameter `n` (0 < n <= 100).
    pub fn count_for_n(&self, n: f64) -> usize {
        if n >= 100.0 {
            return self.total_entries;
        }
        self.vars
            .iter()
            .map(|v| v.count_at_threshold(max_n_threshold(v.max_abs, n)))
            .sum()
    }

    /// The largest `N ∈ [min_n, 100]` whose selection fits `budget_entries`
    /// entries. Returns `min_n` when even the minimum overflows (the
    /// data-quality floor the paper sets with "minimum N = 0.85").
    pub fn n_for_entry_budget(&self, budget_entries: usize, min_n: f64) -> f64 {
        let min_n = min_n.clamp(1e-6, 100.0);
        if self.count_for_n(100.0) <= budget_entries {
            return 100.0;
        }
        if self.count_for_n(min_n) > budget_entries {
            return min_n;
        }
        // Bisect the monotone count(N) function.
        let (mut lo, mut hi) = (min_n, 100.0);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.count_for_n(mid) <= budget_entries {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Materialize the Max N selection at parameter `n` of `grads`, the
    /// gradients this planner was built from: each variable's maximum and
    /// selection count come from its table, so the one pass left over the
    /// data is the copy.
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
            .map(|(g, var)| {
                let thr = max_n_threshold(var.max_abs, n);
                SparseVec::from_dense_counted(g.data(), thr, var.count_at_threshold(thr))
            })
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
        let p = MaxNPlanner::new(&grads());
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
    fn capped_bucket_table_counts_exactly() {
        // Enough nonzero entries that `nonzero / 8` passes the bucket cap.
        let mut rng = DetRng::seed_from_u64(3);
        let g = vec![Tensor::randn(Shape::d1(600_000), 1.0, &mut rng)];
        let p = MaxNPlanner::new(&g);
        assert_eq!(p.vars[0].starts.len(), u16::MAX as usize + 1);
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
