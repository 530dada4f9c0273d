//! Sparse gradient vectors and the *Max N* selection primitive.
//!
//! DLion's per-link prioritized gradient exchange (§3.3 of the paper) sends
//! only the statistically significant entries of each weight variable's
//! gradient. The *Max N* algorithm selects entries whose absolute value is
//! within `N%` of the per-variable maximum absolute value:
//!
//! * `N = 100` ⇒ threshold `0·max` ⇒ **all** entries are exchanged
//!   (equivalent to dense exchange, as the paper states),
//! * `N = 1`  ⇒ threshold `0.99·max` ⇒ only near-maximal entries.
//!
//! The transmission-speed assurance module — inverting a per-link byte
//! budget into the largest admissible `N` — is `dlion_core`'s `MaxNPlanner`.
//!
//! Every selection, whoever asks, is [`SparseVec::from_dense_threshold`]:
//! count, then compact. The count sizes `indices`/`values` exactly (no
//! `push`, no growth); the compaction stores every entry of a block at the
//! cursor and advances the cursor only past a kept one, and skips a block
//! with nothing to keep after one vector compare — so a dense selection
//! costs no mispredicted branch and a sparse one reads at memory speed. A
//! caller that knows the count (the planner's histogram) passes it in
//! ([`SparseVec::from_dense_counted`]) and saves the counting pass.

use crate::tensor::Tensor;

/// Bytes on the wire per sparse entry: a `u32` index + an `f32` value.
pub const SPARSE_ENTRY_BYTES: usize = 8;
/// Bytes on the wire per dense entry: an `f32` value.
pub const DENSE_ENTRY_BYTES: usize = 4;

/// A sparse view of a gradient for one weight variable.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    /// Flat indices into the dense tensor, strictly increasing.
    pub indices: Vec<u32>,
    /// Values at those indices.
    pub values: Vec<f32>,
    /// Length of the dense tensor this was taken from.
    pub dense_len: usize,
}

impl SparseVec {
    /// Empty sparse vector over a dense length.
    pub fn empty(dense_len: usize) -> Self {
        SparseVec {
            indices: vec![],
            values: vec![],
            dense_len,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of dense entries represented.
    pub fn density(&self) -> f64 {
        if self.dense_len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dense_len as f64
        }
    }

    /// Wire size in bytes (index + value per entry).
    pub fn wire_bytes(&self) -> usize {
        self.nnz() * SPARSE_ENTRY_BYTES
    }

    /// Select all entries of `dense` with `|v| >= thr` (thr >= 0) — the one
    /// selection kernel; every Max N path ends here.
    pub fn from_dense_threshold(dense: &[f32], thr: f32) -> Self {
        let nnz = dense.iter().filter(|&&v| selected(v, thr)).count();
        Self::from_dense_counted(dense, thr, nnz)
    }

    /// [`SparseVec::from_dense_threshold`] for a caller that already knows
    /// how many entries the threshold selects (`MaxNPlanner`'s histogram
    /// does) and so skips the counting pass. `nnz` must be that count: the
    /// selection is cut off after `nnz` entries.
    pub fn from_dense_counted(dense: &[f32], thr: f32, nnz: usize) -> Self {
        debug_assert!(thr >= 0.0);
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        // Within a block, every entry is stored at the cursor and the cursor
        // advances only past a selected one, so the next entry overwrites a
        // rejected one: no branch on an entry. A block without a selected
        // entry (one vector compare) is skipped, which is most blocks of a
        // sparse selection and none of a dense one — predictable either
        // way. The exit is taken once, when the last slot has been filled.
        let mut k = 0;
        'blocks: for (b, block) in dense.chunks(BLOCK).enumerate() {
            if !block.iter().fold(false, |any, &v| any | selected(v, thr)) {
                continue;
            }
            for (j, &v) in block.iter().enumerate() {
                if k == nnz {
                    break 'blocks;
                }
                indices[k] = (b * BLOCK + j) as u32;
                values[k] = v;
                k += selected(v, thr) as usize;
            }
        }
        debug_assert_eq!(k, nnz, "the count is not this threshold's");
        indices.truncate(k);
        values.truncate(k);
        SparseVec {
            indices,
            values,
            dense_len: dense.len(),
        }
    }

    /// The full dense vector as a (degenerate) sparse vector; zero entries
    /// are kept so the wire size reflects a dense transfer.
    pub fn from_dense_full(dense: &[f32]) -> Self {
        SparseVec {
            indices: (0..dense.len() as u32).collect(),
            values: dense.to_vec(),
            dense_len: dense.len(),
        }
    }

    /// Scatter-add `scale * self` into `out` (len must match `dense_len`).
    pub fn add_into(&self, out: &mut [f32], scale: f32) {
        assert_eq!(out.len(), self.dense_len, "dense length mismatch");
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] += scale * v;
        }
    }

    /// Materialize as a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dense_len];
        self.add_into(&mut out, 1.0);
        out
    }
}

/// Entries taken per step by the loops below that the compiler vectorizes:
/// what [`SparseVec::from_dense_counted`] tests with one compare, and the
/// lanes of [`max_abs`].
const BLOCK: usize = 16;

/// Does Max N at threshold `thr >= 0` keep `v`? Exact zeros never travel,
/// and a NaN compares false; `&`, not `&&`, so there is nothing to predict.
#[inline(always)]
fn selected(v: f32, thr: f32) -> bool {
    (v.abs() >= thr) & (v != 0.0)
}

/// The largest magnitude in `dense` (NaN ignored; 0.0 if there is none). A
/// maximum does not depend on the order the entries are visited in, so
/// sixteen independent lanes take it: a loop the compiler turns into vector
/// compares instead of one serial chain.
pub fn max_abs(dense: &[f32]) -> f32 {
    let larger = |m: f32, v: f32| if v.abs() > m { v.abs() } else { m };
    let mut lanes = [0.0f32; BLOCK];
    let blocks = dense.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    for block in blocks {
        for (m, &v) in lanes.iter_mut().zip(block) {
            *m = larger(*m, v);
        }
    }
    tail.iter().chain(&lanes).fold(0.0, |m, &v| larger(m, v))
}

/// The Max N threshold of a variable whose largest magnitude is `max_abs`:
/// `(1 - n_percent/100) * max_abs`, `n_percent` clamped into `(0, 100]`.
#[inline]
pub fn max_n_threshold(max_abs: f32, n_percent: f64) -> f32 {
    let n = n_percent.clamp(f64::MIN_POSITIVE, 100.0);
    ((1.0 - n / 100.0) * max_abs as f64) as f32
}

/// Max N selection over one dense gradient (§3.3).
///
/// Selects entries with `|g| >= (1 - n_percent/100) * max|g|`. `n_percent`
/// is clamped into `(0, 100]`; at 100 the entire gradient is selected
/// (dense-equivalent exchange).
pub fn max_n_select(dense: &[f32], n_percent: f64) -> SparseVec {
    if n_percent >= 100.0 {
        return SparseVec::from_dense_full(dense);
    }
    let max = max_abs(dense);
    if max == 0.0 {
        return SparseVec::empty(dense.len());
    }
    SparseVec::from_dense_threshold(dense, max_n_threshold(max, n_percent))
}

/// Max N applied per weight variable of a whole model gradient, as the paper
/// specifies ("Max N is applied per weight variable").
pub fn max_n_select_model(grads: &[Tensor], n_percent: f64) -> Vec<SparseVec> {
    grads
        .iter()
        .map(|g| max_n_select(g.data(), n_percent))
        .collect()
}

/// Total wire bytes for a set of per-variable sparse gradients.
pub fn total_wire_bytes(sparse: &[SparseVec]) -> usize {
    sparse.iter().map(|s| s.wire_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> Vec<f32> {
        vec![0.05, -1.0, 0.5, 0.0, -0.95, 0.2, 0.91, -0.4]
    }

    #[test]
    fn max_n_100_selects_everything_including_zeros() {
        let s = max_n_select(&dense(), 100.0);
        assert_eq!(s.nnz(), 8, "N=100 must be dense-equivalent");
        assert_eq!(s.to_dense(), dense());
    }

    #[test]
    fn max_n_small_selects_near_max_only() {
        // N = 10 -> threshold 0.9 * 1.0 = 0.9 -> {-1.0, -0.95, 0.91}
        let s = max_n_select(&dense(), 10.0);
        assert_eq!(s.indices, vec![1, 4, 6]);
        assert_eq!(s.values, vec![-1.0, -0.95, 0.91]);
    }

    #[test]
    fn threshold_kernel_matches_a_plain_filter_across_block_edges() {
        // Lengths around the 16-entry block; hits clustered, spread, absent.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
            for stride in [1usize, 3, 16, 40, 1000] {
                let dense: Vec<f32> = (0..len)
                    .map(|i| match i % stride {
                        0 => -2.0 - i as f32,
                        1 => 0.0,
                        _ => 0.5,
                    })
                    .collect();
                let serial = dense.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                assert_eq!(max_abs(&dense), serial, "len {len} stride {stride}");
                for thr in [0.0f32, 0.5, 1.0, 1e9] {
                    let want: Vec<(u32, f32)> = dense
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.abs() >= thr && **v != 0.0)
                        .map(|(i, &v)| (i as u32, v))
                        .collect();
                    let got = SparseVec::from_dense_threshold(&dense, thr);
                    let pairs: Vec<(u32, f32)> = got
                        .indices
                        .iter()
                        .copied()
                        .zip(got.values.iter().copied())
                        .collect();
                    assert_eq!(pairs, want, "len {len} stride {stride} thr {thr}");
                    assert_eq!(got.dense_len, len);
                    assert_eq!(got, SparseVec::from_dense_counted(&dense, thr, want.len()));
                }
            }
        }
    }

    #[test]
    fn max_abs_ignores_nan_and_sees_infinities() {
        let mut v = vec![0.25f32; 40];
        v[3] = f32::NAN;
        v[38] = -7.0;
        assert_eq!(max_abs(&v), 7.0);
        v[17] = f32::NEG_INFINITY;
        assert_eq!(max_abs(&v), f32::INFINITY);
        assert_eq!(max_abs(&[f32::NAN, -0.0]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn max_n_monotone_in_n() {
        let d = dense();
        let mut prev = 0;
        for n in [1.0, 5.0, 10.0, 50.0, 80.0, 100.0] {
            let s = max_n_select(&d, n);
            assert!(s.nnz() >= prev, "selection must grow with N (n={n})");
            prev = s.nnz();
        }
    }

    #[test]
    fn max_n_zero_gradient() {
        let s = max_n_select(&[0.0; 5], 50.0);
        assert_eq!(s.nnz(), 0);
    }

    #[test]
    fn scatter_add_and_roundtrip() {
        let d = dense();
        let s = max_n_select(&d, 100.0);
        let mut out = vec![1.0; 8];
        s.add_into(&mut out, 2.0);
        for i in 0..8 {
            assert!((out[i] - (1.0 + 2.0 * d[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn wire_bytes_accounting() {
        let s = max_n_select(&dense(), 10.0);
        assert_eq!(s.wire_bytes(), 3 * SPARSE_ENTRY_BYTES);
        let model = vec![
            Tensor::from_vec(crate::Shape::d1(8), dense()),
            Tensor::from_vec(crate::Shape::d1(8), dense()),
        ];
        let sel = max_n_select_model(&model, 10.0);
        assert_eq!(total_wire_bytes(&sel), 6 * SPARSE_ENTRY_BYTES);
    }

    #[test]
    fn indices_strictly_increasing() {
        let s = max_n_select(&dense(), 60.0);
        for w in s.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn density_and_empty() {
        let e = SparseVec::empty(10);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.density(), 0.0);
        let s = max_n_select(&dense(), 10.0);
        assert!((s.density() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(SparseVec::empty(0).density(), 0.0);
    }
}
