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
//! count, then fill. The count ([`count_selected`]) sizes
//! `indices`/`values` exactly (no `push`, no growth); the fill stores each
//! 16-entry block's kept entries at a cursor and skips a block with nothing
//! to keep after one vector compare. A caller that knows the count passes
//! it in ([`SparseVec::from_dense_counted`]) and saves the counting pass.
//!
//! The planner's budget inversion adds the band compaction
//! ([`retain_band`], [`extend_band`]: keep, in order, the entries whose
//! magnitude lies in `[lo, hi)`). The count, the fill and the band
//! compaction are serial kernels, each with an AVX-512 body — compare
//! masks and a popcount or a compress, sixteen entries at a time — and a
//! portable twin for every other host, dispatched like the matmul
//! micro-kernels. They only compare and copy, so the twins agree bit for
//! bit by construction.

use crate::tensor::Tensor;

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

    /// Select all entries of `dense` with `|v| >= thr` (thr >= 0) — the one
    /// selection kernel; every Max N path ends here.
    pub fn from_dense_threshold(dense: &[f32], thr: f32) -> Self {
        Self::from_dense_counted(dense, thr, count_selected(dense, thr))
    }

    /// [`SparseVec::from_dense_threshold`] for a caller that already knows
    /// how many entries the threshold selects and so skips the counting
    /// pass. `nnz` must be that count: the selection is cut off after `nnz`
    /// entries.
    pub fn from_dense_counted(dense: &[f32], thr: f32, nnz: usize) -> Self {
        debug_assert!(thr >= 0.0);
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let k = fill(dense, thr, &mut indices, &mut values);
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
}

/// Entries taken per step by the loops below: what
/// [`SparseVec::from_dense_counted`] tests with one compare, the lanes of
/// [`max_abs_nonzero`] and of the AVX-512 kernels.
const BLOCK: usize = 16;

/// Does Max N at threshold `thr >= 0` keep `v`? Exact zeros never travel,
/// and a NaN compares false; `&`, not `&&`, so there is nothing to predict.
#[inline(always)]
fn selected(v: f32, thr: f32) -> bool {
    (v.abs() >= thr) & (v != 0.0)
}

/// Is `|v|` in `[lo, hi)`? A NaN is not.
#[inline(always)]
fn in_band(v: f32, lo: f32, hi: f32) -> bool {
    (v.abs() >= lo) & (v.abs() < hi)
}

/// The largest magnitude in `dense` (NaN ignored; 0.0 if there is none).
pub fn max_abs(dense: &[f32]) -> f32 {
    max_abs_nonzero(dense).0
}

/// [`max_abs`] and how many entries are nonzero (a NaN is not), in one
/// pass. Neither answer depends on the order the entries are visited in,
/// so sixteen independent lanes take them: a loop the compiler turns into
/// vector compares instead of one serial chain.
pub fn max_abs_nonzero(dense: &[f32]) -> (f32, usize) {
    let larger = |m: f32, v: f32| if v.abs() > m { v.abs() } else { m };
    let (mut maxima, mut counts) = ([0.0f32; BLOCK], [0u32; BLOCK]);
    let blocks = dense.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    for block in blocks {
        for ((m, c), &v) in maxima.iter_mut().zip(&mut counts).zip(block) {
            *m = larger(*m, v);
            *c += (v.abs() > 0.0) as u32;
        }
    }
    let max = tail.iter().chain(&maxima).fold(0.0, |m, &v| larger(m, v));
    let lanes: usize = counts.iter().map(|&c| c as usize).sum();
    (max, lanes + tail.iter().filter(|v| v.abs() > 0.0).count())
}

/// Store the first `indices.len()` entries of `dense` that Max N keeps at
/// `thr`, and their indices, at the front of `values` and `indices` (the
/// same length); returns how many were stored. [`simd::fill`] where the
/// host has AVX-512, its twin elsewhere.
fn fill(dense: &[f32], thr: f32, indices: &mut [u32], values: &mut [f32]) -> usize {
    assert_eq!(indices.len(), values.len());
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked.
        return unsafe { simd::fill(dense, thr, indices, values) };
    }
    fill_portable(dense, thr, indices, values)
}

/// Portable twin of [`simd::fill`]. Within a block, every entry is stored
/// at the cursor and the cursor advances only past a selected one, so the
/// next entry overwrites a rejected one: no branch on an entry. A block
/// without a selected entry (one vector compare) is skipped, which is most
/// blocks of a sparse selection and none of a dense one — predictable
/// either way. The exit is taken once, when the last slot has been filled.
fn fill_portable(dense: &[f32], thr: f32, indices: &mut [u32], values: &mut [f32]) -> usize {
    let nnz = indices.len();
    let mut k = 0;
    for (b, block) in dense.chunks(BLOCK).enumerate() {
        if !block.iter().fold(false, |any, &v| any | selected(v, thr)) {
            continue;
        }
        for (j, &v) in block.iter().enumerate() {
            if k == nnz {
                return k;
            }
            indices[k] = (b * BLOCK + j) as u32;
            values[k] = v;
            k += selected(v, thr) as usize;
        }
    }
    k
}

/// How many entries of `dense` Max N keeps at threshold `thr`: those with
/// `|v| >= thr` that are not zero (a NaN compares false, so it is never
/// kept). [`simd::count_selected`] where the host has AVX-512, its twin
/// elsewhere. The twin is vectorized too when built for AVX-512, but it
/// widens every hit into a 64-bit lane counter: over 280k entries it reads
/// 64 µs a count against the popcount body's 25 (2-vCPU AVX-512 Xeon).
pub fn count_selected(dense: &[f32], thr: f32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked.
        return unsafe { simd::count_selected(dense, thr) };
    }
    count_selected_portable(dense, thr)
}

/// Portable twin of [`simd::count_selected`].
fn count_selected_portable(dense: &[f32], thr: f32) -> usize {
    dense.iter().filter(|&&v| selected(v, thr)).count()
}

/// Move the entries `v` of `buf` with `lo <= |v| < hi` to its front, in
/// order, and return how many there are; what lies past them is left
/// unspecified.
pub fn retain_band(buf: &mut [f32], lo: f32, hi: f32) -> usize {
    let p = buf.as_mut_ptr();
    // SAFETY: `buf` holds `buf.len()` entries; the kernel reads entry `i`
    // before it writes any slot at or past a kept count `k <= i`, so an
    // in-place pass never overwrites an entry it has yet to read.
    unsafe { band(p, buf.len(), p, lo, hi) }
}

/// Append the entries `v` of `src` with `lo <= |v| < hi` to `out`, in order.
pub fn extend_band(src: &[f32], lo: f32, hi: f32, out: &mut Vec<f32>) {
    out.reserve(src.len());
    let at = out.len();
    // SAFETY: `out` has room for `src.len()` more entries and does not
    // overlap `src`; the kernel writes only below `at + src.len()` and
    // returns how many of those slots it filled.
    unsafe {
        let k = band(src.as_ptr(), src.len(), out.as_mut_ptr().add(at), lo, hi);
        out.set_len(at + k);
    }
}

/// The band compaction behind [`retain_band`] and [`extend_band`]:
/// [`simd::band`] where the host has AVX-512, its twin elsewhere.
///
/// # Safety
/// `src` must be readable for `n` entries and `dst` writable for `n`;
/// `dst` may equal `src` (an in-place pass) but must not start past it
/// inside it.
unsafe fn band(src: *const f32, n: usize, dst: *mut f32, lo: f32, hi: f32) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked; the extents are the caller's.
        return simd::band(src, n, dst, lo, hi);
    }
    band_portable(src, n, dst, lo, hi)
}

/// Portable twin of [`simd::band`]: every entry is stored at the cursor,
/// which advances only past a kept one (entry `i` is read before slot
/// `k <= i` is written).
///
/// # Safety
/// As [`band`].
unsafe fn band_portable(src: *const f32, n: usize, dst: *mut f32, lo: f32, hi: f32) -> usize {
    let mut k = 0;
    for i in 0..n {
        let v = *src.add(i);
        *dst.add(k) = v;
        k += in_band(v, lo, hi) as usize;
    }
    k
}

/// AVX-512 bodies of the Max N count, fill and band kernels: compares and
/// copies only, so each is its portable twin lane for lane.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::BLOCK;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The lanes of `live` whose entry is [`super::in_band`] of `[l, h)`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn inside(v: __m512, live: __mmask16, l: __m512, h: __m512) -> __mmask16 {
        let a = _mm512_abs_ps(v);
        _mm512_mask_cmp_ps_mask(
            _mm512_mask_cmp_ps_mask(live, a, l, _CMP_GE_OQ),
            a,
            h,
            _CMP_LT_OQ,
        )
    }

    /// The live lanes of the last `n % 16` entries.
    fn tail_mask(n: usize) -> __mmask16 {
        ((1u32 << (n % BLOCK)) - 1) as __mmask16
    }

    /// [`super::count_selected`], sixteen entries a compare. The threshold
    /// decides the compare once: at `thr > 0` a kept entry is one with
    /// `|v| >= thr` (such a `v` is not zero), at `thr <= 0` one with `v != 0`
    /// (every other `|v| >= thr`), and at a NaN `thr` there is none — the
    /// cases of [`super::selected`].
    ///
    /// # Safety
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn count_selected(dense: &[f32], thr: f32) -> usize {
        if thr > 0.0 {
            count::<_CMP_GE_OQ>(dense, thr)
        } else if thr <= 0.0 {
            count::<_CMP_NEQ_OQ>(dense, 0.0)
        } else {
            0
        }
    }

    /// The entries `v` of `dense` with `|v| P t`.
    #[target_feature(enable = "avx512f")]
    unsafe fn count<const P: i32>(dense: &[f32], t: f32) -> usize {
        let (p, t) = (dense.as_ptr(), _mm512_set1_ps(t));
        let whole = dense.len() - dense.len() % BLOCK;
        let mut n = 0;
        for i in (0..whole).step_by(BLOCK) {
            let v = _mm512_abs_ps(_mm512_loadu_ps(p.add(i)));
            n += _mm512_cmp_ps_mask::<P>(v, t).count_ones() as usize;
        }
        let tail = tail_mask(dense.len());
        let v = _mm512_abs_ps(_mm512_maskz_loadu_ps(tail, p.add(whole)));
        n + _mm512_mask_cmp_ps_mask::<P>(tail, v, t).count_ones() as usize
    }

    /// [`super::fill`]: each block's kept entries and their indices are
    /// compressed in registers and stored at the cursor; the block that
    /// reaches `indices.len()` stores only the entries that fit.
    ///
    /// # Safety
    /// AVX-512F must be available; `indices` and `values` must have the
    /// same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fill(dense: &[f32], thr: f32, indices: &mut [u32], values: &mut [f32]) -> usize {
        if thr > 0.0 {
            fill_where::<_CMP_GE_OQ>(dense, thr, indices, values)
        } else if thr <= 0.0 {
            fill_where::<_CMP_NEQ_OQ>(dense, 0.0, indices, values)
        } else {
            0
        }
    }

    /// [`fill`] of the entries `v` with `|v| P t`.
    #[target_feature(enable = "avx512f")]
    unsafe fn fill_where<const P: i32>(
        dense: &[f32],
        t: f32,
        indices: &mut [u32],
        values: &mut [f32],
    ) -> usize {
        let (p, t, nnz) = (dense.as_ptr(), _mm512_set1_ps(t), indices.len());
        let (ip, vp) = (indices.as_mut_ptr() as *mut i32, values.as_mut_ptr());
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut k = 0;
        for i in (0..dense.len()).step_by(BLOCK) {
            let live = if dense.len() - i >= BLOCK {
                !0
            } else {
                tail_mask(dense.len())
            };
            let v = _mm512_maskz_loadu_ps(live, p.add(i));
            let mut m = _mm512_mask_cmp_ps_mask::<P>(live, _mm512_abs_ps(v), t);
            if m == 0 {
                continue;
            }
            let room = nnz - k;
            while m.count_ones() as usize > room {
                m &= !(1 << (15 - m.leading_zeros()));
            }
            let at = _mm512_add_epi32(lane, _mm512_set1_epi32(i as i32));
            let stored = ((1u32 << m.count_ones()) - 1) as __mmask16;
            _mm512_mask_storeu_ps(vp.add(k), stored, _mm512_maskz_compress_ps(m, v));
            _mm512_mask_storeu_epi32(ip.add(k), stored, _mm512_maskz_compress_epi32(m, at));
            k += m.count_ones() as usize;
            if k == nnz {
                break;
            }
        }
        k
    }

    /// [`super::band`]: each whole block's kept entries are compressed in
    /// a register and stored, all sixteen lanes, at the cursor `k <= i`:
    /// the lanes past the kept ones land on entries already loaded (in
    /// place) or on room the caller provides, and the next store starts at
    /// the new cursor. The last, partial block stores its kept lanes only.
    ///
    /// # Safety
    /// AVX-512F must be available; the extents as [`super::band`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn band(src: *const f32, n: usize, dst: *mut f32, lo: f32, hi: f32) -> usize {
        let (l, h) = (_mm512_set1_ps(lo), _mm512_set1_ps(hi));
        let whole = n - n % BLOCK;
        let mut k = 0;
        for i in (0..whole).step_by(BLOCK) {
            let v = _mm512_loadu_ps(src.add(i));
            let m = inside(v, !0, l, h);
            _mm512_storeu_ps(dst.add(k), _mm512_maskz_compress_ps(m, v));
            k += m.count_ones() as usize;
        }
        let tail = tail_mask(n);
        let v = _mm512_maskz_loadu_ps(tail, src.add(whole));
        let m = inside(v, tail, l, h);
        _mm512_mask_compressstoreu_ps(dst.add(k), m, v);
        k + m.count_ones() as usize
    }
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
        assert_eq!(s.indices, (0..8).collect::<Vec<u32>>());
        assert_eq!(s.values, dense());
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

    /// On an AVX-512 host the dispatched kernels are the intrinsics; the
    /// portable twins every other host runs must give the same answers, and
    /// both the scalar definitions (elsewhere this compares the twins with
    /// themselves). Every tail length, the special values, and thresholds
    /// and band edges that are entries.
    #[test]
    fn portable_kernels_match_the_dispatched_ones_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tiny = f32::from_bits(1);
        let palette = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::from_bits(0x007f_ffff), // the largest denormal
            f32::MIN_POSITIVE,
            f32::MAX,
            0.5,
            -0.5,
            1.0,
        ];
        let mut rng = crate::DetRng::seed_from_u64(11);
        for len in 0..=67 {
            for _ in 0..3 {
                let dense: Vec<f32> = (0..len)
                    .map(|_| match rng.index(3) {
                        0 => palette[rng.index(palette.len())],
                        _ => (rng.normal() * 2.0) as f32,
                    })
                    .collect();
                let mut edges: Vec<f32> = palette.iter().map(|v| v.abs()).collect();
                edges.extend(dense.iter().map(|v| v.abs()));
                edges.push(-0.0);
                for (e, &thr) in edges.iter().enumerate() {
                    let what = format!("len {len} thr {thr:e}");
                    let want = dense
                        .iter()
                        .filter(|&&v| v.abs() >= thr && v != 0.0)
                        .count();
                    assert_eq!(count_selected(&dense, thr), want, "count, {what}");
                    assert_eq!(
                        count_selected_portable(&dense, thr),
                        want,
                        "count twin, {what}"
                    );

                    // The fill, with room for all of the selection and for
                    // half of it.
                    for room in [want, want / 2] {
                        let mut got = (vec![7u32; room], vec![f32::NAN; room]);
                        let mut twin = (vec![9u32; room], vec![0.0f32; room]);
                        let k = fill(&dense, thr, &mut got.0, &mut got.1);
                        let k_twin = fill_portable(&dense, thr, &mut twin.0, &mut twin.1);
                        assert_eq!((k, k_twin), (room, room), "fill, {what}");
                        assert_eq!(got.0, twin.0, "fill indices, {what} room {room}");
                        assert_eq!(bits(&got.1), bits(&twin.1), "fill values, {what}");
                    }

                    // The band `[thr, hi)` for a few other edges `hi`.
                    for _ in 0..3 {
                        let hi = edges[rng.index(edges.len())];
                        let what = format!("{what} hi {hi:e}");
                        let want: Vec<f32> = dense
                            .iter()
                            .copied()
                            .filter(|v| v.abs() >= thr && v.abs() < hi)
                            .collect();
                        let mut got = dense.clone();
                        let k = retain_band(&mut got, thr, hi);
                        assert_eq!(bits(&got[..k]), bits(&want), "retain_band, {what}");
                        let mut twin = dense.clone();
                        let p = twin.as_mut_ptr();
                        // SAFETY: an in-place pass over `twin`.
                        let k = unsafe { band_portable(p, len, p, thr, hi) };
                        assert_eq!(bits(&twin[..k]), bits(&want), "band twin, {what}");
                        let mut out = vec![-1.0f32; e % 3];
                        let before = out.clone();
                        extend_band(&dense, thr, hi, &mut out);
                        assert_eq!(bits(&out[..before.len()]), bits(&before), "{what}");
                        assert_eq!(
                            bits(&out[before.len()..]),
                            bits(&want),
                            "extend_band, {what}"
                        );
                    }
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
        let nonzero = |v: &[f32]| max_abs_nonzero(v).1;
        assert_eq!(nonzero(&v), 39);
        assert_eq!(nonzero(&[f32::NAN, -0.0, 0.0, f32::from_bits(1)]), 1);
        assert_eq!(nonzero(&[]), 0);
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
    fn max_n_applies_per_variable() {
        let model = vec![
            Tensor::from_vec(crate::Shape::d1(8), dense()),
            Tensor::from_vec(crate::Shape::d1(8), dense()),
        ];
        let sel = max_n_select_model(&model, 10.0);
        assert_eq!(sel.len(), 2);
        for s in &sel {
            assert_eq!(s.indices, vec![1, 4, 6]);
        }
    }

    #[test]
    fn indices_strictly_increasing() {
        let s = max_n_select(&dense(), 60.0);
        for w in s.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn empty_holds_no_entries() {
        let e = SparseVec::empty(10);
        assert_eq!((e.nnz(), e.dense_len), (0, 10));
    }
}
