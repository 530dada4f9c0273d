//! Dense matrix multiplication kernels: register-tiled, panel-packed,
//! serial.
//!
//! Three variants cover everything a dense layer's forward/backward pass
//! needs without materializing transposes:
//!
//! * [`matmul_into`]    — `C = A·B`      (`M×K · K×N`)
//! * [`matmul_nt_into`] — `C = A·Bᵀ`    (`M×K · N×K`)
//! * [`matmul_tn_into`] — `C = Aᵀ·B`    (`K×M · K×N`)
//!
//! each writing into a caller-owned buffer (in training, one drawn from
//! the worker's [`crate::Scratch`]); none of them allocates its result.
//!
//! # Blocking / packing scheme
//!
//! The right-hand operand is packed once per call into column panels of
//! [`NR`] = 16 columns (`pb[kk * NR + c] = B[kk][j0 + c]`, zero-padded on the
//! ragged edge), so the micro-kernel streams B contiguously regardless of
//! the variant's storage order. The micro-kernel computes an `MR×NR`
//! (4×16) register tile: for each `k` it loads one packed B row and `MR`
//! A scalars, updating 64 accumulators. On AVX-512 hosts the full-tile
//! case uses explicit 512-bit `mul`/`add` intrinsics (one ZMM per row);
//! elsewhere a constant-trip-count scalar loop autovectorizes. One call
//! is one thread's work: the largest GEMM a training step issues is a few
//! hundred µs, below what a fork-join pays back (DESIGN.md §4b).
//!
//! # Determinism rules
//!
//! Every output element is produced by a *single sequential accumulation
//! chain in strictly ascending `k`*: `c = ((0 + a_0·b_0) + a_1·b_1) + …`.
//! Tiling changes which elements are computed together, never the order of
//! additions within one element, and `mul_add`/split-`k` reductions are
//! deliberately not used — so every variant is bit-identical to the naive
//! `i,j,k` triple loop, on every run. (The seed
//! kernels' `av == 0.0` skip is gone: it cost a branch per inner iteration
//! on dense activations and made results depend on signed zeros.)

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Micro-tile rows (A rows per register tile).
pub const MR: usize = 4;
/// Micro-tile columns (packed B panel width): one 512-bit vector, or two
/// 256-bit ones on AVX2-only hosts.
pub const NR: usize = 16;

thread_local! {
    /// Reusable panel-packing buffer (per thread; GEMMs never nest).
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's panel-packing buffer (its contents are stale;
/// the pack functions overwrite it).
fn with_pack_buf<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_BUF.with(|p| {
        let mut pb = std::mem::take(&mut *p.borrow_mut());
        let r = f(&mut pb);
        *p.borrow_mut() = pb;
        r
    })
}

/// Pack row-major `B: K×N` into `ceil(n/NR)` column panels, each `k × NR`
/// contiguous, zero-padding the last panel's missing columns.
fn pack_panels_rowmajor(bd: &[f32], k: usize, n: usize, pb: &mut Vec<f32>) {
    let np = n.div_ceil(NR);
    pb.clear();
    pb.resize(np * k * NR, 0.0);
    for jp in 0..np {
        let j0 = jp * NR;
        let ne = NR.min(n - j0);
        let panel = &mut pb[jp * k * NR..(jp + 1) * k * NR];
        for kk in 0..k {
            let src = &bd[kk * n + j0..kk * n + j0 + ne];
            panel[kk * NR..kk * NR + ne].copy_from_slice(src);
        }
    }
}

/// Pack row-major `B: N×K` (i.e. Bᵀ of the multiply) into the same panel
/// layout as [`pack_panels_rowmajor`].
fn pack_panels_transposed(bd: &[f32], k: usize, n: usize, pb: &mut Vec<f32>) {
    let np = n.div_ceil(NR);
    pb.clear();
    pb.resize(np * k * NR, 0.0);
    for jp in 0..np {
        let j0 = jp * NR;
        let ne = NR.min(n - j0);
        let panel = &mut pb[jp * k * NR..(jp + 1) * k * NR];
        for c in 0..ne {
            let brow = &bd[(j0 + c) * k..(j0 + c + 1) * k];
            for (kk, &v) in brow.iter().enumerate() {
                panel[kk * NR + c] = v;
            }
        }
    }
}

/// AVX-512 full-tile micro-kernels. Deliberately `mul` + `add`, never FMA:
/// the determinism contract is bit-identity with the naive mul-then-add
/// loop, and a fused multiply-add rounds once instead of twice.
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd {
    use super::{MR, NR};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// Full `MR×NR` tile, A row-major (`a[r * a_stride + kk]`).
    ///
    /// # Safety
    /// AVX-512F must be available; `a` must cover `(MR-1)*a_stride + k`
    /// elements and `panel` at least `k * NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn rows(
        k: usize,
        a: &[f32],
        a_stride: usize,
        panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c0 = _mm512_loadu_ps(acc[0].as_ptr());
        let mut c1 = _mm512_loadu_ps(acc[1].as_ptr());
        let mut c2 = _mm512_loadu_ps(acc[2].as_ptr());
        let mut c3 = _mm512_loadu_ps(acc[3].as_ptr());
        let ap = a.as_ptr();
        for kk in 0..k {
            let b = _mm512_loadu_ps(panel.as_ptr().add(kk * NR));
            c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(*ap.add(kk)), b));
            c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(*ap.add(a_stride + kk)), b));
            c2 = _mm512_add_ps(
                c2,
                _mm512_mul_ps(_mm512_set1_ps(*ap.add(2 * a_stride + kk)), b),
            );
            c3 = _mm512_add_ps(
                c3,
                _mm512_mul_ps(_mm512_set1_ps(*ap.add(3 * a_stride + kk)), b),
            );
        }
        _mm512_storeu_ps(acc[0].as_mut_ptr(), c0);
        _mm512_storeu_ps(acc[1].as_mut_ptr(), c1);
        _mm512_storeu_ps(acc[2].as_mut_ptr(), c2);
        _mm512_storeu_ps(acc[3].as_mut_ptr(), c3);
    }

    /// Full `MR×NR` tile, A column-major (`a[kk * a_stride + r]`).
    ///
    /// # Safety
    /// AVX-512F must be available; `a` must cover `(k-1)*a_stride + MR`
    /// elements and `panel` at least `k * NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn cols(
        k: usize,
        a: &[f32],
        a_stride: usize,
        panel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c0 = _mm512_loadu_ps(acc[0].as_ptr());
        let mut c1 = _mm512_loadu_ps(acc[1].as_ptr());
        let mut c2 = _mm512_loadu_ps(acc[2].as_ptr());
        let mut c3 = _mm512_loadu_ps(acc[3].as_ptr());
        let ap = a.as_ptr();
        for kk in 0..k {
            let b = _mm512_loadu_ps(panel.as_ptr().add(kk * NR));
            let arow = ap.add(kk * a_stride);
            c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(*arow), b));
            c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(*arow.add(1)), b));
            c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(*arow.add(2)), b));
            c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(*arow.add(3)), b));
        }
        _mm512_storeu_ps(acc[0].as_mut_ptr(), c0);
        _mm512_storeu_ps(acc[1].as_mut_ptr(), c1);
        _mm512_storeu_ps(acc[2].as_mut_ptr(), c2);
        _mm512_storeu_ps(acc[3].as_mut_ptr(), c3);
    }
}

/// `mr × NR` register tile against a packed panel, A accessed row-major
/// (`a[r * a_stride + kk]`). `a` must be positioned at `(row0, k=0)`.
///
/// The full-tile case runs with *constant* trip counts on a local copy of
/// the accumulators: SROA then promotes the whole `MR×NR` tile into vector
/// registers, which is the entire point of register tiling (with a runtime
/// `mr` the tile lives in memory and every `k` step pays loads + stores).
#[inline]
fn micro_a_rows(
    mr: usize,
    k: usize,
    a: &[f32],
    a_stride: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    if mr == MR {
        #[cfg(target_arch = "x86_64")]
        if simd::available() {
            // SAFETY: feature checked; slice bounds asserted by callers'
            // indexing below would hold for the same accesses.
            unsafe { simd::rows(k, a, a_stride, panel, acc) };
            return;
        }
        let mut t = *acc;
        for kk in 0..k {
            let b8 = &panel[kk * NR..kk * NR + NR];
            for r in 0..MR {
                let av = a[r * a_stride + kk];
                for c in 0..NR {
                    t[r][c] += av * b8[c];
                }
            }
        }
        *acc = t;
        return;
    }
    for kk in 0..k {
        let b8 = &panel[kk * NR..kk * NR + NR];
        for r in 0..mr {
            let av = a[r * a_stride + kk];
            for c in 0..NR {
                acc[r][c] += av * b8[c];
            }
        }
    }
}

/// Same tile with A accessed column-major (`a[kk * a_stride + r]`), for the
/// `Aᵀ·B` variant. `a` must be positioned at `(k=0, col0)`.
#[inline]
fn micro_a_cols(
    mr: usize,
    k: usize,
    a: &[f32],
    a_stride: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    if mr == MR {
        #[cfg(target_arch = "x86_64")]
        if simd::available() {
            // SAFETY: feature checked; same element accesses as the
            // portable loop below.
            unsafe { simd::cols(k, a, a_stride, panel, acc) };
            return;
        }
        let mut t = *acc;
        for kk in 0..k {
            let b8 = &panel[kk * NR..kk * NR + NR];
            let arow = &a[kk * a_stride..kk * a_stride + MR];
            for r in 0..MR {
                let av = arow[r];
                for c in 0..NR {
                    t[r][c] += av * b8[c];
                }
            }
        }
        *acc = t;
        return;
    }
    for kk in 0..k {
        let b8 = &panel[kk * NR..kk * NR + NR];
        let arow = &a[kk * a_stride..kk * a_stride + mr];
        for r in 0..mr {
            let av = arow[r];
            for c in 0..NR {
                acc[r][c] += av * b8[c];
            }
        }
    }
}

/// Shared driver: C rows `[0, m)` swept in MR strips against every packed
/// panel.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    packed: &[f32],
    a_at_row: &dyn Fn(usize) -> (usize, usize), // row -> (offset, stride)
    col_major_a: bool,
    ad: &[f32],
) {
    assert_eq!(out.len(), m * n, "gemm output buffer size");
    let np = n.div_ceil(NR);
    let mut r0 = 0;
    while r0 < m {
        let mr = MR.min(m - r0);
        for jp in 0..np {
            let j0 = jp * NR;
            let ne = NR.min(n - j0);
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            let (off, stride) = a_at_row(r0);
            if col_major_a {
                micro_a_cols(mr, k, &ad[off..], stride, panel, &mut acc);
            } else {
                micro_a_rows(mr, k, &ad[off..], stride, panel, &mut acc);
            }
            for r in 0..mr {
                let dst = &mut out[(r0 + r) * n + j0..(r0 + r) * n + j0 + ne];
                dst.copy_from_slice(&acc[r][..ne]);
            }
        }
        r0 += mr;
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank-2");
    (t.shape().dim(0), t.shape().dim(1))
}

/// `C = A·B` for `A: M×K`, `B: K×N`, written into `out` (`len == m * n`).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Gemm);
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let (ad, bd) = (a.data(), b.data());
    with_pack_buf(|pb| {
        pack_panels_rowmajor(bd, k, n, pb);
        gemm_driver(m, k, n, out, pb, &|row| (row * k, k), false, ad);
    });
}

/// `C = A·Bᵀ` for `A: M×K`, `B: N×K`, written into `out` (`len == m * n`).
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Gemm);
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
    let (ad, bd) = (a.data(), b.data());
    with_pack_buf(|pb| {
        pack_panels_transposed(bd, k, n, pb);
        gemm_driver(m, k, n, out, pb, &|row| (row * k, k), false, ad);
    });
}

/// `C = Aᵀ·B` for `A: K×M`, `B: K×N`, written into `out` (`len == m * n`).
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Gemm);
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
    let (ad, bd) = (a.data(), b.data());
    with_pack_buf(|pb| {
        pack_panels_rowmajor(bd, k, n, pb);
        gemm_driver(m, k, n, out, pb, &|row| (row, m), true, ad);
    });
}

/// Reference kernel: the naive `i,j,k` triple loop the blocked kernels must
/// match bit-for-bit. Kept public for tests and the bench binary.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ad[i * k + kk] * bd[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        matmul_naive(a, b)
    }

    fn transpose(a: &Tensor) -> Tensor {
        let (m, n) = (a.shape().dim(0), a.shape().dim(1));
        Tensor::from_fn(Shape::d2(n, m), |f| {
            let (i, j) = (f / m, f % m);
            a.at(&[j, i])
        })
    }

    #[test]
    fn matmul_small_exact() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = [f32::NAN; 4];
        matmul_into(&a, &b, &mut c);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = DetRng::seed_from_u64(1);
        let a = Tensor::randn(Shape::d2(5, 5), 1.0, &mut rng);
        let eye = Tensor::from_fn(Shape::d2(5, 5), |f| if f / 5 == f % 5 { 1.0 } else { 0.0 });
        let mut c = [f32::NAN; 25];
        matmul_into(&a, &eye, &mut c);
        for (x, y) in c.iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_matches_naive_on_ragged_shapes() {
        let mut rng = DetRng::seed_from_u64(2);
        let a = Tensor::randn(Shape::d2(33, 47), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(47, 29), 1.0, &mut rng);
        let mut c = vec![f32::NAN; 33 * 29];
        matmul_into(&a, &b, &mut c);
        let expect = naive(&a, &b);
        for (x, y) in c.iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// The blocked kernels' determinism contract: bit-identical to the naive
    /// triple loop, including shapes not divisible by MR/NR.
    #[test]
    fn blocked_kernels_bit_match_naive() {
        let mut rng = DetRng::seed_from_u64(20);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (33, 47, 29),
            (64, 64, 64),
            (65, 31, 70),
        ] {
            let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
            let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
            let expect = naive(&a, &b);
            let mut c = vec![f32::NAN; m * n];
            matmul_into(&a, &b, &mut c);
            assert_eq!(c, expect.data(), "matmul {m}x{k}x{n}");

            let bt = transpose(&b);
            c.fill(f32::NAN);
            matmul_nt_into(&a, &bt, &mut c);
            assert_eq!(c, expect.data(), "matmul_nt {m}x{k}x{n}");

            let at = transpose(&a);
            c.fill(f32::NAN);
            matmul_tn_into(&at, &b, &mut c);
            assert_eq!(c, expect.data(), "matmul_tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn stale_output_contents_are_overwritten() {
        let mut rng = DetRng::seed_from_u64(21);
        let a = Tensor::randn(Shape::d2(13, 21), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(21, 10), 1.0, &mut rng);
        let expect = naive(&a, &b);
        let mut out = vec![7.0f32; 130];
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, expect.data());

        out.fill(7.0);
        matmul_nt_into(&a, &transpose(&b), &mut out);
        assert_eq!(out, expect.data());

        out.fill(7.0);
        matmul_tn_into(&transpose(&a), &b, &mut out);
        assert_eq!(out, expect.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = DetRng::seed_from_u64(3);
        let a = Tensor::randn(Shape::d2(7, 11), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(5, 11), 1.0, &mut rng);
        let mut c = [f32::NAN; 7 * 5];
        matmul_nt_into(&a, &b, &mut c);
        let expect = naive(&a, &transpose(&b));
        for (x, y) in c.iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = DetRng::seed_from_u64(4);
        let a = Tensor::randn(Shape::d2(11, 7), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(11, 5), 1.0, &mut rng);
        let mut c = [f32::NAN; 7 * 5];
        matmul_tn_into(&a, &b, &mut c);
        let expect = naive(&transpose(&a), &b);
        for (x, y) in c.iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        matmul_into(&a, &b, &mut [0.0; 4]);
    }

    #[test]
    fn matmul_deterministic_across_runs() {
        let mut rng = DetRng::seed_from_u64(5);
        let a = Tensor::randn(Shape::d2(64, 64), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(64, 64), 1.0, &mut rng);
        let (mut c1, mut c2) = (vec![f32::NAN; 64 * 64], vec![f32::NAN; 64 * 64]);
        matmul_into(&a, &b, &mut c1);
        matmul_into(&a, &b, &mut c2);
        assert_eq!(c1, c2, "matmul must be deterministic");
    }
}
