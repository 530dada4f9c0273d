//! im2col convolution backend.
//!
//! The classic HPC formulation: lower the convolution into one large matrix
//! multiplication by unrolling every receptive field into a row
//! ([`im2col_into`]), then compute `out = patches · weightᵀ` with the
//! blocked, register-tiled GEMM from `ops::matmul`. Trades memory for much
//! better cache behaviour; on the shapes the paper's models use it beats
//! the direct kernel in `ops::conv` as soon as the implied GEMM is
//! non-trivial (the dispatch in `ops::conv` picks the winner per shape).
//! Every buffer — patch matrix, GEMM products, results — comes from the
//! caller's [`Scratch`] arena; the filter bank is read in place, viewed as
//! `(F, C·KH·KW)`. Unrolling, scattering and the layout transposes are
//! plain serial loops, like the GEMMs they feed.
//!
//! The backward pass is lowered the same way:
//!
//! * `dW = doutᵀ_rows · patches`   (one `matmul_tn_into`)
//! * `dpatches = dout_rows · W`    (one `matmul_into`), then scattered back
//!   to the input layout by [`col2im_into`] (the exact adjoint of
//!   [`im2col_into`]).

use crate::ops::conv::{dims4, out_hw, ConvGrads};
use crate::ops::matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
use crate::scratch::Scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Unroll `input (N,C,H,W)` into a row-major patch matrix
/// `(N*OH*OW, C*KH*KW)` for a stride-1 convolution with zero padding `pad`,
/// written into a caller-owned buffer. Every slot is overwritten (out-of-
/// bounds taps with zeros), so uninitialized scratch storage is fine.
pub fn im2col_into(input: &Tensor, kh: usize, kw: usize, pad: usize, out: &mut [f32]) {
    let [n, c, h, w] = dims4(input);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    let row_len = c * kh * kw;
    assert_eq!(out.len(), n * oh * ow * row_len, "im2col out length");
    let id = input.data();
    for (ni, chunk) in out.chunks_mut(oh * ow * row_len).enumerate() {
        let ibase = ni * c * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &mut chunk[(oy * ow + ox) * row_len..(oy * ow + ox + 1) * row_len];
                let mut k = 0;
                for ci in 0..c {
                    let icbase = ibase + ci * h * w;
                    for ky in 0..kh {
                        let iy = oy + ky;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            row[k] = if iy >= pad && iy < h + pad && ix >= pad && ix < w + pad {
                                id[icbase + (iy - pad) * w + (ix - pad)]
                            } else {
                                0.0
                            };
                            k += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_into`]: scatter-add a patch-gradient matrix
/// `(N*OH*OW, C*KH*KW)` back into an input-shaped `(N,C,H,W)` buffer, which
/// must be **pre-zeroed** (the scatter accumulates). The scatter runs in a
/// fixed loop order, so the accumulation is deterministic.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    dpatches: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    dinput: &mut [f32],
) {
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    let row_len = c * kh * kw;
    assert_eq!(
        dpatches.shape().dims(),
        &[n * oh * ow, row_len],
        "col2im patch-matrix shape"
    );
    assert_eq!(dinput.len(), n * c * h * w, "col2im dinput length");
    let pd = dpatches.data();
    for (ni, dslice) in dinput.chunks_mut(c * h * w).enumerate() {
        let rbase = ni * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let row = &pd[(rbase + oy * ow + ox) * row_len..][..row_len];
                let mut k = 0;
                for ci in 0..c {
                    let icbase = ci * h * w;
                    for ky in 0..kh {
                        let iy = oy + ky;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if iy >= pad && iy < h + pad && ix >= pad && ix < w + pad {
                                dslice[icbase + (iy - pad) * w + (ix - pad)] += row[k];
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
    }
}

/// GEMM-backed convolution forward, numerically equivalent to
/// [`crate::ops::conv2d_direct`]. The patch matrix, the GEMM product and
/// the returned output all come from `s`.
pub fn conv2d_im2col_s(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> Tensor {
    let [n, c, h, w] = dims4(input);
    let [f, cw, kh, kw] = dims4(weight);
    assert_eq!(c, cw, "conv2d channel mismatch");
    assert_eq!(bias.numel(), f);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    let rows = n * oh * ow;
    let row_len = c * kh * kw;

    let mut patches_buf = s.take_uninit(rows * row_len);
    im2col_into(input, kh, kw, pad, &mut patches_buf);
    let patches = Tensor::from_vec(Shape::d2(rows, row_len), patches_buf);
    // weight viewed as (F, C*KH*KW) — shared storage, no copy:
    // patches (R, K) x weightᵀ -> (R, F).
    let wmat = weight.clone().reshape(Shape::d2(f, row_len));
    let mut prod = s.take_uninit(rows * f); // (N*OH*OW, F)
    matmul_nt_into(&patches, &wmat, &mut prod);
    s.put_tensor(patches);

    // Transpose rows into NCHW order and add bias. `out` is taken while
    // `prod` is still live (they are the same length, so putting `prod`
    // first would hand its storage straight back as `out`).
    let pd = &prod[..];
    let bd = bias.data();
    let mut out = s.take_uninit(n * f * oh * ow);
    for (ni, chunk) in out.chunks_mut(f * oh * ow).enumerate() {
        let rbase = ni * oh * ow;
        for fi in 0..f {
            let b = bd[fi];
            for p in 0..oh * ow {
                chunk[fi * oh * ow + p] = pd[(rbase + p) * f + fi] + b;
            }
        }
    }
    s.put(prod);
    Tensor::from_vec(Shape::d4(n, f, oh, ow), out)
}

/// GEMM-backed convolution backward, numerically equivalent to
/// [`crate::ops::conv2d_backward_direct`] but dominated by two blocked
/// GEMMs instead of branchy scatter nests. All buffers — including the
/// returned gradient tensors — come from `s`; the caller recycles the
/// results with [`Scratch::put_tensor`] once consumed.
pub fn conv2d_backward_im2col_s(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> ConvGrads {
    let [n, c, h, w] = dims4(input);
    let [f, _, kh, kw] = dims4(weight);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    assert_eq!(
        dout.shape().dims(),
        &[n, f, oh, ow],
        "conv2d_backward dout shape"
    );
    let rows = n * oh * ow;
    let row_len = c * kh * kw;

    // dout (N,F,OH,OW) -> row layout (N*OH*OW, F), inverse of the forward
    // output transpose.
    let dd = dout.data();
    let mut drows_buf = s.take_uninit(rows * f);
    for (ni, chunk) in drows_buf.chunks_mut(oh * ow * f).enumerate() {
        let dbase = ni * f * oh * ow;
        for p in 0..oh * ow {
            let dst = &mut chunk[p * f..(p + 1) * f];
            for (fi, v) in dst.iter_mut().enumerate() {
                *v = dd[dbase + fi * oh * ow + p];
            }
        }
    }
    let drows = Tensor::from_vec(Shape::d2(rows, f), drows_buf);

    // dbias: column sums of dout rows, fixed (row-major) reduction order.
    let mut dbias = s.take(f);
    for r in 0..rows {
        let row = &drows.data()[r * f..(r + 1) * f];
        for (b, &g) in dbias.iter_mut().zip(row) {
            *b += g;
        }
    }

    let mut patches_buf = s.take_uninit(rows * row_len);
    im2col_into(input, kh, kw, pad, &mut patches_buf);
    let patches = Tensor::from_vec(Shape::d2(rows, row_len), patches_buf);
    // dW (F, K) = doutᵀ_rows · patches.
    let mut dw_buf = s.take_uninit(f * row_len);
    matmul_tn_into(&drows, &patches, &mut dw_buf);
    let dweight = Tensor::from_vec(Shape::d4(f, c, kh, kw), dw_buf);
    // dpatches (R, K) = dout_rows · W, W viewed as (F, K) without a copy.
    let wmat = weight.clone().reshape(Shape::d2(f, row_len));
    let mut dpatches_buf = s.take_uninit(rows * row_len);
    matmul_into(&drows, &wmat, &mut dpatches_buf);
    let dpatches = Tensor::from_vec(Shape::d2(rows, row_len), dpatches_buf);
    s.put_tensor(patches);
    s.put_tensor(drows);
    let mut dinput_buf = s.take(n * c * h * w);
    col2im_into(&dpatches, n, c, h, w, kh, kw, pad, &mut dinput_buf);
    s.put_tensor(dpatches);

    ConvGrads {
        dinput: Tensor::from_vec(Shape::d4(n, c, h, w), dinput_buf),
        dweight,
        dbias: Tensor::from_vec(Shape::d1(f), dbias),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_backward_direct, conv2d_direct};
    use crate::rng::DetRng;

    #[test]
    fn im2col_known_values() {
        // 1x1x3x3 ramp, 2x2 kernel, no padding: 4 patches of 4 taps.
        let input = Tensor::from_fn(Shape::d4(1, 1, 3, 3), |i| i as f32);
        let mut p = [f32::NAN; 4 * 4];
        im2col_into(&input, 2, 2, 0, &mut p);
        assert_eq!(&p[0..4], &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(&p[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let input = Tensor::full(Shape::d4(1, 1, 2, 2), 1.0);
        let mut p = [f32::NAN; 4 * 9];
        im2col_into(&input, 3, 3, 1, &mut p);
        // Top-left patch: only the 2x2 bottom-right of the kernel hits data.
        assert_eq!(p[0..9].iter().filter(|&&v| v != 0.0).count(), 4);
        assert!(p.iter().all(|v| !v.is_nan()), "padding taps are written");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), p> == <x, col2im(p)> for any p: the defining property
        // of an adjoint, checked exactly on small integers.
        let input = Tensor::from_fn(Shape::d4(1, 2, 3, 3), |i| (i % 7) as f32);
        let mut patches = [f32::NAN; 16 * 8]; // 4x4 outputs, 2*2*2 taps
        im2col_into(&input, 2, 2, 1, &mut patches);
        let p = Tensor::from_fn(Shape::d2(16, 8), |i| ((i * 3) % 5) as f32);
        let lhs: f32 = patches.iter().zip(p.data()).map(|(a, b)| a * b).sum();
        let mut back = [0.0; 18];
        col2im_into(&p, 1, 2, 3, 3, 2, 2, 1, &mut back);
        let rhs: f32 = input.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn matches_direct_conv_exactly_shaped() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut s = Scratch::new();
        for (n, c, h, w, f, k, pad) in [
            (2, 3, 8, 8, 5, 3, 1),
            (1, 1, 5, 7, 2, 3, 0),
            (3, 4, 6, 6, 8, 1, 0),
            (1, 2, 4, 4, 3, 3, 2),
        ] {
            let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
            let direct = conv2d_direct(&input, &weight, &bias, pad, &mut s);
            let gemm = conv2d_im2col_s(&input, &weight, &bias, pad, &mut s);
            assert_eq!(direct.shape(), gemm.shape());
            for (i, (a, b)) in direct.data().iter().zip(gemm.data()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4,
                    "({n},{c},{h},{w},{f},{k},{pad}) idx {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_direct_backend() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut s = Scratch::new();
        for (n, c, h, w, f, k, pad) in [
            (2, 3, 8, 8, 5, 3, 1),
            (1, 1, 5, 7, 2, 3, 0),
            (3, 4, 6, 6, 8, 1, 0),
        ] {
            let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let oh = h + 2 * pad - k + 1;
            let ow = w + 2 * pad - k + 1;
            let dout = Tensor::randn(Shape::d4(n, f, oh, ow), 1.0, &mut rng);
            let a = conv2d_backward_direct(&input, &weight, &dout, pad, &mut s);
            let b = conv2d_backward_im2col_s(&input, &weight, &dout, pad, &mut s);
            for (what, x, y) in [
                ("dinput", &a.dinput, &b.dinput),
                ("dweight", &a.dweight, &b.dweight),
                ("dbias", &a.dbias, &b.dbias),
            ] {
                assert_eq!(x.shape(), y.shape());
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    assert!(
                        (p - q).abs() < 1e-3,
                        "({n},{c},{h},{w},{f},{k},{pad}) {what}[{i}]: {p} vs {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let mut rng = DetRng::seed_from_u64(2);
        let input = Tensor::randn(Shape::d4(4, 3, 10, 10), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(6, 3, 3, 3), 0.5, &mut rng);
        let bias = Tensor::zeros(Shape::d1(6));
        let mut s = Scratch::new();
        let a = conv2d_im2col_s(&input, &weight, &bias, 1, &mut s);
        let b = conv2d_im2col_s(&input, &weight, &bias, 1, &mut s);
        assert_eq!(a.data(), b.data());
    }
}
