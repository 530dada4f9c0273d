//! Implicit-GEMM convolution: the GEMM-regime backend behind
//! [`crate::ops::conv2d_s`] and [`crate::ops::conv2d_backward_into`].
//!
//! A stride-1 convolution is the product `patches (R, K) · weightᵀ (K, F)`
//! with one row per output pixel `r = (n, oy, ox)` and one column per tap
//! `k = (ci, ky, kx)`. The patch matrix is never built. The input is copied
//! once into a zero-padded `xpad (N, C, H+2p, W+2p)`, in which
//!
//! ```text
//! patches[r][k] = xpad[base_r + off[k]]
//! base_r = n·C·Hp·Wp + oy·Wp + ox          (the pixel's window corner)
//! off[k] = ci·Hp·Wp + ky·Wp + kx           (a K-entry table)
//! ```
//!
//! so the kernels read the patches through the offset table — no patch
//! buffer, no bounds test per element, and the padding taps are `xpad`'s
//! zeros. The three products of a training step:
//!
//! * forward `out = patches · Wᵀ + bias` with sixteen *pixel* lanes: a vector
//!   holds the positions `q = oy·Wp + ox … + 15` of one sample's
//!   padded-width output grid, so tap `k` of all sixteen is one contiguous
//!   (masked) load `xpad[n·C·Hp·Wp + q + off[k] ..]`, and each filter `j` of a
//!   register group of 16/8/4/1 is one accumulator. A lane is live iff
//!   `q % Wp < OW` and `q < (OH−1)·Wp + OW`; the live lanes of a block are
//!   consecutive NCHW outputs of each filter, so the bias-added accumulator
//!   is compress-stored straight into `out[n][j]` — no transpose. Filter
//!   count does not idle lanes (Cipher's 4- and 8-filter layers fill all
//!   sixteen); a small map does (a 3×3 map fills 9 of its one block's 16);
//! * `dWᵀ[k][f] = Σ_r patches[r][k] · drows[r][f]` — four taps × sixteen
//!   filters per sweep over the rows, `dbias` one more accumulator of the
//!   first sweep;
//! * `dinput`: each 4-row strip of `dpatches = drows · W` is computed into a
//!   strip buffer (all panels of the strip first) and scatter-added into a
//!   padded `dpad` through the same offset table, then un-padded.
//!
//! # Order contract
//!
//! Every output element is the chain the patch-matrix + GEMM lowering this
//! replaced ran, so the bits are that lowering's: forward
//! `((0 + a₀w₀) + a₁w₁ + …) + bias` in ascending `k`, *including* the
//! padding taps' `0·w` terms (a NaN or ±∞ weight propagates as before);
//! `dW[f][k]` and `dbias[f]` from `+0.0` in ascending `r`; each
//! `dpatches[r][k]` from `+0.0` in ascending `f`, and each `dinput` element
//! from `+0.0` receiving its `dpatches` terms in ascending `(r, k)`. `mul`
//! then `add`, never FMA; no split-`k`; no zero skips.
//!
//! # Safety of the gather reads
//!
//! All `unsafe` of the convolution is in this module: the [`simd`] kernels,
//! which read `xpad` through raw pointers, and [`scatter_add`]'s unchecked
//! writes into `dpad`. [`Geom::with`] makes the one assertion that covers a
//! whole pass — the largest index any live read can form,
//! `(N−1)·C·Hp·Wp + (OH−1)·Wp + (OW−1) + off[K−1]`, is inside the padded
//! buffer — before any loop runs; bases, offsets and lane masks come only
//! from the geometry's own tables, which nothing outside this module can
//! build. The forward's loads are masked: a dead lane (a padding column, or
//! past the grid's last pixel) is never read, even where its address lies
//! beyond the buffer, and the portable twin reads live lanes only. The
//! compress store writes exactly a block's live lanes; the masks of a
//! sample count `OH·OW` of them, so a sample's stores stay inside its
//! `F·OH·OW` outputs.

use crate::ops::conv::{dims4, out_hw};
use crate::ops::matmul::{micro_a_rows, pack_panels_rowmajor, with_pack_buf, MR, NR};
use crate::scratch::Scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Pixel lanes of the forward kernel: `f32`s per 512-bit vector.
const LANES: usize = 16;

thread_local! {
    /// Reusable storage for [`Geom`]'s index and mask tables (per thread;
    /// like the GEMMs' packing buffer, convolutions never nest).
    static TABLES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One convolution's shapes and its tables into the padded image.
struct Geom<'a> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    hp: usize,
    wp: usize,
    /// `off[k]` for `k = (ci, ky, kx)`, ascending in `k`.
    off: &'a [usize],
    /// `pix[p] = oy·Wp + ox` for `p = (oy, ox)`.
    pix: &'a [usize],
    /// One per 16-lane block of a sample's padded-width output grid: bit
    /// `i` of `masks[b]` is set iff `q = 16·b + i` is live (`q % Wp < OW`,
    /// `q < (OH−1)·Wp + OW`).
    masks: &'a [usize],
}

impl Geom<'_> {
    /// Build the geometry of `input ⊛ weight` and run `body` with it.
    fn with<R>(input: &Tensor, weight: &Tensor, pad: usize, body: impl FnOnce(&Geom) -> R) -> R {
        let [n, c, h, w] = dims4(input);
        let [f, cw, kh, kw] = dims4(weight);
        assert_eq!(c, cw, "conv2d channel mismatch");
        let (oh, ow) = out_hw(h, w, kh, kw, pad);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        TABLES.with(|t| {
            let mut tab = std::mem::take(&mut *t.borrow_mut());
            tab.clear();
            for ci in 0..c {
                for ky in 0..kh {
                    tab.extend((0..kw).map(|kx| ci * hp * wp + ky * wp + kx));
                }
            }
            for oy in 0..oh {
                tab.extend((0..ow).map(|ox| oy * wp + ox));
            }
            let span = (oh - 1) * wp + ow;
            for q0 in (0..span).step_by(LANES) {
                let live = (q0..span.min(q0 + LANES)).filter(|q| q % wp < ow);
                tab.push(live.fold(0, |m, q| m | 1 << (q - q0)));
            }
            let (off, rest) = tab.split_at(c * kh * kw);
            let (pix, masks) = rest.split_at(oh * ow);
            // Each output pixel is one live lane: a sample's compress stores
            // fill its `OH·OW` outputs exactly.
            let live: u32 = masks.iter().map(|m| m.count_ones()).sum();
            debug_assert_eq!(live as usize, oh * ow);
            let g = Geom {
                n,
                c,
                h,
                w,
                f,
                pad,
                oh,
                ow,
                hp,
                wp,
                off,
                pix,
                masks,
            };
            // The one bound every raw read below relies on (see the module
            // header): the last pixel's last tap is inside the padded image.
            let last = (n - 1) * g.sample() + g.pix[g.ohw() - 1] + g.off[g.k() - 1];
            assert!(last < g.padded_len(), "conv2d gather out of bounds");
            let r = body(&g);
            *t.borrow_mut() = tab;
            r
        })
    }

    /// Taps per output element, `C·KH·KW`.
    fn k(&self) -> usize {
        self.off.len()
    }

    /// Output pixels per sample, `OH·OW`.
    fn ohw(&self) -> usize {
        self.pix.len()
    }

    /// Output pixels over the whole batch, `N·OH·OW`.
    fn rows(&self) -> usize {
        self.n * self.ohw()
    }

    /// Elements of one padded sample, `C·Hp·Wp`.
    fn sample(&self) -> usize {
        self.c * self.hp * self.wp
    }

    fn padded_len(&self) -> usize {
        self.n * self.sample()
    }

    /// `base_r` of row `r = ni·OH·OW + p`.
    fn base(&self, ni: usize, p: usize) -> usize {
        debug_assert!(ni < self.n);
        ni * self.sample() + self.pix[p]
    }

    /// Copy `src (N,C,H,W)` into the interior of a zeroed padded buffer
    /// from `s`; `None` when there is no padding and `src` serves as is.
    fn padded(&self, src: &[f32], s: &mut Scratch) -> Option<Vec<f32>> {
        if self.pad == 0 {
            return None;
        }
        let mut xpad = s.take(self.padded_len());
        let planes = xpad.chunks_exact_mut(self.hp * self.wp);
        for (plane, img) in planes.zip(src.chunks_exact(self.h * self.w)) {
            let interior = plane[self.pad * self.wp..].chunks_exact_mut(self.wp);
            for (dst, row) in interior.zip(img.chunks_exact(self.w)) {
                dst[self.pad..self.pad + self.w].copy_from_slice(row);
            }
        }
        Some(xpad)
    }

    /// Inverse of [`Geom::padded`]: the interior of `dpad`, as a fresh
    /// `(N,C,H,W)` buffer from `s`.
    fn unpadded(&self, dpad: Vec<f32>, s: &mut Scratch) -> Vec<f32> {
        if self.pad == 0 {
            return dpad;
        }
        let mut out = s.take_uninit(self.n * self.c * self.h * self.w);
        let planes = dpad.chunks_exact(self.hp * self.wp);
        for (plane, img) in planes.zip(out.chunks_exact_mut(self.h * self.w)) {
            let interior = plane[self.pad * self.wp..].chunks_exact(self.wp);
            for (src, row) in interior.zip(img.chunks_exact_mut(self.w)) {
                row.copy_from_slice(&src[self.pad..self.pad + self.w]);
            }
        }
        s.put(dpad);
        out
    }
}

/// Walks the rows `r = (ni, p)` in ascending order.
struct Rows {
    ni: usize,
    p: usize,
}

impl Rows {
    /// The current row's `(ni, p)`, then step to the next row.
    fn next(&mut self, ohw: usize) -> (usize, usize) {
        let at = (self.ni, self.p);
        self.p += 1;
        if self.p == ohw {
            self.p = 0;
            self.ni += 1;
        }
        at
    }
}

/// AVX-512 micro-kernels reading the patches through the offset table.
/// `mul` + `add`, never FMA, like `ops::matmul::simd`.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Geom, LANES, MR, NR};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The forward over pixel lanes: for every sample `ni`, every block `b`
    /// of its padded-width grid and every filter `j`, the live lanes `q` of
    /// `Σ_k x[ni·sample + q + off[k]] · wk[k·F + j]`, ascending `k` from
    /// `+0.0`, plus `bias[j]`, stored at `out[(ni·F + j)·OH·OW + p]` where `p`
    /// is the lane's output pixel. Filters go in register groups of
    /// 16/8/4/1.
    ///
    /// # Safety
    /// AVX-512F must be available; `x` must hold `g.padded_len()` elements
    /// (which [`Geom::with`] bounds every live read by), `wk` `K·F` (the
    /// filters as `(K, F)`), `bias` `F` and `out` `N·F·OH·OW`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pixel_lanes(g: &Geom, x: &[f32], wk: &[f32], bias: &[f32], out: &mut [f32]) {
        let (f, ohw) = (g.f, g.ohw());
        for ni in 0..g.n {
            let xs = x.as_ptr().add(ni * g.sample());
            let os = out.as_mut_ptr().add(ni * f * ohw);
            // The live lanes of the blocks before this one: the pixel of its
            // first live lane.
            let mut p0 = 0;
            for (b, &m) in g.masks.iter().enumerate() {
                let (xq, m) = (xs.add(b * LANES), m as __mmask16);
                let mut j0 = 0;
                while j0 < f {
                    let (w, bj) = (wk.as_ptr().add(j0), bias.as_ptr().add(j0));
                    let dst = os.add(j0 * ohw + p0);
                    j0 += match f - j0 {
                        16.. => filters::<16>(xq, m, g.off, w, f, bj, dst, ohw),
                        8.. => filters::<8>(xq, m, g.off, w, f, bj, dst, ohw),
                        4.. => filters::<4>(xq, m, g.off, w, f, bj, dst, ohw),
                        _ => filters::<1>(xq, m, g.off, w, f, bj, dst, ohw),
                    };
                }
                p0 += m.count_ones() as usize;
            }
        }
    }

    /// One block, `G` filters: `acc[j] = acc[j] + x · w[k·F + j]` over the
    /// taps, `x` the block's masked load at `xq + off[k]`, then
    /// `acc[j] + bias[j]` compress-stored at `dst + j·OH·OW`. Returns `G`.
    ///
    /// # Safety
    /// AVX-512F must be available; the live lanes of `m` at `xq + off[k]`
    /// must be readable for every `k`, `w` must hold `(K−1)·F + G` elements,
    /// `bias` `G`, and `dst + j·OH·OW` room for `m`'s live lanes for `j < G`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn filters<const G: usize>(
        xq: *const f32,
        m: __mmask16,
        off: &[usize],
        w: *const f32,
        f: usize,
        bias: *const f32,
        dst: *mut f32,
        ohw: usize,
    ) -> usize {
        let mut acc = [_mm512_setzero_ps(); G];
        let mut wk = w;
        for &o in off {
            let x = _mm512_maskz_loadu_ps(m, xq.add(o));
            for (j, a) in acc.iter_mut().enumerate() {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(x, _mm512_set1_ps(*wk.add(j))));
            }
            wk = wk.add(f);
        }
        for (j, a) in acc.into_iter().enumerate() {
            let y = _mm512_add_ps(a, _mm512_set1_ps(*bias.add(j)));
            _mm512_mask_compressstoreu_ps(dst.add(j * ohw), m, y);
        }
        G
    }

    /// One sweep over every row `r = (ni, p)`, ascending, from `+0.0`:
    /// `acc[i][c] = Σ_r x[base_r + off[i]] · g_r[c]` and `sum[c] = Σ_r g_r[c]`,
    /// where `g_r` is `drows[r·f + j0 ..][..ne]` zero-extended to `NR` and
    /// `base_r = ni·sample + pix[p]`.
    ///
    /// # Safety
    /// AVX-512F must be available; `(n−1)·sample + pix[p] + off[i] < x.len()`
    /// for every `p`, `i`; `drows` must hold `n · pix.len() · f` elements and
    /// `j0 + ne <= f`, `ne <= NR`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gather_cols(
        x: &[f32],
        n: usize,
        sample: usize,
        pix: &[usize],
        off: &[usize; MR],
        drows: &[f32],
        f: usize,
        j0: usize,
        ne: usize,
    ) -> ([[f32; NR]; MR], [f32; NR]) {
        let lanes: __mmask16 = ((1u32 << ne) - 1) as __mmask16;
        let mut c0 = _mm512_setzero_ps();
        let mut c1 = _mm512_setzero_ps();
        let mut c2 = _mm512_setzero_ps();
        let mut c3 = _mm512_setzero_ps();
        let mut cs = _mm512_setzero_ps();
        let mut gp = drows.as_ptr().add(j0);
        for ni in 0..n {
            let xs = x.as_ptr().add(ni * sample);
            for &p in pix {
                let g = _mm512_maskz_loadu_ps(lanes, gp);
                gp = gp.add(f);
                let xr = xs.add(p);
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(*xr.add(off[0])), g));
                c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(*xr.add(off[1])), g));
                c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(*xr.add(off[2])), g));
                c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(*xr.add(off[3])), g));
                cs = _mm512_add_ps(cs, g);
            }
        }
        let (mut acc, mut sum) = ([[0.0f32; NR]; MR], [0.0f32; NR]);
        _mm512_storeu_ps(acc[0].as_mut_ptr(), c0);
        _mm512_storeu_ps(acc[1].as_mut_ptr(), c1);
        _mm512_storeu_ps(acc[2].as_mut_ptr(), c2);
        _mm512_storeu_ps(acc[3].as_mut_ptr(), c3);
        _mm512_storeu_ps(sum.as_mut_ptr(), cs);
        (acc, sum)
    }
}

/// Portable twin of [`simd::pixel_lanes`]: the same chains, a row segment
/// of up to sixteen output pixels at a time, reading live lanes only.
fn pixel_lanes_portable(g: &Geom, x: &[f32], wk: &[f32], bias: &[f32], out: &mut [f32]) {
    let (ow, ohw) = (g.ow, g.ohw());
    for (ni, os) in out.chunks_exact_mut(g.f * ohw).enumerate() {
        for p0 in (0..ohw).step_by(ow) {
            for ox0 in (0..ow).step_by(LANES) {
                let (p, lanes) = (p0 + ox0, LANES.min(ow - ox0));
                let base = g.base(ni, p);
                for (j, &b) in bias.iter().enumerate() {
                    let mut acc = [0.0f32; LANES];
                    for (&o, wrow) in g.off.iter().zip(wk.chunks_exact(g.f)) {
                        let w = wrow[j];
                        for (a, &xv) in acc.iter_mut().zip(&x[base + o..][..lanes]) {
                            *a += xv * w;
                        }
                    }
                    for (y, &a) in os[j * ohw + p..][..lanes].iter_mut().zip(&acc) {
                        *y = a + b;
                    }
                }
            }
        }
    }
}

/// Portable twin of [`simd::gather_cols`].
#[allow(clippy::too_many_arguments)]
fn gather_cols_portable(
    x: &[f32],
    n: usize,
    sample: usize,
    pix: &[usize],
    off: &[usize; MR],
    drows: &[f32],
    f: usize,
    j0: usize,
    ne: usize,
) -> ([[f32; NR]; MR], [f32; NR]) {
    let (mut t, mut sum) = ([[0.0f32; NR]; MR], [0.0f32; NR]);
    let mut grows = drows.chunks_exact(f);
    for ni in 0..n {
        for &p in pix {
            let mut g = [0.0f32; NR];
            let grow = grows.next().expect("one dout row per output pixel");
            g[..ne].copy_from_slice(&grow[j0..j0 + ne]);
            for r in 0..MR {
                let av = x[ni * sample + p + off[r]];
                for c in 0..NR {
                    t[r][c] += av * g[c];
                }
            }
            for c in 0..NR {
                sum[c] += g[c];
            }
        }
    }
    (t, sum)
}

/// [`simd::pixel_lanes`] where the host has AVX-512, its twin elsewhere.
fn pixel_lanes(g: &Geom, x: &[f32], wk: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), g.padded_len(), "conv2d padded image length");
    assert_eq!(wk.len(), g.k() * g.f, "conv2d packed filter length");
    assert_eq!(bias.len(), g.f, "conv2d bias size");
    assert_eq!(out.len(), g.rows() * g.f, "conv2d output length");
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked. `x` has the length `Geom::with` asserted
        // its bound against, the other extents are asserted above.
        return unsafe { simd::pixel_lanes(g, x, wk, bias, out) };
    }
    pixel_lanes_portable(g, x, wk, bias, out)
}

/// `weight (F, K)` as `(K, F)` into `pb`: `pb[k·F + j] = W[j][k]`.
fn pack_taps_by_filters(wd: &[f32], k: usize, pb: &mut Vec<f32>) {
    pb.clear();
    pb.extend((0..k).flat_map(|kk| wd[kk..].iter().step_by(k).copied()));
}

/// [`simd::gather_cols`] where the host has AVX-512, its twin elsewhere.
#[inline]
fn gather_cols(
    g: &Geom,
    x: &[f32],
    off: &[usize; MR],
    drows: &[f32],
    j0: usize,
    ne: usize,
) -> ([[f32; NR]; MR], [f32; NR]) {
    assert_eq!(x.len(), g.padded_len(), "conv2d padded image length");
    assert_eq!(drows.len(), g.rows() * g.f, "one dout row per output pixel");
    assert!(j0 + ne <= g.f && ne <= NR);
    debug_assert!(off.iter().all(|o| g.off.contains(o)));
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked. `x` has the length `Geom::with` asserted
        // its bound against and `off` holds four of the geometry's offsets;
        // the `drows` extent is asserted above.
        return unsafe { simd::gather_cols(x, g.n, g.sample(), g.pix, off, drows, g.f, j0, ne) };
    }
    gather_cols_portable(x, g.n, g.sample(), g.pix, off, drows, g.f, j0, ne)
}

/// `dpad[base + off[k]] += dpatch[k]` in ascending `k`: one row of
/// `dpatches` scattered through the offset table (`off` ascending, as
/// [`Geom::with`] builds it).
#[inline]
fn scatter_add(dpad: &mut [f32], base: usize, off: &[usize], dpatch: &[f32]) {
    let reach = off.last().map_or(0, |&o| base + o);
    assert!(reach < dpad.len(), "conv2d scatter out of bounds");
    for (&o, &t) in off.iter().zip(dpatch) {
        debug_assert!(base + o <= reach);
        // SAFETY: `off` is ascending, so `base + o <= reach`, which the
        // assertion above puts inside `dpad`. (Unchecked because the bounds
        // test per element cost 17–28 % of the input-gradient pass.)
        unsafe { *dpad.get_unchecked_mut(base + o) += t };
    }
}

/// Convolution forward: `input (N,C,H,W)` ⊛ `weight (F,C,KH,KW)` + `bias (F)`
/// → `(N,F,OH,OW)` from `s`.
pub(super) fn forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> Tensor {
    let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Gemm);
    Geom::with(input, weight, pad, |g| {
        let xbuf = g.padded(input.data(), s);
        let x = xbuf.as_deref().unwrap_or(input.data());
        let mut out = s.take_uninit(g.rows() * g.f);
        with_pack_buf(|pb| {
            pack_taps_by_filters(weight.data(), g.k(), pb);
            pixel_lanes(g, x, pb, bias.data(), &mut out);
        });
        if let Some(xpad) = xbuf {
            s.put(xpad);
        }
        Tensor::from_vec(Shape::d4(g.n, g.f, g.oh, g.ow), out)
    })
}

/// Convolution backward: writes `dL/dW (F,C,KH,KW)` and `dL/db (F)` into the
/// caller's buffers (every slot) and returns `dL/d(input)` from `s` when
/// `want_dx`. `dout` has shape `(N,F,OH,OW)`.
#[allow(clippy::too_many_arguments)]
pub(super) fn backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    want_dx: bool,
    dweight: &mut [f32],
    dbias: &mut [f32],
    s: &mut Scratch,
) -> Option<Tensor> {
    let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Gemm);
    Geom::with(input, weight, pad, |g| {
        let (f, k, ohw) = (g.f, g.k(), g.ohw());
        assert_eq!(
            dout.shape().dims(),
            &[g.n, f, g.oh, g.ow],
            "conv2d_backward dout shape"
        );
        assert_eq!(dweight.len(), f * k, "conv2d_backward dweight length");
        assert_eq!(dbias.len(), f, "conv2d_backward dbias length");

        // dout (N,F,OH,OW) -> row layout (N*OH*OW, F): one row per pixel.
        let mut drows = s.take_uninit(g.rows() * f);
        let samples = drows.chunks_exact_mut(ohw * f);
        for (chunk, dsample) in samples.zip(dout.data().chunks_exact(f * ohw)) {
            for (p, row) in chunk.chunks_exact_mut(f).enumerate() {
                for (v, plane) in row.iter_mut().zip(dsample.chunks_exact(ohw)) {
                    *v = plane[p];
                }
            }
        }

        // dWᵀ (K, F) = patchesᵀ · drows, four taps by sixteen filters per
        // sweep over the rows; dbias rides on the first sweep.
        let xbuf = g.padded(input.data(), s);
        let x = xbuf.as_deref().unwrap_or(input.data());
        for k0 in (0..k).step_by(MR) {
            let mk = MR.min(k - k0);
            // A ragged last strip repeats its last tap; only `mk` are stored.
            let off: [usize; MR] = std::array::from_fn(|i| g.off[k0 + i.min(mk - 1)]);
            for j0 in (0..f).step_by(NR) {
                let ne = NR.min(f - j0);
                let (acc, sum) = gather_cols(g, x, &off, &drows, j0, ne);
                for (i, row) in acc.iter().enumerate().take(mk) {
                    for (c, &v) in row.iter().enumerate().take(ne) {
                        dweight[(j0 + c) * k + k0 + i] = v;
                    }
                }
                if k0 == 0 {
                    dbias[j0..j0 + ne].copy_from_slice(&sum[..ne]);
                }
            }
        }
        if let Some(xpad) = xbuf {
            s.put(xpad);
        }

        let dinput = want_dx.then(|| {
            // dpatches (R, K) = drows · W, a 4-row strip at a time — every
            // panel of the strip before any of it is scattered, so each
            // dpad element receives its terms in ascending (r, k).
            let mut dpad = s.take(g.padded_len());
            let kp = k.next_multiple_of(NR);
            let mut strip = s.take_uninit(MR * kp);
            with_pack_buf(|pb| {
                // weight viewed as (F, K): panel[f][c] = W[f][j0 + c].
                pack_panels_rowmajor(weight.data(), f, k, pb);
                let mut rows = Rows { ni: 0, p: 0 };
                for r0 in (0..g.rows()).step_by(MR) {
                    let mr = MR.min(g.rows() - r0);
                    for (jp, panel) in pb.chunks_exact(f * NR).enumerate() {
                        let mut acc = [[0.0f32; NR]; MR];
                        micro_a_rows(mr, f, &drows[r0 * f..], f, panel, &mut acc);
                        for (i, row) in acc.iter().enumerate().take(mr) {
                            strip[i * kp + jp * NR..][..NR].copy_from_slice(row);
                        }
                    }
                    for dpatch in strip.chunks_exact(kp).take(mr) {
                        let (ni, p) = rows.next(ohw);
                        scatter_add(&mut dpad, g.base(ni, p), g.off, dpatch);
                    }
                }
            });
            s.put(strip);
            Tensor::from_vec(Shape::d4(g.n, g.c, g.h, g.w), g.unpadded(dpad, s))
        });
        s.put(drows);
        dinput
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_backward_direct, conv2d_direct};
    use crate::rng::DetRng;

    /// Shapes below the dispatcher's threshold too: the backend itself has
    /// none. `(n, c, h, w, f, k, pad)`.
    const SHAPES: [(usize, usize, usize, usize, usize, usize, usize); 4] = [
        (2, 3, 8, 8, 5, 3, 1),
        (1, 1, 5, 7, 2, 3, 0),
        (3, 4, 6, 6, 8, 1, 0),
        (1, 2, 4, 4, 3, 3, 2),
    ];

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_the_direct_loops() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut s = Scratch::new();
        for (n, c, h, w, f, k, pad) in SHAPES {
            let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
            let direct = conv2d_direct(&input, &weight, &bias, pad, &mut s);
            let gemm = forward(&input, &weight, &bias, pad, &mut s);
            assert_close(
                &direct,
                &gemm,
                1e-4,
                &format!("({n},{c},{h},{w},{f},{k},{pad})"),
            );
        }
    }

    #[test]
    fn backward_matches_the_direct_loops() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut s = Scratch::new();
        for (n, c, h, w, f, k, pad) in SHAPES {
            let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let (oh, ow) = out_hw(h, w, k, k, pad);
            let dout = Tensor::randn(Shape::d4(n, f, oh, ow), 1.0, &mut rng);
            let a = conv2d_backward_direct(&input, &weight, &dout, pad, &mut s);
            // Stale buffers: every slot must be written.
            let (mut dw, mut db) = (vec![f32::NAN; weight.numel()], vec![f32::NAN; f]);
            let dx = backward_into(&input, &weight, &dout, pad, true, &mut dw, &mut db, &mut s);
            let what = format!("({n},{c},{h},{w},{f},{k},{pad})");
            assert_close(&a.dinput, &dx.expect("asked for"), 1e-3, &what);
            let dw = Tensor::from_vec(weight.shape().clone(), dw);
            assert_close(&a.dweight, &dw, 1e-3, &what);
            assert_close(&a.dbias, &Tensor::from_vec(Shape::d1(f), db), 1e-3, &what);
        }
    }

    /// Cipher's three convolutions, at a batch whose blocks end every sample
    /// short of sixteen live lanes.
    const CIPHER: [(usize, usize, usize, usize, usize, usize, usize); 3] = [
        (3, 1, 12, 12, 4, 3, 1),
        (3, 4, 6, 6, 8, 3, 1),
        (3, 8, 3, 3, 16, 3, 1),
    ];

    /// On an AVX-512 host the dispatched micro-kernels are the intrinsics;
    /// the portable twins every other host runs must give the same bits
    /// (elsewhere this compares the twins with themselves).
    #[test]
    fn portable_micro_kernels_match_the_dispatched_ones_bit_for_bit() {
        let bits = |t: &[[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
        let mut rng = DetRng::seed_from_u64(9);
        for (n, c, h, w, f, k, pad) in SHAPES.into_iter().chain(CIPHER) {
            let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
            let mut s = Scratch::new();
            Geom::with(&input, &weight, pad, |g| {
                let xbuf = g.padded(input.data(), &mut s);
                let x = xbuf.as_deref().unwrap_or(input.data());
                let drows = Tensor::randn(Shape::d2(g.rows(), f), 1.0, &mut rng);
                let mut wk = Vec::new();
                pack_taps_by_filters(weight.data(), g.k(), &mut wk);
                // Stale outputs: every slot must be written.
                let (mut got, mut want) = (vec![f32::NAN; g.rows() * f], vec![0.0; g.rows() * f]);
                pixel_lanes(g, x, &wk, bias.data(), &mut got);
                pixel_lanes_portable(g, x, &wk, bias.data(), &mut want);
                let vbits = |v: &[f32]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                let what = format!("pixel_lanes ({n},{c},{h},{w},{f},{k},{pad})");
                assert_eq!(vbits(&got), vbits(&want), "{what}");
                for k0 in 0..g.k() {
                    let off: [usize; MR] = std::array::from_fn(|i| g.off[(k0 + i) % g.k()]);
                    let ne = NR.min(f);
                    let (got, gsum) = gather_cols(g, x, &off, drows.data(), 0, ne);
                    let (want, wsum) = gather_cols_portable(
                        x,
                        g.n,
                        g.sample(),
                        g.pix,
                        &off,
                        drows.data(),
                        f,
                        0,
                        ne,
                    );
                    assert_eq!(bits(&got), bits(&want), "gather_cols, tap {k0}");
                    assert_eq!(gsum.map(f32::to_bits), wsum.map(f32::to_bits), "dbias sums");
                }
            });
        }
    }

    #[test]
    fn deterministic() {
        let mut rng = DetRng::seed_from_u64(2);
        let input = Tensor::randn(Shape::d4(4, 3, 10, 10), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(6, 3, 3, 3), 0.5, &mut rng);
        let bias = Tensor::zeros(Shape::d1(6));
        let mut s = Scratch::new();
        let a = forward(&input, &weight, &bias, 1, &mut s);
        let b = forward(&input, &weight, &bias, 1, &mut s);
        assert_eq!(a.data(), b.data());
    }
}
