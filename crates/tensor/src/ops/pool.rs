//! 2×2 max-pooling with stride 2 (the only pooling the paper's models use).
//!
//! Both passes run on sixteen *window* lanes. A window's four cells are
//! `a, b` (its top row) and `c, d` (its bottom row), and a *block* is up to
//! sixteen consecutive windows whose cells four masked loads of sixteen
//! floats cover: `min(16/OW, 32/W)` whole row pairs — contiguous within a
//! plane, and across planes when `H` is even — or, for a row too wide for
//! that, a segment of up to sixteen windows of one pair, its top row in the
//! first two loads and its bottom row in the last two. Cipher's 12- and
//! 6-wide maps fill 12 and 15 lanes. Permutes from per-width tables pick
//! each lane's cells out of the loads.
//!
//! * Forward: `best = a`, then `b`, `c` and `d` in that order each replace
//!   it where `v > best`, an ordered compare (`_CMP_GT_OQ`) with mask moves
//!   for the value and the argmax. So the first element wins a tie (`−0.0`
//!   against `+0.0` included), a NaN never wins, and a NaN `a` stays: a
//!   window keeps its argmax inside itself and its NaN in the output.
//! * Backward: each float of a block's loads is `+0.0 + g` of its window
//!   where it is the window's argmax and `+0.0` elsewhere — a permute of
//!   the window's gradient and argmax to the float, a compare, a masked
//!   move and a store per sixteen floats — and the cells floor semantics
//!   drops (an odd last row or column) are written `+0.0`, so every slot of
//!   `dinput` is written once and the caller need not zero it.
//!
//! The scalar loops are the portable twins, the same compares and the same
//! bits; the lanes run where the host has AVX-512.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// One pooling's shapes: `planes = N·C` input planes of `H×W`, each pooled
/// to `OH×OW = (H/2)×(W/2)`.
struct Pool {
    planes: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl Pool {
    fn of(input: &Shape) -> Pool {
        let [n, c, h, w]: [usize; 4] = input.dims().try_into().expect("maxpool2 input is rank-4");
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "input too small to pool");
        Pool {
            planes: n * c,
            h,
            w,
            oh,
            ow,
        }
    }

    /// Output elements (and argmax slots), `N·C·OH·OW`.
    fn out_len(&self) -> usize {
        self.planes * self.oh * self.ow
    }

    /// Input index of window `(oy, 0)`'s first cell in `plane`, and the
    /// output index of that window.
    fn row(&self, plane: usize, oy: usize) -> (usize, usize) {
        (
            (plane * self.h + 2 * oy) * self.w,
            (plane * self.oh + oy) * self.ow,
        )
    }
}

/// Windows per vector.
const LANES: usize = 16;

thread_local! {
    /// [`Blocks`] by input width `W`, which is all they depend on: a model
    /// pools at a few widths, and at batch 1 building the tables cost as
    /// much as pooling (per thread, like the convolutions' tables).
    static BLOCKS: RefCell<Vec<(usize, Blocks)>> = const { RefCell::new(Vec::new()) };
}

/// How the windows fill the lanes (module header): a block is up to sixteen
/// consecutive windows whose cells lie in four loads of up to sixteen
/// floats, [`Blocks::offsets`] from the block's first cell.
struct Blocks {
    /// Whole row pairs per block, `min(16/OW, 32/W)`: a block's cells are
    /// then its pairs' `≤ 64` contiguous floats (`split = 32`). Zero when one
    /// pair does not fit: a block is then a segment of `≤ 16` windows of one
    /// pair, its top row's cells the first two loads and its bottom row's the
    /// last two (`split = W`).
    pairs: usize,
    split: usize,
    /// Per lane of a whole block, its window's `a` among the four loads,
    /// which is also `a`'s input index from the block's first cell; `b` is
    /// one on, `c` and `d` [`Blocks::bottom`] and one more on.
    a: [i32; LANES],
    /// Where a window's bottom row sits among the loads: `W` (whole pairs)
    /// or 32 (a segment).
    bottom: usize,
    /// Per float of a whole block's four loads, the lane whose window it is
    /// a cell of (lane 0 for a float no window covers, an odd `W`'s last
    /// column).
    lane: [i32; 4 * LANES],
}

impl Blocks {
    /// Run `body` with `p`'s blocks, built once per input width and thread.
    fn with<R>(p: &Pool, body: impl FnOnce(&Blocks) -> R) -> R {
        BLOCKS.with(|c| {
            let mut c = c.borrow_mut();
            let at = match c.iter().position(|(w, _)| *w == p.w) {
                Some(at) => at,
                None => {
                    c.push((p.w, Blocks::of(p)));
                    c.len() - 1
                }
            };
            body(&c[at].1)
        })
    }

    fn of(p: &Pool) -> Blocks {
        let pairs = (LANES / p.ow).min(2 * LANES / p.w);
        let (lanes, mut a) = (if pairs == 0 { LANES } else { pairs * p.ow }, [0; LANES]);
        for (l, a) in a.iter_mut().enumerate().take(lanes) {
            *a = match pairs {
                0 => 2 * l,
                _ => l / p.ow * 2 * p.w + 2 * (l % p.ow),
            } as i32;
        }
        let bottom = if pairs == 0 { 2 * LANES } else { p.w };
        let mut lane = [0; 4 * LANES];
        for (l, &a) in a.iter().enumerate().take(lanes) {
            for cell in [0, 1, bottom, bottom + 1] {
                lane[a as usize + cell] = l as i32;
            }
        }
        Blocks {
            pairs,
            split: if pairs == 0 { p.w } else { 2 * LANES },
            a,
            bottom,
            lane,
        }
    }

    /// The four loads (or stores) of a block: `0`, `16`, `split` and
    /// `split + 16` floats from its first cell.
    fn offsets(&self) -> [usize; 4] {
        [0, LANES, self.split, self.split + LANES]
    }

    /// The grid of blocks, `(runs, pairs per run, step, segments)`: run
    /// `i` of contiguous row pairs (a plane, or all of them when `H` is
    /// even), pair `q` a multiple of `step`, segment `s` (see
    /// [`Blocks::block`]).
    fn grid(&self, p: &Pool) -> (usize, usize, usize, usize) {
        let (runs, per) = match p.h.is_multiple_of(2) {
            true => (1, p.planes * p.oh),
            false => (p.planes, p.oh),
        };
        match self.pairs {
            0 => (runs, per, 1, p.ow.div_ceil(LANES)),
            pairs => (runs, per, pairs, 1),
        }
    }

    /// Block `(i, q, s)` of [`Blocks::grid`], whose runs hold `per` pairs.
    #[inline(always)]
    fn block(&self, p: &Pool, per: usize, i: usize, q: usize, s: usize) -> Block {
        let (at, out) = (i * p.h * p.w + q * 2 * p.w, (i * per + q) * p.ow);
        if self.pairs > 0 {
            let pairs = self.pairs.min(per - q);
            let count = pairs * 2 * p.w;
            Block {
                at,
                out,
                lanes: pairs * p.ow,
                loads: [0, 1, 2, 3].map(|v| count.saturating_sub(v * LANES).min(LANES)),
            }
        } else {
            let (ox0, lanes) = (s * LANES, LANES.min(p.ow - s * LANES));
            let (lo, hi) = ((2 * lanes).min(LANES), (2 * lanes).saturating_sub(LANES));
            Block {
                at: at + 2 * ox0,
                out: out + ox0,
                lanes,
                loads: [lo, hi, lo, hi],
            }
        }
    }
}

/// One block of windows.
struct Block {
    /// The input index of its first window's first cell.
    at: usize,
    /// The output index of its first window; its windows are consecutive.
    out: usize,
    /// Its windows.
    lanes: usize,
    /// Floats in each of its four loads.
    loads: [usize; 4],
}

/// AVX-512 window lanes. The kernels use no closures: a closure does not
/// inherit `target_feature`, so the intrinsics in it would be calls.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Blocks, Pool, LANES};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The low `n` lanes (`n ≤ 16`).
    fn first(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// The forward over window lanes (module header).
    ///
    /// # Safety
    /// AVX-512F must be available; `b` must be `p`'s blocks, `x` must hold
    /// `p.planes·H·W` floats and `out` and `arg` `p.out_len()` each.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn forward(p: &Pool, b: &Blocks, x: &[f32], out: &mut [f32], arg: &mut [u32]) {
        let loads = b.offsets();
        let a = _mm512_loadu_si512(b.a.as_ptr().cast());
        // Per candidate `a, b, c, d`: its float among the loads, whether that
        // is in the last two, and its input index from the block's first cell.
        let (mut win, mut high, mut at) = ([a; 4], [0; 4], [a; 4]);
        for (k, (x, y)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
            win[k] = _mm512_add_epi32(a, _mm512_set1_epi32((x + y * b.bottom) as i32));
            high[k] = _mm512_cmpge_epi32_mask(win[k], _mm512_set1_epi32(2 * LANES as i32));
            at[k] = _mm512_add_epi32(a, _mm512_set1_epi32((x + y * p.w) as i32));
        }
        let (runs, per, step, segments) = b.grid(p);
        for i in 0..runs {
            for q in (0..per).step_by(step) {
                for s in 0..segments {
                    let blk = b.block(p, per, i, q, s);
                    let src = x.as_ptr().add(blk.at);
                    let mut v = [_mm512_setzero_ps(); 4];
                    for (j, v) in v.iter_mut().enumerate() {
                        *v = _mm512_maskz_loadu_ps(first(blk.loads[j]), src.add(loads[j]));
                    }
                    let mut cand = [_mm512_setzero_ps(); 4];
                    for (k, c) in cand.iter_mut().enumerate() {
                        let top = _mm512_permutex2var_ps(v[0], win[k], v[1]);
                        let bottom = _mm512_permutex2var_ps(v[2], win[k], v[3]);
                        *c = _mm512_mask_blend_ps(high[k], top, bottom);
                    }
                    // Flat input indices wrap like the scalar `as u32`.
                    let base = _mm512_set1_epi32(blk.at as i32);
                    let (mut best, mut best_at) = (cand[0], _mm512_add_epi32(base, at[0]));
                    for k in 1..4 {
                        let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(cand[k], best);
                        best = _mm512_mask_mov_ps(best, gt, cand[k]);
                        let k_at = _mm512_add_epi32(base, at[k]);
                        best_at = _mm512_mask_mov_epi32(best_at, gt, k_at);
                    }
                    let (lanes, o) = (first(blk.lanes), blk.out);
                    _mm512_mask_storeu_ps(out.as_mut_ptr().add(o), lanes, best);
                    _mm512_mask_storeu_epi32(arg.as_mut_ptr().add(o).cast(), lanes, best_at);
                }
            }
        }
    }

    /// The backward over window lanes (module header): every float of
    /// every block's loads is `+0.0 + g` of its window where it is the
    /// window's argmax, `+0.0` elsewhere (an odd `W`'s last column, inside a
    /// whole block's loads, is no window's argmax). The cells no block loads
    /// are the caller's.
    ///
    /// # Safety
    /// AVX-512F must be available; `b` must be `p`'s blocks, `dout` and
    /// `arg` must hold `p.out_len()` elements each and `dx` `p.planes·H·W`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn backward(p: &Pool, b: &Blocks, dout: &[f32], arg: &[u32], dx: &mut [f32]) {
        let stores = b.offsets();
        // Per store: each float's lane, and its input index from the block's
        // first cell.
        let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let (mut lane, mut at) = ([iota; 4], [iota; 4]);
        for j in 0..4 {
            lane[j] = _mm512_loadu_si512(b.lane[j * LANES..].as_ptr().cast());
            at[j] = _mm512_add_epi32(iota, _mm512_set1_epi32(stores[j] as i32));
        }
        let (runs, per, step, segments) = b.grid(p);
        for i in 0..runs {
            for q in (0..per).step_by(step) {
                for s in 0..segments {
                    let blk = b.block(p, per, i, q, s);
                    let lanes = first(blk.lanes);
                    let g = _mm512_maskz_loadu_ps(lanes, dout.as_ptr().add(blk.out));
                    let g = _mm512_add_ps(_mm512_setzero_ps(), g);
                    let won = _mm512_maskz_loadu_epi32(lanes, arg.as_ptr().add(blk.out).cast());
                    let (base, dst) = (
                        _mm512_set1_epi32(blk.at as i32),
                        dx.as_mut_ptr().add(blk.at),
                    );
                    for j in 0..4 {
                        let won = _mm512_permutexvar_epi32(lane[j], won);
                        let hit = _mm512_cmpeq_epi32_mask(won, _mm512_add_epi32(base, at[j]));
                        let v = _mm512_maskz_mov_ps(hit, _mm512_permutexvar_ps(lane[j], g));
                        _mm512_mask_storeu_ps(dst.add(stores[j]), first(blk.loads[j]), v);
                    }
                }
            }
        }
    }
}

/// Portable twin of [`simd::forward`]: the same compares, a window at a
/// time.
fn forward_portable(p: &Pool, x: &[f32], out: &mut [f32], arg: &mut [u32]) {
    for plane in 0..p.planes {
        for oy in 0..p.oh {
            let (row, o) = p.row(plane, oy);
            for ox in 0..p.ow {
                let at = row + 2 * ox;
                let (mut best, mut best_at) = (x[at], at);
                for i in [at + 1, at + p.w, at + p.w + 1] {
                    if x[i] > best {
                        (best, best_at) = (x[i], i);
                    }
                }
                out[o + ox] = best;
                arg[o + ox] = best_at as u32;
            }
        }
    }
}

/// Portable twin of [`simd::backward`].
fn backward_portable(p: &Pool, dout: &[f32], arg: &[u32], dx: &mut [f32]) {
    for plane in 0..p.planes {
        for oy in 0..p.oh {
            let (row, o) = p.row(plane, oy);
            for ox in 0..p.ow {
                let (at, g) = (row + 2 * ox, dout[o + ox]);
                for i in [at, at + 1, at + p.w, at + p.w + 1] {
                    dx[i] = if i as u32 == arg[o + ox] {
                        0.0 + g
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Forward max-pool of `input (N,C,H,W)` into caller-owned `out` and `arg`,
/// both of length `N*C*(H/2)*(W/2)`: `arg` stores, for each output element,
/// the flat index (within the whole input tensor) of the winning input
/// element — consumed by [`maxpool2_backward_into`]. Every slot is
/// overwritten, so uninitialized scratch storage is fine.
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// common framework default.
pub fn maxpool2_into(input: &Tensor, out: &mut [f32], arg: &mut [u32]) {
    let p = Pool::of(input.shape());
    assert_eq!(out.len(), p.out_len(), "maxpool2 out length");
    assert_eq!(arg.len(), p.out_len(), "maxpool2 argmax length");
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked; `b` is `p`'s, the tensor holds
        // `planes·H·W` floats by its shape, and `out` and `arg` are asserted
        // above.
        return Blocks::with(&p, |b| unsafe {
            simd::forward(&p, b, input.data(), out, arg)
        });
    }
    forward_portable(&p, input.data(), out, arg)
}

/// Every window cell of `dx`: [`simd::backward`] where the host has
/// AVX-512, its twin elsewhere.
fn windows_backward(p: &Pool, dout: &[f32], arg: &[u32], dx: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::ops::matmul::simd::available() {
        // SAFETY: feature checked; `b` is `p`'s, and the caller asserts every
        // extent.
        return Blocks::with(p, |b| unsafe { simd::backward(p, b, dout, arg, dx) });
    }
    backward_portable(p, dout, arg, dx)
}

/// Backward max-pool: `dinput` (the pooled input's `input` shape, every
/// slot written) is `+0.0 + g` at each window's argmax — `argmax` as
/// [`maxpool2_into`] wrote it, one of the window's own four cells — and
/// `+0.0` everywhere else.
pub fn maxpool2_backward_into(dout: &Tensor, argmax: &[u32], input: &Shape, dinput: &mut [f32]) {
    let p = Pool::of(input);
    assert_eq!(dout.numel(), p.out_len(), "maxpool2_backward dout length");
    assert_eq!(argmax.len(), p.out_len(), "dout/argmax length mismatch");
    assert_eq!(
        dinput.len(),
        p.planes * p.h * p.w,
        "maxpool2_backward dinput length"
    );
    windows_backward(&p, dout.data(), argmax, dinput);
    floor_cells(&p, dinput);
}

/// `+0.0` into the cells no window covers: an odd last column, an odd last
/// row.
fn floor_cells(p: &Pool, dx: &mut [f32]) {
    if p.w.is_multiple_of(2) && p.h.is_multiple_of(2) {
        return;
    }
    for plane in dx.chunks_exact_mut(p.h * p.w) {
        for row in plane.chunks_exact_mut(p.w).take(2 * p.oh) {
            row[2 * p.ow..].fill(0.0);
        }
        plane[2 * p.oh * p.w..].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn pool_known_values() {
        let input = Tensor::from_vec(
            Shape::d4(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
        );
        let (mut out, mut arg) = ([f32::NAN; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [4.0, 8.0, -1.0, 0.75]);
        assert_eq!(arg, [5, 7, 8, 15]);
    }

    #[test]
    fn pool_odd_dims_floor() {
        let input = Tensor::from_fn(Shape::d4(1, 1, 5, 5), |i| i as f32);
        // Last row/col dropped, so 2x2 outputs (the length assert holds);
        // max of window (0..2, 0..2) is index 6 -> 6.0.
        let (mut out, mut arg) = ([f32::NAN; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let input = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 9.0, 2.0, 3.0]);
        let (mut out, mut arg) = ([f32::NAN; 1], [u32::MAX; 1]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [9.0]);
        let dout = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![5.0]);
        let mut din = [f32::NAN; 4];
        maxpool2_backward_into(&dout, &arg, input.shape(), &mut din);
        assert_eq!(din, [0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn forward_backward_gradient_check() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(21);
        let input = Tensor::randn(Shape::d4(2, 3, 4, 4), 1.0, &mut rng);
        let (mut out, mut arg) = (vec![f32::NAN; 24], vec![u32::MAX; 24]);
        maxpool2_into(&input, &mut out, &mut arg);
        // Loss = 0.5 ||out||^2, so dout = out.
        let dout = Tensor::from_vec(Shape::d4(2, 3, 2, 2), out);
        let mut din = vec![f32::NAN; input.numel()];
        maxpool2_backward_into(&dout, &arg, input.shape(), &mut din);
        // Numerical check with small eps (max is locally linear away from ties).
        let eps = 1e-3;
        let mut loss = |x: &Tensor| {
            let mut out = [f32::NAN; 24];
            maxpool2_into(x, &mut out, &mut arg);
            0.5 * out.iter().map(|v| v * v).sum::<f32>()
        };
        let mut xp = input.clone();
        for i in (0..input.numel()).step_by(7) {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = loss(&xp);
            xp.data_mut()[i] = orig - eps;
            let fm = loss(&xp);
            xp.data_mut()[i] = orig;
            let ng = (fp - fm) / (2.0 * eps);
            assert!((din[i] - ng).abs() < 0.02, "idx {i}: {} vs {ng}", din[i]);
        }
    }

    /// A window with no finite maximum still belongs to itself: its argmax
    /// is one of its own four elements (so its gradient goes back to its own
    /// sample) and an all-NaN window outputs NaN rather than hiding it.
    #[test]
    fn windows_without_a_finite_maximum_keep_their_argmax_and_their_nan() {
        let mut input = Tensor::from_fn(Shape::d4(2, 1, 2, 4), |i| i as f32);
        // Second sample: first window all NaN, second window all -inf.
        for (at, v) in [(8, f32::NAN), (12, f32::NAN), (10, f32::NEG_INFINITY)] {
            input.data_mut()[at] = v;
            input.data_mut()[at + 1] = v;
        }
        input.data_mut()[14] = f32::NEG_INFINITY;
        input.data_mut()[15] = f32::NEG_INFINITY;
        let (mut out, mut arg) = ([0.0; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(&out[..2], &[5.0, 7.0]);
        assert_eq!(&arg[..2], &[5, 7]);
        assert!(out[2].is_nan(), "the NaN reaches the output: {}", out[2]);
        assert_eq!(out[3], f32::NEG_INFINITY);
        assert_eq!(&arg[2..], &[8, 10], "argmax inside its own window");
        let dout = Tensor::from_vec(Shape::d4(2, 1, 1, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let mut din = [f32::NAN; 16];
        maxpool2_backward_into(&dout, &arg, input.shape(), &mut din);
        assert_eq!(din[0], 0.0, "nothing lands on sample 0's first pixel");
        assert_eq!((din[8], din[10]), (3.0, 4.0));
    }

    /// On an AVX-512 host the dispatched passes are the window lanes; the
    /// portable twins must give the same bits (elsewhere this compares the
    /// twins with themselves), on every block layout: whole row pairs
    /// across planes (`H` even) and within one (`H` odd), an odd `W` whose
    /// last column sits inside a block's loads, one pair per block, and
    /// segments of a row wider than one vector — with NaN windows, ±∞,
    /// `−0.0` against `+0.0` ties, equal values, and batch 1.
    #[test]
    fn portable_twins_match_the_window_lanes_bit_for_bit() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(45);
        // Window patterns `[a, b, c, d]`, dealt to every third window.
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let patterns = [
            [nan, nan, nan, nan],
            [nan, 1.0, 2.0, 3.0],
            [1.0, nan, 2.0, nan],
            [-inf, -inf, -inf, -inf],
            [0.0, 1.0, inf, -inf],
            [-0.0, 0.0, 0.0, -0.0],
            [0.0, -0.0, -0.0, 0.0],
            [2.0, 2.0, 2.0, 2.0],
            [1.0, 1.0, 3.0, 3.0],
        ];
        let mut layouts = [0; 4];
        // (n, c, h, w)
        let shapes = [
            (3, 4, 12, 12),
            (3, 8, 6, 6),
            (1, 4, 12, 12),
            (1, 8, 6, 6),
            (2, 3, 7, 9),
            (2, 2, 5, 20),
            (1, 2, 4, 40),
            (2, 1, 3, 35),
            (1, 1, 2, 2),
            (2, 3, 9, 3),
        ];
        for (n, c, h, w) in shapes {
            let p = Pool::of(&Shape::d4(n, c, h, w));
            let b = Blocks::of(&p);
            layouts[match (b.pairs, h % 2) {
                (0, _) => 0,
                (1, _) => 1,
                (_, 0) => 2,
                _ => 3,
            }] += 1;
            let what = format!("({n},{c},{h},{w})");
            let mut input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            for (i, (plane, oy, ox)) in (0..n * c)
                .flat_map(|pl| (0..p.oh).flat_map(move |oy| (0..p.ow).map(move |ox| (pl, oy, ox))))
                .enumerate()
                .filter(|(i, _)| i % 3 == 0)
            {
                let at = p.row(plane, oy).0 + 2 * ox;
                let cells = [at, at + 1, at + w, at + w + 1];
                for (&cell, &v) in cells.iter().zip(&patterns[i / 3 % patterns.len()]) {
                    input.data_mut()[cell] = v;
                }
            }
            let len = p.out_len();
            let (mut out, mut arg) = (vec![f32::NAN; len], vec![u32::MAX; len]);
            maxpool2_into(&input, &mut out, &mut arg);
            let (mut out_want, mut arg_want) = (vec![0.0; len], vec![0; len]);
            forward_portable(&p, input.data(), &mut out_want, &mut arg_want);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&out_want), "forward {what}");
            assert_eq!(arg, arg_want, "argmax {what}");

            let mut dout = Tensor::randn(Shape::d4(n, c, p.oh, p.ow), 1.0, &mut rng);
            for (i, v) in dout.data_mut().iter_mut().enumerate() {
                match i % 5 {
                    0 => *v = -0.0,
                    1 if i % 2 == 0 => *v = f32::NAN,
                    2 => *v = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            let mut din = vec![f32::NAN; input.numel()];
            maxpool2_backward_into(&dout, &arg, input.shape(), &mut din);
            let mut want = vec![f32::NAN; input.numel()];
            backward_portable(&p, dout.data(), &arg, &mut want);
            floor_cells(&p, &mut want);
            assert_eq!(bits(&din), bits(&want), "backward {what}");
            // `+0.0 + g` at the argmax: a `−0.0` gradient arrives as `+0.0`.
            assert_eq!(din[arg[0] as usize].to_bits(), 0, "−0.0 upstream {what}");
        }
        assert!(
            layouts.iter().all(|&n| n > 0),
            "every block layout: {layouts:?}"
        );
    }

    #[test]
    fn pool_channels_independent() {
        let mut input = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        input.data_mut()[0] = 7.0; // channel 0
        input.data_mut()[4] = -7.0; // channel 1 (all others 0)
        let (mut out, mut arg) = ([f32::NAN; 2], [u32::MAX; 2]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [7.0, 0.0]);
    }
}
