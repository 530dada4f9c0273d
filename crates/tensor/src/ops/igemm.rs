//! Implicit-GEMM convolution: the one backend behind
//! [`crate::ops::conv2d_s`] and [`crate::ops::conv2d_backward_into`], at
//! every shape and batch size.
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
//! * `dW[f][k] = Σ_r patches[r][k] · drows[r][f]` over *runs*: a vector's
//!   lanes are `fw = min(16, F.next_power_of_two())` filters × `T = 16/fw`
//!   taps, lane `l` filter `j0 + l/T` and tap `ks + l%T` of a run — `T`
//!   adjacent `kx` taps of one `(ci, ky)` kernel row, which are contiguous in
//!   `xpad`. Per row `r` the run is one broadcast load of `T` floats, and
//!   `drows[r]` one permute shared by every run of the sweep (up to 12);
//!   `dbias[f]` is lane `f·T` of `Σ_r` of that permuted row. Cipher's 4-, 8-
//!   and 16-filter layers fill 75 %, 75 % and 100 % of the lanes (a 3-tap
//!   row in a 4- or 2-tap run). `drows` itself — `dout (N,F,OH,OW)` in row
//!   layout — is a block transpose, sixteen pixels × `fw` filters through
//!   `log₂ fw` perfect shuffles;
//! * `dinput` is the forward's mirror, a correlation of `dout` with the
//!   flipped kernel, one sample at a time. The sample's `dout` is copied
//!   into a *frame* `(F, Hb, Wb)`: each `OH×OW` plane inside a zero border
//!   of `KH−1−pad` rows and `KW−1−pad` columns, `(H+KH−1) × (W+KW−1)` in all
//!   (a pad above `K−1` borders nothing; the taps then start inside the
//!   frame). A frame plane is the next `OH·OW` floats of `dout` expanded into
//!   the cells that hold them, sixteen cells per expand. A vector holds
//!   sixteen consecutive positions `q = y·Wb + x` of the sample's
//!   frame-width *input* grid, so tap `t` of all sixteen is one contiguous
//!   (masked) load `frame[f·Hb·Wb + q + toff[t]]`.
//!   Taps run in descending `(ky, kx)` — ascending frame offset `toff[t]`,
//!   which is ascending `r` — and each input channel of a register group of
//!   8/4/2/1 builds its `dpatch` over ascending `f` from `+0.0` and adds it
//!   to its running sum. A tap that falls outside the output map is no term
//!   of the chain: its lanes are zeroed by a mask move before the add (the
//!   frame's zeros times a ±∞ weight would be NaN, and `+0.0` leaves a sum
//!   that started at `+0.0` unchanged). The live lanes of a block are
//!   consecutive NCHW input pixels, compress-stored straight into
//!   `dinput[n][c]`.
//!
//! Every buffer of a pass — the output, the padded input, `drows`,
//! `dinput` — comes from the caller's arena but the frame, one sample's
//! worth in a thread-local buffer that stays in cache; the kernels read the
//! weight `(F, C, KH, KW)` in place.
//!
//! # Order contract
//!
//! Every output element is one chain, the one the patch-matrix + GEMM
//! lowering this replaced ran, at every shape (batch 1 included), so its
//! bits depend neither on the host nor on the batch size: forward
//! `((0 + a₀w₀) + a₁w₁ + …) + bias` in ascending `k`, *including* the
//! padding taps' `0·w` terms (a NaN or ±∞ weight propagates); `dW[f][k]`
//! and `dbias[f]` from `+0.0` in ascending `r` (a lane is one `(f, k)`: runs
//! and filter groups only regroup the chains); each `dpatches[r][k]` from
//! `+0.0` in ascending `f`, and each `dinput` element from `+0.0` receiving
//! its `dpatches` terms in ascending `(r, k)`. `mul` then `add`, never FMA;
//! no split-`k`; no zero skips.
//!
//! Bits are compared with NaNs equal whatever their sign and payload: which
//! operand's NaN a `mul` or `add` hands on depends on operand order, which
//! LLVM may commute, so it is not part of the contract.
//!
//! # Safety of the gather reads
//!
//! All `unsafe` of the convolution is in this module: the [`simd`] kernels,
//! which read the padded input and the frame through raw pointers.
//! [`Geom::with`] makes the one assertion that covers the forward's and
//! `dW`'s reads — the largest index any read can form, the last pixel's
//! last run, `(N−1)·C·Hp·Wp + (OH−1)·Wp + (OW−1) + off[ks] + T − 1`, is
//! inside the padded buffer — before any loop runs; bases, offsets, runs
//! and lane masks come only from the geometry's own tables, which nothing
//! outside this module can build. A run's dead taps (`kx ≥ KW`) read up to
//! `T − 1` floats past its row's last tap, so the padded buffer carries that
//! slack after its last sample, zeroed, and a pad-0 input is copied too when
//! the slack is not zero; forward and `dW` share the one length. The
//! forward's last tap `off[K−1]` lies inside the last run, and its loads are
//! masked: a dead lane (a padding column, or past the grid's last pixel) is
//! never read, and the portable twin reads live lanes only. The compress
//! store writes exactly a block's live lanes; the masks of a sample count
//! `OH·OW` of them, so a sample's stores stay inside its `F·OH·OW` outputs.
//! `dW`'s `drows` loads and the transpose's loads and stores are masked to
//! the row's filters and the sample's pixels, and `dW`'s stores go to the
//! group's filters below `F` and the run's taps inside its kernel row, so
//! they stay inside `F·K`. `dinput`'s kernel reads are covered by
//! [`Mirror::with`]'s one assertion: the last input pixel of the frame's
//! last plane, `(F−1)·Hb·Wb + (H−1)·Wb + (W−1)`, plus the last tap's offset
//! `toff[KH·KW−1]` is inside the frame; its loads are masked to the block's
//! input pixels and its compress stores, like the forward's, fill the
//! sample's `C·H·W` slots exactly. The frame copy reads `dout` a plane at a
//! time, as many floats as the plane's held cells, which its dispatcher
//! asserts number `OH·OW`.

use crate::ops::conv::{dims4, out_hw};
use crate::scratch::Scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// `f32`s per 512-bit vector: the forward's pixels, `dW`'s filters × taps.
const LANES: usize = 16;

thread_local! {
    /// Reusable storage for [`Geom`]'s index and mask tables (per thread;
    /// convolutions never nest).
    static TABLES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// [`Mirror`]'s tables, built inside a [`Geom::with`].
    static MIRROR: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// One sample's frame of `dout` (module header): rebuilt per sample,
    /// so it stays in cache and adds nothing to the arena.
    static FRAME: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Whether the host runs the lane kernels; where it does not, the portable
/// twins run the same chains.
#[cfg(target_arch = "x86_64")]
fn lanes() -> bool {
    crate::ops::matmul::simd::available()
}

/// One convolution's shapes and its tables into the padded image.
struct Geom<'a> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    hp: usize,
    wp: usize,
    /// `off[k]` for `k = (ci, ky, kx)`, ascending in `k`.
    off: &'a [usize],
    /// `pix[p] = oy·Wp + ox` for `p = (oy, ox)`.
    pix: &'a [usize],
    /// `dW`'s runs by first tap `ks = (ci, ky, kx0)`, `kx0` a multiple of
    /// [`Geom::taps`], ascending.
    runs: &'a [usize],
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
        let taps = LANES / LANES.min(f.next_power_of_two());
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
            for row in 0..c * kh {
                tab.extend((0..kw).step_by(taps).map(|kx| row * kw + kx));
            }
            let span = (oh - 1) * wp + ow;
            for q0 in (0..span).step_by(LANES) {
                let live = (q0..span.min(q0 + LANES)).filter(|q| q % wp < ow);
                tab.push(live.fold(0, |m, q| m | 1 << (q - q0)));
            }
            let (off, rest) = tab.split_at(c * kh * kw);
            let (pix, rest) = rest.split_at(oh * ow);
            let (runs, masks) = rest.split_at(c * kh * kw.div_ceil(taps));
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
                kh,
                kw,
                pad,
                oh,
                ow,
                hp,
                wp,
                off,
                pix,
                runs,
                masks,
            };
            // The one bound every raw read below relies on (see the module
            // header): all `T` lanes of the last pixel's last run are inside
            // the padded image, and the forward's last tap lies in that run.
            let last_run = g.off[g.runs[g.runs.len() - 1]];
            debug_assert!(g.off[g.k() - 1] < last_run + taps);
            let last = (n - 1) * g.sample() + g.pix[g.ohw() - 1] + last_run + taps - 1;
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

    /// Filter lanes of a `dW` vector, `min(16, F.next_power_of_two())`.
    fn fw(&self) -> usize {
        LANES.min(self.f.next_power_of_two())
    }

    /// Tap lanes per filter of a `dW` vector, `16 / fw`: a run's length.
    fn taps(&self) -> usize {
        LANES / self.fw()
    }

    /// Floats past the last sample that a run's dead taps read: the last
    /// kernel row's runs end `kw.next_multiple_of(T)` taps after it starts.
    fn slack(&self) -> usize {
        self.kw.next_multiple_of(self.taps()) - self.kw
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

    /// The padded buffer: `N` padded samples, then [`Geom::slack`] floats.
    fn padded_len(&self) -> usize {
        self.n * self.sample() + self.slack()
    }

    /// Whether the padded buffer is the input itself (no padding, no slack).
    fn in_place(&self) -> bool {
        self.pad == 0 && self.slack() == 0
    }

    /// `base_r` of row `r = ni·OH·OW + p`.
    fn base(&self, ni: usize, p: usize) -> usize {
        debug_assert!(ni < self.n);
        ni * self.sample() + self.pix[p]
    }

    /// Where the `(N,C,H,W)` input's rows sit.
    fn dense(&self) -> Planes {
        Planes {
            at: 0,
            row: self.w,
            plane: self.h * self.w,
        }
    }

    /// Where the input's rows sit inside the padded buffer.
    fn interior(&self) -> Planes {
        Planes {
            at: self.pad * self.wp + self.pad,
            row: self.wp,
            plane: self.hp * self.wp,
        }
    }

    /// Copy `src (N,C,H,W)` into the interior of a zeroed padded buffer
    /// from `s`; `None` when [`Geom::in_place`] and `src` serves as is.
    fn padded(&self, src: &[f32], s: &mut Scratch) -> Option<Vec<f32>> {
        if self.in_place() {
            return None;
        }
        let mut xpad = s.take(self.padded_len());
        copy_rows(self, src, self.dense(), &mut xpad, self.interior());
        Some(xpad)
    }
}

/// Where an image's rows sit in a buffer: row `y` of plane `i` (of `N·C`)
/// starts at `at + i·plane + y·row`.
#[derive(Clone, Copy)]
struct Planes {
    at: usize,
    row: usize,
    plane: usize,
}

impl Planes {
    /// One past the last element of `g`'s image rows laid out this way.
    fn end(self, g: &Geom) -> usize {
        self.at + (g.n * g.c - 1) * self.plane + (g.h - 1) * self.row + g.w
    }
}

/// `dinput`'s tables: the forward's mirror over a zero-bordered frame of
/// `dout` (module header).
struct Mirror<'a> {
    /// The frame's height and width: `dout`'s `OH×OW` inside a zero border
    /// of `KH−1−pad` rows and `KW−1−pad` columns (none when `pad > K−1`).
    hb: usize,
    wb: usize,
    /// The frame rows and columns that hold `dout`.
    rows: Range<usize>,
    cols: Range<usize>,
    /// `toff[t]`, ascending: where tap `t` of input pixel `(y, x)` — `(ky,
    /// kx) = (KH−1−t/KW, KW−1−t%KW)`, descending — reads the frame, from
    /// `q = y·Wb + x`. Output pixel `(y + pad − ky, x + pad − kx)` is frame
    /// cell `(y + t/KW + sy, x + t%KW + sx)`, where `(sy, sx) = (pad −
    /// (KH−1), pad − (KW−1))` where positive, else 0.
    toff: &'a [usize],
    /// One per 16-lane block of a sample's frame-width input grid: bit `i`
    /// of `masks[b]` is set iff `q = 16·b + i` is an input pixel
    /// (`q % Wb < W`, `q < (H−1)·Wb + W`).
    masks: &'a [usize],
    /// `reach[b·KH·KW + t]`: the lanes of `masks[b]` that tap `t`
    /// [lands](Mirror::lands) on an output pixel for.
    reach: &'a [usize],
    /// One per sixteen floats of a frame plane: bit `i` of `held[c]` is set
    /// iff cell `16·c + i` holds `dout`.
    held: &'a [usize],
}

impl Mirror<'_> {
    /// Build `g`'s mirror tables and run `body` with them.
    fn with<R>(g: &Geom, body: impl FnOnce(&Mirror) -> R) -> R {
        const BITS: usize = usize::BITS as usize;
        let (top, left) = (
            (g.kh - 1).saturating_sub(g.pad),
            (g.kw - 1).saturating_sub(g.pad),
        );
        let (hb, wb, kk) = (g.oh + 2 * top, g.ow + 2 * left, g.kh * g.kw);
        let (rows, cols) = (top..top + g.oh, left..left + g.ow);
        let origin = (g.pad + 1).saturating_sub(g.kh) * wb + (g.pad + 1).saturating_sub(g.kw);
        let span = (g.h - 1) * wb + g.w;
        MIRROR.with(|t| {
            let mut tab = std::mem::take(&mut *t.borrow_mut());
            tab.clear();
            // Two bitmaps over a frame plane, zero past its `Hb·Wb` cells for
            // a block's reads: the input pixels, and the cells that hold
            // `dout`.
            let words = (hb * wb + LANES).div_ceil(BITS) + 1;
            tab.resize(2 * words, 0);
            let mut set = |at: usize, y: usize, x: Range<usize>| {
                for c in y * wb + x.start..y * wb + x.end {
                    tab[at + c / BITS] |= 1 << (c % BITS);
                }
            };
            (0..g.h).for_each(|y| set(0, y, 0..g.w));
            rows.clone().for_each(|y| set(words, y, cols.clone()));
            // The sixteen cells from `c` of the bitmap at `at`.
            let cells = |tab: &[usize], at: usize, c: usize| {
                let (lo, hi) = (tab[at + c / BITS] as u128, tab[at + c / BITS + 1] as u128);
                ((lo | hi << BITS) >> (c % BITS)) as usize & 0xffff
            };
            let toff = 2 * words;
            tab.extend((0..kk).map(|t| origin + t / g.kw * wb + t % g.kw));
            let masks = tab.len();
            for q0 in (0..span).step_by(LANES) {
                tab.push(cells(&tab, 0, q0));
            }
            for (b, q0) in (0..span).step_by(LANES).enumerate() {
                for t in 0..kk {
                    let on = cells(&tab, words, q0 + tab[toff + t]) & tab[masks + b];
                    tab.push(on);
                }
            }
            for c in (0..hb * wb).step_by(LANES) {
                tab.push(cells(&tab, words, c));
            }
            let (toff, rest) = tab[toff..].split_at(kk);
            let (masks, rest) = rest.split_at(span.div_ceil(LANES));
            let (reach, held) = rest.split_at(masks.len() * kk);
            let live: u32 = masks.iter().map(|m| m.count_ones()).sum();
            debug_assert_eq!(live as usize, g.h * g.w);
            let m = Mirror {
                hb,
                wb,
                rows: rows.clone(),
                cols: cols.clone(),
                toff,
                masks,
                reach,
                held,
            };
            // The one bound every raw frame read relies on (module header):
            // the last plane's last input pixel under the last tap.
            let last = (g.f - 1) * m.plane() + span - 1 + m.toff[kk - 1];
            assert!(
                last < m.frame_len(g),
                "conv2d dinput frame read out of bounds"
            );
            let r = body(&m);
            *t.borrow_mut() = tab;
            r
        })
    }

    /// Whether tap `t` of input pixel `(y, x)` lands on an output pixel:
    /// whether the frame cell it reads holds `dout`.
    fn lands(&self, y: usize, x: usize, t: usize) -> bool {
        let at = y * self.wb + x + self.toff[t];
        self.rows.contains(&(at / self.wb)) && self.cols.contains(&(at % self.wb))
    }

    /// Elements of one frame plane, `Hb·Wb`.
    fn plane(&self) -> usize {
        self.hb * self.wb
    }

    /// A sample's frame: `F` planes.
    fn frame_len(&self, g: &Geom) -> usize {
        g.f * self.plane()
    }
}

/// AVX-512 micro-kernels reading the patches through the offset table.
/// `mul` + `add`, never FMA, like `ops::matmul::simd`.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{sweep_len, Geom, Mirror, Planes, LANES};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The forward over pixel lanes: for every sample `ni`, every block `b`
    /// of its padded-width grid and every filter `j`, the live lanes `q` of
    /// `Σ_k x[ni·sample + q + off[k]] · w[j·K + k]`, ascending `k` from
    /// `+0.0`, plus `bias[j]`, stored at `out[(ni·F + j)·OH·OW + p]` where `p`
    /// is the lane's output pixel. Filters go in register groups of
    /// 16/8/4/1.
    ///
    /// # Safety
    /// AVX-512F must be available; `x` must hold `g.padded_len()` elements
    /// (which [`Geom::with`] bounds every live read by), `w` `F·K` (the
    /// weight as `(F, K)`), `bias` `F` and `out` `N·F·OH·OW`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pixel_lanes(g: &Geom, x: &[f32], w: &[f32], bias: &[f32], out: &mut [f32]) {
        let (f, k, ohw) = (g.f, g.k(), g.ohw());
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
                    let l = Lanes {
                        xq,
                        m,
                        off: g.off,
                        w: w.as_ptr().add(j0 * k),
                        k,
                        bias: bias.as_ptr().add(j0),
                        dst: os.add(j0 * ohw + p0),
                        ohw,
                    };
                    j0 += match f - j0 {
                        16.. => filters::<16>(&l),
                        8.. => filters::<8>(&l),
                        4.. => filters::<4>(&l),
                        _ => filters::<1>(&l),
                    };
                }
                p0 += m.count_ones() as usize;
            }
        }
    }

    /// One block of the forward for a group of filters.
    struct Lanes<'a> {
        /// The block's first position in the sample's padded image.
        xq: *const f32,
        /// The block's live lanes.
        m: __mmask16,
        off: &'a [usize],
        /// The group's first filter's first tap; filters are `k` apart.
        w: *const f32,
        k: usize,
        bias: *const f32,
        /// Where the group's first filter's live lanes go, filters `ohw`
        /// apart.
        dst: *mut f32,
        ohw: usize,
    }

    /// One block, `G` filters: `acc[j] = acc[j] + x · w[j·K + k]` over the
    /// taps, `x` the block's masked load at `xq + off[k]`, then
    /// `acc[j] + bias[j]` compress-stored at `dst + j·OH·OW`. Returns `G`.
    ///
    /// # Safety
    /// AVX-512F must be available; the live lanes of `m` at `xq + off[k]`
    /// must be readable for every `k`, `w` must hold `G·K` elements,
    /// `bias` `G`, and `dst + j·OH·OW` room for `m`'s live lanes for `j < G`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn filters<const G: usize>(l: &Lanes) -> usize {
        let mut acc = [_mm512_setzero_ps(); G];
        for (t, &o) in l.off.iter().enumerate() {
            let (x, wt) = (_mm512_maskz_loadu_ps(l.m, l.xq.add(o)), l.w.add(t));
            for (j, a) in acc.iter_mut().enumerate() {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(x, _mm512_set1_ps(*wt.add(j * l.k))));
            }
        }
        for (j, a) in acc.into_iter().enumerate() {
            let y = _mm512_add_ps(a, _mm512_set1_ps(*l.bias.add(j)));
            _mm512_mask_compressstoreu_ps(l.dst.add(j * l.ohw), l.m, y);
        }
        G
    }

    /// `dW` and `dbias` over runs of `T` taps: for every filter group `j0`
    /// and every sweep of the runs (see [`super::sweep_len`]), the lanes of
    /// [`sweep`], written into `dw`; the group's first sweep also
    /// compress-stores its sum into `db`.
    ///
    /// # Safety
    /// AVX-512F must be available; `T` must be `g.taps()`; `x` must hold
    /// `g.padded_len()` elements (which [`Geom::with`] bounds every run's
    /// read by), `drows` `g.rows()·F`, `dw` `F·K` and `db` `F`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tap_runs<const T: usize>(
        g: &Geom,
        x: &[f32],
        drows: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        // The first lane of each filter's `T`.
        let heads = 0xffff / ((1u32 << T) - 1);
        for j0 in (0..g.f).step_by(LANES / T) {
            let out = Out {
                dw: dw.as_mut_ptr().add(j0 * g.k()),
                filters: (g.f - j0).min(LANES / T),
            };
            let mut i0 = 0;
            while i0 < g.runs.len() {
                let (runs, took) = (&g.runs[i0..], sweep_len(g.runs.len() - i0));
                let sum = match took {
                    12 => sweep::<T, 12>(g, x, runs, drows, j0, &out),
                    6 => sweep::<T, 6>(g, x, runs, drows, j0, &out),
                    3 => sweep::<T, 3>(g, x, runs, drows, j0, &out),
                    2 => sweep::<T, 2>(g, x, runs, drows, j0, &out),
                    _ => sweep::<T, 1>(g, x, runs, drows, j0, &out),
                };
                if i0 == 0 {
                    let m = heads & ((1 << (out.filters * T)) - 1);
                    _mm512_mask_compressstoreu_ps(db.as_mut_ptr().add(j0), m as __mmask16, sum);
                }
                i0 += took;
            }
        }
    }

    /// Where a filter group's `dW` lanes go.
    struct Out {
        /// `dW[j0][0]`.
        dw: *mut f32,
        /// The group's filters below `F`.
        filters: usize,
    }

    /// One sweep over every row `r = (ni, p)`, ascending, from `+0.0`, for
    /// the first `G` runs of `runs`: lane `l` of run `i`'s accumulator is
    /// `Σ_r x[base_r + off[runs[i]] + l%T] · drows[r][j0 + l/T]`, stored at
    /// `dW[j0 + l/T][runs[i] + l%T]` for the group's filters and the run's
    /// taps inside its kernel row. Returns lane `l` = `Σ_r drows[r][j0 + l/T]`
    /// (0 past the row's `F`).
    ///
    /// # Safety
    /// AVX-512F must be available; `base_r + off[runs[i]] + T − 1 < x.len()`
    /// for every row and run; `drows` must hold `g.rows()·F` elements and
    /// `j0 < F`; `out.dw` must be `dW[j0][0]` of a `dW` holding `F·K`
    /// floats and `j0 + out.filters <= F`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sweep<const T: usize, const G: usize>(
        g: &Geom,
        x: &[f32],
        runs: &[usize],
        drows: &[f32],
        j0: usize,
        out: &Out,
    ) -> __m512 {
        let mut off = [0; G];
        for (o, &ks) in off.iter_mut().zip(runs) {
            *o = g.off[ks];
        }
        let row = ((1u32 << (g.f - j0).min(LANES)) - 1) as __mmask16;
        let idx: [i32; LANES] = std::array::from_fn(|l| (l / T) as i32);
        let idx = _mm512_loadu_si512(idx.as_ptr().cast());
        let mut a = [_mm512_setzero_ps(); G];
        let mut s = _mm512_setzero_ps();
        let mut gp = drows.as_ptr().add(j0);
        for ni in 0..g.n {
            let xs = x.as_ptr().add(ni * g.sample());
            for &p in g.pix {
                let gr = _mm512_permutexvar_ps(idx, _mm512_maskz_loadu_ps(row, gp));
                gp = gp.add(g.f);
                let xr = xs.add(p);
                for (ai, &o) in a.iter_mut().zip(&off) {
                    *ai = _mm512_add_ps(*ai, _mm512_mul_ps(run::<T>(xr.add(o)), gr));
                }
                s = _mm512_add_ps(s, gr);
            }
        }
        // Plain stores: an `i32scatter` measured slower in the batch-64
        // backward and no faster at batch 1, and the portable twin's
        // `store_sweep` (a `memcpy` per filter) cost 5 of conv3's 6 µs `dW`
        // at batch 1.
        let (mut v, k) = ([0.0f32; LANES], g.k());
        for (ai, &ks) in a.into_iter().zip(runs) {
            _mm512_storeu_ps(v.as_mut_ptr(), ai);
            let live = T.min(g.kw - ks % g.kw);
            for fl in 0..out.filters {
                for t in 0..live {
                    *out.dw.add(fl * k + ks + t) = v[fl * T + t];
                }
            }
        }
        s
    }

    /// The `T` floats at `p` in every `T`-lane slot: one broadcast load.
    ///
    /// # Safety
    /// AVX-512F must be available; `p .. p + T` must be readable.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn run<const T: usize>(p: *const f32) -> __m512 {
        match T {
            1 => _mm512_set1_ps(*p),
            2 => _mm512_castsi512_ps(_mm512_set1_epi64(p.cast::<i64>().read_unaligned())),
            4 => _mm512_broadcast_f32x4(_mm_loadu_ps(p)),
            8 => _mm512_castsi512_ps(_mm512_broadcast_i64x4(_mm256_loadu_si256(p.cast()))),
            _ => _mm512_loadu_ps(p),
        }
    }

    /// `drows[(ni·OH·OW + p)·F + j] = dout[(ni·F + j)·OH·OW + p]`, a block of
    /// sixteen pixels × `FW` filters at a time: `FW` masked loads of the
    /// block from consecutive filter planes, `log₂ FW` perfect shuffles,
    /// after which vector `i` holds pixels `p0 + i·T ..` (`T = 16/FW`) with
    /// `FW` filter slots each; its live lanes are compressed and stored.
    ///
    /// # Safety
    /// AVX-512F must be available; `FW` must be `g.fw()`; `dout` and `drows`
    /// must hold `g.rows()·F` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn row_layout<const FW: usize>(g: &Geom, dout: &[f32], drows: &mut [f32]) {
        let (f, ohw, t) = (g.f, g.ohw(), LANES / FW);
        let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let hi = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        for ni in 0..g.n {
            let src = dout.as_ptr().add(ni * f * ohw);
            let dst = drows.as_mut_ptr().add(ni * ohw * f);
            for p0 in (0..ohw).step_by(LANES) {
                let np = LANES.min(ohw - p0);
                let pixels = ((1u32 << np) - 1) as __mmask16;
                for j0 in (0..f).step_by(FW) {
                    let nf = FW.min(f - j0);
                    let mut v = [_mm512_setzero_ps(); FW];
                    for (j, vj) in v.iter_mut().enumerate().take(nf) {
                        *vj = _mm512_maskz_loadu_ps(pixels, src.add((j0 + j) * ohw + p0));
                    }
                    for _ in 0..FW.trailing_zeros() {
                        let mut w = v;
                        for m in 0..FW / 2 {
                            w[2 * m] = _mm512_permutex2var_ps(v[m], lo, v[m + FW / 2]);
                            w[2 * m + 1] = _mm512_permutex2var_ps(v[m], hi, v[m + FW / 2]);
                        }
                        v = w;
                    }
                    // Lane `l` is filter `j0 + l%FW` of pixel `l/FW`. The live
                    // lanes are a prefix when the group is full or a vector
                    // holds one pixel; otherwise they are compressed first.
                    let slots = ((1u32 << nf) - 1) * (0xffff / ((1u32 << FW) - 1));
                    for (i, &vi) in v.iter().enumerate().take(np.div_ceil(t)) {
                        let px = (np - i * t).min(t);
                        let packed = if nf == FW || t == 1 {
                            vi
                        } else {
                            let live = slots & ((1u32 << (px * FW)) - 1);
                            _mm512_maskz_compress_ps(live as __mmask16, vi)
                        };
                        let stored = ((1u32 << (px * nf)) - 1) as __mmask16;
                        _mm512_mask_storeu_ps(dst.add((p0 + i * t) * f + j0), stored, packed);
                    }
                }
            }
        }
    }

    /// Every image row of `g` from `src` laid out as `from` to `dst` laid out
    /// as `to`: sixteen floats at a time, a row's last (or only) vector
    /// masked.
    ///
    /// # Safety
    /// AVX-512F must be available; `from.end(g) <= src` length and
    /// `to.end(g) <= dst` length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn copy_rows(g: &Geom, src: *const f32, from: Planes, dst: *mut f32, to: Planes) {
        let whole = g.w - g.w % LANES;
        let tail = ((1u32 << (g.w % LANES)) - 1) as __mmask16;
        for i in 0..g.n * g.c {
            for y in 0..g.h {
                let s = src.add(from.at + i * from.plane + y * from.row);
                let d = dst.add(to.at + i * to.plane + y * to.row);
                for c in (0..whole).step_by(LANES) {
                    _mm512_storeu_ps(d.add(c), _mm512_loadu_ps(s.add(c)));
                }
                let last = _mm512_maskz_loadu_ps(tail, s.add(whole));
                _mm512_mask_storeu_ps(d.add(whole), tail, last);
            }
        }
    }

    /// The frame of `dout`, every slot, sixteen floats of a plane at a
    /// time: the next `dout` floats of the plane, expanded into the lanes of
    /// [`Mirror::held`], zero elsewhere.
    ///
    /// # Safety
    /// AVX-512F must be available; `dout` must hold one sample's `F·OH·OW`
    /// elements and `frame` `m.frame_len(g)`; `m.held` must count `OH·OW`
    /// cells.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn frame(g: &Geom, m: &Mirror, dout: &[f32], frame: &mut [f32]) {
        let plane = m.plane();
        let tail = ((1u32 << (plane - (m.held.len() - 1) * LANES)) - 1) as __mmask16;
        for i in 0..g.f {
            let (mut src, dst) = (
                dout.as_ptr().add(i * g.ohw()),
                frame.as_mut_ptr().add(i * plane),
            );
            for (c, &held) in m.held.iter().enumerate() {
                let n = held.count_ones();
                let v = _mm512_maskz_loadu_ps(((1u32 << n) - 1) as __mmask16, src);
                let v = _mm512_maskz_expand_ps(held as __mmask16, v);
                let store = if c + 1 == m.held.len() { tail } else { !0 };
                _mm512_mask_storeu_ps(dst.add(c * LANES), store, v);
                src = src.add(n as usize);
            }
        }
    }

    /// One sample's `dinput` over input-pixel lanes: for every block `b` of
    /// its frame-width input grid and every input channel `c`, the live
    /// lanes `q` of `Σ_t dpatch_t` over the taps `t` that land on an output
    /// pixel, ascending `t` from `+0.0`, where
    /// `dpatch_t = Σ_f frame[f·Hb·Wb + q + toff[t]] · w[f·K + c·KH·KW + KH·KW−1−t]`
    /// ascending `f` from `+0.0`; stored at `dx[c·H·W + p]` where `p` is the
    /// lane's input pixel. Channels go in register groups of 8/4/2/1.
    ///
    /// # Safety
    /// AVX-512F must be available; `frame` must hold `m.frame_len(g)`
    /// elements (which [`Mirror::with`] bounds every live read by), `w`
    /// `F·K` and `dx` `C·H·W`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mirror_lanes(g: &Geom, m: &Mirror, frame: &[f32], w: &[f32], dx: &mut [f32]) {
        let (c, hw, kk) = (g.c, g.h * g.w, m.toff.len());
        // The input pixel of the block's first live lane.
        let mut p0 = 0;
        for (b, (&live, reach)) in m.masks.iter().zip(m.reach.chunks_exact(kk)).enumerate() {
            let live = live as __mmask16;
            let mut c0 = 0;
            while c0 < c {
                let l = Taps {
                    fq: frame.as_ptr().add(b * LANES),
                    live,
                    reach,
                    toff: m.toff,
                    plane: m.plane(),
                    f: g.f,
                    w: w.as_ptr().add(c0 * kk),
                    k: g.k(),
                    dst: dx.as_mut_ptr().add(c0 * hw + p0),
                    hw,
                };
                c0 += match c - c0 {
                    8.. => channels::<8>(&l),
                    4.. => channels::<4>(&l),
                    2.. => channels::<2>(&l),
                    _ => channels::<1>(&l),
                };
            }
            p0 += live.count_ones() as usize;
        }
    }

    /// One block of `dinput` for a group of input channels.
    struct Taps<'a> {
        /// The block's first position in the frame's first plane.
        fq: *const f32,
        /// The block's input pixels.
        live: __mmask16,
        /// Per tap, the lanes of `live` it lands on an output pixel for.
        reach: &'a [usize],
        toff: &'a [usize],
        /// Floats per frame plane: filter `f`'s plane is `f·plane` on.
        plane: usize,
        f: usize,
        /// `W[0][c0][0][0]`: channel `c0 + j`'s taps are `j·KH·KW` on,
        /// filter `f`'s `f·K`.
        w: *const f32,
        k: usize,
        /// Where channel `c0`'s live lanes go, channels `hw` apart.
        dst: *mut f32,
        hw: usize,
    }

    /// One block, `G` channels: per tap `t`, `d[j] = d[j] + x_f ·
    /// W[f][c0+j][KH·KW−1−t]` over ascending `f` from `+0.0`, `x_f` the
    /// block's masked load at `fq + f·plane + toff[t]`; then `acc[j] =
    /// acc[j] + d[j]` with the lanes the tap does not land on zeroed first;
    /// `acc[j]` compress-stored at `dst + j·H·W`. Returns `G`.
    ///
    /// # Safety
    /// AVX-512F must be available; the lanes of `live` at `fq + f·plane +
    /// toff[t]` must be readable for every `f < F` and tap `t`, `w` must hold
    /// `W[f][c0 + j][..]` for `j < G`, and `dst + j·H·W` room for `live`'s
    /// lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn channels<const G: usize>(l: &Taps) -> usize {
        let kk = l.toff.len();
        let mut acc = [_mm512_setzero_ps(); G];
        for (t, (&o, &on)) in l.toff.iter().zip(l.reach).enumerate() {
            let mut d = [_mm512_setzero_ps(); G];
            let (mut x, mut wt) = (l.fq.add(o), l.w.add(kk - 1 - t));
            for _ in 0..l.f {
                let v = _mm512_maskz_loadu_ps(l.live, x);
                for (j, dj) in d.iter_mut().enumerate() {
                    *dj = _mm512_add_ps(*dj, _mm512_mul_ps(v, _mm512_set1_ps(*wt.add(j * kk))));
                }
                (x, wt) = (x.add(l.plane), wt.add(l.k));
            }
            for (a, dj) in acc.iter_mut().zip(d) {
                *a = _mm512_add_ps(*a, _mm512_maskz_mov_ps(on as __mmask16, dj));
            }
        }
        for (j, a) in acc.into_iter().enumerate() {
            _mm512_mask_compressstoreu_ps(l.dst.add(j * l.hw), l.live, a);
        }
        G
    }
}

/// Portable twin of [`simd::pixel_lanes`]: the same chains, a row segment
/// of up to sixteen output pixels at a time, reading live lanes only.
fn pixel_lanes_portable(g: &Geom, x: &[f32], w: &[f32], bias: &[f32], out: &mut [f32]) {
    let (ow, ohw) = (g.ow, g.ohw());
    for (ni, os) in out.chunks_exact_mut(g.f * ohw).enumerate() {
        for p0 in (0..ohw).step_by(ow) {
            for ox0 in (0..ow).step_by(LANES) {
                let (p, lanes) = (p0 + ox0, LANES.min(ow - ox0));
                let base = g.base(ni, p);
                for (j, (&b, wj)) in bias.iter().zip(w.chunks_exact(g.k())).enumerate() {
                    let mut acc = [0.0f32; LANES];
                    for (&o, &wv) in g.off.iter().zip(wj) {
                        for (a, &xv) in acc.iter_mut().zip(&x[base + o..][..lanes]) {
                            *a += xv * wv;
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

/// Most runs one `dW` sweep holds.
const SWEEP: usize = 12;

/// How many of `left` runs the next `dW` sweep takes: 12, 6, 3, 2 or 1.
fn sweep_len(left: usize) -> usize {
    match left {
        SWEEP.. => SWEEP,
        6.. => 6,
        3.. => 3,
        _ => left,
    }
}

/// Store one sweep: lane `fl·T + t` of `acc[i]` is `dW[j0 + fl][runs[i] + t]`,
/// written for the group's filters below `F` and the run's taps inside its
/// kernel row; with `sum` (a group's first sweep), lane `fl·T` of it is
/// `dbias[j0 + fl]`.
fn store_sweep(
    g: &Geom,
    j0: usize,
    runs: &[usize],
    acc: &[[f32; LANES]],
    sum: Option<&[f32; LANES]>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (t, k) = (g.taps(), g.k());
    for (&ks, a) in runs.iter().zip(acc) {
        let live = t.min(g.kw - ks % g.kw);
        for (fl, dst) in dw[j0 * k..].chunks_exact_mut(k).take(g.fw()).enumerate() {
            dst[ks..ks + live].copy_from_slice(&a[fl * t..][..live]);
        }
    }
    if let Some(sum) = sum {
        for (fl, b) in db[j0..].iter_mut().take(g.fw()).enumerate() {
            *b = sum[fl * t];
        }
    }
}

/// Portable twin of [`simd::tap_runs`]: the same lanes, one run at a time.
fn tap_runs_portable(g: &Geom, x: &[f32], drows: &[f32], dw: &mut [f32], db: &mut [f32]) {
    let (t, ohw) = (g.taps(), g.ohw());
    for j0 in (0..g.f).step_by(g.fw()) {
        for (i, &ks) in g.runs.iter().enumerate() {
            let (mut acc, mut sum) = ([0.0f32; LANES], [0.0f32; LANES]);
            for (r, row) in drows.chunks_exact(g.f).enumerate() {
                let gr: [f32; LANES] =
                    std::array::from_fn(|l| row.get(j0 + l / t).copied().unwrap_or(0.0));
                let xr = &x[g.base(r / ohw, r % ohw) + g.off[ks]..][..t];
                for (l, (a, s)) in acc.iter_mut().zip(&mut sum).enumerate() {
                    *a += xr[l % t] * gr[l];
                    *s += gr[l];
                }
            }
            store_sweep(g, j0, &[ks], &[acc], (i == 0).then_some(&sum), dw, db);
        }
    }
}

/// Portable twin of [`simd::row_layout`].
fn row_layout_portable(g: &Geom, dout: &[f32], drows: &mut [f32]) {
    let (f, ohw) = (g.f, g.ohw());
    let samples = drows
        .chunks_exact_mut(ohw * f)
        .zip(dout.chunks_exact(f * ohw));
    for (rows, planes) in samples {
        for (j, plane) in planes.chunks_exact(ohw).enumerate() {
            for (row, &d) in rows.chunks_exact_mut(f).zip(plane) {
                row[j] = d;
            }
        }
    }
}

/// Portable twin of [`simd::copy_rows`].
fn copy_rows_portable(g: &Geom, src: &[f32], from: Planes, dst: &mut [f32], to: Planes) {
    for i in 0..g.n * g.c {
        for y in 0..g.h {
            let s = &src[from.at + i * from.plane + y * from.row..][..g.w];
            for (d, &v) in dst[to.at + i * to.plane + y * to.row..].iter_mut().zip(s) {
                *d = v;
            }
        }
    }
}

/// Portable twin of [`simd::frame`].
fn frame_portable(g: &Geom, m: &Mirror, dout: &[f32], frame: &mut [f32]) {
    for (fr, plane) in frame
        .chunks_exact_mut(m.plane())
        .zip(dout.chunks_exact(g.ohw()))
    {
        fr.fill(0.0);
        for (y, row) in m.rows.clone().zip(plane.chunks_exact(g.ow)) {
            fr[y * m.wb + m.cols.start..][..g.ow].copy_from_slice(row);
        }
    }
}

/// Portable twin of [`simd::mirror_lanes`]: the same chains, a row segment
/// of up to sixteen input pixels at a time, skipping the taps that land
/// outside the output map.
fn mirror_lanes_portable(g: &Geom, m: &Mirror, frame: &[f32], w: &[f32], dx: &mut [f32]) {
    let (hw, kk, k) = (g.h * g.w, m.toff.len(), g.k());
    for y in 0..g.h {
        for x0 in (0..g.w).step_by(LANES) {
            let (q, lanes) = (y * m.wb + x0, LANES.min(g.w - x0));
            for ci in 0..g.c {
                let mut acc = [0.0f32; LANES];
                for (t, &o) in m.toff.iter().enumerate() {
                    let mut d = [0.0f32; LANES];
                    let taps = w[ci * kk + kk - 1 - t..].iter().step_by(k);
                    for (plane, &wv) in frame.chunks_exact(m.plane()).zip(taps) {
                        for (dl, &xv) in d.iter_mut().zip(&plane[q + o..][..lanes]) {
                            *dl += xv * wv;
                        }
                    }
                    for (x, (a, dl)) in (x0..).zip(acc.iter_mut().zip(d)).take(lanes) {
                        if m.lands(y, x, t) {
                            *a += dl;
                        }
                    }
                }
                dx[ci * hw + y * g.w + x0..][..lanes].copy_from_slice(&acc[..lanes]);
            }
        }
    }
}

/// [`simd::pixel_lanes`] where the host has AVX-512, its twin elsewhere.
fn pixel_lanes(g: &Geom, x: &[f32], w: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), g.padded_len(), "conv2d padded image length");
    assert_eq!(w.len(), g.f * g.k(), "conv2d filter length");
    assert_eq!(bias.len(), g.f, "conv2d bias size");
    assert_eq!(out.len(), g.rows() * g.f, "conv2d output length");
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked. `x` has the length `Geom::with` asserted
        // its bound against, the other extents are asserted above.
        return unsafe { simd::pixel_lanes(g, x, w, bias, out) };
    }
    pixel_lanes_portable(g, x, w, bias, out)
}

/// `dW (F, K)` and `dbias (F)`, every slot, from `x` and `drows` over runs
/// of adjacent taps (module header): [`simd::tap_runs`] where the host has
/// AVX-512, its twin elsewhere.
fn tap_runs(g: &Geom, x: &[f32], drows: &[f32], dw: &mut [f32], db: &mut [f32]) {
    assert_eq!(x.len(), g.padded_len(), "conv2d padded image length");
    assert_eq!(drows.len(), g.rows() * g.f, "one dout row per output pixel");
    assert_eq!(dw.len(), g.f * g.k(), "conv2d_backward dweight length");
    assert_eq!(db.len(), g.f, "conv2d_backward dbias length");
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked, `T` is the geometry's. `x` has the length
        // `Geom::with` asserted every run's read against; the `drows`, `dw`
        // and `db` extents are asserted above.
        return unsafe {
            match g.taps() {
                1 => simd::tap_runs::<1>(g, x, drows, dw, db),
                2 => simd::tap_runs::<2>(g, x, drows, dw, db),
                4 => simd::tap_runs::<4>(g, x, drows, dw, db),
                8 => simd::tap_runs::<8>(g, x, drows, dw, db),
                _ => simd::tap_runs::<16>(g, x, drows, dw, db),
            }
        };
    }
    tap_runs_portable(g, x, drows, dw, db)
}

/// `dout (N,F,OH,OW)` → `drows (N·OH·OW, F)`, one row per pixel, every slot:
/// [`simd::row_layout`] where the host has AVX-512, its twin elsewhere.
fn row_layout(g: &Geom, dout: &[f32], drows: &mut [f32]) {
    assert_eq!(dout.len(), g.rows() * g.f, "conv2d_backward dout length");
    assert_eq!(drows.len(), g.rows() * g.f, "one dout row per output pixel");
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked, `FW` is the geometry's; both extents are
        // asserted above.
        return unsafe {
            match g.fw() {
                1 => simd::row_layout::<1>(g, dout, drows),
                2 => simd::row_layout::<2>(g, dout, drows),
                4 => simd::row_layout::<4>(g, dout, drows),
                8 => simd::row_layout::<8>(g, dout, drows),
                _ => simd::row_layout::<16>(g, dout, drows),
            }
        };
    }
    row_layout_portable(g, dout, drows)
}

/// `dout (N,F,OH,OW)` in its frame `(N,F,Hb,Wb)` at [`Mirror::rows`] and
/// [`Mirror::cols`], zero elsewhere: [`simd::frame`] where the host has
/// AVX-512, its twin elsewhere.
fn frame(g: &Geom, m: &Mirror, dout: &[f32], frame: &mut [f32]) {
    assert_eq!(dout.len(), g.f * g.ohw(), "one sample's dout");
    assert_eq!(frame.len(), m.frame_len(g), "conv2d dinput frame length");
    let held: u32 = m.held.iter().map(|h| h.count_ones()).sum();
    assert_eq!(
        held as usize,
        g.ohw(),
        "the frame holds each output pixel once"
    );
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked; the extents and the held count (which
        // bounds every `dout` read) are asserted above.
        return unsafe { simd::frame(g, m, dout, frame) };
    }
    frame_portable(g, m, dout, frame)
}

/// `dinput (N,C,H,W)`, every slot, from the frame of `dout` (module
/// header): [`simd::mirror_lanes`] where the host has AVX-512, its twin
/// elsewhere.
fn mirror_lanes(g: &Geom, m: &Mirror, frame: &[f32], w: &[f32], dx: &mut [f32]) {
    assert_eq!(frame.len(), m.frame_len(g), "conv2d dinput frame length");
    assert_eq!(w.len(), g.f * g.k(), "conv2d filter length");
    assert_eq!(dx.len(), g.c * g.h * g.w, "one sample's dinput");
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked. `frame` has the length `Mirror::with`
        // asserted its bound against, the other extents are asserted above.
        return unsafe { simd::mirror_lanes(g, m, frame, w, dx) };
    }
    mirror_lanes_portable(g, m, frame, w, dx)
}

/// Copy every image row of `g` from `src` laid out as `from` to `dst` laid
/// out as `to`: [`simd::copy_rows`] where the host has AVX-512, its twin
/// elsewhere.
fn copy_rows(g: &Geom, src: &[f32], from: Planes, dst: &mut [f32], to: Planes) {
    assert!(from.end(g) <= src.len(), "conv2d row copy: source");
    assert!(to.end(g) <= dst.len(), "conv2d row copy: destination");
    #[cfg(target_arch = "x86_64")]
    if lanes() {
        // SAFETY: feature checked; both extents are asserted above.
        return unsafe { simd::copy_rows(g, src.as_ptr(), from, dst.as_mut_ptr(), to) };
    }
    copy_rows_portable(g, src, from, dst, to)
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
        let mut out = s.take_uninit(g.rows() * g.f);
        let xbuf = g.padded(input.data(), s);
        let x = xbuf.as_deref().unwrap_or(input.data());
        pixel_lanes(g, x, weight.data(), bias.data(), &mut out);
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
        let f = g.f;
        assert_eq!(
            dout.shape().dims(),
            &[g.n, f, g.oh, g.ow],
            "conv2d_backward dout shape"
        );

        // dout (N,F,OH,OW) -> row layout (N*OH*OW, F): one row per pixel.
        let mut drows = s.take_uninit(g.rows() * f);
        row_layout(g, dout.data(), &mut drows);

        // dW and dbias over runs of adjacent taps, filters × taps per vector.
        let xbuf = g.padded(input.data(), s);
        let x = xbuf.as_deref().unwrap_or(input.data());
        tap_runs(g, x, &drows, dweight, dbias);
        if let Some(xpad) = xbuf {
            s.put(xpad);
        }

        s.put(drows);

        // dinput: the forward's mirror over a zero-bordered frame of dout.
        want_dx.then(|| {
            Mirror::with(g, |m| {
                let mut dx = s.take_uninit(g.n * g.c * g.h * g.w);
                let samples = dx
                    .chunks_exact_mut(g.c * g.h * g.w)
                    .zip(dout.data().chunks_exact(f * g.ohw()));
                FRAME.with(|fr| {
                    let mut fr = fr.borrow_mut();
                    fr.resize(m.frame_len(g), 0.0);
                    for (dx, dout) in samples {
                        frame(g, m, dout, &mut fr);
                        mirror_lanes(g, m, &fr, weight.data(), dx);
                    }
                });
                Tensor::from_vec(Shape::d4(g.n, g.c, g.h, g.w), dx)
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_backward_direct, conv2d_direct};
    use crate::rng::DetRng;

    /// `(n, c, h, w, f, k, pad)`.
    type Dims = (usize, usize, usize, usize, usize, usize, usize);

    /// Small shapes, batch 1 among them.
    const SHAPES: [Dims; 4] = [
        (2, 3, 8, 8, 5, 3, 1),
        (1, 1, 5, 7, 2, 3, 0),
        (3, 4, 6, 6, 8, 1, 0),
        (1, 2, 4, 4, 3, 3, 2),
    ];

    /// Cipher's three convolutions, at a batch whose blocks end every sample
    /// short of sixteen live lanes.
    const CIPHER: [Dims; 3] = [
        (3, 1, 12, 12, 4, 3, 1),
        (3, 4, 6, 6, 8, 3, 1),
        (3, 8, 3, 3, 16, 3, 1),
    ];

    /// Past `SHAPES` and `CIPHER`: `F = 1` (16-tap runs) on a pad-0 1×1
    /// kernel, so the padded copy exists for its slack alone, and `F = 20`
    /// (two filter groups, the second four wide) on a 25-pixel map.
    const EDGES: [Dims; 2] = [(1, 2, 5, 5, 1, 1, 0), (1, 3, 5, 5, 20, 3, 1)];

    /// `SHAPES`, `CIPHER` at batch 1 (as the thousand-worker simulation runs
    /// it) and `EDGES`.
    fn shapes() -> impl Iterator<Item = Dims> {
        let batch_1 = CIPHER.map(|(_, c, h, w, f, k, pad)| (1, c, h, w, f, k, pad));
        SHAPES.into_iter().chain(batch_1).chain(EDGES)
    }

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
        for (n, c, h, w, f, k, pad) in shapes() {
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
        for (n, c, h, w, f, k, pad) in shapes() {
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
            let dw = Tensor::from_vec(*weight.shape(), dw);
            assert_close(&a.dweight, &dw, 1e-3, &what);
            assert_close(&a.dbias, &Tensor::from_vec(Shape::d1(f), db), 1e-3, &what);
        }
    }

    /// On an AVX-512 host the dispatched micro-kernels are the intrinsics;
    /// the portable twins must give the same bits (elsewhere this compares
    /// the twins with themselves). `dout` carries exact zeros and the
    /// operands −0.0, NaN and ±∞, which every chain adds like any term.
    #[test]
    fn portable_micro_kernels_match_the_dispatched_ones_bit_for_bit() {
        // NaNs compare equal whatever their sign and payload (module header).
        let bits = |v: &[f32]| {
            let canon = |y: &f32| {
                if y.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    y.to_bits()
                }
            };
            v.iter().map(canon).collect::<Vec<_>>()
        };
        let mut rng = DetRng::seed_from_u64(9);
        let specials = |t: &mut Tensor, rng: &mut DetRng| {
            for v in [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40] {
                let at = rng.index(t.numel());
                t.data_mut()[at] = v;
            }
        };
        // Which run lengths `T`, sweep sizes and transpose widths `fw` (with
        // a sample's last pixel block short of sixteen) ran.
        let (mut taps, mut sweeps, mut ragged) = (vec![], vec![], vec![]);
        for (n, c, h, w, f, k, pad) in shapes().chain(CIPHER) {
            let mut input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
            let mut weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
            let mut bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
            specials(&mut input, &mut rng);
            specials(&mut weight, &mut rng);
            specials(&mut bias, &mut rng);
            let mut s = Scratch::new();
            Geom::with(&input, &weight, pad, |g| {
                let what = |t: &str| format!("{t} ({n},{c},{h},{w},{f},{k},{pad})");
                let xbuf = g.padded(input.data(), &mut s);
                let x = xbuf.as_deref().unwrap_or(input.data());
                let mut want = vec![0.0; g.padded_len()];
                copy_rows_portable(g, input.data(), g.dense(), &mut want, g.interior());
                assert_eq!(bits(x), bits(&want), "{}", what("padded copy"));

                // Stale outputs: every slot must be written.
                let (mut got, mut want) = (vec![f32::NAN; g.rows() * f], vec![0.0; g.rows() * f]);
                pixel_lanes(g, x, weight.data(), bias.data(), &mut got);
                pixel_lanes_portable(g, x, weight.data(), bias.data(), &mut want);
                assert_eq!(bits(&got), bits(&want), "{}", what("pixel_lanes"));

                let mut dout = Tensor::randn(Shape::d4(n, f, g.oh, g.ow), 1.0, &mut rng);
                for v in dout.data_mut().iter_mut().step_by(3) {
                    *v = 0.0;
                }
                specials(&mut dout, &mut rng);
                let (mut got, mut want) = (vec![f32::NAN; g.rows() * f], vec![0.0; g.rows() * f]);
                row_layout(g, dout.data(), &mut got);
                row_layout_portable(g, dout.data(), &mut want);
                assert_eq!(bits(&got), bits(&want), "{}", what("row_layout"));
                if g.ohw() % LANES != 0 {
                    ragged.push(g.fw());
                }

                let drows = got;
                let (mut dw, mut db) = (vec![f32::NAN; f * g.k()], vec![f32::NAN; f]);
                tap_runs(g, x, &drows, &mut dw, &mut db);
                let (mut dw_want, mut db_want) = (vec![0.0; f * g.k()], vec![0.0; f]);
                tap_runs_portable(g, x, &drows, &mut dw_want, &mut db_want);
                assert_eq!(bits(&dw), bits(&dw_want), "{}", what("tap_runs dW"));
                assert_eq!(bits(&db), bits(&db_want), "{}", what("tap_runs dbias"));
                taps.push(g.taps());
                let mut left = g.runs.len();
                while left > 0 {
                    sweeps.push(sweep_len(left));
                    left -= sweep_len(left);
                }
            });
        }
        for t in [1, 2, 4, 8, 16] {
            assert!(taps.contains(&t), "runs of {t} taps: {taps:?}");
            let fw = LANES / t;
            assert!(ragged.contains(&fw), "{fw} filters, ragged: {ragged:?}");
        }
        for len in [12, 6, 3, 2, 1] {
            assert!(sweeps.contains(&len), "a sweep of {len} runs: {sweeps:?}");
        }
    }

    /// The input gradient's frame and kernel against their portable twins,
    /// bit for bit, on every edge of its blocks: an input row of 16, 17 and
    /// 33 floats, `H = 1`, pad 0, 1, 2 and 3 (a pad above `K−1` borders
    /// nothing), `KH ≠ KW`, 1×1 kernels and `C` not a multiple of its
    /// register group. A NaN and a ±∞ weight sit on corner taps, which fall
    /// outside the output map for a border pixel: a tap whose lanes are not
    /// zeroed there adds `0·∞`.
    #[test]
    fn portable_mirror_matches_the_dispatched_one_bit_for_bit() {
        let bits = |v: &[f32]| {
            let canon = |y: &f32| {
                if y.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    y.to_bits()
                }
            };
            v.iter().map(canon).collect::<Vec<_>>()
        };
        // (n, c, h, w, f, kh, kw, pad)
        let shapes = [
            (2, 3, 4, 16, 5, 3, 3, 1),
            (2, 5, 3, 17, 4, 3, 3, 1),
            (1, 9, 1, 33, 3, 1, 3, 1),
            (3, 7, 5, 6, 2, 1, 1, 2),
            (2, 12, 4, 5, 6, 2, 3, 0),
            (2, 2, 6, 6, 3, 3, 3, 2),
            (1, 3, 2, 3, 4, 3, 2, 3),
            (1, 4, 6, 6, 8, 3, 3, 1),
            (3, 8, 3, 3, 16, 3, 3, 1),
        ];
        let mut rng = DetRng::seed_from_u64(45);
        // Channel groups of [8, 4, 2, 1] that ran.
        let mut groups = [0; 4];
        for (n, c, h, w, f, kh, kw, pad) in shapes {
            let input = Tensor::zeros(Shape::d4(n, c, h, w));
            let mut weight = Tensor::randn(Shape::d4(f, c, kh, kw), 0.5, &mut rng);
            let kk = kh * kw;
            weight.data_mut()[0] = f32::NAN;
            weight.data_mut()[(c - 1) * kk + kk - 1] = f32::INFINITY;
            weight.data_mut()[(f - 1) * c * kk + kw - 1] = f32::NEG_INFINITY;
            let (oh, ow) = out_hw(h, w, kh, kw, pad);
            let mut dout = Tensor::randn(Shape::d4(n, f, oh, ow), 1.0, &mut rng);
            for (i, v) in dout.data_mut().iter_mut().enumerate().step_by(3) {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            let what = |t: &str| format!("{t} ({n},{c},{h},{w})x({f},{c},{kh},{kw}) pad {pad}");
            Geom::with(&input, &weight, pad, |g| {
                Mirror::with(g, |m| {
                    for dout in dout.data().chunks_exact(f * oh * ow) {
                        // Stale outputs: every slot must be written.
                        let len = m.frame_len(g);
                        let (mut fr, mut want) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                        frame(g, m, dout, &mut fr);
                        frame_portable(g, m, dout, &mut want);
                        assert_eq!(bits(&fr), bits(&want), "{}", what("frame"));
                        let len = c * h * w;
                        let (mut dx, mut want) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                        mirror_lanes(g, m, &fr, weight.data(), &mut dx);
                        mirror_lanes_portable(g, m, &fr, weight.data(), &mut want);
                        assert_eq!(bits(&dx), bits(&want), "{}", what("mirror_lanes"));
                    }
                });
            });
            let mut left = c;
            for (i, g) in [8, 4, 2, 1].into_iter().enumerate() {
                while left >= g {
                    (groups[i], left) = (groups[i] + 1, left - g);
                }
            }
        }
        assert!(
            groups.iter().all(|&n| n > 0),
            "every channel group: {groups:?}"
        );
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
