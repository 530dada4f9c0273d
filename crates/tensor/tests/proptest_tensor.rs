//! Property-based tests for the tensor substrate's core invariants.
//!
//! Each test sweeps many deterministic pseudo-random cases (seeded
//! `DetRng`), replacing the external proptest dependency: same invariants,
//! reproducible offline.

use dlion_tensor::ops::{
    conv2d_backward_direct, conv2d_backward_into, conv2d_backward_s, conv2d_direct, conv2d_s,
    matmul_into, matmul_naive, matmul_nt_into, matmul_tn_into,
};
use dlion_tensor::sparse::max_n_select;
use dlion_tensor::stats::linear_fit;
use dlion_tensor::{deterministic_sum, DetRng, Scratch, Shape, Tensor};

fn finite_vec(rng: &mut DetRng, max_len: usize) -> Vec<f32> {
    let len = 1 + rng.index(max_len - 1);
    (0..len)
        .map(|_| rng.uniform_range(-100.0, 100.0) as f32)
        .collect()
}

fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    Tensor::from_fn(Shape::d2(n, m), |f| a.at(&[f % m, f / m]))
}

/// Max N selects exactly the entries with |v| >= (1 - N/100) * max|v|.
#[test]
fn max_n_threshold_semantics() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(case);
        let dense = finite_vec(&mut rng, 256);
        let n = rng.uniform_range(0.1, 100.0);
        let sel = max_n_select(&dense, n);
        let max = dense.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let thr = ((1.0 - n / 100.0) * max as f64) as f32;
        for (&i, &v) in sel.indices.iter().zip(&sel.values) {
            assert_eq!(dense[i as usize], v);
            if n < 100.0 {
                assert!(
                    v.abs() >= thr,
                    "case {case}: selected value below threshold"
                );
            }
        }
        // Nothing above threshold is missed (non-zero entries).
        if n < 100.0 {
            for (i, &v) in dense.iter().enumerate() {
                if v != 0.0 && v.abs() >= thr {
                    assert!(
                        sel.indices.binary_search(&(i as u32)).is_ok(),
                        "case {case}: entry {i} ({v}) above threshold not selected"
                    );
                }
            }
        }
    }
}

/// Selection size is monotone non-decreasing in N.
#[test]
fn max_n_monotone() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(1000 + case);
        let dense = finite_vec(&mut rng, 128);
        let mut prev = 0usize;
        for n in [1.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            let sel = max_n_select(&dense, n);
            assert!(sel.nnz() >= prev, "case {case}: nnz not monotone in N");
            prev = sel.nnz();
        }
    }
}

/// Scatter-add followed by subtraction recovers zero where selected.
#[test]
fn sparse_roundtrip() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(4000 + case);
        let dense = finite_vec(&mut rng, 128);
        let n = rng.uniform_range(1.0, 100.0);
        let sel = max_n_select(&dense, n);
        let mut acc = dense.clone();
        sel.add_into(&mut acc, -1.0);
        for &i in sel.indices.iter() {
            assert!(acc[i as usize].abs() < 1e-4, "case {case}");
        }
    }
}

/// Linear regression exactly recovers noiseless lines.
#[test]
fn linear_fit_recovers_line() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(5000 + case);
        let a = rng.uniform_range(-50.0, 50.0);
        let b = rng.uniform_range(-10.0, 10.0);
        let len = 3 + rng.index(29);
        let mut xs: Vec<f64> = (0..len).map(|_| rng.uniform_range(-100.0, 100.0)).collect();
        // Need x-variance; perturb deterministically if degenerate.
        xs[0] += 1.0;
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let (ga, gb) = linear_fit(&xs, &ys);
        assert!(
            (ga - a).abs() < 1e-6 * (1.0 + a.abs()),
            "case {case}: intercept {ga} vs {a}"
        );
        assert!(
            (gb - b).abs() < 1e-6 * (1.0 + b.abs()),
            "case {case}: slope {gb} vs {b}"
        );
    }
}

/// The blocked kernels' central contract: `matmul_into`, `matmul_nt_into`
/// and `matmul_tn_into` are *bit-identical* (exact f32 equality) to the
/// naive `i,j,k` triple loop, across random shapes deliberately not
/// divisible by the MR=4 / NR=16 tile sizes, and overwrite every slot of a
/// stale (NaN-filled) output buffer.
#[test]
fn blocked_kernels_exactly_match_naive_reference() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(6000 + case);
        // Bias shapes toward tile-boundary straddling: 1..70 hits every
        // residue mod 4/8/32.
        let m = 1 + rng.index(70);
        let k = 1 + rng.index(70);
        let n = 1 + rng.index(70);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
        let expect = matmul_naive(&a, &b);

        let mut buf = vec![f32::NAN; m * n];
        matmul_into(&a, &b, &mut buf);
        assert_eq!(buf, expect.data(), "case {case}: matmul {m}x{k}x{n}");

        let bt = transpose(&b);
        buf.fill(f32::NAN);
        matmul_nt_into(&a, &bt, &mut buf);
        assert_eq!(buf, expect.data(), "case {case}: matmul_nt {m}x{k}x{n}");

        let at = transpose(&a);
        buf.fill(f32::NAN);
        matmul_tn_into(&at, &b, &mut buf);
        assert_eq!(buf, expect.data(), "case {case}: matmul_tn {m}x{k}x{n}");
    }
}

/// One convolution problem and its naive scalar reference, written from the
/// order contract in `ops/igemm.rs`: the chains the im2col + GEMM lowering
/// ran, element by element, with no tiling at all.
struct ConvCase {
    dims: [usize; 8], // n, c, h, w, f, kh, kw, pad
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    dout: Tensor,
}

impl ConvCase {
    fn out_hw(&self) -> (usize, usize) {
        let [_, _, h, w, _, kh, kw, pad] = self.dims;
        (h + 2 * pad + 1 - kh, w + 2 * pad + 1 - kw)
    }

    /// `patches[(ni, oy, ox)][(ci, ky, kx)]`: the input value under the
    /// tap, `+0.0` where the tap hangs over the padding; plus the flat input
    /// index it came from.
    fn tap(&self, ni: usize, oy: usize, ox: usize, k: usize) -> (f32, Option<usize>) {
        let [_, c, h, w, _, kh, kw, pad] = self.dims;
        let (ci, ky, kx) = (k / (kh * kw), k / kw % kh, k % kw);
        let (iy, ix) = (oy + ky, ox + kx);
        if iy < pad || iy >= h + pad || ix < pad || ix >= w + pad {
            return (0.0, None);
        }
        let at = ((ni * c + ci) * h + iy - pad) * w + ix - pad;
        (self.input.data()[at], Some(at))
    }

    /// Hold the dispatched forward and all three gradients, and the
    /// parameter gradients without the input gradient (written over stale
    /// buffer contents), to [`ConvCase::reference`] bit for bit; returns the
    /// reference.
    fn assert_dispatch_exact(
        &self,
        s: &mut Scratch,
        what: &dyn Fn(&str) -> String,
    ) -> [Vec<f32>; 4] {
        let [n, _, _, _, f, _, _, pad] = self.dims;
        let (oh, ow) = self.out_hw();
        let [out, dinput, dweight, dbias] = self.reference();
        let (input, weight, dout) = (&self.input, &self.weight, &self.dout);
        let got = conv2d_s(input, weight, &self.bias, pad, s);
        assert_eq!(got.shape().dims(), &[n, f, oh, ow]);
        assert_same_bits(got.data(), &out, &what("forward"));
        s.put_tensor(got);

        let g = conv2d_backward_s(input, weight, dout, pad, s);
        assert_same_bits(g.dinput.data(), &dinput, &what("dinput"));
        assert_same_bits(g.dweight.data(), &dweight, &what("dweight"));
        assert_same_bits(g.dbias.data(), &dbias, &what("dbias"));

        let (mut dw, mut db) = (vec![f32::NAN; dweight.len()], vec![f32::NAN; f]);
        let none = conv2d_backward_into(input, weight, dout, pad, false, &mut dw, &mut db, s);
        assert!(none.is_none());
        assert_same_bits(&dw, &dweight, &what("dweight, no dx"));
        assert_same_bits(&db, &dbias, &what("dbias, no dx"));
        [out, dinput, dweight, dbias]
    }

    /// `(out, dinput, dweight, dbias)` by the order contract.
    fn reference(&self) -> [Vec<f32>; 4] {
        let [n, c, h, w, f, kh, kw, _] = self.dims;
        let (oh, ow) = self.out_hw();
        let k_len = c * kh * kw;
        let (wd, dd) = (self.weight.data(), self.dout.data());
        let mut out = vec![0.0f32; n * f * oh * ow];
        let mut dinput = vec![0.0f32; n * c * h * w];
        let mut dweight = vec![0.0f32; f * k_len];
        let mut dbias = vec![0.0f32; f];
        // Rows r = (ni, oy, ox) ascending everywhere below.
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let at = |fi: usize| ((ni * f + fi) * oh + oy) * ow + ox;
                    for fi in 0..f {
                        // Forward: ascending k from +0.0, padding taps
                        // included, bias last.
                        let mut acc = 0.0f32;
                        for k in 0..k_len {
                            acc += self.tap(ni, oy, ox, k).0 * wd[fi * k_len + k];
                        }
                        out[at(fi)] = acc + self.bias.data()[fi];
                        // dW[f][k] and dbias[f]: one more row onto each chain.
                        for k in 0..k_len {
                            dweight[fi * k_len + k] += self.tap(ni, oy, ox, k).0 * dd[at(fi)];
                        }
                        dbias[fi] += dd[at(fi)];
                    }
                    // dpatches[r][k] from +0.0 in ascending f, scattered in
                    // ascending k.
                    for k in 0..k_len {
                        let mut dpatch = 0.0f32;
                        for fi in 0..f {
                            dpatch += dd[at(fi)] * wd[fi * k_len + k];
                        }
                        if let (_, Some(i)) = self.tap(ni, oy, ox, k) {
                            dinput[i] += dpatch;
                        }
                    }
                }
            }
        }
        [out, dinput, dweight, dbias]
    }
}

/// Bit equality, except that two NaNs are equal whatever their sign and
/// payload: which operand's NaN a `mul`/`add` hands on depends on operand
/// order, which neither the compiler nor the contract fixes.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: {g:e} ({:#x}) vs reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The implicit-GEMM convolution's contract: forward and all three
/// gradients are *bit-identical* to the naive chains of [`ConvCase`], on
/// shapes that straddle every tile edge — F below, at and above one and two
/// 16-filter panels; K below and above one and several 16-tap panels; pad
/// 0/1/2; 1×1 and non-square kernels; `N·OH·OW` not a multiple of 4 and
/// `OH·OW` < 4; and every edge of the forward's 16-pixel blocks over a
/// sample's padded-width grid — `OW` of 16, 17 and 33, `OH` = 1, a 4-column
/// padding gap inside a block, a sample's last block short of 16 live lanes
/// and one that is full up to the padded buffer's last element — and every
/// edge of the input gradient's blocks over a frame-width input grid: an
/// input row of 16, 17 and 33 floats, `H` = 1, pad 0, 1 and 2 (a pad above
/// `K−1` borders nothing), `KH ≠ KW`, 1×1 kernels and `C` not a multiple of
/// its register group of 8/4/2/1 — with exact zeros in `dout` (no zero
/// skip) and, on every third case, −0.0, NaN and ±∞ among the inputs and
/// weights, a NaN and a ±∞ weight on corner taps among them (a corner tap
/// falls outside the output map for a border pixel, so a tap that is not
/// masked out adds `0·∞` there). The contract holds at every batch size:
/// each shape also runs at batch 1, as the thousand-worker simulation runs
/// it.
#[test]
fn implicit_gemm_conv_exactly_matches_the_order_contract() {
    let mut s = Scratch::new();
    // (c, h, w, f, kh, kw, pad)
    let shapes = [
        (1, 12, 12, 4, 3, 3, 1), // Cipher conv1: K = 9, one ragged panel
        (4, 6, 6, 8, 3, 3, 1),   // Cipher conv2: K = 36, three panels
        (8, 3, 3, 16, 3, 3, 1),  // Cipher conv3: K = 72, F a full panel
        (3, 5, 4, 17, 3, 3, 1),  // F one past a panel
        (2, 4, 5, 32, 3, 2, 2),  // two full panels, non-square kernel, pad 2
        (5, 3, 3, 5, 1, 1, 0),   // 1x1, K = 5
        (16, 2, 3, 1, 1, 1, 0),  // F = 1, K = 16 exactly
        (1, 1, 2, 1, 1, 1, 0),   // K = 1, F = 1, OH·OW = 2
        (2, 1, 3, 4, 1, 2, 0),   // 1x2 kernel, OH·OW = 2
        (7, 5, 3, 5, 2, 3, 0),   // K = 42, pad 0, OW = 1
        (3, 1, 1, 17, 3, 3, 2),  // 1x1 image under pad 2: mostly padding taps
        (2, 3, 18, 3, 3, 3, 0),  // OH = 1, OW = 16: one full block per sample
        (2, 2, 17, 5, 3, 3, 1),  // OW = 17: a row spans two blocks
        (1, 5, 33, 9, 1, 3, 1),  // OW = 33: a row spans three blocks
        (3, 6, 5, 6, 5, 5, 2),   // pad 2, 5x5: a 4-column gap inside blocks
        (4, 2, 9, 7, 2, 3, 0),   // OH = 1, OW = 7: one short block per sample
        (2, 6, 6, 2, 3, 3, 1),   // F = 2: dW runs of 8 taps
        (3, 5, 5, 1, 3, 3, 0),   // F = 1, pad 0: the last 16-tap run reads past the image
        (3, 4, 16, 5, 3, 3, 1),  // an input row of 16 floats, C = 3: groups of 2 and 1
        (5, 3, 17, 4, 3, 3, 1),  // an input row of 17, C = 5: groups of 4 and 1
        (9, 1, 33, 3, 1, 3, 1),  // H = 1, an input row of 33, 1x3, C = 9: 8 and 1
        (7, 5, 6, 2, 1, 1, 2),   // 1x1 under pad 2: no border, C = 7: 4, 2 and 1
        (12, 4, 5, 6, 2, 3, 0),  // 2x3, pad 0, C = 12: 8 and 4
        (3, 2, 3, 4, 3, 2, 3),   // pad 3 above both K - 1
    ];
    let mut strip_remainders = [0; 4];
    // dW's run lengths T = 16 / min(16, F.next_power_of_two()): [1, 2, 4, 8, 16].
    let mut run_lengths = [0; 5];
    // The forward's 16-lane blocks over a sample's padded-width grid: [some
    // block straddles two rows, a sample's last block has fewer than 16
    // live lanes, a sample's last block is full up to the padded buffer's
    // last element].
    let mut lane_edges = [0; 3];
    // The input gradient's: [a block straddles two input rows, an input row
    // spans two blocks or more, the frame has no border on an axis
    // (pad > K − 1)], and its channel groups of [8, 4, 2, 1].
    let (mut dx_edges, mut groups) = ([0; 3], [0; 4]);
    for (case, &(c, h, w, f, kh, kw, pad)) in shapes.iter().enumerate() {
        let mut rng = DetRng::seed_from_u64(6500 + case as u64);
        let (oh, ow) = (h + 2 * pad + 1 - kh, w + 2 * pad + 1 - kw);
        // A batch of at least 16·1024 MACs (several samples per case),
        // plus one so that the row count is not always a multiple of the
        // 4-row strip.
        let n = (16 * 1024usize).div_ceil(oh * ow * c * kh * kw * f) + 1;
        strip_remainders[n * oh * ow % 4] += 1;
        run_lengths[(16 / f.next_power_of_two().min(16)).trailing_zeros() as usize] += 1;
        let (wp, span) = (w + 2 * pad, (oh - 1) * (w + 2 * pad) + ow);
        let mut blocks = (0..span).step_by(16).map(|q0| q0..span.min(q0 + 16));
        if blocks.any(|b| b.start / wp != (b.end - 1) / wp) {
            lane_edges[0] += 1;
        }
        let live = ((span - 1) / 16 * 16..span).filter(|q| q % wp < ow).count();
        lane_edges[if live < 16 { 1 } else { 2 }] += 1;
        let wb = ow + 2 * (kw - 1).saturating_sub(pad);
        let span = (h - 1) * wb + w;
        let mut blocks = (0..span).step_by(16).map(|q0| q0..span.min(q0 + 16));
        if blocks.any(|b| b.start / wb != (b.end - 1) / wb) {
            dx_edges[0] += 1;
        }
        if w > 16 {
            dx_edges[1] += 1;
        }
        if pad > kh.min(kw) - 1 {
            dx_edges[2] += 1;
        }
        let mut left = c;
        for (i, g) in [8, 4, 2, 1].into_iter().enumerate() {
            while left >= g {
                (groups[i], left) = (groups[i] + 1, left - g);
            }
        }
        let mut input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
        let mut weight = Tensor::randn(Shape::d4(f, c, kh, kw), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
        let mut dout = Tensor::randn(Shape::d4(n, f, oh, ow), 1.0, &mut rng);
        // ReLU-style exact zeros upstream.
        for v in dout.data_mut().iter_mut().step_by(3) {
            *v = 0.0;
        }
        if case % 3 == 2 {
            let specials = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for (i, &v) in specials.iter().enumerate() {
                let at = rng.index(input.numel());
                input.data_mut()[at] = v;
                let at = rng.index(weight.numel());
                weight.data_mut()[at] = specials[(i + 1) % 4];
            }
            // Corner taps: (0, 0) of filter 0, channel 0 and (KH−1, KW−1) of
            // the last filter's last channel.
            weight.data_mut()[0] = f32::NAN;
            let last = weight.numel() - 1;
            weight.data_mut()[last] = if case % 2 == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
            dout.data_mut()[0] = -0.0;
        }
        let problem = ConvCase {
            dims: [n, c, h, w, f, kh, kw, pad],
            input,
            weight,
            bias,
            dout,
        };
        let what =
            |t: &str| format!("case {case} ({n},{c},{h},{w})x({f},{c},{kh},{kw}) pad {pad}: {t}");
        let [out, dinput, dweight, dbias] = problem.assert_dispatch_exact(&mut s, &what);
        // The same chains at batch 1: the first sample alone.
        let sample = |t: &Tensor, len: usize, shape: Shape| {
            Tensor::from_vec(shape, t.data()[..len].to_vec())
        };
        let alone = ConvCase {
            dims: [1, c, h, w, f, kh, kw, pad],
            input: sample(&problem.input, c * h * w, Shape::d4(1, c, h, w)),
            weight: problem.weight.clone(),
            bias: problem.bias.clone(),
            dout: sample(&problem.dout, f * oh * ow, Shape::d4(1, f, oh, ow)),
        };
        alone.assert_dispatch_exact(&mut s, &|t: &str| what(&format!("batch 1, {t}")));
        let ConvCase {
            input,
            weight,
            bias,
            dout,
            ..
        } = &problem;

        // The direct loops are the independent reference: same numbers to
        // rounding (they add the bias first and skip zero gradients).
        if case % 3 != 2 {
            let close = |a: &[f32], b: &[f32], t: &str| {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    let tol = 1e-3 * (1.0 + x.abs().max(y.abs()));
                    assert!((x - y).abs() < tol, "{}[{i}]: {x} vs {y}", what(t));
                }
            };
            let direct = conv2d_direct(input, weight, bias, pad, &mut s);
            close(&out, direct.data(), "forward vs direct");
            let d = conv2d_backward_direct(input, weight, dout, pad, &mut s);
            close(&dinput, d.dinput.data(), "dinput vs direct");
            close(&dweight, d.dweight.data(), "dweight vs direct");
            close(&dbias, d.dbias.data(), "dbias vs direct");
        }
    }
    assert!(
        strip_remainders.iter().all(|&cases| cases > 0),
        "every 4-row strip remainder is covered: {strip_remainders:?}"
    );
    assert!(
        lane_edges.iter().all(|&cases| cases > 0),
        "every 16-lane block edge is covered: {lane_edges:?}"
    );
    assert!(
        run_lengths.iter().all(|&cases| cases > 0),
        "every dW run length is covered: {run_lengths:?}"
    );
    assert!(
        dx_edges.iter().chain(&groups).all(|&cases| cases > 0),
        "every input-gradient block edge and channel group is covered: {dx_edges:?} {groups:?}"
    );
}

/// `sq_l2` folds the squaring into the repo's one summation order: the same
/// bits as summing a squared copy, on either side of the 4096 chunk.
#[test]
fn sq_l2_exactly_matches_summing_a_squared_copy() {
    for case in 0..32u64 {
        let mut rng = DetRng::seed_from_u64(6800 + case);
        let len = 1 + rng.index(3 * 4096);
        let t = Tensor::randn(Shape::d1(len), 3.0, &mut rng);
        let squared: Vec<f32> = t.data().iter().map(|&x| x * x).collect();
        let expect = deterministic_sum(&squared);
        assert_eq!(t.sq_l2().to_bits(), expect.to_bits(), "case {case}");
    }
}

/// Shape offsets are a bijection onto 0..numel.
#[test]
fn shape_offsets_bijective() {
    for case in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(7000 + case);
        let (d0, d1, d2) = (1 + rng.index(4), 1 + rng.index(4), 1 + rng.index(4));
        let s = Shape::new(&[d0, d1, d2]);
        let mut seen = vec![false; s.numel()];
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    let o = s.offset(&[i, j, k]);
                    assert!(!seen[o], "case {case}: offset collision");
                    seen[o] = true;
                }
            }
        }
        assert!(seen.iter().all(|&x| x), "case {case}");
    }
}

/// axpy is linear: (x + a*y) + b*y == x + (a+b)*y.
#[test]
fn axpy_linearity() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(8000 + case);
        let xs = finite_vec(&mut rng, 64);
        let a = rng.uniform_range(-2.0, 2.0) as f32;
        let b = rng.uniform_range(-2.0, 2.0) as f32;
        let n = xs.len();
        let x = Tensor::from_vec(Shape::d1(n), xs);
        let y = Tensor::from_fn(Shape::d1(n), |i| (i as f32 * 0.37).sin());
        let mut lhs = x.clone();
        lhs.axpy(a, &y);
        lhs.axpy(b, &y);
        let mut rhs = x.clone();
        rhs.axpy(a + b, &y);
        for i in 0..n {
            assert!(
                (lhs.data()[i] - rhs.data()[i]).abs() < 1e-3,
                "case {case} idx {i}"
            );
        }
    }
}
