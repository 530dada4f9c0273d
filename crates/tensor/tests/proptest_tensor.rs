//! Property-based tests for the tensor substrate's core invariants.
//!
//! Each test sweeps many deterministic pseudo-random cases (seeded
//! `DetRng`), replacing the external proptest dependency: same invariants,
//! reproducible offline.

use dlion_tensor::ops::{
    col2im_into, conv2d_backward_im2col_s, conv2d_im2col_s, im2col_into, matmul_into, matmul_naive,
    matmul_nt_into, matmul_tn_into,
};
use dlion_tensor::sparse::{kth_largest_abs, max_n_select, n_for_budget};
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

/// Budgeted selection never exceeds the entry budget (when budget >= 1)
/// and keeps the largest-magnitude entries.
#[test]
fn budget_respected_and_greedy() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(2000 + case);
        let dense = finite_vec(&mut rng, 128);
        let budget = 1 + rng.index(63);
        let (_, sel) = n_for_budget(&dense, budget, 0.85);
        assert!(sel.nnz() <= budget, "case {case}: budget exceeded");
        let selected: std::collections::HashSet<u32> = sel.indices.iter().copied().collect();
        let min_sel = sel
            .values
            .iter()
            .map(|v| v.abs())
            .fold(f32::INFINITY, f32::min);
        if sel.nnz() > 0 && sel.nnz() == budget {
            for (i, &v) in dense.iter().enumerate() {
                if !selected.contains(&(i as u32)) {
                    assert!(
                        v.abs() <= min_sel + 1e-6,
                        "case {case}: unselected {v} larger than selected min {min_sel}"
                    );
                }
            }
        }
    }
}

/// kth_largest_abs agrees with a sort-based oracle.
#[test]
fn kth_largest_matches_sort() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(3000 + case);
        let dense = finite_vec(&mut rng, 128);
        let k = 1 + rng.index(63);
        let got = kth_largest_abs(&dense, k);
        let mut abs: Vec<f32> = dense.iter().map(|x| x.abs()).collect();
        abs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let expect = abs[(k - 1).min(abs.len() - 1)];
        assert_eq!(got, expect, "case {case}");
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

/// The im2col convolution views the filter bank as `(F, C·KH·KW)` in place
/// (shared storage): forward and `dinput` carry the same bits as the same
/// lowering fed a materialized copy of the bank, and the bank is untouched.
#[test]
fn im2col_conv_reads_the_filter_bank_in_place() {
    let mut s = Scratch::new();
    for case in 0..24u64 {
        let mut rng = DetRng::seed_from_u64(6500 + case);
        let (n, c, f) = (1 + rng.index(3), 1 + rng.index(4), 1 + rng.index(6));
        let (k, pad) = (1 + 2 * rng.index(2), rng.index(2));
        let (h, w) = (k + rng.index(6), k + rng.index(6));
        let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
        let (rows, row_len) = (n * oh * ow, c * k * k);
        let input = Tensor::randn(Shape::d4(n, c, h, w), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(f, c, k, k), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(f), 0.5, &mut rng);
        let dout = Tensor::randn(Shape::d4(n, f, oh, ow), 1.0, &mut rng);
        let bank = weight.data().to_vec();
        let wcopy = Tensor::from_vec(Shape::d2(f, row_len), bank.clone());

        let mut patches = vec![f32::NAN; rows * row_len];
        im2col_into(&input, k, k, pad, &mut patches);
        let patches = Tensor::from_vec(Shape::d2(rows, row_len), patches);
        let mut prod = vec![f32::NAN; rows * f];
        matmul_nt_into(&patches, &wcopy, &mut prod);
        let expect = Tensor::from_fn(Shape::d4(n, f, oh, ow), |i| {
            let (ni, fi, p) = (i / (f * oh * ow), i / (oh * ow) % f, i % (oh * ow));
            prod[(ni * oh * ow + p) * f + fi] + bias.data()[fi]
        });
        let got = conv2d_im2col_s(&input, &weight, &bias, pad, &mut s);
        assert_eq!(got.data(), expect.data(), "case {case}: forward");

        let drows = Tensor::from_fn(Shape::d2(rows, f), |i| {
            let (r, fi) = (i / f, i % f);
            dout.data()[(r / (oh * ow) * f + fi) * oh * ow + r % (oh * ow)]
        });
        let mut dpatches = vec![f32::NAN; rows * row_len];
        matmul_into(&drows, &wcopy, &mut dpatches);
        let dpatches = Tensor::from_vec(Shape::d2(rows, row_len), dpatches);
        let mut dinput = vec![0.0; n * c * h * w];
        col2im_into(&dpatches, n, c, h, w, k, k, pad, &mut dinput);
        let grads = conv2d_backward_im2col_s(&input, &weight, &dout, pad, &mut s);
        assert_eq!(grads.dinput.data(), &dinput[..], "case {case}: dinput");
        assert_eq!(weight.data(), &bank[..], "case {case}: bank rewritten");
    }
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
        let s = Shape(vec![d0, d1, d2]);
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
