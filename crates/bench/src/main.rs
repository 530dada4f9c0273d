//! `dlion-bench` — self-contained `std::time::Instant` micro-benchmark
//! harness for the tensor kernels and the Max N planner. Usage:
//!
//! ```text
//! dlion-bench [kernels|maxn]      # no argument runs both
//! ```
//!
//! Each measurement prints a human-readable line plus a machine-harvestable
//! `json:{...}` line (collected into `results/BENCH_kernels.json`).
//! End-to-end numbers — training throughput, the wire codec and TCP path,
//! telemetry overhead, simulator scale — are `stackbench`'s workloads
//! (`BENCHMARK.json`), not modes of this binary.
//!
//! The pre-optimization ("seed") matmul kernels these rows were once
//! measured against are retired; their before/after rows are committed
//! history in `results/BENCH_kernels.json`.

use dlion_core::{build_cluster, MaxNPlanner, RunConfig, StrategyCtx, SystemKind};
use dlion_microcloud::ClusterKind;
use dlion_tensor::ops::{
    conv2d_backward_direct, conv2d_backward_direct_into, conv2d_backward_into, conv2d_backward_s,
    conv2d_direct, conv2d_s, matmul_into, matmul_nt_into, matmul_tn_into, maxpool2_backward_into,
    maxpool2_into, softmax_xent, ConvGrads,
};
use dlion_tensor::{DetRng, Scratch, Shape, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` adaptively: grow the repetition count until a batch takes at
/// least ~0.2 s, then report seconds per call.
fn bench<F: FnMut()>(label: &str, mut f: F) -> f64 {
    f(); // warmup (fills scratch/pack buffers, faults pages)
    let mut reps: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= 0.2 || reps >= 1 << 24 {
            let per = dt / reps as f64;
            println!("  {label:<44} {:>12.2} µs/call", per * 1e6);
            println!(
                "json:{{\"bench\":\"{label}\",\"us_per_call\":{:.3}}}",
                per * 1e6
            );
            return per;
        }
        reps = reps.saturating_mul(if dt < 0.02 { 8 } else { 2 });
    }
}

fn speedup(label: &str, before: f64, after: f64) {
    let x = before / after;
    println!("  {label:<44} {x:>11.2}x speedup");
    println!("json:{{\"speedup\":\"{label}\",\"factor\":{x:.3}}}");
}

fn mm_pair(rng: &mut DetRng, m: usize, k: usize, n: usize) -> (Tensor, Tensor, Vec<f32>) {
    let a = Tensor::randn(Shape::d2(m, k), 1.0, rng);
    let b = Tensor::randn(Shape::d2(k, n), 1.0, rng);
    let out = vec![0.0f32; m * n];
    (a, b, out)
}

fn kernels() {
    println!("== kernels ==");
    let mut rng = DetRng::seed_from_u64(42);

    // The acceptance-criterion shape plus the old criterion-bench shape.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (64, 216, 48)] {
        let (a, b, mut out) = mm_pair(&mut rng, m, k, n);
        bench(&format!("matmul {m}x{k}x{n} blocked"), || {
            matmul_into(black_box(&a), black_box(&b), black_box(&mut out))
        });
    }

    // Transposed variants (backward-pass kernels), 128^3.
    {
        let (m, k, n) = (128usize, 128usize, 128usize);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let bt = Tensor::randn(Shape::d2(n, k), 1.0, &mut rng);
        let at = Tensor::randn(Shape::d2(k, m), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        bench("matmul_nt 128^3 blocked", || {
            matmul_nt_into(black_box(&a), black_box(&bt), black_box(&mut out))
        });
        bench("matmul_tn 128^3 blocked", || {
            matmul_tn_into(black_box(&at), black_box(&b), black_box(&mut out))
        });
    }

    // Convolution, old criterion-bench shape: (32,6,12,12) ⊛ (12,6,3,3) pad 1,
    // timed as a training step runs it: on a warm arena (`bench` makes one
    // untimed call first) that gets every result back.
    let mut s = Scratch::new();
    let recycle = |g: ConvGrads, s: &mut Scratch| {
        s.put_tensor(g.dinput);
        s.put_tensor(g.dweight);
        s.put_tensor(g.dbias);
    };
    {
        let input = Tensor::randn(Shape::d4(32, 6, 12, 12), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(12, 6, 3, 3), 0.2, &mut rng);
        let bias = Tensor::zeros(Shape::d1(12));
        let (i, w, b) = (&input, &weight, &bias);
        // The dispatched entry points are the implicit GEMM at every shape;
        // the direct loops are the seed rows beside them.
        let fwd_gemm = bench("conv2d fwd implicit GEMM", || {
            let y = conv2d_s(black_box(i), black_box(w), black_box(b), 1, &mut s);
            s.put_tensor(black_box(y));
        });
        let fwd_direct = bench("conv2d fwd direct (seed)", || {
            let y = conv2d_direct(black_box(i), black_box(w), black_box(b), 1, &mut s);
            s.put_tensor(black_box(y));
        });
        speedup("conv2d fwd", fwd_direct, fwd_gemm);
        let out = conv2d_s(i, w, b, 1, &mut s);
        let dout = Tensor::randn(*out.shape(), 1.0, &mut rng);
        let d = &dout;
        let bwd_gemm = bench("conv2d bwd implicit GEMM", || {
            let g = conv2d_backward_s(black_box(i), black_box(w), black_box(d), 1, &mut s);
            recycle(black_box(g), &mut s);
        });
        let bwd_direct = bench("conv2d bwd direct (seed)", || {
            let g = conv2d_backward_direct(black_box(i), black_box(w), black_box(d), 1, &mut s);
            recycle(black_box(g), &mut s);
        });
        speedup("conv2d bwd", bwd_direct, bwd_gemm);
        // As a model's first layer runs it: into the layer's own dw/db, no
        // input gradient.
        let (mut dw, mut db) = (vec![0.0f32; weight.numel()], vec![0.0f32; 12]);
        bench("conv2d bwd implicit GEMM, no dinput", || {
            let (i, w, d) = (black_box(i), black_box(w), black_box(d));
            black_box(conv2d_backward_into(
                i, w, d, 1, false, &mut dw, &mut db, &mut s,
            ));
        });
    }

    // Cipher's three convolutions on the same warm arena, forward, then
    // backward as the model runs it: into the layer's own dw/db, and no input
    // gradient for the first layer, at batch 64 (a `sim_paper` LBS) and
    // batch 1 (`sim_scale`'s). Both run the implicit GEMM; at batch 1 the
    // scalar loops are timed beside it as seed rows (no path runs them).
    // (c, h, w, f), 3×3 filters, pad 1.
    let cipher = [(1, 12, 4), (4, 6, 8), (8, 3, 16)];
    for batch in [64, 1] {
        for (layer, (c, hw, f)) in cipher.into_iter().enumerate() {
            let input = Tensor::randn(Shape::d4(batch, c, hw, hw), 1.0, &mut rng);
            let weight = Tensor::randn(Shape::d4(f, c, 3, 3), 0.2, &mut rng);
            let bias = Tensor::randn(Shape::d1(f), 0.1, &mut rng);
            let dout = Tensor::randn(Shape::d4(batch, f, hw, hw), 1.0, &mut rng);
            let (i, w, b, d) = (&input, &weight, &bias, &dout);
            let name = format!(
                "Cipher conv{} ({batch},{c},{hw},{hw})x({f},{c},3,3)",
                layer + 1
            );
            let want_dx = layer > 0;
            let dx = if want_dx { "" } else { ", no dinput" };
            let (mut dw, mut db) = (vec![0.0f32; weight.numel()], vec![0.0f32; f]);
            let loops: &[(&str, bool)] = if batch == 1 {
                &[("", false), (" scalar loops", true)]
            } else {
                &[("", false)]
            };
            for &(how, scalar) in loops {
                let forward = if scalar { conv2d_direct } else { conv2d_s };
                let backward = if scalar {
                    conv2d_backward_direct_into
                } else {
                    conv2d_backward_into
                };
                bench(&format!("conv2d fwd {name}{how}"), || {
                    let y = forward(black_box(i), black_box(w), black_box(b), 1, &mut s);
                    s.put_tensor(black_box(y));
                });
                bench(&format!("conv2d bwd {name}{dx}{how}"), || {
                    let (i, w, d) = (black_box(i), black_box(w), black_box(d));
                    let dx = backward(i, w, d, 1, want_dx, &mut dw, &mut db, &mut s);
                    if let Some(dx) = black_box(dx) {
                        s.put_tensor(dx);
                    }
                });
            }
        }
    }

    // Cipher's two max-pools, forward and backward, at batch 64 and 1, on
    // the same warm arena (the backward writes every slot of its buffer).
    for batch in [64, 1] {
        for (c, hw) in [(4, 12), (8, 6)] {
            let input = Tensor::randn(Shape::d4(batch, c, hw, hw), 1.0, &mut rng);
            let len = batch * c * (hw / 2) * (hw / 2);
            let mut arg = vec![0u32; len];
            let name = format!("Cipher maxpool2 ({batch},{c},{hw},{hw})");
            bench(&format!("{name} fwd"), || {
                let mut out = s.take_uninit(len);
                maxpool2_into(black_box(&input), &mut out, &mut arg);
                s.put(black_box(out));
            });
            let dout = Tensor::randn(Shape::d4(batch, c, hw / 2, hw / 2), 1.0, &mut rng);
            bench(&format!("{name} bwd"), || {
                let mut din = s.take_uninit(input.numel());
                maxpool2_backward_into(black_box(&dout), &arg, input.shape(), &mut din);
                s.put(black_box(din));
            });
        }
    }

    // Remaining hot ops from the old criterion suite.
    {
        let pool_in = Tensor::randn(Shape::d4(32, 12, 12, 12), 1.0, &mut rng);
        let mut arg = vec![0u32; 32 * 12 * 6 * 6];
        bench("maxpool2 (32,12,12,12)", || {
            let mut out = s.take_uninit(arg.len());
            maxpool2_into(black_box(&pool_in), &mut out, &mut arg);
            s.put(black_box(out));
        });
        let logits = Tensor::randn(Shape::d2(192, 10), 1.0, &mut rng);
        let labels: Vec<usize> = (0..192).map(|i| i % 10).collect();
        bench("softmax_xent (192,10)", || {
            black_box(softmax_xent(black_box(&logits), black_box(&labels)));
        });
    }
}

fn maxn() {
    println!("== maxn ==");
    let mut rng = DetRng::seed_from_u64(7);
    let grads: Vec<Tensor> = vec![
        Tensor::randn(Shape::d1(200_000), 1.0, &mut rng),
        Tensor::randn(Shape::d1(50_000), 0.2, &mut rng),
        Tensor::randn(Shape::d2(300, 100), 2.0, &mut rng),
    ];
    bench("MaxNPlanner::new 280k entries", || {
        black_box(MaxNPlanner::new(black_box(&grads)));
    });
    let p = MaxNPlanner::new(&grads);
    // One query is one counting pass over the gradient (there is no
    // histogram to answer it from).
    bench("count_for_n 280k entries", || {
        black_box(p.count_for_n(black_box(10.0)));
    });
    bench("n_for_entry_budget", || {
        black_box(p.n_for_entry_budget(black_box(10_000), 0.85));
    });
    plan_and_invert("280k entries", &grads);
    bench("select 280k entries N=10", || {
        black_box(p.select(black_box(&grads), 10.0));
    });
    // `wire_exchange`'s set-up plans one tensor of this size.
    let big = vec![Tensor::randn(Shape::d1(1_300_000), 1.0, &mut rng)];
    plan_and_invert("1.3M entries", &big);

    // Cipher's ten variables / 6.5k entries, as `sim_paper` presents them:
    // one real gradient step, then what `complete_round` asks of Max N.
    let cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
    let mut init = build_cluster(&cfg, 6);
    let mut w = init.workers.swap_remove(0);
    w.sample_batch_reuse();
    w.compute_grads(&init.data, cfg.grad_clip);
    bench("MaxNPlanner::new Cipher 6.5k entries", || {
        black_box(MaxNPlanner::new(black_box(&w.grads)));
    });
    plan_and_invert("Cipher", &w.grads);
    let p = MaxNPlanner::new(&w.grads);
    bench("select Cipher N=10", || {
        black_box(p.select(black_box(&w.grads), 10.0));
    });
    // Three LAN peers and two WAN peers: two distinct link budgets.
    let ctx = StrategyCtx {
        worker: 0,
        n: 6,
        iteration: 0,
        now: 0.0,
        lbs: w.lbs,
        iter_time: 2.0,
        bw_mbps: vec![0.0, 50.0, 50.0, 50.0, 20.0, 20.0],
        neighbors: (1..6).collect(),
        bytes_per_param: init.bytes_per_param,
        total_params: init.total_params,
        lr: cfg.lr,
    };
    bench("DLion generate Cipher, 5 peers / 2 budgets", || {
        black_box(
            w.strategy
                .generate_partial_gradients(black_box(&ctx), &w.grads, &w.model),
        );
    });
}

/// A planner over `grads`, then the largest N for a budget of 10 % of the
/// entries, then also for 40 %: what one link, and two link classes, cost
/// the planner per iteration.
fn plan_and_invert(what: &str, grads: &[Tensor]) {
    let budget = |pct: usize| MaxNPlanner::new(grads).total_entries() * pct / 100;
    let (b10, b40) = (budget(10), budget(40));
    bench(&format!("new + 1 inversion {what}"), || {
        let p = MaxNPlanner::new(black_box(grads));
        black_box(p.n_for_entry_budget(black_box(b10), 0.85));
    });
    bench(&format!("new + 2 inversions {what}"), || {
        let p = MaxNPlanner::new(black_box(grads));
        black_box(p.n_for_entry_budget(black_box(b10), 0.85));
        black_box(p.n_for_entry_budget(black_box(b40), 0.85));
    });
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("kernels") => kernels(),
        Some("maxn") => maxn(),
        None => {
            kernels();
            maxn();
        }
        Some(other) => {
            eprintln!("unknown mode `{other}`; usage: dlion-bench [kernels|maxn]");
            std::process::exit(2);
        }
    }
}
