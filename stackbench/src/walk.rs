//! The layer walk: one rank's iteration performed stage by stage from the
//! harness, with the workload's own shapes, timing each call into a layer's
//! public functions — `batch_scratch` → `forward_backward_scratch` →
//! `MaxNPlanner::new`/`select_for_budget` → strategy generate →
//! `write_wire` → `decode_wire` → `apply_*_update` → `evaluate` — plus the
//! simulator's `EventQueue`, `NetworkModel::transfer` and
//! `TopologySchedule::neighbors`, the codec at every frame kind, and the
//! telemetry gates.
//!
//! Layer time × a run's exact counts, summed, is what a traced run holds
//! against its measured wall; the remainder is the `*.residual_share` of
//! `core::runner` / `net::driver`.

use crate::metrics::Ledger;
use crate::stats::{median, tail};
use crate::trace::SpanLog;
use crate::wire::{frame_kinds, FrameKind};
use dlion_core::messages::{decode_wire, GradData, Payload, WireCfg, FRAME_HEADER_BYTES};
use dlion_core::weighted::update_factor;
use dlion_core::{build_cluster, MaxNPlanner, RunConfig, StrategyCtx, Topology};
use dlion_microcloud::EnvId;
use dlion_simnet::{EventQueue, NetworkModel};
use dlion_tensor::ops::{conv2d_backward_s, conv2d_s, matmul_into};
use dlion_tensor::{DetRng, Scratch, Shape, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// The shapes a workload presents to each layer.
pub struct Shapes {
    /// The workload's run configuration (system, Max N floor, eval subset).
    pub cfg: RunConfig,
    /// Neighbors a rank exchanges with per round.
    pub degree: usize,
    /// The local batch size the walk trains at.
    pub lbs: usize,
    /// Link bandwidth and iteration time the Max N budget is sized from.
    pub bw_mbps: f64,
    pub iter_time: f64,
    /// The topology plane's shape: spec and cluster size.
    pub topology: Topology,
    pub n: usize,
    /// Event-queue depth the simulator ops are timed at.
    pub queue_depth: usize,
    /// Frame kinds for the codec rows; `None` = derive them from the
    /// walked model's own gradients and weights.
    pub frames: Option<Vec<FrameKind>>,
    pub seed: u64,
}

/// Seconds per call of each walked stage — the multipliers for a run's
/// counts.
#[derive(Default, Debug)]
pub struct WalkTimes {
    pub batch: f64,
    pub fwd_bwd: f64,
    pub apply_own: f64,
    pub generate: f64,
    pub decode: f64,
    pub apply_peer: f64,
    pub eval: f64,
    pub merge: f64,
    pub queue_op: f64,
    pub transfer: f64,
    pub neighbors: f64,
}

/// Seconds per call of `f`, from one batch of calls lasting at least
/// `min_s` (after a warm-up call that fills scratch buffers and faults
/// pages in).
fn per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut reps: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_s || reps >= 1 << 24 {
            return dt / reps as f64;
        }
        reps = reps.saturating_mul(if dt < min_s / 10.0 { 8 } else { 2 });
    }
}

const MICRO_S: f64 = 0.03;

/// A sink that notes when the first body byte arrives.
struct FirstChunk {
    start: Instant,
    bytes: usize,
    first_s: Option<f64>,
}

impl std::io::Write for FirstChunk {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len();
        if self.first_s.is_none() && self.bytes > FRAME_HEADER_BYTES {
            self.first_s = Some(self.start.elapsed().as_secs_f64());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn med_us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

/// Walk every layer at `shapes`, write the layer rows into `ledger`, record
/// the iteration spans into `log`, and return the per-call times. Spends
/// about `budget_s` of host time.
pub fn walk(shapes: Shapes, ledger: &mut Ledger, log: &mut SpanLog, budget_s: f64) -> WalkTimes {
    let mut times = WalkTimes::default();
    let cfg = &shapes.cfg;

    // microcloud: materialize a Table 3 environment and its two models.
    let env_s = per_call(MICRO_S, || {
        let spec = EnvId::DynamicSysA.spec();
        black_box((spec.compute_model(), spec.network_model()));
    });
    ledger.set("microcloud.env_build_ms", env_s * 1e3);

    // --- one rank, stage by stage -------------------------------------
    let ranks = shapes.degree + 1;
    let mut init = build_cluster(cfg, ranks);
    let mut w = init.workers.swap_remove(0);
    w.lbs = shapes.lbs;
    let ctx_for = |iteration: u64| StrategyCtx {
        worker: 0,
        n: ranks,
        iteration,
        now: 0.0,
        lbs: shapes.lbs,
        iter_time: shapes.iter_time,
        bw_mbps: vec![shapes.bw_mbps; ranks],
        neighbors: (1..ranks).collect(),
        bytes_per_param: init.bytes_per_param,
        total_params: init.total_params,
        lr: cfg.lr,
    };
    let weighted = cfg.system.weighted_update();
    let gbs = shapes.lbs * ranks;
    let factor = update_factor(cfg.lr, ranks, shapes.lbs, gbs, weighted);
    let wire_cfg = WireCfg {
        format: cfg.wire,
        ..WireCfg::default()
    };
    let (mut enc_buf, mut enc_scratch) = (Vec::new(), Vec::new());
    let (mut dec_scratch, mut pool) = (Vec::new(), Vec::new());
    let mut frame_bytes = Vec::new();
    let mut selected = Vec::new();
    let mut decode_failures = 0u64;

    let started = Instant::now();
    let mut it = 0u64;
    while it < 21 || (it < 400 && started.elapsed().as_secs_f64() < 0.4 * budget_s) {
        let iter_span = log.begin("iteration", it);
        let ((x, y), _) = log.time("batch", it, || {
            w.sample_batch_reuse();
            init.data.batch_scratch(&w.batch_buf, &mut w.scratch)
        });
        log.time("fwd_bwd", it, || {
            w.model
                .forward_backward_scratch(x, &y, &mut w.scratch, &mut w.grads);
            for g in w.grads.iter_mut() {
                g.clip_inplace(cfg.grad_clip);
            }
        });
        log.time("apply_own", it, || {
            w.model.apply_dense_update(&w.grads, factor)
        });
        let ctx = ctx_for(it);
        let (planner, _) = log.time("maxn_plan", it, || MaxNPlanner::new(&w.grads));
        let ((n_used, sel), _) = log.time("maxn_select", it, || {
            planner.select_for_budget(
                &w.grads,
                ctx.link_budget_bytes(1),
                ctx.bytes_per_entry(),
                cfg.min_n,
            )
        });
        selected.push(if n_used >= 100.0 {
            planner.total_entries() as f64
        } else {
            sel.iter().map(|s| s.nnz()).sum::<usize>() as f64
        });
        let (mut updates, _) = log.time("generate", it, || {
            w.strategy
                .generate_partial_gradients(&ctx, &w.grads, &w.model)
        });
        let payload = Payload::Grad(updates.swap_remove(0).msg);
        log.time("encode", it, || {
            enc_buf.clear();
            payload
                .write_wire(&mut enc_buf, &wire_cfg, &mut enc_scratch)
                .expect("Vec sink cannot fail")
        });
        frame_bytes.push(enc_buf.len() as f64);
        let (decoded, _) = log.time("decode", it, || {
            decode_wire(&enc_buf, &mut dec_scratch)
                .and_then(|(kind, body)| Payload::decode_body_pooled(kind, body, &mut pool))
        });
        match decoded {
            Ok(Payload::Grad(msg)) => {
                log.time("apply_peer", it, || match &msg.data {
                    GradData::Dense(vars) => w.model.apply_dense_update(vars, factor),
                    GradData::Sparse(vars) => {
                        for (v, s) in vars.iter().enumerate() {
                            w.model.apply_sparse_update(v, s, factor);
                        }
                    }
                });
                Payload::Grad(msg).recycle(&mut pool);
            }
            _ => decode_failures += 1,
        }
        if it.is_multiple_of(8) {
            log.time("eval", it, || {
                black_box(w.model.evaluate(&init.data, &init.eval_indices, 125))
            });
            let best = w.model.weights();
            log.time("dkt_merge", it, || {
                w.model.merge_weights(&best, cfg.dkt.lambda)
            });
        }
        log.end(iter_span);
        it += 1;
    }

    let stage = |name: &str| log.durations(name);
    let fwd_bwd = stage("fwd_bwd");
    times.batch = median(&stage("batch")) / 1e9;
    times.fwd_bwd = median(&fwd_bwd) / 1e9;
    times.apply_own = median(&stage("apply_own")) / 1e9;
    times.generate = median(&stage("generate")) / 1e9;
    times.decode = median(&stage("decode")) / 1e9;
    times.apply_peer = median(&stage("apply_peer")) / 1e9;
    times.eval = median(&stage("eval")) / 1e9;
    times.merge = median(&stage("dkt_merge")) / 1e9;
    ledger.set("nn.batch_us", med_us(&stage("batch")));
    ledger.set("nn.fwd_bwd_us_p50", med_us(&fwd_bwd));
    ledger.set("nn.fwd_bwd_us_p99", tail(&fwd_bwd).value / 1e3);
    ledger.set("nn.apply_dense_us", med_us(&stage("apply_own")));
    ledger.set("nn.eval_us", med_us(&stage("eval")));
    ledger.set("maxn.plan_us", med_us(&stage("maxn_plan")));
    ledger.set("maxn.select_us", med_us(&stage("maxn_select")));
    ledger.set("maxn.entries_selected", median(&selected));
    ledger.set(
        "maxn.selected_share",
        median(&selected) / init.total_params as f64,
    );
    ledger.set("strategy.generate_us", med_us(&stage("generate")));
    ledger.set("dkt.merge_us", med_us(&stage("dkt_merge")));
    ledger.set("messages.bytes_per_frame", median(&frame_bytes));
    ledger.set("messages.decode_failures", decode_failures as f64);

    // nn: a sparse peer gradient applied to every variable (what a Max N
    // frame costs the receiver), whatever kind the strategy generated.
    let planner = MaxNPlanner::new(&w.grads);
    let sparse = planner.select(&w.grads, 10.0);
    let sparse_s = per_call(MICRO_S, || {
        for (v, s) in sparse.iter().enumerate() {
            w.model.apply_sparse_update(v, s, black_box(factor));
        }
    });
    ledger.set("nn.apply_sparse_us", sparse_s * 1e6);

    // --- tensor kernels at Cipher's layer shapes, this batch size ------
    let b = shapes.lbs;
    let mut rng = DetRng::seed_from_u64(shapes.seed);
    let mut s = Scratch::new();
    {
        // Second conv layer: (B,4,6,6) ⊛ (8,4,3,3), pad 1.
        let input = Tensor::randn(Shape::d4(b, 4, 6, 6), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(8, 4, 3, 3), 0.2, &mut rng);
        let bias = Tensor::zeros(Shape::d1(8));
        let dout = Tensor::randn(Shape::d4(b, 8, 6, 6), 1.0, &mut rng);
        let fwd = per_call(MICRO_S, || {
            let out = conv2d_s(black_box(&input), black_box(&weight), &bias, 1, &mut s);
            s.put_tensor(out);
        });
        let bwd = per_call(MICRO_S, || {
            let g = conv2d_backward_s(black_box(&input), black_box(&weight), &dout, 1, &mut s);
            s.put_tensor(g.dinput);
            s.put_tensor(g.dweight);
            s.put_tensor(g.dbias);
        });
        ledger.set("tensor.conv2d_fwd_us", fwd * 1e6);
        ledger.set("tensor.conv2d_bwd_us", bwd * 1e6);
        // First fully-connected layer: (B,144) · (144,32).
        let a = Tensor::randn(Shape::d2(b, 144), 1.0, &mut rng);
        let m = Tensor::randn(Shape::d2(144, 32), 1.0, &mut rng);
        let mut out = vec![0.0f32; b * 32];
        let mm = per_call(MICRO_S, || {
            matmul_into(black_box(&a), black_box(&m), black_box(&mut out))
        });
        ledger.set("tensor.matmul_us", mm * 1e6);
    }

    // --- core::messages: every frame kind at this workload's size ------
    let frames_given = shapes.frames.is_some();
    let frames = shapes.frames.unwrap_or_else(|| {
        frame_kinds(
            w.grads.clone(),
            (10.0, sparse.clone()),
            w.model.weights(),
            1.0,
        )
    });
    if frames_given {
        // The workload's frames are these, not the walked strategy's.
        let mean = frames
            .iter()
            .map(|k| k.payload.wire_len(&k.cfg) as f64)
            .sum::<f64>()
            / frames.len() as f64;
        ledger.set("messages.bytes_per_frame", mean);
    }
    const ENC: [&str; 4] = [
        "messages.encode_mb_s.dense",
        "messages.encode_mb_s.fp16",
        "messages.encode_mb_s.sparse",
        "messages.encode_mb_s.weights",
    ];
    const DEC: [&str; 4] = [
        "messages.decode_mb_s.dense",
        "messages.decode_mb_s.fp16",
        "messages.decode_mb_s.sparse",
        "messages.decode_mb_s.weights",
    ];
    for (i, k) in frames.iter().enumerate() {
        let mb = k.payload.wire_len(&k.cfg) as f64 / 1e6;
        let enc = per_call(MICRO_S, || {
            enc_buf.clear();
            black_box(
                k.payload
                    .write_wire(&mut enc_buf, &k.cfg, &mut enc_scratch)
                    .expect("Vec sink cannot fail"),
            );
        });
        let mut ok = true;
        let dec = per_call(MICRO_S, || {
            match decode_wire(black_box(&enc_buf), &mut dec_scratch)
                .and_then(|(kind, body)| Payload::decode_body_pooled(kind, body, &mut pool))
            {
                Ok(p) => {
                    black_box(&p);
                    p.recycle(&mut pool);
                }
                Err(_) => ok = false,
            }
        });
        if !ok {
            ledger.set(
                "messages.decode_failures",
                ledger.get("messages.decode_failures").unwrap_or(0.0) + 1.0,
            );
        }
        ledger.set(ENC[i], mb / enc);
        ledger.set(DEC[i], mb / dec);
    }
    // First byte on the wire: how long after `write_wire` starts the first
    // body chunk reaches the sink, for the dense kind.
    let mut first = Vec::new();
    for _ in 0..21 {
        let mut sink = FirstChunk {
            start: Instant::now(),
            bytes: 0,
            first_s: None,
        };
        frames[0]
            .payload
            .write_wire(&mut sink, &frames[0].cfg, &mut enc_scratch)
            .expect("sink cannot fail");
        first.push(sink.first_s.unwrap_or(0.0));
    }
    ledger.set("messages.first_chunk_us", median(&first) * 1e6);

    // --- simnet: queue ops at the workload's depth, and link transfers --
    {
        let depth = shapes.queue_depth.max(1);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0.0f64;
        let mut jitter = DetRng::seed_from_u64(shapes.seed ^ 0x51);
        for i in 0..depth {
            q.schedule(jitter.uniform(), i as u64);
        }
        times.queue_op = per_call(MICRO_S, || {
            let (now, ev) = q.pop().expect("queue holds `depth` events");
            t = now;
            q.schedule(t + jitter.uniform(), black_box(ev));
        });
        ledger.set("simnet.queue_op_ns", times.queue_op * 1e9);
        let n = shapes.n.max(2);
        let mut net = NetworkModel::uniform(n, shapes.bw_mbps, 0.001);
        let bytes = median(&frame_bytes);
        let (mut src, mut now) = (0usize, 0.0f64);
        times.transfer = per_call(MICRO_S, || {
            src = (src + 1) % n;
            now += 1e-3;
            black_box(net.transfer(src, (src + 1) % n, bytes, now));
        });
        ledger.set("simnet.transfer_ns", times.transfer * 1e9);
    }

    // --- topo: per-round neighbor sets over rotating rounds -------------
    {
        let schedule = shapes
            .topology
            .build(shapes.n, shapes.seed)
            .expect("the workload's own topology is valid");
        let (mut wkr, mut round) = (0usize, 0u64);
        times.neighbors = per_call(MICRO_S, || {
            wkr = (wkr + 1) % shapes.n;
            if wkr == 0 {
                round += 1;
            }
            black_box(schedule.neighbors(wkr, round));
        });
        ledger.set("topo.neighbors_ns", times.neighbors * 1e9);
        ledger.set("topo.links_per_round", schedule.link_count(1) as f64);
    }

    // --- telemetry: one disabled site, and one enabled event -----------
    {
        let gate = per_call(MICRO_S, || {
            for i in 0..256u64 {
                dlion_telemetry::event!(0.0, w: 0, "bench_gate"; "i" => black_box(i));
            }
        }) / 256.0;
        ledger.set("telemetry.disabled_gate_ns", gate * 1e9);
        dlion_telemetry::set_trace_writer(Box::new(std::io::sink()));
        let on = per_call(MICRO_S, || {
            for i in 0..256u64 {
                dlion_telemetry::event!(0.0, w: 0, "bench_event"; "i" => black_box(i));
            }
        }) / 256.0;
        dlion_telemetry::stop_trace();
        ledger.set("telemetry.event_ns", on * 1e9);
    }
    times
}
