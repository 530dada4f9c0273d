//! `dlion-bench` — self-contained `std::time::Instant` benchmark harness.
//!
//! Replaces the former criterion benches so the workspace benchmarks with
//! zero external dependencies (this repo builds fully offline). Usage:
//!
//! ```text
//! dlion-bench [kernels|maxn|e2e|telemetry|all]
//! ```
//!
//! Each measurement prints a human-readable line plus a machine-harvestable
//! `json:{...}` line (collected into `results/BENCH_kernels.json`).
//!
//! The pre-optimization ("seed") matmul kernels these rows were once
//! measured against are retired; their before/after rows are committed
//! history in `results/BENCH_kernels.json`.

use dlion_core::messages::{GradData, GradMsg, Payload, WireCfg, WireFormat, FRAME_HEADER_BYTES};
use dlion_core::{
    build_cluster, run_env, ExchangeTransport, MaxNPlanner, RunConfig, StrategyCtx, SystemKind,
};
use dlion_microcloud::{ClusterKind, EnvId};
use dlion_net::loopback_mesh;
use dlion_tensor::ops::{
    conv2d_backward_direct, conv2d_backward_into, conv2d_backward_s, conv2d_direct, conv2d_s,
    matmul_into, matmul_nt_into, matmul_tn_into, maxpool2_into, softmax_xent, ConvGrads,
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
        // This shape is in the GEMM regime, so the dispatched entry points
        // are the implicit-GEMM backend.
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
        let dout = Tensor::randn(out.shape().clone(), 1.0, &mut rng);
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
    bench("count_for_n x100", || {
        for i in 1..=100 {
            black_box(p.count_for_n(i as f64));
        }
    });
    bench("n_for_entry_budget", || {
        black_box(p.n_for_entry_budget(black_box(10_000), 0.85));
    });
    bench("select 280k entries N=10", || {
        black_box(p.select(black_box(&grads), 10.0));
    });

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

fn e2e() {
    println!("== e2e ==");
    let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
    cfg.seed = 1;
    cfg.duration = 120.0;
    cfg.workload.train_size = 1200;
    cfg.workload.test_size = 400;
    cfg.eval_subset = 100;
    let t0 = Instant::now();
    let m = run_env(&cfg, EnvId::HomoA);
    let dt = t0.elapsed().as_secs_f64();
    let iters: u64 = m.iterations.iter().sum();
    println!("  run_env DLion/HomoA 120s sim: {dt:.2} s wall, {iters} iterations");
    println!(
        "json:{{\"bench\":\"e2e_dlion_homoa\",\"backend\":\"blocked\",\"wall_s\":{dt:.3},\"iterations\":{iters}}}"
    );
}

/// Telemetry overhead on the `e2e` workload: the disabled path (all
/// instrumentation compiled in but gated off — exactly how every figure
/// run executes) versus everything on at once (per-run registry, JSONL
/// tracing into a null sink, wall-clock profiler).
fn telemetry() {
    println!("== telemetry ==");
    let base_cfg = || {
        let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
        cfg.seed = 1;
        cfg.duration = 120.0;
        cfg.workload.train_size = 1200;
        cfg.workload.test_size = 400;
        cfg.eval_subset = 100;
        cfg
    };
    let run_once = |cfg: &RunConfig| {
        let t0 = Instant::now();
        let m = run_env(cfg, EnvId::HomoA);
        (t0.elapsed().as_secs_f64(), m.iterations.iter().sum::<u64>())
    };
    const REPS: usize = 5;
    let cfg = base_cfg();
    run_once(&cfg); // warmup
    let mut off = f64::INFINITY;
    let mut iters = 0u64;
    for _ in 0..REPS {
        let (dt, it) = run_once(&cfg);
        off = off.min(dt);
        iters = it;
    }
    let mut on_cfg = base_cfg();
    on_cfg.telemetry = true;
    dlion_telemetry::set_trace_writer(Box::new(std::io::sink()));
    dlion_telemetry::profiler::enable(true);
    let mut on = f64::INFINITY;
    for _ in 0..REPS {
        let (dt, _) = run_once(&on_cfg);
        on = on.min(dt);
    }
    dlion_telemetry::stop_trace();
    dlion_telemetry::profiler::enable(false);
    let pct = (on / off - 1.0) * 100.0;
    println!("  e2e telemetry off (disabled gates):  {off:.3} s wall, {iters} iterations");
    println!("  e2e telemetry on (registry+trace+profiler): {on:.3} s wall");
    println!("  enabled overhead: {pct:.1}%");
    println!(
        "json:{{\"bench\":\"telemetry_overhead\",\"off_wall_s\":{off:.3},\"on_wall_s\":{on:.3},\
         \"enabled_overhead_pct\":{pct:.2},\"iterations\":{iters}}}"
    );

    // Direct cost of one disabled instrumentation site: the `event!` macro
    // reduces to a relaxed atomic load + branch when no sink is installed.
    // Multiplied by the sites hit per run, this bounds the telemetry-off
    // overhead independently of run-to-run wall-clock noise.
    let gate_ns = bench("disabled event! gate", || {
        for i in 0..1024u64 {
            dlion_telemetry::event!(0.0, w: 0, "bench_gate"; "i" => black_box(i));
        }
    }) * 1e9
        / 1024.0;
    println!("json:{{\"bench\":\"disabled_gate\",\"ns_per_site\":{gate_ns:.3}}}");

    // Health-plane overhead on a live 3-worker cluster (in-memory
    // transport, so the measurement is the reporting machinery itself —
    // the per-round report event, the silence check, training-clock
    // bookkeeping — not socket noise). Off must be ~free (the plane is a
    // handful of `Option` checks when disabled), on must stay <1% e2e.
    let live_cfg = {
        let mut cfg = dlion_net::live_config(SystemKind::DLion, 1);
        cfg.duration = 10_000.0;
        cfg.eval_interval = 10_000.0;
        cfg.workload.train_size = 4800;
        cfg.max_iters = Some(120);
        cfg
    };
    let live_once = |health: Option<f64>| {
        let opts = dlion_net::LiveOpts {
            iters: 120,
            eval_every: 0,
            assumed_iter_time: Some(0.05),
            health_interval: health,
            ..Default::default()
        };
        let t0 = Instant::now();
        dlion_net::run_live(
            &live_cfg,
            3,
            &opts,
            dlion_net::TransportKind::Mem,
            "bench/health",
        )
        .expect("live run");
        t0.elapsed().as_secs_f64()
    };
    live_once(None); // warmup
    let (mut h_off, mut h_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        h_off = h_off.min(live_once(None));
        // 0.1s of training clock per report: 20 rounds over the 40-iter
        // run — a denser cadence than any real deployment would pick.
        h_on = h_on.min(live_once(Some(0.1)));
    }
    let h_pct = (h_on / h_off - 1.0) * 100.0;
    println!("  live 3w health off: {h_off:.3} s wall");
    println!("  live 3w health on (interval 0.1): {h_on:.3} s wall");
    println!("  health-plane overhead: {h_pct:.1}%");
    println!(
        "json:{{\"bench\":\"health_plane_overhead\",\"off_wall_s\":{h_off:.3},\
         \"on_wall_s\":{h_on:.3},\"enabled_overhead_pct\":{h_pct:.2}}}"
    );
}

/// Wire-codec and live-transport throughput: encode/decode a 5 MB dense
/// gradient (the paper's model scale), then push it across a real
/// loopback TCP link through the `dlion-net` transport stack (framing,
/// bounded send queue, reader reassembly, checksum verification).
fn net() {
    println!("== net ==");
    let mut rng = DetRng::seed_from_u64(5);
    let payload = Payload::Grad(GradMsg {
        iteration: 1,
        lbs: 32,
        data: GradData::Dense(vec![Tensor::randn(Shape::d1(1_310_720), 1.0, &mut rng)]),
        n_used: 100.0,
    });
    // One plain (unchunked) frame: the materialize-then-send baseline the
    // chunked rows below are compared against.
    let plain = WireCfg {
        chunk_bytes: usize::MAX,
        ..WireCfg::default()
    };
    let frame = payload.to_wire(&plain);
    let mb = frame.len() as f64 / 1e6;
    println!("  frame size: {:.2} MB ({} bytes)", mb, frame.len());

    let enc = bench("codec encode 5MB dense grad", || {
        black_box(black_box(&payload).to_wire(&plain));
    });
    println!("  encode throughput: {:.0} MB/s", mb / enc);
    let dec = bench("codec decode+verify 5MB dense grad", || {
        black_box(Payload::from_wire(black_box(&frame), &mut Vec::new()).expect("valid frame"));
    });
    println!("  decode throughput: {:.0} MB/s", mb / dec);
    println!(
        "json:{{\"bench\":\"codec_5mb_grad\",\"frame_bytes\":{},\"encode_mb_s\":{:.1},\
         \"decode_mb_s\":{:.1}}}",
        frame.len(),
        mb / enc,
        mb / dec
    );

    // Chunked streaming: encode into a sink chunk by chunk (the live
    // writer-thread path) and decode the reassembled stream back through
    // the pooled, allocation-free receiver path.
    let cfg = WireCfg::default();
    let mut scratch = Vec::new();
    let mut out: Vec<u8> = Vec::with_capacity(payload.wire_len(&cfg));
    let enc_c = bench("chunked encode 5MB dense grad", || {
        out.clear();
        black_box(
            payload
                .write_wire(&mut out, &cfg, &mut scratch)
                .expect("stream"),
        );
    });
    println!("  chunked encode throughput: {:.0} MB/s", mb / enc_c);
    let stream = payload.to_wire(&cfg);
    let mut dec_scratch = Vec::new();
    let mut pool: Vec<Vec<f32>> = Vec::new();
    let dec_c = bench("chunked decode+verify 5MB dense grad (pooled)", || {
        let (kind, body) = dlion_core::messages::decode_wire(black_box(&stream), &mut dec_scratch)
            .expect("valid stream");
        let p = Payload::decode_body_pooled(kind, body, &mut pool).expect("valid body");
        black_box(&p);
        p.recycle(&mut pool);
    });
    println!("  chunked decode throughput: {:.0} MB/s", mb / dec_c);
    println!(
        "json:{{\"bench\":\"chunked_5mb_grad\",\"stream_bytes\":{},\"encode_mb_s\":{:.1},\
         \"decode_mb_s\":{:.1}}}",
        stream.len(),
        mb / enc_c,
        mb / dec_c
    );

    // First-byte-on-wire latency: how long after `write_wire` starts does
    // the first body chunk reach the sink? One chunk's serialize time, vs
    // the full-frame serialize the plain codec needs before byte one.
    struct FirstChunk {
        start: Instant,
        bytes: usize,
        first_chunk_s: Option<f64>,
    }
    impl std::io::Write for FirstChunk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes += buf.len();
            if self.first_chunk_s.is_none() && self.bytes > FRAME_HEADER_BYTES {
                self.first_chunk_s = Some(self.start.elapsed().as_secs_f64());
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut first = f64::INFINITY;
    for _ in 0..32 {
        let mut sink = FirstChunk {
            start: Instant::now(),
            bytes: 0,
            first_chunk_s: None,
        };
        payload
            .write_wire(&mut sink, &cfg, &mut scratch)
            .expect("stream");
        first = first.min(sink.first_chunk_s.expect("one chunk written"));
    }
    println!(
        "  first byte on wire after: {:.3} ms (vs {:.3} ms full-serialize)",
        first * 1e3,
        enc * 1e3
    );
    println!(
        "json:{{\"bench\":\"first_byte_5mb_grad\",\"first_chunk_ms\":{:.3},\
         \"full_serialize_ms\":{:.3}}}",
        first * 1e3,
        enc * 1e3
    );

    // Quantized wire formats over the same 5 MB-equivalent payload.
    for (name, format) in [("fp16", WireFormat::Fp16), ("int8", WireFormat::Int8)] {
        let qcfg = WireCfg {
            format,
            ..WireCfg::default()
        };
        let q_enc = bench(&format!("codec encode 5MB grad as {name}"), || {
            out.clear();
            black_box(
                payload
                    .write_wire(&mut out, &qcfg, &mut scratch)
                    .expect("stream"),
            );
        });
        let qstream = payload.to_wire(&qcfg);
        let q_dec = bench(&format!("codec decode 5MB grad as {name}"), || {
            let (kind, body) =
                dlion_core::messages::decode_wire(black_box(&qstream), &mut dec_scratch)
                    .expect("valid stream");
            let p = Payload::decode_body_pooled(kind, body, &mut pool).expect("valid body");
            black_box(&p);
            p.recycle(&mut pool);
        });
        println!(
            "  {name}: {} wire bytes ({:.0}% of dense), encode {:.0} MB/s, decode {:.0} MB/s",
            qstream.len(),
            100.0 * qstream.len() as f64 / stream.len() as f64,
            mb / q_enc,
            mb / q_dec
        );
        println!(
            "json:{{\"bench\":\"quantized_5mb_grad_{name}\",\"stream_bytes\":{},\
             \"encode_mb_s\":{:.1},\"decode_mb_s\":{:.1}}}",
            qstream.len(),
            mb / q_enc,
            mb / q_dec
        );
    }

    // Round-trip the frame over a live loopback TCP link; both directions
    // are in flight, so one round trip moves 2 frames of payload.
    let tcp_opts = dlion_net::TcpOpts {
        queue_cap: 4,
        establish_timeout: std::time::Duration::from_secs(30),
        ..Default::default()
    };
    let mut mesh = loopback_mesh(2, 5, &tcp_opts, None).expect("mesh");
    let mut b = mesh.pop().expect("node 1");
    let mut a = mesh.pop().expect("node 0");
    let echo = std::thread::spawn(move || {
        while let Ok(Some((_, f))) = b.recv_frame_timeout(std::time::Duration::from_secs(5)) {
            if b.send_frame(0, f).is_err() {
                break;
            }
        }
    });
    let rtt = bench("loopback TCP 5MB grad round trip", || {
        a.send_frame(1, frame.clone()).expect("send");
        let (_, back) = a
            .recv_frame_timeout(std::time::Duration::from_secs(30))
            .expect("recv")
            .expect("echo before timeout");
        assert_eq!(back.len(), frame.len());
    });
    drop(a);
    echo.join().expect("echo thread");
    let tput = 2.0 * mb / rtt;
    println!("  transport throughput: {tput:.0} MB/s (both directions)");
    println!(
        "json:{{\"bench\":\"tcp_loopback_5mb_grad\",\"round_trip_ms\":{:.3},\
         \"throughput_mb_s\":{tput:.1}}}",
        rtt * 1e3
    );
}

/// Resident-set sizes from `/proc/self/status` in bytes: `(VmRSS, VmHWM)`.
/// Returns zeros on platforms without procfs — the sim bench then reports
/// throughput only.
fn rss_bytes() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Event-loop throughput and per-worker memory of the discrete-event
/// simulator at scale: a `kregular:8` Baseline cell (the thousand-worker
/// determinism soak's shape) at n=256 and n=1024. Reported rows feed
/// `results/BENCH_sim.json`; the before/after pairs there bracket the
/// scaling work (COW weight snapshots, flat link classes, per-round
/// topology memoization).
fn sim() {
    println!("== sim ==");
    for &(n, iters) in &[(256usize, 6u64), (1024, 6)] {
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        cfg.duration = 1e9;
        cfg.eval_interval = 1e9;
        cfg.max_iters = Some(iters);
        cfg.workload.train_size = 8 * n;
        cfg.workload.test_size = 64;
        cfg.eval_subset = 32;
        cfg.telemetry = true;
        cfg.topology = dlion_core::Topology::KRegular { k: 8 };
        let compute = dlion_simnet::ComputeModel::homogeneous(n, 1.0, 0.001, 0.05);
        let net = dlion_simnet::NetworkModel::uniform(n, 1000.0, 0.001);
        let (rss_before, _) = rss_bytes();
        dlion_telemetry::profiler::reset();
        dlion_telemetry::profiler::enable(true);
        let t0 = Instant::now();
        let m = dlion_core::run_with_models(&cfg, compute, net, "bench/sim");
        let wall = t0.elapsed().as_secs_f64();
        dlion_telemetry::profiler::enable(false);
        println!("{}", dlion_telemetry::profiler::render_table(wall));
        let (rss_after, hwm) = rss_bytes();
        let events = m.telemetry.counter("events");
        let events_per_sec = events as f64 / wall;
        let per_worker = rss_after.saturating_sub(rss_before) / n as u64;
        let total_iters: u64 = m.iterations.iter().sum();
        println!(
            "  sim n={n:<5} {iters} iters: {wall:.2} s wall, {events} events \
             ({events_per_sec:.0}/s), {total_iters} iterations, \
             {:.1} MB run RSS ({per_worker} B/worker), peak {:.1} MB",
            rss_after.saturating_sub(rss_before) as f64 / 1e6,
            hwm as f64 / 1e6
        );
        println!(
            "json:{{\"bench\":\"sim_kregular8_n{n}\",\"workers\":{n},\"iters\":{iters},\
             \"wall_s\":{wall:.3},\"events\":{events},\"events_per_sec\":{events_per_sec:.1},\
             \"run_rss_bytes_per_worker\":{per_worker},\"peak_rss_bytes\":{hwm}}}"
        );
    }
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match mode.as_str() {
        "kernels" => kernels(),
        "maxn" => maxn(),
        "e2e" => e2e(),
        "telemetry" => telemetry(),
        "net" => net(),
        "sim" => sim(),
        "all" => {
            kernels();
            maxn();
            e2e();
            telemetry();
            net();
            sim();
        }
        other => {
            eprintln!("unknown mode `{other}`; expected kernels|maxn|e2e|telemetry|net|sim|all");
            std::process::exit(2);
        }
    }
}
