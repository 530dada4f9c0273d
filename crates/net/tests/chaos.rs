//! Churn on the live backend: a worker killed mid-run must not hang the
//! survivors or perturb their determinism, and a rank that left cannot
//! talk its way back in. (A rejoining kill is a pause; its sim ≡ Mem ≡
//! TCP twin is in `scenario_parity.rs`.)
//!
//! Why the survivor weights stay deterministic: every worker seeds the
//! same departure ledger from the shared `FaultPlan` before the run
//! starts, so all survivors renormalize the weighted average at the same
//! round regardless of when the Leave frame (or the socket EOF) actually
//! lands. The Leave only drives *gating* (stop waiting for the dead
//! peer), never the arithmetic.

use dlion_core::messages::{GradData, GradMsg, Payload, WireCfg};
use dlion_core::{
    mem_mesh, run_with_models, ExchangeTransport, FaultPlan, ManualClock, MemTransport, RunConfig,
    RunMetrics, SyncPolicy, SystemKind, TransportError,
};
use dlion_net::{
    live_config, loopback_mesh, run_live, Control, LiveCluster, LiveError, LiveOpts, RankHello,
    TransportKind,
};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BW_MBPS: f64 = 1000.0;
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn chaos_cfg(system: SystemKind, iters: u64, kill: &str) -> RunConfig {
    let mut cfg = live_config(system, 1);
    cfg.fault = FaultPlan::parse(kill).expect("valid fault plan");
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(iters);
    cfg.capture_weights = true;
    cfg
}

fn chaos_opts(iters: u64) -> LiveOpts {
    LiveOpts {
        iters,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(ITER_TIME),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    }
}

fn weight_bits(weights: &[Vec<Tensor>]) -> Vec<Vec<Vec<u32>>> {
    weights
        .iter()
        .map(|ws| {
            ws.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

/// A 3-worker BSP cluster loses worker 1 after it completes iteration 3;
/// the survivors must renormalize, finish all their iterations, and get
/// through the Done barrier without waiting on the dead peer.
fn departed_peer_run(kind: TransportKind) {
    const ITERS: u64 = 8;
    let mut cfg = chaos_cfg(SystemKind::Baseline, ITERS, "1@3");
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let m = run_live(&cfg, 3, &chaos_opts(ITERS), kind, "live/chaos").expect("live run");
    // Survivors ran to completion; the victim stopped where the plan says.
    assert_eq!(m.iterations, vec![ITERS, 3, ITERS]);
    // Convergence metrics cover exactly the two survivors.
    let acc = m.worker_acc.last().expect("final eval");
    assert_eq!(acc.len(), 2);
    assert!(acc.iter().all(|&a| a > 0.0), "no accuracy: {acc:?}");
}

#[test]
fn done_barrier_completes_with_departed_peer_mem() {
    departed_peer_run(TransportKind::Mem);
}

#[test]
fn done_barrier_completes_with_departed_peer_tcp() {
    departed_peer_run(TransportKind::Tcp);
}

#[test]
fn identical_kill_plans_reproduce_survivor_weights() {
    const ITERS: u64 = 8;
    let mut cfg = chaos_cfg(SystemKind::Baseline, ITERS, "1@3");
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let opts = chaos_opts(ITERS);
    let runs = [
        run_live(&cfg, 3, &opts, TransportKind::Mem, "live/chaos").expect("mem run 1"),
        run_live(&cfg, 3, &opts, TransportKind::Mem, "live/chaos").expect("mem run 2"),
        run_live(&cfg, 3, &opts, TransportKind::Tcp, "live/chaos").expect("tcp run"),
    ];
    // Survivor weights are bit-identical across runs AND transports; the
    // departed worker captures none (its slot is empty).
    let bits: Vec<_> = runs.iter().map(|m| weight_bits(&m.final_weights)).collect();
    assert!(!bits[0][0].is_empty() && !bits[0][2].is_empty());
    assert!(bits[0][1].is_empty(), "departed worker captured weights");
    for (i, b) in bits.iter().enumerate().skip(1) {
        assert_eq!(
            (&bits[0][0], &bits[0][2]),
            (&b[0], &b[2]),
            "survivor weights diverged between run 0 and run {i}"
        );
    }
}

#[test]
fn kill_with_chunked_frames_leaves_survivors_consistent() {
    // A tiny chunk size makes every gradient a multi-chunk stream, so the
    // victim's death lands mid-transfer with high probability. Survivors
    // must apply no partial frame: their weights stay bit-identical to
    // the unchunked chaos run on both transports.
    const ITERS: u64 = 8;
    let mut cfg = chaos_cfg(SystemKind::Baseline, ITERS, "1@3");
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let plain = run_live(
        &cfg,
        3,
        &chaos_opts(ITERS),
        TransportKind::Mem,
        "live/chaos",
    )
    .expect("plain run");
    let plain_bits = weight_bits(&plain.final_weights);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let opts = LiveOpts {
            chunk_bytes: 2048,
            ..chaos_opts(ITERS)
        };
        let m = run_live(&cfg, 3, &opts, kind, "live/chaos-chunk").expect("chunked run");
        assert_eq!(m.iterations, vec![ITERS, 3, ITERS]);
        let bits = weight_bits(&m.final_weights);
        assert_eq!(
            (&plain_bits[0], &plain_bits[2]),
            (&bits[0], &bits[2]),
            "survivor weights diverged under chunked frames ({kind:?})"
        );
    }
}

const GBS_CHAOS_ITERS: u64 = 30;

/// The DLion GBS-growth chaos cell: worker 1 is killed after iteration 17,
/// mid-way through the §3.2 speed-up phase (rounds trigger at iterations
/// 5, 10, 15, 20, 25, 30 under a 0.05s iteration).
fn gbs_chaos_cfg() -> RunConfig {
    let mut cfg = chaos_cfg(SystemKind::DLion, GBS_CHAOS_ITERS, "1@17");
    cfg.workload.train_size = 12_000; // warm-up cap 120, speed-up cap 1200
    cfg.gbs.adjust_period_secs = 0.25;
    cfg.profile_interval = 1e9;
    cfg.profile_noise = 0.0;
    cfg
}

/// One live run of [`gbs_chaos_cfg`] with the iteration pinned to 0.05s.
fn gbs_chaos_run(kind: TransportKind) -> RunMetrics {
    const ITERS: u64 = GBS_CHAOS_ITERS;
    let cfg = gbs_chaos_cfg();
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    };
    let m = run_live(&cfg, 3, &opts, kind, "live/gbs-chaos").expect("live run");
    assert_eq!(m.iterations, vec![ITERS, 17, ITERS]);
    m
}

#[test]
fn gbs_growth_survives_a_mid_speedup_kill() {
    let m = gbs_chaos_run(TransportKind::Mem);
    // The kill does not derail the growth schedule: rounds keep firing on
    // their nominal boundaries and the trajectory is the full §3.2 curve.
    assert_eq!(
        m.gbs_trace,
        vec![
            (0.25, 160),
            (0.5, 240),
            (0.75, 360),
            (1.0, 540),
            (1.25, 810),
            (1.5, 1200)
        ]
    );
    // Repartitions: startup + one per GBS change. Until the kill (rounds
    // triggered at iterations < 17) the victim holds a share; from round 4
    // on (trigger 20 >= 17, per the fault-plan ledger) the survivors split
    // the *full* GBS between themselves and the victim's share is zero.
    let times: Vec<f64> = m.lbs_trace.iter().map(|&(t, _)| t).collect();
    assert_eq!(times, vec![0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]);
    for (t, parts) in &m.lbs_trace {
        let gbs = m
            .gbs_trace
            .iter()
            .rev()
            .find(|&&(tt, _)| tt <= *t)
            .map_or(96, |&(_, g)| g);
        assert_eq!(
            parts.iter().sum::<usize>(),
            gbs,
            "row must cover the full GBS at t={t}"
        );
        if *t < 1.0 {
            assert!(parts[1] >= 1, "victim starved before its kill at t={t}");
        } else {
            assert_eq!(parts[1], 0, "dead worker still holds a share at t={t}");
            assert!(parts[0] >= 1 && parts[2] >= 1, "survivor starved at t={t}");
        }
    }
}

/// The simulator twin of the test above, through the same batching core:
/// the same cell over a compute model whose iteration takes (almost
/// exactly) the pinned 0.05s whatever the LBS. Before the control plane
/// was shared the simulator split every GBS over all `n` workers, so the
/// dead worker kept a share and the survivors trained on less than the GBS.
#[test]
fn sim_survivors_split_the_full_gbs_after_a_kill_exactly_like_live_ones() {
    let sim = run_with_models(
        &gbs_chaos_cfg(),
        ComputeModel::homogeneous(3, 1.0, 1e-5, 0.05),
        NetworkModel::uniform(3, 100_000.0, 1e-4),
        "sim/gbs-chaos",
    );
    assert_eq!(sim.iterations, vec![GBS_CHAOS_ITERS, 17, GBS_CHAOS_ITERS]);
    let live = gbs_chaos_run(TransportKind::Mem);
    assert_eq!(sim.gbs_trace, live.gbs_trace);
    let sums: Vec<usize> = sim.lbs_trace.iter().map(|(_, p)| p.iter().sum()).collect();
    let in_force = [96, 160, 240, 360, 540, 810, 1200];
    assert_eq!(sums, in_force, "every row covers the GBS in force");
    for (t, parts) in &sim.lbs_trace {
        // The victim computes rounds 0..17, i.e. until t ≈ 0.85.
        assert_eq!(parts[1] == 0, *t >= 1.0, "victim's share at t={t}");
    }
    // Same rows at the same nominal times with the same workers at zero.
    let zeros = |m: &RunMetrics| -> Vec<(f64, Vec<bool>)> {
        let zero = |parts: &Vec<usize>| parts.iter().map(|&p| p == 0).collect();
        m.lbs_trace.iter().map(|(t, p)| (*t, zero(p))).collect()
    };
    assert_eq!(zeros(&sim), zeros(&live));
}

/// A rank that dies during start-up profiling — its endpoint closes before
/// it ever sends an RCP — is lost like in any later round: the survivors
/// see the EOF, stop expecting it, and split the whole GBS between
/// themselves. (Start-up used to give it the mean RCP and a share nobody
/// trained on.)
#[test]
fn a_rank_lost_during_startup_profiling_gets_no_share() {
    const ITERS: u64 = 4;
    let mut cfg = live_config(SystemKind::DLion, 1);
    cfg.max_iters = Some(ITERS);
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let cluster = LiveCluster::new(&cfg, 3, 1, &opts, "live/startup-loss").expect("cluster");
    let links = cluster.host_links();
    let mut mesh = loopback_mesh(3, cfg.seed, &cluster.tcp_opts(), Some(&links)).expect("mesh");
    drop(mesh.pop()); // rank 2 is gone before it profiled anything
    for outcome in cluster.run_ranks(mesh) {
        let o = outcome.expect("survivor run");
        assert_eq!(o.iterations, ITERS);
        let (t, parts) = &o.lbs_trace[0];
        assert_eq!((*t, parts[2]), (0.0, 0), "the lost rank holds a share");
        assert!(
            parts[0] >= 1 && parts[1] >= 1,
            "survivor starved: {parts:?}"
        );
        assert_eq!(parts.iter().sum::<usize>(), 96, "survivors cover the GBS");
    }
}

/// An RCP from the wire is checked where it is decoded: a peer answering
/// the start-up round with a value `partition_gbs` cannot divide by fails
/// the receiving rank with a protocol error naming the peer. (The value
/// used to reach `partition_gbs`'s assertion and panic the rank thread.)
#[test]
fn an_unusable_rcp_from_a_peer_is_a_protocol_error_not_a_panic() {
    let mut cfg = live_config(SystemKind::DLion, 1);
    cfg.max_iters = Some(4);
    let opts = LiveOpts {
        iters: 4,
        eval_every: 0,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    for rcp in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let cluster = LiveCluster::new(&cfg, 2, 1, &opts, "live/bad-rcp").expect("cluster");
        let mut mesh = mem_mesh(2);
        let mut rank1 = mesh.pop().expect("endpoint 1");
        let rank0 = mesh.pop().expect("endpoint 0");
        let outcome = std::thread::scope(|s| {
            let run = s.spawn(|| cluster.run_ranks(vec![rank0]).remove(0));
            // Play rank 1: wait for rank 0 to open round 0, then answer it.
            let (from, frame) = rank1
                .recv_frame_timeout(Duration::from_secs(120))
                .expect("recv")
                .expect("rank 0's RCP");
            let opened = Control::from_frame(&frame, 2).expect("a control frame");
            assert!(
                matches!(opened, Control::Rcp { round: 0, .. }),
                "{opened:?}"
            );
            let answer = Control::Rcp { round: 0, rcp };
            rank1.send_frame(from, answer.to_frame()).expect("send");
            run.join().expect("run_ranks")
        });
        match outcome {
            Err(LiveError::Protocol(why)) => {
                assert!(why.contains("worker 1") && why.contains("rcp"), "{why}")
            }
            other => panic!("rcp {rcp}: expected a protocol error, got {other:?}"),
        }
    }
}

/// Rank 0's endpoint, whose sends to rank 1 fail once `cut` is set: rank
/// 1's process has exited under it.
struct CutOffFromOne {
    inner: MemTransport,
    cut: Arc<AtomicBool>,
}

impl ExchangeTransport for CutOffFromOne {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        if to == 1 && self.cut.load(Ordering::SeqCst) {
            return Err(TransportError::PeerGone(1));
        }
        self.inner.send_frame(to, frame)
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        self.inner.try_recv_frame()
    }

    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        self.inner.recv_frame_timeout(timeout)
    }
}

/// A rank whose last frames — a gradient, its RCP for the round in
/// progress, its Leave — are queued when it exits still has that RCP
/// counted: the ack for the gradient fails, but an ack is advisory, so it
/// demotes nobody, and the RCP behind the gradient decides the round. (A
/// failed ack used to demote the rank on the spot and rank 0 alone gave it
/// share 0 — the flake of the determinism test below.)
#[test]
fn a_failed_ack_does_not_preempt_a_departing_ranks_queued_rcp() {
    let mut cfg = gbs_chaos_cfg();
    // Rank 0 never waits for gradients the test does not send.
    cfg.sync_override = Some(SyncPolicy::Asynchronous);
    let opts = LiveOpts {
        iters: 6,
        eval_every: 0,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    };
    let weights = dlion_core::build_cluster(&cfg, 2).workers[1]
        .model
        .weights();
    let zeros = weights.iter().map(|w| Tensor::zeros(w.shape().clone()));
    let grad = Payload::Grad(GradMsg {
        iteration: 4,
        lbs: cfg.initial_lbs,
        data: GradData::Dense(zeros.collect()),
        n_used: 100.0,
    });
    let cluster = LiveCluster::new(&cfg, 2, 1, &opts, "live/failed-ack").expect("cluster");
    let mut mesh = mem_mesh(2);
    let mut rank1 = mesh.pop().expect("endpoint 1");
    let cut = Arc::new(AtomicBool::new(false));
    let rank0 = CutOffFromOne {
        inner: mesh.pop().expect("endpoint 0"),
        cut: Arc::clone(&cut),
    };
    let outcome = std::thread::scope(|s| {
        let run = s.spawn(|| cluster.run_ranks(vec![rank0]).remove(0));
        // Play rank 1: answer round 0; when round 1 opens (rank 0 is now
        // in its collect), queue the last frames and exit.
        loop {
            let (_, frame) = rank1
                .recv_frame_timeout(Duration::from_secs(120))
                .expect("recv")
                .expect("a frame from rank 0");
            match Control::from_frame(&frame, 2) {
                Ok(Control::Rcp { round: 0, rcp }) => {
                    let answer = Control::Rcp { round: 0, rcp }.to_frame();
                    rank1.send_frame(0, answer).expect("send");
                }
                Ok(Control::Rcp { round: 1, rcp }) => {
                    cut.store(true, Ordering::SeqCst);
                    let wire = WireCfg::default();
                    let last = [
                        grad.to_wire(&wire),
                        Control::Rcp { round: 1, rcp }.to_frame(),
                        Payload::Leave { completed: 17 }.to_wire(&wire),
                    ];
                    for frame in last {
                        rank1.send_frame(0, frame).expect("send");
                    }
                    break;
                }
                _ => {} // rank 0's gradients
            }
        }
        run.join().expect("run_ranks")
    });
    let o = outcome.expect("rank 0's run");
    let (_, parts) = o
        .lbs_trace
        .iter()
        .find(|(t, _)| *t == 0.25)
        .expect("round 1 repartitions");
    assert!(
        parts[1] > 0,
        "rank 1's queued RCP was not counted: {parts:?}"
    );
}

#[test]
fn gbs_chaos_trajectory_is_deterministic_across_runs_and_transports() {
    let a = gbs_chaos_run(TransportKind::Mem);
    let b = gbs_chaos_run(TransportKind::Mem);
    let c = gbs_chaos_run(TransportKind::Tcp);
    // The fault-plan ledger (not Leave-frame timing) decides who answers
    // each round, so the whole batching trajectory — times, GBS values,
    // every LBS row — is bit-identical across repeats and transports.
    assert_eq!(a.gbs_trace, b.gbs_trace);
    assert_eq!(a.lbs_trace, b.lbs_trace);
    assert_eq!(a.gbs_trace, c.gbs_trace, "mem vs TCP GBS diverged");
    assert_eq!(a.lbs_trace, c.lbs_trace, "mem vs TCP LBS rows diverged");
}

/// A Hello after establishment is refused like a stray route marker: a
/// rank that announced its Leave and then says Hello again fails the
/// receiving rank with a protocol error naming it. (It used to be a rejoin
/// announcement, which let any peer revive a departed rank.)
#[test]
fn a_late_hello_is_a_protocol_error() {
    const ITERS: u64 = 20;
    let mut cfg = live_config(SystemKind::Baseline, 1);
    cfg.max_iters = Some(ITERS);
    // Rank 0 never waits for gradients the test does not send.
    cfg.sync_override = Some(SyncPolicy::Asynchronous);
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let cluster = LiveCluster::new(&cfg, 2, 1, &opts, "live/late-hello").expect("cluster");
    let mut mesh = mem_mesh(2);
    let mut rank1 = mesh.pop().expect("endpoint 1");
    let rank0 = mesh.pop().expect("endpoint 0");
    let outcome = std::thread::scope(|s| {
        let run = s.spawn(|| cluster.run_ranks(vec![rank0]).remove(0));
        // Play rank 1: once rank 0 is training, leave, say Hello again,
        // and finish (the Done only lets a rank that took the Hello exit).
        rank1
            .recv_frame_timeout(Duration::from_secs(120))
            .expect("recv")
            .expect("rank 0's first gradient");
        let hello = Control::Hello {
            id: 1,
            n: 2,
            seed: cfg.seed,
            ranks: RankHello::flat(1, 2),
        };
        let wire = WireCfg::default();
        let frames = [
            Payload::Leave { completed: 1 }.to_wire(&wire),
            hello.to_frame(),
            Control::Done.to_frame(),
        ];
        for frame in frames {
            rank1.send_frame(0, frame).expect("send");
        }
        run.join().expect("run_ranks")
    });
    match outcome {
        Err(LiveError::Protocol(why)) => {
            assert!(why.contains("worker 1") && why.contains("hello"), "{why}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
