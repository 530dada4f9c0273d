//! Topology plane on the live backend: per-round neighbor schedules must
//! agree with the simulator bit for bit, prune real wire traffic, and
//! compose with the churn ledger and the GBS growth controller.
//!
//! Why strict BSP for the bit-exact tests: the symmetric per-round
//! neighbor sets (`j ∈ nbrs(i,r) ⇔ i ∈ nbrs(j,r)`) make gating mutual, so
//! under `SyncPolicy::Synchronous` every worker applies `own g_t, nbr
//! g_t, own g_{t+1}, ...` in sender-id order on both backends — float
//! addition order is pinned exactly as in `parity.rs`, just over the
//! round's declared neighbor set instead of the full mesh.

use dlion_core::{
    run_with_models, FaultPlan, ManualClock, RunConfig, RunMetrics, SyncPolicy, SystemKind,
    Topology,
};
use dlion_net::{live_config, run_live, LiveOpts, TransportKind};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

const BW_MBPS: f64 = 1000.0;
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn topo_cfg(system: SystemKind, iters: u64, topology: Topology) -> RunConfig {
    let mut cfg = live_config(system, 1);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(iters);
    cfg.capture_weights = true;
    cfg.topology = topology;
    cfg
}

fn sim_run(cfg: &RunConfig, n: usize) -> RunMetrics {
    run_with_models(
        cfg,
        ComputeModel::homogeneous(n, 1.0, 0.001, 0.05),
        NetworkModel::uniform(n, BW_MBPS, 0.001),
        "topo-parity",
    )
}

fn live_opts(iters: u64) -> LiveOpts {
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

fn dense_bytes(m: &RunMetrics) -> f64 {
    m.wire_bytes_by_kind
        .get("grad_dense")
        .copied()
        .unwrap_or(0.0)
}

/// The tentpole acceptance test: for each sparse topology on 4 workers,
/// strict-BSP live reaches the simulator's final weights bit for bit (on
/// both transports), and its gradient wire volume stays strictly below
/// the full mesh's.
#[test]
fn sparse_topologies_reach_bit_identical_weights_and_cut_wire_bytes() {
    const ITERS: u64 = 6;
    const N: usize = 4;
    let mesh_cfg = topo_cfg(SystemKind::Baseline, ITERS, Topology::FullMesh);
    let mut mesh_cfg = mesh_cfg;
    mesh_cfg.sync_override = Some(SyncPolicy::Synchronous);
    let mesh = run_live(
        &mesh_cfg,
        N,
        &live_opts(ITERS),
        TransportKind::Mem,
        "live/topo-mesh",
    )
    .expect("mesh run");
    let mesh_bytes = dense_bytes(&mesh);
    assert!(mesh_bytes > 0.0, "mesh recorded no dense grad bytes");

    for topology in [
        Topology::Ring,
        Topology::KRegular { k: 2 },
        Topology::Hier { g: 2 },
    ] {
        let mut cfg = topo_cfg(SystemKind::Baseline, ITERS, topology);
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        let sim = sim_run(&cfg, N);
        assert_eq!(sim.iterations, vec![ITERS; N], "{topology:?} sim stalled");
        for kind in [TransportKind::Mem, TransportKind::Tcp] {
            let live = run_live(&cfg, N, &live_opts(ITERS), kind, "live/topo").expect("live run");
            assert_eq!(
                live.iterations,
                vec![ITERS; N],
                "{topology:?} live stalled ({kind:?})"
            );
            assert_eq!(
                weight_bits(&sim.final_weights),
                weight_bits(&live.final_weights),
                "{topology:?}: sim and live weights diverged ({kind:?})"
            );
            let bytes = dense_bytes(&live);
            assert!(
                bytes > 0.0 && bytes < mesh_bytes,
                "{topology:?}: {bytes} wire bytes not strictly below mesh {mesh_bytes} ({kind:?})"
            );
        }
    }
}

/// Satellite: churn on a sparse graph. Killing a ring neighbor mid-run
/// must not hang the survivors, and their weights must be bit-identical
/// across repeats AND transports — the fault-plan ledger renormalizes the
/// victim's groups, never frame timing.
#[test]
fn ring_neighbor_kill_keeps_survivors_bit_identical() {
    const ITERS: u64 = 8;
    const N: usize = 4;
    let mut cfg = topo_cfg(SystemKind::Baseline, ITERS, Topology::Ring);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.fault = FaultPlan::parse("1@3").expect("valid fault plan");
    let opts = live_opts(ITERS);
    let runs = [
        run_live(&cfg, N, &opts, TransportKind::Mem, "live/topo-chaos").expect("mem run 1"),
        run_live(&cfg, N, &opts, TransportKind::Mem, "live/topo-chaos").expect("mem run 2"),
        run_live(&cfg, N, &opts, TransportKind::Tcp, "live/topo-chaos").expect("tcp run"),
    ];
    for m in &runs {
        // Survivors finish; the ring stays connected through 0-3-2.
        assert_eq!(m.iterations, vec![ITERS, 3, ITERS, ITERS]);
    }
    let bits: Vec<_> = runs.iter().map(|m| weight_bits(&m.final_weights)).collect();
    assert!(bits[0][1].is_empty(), "departed worker captured weights");
    for (i, b) in bits.iter().enumerate().skip(1) {
        for w in [0usize, 2, 3] {
            assert_eq!(
                bits[0][w], b[w],
                "survivor w{w} weights diverged between run 0 and run {i}"
            );
        }
    }
}

/// Same guarantee on a rotating group schedule: the departed member's
/// groups renormalize round by round, identically everywhere.
#[test]
fn group_member_kill_keeps_survivors_bit_identical() {
    const ITERS: u64 = 8;
    const N: usize = 4;
    let mut cfg = topo_cfg(SystemKind::Baseline, ITERS, Topology::Groups { g: 2 });
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.fault = FaultPlan::parse("2@3").expect("valid fault plan");
    let opts = live_opts(ITERS);
    let a = run_live(&cfg, N, &opts, TransportKind::Mem, "live/topo-chaos").expect("mem run");
    let b = run_live(&cfg, N, &opts, TransportKind::Tcp, "live/topo-chaos").expect("tcp run");
    assert_eq!(a.iterations, vec![ITERS, ITERS, 3, ITERS]);
    assert_eq!(b.iterations, a.iterations);
    let (ab, bb) = (weight_bits(&a.final_weights), weight_bits(&b.final_weights));
    for w in [0usize, 1, 3] {
        assert_eq!(ab[w], bb[w], "survivor w{w} diverged between mem and TCP");
    }
}

/// Satellite: topology × GBS growth. The batching controller's round
/// protocol broadcasts RCPs on the control plane, so the growth
/// trajectory must match the simulator's and stay bit-identical across
/// repeats and transports even when gradients flow over a sparse graph.
#[test]
fn gbs_growth_composes_with_a_sparse_topology() {
    const ITERS: u64 = 30;
    const N: usize = 4;
    let mut cfg = topo_cfg(SystemKind::DLion, ITERS, Topology::KRegular { k: 2 });
    cfg.workload.train_size = 12_000;
    cfg.gbs.adjust_period_secs = 0.25;
    cfg.profile_interval = 1e9;
    cfg.profile_noise = 0.0;
    let opts = || LiveOpts {
        iters: ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    };
    let sim = sim_run(&cfg, N);
    let a = run_live(&cfg, N, &opts(), TransportKind::Mem, "live/topo-gbs").expect("mem run 1");
    let b = run_live(&cfg, N, &opts(), TransportKind::Mem, "live/topo-gbs").expect("mem run 2");
    let c = run_live(&cfg, N, &opts(), TransportKind::Tcp, "live/topo-gbs").expect("tcp run");
    assert_eq!(a.iterations, vec![ITERS; N]);
    // Growth fired, on the simulator's exact schedule, deterministically.
    assert!(!a.gbs_trace.is_empty(), "no GBS adjustment fired");
    assert_eq!(sim.gbs_trace, a.gbs_trace, "sim and live GBS diverged");
    assert_eq!(a.gbs_trace, b.gbs_trace);
    assert_eq!(a.lbs_trace, b.lbs_trace);
    assert_eq!(a.gbs_trace, c.gbs_trace, "mem vs TCP GBS diverged");
    assert_eq!(a.lbs_trace, c.lbs_trace, "mem vs TCP LBS rows diverged");
    // Every repartition row still covers the GBS in force.
    for (t, parts) in &a.lbs_trace {
        let gbs = a
            .gbs_trace
            .iter()
            .rev()
            .find(|&&(tt, _)| tt <= *t)
            .map_or_else(|| parts.iter().sum::<usize>(), |&(_, g)| g);
        assert_eq!(
            parts.iter().sum::<usize>(),
            gbs,
            "row short of GBS at t={t}"
        );
    }
}
