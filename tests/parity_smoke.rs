//! Tier-1 smoke for the repo's signature property: under strict BSP the
//! discrete-event simulator and the live (in-memory transport) backend
//! leave bit-identical weights — with everyone present, and with one
//! planned departure mid-run. Both backends execute the same round core
//! (`dlion_core::round`); this is the root-crate check that they still
//! agree end to end — and, for DLion, that both run the same batching
//! control plane (`dlion_core::gbs::Batching`): same GBS trajectory, same
//! repartition times, same workers at share zero. The full matrix (TCP,
//! topologies, virtual ranks, generated scenarios) lives in
//! `crates/net/tests`.

use dlion::core::{
    run_with_models, FaultPlan, ManualClock, RunConfig, RunMetrics, SyncPolicy, SystemKind,
};
use dlion::net::{live_config, run_live, LiveOpts, TransportKind};
use dlion::simnet::{ComputeModel, NetworkModel};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 3;
const ITERS: u64 = 6;
const BW_MBPS: f64 = 1000.0;
/// The homogeneous compute model's iteration time at LBS 32, which the
/// live run pins so both backends plan identical exchanges.
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn weight_bits(m: &RunMetrics) -> Vec<Vec<Vec<u32>>> {
    let bits = |ws: &Vec<dlion::tensor::Tensor>| {
        ws.iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    m.final_weights.iter().map(bits).collect()
}

/// Run the same strict-BSP Baseline cluster on both backends.
fn sim_and_mem(fault: FaultPlan) -> (RunMetrics, RunMetrics) {
    let mut cfg: RunConfig = live_config(SystemKind::Baseline, 1);
    cfg.duration = 10_000.0; // never the stopping condition; max_iters is
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(ITERS);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.fault = fault;
    let sim = run_with_models(
        &cfg,
        ComputeModel::homogeneous(N, 1.0, 0.001, 0.05),
        NetworkModel::uniform(N, BW_MBPS, 0.001),
        "parity-smoke",
    );
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(ITER_TIME),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let mem = run_live(&cfg, N, &opts, TransportKind::Mem, "live/parity-smoke").expect("live run");
    (sim, mem)
}

#[test]
fn strict_bsp_sim_and_mem_weights_are_bit_identical() {
    let (sim, mem) = sim_and_mem(FaultPlan::default());
    assert_eq!(sim.iterations, vec![ITERS; N]);
    assert_eq!(mem.iterations, vec![ITERS; N]);
    let (sw, mw) = (weight_bits(&sim), weight_bits(&mem));
    assert!(sw.iter().all(|w| !w.is_empty()), "sim captured no weights");
    // (`assert!`, not `assert_eq!`: a failure must not dump every weight.)
    assert!(sw == mw, "sim vs mem weights diverged");
}

#[test]
fn survivors_of_a_planned_kill_are_bit_identical() {
    let (sim, mem) = sim_and_mem(FaultPlan::parse("1@3").expect("valid fault plan"));
    assert_eq!(sim.iterations, vec![ITERS, 3, ITERS]);
    assert_eq!(mem.iterations, vec![ITERS, 3, ITERS]);
    let (sw, mw) = (weight_bits(&sim), weight_bits(&mem));
    for w in [0, 2] {
        assert!(!sw[w].is_empty(), "sim captured no weights for {w}");
        assert!(sw[w] == mw[w], "sim vs mem weights diverged at worker {w}");
    }
}

/// Run the same DLion cluster on both backends for 17 iterations of 0.05 s
/// with an adjustment round every 0.25 s: rounds 1-3 fire on both (the
/// simulator's compute model takes 0.05 s an iteration whatever the LBS,
/// the live run pins it on a manual clock). 3 000 training samples cap
/// the GBS at 300: 96 → 144 → 216 → 300.
fn dlion_sim_and_mem(fault: FaultPlan) -> (RunMetrics, RunMetrics) {
    const DLION_ITERS: u64 = 17;
    let mut cfg: RunConfig = live_config(SystemKind::DLion, 1);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(DLION_ITERS);
    cfg.workload.train_size = 3_000;
    cfg.gbs.adjust_period_secs = 0.25;
    cfg.profile_interval = 1e9;
    cfg.profile_noise = 0.0;
    cfg.fault = fault;
    let sim = run_with_models(
        &cfg,
        ComputeModel::homogeneous(N, 1.0, 1e-5, 0.05),
        NetworkModel::uniform(N, 100_000.0, 1e-4),
        "parity-smoke",
    );
    let opts = LiveOpts {
        iters: DLION_ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    };
    let mem = run_live(&cfg, N, &opts, TransportKind::Mem, "live/parity-smoke").expect("live run");
    (sim, mem)
}

/// Each repartition as `(nominal time, which workers hold share zero)`.
fn zero_rows(m: &RunMetrics) -> Vec<(f64, Vec<bool>)> {
    let zero = |parts: &Vec<usize>| parts.iter().map(|&p| p == 0).collect();
    m.lbs_trace.iter().map(|(t, p)| (*t, zero(p))).collect()
}

#[test]
fn dlion_batching_control_plane_agrees_between_sim_and_mem() {
    let (sim, mem) = dlion_sim_and_mem(FaultPlan::default());
    assert_eq!(sim.gbs_trace, vec![(0.25, 144), (0.5, 216), (0.75, 300)]);
    assert_eq!(sim.gbs_trace, mem.gbs_trace);
    let everyone = |t| (t, vec![false; N]);
    assert_eq!(zero_rows(&sim), [0.0, 0.25, 0.5, 0.75].map(everyone));
    assert_eq!(zero_rows(&sim), zero_rows(&mem));
}

#[test]
fn dlion_batching_control_plane_agrees_after_a_planned_kill() {
    let (sim, mem) = dlion_sim_and_mem(FaultPlan::parse("1@3").expect("valid fault plan"));
    assert_eq!(sim.iterations, mem.iterations);
    assert_eq!(sim.gbs_trace, mem.gbs_trace);
    // Worker 1 is gone before round 1: from then on the survivors split
    // the whole GBS, on both backends.
    let rows = zero_rows(&sim);
    assert_eq!(rows[0], (0.0, vec![false; N]));
    assert!(rows[1..].iter().all(|(_, z)| z == &[false, true, false]));
    assert_eq!(rows, zero_rows(&mem));
    for m in [&sim, &mem] {
        let gbs = [96usize, 144, 216, 300];
        let sums: Vec<usize> = m.lbs_trace.iter().map(|(_, p)| p.iter().sum()).collect();
        assert_eq!(sums, gbs, "every row covers the GBS in force");
    }
}
