//! Sim/live parity: the discrete-event simulator and the live wire
//! backend run the *same* exchange logic, so configurations whose model
//! mutation order is timing-independent must produce bit-identical
//! weights, and asynchronous configurations must agree on all discrete
//! counts (iterations, messages) with losses in the same regime.
//!
//! Why strict BSP (`SyncPolicy::Synchronous`) for the bit-exact test: it
//! forces every worker through the deterministic apply order `own g_t,
//! peer g_t, own g_{t+1}, ...` — a worker cannot start iteration `t+1`
//! before the peer's iteration-`t` gradient arrived, and the peer cannot
//! run ahead, so at most one peer gradient is in flight and float
//! addition order is pinned on both backends. (Bound-0 bounded staleness
//! is *not* enough: its initial window lets iteration 1 start before the
//! peer's gradient lands, making the order timing-dependent.)

use dlion_core::messages::WireFormat;
use dlion_core::{run_with_models, ManualClock, RunConfig, RunMetrics, SyncPolicy, SystemKind};
use dlion_net::{live_config, run_live, LiveOpts, TransportKind};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

/// The simulated environment the live run is compared against: 2 uniform
/// workers, 1 Gbps links. `iter_time = 0.05 + 0.001 * lbs` seconds.
const BW_MBPS: f64 = 1000.0;
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn parity_cfg(system: SystemKind, iters: u64) -> RunConfig {
    let mut cfg = live_config(system, 1);
    cfg.duration = 10_000.0; // never the stopping condition; max_iters is
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(iters);
    cfg.capture_weights = true;
    cfg
}

fn sim_run(cfg: &RunConfig, n: usize) -> RunMetrics {
    run_with_models(
        cfg,
        ComputeModel::homogeneous(n, 1.0, 0.001, 0.05),
        NetworkModel::uniform(n, BW_MBPS, 0.001),
        "parity",
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

/// Weight tensors as raw bit patterns (f32 `==` would treat NaN unequal
/// to itself; the comparison must be exact bit equality).
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

fn bsp_weights(kind: TransportKind) -> (RunMetrics, RunMetrics) {
    const ITERS: u64 = 6;
    let mut cfg = parity_cfg(SystemKind::Baseline, ITERS);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let sim = sim_run(&cfg, 2);
    let live = run_live(&cfg, 2, &live_opts(ITERS), kind, "live/parity").expect("live run");
    assert_eq!(sim.iterations, vec![ITERS, ITERS]);
    assert_eq!(live.iterations, vec![ITERS, ITERS]);
    (sim, live)
}

#[test]
fn bsp_baseline_reaches_bit_identical_weights_over_channels() {
    let (sim, live) = bsp_weights(TransportKind::Mem);
    assert_eq!(sim.final_weights.len(), 2);
    assert_eq!(
        weight_bits(&sim.final_weights),
        weight_bits(&live.final_weights),
        "sim and live BSP weights diverged (mem transport)"
    );
    // The run did real work: weights moved away from initialization on
    // both backends, identically.
    assert!(sim.grad_bytes > 0.0 && live.grad_bytes > 0.0);
}

#[test]
fn bsp_baseline_reaches_bit_identical_weights_over_tcp() {
    let (sim, live) = bsp_weights(TransportKind::Tcp);
    assert_eq!(
        weight_bits(&sim.final_weights),
        weight_bits(&live.final_weights),
        "sim and live BSP weights diverged (TCP transport)"
    );
}

#[test]
fn bsp_chunked_dense_stays_bit_identical_over_mem_and_tcp() {
    // Forcing a tiny chunk size makes every gradient frame a multi-chunk
    // stream; the values the receiver applies must not change by a bit,
    // on either transport.
    const ITERS: u64 = 6;
    let mut cfg = parity_cfg(SystemKind::Baseline, ITERS);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let sim = sim_run(&cfg, 2);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let opts = LiveOpts {
            chunk_bytes: 4096,
            ..live_opts(ITERS)
        };
        let live = run_live(&cfg, 2, &opts, kind, "live/parity-chunk").expect("live run");
        assert_eq!(live.iterations, vec![ITERS, ITERS]);
        assert_eq!(
            weight_bits(&sim.final_weights),
            weight_bits(&live.final_weights),
            "sim and chunked live BSP weights diverged ({kind:?})"
        );
        // The chunked ledger accounts real stream bytes: more than the
        // plain body (chunk headers), in the dense bucket.
        let dense = live
            .wire_bytes_by_kind
            .get("grad_dense")
            .copied()
            .unwrap_or(0.0);
        assert!(dense > 0.0, "no dense grad bytes recorded ({kind:?})");
    }
}

#[test]
fn quantized_wire_formats_keep_counts_and_bound_loss_delta() {
    const ITERS: u64 = 8;
    let mut cfg = parity_cfg(SystemKind::Baseline, ITERS);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.telemetry = true;
    let dense = run_live(
        &cfg,
        2,
        &live_opts(ITERS),
        TransportKind::Mem,
        "live/wire-d",
    )
    .expect("dense run");
    let dense_loss = dense.worker_loss.last().expect("dense eval")[0];
    for format in [WireFormat::Fp16, WireFormat::Int8] {
        let mut qcfg = cfg.clone();
        qcfg.wire = format;
        let sim = sim_run(&qcfg, 2);
        let opts = live_opts(ITERS);
        let live =
            run_live(&qcfg, 2, &opts, TransportKind::Mem, "live/wire-q").expect("quantized run");
        // Identical iteration and message counts: quantization changes
        // values, never the protocol.
        assert_eq!(live.iterations, vec![ITERS, ITERS], "{format:?}");
        assert_eq!(
            live.telemetry.counter("msgs_sent"),
            dense.telemetry.counter("msgs_sent"),
            "{format:?}: message count changed"
        );
        // The sim quantizes at send exactly like the live codec, so even
        // the lossy formats stay bit-identical between backends under
        // strict BSP.
        assert_eq!(
            weight_bits(&sim.final_weights),
            weight_bits(&live.final_weights),
            "{format:?}: sim and live diverged"
        );
        // Bounded loss delta against the dense reference.
        let loss = live.worker_loss.last().expect("quantized eval")[0];
        assert!(loss.is_finite() && dense_loss.is_finite());
        assert!(
            (loss - dense_loss).abs() < 1.0,
            "{format:?}: loss {loss} vs dense {dense_loss}"
        );
        // Bytes land in the right ledger bucket, and beat dense volume.
        let label = match format {
            WireFormat::Fp16 => "grad_fp16",
            _ => "grad_int8",
        };
        let q_bytes = live.wire_bytes_by_kind.get(label).copied().unwrap_or(0.0);
        let d_bytes = dense
            .wire_bytes_by_kind
            .get("grad_dense")
            .copied()
            .unwrap_or(0.0);
        assert!(q_bytes > 0.0, "{format:?}: empty wire ledger bucket");
        assert!(
            q_bytes < 0.55 * d_bytes,
            "{format:?}: {q_bytes} not smaller than dense {d_bytes}"
        );
    }
}

#[test]
fn async_ako_matches_iteration_and_message_counts() {
    const ITERS: u64 = 8;
    let mut cfg = parity_cfg(SystemKind::Ako, ITERS);
    cfg.telemetry = true;
    let sim = sim_run(&cfg, 2);
    let live =
        run_live(&cfg, 2, &live_opts(ITERS), TransportKind::Mem, "live/ako").expect("live run");
    assert_eq!(sim.iterations, vec![ITERS, ITERS]);
    assert_eq!(live.iterations, sim.iterations);
    // One gradient message per peer per iteration, on both backends; Ako
    // has no DKT, so these are the only payload messages.
    assert_eq!(sim.telemetry.counter("msgs_sent"), 2 * ITERS);
    assert_eq!(live.telemetry.counter("msgs_sent"), 2 * ITERS);
    assert_eq!(live.telemetry.counter("msgs_recv"), 2 * ITERS);
    // Async timing differs between backends, so weights differ — but the
    // training signal must be in the same regime.
    let sim_loss = sim.worker_loss.last().expect("sim eval")[0];
    let live_loss = live.worker_loss.last().expect("live eval")[0];
    assert!(sim_loss.is_finite() && live_loss.is_finite());
    assert!(
        (sim_loss - live_loss).abs() < 1.0,
        "losses diverged: sim {sim_loss} vs live {live_loss}"
    );
}

/// Gaia gates each iteration on the delivery acks of the last one. A
/// gradient is acked when the round core accepts it into its update log,
/// not when it is applied — the next step applies it, and that step waits
/// for the acks — so on both transports the run completes.
#[test]
fn gaia_block_on_delivery_completes_with_matching_counts() {
    const ITERS: u64 = 6;
    let mut cfg = parity_cfg(SystemKind::Gaia, ITERS);
    cfg.telemetry = true;
    let sim = sim_run(&cfg, 3);
    assert_eq!(sim.iterations, vec![ITERS; 3]);
    // Gaia sends one (significance-filtered) message per peer per
    // iteration; delivery acks gate progress but never drop messages.
    assert_eq!(sim.telemetry.counter("msgs_sent"), 3 * 2 * ITERS);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let opts = LiveOpts {
            stall_timeout: Duration::from_secs(20),
            ..live_opts(ITERS)
        };
        let live = run_live(&cfg, 3, &opts, kind, "live/gaia").expect("live run");
        assert_eq!(live.iterations, sim.iterations, "{kind:?}");
        assert_eq!(
            live.telemetry.counter("msgs_sent"),
            3 * 2 * ITERS,
            "{kind:?}"
        );
        assert_eq!(live.final_weights.len(), 3, "{kind:?}");
    }
}

/// The GBS-growth parity fixture: 3 workers, LBS 32 (GBS 96) over a
/// 12_000-sample training set (warm-up cap 120, speed-up cap 1200),
/// adjusting every 0.25s of training time. With a pinned 0.05s iteration
/// the rounds trigger at iterations 5, 10, 15, ... and the §3.2 schedule
/// is 96 → 160 (warm-up, crossing 1%) → 240 → 360 → 540 → 810 → 1200
/// (speed-up ×1.5, clamped at 10%) → Done.
const GBS_PERIOD: f64 = 0.25;
const GBS_DT: f64 = 0.05;
const GBS_ITERS: u64 = 42; // 2.1s of training: rounds 1..=8 all fire

fn gbs_parity_cfg() -> RunConfig {
    let mut cfg = parity_cfg(SystemKind::DLion, GBS_ITERS);
    cfg.telemetry = true;
    cfg.workload.train_size = 12_000;
    cfg.gbs.adjust_period_secs = GBS_PERIOD;
    // Only the growth controller repartitions: no mid-run re-profiling,
    // no profiling noise.
    cfg.profile_interval = 1e9;
    cfg.profile_noise = 0.0;
    cfg
}

fn gbs_live_opts() -> LiveOpts {
    LiveOpts {
        iters: GBS_ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        // Pins the training clock: round r triggers at the first iteration
        // i with i * 0.05 >= r * 0.25, identically on every worker.
        assumed_iter_time: Some(GBS_DT),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    }
}

const GBS_EXPECTED: [(f64, usize); 6] = [
    (0.25, 160),
    (0.5, 240),
    (0.75, 360),
    (1.0, 540),
    (1.25, 810),
    (1.5, 1200),
];

/// The GBS in force at time `t` per a trace (initial 96 before any round).
fn gbs_at(trace: &[(f64, usize)], t: f64) -> usize {
    trace
        .iter()
        .rev()
        .find(|&&(tt, _)| tt <= t)
        .map_or(96, |&(_, g)| g)
}

#[test]
fn live_gbs_growth_matches_simulator_trajectory() {
    let cfg = gbs_parity_cfg();
    let sim = sim_run(&cfg, 3);
    let live =
        run_live(&cfg, 3, &gbs_live_opts(), TransportKind::Mem, "live/gbs").expect("live run");
    assert_eq!(live.iterations, vec![GBS_ITERS; 3]);
    // The GBS trajectory — values AND adjustment times — is the §3.2
    // schedule, bit-identical between the backends: live rounds record
    // their nominal time (round × period), exactly the simulator's tick.
    assert_eq!(live.gbs_trace, GBS_EXPECTED.to_vec());
    assert_eq!(sim.gbs_trace, live.gbs_trace, "sim and live GBS diverged");
    // Both backends repartition at the same moments: run start plus every
    // GBS change. Shares differ (live RCPs come from the measured-
    // throughput EWMA, the simulator profiles its compute model) but
    // every row sums exactly to the GBS in force at its time.
    let times = |m: &RunMetrics| -> Vec<f64> { m.lbs_trace.iter().map(|&(t, _)| t).collect() };
    assert_eq!(times(&sim), times(&live), "repartition times diverged");
    assert_eq!(
        times(&live).first(),
        Some(&0.0),
        "missing startup partition"
    );
    for (t, parts) in &live.lbs_trace {
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|&p| p >= 1), "starved worker at t={t}");
        assert_eq!(
            parts.iter().sum::<usize>(),
            gbs_at(&live.gbs_trace, *t),
            "row does not sum to the GBS in force at t={t}"
        );
    }
    // The same counters the simulator reports, fed from the live events.
    assert_eq!(live.telemetry.counter("gbs_adjusts"), 6);
    assert_eq!(live.telemetry.counter("lbs_repartitions"), 7);
    assert_eq!(
        sim.telemetry.counter("gbs_adjusts"),
        live.telemetry.counter("gbs_adjusts")
    );
}

/// Both backends re-profile every `profile_interval` of their clock: with
/// a re-profile every 0.6 s inside the 2.1 s run, the simulator and a Mem
/// cluster repartition at the same nominal times — start-up, the six GBS
/// steps and the re-profiles at 0.6, 1.2 and 1.8 — each row covering the
/// GBS in force. The simulator's iteration takes (almost exactly) the
/// pinned 0.05 s whatever the LBS.
#[test]
fn live_and_sim_re_profile_at_the_same_nominal_times() {
    let mut cfg = gbs_parity_cfg();
    cfg.profile_interval = 0.6;
    let sim = run_with_models(
        &cfg,
        ComputeModel::homogeneous(3, 1.0, 1e-6, GBS_DT),
        NetworkModel::uniform(3, BW_MBPS, 1e-4),
        "parity/re-profile",
    );
    let live = run_live(
        &cfg,
        3,
        &gbs_live_opts(),
        TransportKind::Mem,
        "live/re-profile",
    )
    .expect("live run");
    assert_eq!(live.gbs_trace, GBS_EXPECTED.to_vec());
    assert_eq!(sim.gbs_trace, live.gbs_trace);
    let times = |m: &RunMetrics| -> Vec<f64> { m.lbs_trace.iter().map(|&(t, _)| t).collect() };
    assert_eq!(times(&sim), times(&live), "repartition times diverged");
    let steps = GBS_EXPECTED.iter().map(|&(t, _)| t);
    let profiles = (1..=3).map(|k| k as f64 * 0.6);
    let mut expected: Vec<f64> = std::iter::once(0.0).chain(steps).chain(profiles).collect();
    expected.sort_by(f64::total_cmp);
    assert_eq!(times(&live), expected);
    for m in [&sim, &live] {
        for (t, parts) in &m.lbs_trace {
            assert_eq!(
                parts.iter().sum::<usize>(),
                gbs_at(&m.gbs_trace, *t),
                "at t={t}"
            );
        }
    }
}

#[test]
fn live_gbs_trajectory_is_bit_identical_across_runs() {
    let cfg = gbs_parity_cfg();
    let a =
        run_live(&cfg, 3, &gbs_live_opts(), TransportKind::Mem, "live/gbs").expect("live run a");
    let b =
        run_live(&cfg, 3, &gbs_live_opts(), TransportKind::Mem, "live/gbs").expect("live run b");
    // Not just the same values — the same bits, including every LBS row:
    // the round protocol makes the trajectory a pure function of the
    // pinned iteration time, independent of frame interleaving.
    assert_eq!(a.gbs_trace, b.gbs_trace);
    assert_eq!(a.lbs_trace, b.lbs_trace);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn an_adjust_period_longer_than_the_run_freezes_the_schedule() {
    let mut cfg = gbs_parity_cfg();
    cfg.gbs.adjust_period_secs = 1e9;
    let opts = gbs_live_opts();
    let live = run_live(&cfg, 3, &opts, TransportKind::Mem, "live/gbs-frozen").expect("live run");
    assert_eq!(live.iterations, vec![GBS_ITERS; 3]);
    // Startup profiling still splits the initial GBS once, but no
    // adjustment round ever comes due.
    assert!(live.gbs_trace.is_empty(), "frozen run adjusted the GBS");
    assert_eq!(live.lbs_trace.len(), 1, "frozen run repartitioned");
    assert_eq!(live.lbs_trace[0].1.iter().sum::<usize>(), 96);
}

#[test]
fn dlion_live_runs_all_three_techniques() {
    const ITERS: u64 = 25;
    let mut cfg = parity_cfg(SystemKind::DLion, ITERS);
    cfg.telemetry = true;
    let live =
        run_live(&cfg, 3, &live_opts(ITERS), TransportKind::Mem, "live/dlion").expect("live run");
    assert_eq!(live.iterations, vec![ITERS; 3]);
    // Startup LBS profiling partitioned the static GBS across workers.
    assert!(live.telemetry.counter("msgs_sent") > 0);
    // DKT ran (period 20 < 25 iterations): losses were shared.
    assert!(live.control_bytes > 0.0, "no DKT loss shares on the wire");
    let acc = live.worker_acc.last().expect("final eval");
    assert!(acc.iter().all(|&a| a > 0.0), "no accuracy: {acc:?}");
}
