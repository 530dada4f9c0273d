//! Virtual workers: N ranks sharing one host's TCP links must be
//! *invisible* to the training semantics.
//! Under strict BSP the final weights are a pure function of the apply
//! order `own g_t, peer g_t (by sender id), own g_{t+1}, ...`, and rank
//! multiplexing only changes where ranks live — so a 2-host × 4-rank
//! cluster must reach the simulator's 8-worker weights bit for bit, on
//! channels and on real TCP sockets, with route markers, shared host
//! links and the reader's routing in between.
//!
//! The churn composition is covered too: killing one virtual rank must
//! leave every survivor — *including the victim's host-mates* —
//! bit-identical to the flat one-rank-per-host run, and a whole-host TCP
//! drop must demote all of its ranks at once.

use dlion_core::messages::encode_frame;
use dlion_core::{
    run_with_models, ExchangeTransport, FaultPlan, RunConfig, RunMetrics, SyncPolicy, SystemKind,
    Topology, TransportError,
};
use dlion_net::{
    live_config, loopback_mesh, run_live, run_live_virtual, LiveOpts, RankLayout, TcpOpts,
    TransportKind, KIND_ACK,
};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::Tensor;
use std::time::Duration;

const BW_MBPS: f64 = 1000.0;
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn bsp_cfg(system: SystemKind, iters: u64) -> RunConfig {
    let mut cfg = live_config(system, 1);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(iters);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg
}

fn sim_run(cfg: &RunConfig, n: usize) -> RunMetrics {
    run_with_models(
        cfg,
        ComputeModel::homogeneous(n, 1.0, 0.001, 0.05),
        NetworkModel::uniform(n, BW_MBPS, 0.001),
        "virtual-parity",
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

/// The core parity claim: sim(n=8) ≡ 2 hosts × 4 virtual ranks, bit for
/// bit, on both transports.
#[test]
fn two_hosts_of_four_virtual_ranks_match_the_simulator_bit_for_bit() {
    const ITERS: u64 = 6;
    const N: usize = 8;
    let cfg = bsp_cfg(SystemKind::Baseline, ITERS);
    let sim = sim_run(&cfg, N);
    assert_eq!(sim.iterations, vec![ITERS; N]);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let live = run_live_virtual(&cfg, N, 4, &live_opts(ITERS), kind, "live/virt")
            .expect("virtual run");
        assert_eq!(live.iterations, vec![ITERS; N], "{kind:?} stalled");
        assert_eq!(
            weight_bits(&sim.final_weights),
            weight_bits(&live.final_weights),
            "sim and 2×4 virtual weights diverged ({kind:?})"
        );
        assert!(live.grad_bytes > 0.0, "no gradient traffic ({kind:?})");
    }
}

/// Sparse per-round schedules compose with rank multiplexing: the
/// kregular:2 rotation prunes rank pairs, the host links collapse what
/// remains, and the weights still match the simulator exactly.
#[test]
fn kregular_schedule_keeps_virtual_bit_parity() {
    const ITERS: u64 = 6;
    const N: usize = 8;
    let mut cfg = bsp_cfg(SystemKind::Baseline, ITERS);
    cfg.topology = Topology::KRegular { k: 2 };
    let sim = sim_run(&cfg, N);
    assert_eq!(sim.iterations, vec![ITERS; N]);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let live = run_live_virtual(&cfg, N, 4, &live_opts(ITERS), kind, "live/virt-kreg")
            .expect("virtual run");
        assert_eq!(live.iterations, vec![ITERS; N], "{kind:?} stalled");
        assert_eq!(
            weight_bits(&sim.final_weights),
            weight_bits(&live.final_weights),
            "kregular:2 virtual weights diverged from sim ({kind:?})"
        );
    }
}

/// Killing ONE virtual rank must not splash onto its host-mates: every
/// survivor — same host or not — stays bit-identical to the flat
/// one-rank-per-host run with the same fault plan.
#[test]
fn killing_one_virtual_rank_leaves_survivors_identical_to_flat() {
    const ITERS: u64 = 8;
    const N: usize = 8;
    let mut cfg = bsp_cfg(SystemKind::Baseline, ITERS);
    cfg.fault = FaultPlan::parse("1@3").expect("valid fault plan");
    let opts = live_opts(ITERS);
    let flat = run_live(&cfg, N, &opts, TransportKind::Mem, "live/virt-kill").expect("flat run");
    assert_eq!(flat.iterations[1], 3);
    let flat_bits = weight_bits(&flat.final_weights);
    assert!(flat_bits[1].is_empty(), "victim captured weights");
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let live =
            run_live_virtual(&cfg, N, 4, &opts, kind, "live/virt-kill").expect("virtual run");
        assert_eq!(live.iterations[1], 3, "{kind:?}: victim outlived its plan");
        let bits = weight_bits(&live.final_weights);
        for w in 0..N {
            if w == 1 {
                continue;
            }
            assert_eq!(
                flat_bits[w], bits[w],
                "survivor {w} diverged from the flat run ({kind:?})"
            );
        }
    }
}

/// EOF semantics: a whole host dropping off the TCP mesh demotes ALL of
/// its virtual ranks at once — every surviving endpoint hears a per-rank
/// disconnect for each dead rank, in rank order.
#[test]
fn tcp_host_drop_demotes_all_its_ranks_in_rank_order() {
    const TIMEOUT: Duration = Duration::from_secs(20);
    let layout = RankLayout::even(4, 2); // hosts 0,1 carry ranks [0,1], [2,3]
    let topts = TcpOpts {
        establish_timeout: TIMEOUT,
        ranks: Some(std::sync::Arc::new(layout.hello_blocks())),
        ..Default::default()
    };
    let mut eps0 = loopback_mesh(2, 31, &topts, None).expect("mesh");
    let eps1 = eps0.split_off(2);
    // Rank 2 (host 1) proves the link works, then host 1 dies wholesale.
    {
        let mut eps1 = eps1;
        eps1[0]
            .send_frame(0, encode_frame(KIND_ACK, b"ping"))
            .expect("send before drop");
        let (from, _) = eps0[0]
            .recv_frame_timeout(TIMEOUT)
            .expect("recv")
            .expect("frame before timeout");
        assert_eq!(from, 2);
        // Host 1's last endpoint going closes its sockets.
    }
    // Host 0's reader sees ONE socket EOF and fans it out: each surviving
    // endpoint hears a disconnect per dead rank, in rank order.
    for rank in [2usize, 3] {
        match eps0[0].recv_frame_timeout(TIMEOUT) {
            Err(TransportError::PeerDisconnected { peer }) if peer == rank => {}
            other => panic!("expected PeerDisconnected({rank}), got {other:?}"),
        }
    }
    // Sends to any dead rank fail fast.
    assert!(matches!(
        eps0[1].send_frame(3, encode_frame(KIND_ACK, b"x")),
        Err(TransportError::PeerGone(3))
    ));
    drop(eps0);
}

/// All ranks on one host: the run finishes on TCP (no link at all) and on
/// Mem (rank space — one process has no host link to share), and both
/// match the simulator.
#[test]
fn one_host_of_two_ranks_finishes_on_both_transports() {
    const ITERS: u64 = 4;
    let cfg = bsp_cfg(SystemKind::Baseline, ITERS);
    let sim = sim_run(&cfg, 2);
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let live = run_live_virtual(&cfg, 2, 2, &live_opts(ITERS), kind, "live/one-host")
            .expect("one-host run");
        assert_eq!(live.iterations, vec![ITERS; 2], "{kind:?} stalled");
        assert_eq!(
            weight_bits(&sim.final_weights),
            weight_bits(&live.final_weights),
            "one host of two ranks diverged from the simulator ({kind:?})"
        );
    }
}

/// The oversubscription acceptance claim: 64 virtual ranks on 4 host
/// endpoints over real TCP, strict BSP on a sparse schedule, reach the
/// 64-worker simulator's weights bit for bit.
#[test]
fn sixty_four_ranks_on_four_tcp_hosts_match_the_simulator() {
    const ITERS: u64 = 3;
    const N: usize = 64;
    let mut cfg = bsp_cfg(SystemKind::Baseline, ITERS);
    // Sparse rotation keeps the wire volume sane at n=64 (each rank
    // speaks to 2 neighbors per round) while still crossing every host
    // boundary as the schedule rotates.
    cfg.topology = Topology::KRegular { k: 2 };
    let sim = sim_run(&cfg, N);
    assert_eq!(sim.iterations, vec![ITERS; N]);
    let live = run_live_virtual(
        &cfg,
        N,
        16,
        &live_opts(ITERS),
        TransportKind::Tcp,
        "live/virt-64",
    )
    .expect("64-rank virtual run");
    assert_eq!(live.iterations, vec![ITERS; N], "64-rank run stalled");
    assert_eq!(
        weight_bits(&sim.final_weights),
        weight_bits(&live.final_weights),
        "64 ranks on 4 TCP hosts diverged from the simulator"
    );
}
