//! One live run path: the host runner `dlion-worker` calls — build a
//! [`LiveCluster`] from the shared config, establish this host's
//! endpoints, `run_ranks` — stood up here as two "processes" (threads
//! sharing nothing but the config and the address list), each carrying
//! two ranks over loopback TCP. Under strict BSP the result must equal
//! the flat 4-rank in-memory run bit for bit: where ranks live and what
//! carries their frames is placement, not semantics.

use dlion_core::{RunConfig, SyncPolicy, SystemKind};
use dlion_net::{
    assemble_metrics, live_config, run_live, LiveCluster, LiveOpts, TcpTransport, TransportKind,
};
use dlion_tensor::Tensor;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

const ITERS: u64 = 6;
const RANKS: usize = 4;

fn cfg() -> RunConfig {
    let mut cfg = live_config(SystemKind::Baseline, 3);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(ITERS);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg
}

fn opts() -> LiveOpts {
    LiveOpts {
        iters: ITERS,
        eval_every: 0,
        assumed_iter_time: Some(0.05),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    }
}

fn weight_bits(weights: &[Vec<Tensor>]) -> Vec<Vec<Vec<u32>>> {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
    weights
        .iter()
        .map(|ws| ws.iter().map(bits).collect())
        .collect()
}

#[test]
fn two_tcp_hosts_of_two_ranks_equal_the_flat_mem_run_bit_for_bit() {
    let (cfg, opts) = (cfg(), opts());
    let flat = run_live(&cfg, RANKS, &opts, TransportKind::Mem, "live/flat").expect("flat run");
    assert_eq!(flat.iterations, vec![ITERS; RANKS]);

    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let hosts: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(host, listener)| {
                let (cfg, opts, addrs) = (&cfg, &opts, &addrs);
                s.spawn(move || {
                    let cluster =
                        LiveCluster::new(cfg, RANKS, 2, opts, "live/hosts").expect("placement");
                    assert_eq!(cluster.n_hosts(), 2);
                    let endpoints = TcpTransport::establish_linked(
                        host,
                        listener,
                        addrs,
                        cfg.seed,
                        &cluster.tcp_opts(),
                        &cluster.host_links()[host],
                    )
                    .expect("mesh");
                    cluster.run_ranks(endpoints)
                })
            })
            .collect();
        hosts
            .into_iter()
            .flat_map(|h| h.join().expect("host thread"))
            .map(|r| r.expect("rank outcome"))
            .collect()
    });
    // Each host reported exactly its own two ranks, in rank order.
    let ids: Vec<usize> = outcomes.iter().map(|o| o.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    let hosted = assemble_metrics(&cfg, "live/hosts", outcomes);
    assert_eq!(hosted.iterations, flat.iterations);
    assert_eq!(
        weight_bits(&hosted.final_weights),
        weight_bits(&flat.final_weights),
        "2 TCP hosts x 2 ranks diverged from the flat in-memory run"
    );
}
