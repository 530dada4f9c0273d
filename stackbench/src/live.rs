//! The live cluster, assembled from the public pieces exactly as
//! `dlion_net::run_live` assembles it — `build_cluster` + `link_masks` +
//! `mem_mesh`/`loopback_mesh` + one `run_worker` thread per rank +
//! `assemble_metrics` — so the harness can time set-up and the run
//! separately and, in a traced run, slip a [`TimedTransport`] between the
//! driver and each endpoint. Nothing in the program changes.

use crate::trace::{TimedTransport, TransportTrace};
use crate::Size;
use dlion_core::cluster::ClusterInit;
use dlion_core::{
    build_cluster, ExchangeTransport, GbsController, ManualClock, RunConfig, RunMetrics, SystemKind,
};
use dlion_net::{
    assemble_metrics, link_masks, live_config, loopback_mesh, run_worker, LiveOpts, TcpOpts,
    TransportKind, WorkerEnv, WorkerOutcome,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A live run ready to be assembled.
pub struct LiveSpec {
    pub cfg: RunConfig,
    pub n: usize,
    pub opts: LiveOpts,
    pub kind: TransportKind,
}

/// Training-clock seconds every iteration is pinned to. With the manual
/// cluster clock this makes each protocol decision (GBS rounds, Max N
/// budgets, DKT rounds) a pure function of the iteration index, so only
/// host wall time varies between runs.
pub const PINNED_ITER_SECS: f64 = 0.05;

/// `live_tcp`: two DLion ranks over loopback TCP — gating, Max N sparse
/// frames, RCP rounds and DKT pulls as many small latency-bound frames.
/// GBS rounds fall every 100 iterations (`adjust_period = 100 × 0.05 s`).
pub fn tcp_cell(seed: u64, size: Size) -> LiveSpec {
    let iters = match size {
        Size::Full => 320,
        Size::Quick => 100,
    };
    let rounds_every = match size {
        Size::Full => 100.0,
        Size::Quick => 40.0,
    };
    let mut cfg = live_config(SystemKind::DLion, seed);
    cfg.duration = 1e9;
    cfg.eval_interval = 1e9;
    cfg.max_iters = Some(iters);
    cfg.gbs.adjust_period_secs = rounds_every * PINNED_ITER_SECS;
    let opts = LiveOpts {
        iters,
        eval_every: 0,
        bw_mbps: 50.0,
        assumed_iter_time: Some(PINNED_ITER_SECS),
        clock: Arc::new(ManualClock::new()),
        ..Default::default()
    };
    LiveSpec {
        cfg,
        n: 2,
        opts,
        kind: TransportKind::Tcp,
    }
}

/// The GBS trace the pinned training clock implies: one controller step at
/// every `r × adjust_period` the run's `iters × PINNED_ITER_SECS` reaches.
pub fn expected_gbs_trace(spec: &LiveSpec) -> Vec<(f64, usize)> {
    let cfg = &spec.cfg;
    let mut ctl = GbsController::new(cfg.initial_lbs * spec.n, cfg.workload.train_size, cfg.gbs);
    let period = cfg.gbs.adjust_period_secs;
    let horizon = spec.opts.iters as f64 * PINNED_ITER_SECS;
    let mut trace = Vec::new();
    let mut r = 1u64;
    // The driver opens round r once the training clock has passed
    // r × period, which the last iteration's own step does not.
    while (r as f64) * period < horizon - 1e-9 {
        if let Some(gbs) = ctl.maybe_adjust() {
            trace.push((r as f64 * period, gbs));
        }
        r += 1;
    }
    trace
}

/// What one live run produced, with its host times.
pub struct LiveRun {
    /// `build_cluster` + mesh establishment.
    pub setup_s: f64,
    /// Mesh establishment alone (part of `setup_s`).
    pub establish_s: f64,
    /// First worker thread spawned → last one joined.
    pub wall_s: f64,
    pub metrics: RunMetrics,
    /// Each rank's own GBS trace (the assembled metrics keep only one).
    pub gbs_traces: Vec<Vec<(f64, usize)>>,
    /// One per rank in a traced run, empty otherwise.
    pub traces: Vec<TransportTrace>,
}

/// Assemble the cluster (set-up) and run every rank to completion (timed).
pub fn run(
    make: impl FnOnce() -> LiveSpec,
    traced: bool,
    epoch: Instant,
) -> Result<LiveRun, String> {
    let t0 = Instant::now();
    let spec = make();
    let (cfg, n, opts) = (&spec.cfg, spec.n, &spec.opts);
    let ClusterInit {
        workers,
        data,
        eval_indices,
        schedule,
        total_params,
        bytes_per_param,
        prof_rng: _,
    } = build_cluster(cfg, n);
    let masks = link_masks(&schedule, cfg, opts, n);
    let t_mesh = Instant::now();
    let transports: Vec<Box<dyn ExchangeTransport>> = match spec.kind {
        TransportKind::Mem => dlion_core::mem_mesh(n)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn ExchangeTransport>)
            .collect(),
        TransportKind::Tcp => {
            let tcp_opts = TcpOpts {
                queue_cap: opts.queue_cap,
                establish_timeout: Duration::from_secs(30),
                peer_timeout: opts.peer_timeout,
                clock: Arc::clone(&opts.clock),
                // The program's own per-link histograms (an existing
                // option), read back through `link_health()`.
                instrument: traced,
                ranks: None,
            };
            loopback_mesh(n, cfg.seed, &tcp_opts, Some(&masks))
                .map_err(|e| format!("mesh: {e}"))?
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn ExchangeTransport>)
                .collect()
        }
    };
    let establish_s = t_mesh.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    type RankResult = (Result<WorkerOutcome, String>, Option<TransportTrace>);
    let results: Vec<RankResult> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(transports)
            .map(|(worker, transport)| {
                let env = WorkerEnv {
                    cfg,
                    opts,
                    data: &data,
                    eval_indices: &eval_indices,
                    schedule: Arc::clone(&schedule),
                    links: masks[worker.id].clone(),
                    total_params,
                    bytes_per_param,
                    clock: Arc::clone(&opts.clock),
                    env_label: "stackbench/live".to_string(),
                };
                s.spawn(move || {
                    if traced {
                        let mut timed = TimedTransport::new(transport, epoch);
                        let r = run_worker(worker, &env, &mut timed);
                        (r.map_err(|e| e.to_string()), Some(timed.finish()))
                    } else {
                        let mut transport = transport;
                        let r = run_worker(worker, &env, transport.as_mut());
                        (r.map_err(|e| e.to_string()), None)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Err("worker thread panicked".into()), None))
            })
            .collect()
    });
    let wall_s = t1.elapsed().as_secs_f64();

    let mut outcomes = Vec::with_capacity(n);
    let mut traces = Vec::new();
    for (r, t) in results {
        outcomes.push(r?);
        traces.extend(t);
    }
    outcomes.sort_by_key(|o| o.id);
    let gbs_traces = outcomes.iter().map(|o| o.gbs_trace.clone()).collect();
    let metrics = assemble_metrics(cfg, "stackbench/live", outcomes);
    Ok(LiveRun {
        setup_s,
        establish_s,
        wall_s,
        metrics,
        gbs_traces,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_clock_implies_the_speedup_schedule() {
        // 2 ranks × LBS 32 = 64 > warm-up cap 12 → geometric ×1.5 up to the
        // 10 % cap of 120, one step per 100 iterations.
        let spec = tcp_cell(1, Size::Full);
        assert_eq!(expected_gbs_trace(&spec), vec![(5.0, 96), (10.0, 120)]);
    }
}
