//! The live orchestrator — the one place a live run is assembled
//! (DESIGN.md §4m). [`LiveCluster`] builds the cluster once (through the
//! same [`build_cluster`] the simulator uses), places its ranks on hosts,
//! and runs the rank endpoints it is handed: every rank in this process
//! for [`run_live`] / [`run_live_virtual`], one host's ranks per OS
//! process for `dlion-worker`. The per-worker outcomes fold into the same
//! [`RunMetrics`] the simulator reports — so the report, CSV and
//! comparison tooling work unchanged on live runs.

use crate::control::RankHello;
use crate::driver::{run_worker, LiveOpts, WorkerEnv, WorkerOutcome};
use crate::tcp::{loopback_mesh, TcpOpts};
use crate::LiveError;
use dlion_core::cluster::ClusterInit;
use dlion_core::worker::Worker;
use dlion_core::{
    build_cluster, ExchangeTransport, HealthSummary, RunConfig, RunMetrics, SystemKind,
    TopologySchedule,
};
use dlion_microcloud::ClusterKind;
use std::ops::Range;
use std::sync::Arc;

/// Which wire the cluster runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Real TCP sockets on loopback (the default): one host link per
    /// host pair, `--virtual R` ranks per host.
    Tcp,
    /// In-process channels ([`dlion_core::mem_mesh`]) — same driver, no
    /// sockets; isolates "does parity hold?" from "does TCP work?". One
    /// process has no host link to share, so Mem is rank space whatever
    /// the placement.
    Mem,
}

/// A small-workload live configuration (mirrors `RunConfig::small_test`'s
/// dataset scale): live runs execute real SGD in real time, so the CLI and
/// CI default to a dataset a laptop chews through in seconds.
pub fn live_config(system: SystemKind, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper_default(system, ClusterKind::Cpu);
    cfg.workload.train_size = 1200;
    cfg.workload.test_size = 300;
    cfg.eval_subset = 100;
    cfg.dkt.period_iters = 20;
    cfg.seed = seed;
    cfg
}

/// Per-worker physical link masks for a run of `opts.iters` rounds: the
/// union of the schedule's per-round neighbor sets (so a ring cluster
/// holds two connections per worker, not `n-1`), widened back to the full
/// mesh whenever a blocking all-to-all control plane is active — dynamic
/// batching broadcasts RCPs to everyone, and a fault plan's Leave
/// announcements likewise assume every peer is reachable. (The health
/// plane sends nothing; it reports `frame_latency` per held link.)
/// Masks are symmetric (per-round neighbor sets are), so both endpoints
/// agree on whether a connection exists.
pub fn link_masks(
    schedule: &Arc<dyn TopologySchedule>,
    cfg: &RunConfig,
    opts: &LiveOpts,
    n: usize,
) -> Vec<Vec<bool>> {
    let all_to_all = cfg.system.dynamic_batching() || !cfg.fault.kills.is_empty();
    (0..n)
        .map(|w| {
            if all_to_all {
                (0..n).map(|j| j != w).collect()
            } else {
                schedule.union_links(w, opts.iters)
            }
        })
        .collect()
}

/// Static rank→host placement for a virtual-rank cluster (`--virtual R`):
/// ranks `[h·R, (h+1)·R)` on host `h`, the last host taking the
/// remainder. Every host computes the same placement, and nothing on the
/// wire changes it: its Hello blocks are what a TCP mesh routes by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLayout {
    n_ranks: usize,
    ranks_per_host: usize,
}

impl RankLayout {
    pub fn even(n_ranks: usize, ranks_per_host: usize) -> RankLayout {
        assert!(ranks_per_host > 0, "need at least one rank per host");
        RankLayout {
            n_ranks,
            ranks_per_host,
        }
    }

    pub fn ranks_per_host(&self) -> usize {
        self.ranks_per_host
    }

    pub fn n_hosts(&self) -> usize {
        self.n_ranks.div_ceil(self.ranks_per_host)
    }

    /// The host (OS process / host-mesh endpoint) `rank` lives on.
    pub fn host_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_host
    }

    /// The ranks homed on `host`, ascending.
    pub fn ranks_on(&self, host: usize) -> Range<usize> {
        let r = self.ranks_per_host;
        (host * r).min(self.n_ranks)..((host + 1) * r).min(self.n_ranks)
    }

    /// The per-host Hello rank blocks ([`TcpOpts::ranks`]).
    pub fn hello_blocks(&self) -> Vec<RankHello> {
        (0..self.n_hosts())
            .map(|h| {
                let ranks = self.ranks_on(h);
                RankHello {
                    base: ranks.start as u32,
                    count: ranks.len() as u32,
                    total: self.n_ranks as u32,
                }
            })
            .collect()
    }

    /// Collapse per-rank link masks into per-host ones: hosts `a` and
    /// `b` hold a physical link iff some rank pair across them does.
    /// Same-host pairs need no link (delivery is in-process).
    pub fn host_links(&self, rank_masks: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let hosts = self.n_hosts();
        let mut links = vec![vec![false; hosts]; hosts];
        for (i, row) in rank_masks.iter().enumerate() {
            for (j, &on) in row.iter().enumerate() {
                let (a, b) = (self.host_of(i), self.host_of(j));
                if on && a != b {
                    links[a][b] = true;
                    links[b][a] = true;
                }
            }
        }
        links
    }
}

/// One live run, assembled: what [`build_cluster`] returns for the
/// [`RunConfig`] plus the rank placement, the link masks, the execution
/// options and the run label. Every way of standing a live run up — all
/// hosts in this process ([`run_live_virtual`]) or one host per OS
/// process (`dlion-worker`) — is this struct plus rank endpoints.
pub struct LiveCluster<'a> {
    cfg: &'a RunConfig,
    opts: &'a LiveOpts,
    env_label: &'a str,
    layout: RankLayout,
    init: ClusterInit,
    /// Per-rank link masks ([`link_masks`]).
    masks: Vec<Vec<bool>>,
}

impl<'a> LiveCluster<'a> {
    /// Build the `n`-rank cluster (a pure function of `cfg`, so every
    /// process of a multi-process run builds the same one) and place it
    /// on hosts of `ranks_per_host` ranks each (`--virtual R`; the last
    /// host takes the remainder, `1` is one rank per host).
    pub fn new(
        cfg: &'a RunConfig,
        n: usize,
        ranks_per_host: usize,
        opts: &'a LiveOpts,
        env_label: &'a str,
    ) -> Result<LiveCluster<'a>, LiveError> {
        if ranks_per_host == 0 {
            return Err(LiveError::Protocol("--virtual must be at least 1".into()));
        }
        // (`init.prof_rng` goes unused: live profiling measures the real
        // wall clock, there is no noise to draw.)
        let init = build_cluster(cfg, n);
        let masks = link_masks(&init.schedule, cfg, opts, n);
        Ok(LiveCluster {
            cfg,
            opts,
            env_label,
            layout: RankLayout::even(n, ranks_per_host),
            init,
            masks,
        })
    }

    pub fn n_hosts(&self) -> usize {
        self.layout.n_hosts()
    }

    /// Which host pairs hold a physical link: the rank masks collapsed
    /// through the layout (on the flat plan, the rank masks themselves).
    /// Only these are dialed — topology is a connection-count saving,
    /// not just a send-count one. Every process computes the same
    /// symmetric masks, so both endpoints of a link agree it exists.
    pub fn host_links(&self) -> Vec<Vec<bool>> {
        self.layout.host_links(&self.masks)
    }

    /// The host-level TCP options this run needs.
    pub fn tcp_opts(&self) -> TcpOpts {
        let r = self.layout.ranks_per_host();
        TcpOpts {
            // A host link carries up to R×R rank pairs (a route marker
            // rides in its frame's job) — scale the per-link backpressure
            // budget accordingly.
            queue_cap: self.opts.queue_cap * r * r,
            establish_timeout: self.opts.stall_timeout,
            peer_timeout: self.opts.peer_timeout,
            clock: Arc::clone(&self.opts.clock),
            // The health plane wants per-link lifecycle latency; when it
            // is off the transport pays zero instrumentation cost.
            instrument: self.opts.health_interval.is_some(),
            // One rank per host is a flat mesh: every host announces
            // itself and no frame carries a route marker. The choice is
            // cluster-wide, not per host — both ends of every link must
            // make it the same way (a remainder host that happens to home
            // a single rank still routes).
            ranks: (r > 1).then(|| Arc::new(self.layout.hello_blocks())),
        }
    }

    fn env(&self, rank: usize) -> WorkerEnv<'_> {
        WorkerEnv {
            cfg: self.cfg,
            opts: self.opts,
            data: &self.init.data,
            eval_indices: &self.init.eval_indices,
            schedule: Arc::clone(&self.init.schedule),
            links: self.masks[rank].clone(),
            total_params: self.init.total_params,
            bytes_per_param: self.init.bytes_per_param,
            clock: Arc::clone(&self.opts.clock),
            env_label: self.env_label.to_string(),
        }
    }

    /// Run the rank of each endpoint to completion, each on its own
    /// thread: every rank for an in-process run, this host's for
    /// `dlion-worker`. Outcomes come back in endpoint order.
    pub fn run_ranks<T: ExchangeTransport>(
        mut self,
        endpoints: Vec<T>,
    ) -> Vec<Result<WorkerOutcome, LiveError>> {
        // This process's rank slots; every other worker stays behind.
        let mut slots: Vec<Option<Worker>> = std::mem::take(&mut self.init.workers)
            .into_iter()
            .map(Some)
            .collect();
        let cluster = &self;
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|mut endpoint| {
                    let rank = endpoint.me();
                    let worker = slots[rank].take().expect("rank hosted once");
                    let env = cluster.env(rank);
                    s.spawn(move || run_worker(worker, &env, &mut endpoint))
                })
                .collect();
            let panicked = |_| Err(LiveError::Protocol("worker thread panicked".into()));
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(panicked))
                .collect()
        })
    }
}

/// Run `n` live workers, one per transport endpoint, to completion and
/// return the assembled metrics: [`run_live_virtual`] with one rank per
/// host. `env_label` names the run in reports and telemetry (e.g.
/// `live/3w`).
pub fn run_live(
    cfg: &RunConfig,
    n: usize,
    opts: &LiveOpts,
    kind: TransportKind,
    env_label: &str,
) -> Result<RunMetrics, LiveError> {
    run_live_virtual(cfg, n, 1, opts, kind, env_label)
}

/// Run `n` ranks placed on `ceil(n / ranks_per_host)` in-process hosts —
/// e.g. a 64-rank cluster on 4 hosts' worth of TCP links. Every rank runs
/// the full [`run_worker`] driver on its own thread over its own endpoint;
/// on TCP a host's ranks share its links (see [`crate::tcp`]), on Mem
/// every rank has its own channels. Under strict BSP the result is
/// bit-identical whatever the placement and transport, and to the
/// simulator.
pub fn run_live_virtual(
    cfg: &RunConfig,
    n: usize,
    ranks_per_host: usize,
    opts: &LiveOpts,
    kind: TransportKind,
    env_label: &str,
) -> Result<RunMetrics, LiveError> {
    let cluster = LiveCluster::new(cfg, n, ranks_per_host, opts, env_label)?;
    let outcomes = match kind {
        TransportKind::Mem => cluster.run_ranks(dlion_core::mem_mesh(n)),
        TransportKind::Tcp => {
            let (tcp_opts, links) = (cluster.tcp_opts(), cluster.host_links());
            let endpoints = loopback_mesh(cluster.n_hosts(), cfg.seed, &tcp_opts, Some(&links))?;
            cluster.run_ranks(endpoints)
        }
    };
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(assemble_metrics(cfg, env_label, outcomes))
}

/// Fold per-worker outcomes into the simulator's [`RunMetrics`] shape.
/// Times are wall seconds since the cluster epoch; byte counts are exact
/// encoded frame lengths.
pub fn assemble_metrics(
    cfg: &RunConfig,
    env_label: &str,
    mut outcomes: Vec<WorkerOutcome>,
) -> RunMetrics {
    outcomes.sort_by_key(|o| o.id);
    let n = outcomes.len();
    let mut m = RunMetrics {
        system: cfg.system.name(),
        env: env_label.to_string(),
        seed: cfg.seed,
        iterations: outcomes.iter().map(|o| o.iterations).collect(),
        busy_time: outcomes.iter().map(|o| o.busy_secs).collect(),
        ..Default::default()
    };
    m.duration = outcomes.iter().map(|o| o.wall_secs).fold(0.0, f64::max);
    for o in &outcomes {
        m.grad_bytes += o.grad_bytes;
        m.weight_bytes += o.weight_bytes;
        m.control_bytes += o.control_bytes;
        m.dkt_merges += o.dkt_merges;
        for (label, bytes) in &o.wire_bytes_by_kind {
            *m.wire_bytes_by_kind.entry(label.clone()).or_insert(0.0) += bytes;
        }
    }
    // The GBS/LBS trajectory is cluster-wide state every member records
    // identically (nominal round times, agreed partitions), so any one
    // full member's copy is *the* trace — take the first worker that
    // finished the run.
    if let Some(rep) = outcomes.iter().find(|o| !o.departed) {
        m.gbs_trace = rep.gbs_trace.clone();
        m.lbs_trace = rep.lbs_trace.clone();
    }
    // Evaluation points are per-iteration-count, identical across the
    // workers that finished (same `iters`/`eval_every` plus the final
    // eval); a row's time is the latest worker's wall clock at that
    // point. Departed workers report no evaluations and are excluded —
    // convergence metrics describe the surviving membership.
    let survivors: Vec<&WorkerOutcome> = outcomes.iter().filter(|o| !o.departed).collect();
    let rows = survivors.iter().map(|o| o.evals.len()).min().unwrap_or(0);
    for e in 0..rows {
        let t = survivors
            .iter()
            .map(|o| o.evals[e].wall)
            .fold(0.0, f64::max);
        m.eval_times.push(t);
        m.worker_acc
            .push(survivors.iter().map(|o| o.evals[e].accuracy).collect());
        m.worker_loss
            .push(survivors.iter().map(|o| o.evals[e].loss).collect());
    }
    if cfg.capture_weights {
        m.final_weights = outcomes
            .iter_mut()
            .map(|o| o.final_weights.take().unwrap_or_default())
            .collect();
    }
    // Cluster health verdict (the orchestrator side of the health plane):
    // rates on the *training clock* and who departed. All inputs are
    // deterministic under a pinned iteration time, so this summary —
    // unlike wall-clock durations — is bit-comparable across repeat runs
    // and across Mem vs TCP transports.
    let train_secs: Vec<f64> = outcomes.iter().map(|o| o.train_secs).collect();
    let departed = outcomes.iter().map(|o| o.departed).collect();
    let reports = outcomes.iter().map(|o| o.health_rounds).collect();
    m.health = HealthSummary::of_run(&m.iterations, &train_secs, departed, reports);
    // With health reporting on, trace the verdict at the cluster's final
    // training-clock time, so sim and live health traces line up.
    if outcomes.iter().any(|o| o.health_rounds > 0) {
        let _scope = dlion_telemetry::run_scope(&m.system, env_label, cfg.seed);
        let vt = train_secs.iter().copied().fold(0.0, f64::max);
        m.health.trace(vt, &m.iterations);
    }
    if cfg.telemetry {
        let tm = &mut m.telemetry;
        for o in &outcomes {
            tm.add("msgs_sent", o.msgs_sent);
            tm.add("msgs_recv", o.msgs_recv);
            tm.add(
                "bytes_sent",
                (o.grad_bytes + o.weight_bytes + o.control_bytes) as u64,
            );
            tm.add("net_overhead_bytes", o.net_overhead_bytes as u64);
            tm.add("dkt_merges", o.dkt_merges);
            tm.observe("worker_busy_secs", o.busy_secs);
        }
        // Cluster-wide controller activity is counted once, like the
        // simulator's — not once per worker.
        tm.add("gbs_adjusts", m.gbs_trace.len() as u64);
        tm.add("lbs_repartitions", m.lbs_trace.len() as u64);
        tm.gauge_max("workers", n as f64);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::EvalPoint;

    fn outcome(id: usize) -> WorkerOutcome {
        WorkerOutcome {
            id,
            iterations: 10,
            busy_secs: 1.0 + id as f64,
            wall_secs: 5.0 + id as f64,
            msgs_sent: 20,
            msgs_recv: 20,
            grad_bytes: 1000.0,
            weight_bytes: 0.0,
            control_bytes: 50.0,
            net_overhead_bytes: 200.0,
            dkt_merges: 1,
            departed: false,
            evals: vec![EvalPoint {
                iteration: 10,
                wall: 4.0 + id as f64,
                accuracy: 0.5,
                loss: 1.0,
            }],
            gbs_trace: vec![(0.25, 160)],
            lbs_trace: vec![(0.0, vec![32, 32]), (0.25, vec![80, 80])],
            wire_bytes_by_kind: [
                ("grad_dense".to_string(), 1000.0),
                ("control".to_string(), 50.0),
            ]
            .into_iter()
            .collect(),
            train_secs: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn layout_even_splits_and_collapses_links() {
        let l = RankLayout::even(8, 4);
        assert_eq!(l.n_hosts(), 2);
        assert_eq!(l.ranks_on(1), 4..8);
        assert_eq!(l.host_of(5), 1);
        let blocks = l.hello_blocks();
        assert_eq!(blocks[1].base, 4);
        assert_eq!(blocks[1].count, 4);
        assert_eq!(blocks[1].total, 8);
        // Remainder layout: 5 ranks over 2-per-host = 3 hosts.
        let l = RankLayout::even(5, 2);
        assert_eq!(l.n_hosts(), 3);
        assert_eq!(l.ranks_on(2), 4..5);
        assert_eq!(l.hello_blocks()[2].count, 1);

        // A ring over 4 ranks on 2 hosts: ranks 1↔2 cross hosts, so the
        // hosts hold one link; rank 0↔1 stays in-process.
        let l = RankLayout::even(4, 2);
        let mut masks = vec![vec![false; 4]; 4];
        for r in 0..4 {
            masks[r][(r + 1) % 4] = true;
            masks[(r + 1) % 4][r] = true;
        }
        let host = l.host_links(&masks);
        assert!(host[0][1] && host[1][0]);
        assert!(!host[0][0] && !host[1][1]);
    }

    #[test]
    fn host_tcp_opts_scale_the_queue_and_announce_ranks_only_when_multiplexed() {
        let cfg = live_config(SystemKind::Baseline, 1);
        let opts = LiveOpts::default();
        let t = LiveCluster::new(&cfg, 4, 1, &opts, "t").unwrap().tcp_opts();
        assert_eq!(t.queue_cap, opts.queue_cap);
        assert!(t.ranks.is_none(), "flat runs announce the identity block");
        let cluster = LiveCluster::new(&cfg, 4, 2, &opts, "t").unwrap();
        let t = cluster.tcp_opts();
        assert_eq!(t.queue_cap, 4 * opts.queue_cap, "R = 2: R x R pairs");
        assert_eq!(t.ranks.expect("ranked hello").len(), cluster.n_hosts());
        // A remainder host homing a single rank still routes: its peers
        // send route markers, and its rank id is not its host id.
        let uneven = LiveCluster::new(&cfg, 3, 2, &opts, "t").unwrap().tcp_opts();
        assert_eq!(uneven.ranks.expect("ranked hello")[1].count, 1);
        // Bad placements are refused up front.
        assert!(LiveCluster::new(&cfg, 4, 0, &opts, "t").is_err());
    }

    /// The health plane sends no frame, so it holds no link the
    /// schedule does not: a sparse topology stays sparse with it on.
    #[test]
    fn the_health_plane_does_not_widen_the_link_masks() {
        let mut cfg = live_config(SystemKind::Baseline, 1);
        cfg.topology = dlion_core::Topology::KRegular { k: 2 };
        let opts = LiveOpts {
            iters: 1,
            health_interval: Some(0.2),
            ..LiveOpts::default()
        };
        let n = 6;
        let schedule = build_cluster(&cfg, n).schedule;
        let masks = link_masks(&schedule, &cfg, &opts, n);
        for (w, mask) in masks.iter().enumerate() {
            assert_eq!(mask, &schedule.union_links(w, opts.iters), "worker {w}");
        }
        assert!(masks[0].iter().filter(|&&on| on).count() < n - 1);
    }

    #[test]
    fn metrics_assembly_sums_and_orders() {
        let cfg = live_config(SystemKind::Baseline, 1);
        // Out-of-order outcomes must land in id order.
        let m = assemble_metrics(&cfg, "live/2w", vec![outcome(1), outcome(0)]);
        assert_eq!(m.iterations, vec![10, 10]);
        assert_eq!(m.busy_time, vec![1.0, 2.0]);
        assert_eq!(m.grad_bytes, 2000.0);
        assert_eq!(m.control_bytes, 100.0);
        assert_eq!(m.dkt_merges, 2);
        assert_eq!(m.duration, 6.0);
        assert_eq!(m.eval_times, vec![5.0]);
        assert_eq!(m.worker_acc, vec![vec![0.5, 0.5]]);
        assert_eq!(m.env, "live/2w");
        // Cluster-wide trajectory: one representative copy, not a sum.
        assert_eq!(m.gbs_trace, vec![(0.25, 160)]);
        assert_eq!(m.lbs_trace.len(), 2);
        assert_eq!(m.wire_bytes_by_kind.get("grad_dense"), Some(&2000.0));
        assert_eq!(m.wire_bytes_by_kind.get("control"), Some(&100.0));
        assert!(m.telemetry.is_empty());
    }

    #[test]
    fn departed_workers_excluded_from_eval_rows() {
        let cfg = live_config(SystemKind::Baseline, 1);
        let mut dead = outcome(1);
        dead.departed = true;
        dead.evals.clear(); // a departed worker reports no evaluations
        let m = assemble_metrics(&cfg, "live/3w", vec![outcome(0), dead, outcome(2)]);
        // Eval rows cover survivors only — the empty departed outcome
        // must not zero them out.
        assert_eq!(m.eval_times.len(), 1);
        assert_eq!(m.worker_acc, vec![vec![0.5, 0.5]]);
        // Per-worker scalar columns still cover everyone.
        assert_eq!(m.iterations.len(), 3);
    }

    #[test]
    fn health_summary_scores_rates_and_records_departures() {
        let cfg = live_config(SystemKind::Baseline, 1);
        let mut slow = outcome(2);
        slow.train_secs = 1.5; // rate 6.67 vs the others' 20
        let mut reporter = outcome(0);
        reporter.health_rounds = 5;
        let mut gone = outcome(1);
        gone.departed = true;
        let m = assemble_metrics(&cfg, "live/3w", vec![reporter, gone, slow]);
        assert_eq!(m.health.straggler, 2);
        assert!((m.health.straggler_score - 3.0).abs() < 1e-12);
        assert!((m.health.rates[0] - 20.0).abs() < 1e-12);
        assert_eq!(m.health.departed, vec![false, true, false]);
        assert_eq!(m.health.reports, vec![5, 0, 0]);
    }

    #[test]
    fn telemetry_aggregation_when_enabled() {
        let mut cfg = live_config(SystemKind::Baseline, 1);
        cfg.telemetry = true;
        let m = assemble_metrics(&cfg, "live/2w", vec![outcome(0), outcome(1)]);
        assert_eq!(m.telemetry.counter("msgs_sent"), 40);
        assert_eq!(m.telemetry.counter("net_overhead_bytes"), 400);
        assert_eq!(m.telemetry.counter("gbs_adjusts"), 1);
        assert_eq!(m.telemetry.counter("lbs_repartitions"), 2);
    }
}
