//! The cluster runner: the discrete-event backend of the rank protocol.
//!
//! The per-worker workflow of Figure 4/10 — weighted self-update, per-link
//! fan-out, peer-gradient apply, strict-BSP flush, DKT, the planned kill —
//! is [`crate::round`]; this file decides *when* each step happens in
//! virtual time and turns the round's [`Action`]s into events. It owns the
//! event queue, the compute and network models, what a send costs, a
//! paused worker's resume and evaluation; each rank's record of its run is
//! its own ([`crate::record`]), and the run's [`RunMetrics`] are their fold
//! ([`assemble_metrics`]), as on the live backend. The batching plane is
//! each rank's own [`crate::gbs::Batching`], as on the live backend
//! (DESIGN.md §4n): a rank between iterations opens the control round due
//! at the virtual time, profiles its own RCP off the compute model and
//! sends it to its peers as a [`Notice`] through the network model, and
//! waits for theirs. Virtual time advances only through the event queue,
//! so runs are fully deterministic for a given seed.
//!
//! Host time is another matter: a worker's gradients *complete* at the
//! simulated time the compute model dictates, and are computed on the host
//! anywhere between — spawned at `start_iteration` as a job on
//! [`dlion_tensor::par`], joined at first need ([`ClusterRunner::join`]
//! lists the join points), so the simulated workers' forward/backward
//! passes overlap each other and the event loop (DESIGN.md §4b). A join's
//! place in the event order is fixed; only which thread ran the job is not,
//! and no number depends on that. The thread running this file schedules:
//! every gradient step is such a job, traced or not, the first on a cold
//! arena included; the weight updates — the own update and every
//! peer gradient — wait in the worker's update log and are settled by the
//! model's next user, normally that job (or an evaluation job); and what
//! the loop itself computes per round — Max N planning and one selection
//! per distinct link budget (`strategy/dlion.rs`) — is kept small. At a
//! join it lends a hand with its own queued jobs rather than sleep.

use crate::cluster::build_cluster;
use crate::config::{ConvergenceCfg, RunConfig};
use crate::gbs::Notice;
use crate::lbs::{compute_rcp, PROFILE_LBS};
use crate::messages::{
    apply_wire_format, trace_wire_bytes, wire_slot, GradData, Payload, WireCfg, WireFormat,
    DEFAULT_CHUNK_BYTES, WIRE_LABELS,
};
use crate::metrics::{LinkSample, RunMetrics};
use crate::record::assemble_metrics;
use crate::round::{Action, Effect};
use crate::worker::{PendingIteration, Worker};
use dlion_microcloud::EnvId;
use dlion_nn::Dataset;
use dlion_simnet::{ComputeModel, EventQueue, NetworkModel};
use dlion_telemetry::{debug, event, profile_scope, Phase, Registry};
use dlion_tensor::DetRng;
use std::sync::Arc;

/// Simulation events.
enum Ev {
    /// A worker's gradient computation completed.
    IterDone { w: usize },
    /// A message arrived at `to` (and, for gradients, its delivery also
    /// unblocks the sender under `BlockOnDelivery`).
    Msg {
        from: usize,
        to: usize,
        payload: Payload,
    },
    /// A batching notice (an RCP or a Done) arrived at `to`.
    Notice {
        from: usize,
        to: usize,
        notice: Notice,
    },
    /// Periodic cluster-wide accuracy evaluation.
    EvalTick,
    /// A paused worker (rejoining kill) comes back.
    Resume { w: usize },
}

/// A fully-wired simulated cluster.
pub struct ClusterRunner {
    cfg: RunConfig,
    n: usize,
    workers: Vec<Worker>,
    net: NetworkModel,
    compute: ComputeModel,
    queue: EventQueue<Ev>,
    /// Shared with the gradient and evaluation jobs out on the pool.
    data: Arc<Dataset>,
    eval_indices: Arc<[usize]>,
    env: String,
    /// What only the event loop sees: events, queue depths, step and
    /// transfer times (when `cfg.telemetry` is on), and the sampled links.
    telemetry: Registry,
    link_trace: Vec<LinkSample>,
    /// `(time, mean accuracy of the ranks still in the run)` per
    /// evaluation tick — a rank that departs later counts until it does:
    /// the `eval` row and Fig. 21's stopping rule.
    evals: Vec<(f64, f64)>,
    prof_rng: DetRng,
    bytes_per_param: f64,
    total_params: usize,
    /// IterDone, Msg and Notice events still in the queue — lets
    /// `max_iters` runs end exactly when all work (including in-flight
    /// messages) has drained.
    inflight: usize,
    /// True while a rejoining worker sits out its dead time.
    paused: Vec<bool>,
}

impl ClusterRunner {
    /// Build a cluster over explicit compute/network models.
    pub fn new(cfg: RunConfig, compute: ComputeModel, net: NetworkModel, env_name: &str) -> Self {
        let n = compute.n();
        assert_eq!(net.n(), n, "compute/network worker counts differ");
        // Shared (backend-independent) construction: workers, dataset,
        // shards, neighbor sets — identical to what the live backend builds.
        let init = build_cluster(&cfg, n);

        if !cfg.fault.is_empty() {
            cfg.fault
                .validate(n, cfg.max_iters.unwrap_or(u64::MAX))
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        }

        ClusterRunner {
            prof_rng: init.prof_rng,
            cfg,
            n,
            workers: init.workers,
            net,
            compute,
            queue: EventQueue::new(),
            data: Arc::new(init.data),
            eval_indices: init.eval_indices.into(),
            env: env_name.to_string(),
            telemetry: Registry::default(),
            link_trace: Vec::new(),
            evals: Vec::new(),
            bytes_per_param: init.bytes_per_param,
            total_params: init.total_params,
            inflight: 0,
            paused: vec![false; n],
        }
    }

    /// Visit every worker mutably before [`ClusterRunner::run`] — the hook
    /// for installing custom [`crate::strategy::ExchangeStrategy`] plugins
    /// (see the `custom_strategy` example).
    pub fn for_each_worker(&mut self, f: impl FnMut(&mut Worker)) {
        self.workers.iter_mut().for_each(f);
    }

    /// Run the simulation to completion and return its metrics: the fold
    /// of the ranks' records, plus what only the simulator has.
    pub fn run(mut self) -> RunMetrics {
        // All trace records emitted from this thread until `_run_scope`
        // drops carry this run's {system, env, seed} identity and draw from
        // a fresh deterministic per-run sequence counter.
        let system = self.cfg.system.name();
        let _run_scope = dlion_telemetry::run_scope(&system, &self.env, self.cfg.seed);
        let (end_time, converged) = self.simulate();
        // Strict BSP parks peer gradients until the next round start; at
        // the end of the run there is no next round, so flush the
        // remainder into the update log in the same canonical order before
        // the final evaluation — the live driver's shutdown flush does the
        // same. An iteration still computing when the run ends is joined
        // first. The evaluation jobs apply the update logs, not this
        // thread; every rank's end-of-run take follows, as the live
        // driver's.
        for w in 0..self.n {
            self.join(w);
            if !self.workers[w].departed() {
                self.workers[w].flush_parked(true);
            }
        }
        if self.evals.last().is_none_or(|&(t, _)| t < end_time) {
            self.eval_all(end_time);
        }
        let capture = self.cfg.capture_weights;
        let records = self.workers.iter_mut().map(|worker| {
            let mut record = worker.take_record(capture);
            // Virtual time is the rank's training clock: it computes for
            // exactly its steps.
            (record.wall_secs, record.busy_secs) = (end_time, record.train_secs);
            record
        });
        let mut m = assemble_metrics(&self.cfg, &self.env, records.collect());
        m.converged_at = converged.then_some(end_time);
        m.link_trace = self.link_trace;
        if self.cfg.telemetry {
            self.telemetry
                .gauge_max("queue_peak", self.queue.peak_len() as f64);
            m.telemetry.absorb(self.telemetry);
        }
        let by_label = |l| m.wire_bytes_by_kind.get(l).copied().unwrap_or(0.0);
        trace_wire_bytes(end_time, None, WIRE_LABELS.map(by_label));
        // Cluster health verdict (DESIGN.md §4h), at the virtual end time.
        m.health.trace(end_time, &m.iterations);
        event!(end_time, "run_end";
            "iterations" => m.total_iterations(),
            "grad_bytes" => m.grad_bytes,
            "final_acc" => m.final_mean_acc(),
            "converged" => converged);
        debug!(target: "core.runner", "run end: {} iterations, final acc {:.4}",
            m.total_iterations(), m.final_mean_acc());
        m
    }

    /// The event loop, from the start-up round to the end of the run;
    /// returns the virtual end time and whether the convergence detector
    /// ended the run.
    fn simulate(&mut self) -> (f64, bool) {
        event!(0.0, "run_start";
            "workers" => self.n,
            "duration" => self.cfg.duration,
            "params" => self.total_params,
            "initial_lbs" => self.cfg.initial_lbs);
        debug!(target: "core.runner", "run start: {} on {} (seed {}, {} workers)",
            self.cfg.system.name(), self.env, self.cfg.seed, self.n);
        // A batching rank opens round 0 first: "the LBS controller is
        // invoked to profile the compute capacity of workers" before
        // training starts.
        for w in 0..self.n {
            self.try_start(w, 0.0);
        }
        self.queue.schedule(self.cfg.eval_interval, Ev::EvalTick);
        loop {
            let popped = {
                let _eq = profile_scope(Phase::EventQueue);
                self.queue.pop()
            };
            let Some((t, ev)) = popped else { break };
            if t > self.cfg.duration {
                break;
            }
            if self.cfg.telemetry {
                self.telemetry
                    .gauge_max("queue_depth", self.queue.len() as f64);
                self.telemetry.inc("events");
            }
            if matches!(ev, Ev::IterDone { .. } | Ev::Msg { .. } | Ev::Notice { .. }) {
                self.inflight -= 1;
            }
            match ev {
                Ev::IterDone { w } => self.on_iter_done(w, t),
                Ev::Msg { from, to, payload } => self.on_msg(from, to, payload, t),
                Ev::Notice { from, to, notice } => {
                    // A rank between iterations may be waiting on it.
                    self.workers[to].batching.on_notice(from, notice);
                    self.try_start(to, t);
                }
                Ev::Resume { w } => {
                    self.paused[w] = false;
                    event!(t, w: w, "rejoin"; "iter" => self.workers[w].iteration);
                    self.try_start(w, t);
                }
                Ev::EvalTick => {
                    self.eval_all(t);
                    if self
                        .cfg
                        .converge
                        .is_some_and(|cv| converged(&self.evals, &cv, t))
                    {
                        return (t, true);
                    }
                    self.queue
                        .schedule(t + self.cfg.eval_interval, Ev::EvalTick);
                }
            }
            if self.max_iters_done() {
                return (t, false);
            }
        }
        (self.cfg.duration, false)
    }

    // ------------------------------------------------------------ events

    fn start_iteration(&mut self, w: usize, now: f64) {
        // Strict BSP logs the previous round's parked peer gradients here,
        // so the step below applies them and its forward pass sees the
        // same model the live driver computes on.
        let worker = &mut self.workers[w];
        worker.flush_parked(false);
        worker.waiting = false;
        worker.sample_batch_reuse();
        // The gradients go out as a pool job: this thread schedules, it
        // does not compute.
        worker.spawn_grads(&self.data, self.cfg.grad_clip);
        // The straggle factor multiplies the modelled iteration time — the
        // same place the live driver multiplies its assumed time — so
        // `cluster_health` rates (iterations / busy seconds) bit-match a
        // pinned-time live run's.
        let dt = self.compute.iter_time(w, worker.lbs, now) * self.cfg.straggle_of(w);
        worker.last_iter_time = dt;
        if self.cfg.telemetry {
            self.telemetry.observe("iter_secs", dt);
        }
        self.inflight += 1;
        self.queue.schedule(now + dt, Ev::IterDone { w });
    }

    /// Bring worker `w`'s gradient job home, if one is out: from here on
    /// its model, gradients and arena are where the eager computation
    /// would have left them, up to the updates still in its log. Called
    /// wherever they are first needed — `on_iter_done(w)`, a DKT request
    /// for or a weight merge into `w`'s model, an LBS change (it resets
    /// the arena), evaluation, the end of the run. A peer gradient
    /// reaching `w` is *not* a join point: it joins the update log
    /// ([`Worker::on_payload`]).
    fn join(&mut self, w: usize) {
        if let Some(loss) = self.workers[w].join_grads() {
            if self.cfg.telemetry {
                self.telemetry.observe("loss", loss);
            }
        }
    }

    /// Has worker `w` completed the configured iteration cap (if any)?
    fn reached_max_iters(&self, w: usize) -> bool {
        self.cfg
            .max_iters
            .is_some_and(|k| self.workers[w].iteration >= k)
    }

    /// Under `max_iters`, the run ends once every worker reached the cap,
    /// none is mid-computation, and all messages have been delivered.
    fn max_iters_done(&self) -> bool {
        let Some(k) = self.cfg.max_iters else {
            return false;
        };
        self.inflight == 0
            && (0..self.n).all(|w| {
                let worker = &self.workers[w];
                (worker.iteration >= k || worker.departed()) && worker.pending.is_none()
            })
    }

    fn on_iter_done(&mut self, w: usize, now: f64) {
        self.join(w);
        let worker = &mut self.workers[w];
        let Some(PendingIteration::Done { loss }) = worker.pending.take() else {
            panic!("IterDone without pending gradients");
        };
        // A step counts as busy time once it completes (`complete_round`
        // adds it to the record), so a step still in flight when the run
        // ends is not charged: Σ `iter_done.dt` is `busy_time[w]`, bit for
        // bit.
        let net = &self.net;
        let actions = worker.complete_round(loss, now, |j| net.bandwidth_mbps(w, j, now));
        let mut shared_loss = false;
        for action in actions {
            match action {
                Action::Send(to, payload) => {
                    if let Payload::Grad(msg) = &payload {
                        if self.cfg.telemetry {
                            self.telemetry.inc("strategy_updates");
                        }
                        if self.cfg.trace_links {
                            self.link_trace.push(LinkSample {
                                time: now,
                                src: w,
                                dst: to,
                                bytes: msg.wire_bytes(self.bytes_per_param, self.total_params),
                                entries: msg.entries(),
                                n_used: msg.n_used,
                            });
                        }
                    }
                    shared_loss |= matches!(payload, Payload::LossShare { .. });
                    // A Leave goes through the modelled links: egress is
                    // serialized per sender and the queue is FIFO at equal
                    // timestamps, so it never overtakes the victim's last
                    // gradients — the live backend's per-peer FIFO.
                    self.send(w, to, payload, now);
                }
                // Every rank's departures exclude it from here on.
                Action::Depart => {}
                // A paused worker stays a member and keeps receiving.
                Action::Pause(secs) => {
                    self.paused[w] = true;
                    self.queue.schedule(now + secs, Ev::Resume { w });
                }
            }
        }
        if shared_loss && self.cfg.telemetry {
            self.telemetry.inc("dkt_rounds");
        }
        self.try_start(w, now);
    }

    fn on_msg(&mut self, from: usize, to: usize, payload: Payload, now: f64) {
        // Gradient delivery unblocks the sender under BlockOnDelivery.
        if matches!(payload, Payload::Grad(_)) {
            self.workers[from].sync.on_delivered_from(to);
            if self.workers[from].waiting {
                self.try_start(from, now);
            }
        }
        // A message in flight when its recipient departed: the sender gets
        // its delivery credit (above), the payload goes nowhere.
        if self.workers[to].departed() {
            return;
        }
        // A pull of, or a merge into, the model needs it home.
        if matches!(payload, Payload::DktRequest | Payload::Weights { .. }) {
            self.join(to);
        }
        // Only a gradient or a demotion can open a blocked gate.
        let regate = match self.workers[to].on_payload(from, payload, now) {
            Effect::Logged => true,
            Effect::Noted | Effect::Merged(_) => false,
            Effect::Reply(reply) => {
                self.send(to, from, reply, now);
                false
            }
            Effect::Departed { completed } => {
                // The victim's departure notice arrived — only now does
                // this worker demote it. Arriving per-link FIFO behind the
                // victim's last gradients, the demotion can never cost a
                // round its gradients — the live backend's ordering.
                self.workers[to].demote_peer(from, Some(completed), now);
                true
            }
        };
        if regate && self.workers[to].waiting {
            self.try_start(to, now);
        }
    }

    /// Put a payload on the wire, price it in the sender's record (the
    /// network model's bytes by kind, the exact encoded length by wire
    /// label) and schedule its arrival.
    fn send(&mut self, from: usize, to: usize, mut payload: Payload, now: f64) {
        // Lossy wire formats change the numbers the receiver trains on:
        // apply them here, exactly where the live codec quantizes, so a
        // sim run and a live run see the same gradients.
        apply_wire_format(&mut payload, self.cfg.wire);
        let scale = wire_byte_scale(&payload, self.cfg.wire);
        let bytes = scale * payload.wire_bytes(self.bytes_per_param, self.total_params);
        let encoded = payload.wire_len(&WireCfg {
            format: self.cfg.wire,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }) as f64;
        let slot = wire_slot(&payload, self.cfg.wire);
        let record = &mut self.workers[from].record;
        record.sent(payload.kind(), slot, bytes, encoded);
        let t = self.net.transfer(from, to, bytes, now);
        event!(now, w: from, "send";
            "to" => to,
            "kind" => payload.kind(),
            "bytes" => bytes,
            "arrival" => t.arrival);
        if self.cfg.telemetry {
            self.telemetry.observe("msg_bytes", bytes);
            self.telemetry.observe("transfer_secs", t.arrival - now);
        }
        self.inflight += 1;
        self.queue
            .schedule(t.arrival, Ev::Msg { from, to, payload });
    }

    /// Between iterations: run the batching plane — the rank's RCP for a
    /// round due at `now` profiled off the compute model — then start the
    /// next iteration if no collect is open and the sync policy allows;
    /// otherwise mark the worker as waiting. A finished rank tells its
    /// peers, so no collect awaits it.
    fn try_start(&mut self, w: usize, now: f64) {
        if self.workers[w].departed() || self.paused[w] || self.workers[w].pending.is_some() {
            return;
        }
        let (compute, rng, noise) = (&self.compute, &mut self.prof_rng, self.cfg.profile_noise);
        let rcp = || compute_rcp(&compute.profile(w, &PROFILE_LBS, now, noise, rng));
        let worker = &mut self.workers[w];
        let (sends, open) = worker.batching_step(now, now, false, rcp);
        worker.waiting = open;
        let done = !open && self.reached_max_iters(w) && self.workers[w].batching.finish(w);
        let dones = (0..self.n).filter(|&j| done && self.workers[w].awaits_rcp(j));
        let dones: Vec<_> = dones.map(|j| (j, Notice::Done)).collect();
        for (to, notice) in sends.into_iter().chain(dones) {
            // A net-control frame: no `send` row, no byte ledger entry.
            let bytes = notice.wire_len() as f64;
            let arrival = self.net.transfer_control(w, to, bytes, now).arrival;
            self.inflight += 1;
            let ev = Ev::Notice {
                from: w,
                to,
                notice,
            };
            self.queue.schedule(arrival, ev);
        }
        if open || self.reached_max_iters(w) {
            return;
        }
        let worker = &mut self.workers[w];
        let policy = worker.strategy.sync_policy();
        if worker.sync.can_start(policy, worker.iteration) {
            self.start_iteration(w, now);
        } else {
            worker.waiting = true;
        }
    }

    fn eval_all(&mut self, now: f64) {
        // Evaluation sees every model as the event order left it — its
        // update log applied, inside the job — and fans out over the same
        // pool ([`Worker::spawn_eval`]). A departed worker is gone; like
        // the live collector, it is evaluated no more.
        let jobs: Vec<_> = (0..self.n)
            .map(|w| {
                self.join(w);
                (!self.workers[w].departed())
                    .then(|| self.workers[w].spawn_eval(&self.data, &self.eval_indices))
            })
            .collect();
        let mut alive = Vec::with_capacity(self.n);
        for (worker, job) in self.workers.iter_mut().zip(jobs) {
            if let Some(job) = job {
                let r = worker.join_eval(job);
                alive.push(worker.push_eval(now, r).accuracy);
            }
        }
        let mean = dlion_tensor::stats::mean(&alive);
        event!(now, "eval"; "mean_acc" => mean);
        debug!(target: "core.eval", "t={now:.1}: mean acc {mean:.4}");
        if self.cfg.telemetry {
            self.telemetry.inc("evals");
            self.telemetry.gauge_max("best_mean_acc", mean);
        }
        self.evals.push((now, mean));
    }
}

/// Fig. 21's stopping rule over the per-tick means of the ranks still in
/// the run (`ClusterRunner::evals`): past
/// `min_secs`, with the best mean accuracy up by less than
/// `min_improvement` over the last `window_secs`.
fn converged(evals: &[(f64, f64)], cv: &ConvergenceCfg, now: f64) -> bool {
    // `evals` is in time order: the evaluations up to the cutoff are a prefix.
    let before = evals.partition_point(|&(t, _)| t <= now - cv.window_secs);
    let best = |es: &[(f64, f64)]| es.iter().map(|&(_, acc)| acc).fold(0.0, f64::max);
    now >= cv.min_secs && before > 0 && best(evals) - best(&evals[..before]) < cv.min_improvement
}

/// Virtual-network byte scale for a payload under a wire format: the
/// network model prices a dense gradient at `bytes_per_param` (f32), so
/// fp16 halves its transfer and int8 quarters it. Sparse gradients,
/// weights and control payloads are unaffected — they always travel
/// full-precision.
fn wire_byte_scale(payload: &Payload, format: WireFormat) -> f64 {
    let dense = matches!(payload, Payload::Grad(g) if matches!(g.data, GradData::Dense(_)));
    match format {
        WireFormat::Fp16 if dense => 0.5,
        WireFormat::Int8 if dense => 0.25,
        _ => 1.0,
    }
}

/// Run a configured system in one of the paper's Table 3 environments.
pub fn run_env(cfg: &RunConfig, env: EnvId) -> RunMetrics {
    let spec = env.spec();
    run_with_models(cfg, spec.compute_model(), spec.network_model(), spec.name)
}

/// Run a configured system over explicit compute/network models (used by
/// the custom-schedule experiments, Figures 8, 19 and 20).
pub fn run_with_models(
    cfg: &RunConfig,
    compute: ComputeModel,
    net: NetworkModel,
    env_name: &str,
) -> RunMetrics {
    ClusterRunner::new(cfg.clone(), compute, net, env_name).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use dlion_microcloud::ClusterKind;
    use dlion_tensor::par;

    fn small(system: SystemKind) -> RunConfig {
        RunConfig::small_test(system)
    }

    fn run_small(system: SystemKind, env: EnvId) -> RunMetrics {
        run_env(&small(system), env)
    }

    #[test]
    fn baseline_trains_and_improves() {
        let mut cfg = small(SystemKind::Baseline);
        cfg.duration = 400.0; // enough updates for visible learning
        let m = run_env(&cfg, EnvId::HomoA);
        assert_eq!(m.system, "Baseline");
        assert!(m.total_iterations() > 0, "no iterations ran");
        let first = m.mean_acc(0);
        let last = m.tail_mean_acc(2);
        assert!(last > first, "accuracy should improve: {first} -> {last}");
        assert!(m.grad_bytes > 0.0);
        // Bounded staleness (bound 5) keeps workers within the window.
        let max = *m.iterations.iter().max().unwrap();
        let min = *m.iterations.iter().min().unwrap();
        assert!(
            max - min <= 6,
            "iterations drifted past the bound: {:?}",
            m.iterations
        );
    }

    #[test]
    fn all_systems_run_without_deadlock() {
        for system in [
            SystemKind::Baseline,
            SystemKind::Ako,
            SystemKind::Gaia,
            SystemKind::Hop,
            SystemKind::DLion,
            SystemKind::DLionNoDbwu,
            SystemKind::DLionNoWu,
            SystemKind::MaxNOnly(10.0),
        ] {
            let m = run_small(system, EnvId::HeteroSysA);
            assert!(
                m.total_iterations() > 10,
                "{system:?} barely ran: {:?}",
                m.iterations
            );
            assert!(m.final_mean_acc() > 0.0, "{system:?} produced no accuracy");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_small(SystemKind::DLion, EnvId::HeteroSysA);
        let b = run_small(SystemKind::DLion, EnvId::HeteroSysA);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.worker_acc, b.worker_acc);
        assert_eq!(a.grad_bytes, b.grad_bytes);
        assert_eq!(a.gbs_trace, b.gbs_trace);
    }

    /// The same cell with its gradient and evaluation jobs on the pool (run
    /// from a plain thread) and inline (run inside a `par_map` item: a
    /// spawn from inside a job runs at its join) — every number equal.
    fn pooled_equals_inline(cfg: RunConfig) -> RunMetrics {
        pooled_equals_inline_by(cfg, |cfg| run_env(cfg, EnvId::HeteroSysA))
    }

    fn pooled_equals_inline_by(
        mut cfg: RunConfig,
        run: fn(&RunConfig) -> RunMetrics,
    ) -> RunMetrics {
        cfg.capture_weights = true;
        let pooled = run(&cfg);
        let inline = par::par_map(&[cfg], run).remove(0);
        assert!(pooled.total_iterations() > 50, "{:?}", pooled.iterations);
        assert_eq!(pooled.final_weights, inline.final_weights);
        assert_eq!(pooled.iterations, inline.iterations);
        assert_eq!(pooled.worker_acc, inline.worker_acc);
        assert_eq!(pooled.gbs_trace, inline.gbs_trace);
        assert_eq!(pooled.lbs_trace, inline.lbs_trace);
        assert_eq!(pooled.wire_bytes_by_kind, inline.wire_bytes_by_kind);
        pooled
    }

    #[test]
    fn pooled_jobs_change_no_number_under_faults_or_strict_bsp() {
        let cfg = small(SystemKind::DLion);
        let with_fault = |plan: &str| RunConfig {
            fault: crate::fault::FaultPlan::parse(plan).expect("valid kill spec"),
            ..cfg.clone()
        };
        pooled_equals_inline(with_fault("1@17"));
        pooled_equals_inline(with_fault("2@9+30"));
        pooled_equals_inline(RunConfig {
            sync_override: Some(crate::sync::SyncPolicy::Synchronous),
            ..cfg.clone()
        });
        // Every step goes to the pool, also the first on a cold arena: a
        // cell whose LBS moves mid-run (each move releases the arena) has
        // such steps on the pool in one run and inline in the other.
        let mut moving = cfg;
        moving.gbs.adjust_period_secs = 30.0;
        moving.workload.train_size = 6000; // headroom under the GBS cap
        let m = pooled_equals_inline(moving);
        let repartitions = m.lbs_trace.iter().filter(|(t, _)| *t > 0.0).count();
        assert!(repartitions >= 2, "LBS moved {repartitions} times");
    }

    /// Where the update log moved the most axpys off the event thread:
    /// `sim_scale`'s shape at toy n (Baseline, `kregular:8`, batch 1, an
    /// iteration cap: every dense peer gradient settles in a job), Gaia
    /// (its strategy reads the weights, so its rounds settle in place) and
    /// DLion with DKT merges (a pull and a merge settle in place).
    #[test]
    fn pooled_jobs_change_no_number_where_the_log_settles() {
        let mut scale = small(SystemKind::Baseline);
        scale.topology = dlion_topo::Topology::KRegular { k: 8 };
        scale.initial_lbs = 1;
        scale.max_iters = Some(6);
        scale.duration = 1e9;
        scale.workload.train_size = 8 * 16;
        scale.eval_subset = 8;
        pooled_equals_inline_by(scale, |cfg| {
            let n = 16;
            let compute = ComputeModel::homogeneous(n, 1.0, 0.001, 0.05);
            run_with_models(
                cfg,
                compute,
                NetworkModel::uniform(n, 1000.0, 0.001),
                "kregular8",
            )
        });
        pooled_equals_inline(small(SystemKind::Gaia));
        let m = pooled_equals_inline(small(SystemKind::DLion));
        assert!(m.dkt_merges > 0, "no DKT merge");
    }

    /// Every rank decides every batching round itself, from the RCPs it
    /// collected: on every rank the repartition rows — nominal times and
    /// shares, so the RCP vector behind them — are the same.
    #[test]
    fn every_rank_decides_every_round_from_the_same_rcps() {
        let mut cfg = small(SystemKind::DLion);
        cfg.duration = 400.0;
        cfg.gbs.adjust_period_secs = 60.0;
        cfg.profile_interval = 45.0;
        cfg.workload.train_size = 6000; // headroom under the GBS cap
        let spec = EnvId::HeteroCpuA.spec();
        let (compute, net) = (spec.compute_model(), spec.network_model());
        let mut runner = ClusterRunner::new(cfg, compute, net, spec.name);
        runner.simulate();
        let rows: Vec<_> = runner
            .workers
            .iter()
            .map(|w| &w.batching.lbs_trace)
            .collect();
        // The run ends wherever it is: a rank may be inside the last collect.
        let decided = rows.iter().map(|r| r.len()).min().unwrap();
        assert!(decided >= 8, "{decided} rounds decided");
        for r in &rows {
            assert_eq!(r[..decided], rows[0][..decided]);
        }
        let reprofiled = rows[0].iter().filter(|(t, _)| t % 60.0 != 0.0).count();
        assert!(reprofiled >= 3, "{reprofiled} re-profile rows");
        let distinct = |(_, parts): &(f64, Vec<usize>)| parts[0] != parts[4];
        assert!(rows[0].iter().any(distinct), "the RCPs never differed");
    }

    #[test]
    fn telemetry_registry_off_by_default_and_deterministic() {
        let mut cfg = small(SystemKind::DLion);
        let off = run_env(&cfg, EnvId::HomoA);
        assert!(off.telemetry.is_empty());
        cfg.telemetry = true;
        let a = run_env(&cfg, EnvId::HomoA);
        let b = run_env(&cfg, EnvId::HomoA);
        assert!(a.telemetry.counter("msgs_sent") > 0);
        assert!(a.telemetry.counter("events") > 0);
        assert!(a.telemetry.histogram("iter_secs").unwrap().count() > 0);
        assert!(a.telemetry.gauge("queue_depth").unwrap() >= 1.0);
        // Registries are a function of virtual time only: bit-identical
        // across reruns, and collecting them must not perturb results.
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(off.worker_acc, a.worker_acc);
        assert_eq!(off.iterations, a.iterations);
        assert_eq!(off.grad_bytes, a.grad_bytes);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small(SystemKind::DLion);
        let a = run_env(&cfg, EnvId::HomoA);
        cfg.seed = 2;
        let b = run_env(&cfg, EnvId::HomoA);
        assert_ne!(a.worker_acc, b.worker_acc);
    }

    #[test]
    fn dlion_runs_controllers_and_dkt() {
        let mut cfg = small(SystemKind::DLion);
        cfg.gbs.adjust_period_secs = 250.0;
        cfg.duration = 300.0; // enough for one GBS tick
                              // Initial GBS is 192; train_size must leave the controller headroom
                              // (10% cap) for the adjustment assertions below.
        cfg.workload.train_size = 6000;
        let m = run_env(&cfg, EnvId::HeteroCpuA);
        assert!(!m.lbs_trace.is_empty(), "LBS controller never ran");
        assert!(!m.gbs_trace.is_empty(), "GBS controller never adjusted");
        // Heterogeneous cores 24/24/12/12/6/6: faster workers get bigger LBS.
        let (_, parts) = &m.lbs_trace[0];
        assert!(parts[0] > parts[2] && parts[2] > parts[4], "{parts:?}");
        // ΣLBS = GBS at every assignment.
        let gbs_at = |t: f64| {
            m.gbs_trace
                .iter()
                .rev()
                .find(|&&(tt, _)| tt <= t)
                .map(|&(_, g)| g)
                .unwrap_or(cfg.initial_lbs * 6)
        };
        for (t, parts) in &m.lbs_trace {
            assert_eq!(parts.iter().sum::<usize>(), gbs_at(*t), "at t={t}");
        }
        assert!(m.dkt_merges > 0, "DKT never merged weights");
        assert!(m.weight_bytes > 0.0);
        assert!(m.control_bytes > 0.0);
    }

    #[test]
    fn baseline_has_no_controllers_or_dkt() {
        let m = run_small(SystemKind::Baseline, EnvId::HomoA);
        assert!(m.lbs_trace.is_empty());
        assert!(m.gbs_trace.is_empty());
        assert_eq!(m.dkt_merges, 0);
        assert_eq!(m.weight_bytes, 0.0);
    }

    #[test]
    fn network_bottleneck_slows_dense_systems() {
        // Baseline sends 5 MB x 5 peers per iteration; at 50 Mbps the NIC
        // (4 s of serialized egress per iteration) outpaces compute (2.6 s),
        // so the steady-state iteration rate drops to the network rate.
        let mut cfg = small(SystemKind::Baseline);
        cfg.duration = 400.0;
        let lan = run_env(&cfg, EnvId::HomoA);
        let wan = run_env(&cfg, EnvId::HomoB);
        assert!(
            (lan.total_iterations() as f64) > 1.35 * wan.total_iterations() as f64,
            "LAN {} vs WAN {}",
            lan.total_iterations(),
            wan.total_iterations()
        );
    }

    #[test]
    fn dlion_outpaces_baseline_on_wan() {
        let dlion = run_small(SystemKind::DLion, EnvId::HomoB);
        let base = run_small(SystemKind::Baseline, EnvId::HomoB);
        assert!(
            dlion.total_iterations() > base.total_iterations(),
            "DLion {} vs Baseline {}",
            dlion.total_iterations(),
            base.total_iterations()
        );
    }

    #[test]
    fn link_trace_only_when_enabled() {
        let mut cfg = small(SystemKind::DLion);
        let off = run_env(&cfg, EnvId::HomoB);
        assert!(off.link_trace.is_empty());
        cfg.trace_links = true;
        let on = run_env(&cfg, EnvId::HomoB);
        assert!(!on.link_trace.is_empty());
        for s in &on.link_trace {
            assert!(s.bytes > 0.0 && s.src != s.dst);
        }
    }

    #[test]
    fn convergence_mode_stops_early() {
        let mut cfg = small(SystemKind::Baseline);
        cfg.duration = 10_000.0;
        cfg.converge = Some(crate::config::ConvergenceCfg {
            window_secs: 60.0,
            min_improvement: 2.0, // impossible improvement -> stop asap
            min_secs: 60.0,
        });
        let m = run_env(&cfg, EnvId::HomoA);
        assert!(m.converged_at.is_some());
        assert!(
            m.duration < 200.0,
            "should stop right after min_secs, got {}",
            m.duration
        );
    }

    #[test]
    fn gpu_cluster_runs_mobilenet() {
        let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Gpu);
        cfg.workload.train_size = 1000;
        cfg.workload.test_size = 200;
        cfg.duration = 60.0;
        cfg.eval_interval = 30.0;
        cfg.eval_subset = 100;
        let m = run_env(&cfg, EnvId::HomoC);
        assert!(m.total_iterations() > 0);
        assert_eq!(m.env, "Homo C");
    }
}
