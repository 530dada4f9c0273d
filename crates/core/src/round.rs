//! The one rank protocol: the paper's per-worker workflow (Fig. 4/10 —
//! compute → weighted self-update → per-link fan-out → apply peer
//! gradients → DKT) as methods on [`Worker`], called by both backends.
//! Both updates go through one update log: `complete_round` logs the own
//! update, `on_payload` every gradient it does not park, `flush_parked`
//! each complete round of those it does, and the model's next user settles
//! the log in order — the gradient step as its prologue (inside the pool
//! job on the simulator), or whoever reads the weights first
//! ([`Worker::settle`]). What a rank prices an update with — who left at
//! which round, every peer's LBS share — is its own state
//! ([`Worker::departures`], its [`crate::gbs::Batching`]); neither backend
//! holds a ledger of its own.
//!
//! [`crate::runner::ClusterRunner`] (virtual time) and the live driver in
//! `dlion-net` (real transports) each own *when* things happen and *how*
//! bytes move; everything that mutates a model, decides an averaging
//! divisor or decides what a rank sends after a round lives here, once.
//! Whatever differs per backend — link bandwidth, the timestamp, acks,
//! buffer recycling — is an argument or is done by the caller on the
//! returned [`Effect`] or the [`Output`]s it appends. Sim ≡ live bit parity under strict
//! BSP follows from both backends executing this code, not from two
//! copies being kept in step.

use crate::messages::{GradData, GradMsg, Payload};
use crate::rank::{Item, Mark, Output};
use crate::strategy::StrategyCtx;
use crate::sync::SyncPolicy;
use crate::weighted::update_factor;
use crate::worker::{EvalJob, GradJob, PendingIteration, Update, Worker};
use dlion_nn::{Dataset, EvalResult, Model};
use dlion_telemetry::{event, profile_scope, Phase};
use dlion_tensor::{par, Scratch, SparseVec, Tensor};
use std::sync::Arc;

/// What [`Worker::on_payload`] did with a payload, and what is left for
/// the backend to do about it.
pub enum Effect {
    /// The gradient is accounted for and accepted: priced and in the
    /// update log, or — strict BSP — parked until [`Worker::flush_parked`]
    /// logs its round. It applies when the model's next user settles the
    /// log; a live caller under `BlockOnDelivery` acknowledges it now.
    Logged,
    /// A peer's loss share was recorded.
    Noted,
    /// Send this payload back to the sender (a DKT pull answered with our
    /// weights).
    Reply(Payload),
    /// Pulled weights were merged (λ from the DKT config); the tensors
    /// are handed back for recycling.
    Merged(Vec<Tensor>),
    /// The sender announced its departure after `completed` iterations;
    /// the caller demotes it with [`Worker::demote_peer`].
    Departed { completed: u64 },
}

/// What one weight update adds, before its factor: dense gradients (a
/// peer's, or the worker's own) or a sparse selection per variable.
enum Delta<'a> {
    Dense(&'a [Tensor]),
    Sparse(&'a [SparseVec]),
}

impl<'a> From<&'a GradData> for Delta<'a> {
    fn from(data: &'a GradData) -> Self {
        match data {
            GradData::Dense(vars) => Delta::Dense(vars),
            GradData::Sparse(vars) => Delta::Sparse(vars),
        }
    }
}

/// The one place weight updates reach a model: `w += factor · delta` for
/// each update, in the order given. A run of dense updates is one pass
/// over the weights ([`Model::apply_dense_updates`]: every element takes
/// the same additions in the same order as one update at a time); a
/// sparse one ends the run. Allocation-free.
fn apply_in_order<'a>(model: &mut Model, updates: impl IntoIterator<Item = (Delta<'a>, f32)>) {
    /// Dense updates per pass; a longer run takes several, in order.
    const RUN: usize = 16;
    let mut run: [(&[Tensor], f32); RUN] = [(&[], 0.0); RUN];
    let mut len = 0;
    for (delta, factor) in updates {
        match delta {
            Delta::Dense(grads) => {
                if len == RUN {
                    model.apply_dense_updates(&run);
                    len = 0;
                }
                run[len] = (grads, factor);
                len += 1;
            }
            Delta::Sparse(vars) => {
                model.apply_dense_updates(&run[..len]);
                len = 0;
                for (v, s) in vars.iter().enumerate() {
                    model.apply_sparse_update(v, s, factor);
                }
            }
        }
    }
    model.apply_dense_updates(&run[..len]);
}

impl Update {
    /// The entry's delta and factor; the own update's delta is `own`.
    fn delta<'a>(&'a self, own: &'a [Tensor]) -> (Delta<'a>, f32) {
        match self {
            Update::Own { factor } => (Delta::Dense(own), *factor),
            Update::Peer { msg, factor } => (Delta::from(&msg.data), *factor),
        }
    }
}

/// Apply an update log to `model`, in log order — the order eager
/// application would have used, so every float is the eager one. An
/// `Own` entry reads `grads`, the worker's own gradients. The entries
/// stay in the log for its holder to drop: a pool job's log comes back
/// applied, and [`Worker::join_grads`] drops it.
fn apply_log(model: &mut Model, grads: &[Tensor], log: &[Update]) {
    if log.is_empty() {
        return;
    }
    let _ap = profile_scope(Phase::Apply);
    apply_in_order(model, log.iter().map(|update| update.delta(grads)));
}

/// One gradient computation: apply the update log (the step is the
/// model's next user), then forward/backward over the minibatch whose
/// indices sit in `batch_buf`, the clipped mean gradients left in `grads`;
/// returns the batch loss. Allocation-free once `scratch` is warm: the
/// batch tensor, every activation and every gradient cycle through it.
fn grads_step(
    model: &mut Model,
    scratch: &mut Scratch,
    grads: &mut Vec<Tensor>,
    log: &[Update],
    batch_buf: &[usize],
    data: &Dataset,
    grad_clip: f32,
) -> f64 {
    apply_log(model, grads, log);
    let (x, y) = data.batch_scratch(batch_buf, scratch);
    let loss = model.forward_backward_scratch(x, &y, scratch, grads);
    for g in grads.iter_mut() {
        g.clip_inplace(grad_clip);
    }
    loss
}

impl Worker {
    /// Does worker `j` compute — and hence contribute gradients for —
    /// `round`, as far as this rank knows ([`Worker::departures`])?
    fn counts(&self, j: usize, round: u64) -> bool {
        self.departures
            .iter()
            .all(|&(peer, k)| peer != j || round < k)
    }

    /// Has this rank left the run: is its own planned departure round
    /// behind its completed-iteration count?
    pub fn departed(&self) -> bool {
        !self.counts(self.id, self.iteration)
    }

    /// Group-wise Eq. 7 divisor for `round`: this worker plus the round's
    /// declared neighbors `nbrs`, minus anyone this rank knows left before
    /// it, each peer at the share this rank's batching decided for it
    /// ([`crate::gbs::Batching::share`]). Both the plain `1/n` and the
    /// weighted `LBS/GBS` denominators count only that group; on a full
    /// mesh with no departures this is the global `(n, GBS)` pair exactly
    /// (shares partition the GBS).
    pub fn counted_for(&self, nbrs: &[usize], round: u64) -> (usize, usize) {
        let mut n = 1;
        let mut gbs = self.lbs;
        for &j in nbrs {
            if self.counts(j, round) {
                n += 1;
                gbs += self.batching.share(j);
            }
        }
        (n, gbs.max(1))
    }

    /// The Eq. 7 step for a gradient computed over `lbs` samples, averaged
    /// over a [`Worker::counted_for`] divisor.
    fn factor(&self, lbs: usize, (n, gbs): (usize, usize)) -> f32 {
        update_factor(self.lr, n, lbs, gbs, self.weighted)
    }

    /// Settle the update log here and now: every pending own and peer
    /// update reaches the model in log order, each peer message going to
    /// `settled` once applied (the live driver recycles its buffers).
    /// Whoever reads the weights calls this first; the gradient step does
    /// it as its prologue. The model must be home (no job in flight).
    pub fn settle(&mut self, mut settled: impl FnMut(GradMsg)) {
        debug_assert!(
            !matches!(self.pending, Some(PendingIteration::InFlight(_))),
            "settling a model that is out on the pool"
        );
        apply_log(&mut self.model, &self.grads, &self.queued);
        for update in self.queued.drain(..) {
            if let Update::Peer { msg, .. } = update {
                settled(msg);
            }
        }
    }

    /// The compute step, here and now: settle the log, then
    /// forward/backward over the minibatch in `self.batch_buf`, leaving
    /// the clipped mean gradients in `self.grads`; returns the batch loss.
    pub fn compute_grads(&mut self, data: &Dataset, grad_clip: f32) -> f64 {
        let loss = grads_step(
            &mut self.model,
            &mut self.scratch,
            &mut self.grads,
            &self.queued,
            &self.batch_buf,
            data,
            grad_clip,
        );
        self.queued.clear();
        loss
    }

    /// [`Worker::compute_grads`] as a pool job that owns what it touches:
    /// `model`, `scratch`, `grads`, `batch_buf` and the update log move
    /// into it and come back at [`Worker::join_grads`]; the job applies
    /// the log before its step, so the axpys run on the pool. Until the
    /// join a peer gradient is accounted and logged on arrival as ever
    /// ([`Worker::on_payload`]); anything else that reads or writes the
    /// moved fields must join first. The job applies the log in the order
    /// it was built and then reads exactly the weights the eager call
    /// would, so every float is the one `compute_grads` here and now
    /// would give.
    pub fn spawn_grads(&mut self, data: &Arc<Dataset>, grad_clip: f32) {
        debug_assert!(self.pending.is_none(), "one gradient job per worker");
        // Messages still in flight or waiting in peers' update logs share
        // the gradient tensors' storage, so the step's in-place overwrite
        // copies them first. Make that copy here, on the thread that frees
        // the messages (at the receivers' joins): what it frees stays
        // reusable by what it allocates, and a step on a warm arena then
        // allocates nothing large on the pool thread (a cold arena's fill
        // does, once per LBS). Leaving the copy to the job cost `sim_scale`
        // ≈ 1.5 % more peak RSS for no steady gain (DESIGN.md §4b).
        for g in &mut self.grads {
            g.data_mut();
        }
        let mut job = GradJob {
            model: std::mem::take(&mut self.model),
            scratch: std::mem::take(&mut self.scratch),
            grads: std::mem::take(&mut self.grads),
            batch_buf: std::mem::take(&mut self.batch_buf),
            log: std::mem::take(&mut self.queued),
            loss: 0.0,
        };
        let data = Arc::clone(data);
        self.pending = Some(PendingIteration::InFlight(par::spawn(move || {
            job.loss = grads_step(
                &mut job.model,
                &mut job.scratch,
                &mut job.grads,
                &job.log,
                &job.batch_buf,
                &data,
                grad_clip,
            );
            job
        })));
    }

    /// The join point of [`Worker::spawn_grads`]: bring the job's state
    /// home (running the job here if no pool thread has started it) and
    /// drop the log it applied. The updates logged meanwhile stay logged,
    /// behind nothing: the job applied everything before them. Returns
    /// the batch loss if a job was in flight, `None` (and does nothing)
    /// otherwise.
    pub fn join_grads(&mut self) -> Option<f64> {
        let job = match self.pending.take() {
            Some(PendingIteration::InFlight(job)) => job,
            home => {
                self.pending = home;
                return None;
            }
        };
        let GradJob {
            model,
            scratch,
            grads,
            batch_buf,
            mut log,
            loss,
        } = job.join();
        (self.model, self.scratch, self.grads, self.batch_buf) = (model, scratch, grads, batch_buf);
        // The job applied its log; the messages die here, on the thread
        // that allocated their storage (a sender's round, or the copy in
        // `spawn_grads`): freed from the pool thread, they contended for
        // the allocator — `sim_paper` ran ≈ 6 % slower. The log keeps its
        // capacity and takes what arrived meanwhile.
        log.clear();
        log.append(&mut self.queued);
        self.queued = log;
        self.pending = Some(PendingIteration::Done { loss });
        Some(loss)
    }

    /// Evaluate the model as a pool job: `model`, `grads` and the update
    /// log move into it, the job applies the log and evaluates on
    /// `indices` (batches of 125), and [`Worker::join_eval`] brings all
    /// three back. The model must be home.
    pub fn spawn_eval(&mut self, data: &Arc<Dataset>, indices: &Arc<[usize]>) -> EvalJob {
        debug_assert!(
            !matches!(self.pending, Some(PendingIteration::InFlight(_))),
            "evaluating a model that is out on the pool"
        );
        let mut model = std::mem::take(&mut self.model);
        let grads = std::mem::take(&mut self.grads);
        let log = std::mem::take(&mut self.queued);
        let (data, indices) = (Arc::clone(data), Arc::clone(indices));
        EvalJob(par::spawn(move || {
            apply_log(&mut model, &grads, &log);
            let r = model.evaluate(&data, &indices, 125);
            (model, grads, log, r)
        }))
    }

    /// The join point of [`Worker::spawn_eval`]; the applied log's
    /// messages are dropped here, as at [`Worker::join_grads`].
    pub fn join_eval(&mut self, job: EvalJob) -> EvalResult {
        let (model, grads, mut log, r) = job.0.join();
        log.clear();
        (self.model, self.grads, self.queued) = (model, grads, log);
        r
    }

    /// Finish the round whose gradients sit in `self.grads`: record the
    /// loss and the step time (`last_iter_time`, into the record's
    /// training-clock seconds), log the own (self-weighted) update,
    /// generate the per-link partial gradients, advance the iteration and
    /// retarget gating at the round's neighbor set. Appends what the rank
    /// does next to `out`, in order: the gradient sends; then, on the
    /// round its [`Worker::kill`] fires, the Leaves and
    /// [`Output::Departed`] (permanent) or nothing more (rejoining: it
    /// returns the pause's length); otherwise, on a share round, the DKT
    /// sends. The sequence's trace rows (`departed`, `pause`, `dkt_round`)
    /// sit between its outputs, written as the backend passes them. A
    /// gradient goes to the peers this rank counts for its round; a Leave
    /// or DKT send to those it counts for the next round and gating has
    /// not demoted. `bw(j)` is the bandwidth to neighbor `j` in Mbps.
    pub fn complete_round(
        &mut self,
        loss: f64,
        now: f64,
        bw: impl Fn(usize) -> f64,
        mut out: impl FnMut(Item),
    ) -> Option<f64> {
        // The round this completion belongs to and its declared neighbor
        // set: the fan-out targets, the divisor group, and (per-round sets
        // are symmetric) exactly the senders the next round gates on.
        let round = self.iteration;
        let nbrs = self.schedule.neighbors(self.id, round);
        if round == 0 || self.schedule.rotates() {
            event!(now, w: self.id, "topology_round";
                "round" => round,
                "topology" => self.schedule.name(),
                "neighbors" => nbrs.len(),
                "links" => self.schedule.link_count(round));
        }
        self.dkt.record_loss(loss);
        self.record.train_secs += self.last_iter_time;
        let factor = self.factor(self.lbs, self.counted_for(&nbrs, round));
        self.queued.push(Update::Own { factor });
        // A strategy that reads the weights sees them with the own update
        // (and everything logged before it) applied, as eagerly.
        if self.strategy.reads_weights() {
            self.settle(drop);
        }
        let n = self.schedule.n();
        // Strategies only read their neighbors' entries (link budgets).
        let mut bw_mbps = vec![0.0; n];
        for &j in &nbrs {
            bw_mbps[j] = bw(j);
        }
        let ctx = StrategyCtx {
            worker: self.id,
            n,
            iteration: round,
            now,
            lbs: self.lbs,
            iter_time: self.last_iter_time,
            bw_mbps,
            neighbors: nbrs,
            bytes_per_param: self.model.bytes_per_param(),
            total_params: self.model.num_params(),
            lr: self.lr,
        };
        let mut updates = {
            let _sg = profile_scope(Phase::Serialize);
            self.strategy
                .generate_partial_gradients(&ctx, &self.grads, &self.model)
        };
        // Rotate the send order each iteration so no peer is permanently
        // first (or last) in this worker's send queue.
        if !updates.is_empty() {
            let r = (round as usize) % updates.len();
            updates.rotate_left(r);
        }
        self.iteration += 1;
        self.sync.retarget(&ctx.neighbors);
        let next = self.iteration;
        let share_dkt = self.dkt.is_share_round(next);
        // The iteration's one record, on both backends: the batch it
        // sampled, its loss and its step time (virtual or training clock).
        event!(now, w: self.id, "iter_done";
            "iter" => next,
            "lbs" => self.batch_buf.len(),
            "loss" => loss,
            "dt" => self.last_iter_time,
            "updates" => updates.len(),
            "share_dkt" => share_dkt);

        // A gradient goes to every peer this rank counts for the round it
        // was computed in — the peers whose divisor counts it. A demoted
        // one's delivery is not awaited (`SyncState::on_sent_to`).
        for up in updates {
            if self.counts(up.peer, round) {
                self.sync.on_sent_to(up.peer);
                out(Output::Send(up.peer, Payload::Grad(up.msg)).into());
            }
        }
        // The kill fires right after the fan-out, so the victim's last
        // gradients are on the wire ahead of its Leaves (per-link FIFO on
        // both backends), and before anything else the backend would run.
        let kill = self.kill.filter(|k| k.at_iter == next);
        match kill.map(|k| k.rejoin_after) {
            Some(None) => {
                out(Item::Mark(Mark::Departed(next), now, self.id));
                let leave = Payload::Leave { completed: next };
                for j in (0..n).filter(|&j| j != self.id && self.is_target(j, next)) {
                    out(Output::Send(j, leave.clone()).into());
                }
                out(Output::Departed.into());
            }
            Some(Some(secs)) => out(Item::Mark(Mark::Pause(next, secs), now, self.id)),
            None if share_dkt => self.dkt_round(now, out),
            None => {}
        }
        kill.and_then(|k| k.rejoin_after)
    }

    /// Who hears a Leave or a DKT send, which speak for the next `round`:
    /// peer `j` iff this rank counts it for that round and gating has not
    /// demoted it. Planned kills make the set a pure function of the plan,
    /// like the Eq. 7 divisor; demotion covers unplanned loss.
    fn is_target(&self, j: usize, round: u64) -> bool {
        self.counts(j, round) && !self.sync.is_demoted(j)
    }

    /// Handle one training payload from `from` that reached this rank at
    /// `now` — the simulator's `Msg` event and the live driver's decoded
    /// frame. Its `msg` row, and a merge's `dkt_merge` row, are written
    /// and counted in the rank's record here for both backends.
    pub fn on_payload(&mut self, from: usize, payload: Payload, now: f64) -> Effect {
        event!(now, w: self.id, "msg"; "from" => from, "kind" => payload.kind());
        self.record.msgs_recv += 1;
        match payload {
            Payload::Grad(msg) => {
                self.sync.on_gradient(from, msg.iteration);
                if self.strategy.sync_policy() == SyncPolicy::Synchronous {
                    self.parked.push((from, msg));
                    return Effect::Logged;
                }
                // The gradient round's group (symmetric, so sender and
                // receiver agree on it) sets the divisor, from this rank's
                // departures and shares as they stand now; the axpy waits
                // in the log for the model's next user.
                let nbrs = self.schedule.neighbors(self.id, msg.iteration);
                let divisor = self.counted_for(&nbrs, msg.iteration);
                let factor = self.factor(msg.lbs, divisor);
                self.queued.push(Update::Peer { msg, factor });
                Effect::Logged
            }
            Payload::LossShare { avg_loss } => {
                self.dkt.update_known(from, avg_loss);
                Effect::Noted
            }
            // We are the (believed) best worker: ship our weights back.
            Payload::DktRequest => {
                self.settle(drop);
                Effect::Reply(Payload::Weights {
                    weights: self.model.weights(),
                    sender_loss: self.dkt.avg_loss().unwrap_or(f64::INFINITY),
                })
            }
            Payload::Weights { weights, .. } => {
                self.settle(drop);
                self.model.merge_weights(&weights, self.dkt.cfg().lambda);
                self.record.dkt_merges += 1;
                event!(now, w: self.id, "dkt_merge"; "from" => from);
                Effect::Merged(weights)
            }
            Payload::Leave { completed } => Effect::Departed { completed },
        }
    }

    /// The single strict-BSP flush point: log the parked gradients of
    /// rounds this worker has completed (all rounds when `force` — end of
    /// run, no further local round will come), in `(round, sender)` order,
    /// each priced with its round's divisor. They go behind what the log
    /// already holds (under strict BSP at most the own update), and the
    /// model's next user settles them with it.
    ///
    /// Arrival order depends on the previous round's gating-release order
    /// (sim) or on frame racing (live); sorting keeps it out of the float
    /// addition order, which is what makes BSP runs bit-identical across
    /// backends, transports and interleavings. For the same reason a round
    /// whose batch is incomplete — a sender this rank counts for it is
    /// still missing — stays parked: logging half of it now and half at a
    /// later flush would order by arrival again. The hold-back cannot
    /// stall: a counted sender's gradient is guaranteed delivered (per-link
    /// FIFO puts it before any Leave; a paused sender stays gated on), and
    /// gating blocks the next local round on the same set anyway.
    pub fn flush_parked(&mut self, force: bool) {
        let mut parked = std::mem::take(&mut self.parked);
        parked.sort_by_key(|&(from, ref msg)| (msg.iteration, from));
        let mut at = 0;
        while let Some(round) = parked.get(at).map(|(_, msg)| msg.iteration) {
            if !force && round >= self.iteration {
                break;
            }
            let len = parked[at..].partition_point(|(_, msg)| msg.iteration == round);
            let batch = &parked[at..at + len];
            let nbrs = self.schedule.neighbors(self.id, round);
            let complete = force
                || nbrs.iter().all(|&j| {
                    !self.counts(j, round)
                        || batch.binary_search_by_key(&j, |&(from, _)| from).is_ok()
                });
            if !complete {
                at += len;
                continue;
            }
            let divisor = self.counted_for(&nbrs, round);
            for (_, msg) in parked.drain(at..at + len) {
                let factor = self.factor(msg.lbs, divisor);
                self.queued.push(Update::Peer { msg, factor });
            }
        }
        self.parked = parked;
    }

    /// Demote a departed peer — Hop's backup-worker demotion applied to
    /// an absent worker: it no longer gates this worker's iterations (or
    /// its `BlockOnDelivery` ack-waiting) and is no longer a DKT pull
    /// target — and record the round it left at, the one place a rank
    /// learns of a departure: the fault plan's round if the peer is
    /// planned out (so every rank renormalizes at the same round, whenever
    /// the news lands), else its Leave's `completed`, else — a crash, seen
    /// as an EOF or a timeout — the round after its last gradient here.
    /// Idempotent: returns whether the peer was newly demoted.
    pub fn demote_peer(&mut self, peer: usize, completed: Option<u64>, now: f64) -> bool {
        if peer == self.id || self.sync.is_demoted(peer) {
            return false;
        }
        let planned = self.departures.iter().find(|&&(j, _)| j == peer);
        let round = match planned {
            Some(&(_, k)) => k,
            None => {
                let last = self.sync.received_from(peer);
                let k = completed.unwrap_or_else(|| last.map_or(0, |r| r + 1));
                self.departures.push((peer, k));
                k
            }
        };
        self.sync.demote(peer);
        self.dkt.forget(peer);
        event!(now, w: self.id, "peer_departed";
            "peer" => peer, "completed" => round, "iter" => self.iteration);
        true
    }

    /// A DKT round (§3.4) of [`Worker::complete_round`]: share the recent
    /// average loss with the next round's target neighbors, then pull from
    /// the best-known worker if the mode says so and it is a target (at
    /// most once per DKT period).
    fn dkt_round(&mut self, now: f64, mut out: impl FnMut(Item)) {
        let Some(avg_loss) = self.dkt.avg_loss() else {
            return;
        };
        out(Item::Mark(Mark::DktRound(avg_loss), now, self.id));
        self.dkt.update_known(self.id, avg_loss);
        let next = self.iteration;
        for j in self.schedule.neighbors(self.id, next) {
            if self.is_target(j, next) {
                out(Output::Send(j, Payload::LossShare { avg_loss }).into());
            }
        }
        let round = next / self.dkt.cfg().period_iters;
        let pull = self.dkt.pull_target().filter(|&t| self.is_target(t, next));
        if let Some(target) = pull.filter(|_| self.last_pull_round < round) {
            self.last_pull_round = round;
            out(Output::Send(target, Payload::DktRequest).into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_cluster;
    use crate::config::{RunConfig, SystemKind};
    use crate::rank::Outputs;

    /// `n` strict-BSP Baseline workers on a full mesh, no backend attached.
    fn bsp_workers(n: usize) -> Vec<Worker> {
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        build_cluster(&cfg, n).workers
    }

    /// A dense round-`round` gradient shaped like `w`'s model, every entry
    /// `value` (distinct magnitudes make float addition order observable).
    fn grad(w: &Worker, round: u64, value: f32) -> Payload {
        let vars = w.model.weights();
        Payload::Grad(GradMsg {
            iteration: round,
            lbs: 32,
            data: GradData::Dense(
                vars.iter()
                    .map(|t| Tensor::full(*t.shape(), value))
                    .collect(),
            ),
            n_used: 100.0,
        })
    }

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn bits(w: &Worker) -> Vec<Vec<u32>> {
        w.model.weights().iter().map(tensor_bits).collect()
    }

    /// The update log as `(round, value)` per peer gradient (the value of
    /// its first entry names the arrival) and `(u64::MAX, 0.0)` for the
    /// own update.
    fn logged(w: &Worker) -> Vec<(u64, f32)> {
        w.queued
            .iter()
            .map(|update| match update {
                Update::Own { .. } => (u64::MAX, 0.0),
                Update::Peer { msg, .. } => match &msg.data {
                    GradData::Dense(vars) => (msg.iteration, vars[0].data()[0]),
                    GradData::Sparse(_) => unreachable!("the tests send dense gradients"),
                },
            })
            .collect()
    }

    #[test]
    fn divisor_follows_the_ranks_departures_and_shares() {
        let mut w = bsp_workers(4).swap_remove(0);
        let nbrs = w.schedule.neighbors(0, 0);
        assert_eq!(nbrs, vec![1, 2, 3]);
        w.batching.shares = vec![32, 20, 30, 40];
        // Full mesh, nobody gone: exactly (n, GBS).
        assert_eq!(w.counted_for(&nbrs, 0), (4, 122));
        assert_eq!(w.counted_for(&nbrs, 999), (4, 122));
        // Worker 2 computes rounds 0..3 only.
        w.demote_peer(2, Some(3), 0.0);
        assert!(w.counts(2, 2) && !w.counts(2, 3));
        assert_eq!(w.counted_for(&nbrs, 2), (4, 122));
        assert_eq!(w.counted_for(&nbrs, 3), (3, 92));
        assert_eq!(w.counted_for(&nbrs, 7), (3, 92));
        // The divisor is group-wise: only declared neighbors count.
        assert_eq!(w.counted_for(&[1], 0), (2, 52));
    }

    /// Two DLion ranks of one cluster decide a GBS step at their own
    /// times: until rank 1 has decided it, it prices with the shares from
    /// before the round — not its own old share beside rank 0's new one —
    /// and once both have, they agree.
    #[test]
    fn each_rank_prices_with_its_own_decisions() {
        let mut cfg = RunConfig::small_test(SystemKind::DLion);
        cfg.workload.train_size = 12_000;
        cfg.gbs.adjust_period_secs = 0.25;
        cfg.profile_interval = 1e9;
        let mut ws = build_cluster(&cfg, 2).workers;
        // Rank `w`'s batching plane at `clock`, its notices delivered at
        // once; whether a collect is still open.
        let step = |ws: &mut [Worker], w: usize, clock: f64| {
            let rcp = [3.0, 1.0][w];
            let mut out = Outputs::default();
            let open = ws[w].batching_step(clock, clock, false, || rcp, out.sink());
            while let Some(Output::Notice(to, notice)) = out.pop() {
                ws[to].batching.on_notice(w, notice);
            }
            open
        };
        let divisor = |w: &Worker| w.counted_for(&[1 - w.id], 1);
        // Start-up: both decide round 0, GBS 64 split 3:1.
        assert!(step(&mut ws, 0, 0.0));
        assert!(!step(&mut ws, 1, 0.0) && !step(&mut ws, 0, 0.0));
        assert_eq!((ws[0].lbs, ws[1].lbs), (48, 16));
        assert_eq!((divisor(&ws[0]), divisor(&ws[1])), ((2, 64), (2, 64)));
        // Round 1 steps the GBS to 128: rank 1 opens it, rank 0 decides
        // it first.
        assert!(step(&mut ws, 1, 0.25));
        assert!(!step(&mut ws, 0, 0.25));
        assert_eq!(ws[0].lbs, 96);
        assert_eq!(divisor(&ws[0]), (2, 128));
        assert_eq!(divisor(&ws[1]), (2, 64), "rank 1 has not decided round 1");
        assert!(!step(&mut ws, 1, 0.25));
        assert_eq!(ws[1].lbs, 32);
        assert_eq!(divisor(&ws[1]), divisor(&ws[0]));
    }

    /// A rank records a departure once, in `demote_peer`: a planned peer
    /// at the plan's round whatever its Leave or an EOF says, an unplanned
    /// one at its Leave's round, or — an EOF — the round after its last
    /// gradient here.
    #[test]
    fn demote_peer_records_one_departure() {
        let mut ws = planned_ranks(4, "2@5");
        assert!(ws.iter().all(|w| w.departures == [(2, 5)]));
        let (w, v) = (&mut ws[0], 1);
        assert!(w.demote_peer(2, Some(9), 0.0), "a Leave claiming 9");
        assert!(w.demote_peer(v, Some(7), 0.0));
        w.sync.on_gradient(3, 4);
        assert!(w.demote_peer(3, None, 0.0));
        assert_eq!(w.departures, [(2, 5), (v, 7), (3, 5)]);
        // Later news of a demoted peer, or of the rank itself, is no news.
        assert!(!w.demote_peer(v, None, 0.0) && !w.demote_peer(3, Some(1), 0.0));
        assert!(!w.demote_peer(0, Some(1), 0.0));
        assert_eq!(w.departures, [(2, 5), (v, 7), (3, 5)]);
        assert!(w.counts(3, 4) && !w.counts(3, 5));
        // An EOF from a planned peer leaves the plan's round too.
        let w = &mut ws[1];
        w.sync.on_gradient(2, 8);
        assert!(w.demote_peer(2, None, 0.0));
        assert_eq!(w.departures, [(2, 5)]);
        // The victim's own plan is in its departures too.
        let w = &mut ws[2];
        assert!(!w.departed());
        w.iteration = 5;
        assert!(w.departed());
    }

    #[test]
    fn flush_order_is_round_then_sender_whatever_the_park_order() {
        // The same rank twice (seeded build: identical weights), fed the
        // same gradients in opposite arrival orders.
        let (mut a, mut b) = (bsp_workers(3).swap_remove(0), bsp_workers(3).swap_remove(0));
        let arrivals = [(1, 0, 1e-3), (2, 0, 3e3), (1, 1, 7e-5), (2, 1, 11.0)];
        for (w, rev) in [(&mut a, false), (&mut b, true)] {
            let mut park: Vec<_> = arrivals.to_vec();
            if rev {
                park.reverse();
            }
            for (from, round, v) in park {
                let g = grad(w, round, v);
                assert!(matches!(w.on_payload(from, g, 0.0), Effect::Logged));
            }
            assert!(w.queued.is_empty(), "parked, not logged");
            w.iteration = 2;
            w.flush_parked(false);
            assert_eq!(logged(w), [(0, 1e-3), (0, 3e3), (1, 7e-5), (1, 11.0)]);
            assert!(w.parked.is_empty());
            w.settle(drop);
        }
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&bsp_workers(3)[0]), "nothing was applied");
    }

    #[test]
    fn incomplete_round_stays_parked_until_complete_or_forced() {
        let mut w = bsp_workers(3).swap_remove(0);
        let before = bits(&w);
        let (g0, g1) = (grad(&w, 0, 0.5), grad(&w, 1, 0.25));
        w.on_payload(1, g0, 0.0);
        w.on_payload(1, g1, 0.0);
        w.iteration = 1;
        // Round 0 is due but sender 2 is missing; round 1 is not due.
        w.flush_parked(false);
        assert!(w.queued.is_empty());
        assert_eq!(w.parked.len(), 2);
        // Learning that 2 never computed round 0 completes the batch.
        w.demote_peer(2, Some(0), 0.0);
        w.flush_parked(false);
        assert_eq!(logged(&w), [(0, 0.5)]);
        assert_eq!(w.parked.len(), 1);
        w.settle(drop);
        let after_round0 = bits(&w);
        assert_ne!(after_round0, before);
        // Round 1 is still ahead of us: only `force` drains it.
        w.flush_parked(false);
        assert!(w.queued.is_empty());
        w.flush_parked(true);
        assert_eq!(logged(&w), [(1, 0.25)]);
        assert!(w.parked.is_empty());
        w.settle(drop);
        assert_ne!(bits(&w), after_round0);
    }

    #[test]
    fn held_back_round_does_not_block_a_complete_later_one() {
        let mut w = bsp_workers(3).swap_remove(0);
        for (from, round, v) in [(2, 1, 0.5), (1, 0, 0.25), (1, 1, 0.125)] {
            let g = grad(&w, round, v);
            w.on_payload(from, g, 0.0);
        }
        w.iteration = 2;
        w.flush_parked(false);
        assert_eq!(logged(&w), [(1, 0.125), (1, 0.5)]);
        assert_eq!(w.parked.len(), 1);
        assert_eq!((w.parked[0].0, w.parked[0].1.iteration), (1, 0));
    }

    /// After a flush the log is the own update, then each complete due
    /// round's gradients in `(round, sender)` order; an incomplete round
    /// stays parked. Settled, it leaves the bits of applying each update
    /// in that order at once.
    #[test]
    fn a_flush_logs_complete_rounds_behind_the_own_update() {
        let (mut w, mut eager) = (
            planned_ranks(3, "").swap_remove(0),
            planned_ranks(3, "").swap_remove(0),
        );
        let complete = [(1, 0, 1e-3), (2, 0, 3e3), (1, 1, 7e-5), (2, 1, 11.0)];
        w.iteration = 2;
        eager.iteration = 2;
        own_eagerly(&mut eager);
        apply_eagerly(&mut eager, &complete);
        w.complete_round(1.0, 0.0, |_| 1000.0, Outputs::default().sink());
        for (from, round, v) in [
            (2, 1, 11.0),
            (1, 2, 5.0),
            (1, 1, 7e-5),
            (2, 0, 3e3),
            (1, 0, 1e-3),
        ] {
            let g = grad(&w, round, v);
            w.on_payload(from, g, 0.0);
        }
        w.flush_parked(false);
        let own = (u64::MAX, 0.0);
        assert_eq!(logged(&w), [own, (0, 1e-3), (0, 3e3), (1, 7e-5), (1, 11.0)]);
        assert_eq!((w.parked.len(), w.parked[0].1.iteration), (1, 2));
        w.settle(drop);
        assert_eq!(bits(&w), bits(&eager));
    }

    /// The arrivals of the update-log tests: two while the round's
    /// gradient job is out, two to the idle worker after the round, as
    /// `(sender, round, value)`.
    const DURING_JOB: [(usize, u64, f32); 2] = [(1, 0, 1e-3), (2, 0, 3e3)];
    const WHILE_IDLE: [(usize, u64, f32); 2] = [(1, 1, 7e-5), (2, 1, 11.0)];

    /// Rank 0 of a seeded 3-rank `system` cluster (every call builds the
    /// same weights) with its next batch sampled, and the data.
    fn rank0(system: SystemKind) -> (Worker, Arc<Dataset>, f32) {
        let cfg = RunConfig::small_test(system);
        let init = build_cluster(&cfg, 3);
        let mut w = init.workers.into_iter().next().expect("rank 0");
        w.sample_batch_reuse();
        (w, Arc::new(init.data), cfg.grad_clip)
    }

    /// The reference: apply each arrival to `w`'s model at once, with the
    /// factor the round core logs for it.
    fn apply_eagerly(w: &mut Worker, arrivals: &[(usize, u64, f32)]) {
        for &(_, round, v) in arrivals {
            let Payload::Grad(msg) = grad(w, round, v) else {
                unreachable!()
            };
            let nbrs = w.schedule.neighbors(w.id, round);
            let factor = w.factor(msg.lbs, w.counted_for(&nbrs, round));
            let GradData::Dense(vars) = &msg.data else {
                unreachable!()
            };
            w.model.apply_dense_update(vars, factor);
        }
    }

    /// The reference's own update for its round `w.iteration`.
    fn own_eagerly(w: &mut Worker) {
        let nbrs = w.schedule.neighbors(w.id, w.iteration);
        let factor = w.factor(w.lbs, w.counted_for(&nbrs, w.iteration));
        w.model.apply_dense_update(&w.grads, factor);
    }

    /// Hand `arrivals` to `w`'s round core, shaped like `shape`'s model.
    fn log(w: &mut Worker, shape: &Worker, arrivals: &[(usize, u64, f32)]) {
        for &(from, round, v) in arrivals {
            let g = grad(shape, round, v);
            assert!(matches!(w.on_payload(from, g, 0.0), Effect::Logged));
        }
    }

    fn grad_bits(w: &Worker) -> Vec<Vec<u32>> {
        w.grads.iter().map(tensor_bits).collect()
    }

    /// The update log holds arrivals during a job, the round's own update
    /// and arrivals to the idle worker. Settled by the next step — inside
    /// the job or in place — or by a DKT reply, it leaves the bits of
    /// applying each update the moment it happened.
    #[test]
    fn the_update_log_settles_in_the_eager_order() {
        let (mut eager, data, clip) = rank0(SystemKind::Baseline);
        let (mut pooled, ..) = rank0(SystemKind::Baseline);
        let (mut in_place, ..) = rank0(SystemKind::Baseline);
        let before = bits(&eager);

        // Eager: the round's step, each update as it happens, the next step.
        eager.compute_grads(&data, clip);
        apply_eagerly(&mut eager, &DURING_JOB);
        own_eagerly(&mut eager);
        apply_eagerly(&mut eager, &WHILE_IDLE);
        let settled = bits(&eager);
        assert_ne!(settled, before, "nothing was applied");
        eager.sample_batch_reuse();
        let next_loss = eager.compute_grads(&data, clip);

        // The round: out on the pool while two gradients arrive, and in
        // place with the same two arriving after it.
        pooled.spawn_grads(&data, clip);
        log(&mut pooled, &eager, &DURING_JOB);
        assert_eq!(
            pooled.sync.received_from(2),
            Some(0),
            "gating sees it at once"
        );
        let loss = pooled.join_grads().expect("a job was in flight");
        assert_eq!(
            in_place.compute_grads(&data, clip).to_bits(),
            loss.to_bits()
        );
        log(&mut in_place, &eager, &DURING_JOB);
        for w in [&mut pooled, &mut in_place] {
            w.pending = None;
            let mut out = Outputs::default();
            w.complete_round(loss, 0.0, |_| 1000.0, out.sink());
            assert!(out.pop().is_some() && out.pop().is_some() && out.pop().is_none());
            log(w, &eager, &WHILE_IDLE);
            assert_eq!(w.queued.len(), 5, "nothing applies on arrival");
            assert_eq!(bits(w), before);
            w.sample_batch_reuse();
        }

        // A DKT pull reads the settled weights.
        match in_place.on_payload(1, Payload::DktRequest, 0.0) {
            Effect::Reply(Payload::Weights { weights, .. }) => {
                assert_eq!(weights.iter().map(tensor_bits).collect::<Vec<_>>(), settled);
            }
            _ => panic!("a DKT request must be answered with weights"),
        }
        assert!(in_place.queued.is_empty());

        // The next step settles what is left: inside the job, in place.
        pooled.spawn_grads(&data, clip);
        let losses = [
            pooled.join_grads().expect("a job was in flight"),
            in_place.compute_grads(&data, clip),
        ];
        for (w, loss) in [(&pooled, losses[0]), (&in_place, losses[1])] {
            assert!(w.queued.is_empty());
            assert_eq!(loss.to_bits(), next_loss.to_bits());
            assert_eq!(bits(w), bits(&eager));
            assert_eq!(grad_bits(w), grad_bits(&eager));
        }
    }

    /// A strategy that reads the weights (Gaia's significance filter) sees
    /// them with everything logged before it settled — the round's own
    /// update included.
    #[test]
    fn a_weight_reading_strategy_sees_the_own_update() {
        use crate::strategy::{ExchangeStrategy, PeerUpdate};
        use std::sync::Mutex;
        /// Records the weights the wrapped strategy is shown.
        struct Spy(Box<dyn ExchangeStrategy>, Arc<Mutex<Vec<Vec<u32>>>>);
        impl ExchangeStrategy for Spy {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn sync_policy(&self) -> SyncPolicy {
                self.0.sync_policy()
            }
            fn generate_partial_gradients(
                &mut self,
                ctx: &StrategyCtx,
                grads: &[Tensor],
                model: &Model,
            ) -> Vec<PeerUpdate> {
                *self.1.lock().unwrap() = model.weights().iter().map(tensor_bits).collect();
                self.0.generate_partial_gradients(ctx, grads, model)
            }
            fn reads_weights(&self) -> bool {
                self.0.reads_weights()
            }
        }
        let (mut eager, data, clip) = rank0(SystemKind::Gaia);
        let (mut gaia, ..) = rank0(SystemKind::Gaia);
        eager.compute_grads(&data, clip);
        apply_eagerly(&mut eager, &DURING_JOB);
        own_eagerly(&mut eager);

        gaia.compute_grads(&data, clip);
        log(&mut gaia, &eager, &DURING_JOB);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let inner = std::mem::replace(
            &mut gaia.strategy,
            crate::strategy::build_strategy(&RunConfig::small_test(SystemKind::Baseline)),
        );
        assert!(inner.reads_weights());
        gaia.strategy = Box::new(Spy(inner, Arc::clone(&seen)));
        gaia.complete_round(1.0, 0.0, |_| 1000.0, Outputs::default().sink());
        assert!(gaia.queued.is_empty(), "settled before generating");
        assert_eq!(*seen.lock().unwrap(), bits(&eager));
    }

    /// `n` strict-BSP Baseline workers sharing losses every 4 rounds under
    /// the fault plan `kills`, each holding one computed gradient.
    fn planned_ranks(n: usize, kills: &str) -> Vec<Worker> {
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        cfg.dkt.mode = crate::dkt::DktMode::Best2All;
        cfg.dkt.period_iters = 4;
        cfg.fault = crate::fault::FaultPlan::parse(kills).expect("kill spec");
        let init = build_cluster(&cfg, n);
        let mut workers = init.workers;
        for w in &mut workers {
            w.sample_batch_reuse();
            w.compute_grads(&init.data, cfg.grad_clip);
        }
        workers
    }

    /// Complete `w`'s round `round`: its outputs in order and the pause it
    /// returned.
    fn round_outputs(w: &mut Worker, round: u64) -> (Vec<Output>, Option<f64>) {
        w.iteration = round;
        let mut out = Outputs::default();
        let pause = w.complete_round(1.0, 0.0, |_| 1000.0, out.sink());
        (std::iter::from_fn(|| out.pop()).collect(), pause)
    }

    /// Complete `w`'s round `round`; what it does as `(what, peer)` in order.
    fn post_round(w: &mut Worker, round: u64) -> Vec<(&'static str, usize)> {
        let (outputs, pause) = round_outputs(w, round);
        let what = |o| match o {
            Output::Send(j, payload) => (payload.kind(), j),
            Output::Departed => ("depart", w.id),
            other => panic!("not a post-round output: {other:?}"),
        };
        let pause = pause.map(|_| ("pause", w.id));
        outputs.into_iter().map(what).chain(pause).collect()
    }

    #[test]
    fn a_permanent_kill_sends_gradients_then_leaves_then_departs() {
        // Worker 2 is planned out from round 2; worker 1 leaves at 4 — a
        // share round, with worker 0 a target — having demoted worker 3,
        // which it still counts for round 3.
        let mut ws = planned_ranks(4, "1@4,2@2");
        let w = &mut ws[1];
        w.demote_peer(3, Some(9), 0.0);
        let got = post_round(w, 3);
        let want = [("grad", 0), ("grad", 3), ("leave", 0), ("depart", 1)];
        assert_eq!(got, want);
        assert_eq!(w.iteration, 4);
        assert_eq!(
            w.sync.undelivered(),
            1,
            "worker 3's delivery is not awaited"
        );
    }

    #[test]
    fn a_rejoining_kill_pauses_exactly_once() {
        let mut ws = planned_ranks(3, "1@4+0.5");
        let w = &mut ws[1];
        let (outputs, pause) = round_outputs(w, 3);
        assert_eq!(pause, Some(0.5));
        assert!(outputs
            .iter()
            .all(|o| matches!(o, Output::Send(_, Payload::Grad(_)))));
        assert_eq!(outputs.len(), 2, "no DKT on the kill round: {outputs:?}");
        let pauses: usize = (0..12)
            .map(|r| {
                post_round(w, r)
                    .iter()
                    .filter(|(a, _)| *a == "pause")
                    .count()
            })
            .sum();
        assert_eq!(pauses, 1);
    }

    #[test]
    fn a_share_round_skips_demoted_and_uncounted_neighbors() {
        // Worker 3 is planned out from round 2, worker 2 is demoted, and
        // the best loss worker 0 knows of is worker 3's.
        let mut ws = planned_ranks(4, "3@2");
        let w = &mut ws[0];
        w.demote_peer(2, Some(9), 0.0);
        w.dkt.update_known(3, 0.0);
        w.dkt.update_known(1, 1e9);
        // Worker 0 still counts worker 2 for round 3's gradient.
        let got = post_round(w, 3);
        let want = [("grad", 1), ("grad", 2), ("loss_share", 1)];
        assert_eq!(got, want, "no share to 2 or 3, no pull to 3");
        // A counted, live best is pulled from.
        w.dkt.forget(3);
        w.dkt.update_known(1, 0.0);
        let got = post_round(w, 7);
        let pulls: Vec<_> = got.iter().filter(|(a, _)| *a == "dkt_request").collect();
        assert_eq!(pulls, vec![&("dkt_request", 1)]);
    }

    #[test]
    fn a_gradient_goes_only_to_a_peer_counted_for_its_round() {
        let mut ws = planned_ranks(3, "2@2");
        let w = &mut ws[0];
        // Round 1's send order is rotated by one.
        assert_eq!(post_round(w, 1), vec![("grad", 2), ("grad", 1)]);
        assert_eq!(post_round(w, 2), vec![("grad", 1)]);
        assert_eq!(w.sync.undelivered(), 3);
    }

    #[test]
    fn dkt_request_is_answered_with_weights_and_avg_loss() {
        let mut w = bsp_workers(2).swap_remove(0);
        w.dkt.record_loss(2.0);
        w.dkt.record_loss(4.0);
        match w.on_payload(1, Payload::DktRequest, 0.0) {
            Effect::Reply(Payload::Weights {
                weights,
                sender_loss,
            }) => {
                assert_eq!(sender_loss, 3.0);
                assert_eq!(weights, w.model.weights());
            }
            _ => panic!("a DKT request must be answered with weights"),
        }
    }
}
