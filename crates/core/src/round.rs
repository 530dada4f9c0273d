//! The one rank protocol: the paper's per-worker workflow (Fig. 4/10 —
//! compute → weighted self-update → per-link fan-out → apply peer
//! gradients → DKT) as methods on [`Worker`], called by both backends.
//!
//! [`crate::runner::ClusterRunner`] (virtual time) and the live driver in
//! `dlion-net` (real transports) each own *when* things happen and *how*
//! bytes move; everything that mutates a model or decides an averaging
//! divisor lives here, once. Whatever differs per backend — link
//! bandwidth, the timestamp, which peers are reachable, acks, buffer
//! recycling — is an argument or is done by the caller on the returned
//! [`Effect`]. Sim ≡ live bit parity under strict BSP follows from both
//! backends executing this code, not from two copies being kept in step.

use crate::config::RunConfig;
use crate::messages::{GradData, GradMsg, Payload};
use crate::strategy::{PeerUpdate, StrategyCtx};
use crate::sync::SyncPolicy;
use crate::weighted::update_factor;
use crate::worker::{GradJob, PendingIteration, Worker};
use dlion_nn::{Dataset, Model};
use dlion_telemetry::{event, profile_scope, Phase};
use dlion_tensor::{par, Scratch, Tensor};
use std::sync::Arc;

/// Who contributes to which round, and with what share: the ledger every
/// Eq. 7 divisor is computed from. The simulator shares one per cluster;
/// each live worker keeps its own (plan-seeded, so all copies agree).
pub struct Membership {
    /// `Some(k)`: the worker computes rounds `0..k`, so its gradients
    /// count in the divisor for rounds `< k` and are excluded from `k` on.
    pub departed_at: Vec<Option<u64>>,
    /// Every worker's current LBS share (the weighted denominator).
    pub lbs_of: Vec<usize>,
}

impl Membership {
    /// The ledger both backends start a run from: every worker at
    /// `cfg.initial_lbs`, and every *permanent* kill of the fault plan
    /// seeded, so all copies renormalize at the planned round whenever the
    /// Leave lands. A rejoining kill (`W@I+R`) is a pause: the worker stays
    /// a member and is never listed.
    pub fn planned(cfg: &RunConfig, n: usize) -> Membership {
        let mut departed_at = vec![None; n];
        for k in &cfg.fault.kills {
            if k.rejoin_after.is_none() && k.worker < n {
                departed_at[k.worker] = Some(k.at_iter);
            }
        }
        Membership {
            departed_at,
            lbs_of: vec![cfg.initial_lbs; n],
        }
    }

    /// Does worker `j` compute — and hence contribute gradients for —
    /// `round`?
    pub fn counts(&self, j: usize, round: u64) -> bool {
        self.departed_at[j].is_none_or(|k| round < k)
    }
}

/// What [`Worker::on_payload`] did with a payload, and what is left for
/// the backend to do about it.
pub enum Effect {
    /// The gradient is accounted for but not applied yet: parked until
    /// [`Worker::flush_parked`] (strict BSP), or queued behind this
    /// worker's in-flight gradient job until [`Worker::join_grads`].
    Parked,
    /// The gradient was applied; it is handed back so the caller can
    /// acknowledge it and recycle its buffers.
    Applied(GradMsg),
    /// A peer's loss share was recorded.
    Noted,
    /// Send this payload back to the sender (a DKT pull answered with our
    /// weights).
    Reply(Payload),
    /// Pulled weights were merged (λ from the DKT config); the tensors
    /// are handed back for recycling.
    Merged(Vec<Tensor>),
    /// The sender announced its departure after `completed` iterations;
    /// the caller demotes it with [`Worker::demote_peer`] (the live
    /// driver has its own flags to unwind first).
    Departed { completed: u64 },
}

/// One gradient computation: forward/backward over the minibatch whose
/// indices sit in `batch_buf`, the clipped mean gradients left in `grads`;
/// returns the batch loss. Allocation-free once `scratch` is warm: the
/// batch tensor, every activation and every gradient cycle through it.
fn grads_step(
    model: &mut Model,
    scratch: &mut Scratch,
    grads: &mut Vec<Tensor>,
    batch_buf: &[usize],
    data: &Dataset,
    grad_clip: f32,
) -> f64 {
    let (x, y) = data.batch_scratch(batch_buf, scratch);
    let loss = model.forward_backward_scratch(x, &y, scratch, grads);
    for g in grads.iter_mut() {
        g.clip_inplace(grad_clip);
    }
    loss
}

impl Worker {
    /// Group-wise Eq. 7 divisor for `round`: this worker plus the round's
    /// declared neighbors `nbrs`, minus anyone the ledger says left before
    /// it. Both the plain `1/n` and the weighted `LBS/GBS` denominators
    /// count only that group; on a full mesh with no departures this is
    /// the global `(n, GBS)` pair exactly (shares partition the GBS).
    pub fn counted_for(&self, nbrs: &[usize], round: u64, members: &Membership) -> (usize, usize) {
        let mut n = 1;
        let mut gbs = self.lbs;
        for &j in nbrs {
            if members.counts(j, round) {
                n += 1;
                gbs += members.lbs_of[j];
            }
        }
        (n, gbs.max(1))
    }

    /// The Eq. 7 step for a gradient computed over `lbs` samples, averaged
    /// over a [`Worker::counted_for`] divisor.
    fn factor(&self, lbs: usize, (n, gbs): (usize, usize)) -> f32 {
        update_factor(self.lr, n, lbs, gbs, self.weighted)
    }

    fn apply_grad(&mut self, msg: &GradMsg, factor: f32) {
        match &msg.data {
            GradData::Dense(vars) => self.model.apply_dense_update(vars, factor),
            GradData::Sparse(vars) => {
                for (v, s) in vars.iter().enumerate() {
                    self.model.apply_sparse_update(v, s, factor);
                }
            }
        }
    }

    /// The compute step, here and now: forward/backward over the minibatch
    /// in `self.batch_buf`, leaving the clipped mean gradients in
    /// `self.grads`; returns the batch loss.
    pub fn compute_grads(&mut self, data: &Dataset, grad_clip: f32) -> f64 {
        grads_step(
            &mut self.model,
            &mut self.scratch,
            &mut self.grads,
            &self.batch_buf,
            data,
            grad_clip,
        )
    }

    /// [`Worker::compute_grads`] as a pool job that owns what it touches:
    /// `model`, `scratch`, `grads` and `batch_buf` move into it and come
    /// back at [`Worker::join_grads`]. Until then a peer gradient is
    /// accounted on arrival and its weight update queued
    /// ([`Worker::on_payload`]); anything else that reads or writes those
    /// four fields must join first. The job reads exactly the weights the
    /// eager call would and the queued updates land in arrival order, so
    /// every float is the one `compute_grads` here and now would give.
    pub fn spawn_grads(&mut self, data: &Arc<Dataset>, grad_clip: f32) {
        debug_assert!(self.pending.is_none(), "one gradient job per worker");
        // Messages still in flight share the gradient tensors' storage, so
        // the step's in-place overwrite copies them first. Make that copy
        // here, on the thread that frees the messages: what it frees stays
        // reusable by what it allocates, and a step on a warm arena then
        // allocates nothing large on the pool thread (a cold arena's fill
        // does, once per LBS).
        for g in &mut self.grads {
            g.data_mut();
        }
        let mut job = GradJob {
            model: std::mem::take(&mut self.model),
            scratch: std::mem::take(&mut self.scratch),
            grads: std::mem::take(&mut self.grads),
            batch_buf: std::mem::take(&mut self.batch_buf),
            loss: 0.0,
        };
        let data = Arc::clone(data);
        self.pending = Some(PendingIteration::InFlight(par::spawn(move || {
            job.loss = grads_step(
                &mut job.model,
                &mut job.scratch,
                &mut job.grads,
                &job.batch_buf,
                &data,
                grad_clip,
            );
            job
        })));
    }

    /// The join point of [`Worker::spawn_grads`]: bring the job's state
    /// home (running the job here if no pool thread has started it), then
    /// apply the peer gradients that queued behind it, in arrival order.
    /// Returns the batch loss if a job was in flight, `None` (and does
    /// nothing) otherwise.
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
            loss,
        } = job.join();
        (self.model, self.scratch, self.grads, self.batch_buf) = (model, scratch, grads, batch_buf);
        let mut queued = std::mem::take(&mut self.queued);
        for (msg, factor) in queued.drain(..) {
            self.apply_grad(&msg, factor);
        }
        self.queued = queued;
        self.pending = Some(PendingIteration::Done { loss });
        Some(loss)
    }

    /// Finish the round whose gradients sit in `self.grads`: record the
    /// loss, apply the own (self-weighted) update, generate the per-link
    /// partial gradients, advance the iteration and retarget gating at
    /// the round's neighbor set. Returns the updates in send order and
    /// whether the completed iteration is a DKT share round. `bw(j)` is
    /// the bandwidth to neighbor `j` in Mbps.
    pub fn complete_round(
        &mut self,
        loss: f64,
        now: f64,
        bw: impl Fn(usize) -> f64,
        members: &Membership,
    ) -> (Vec<PeerUpdate>, bool) {
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
        let own_factor = self.factor(self.lbs, self.counted_for(&nbrs, round, members));
        self.model.apply_dense_update(&self.grads, own_factor);
        let n = members.lbs_of.len();
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
        let share_dkt = self.dkt.is_share_round(self.iteration);
        event!(now, w: self.id, "iter_done";
            "iter" => self.iteration,
            "updates" => updates.len(),
            "share_dkt" => share_dkt);
        (updates, share_dkt)
    }

    /// Handle one training payload from `from` — the simulator's `Msg`
    /// event and the live driver's decoded frame.
    pub fn on_payload(&mut self, from: usize, payload: Payload, members: &Membership) -> Effect {
        match payload {
            Payload::Grad(msg) => {
                self.sync.on_gradient(from, msg.iteration);
                if self.strategy.sync_policy() == SyncPolicy::Synchronous {
                    self.parked.push((from, msg));
                    return Effect::Parked;
                }
                // The gradient round's group (symmetric, so sender and
                // receiver agree on it) sets the divisor.
                let nbrs = self.schedule.neighbors(self.id, msg.iteration);
                let divisor = self.counted_for(&nbrs, msg.iteration, members);
                let factor = self.factor(msg.lbs, divisor);
                // The model is away computing: the arrival is accounted
                // (above) and priced (the factor, from the ledger as it
                // stands now); the axpy waits for the model in arrival
                // order. Only the simulator ever has a job in flight.
                if matches!(self.pending, Some(PendingIteration::InFlight(_))) {
                    self.queued.push((msg, factor));
                    return Effect::Parked;
                }
                self.apply_grad(&msg, factor);
                Effect::Applied(msg)
            }
            Payload::LossShare { avg_loss } => {
                self.dkt.update_known(from, avg_loss);
                Effect::Noted
            }
            // We are the (believed) best worker: ship our weights back.
            Payload::DktRequest => Effect::Reply(Payload::Weights {
                weights: self.model.weights(),
                sender_loss: self.dkt.avg_loss().unwrap_or(f64::INFINITY),
            }),
            Payload::Weights { weights, .. } => {
                self.model.merge_weights(&weights, self.dkt.cfg().lambda);
                Effect::Merged(weights)
            }
            Payload::Leave { completed } => Effect::Departed { completed },
        }
    }

    /// The single strict-BSP flush point: apply parked gradients of rounds
    /// this worker has completed (all rounds when `force` — end of run, no
    /// further local round will come) in `(round, sender)` order, handing
    /// each applied message to `applied`.
    ///
    /// Arrival order depends on the previous round's gating-release order
    /// (sim) or on frame racing (live); sorting keeps it out of the float
    /// addition order, which is what makes BSP runs bit-identical across
    /// backends, transports and interleavings. For the same reason a round
    /// whose batch is incomplete — a sender the ledger counts for it is
    /// still missing — stays parked: applying half of it now and half at a
    /// later flush would order by arrival again. The hold-back cannot
    /// stall: a counted sender's gradient is guaranteed delivered (per-link
    /// FIFO puts it before any Leave; a paused sender stays gated on), and
    /// gating blocks the next local round on the same set anyway. In place
    /// and allocation-free once warm.
    pub fn flush_parked(
        &mut self,
        members: &Membership,
        force: bool,
        mut applied: impl FnMut(usize, GradMsg),
    ) {
        if self.parked.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        parked.sort_by_key(|&(from, ref msg)| (msg.iteration, from));
        let end = if force {
            parked.len()
        } else {
            parked.partition_point(|(_, msg)| msg.iteration < self.iteration)
        };
        // Walk the due prefix one round at a time; held-back rounds are
        // rotated to the front so `parked[held..end]` is what was applied.
        let (mut held, mut at) = (0, 0);
        while at < end {
            let round = parked[at].1.iteration;
            let len = parked[at..end].partition_point(|(_, msg)| msg.iteration == round);
            let batch = &parked[at..at + len];
            let nbrs = self.schedule.neighbors(self.id, round);
            let complete = force
                || nbrs.iter().all(|&j| {
                    !members.counts(j, round)
                        || batch.binary_search_by_key(&j, |&(from, _)| from).is_ok()
                });
            if complete {
                let divisor = self.counted_for(&nbrs, round, members);
                for (_, msg) in batch {
                    self.apply_grad(msg, self.factor(msg.lbs, divisor));
                }
            } else {
                parked[held..at + len].rotate_right(len);
                held += len;
            }
            at += len;
        }
        for (from, msg) in parked.drain(held..end) {
            applied(from, msg);
        }
        self.parked = parked;
    }

    /// Demote a departed peer — Hop's backup-worker demotion applied to
    /// an absent worker: it no longer gates this worker's iterations (or
    /// its `BlockOnDelivery` ack-waiting) and is no longer a DKT pull
    /// target. `completed` is the round the ledger excludes it from.
    pub fn demote_peer(&mut self, peer: usize, completed: u64, now: f64) {
        self.sync.demote(peer);
        self.dkt.forget(peer);
        event!(now, w: self.id, "peer_departed";
            "peer" => peer, "completed" => completed, "iter" => self.iteration);
    }

    /// A DKT round (§3.4): share the recent average loss with the current
    /// round's `reachable` neighbors, then pull from the best-known worker
    /// if the mode says so (at most once per DKT period). Returns the
    /// `(peer, payload)` sends in order.
    pub fn dkt_round(
        &mut self,
        now: f64,
        reachable: impl Fn(usize) -> bool,
    ) -> Vec<(usize, Payload)> {
        let Some(avg_loss) = self.dkt.avg_loss() else {
            return Vec::new();
        };
        event!(now, w: self.id, "dkt_round"; "avg_loss" => avg_loss);
        self.dkt.update_known(self.id, avg_loss);
        let mut sends: Vec<(usize, Payload)> = self
            .schedule
            .neighbors(self.id, self.iteration)
            .into_iter()
            .filter(|&j| reachable(j))
            .map(|j| (j, Payload::LossShare { avg_loss }))
            .collect();
        let round = self.iteration / self.dkt.cfg().period_iters;
        if self.last_pull_round < round {
            if let Some(target) = self.dkt.pull_target().filter(|&t| reachable(t)) {
                self.last_pull_round = round;
                sends.push((target, Payload::DktRequest));
            }
        }
        sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_cluster;
    use crate::config::{RunConfig, SystemKind};

    /// `n` strict-BSP Baseline workers on a full mesh, no backend attached.
    fn bsp_workers(n: usize) -> Vec<Worker> {
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        build_cluster(&cfg, n).workers
    }

    fn ledger(lbs_of: Vec<usize>) -> Membership {
        Membership {
            departed_at: vec![None; lbs_of.len()],
            lbs_of,
        }
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
                    .map(|t| Tensor::full(t.shape().clone(), value))
                    .collect(),
            ),
            n_used: 100.0,
        })
    }

    fn bits(w: &Worker) -> Vec<Vec<u32>> {
        let to_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        w.model.weights().iter().map(to_bits).collect()
    }

    #[test]
    fn divisor_follows_the_ledger() {
        let w = bsp_workers(4).swap_remove(0);
        let nbrs = w.schedule.neighbors(0, 0);
        assert_eq!(nbrs, vec![1, 2, 3]);
        let mut m = ledger(vec![32, 20, 30, 40]);
        // Full mesh, nobody gone: exactly (n, GBS).
        assert_eq!(w.counted_for(&nbrs, 0, &m), (4, 122));
        assert_eq!(w.counted_for(&nbrs, 999, &m), (4, 122));
        // Worker 2 computes rounds 0..3 only.
        m.departed_at[2] = Some(3);
        assert!(m.counts(2, 2) && !m.counts(2, 3));
        assert_eq!(w.counted_for(&nbrs, 2, &m), (4, 122));
        assert_eq!(w.counted_for(&nbrs, 3, &m), (3, 92));
        assert_eq!(w.counted_for(&nbrs, 7, &m), (3, 92));
        // The divisor is group-wise: only declared neighbors count.
        assert_eq!(w.counted_for(&[1], 0, &m), (2, 52));
    }

    #[test]
    fn flush_order_is_round_then_sender_whatever_the_park_order() {
        let m = ledger(vec![32; 3]);
        // The same rank twice (seeded build: identical weights), fed the
        // same gradients in opposite arrival orders.
        let (mut a, mut b) = (bsp_workers(3).swap_remove(0), bsp_workers(3).swap_remove(0));
        let arrivals = [(1, 0, 1e-3), (2, 0, 3e3), (1, 1, 7e-5), (2, 1, 11.0)];
        let mut order = Vec::new();
        for (w, rev) in [(&mut a, false), (&mut b, true)] {
            let mut park: Vec<_> = arrivals.to_vec();
            if rev {
                park.reverse();
            }
            for (from, round, v) in park {
                let g = grad(w, round, v);
                assert!(matches!(w.on_payload(from, g, &m), Effect::Parked));
            }
            w.iteration = 2;
            order.clear();
            w.flush_parked(&m, false, |from, msg| order.push((msg.iteration, from)));
            assert_eq!(order, vec![(0, 1), (0, 2), (1, 1), (1, 2)]);
            assert!(w.parked.is_empty());
        }
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&bsp_workers(3)[0]), "nothing was applied");
    }

    #[test]
    fn incomplete_round_stays_parked_until_complete_or_forced() {
        let mut m = ledger(vec![32; 3]);
        let mut w = bsp_workers(3).swap_remove(0);
        let before = bits(&w);
        let (g0, g1) = (grad(&w, 0, 0.5), grad(&w, 1, 0.25));
        w.on_payload(1, g0, &m);
        w.on_payload(1, g1, &m);
        w.iteration = 1;
        let mut applied = Vec::new();
        // Round 0 is due but sender 2 is missing; round 1 is not due.
        w.flush_parked(&m, false, |from, msg| applied.push((msg.iteration, from)));
        assert!(applied.is_empty());
        assert_eq!(w.parked.len(), 2);
        assert_eq!(bits(&w), before);
        // A ledger that says 2 never computed round 0 completes the batch.
        m.departed_at[2] = Some(0);
        w.flush_parked(&m, false, |from, msg| applied.push((msg.iteration, from)));
        assert_eq!(applied, vec![(0, 1)]);
        assert_eq!(w.parked.len(), 1);
        let after_round0 = bits(&w);
        assert_ne!(after_round0, before);
        // Round 1 is still ahead of us: only `force` drains it.
        w.flush_parked(&m, false, |_, _| panic!("round 1 is not due"));
        assert_eq!(bits(&w), after_round0);
        w.flush_parked(&m, true, |from, msg| applied.push((msg.iteration, from)));
        assert_eq!(applied, vec![(0, 1), (1, 1)]);
        assert!(w.parked.is_empty());
        assert_ne!(bits(&w), after_round0);
    }

    #[test]
    fn held_back_round_does_not_block_a_complete_later_one() {
        let m = ledger(vec![32; 3]);
        let mut w = bsp_workers(3).swap_remove(0);
        for (from, round) in [(2, 1), (1, 0), (1, 1)] {
            let g = grad(&w, round, 0.5);
            w.on_payload(from, g, &m);
        }
        w.iteration = 2;
        let mut applied = Vec::new();
        w.flush_parked(&m, false, |from, msg| applied.push((msg.iteration, from)));
        assert_eq!(applied, vec![(1, 1), (1, 2)]);
        assert_eq!(w.parked.len(), 1);
        assert_eq!((w.parked[0].0, w.parked[0].1.iteration), (1, 0));
    }

    /// Peer gradients that reach a worker whose gradient job is out are
    /// accounted at once and applied at the join, in arrival order: the
    /// weights (and the job's gradients) carry the bits of computing first
    /// and applying each gradient on arrival.
    #[test]
    fn gradients_queued_behind_a_job_apply_at_the_join_in_arrival_order() {
        let cfg = RunConfig::small_test(SystemKind::Baseline);
        let init = |n| build_cluster(&cfg, n);
        let (mut ia, mut ib) = (init(3), init(3));
        let data = Arc::new(ia.data);
        let (mut a, mut b) = (ia.workers.swap_remove(0), ib.workers.swap_remove(0));
        let m = ledger(vec![32, 20, 44]);
        // Distinct magnitudes make the float addition order observable.
        let arrivals = [(1, 1e-3), (2, 3e3), (1, 7e-5), (2, 11.0)];
        for w in [&mut a, &mut b] {
            w.sample_batch_reuse();
            w.compute_grads(&data, cfg.grad_clip);
            w.sample_batch_reuse();
        }
        let before = bits(&a);

        a.spawn_grads(&data, cfg.grad_clip);
        for (round, &(from, v)) in arrivals.iter().enumerate() {
            let g = grad(&b, round as u64 / 2, v);
            assert!(matches!(a.on_payload(from, g, &m), Effect::Parked));
        }
        assert_eq!(a.queued.len(), 4, "the model is away: nothing applied");
        assert_eq!(a.sync.received_from(2), Some(1), "gating sees it at once");
        let loss_a = a.join_grads().expect("a job was in flight");
        assert!(a.queued.is_empty() && a.join_grads().is_none());

        let loss_b = b.compute_grads(&data, cfg.grad_clip);
        for (round, &(from, v)) in arrivals.iter().enumerate() {
            let g = grad(&b, round as u64 / 2, v);
            assert!(matches!(b.on_payload(from, g, &m), Effect::Applied(_)));
        }
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), before, "nothing was applied");
        let grad_bits = |w: &Worker| -> Vec<Vec<u32>> {
            let to_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
            w.grads.iter().map(to_bits).collect()
        };
        assert_eq!(grad_bits(&a), grad_bits(&b));
    }

    #[test]
    fn dkt_request_is_answered_with_weights_and_avg_loss() {
        let m = ledger(vec![32; 2]);
        let mut w = bsp_workers(2).swap_remove(0);
        w.dkt.record_loss(2.0);
        w.dkt.record_loss(4.0);
        match w.on_payload(1, Payload::DktRequest, &m) {
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
