//! Per-worker state: the counterpart of Figure 10's worker architecture
//! (model, training state, exchange strategy, synchronization bookkeeping,
//! DKT state). Both backends run the same `Worker`; the protocol it
//! executes each round is `impl Worker` in [`crate::round`].
//!
//! A worker's weight updates — its own Eq. 7 step and every accepted peer
//! gradient — wait in one update log ([`Worker::queued`]) until the
//! model's next user settles it, in log order: the next gradient step (a
//! pool job on the simulator), or a reader of the weights (a DKT reply or
//! merge, evaluation, final-weight capture, a weight-reading strategy).
//! Log order is the order eager application used, so deferring changes no
//! bit.

use crate::dkt::DktState;
use crate::fault::KillSpec;
use crate::gbs::Batching;
use crate::messages::GradMsg;
use crate::record::WorkerOutcome;
use crate::strategy::ExchangeStrategy;
use crate::sync::SyncState;
use dlion_nn::{EvalResult, Model};
use dlion_tensor::par::Job;
use dlion_tensor::{DetRng, Scratch, Tensor};
use dlion_topo::TopologySchedule;
use std::sync::Arc;

/// One DLion worker (a rank), simulated or live.
pub struct Worker {
    pub id: usize,
    pub model: Model,
    pub strategy: Box<dyn ExchangeStrategy>,
    pub sync: SyncState,
    pub dkt: DktState,
    /// Worker-private RNG (batch sampling).
    pub rng: DetRng,
    /// Training-set indices assigned to this worker.
    pub shard: Vec<usize>,
    /// Current local batch size.
    pub lbs: usize,
    /// Completed iterations (== index of the next iteration to run).
    pub iteration: u64,
    /// The simulator's iteration in progress: its gradient computation,
    /// out on the pool or already home, until the simulated completion
    /// time consumes the loss. Always `None` on the live backend.
    pub pending: Option<PendingIteration>,
    /// True if blocked by the synchronization policy.
    pub waiting: bool,
    /// Duration of the last iteration (for the speed-assurance budget).
    pub last_iter_time: f64,
    /// Last DKT round in which this worker issued a pull request.
    pub last_pull_round: u64,
    /// Per-worker buffer arena: every activation/gradient/batch buffer of
    /// the training step recycles through here instead of the allocator.
    /// Its buffers fit one batch size; [`Worker::set_lbs`] drops them.
    pub scratch: Scratch,
    /// Persistent per-variable gradient tensors, overwritten each
    /// iteration by `forward_backward_scratch` (empty until the first one).
    pub grads: Vec<Tensor>,
    /// Reusable minibatch index buffer (see [`Worker::sample_batch_reuse`]).
    pub batch_buf: Vec<usize>,
    /// Run constants the round protocol (`crate::round`) reads: the global
    /// learning rate, whether Eq. 7 weighting is on, and the per-round
    /// neighbor oracle (shared by every worker of the cluster).
    pub lr: f32,
    pub weighted: bool,
    pub schedule: Arc<dyn TopologySchedule>,
    /// Strict BSP only: peer gradients parked as `(sender, msg)` until
    /// [`Worker::flush_parked`] logs their round.
    pub parked: Vec<(usize, GradMsg)>,
    /// The update log: every weight update accepted but not yet applied —
    /// the own update of each completed round and every peer gradient, in
    /// the order they happened (a parked one when its round is flushed),
    /// each priced (its Eq. 7 factor) when it was logged. Nothing applies
    /// an entry on arrival; the model's next user settles the log in this
    /// order ([`Worker::settle`]; inside the gradient job on the
    /// simulator).
    pub queued: Vec<Update>,
    /// This rank's planned kill (`RunConfig::fault`), if any: the round
    /// core fires it once the completed-iteration count reaches `at_iter`.
    pub kill: Option<KillSpec>,
    /// The departures this rank knows of, as `(rank, round)`: the rank
    /// computes rounds `0..round`, so its gradients count in the divisor
    /// for earlier rounds and are excluded from `round` on. Seeded with the
    /// fault plan's permanent kills (`build_cluster`; a rejoining kill is a
    /// pause, its rank stays a member), grown only by
    /// [`Worker::demote_peer`]. Empty in a run without departures.
    pub departures: Vec<(usize, u64)>,
    /// This rank's §3.2 batching state: its round schedule, RCP collect
    /// and the LBS shares it decided.
    pub batching: Batching,
    /// This rank's record of its run ([`crate::record`]), taken at the end
    /// of the run by [`Worker::take_record`].
    pub record: WorkerOutcome,
}

/// One entry of the update log ([`Worker::queued`]).
pub enum Update {
    /// This worker's own Eq. 7 step over [`Worker::grads`] — which stay
    /// untouched until the log is settled.
    Own { factor: f32 },
    /// A peer's gradient, priced with this rank's departures and shares
    /// as they stood when it was logged.
    Peer { msg: GradMsg, factor: f32 },
}

/// A gradient computation awaiting its virtual completion.
pub enum PendingIteration {
    /// Spawned by [`Worker::spawn_grads`] and not joined yet: the job owns
    /// `model`, `scratch`, `grads`, `batch_buf` and the log it settles;
    /// the worker's fields of those names are empty (its log collects
    /// what arrives meanwhile) until [`Worker::join_grads`].
    InFlight(Job<GradJob>),
    /// The gradients are in [`Worker::grads`]; this is the batch loss.
    Done { loss: f64 },
}

/// What a gradient job takes from its worker and brings back.
pub struct GradJob {
    pub(crate) model: Model,
    pub(crate) scratch: Scratch,
    pub(crate) grads: Vec<Tensor>,
    pub(crate) batch_buf: Vec<usize>,
    pub(crate) log: Vec<Update>,
    pub(crate) loss: f64,
}

/// What an evaluation job ([`Worker::spawn_eval`]) takes from its worker
/// and brings back, with the result.
pub struct EvalJob(pub(crate) Job<(Model, Vec<Tensor>, Vec<Update>, EvalResult)>);

impl Worker {
    /// Reassign the local batch size. The arena's buckets are exact lengths
    /// and activation lengths scale with the batch, so after a change the
    /// old buffers could never be taken again: release them and let the
    /// next step refill the arena at the new size.
    pub fn set_lbs(&mut self, lbs: usize) {
        if lbs != self.lbs {
            self.lbs = lbs;
            self.scratch = Scratch::new();
        }
    }

    /// Fill [`Worker::batch_buf`] with the next minibatch: `lbs` indices
    /// drawn (with replacement) from the shard, reusing the buffer's
    /// allocation.
    pub fn sample_batch_reuse(&mut self) {
        assert!(
            !self.shard.is_empty(),
            "worker {} has an empty shard",
            self.id
        );
        self.batch_buf.clear();
        for _ in 0..self.lbs {
            let i = self.shard[self.rng.index(self.shard.len())];
            self.batch_buf.push(i);
        }
    }

    /// Is the worker idle (no iteration pending, not marked waiting)?
    pub fn idle(&self) -> bool {
        self.pending.is_none() && !self.waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunConfig, SystemKind};
    use crate::dkt::DktConfig;
    use crate::strategy::build_strategy;
    use dlion_nn::ModelSpec;
    use dlion_tensor::Shape;

    fn worker() -> Worker {
        let mut rng = DetRng::seed_from_u64(1);
        let model = ModelSpec::Cipher.build(&Shape::d4(1, 1, 12, 12), 10, &mut rng);
        let cfg = RunConfig::paper_default(SystemKind::DLion, dlion_microcloud::ClusterKind::Cpu);
        Worker {
            id: 0,
            model,
            strategy: build_strategy(&cfg),
            sync: SyncState::new(0, 6),
            dkt: DktState::new(0, 6, DktConfig::default()),
            rng,
            shard: (0..100).collect(),
            lbs: 32,
            iteration: 0,
            pending: None,
            waiting: false,
            last_iter_time: 2.0,
            last_pull_round: 0,
            scratch: Scratch::new(),
            grads: Vec::new(),
            batch_buf: Vec::new(),
            lr: cfg.lr,
            weighted: cfg.system.weighted_update(),
            schedule: cfg.topology.build(6, cfg.seed).unwrap(),
            parked: Vec::new(),
            queued: Vec::new(),
            kill: None,
            departures: Vec::new(),
            batching: Batching::new(&cfg, 6),
            record: WorkerOutcome::default(),
        }
    }

    #[test]
    fn sample_batch_size_and_range() {
        let mut w = worker();
        w.sample_batch_reuse();
        assert_eq!(w.batch_buf.len(), 32);
        assert!(w.batch_buf.iter().all(|&i| i < 100));
        w.set_lbs(7);
        w.sample_batch_reuse();
        assert_eq!(w.batch_buf.len(), 7);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = worker();
        let mut b = worker();
        a.sample_batch_reuse();
        b.sample_batch_reuse();
        assert_eq!(a.batch_buf, b.batch_buf);
    }

    /// The arena follows the batch size: a worker stepped through LBS
    /// 32 → 48 → 64 → 100 ends holding exactly what a worker that only
    /// ever ran LBS 100 holds — nothing of the sizes it left.
    #[test]
    fn arena_holds_only_the_current_batch_size() {
        let data = dlion_nn::Dataset::synth_vision(100, 1);
        let steps = |w: &mut Worker, lbs: usize| {
            w.set_lbs(lbs);
            for _ in 0..2 {
                w.sample_batch_reuse();
                w.compute_grads(&data, 5.0);
            }
            w.scratch.held_bytes()
        };
        let mut fresh = worker();
        let at_100 = steps(&mut fresh, 100);
        let mut w = worker();
        let at_32 = steps(&mut w, 32);
        assert!(0 < at_32 && at_32 < at_100);
        steps(&mut w, 48);
        steps(&mut w, 64);
        assert_eq!(steps(&mut w, 100), at_100);
        // An unchanged LBS keeps the warm arena.
        w.set_lbs(100);
        assert_eq!(w.scratch.held_bytes(), at_100);
    }

    #[test]
    fn idle_logic() {
        let mut w = worker();
        assert!(w.idle());
        w.pending = Some(PendingIteration::Done { loss: 1.0 });
        assert!(!w.idle());
        w.pending = None;
        w.waiting = true;
        assert!(!w.idle());
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn empty_shard_panics() {
        let mut w = worker();
        w.shard.clear();
        w.sample_batch_reuse();
    }
}
