//! One rank's loop (Fig. 4/10) as one machine, on both backends: a
//! [`Rank`] takes what happens to it — a computed step, a payload, a
//! notice, a delivery, a lost peer, a wake-up — through [`Rank::on`], which
//! never blocks, and answers with what its backend is to do, in order: start
//! a step, send, send a notice, ack, wake it at a time, or note that it
//! departed or finished. Whether the next step may start — an open batching
//! collect, the sync gate, a pause, the iteration cap and the end-of-run
//! barrier — is decided here once, and only here are the round core's
//! `complete_round`, `on_payload`, `batching_step`, `flush_parked` and
//! `demote_peer` called.
//!
//! The backends keep the rest. The simulator (`crate::runner`) maps its
//! events to inputs and outputs to events; the live driver (`dlion-net`)
//! is one receive loop that computes a step inline when told to. What
//! differs between them is lent as a [`Host`]: the clock batching rounds
//! fall due on (virtual time, or the training clock), a link's bandwidth
//! and, lazily, this rank's RCP.

use crate::gbs::Notice;
use crate::messages::Payload;
use crate::round::Effect;
use crate::worker::{PendingIteration, Worker};
use dlion_telemetry::event;
use dlion_tensor::Tensor;
use std::collections::VecDeque;

/// What happens to a rank.
pub enum Input {
    /// The step the rank asked for ([`Output::Step`]) is computed: its
    /// result is in [`Worker::pending`], its step time in
    /// [`Worker::last_iter_time`].
    Computed,
    /// A training payload from a peer.
    Payload { from: usize, payload: Payload },
    /// A batching notice from a peer: an RCP, or its Done.
    Notice { from: usize, notice: Notice },
    /// One of this rank's gradients reached `from` (the simulator's
    /// arrival, a live ack).
    Delivered { from: usize },
    /// The backend lost `peer`: a closed or silent link, a failed send.
    Lost { peer: usize },
    /// The time asked for with [`Output::WakeAt`] has come — or, live,
    /// nothing arrived for a whole stall timeout: an open collect then
    /// decides with whoever answered, and a pause ends early.
    Wake,
}

/// What a rank asks of its backend, in the order given.
#[derive(Debug)]
pub enum Output {
    /// Compute a step over the minibatch in [`Worker::batch_buf`] (the
    /// update log settles first) and report it with [`Input::Computed`].
    Step,
    /// Put this payload on the wire to that peer.
    Send(usize, Payload),
    /// Send this batching notice to that peer (a control frame).
    Notice(usize, Notice),
    /// A gradient from this peer was accepted into the update log; a
    /// backend whose gate reads acknowledgements sends one.
    Ack(usize),
    /// Feed [`Input::Wake`] at this time: the end of a pause, or `now` —
    /// once the outputs before it are carried out, the rank decides what
    /// it does next.
    WakeAt(f64),
    /// The rank left the run (a permanent kill): it steps no more.
    Departed,
    /// The rank completed its iterations, and every linked peer's Done is
    /// in: the backend may end it.
    Finished,
}

/// What the rank waits on between steps ([`Rank::waiting_on`]).
#[derive(Debug, PartialEq)]
pub enum Wait {
    /// The sync gate of `round` (the next step) is shut: gradients from
    /// `missing` are not in (under `BlockOnDelivery`, ours have not reached
    /// them).
    Gate { round: u64, missing: Vec<usize> },
    /// The batching collect of `round` is open: RCPs from `missing` are
    /// not in.
    Collect { round: u64, missing: Vec<usize> },
    /// The end-of-run barrier: Dones from `missing` are not in.
    Barrier { missing: Vec<usize> },
}

/// What differs per backend, lent to a rank for one input.
pub struct Host<'a> {
    /// The clock batching rounds fall due on, as the input arrives:
    /// virtual time in the simulator, the training clock live.
    pub clock: f64,
    /// The bandwidth of the link to a peer now, in Mbps (a strategy's
    /// per-link budget).
    pub bandwidth: &'a dyn Fn(usize) -> f64,
    /// This rank's RCP, asked only when it opens a batching round.
    pub rcp: &'a mut dyn FnMut() -> f64,
    /// Takes the loss of a gradient job the rank brings home.
    pub joined: &'a mut dyn FnMut(f64),
    /// Takes the tensors of a merged DKT pull, for reuse.
    pub recycle: &'a mut dyn FnMut(Vec<Tensor>),
}

/// The buffer [`Rank::on`] fills and its caller drains with
/// [`Outputs::pop`]. The post-round sequence's trace rows (`departed`,
/// `pause`, `dkt_round`) wait in it too and are written as the caller
/// passes them, so they land among its `send` rows where the sequence
/// puts them. Reused, it does not allocate.
#[derive(Default)]
pub struct Outputs(VecDeque<Item>);

/// An entry of [`Outputs`], as the round core appends it: an output, or
/// a trace row of rank `w` at `now`.
pub enum Item {
    Out(Output),
    Mark(Mark, f64, usize),
}

impl From<Output> for Item {
    fn from(output: Output) -> Item {
        Item::Out(output)
    }
}

/// A trace row of the post-round sequence, written at its place:
/// `departed {iter}`, `pause {iter, secs}`, `dkt_round {avg_loss}`.
pub enum Mark {
    Departed(u64),
    Pause(u64, f64),
    DktRound(f64),
}

impl Outputs {
    /// The next output, in order.
    pub fn pop(&mut self) -> Option<Output> {
        loop {
            let (mark, now, w) = match self.0.pop_front()? {
                Item::Out(output) => return Some(output),
                Item::Mark(mark, now, w) => (mark, now, w),
            };
            match mark {
                Mark::Departed(iter) => event!(now, w: w, "departed"; "iter" => iter),
                Mark::Pause(iter, secs) => {
                    event!(now, w: w, "pause"; "iter" => iter, "secs" => secs)
                }
                Mark::DktRound(loss) => event!(now, w: w, "dkt_round"; "avg_loss" => loss),
            }
        }
    }

    fn push(&mut self, output: Output) {
        self.0.push_back(Item::Out(output));
    }

    /// Where the round core appends.
    pub(crate) fn sink(&mut self) -> impl FnMut(Item) + '_ {
        |item| self.0.push_back(item)
    }
}

/// Where a rank is between its inputs.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Between a computed step (or a pause) and the wake-up that decides
    /// what comes next; also before the first wake-up.
    Idle,
    /// The last decision found a batching collect open or the gate shut.
    Waiting,
    /// A step is out.
    Stepping,
    /// A rejoining kill's dead time.
    Paused,
    /// Iterations done, Dones sent, some linked peer's Done not in.
    Finishing,
    Finished,
}

/// One rank: its [`Worker`] and where it is in its loop.
pub struct Rank {
    pub worker: Worker,
    /// The iteration cap (`None`: the backend ends the run).
    max_iters: Option<u64>,
    /// The peers this rank holds a link to: each hears its Done when it
    /// finishes, and it waits for theirs (the barrier: per-link FIFO puts
    /// a peer's Done behind everything it sent). Empty where the backend
    /// sees every message delivered before it ends a run (the simulator).
    links: Vec<bool>,
    /// Whose Done is in, by rank.
    dones: Vec<bool>,
    phase: Phase,
}

impl Rank {
    pub fn new(worker: Worker, max_iters: Option<u64>, links: Vec<bool>) -> Rank {
        let dones = vec![false; links.len()];
        Rank {
            worker,
            max_iters,
            links,
            dones,
            phase: Phase::Idle,
        }
    }

    /// Is the rank sitting out a rejoining kill's dead time?
    pub fn paused(&self) -> bool {
        self.phase == Phase::Paused
    }

    /// Has the rank completed its iterations (its Dones sent)?
    pub fn finishing(&self) -> bool {
        matches!(self.phase, Phase::Finishing | Phase::Finished)
    }

    /// Handle one input at `now`, appending what the backend is to do to
    /// `out`. Never blocks.
    pub fn on(&mut self, input: Input, now: f64, host: &mut Host, out: &mut Outputs) {
        let w = &mut self.worker;
        let regate = match input {
            Input::Computed => return self.complete(now, host, out),
            // One in flight when this rank departed goes nowhere.
            Input::Payload { .. } if w.departed() => false,
            Input::Payload { from, payload } => {
                // A pull of, or a merge into, the model needs it home.
                if matches!(payload, Payload::DktRequest | Payload::Weights { .. }) {
                    self.home(host);
                }
                let (output, regate) = match self.worker.on_payload(from, payload, now) {
                    Effect::Logged => (Some(Output::Ack(from)), true),
                    Effect::Noted => (None, false),
                    Effect::Reply(reply) => (Some(Output::Send(from, reply)), false),
                    Effect::Merged(weights) => {
                        (host.recycle)(weights);
                        (None, false)
                    }
                    // Per-link FIFO puts a Leave behind the peer's last
                    // gradients: the demotion never costs a round its
                    // gradients.
                    Effect::Departed { completed } => {
                        (None, self.demote(from, Some(completed), now))
                    }
                };
                out.0.extend(output.map(Item::Out));
                regate
            }
            Input::Notice { from, notice } => {
                w.batching.on_notice(from, notice);
                if let (Notice::Done, Some(done)) = (notice, self.dones.get_mut(from)) {
                    *done = true;
                }
                true
            }
            Input::Delivered { from } => {
                w.sync.on_delivered_from(from);
                true
            }
            // A peer whose Done is in leaves as expected.
            Input::Lost { peer } => {
                self.dones.get(peer) == Some(&true) || self.demote(peer, None, now)
            }
            // A paused rank stayed a member and kept receiving; back, it
            // decides once the backend is ready.
            Input::Wake if self.phase == Phase::Paused => {
                self.phase = Phase::Idle;
                event!(now, w: w.id, "rejoin"; "iter" => w.iteration);
                out.push(Output::WakeAt(now));
                false
            }
            Input::Wake => {
                let force = w.collecting();
                return self.decide(now, force, host, out);
            }
        };
        // What the input may have opened.
        match self.phase {
            Phase::Waiting if regate => self.decide(now, false, host, out),
            Phase::Finishing if regate => self.release(out),
            _ => {}
        }
    }

    /// The run is over: whatever is still parked joins the update log, for
    /// the final evaluation to settle — unless the rank departed.
    pub fn close(&mut self) {
        if !self.worker.departed() {
            self.worker.flush_parked(true);
        }
    }

    /// What the rank waits on, if it is waiting: the gate, an open collect
    /// or the barrier, from the state the next decision reads.
    pub fn waiting_on(&self) -> Option<Wait> {
        let w = &self.worker;
        match self.phase {
            Phase::Waiting => Some(match w.awaited_rcps() {
                Some((round, missing)) => Wait::Collect { round, missing },
                None => Wait::Gate {
                    round: w.iteration,
                    missing: w.sync.lagging(w.strategy.sync_policy(), w.iteration),
                },
            }),
            Phase::Finishing => Some(Wait::Barrier {
                missing: self.barrier().collect(),
            }),
            _ => None,
        }
    }

    /// The step is computed: complete its round and hand on the
    /// post-round sequence — the sends, then a kill's Leaves and departure
    /// or pause, or the DKT sends — with its trace rows in place.
    fn complete(&mut self, now: f64, host: &mut Host, out: &mut Outputs) {
        self.home(host);
        let Some(PendingIteration::Done { loss }) = self.worker.pending.take() else {
            panic!("a computed step without its result");
        };
        self.phase = Phase::Idle;
        match self
            .worker
            .complete_round(loss, now, host.bandwidth, out.sink())
        {
            Some(secs) => {
                self.phase = Phase::Paused;
                out.push(Output::WakeAt(now + secs));
            }
            None if !self.worker.departed() => out.push(Output::WakeAt(now)),
            None => {}
        }
    }

    /// Bring a gradient job home, if one is out.
    fn home(&mut self, host: &mut Host) {
        if let Some(loss) = self.worker.join_grads() {
            (host.joined)(loss);
        }
    }

    /// Demote a peer that left; true, so what waits on it is decided
    /// again. A rank holding links checks the graph the peer leaves: a
    /// partitioned component would train on silently while the others'
    /// gradients never reach it, so that is traced loudly (the
    /// union-window check covers rotating group schedules, whose
    /// single-round graphs are disconnected by design).
    fn demote(&mut self, peer: usize, completed: Option<u64>, now: f64) -> bool {
        let w = &mut self.worker;
        if w.demote_peer(peer, completed, now) && !self.links.is_empty() {
            let alive: Vec<bool> = (0..self.links.len())
                .map(|j| !w.sync.is_demoted(j))
                .collect();
            if !w.schedule.is_connected_over(&alive, w.iteration) {
                let alive = alive.iter().filter(|&&a| a).count();
                event!(now, w: w.id, "topology_partitioned";
                    "peer" => peer, "iter" => w.iteration, "alive" => alive);
            }
        }
        true
    }

    /// Between steps: run the batching plane — decide the open round once
    /// every awaited RCP is in (`force`: with whatever is in), open the
    /// next one due — then finish at the iteration cap, or start the next
    /// step if no collect is open and the gate allows; otherwise wait.
    fn decide(&mut self, now: f64, force: bool, host: &mut Host, out: &mut Outputs) {
        let w = &mut self.worker;
        if w.departed() || self.phase != Phase::Idle && self.phase != Phase::Waiting {
            return;
        }
        if w.batching_step(host.clock, now, force, &mut host.rcp, out.sink()) {
            self.phase = Phase::Waiting;
        } else if self.max_iters.is_some_and(|k| w.iteration >= k) {
            self.finish(now, out);
        } else if w.sync.can_start(w.strategy.sync_policy(), w.iteration) {
            // The strict-BSP flush point: the rounds the gate says are
            // complete join the update log, which the step settles.
            w.flush_parked(false);
            w.sample_batch_reuse();
            self.phase = Phase::Stepping;
            out.push(Output::Step);
        } else {
            self.phase = Phase::Waiting;
        }
    }

    /// The iteration cap: a batching rank opens no further round and tells
    /// the peers it awaits, every linked peer hears a Done, and the rank
    /// waits for theirs.
    fn finish(&mut self, now: f64, out: &mut Outputs) {
        let w = &mut self.worker;
        let batching = w.batching.finish(w.id);
        for j in 0..w.schedule.n() {
            let linked = self.links.get(j).is_some_and(|&l| l);
            if j != w.id && (linked || batching && w.awaits_rcp(j)) {
                out.push(Output::Notice(j, Notice::Done));
            }
        }
        // A rank holding links now waits at the barrier.
        if !self.links.is_empty() {
            event!(now, w: w.id, "barrier_enter"; "iter" => w.iteration);
        }
        self.phase = Phase::Finishing;
        self.release(out);
    }

    /// Finished once no linked peer that is still in the run owes a Done.
    fn release(&mut self, out: &mut Outputs) {
        if self.barrier().next().is_none() {
            self.phase = Phase::Finished;
            out.push(Output::Finished);
        }
    }

    /// The linked peers whose Done is not in and who did not leave.
    fn barrier(&self) -> impl Iterator<Item = usize> + '_ {
        let owed = |&j: &usize| self.links[j] && !self.dones[j] && !self.worker.sync.is_demoted(j);
        (0..self.links.len()).filter(owed)
    }
}
