//! The live worker driver: one DLion rank over a real transport — the
//! wall-clock backend of the rank protocol.
//!
//! The rank is a [`Rank`] (`dlion_core::rank`, DESIGN.md §4l), the machine
//! the simulator runs too: it decides every step, the sends after a round,
//! the batching rounds and their collect, the gate, a pause, the
//! departures it learns of and the end-of-run barrier. This file is one
//! loop that feeds it: wait for a frame until the rank's wake time or the
//! stall deadline, decode it, hand it to the rank, carry out what the rank
//! asks — payloads through the codec, notices and acks as control frames —
//! and compute a step inline when told to. Nothing arriving for a whole
//! stall timeout decides an open collect with whoever answered (and ends a
//! pause early); at the gate or the barrier it fails the rank with
//! [`LiveError::Stalled`], naming what the rank waits on
//! ([`Rank::waiting_on`]). This file keeps what only a live rank has: the
//! transport, the clock — the training clock batching rounds fall due on,
//! the RCP it measures (the start-up profile, then the throughput EWMA) —
//! acks, buffer recycling and the live-only trace rows (`barrier_enter`,
//! `topology_partitioned`, `frame_latency`). The rank's [`WorkerOutcome`]
//! is its own record (`dlion_core::record`, the simulator's ranks keep one
//! too); this file prices each send into it at the exact frame length.
//!
//! ## Worker churn
//!
//! The driver survives peers leaving mid-run, and pauses where the plan
//! says so — the simulator's fault semantics, kill for kill:
//!
//! * A **planned departure** ([`dlion_core::FaultPlan`], `--kill W@I`)
//!   makes the victim broadcast `Payload::Leave` — the round core's
//!   action, through the same payload codec, as the simulator's victim —
//!   carrying its completed iteration count `K` right after its last
//!   fan-out, and exit. Per-peer FIFO puts the Leave after every gradient
//!   the victim sent.
//! * A **crash** surfaces on each survivor as
//!   [`dlion_core::TransportError::PeerDisconnected`] (reader EOF) or
//!   [`dlion_core::TransportError::PeerTimeout`] from the transport, and
//!   reaches the rank as a lost peer.
//! * Either way the rank **demotes** the peer — Hop's backup-worker
//!   demotion applied to an absent worker (`Worker::demote_peer`, shared
//!   with the simulator): it stops iteration gating (and
//!   `BlockOnDelivery` ack-waiting) on it and drops it as a DKT pull
//!   target, and the rank's departures (`Worker::departures`) renormalize
//!   averaging over the workers that actually contribute: the departed
//!   peer counts in the divisor for rounds `< K` (its gradients for those
//!   rounds exist and are applied) and is excluded from `K` on. `K` is the
//!   Leave's, or — a crash — the round after the peer's last gradient; a
//!   planned kill is in every rank's departures from the start
//!   (`build_cluster` seeds them from the fault plan, for both backends),
//!   so every survivor renormalizes at the same round no matter when the
//!   Leave frame lands — kill plans are deterministic.
//! * A **rejoining kill** (`--kill W@I+R`) is a pause, like the
//!   simulator's: the rank stops stepping for `R` clock seconds and keeps
//!   serving frames. It stays a member — no Leave, no departure — so
//!   its neighbors wait for it as for any slow peer (`RunSpec::validate`
//!   refuses a pause the stall timeout would cut short). A Hello after
//!   establishment is a protocol error: nobody comes back from a Leave.
//!
//! Two protocol additions have no simulator counterpart:
//!
//! * under `BlockOnDelivery` (Gaia) every gradient the rank accepts is
//!   acknowledged with a [`Control::Ack`] frame; the ack is the sender's
//!   delivery credit (`SyncState::on_delivered_from`), which is what that
//!   policy gates on. No other policy reads an ack, so no other run sends
//!   one. The simulator credits at the virtual arrival time instead.
//! * a rank that finished its last iteration sends [`Control::Done`] to
//!   every linked peer and keeps receiving until it holds a Done from
//!   every linked peer that has not departed (the rank's barrier).
//!   Transports guarantee per-peer FIFO, so a Done from a peer proves all
//!   of that peer's gradients have already been accepted — no message can
//!   be lost by exiting after the barrier.

use crate::control::Control;
use crate::LiveError;
use dlion_core::args::RunSpec;
use dlion_core::clock::{Clock, SystemClock};
use dlion_core::config::RunConfig;
use dlion_core::gbs::Notice;
use dlion_core::lbs::{compute_rcp, rcp_from_rate, PROFILE_LBS};
use dlion_core::messages::{
    apply_wire_format, decode_wire, trace_wire_bytes, wire_slot, Payload, WireCfg, WireFormat,
    KIND_NET_BASE,
};
use dlion_core::rank::{Host, Input, Output, Outputs, Rank, Wait};
use dlion_core::record::WorkerOutcome;
use dlion_core::worker::{PendingIteration, Worker};
use dlion_core::TopologySchedule;
use dlion_core::TransportError::{Disconnected, PeerDisconnected, PeerGone, PeerTimeout};
use dlion_core::{ExchangeTransport, SyncPolicy};
use dlion_nn::Dataset;
use dlion_telemetry::{event, tracing_on, Histogram};
use dlion_tensor::{DetRng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a waiting rank blocks for one frame before it re-reads the
/// clock (its wake time, the stall deadline; a manual clock moves only
/// when its test moves it).
const POLL: Duration = Duration::from_millis(20);

/// Smoothing factor of the per-worker throughput EWMA feeding the live
/// GBS/LBS controller: heavy enough smoothing to ride out scheduler
/// jitter, light enough to track a genuine capacity change within a few
/// adjustment periods.
const EWMA_ALPHA: f64 = 0.2;

/// Knobs of a live run that have no [`RunConfig`] counterpart — they
/// describe the *execution*, not the training problem. Everything both
/// backends must agree on (wire format, fault plan, straggle factors,
/// topology, …) lives in the [`RunConfig`] and is read from there by the
/// simulator and the live driver alike, so a live run cannot be
/// configured apart from its simulated twin.
#[derive(Clone, Debug)]
pub struct LiveOpts {
    /// Iterations each worker runs before entering the shutdown barrier.
    pub iters: u64,
    /// Evaluate every this many iterations (0 = final evaluation only).
    pub eval_every: u64,
    /// Per-peer send queue capacity, in frames (TCP backpressure bound).
    pub queue_cap: usize,
    /// Bandwidth the strategies assume per link, in Mbps. Loopback is
    /// effectively infinite; setting this to a simulated environment's
    /// bandwidth makes budget-driven strategies (Ako's partition count,
    /// DLion's Max N) pick the same plans as the simulator.
    pub bw_mbps: f64,
    /// Feed strategies this fixed iteration time instead of the measured
    /// wall-clock one. Live wall times on a loaded CI machine are noisy;
    /// pinning this (to the simulated environment's iteration time) makes
    /// budget decisions deterministic. `None` = use measured time.
    pub assumed_iter_time: Option<f64>,
    /// Abort if no progress (no frame received, no iteration startable)
    /// for this long.
    pub stall_timeout: Duration,
    /// Per-peer receive timeout for the TCP transport (`None` = never) —
    /// surfaces a wedged-but-connected peer as a departure.
    pub peer_timeout: Option<Duration>,
    /// Chunk size for streamed frames (`--chunk-bytes`): bodies larger
    /// than this go out as chunked streams, verified chunk-by-chunk.
    pub chunk_bytes: usize,
    /// The cluster's time source. [`SystemClock`] for real runs; tests
    /// inject a [`dlion_core::ManualClock`] so timing-driven logic (GBS
    /// periods, stall deadlines, pauses) runs deterministically
    /// and without real sleeps.
    pub clock: Arc<dyn Clock>,
}

impl Default for LiveOpts {
    /// The CLI defaults: one set of default values, [`RunSpec`]'s.
    fn default() -> Self {
        LiveOpts::from_spec(&RunSpec::default())
    }
}

// The `--straggle` spec parser moved into `dlion_core::args` with the
// rest of the shared CLI surface (the `RunSpec` builder); re-exported
// here so `dlion_net::parse_straggle` keeps working.
pub use dlion_core::args::parse_straggle;

impl LiveOpts {
    /// The live-execution knobs a [`RunSpec`] carries; everything else
    /// reaches the run through [`RunSpec::configure`]. The clock is a fresh
    /// `SystemClock`; tests inject manual clocks directly.
    pub fn from_spec(spec: &RunSpec) -> LiveOpts {
        LiveOpts {
            iters: spec.iters,
            eval_every: spec.eval_every,
            queue_cap: spec.queue_cap,
            bw_mbps: spec.bw_mbps,
            assumed_iter_time: spec.assumed_iter_time,
            stall_timeout: Duration::from_secs_f64(spec.stall_secs),
            peer_timeout: spec.peer_timeout.map(Duration::from_secs_f64),
            chunk_bytes: spec.chunk_bytes,
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// Everything a live worker needs besides its [`Worker`] state and its
/// transport endpoint; shared (immutably) across the cluster's threads.
pub struct WorkerEnv<'a> {
    pub cfg: &'a RunConfig,
    pub opts: &'a LiveOpts,
    pub data: &'a Dataset,
    pub eval_indices: &'a [usize],
    /// The per-round neighbor oracle (shared with the simulator via
    /// [`dlion_core::ClusterInit`]): gradient fan-out, the Eq. 7 divisor,
    /// and next-round gating all follow `schedule.neighbors(me, round)`.
    pub schedule: Arc<dyn TopologySchedule>,
    /// Which peers this worker holds a physical connection to: the union
    /// of every round's neighbor sets, or the full mesh when a blocking
    /// control plane (dynamic batching, a fault plan's Leave) needs
    /// all-to-all control frames. Unlinked peers are skipped by the
    /// Done barrier — they can never send us anything.
    pub links: Vec<bool>,
    pub total_params: usize,
    pub bytes_per_param: f64,
    /// Cluster-wide time source: event timestamps are its `now()`, whose
    /// epoch is the clock's creation. All workers share one clock.
    pub clock: Arc<dyn Clock>,
    /// Run label, e.g. `live/3w`; the worker appends `/w{id}` for its
    /// telemetry run scope so per-scope sequence numbers stay monotonic.
    pub env_label: String,
}

struct LiveWorker<'a, 'b> {
    rank: Rank,
    out: Outputs,
    env: &'b WorkerEnv<'a>,
    transport: &'b mut dyn ExchangeTransport,
    me: usize,
    /// The RCP this rank sends: its start-up profile's, then its
    /// throughput EWMA's (`ewma_rate`, samples/sec; `0` until the first
    /// step).
    rcp: f64,
    ewma_rate: f64,
    /// Decode+accept latency of inbound frames, per sending peer
    /// (advisory; recorded only in a traced run). A gradient is logged,
    /// not applied, on acceptance: its axpy is the next step's prologue.
    apply_lat: Vec<Histogram>,
    /// Wire encoding in force for every training payload this worker
    /// sends (`cfg.wire` + [`LiveOpts::chunk_bytes`]).
    wire_cfg: WireCfg,
    /// Reusable reassembly buffer for inbound chunked streams
    /// (`decode_wire` scratch).
    wire_scratch: Vec<u8>,
    /// Recycled dense-value buffers: settled gradients and merged weights
    /// return their storage here, and `decode_body_pooled` draws from it —
    /// steady-state decode does not allocate.
    pool: Vec<Vec<f32>>,
    /// What the rank asked for that the loop has yet to do — a step, a
    /// wake-up at a time, an evaluation (`eval_every`, held over a pause)
    /// — and whether it departed or may leave.
    step: bool,
    wake: Option<f64>,
    eval_due: bool,
    departed: bool,
    finished: bool,
}

impl LiveWorker<'_, '_> {
    fn now(&self) -> f64 {
        self.env.clock.now()
    }

    /// Hand the rank an input. What it asks of a live backend: the
    /// training clock as its batching clock, one bandwidth for every link
    /// (`LiveOpts::bw_mbps`), the RCP it measured, the decode pool for the
    /// tensors it is done with.
    fn feed(&mut self, input: Input) {
        let (now, bw, rcp, pool) = (self.now(), self.env.opts.bw_mbps, self.rcp, &mut self.pool);
        let mut host = Host {
            clock: self.rank.worker.record.train_secs,
            bandwidth: &|_| bw,
            rcp: &mut || rcp,
            joined: &mut drop,
            recycle: &mut |tensors| pool.extend(tensors.into_iter().map(Tensor::into_data)),
        };
        self.rank.on(input, now, &mut host, &mut self.out);
    }

    /// Carry out what the rank asked for, in order. A send that finds its
    /// peer gone tells the rank, whose answer queues behind the rest.
    fn carry_out(&mut self) -> Result<(), LiveError> {
        while let Some(output) = self.out.pop() {
            match output {
                Output::Step => self.step = true,
                Output::Send(to, payload) => self.send(to, payload)?,
                Output::Notice(to, Notice::Rcp { round, rcp }) => {
                    self.send_control(to, Control::Rcp { round, rcp })
                }
                Output::Notice(to, Notice::Done) => self.send_control(to, Control::Done),
                // Only `BlockOnDelivery` gates on an ack, so a run under any
                // other policy sends none.
                Output::Ack(to) => match self.rank.worker.strategy.sync_policy() {
                    SyncPolicy::BlockOnDelivery => self.send_control(to, Control::Ack),
                    SyncPolicy::Synchronous
                    | SyncPolicy::Asynchronous
                    | SyncPolicy::BoundedStaleness { .. } => {}
                },
                Output::WakeAt(t) => self.wake = Some(t),
                Output::Departed => self.departed = true,
                Output::Finished => self.finished = true,
            }
        }
        Ok(())
    }

    /// Encode and send a training payload, priced in the record at its
    /// exact frame length. Top-k sparsification happens here, *above* the
    /// codec (the transport then encodes a sparse body); fp16/int8
    /// quantization happens inside the codec on the wire. A send hitting a
    /// dead link loses the peer, not the worker; past the rank's last
    /// iteration it is best-effort: a peer that already left the barrier
    /// cannot need it.
    fn send(&mut self, to: usize, mut payload: Payload) -> Result<(), LiveError> {
        if matches!(self.wire_cfg.format, WireFormat::TopK(_)) {
            apply_wire_format(&mut payload, self.wire_cfg.format);
        }
        let (kind, slot) = (payload.kind(), wire_slot(&payload, self.wire_cfg.format));
        let sent = self
            .transport
            .send_wire(to, Arc::new(payload), &self.wire_cfg);
        match sent {
            Ok(bytes) => {
                let bytes = bytes as f64;
                self.rank.worker.record.sent(kind, slot, bytes, bytes);
                event!(self.now(), w: self.me, "send";
                    "to" => to, "kind" => kind, "bytes" => bytes);
            }
            Err(_) if self.rank.finishing() => {}
            Err(PeerGone(_) | PeerDisconnected { .. }) => self.feed(Input::Lost { peer: to }),
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Send a net-control frame (ack/done/rcp). Control frames are
    /// advisory to a peer that cannot receive them — it cannot be gated
    /// on — so they go best-effort: a failed one loses nobody, and the
    /// peer's departure arrives in FIFO order behind the frames it already
    /// queued (its Leave, the link's EOF, a failed gradient send).
    fn send_control(&mut self, to: usize, msg: Control) {
        let frame = msg.to_frame();
        self.rank.worker.record.net_overhead_bytes += frame.len() as f64;
        let _ = self.transport.send_frame(to, frame);
    }

    /// Decode one inbound wire stream (plain frame or chunked) into the
    /// rank's input — the live analogue of the simulator's events: a
    /// control frame through the one control decode, anything else through
    /// the payload codec. Chunked bodies reassemble into the worker's
    /// reusable scratch; payload decode draws storage from the recycle
    /// pool.
    fn handle_frame(&mut self, from: usize, frame: Vec<u8>) -> Result<(), LiveError> {
        // Frame-lifecycle instrumentation, last leg: reassembly + decode +
        // the rank's acceptance (a gradient is logged, not applied),
        // recorded per sending peer in a traced run.
        let t0 = tracing_on().then(Instant::now);
        let (kind, body) = decode_wire(&frame, &mut self.wire_scratch)?;
        let refused = |why: &str| LiveError::Protocol(format!("from worker {from}: {why}"));
        let notice = |notice| Input::Notice { from, notice };
        let input = if kind < KIND_NET_BASE {
            let payload = Payload::decode_body_pooled(kind, body, &mut self.pool)?;
            Input::Payload { from, payload }
        } else {
            match Control::decode(kind, body, self.transport.n()) {
                Err(LiveError::Protocol(why)) => return Err(refused(&why)),
                Err(e) => return Err(e),
                // One of our gradients reached its peer (BlockOnDelivery's
                // gate).
                Ok(Control::Ack) => Input::Delivered { from },
                Ok(Control::Done) => notice(Notice::Done),
                Ok(Control::Rcp { round, rcp }) => notice(Notice::Rcp { round, rcp }),
                // The mesh is established: no rank joins a running one.
                Ok(Control::Hello { .. }) => return Err(refused("hello after establishment")),
                Ok(Control::Route { .. }) => {
                    return Err(refused("route marker outside a host link"))
                }
            }
        };
        self.feed(input);
        if let (Some(t0), Some(h)) = (t0, self.apply_lat.get_mut(from)) {
            h.record(t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// The step the rank asked for, here and now (live compute is atomic;
    /// there is no virtual completion time), then its completion: the
    /// rank's post-round outputs follow in the loop.
    fn step(&mut self) {
        // The step is the model's next user: the logged updates apply
        // first, outside the measured compute time.
        self.settle();
        let (env, worker) = (self.env, &mut self.rank.worker);
        let t0 = env.clock.now();
        let loss = worker.compute_grads(env.data, env.cfg.grad_clip);
        let measured = (env.clock.now() - t0).max(1e-6);
        // `--straggle` skews the *effective* iteration time; ×1.0 is an
        // exact float no-op, so unskewed workers are byte-identical to a
        // run without the flag.
        let dt = env.opts.assumed_iter_time.unwrap_or(measured) * env.cfg.straggle_of(self.me);
        // The training-clock step, which `iter_done` records and
        // `complete_round` adds to the record's `train_secs` as on the
        // simulator: Σ dt is the verdict's seconds, and the clock the
        // batching rounds fall due on (a pure function of the iteration
        // times — pinnable via `assumed_iter_time`). The wall compute time
        // is `busy_secs`.
        worker.last_iter_time = dt;
        worker.record.busy_secs += measured;
        worker.pending = Some(PendingIteration::Done { loss });
        // The throughput EWMA becomes our RCP.
        let rate = worker.lbs as f64 / dt;
        self.ewma_rate = if self.ewma_rate > 0.0 {
            EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * self.ewma_rate
        } else {
            rate
        };
        self.rcp = rcp_from_rate(self.ewma_rate);
        self.feed(Input::Computed);
        let every = env.opts.eval_every;
        self.eval_due = every > 0 && self.rank.worker.iteration.is_multiple_of(every);
    }

    /// Settle the round core's update log, recycling each peer
    /// gradient's buffers into the decode pool.
    fn settle(&mut self) {
        let (worker, pool) = (&mut self.rank.worker, &mut self.pool);
        worker.settle(|msg| Payload::Grad(msg).recycle(pool));
    }

    fn eval(&mut self) {
        self.settle();
        let (env, now, worker) = (self.env, self.now(), &mut self.rank.worker);
        let r = worker.model.evaluate(env.data, env.eval_indices, 125);
        let point = worker.push_eval(now, r);
        event!(point.wall, w: self.me, "eval";
            "iter" => point.iteration, "acc" => point.accuracy, "loss" => point.loss);
    }

    /// Start-up profile for dynamic-batching systems: time our own
    /// compute by wall clock at [`PROFILE_LBS`]; the RCP that yields is
    /// what the rank sends for round 0, exchanged and partitioned like any
    /// later round's.
    fn startup_profile(&mut self) {
        if !self.env.cfg.system.dynamic_batching() {
            return;
        }
        // Profiling batches come from a private RNG stream: the worker's
        // sampling RNG must stay at the same position as in the simulator
        // (which profiles through its compute model, not through data).
        let mut prng = DetRng::seed_from_u64(self.env.cfg.seed ^ 0x5052_4F46 ^ self.me as u64);
        let (env, worker) = (self.env, &mut self.rank.worker);
        let mut profile = |lbs: usize| {
            // Each profiled size is a batch-size change like any other: the
            // arena lets go of the previous size's buffers.
            worker.set_lbs(lbs);
            let Worker {
                batch_buf, shard, ..
            } = &mut *worker;
            batch_buf.clear();
            batch_buf.extend((0..lbs).map(|_| shard[prng.index(shard.len())]));
            let t0 = env.clock.now();
            worker.compute_grads(env.data, env.cfg.grad_clip);
            (lbs as f64, (env.clock.now() - t0).max(1e-6))
        };
        let samples: Vec<_> = PROFILE_LBS.iter().map(|&lbs| profile(lbs)).collect();
        // Until the partition lands we hold the share our batching says we
        // do: a fast peer's first gradient can race into the collect, and
        // its Eq. 7 divisor must not see a probe size.
        worker.set_lbs(env.cfg.initial_lbs);
        self.rcp = compute_rcp(&samples);
    }

    /// The rank's loop, from its first decision to its exit: carry out
    /// what the rank asked, compute when told to, else wait for a frame —
    /// until the rank's wake time (at once when that is due, after what
    /// already arrived), the stall deadline, or one [`POLL`] — and feed
    /// what comes. Once the rank may leave, what is still queued locally
    /// (it arrived before its senders' Dones) is taken in, then the rank
    /// ends.
    fn run(mut self) -> Result<WorkerOutcome, LiveError> {
        let stall = self.env.opts.stall_timeout.as_secs_f64();
        let mut deadline = self.now() + stall;
        loop {
            self.carry_out()?;
            if self.departed {
                break;
            }
            if self.eval_due && !self.rank.paused() {
                self.eval_due = false;
                self.eval();
            }
            if std::mem::take(&mut self.step) {
                self.step();
                deadline = self.now() + stall;
                continue;
            }
            let now = self.now();
            let until = match self.wake {
                _ if self.finished => now,
                wake => wake.unwrap_or(deadline).min(deadline),
            };
            let timeout = Duration::from_secs_f64((until - now).clamp(0.0, POLL.as_secs_f64()));
            match self.transport.recv_frame_timeout(timeout) {
                Ok(Some((from, frame))) => {
                    self.handle_frame(from, frame)?;
                    deadline = self.now() + stall;
                    continue;
                }
                Ok(None) if self.finished => break,
                Ok(None) => {}
                // A closed or silent link: the rank lost that peer (a
                // notification, not an error).
                Err(PeerDisconnected { peer } | PeerTimeout { peer }) => {
                    self.feed(Input::Lost { peer })
                }
                // Every peer closed its links, which it does only past its
                // own barrier: nothing is missing.
                Err(Disconnected) if self.rank.finishing() => break,
                Err(_) if self.finished => break,
                Err(e) => return Err(e.into()),
            }
            let now = self.now();
            let woken = self.wake.is_some_and(|t| t <= now);
            if !woken && now <= deadline {
                continue;
            }
            // Nothing came for a whole stall timeout: a collect then
            // decides with whoever answered and a pause ends early; a gate
            // or the barrier cannot go on.
            if let (false, Some(wait @ (Wait::Gate { .. } | Wait::Barrier { .. }))) =
                (woken, self.rank.waiting_on())
            {
                let me = self.me;
                return Err(LiveError::Stalled(format!("worker {me} waits on {wait:?}")));
            }
            self.wake = None;
            self.feed(Input::Wake);
            deadline = now + stall;
        }
        Ok(self.finish())
    }

    /// The end of the run: unless this rank departed, the last flush and
    /// the final evaluation; then the end-of-run take
    /// (`Worker::take_record`: final weights, batching traces), stamped
    /// with the exit time. Traces the per-link frame-lifecycle latency
    /// (advisory wall-clock quantiles, in µs, over the whole run; an
    /// instrumented transport's links that carried frames), the byte
    /// ledger and `run_end`.
    fn finish(mut self) -> WorkerOutcome {
        if !self.departed {
            // No further local rounds: whatever is still parked joins the
            // log, and the final evaluation settles it.
            self.rank.close();
            self.eval();
        }
        let mut out = self.rank.worker.take_record(self.env.cfg.capture_weights);
        out.wall_secs = self.now();
        let us = |h: &Histogram, q: f64| h.quantile(q) * 1e6;
        for link in self.transport.link_health().iter().filter(|l| l.frames > 0) {
            event!(out.wall_secs, w: self.me, "frame_latency";
                "peer" => link.peer,
                "frames" => link.frames,
                "depth_hw" => link.queue_depth_hw,
                "queue_p50_us" => us(&link.queue_wait, 0.5),
                "queue_p99_us" => us(&link.queue_wait, 0.99),
                "write_p50_us" => us(&link.write_time, 0.5),
                "write_p99_us" => us(&link.write_time, 0.99),
                "read_p99_us" => us(&link.read_time, 0.99),
                "apply_p99_us" => self.apply_lat.get(link.peer).map_or(0.0, |h| us(h, 0.99)));
        }
        trace_wire_bytes(self.now(), Some(self.me), out.wire_bytes);
        if out.departed {
            event!(out.wall_secs, w: self.me, "run_end";
                "iterations" => out.iterations, "departed" => true);
        } else {
            event!(out.wall_secs, w: self.me, "run_end";
                "iterations" => out.iterations,
                "grad_bytes" => out.grad_bytes,
                "final_acc" => out.evals.last().map_or(0.0, |e| e.accuracy));
        }
        out
    }
}

/// Run one live worker to completion: startup profiling (dynamic-batching
/// systems), `opts.iters` training iterations gated by the sync policy,
/// then the Done barrier and a final evaluation. A worker named in
/// `cfg.fault` leaves at its planned iteration, or pauses there if the
/// kill rejoins.
pub fn run_worker(
    worker: Worker,
    env: &WorkerEnv<'_>,
    transport: &mut dyn ExchangeTransport,
) -> Result<WorkerOutcome, LiveError> {
    assert_eq!(worker.id, transport.me(), "worker/transport id mismatch");
    let (me, n) = (worker.id, transport.n());
    let system = env.cfg.system.name();
    let scope_env = format!("{}/w{me}", env.env_label);
    let _scope = dlion_telemetry::run_scope(&system, &scope_env, env.cfg.seed);
    let mut lw = LiveWorker {
        rank: Rank::new(worker, Some(env.opts.iters), env.links.clone()),
        out: Outputs::default(),
        rcp: 0.0,
        ewma_rate: 0.0,
        apply_lat: vec![Histogram::default(); n],
        wire_cfg: WireCfg {
            format: env.cfg.wire,
            chunk_bytes: env.opts.chunk_bytes,
        },
        wire_scratch: Vec::new(),
        pool: Vec::new(),
        step: false,
        wake: None,
        eval_due: false,
        departed: false,
        finished: false,
        me,
        env,
        transport,
    };
    event!(lw.now(), w: me, "run_start";
        "workers" => n, "iters" => env.opts.iters,
        "params" => env.total_params, "initial_lbs" => env.cfg.initial_lbs);
    lw.startup_profile();
    lw.feed(Input::Wake);
    lw.run()
}
