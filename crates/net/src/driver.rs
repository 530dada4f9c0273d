//! The live worker driver: one DLion rank's main loop over a real
//! transport — the wall-clock backend of the rank protocol.
//!
//! Every model mutation, averaging divisor and post-round send comes from
//! the shared round core (`dlion_core::round`, DESIGN.md §4l), the same
//! code the simulator calls: drain arrived frames, flush parked strict-BSP
//! gradients, compute, carry out `complete_round`'s actions (the fan-out,
//! then the kill's Leaves and departure or pause, or a DKT round), gate
//! the next iteration on the worker's [`dlion_core::SyncPolicy`]. Every
//! control decision comes from there too (DESIGN.md §4n): when a batching
//! round is due, who contributes and the LBS split
//! ([`dlion_core::gbs::Batching`]), what demoting a peer does
//! (`Worker::demote_peer`). This file keeps what only a live rank has: the
//! transport, the clock, gradient acks, buffer recycling, the `done` peer
//! flags (who left is `SyncState::is_demoted`), the RCP *exchange* (frames
//! out, frames in), the pause, the Done plane, and [`WorkerOutcome`].
//! Every wait that may apply traffic — an RCP collect, the iteration gate,
//! a pause, the Done barrier — is one loop, `serve_until`.
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
//!   [`dlion_core::TransportError::PeerTimeout`] from the transport.
//! * Either way the survivor **demotes** the peer — Hop's
//!   backup-worker demotion applied to an absent worker
//!   (`Worker::demote_peer`, shared with the simulator): it stops
//!   iteration gating (and `BlockOnDelivery` ack-waiting) on it and drops
//!   it as a DKT pull target, and the update-factor ledger (`departed_at`)
//!   renormalizes averaging over the workers that actually contribute:
//!   the departed peer counts in the divisor for rounds `< K` (its
//!   gradients for those rounds exist and are applied) and is excluded
//!   from `K` on. With a planned kill the ledger is seeded from the
//!   fault plan itself ([`Membership::planned`], the simulator's seeding),
//!   so every survivor renormalizes at the same round no matter when the
//!   Leave frame lands — kill plans are deterministic.
//! * A **rejoining kill** (`--kill W@I+R`) is a pause, like the
//!   simulator's: the rank stops stepping for `R` clock seconds and keeps
//!   serving frames. It stays a member — no Leave, no ledger entry — so
//!   its neighbors wait for it as for any slow peer (`RunSpec::validate`
//!   refuses a pause the stall timeout would cut short). A Hello after
//!   establishment is a protocol error: nobody comes back from a Leave.
//!
//! Two protocol additions have no simulator counterpart:
//!
//! * every received gradient is acknowledged with a [`Control::Ack`]
//!   frame when the round core accepts it — into the update log, or at
//!   the strict-BSP flush; the ack drives `SyncState::on_delivered_from`
//!   on the sender, which is what `BlockOnDelivery` (Gaia) gates on. The
//!   simulator makes the same call at the virtual arrival time instead.
//! * when a worker finishes its last iteration it sends [`Control::Done`]
//!   to every peer and keeps receiving until it holds a Done from every
//!   peer that has not departed. Transports guarantee per-peer FIFO, so a
//!   Done from a peer proves all of that peer's gradients have already
//!   been accepted — no message can be lost by exiting after the barrier.

use crate::control::Control;
use crate::LiveError;
use dlion_core::args::RunSpec;
use dlion_core::clock::{Clock, SystemClock};
use dlion_core::config::RunConfig;
use dlion_core::gbs::Batching;
use dlion_core::lbs::{compute_rcp, rcp_from_rate, PROFILE_LBS};
use dlion_core::messages::{
    add_wire_bytes, apply_wire_format, decode_wire, trace_wire_bytes, wire_label, Payload, WireCfg,
    WireFormat, KIND_NET_BASE,
};
use dlion_core::worker::Worker;
use dlion_core::TopologySchedule;
use dlion_core::{Action, Effect, ExchangeTransport, Membership, TransportError};
use dlion_nn::Dataset;
use dlion_telemetry::{event, tracing_on, Histogram};
use dlion_tensor::{DetRng, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a blocked worker waits for one frame before re-checking its
/// stall deadline.
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

/// One periodic (or final) evaluation of a worker's model.
#[derive(Clone, Copy, Debug)]
pub struct EvalPoint {
    /// Iterations completed when the evaluation ran.
    pub iteration: u64,
    /// Seconds since the cluster epoch.
    pub wall: f64,
    pub accuracy: f64,
    pub loss: f64,
}

/// What one live worker reports back to the orchestrator. Byte counts are
/// *exact encoded frame lengths* — unlike the simulator's scaled
/// accounting, nothing here is extrapolated.
#[derive(Debug, Default)]
pub struct WorkerOutcome {
    pub id: usize,
    pub iterations: u64,
    /// Wall seconds spent inside gradient computation.
    pub busy_secs: f64,
    /// Wall seconds from cluster epoch to this worker's exit.
    pub wall_secs: f64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub grad_bytes: f64,
    pub weight_bytes: f64,
    pub control_bytes: f64,
    /// Bytes of net-only control frames (ack/done/rcp) —
    /// overhead the simulator does not model, kept out of the
    /// sim-comparable counters above.
    pub net_overhead_bytes: f64,
    /// Exact encoded bytes sent, bucketed by wire label (`grad_dense`,
    /// `grad_sparse`, `grad_fp16`, `grad_int8`, `weights`, `control`) —
    /// the per-format view of the three counters above, comparable with
    /// the simulator's `RunMetrics::wire_bytes_by_kind`.
    pub wire_bytes_by_kind: BTreeMap<String, f64>,
    pub dkt_merges: u64,
    /// This worker left the run early (a permanent planned kill). A
    /// departed worker reports no final evaluation and its
    /// outcome is excluded from cluster-level convergence metrics.
    pub departed: bool,
    pub evals: Vec<EvalPoint>,
    /// Every GBS change this worker's controller applied, as
    /// `(nominal round time, new GBS)` — the live analogue of
    /// [`dlion_core::RunMetrics::gbs_trace`]. The time is the round's
    /// scheduled boundary `round × adjust_period`, not the wall instant
    /// the exchange completed, so identical schedules produce
    /// bit-identical traces.
    pub gbs_trace: Vec<(f64, usize)>,
    /// Every LBS repartition, as `(nominal time, per-worker shares)`;
    /// a worker that was not a member of the round holds share 0.
    pub lbs_trace: Vec<(f64, Vec<usize>)>,
    /// Accumulated training-clock seconds (Σ effective per-iteration
    /// `dt`). With a pinned `assumed_iter_time` this — and the iteration
    /// rate `iterations / train_secs` the health plane scores stragglers
    /// by — is bit-identical across runs and transports.
    pub train_secs: f64,
    /// Final weight tensors, when `cfg.capture_weights` is on.
    pub final_weights: Option<Vec<Tensor>>,
}

impl WorkerOutcome {
    /// One-line JSON for crossing a process boundary (`dlion-worker` →
    /// `dlion-live --transport procs`). Final weights are deliberately not
    /// serialized — weight capture is an in-process (test) facility.
    pub fn to_json(&self) -> String {
        use dlion_telemetry::json::f64_into;
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"id\":{},\"iterations\":{},\"msgs_sent\":{},\"msgs_recv\":{},\"dkt_merges\":{},\"departed\":{}",
            self.id, self.iterations, self.msgs_sent, self.msgs_recv, self.dkt_merges,
            self.departed
        ));
        for (key, v) in [
            ("busy_secs", self.busy_secs),
            ("wall_secs", self.wall_secs),
            ("train_secs", self.train_secs),
            ("grad_bytes", self.grad_bytes),
            ("weight_bytes", self.weight_bytes),
            ("control_bytes", self.control_bytes),
            ("net_overhead_bytes", self.net_overhead_bytes),
        ] {
            s.push_str(&format!(",\"{key}\":"));
            f64_into(v, &mut s);
        }
        s.push_str(",\"wire_bytes_by_kind\":{");
        for (i, (label, v)) in self.wire_bytes_by_kind.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{label}\":"));
            f64_into(*v, &mut s);
        }
        s.push('}');
        s.push_str(",\"evals\":[");
        for (i, e) in self.evals.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"iteration\":{},\"wall\":", e.iteration));
            f64_into(e.wall, &mut s);
            s.push_str(",\"accuracy\":");
            f64_into(e.accuracy, &mut s);
            s.push_str(",\"loss\":");
            f64_into(e.loss, &mut s);
            s.push('}');
        }
        s.push_str("],\"gbs_trace\":[");
        for (i, (t, g)) in self.gbs_trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            f64_into(*t, &mut s);
            s.push_str(&format!(",{g}]"));
        }
        s.push_str("],\"lbs_trace\":[");
        for (i, (t, parts)) in self.lbs_trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            f64_into(*t, &mut s);
            s.push_str(",[");
            for (j, p) in parts.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&p.to_string());
            }
            s.push_str("]]");
        }
        s.push_str("]}");
        s
    }

    /// Parse [`WorkerOutcome::to_json`] output.
    pub fn from_json(line: &str) -> Result<WorkerOutcome, String> {
        use dlion_telemetry::json::Json;
        let v = dlion_telemetry::json::parse(line)?;
        let num = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing {key}"))
        };
        let int = |key: &str| num(key).map(|x| x as u64);
        let mut out = WorkerOutcome {
            id: int("id")? as usize,
            iterations: int("iterations")?,
            msgs_sent: int("msgs_sent")?,
            msgs_recv: int("msgs_recv")?,
            dkt_merges: int("dkt_merges")?,
            busy_secs: num("busy_secs")?,
            wall_secs: num("wall_secs")?,
            grad_bytes: num("grad_bytes")?,
            weight_bytes: num("weight_bytes")?,
            control_bytes: num("control_bytes")?,
            net_overhead_bytes: num("net_overhead_bytes")?,
            train_secs: num("train_secs")?,
            departed: matches!(v.get("departed"), Some(Json::Bool(true))),
            ..Default::default()
        };
        // Parent and child are always the same build: every field
        // `to_json` writes is required.
        let arr = |key: &str| match v.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing {key}")),
        };
        let Some(Json::Obj(buckets)) = v.get("wire_bytes_by_kind") else {
            return Err("missing wire_bytes_by_kind".into());
        };
        for (label, val) in buckets {
            let b = val
                .as_f64()
                .ok_or_else(|| format!("bad wire_bytes_by_kind[{label}]"))?;
            out.wire_bytes_by_kind.insert(label.clone(), b);
        }
        for e in arr("evals")? {
            let num = |key: &str| {
                e.get(key)
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("missing eval {key}"))
            };
            out.evals.push(EvalPoint {
                iteration: num("iteration")? as u64,
                wall: num("wall")?,
                accuracy: num("accuracy")?,
                loss: num("loss")?,
            });
        }
        for row in arr("gbs_trace")? {
            let pair = match row {
                Json::Arr(p) if p.len() == 2 => p,
                _ => return Err("bad gbs_trace row".into()),
            };
            let t = pair[0].as_f64().ok_or("bad gbs_trace time")?;
            let g = pair[1].as_f64().ok_or("bad gbs_trace value")?;
            out.gbs_trace.push((t, g as usize));
        }
        for row in arr("lbs_trace")? {
            let pair = match row {
                Json::Arr(p) if p.len() == 2 => p,
                _ => return Err("bad lbs_trace row".into()),
            };
            let t = pair[0].as_f64().ok_or("bad lbs_trace time")?;
            let Json::Arr(ps) = &pair[1] else {
                return Err("bad lbs_trace shares".into());
            };
            let mut parts = Vec::with_capacity(ps.len());
            for p in ps {
                parts.push(p.as_f64().ok_or("bad lbs_trace share")? as usize);
            }
            out.lbs_trace.push((t, parts));
        }
        Ok(out)
    }
}

/// What one inbound wire stream carries.
enum Inbound {
    Control(Control),
    Payload(Payload),
}

struct LiveWorker<'a, 'b> {
    worker: Worker,
    env: &'b WorkerEnv<'a>,
    transport: &'b mut dyn ExchangeTransport,
    n: usize,
    me: usize,
    /// This rank's copy of the §3.2 batching state. Every member runs its
    /// own; agreement holds because a round's decision is a pure function
    /// of the round number, the ledger and the exchanged RCPs, and the
    /// exchange ([`LiveWorker::rcp_round`]) makes every member execute
    /// the same rounds.
    batching: Batching,
    /// The training clock: accumulated effective iteration times (`dt`).
    /// The adjustment schedule runs on this rather than raw `clock.now()`
    /// so a run's round-to-iteration alignment is a pure function of its
    /// iteration times — pinnable via `assumed_iter_time`.
    train_secs: f64,
    /// EWMA of this worker's measured throughput, in samples/sec;
    /// `0` until the first iteration completes.
    ewma_rate: f64,
    /// This worker's `cfg.straggle` factor (1.0 = none): the effective
    /// `dt` multiplier applied in [`LiveWorker::step`].
    straggle: f64,
    /// Decode+accept latency of inbound frames, per sending peer
    /// (advisory; recorded only in a traced run). A gradient is logged,
    /// not applied, on acceptance: its axpy is the next step's prologue.
    apply_lat: Vec<Histogram>,
    /// RCPs received from peers, by `(round, peer)`; rounds may pre-arrive
    /// (a faster peer opened a round we have not reached yet).
    rcp_pending: BTreeMap<(u64, usize), f64>,
    done: Vec<bool>,
    /// The round core's ledger, [`Membership::planned`]: `departed_at` is
    /// seeded from the fault plan for permanent kills (making
    /// renormalization independent of message timing) and set from the
    /// Leave or a received-round guess for unplanned crashes; `lbs_of`
    /// holds every worker's LBS share — all `initial_lbs` until a
    /// profiling round repartitions.
    members: Membership,
    /// Wire encoding in force for every training payload this worker
    /// sends (`cfg.wire` + [`LiveOpts::chunk_bytes`]).
    wire_cfg: WireCfg,
    /// Reusable reassembly buffer for inbound chunked streams
    /// (`decode_wire` scratch).
    wire_scratch: Vec<u8>,
    /// Recycled dense-value buffers: settled gradients return their
    /// storage here, and `decode_body_pooled` draws from it — steady-state
    /// decode does not allocate.
    pool: Vec<Vec<f32>>,
    out: WorkerOutcome,
}

impl LiveWorker<'_, '_> {
    fn now(&self) -> f64 {
        self.env.clock.now()
    }

    /// Demote a departed peer: it no longer gates us, receives from us,
    /// or serves as a DKT target, and rounds from `completed` on are
    /// averaged without it. Idempotent: the demotion is the record.
    fn note_departed(&mut self, peer: usize, completed: Option<u64>) {
        if peer == self.me || self.worker.sync.is_demoted(peer) {
            return;
        }
        let k = completed
            .or(self.members.departed_at[peer])
            .unwrap_or_else(|| {
                // Crash without a Leave: everything received so far is all
                // there will be.
                self.worker.sync.received_from(peer).map_or(0, |r| r + 1)
            });
        self.members.departed_at[peer].get_or_insert(k);
        self.worker.demote_peer(peer, k, self.now());
        // A departure can cut the communication graph: a partitioned
        // component would train on silently while the others' gradients
        // never reach it. Warn loudly instead of hanging quietly (the
        // union-window check covers rotating group schedules, whose
        // single-round graphs are disconnected by design).
        let alive: Vec<bool> = (0..self.n)
            .map(|j| !self.worker.sync.is_demoted(j))
            .collect();
        if !self
            .env
            .schedule
            .is_connected_over(&alive, self.worker.iteration)
        {
            event!(self.now(), w: self.me, "topology_partitioned";
                "peer" => peer,
                "iter" => self.worker.iteration,
                "alive" => alive.iter().filter(|&&a| a).count());
        }
    }

    /// Per-peer liveness folded into a receive result: a disconnect or
    /// timeout of a live peer demotes it (a notification, not an error);
    /// one from a peer that already completed the barrier is expected and
    /// ignored.
    fn inbound(
        &mut self,
        got: Result<Option<(usize, Vec<u8>)>, TransportError>,
    ) -> Result<Option<(usize, Vec<u8>)>, LiveError> {
        match got {
            Ok(x) => Ok(x),
            Err(TransportError::PeerDisconnected { peer })
            | Err(TransportError::PeerTimeout { peer }) => {
                if !self.done[peer] {
                    self.note_departed(peer, None);
                }
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<(usize, Vec<u8>)>, LiveError> {
        let got = self.transport.recv_frame_timeout(timeout);
        self.inbound(got)
    }

    /// Non-blocking [`recv`](Self::recv).
    fn poll(&mut self) -> Result<Option<(usize, Vec<u8>)>, LiveError> {
        let got = self.transport.try_recv_frame();
        self.inbound(got)
    }

    /// Per-peer liveness folded into a send result (`None` = not sent).
    /// `best_effort` sends (shutdown phase) ignore unreachable peers: a
    /// peer that already left the barrier cannot need this frame. A
    /// normal send hitting a dead link demotes the peer instead of
    /// failing the worker.
    fn outbound<T>(
        &mut self,
        to: usize,
        sent: Result<T, TransportError>,
        best_effort: bool,
    ) -> Result<Option<T>, LiveError> {
        match sent {
            Ok(x) => Ok(Some(x)),
            Err(_) if best_effort => Ok(None),
            Err(TransportError::PeerGone(_)) | Err(TransportError::PeerDisconnected { .. }) => {
                self.note_departed(to, None);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Encode and send a training payload, with exact byte accounting per
    /// wire label. Top-k sparsification happens here, *above* the codec
    /// (the transport then encodes a sparse body); fp16/int8 quantization
    /// happens inside the codec on the wire.
    fn send(
        &mut self,
        to: usize,
        mut payload: Payload,
        best_effort: bool,
    ) -> Result<(), LiveError> {
        if matches!(self.wire_cfg.format, WireFormat::TopK(_)) {
            apply_wire_format(&mut payload, self.wire_cfg.format);
        }
        let kind = payload.kind();
        let label = wire_label(&payload, self.wire_cfg.format);
        let sent = self
            .transport
            .send_wire(to, Arc::new(payload), &self.wire_cfg);
        if let Some(bytes) = self.outbound(to, sent, best_effort)? {
            let bytes = bytes as f64;
            match kind {
                "grad" => self.out.grad_bytes += bytes,
                "weights" => self.out.weight_bytes += bytes,
                _ => self.out.control_bytes += bytes,
            }
            add_wire_bytes(&mut self.out.wire_bytes_by_kind, label, bytes);
            self.out.msgs_sent += 1;
            event!(self.now(), w: self.me, "send";
                "to" => to, "kind" => kind, "bytes" => bytes);
        }
        Ok(())
    }

    /// Send a net-control frame (ack/done/rcp).
    fn send_control(
        &mut self,
        to: usize,
        msg: Control,
        best_effort: bool,
    ) -> Result<(), LiveError> {
        let frame = msg.to_frame();
        self.out.net_overhead_bytes += frame.len() as f64;
        let sent = self.transport.send_frame(to, frame);
        self.outbound(to, sent, best_effort).map(|_| ())
    }

    /// Best-effort control frame to every peer `to` selects.
    fn broadcast(
        &mut self,
        msg: Control,
        to: impl Fn(&Self, usize) -> bool,
    ) -> Result<(), LiveError> {
        for j in 0..self.n {
            if j != self.me && to(self, j) {
                self.send_control(j, msg, true)?;
            }
        }
        Ok(())
    }

    /// Decode one inbound wire stream (plain frame or chunked): a control
    /// frame through the one control decode, anything else through the
    /// payload codec. Chunked bodies reassemble into the worker's reusable
    /// scratch; payload decode draws storage from the recycle pool.
    fn decode_inbound(&mut self, from: usize, frame: &[u8]) -> Result<Inbound, LiveError> {
        let (kind, body) = decode_wire(frame, &mut self.wire_scratch)?;
        if kind < KIND_NET_BASE {
            let payload = Payload::decode_body_pooled(kind, body, &mut self.pool)?;
            return Ok(Inbound::Payload(payload));
        }
        match Control::decode(kind, body, self.n) {
            Ok(msg) => Ok(Inbound::Control(msg)),
            Err(LiveError::Protocol(why)) => {
                Err(LiveError::Protocol(format!("from worker {from}: {why}")))
            }
            Err(e) => Err(e),
        }
    }

    /// Handle one inbound wire stream — the live analogue of the
    /// simulator's `Msg` event plus the net-control protocol.
    fn handle_frame(
        &mut self,
        from: usize,
        frame: Vec<u8>,
        during_shutdown: bool,
    ) -> Result<(), LiveError> {
        // Frame-lifecycle instrumentation, last leg: reassembly + decode +
        // the round core's acceptance (a gradient is logged, not applied),
        // recorded per sending peer in a traced run.
        let t0 = tracing_on().then(Instant::now);
        let result = match self.decode_inbound(from, &frame)? {
            Inbound::Payload(payload) => self.on_payload(from, payload, during_shutdown),
            Inbound::Control(msg) => self.on_control(from, msg),
        };
        if let (Some(t0), Some(h)) = (t0, self.apply_lat.get_mut(from)) {
            h.record(t0.elapsed().as_secs_f64());
        }
        result
    }

    /// The net-control protocol: what each control message does to a rank
    /// that is in the run.
    fn on_control(&mut self, from: usize, msg: Control) -> Result<(), LiveError> {
        match msg {
            // One of our gradient messages reached its peer
            // (BlockOnDelivery's gate).
            Control::Ack => self.worker.sync.on_delivered_from(from),
            Control::Done => self.done[from] = true,
            // Rounds already run are stale; rounds ahead of us pre-arrive
            // when a faster peer opens them first.
            Control::Rcp { round, rcp } if self.batching.awaits(round) => {
                self.rcp_pending.insert((round, from), rcp);
            }
            Control::Rcp { .. } => {}
            // The mesh is established: no rank joins a running one.
            Control::Hello { .. } => {
                return Err(LiveError::Protocol(format!(
                    "hello from worker {from} after establishment"
                )))
            }
            Control::Route { .. } => {
                return Err(LiveError::Protocol(format!(
                    "route marker from worker {from} outside a host link"
                )))
            }
        }
        Ok(())
    }

    /// Hand a training payload to the round core and do the live half of
    /// its effect: acks, replies, merged weights' recycling, outcome
    /// counters.
    fn on_payload(
        &mut self,
        from: usize,
        payload: Payload,
        during_shutdown: bool,
    ) -> Result<(), LiveError> {
        self.out.msgs_recv += 1;
        let now = self.now();
        match self.worker.on_payload(from, payload, now, &self.members) {
            Effect::Parked | Effect::Noted => Ok(()),
            Effect::Logged => self.ack(from),
            Effect::Reply(reply) => self.send(from, reply, during_shutdown),
            Effect::Merged(weights) => {
                self.out.dkt_merges += 1;
                self.pool.extend(weights.into_iter().map(Tensor::into_data));
                Ok(())
            }
            Effect::Departed { completed } => {
                self.note_departed(from, Some(completed));
                Ok(())
            }
        }
    }

    /// Acknowledge an accepted gradient (the ack drives the sender's
    /// `SyncState::on_delivered_from`, `BlockOnDelivery`'s gate). An ack
    /// is advisory — a peer that cannot receive it cannot be gated on —
    /// so it is sent best-effort: a failed ack demotes nobody, and the
    /// peer's departure arrives in FIFO order behind the frames it
    /// already queued (its Leave, the link's EOF, a failed gradient send).
    fn ack(&mut self, from: usize) -> Result<(), LiveError> {
        self.send_control(from, Control::Ack, true)
    }

    /// The strict-BSP flush point (see `Worker::flush_parked`), plus the
    /// live half: recycle each applied gradient's buffers and ack it.
    /// Strict BSP accepts a gradient here, not on arrival.
    fn flush_parked(&mut self, force: bool) -> Result<(), LiveError> {
        let mut senders = Vec::new();
        self.worker.flush_parked(&self.members, force, |from, msg| {
            senders.push(from);
            Payload::Grad(msg).recycle(&mut self.pool);
        });
        senders.into_iter().try_for_each(|from| self.ack(from))
    }

    /// One training iteration: compute, then the round core's
    /// `complete_round` and its actions, back to back (live compute is
    /// atomic; there is no virtual completion time) and before anything
    /// else runs — a due batching round included. `Ok(false)`: this rank
    /// has departed.
    fn step(&mut self) -> Result<bool, LiveError> {
        // The step is the model's next user: the logged updates apply
        // first, outside the measured compute time.
        self.settle();
        let t0 = self.env.clock.now();
        self.worker.sample_batch_reuse();
        let loss = self
            .worker
            .compute_grads(self.env.data, self.env.cfg.grad_clip);
        let measured = (self.env.clock.now() - t0).max(1e-6);
        // `--straggle` skews the *effective* iteration time; ×1.0 is an
        // exact float no-op, so unskewed workers are byte-identical to a
        // run without the flag.
        let dt = self.env.opts.assumed_iter_time.unwrap_or(measured) * self.straggle;
        // The training-clock step, which `iter_done` records as the
        // simulator does: Σ dt is the verdict's seconds. The wall compute
        // time is `busy_secs`.
        self.worker.last_iter_time = dt;
        self.out.busy_secs += measured;
        // Feed the live batching controller: the training clock schedules
        // adjustment rounds, the throughput EWMA becomes our RCP.
        self.train_secs += dt;
        let rate = self.worker.lbs as f64 / dt;
        self.ewma_rate = if self.ewma_rate > 0.0 {
            EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * self.ewma_rate
        } else {
            rate
        };
        let (now, bw_mbps) = (self.now(), self.env.opts.bw_mbps);
        let actions = self
            .worker
            .complete_round(loss, now, |_| bw_mbps, &self.members);
        for action in actions {
            match action {
                Action::Send(to, payload) => self.send(to, payload, false)?,
                Action::Depart => return Ok(false),
                Action::Pause(secs) => self.pause(secs)?,
            }
        }
        let every = self.env.opts.eval_every;
        if every > 0 && self.worker.iteration.is_multiple_of(every) {
            self.eval();
        }
        Ok(true)
    }

    /// Settle the round core's update log, recycling each peer
    /// gradient's buffers into the decode pool.
    fn settle(&mut self) {
        let pool = &mut self.pool;
        self.worker.settle(|msg| Payload::Grad(msg).recycle(pool));
    }

    fn eval(&mut self) {
        self.settle();
        let r = self
            .worker
            .model
            .evaluate(self.env.data, self.env.eval_indices, 125);
        let point = EvalPoint {
            iteration: self.worker.iteration,
            wall: self.now(),
            accuracy: r.accuracy,
            loss: r.loss,
        };
        event!(point.wall, w: self.me, "eval";
            "iter" => point.iteration, "acc" => point.accuracy, "loss" => point.loss);
        self.out.evals.push(point);
    }

    /// Serve inbound frames until `ready` holds. `Ok(false)` means nothing
    /// arrived for a whole stall timeout; what that costs is the caller's
    /// call (a collect proceeds with whoever answered, a gate or barrier
    /// wait fails the worker).
    fn serve_until(
        &mut self,
        during_shutdown: bool,
        ready: impl Fn(&Self) -> bool,
    ) -> Result<bool, LiveError> {
        let stall = self.env.opts.stall_timeout.as_secs_f64();
        let mut deadline = self.now() + stall;
        while !ready(self) {
            match self.recv(POLL)? {
                Some((from, frame)) => {
                    self.handle_frame(from, frame, during_shutdown)?;
                    deadline = self.now() + stall;
                }
                None if self.now() > deadline => return Ok(false),
                None => {}
            }
        }
        Ok(true)
    }

    /// Start-up LBS assignment for dynamic-batching systems: profile our
    /// own compute by wall clock at [`PROFILE_LBS`]; the RCP that yields
    /// is exchanged and partitioned as round 0 of
    /// [`LiveWorker::rcp_round`], like any later round's.
    fn startup_lbs(&mut self) -> Result<(), LiveError> {
        if !self.env.cfg.system.dynamic_batching() {
            return Ok(());
        }
        // Profiling batches come from a private RNG stream: the worker's
        // sampling RNG must stay at the same position as in the simulator
        // (which profiles through its compute model, not through data).
        let mut prng = DetRng::seed_from_u64(self.env.cfg.seed ^ 0x5052_4F46 ^ self.me as u64);
        let mut samples = Vec::with_capacity(PROFILE_LBS.len());
        for &lbs in PROFILE_LBS.iter() {
            // Each profiled size is a batch-size change like any other: the
            // arena lets go of the previous size's buffers.
            self.worker.set_lbs(lbs);
            let Worker {
                batch_buf, shard, ..
            } = &mut self.worker;
            batch_buf.clear();
            batch_buf.extend((0..lbs).map(|_| shard[prng.index(shard.len())]));
            let t0 = self.env.clock.now();
            self.worker
                .compute_grads(self.env.data, self.env.cfg.grad_clip);
            samples.push((lbs as f64, (self.env.clock.now() - t0).max(1e-6)));
        }
        // Until the partition lands we hold the share the ledger says we
        // do: a fast peer's first gradient can race into the collect, and
        // its Eq. 7 divisor must not see a probe size.
        self.worker.set_lbs(self.env.cfg.initial_lbs);
        self.rcp_round(0, compute_rcp(&samples))
    }

    /// Must peer `j` answer a round triggered at local iteration
    /// `trigger_iter`? The `departed_at` ledger — seeded from the fault
    /// plan — decides, so participation under a kill plan is a pure
    /// function of the plan, not of Leave timing.
    fn rcp_expected(&self, j: usize, trigger_iter: u64) -> bool {
        j != self.me
            && !self.worker.sync.is_demoted(j)
            && !self.done[j]
            && self.members.counts(j, trigger_iter)
    }

    /// Execute every adjustment round whose boundary the *local* training
    /// clock has crossed. A peer's RCP for a not-yet-due round stays parked
    /// in `rcp_pending` until we cross the boundary ourselves: opening a
    /// round early (at whatever iteration the echo happened to arrive)
    /// would make the trigger iteration — and hence the EWMA sample fed
    /// into our broadcast RCP — depend on real-time thread interleaving,
    /// destroying run-to-run determinism under a pinned iteration time.
    /// The opener blocks in its collect (still serving frames), so a
    /// slower peer keeps stepping until its own clock crosses and answers.
    fn run_due_gbs_rounds(&mut self) -> Result<(), LiveError> {
        loop {
            let newest_seen = self.rcp_pending.keys().next_back().map(|&(r, _)| r);
            let Some(round) = self.batching.next_due(self.train_secs, newest_seen) else {
                return Ok(());
            };
            // Rounds only trigger after at least one step, so the EWMA
            // — our measured throughput — is primed.
            self.rcp_round(round, rcp_from_rate(self.ewma_rate))?;
        }
    }

    /// One RCP exchange (§3.2, live; round 0 is start-up): broadcast our
    /// RCP, collect every expected peer's, and hand the round to the
    /// shared batching core, which steps the growth controller and
    /// repartitions. `round` may be several periods ahead of the last one
    /// run (a long iteration crossed several boundaries, or a stalled peer
    /// was skipped over); the core fast-forwards through them.
    fn rcp_round(&mut self, round: u64, my_rcp: f64) -> Result<(), LiveError> {
        let trigger_iter = self.worker.iteration;
        // Peers use the broadcast value verbatim — that is how every
        // member partitions from the same RCP vector.
        let msg = Control::Rcp { round, rcp: my_rcp };
        self.broadcast(msg, |lw, j| lw.rcp_expected(j, trigger_iter))?;
        self.rcp_pending.insert((round, self.me), my_rcp);
        // Blocking collect: the round must not be decided until every
        // expected peer has answered (departures and Dones observed
        // mid-collect shrink the expectation). A stall only breaks
        // genuinely wedged clusters: the silent peer then holds share 0.
        self.serve_until(false, |lw| {
            (0..lw.n).all(|j| {
                !lw.rcp_expected(j, trigger_iter) || lw.rcp_pending.contains_key(&(round, j))
            })
        })?;
        // Every member tests everyone — itself included — against the
        // plan-seeded ledger at its own trigger iteration, so the round's
        // share list never depends on frame timing.
        let stamp = (self.now(), Some(self.me));
        let (members, rcps) = (&mut self.members, &self.rcp_pending);
        let rcp = |j| rcps.get(&(round, j)).copied();
        let resplit = self
            .batching
            .round(round, None, stamp, members, |_| trigger_iter, rcp);
        if resplit && members.counts(self.me, trigger_iter) {
            self.worker.set_lbs(members.lbs_of[self.me]);
        }
        // Anything at or below the completed round is stale now.
        self.rcp_pending.retain(|&(r, _), _| r > round);
        Ok(())
    }

    /// Fold the end-of-run state into the outcome and trace the per-link
    /// frame-lifecycle latency (advisory wall-clock quantiles, in µs, over
    /// the whole run; an instrumented transport's links that carried
    /// frames) and the byte ledger.
    fn finish(&mut self) {
        self.out.iterations = self.worker.iteration;
        self.out.wall_secs = self.now();
        self.out.gbs_trace = std::mem::take(&mut self.batching.gbs_trace);
        self.out.lbs_trace = std::mem::take(&mut self.batching.lbs_trace);
        self.out.train_secs = self.train_secs;
        let us = |h: &Histogram, q: f64| h.quantile(q) * 1e6;
        for link in self.transport.link_health().iter().filter(|l| l.frames > 0) {
            event!(self.out.wall_secs, w: self.me, "frame_latency";
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
        trace_wire_bytes(self.now(), Some(self.me), &self.out.wire_bytes_by_kind);
    }

    /// A rejoining kill (`W@I+R`), the runner's pause and resume: stop
    /// stepping for `secs` clock seconds, serving frames as usual. We stay
    /// a member — no Leave, no ledger entry — and our neighbors wait for
    /// us as for any slow peer.
    fn pause(&mut self, secs: f64) -> Result<(), LiveError> {
        let until = self.now() + secs;
        // Silence for a whole stall timeout only ends the wait early:
        // `RunSpec::validate` keeps a pause shorter than that.
        self.serve_until(false, |lw| lw.now() >= until)?;
        event!(self.now(), w: self.me, "rejoin"; "iter" => self.worker.iteration);
        Ok(())
    }

    /// Have all peers either finished or departed? Peers we never held a
    /// link to can send us nothing, so they count as finished.
    fn all_peers_finished(&self) -> bool {
        (0..self.n)
            .filter(|&j| j != self.me)
            .all(|j| self.done[j] || self.worker.sync.is_demoted(j) || !self.env.links[j])
    }

    /// Finalize an early exit (a permanent kill): no final evaluation,
    /// no weights — the outcome is marked departed and excluded from
    /// cluster convergence metrics.
    fn finish_departed(mut self) -> WorkerOutcome {
        self.out.departed = true;
        self.finish();
        event!(self.out.wall_secs, w: self.me, "run_end";
            "iterations" => self.out.iterations, "departed" => true);
        self.out
    }
}

/// Run one live worker to completion: startup profiling (dynamic-batching
/// systems), `opts.iters` training iterations gated by the sync policy,
/// then the Done shutdown barrier and a final evaluation. A worker named
/// in `cfg.fault` leaves at its planned iteration, or pauses there if the
/// kill rejoins.
pub fn run_worker(
    worker: Worker,
    env: &WorkerEnv<'_>,
    transport: &mut dyn ExchangeTransport,
) -> Result<WorkerOutcome, LiveError> {
    assert_eq!(worker.id, transport.me(), "worker/transport id mismatch");
    let me = worker.id;
    let n = transport.n();
    let system = env.cfg.system.name();
    let scope_env = format!("{}/w{me}", env.env_label);
    let _scope = dlion_telemetry::run_scope(&system, &scope_env, env.cfg.seed);

    let straggle = env
        .cfg
        .straggle
        .iter()
        .find(|(w, _)| *w == me)
        .map_or(1.0, |&(_, f)| f);
    let mut lw = LiveWorker {
        batching: Batching::new(env.cfg, n),
        train_secs: 0.0,
        ewma_rate: 0.0,
        straggle,
        apply_lat: vec![Histogram::default(); n],
        rcp_pending: BTreeMap::new(),
        done: vec![false; n],
        members: Membership::planned(env.cfg, n),
        wire_cfg: WireCfg {
            format: env.cfg.wire,
            chunk_bytes: env.opts.chunk_bytes,
        },
        wire_scratch: Vec::new(),
        pool: Vec::new(),
        out: WorkerOutcome {
            id: me,
            ..Default::default()
        },
        n,
        me,
        worker,
        env,
        transport,
    };
    event!(lw.now(), w: me, "run_start";
        "workers" => n, "iters" => env.opts.iters,
        "params" => env.total_params, "initial_lbs" => env.cfg.initial_lbs);

    lw.startup_lbs()?;

    loop {
        // Apply everything that has arrived before deciding to compute —
        // the freshest peer state the transport can give us.
        while let Some((from, frame)) = lw.poll()? {
            lw.handle_frame(from, frame, false)?;
        }
        // Any adjustment round that is due (training clock crossed a
        // boundary, or a peer opened one — its RCP just arrived above)
        // runs to completion before the next compute, so the new LBS is
        // in force for it.
        lw.run_due_gbs_rounds()?;
        if lw.worker.iteration >= env.opts.iters {
            break;
        }
        // Gate the next iteration on the sync policy, serving frames
        // (only a gradient, an ack or a demotion can open it).
        let policy = lw.worker.strategy.sync_policy();
        let open = |lw: &LiveWorker| lw.worker.sync.can_start(policy, lw.worker.iteration);
        if !lw.serve_until(false, open)? {
            return Err(LiveError::Stalled(format!(
                "worker {me} blocked at iteration {} under {policy:?}",
                lw.worker.iteration
            )));
        }
        // The single BSP flush point: every gradient of the rounds before
        // the one we are about to compute applies now, in canonical order
        // (gating says those rounds are complete).
        lw.flush_parked(false)?;
        if !lw.step()? {
            return Ok(lw.finish_departed());
        }
    }

    // Shutdown barrier: announce Done to every *linked* peer (even ones
    // outside the current round's neighbor set — everyone waits on
    // everyone reachable), then drain until every linked member peer's
    // Done is in; departed peers owe us nothing, and a peer we never held
    // a connection to cannot send one. Per-peer FIFO means a peer's Done
    // arrives after all its gradients.
    lw.broadcast(Control::Done, |lw, j| lw.env.links[j])?;
    lw.done[me] = true;
    event!(lw.now(), w: me, "barrier_enter"; "iter" => lw.worker.iteration);
    match lw.serve_until(true, |lw| lw.all_peers_finished()) {
        // All peers closed their connections — they can only do that
        // after completing their own barrier, so nothing is missing.
        Ok(true) | Err(LiveError::Transport(TransportError::Disconnected)) => {}
        Ok(false) => {
            let missing: Vec<usize> = (0..n)
                .filter(|&j| !lw.done[j] && !lw.worker.sync.is_demoted(j) && env.links[j])
                .collect();
            return Err(LiveError::Stalled(format!(
                "worker {me} waiting for Done from {missing:?}"
            )));
        }
        Err(e) => return Err(e),
    }
    // Anything still queued locally arrived before the senders' Dones.
    while let Ok(Some((from, frame))) = lw.poll() {
        lw.handle_frame(from, frame, true)?;
    }
    // No further local rounds: whatever is still deferred applies now.
    lw.flush_parked(true)?;

    lw.eval();
    lw.finish();
    if env.cfg.capture_weights {
        lw.out.final_weights = Some(lw.worker.model.weights());
    }
    event!(lw.out.wall_secs, w: me, "run_end";
        "iterations" => lw.out.iterations,
        "grad_bytes" => lw.out.grad_bytes,
        "final_acc" => lw.out.evals.last().map(|e| e.accuracy).unwrap_or(0.0));
    Ok(lw.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_json_round_trips() {
        let out = WorkerOutcome {
            id: 2,
            iterations: 30,
            busy_secs: 1.5,
            wall_secs: 2.25,
            msgs_sent: 60,
            msgs_recv: 58,
            grad_bytes: 123456.0,
            weight_bytes: 0.0,
            control_bytes: 28.0,
            net_overhead_bytes: 1160.0,
            dkt_merges: 1,
            departed: false,
            evals: vec![EvalPoint {
                iteration: 30,
                wall: 2.0,
                accuracy: 0.375,
                loss: 1.875,
            }],
            gbs_trace: vec![(0.25, 160), (0.5, 240)],
            lbs_trace: vec![(0.0, vec![32, 32, 32]), (0.25, vec![54, 53, 53])],
            wire_bytes_by_kind: [
                ("grad_dense".to_string(), 123456.0),
                ("control".to_string(), 28.0),
            ]
            .into_iter()
            .collect(),
            train_secs: 1.5,
            final_weights: None,
        };
        let back = WorkerOutcome::from_json(&out.to_json()).unwrap();
        assert_eq!(back.id, 2);
        assert_eq!(back.train_secs, 1.5);
        assert_eq!(back.gbs_trace, vec![(0.25, 160), (0.5, 240)]);
        assert_eq!(back.lbs_trace.len(), 2);
        assert_eq!(back.lbs_trace[1], (0.25, vec![54, 53, 53]));
        assert_eq!(back.iterations, 30);
        assert_eq!(back.msgs_sent, 60);
        assert_eq!(back.busy_secs, 1.5);
        assert_eq!(back.net_overhead_bytes, 1160.0);
        assert_eq!(back.evals.len(), 1);
        assert_eq!(back.evals[0].accuracy, 0.375);
        assert!(!back.departed);
        assert_eq!(back.wire_bytes_by_kind.get("grad_dense"), Some(&123456.0));
        assert_eq!(back.wire_bytes_by_kind.get("control"), Some(&28.0));
        assert!(back.final_weights.is_none());
    }

    #[test]
    fn departed_outcome_round_trips() {
        let out = WorkerOutcome {
            id: 1,
            iterations: 20,
            departed: true,
            ..Default::default()
        };
        let back = WorkerOutcome::from_json(&out.to_json()).unwrap();
        assert!(back.departed);
        assert_eq!(back.iterations, 20);
        assert!(back.evals.is_empty());
    }

    #[test]
    fn outcome_json_rejects_garbage() {
        assert!(WorkerOutcome::from_json("not json").is_err());
        assert!(WorkerOutcome::from_json("{\"id\":1}").is_err());
    }
}
