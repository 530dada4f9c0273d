//! # dlion-net
//!
//! The **live execution backend**: every DLion worker runs on its own OS
//! thread (or process, via the `dlion-worker` binary) and exchanges
//! gradients over the length-prefixed, checksummed TCP frames defined by
//! `dlion_core::messages` — no virtual clock, no discrete-event queue.
//!
//! The exchange logic is *identical* to the simulator's: both backends
//! build their cluster through `dlion_core::build_cluster`, both drive
//! the same [`dlion_core::ExchangeStrategy`] plugins, the same
//! [`dlion_core::SyncState`] gating, the same weighted update and the same
//! DKT state machine. The only difference is what carries a
//! [`dlion_core::Payload`] from one worker to another: a simulated
//! `NetworkModel::transfer` there, a real socket (or in-process channel)
//! behind [`dlion_core::ExchangeTransport`] here. The parity tests in
//! `tests/parity.rs` pin this down to bit-identical final weights for
//! synchronous configurations.
//!
//! ## Module map
//!
//! * [`driver`] — the per-worker training loop (compute → apply own →
//!   send → block per sync policy), plus the startup LBS profiling round
//!   and the Done-barrier shutdown protocol.
//! * [`tcp`] — [`tcp::TcpTransport`]: mesh establishment with a Hello
//!   handshake through the one acceptor the transport keeps for its whole
//!   life (establishment joins and late rejoins share it), per-peer writer
//!   threads with bounded backpressure queues, reader threads feeding one
//!   shared inbox.
//! * [`live`] — the one assembly of a live run: [`live::LiveCluster`]
//!   builds the cluster from the [`dlion_core::RunConfig`] (the run's only
//!   description — [`LiveOpts`] adds execution knobs, nothing the
//!   simulator also reads), places ranks on hosts, and runs the ranks of
//!   the hosts it is handed — all of them in-process for
//!   [`run_live`]/[`run_live_virtual`], one per `dlion-worker` process —
//!   directly on the transport or through a [`rankhost::RankHost`] as the
//!   layout dictates; outcomes fold into the same
//!   [`dlion_core::RunMetrics`] the simulator reports.
//! * [`health`] — the cluster health plane: the [`KIND_STATS`] report
//!   codec and the [`health::HealthAggregator`] that merges per-worker
//!   reports into straggler scores and a silence ledger.
//! * [`rankhost`] — virtual workers: one process hosting N ranks
//!   multiplexed over a single host-level transport endpoint
//!   ([`rankhost::RankHost`] + per-rank [`rankhost::RankEndpoint`]s),
//!   routing frames by `(host, rank)` via [`KIND_ROUTE`] markers.
//!
//! ## Control frames
//!
//! The live runtime adds eight frame kinds on top of the payload codec,
//! all at or above [`KIND_NET_BASE`] so `Payload::from_wire` can never
//! mistake one for a training payload:
//!
//! | kind | body | role |
//! |------|------|------|
//! | [`KIND_HELLO`] | `id u32, n u32, seed u64` (+ optional `base u32, count u32, total u32` rank block) | mesh handshake: identifies the dialing worker, sanity-checks cluster size and seed; a *late* Hello (after establishment) announces a rejoin. The ranked 28-byte form announces which virtual ranks the host speaks for |
//! | [`KIND_ACK`] | empty | delivery acknowledgement for one gradient message (drives `SyncState::on_delivered_from`, i.e. Gaia's `BlockOnDelivery`) |
//! | [`KIND_DONE`] | empty | shutdown barrier: the sender finished all its iterations; per-peer FIFO guarantees every earlier gradient already arrived |
//! | [`KIND_RCP`] | `round u64, at_iter u64, rcp f64` | LBS/GBS exchange: the sender's measured relative compute power (Eq. 5) for adjustment round `round` (0 = startup profiling), opened at the sender's iteration `at_iter` |
//! | [`KIND_LEAVE`] | `completed_iters u64` | planned departure: the sender is leaving after completing that many iterations; receivers demote it from sync gating and averaging from the next round on |
//! | [`KIND_CATCHUP`] | `iteration u64` | rejoin reply to a late Hello: the responder's current iteration, inviting the rejoiner to DKT-pull full weights and resume there |
//! | [`KIND_STATS`] | [`health::WorkerStats`], 112 bytes | periodic health report (`--health-interval`): iteration, samples/sec EWMA, send-queue depth, deferred backlog, scratch high-water, GBS round, byte ledger — the cluster health plane's wire format (see [`health`]) |
//! | [`KIND_ROUTE`] | `src_rank u32, dst_rank u32` | rank-address marker on a host link: the *next* frame on this link is from `src_rank` to `dst_rank` (see [`rankhost`]); never appears outside host-to-host links |

pub mod driver;
pub mod health;
pub mod live;
pub mod rankhost;
pub mod tcp;

pub use driver::{parse_straggle, run_worker, EvalPoint, LiveOpts, WorkerEnv, WorkerOutcome};
pub use health::{parse_stats, stats_body, HealthAggregator, WorkerStats, STATS_BODY_BYTES};
pub use live::{
    assemble_metrics, link_masks, live_config, run_live, run_live_virtual, LiveCluster,
    TransportKind, VirtualPlan,
};
pub use rankhost::{RankEndpoint, RankHost, RankHostHandle, RankLayout};
pub use tcp::{
    loopback_addrs, loopback_mesh, loopback_mesh_addrs, parse_peers, RankHello, TcpOpts,
    TcpTransport,
};

use dlion_core::messages::KIND_NET_BASE;
use dlion_core::{TransportError, WireError};

/// Mesh handshake frame (dialer → acceptor): `id u32, n u32, seed u64`.
/// Arriving *after* establishment it is a rejoin announcement.
pub const KIND_HELLO: u8 = KIND_NET_BASE;
/// Per-gradient delivery acknowledgement (empty body).
pub const KIND_ACK: u8 = KIND_NET_BASE + 1;
/// Shutdown barrier: "I finished my iterations" (empty body).
pub const KIND_DONE: u8 = KIND_NET_BASE + 2;
/// RCP exchange (startup profiling and periodic GBS adjustment rounds):
/// `round u64 | at_iter u64 | rcp f64` body.
pub const KIND_RCP: u8 = KIND_NET_BASE + 3;
/// Planned departure: the sender's completed-iteration count (`u64` body).
pub const KIND_LEAVE: u8 = KIND_NET_BASE + 4;
/// Rejoin reply: the responder's current iteration (`u64` body).
pub const KIND_CATCHUP: u8 = KIND_NET_BASE + 5;
/// Periodic worker health report ([`health::WorkerStats`] body), emitted
/// every `--health-interval` training-clock seconds.
pub const KIND_STATS: u8 = KIND_NET_BASE + 6;
/// Rank-address marker on a host-to-host link: `src_rank u32, dst_rank
/// u32` body, announcing that the next frame on the same link travels
/// between those virtual ranks (see [`rankhost`]). Host links are single
/// FIFO streams, so the pairing cannot be reordered.
pub const KIND_ROUTE: u8 = KIND_NET_BASE + 7;

/// Encode the 16-byte Hello body: `id u32 LE, n u32 LE, seed u64 LE`.
pub fn hello_body(me: usize, n: usize, seed: u64) -> [u8; 16] {
    let mut body = [0u8; 16];
    body[0..4].copy_from_slice(&(me as u32).to_le_bytes());
    body[4..8].copy_from_slice(&(n as u32).to_le_bytes());
    body[8..16].copy_from_slice(&seed.to_le_bytes());
    body
}

/// Encode the ranked 28-byte Hello body: the 16-byte classic body plus
/// `base u32 LE, count u32 LE, total u32 LE` — the block of virtual
/// ranks the sending host speaks for and the cluster's total rank count.
pub fn hello_body_ranked(
    me: usize,
    n: usize,
    seed: u64,
    base: u32,
    count: u32,
    total: u32,
) -> [u8; 28] {
    let mut body = [0u8; 28];
    body[0..16].copy_from_slice(&hello_body(me, n, seed));
    body[16..20].copy_from_slice(&base.to_le_bytes());
    body[20..24].copy_from_slice(&count.to_le_bytes());
    body[24..28].copy_from_slice(&total.to_le_bytes());
    body
}

/// A live-run failure. Transport and wire errors are fatal for the worker
/// that hits them; the orchestrator surfaces the first failure.
#[derive(Debug)]
pub enum LiveError {
    Transport(TransportError),
    Wire(WireError),
    Io(std::io::Error),
    /// A peer violated the handshake or framing protocol.
    Protocol(String),
    /// No progress (no frame, no startable iteration) for the stall
    /// timeout — a peer likely died without closing its socket.
    Stalled(String),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Transport(e) => write!(f, "transport: {e}"),
            LiveError::Wire(e) => write!(f, "wire: {e}"),
            LiveError::Io(e) => write!(f, "i/o: {e}"),
            LiveError::Protocol(m) => write!(f, "protocol violation: {m}"),
            LiveError::Stalled(m) => write!(f, "stalled: {m}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<TransportError> for LiveError {
    fn from(e: TransportError) -> Self {
        LiveError::Transport(e)
    }
}

impl From<WireError> for LiveError {
    fn from(e: WireError) -> Self {
        LiveError::Wire(e)
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_core::messages::Payload;

    #[test]
    fn control_kinds_are_outside_payload_space() {
        for kind in [
            KIND_HELLO,
            KIND_ACK,
            KIND_DONE,
            KIND_RCP,
            KIND_LEAVE,
            KIND_CATCHUP,
            KIND_STATS,
            KIND_ROUTE,
        ] {
            assert!(kind >= KIND_NET_BASE);
            let frame = dlion_core::messages::encode_frame(kind, &[]);
            assert!(
                Payload::from_wire(&frame, &mut Vec::new()).is_err(),
                "payload decoder accepted control kind {kind:#x}"
            );
        }
    }

    #[test]
    fn errors_render() {
        let e = LiveError::Stalled("w2 silent for 30s".into());
        assert!(format!("{e}").contains("w2"));
        let e: LiveError = WireError::BadMagic.into();
        assert!(matches!(e, LiveError::Wire(_)));
    }
}
