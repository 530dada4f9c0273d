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
//!   send → block per sync policy), plus the startup LBS profiling round,
//!   the health plane's report cadence (`worker_health`, `frame_latency`)
//!   and the Done-barrier shutdown protocol. Who left the run is what a
//!   rank's gating demoted; the verdict is `dlion_core::HealthSummary`.
//! * [`tcp`] — [`tcp::TcpTransport`], one endpoint per rank: mesh
//!   establishment with a Hello handshake through one acceptor that lives
//!   only until the expected peers are wired (a Hello after that is a
//!   protocol error), and one writer and one reader thread per host link. A host's ranks share its links: the
//!   writer puts a [`KIND_ROUTE`] marker ahead of each frame on a ranked
//!   mesh, the reader checks it against the placement and routes the
//!   frame to the rank's inbox.
//! * [`live`] — the one assembly of a live run: [`live::LiveCluster`]
//!   builds the cluster from the [`dlion_core::RunConfig`] (the run's only
//!   description — [`LiveOpts`] adds execution knobs, nothing the
//!   simulator also reads), places ranks on hosts by the static
//!   [`live::RankLayout`], and runs the rank endpoints it is handed — all
//!   of them in-process for [`run_live`]/[`run_live_virtual`], one host's
//!   per `dlion-worker` process; outcomes fold into the same
//!   [`dlion_core::RunMetrics`] the simulator reports.
//! * [`control`] — the net-level control protocol: the [`Control`] enum,
//!   its frame encoding and the one validated decode. The normative
//!   control-frame table lives there.

pub mod control;
pub mod driver;
pub mod live;
pub mod tcp;

pub use control::{Control, RankHello, KIND_ACK, KIND_DONE, KIND_HELLO, KIND_RCP, KIND_ROUTE};
pub use driver::{parse_straggle, run_worker, EvalPoint, LiveOpts, WorkerEnv, WorkerOutcome};
pub use live::{
    assemble_metrics, link_masks, live_config, run_live, run_live_virtual, LiveCluster, RankLayout,
    TransportKind,
};
pub use tcp::{loopback_addrs, loopback_mesh, parse_peers, TcpOpts, TcpTransport};

use dlion_core::{TransportError, WireError};

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

    #[test]
    fn errors_render() {
        let e = LiveError::Stalled("w2 silent for 30s".into());
        assert!(format!("{e}").contains("w2"));
        let e: LiveError = WireError::BadMagic.into();
        assert!(matches!(e, LiveError::Wire(_)));
    }
}
