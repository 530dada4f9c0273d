//! The byte-level transport abstraction between DLion workers.
//!
//! The exchange logic (strategies, sync policies, DKT) is written against
//! [`Payload`] values; a transport only moves *encoded frames* between
//! peers. `dlion-net` implements this trait over real TCP sockets;
//! [`MemTransport`] implements it over in-process channels, which gives the
//! live worker driver a deterministic, socket-free harness for tests and a
//! second data point that parity holds independent of the wire.

use crate::messages::{Payload, WireCfg, WireError};
use dlion_telemetry::Histogram;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Advisory per-link transport health (DESIGN.md §4h): send-queue depth
/// and frame-lifecycle latency histograms collected by an instrumented
/// transport (TCP in a traced live run). All quantities are
/// wall-clock-derived, so they feed only the `frame_latency` trace rows
/// and the dashboard — never the deterministic `cluster_health` verdict.
#[derive(Clone, Debug)]
pub struct LinkHealth {
    /// The peer this link reaches.
    pub peer: usize,
    /// Frames currently queued for the peer or being written to it
    /// (send-side backpressure).
    pub queue_depth: usize,
    /// High-water mark of `queue_depth` over the link's lifetime.
    pub queue_depth_hw: usize,
    /// Frames that completed the send path on this link.
    pub frames: u64,
    /// Seconds a frame waited in the send queue (enqueue → writer pickup;
    /// for a frame its sender wrote itself, the wait for the link's lock).
    pub queue_wait: Histogram,
    /// Seconds spent serializing + pushing a frame into the socket
    /// (encode and socket write overlap for chunked streams).
    pub write_time: Histogram,
    /// Seconds the reader spent pulling + verifying a frame off the wire.
    pub read_time: Histogram,
}

/// Transport failure. Every [`ExchangeTransport`] method reports its
/// failures through this type — there are no stringly-typed errors on
/// the transport boundary. The per-peer variants
/// ([`PeerGone`](TransportError::PeerGone),
/// [`PeerDisconnected`](TransportError::PeerDisconnected),
/// [`PeerTimeout`](TransportError::PeerTimeout)) are *liveness
/// notifications* a churn-tolerant driver can recover from by demoting
/// the named peer; the rest are fatal for the worker.
#[derive(Debug)]
pub enum TransportError {
    /// Send-side: `to` is not a reachable peer (unknown id, self, or a
    /// link that already closed).
    PeerGone(usize),
    /// Receive-side: one peer's link closed (EOF or I/O error on its
    /// connection) while the rest of the mesh stays up. Reported at most
    /// once per incident; later receive calls keep serving the other
    /// peers' frames.
    PeerDisconnected { peer: usize },
    /// Receive-side: no frame from `peer` within the transport's
    /// configured per-peer receive timeout — the peer may have wedged
    /// without closing its socket. Reported at most once per silence;
    /// hearing from the peer again re-arms the timeout.
    PeerTimeout { peer: usize },
    /// Every peer connection has closed.
    Disconnected,
    /// A frame failed wire validation.
    Wire(WireError),
    /// Underlying I/O error (socket transports).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerGone(p) => write!(f, "peer {p} is gone"),
            TransportError::PeerDisconnected { peer } => {
                write!(f, "peer {peer} disconnected")
            }
            TransportError::PeerTimeout { peer } => {
                write!(f, "peer {peer} exceeded the receive timeout")
            }
            TransportError::Disconnected => write!(f, "all peers disconnected"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Point-to-point frame transport for one worker in a fixed-size cluster.
///
/// Implementations must preserve per-peer FIFO ordering (frames from a given
/// peer arrive in send order) — the shutdown barrier and the synchronous
/// parity argument both rely on it. Frames are the codec's checksummed
/// byte strings; [`Payload::to_wire`] / [`Payload::from_wire`] convert.
///
/// # Error contract
///
/// Every method returns [`TransportError`]; implementations must not
/// panic on peer failure.
///
/// * [`send_frame`](ExchangeTransport::send_frame) fails with
///   [`TransportError::PeerGone`] when `to` cannot accept frames
///   (unknown id, `to == me`, or the link closed). Sending never fails
///   because of a *receive*-side condition.
/// * The receive methods return `Ok(None)` for "no frame available",
///   and `Ok(Some(..))` frames stay strictly FIFO per peer. A per-peer
///   liveness loss surfaces **once** as
///   [`TransportError::PeerDisconnected`] (link closed) or
///   [`TransportError::PeerTimeout`] (silent past the configured
///   timeout); these are notifications, not terminal states — callers
///   that keep receiving continue to get the surviving peers' frames.
/// * [`TransportError::Disconnected`] means the whole mesh is gone and
///   no further frame can ever arrive.
/// * [`TransportError::Wire`] / [`TransportError::Io`] indicate frame
///   corruption or OS-level failure and are fatal.
pub trait ExchangeTransport: Send {
    /// This worker's id in `0..n()`.
    fn me(&self) -> usize;

    /// Cluster size.
    fn n(&self) -> usize;

    /// Queue a frame for delivery to `to`. May block briefly under
    /// backpressure; returns an error only when the peer is unreachable.
    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError>;

    /// Non-blocking poll: the next `(from, frame)` if one is ready.
    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError>;

    /// Block up to `timeout` for the next frame; `Ok(None)` on timeout.
    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError>;

    /// Encode `payload` under `cfg` and deliver it to `to`, returning the
    /// exact number of bytes put on the wire (`payload.wire_len(cfg)`).
    ///
    /// The default implementation materializes the wire stream and hands
    /// it to [`send_frame`](ExchangeTransport::send_frame) — correct for
    /// in-memory transports, where "the wire" is a channel. Socket
    /// transports override this to *stream*: the TCP transport hands the
    /// `Arc<Payload>` to its per-peer writer thread, which serializes
    /// chunk *k+1* while chunk *k* is in the socket buffer, so a 5 MB
    /// gradient never exists as one materialized `Vec<u8>` on the send
    /// path. What the receiver gets is not always those bytes: the TCP
    /// reader checks each chunk's sum as it lands and hands a chunked
    /// stream on as an assembled frame (header and body in one run,
    /// [`Payload::to_assembled`] — what a host-mate gets too), while an
    /// in-memory transport delivers the raw stream. Receivers decode every
    /// layout with [`Payload::from_wire`] / `decode_wire`, which sums what
    /// no reader summed and nothing twice.
    fn send_wire(
        &mut self,
        to: usize,
        payload: Arc<Payload>,
        cfg: &WireCfg,
    ) -> Result<usize, TransportError> {
        let stream = payload.to_wire(cfg);
        let len = stream.len();
        self.send_frame(to, stream)?;
        Ok(len)
    }

    /// Snapshot this endpoint's per-link health instrumentation (one
    /// entry per connected peer). The default returns nothing — only
    /// instrumented transports (TCP in a traced run) override it;
    /// `MemTransport`'s channels have no meaningful queue or wire latency
    /// to report.
    fn link_health(&mut self) -> Vec<LinkHealth> {
        Vec::new()
    }
}

/// In-process transport: a full mesh of unbounded channels. Used by tests
/// and `dlion-live --transport mem`; the TCP transport in `dlion-net` is the
/// real-socket counterpart.
/// A frame tagged with its sender's worker id.
type TaggedFrame = (usize, Vec<u8>);

pub struct MemTransport {
    me: usize,
    txs: Vec<Option<Sender<TaggedFrame>>>,
    rx: Receiver<TaggedFrame>,
}

/// Build a connected `n`-worker in-memory mesh; element `i` is worker `i`'s
/// transport endpoint (move each into its worker thread).
pub fn mem_mesh(n: usize) -> Vec<MemTransport> {
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(me, rx)| MemTransport {
            me,
            txs: txs
                .iter()
                .enumerate()
                .map(|(j, tx)| (j != me).then(|| tx.clone()))
                .collect(),
            rx,
        })
        .collect()
}

impl ExchangeTransport for MemTransport {
    fn me(&self) -> usize {
        self.me
    }

    fn n(&self) -> usize {
        self.txs.len()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let tx = self
            .txs
            .get(to)
            .and_then(|t| t.as_ref())
            .ok_or(TransportError::PeerGone(to))?;
        tx.send((self.me, frame))
            .map_err(|_| TransportError::PeerGone(to))
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Payload;

    #[test]
    fn mem_mesh_routes_frames_with_sender_ids() {
        let mut mesh = mem_mesh(3);
        let frame = Payload::DktRequest.to_wire(&WireCfg::default());
        let mut w2 = mesh.pop().unwrap();
        let mut w1 = mesh.pop().unwrap();
        let mut w0 = mesh.pop().unwrap();
        assert_eq!(w0.me(), 0);
        assert_eq!(w0.n(), 3);
        w0.send_frame(2, frame.clone()).unwrap();
        w1.send_frame(2, frame.clone()).unwrap();
        let (from_a, f_a) = w2.try_recv_frame().unwrap().unwrap();
        let (from_b, _) = w2.try_recv_frame().unwrap().unwrap();
        assert_eq!((from_a, from_b), (0, 1));
        assert_eq!(f_a, frame);
        assert!(w2.try_recv_frame().unwrap().is_none());
        assert!(w1
            .recv_frame_timeout(Duration::from_millis(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn mem_transport_cannot_send_to_self() {
        let mut mesh = mem_mesh(2);
        let mut w0 = mesh.remove(0);
        assert!(matches!(
            w0.send_frame(0, vec![1, 2, 3]),
            Err(TransportError::PeerGone(0))
        ));
    }

    #[test]
    fn dropped_peer_surfaces_as_gone() {
        let mut mesh = mem_mesh(2);
        let w1 = mesh.pop().unwrap();
        let mut w0 = mesh.pop().unwrap();
        drop(w1);
        assert!(matches!(
            w0.send_frame(1, vec![0]),
            Err(TransportError::PeerGone(1))
        ));
    }

    #[test]
    fn send_wire_delivers_chunked_streams_and_reports_wire_len() {
        use crate::messages::{GradData, GradMsg, WireFormat};
        use dlion_tensor::{Shape, Tensor};
        let mut mesh = mem_mesh(2);
        let mut w1 = mesh.pop().unwrap();
        let mut w0 = mesh.pop().unwrap();
        let p = Arc::new(Payload::Grad(GradMsg {
            iteration: 1,
            lbs: 32,
            data: GradData::Dense(vec![Tensor::from_vec(
                Shape::d1(400),
                (0..400).map(|i| i as f32 * 0.5).collect(),
            )]),
            n_used: 100.0,
        }));
        let cfg = WireCfg {
            format: WireFormat::Fp16,
            chunk_bytes: 128,
        };
        assert!(p.wire_is_chunked(&cfg));
        let sent = w0.send_wire(1, p.clone(), &cfg).unwrap();
        assert_eq!(sent, p.wire_len(&cfg));
        let (from, stream) = w1.try_recv_frame().unwrap().unwrap();
        assert_eq!(from, 0);
        assert_eq!(stream.len(), sent);
        let mut scratch = Vec::new();
        let back = Payload::from_wire(&stream, &mut scratch).unwrap();
        assert_eq!(back.kind(), "grad");
    }

    #[test]
    fn send_wire_reports_exact_bytes_for_plain_frames() {
        let mut mesh = mem_mesh(2);
        let mut w1 = mesh.pop().unwrap();
        let mut w0 = mesh.pop().unwrap();
        let p = Arc::new(Payload::LossShare { avg_loss: 1.5 });
        let cfg = WireCfg::default();
        let sent = w0.send_wire(1, p.clone(), &cfg).unwrap();
        assert_eq!(sent, p.wire_len(&cfg));
        let (from, frame) = w1.try_recv_frame().unwrap().unwrap();
        assert_eq!(from, 0);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), *p);
    }
}
