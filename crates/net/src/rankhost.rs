//! Virtual workers: one process hosting N ranks over one transport.
//!
//! The live backend historically hard-wired one logical worker (rank) to
//! one transport endpoint — scaling an experiment to 64 ranks meant 64
//! processes and 64·63/2 sockets. This module decouples the two: a
//! [`RankHost`] owns every rank homed on one OS process, multiplexes
//! their traffic over a **single** host-level [`ExchangeTransport`]
//! (`MemTransport`/`TcpTransport` keep one physical link per host
//! *pair*), and hands each rank a [`RankEndpoint`] that implements the
//! same `ExchangeTransport` trait in **rank space** — so the driver's
//! training loop, `SyncState` gating, the churn ledger, GBS/LBS
//! controllers, topology schedules and health reports all operate on
//! virtual ranks completely unchanged.
//!
//! ## Addressing
//!
//! Host links carry frames for many rank pairs, so every routed frame is
//! preceded by a [`Control::Route`] marker on the same link. A host link is
//! one FIFO stream (one writer thread → one socket → one reader thread, or
//! one in-memory channel), so the marker/frame pairing cannot be reordered
//! or interleaved — no change to the frame codec itself is needed, and
//! streamed chunked payloads ride the same queue as their marker. The
//! `Hello` handshake's rank block (`base, count, total`) announces which
//! ranks a host speaks for.
//!
//! ## The pump
//!
//! Each `RankHost` runs one **pump thread** that exclusively owns the
//! host transport: it drains an unbounded outbound queue fed by the
//! local endpoints (send side) and demultiplexes inbound frames to
//! per-rank inboxes (recv side). Same-host traffic never touches the
//! pump: the sender materializes the exact wire bytes and pushes them
//! straight into the destination rank's inbox, so the receive path
//! decodes byte-identical streams whether a peer rank is local or
//! remote — the strict-BSP sim-vs-live parity invariant holds because
//! under `SyncPolicy::Synchronous` the driver applies deferred peer
//! gradients in canonical `(iteration, sender)` order, making the final
//! weights a pure function of the round schedule, not of arrival
//! interleaving.
//!
//! ## Placement and churn
//!
//! Placement is static: rank `r` lives on host `r / ranks_per_host` for
//! the whole run ([`RankLayout::host_of`]), so a send finds its
//! destination's host by arithmetic, without a lock, and a route marker
//! is *checked* against the placement — its `src` must live on the host
//! that sent it and its `dst` here — never learned from. Host-level
//! failures fan out to rank space: when the host transport reports a
//! peer *host* gone (EOF, I/O error, send to a dead link), the pump
//! demotes **all** of that host's ranks in one step — one
//! `PeerDisconnected` per rank, in rank order, surfaced to each local
//! driver. A departed rank comes back through the driver's rejoin
//! protocol alone (late Hello → Catchup → DKT pull), from the same host
//! over the still-open host links.
//!
//! Route markers are transport-internal overhead: they appear in no
//! byte ledger (the driver never sees them), exactly like TCP/IP
//! headers don't appear in the simulator's cost model.

use crate::control::{Control, RankHello};
use dlion_core::messages::{Payload, WireCfg};
use dlion_core::{ExchangeTransport, TransportError};
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the pump blocks on the host transport per cycle when idle.
/// Bounds the latency of an outbound send sitting in the pump queue.
const PUMP_POLL: Duration = Duration::from_millis(1);

/// Static rank→host placement for a virtual-rank cluster (`--virtual R`):
/// ranks `[h·R, (h+1)·R)` on host `h`, the last host taking the
/// remainder. Every host computes the same placement, and nothing on the
/// wire changes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLayout {
    n_ranks: usize,
    ranks_per_host: usize,
}

impl RankLayout {
    pub fn even(n_ranks: usize, ranks_per_host: usize) -> RankLayout {
        assert!(ranks_per_host > 0, "need at least one rank per host");
        RankLayout {
            n_ranks,
            ranks_per_host,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub fn ranks_per_host(&self) -> usize {
        self.ranks_per_host
    }

    pub fn n_hosts(&self) -> usize {
        self.n_ranks.div_ceil(self.ranks_per_host)
    }

    /// The host (OS process / transport endpoint) `rank` lives on.
    pub fn host_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_host
    }

    /// The ranks homed on `host`, ascending.
    pub fn ranks_on(&self, host: usize) -> Range<usize> {
        let r = self.ranks_per_host;
        (host * r).min(self.n_ranks)..((host + 1) * r).min(self.n_ranks)
    }

    /// The per-host Hello rank blocks.
    pub fn hello_blocks(&self) -> Vec<RankHello> {
        (0..self.n_hosts())
            .map(|h| {
                let ranks = self.ranks_on(h);
                RankHello {
                    base: ranks.start as u32,
                    count: ranks.len() as u32,
                    total: self.n_ranks as u32,
                }
            })
            .collect()
    }

    /// Collapse per-rank link masks into per-host ones: hosts `a` and
    /// `b` hold a physical link iff some rank pair across them does.
    /// Same-host pairs need no link (delivery is in-process).
    pub fn host_links(&self, rank_masks: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let hosts = self.n_hosts();
        let mut links = vec![vec![false; hosts]; hosts];
        for (i, row) in rank_masks.iter().enumerate() {
            for (j, &on) in row.iter().enumerate() {
                let (a, b) = (self.host_of(i), self.host_of(j));
                if on && a != b {
                    links[a][b] = true;
                    links[b][a] = true;
                }
            }
        }
        links
    }
}

/// What lands in a rank's inbox: frames from peers and rank-space
/// liveness notes, in FIFO order per sender.
enum RankNote {
    /// A frame (or raw wire stream) from `rank`.
    Frame(usize, Vec<u8>),
    /// The rank's host link died.
    Gone(usize),
    /// The rank's host has been silent past the peer timeout.
    Timeout(usize),
    /// The host transport itself disconnected (every remote host gone).
    AllGone,
}

/// Work the endpoints hand to the pump thread.
enum Outbound {
    Frame {
        src: usize,
        dst: usize,
        frame: Vec<u8>,
    },
    Stream {
        src: usize,
        dst: usize,
        payload: Arc<Payload>,
        cfg: WireCfg,
    },
    /// A local rank is done with the transport (endpoint dropped).
    /// Queued after the endpoint's final frames, so the pump flushes
    /// those first.
    Retire,
}

/// Host-level state shared between the pump and the local endpoints.
struct Shared {
    /// This host's id in the host-level mesh.
    host: usize,
    layout: RankLayout,
    /// The inbox of every rank homed here, in rank order.
    inboxes: Vec<Sender<RankNote>>,
    /// Host-level liveness: endpoints consult this so sends to a dead
    /// host fail fast with `PeerGone` (the trait contract).
    host_gone: Mutex<Vec<bool>>,
}

impl Shared {
    /// The inbox of `rank`, which lives on this host.
    fn inbox(&self, rank: usize) -> &Sender<RankNote> {
        &self.inboxes[rank - self.layout.ranks_on(self.host).start]
    }
}

/// One process's multiplexer: owns the host transport through its pump
/// thread.
pub struct RankHost {
    pump: Option<JoinHandle<()>>,
}

impl RankHost {
    /// Wrap `transport` (one endpoint of the *host-level* mesh) and
    /// mint an endpoint for every rank the layout homes on `host`.
    /// `transport.me()` must equal `host` and `transport.n()` the
    /// layout's host count.
    pub fn new(
        host: usize,
        transport: Box<dyn ExchangeTransport>,
        layout: &RankLayout,
    ) -> (RankHost, Vec<RankEndpoint>) {
        assert_eq!(transport.me(), host, "transport endpoint/host mismatch");
        assert_eq!(
            transport.n(),
            layout.n_hosts(),
            "transport mesh size must be the host count"
        );
        let (inboxes, receivers): (Vec<_>, Vec<_>) =
            layout.ranks_on(host).map(|_| channel::<RankNote>()).unzip();
        let shared = Arc::new(Shared {
            host,
            layout: *layout,
            inboxes,
            host_gone: Mutex::new(vec![false; layout.n_hosts()]),
        });
        let (to_pump, from_endpoints) = channel::<Outbound>();
        let endpoints: Vec<RankEndpoint> = layout
            .ranks_on(host)
            .zip(receivers)
            .map(|(rank, inbox)| RankEndpoint {
                rank,
                shared: Arc::clone(&shared),
                to_pump: to_pump.clone(),
                inbox,
            })
            .collect();
        let initial_local = endpoints.len();
        let pump =
            std::thread::spawn(move || pump_loop(transport, shared, from_endpoints, initial_local));
        (RankHost { pump: Some(pump) }, endpoints)
    }
}

impl Drop for RankHost {
    /// Joins the pump, which exits once every local endpoint retired and
    /// its queue drained — then drops the host transport, which (for
    /// TCP) joins the writer threads so final frames are flushed. Drop
    /// the host only after its rank threads finished.
    fn drop(&mut self) {
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

/// A single virtual rank's transport endpoint: implements
/// [`ExchangeTransport`] in **rank space** (`me()` = global rank, `n()`
/// = total ranks), so `run_worker` drives it exactly like a dedicated
/// socket mesh.
pub struct RankEndpoint {
    rank: usize,
    shared: Arc<Shared>,
    to_pump: Sender<Outbound>,
    inbox: Receiver<RankNote>,
}

impl RankEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Deliver `bytes` to a rank homed on this host, or the routed
    /// equivalent of `PeerGone` if its endpoint is gone.
    fn send_local(&self, to: usize, bytes: Vec<u8>) -> Result<(), TransportError> {
        self.shared
            .inbox(to)
            .send(RankNote::Frame(self.rank, bytes))
            .map_err(|_| TransportError::PeerGone(to))
    }

    fn check_remote(&self, to: usize, host: usize) -> Result<(), TransportError> {
        if self.shared.host_gone.lock().unwrap()[host] {
            return Err(TransportError::PeerGone(to));
        }
        Ok(())
    }

    fn on_note(&mut self, note: RankNote) -> Result<(usize, Vec<u8>), TransportError> {
        match note {
            RankNote::Frame(from, bytes) => Ok((from, bytes)),
            RankNote::Gone(rank) => Err(TransportError::PeerDisconnected { peer: rank }),
            RankNote::Timeout(rank) => Err(TransportError::PeerTimeout { peer: rank }),
            RankNote::AllGone => Err(TransportError::Disconnected),
        }
    }
}

impl ExchangeTransport for RankEndpoint {
    fn me(&self) -> usize {
        self.rank
    }

    fn n(&self) -> usize {
        self.shared.layout.n_ranks()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let host = self.shared.layout.host_of(to);
        if host == self.shared.host {
            return self.send_local(to, frame);
        }
        self.check_remote(to, host)?;
        self.to_pump
            .send(Outbound::Frame {
                src: self.rank,
                dst: to,
                frame,
            })
            .map_err(|_| TransportError::Disconnected)
    }

    /// Rank-space streamed send. A remote destination streams through
    /// the host link's writer (never materializing the body); a local
    /// one receives the exact wire bytes a socket would deliver, so both
    /// placements decode identically. Returns the wire length either
    /// way — byte ledgers cannot tell local from remote.
    fn send_wire(
        &mut self,
        to: usize,
        payload: Arc<Payload>,
        cfg: &WireCfg,
    ) -> Result<usize, TransportError> {
        let len = payload.wire_len(cfg);
        let host = self.shared.layout.host_of(to);
        if host == self.shared.host {
            self.send_local(to, payload.to_wire(cfg))?;
            return Ok(len);
        }
        self.check_remote(to, host)?;
        self.to_pump
            .send(Outbound::Stream {
                src: self.rank,
                dst: to,
                payload,
                cfg: *cfg,
            })
            .map_err(|_| TransportError::Disconnected)?;
        Ok(len)
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.inbox.try_recv() {
            Ok(note) => self.on_note(note).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(note) => self.on_note(note).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

impl Drop for RankEndpoint {
    /// Retire from the pump *after* every frame this endpoint queued
    /// (FIFO), so the final Done still reaches the wire before the pump
    /// counts the rank out.
    fn drop(&mut self) {
        let _ = self.to_pump.send(Outbound::Retire);
    }
}

/// Pump-local view of the host transport's state.
struct Pump {
    transport: Box<dyn ExchangeTransport>,
    shared: Arc<Shared>,
    /// Local ranks not yet retired.
    live_local: usize,
    /// Per-source-host routing state: a received [`Control::Route`]
    /// waiting for its frame (the next frame on that host link).
    pending_route: Vec<Option<(usize, usize)>>,
    /// The host transport reported `Disconnected`; stop polling it.
    transport_dead: bool,
}

impl Pump {
    /// A peer host died: demote all of its ranks in one step, once,
    /// however many of the send and receive paths report it.
    fn host_down(&mut self, host: usize) {
        if std::mem::replace(&mut self.shared.host_gone.lock().unwrap()[host], true) {
            return;
        }
        self.fan_out(host, RankNote::Gone);
    }

    /// Tell every local rank `note(r)` for each rank `r` of `host`, in
    /// rank order.
    fn fan_out(&self, host: usize, note: fn(usize) -> RankNote) {
        for tx in &self.shared.inboxes {
            for r in self.shared.layout.ranks_on(host) {
                let _ = tx.send(note(r));
            }
        }
    }

    /// The host transport is gone entirely.
    fn all_gone(&mut self) {
        self.transport_dead = true;
        for tx in &self.shared.inboxes {
            let _ = tx.send(RankNote::AllGone);
        }
    }

    /// One inbound frame from the host transport: a route marker, or the
    /// frame its marker announced.
    fn on_inbound(&mut self, from_host: usize, frame: Vec<u8>) {
        if let Some((src, dst)) = self.pending_route[from_host].take() {
            let _ = self.shared.inbox(dst).send(RankNote::Frame(src, frame));
            return;
        }
        let (layout, host) = (&self.shared.layout, self.shared.host);
        // What `decode` lets through names only ranks of this cluster; a
        // marker counts only if it routes from a rank of the sending host
        // to one of ours, as every marker a pump writes does.
        match Control::from_frame(&frame, layout.n_ranks()) {
            Ok(Control::Route { src, dst })
                if layout.host_of(src) == from_host && layout.host_of(dst) == host =>
            {
                self.pending_route[from_host] = Some((src, dst));
            }
            // Anything else without a route marker — a refused marker and
            // the frame behind it included — is a protocol anomaly on a
            // multiplexed link; drop it.
            _ => {}
        }
    }

    /// One outbound item from a local endpoint (whose destination, by
    /// construction, lives on another host).
    fn on_outbound(&mut self, item: Outbound) {
        match item {
            Outbound::Retire => self.live_local -= 1,
            Outbound::Frame { src, dst, frame } => {
                let host = self.shared.layout.host_of(dst);
                let marker = Control::Route { src, dst }.to_frame();
                if self.send_host(host, marker).is_ok() {
                    let _ = self.send_host(host, frame);
                }
            }
            Outbound::Stream {
                src,
                dst,
                payload,
                cfg,
            } => {
                let host = self.shared.layout.host_of(dst);
                let marker = Control::Route { src, dst }.to_frame();
                if self.send_host(host, marker).is_err() {
                    return;
                }
                if let Err(e) = self.transport.send_wire(host, payload, &cfg) {
                    self.on_send_err(host, e);
                }
            }
        }
    }

    fn send_host(&mut self, host: usize, frame: Vec<u8>) -> Result<(), ()> {
        self.transport
            .send_frame(host, frame)
            .map_err(|e| self.on_send_err(host, e))
    }

    fn on_send_err(&mut self, host: usize, e: TransportError) {
        match e {
            TransportError::PeerGone(_) | TransportError::PeerDisconnected { .. } => {
                self.host_down(host)
            }
            TransportError::Disconnected => self.all_gone(),
            _ => {}
        }
    }
}

/// The pump thread: alternate between draining the endpoints' outbound
/// queue into the host transport and demultiplexing inbound frames to
/// rank inboxes. Exits once every local rank retired and the queue
/// drained; dropping the transport then flushes its writers.
fn pump_loop(
    transport: Box<dyn ExchangeTransport>,
    shared: Arc<Shared>,
    from_endpoints: Receiver<Outbound>,
    initial_local: usize,
) {
    let n_hosts = transport.n();
    let mut pump = Pump {
        transport,
        shared,
        live_local: initial_local,
        pending_route: (0..n_hosts).map(|_| None).collect(),
        transport_dead: false,
    };
    loop {
        // Drain everything the endpoints queued.
        let mut worked = false;
        while let Ok(item) = from_endpoints.try_recv() {
            pump.on_outbound(item);
            worked = true;
        }
        if pump.live_local == 0 {
            break;
        }
        // Poll the host transport: briefly blocking when idle (bounding
        // outbound latency to PUMP_POLL), non-blocking when busy.
        if pump.transport_dead {
            if !worked {
                std::thread::sleep(PUMP_POLL);
            }
            continue;
        }
        let inbound = if worked {
            pump.transport.try_recv_frame()
        } else {
            pump.transport.recv_frame_timeout(PUMP_POLL)
        };
        match inbound {
            Ok(Some((from_host, frame))) => pump.on_inbound(from_host, frame),
            Ok(None) => {}
            Err(TransportError::PeerGone(h)) => pump.host_down(h),
            Err(TransportError::PeerDisconnected { peer }) => pump.host_down(peer),
            Err(TransportError::PeerTimeout { peer }) => pump.fan_out(peer, RankNote::Timeout),
            Err(TransportError::Disconnected) => pump.all_gone(),
            Err(_) => pump.all_gone(),
        }
    }
    // Dropping `pump.transport` here joins TCP writers: every routed
    // frame queued before the last Retire reaches the wire.
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_core::mem_mesh;
    use std::time::Instant;

    #[test]
    fn layout_even_splits_and_collapses_links() {
        let l = RankLayout::even(8, 4);
        assert_eq!(l.n_ranks(), 8);
        assert_eq!(l.n_hosts(), 2);
        assert_eq!(l.ranks_on(1), 4..8);
        assert_eq!(l.host_of(5), 1);
        let blocks = l.hello_blocks();
        assert_eq!(blocks[1].base, 4);
        assert_eq!(blocks[1].count, 4);
        assert_eq!(blocks[1].total, 8);
        // Remainder layout: 5 ranks over 2-per-host = 3 hosts.
        let l = RankLayout::even(5, 2);
        assert_eq!(l.n_hosts(), 3);
        assert_eq!(l.ranks_on(2), 4..5);
        assert_eq!(l.hello_blocks()[2].count, 1);

        // A ring over 4 ranks on 2 hosts: ranks 1↔2 cross hosts, so the
        // hosts hold one link; rank 0↔1 stays in-process.
        let l = RankLayout::even(4, 2);
        let mut masks = vec![vec![false; 4]; 4];
        for r in 0..4 {
            masks[r][(r + 1) % 4] = true;
            masks[(r + 1) % 4][r] = true;
        }
        let host = l.host_links(&masks);
        assert!(host[0][1] && host[1][0]);
        assert!(!host[0][0] && !host[1][1]);
    }

    /// Two hosts × two ranks over in-memory host links: local and
    /// routed frames both arrive, rank-addressed.
    #[test]
    fn frames_route_between_and_within_hosts() {
        let layout = RankLayout::even(4, 2);
        let mut mesh = mem_mesh(2).into_iter();
        let (host0, mut eps0) = RankHost::new(0, Box::new(mesh.next().unwrap()), &layout);
        let (host1, mut eps1) = RankHost::new(1, Box::new(mesh.next().unwrap()), &layout);
        assert_eq!(eps0[0].me(), 0);
        assert_eq!(eps0[1].me(), 1);
        assert_eq!(eps1[0].n(), 4);

        let p = Payload::LossShare { avg_loss: 2.5 };
        // Local: rank 0 → rank 1 (both on host 0).
        eps0[0]
            .send_wire(1, Arc::new(p.clone()), &WireCfg::default())
            .unwrap();
        let (from, frame) = eps0[1]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("local frame");
        assert_eq!(from, 0);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), p);

        // Routed: rank 3 (host 1) → rank 0 (host 0).
        eps1[1]
            .send_wire(0, Arc::new(p.clone()), &WireCfg::default())
            .unwrap();
        let (from, frame) = eps0[0]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("routed frame");
        assert_eq!(from, 3);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), p);

        // Streamed wire sends report the same byte count either way.
        let cfg = WireCfg::default();
        let big = Arc::new(p.clone());
        let local_len = eps0[0].send_wire(1, Arc::clone(&big), &cfg).unwrap();
        let routed_len = eps1[0].send_wire(1, Arc::clone(&big), &cfg).unwrap();
        assert_eq!(local_len, routed_len);
        let (_, a) = eps0[1]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        let (_, b) = eps0[1]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(a, b, "local and routed wire bytes are identical");

        drop(eps0);
        drop(eps1);
        drop(host0);
        drop(host1);
    }

    /// A route marker is checked against the static placement, not
    /// learned from: a host claiming to speak for a rank homed elsewhere
    /// has its marker and the frame behind it dropped, and that rank's
    /// traffic still goes to its real host.
    #[test]
    fn a_forged_route_marker_is_dropped_and_redirects_nothing() {
        let layout = RankLayout::even(6, 2);
        let mut mesh = mem_mesh(3).into_iter();
        let (_host0, mut eps0) = RankHost::new(0, Box::new(mesh.next().unwrap()), &layout);
        let mut host1 = mesh.next().unwrap(); // played by the test
        let (_host2, mut eps2) = RankHost::new(2, Box::new(mesh.next().unwrap()), &layout);
        let frame = |tag: f64| Payload::LossShare { avg_loss: tag }.to_wire(&WireCfg::default());
        let marker = |src, dst| Control::Route { src, dst }.to_frame();
        // Host 1 forges rank 0 (host 0's), then routes for its own rank 2.
        host1.send_frame(2, marker(0, 4)).unwrap();
        host1.send_frame(2, frame(1.0)).unwrap();
        host1.send_frame(2, marker(2, 4)).unwrap();
        host1.send_frame(2, frame(2.0)).unwrap();
        let got = eps2[0]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("the routed frame");
        assert_eq!(got, (2, frame(2.0)), "the forged frame was delivered");
        assert!(matches!(eps2[0].try_recv_frame(), Ok(None)));
        // Rank 4's reply to rank 0 reaches it on host 0.
        eps2[0].send_frame(0, frame(3.0)).unwrap();
        let got = eps0[0]
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("the reply");
        assert_eq!(got, (4, frame(3.0)));
    }

    /// A host drop demotes ALL of its virtual ranks in one step: each
    /// rank surfaces `PeerDisconnected` to the local drivers, and further
    /// sends to any of the dead ranks fail fast with `PeerGone`. (Mem
    /// links report a dead peer on send, so a probe send triggers
    /// detection; the TCP EOF path is covered in `tests/virtual_ranks.rs`.)
    #[test]
    fn host_drop_demotes_all_ranks_in_one_step() {
        let layout = RankLayout::even(6, 2);
        let mut mesh = mem_mesh(3).into_iter();
        let (_host0, mut eps0) = RankHost::new(0, Box::new(mesh.next().unwrap()), &layout);
        let (_host1, _eps1) = RankHost::new(1, Box::new(mesh.next().unwrap()), &layout);
        let (host2, eps2) = RankHost::new(2, Box::new(mesh.next().unwrap()), &layout);

        // Kill host 2 whole: its endpoints and its pump go away.
        drop(eps2);
        drop(host2);

        // A probe send to one of its ranks makes host 0's pump hit the
        // dead link; every rank of host 2 is demoted at once.
        let p = Payload::LossShare { avg_loss: 1.0 };
        eps0[0]
            .send_wire(4, Arc::new(p.clone()), &WireCfg::default())
            .unwrap();
        let mut gone = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while gone.len() < 2 {
            assert!(Instant::now() < deadline, "gone notes never arrived");
            if let Err(TransportError::PeerDisconnected { peer }) =
                eps0[0].recv_frame_timeout(Duration::from_millis(50))
            {
                gone.push(peer);
            }
        }
        assert_eq!(gone, vec![4, 5]);
        // Sends to either dead rank now fail fast at the endpoint.
        assert!(matches!(
            eps0[0].send_frame(5, Control::Done.to_frame()),
            Err(TransportError::PeerGone(5))
        ));
    }
}
