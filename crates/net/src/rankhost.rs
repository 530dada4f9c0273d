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
//! ## Liveness and churn
//!
//! Host-level failures fan out to rank space: when the host transport
//! reports a peer *host* gone (EOF, I/O error, send to a dead link),
//! the pump demotes **all** of that host's ranks in one step — one
//! churn-ledger entry per host drop, one `PeerDisconnected` per rank
//! surfaced to each local driver. Rank-to-host placement is tracked in
//! a `rank_map` seeded from the static layout and updated
//! *learn-by-source*: every routed frame teaches the receiving host
//! where its source rank currently lives, which is what lets a rank
//! **migrate** between hosts mid-run ([`RankEndpoint::arm_rehome`])
//! with no coordination protocol beyond the existing leave/rejoin +
//! DKT-pull machinery — the rank re-homes at the moment it sends its
//! `Payload::Leave`, and its late rejoin Hello (routed from the new host)
//! teaches every peer the new placement.
//!
//! Route markers are transport-internal overhead: they appear in no
//! byte ledger (the driver never sees them), exactly like TCP/IP
//! headers don't appear in the simulator's cost model.

use crate::control::{Control, RankHello};
use dlion_core::messages::{Payload, WireCfg};
use dlion_core::{ExchangeTransport, TransportError};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the pump blocks on the host transport per cycle when idle.
/// Bounds the latency of an outbound send sitting in the pump queue.
const PUMP_POLL: Duration = Duration::from_millis(1);

/// Static rank→host placement for a virtual-rank cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankLayout {
    /// `host_of[rank]` = the host (OS process / transport endpoint) the
    /// rank starts on.
    pub host_of: Vec<usize>,
}

impl RankLayout {
    /// The standard layout for `--virtual R`: ranks `[h·R, (h+1)·R)` on
    /// host `h`, the last host taking the remainder.
    pub fn even(n_ranks: usize, ranks_per_host: usize) -> RankLayout {
        assert!(ranks_per_host > 0, "need at least one rank per host");
        RankLayout {
            host_of: (0..n_ranks).map(|r| r / ranks_per_host).collect(),
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.host_of.len()
    }

    pub fn n_hosts(&self) -> usize {
        self.host_of.iter().map(|&h| h + 1).max().unwrap_or(0)
    }

    /// The ranks homed on `host`, ascending.
    pub fn ranks_on(&self, host: usize) -> Vec<usize> {
        (0..self.n_ranks())
            .filter(|&r| self.host_of[r] == host)
            .collect()
    }

    /// The per-host Hello rank blocks. Each host's ranks must be one
    /// contiguous run (true for [`RankLayout::even`]; migration changes
    /// placement only *after* establishment).
    pub fn hello_blocks(&self) -> Vec<RankHello> {
        let total = self.n_ranks() as u32;
        (0..self.n_hosts())
            .map(|h| {
                let ranks = self.ranks_on(h);
                assert!(!ranks.is_empty(), "host {h} owns no ranks");
                let (base, count) = (ranks[0], ranks.len());
                assert_eq!(
                    ranks[count - 1] - base + 1,
                    count,
                    "host {h}'s rank block is not contiguous"
                );
                RankHello {
                    base: base as u32,
                    count: count as u32,
                    total,
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
                let (a, b) = (self.host_of[i], self.host_of[j]);
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
    /// A local rank is done with the transport (endpoint dropped or
    /// migrated away). Queued after the endpoint's final frames, so the
    /// pump flushes those first.
    Retire,
    /// A migrated rank now calls this host home.
    Register(usize),
}

/// Host-level state shared between the pump, the local endpoints and the
/// owning [`RankHost`].
struct Shared {
    /// This host's id in the host-level mesh.
    host: usize,
    /// rank → host placement; seeded from the static layout, updated by
    /// the pump learn-by-source and by migration registration.
    rank_map: Mutex<Vec<usize>>,
    /// rank → local inbox sender, for ranks currently homed here. The
    /// source of truth for "is this rank local".
    switchboard: Mutex<Vec<Option<Sender<RankNote>>>>,
    /// Host-level liveness: endpoints consult this so sends to a dead
    /// host fail fast with `PeerGone` (the trait contract).
    host_gone: Mutex<Vec<bool>>,
    /// The churn ledger: one entry per observed host drop, carrying the
    /// virtual ranks demoted by it. Test-visible via
    /// [`RankHost::churn_ledger`].
    ledger: Mutex<Vec<(usize, Vec<usize>)>>,
}

/// Handles a migrating endpoint needs to re-home onto another host (all
/// cheaply clonable; see [`RankEndpoint::arm_rehome`]).
#[derive(Clone)]
pub struct RankHostHandle {
    shared: Arc<Shared>,
    to_pump: Sender<Outbound>,
}

/// One process's multiplexer: owns the host transport (through its pump
/// thread) and the shared routing state for every rank homed here.
pub struct RankHost {
    shared: Arc<Shared>,
    to_pump: Option<Sender<Outbound>>,
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
        let n_ranks = layout.n_ranks();
        let shared = Arc::new(Shared {
            host,
            rank_map: Mutex::new(layout.host_of.clone()),
            switchboard: Mutex::new((0..n_ranks).map(|_| None).collect()),
            host_gone: Mutex::new(vec![false; layout.n_hosts()]),
            ledger: Mutex::new(Vec::new()),
        });
        let (to_pump, from_endpoints) = channel::<Outbound>();
        let local = layout.ranks_on(host);
        let endpoints: Vec<RankEndpoint> = {
            let mut board = shared.switchboard.lock().unwrap();
            local
                .iter()
                .map(|&rank| {
                    let (tx, rx) = channel::<RankNote>();
                    board[rank] = Some(tx.clone());
                    RankEndpoint {
                        rank,
                        n_ranks,
                        shared: Arc::clone(&shared),
                        to_pump: to_pump.clone(),
                        inbox: rx,
                        inbox_tx: tx,
                        rehome: None,
                    }
                })
                .collect()
        };
        let pump_shared = Arc::clone(&shared);
        let initial_local = endpoints.len();
        let pump = std::thread::spawn(move || {
            pump_loop(transport, pump_shared, from_endpoints, initial_local)
        });
        (
            RankHost {
                shared,
                to_pump: Some(to_pump),
                pump: Some(pump),
            },
            endpoints,
        )
    }

    /// Clonable handles for migrating a rank *onto* this host.
    pub fn handle(&self) -> RankHostHandle {
        RankHostHandle {
            shared: Arc::clone(&self.shared),
            to_pump: self.to_pump.clone().expect("host not shut down"),
        }
    }

    /// Snapshot of the churn ledger: one `(host, ranks)` entry per host
    /// drop the pump observed, in observation order.
    pub fn churn_ledger(&self) -> Vec<(usize, Vec<usize>)> {
        self.shared.ledger.lock().unwrap().clone()
    }
}

impl Drop for RankHost {
    /// Joins the pump, which exits once every local endpoint retired and
    /// its queue drained — then drops the host transport, which (for
    /// TCP) joins the writer threads so final frames are flushed. Drop
    /// the host only after its rank threads finished.
    fn drop(&mut self) {
        drop(self.to_pump.take());
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
    n_ranks: usize,
    shared: Arc<Shared>,
    to_pump: Sender<Outbound>,
    inbox: Receiver<RankNote>,
    /// Kept to re-register in a new host's switchboard on migration.
    inbox_tx: Sender<RankNote>,
    /// Armed migration target: the endpoint re-homes the moment it
    /// sends its first `Payload::Leave` (the driver's departure
    /// announcement), so the subsequent rejoin Hello already flows from
    /// the new host.
    rehome: Option<RankHostHandle>,
}

impl RankEndpoint {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Arm a mid-run migration: when this rank departs (sends its
    /// `Payload::Leave`), it deregisters from its current host and re-homes
    /// onto `target` — its rejoin then reuses the ordinary late-Hello +
    /// catch-up + DKT-pull machinery, and peers learn the new placement
    /// from the routed frames' source addresses.
    pub fn arm_rehome(&mut self, target: RankHostHandle) {
        assert!(
            !Arc::ptr_eq(&target.shared, &self.shared),
            "migration target is the rank's current host"
        );
        self.rehome = Some(target);
    }

    /// The home of rank `to` right now.
    fn host_of(&self, to: usize) -> usize {
        self.shared.rank_map.lock().unwrap()[to]
    }

    /// If a migration is armed and this outbound payload is the rank's
    /// departure announcement, move to the target host *first* — Leave
    /// and everything after it flow from there.
    fn maybe_rehome(&mut self, payload: &Payload) {
        if !matches!(payload, Payload::Leave { .. }) {
            return;
        }
        let Some(target) = self.rehome.take() else {
            return;
        };
        // Deregister here: local siblings' sends now fail PeerGone, the
        // old pump no longer counts us. Point the old host's map at the
        // new home so its pump forwards late frames for us over the wire
        // instead of dropping them into the cleared slot.
        self.shared.switchboard.lock().unwrap()[self.rank] = None;
        self.shared.rank_map.lock().unwrap()[self.rank] = target.shared.host;
        let _ = self.to_pump.send(Outbound::Retire);
        // Register there (Register also points the new host's rank_map
        // at itself before any frame of ours reaches its pump).
        target.shared.switchboard.lock().unwrap()[self.rank] = Some(self.inbox_tx.clone());
        let _ = target.to_pump.send(Outbound::Register(self.rank));
        self.shared = target.shared;
        self.to_pump = target.to_pump;
    }

    /// Deliver `bytes` to a rank homed on this host, or the routed
    /// equivalent of `PeerGone` if it is not actually present.
    fn send_local(&self, to: usize, bytes: Vec<u8>) -> Result<(), TransportError> {
        let tx = self.shared.switchboard.lock().unwrap()[to].clone();
        match tx {
            Some(tx) => tx
                .send(RankNote::Frame(self.rank, bytes))
                .map_err(|_| TransportError::PeerGone(to)),
            None => Err(TransportError::PeerGone(to)),
        }
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
        self.n_ranks
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let host = self.host_of(to);
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
        self.maybe_rehome(&payload);
        let len = payload.wire_len(cfg);
        let host = self.host_of(to);
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
        let mut board = self.shared.switchboard.lock().unwrap();
        // Only clear the slot if it is still ours (a later migration of
        // the same rank id back in would have replaced it).
        if board[self.rank].is_some() {
            board[self.rank] = None;
        }
        drop(board);
        let _ = self.to_pump.send(Outbound::Retire);
    }
}

/// Pump-local view of the host transport's state.
struct Pump {
    transport: Box<dyn ExchangeTransport>,
    shared: Arc<Shared>,
    /// The cluster's rank count: what inbound rank ids are checked against.
    n_ranks: usize,
    /// Ranks currently homed here and not yet retired.
    live_local: usize,
    /// Per-source-host routing state: a received [`Control::Route`]
    /// waiting for its frame (the next frame on that host link).
    pending_route: Vec<Option<(usize, usize)>>,
    /// Host drops already fanned out (dedup across send-path and
    /// recv-path detection).
    host_down: Vec<bool>,
    /// The host transport reported `Disconnected`; stop polling it.
    transport_dead: bool,
}

impl Pump {
    /// Every local inbox sender, snapshot outside the lock.
    fn local_inboxes(&self) -> Vec<Sender<RankNote>> {
        self.shared
            .switchboard
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// A peer host died: demote all of its ranks in one step — one
    /// ledger entry, one `Gone` per (local endpoint × dead rank).
    fn host_down(&mut self, host: usize) {
        if host >= self.host_down.len() || self.host_down[host] {
            return;
        }
        self.host_down[host] = true;
        self.shared.host_gone.lock().unwrap()[host] = true;
        let ranks: Vec<usize> = {
            let map = self.shared.rank_map.lock().unwrap();
            (0..map.len()).filter(|&r| map[r] == host).collect()
        };
        self.shared
            .ledger
            .lock()
            .unwrap()
            .push((host, ranks.clone()));
        for tx in self.local_inboxes() {
            for &r in &ranks {
                let _ = tx.send(RankNote::Gone(r));
            }
        }
    }

    /// A peer host went silent past the transport's peer timeout: fan
    /// the alarm out to rank space.
    fn host_timeout(&mut self, host: usize) {
        let ranks: Vec<usize> = {
            let map = self.shared.rank_map.lock().unwrap();
            (0..map.len()).filter(|&r| map[r] == host).collect()
        };
        for tx in self.local_inboxes() {
            for &r in &ranks {
                let _ = tx.send(RankNote::Timeout(r));
            }
        }
    }

    /// The host transport is gone entirely.
    fn all_gone(&mut self) {
        self.transport_dead = true;
        for tx in self.local_inboxes() {
            let _ = tx.send(RankNote::AllGone);
        }
    }

    /// Whether `rank` has a live inbox on this host right now.
    fn is_local(&self, rank: usize) -> bool {
        self.shared.switchboard.lock().unwrap()[rank].is_some()
    }

    /// Hand an inbound routed frame to its destination rank (drop it if
    /// the rank is not, or no longer, local — equivalent to a frame for
    /// a departed worker).
    fn deliver(&mut self, from_host: usize, src: usize, dst: usize, frame: Vec<u8>) {
        // Learn-by-source: the frame proves where `src` lives now —
        // unless `src` is registered on THIS host. A live local inbox is
        // ground truth; a wire frame contradicting it is a stale
        // pre-migration straggler (the rank's last frames from its old
        // home, still in flight), and for the rank's own host-mates no
        // later frame would ever re-correct the map.
        if !self.is_local(src) {
            self.shared.rank_map.lock().unwrap()[src] = from_host;
        }
        let tx = self.shared.switchboard.lock().unwrap()[dst].clone();
        if let Some(tx) = tx {
            let _ = tx.send(RankNote::Frame(src, frame));
        }
    }

    /// One inbound frame from the host transport.
    fn on_inbound(&mut self, from_host: usize, frame: Vec<u8>) {
        // A host that speaks is alive again (reconnect path).
        if from_host < self.host_down.len() && self.host_down[from_host] {
            self.host_down[from_host] = false;
            self.shared.host_gone.lock().unwrap()[from_host] = false;
        }
        if let Some(route) = self.pending_route[from_host].take() {
            let (src, dst) = route;
            self.deliver(from_host, src, dst, frame);
            return;
        }
        // What `decode` lets through names only ranks of this cluster.
        match Control::from_frame(&frame, self.n_ranks) {
            Ok(Control::Route { src, dst }) => {
                self.pending_route[from_host] = Some((src, dst));
            }
            Ok(Control::Hello { ranks: block, .. }) => {
                // Host-level (re)join: the acceptor checked the block
                // against the layout already; the ranks it announces live
                // there now. Ranks registered locally are exempt — the
                // static block predates any migration onto this host.
                // Not forwarded: rank-level rejoin hellos travel routed.
                for r in block.base..block.base + block.count {
                    let r = r as usize;
                    if !self.is_local(r) {
                        self.shared.rank_map.lock().unwrap()[r] = from_host;
                    }
                }
            }
            // Anything else without a route marker — a refused marker's
            // frame included — is a protocol anomaly on a multiplexed
            // link; drop it.
            _ => {}
        }
    }

    /// One outbound item from a local endpoint.
    fn on_outbound(&mut self, item: Outbound) {
        match item {
            Outbound::Retire => {
                self.live_local = self.live_local.saturating_sub(1);
            }
            Outbound::Register(rank) => {
                self.live_local += 1;
                self.shared.rank_map.lock().unwrap()[rank] = self.shared.host;
            }
            Outbound::Frame { src, dst, frame } => {
                let host = self.shared.rank_map.lock().unwrap()[dst];
                if host == self.shared.host {
                    // The destination migrated in between the endpoint's
                    // check and ours: deliver locally.
                    self.deliver(self.shared.host, src, dst, frame);
                    return;
                }
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
                let host = self.shared.rank_map.lock().unwrap()[dst];
                if host == self.shared.host {
                    self.deliver(self.shared.host, src, dst, payload.to_wire(&cfg));
                    return;
                }
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
    let n_ranks = shared.rank_map.lock().unwrap().len();
    let mut pump = Pump {
        transport,
        shared,
        n_ranks,
        live_local: initial_local,
        pending_route: (0..n_hosts).map(|_| None).collect(),
        host_down: vec![false; n_hosts],
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
            Err(TransportError::PeerTimeout { peer }) => pump.host_timeout(peer),
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
        assert_eq!(l.ranks_on(1), vec![4, 5, 6, 7]);
        let blocks = l.hello_blocks();
        assert_eq!(blocks[1].base, 4);
        assert_eq!(blocks[1].count, 4);
        assert_eq!(blocks[1].total, 8);
        // Remainder layout: 5 ranks over 2-per-host = 3 hosts.
        let l = RankLayout::even(5, 2);
        assert_eq!(l.n_hosts(), 3);
        assert_eq!(l.ranks_on(2), vec![4]);

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

    /// A host drop demotes ALL of its virtual ranks in one step: each
    /// rank surfaces `PeerDisconnected` to the local drivers, the churn
    /// ledger records ONE `(host, ranks)` entry (not one per rank), and
    /// further sends to any of the dead ranks fail fast with `PeerGone`.
    /// (Mem links report a dead peer on send, so a probe send triggers
    /// detection; the TCP EOF path is covered in `tests/virtual_ranks.rs`.)
    #[test]
    fn host_drop_demotes_all_ranks_in_one_ledger_entry() {
        let layout = RankLayout::even(6, 2);
        let mut mesh = mem_mesh(3).into_iter();
        let (host0, mut eps0) = RankHost::new(0, Box::new(mesh.next().unwrap()), &layout);
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
        gone.sort_unstable();
        assert_eq!(gone, vec![4, 5]);
        // One ledger entry for the whole host, naming both ranks.
        let ledger = host0.churn_ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].0, 2);
        assert_eq!(ledger[0].1, vec![4, 5]);
        // Sends to either dead rank now fail fast at the endpoint.
        assert!(matches!(
            eps0[0].send_frame(5, Control::Done.to_frame()),
            Err(TransportError::PeerGone(5))
        ));
    }
}
