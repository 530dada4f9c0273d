//! [`TcpTransport`]: the real-socket implementation of
//! [`dlion_core::ExchangeTransport`], one endpoint per rank.
//!
//! ## Mesh establishment
//!
//! The mesh is one of *hosts*. Host `i` **dials** every peer `j < i` and
//! **accepts** from every `j > i` (so each of the `n·(n-1)/2` links is
//! created exactly once). The dialer's first frame is a
//! [`Control::Hello`] carrying its id, the host count, the run seed and
//! the rank block it speaks for; the acceptor validates all four, which
//! catches two clusters sharing a port range or hosts launched with
//! mismatched configs. Addresses come in as a `&[SocketAddr]` peer list —
//! the transport is host-agnostic; only [`loopback_addrs`] and
//! [`loopback_mesh`] know about `127.0.0.1`.
//!
//! There is **one accept path**, and it lives only through establishment:
//! the acceptor thread starts *before* the first dial, blocks in
//! `accept()`, and returns — closing the listener — once the last
//! expected higher-numbered peer is wired (a host that expects none
//! spawns none). Establishment waits for those peers to join through it
//! (their Hellos are consumed, not surfaced), so a peer that dials early
//! is wired at once instead of sitting in the listen backlog, and a Hello
//! is validated in exactly one function, `accept_hello`. A bad Hello fails
//! establishment with [`LiveError::Protocol`]; a connection from a peer
//! that is not expected is dropped. After establishment the host accepts
//! nothing, and the driver refuses a Hello arriving over an established
//! link: a rank that left the run stays gone.
//!
//! ## Rank space
//!
//! A host carries one rank (a *flat* mesh, [`TcpOpts::ranks`] `None`: host
//! `h` is rank `h`) or the block of ranks its Hello announces (a *ranked*
//! mesh, DESIGN.md §4j). [`TcpTransport::establish_linked`] returns one
//! endpoint per rank the host carries, and every endpoint speaks rank
//! space: `me()` is its rank, `n()` the cluster's rank count. The
//! endpoints of one host share its links and its placement — the Hello
//! blocks, checked, never learned from:
//!
//! * a send to a host-mate pushes the exact wire bytes a socket would
//!   carry into that rank's inbox, so local and remote peers decode
//!   byte-identical streams;
//! * a send to another host is **one job** on its link, written whole
//!   under the link's lock. On a ranked mesh a [`Control::Route`] marker
//!   goes out in the same write as the frame, so a marker takes no queue
//!   slot of its own, and because one write at a time feeds one socket
//!   feeds one reader, nothing can come between the two;
//! * a link's **reader** takes a marker only if its `src` lives on the
//!   sending host and its `dst` here. Any other marker is dropped, and so
//!   is the frame behind it (it is no marker either). The frame behind a
//!   taken marker goes to `dst`'s inbox, tagged `src`; if that rank's
//!   endpoint is gone it is dropped, and the reader goes on serving the
//!   rank's host-mates.
//!
//! Markers are transport overhead: they appear in no byte ledger (the
//! driver never sees them), as TCP/IP headers appear in no simulated cost.
//!
//! ## Threads per link
//!
//! Each established host link gets:
//!
//! * a **writer thread** for what a sending rank does not write itself.
//!   A plain frame (a body of at most one chunk, as control frames and
//!   Max N gradients are) is written by its sender, in one `write`,
//!   whenever nothing on the link is queued or being written. Chunked streams, and whatever a sender finds queued ahead
//!   of it, go through a bounded `sync_channel` the writer drains into
//!   the socket — the channel bound is the backpressure limit: ranks
//!   producing gradients faster than a link drains them block in
//!   `send_frame` once `queue_cap` jobs are queued;
//! * a **reader thread** that reassembles length-prefixed frames
//!   (header-validated, so a corrupt length field can never cause an
//!   unbounded allocation) and routes them into the rank inboxes.
//!
//! Per-peer FIFO — the trait's ordering contract — holds because the
//! link counts a job in before it is queued or written and out only
//! after its bytes are on the socket: a sender writes itself only at a
//! count of 0, when nothing is left to overtake, and one write at a time
//! feeds one TCP stream feeds one reader. Both paths write through
//! `Link::put` and its one socket write, `Wire::write`; a link shaper
//! belongs there.
//!
//! ## Per-peer liveness
//!
//! When a reader hits EOF or an I/O error it marks the link dead (later
//! sends to any rank of that host fail with `PeerGone`) and pushes one
//! *gone* note per rank of the dead host, in rank order, into every inbox
//! here; the receive methods surface each once as
//! [`TransportError::PeerDisconnected`] — strictly after every frame the
//! host managed to send, because notes travel through the same FIFO
//! inbox. [`TcpOpts::peer_timeout`] additionally arms a per-host silence
//! alarm: every endpoint surfaces each rank of a host silent past it as
//! [`TransportError::PeerTimeout`], once per silence.
//!
//! ## Teardown
//!
//! Dropping a host's last endpoint closes all send queues and joins the
//! writers so queued frames (a rank's final Done, most importantly) are
//! flushed even if the owner exits immediately after. Readers exit on
//! EOF/error and are detached.

use crate::control::{Control, RankHello};
use crate::LiveError;
use dlion_core::clock::{Clock, SystemClock};
use dlion_core::messages::{
    chunk_checksum, decode_frame_header, verify_chunked_header, Payload, WireCfg,
    CHUNK_HEADER_BYTES, DEFAULT_CHUNK_BYTES, FRAME_HEADER_BYTES, MAX_FRAME_BODY_BYTES,
};
use dlion_core::transport::LinkHealth;
use dlion_core::{ExchangeTransport, TransportError};
use dlion_telemetry::Histogram;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Transport tuning knobs (everything beyond the address list).
#[derive(Clone, Debug)]
pub struct TcpOpts {
    /// Per-link send queue capacity, in jobs (backpressure bound).
    pub queue_cap: usize,
    /// How long mesh establishment may wait for peers to appear.
    pub establish_timeout: Duration,
    /// Surface [`TransportError::PeerTimeout`] when a connected host has
    /// sent nothing for this long (`None` = never).
    pub peer_timeout: Option<Duration>,
    /// Time source for the peer-silence watchdog. Establishment and
    /// socket I/O keep real deadlines (they block on real kernels), but
    /// the silence alarm compares against this clock so tests can fire a
    /// timeout without actually sleeping through it.
    pub clock: Arc<dyn Clock>,
    /// Record per-link frame-lifecycle latency (enqueue→writer-pickup,
    /// serialize+socket write, body read) and send-queue depth, surfaced
    /// through [`ExchangeTransport::link_health`]. Off by default: a
    /// traced live run turns it on (`LiveCluster::tcp_opts`). A flat mesh's
    /// links are its ranks' own; a ranked mesh's are shared by many rank
    /// pairs, and its endpoints report none.
    pub instrument: bool,
    /// Virtual-rank layout: each host's rank block, by host id, ascending
    /// and consecutive (`None` = flat: every host is its own rank,
    /// [`RankHello::flat`]). Every Hello carries its sender's block and
    /// must match the receiver's row for that sender — a host that
    /// disagrees on the rank layout is rejected exactly like one that
    /// disagrees on `n` or the seed.
    pub ranks: Option<Arc<Vec<RankHello>>>,
}

impl Default for TcpOpts {
    fn default() -> Self {
        TcpOpts {
            queue_cap: 64,
            establish_timeout: Duration::from_secs(60),
            peer_timeout: None,
            clock: Arc::new(SystemClock::new()),
            instrument: false,
            ranks: None,
        }
    }
}

/// Read one full wire stream (plain frame or chunked); `Ok(None)` on clean
/// EOF at a frame boundary. The second return is the time spent reading
/// the *body* (header completion → frame completion) — the transfer
/// portion of the frame lifecycle, excluding however long the reader
/// blocked waiting for the header to appear. The header is validated
/// *before* any body byte is read, so `body_len` is bounded by the
/// codec's `MAX_FRAME_BODY_BYTES`.
///
/// Chunked streams are verified **incrementally**: each chunk's
/// index-seeded checksum is checked the moment its bytes arrive, so a
/// corrupted or reordered chunk aborts the read mid-transfer
/// (`InvalidData` → the reader kills the link → the driver sees the peer
/// as gone) without waiting for — or buffering toward — the rest of a
/// 5 MB body. The returned buffer is the complete raw stream, chunk
/// headers included; receivers decode it with `decode_wire`, which
/// re-verifies end-to-end, so in-memory and TCP transports deliver
/// byte-identical streams to the driver.
///
/// The buffer is sized once and written once: a plain frame's is reserved
/// for header and body before the header is copied in, a chunked stream's
/// for the whole stream when the first chunk header says how many chunk
/// headers a body of `body_len` carries ([`stream_capacity`]), and the
/// socket's bytes land in its spare capacity ([`read_body`]) — no
/// zero-fill ahead of the read, no reallocation at the last chunk.
fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<(Vec<u8>, Duration)>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let t0 = Instant::now();
    let bad = |msg: String| std::io::Error::new(ErrorKind::InvalidData, msg);
    let h = decode_frame_header(&header).map_err(|e| bad(format!("bad header: {e}")))?;
    if !h.is_chunked() {
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + h.body_len);
        frame.extend_from_slice(&header);
        read_body(stream, &mut frame, h.body_len)?;
        return Ok(Some((frame, t0.elapsed())));
    }
    verify_chunked_header(&header, h.checksum).map_err(|e| bad(format!("bad header: {e}")))?;
    let mut frame = Vec::new();
    let mut received = 0usize;
    let mut index = 0u64;
    while received < h.body_len {
        let mut chead = [0u8; CHUNK_HEADER_BYTES];
        stream.read_exact(&mut chead)?;
        let chunk_len = u32::from_le_bytes(chead[0..4].try_into().unwrap()) as usize;
        let chunk_sum = u64::from_le_bytes(chead[4..12].try_into().unwrap());
        if chunk_len == 0 || received + chunk_len > h.body_len {
            return Err(bad(format!(
                "chunk {index} of {chunk_len} bytes overruns body ({received}/{})",
                h.body_len
            )));
        }
        if index == 0 {
            frame.reserve_exact(FRAME_HEADER_BYTES + stream_capacity(h.body_len, chunk_len));
            frame.extend_from_slice(&header);
        }
        frame.extend_from_slice(&chead);
        let start = frame.len();
        read_body(stream, &mut frame, chunk_len)?;
        if chunk_checksum(index, &frame[start..]) != chunk_sum {
            return Err(bad(format!("chunk {index} checksum mismatch")));
        }
        received += chunk_len;
        index += 1;
    }
    if index == 0 {
        // A chunked header announcing an empty body: no chunk follows.
        frame.extend_from_slice(&header);
    }
    Ok(Some((frame, t0.elapsed())))
}

/// Most chunk headers a stream is reserved for up front: as many as the
/// largest body carries in default-size chunks.
const MAX_RESERVED_CHUNKS: usize = MAX_FRAME_BODY_BYTES.div_ceil(DEFAULT_CHUNK_BYTES);

/// What a chunked stream whose body is `body_len` bytes and whose first
/// chunk is `first_chunk` bytes reserves beyond its frame header. Every
/// chunk but the last is as long as the first, so the count is exact for
/// an honest sender; it is capped so that a crafted 1-byte first chunk
/// cannot reserve twelve header bytes per body byte. A stream of more,
/// smaller chunks (or of later chunks shorter than the first) grows the
/// buffer instead.
fn stream_capacity(body_len: usize, first_chunk: usize) -> usize {
    let chunks = body_len.div_ceil(first_chunk).min(MAX_RESERVED_CHUNKS);
    body_len + chunks * CHUNK_HEADER_BYTES
}

/// Append exactly `len` bytes from `stream` to `frame`, straight into its
/// spare capacity (`read_exact` would need the bytes zero-filled first).
fn read_body(stream: &mut impl Read, frame: &mut Vec<u8>, len: usize) -> std::io::Result<()> {
    let got = stream.take(len as u64).read_to_end(frame)?;
    if got < len {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// How long an accepted connection may take to produce its Hello (the
/// dialer writes it right after `connect`).
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// What every host of one mesh agrees on (plus which host this is):
/// announced in our Hello, checked against each received one, and the
/// rank placement every send and every route marker is checked against.
struct Shape {
    me: usize,
    n: usize,
    seed: u64,
    ranks: Option<Arc<Vec<RankHello>>>,
}

impl Shape {
    /// The ranks host `h` speaks for: its row of the layout, or on a flat
    /// mesh the identity block.
    fn block(&self, h: usize) -> RankHello {
        match &self.ranks {
            Some(layout) => layout[h],
            None => RankHello::flat(h, self.n),
        }
    }

    fn ranks_of(&self, h: usize) -> Range<usize> {
        let b = self.block(h);
        b.base as usize..b.base as usize + b.count as usize
    }

    /// The cluster's rank count.
    fn total(&self) -> usize {
        self.block(self.me).total as usize
    }

    /// The host `rank` lives on: the one whose block holds it (`n` for a
    /// rank of no host).
    fn host_of(&self, rank: usize) -> usize {
        match &self.ranks {
            Some(layout) => layout.partition_point(|b| b.base as usize + b.count as usize <= rank),
            None => rank,
        }
    }

    /// The Hello host `id` of this mesh announces.
    fn hello(&self, id: usize) -> Control {
        Control::Hello {
            id,
            n: self.n,
            seed: self.seed,
            ranks: self.block(id),
        }
    }
}

/// The one place a Hello is read and validated: the first frame on an
/// accepted connection must be a Hello from another host of *this*
/// mesh — same size, seed and rank layout. Returns the peer's id.
fn accept_hello(stream: &mut TcpStream, shape: &Shape) -> Result<usize, LiveError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let (frame, _) = read_frame(stream)?
        .ok_or_else(|| LiveError::Protocol("peer closed before hello".into()))?;
    let got = Control::from_frame(&frame, shape.total())?;
    let Control::Hello { id, n, .. } = got else {
        return Err(LiveError::Protocol(format!(
            "expected a hello, got {got:?}"
        )));
    };
    // Whoever dials in must announce exactly what that host of this mesh
    // would: same size, seed and rank block.
    let expected = (id != shape.me && n == shape.n).then(|| shape.hello(id));
    if expected != Some(got) {
        return Err(LiveError::Protocol(format!(
            "{got:?} is not from this mesh (expected {expected:?})"
        )));
    }
    stream.set_read_timeout(None)?;
    Ok(id)
}

/// What lands in a rank's inbox. Liveness notes ride the same FIFO
/// channel as frames, so a *gone* note can never overtake the frames the
/// host sent before dying.
enum Note {
    /// A frame from a rank.
    Frame(usize, Vec<u8>),
    /// The rank's host link closed (its reader saw EOF or an I/O error).
    Gone(usize),
    /// The rank's host has been silent past the peer timeout.
    Silent(usize),
}

/// One unit of work for a host link: a body, and on a ranked mesh the
/// `(src, dst)` ranks of the route marker that goes out in the same write.
/// A queued job carries its enqueue instant; when instrumentation is on,
/// the writer turns it into the link's queue-wait sample.
struct Job {
    route: Option<(usize, usize)>,
    body: Body,
    at: Instant,
}

/// Control frames travel pre-encoded; payloads travel as `Arc<Payload>`
/// and are encoded by whoever writes them — a large one *streamed*,
/// serialized chunk-by-chunk into the link's reusable scratch buffer, so
/// chunk *k+1* is being encoded while chunk *k* is in the kernel's socket
/// buffer, and the full body never exists as one materialized `Vec<u8>`.
enum Body {
    Frame(Vec<u8>),
    Stream(Arc<Payload>, WireCfg),
}

impl Body {
    /// Whether this is one plain frame (a body of at most one chunk),
    /// which a sending rank may write itself; a chunked stream is the
    /// writer thread's.
    fn is_plain(&self) -> bool {
        match self {
            Body::Frame(frame) => frame.len() <= FRAME_HEADER_BYTES + DEFAULT_CHUNK_BYTES,
            Body::Stream(payload, cfg) => !payload.wire_is_chunked(cfg),
        }
    }
}

/// The sending half of one host link, shared by the host's endpoints and
/// the link's writer thread.
struct Link {
    /// The socket's write half. Whoever holds the lock writes one whole
    /// job: the writer thread, or a sending rank writing a plain frame
    /// itself.
    wire: Mutex<Wire>,
    /// Jobs on this link queued for the writer or being written. A job
    /// is counted in before it is queued or written and out only after
    /// its bytes are on the socket, so a sender that finds the count at 0
    /// has nothing on the link to overtake: per-pair FIFO (the trait
    /// contract) holds across the two paths.
    jobs: AtomicUsize,
}

impl Link {
    /// Write one counted job (counted in at `at`) under the link's lock,
    /// then count it out — only now that its bytes are on the socket —
    /// and record its stats.
    fn put(
        &self,
        route: Option<(usize, usize)>,
        body: &Body,
        at: Instant,
        stats: Option<&LinkStats>,
    ) -> std::io::Result<()> {
        let mut wire = self.wire.lock().unwrap();
        let picked = Instant::now();
        let written = wire.write(route, body);
        drop(wire);
        self.jobs.fetch_sub(1, Ordering::Release);
        if let Some(stats) = stats {
            stats.wrote(picked - at, picked.elapsed());
        }
        written
    }
}

/// A link's socket and the buffers its writes reuse.
struct Wire {
    socket: Marked,
    /// Encoding scratch, one chunk and a header large, reused by every
    /// payload this link carries.
    scratch: Vec<u8>,
}

impl Wire {
    /// Put one job's bytes on the socket: the one write of both send
    /// paths. On a ranked mesh the route marker leaves in the same
    /// `write` as the frame (as a stream's header), so nothing can come
    /// between the two.
    fn write(&mut self, route: Option<(usize, usize)>, body: &Body) -> std::io::Result<()> {
        if let Some((src, dst)) = route {
            let marker = &mut self.socket.marker;
            marker.clear();
            marker.extend_from_slice(&Control::Route { src, dst }.to_frame());
        }
        match body {
            Body::Frame(frame) => self.socket.write_all(frame),
            Body::Stream(payload, cfg) => payload
                .write_wire(&mut self.socket, cfg, &mut self.scratch)
                .map(drop),
        }
    }
}

/// A socket whose next write carries a pending route marker in front.
struct Marked {
    stream: TcpStream,
    marker: Vec<u8>,
}

impl Write for Marked {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.marker.is_empty() {
            return self.stream.write(buf);
        }
        self.marker.extend_from_slice(buf);
        let written = self.stream.write_all(&self.marker);
        self.marker.clear();
        written.map(|()| buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Per-link lifecycle instrumentation (one slot per peer, allocated only
/// under [`TcpOpts::instrument`]). The high-water mark is atomic so a
/// send never takes a lock for it; the histograms are touched once per
/// frame by whoever wrote it and by the reader thread.
#[derive(Default)]
struct LinkStats {
    /// Most jobs the link ever held queued or being written.
    depth_hw: AtomicUsize,
    lat: Mutex<LinkLat>,
}

impl LinkStats {
    /// One job is on the socket after `waited` for the link (in the queue,
    /// or for the link's lock when its sender wrote it) and `took` to
    /// encode and write.
    fn wrote(&self, waited: Duration, took: Duration) {
        let mut lat = self.lat.lock().unwrap();
        lat.frames += 1;
        lat.queue_wait.record(waited.as_secs_f64());
        lat.write_time.record(took.as_secs_f64());
    }
}

#[derive(Default)]
struct LinkLat {
    /// Frames pushed onto the socket, by the writer or inline.
    frames: u64,
    /// Enqueue → holding the link's lock (time spent queued behind other
    /// frames; for a frame its sender wrote, the wait for the lock).
    queue_wait: Histogram,
    /// Pickup → socket write complete (serialize + kernel hand-off; for
    /// streamed payloads, encode and write overlap chunk-by-chunk).
    write_time: Histogram,
    /// Inbound body transfer time (see [`read_frame`]).
    read_time: Histogram,
}

struct Peer {
    tx: SyncSender<Job>,
    writer: JoinHandle<()>,
    link: Arc<Link>,
    /// Cleared by the reader on EOF/error; a dead link rejects sends.
    alive: bool,
}

/// The peer-silence watchdog's shared half ([`TcpOpts::peer_timeout`]).
struct Silence {
    timeout: f64,
    clock: Arc<dyn Clock>,
    /// Per host, the `clock` time its link last delivered a frame, as
    /// `f64` bits.
    heard: Vec<AtomicU64>,
}

impl Silence {
    fn hear(&self, h: usize) {
        self.heard[h].store(self.clock.now().to_bits(), Ordering::Relaxed);
    }
}

/// State shared between one host's endpoints, its reader threads and,
/// during establishment, its acceptor thread. Links are per host; inboxes
/// are per rank.
struct Mesh {
    shape: Shape,
    /// Per-link send queue capacity ([`TcpOpts::queue_cap`]).
    queue_cap: usize,
    peers: Mutex<Vec<Option<Peer>>>,
    /// Frame-lifecycle instrumentation, one slot per peer
    /// ([`TcpOpts::instrument`]; `None` = zero overhead).
    lat: Option<Arc<Vec<LinkStats>>>,
    /// The inbox of every rank this host carries, in rank order. Held
    /// here, an inbox never reports `Disconnected`: every closed link is
    /// surfaced per rank, and a host with no links at all (a one-host
    /// run) just stays quiet.
    inboxes: Vec<Sender<Note>>,
    /// This host's endpoints not yet dropped; the last one closes the
    /// links.
    endpoints: AtomicUsize,
    silence: Option<Silence>,
    /// Establishment's rendezvous with the acceptor.
    joining: Mutex<Joining>,
    joined: Condvar,
}

/// Which peers establishment still waits for, and the first bad Hello
/// seen while it does. Once `awaited` is all-false the mesh is up.
struct Joining {
    awaited: Vec<bool>,
    error: Option<LiveError>,
}

impl Mesh {
    /// The inbox of `rank`, which lives on this host.
    fn inbox(&self, rank: usize) -> &Sender<Note> {
        &self.inboxes[rank - self.shape.ranks_of(self.shape.me).start]
    }

    /// Mark `j` dead: sends start failing, the writer drains and exits.
    fn kill_link(&self, j: usize) {
        let mut peers = self.peers.lock().unwrap();
        if let Some(p) = peers[j].as_mut() {
            p.alive = false;
            // Swap the sender for one whose receiver is already gone, so
            // the writer's queue closes and `send_frame` fails fast.
            let (dead_tx, _) = sync_channel::<Job>(1);
            drop(std::mem::replace(&mut p.tx, dead_tx));
        }
    }

    /// Hand a frame read from host `j` to the rank it is for: on a flat
    /// link, this host's one rank; on a ranked link, the rank the marker
    /// ahead of it named. `route` holds a taken marker until its frame.
    fn deliver(&self, j: usize, route: &mut Option<(usize, usize)>, frame: Vec<u8>) {
        let (src, dst) = if self.shape.ranks.is_none() {
            (j, self.shape.me)
        } else if let Some(marked) = route.take() {
            marked
        } else {
            *route = self.marker(j, &frame);
            return;
        };
        // A rank whose endpoint is gone misses the frame, nobody else.
        let _ = self.inbox(dst).send(Note::Frame(src, frame));
    }

    /// `frame` as a route marker from host `j`, if it is one that routes
    /// from a rank of `j` to one of ours — as every marker a writer
    /// writes does. (What `decode` lets through names only ranks of this
    /// cluster.)
    fn marker(&self, j: usize, frame: &[u8]) -> Option<(usize, usize)> {
        let (shape, ours) = (&self.shape, self.shape.ranks_of(self.shape.me));
        match Control::from_frame(frame, shape.total()) {
            Ok(Control::Route { src, dst })
                if shape.ranks_of(j).contains(&src) && ours.contains(&dst) =>
            {
                Some((src, dst))
            }
            _ => None,
        }
    }

    /// Host `j`'s link closed: tell every rank here that each rank of `j`
    /// is gone, in rank order.
    fn host_gone(&self, j: usize) {
        for inbox in &self.inboxes {
            for rank in self.shape.ranks_of(j) {
                let _ = inbox.send(Note::Gone(rank));
            }
        }
    }

    /// Wire a connected stream as *the* link to host `j` (writer + reader
    /// threads). The reader routes frames and, on EOF, gone-notes into
    /// the inboxes.
    fn wire(self: &Arc<Self>, j: usize, stream: TcpStream) -> std::io::Result<()> {
        let (tx, rx) = sync_channel::<Job>(self.queue_cap);
        let link = Arc::new(Link {
            wire: Mutex::new(Wire {
                socket: Marked {
                    stream: stream.try_clone()?,
                    marker: Vec::new(),
                },
                scratch: Vec::new(),
            }),
            jobs: AtomicUsize::new(0),
        });
        let wlink = Arc::clone(&link);
        let wlat = self.lat.clone();
        let writer = thread::spawn(move || {
            while let Ok(Job { route, body, at }) = rx.recv() {
                let stats = wlat.as_deref().map(|l| &l[j]);
                if wlink.put(route, &body, at, stats).is_err() {
                    break;
                }
            }
            let wire = wlink.wire.lock().unwrap();
            let _ = wire.socket.stream.shutdown(Shutdown::Write);
        });
        let mut rstream = stream;
        let mesh = Arc::clone(self);
        // Readers are detached: they exit on EOF/error, announcing the
        // loss.
        thread::spawn(move || {
            let mut route = None;
            while let Ok(Some((frame, took))) = read_frame(&mut rstream) {
                if let Some(stats) = mesh.lat.as_deref().map(|l| &l[j]) {
                    stats
                        .lat
                        .lock()
                        .unwrap()
                        .read_time
                        .record(took.as_secs_f64());
                }
                if let Some(silence) = &mesh.silence {
                    silence.hear(j);
                }
                mesh.deliver(j, &mut route, frame);
            }
            mesh.kill_link(j);
            mesh.host_gone(j);
        });
        self.peers.lock().unwrap()[j] = Some(Peer {
            tx,
            writer,
            link,
            alive: true,
        });
        Ok(())
    }

    /// Dial the lower-numbered linked peers, then wait until every
    /// awaited higher-numbered one has joined through the acceptor.
    fn link_up(
        self: &Arc<Self>,
        addrs: &[SocketAddr],
        links: &[bool],
        deadline: Instant,
    ) -> Result<(), LiveError> {
        let me = self.shape.me;
        for (j, addr) in addrs.iter().enumerate().take(me) {
            if links[j] {
                self.dial(j, *addr, deadline).map_err(|e| {
                    LiveError::Protocol(format!("host {me} cannot reach host {j} at {addr}: {e}"))
                })?;
            }
        }
        let mut joining = self.joining.lock().unwrap();
        while joining.error.is_none() && joining.awaited.contains(&true) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let missing: Vec<usize> =
                    (0..addrs.len()).filter(|&j| joining.awaited[j]).collect();
                return Err(LiveError::Stalled(format!(
                    "host {me} still waiting for dials from {missing:?}"
                )));
            }
            joining = self.joined.wait_timeout(joining, left).unwrap().0;
        }
        joining.error.take().map_or(Ok(()), Err)
    }

    /// Dial peer `j` (retrying until `deadline` — it may not have bound
    /// yet), announce ourselves with a Hello, and wire the link.
    fn dial(
        self: &Arc<Self>,
        j: usize,
        addr: SocketAddr,
        deadline: Instant,
    ) -> std::io::Result<()> {
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        stream.set_nodelay(true)?;
        (&stream).write_all(&self.shape.hello(self.shape.me).to_frame())?;
        self.wire(j, stream)
    }
}

/// One rank's endpoint of a TCP mesh; the endpoints of one host share its
/// links.
pub struct TcpTransport {
    rank: usize,
    mesh: Arc<Mesh>,
    inbox: Receiver<Note>,
    /// Per host, the `heard` stamp of the silence this endpoint last
    /// reported: a frame from the host moves the stamp and re-arms the
    /// alarm.
    reported: Vec<Option<u64>>,
}

impl TcpTransport {
    /// Establish host `me`'s side of the mesh and return an endpoint for
    /// every rank it carries, in rank order. `addrs[j]` must be the
    /// address host `j` listens on; `listener` must be bound to
    /// `addrs[me]`. Only the peers `links` names are dialed/accepted (the
    /// mask must be the same, symmetric one on every host — both ends of
    /// a link have to agree it exists); the ranks of an unconnected host
    /// behave like departed ones: sends fail with `PeerGone`, nothing is
    /// ever received. Blocks until every link is up (dials retry until
    /// `opts.establish_timeout` — peers may not have bound yet); when it
    /// returns, the listener is closed.
    pub fn establish_linked(
        me: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        seed: u64,
        opts: &TcpOpts,
        links: &[bool],
    ) -> Result<Vec<TcpTransport>, LiveError> {
        let n = addrs.len();
        assert_eq!(links.len(), n, "link mask length mismatch");
        assert!(me < n, "host id out of range");
        assert!(opts.queue_cap > 0, "queue capacity must be positive");
        let deadline = Instant::now() + opts.establish_timeout;
        // The higher-numbered linked peers dial us.
        let awaited: Vec<bool> = (0..n).map(|j| j > me && links[j]).collect();
        let expecting = awaited.contains(&true);
        let shape = Shape {
            me,
            n,
            seed,
            ranks: opts.ranks.clone(),
        };
        let (inboxes, receivers): (Vec<_>, Vec<_>) =
            shape.ranks_of(me).map(|_| channel::<Note>()).unzip();
        let mesh = Arc::new(Mesh {
            queue_cap: opts.queue_cap,
            peers: Mutex::new((0..n).map(|_| None).collect()),
            lat: (opts.instrument && shape.ranks.is_none())
                .then(|| Arc::new((0..n).map(|_| LinkStats::default()).collect())),
            inboxes,
            endpoints: AtomicUsize::new(receivers.len()),
            silence: opts.peer_timeout.map(|t| Silence {
                timeout: t.as_secs_f64(),
                clock: Arc::clone(&opts.clock),
                heard: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }),
            joining: Mutex::new(Joining {
                awaited,
                error: None,
            }),
            joined: Condvar::new(),
            shape,
        });
        // The acceptor is up before our own first dial, so an early dialer
        // is wired at once; it owns the listener and closes it on return.
        let acceptor = if expecting {
            listener.set_nonblocking(false)?;
            let addr = listener.local_addr()?;
            let mesh = Arc::clone(&mesh);
            Some((thread::spawn(move || acceptor_loop(listener, mesh)), addr))
        } else {
            None
        };
        let linked = mesh.link_up(addrs, links, deadline);
        // Once everyone awaited is wired, or a Hello failed establishment,
        // the acceptor has returned (or is returning). After any other
        // failure it still waits in `accept()`: a connection that closes
        // without a Hello ends it.
        if let Some((handle, addr)) = acceptor {
            if linked.is_err() {
                drop(TcpStream::connect(addr));
            }
            let _ = handle.join();
        }
        linked?;
        // Silence is counted from the moment the mesh is up.
        if let Some(silence) = &mesh.silence {
            (0..n).for_each(|h| silence.hear(h));
        }
        let ranks = mesh.shape.ranks_of(me);
        Ok(ranks
            .zip(receivers)
            .map(|(rank, inbox)| TcpTransport {
                rank,
                mesh: Arc::clone(&mesh),
                inbox,
                reported: vec![None; n],
            })
            .collect())
    }

    fn on_note(note: Note) -> Result<(usize, Vec<u8>), TransportError> {
        match note {
            Note::Frame(from, f) => Ok((from, f)),
            Note::Gone(peer) => Err(TransportError::PeerDisconnected { peer }),
            Note::Silent(peer) => Err(TransportError::PeerTimeout { peer }),
        }
    }

    /// Deliver `body` to rank `to`: straight into its inbox if it lives on
    /// this host, as the exact wire bytes a socket would carry; otherwise
    /// as one job on its host's link, behind its route marker on a ranked
    /// mesh. A plain frame on a link with nothing queued or being written
    /// is written here, under the link's lock; anything else is queued for
    /// the link's writer.
    fn send(&self, to: usize, body: Body) -> Result<(), TransportError> {
        if to == self.rank {
            return Err(TransportError::PeerGone(to));
        }
        let shape = &self.mesh.shape;
        let host = shape.host_of(to);
        if host == shape.me {
            let bytes = match body {
                Body::Frame(frame) => frame,
                Body::Stream(payload, cfg) => payload.to_wire(&cfg),
            };
            return self
                .mesh
                .inbox(to)
                .send(Note::Frame(self.rank, bytes))
                .map_err(|_| TransportError::PeerGone(to));
        }
        let route = shape.ranks.is_some().then_some((self.rank, to));
        // Clone the sender out of the lock: a blocking backpressure send
        // must not hold the mesh mutex against the readers.
        let (tx, link) = {
            let peers = self.mesh.peers.lock().unwrap();
            match peers.get(host).and_then(|p| p.as_ref()) {
                Some(p) if p.alive => (p.tx.clone(), Arc::clone(&p.link)),
                _ => return Err(TransportError::PeerGone(to)),
            }
        };
        let stats = self.mesh.lat.as_deref().map(|l| &l[host]);
        // Count the job in before it is written or queued, so the count
        // includes a job we may be backpressured on.
        let at = Instant::now();
        let ahead = link.jobs.fetch_add(1, Ordering::AcqRel);
        if let Some(stats) = stats {
            stats.depth_hw.fetch_max(ahead + 1, Ordering::Relaxed);
        }
        if ahead == 0 && body.is_plain() {
            return link.put(route, &body, at, stats).map_err(|_| {
                self.mesh.kill_link(host);
                TransportError::PeerGone(to)
            });
        }
        let job = Job { route, body, at };
        tx.send(job).map_err(|_| {
            link.jobs.fetch_sub(1, Ordering::Release);
            TransportError::PeerGone(to)
        })
    }

    /// A connected host silent past the timeout whose silence this
    /// endpoint has not reported yet, if any.
    fn silent_host(&mut self) -> Option<usize> {
        let silence = self.mesh.silence.as_ref()?;
        let now = silence.clock.now();
        let peers = self.mesh.peers.lock().unwrap();
        (0..self.mesh.shape.n).find(|&h| {
            let heard = silence.heard[h].load(Ordering::Relaxed);
            let connected = peers[h].as_ref().is_some_and(|p| p.alive);
            let silent = connected
                && now - f64::from_bits(heard) > silence.timeout
                && self.reported[h] != Some(heard);
            if silent {
                self.reported[h] = Some(heard);
            }
            silent
        })
    }
}

/// The accept loop, from before the first dial until the last awaited
/// (higher-numbered) peer is wired; returning closes the listener. A
/// connection from anyone else — a peer not awaited, or one already
/// wired — is dropped. A bad Hello fails establishment and ends the loop.
fn acceptor_loop(listener: TcpListener, mesh: Arc<Mesh>) {
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            thread::sleep(Duration::from_millis(1));
            continue;
        };
        let id = match accept_hello(&mut stream, &mesh.shape) {
            Ok(id) => id,
            Err(e) => {
                mesh.joining.lock().unwrap().error.get_or_insert(e);
                mesh.joined.notify_all();
                return;
            }
        };
        if !mesh.joining.lock().unwrap().awaited[id] || mesh.wire(id, stream).is_err() {
            continue;
        }
        let mut joining = mesh.joining.lock().unwrap();
        joining.awaited[id] = false;
        mesh.joined.notify_all();
        if !joining.awaited.contains(&true) {
            return;
        }
    }
}

impl Drop for TcpTransport {
    /// The host's last endpoint takes the senders down so writers see a
    /// closed queue, then joins them: every already-queued frame (a final
    /// Done in particular) hits the socket before the host is gone.
    fn drop(&mut self) {
        if self.mesh.endpoints.fetch_sub(1, Ordering::AcqRel) > 1 {
            return;
        }
        let mut peers = self.mesh.peers.lock().unwrap();
        for Peer { tx, writer, .. } in peers.iter_mut().filter_map(Option::take) {
            drop(tx);
            let _ = writer.join();
        }
    }
}

impl ExchangeTransport for TcpTransport {
    fn me(&self) -> usize {
        self.rank
    }

    fn n(&self) -> usize {
        self.mesh.shape.total()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send(to, Body::Frame(frame))
    }

    /// Streamed send: the payload is serialized straight onto the socket
    /// under `cfg` — a plain frame (one chunk or less) in one write, by
    /// this rank when its link is idle; a chunked stream by the link's
    /// writer thread, which gets the payload as an `Arc`, puts the 20-byte
    /// header on the wire after O(1) work and never materializes the
    /// body. Returns the wire length whether the peer is a host-mate or
    /// not — byte ledgers cannot tell.
    fn send_wire(
        &mut self,
        to: usize,
        payload: Arc<Payload>,
        cfg: &WireCfg,
    ) -> Result<usize, TransportError> {
        let len = payload.wire_len(cfg);
        self.send(to, Body::Stream(payload, *cfg))?;
        Ok(len)
    }

    /// Snapshot the per-link instrumentation (empty unless
    /// [`TcpOpts::instrument`] was set on a flat mesh). Depths are
    /// instantaneous; histograms are cumulative since establishment.
    fn link_health(&mut self) -> Vec<LinkHealth> {
        let Some(lat) = self.mesh.lat.as_deref() else {
            return Vec::new();
        };
        let peers = self.mesh.peers.lock().unwrap();
        (0..self.mesh.shape.n)
            .filter(|&j| j != self.mesh.shape.me)
            .map(|j| {
                let stats = &lat[j];
                let l = stats.lat.lock().unwrap();
                let jobs = peers[j]
                    .as_ref()
                    .map(|p| p.link.jobs.load(Ordering::Relaxed));
                LinkHealth {
                    peer: j,
                    queue_depth: jobs.unwrap_or(0),
                    queue_depth_hw: stats.depth_hw.load(Ordering::Relaxed),
                    frames: l.frames,
                    queue_wait: l.queue_wait.clone(),
                    write_time: l.write_time.clone(),
                    read_time: l.read_time.clone(),
                }
            })
            .collect()
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.inbox.try_recv() {
            Ok(note) => Self::on_note(note).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Waits for the next note; when none comes in time, a silent host's
    /// ranks are queued as timeout notes, in rank order, and the first
    /// note is returned.
    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(note) => Self::on_note(note).map(Some),
            Err(RecvTimeoutError::Timeout) => {
                let Some(host) = self.silent_host() else {
                    return Ok(None);
                };
                for rank in self.mesh.shape.ranks_of(host) {
                    let _ = self.mesh.inbox(self.rank).send(Note::Silent(rank));
                }
                self.try_recv_frame()
            }
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

/// The loopback sugar: `--port-base P` for `n` hosts means host `j`
/// listens on `127.0.0.1:P+j`. The only place (besides the ephemeral
/// [`loopback_mesh`] test helper) that hardcodes a loopback address —
/// everything else takes an explicit peer list.
pub fn loopback_addrs(n: usize, port_base: u16) -> Vec<SocketAddr> {
    (0..n)
        .map(|j| SocketAddr::from(([127, 0, 0, 1], port_base + j as u16)))
        .collect()
}

// `--peers` parsing lives with the rest of the CLI vocabulary in
// `dlion_core::args`; re-exported here because peer lists are transport
// addressing and callers historically found the parser next to the mesh
// builders.
pub use dlion_core::args::parse_peers;

/// Build an `n`-host loopback mesh on ephemeral ports: bind `n`
/// listeners, then establish every host concurrently (establishment
/// blocks on peers, so it cannot be done sequentially). The result is
/// every rank's endpoint, in rank order — on a flat mesh, element `i` is
/// host `i`'s. `links[i][j]` says whether hosts `i` and `j` hold a
/// connection (must be symmetric; `None` = full mesh). Only masked links
/// are dialed — a ring cluster opens `n` sockets, not `n(n-1)/2`.
pub fn loopback_mesh(
    n: usize,
    seed: u64,
    opts: &TcpOpts,
    links: Option<&[Vec<bool>]>,
) -> Result<Vec<TcpTransport>, LiveError> {
    assert!(n > 0);
    if let Some(masks) = links {
        assert_eq!(masks.len(), n, "one link mask per host");
    }
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<std::io::Result<_>>()?;
    let hosts: Vec<Vec<TcpTransport>> = thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let addrs = &addrs;
                let full = || (0..n).map(|j| j != me).collect();
                let mask: Vec<bool> = links.map_or_else(full, |masks| masks[me].clone());
                s.spawn(move || {
                    TcpTransport::establish_linked(me, listener, addrs, seed, opts, &mask)
                })
            })
            .collect();
        let panicked = |_| Err(LiveError::Protocol("mesh setup thread panicked".into()));
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(panicked))
            .collect::<Result<_, _>>()
    })?;
    Ok(hosts.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankLayout;
    use dlion_core::messages::{GradMsg, Payload};
    use dlion_core::ManualClock;

    #[test]
    fn loopback_addrs_expand_port_base() {
        let addrs = loopback_addrs(3, 7300);
        assert_eq!(addrs[0], "127.0.0.1:7300".parse().unwrap());
        assert_eq!(addrs[2], "127.0.0.1:7302".parse().unwrap());
    }

    #[test]
    fn peer_list_parsing() {
        let addrs = parse_peers("10.0.0.1:7300,10.0.0.2:7300").unwrap();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[1], "10.0.0.2:7300".parse().unwrap());
        assert!(parse_peers("10.0.0.1:7300").is_err(), "single peer");
        assert!(parse_peers("nonsense").is_err());
        assert!(parse_peers("10.0.0.1:notaport,10.0.0.2:1").is_err());
    }

    #[test]
    fn two_node_mesh_exchanges_payloads() {
        let opts = TcpOpts {
            queue_cap: 8,
            establish_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let mut mesh = loopback_mesh(2, 7, &opts, None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let p = Payload::LossShare { avg_loss: 1.25 };
        let bytes = a
            .send_wire(1, Arc::new(p.clone()), &WireCfg::default())
            .unwrap();
        assert_eq!(bytes, p.wire_len(&WireCfg::default()));
        let (from, frame) = b
            .recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("frame should arrive");
        assert_eq!(from, 0);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), p);
    }

    #[test]
    fn chunked_streams_cross_a_real_socket() {
        use dlion_core::messages::{GradData, GradMsg, WireFormat};
        use dlion_tensor::{Shape, Tensor};
        let opts = TcpOpts {
            queue_cap: 8,
            establish_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let mut mesh = loopback_mesh(2, 7, &opts, None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let payload = Arc::new(Payload::Grad(GradMsg {
            iteration: 5,
            lbs: 32,
            data: GradData::Dense(vec![Tensor::from_vec(
                Shape::d1(50_000),
                (0..50_000).map(|i| (i as f32 * 0.013).cos()).collect(),
            )]),
            n_used: 100.0,
        }));
        for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
            let cfg = WireCfg {
                format,
                chunk_bytes: 4096,
            };
            assert!(payload.wire_is_chunked(&cfg));
            let sent = a.send_wire(1, Arc::clone(&payload), &cfg).unwrap();
            assert_eq!(sent, payload.wire_len(&cfg));
            let (from, stream) = b
                .recv_frame_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("stream should arrive");
            assert_eq!(from, 0);
            assert_eq!(stream.len(), sent, "raw stream bytes match wire_len");
            // The raw bytes are exactly what an in-memory transport would
            // deliver, and they decode through the shared entry point.
            assert_eq!(stream, payload.to_wire(&cfg), "{format:?}");
            let mut scratch = Vec::new();
            let back = Payload::from_wire(&stream, &mut scratch).unwrap();
            assert_eq!(back.kind(), "grad");
        }
    }

    fn dense_grad(n: usize) -> Payload {
        use dlion_core::messages::GradData;
        use dlion_tensor::{Shape, Tensor};
        Payload::Grad(GradMsg {
            iteration: 5,
            lbs: 32,
            data: GradData::Dense(vec![Tensor::from_vec(
                Shape::d1(n),
                (0..n).map(|i| (i as f32 * 0.013).cos()).collect(),
            )]),
            n_used: 100.0,
        })
    }

    /// Send `rounds` rounds of a chunked stream (the writer's), a plain
    /// payload and a control frame (written by the sender when the link is
    /// idle) to rank `to`, back to back; returns the wire bytes in send
    /// order.
    fn interleaved_sends(t: &mut TcpTransport, to: usize, rounds: u64) -> Vec<Vec<u8>> {
        let chunked = WireCfg {
            chunk_bytes: 4096,
            ..WireCfg::default()
        };
        let Payload::Grad(grad) = dense_grad(20_000) else {
            unreachable!()
        };
        let mut sent = Vec::new();
        for i in 0..rounds {
            let stream = Payload::Grad(GradMsg {
                iteration: i,
                ..grad.clone()
            });
            assert!(stream.wire_is_chunked(&chunked));
            sent.push(stream.to_wire(&chunked));
            t.send_wire(to, Arc::new(stream), &chunked).unwrap();
            let plain = Payload::LossShare {
                avg_loss: i as f64 + 0.5,
            };
            sent.push(plain.to_wire(&WireCfg::default()));
            t.send_wire(to, Arc::new(plain), &WireCfg::default())
                .unwrap();
            let control = Control::Rcp { round: i, rcp: 1.0 }.to_frame();
            sent.push(control.clone());
            t.send_frame(to, control).unwrap();
        }
        sent
    }

    /// Frames written by their sender never overtake the streams queued
    /// for the link's writer ahead of them.
    #[test]
    fn plain_frames_and_queued_streams_arrive_in_send_order() {
        let opts = TcpOpts {
            queue_cap: 2,
            ..TcpOpts::default()
        };
        let mut mesh = loopback_mesh(2, 7, &opts, None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let sent = thread::scope(|s| {
            let sender = s.spawn(|| interleaved_sends(&mut a, 1, 300));
            let got: Vec<Vec<u8>> = (0..900).map(|_| recv(&mut b).1).collect();
            (sender.join().unwrap(), got)
        });
        for (k, (sent, got)) in sent.0.iter().zip(&sent.1).enumerate() {
            assert!(sent == got, "frame {k} arrived out of send order");
        }
    }

    /// A job counts on its link until its bytes are written, not until the
    /// writer picks it up: a plain frame sent while a stream is being
    /// written queues behind it instead of racing it for the socket.
    #[test]
    fn a_frame_sent_during_a_write_queues_behind_it() {
        let mut mesh = loopback_mesh(2, 7, &TcpOpts::default(), None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let link = Arc::clone(&a.mesh.peers.lock().unwrap()[1].as_ref().unwrap().link);
        let chunked = WireCfg {
            chunk_bytes: 4096,
            ..WireCfg::default()
        };
        let stream = Arc::new(dense_grad(20_000));
        let plain = Payload::LossShare { avg_loss: 0.5 };
        // Hold the socket, as a long write would, while the writer picks
        // the stream up.
        let socket = link.wire.lock().unwrap();
        a.send_wire(1, Arc::clone(&stream), &chunked).unwrap();
        thread::sleep(Duration::from_millis(50));
        let (sent, was_sent) = channel();
        thread::scope(|s| {
            s.spawn(|| {
                a.send_wire(1, Arc::new(plain.clone()), &WireCfg::default())
                    .unwrap();
                sent.send(()).unwrap();
            });
            let queued = was_sent.recv_timeout(Duration::from_secs(2)).is_ok();
            drop(socket);
            assert!(
                queued,
                "the frame waited for the socket, ahead of the stream"
            );
        });
        assert_eq!(recv(&mut b).1, stream.to_wire(&chunked));
        assert_eq!(recv(&mut b).1, plain.to_wire(&WireCfg::default()));
    }

    #[test]
    fn received_chunked_streams_are_sized_once() {
        // One chunk header of slack used to be reserved for a stream that
        // carries one per chunk, so the last chunk doubled the buffer.
        let mut mesh = loopback_mesh(2, 7, &TcpOpts::default(), None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let payload = Arc::new(dense_grad(200_000));
        for chunk_bytes in [4096, WireCfg::default().chunk_bytes] {
            let cfg = WireCfg {
                chunk_bytes,
                ..WireCfg::default()
            };
            assert!(payload.body_len_with(cfg.format) > 3 * chunk_bytes);
            a.send_wire(1, Arc::clone(&payload), &cfg).unwrap();
            let (_, stream) = b
                .recv_frame_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("stream should arrive");
            assert_eq!(stream.len(), payload.wire_len(&cfg));
            let slack = stream.capacity() - stream.len();
            assert!(slack < CHUNK_HEADER_BYTES, "{slack} spare bytes");
        }
    }

    #[test]
    fn a_crafted_first_chunk_cannot_inflate_the_reservation() {
        use dlion_core::messages::frame_checksum;
        // A valid chunked header for a 64 MiB body, then a 1-byte first
        // chunk: sized from that chunk, the stream would carry 64 Mi chunk
        // headers, 768 MiB of them reserved before the read fails.
        let body_len = 64usize << 20;
        let cfg = WireCfg {
            chunk_bytes: 768,
            ..WireCfg::default()
        };
        let mut prefix = dense_grad(500).to_wire(&cfg)[..FRAME_HEADER_BYTES].to_vec();
        prefix[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
        let sum = frame_checksum(&prefix[..12], &[]); // magic..body_len
        prefix[12..20].copy_from_slice(&sum.to_le_bytes());
        prefix.extend_from_slice(&1u32.to_le_bytes());
        prefix.extend_from_slice(&chunk_checksum(0, &[7]).to_le_bytes());
        prefix.push(7);
        assert_eq!(prefix.len(), 33);
        let err = read_frame(&mut &prefix[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);

        // It reserves the body it declares plus at most the chunk headers
        // of the largest body in default-size chunks (12 KiB).
        let headers = (MAX_FRAME_BODY_BYTES / DEFAULT_CHUNK_BYTES) * CHUNK_HEADER_BYTES;
        assert_eq!(headers, 12 << 10);
        assert_eq!(stream_capacity(body_len, 1), body_len + headers);
        assert_eq!(
            stream_capacity(MAX_FRAME_BODY_BYTES, 1),
            MAX_FRAME_BODY_BYTES + headers
        );
        // An honest stream in default-size chunks, up to the largest body,
        // is still reserved exactly: sized once.
        for body in [
            1,
            4096,
            DEFAULT_CHUNK_BYTES + 1,
            5_000_000,
            MAX_FRAME_BODY_BYTES,
        ] {
            let first = body.min(DEFAULT_CHUNK_BYTES);
            let wire = body + body.div_ceil(DEFAULT_CHUNK_BYTES) * CHUNK_HEADER_BYTES;
            assert_eq!(stream_capacity(body, first), wire, "body {body}");
        }
    }

    /// Counts what `read_frame` takes off the socket.
    struct Counted<'a> {
        stream: &'a TcpStream,
        taken: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.stream.read(buf)?;
            self.taken += n;
            Ok(n)
        }
    }

    #[test]
    fn a_flipped_bit_ends_the_read_before_the_next_chunk() {
        use dlion_core::messages::decode_wire;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // ~2 KB in three chunks; chunk k spans `bounds[k]..bounds[k + 1]`.
        let cfg = WireCfg {
            chunk_bytes: 768,
            ..WireCfg::default()
        };
        let payload = dense_grad(500);
        let stream = payload.to_wire(&cfg);
        let body_len = payload.body_len_with(cfg.format);
        let full = CHUNK_HEADER_BYTES + cfg.chunk_bytes;
        let bounds = [0, 1, 2].map(|k| FRAME_HEADER_BYTES + k * full);
        assert_eq!(body_len.div_ceil(cfg.chunk_bytes), 3);

        for pos in 0..stream.len() {
            for bit in 0..8 {
                let mut bad = stream.clone();
                bad[pos] ^= 1 << bit;
                tx.write_all(&bad).unwrap();
                let mut counted = Counted {
                    stream: &rx,
                    taken: 0,
                };
                let got = read_frame(&mut counted);
                let taken = counted.taken;
                if (pos, bit) == (7, 0) {
                    // FLAG_CHUNKED cleared: read as a plain frame (which
                    // the reader does not sum), refused by `decode_wire`;
                    // the chunk headers left over are no frame header.
                    let (frame, _) = got.unwrap().unwrap();
                    assert_eq!(taken, FRAME_HEADER_BYTES + body_len);
                    assert!(decode_wire(&frame, &mut Vec::new()).is_err());
                    assert!(read_frame(&mut counted).is_err());
                } else {
                    let err = got.expect_err("corrupt stream was delivered");
                    assert_eq!(err.kind(), ErrorKind::InvalidData, "byte {pos} bit {bit}");
                    if pos < FRAME_HEADER_BYTES {
                        assert_eq!(taken, FRAME_HEADER_BYTES, "byte {pos} bit {bit}");
                    } else if bounds.iter().any(|&b| (b..b + 4).contains(&pos)) {
                        // A wrong chunk length: refused on sight, or after
                        // as many bytes as it claims.
                        assert!(taken <= stream.len());
                    } else {
                        // Chunk sum or chunk bytes: refused as the chunk
                        // lands, with the later chunks still in the socket.
                        let chunk = bounds.iter().rposition(|&b| b <= pos).unwrap();
                        let end = bounds.get(chunk + 1).copied().unwrap_or(stream.len());
                        assert_eq!(taken, end, "byte {pos} bit {bit}");
                    }
                }
                // Drain what the refused read left, to line up the next case.
                let mut rest = vec![0u8; stream.len() - counted.taken];
                (&rx).read_exact(&mut rest).unwrap();
            }
        }
        // The link itself is fine: the intact stream still arrives.
        tx.write_all(&stream).unwrap();
        let (frame, _) = read_frame(&mut &rx).unwrap().unwrap();
        assert_eq!(frame, stream);
    }

    #[test]
    fn instrumented_mesh_records_frame_lifecycle() {
        let opts = TcpOpts {
            queue_cap: 8,
            establish_timeout: Duration::from_secs(10),
            instrument: true,
            ..Default::default()
        };
        let mut mesh = loopback_mesh(2, 7, &opts, None).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let p = Payload::LossShare { avg_loss: 1.25 };
        a.send_wire(1, Arc::new(p.clone()), &WireCfg::default())
            .unwrap();
        b.recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("frame should arrive");
        // Receiver-side read_time is recorded before the frame reaches the
        // inbox, so it is visible as soon as the recv returns.
        let bl = b.link_health();
        assert_eq!(bl.len(), 1);
        assert_eq!(bl[0].peer, 0);
        assert_eq!(bl[0].read_time.count(), 1);
        // The sender's writer records after the socket write, which races
        // with the receiver's read — poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let al = a.link_health();
            assert_eq!(al[0].peer, 1);
            if al[0].frames >= 1 {
                assert_eq!(al[0].queue_wait.count(), al[0].frames);
                assert_eq!(al[0].write_time.count(), al[0].frames);
                assert_eq!(al[0].queue_depth, 0);
                assert!(al[0].queue_depth_hw >= 1);
                break;
            }
            assert!(Instant::now() < deadline, "writer never recorded");
            thread::sleep(Duration::from_millis(2));
        }
        // Uninstrumented transports report nothing.
        let mut plain = loopback_mesh(2, 7, &TcpOpts::default(), None).unwrap();
        assert!(plain[0].link_health().is_empty());
        assert!(plain[1].link_health().is_empty());
    }

    /// Establish a 2-endpoint mesh whose ends were launched with
    /// `(seed, opts)` each; returns what the acceptor (endpoint 0) made of
    /// the dialer's Hello.
    fn establish_pair(ends: [(u64, TcpOpts); 2]) -> Result<Vec<TcpTransport>, LiveError> {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(ends)
            .enumerate()
            .map(|(me, (listener, (seed, opts)))| {
                let addrs = addrs.clone();
                let links = [me == 1, me == 0];
                thread::spawn(move || {
                    TcpTransport::establish_linked(me, listener, &addrs, seed, &opts, &links)
                })
            })
            .collect();
        let mut results = handles.into_iter().map(|h| h.join().unwrap());
        let acceptor = results.next().unwrap();
        let _ = results.next(); // the dialer may succeed or see a reset
        acceptor
    }

    fn quick_opts(ranks: Option<Vec<RankHello>>) -> TcpOpts {
        TcpOpts {
            queue_cap: 4,
            establish_timeout: Duration::from_secs(5),
            ranks: ranks.map(Arc::new),
            ..Default::default()
        }
    }

    /// A one-host run's endpoint has no links and no acceptor: it stays
    /// quiet instead of reporting the whole mesh gone.
    #[test]
    fn an_endpoint_without_links_stays_quiet() {
        let mut mesh = loopback_mesh(1, 7, &TcpOpts::default(), None).unwrap();
        let t = &mut mesh[0];
        assert!(matches!(t.try_recv_frame(), Ok(None)));
        assert!(matches!(
            t.recv_frame_timeout(Duration::from_millis(5)),
            Ok(None)
        ));
    }

    /// A peer that never dials stalls establishment at its deadline; the
    /// acceptor still waiting for it is ended and joined, and the
    /// listener closed with it.
    #[test]
    fn a_missing_dialer_stalls_establishment_and_ends_the_acceptor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let addrs = [addr, loopback_addrs(1, 9)[0]];
        let opts = TcpOpts {
            establish_timeout: Duration::from_millis(50),
            ..Default::default()
        };
        let got = TcpTransport::establish_linked(0, listener, &addrs, 1, &opts, &[false, true]);
        assert!(matches!(got, Err(LiveError::Stalled(_))));
        assert!(
            TcpStream::connect(addr).is_err(),
            "the listener outlived it"
        );
    }

    #[test]
    fn mismatched_seed_is_rejected() {
        let got = establish_pair([(1, quick_opts(None)), (2, quick_opts(None))]);
        assert!(matches!(got, Err(LiveError::Protocol(_))));
    }

    #[test]
    fn mixed_and_disagreeing_rank_layouts_are_refused_at_establishment() {
        let block = |base| RankHello {
            base,
            count: 4,
            total: 8,
        };
        let layout = vec![block(0), block(4)];
        // Both ends flat, both ends on the same layout: the mesh comes up.
        establish_pair([(1, quick_opts(None)), (1, quick_opts(None))]).unwrap();
        let same = || quick_opts(Some(layout.clone()));
        establish_pair([(1, same()), (1, same())]).unwrap();
        // A flat dialer (identity block) into a ranked mesh, a ranked one
        // into a flat mesh, and a dialer claiming the acceptor's block.
        let wrong = quick_opts(Some(vec![block(0), block(0)]));
        for (acceptor, dialer) in [
            (same(), quick_opts(None)),
            (quick_opts(None), same()),
            (same(), wrong),
        ] {
            let got = establish_pair([(1, acceptor), (1, dialer)]);
            assert!(matches!(got, Err(LiveError::Protocol(_))));
        }
    }

    fn ranked_opts(layout: &RankLayout) -> TcpOpts {
        TcpOpts {
            establish_timeout: Duration::from_secs(10),
            ranks: Some(Arc::new(layout.hello_blocks())),
            ..Default::default()
        }
    }

    fn recv(t: &mut TcpTransport) -> (usize, Vec<u8>) {
        t.recv_frame_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("a frame before the timeout")
    }

    /// Two hosts × two ranks over TCP host links: local and routed frames
    /// both arrive rank-addressed, and a host-mate receives the very bytes
    /// a routed peer does, at the same reported length.
    #[test]
    fn frames_route_between_and_within_hosts() {
        let layout = RankLayout::even(4, 2);
        let mut eps = loopback_mesh(2, 7, &ranked_opts(&layout), None).unwrap();
        let shape: Vec<(usize, usize)> = eps.iter().map(|t| (t.me(), t.n())).collect();
        assert_eq!(shape, [(0, 4), (1, 4), (2, 4), (3, 4)]);

        let p = Payload::LossShare { avg_loss: 2.5 };
        let cfg = WireCfg::default();
        // Local: rank 0 → rank 1 (both on host 0).
        eps[0].send_wire(1, Arc::new(p.clone()), &cfg).unwrap();
        let (from, frame) = recv(&mut eps[1]);
        assert_eq!(from, 0);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), p);
        // Routed: rank 3 (host 1) → rank 0 (host 0).
        eps[3].send_wire(0, Arc::new(p.clone()), &cfg).unwrap();
        let (from, frame) = recv(&mut eps[0]);
        assert_eq!(from, 3);
        assert_eq!(Payload::from_wire(&frame, &mut Vec::new()).unwrap(), p);

        // A streamed, chunked payload: same length, same bytes, either way.
        let cfg = WireCfg {
            chunk_bytes: 4096,
            ..WireCfg::default()
        };
        let big = Arc::new(dense_grad(50_000));
        assert!(big.wire_is_chunked(&cfg));
        let local_len = eps[0].send_wire(1, Arc::clone(&big), &cfg).unwrap();
        let routed_len = eps[2].send_wire(1, Arc::clone(&big), &cfg).unwrap();
        assert_eq!(local_len, routed_len);
        let mut got = [recv(&mut eps[1]), recv(&mut eps[1])];
        got.sort_by_key(|(from, _)| *from);
        assert_eq!([got[0].0, got[1].0], [0, 2]);
        assert_eq!(got[0].1, big.to_wire(&cfg), "local bytes");
        assert_eq!(got[1].1, got[0].1, "local and routed wire bytes differ");
        assert_eq!(got[1].1.len(), routed_len);

        // Two host-mates interleave streams and plain frames to the same
        // remote rank at once: every marker still arrives right ahead of
        // its frame, and each sender's frames arrive in its send order.
        let (senders, receivers) = eps.split_at_mut(2);
        let [s0, s1] = senders else { unreachable!() };
        let (sent, got) = thread::scope(|s| {
            let a = s.spawn(|| interleaved_sends(s0, 2, 100));
            let b = s.spawn(|| interleaved_sends(s1, 2, 100));
            let got: Vec<(usize, Vec<u8>)> = (0..600).map(|_| recv(&mut receivers[0])).collect();
            ([a.join().unwrap(), b.join().unwrap()], got)
        });
        for (from, sent) in sent.iter().enumerate() {
            let mine: Vec<&Vec<u8>> = got.iter().filter(|g| g.0 == from).map(|g| &g.1).collect();
            assert_eq!(mine.len(), sent.len(), "rank {from} lost frames");
            for (k, (sent, got)) in sent.iter().zip(mine).enumerate() {
                assert!(sent == got, "rank {from}'s frame {k} out of send order");
            }
        }
    }

    /// A route marker is checked against the placement, not learned from.
    /// Host 1 — played here over a raw socket, after a valid ranked Hello
    /// — forges a rank of host 2: that marker and the frame behind it are
    /// dropped. A frame for a rank whose endpoint is gone is dropped
    /// without starving its host-mate, and rank 4 still lives on host 2.
    #[test]
    fn a_forged_route_marker_is_dropped_and_redirects_nothing() {
        const SEED: u64 = 7;
        let layout = RankLayout::even(6, 2);
        let opts = ranked_opts(&layout);
        let bind = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (l0, l2) = (bind(), bind());
        let addrs = [
            l0.local_addr().unwrap(),
            loopback_addrs(1, 9)[0],
            l2.local_addr().unwrap(),
        ];
        // Host 0 holds links to hosts 1 and 2; host 1 only to host 0.
        let links = [
            [false, true, true],
            [true, false, false],
            [true, false, false],
        ];
        let (opts, addrs, links) = (&opts, &addrs, &links);
        let (mut eps0, mut eps2, mut host1) = thread::scope(|s| {
            let h0 = s
                .spawn(move || TcpTransport::establish_linked(0, l0, addrs, SEED, opts, &links[0]));
            let h2 = s
                .spawn(move || TcpTransport::establish_linked(2, l2, addrs, SEED, opts, &links[2]));
            let mut host1 = TcpStream::connect(addrs[0]).unwrap();
            let hello = Control::Hello {
                id: 1,
                n: 3,
                seed: SEED,
                ranks: layout.hello_blocks()[1],
            };
            host1.write_all(&hello.to_frame()).unwrap();
            let host0 = h0.join().unwrap().expect("host 0");
            (host0, h2.join().unwrap().expect("host 2"), host1)
        });
        let frame = |tag: f64| Payload::LossShare { avg_loss: tag }.to_wire(&WireCfg::default());
        let marker = |src, dst| Control::Route { src, dst }.to_frame();
        drop(eps0.pop()); // rank 1's endpoint is gone
        for f in [
            marker(4, 0), // rank 4 lives on host 2
            frame(1.0),
            marker(3, 1),
            frame(1.5),
            marker(2, 0),
            frame(2.0),
        ] {
            host1.write_all(&f).unwrap();
        }
        assert_eq!(
            recv(&mut eps0[0]),
            (2, frame(2.0)),
            "a forged frame was delivered"
        );
        assert!(matches!(eps0[0].try_recv_frame(), Ok(None)));
        // Rank 0's reply to rank 4 reaches it on host 2.
        eps0[0].send_frame(4, frame(3.0)).unwrap();
        assert_eq!(recv(&mut eps2[0]), (0, frame(3.0)));
    }

    /// Every timeout the endpoint reports before it would block.
    fn timeouts(t: &mut TcpTransport) -> Vec<usize> {
        let mut peers = Vec::new();
        while let Err(TransportError::PeerTimeout { peer }) =
            t.recv_frame_timeout(Duration::from_millis(10))
        {
            peers.push(peer);
        }
        peers
    }

    /// Under a peer timeout, every endpoint reports each rank of a silent
    /// host, in rank order, once per silence; a frame from the host re-arms
    /// the alarm for all of its ranks.
    #[test]
    fn a_silent_host_times_out_each_of_its_ranks_once_per_silence() {
        let clock = Arc::new(ManualClock::new());
        let opts = TcpOpts {
            peer_timeout: Some(Duration::from_millis(100)),
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ranked_opts(&RankLayout::even(4, 2))
        };
        let mut eps = loopback_mesh(2, 7, &opts, None).unwrap();
        clock.advance(0.15);
        assert_eq!(timeouts(&mut eps[0]), [2, 3]);
        assert_eq!(timeouts(&mut eps[1]), [2, 3]);
        assert_eq!(timeouts(&mut eps[3]), [0, 1]);
        assert!(timeouts(&mut eps[0]).is_empty(), "reported twice");
        eps[2].send_frame(1, Control::Done.to_frame()).unwrap();
        assert_eq!(recv(&mut eps[1]).0, 2);
        clock.advance(0.15);
        assert_eq!(timeouts(&mut eps[0]), [2, 3]);
    }
}
