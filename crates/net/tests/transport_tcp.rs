//! TCP mesh transport behaviour: routing, per-peer FIFO, bounded-queue
//! backpressure, the drop-time flush that the Done shutdown barrier
//! relies on, the liveness contract — a dead peer surfaces as
//! `PeerDisconnected` (once), a silent one as `PeerTimeout` (once per
//! silence) — and an accept path that ends with establishment.

use dlion_core::messages::encode_frame;
use dlion_core::{ExchangeTransport, ManualClock, TransportError};
use dlion_net::{loopback_mesh, TcpOpts, TcpTransport, KIND_ACK};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

fn opts(queue_cap: usize) -> TcpOpts {
    TcpOpts {
        queue_cap,
        establish_timeout: TIMEOUT,
        ..Default::default()
    }
}

fn frame(tag: u8, seq: u32) -> Vec<u8> {
    let mut body = vec![tag];
    body.extend_from_slice(&seq.to_le_bytes());
    encode_frame(KIND_ACK, &body)
}

fn body_of(frame: &[u8]) -> (u8, u32) {
    let (_, body) = dlion_core::messages::decode_frame(frame).expect("valid frame");
    (body[0], u32::from_le_bytes(body[1..5].try_into().unwrap()))
}

#[test]
fn three_node_mesh_routes_all_pairs_in_fifo_order() {
    const K: u32 = 50;
    // The endpoints outlive the scope: one that is done must not close its
    // links while the others still receive.
    let mut mesh = loopback_mesh(3, 7, &opts(8), None).expect("mesh");
    std::thread::scope(|s| {
        for t in mesh.iter_mut() {
            s.spawn(move || {
                let me = t.me();
                // Send K tagged frames to each peer...
                for seq in 0..K {
                    for j in 0..t.n() {
                        if j != me {
                            t.send_frame(j, frame(me as u8, seq)).expect("send");
                        }
                    }
                }
                // ...and expect K frames from each peer, in order per peer.
                let mut next = vec![0u32; t.n()];
                let mut got = 0;
                while got < K as usize * (t.n() - 1) {
                    let (from, f) = t
                        .recv_frame_timeout(TIMEOUT)
                        .expect("recv")
                        .expect("frame before timeout");
                    let (tag, seq) = body_of(&f);
                    assert_eq!(tag as usize, from, "frame routed from wrong peer");
                    assert_eq!(seq, next[from], "per-peer FIFO order violated");
                    next[from] += 1;
                    got += 1;
                }
            });
        }
    });
}

#[test]
fn tiny_send_queue_applies_backpressure_without_loss() {
    const K: u32 = 200;
    // queue_cap 1: the sender must block on the writer thread, not drop.
    let mut mesh = loopback_mesh(2, 11, &opts(1), None).expect("mesh");
    let mut receiver = mesh.pop().expect("node 1");
    let mut sender = mesh.pop().expect("node 0");
    std::thread::scope(|s| {
        s.spawn(move || {
            for seq in 0..K {
                sender.send_frame(1, frame(0, seq)).expect("send");
            }
        });
        // Drain slowly enough that the queue saturates.
        for expect in 0..K {
            if expect % 37 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let (from, f) = receiver
                .recv_frame_timeout(TIMEOUT)
                .expect("recv")
                .expect("frame before timeout");
            assert_eq!(from, 0);
            assert_eq!(body_of(&f), (0, expect));
        }
    });
}

#[test]
fn dropping_a_transport_flushes_queued_frames() {
    let mut mesh = loopback_mesh(2, 13, &opts(64), None).expect("mesh");
    let mut receiver = mesh.pop().expect("node 1");
    let mut sender = mesh.pop().expect("node 0");
    // Queue frames and drop the endpoint immediately: the writer thread
    // must flush them before the socket closes (the Done barrier depends
    // on exactly this).
    for seq in 0..10 {
        sender.send_frame(1, frame(0, seq)).expect("send");
    }
    drop(sender);
    for expect in 0..10 {
        let (from, f) = receiver
            .recv_frame_timeout(TIMEOUT)
            .expect("recv")
            .expect("frame before timeout");
        assert_eq!(from, 0);
        assert_eq!(body_of(&f), (0, expect));
    }
}

#[test]
fn dead_peer_surfaces_as_peer_disconnected_once() {
    let mut mesh = loopback_mesh(3, 17, &opts(8), None).expect("mesh");
    let t2 = mesh.pop().expect("node 2");
    let mut t1 = mesh.pop().expect("node 1");
    let mut t0 = mesh.pop().expect("node 0");
    // Worker 1 sends a frame, then "crashes" (drop closes its sockets).
    t1.send_frame(0, frame(1, 0)).expect("send");
    drop(t1);
    // The frame sent before the crash still arrives (gone-notes cannot
    // overtake frames)...
    let (from, f) = t0
        .recv_frame_timeout(TIMEOUT)
        .expect("recv")
        .expect("frame before timeout");
    assert_eq!((from, body_of(&f)), (1, (1, 0)));
    // ...then the disconnect is reported exactly once, not on every poll.
    match t0.recv_frame_timeout(TIMEOUT) {
        Err(TransportError::PeerDisconnected { peer: 1 }) => {}
        other => panic!("expected PeerDisconnected from 1, got {other:?}"),
    }
    assert!(matches!(
        t0.recv_frame_timeout(Duration::from_millis(100)),
        Ok(None)
    ));
    // Sends to the dead peer fail fast instead of blocking.
    assert!(matches!(
        t0.send_frame(1, frame(0, 0)),
        Err(TransportError::PeerGone(1))
    ));
    // The surviving link keeps working.
    drop(t2);
}

#[test]
fn silent_peer_surfaces_as_peer_timeout_once_and_rearms() {
    // The silence watchdog reads the injected clock, so the test declares
    // "100ms of silence have passed" instead of sleeping through it —
    // no real waits, no flakiness on a loaded machine.
    let clock = Arc::new(ManualClock::new());
    let topts = TcpOpts {
        queue_cap: 8,
        establish_timeout: TIMEOUT,
        peer_timeout: Some(Duration::from_millis(100)),
        clock: Arc::clone(&clock) as Arc<dyn dlion_core::Clock>,
        instrument: false,
        ranks: None,
    };
    let mut mesh = loopback_mesh(2, 19, &topts, None).expect("mesh");
    let mut t1 = mesh.pop().expect("node 1");
    let mut t0 = mesh.pop().expect("node 0");
    // Nothing from peer 1 past the 100ms window: a timeout, exactly once.
    clock.advance(0.15);
    match t0.recv_frame_timeout(Duration::from_millis(10)) {
        Err(TransportError::PeerTimeout { peer: 1 }) => {}
        other => panic!("expected PeerTimeout from 1, got {other:?}"),
    }
    assert!(matches!(
        t0.recv_frame_timeout(Duration::from_millis(10)),
        Ok(None)
    ));
    // Contact re-arms the detector: a frame clears the reported flag...
    t1.send_frame(0, frame(1, 7)).expect("send");
    let (from, f) = t0
        .recv_frame_timeout(TIMEOUT)
        .expect("recv")
        .expect("frame before timeout");
    assert_eq!((from, body_of(&f)), (1, (1, 7)));
    // ...and a fresh silence is reported again.
    clock.advance(0.15);
    assert!(matches!(
        t0.recv_frame_timeout(Duration::from_millis(10)),
        Err(TransportError::PeerTimeout { peer: 1 })
    ));
}

/// One accept path, through establishment only: the acceptor runs from
/// before an endpoint's own first dial, so a higher-numbered peer that
/// dials while the endpoint is still dialing downwards is wired at once —
/// exactly once, and without its Hello being surfaced. Once establishment
/// returns, nothing listens any more: a dial is refused, and the live
/// links still carry traffic both ways.
#[test]
fn early_dialer_joins_once_and_later_dials_are_refused() {
    use std::io::ErrorKind;
    use std::net::{TcpListener, TcpStream};
    const SEED: u64 = 29;
    // A 0–1–2 chain. Endpoint 0's address is reserved but not bound yet,
    // so endpoint 1 sits in its dial loop while endpoint 2 dials *it*.
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind");
    let (l1, l2) = (bind(), bind());
    let a0 = bind().local_addr().expect("addr");
    let addrs = [a0, l1.local_addr().unwrap(), l2.local_addr().unwrap()];
    let links = [
        [false, true, false],
        [true, false, true],
        [false, true, false],
    ];
    let o = opts(8);
    std::thread::scope(|s| {
        let h1 = s.spawn(|| TcpTransport::establish_linked(1, l1, &addrs, SEED, &o, &links[1]));
        let one = |endpoints: Vec<TcpTransport>| endpoints.into_iter().next().expect("one rank");
        // The top endpoint only dials; it is up while 1 is still dialing 0.
        let mut t2 = one(
            TcpTransport::establish_linked(2, l2, &addrs, SEED, &o, &links[2]).expect("node 2"),
        );
        t2.send_frame(1, frame(2, 7))
            .expect("send to an establishing peer");
        let l0 = TcpListener::bind(a0).expect("bind the reserved address");
        let t0 = one(
            TcpTransport::establish_linked(0, l0, &addrs, SEED, &o, &links[0]).expect("node 0"),
        );
        let mut t1 = one(h1.join().expect("thread").expect("node 1"));
        // 2's frame arrives once; its establishment-time Hello never does.
        let (from, f) = t1
            .recv_frame_timeout(TIMEOUT)
            .expect("recv")
            .expect("frame");
        assert_eq!((from, body_of(&f)), (2, (2, 7)));
        assert!(matches!(t1.try_recv_frame(), Ok(None)));

        // Every acceptor returned and closed its listener (endpoint 2,
        // awaiting nobody, never started one): a dial is refused...
        for addr in addrs {
            let refused = TcpStream::connect(addr).expect_err("a dial was accepted");
            assert_eq!(refused.kind(), ErrorKind::ConnectionRefused, "{addr}");
        }
        // ...nothing is surfaced, and the real links still carry traffic
        // both ways.
        assert!(matches!(t1.try_recv_frame(), Ok(None)));
        t1.send_frame(2, frame(1, 9)).expect("send");
        let (from, f) = t2
            .recv_frame_timeout(TIMEOUT)
            .expect("recv")
            .expect("frame");
        assert_eq!((from, body_of(&f)), (1, (1, 9)));
        t2.send_frame(1, frame(2, 8)).expect("send");
        let (from, f) = t1
            .recv_frame_timeout(TIMEOUT)
            .expect("recv")
            .expect("frame");
        assert_eq!((from, body_of(&f)), (2, (2, 8)));
        drop(t0);
    });
}
