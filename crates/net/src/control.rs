//! The net-level control protocol: the one place a control frame's body is
//! written or read (DESIGN.md §4o). Everything else under `crates/net/src`
//! builds a [`Control`] and calls [`Control::to_frame`], or calls
//! [`Control::decode`] and matches on the result.
//!
//! ## Control frames (normative)
//!
//! Five frame kinds ride on top of the payload codec, all at or above
//! [`KIND_NET_BASE`] so `Payload::from_wire` can never mistake one for a
//! training payload. All integers are little-endian; a body of any other
//! length than the one listed is a [`LiveError::Protocol`] error, and so is
//! a value the last column rules out. `ranks` is the cluster's rank count,
//! which the decoding side knows.
//!
//! | kind | variant | body | role | refused when |
//! |------|---------|------|------|--------------|
//! | `0x10` [`KIND_HELLO`] | [`Control::Hello`] | `id u32, n u32, seed u64, base u32, count u32, total u32` (28 bytes) | mesh handshake (dialer → acceptor): endpoint `id` of an `n`-endpoint mesh with run seed `seed` speaks for ranks `base..base+count` of a `total`-rank cluster. A flat endpoint is its own rank and announces the identity block `{id, 1, n}` ([`RankHello::flat`]). Establishment only: the driver refuses one that arrives later | `id >= n`, `count == 0`, `base + count` overflows or exceeds `total`, `total != ranks` |
//! | `0x11` [`KIND_ACK`] | [`Control::Ack`] | empty | delivery acknowledgement for one gradient message (drives `SyncState::on_delivered_from`, i.e. Gaia's `BlockOnDelivery`) | — |
//! | `0x12` [`KIND_DONE`] | [`Control::Done`] | empty | shutdown barrier: the sender finished all its iterations; per-peer FIFO guarantees every earlier gradient already arrived | — |
//! | `0x13` [`KIND_RCP`] | [`Control::Rcp`] | `round u64, rcp f64` | LBS/GBS exchange: the sender's relative compute power (Eq. 5) for adjustment round `round` (0 = start-up profiling) | `rcp` is not finite and `> 0` (`partition_gbs` divides by the sum) |
//! | `0x17` [`KIND_ROUTE`] | [`Control::Route`] | `src u32, dst u32` | rank-address marker on a ranked host link: the *next* frame on this link travels from rank `src` to rank `dst`; the writer puts it in the same job as that frame, the reader takes it only if `src` lives on the sending host and `dst` on its own (see [`crate::tcp`]); never appears on a flat mesh | `src >= ranks` or `dst >= ranks` |
//!
//! Kinds `0x14`, `0x15` and `0x16` are retired and refused like any
//! unknown kind. They were a net-level departure notice (a departure is
//! `Payload::Leave` on both backends), the reply that let a rank back in
//! after its Leave (a rejoining kill is a pause on both backends, and a
//! paused rank never leaves), and a health report nobody read.

use crate::LiveError;
use dlion_core::messages::{decode_frame, encode_frame, KIND_NET_BASE};

/// Mesh handshake (establishment only).
pub const KIND_HELLO: u8 = KIND_NET_BASE;
/// Per-gradient delivery acknowledgement.
pub const KIND_ACK: u8 = KIND_NET_BASE + 1;
/// Shutdown barrier: "I finished my iterations".
pub const KIND_DONE: u8 = KIND_NET_BASE + 2;
/// RCP exchange (start-up profiling and periodic GBS adjustment rounds).
pub const KIND_RCP: u8 = KIND_NET_BASE + 3;
/// Rank-address marker on a host-to-host link.
pub const KIND_ROUTE: u8 = KIND_NET_BASE + 7;

/// The rank block an endpoint announces in its Hello: "I speak for ranks
/// `base..base+count` of a `total`-rank cluster".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankHello {
    /// First global rank homed on this endpoint.
    pub base: u32,
    /// How many consecutive ranks the endpoint speaks for.
    pub count: u32,
    /// Total ranks in the cluster (every endpoint must agree).
    pub total: u32,
}

impl RankHello {
    /// The identity block of endpoint `id` in a flat `n`-endpoint mesh:
    /// every endpoint is exactly its own rank.
    pub fn flat(id: usize, n: usize) -> RankHello {
        RankHello {
            base: wire_u32(id),
            count: 1,
            total: wire_u32(n),
        }
    }
}

/// One control message (see the module table).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Control {
    Hello {
        id: usize,
        n: usize,
        seed: u64,
        ranks: RankHello,
    },
    Ack,
    Done,
    Rcp {
        round: u64,
        rcp: f64,
    },
    Route {
        src: usize,
        dst: usize,
    },
}

/// Ids and counts travel as `u32`; one that does not fit is a bug here,
/// never something a peer sent.
fn wire_u32(x: usize) -> u32 {
    u32::try_from(x).expect("rank ids and counts fit the wire's u32")
}

impl Control {
    /// The frame kind byte this message travels under.
    pub fn kind(&self) -> u8 {
        match self {
            Control::Hello { .. } => KIND_HELLO,
            Control::Ack => KIND_ACK,
            Control::Done => KIND_DONE,
            Control::Rcp { .. } => KIND_RCP,
            Control::Route { .. } => KIND_ROUTE,
        }
    }

    /// Encode as one plain frame. Encoding does not validate: what a peer
    /// may not send is [`Control::decode`]'s to refuse.
    pub fn to_frame(&self) -> Vec<u8> {
        // Room for the longest body, a Hello's.
        let mut body = [0u8; 28];
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            body[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        match *self {
            Control::Hello { id, n, seed, ranks } => {
                put(&wire_u32(id).to_le_bytes());
                put(&wire_u32(n).to_le_bytes());
                put(&seed.to_le_bytes());
                put(&ranks.base.to_le_bytes());
                put(&ranks.count.to_le_bytes());
                put(&ranks.total.to_le_bytes());
            }
            Control::Ack | Control::Done => {}
            Control::Rcp { round, rcp } => {
                put(&round.to_le_bytes());
                put(&rcp.to_le_bytes());
            }
            Control::Route { src, dst } => {
                put(&wire_u32(src).to_le_bytes());
                put(&wire_u32(dst).to_le_bytes());
            }
        }
        encode_frame(self.kind(), &body[..len])
    }

    /// The one decode: a verified frame's kind and body to a message whose
    /// every value is safe to act on, in a cluster of `ranks` ranks. Never
    /// panics; an `Ok` re-encodes to exactly the bytes it came from.
    pub fn decode(kind: u8, body: &[u8], ranks: usize) -> Result<Control, LiveError> {
        // Every field is a whole number of little-endian 32-bit words.
        let (words, odd) = body.as_chunks::<4>();
        let w = |i: usize| u32::from_le_bytes(words[i]);
        let w64 = |i: usize| u64::from(w(i)) | u64::from(w(i + 1)) << 32;
        let msg = match (kind, words.len(), odd.len()) {
            (KIND_HELLO, 7, 0) => Control::Hello {
                id: w(0) as usize,
                n: w(1) as usize,
                seed: w64(2),
                ranks: RankHello {
                    base: w(4),
                    count: w(5),
                    total: w(6),
                },
            },
            (KIND_ACK, 0, 0) => Control::Ack,
            (KIND_DONE, 0, 0) => Control::Done,
            (KIND_RCP, 4, 0) => Control::Rcp {
                round: w64(0),
                rcp: f64::from_bits(w64(2)),
            },
            (KIND_ROUTE, 2, 0) => Control::Route {
                src: w(0) as usize,
                dst: w(1) as usize,
            },
            _ => {
                let len = body.len();
                return Err(LiveError::Protocol(format!(
                    "control kind {kind:#x} with a {len}-byte body"
                )));
            }
        };
        let usable = match msg {
            Control::Hello {
                id, n, ranks: b, ..
            } => {
                let end = b.base.checked_add(b.count);
                let block_ok = b.count > 0 && end.is_some_and(|end| end <= b.total);
                id < n && block_ok && b.total as usize == ranks
            }
            Control::Rcp { rcp, .. } => rcp.is_finite() && rcp > 0.0,
            Control::Route { src, dst } => src < ranks && dst < ranks,
            Control::Ack | Control::Done => true,
        };
        if !usable {
            return Err(LiveError::Protocol(format!(
                "{msg:?} in a {ranks}-rank cluster"
            )));
        }
        Ok(msg)
    }

    /// [`Control::decode`] of a plain frame, as [`Control::to_frame`] makes
    /// them (control frames are never chunked).
    pub fn from_frame(frame: &[u8], ranks: usize) -> Result<Control, LiveError> {
        let (kind, body) = decode_frame(frame)?;
        Control::decode(kind, body, ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_core::messages::{Payload, FRAME_HEADER_BYTES};
    use dlion_tensor::DetRng;

    const RANKS: usize = 64;

    /// One of every variant, valid in a [`RANKS`]-rank cluster.
    fn samples() -> Vec<Control> {
        vec![
            Control::Hello {
                id: 1,
                n: 16,
                seed: 42,
                ranks: RankHello {
                    base: 4,
                    count: 4,
                    total: RANKS as u32,
                },
            },
            Control::Hello {
                id: 3,
                n: RANKS,
                seed: u64::MAX,
                ranks: RankHello::flat(3, RANKS),
            },
            Control::Ack,
            Control::Done,
            Control::Rcp { round: 7, rcp: 1.5 },
            Control::Route { src: 3, dst: 61 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in samples() {
            let frame = msg.to_frame();
            assert_eq!(frame[6], msg.kind(), "{msg:?}");
            assert_eq!(Control::from_frame(&frame, RANKS).unwrap(), msg);
            // Control kinds are outside the payload space: the payload
            // decoder must refuse them rather than misread one as training
            // traffic.
            assert!(msg.kind() >= KIND_NET_BASE);
            assert!(Payload::from_wire(&frame, &mut Vec::new()).is_err());
        }
        let grad = Payload::DktRequest.to_wire(&Default::default());
        assert!(Control::from_frame(&grad, RANKS).is_err());
    }

    /// Frames recorded from the helpers this module replaced (`hello_body_ranked`,
    /// `rcp_body`, `route_frame`, …) at `d9d6646`: the wire did not move.
    #[test]
    fn frames_are_byte_identical_to_the_recorded_ones() {
        let recorded: [(Control, &[u8]); 5] = [
            (
                Control::Ack,
                &[
                    68, 76, 87, 70, 3, 0, 17, 0, 0, 0, 0, 0, 204, 89, 145, 13, 194, 76, 200, 138,
                ],
            ),
            (
                Control::Done,
                &[
                    68, 76, 87, 70, 3, 0, 18, 0, 0, 0, 0, 0, 102, 97, 94, 251, 136, 5, 24, 4,
                ],
            ),
            (
                Control::Rcp { round: 7, rcp: 1.5 },
                &[
                    68, 76, 87, 70, 3, 0, 19, 0, 16, 0, 0, 0, 117, 206, 88, 178, 53, 139, 142, 151,
                    7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 248, 63,
                ],
            ),
            (
                Control::Route { src: 3, dst: 61 },
                &[
                    68, 76, 87, 70, 3, 0, 23, 0, 8, 0, 0, 0, 17, 190, 227, 217, 180, 70, 9, 6, 3,
                    0, 0, 0, 61, 0, 0, 0,
                ],
            ),
            (
                Control::Hello {
                    id: 1,
                    n: 2,
                    seed: 42,
                    ranks: RankHello {
                        base: 4,
                        count: 4,
                        total: 8,
                    },
                },
                &[
                    68, 76, 87, 70, 3, 0, 16, 0, 28, 0, 0, 0, 40, 236, 111, 47, 115, 163, 178, 47,
                    1, 0, 0, 0, 2, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 8, 0,
                    0, 0,
                ],
            ),
        ];
        for (msg, bytes) in recorded {
            assert_eq!(msg.to_frame(), bytes, "{msg:?}");
            let ranks = if matches!(msg, Control::Hello { .. }) {
                8
            } else {
                RANKS
            };
            assert_eq!(Control::from_frame(bytes, ranks).unwrap(), msg);
        }
    }

    #[test]
    fn the_16_byte_hello_is_gone() {
        // `id 3, n 8, seed 42`, as the retired flat shape framed it.
        let flat16: &[u8] = &[
            68, 76, 87, 70, 3, 0, 16, 0, 16, 0, 0, 0, 198, 102, 236, 167, 3, 100, 191, 64, 3, 0, 0,
            0, 8, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert!(matches!(
            Control::from_frame(flat16, 8),
            Err(LiveError::Protocol(_))
        ));
        // What a flat endpoint announces now: itself.
        let flat = RankHello::flat(3, 8);
        assert_eq!((flat.base, flat.count, flat.total), (3, 1, 8));
    }

    #[test]
    fn values_are_checked_where_they_are_decoded() {
        let refused = |msg: Control, ranks: usize| {
            let got = Control::from_frame(&msg.to_frame(), ranks);
            assert!(
                matches!(got, Err(LiveError::Protocol(_))),
                "{msg:?}: {got:?}"
            );
        };
        for rcp in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            refused(Control::Rcp { round: 0, rcp }, RANKS);
        }
        let hello = |id, n, base, count, total| Control::Hello {
            id,
            n,
            seed: 1,
            ranks: RankHello { base, count, total },
        };
        assert!(Control::from_frame(&hello(1, 2, 4, 4, 8).to_frame(), 8).is_ok());
        refused(hello(2, 2, 4, 4, 8), 8); // id outside the mesh
        refused(hello(1, 2, 4, 0, 8), 8); // empty block
        refused(hello(1, 2, 6, 4, 8), 8); // block past the cluster
        refused(hello(1, 2, u32::MAX, 2, 8), 8); // base + count overflows
        refused(hello(1, 2, 4, 4, 8), 16); // another cluster's size
        assert!(Control::from_frame(&Control::Route { src: 7, dst: 0 }.to_frame(), 8).is_ok());
        refused(Control::Route { src: 8, dst: 0 }, 8);
        refused(Control::Route { src: 0, dst: 8 }, 8);
        // Retired and unknown kinds, and payload kinds.
        for kind in [0x14, 0x15, 0x16, 0x18, 0xff, 0x01] {
            assert!(Control::decode(kind, &[], RANKS).is_err(), "{kind:#x}");
        }
    }

    /// `decode` on `(kind, body)`: must not panic, and whatever it accepts
    /// must re-encode to exactly the input.
    fn check(kind: u8, body: &[u8]) {
        if let Ok(msg) = Control::decode(kind, body, RANKS) {
            let frame = msg.to_frame();
            assert_eq!(frame[6], kind, "{msg:?}");
            assert_eq!(&frame[FRAME_HEADER_BYTES..], body, "{msg:?}");
        }
    }

    #[test]
    fn mutated_and_random_bodies_never_panic_and_accepted_ones_re_encode() {
        let mut rng = DetRng::seed_from_u64(0xC0DEC);
        for msg in samples() {
            let frame = msg.to_frame();
            let (kind, body) = (msg.kind(), &frame[FRAME_HEADER_BYTES..]);
            check(kind, body);
            for cut in 0..body.len() {
                assert!(Control::decode(kind, &body[..cut], RANKS).is_err());
            }
            for extra in 0..=255u8 {
                let longer = [body, &[extra]].concat();
                assert!(Control::decode(kind, &longer, RANKS).is_err());
            }
            for at in 0..body.len() {
                for byte in 0..=255u8 {
                    let mut changed = body.to_vec();
                    changed[at] = byte;
                    check(kind, &changed);
                }
            }
        }
        for _ in 0..10_000 {
            // Half the draws land on a live kind, where length alone does
            // not decide.
            let kind = if rng.index(2) == 0 {
                KIND_NET_BASE + rng.index(8) as u8
            } else {
                rng.index(256) as u8
            };
            let body: Vec<u8> = (0..rng.index(65)).map(|_| rng.index(256) as u8).collect();
            check(kind, &body);
        }
    }
}
