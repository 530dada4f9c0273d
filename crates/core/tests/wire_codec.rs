//! Property tests for the wire codec: every payload variant round-trips
//! bit-exactly (including empty tensors, max-index sparse entries and
//! non-finite floats), every corruption is a recoverable error, and the
//! simulator's byte accounting matches real encoded frame lengths under the
//! documented scaling.
//!
//! Like the tensor crate's property suites, these sweep many deterministic
//! pseudo-random cases with a seeded `DetRng` instead of an external
//! proptest dependency.

use dlion_core::messages::{
    chunk_checksum, decode_frame, decode_wire, encode_frame, frame_checksum, GradData, GradMsg,
    Payload, WireCfg, WireError, WireFormat, CHUNK_HEADER_BYTES, CONTROL_BYTES,
    ENC_DENSE_ENTRY_BYTES, ENC_SPARSE_ENTRY_BYTES, FRAME_HEADER_BYTES, KIND_GRAD,
    MAX_FRAME_BODY_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
use dlion_tensor::shape::MAX_RANK;
use dlion_tensor::{DetRng, Shape, SparseVec, Tensor};

/// One plain frame whatever the body size: the canonical bytes the tests
/// below compare payloads by.
const PLAIN: WireCfg = WireCfg {
    format: WireFormat::Dense,
    chunk_bytes: usize::MAX,
};

/// A random tensor, sometimes empty, sometimes rank-0, sometimes carrying
/// non-finite values (NaN with a specific bit pattern, ±inf).
fn rand_tensor(rng: &mut DetRng) -> Tensor {
    let rank = rng.index(4); // 0..=3
    let dims: Vec<usize> = (0..rank)
        .map(|_| {
            if rng.uniform() < 0.15 {
                0 // empty axis
            } else {
                1 + rng.index(6)
            }
        })
        .collect();
    let shape = Shape::new(&dims);
    let n = shape.numel();
    let data: Vec<f32> = (0..n).map(|_| rand_value(rng)).collect();
    Tensor::from_vec(shape, data)
}

fn rand_value(rng: &mut DetRng) -> f32 {
    match rng.index(12) {
        0 => f32::NAN,
        1 => f32::from_bits(0x7fc0_1234), // NaN with payload bits
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        _ => rng.uniform_range(-1e6, 1e6) as f32,
    }
}

/// A random sparse vector with sorted indices; sometimes empty, and biased
/// to include the maximum representable index (`dense_len - 1`).
fn rand_sparse(rng: &mut DetRng) -> SparseVec {
    let dense_len = 1 + rng.index(200);
    let want = rng.index(dense_len + 1);
    let mut indices: Vec<u32> = Vec::new();
    for i in 0..dense_len {
        if indices.len() < want && rng.uniform() < 0.5 {
            indices.push(i as u32);
        }
    }
    if rng.uniform() < 0.5 && indices.last() != Some(&((dense_len - 1) as u32)) {
        indices.push((dense_len - 1) as u32); // max-index entry
    }
    let values: Vec<f32> = indices.iter().map(|_| rand_value(rng)).collect();
    SparseVec {
        indices,
        values,
        dense_len,
    }
}

fn rand_payload(rng: &mut DetRng) -> Payload {
    match rng.index(5) {
        0 => Payload::Grad(GradMsg {
            iteration: rng.next_u64(),
            lbs: rng.index(4096),
            n_used: rng.uniform_range(0.0, 100.0),
            data: GradData::Dense((0..rng.index(5)).map(|_| rand_tensor(rng)).collect()),
        }),
        1 => Payload::Grad(GradMsg {
            iteration: rng.next_u64(),
            lbs: rng.index(4096),
            n_used: rng.uniform_range(0.0, 100.0),
            data: GradData::Sparse((0..rng.index(5)).map(|_| rand_sparse(rng)).collect()),
        }),
        2 => Payload::LossShare {
            avg_loss: if rng.uniform() < 0.2 {
                f64::NAN
            } else {
                rng.uniform_range(-10.0, 10.0)
            },
        },
        3 => Payload::DktRequest,
        _ => Payload::Weights {
            weights: (0..rng.index(4)).map(|_| rand_tensor(rng)).collect(),
            sender_loss: rng.uniform_range(0.0, 10.0),
        },
    }
}

/// Bit-exact equality (f32 `==` treats NaN != NaN and -0.0 == 0.0; the wire
/// must preserve exact bit patterns).
fn bits_eq(a: &Payload, b: &Payload) -> bool {
    a.to_wire(&PLAIN) == b.to_wire(&PLAIN)
}

#[test]
fn every_variant_round_trips_bit_exactly() {
    for case in 0..256u64 {
        let mut rng = DetRng::seed_from_u64(case);
        let p = rand_payload(&mut rng);
        let frame = p.to_wire(&PLAIN);
        assert_eq!(
            frame.len(),
            p.wire_len(&PLAIN),
            "case {case}: wire_len mismatch for {}",
            p.kind()
        );
        let back = Payload::from_wire(&frame, &mut Vec::new())
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert!(
            bits_eq(&p, &back),
            "case {case}: round trip not bit-exact for {}",
            p.kind()
        );
    }
}

#[test]
fn every_truncation_is_an_error_never_a_panic() {
    for case in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(1000 + case);
        let frame = rand_payload(&mut rng).to_wire(&PLAIN);
        for len in 0..frame.len() {
            assert!(
                Payload::from_wire(&frame[..len], &mut Vec::new()).is_err(),
                "case {case}: truncation to {len}/{} decoded",
                frame.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    // The checksum covers the header prefix (magic/version/kind/len) as
    // well as the body, so no single-byte corruption can survive decode.
    for case in 0..32u64 {
        let mut rng = DetRng::seed_from_u64(2000 + case);
        let frame = rand_payload(&mut rng).to_wire(&PLAIN);
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = frame.clone();
                bad[pos] ^= flip;
                assert!(
                    Payload::from_wire(&bad, &mut Vec::new()).is_err(),
                    "case {case}: flip {flip:#x} at byte {pos} decoded"
                );
            }
        }
    }
}

#[test]
fn garbage_bytes_never_panic() {
    for case in 0..256u64 {
        let mut rng = DetRng::seed_from_u64(3000 + case);
        let len = rng.index(256);
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Payload::from_wire(&junk, &mut Vec::new()); // must return, not panic
    }
    // Adversarial header: valid magic/version but an absurd length field.
    let mut frame = encode_frame(KIND_GRAD, &[0u8; 4]);
    frame[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Payload::from_wire(&frame, &mut Vec::new()),
        Err(WireError::Oversize(n)) if n > MAX_FRAME_BODY_BYTES
    ));
}

#[test]
fn header_fields_are_validated() {
    let good = Payload::DktRequest.to_wire(&PLAIN);
    assert_eq!(&good[0..4], &WIRE_MAGIC);
    assert_eq!(
        u16::from_le_bytes([good[4], good[5]]),
        WIRE_VERSION,
        "version field position"
    );

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(Payload::from_wire(&bad_magic, &mut Vec::new()).is_err());

    // A future version must be rejected (not mis-decoded). Rebuild the
    // checksum so the version check, not the checksum, is what fires.
    let mut future = good.clone();
    future[4..6].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
    let sum = dlion_core::messages::frame_checksum(&future[0..12], &[]);
    future[12..20].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        Payload::from_wire(&future, &mut Vec::new()),
        Err(WireError::BadVersion(WIRE_VERSION + 1))
    );

    let mut trailing = good.clone();
    trailing.push(0);
    assert!(Payload::from_wire(&trailing, &mut Vec::new()).is_err());
}

/// A dense gradient body (iteration, LBS, `n_used`, variant 0, one
/// tensor) whose tensor declares `rank` unit dims and holds one value.
fn one_tensor_grad_body(rank: usize) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&32u32.to_le_bytes());
    body.extend_from_slice(&100f64.to_le_bytes());
    body.push(0);
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(rank as u8);
    for _ in 0..rank {
        body.extend_from_slice(&1u32.to_le_bytes());
    }
    body.extend_from_slice(&1.5f32.to_le_bytes());
    body
}

/// The decoder's rank bound is the shape's: a tensor declaring one dim
/// more than `MAX_RANK` is malformed (never a panic in `Shape::new`),
/// and one at `MAX_RANK` decodes.
#[test]
fn a_tensor_rank_above_max_rank_is_malformed() {
    let at = Payload::from_wire(
        &encode_frame(KIND_GRAD, &one_tensor_grad_body(MAX_RANK)),
        &mut Vec::new(),
    );
    let Ok(Payload::Grad(GradMsg {
        data: GradData::Dense(vars),
        ..
    })) = at
    else {
        panic!("rank {MAX_RANK} did not decode: {at:?}");
    };
    assert_eq!(vars[0].shape().dims(), &[1; MAX_RANK]);
    assert_eq!(vars[0].data(), &[1.5]);
    let above = encode_frame(KIND_GRAD, &one_tensor_grad_body(MAX_RANK + 1));
    assert_eq!(
        Payload::from_wire(&above, &mut Vec::new()).err(),
        Some(WireError::Malformed("tensor rank too large"))
    );
}

/// A rank-`MAX_RANK` tensor round-trips bit-exactly as a gradient, in
/// every gradient wire format, and as a DKT weight transfer.
#[test]
fn a_max_rank_tensor_round_trips() {
    let mut rng = DetRng::seed_from_u64(11);
    let dims: Vec<usize> = (0..MAX_RANK).map(|i| 2 + i).collect();
    let t = Tensor::randn(Shape::new(&dims), 1.0, &mut rng);
    let grad = Payload::Grad(GradMsg {
        iteration: 3,
        lbs: 16,
        data: GradData::Dense(vec![t.clone()]),
        n_used: 100.0,
    });
    let weights = Payload::Weights {
        weights: vec![t],
        sender_loss: 0.25,
    };
    for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
        let cfg = WireCfg { format, ..PLAIN };
        for p in [&grad, &weights] {
            let frame = p.to_wire(&cfg);
            let back = Payload::from_wire(&frame, &mut Vec::new())
                .unwrap_or_else(|e| panic!("{format:?} {}: {e}", p.kind()));
            assert_eq!(back.to_wire(&cfg), frame, "{format:?} {}", p.kind());
            let shapes = match &back {
                Payload::Grad(GradMsg {
                    data: GradData::Dense(v),
                    ..
                }) => v.iter().map(|t| *t.shape()).collect::<Vec<_>>(),
                Payload::Weights { weights, .. } => weights.iter().map(|t| *t.shape()).collect(),
                other => panic!("decoded as {}", other.kind()),
            };
            assert_eq!(shapes, vec![Shape::new(&dims)]);
        }
    }
}

#[test]
fn frame_level_decode_exposes_kind_and_body() {
    let body = vec![7u8, 8, 9];
    let frame = encode_frame(0x33, &body);
    let (kind, got) = decode_frame(&frame).unwrap();
    assert_eq!(kind, 0x33);
    assert_eq!(got, &body[..]);
}

// ------------------------------------------------------------------
// Satellite: simulated byte counts vs. real encoded lengths.
// ------------------------------------------------------------------
//
// The simulator charges *scaled* bytes: a model pins `wire_bytes` (5 MB for
// Cipher) so `bytes_per_param = wire_bytes / num_params`, standing in for
// the paper's much larger real models. At the codec's native scale
// (`bytes_per_param == ENC_DENSE_ENTRY_BYTES`), simulated gradient value
// bytes must equal the encoded value bytes exactly, with only the fixed
// header + shape framing on top; control messages are charged their exact
// frame sizes at any scale.

#[test]
fn simulated_bytes_match_encoded_lengths_at_native_scale() {
    for case in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(4000 + case);
        for sparse in [false, true] {
            let msg = GradMsg {
                iteration: 1,
                lbs: 32,
                n_used: 50.0,
                data: if sparse {
                    GradData::Sparse(
                        (0..1 + rng.index(4))
                            .map(|_| rand_sparse(&mut rng))
                            .collect(),
                    )
                } else {
                    GradData::Dense(
                        (0..1 + rng.index(4))
                            .map(|_| rand_tensor(&mut rng))
                            .collect(),
                    )
                },
            };
            let total_params: usize = match &msg.data {
                GradData::Dense(vars) => vars.iter().map(|t| t.numel()).sum(),
                GradData::Sparse(vars) => vars.iter().map(|v| v.dense_len).sum(),
            };
            let p = Payload::Grad(msg.clone());
            let sim = p.wire_bytes(ENC_DENSE_ENTRY_BYTES as f64, total_params);
            let real = p.wire_len(&PLAIN) as f64;
            // Entry bytes are charged exactly...
            let entry_bytes = if sparse {
                (msg.entries() * ENC_SPARSE_ENTRY_BYTES) as f64
            } else {
                (total_params * ENC_DENSE_ENTRY_BYTES) as f64
            };
            assert_eq!(sim, entry_bytes, "case {case} sparse={sparse}");
            // ...and the real frame adds only fixed per-message/per-var
            // framing: header + metadata + per-variable shape prefixes.
            let vars = match &msg.data {
                GradData::Dense(v) => v.len(),
                GradData::Sparse(v) => v.len(),
            };
            let max_framing = (FRAME_HEADER_BYTES + 25 + vars * (1 + 4 * 8)) as f64;
            assert!(
                real - sim <= max_framing && real >= sim,
                "case {case} sparse={sparse}: sim {sim} vs real {real}"
            );
        }
    }
}

// ------------------------------------------------------------------
// Satellite: chunked streams and quantized formats.
// ------------------------------------------------------------------

/// A dense gradient payload big enough to span several chunks at the
/// test chunk size, with only finite values (for the quantization-bound
/// checks below).
fn big_dense_payload(rng: &mut DetRng, n: usize) -> Payload {
    let data: Vec<f32> = (0..n)
        .map(|_| rng.uniform_range(-8.0, 8.0) as f32)
        .collect();
    Payload::Grad(GradMsg {
        iteration: 7,
        lbs: 32,
        n_used: 100.0,
        data: GradData::Dense(vec![Tensor::from_vec(Shape::d1(n), data)]),
    })
}

#[test]
fn wire_len_matches_streamed_bytes_for_every_kind_and_format() {
    let mut scratch = Vec::new();
    for case in 0..48u64 {
        let mut rng = DetRng::seed_from_u64(5000 + case);
        let p = rand_payload(&mut rng);
        for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
            for chunk_bytes in [64usize, 1 << 12, usize::MAX] {
                let cfg = WireCfg {
                    format,
                    chunk_bytes,
                };
                let stream = p.to_wire(&cfg);
                assert_eq!(
                    stream.len(),
                    p.wire_len(&cfg),
                    "case {case} {format:?} chunk={chunk_bytes}: wire_len"
                );
                let mut out = Vec::new();
                let written = p.write_wire(&mut out, &cfg, &mut scratch).unwrap();
                assert_eq!(written, stream.len(), "case {case}: write_wire count");
                assert_eq!(out, stream, "case {case}: streamed bytes differ");
                let mut dec_scratch = Vec::new();
                Payload::from_wire(&stream, &mut dec_scratch)
                    .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
            }
        }
    }
}

#[test]
fn chunked_streams_reject_truncation_and_bit_flips() {
    let mut rng = DetRng::seed_from_u64(6000);
    let cfg = WireCfg {
        format: WireFormat::Dense,
        chunk_bytes: 1 << 10,
    };
    let stream = big_dense_payload(&mut rng, 3000).to_wire(&cfg);
    assert!(stream.len() > 10 * cfg.chunk_bytes, "must span many chunks");
    let mut scratch = Vec::new();
    for len in 0..stream.len() {
        assert!(
            Payload::from_wire(&stream[..len], &mut scratch).is_err(),
            "truncation to {len}/{} decoded",
            stream.len()
        );
    }
    for pos in 0..stream.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = stream.clone();
            bad[pos] ^= flip;
            assert!(
                Payload::from_wire(&bad, &mut scratch).is_err(),
                "flip {flip:#x} at byte {pos} decoded"
            );
        }
    }
}

#[test]
fn chunked_streams_reject_reordered_chunks() {
    // Swapping two full chunks wholesale keeps every per-chunk payload
    // intact — only the index-seeded chunk checksums can catch it.
    let mut rng = DetRng::seed_from_u64(6100);
    let cfg = WireCfg {
        format: WireFormat::Dense,
        chunk_bytes: 512,
    };
    let p = big_dense_payload(&mut rng, 1500);
    let stream = p.to_wire(&cfg);
    // Chunk 0 and chunk 1 are both full-size: each occupies
    // CHUNK_HEADER_BYTES + chunk_bytes right after the frame header.
    let c = CHUNK_HEADER_BYTES + cfg.chunk_bytes;
    let a = FRAME_HEADER_BYTES;
    let b = a + c;
    assert!(stream.len() > b + c, "need at least two full chunks");
    let mut bad = stream.clone();
    let (first, second) = (stream[a..a + c].to_vec(), stream[b..b + c].to_vec());
    bad[a..a + c].copy_from_slice(&second);
    bad[b..b + c].copy_from_slice(&first);
    let mut scratch = Vec::new();
    assert!(
        Payload::from_wire(&bad, &mut scratch).is_err(),
        "reordered chunks decoded"
    );
    // Sanity: the untouched stream still decodes.
    assert!(Payload::from_wire(&stream, &mut scratch).is_ok());
}

#[test]
fn quantized_round_trip_errors_are_bounded() {
    let mut scratch = Vec::new();
    for case in 0..16u64 {
        let mut rng = DetRng::seed_from_u64(7000 + case);
        let p = big_dense_payload(&mut rng, 500);
        let Payload::Grad(GradMsg {
            data: GradData::Dense(orig),
            ..
        }) = &p
        else {
            unreachable!()
        };
        for format in [WireFormat::Fp16, WireFormat::Int8] {
            let cfg = WireCfg {
                format,
                chunk_bytes: 256,
            };
            let stream = p.to_wire(&cfg);
            let back = Payload::from_wire(&stream, &mut scratch).unwrap();
            let Payload::Grad(GradMsg {
                data: GradData::Dense(vars),
                ..
            }) = &back
            else {
                panic!("case {case}: decoded to a different payload kind")
            };
            for (t0, t1) in orig.iter().zip(vars) {
                let tol_of = |x: f32| match format {
                    // Half precision: 11-bit significand → relative
                    // error ≤ 2^-11, plus an absolute floor for the
                    // subnormal range.
                    WireFormat::Fp16 => x.abs() / 1024.0 + 1e-6,
                    // Int8: error ≤ half a quantization step.
                    _ => t0.max_abs() / 127.0 / 2.0 + 1e-6,
                };
                for (x, y) in t0.data().iter().zip(t1.data()) {
                    assert!(
                        (x - y).abs() <= tol_of(*x),
                        "case {case} {format:?}: {x} -> {y}"
                    );
                }
            }
        }
    }
}

#[test]
fn control_bytes_are_exact_encoded_sizes() {
    let loss = Payload::LossShare { avg_loss: 2.5 };
    let dkt = Payload::DktRequest;
    assert_eq!(CONTROL_BYTES, loss.wire_len(&PLAIN) as f64);
    assert_eq!(
        loss.wire_bytes(357.0, 14_000),
        loss.to_wire(&PLAIN).len() as f64
    );
    assert_eq!(
        dkt.wire_bytes(357.0, 14_000),
        dkt.to_wire(&PLAIN).len() as f64
    );
}

// ------------------------------------------------------------------
// Wire v3: properties of the word-wise lane checksum.
// ------------------------------------------------------------------

/// A ~2 KB dense gradient as one plain frame and as a 3-chunk stream
/// (768-byte chunks: three 256-byte checksum blocks each, so words `j`
/// and `j + 32` of a chunk share a lane).
fn plain_and_chunked() -> (Vec<u8>, Vec<u8>, WireCfg) {
    let mut rng = DetRng::seed_from_u64(8000);
    let p = big_dense_payload(&mut rng, 500);
    let cfg = WireCfg {
        format: WireFormat::Dense,
        chunk_bytes: 768,
    };
    let chunked = p.to_wire(&cfg);
    let body_len = p.body_len_with(cfg.format);
    assert_eq!(body_len.div_ceil(cfg.chunk_bytes), 3, "three chunks");
    (p.to_wire(&PLAIN), chunked, cfg)
}

fn rejects(stream: &[u8]) -> bool {
    decode_wire(stream, &mut Vec::new()).is_err()
}

/// Re-stamp a chunked stream's header checksum after editing its prefix,
/// so only the chunk checksums stand between the edit and the decoder.
fn restamp_chunked_header(stream: &mut [u8]) {
    let sum = frame_checksum(&stream[0..12], &[]);
    stream[12..20].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // Header prefix, checksum field, chunk headers, body: all of them.
    let (plain, chunked, _) = plain_and_chunked();
    for stream in [&plain, &chunked] {
        assert!(!rejects(stream));
        for pos in 0..stream.len() {
            for bit in 0..8 {
                let mut bad = stream.clone();
                bad[pos] ^= 1 << bit;
                assert!(rejects(&bad), "bit {bit} of byte {pos} decoded");
            }
        }
    }
}

#[test]
fn the_same_bit_flipped_in_two_words_of_a_lane_is_rejected() {
    // The blind spot of xor-multiply without the rotate: bit 63 of a word
    // only ever reaches bit 63 of the lane, so the same flip one round
    // later cancels it. Every position, neighbouring and distant rounds.
    let (plain, chunked, _) = plain_and_chunked();
    let first_chunk = FRAME_HEADER_BYTES + CHUNK_HEADER_BYTES;
    for (stream, body_at) in [(&plain, FRAME_HEADER_BYTES), (&chunked, first_chunk)] {
        for (word_a, word_b) in [(0, 32), (5, 69), (31, 63)] {
            for bit in 0..64 {
                let mut bad = stream.clone();
                for word in [word_a, word_b] {
                    bad[body_at + 8 * word + bit / 8] ^= 1 << (bit % 8);
                }
                assert_eq!(
                    decode_wire(&bad, &mut Vec::new()).err(),
                    Some(WireError::ChecksumMismatch),
                    "bit {bit} of words {word_a} and {word_b} cancelled"
                );
            }
        }
    }
    // The same at the function level, on all-zero input (no data bits to
    // hide behind).
    let zeros = [0u8; 1024];
    for bit in 0..64 {
        let mut bad = zeros;
        bad[bit / 8] ^= 1 << (bit % 8);
        bad[256 + bit / 8] ^= 1 << (bit % 8);
        assert_ne!(chunk_checksum(0, &zeros), chunk_checksum(0, &bad), "{bit}");
    }
}

#[test]
fn chunk_order_and_length_are_bound_into_the_digest() {
    let (_, chunked, cfg) = plain_and_chunked();
    let c = CHUNK_HEADER_BYTES + cfg.chunk_bytes;
    let (a, b) = (FRAME_HEADER_BYTES, FRAME_HEADER_BYTES + c);

    // Two intact, equal-length chunks trading places.
    let mut swapped = chunked.clone();
    swapped[a..a + c].copy_from_slice(&chunked[b..b + c]);
    swapped[b..b + c].copy_from_slice(&chunked[a..a + c]);
    assert_eq!(
        decode_wire(&swapped, &mut Vec::new()).err(),
        Some(WireError::ChecksumMismatch)
    );

    // The last chunk grown by zero bytes that the zero-padded final block
    // already implies: lanes unchanged, only the folded length differs.
    let body_len = u32::from_le_bytes(chunked[8..12].try_into().unwrap());
    let last = b + c;
    let last_len = u32::from_le_bytes(chunked[last..last + 4].try_into().unwrap());
    assert_ne!(last_len % 256, 0, "last chunk ends inside a block");
    for extra in [1u32, 7, 8, 256 - last_len % 256] {
        let mut grown = chunked.clone();
        grown.extend(std::iter::repeat_n(0u8, extra as usize));
        grown[8..12].copy_from_slice(&(body_len + extra).to_le_bytes());
        grown[last..last + 4].copy_from_slice(&(last_len + extra).to_le_bytes());
        restamp_chunked_header(&mut grown);
        assert_eq!(
            decode_wire(&grown, &mut Vec::new()).err(),
            Some(WireError::ChecksumMismatch),
            "{extra} appended zero bytes decoded"
        );
    }

    // A chunk cut short at a block boundary, even when what is cut is zeros.
    let mut data = vec![0x5au8; 768];
    data[512..].fill(0);
    let full = chunk_checksum(1, &data);
    assert_ne!(full, chunk_checksum(1, &data[..512]));
    assert_ne!(full, chunk_checksum(1, &data[..767]));
    assert_ne!(chunk_checksum(1, &[]), chunk_checksum(1, &[0]));
    let mut cut = chunked[..a + CHUNK_HEADER_BYTES + 512].to_vec();
    cut.extend_from_slice(&chunked[a + c..]);
    cut[8..12].copy_from_slice(&(body_len - 256).to_le_bytes());
    cut[a..a + 4].copy_from_slice(&512u32.to_le_bytes());
    restamp_chunked_header(&mut cut);
    assert_eq!(
        decode_wire(&cut, &mut Vec::new()).err(),
        Some(WireError::ChecksumMismatch)
    );
}

#[test]
fn frame_checksum_depends_on_every_prefix_byte() {
    let (plain, _, _) = plain_and_chunked();
    let (prefix, body) = (&plain[0..12], &plain[FRAME_HEADER_BYTES..]);
    for body in [body, &[]] {
        let sum = frame_checksum(prefix, body);
        for pos in 0..prefix.len() {
            for bit in 0..8 {
                let mut other = prefix.to_vec();
                other[pos] ^= 1 << bit;
                assert_ne!(sum, frame_checksum(&other, body), "byte {pos} bit {bit}");
            }
        }
    }
}

#[test]
fn a_v2_frame_is_a_version_error() {
    // Stamped 2 and re-summed, so the version check is what fires.
    assert_eq!(WIRE_VERSION, 3);
    let (plain, chunked, _) = plain_and_chunked();
    for mut old in [plain, chunked] {
        old[4..6].copy_from_slice(&2u16.to_le_bytes());
        let body_end = if old[7] == 0 {
            old.len()
        } else {
            FRAME_HEADER_BYTES
        };
        let sum = frame_checksum(&old[0..12], &old[FRAME_HEADER_BYTES..body_end]);
        old[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_wire(&old, &mut Vec::new()).err(),
            Some(WireError::BadVersion(2))
        );
    }
}
