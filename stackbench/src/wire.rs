//! `wire_exchange`: the transport-only workload. Three loopback TCP
//! endpoints exchange paper-scale frames all-to-all from one generator
//! thread; every frame is decoded and compared with its source.
//!
//! The live model's frames are 2–26 KB, so the 5 MB wire path the paper's
//! Cipher model implies (chunked streaming, fp16 quantization, 1 MB sparse
//! selections, DKT weight replies) only shows up here.

use crate::sim::f32_bytes;
use crate::trace::{SpanLog, TimedTransport, TransportTrace};
use crate::Size;
use dlion_core::messages::{
    apply_wire_format, decode_wire, Fnv8, GradData, GradMsg, Payload, WireCfg, WireFormat,
};
use dlion_core::{ExchangeTransport, MaxNPlanner};
use dlion_net::{loopback_mesh, TcpOpts};
use dlion_tensor::{DetRng, Shape, SparseVec, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Endpoints in the mesh: every inbox has fan-in 2.
pub const ENDPOINTS: usize = 3;
/// Parameters in the exchanged tensor: 1 310 720 × 4 B = the paper's 5 MB.
pub const PAPER_PARAMS: usize = 1_310_720;
/// The four frame kinds a round cycles through, in order.
pub const KINDS: [&str; 4] = ["dense", "fp16", "sparse", "weights"];

/// One frame kind: what is sent, under which wire configuration, and what
/// the receiver must decode it to.
pub struct FrameKind {
    pub name: &'static str,
    pub payload: Arc<Payload>,
    pub cfg: WireCfg,
    /// The payload after the codec's encode → decode round trip (differs
    /// from `payload` only for the lossy fp16 format).
    pub expect: Payload,
}

/// The generated inputs of one repetition.
pub struct WireInputs {
    pub kinds: Vec<FrameKind>,
    pub rounds: usize,
    /// Hash of the generated values — same seed, same digest.
    pub digest: u64,
}

/// The four frame kinds over one set of values: a dense f32 gradient, the
/// same gradient sent as fp16, a Max N selection, and a DKT weight reply.
pub fn frame_kinds(
    grads: Vec<Tensor>,
    (n_used, selection): (f64, Vec<SparseVec>),
    weights: Vec<Tensor>,
    sender_loss: f64,
) -> Vec<FrameKind> {
    let grad = |data, n_used| {
        Payload::Grad(GradMsg {
            iteration: 1,
            lbs: 32,
            data,
            n_used,
        })
    };
    let fp16_cfg = WireCfg {
        format: WireFormat::Fp16,
        ..WireCfg::default()
    };
    let dense = grad(GradData::Dense(grads), 100.0);
    let mut fp16_expect = dense.clone();
    apply_wire_format(&mut fp16_expect, WireFormat::Fp16);
    let kind = |name, payload: Payload, cfg, expect: Option<Payload>| FrameKind {
        name,
        expect: expect.unwrap_or_else(|| payload.clone()),
        payload: Arc::new(payload),
        cfg,
    };
    vec![
        kind(KINDS[0], dense.clone(), WireCfg::default(), None),
        kind(KINDS[1], dense, fp16_cfg, Some(fp16_expect)),
        kind(
            KINDS[2],
            grad(GradData::Sparse(selection), n_used),
            WireCfg::default(),
            None,
        ),
        kind(
            KINDS[3],
            Payload::Weights {
                weights,
                sender_loss,
            },
            WireCfg::default(),
            None,
        ),
    ]
}

/// Generate the frame kinds over one `params`-entry tensor drawn from
/// `DetRng(seed)`, the Max N selection sized to 10 % of the entries.
pub fn generate(seed: u64, size: Size) -> WireInputs {
    let (params, rounds) = match size {
        Size::Full => (PAPER_PARAMS, 16),
        Size::Quick => (PAPER_PARAMS / 16, 4),
    };
    let mut rng = DetRng::seed_from_u64(seed);
    let vars = vec![Tensor::randn(Shape::d1(params), 1.0, &mut rng)];
    let sender_loss = rng.uniform();
    // Every kind derives from these values, so they are the digest.
    let mut h = Fnv8::new(rounds as u64);
    h.update(&f32_bytes(vars[0].data()));
    h.update(&sender_loss.to_bits().to_le_bytes());
    let planner = MaxNPlanner::new(&vars);
    let n = planner.n_for_entry_budget(params / 10, 0.85);
    let selection = planner.select(&vars, n);
    WireInputs {
        kinds: frame_kinds(vars.clone(), (n, selection), vars, sender_loss),
        rounds,
        digest: h.digest(),
    }
}

/// Branch-free bit equality of two value slices (a 5 MB compare is harness
/// time inside the timed region, so it must cost as little as it can).
fn same_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0u32, |acc, (x, y)| acc | (x.to_bits() ^ y.to_bits()))
            == 0
}

fn same_tensors(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.shape() == y.shape() && same_f32(x.data(), y.data()))
}

/// Is the decoded payload bit-for-bit its source? Stricter than `==`
/// (`-0.0` and NaN payloads count as different unless their bits agree).
pub fn same_bits(a: &Payload, b: &Payload) -> bool {
    match (a, b) {
        (Payload::Grad(x), Payload::Grad(y)) => {
            x.iteration == y.iteration
                && x.lbs == y.lbs
                && x.n_used.to_bits() == y.n_used.to_bits()
                && match (&x.data, &y.data) {
                    (GradData::Dense(p), GradData::Dense(q)) => same_tensors(p, q),
                    (GradData::Sparse(p), GradData::Sparse(q)) => {
                        p.len() == q.len()
                            && p.iter().zip(q).all(|(u, v)| {
                                u.dense_len == v.dense_len
                                    && u.indices == v.indices
                                    && same_f32(&u.values, &v.values)
                            })
                    }
                    _ => false,
                }
        }
        (
            Payload::Weights {
                weights: p,
                sender_loss: l,
            },
            Payload::Weights {
                weights: q,
                sender_loss: m,
            },
        ) => l.to_bits() == m.to_bits() && same_tensors(p, q),
        _ => a == b,
    }
}

/// Endpoint `e` of the mesh: traced runs hold [`TimedTransport`]s (whose
/// traces are collected at the end), untraced runs the bare endpoints.
fn endpoint<'a>(
    plain: &'a mut [Box<dyn ExchangeTransport>],
    timed: &'a mut [TimedTransport],
    e: usize,
) -> &'a mut dyn ExchangeTransport {
    match timed.get_mut(e) {
        Some(t) => t,
        None => plain[e].as_mut(),
    }
}

/// What one repetition of the exchange produced.
pub struct WireRun {
    pub setup_s: f64,
    pub establish_s: f64,
    pub wall_s: f64,
    /// Σ `send_wire` return values of frames delivered and verified.
    pub verified_bytes: u64,
    pub frames_sent: u64,
    /// Frames lost, undecodable, or different from their source.
    pub frames_failed: u64,
    pub decode_failures: u64,
    pub input_digest: u64,
    /// Traced runs only: the generator's spans (`round` ⊃ `decode`,
    /// `compare`) and each endpoint's transport trace.
    pub generator: Option<SpanLog>,
    pub traces: Vec<TransportTrace>,
}

/// Generate inputs and establish the mesh (set-up), then run the rounds.
pub fn run(seed: u64, size: Size, traced: bool, epoch: Instant) -> Result<WireRun, String> {
    let t0 = Instant::now();
    let inputs = generate(seed, size);
    let input_digest = inputs.digest;
    let tcp_opts = TcpOpts {
        queue_cap: 8,
        establish_timeout: Duration::from_secs(30),
        instrument: traced,
        ..Default::default()
    };
    let t_mesh = Instant::now();
    let mesh = loopback_mesh(ENDPOINTS, seed, &tcp_opts, None).map_err(|e| format!("mesh: {e}"))?;
    let establish_s = t_mesh.elapsed().as_secs_f64();
    let mut plain: Vec<Box<dyn ExchangeTransport>> = Vec::new();
    let mut timed: Vec<TimedTransport> = Vec::new();
    for t in mesh {
        if traced {
            timed.push(TimedTransport::new(Box::new(t), epoch));
        } else {
            plain.push(Box::new(t));
        }
    }
    let (mut scratch, mut pool) = (Vec::new(), Vec::new());
    let mut log = SpanLog::new(epoch);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut out = WireRun {
        setup_s,
        establish_s,
        wall_s: 0.0,
        verified_bytes: 0,
        frames_sent: 0,
        frames_failed: 0,
        decode_failures: 0,
        input_digest,
        generator: None,
        traces: Vec::new(),
    };
    let t1 = Instant::now();
    for round in 0..inputs.rounds {
        let kind = &inputs.kinds[round % inputs.kinds.len()];
        let span = log.begin("round", round as u64);
        let mut frame_bytes = 0u64;
        for e in 0..ENDPOINTS {
            let ep = endpoint(&mut plain, &mut timed, e);
            for peer in (0..ENDPOINTS).filter(|&p| p != e) {
                out.frames_sent += 1;
                match ep.send_wire(peer, Arc::clone(&kind.payload), &kind.cfg) {
                    Ok(bytes) => frame_bytes = bytes as u64,
                    Err(_) => out.frames_failed += 1,
                }
            }
        }
        for e in 0..ENDPOINTS {
            let ep = endpoint(&mut plain, &mut timed, e);
            for _ in 0..ENDPOINTS - 1 {
                let frame = match ep.recv_frame_timeout(Duration::from_secs(30)) {
                    Ok(Some((_, frame))) => frame,
                    _ => {
                        out.frames_failed += 1;
                        continue;
                    }
                };
                // Decode the way the live driver does: reassemble into a
                // reused scratch, draw value storage from a recycle pool.
                let (decoded, _) = log.time("decode", round as u64, || {
                    decode_wire(&frame, &mut scratch)
                        .and_then(|(k, body)| Payload::decode_body_pooled(k, body, &mut pool))
                });
                let (same, _) = log.time("compare", round as u64, || {
                    decoded.as_ref().is_ok_and(|p| same_bits(p, &kind.expect))
                });
                match decoded {
                    Ok(p) => p.recycle(&mut pool),
                    Err(_) => out.decode_failures += 1,
                }
                if same {
                    out.verified_bytes += frame_bytes;
                } else {
                    out.frames_failed += 1;
                }
            }
        }
        log.end(span);
    }
    out.traces = timed.into_iter().map(TimedTransport::finish).collect();
    drop(plain);
    out.wall_s = t1.elapsed().as_secs_f64();
    if traced {
        out.generator = Some(log);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let a = generate(7, Size::Quick);
        let b = generate(7, Size::Quick);
        let c = generate(8, Size::Quick);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        let bytes = |i: &WireInputs| i.kinds[2].payload.to_wire(&i.kinds[2].cfg);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn the_four_kinds_have_the_intended_sizes() {
        let inputs = generate(1, Size::Quick);
        let params = PAPER_PARAMS / 16;
        let len = |i: usize| inputs.kinds[i].payload.wire_len(&inputs.kinds[i].cfg);
        let dense = len(0);
        assert!(dense > 4 * params && dense < 4 * params + 4096);
        // fp16 halves the values; the sparse selection is ≈ 10 % of the
        // entries at 8 bytes each; weights travel full-precision.
        assert!(len(1) < dense * 51 / 100);
        assert!(len(2) > 8 * params / 11 && len(2) <= 8 * params / 10 + 4096);
        assert!(len(3) > 4 * params);
        // The lossy kind is the only one whose decode differs from its source.
        for (i, k) in inputs.kinds.iter().enumerate() {
            assert_eq!(*k.payload == k.expect, i != 1, "{}", k.name);
        }
    }

    #[test]
    fn same_bits_sees_a_single_flipped_bit() {
        let inputs = generate(5, Size::Quick);
        for k in &inputs.kinds {
            assert!(same_bits(&k.expect, &k.expect.clone()), "{}", k.name);
        }
        let flip = |t: &mut Tensor| {
            let v = &mut t.data_mut()[17];
            *v = f32::from_bits(v.to_bits() ^ 1);
        };
        let mut dense = inputs.kinds[0].expect.clone();
        if let Payload::Grad(g) = &mut dense {
            if let GradData::Dense(vars) = &mut g.data {
                flip(&mut vars[0]);
            }
        }
        assert!(!same_bits(&dense, &inputs.kinds[0].expect));
        let mut weights = inputs.kinds[3].expect.clone();
        if let Payload::Weights { weights: w, .. } = &mut weights {
            flip(&mut w[0]);
        }
        assert!(!same_bits(&weights, &inputs.kinds[3].expect));
        assert!(!same_bits(&inputs.kinds[0].expect, &inputs.kinds[2].expect));
    }

    #[test]
    fn every_kind_round_trips_to_its_expectation() {
        let inputs = generate(3, Size::Quick);
        let mut scratch = Vec::new();
        for k in &inputs.kinds {
            let stream = k.payload.to_wire(&k.cfg);
            let back = Payload::from_wire(&stream, &mut scratch).expect("decodes");
            assert_eq!(back, k.expect, "{}", k.name);
            assert!(same_bits(&back, &k.expect), "{}", k.name);
        }
    }
}
