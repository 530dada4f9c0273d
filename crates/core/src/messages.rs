//! Messages exchanged between workers, plus the versioned binary wire codec
//! that puts them on a real network.
//!
//! The paper's prototype moves data through Redis control and data queues;
//! in the simulator messages travel through the simulated network with byte
//! counts that determine their transfer times, while the live backend
//! (`dlion-net`) ships the same [`Payload`] values as checksummed binary
//! frames over TCP. Gradient and weight payloads are *wire-scaled* in the
//! simulator to the sizes of the paper's models (5 MB Cipher / 17 MB
//! MobileNet) so that network pressure matches the original testbed; the
//! scaling is `bytes_per_param / ENC_DENSE_ENTRY_BYTES` relative to the
//! codec's true encoded size (see [`Payload::wire_len`]).

use dlion_tensor::shape::MAX_RANK;
use dlion_tensor::{Shape, SparseVec, Tensor};

/// Size of a small control message (loss share) in simulated bytes — the
/// exact encoded size of a [`Payload::LossShare`] frame (header + `f64`).
pub const CONTROL_BYTES: f64 = (FRAME_HEADER_BYTES + 8) as f64;

/// Gradient payload data: either a dense full-model gradient or per-variable
/// sparse selections.
#[derive(Clone, Debug, PartialEq)]
pub enum GradData {
    /// Full gradient, one tensor per weight variable. Costs 4 scaled bytes
    /// per parameter on the wire (values only).
    Dense(Vec<Tensor>),
    /// Sparse selection per weight variable. Costs 8 scaled bytes per
    /// selected entry (index + value).
    Sparse(Vec<SparseVec>),
}

/// A gradient message: payload plus the metadata the weighted model update
/// needs.
#[derive(Clone, Debug, PartialEq)]
pub struct GradMsg {
    /// Sender's iteration index this gradient belongs to.
    pub iteration: u64,
    /// Sender's local batch size (for the dynamic batching weight).
    pub lbs: usize,
    pub data: GradData,
    /// The Max N parameter used to build this message (100 for dense
    /// exchanges); recorded for the Figure 8/20 traces.
    pub n_used: f64,
}

impl GradMsg {
    /// Number of gradient entries carried (dense counts every parameter).
    pub fn entries(&self) -> usize {
        match &self.data {
            GradData::Dense(vars) => vars.iter().map(|t| t.numel()).sum(),
            GradData::Sparse(vars) => vars.iter().map(|v| v.nnz()).sum(),
        }
    }

    /// Wire bytes given the model's byte-per-parameter scale.
    pub fn wire_bytes(&self, bytes_per_param: f64, total_params: usize) -> f64 {
        match &self.data {
            GradData::Dense(_) => bytes_per_param * total_params as f64,
            GradData::Sparse(_) => 2.0 * bytes_per_param * self.entries() as f64,
        }
    }
}

/// Everything a worker can put on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Partial (or full) gradients — the data queue.
    Grad(GradMsg),
    /// Periodic average-loss share — the control queue.
    LossShare { avg_loss: f64 },
    /// "Send me your weights" — the control queue.
    DktRequest,
    /// Full model weights from the best worker, with its shared loss at
    /// send time (so receivers can sanity-check staleness).
    Weights {
        weights: Vec<Tensor>,
        sender_loss: f64,
    },
    /// "I have left the run", carrying the sender's completed-iteration
    /// count — the control frame a departing worker broadcasts, on both
    /// backends. The simulator sends it through the same latency-modelled
    /// links as gradients, so a departure notice can never overtake the
    /// victim's own last gradients: the per-link FIFO the live transports
    /// guarantee.
    Leave { completed: u64 },
}

impl Payload {
    /// Wire bytes of this payload.
    pub fn wire_bytes(&self, bytes_per_param: f64, total_params: usize) -> f64 {
        match self {
            Payload::Grad(g) => g.wire_bytes(bytes_per_param, total_params),
            Payload::LossShare { .. } => CONTROL_BYTES,
            // A DKT request is a bare frame: header only.
            Payload::DktRequest => FRAME_HEADER_BYTES as f64,
            Payload::Weights { .. } => bytes_per_param * total_params as f64,
            Payload::Leave { .. } => CONTROL_BYTES,
        }
    }

    /// Short label for metrics/accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Grad(_) => "grad",
            Payload::LossShare { .. } => "loss_share",
            Payload::DktRequest => "dkt_request",
            Payload::Weights { .. } => "weights",
            Payload::Leave { .. } => "leave",
        }
    }

    /// Frame kind byte for the wire codec.
    pub fn wire_kind(&self) -> u8 {
        match self {
            Payload::Grad(_) => KIND_GRAD,
            Payload::LossShare { .. } => KIND_LOSS_SHARE,
            Payload::DktRequest => KIND_DKT_REQUEST,
            Payload::Weights { .. } => KIND_WEIGHTS,
            Payload::Leave { .. } => KIND_LEAVE,
        }
    }

    /// Body length in bytes when encoded with `format`. Quantized formats
    /// only change dense gradient bodies; weights and control payloads are
    /// always full-precision (DKT transfers must be exact).
    pub fn body_len_with(&self, format: WireFormat) -> usize {
        match self {
            Payload::Grad(g) => {
                // iteration u64 + lbs u32 + n_used f64 + variant u8 + count u32
                let mut len = 8 + 4 + 8 + 1 + 4;
                match &g.data {
                    GradData::Dense(vars) => {
                        for t in vars {
                            len += enc_tensor_len_fmt(t, format);
                        }
                    }
                    GradData::Sparse(vars) => {
                        for v in vars {
                            // dense_len u32 + nnz u32 + entries
                            len += 4 + 4 + v.nnz() * ENC_SPARSE_ENTRY_BYTES;
                        }
                    }
                }
                len
            }
            Payload::LossShare { .. } => 8,
            Payload::DktRequest => 0,
            Payload::Leave { .. } => 8,
            Payload::Weights { weights, .. } => {
                // sender_loss f64 + count u32
                let mut len = 8 + 4;
                for t in weights {
                    len += enc_tensor_len(t);
                }
                len
            }
        }
    }

    /// Whether encoding under `cfg` produces a chunked stream instead of a
    /// plain frame (the body is larger than one chunk).
    pub fn wire_is_chunked(&self, cfg: &WireCfg) -> bool {
        self.body_len_with(cfg.format) > cfg.chunk_bytes
    }

    /// Exact number of bytes [`Payload::write_wire`] / [`Payload::to_wire`]
    /// put on the wire under `cfg`: header + body, plus one 12-byte chunk
    /// header per chunk when the body is chunked. A test in
    /// `tests/wire_codec.rs` asserts `wire_len == streamed bytes` for every
    /// payload kind and wire format.
    pub fn wire_len(&self, cfg: &WireCfg) -> usize {
        let body_len = self.body_len_with(cfg.format);
        if body_len <= cfg.chunk_bytes {
            FRAME_HEADER_BYTES + body_len
        } else {
            let chunks = body_len.div_ceil(cfg.chunk_bytes);
            FRAME_HEADER_BYTES + body_len + chunks * CHUNK_HEADER_BYTES
        }
    }

    /// Encode this payload as a materialized wire stream under `cfg`:
    /// a plain frame when the body fits one chunk, the chunked layout
    /// otherwise: what [`Payload::write_wire`] streams, written into a
    /// `Vec` — in-memory transports deliver exactly what TCP carries.
    pub fn to_wire(&self, cfg: &WireCfg) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len(cfg));
        if self.wire_is_chunked(cfg) {
            let mut scratch = Vec::with_capacity(CHUNK_HEADER_BYTES + cfg.chunk_bytes);
            self.write_wire(&mut out, cfg, &mut scratch)
                .expect("Vec sink cannot fail");
        } else {
            // A plain frame is built where it is returned: no copy.
            self.plain_frame_into(cfg.format, &mut out)
                .expect("Vec sink cannot fail");
        }
        out
    }

    /// Build this payload's plain frame — header, checksum, body — in
    /// `buf`, replacing what it held. [`Payload::write_wire`] writes it with
    /// one `write_all`; [`Payload::to_wire`] returns it.
    fn plain_frame_into(&self, format: WireFormat, buf: &mut Vec<u8>) -> std::io::Result<()> {
        buf.clear();
        buf.resize(FRAME_HEADER_BYTES, 0);
        write_body(self, format, buf)?;
        let (head, body) = buf.split_at_mut(FRAME_HEADER_BYTES);
        let mut header = frame_header(self.wire_kind(), 0, body.len(), Some(0));
        let sum = frame_checksum(&header[0..CHECKSUMMED_PREFIX_BYTES], body);
        header[CHECKSUMMED_PREFIX_BYTES..].copy_from_slice(&sum.to_le_bytes());
        head.copy_from_slice(&header);
        Ok(())
    }

    /// Stream this payload onto `w` under `cfg`, returning the exact number
    /// of bytes written (`== wire_len(cfg)`).
    ///
    /// A plain frame is built whole in `scratch` — header, checksum, body —
    /// and handed to `w` in one `write_all`. For bodies larger than one
    /// chunk the 20-byte header goes out before any body serialization
    /// happens — the first byte is on the wire after O(1) work — and each
    /// chunk is serialized into `scratch` behind room for its 12-byte
    /// header, checksummed and written with that header in one
    /// `write_all`, while the previous chunk is still in flight in the
    /// kernel's socket buffer. `scratch` is a reusable per-peer buffer; it
    /// never grows past one chunk and a header.
    pub fn write_wire<W: std::io::Write>(
        &self,
        w: &mut W,
        cfg: &WireCfg,
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<usize> {
        let body_len = self.body_len_with(cfg.format);
        if body_len <= cfg.chunk_bytes {
            self.plain_frame_into(cfg.format, scratch)?;
            w.write_all(scratch)?;
            Ok(scratch.len())
        } else {
            let header = frame_header(self.wire_kind(), FLAG_CHUNKED, body_len, None);
            w.write_all(&header)?;
            let mut sink = ChunkSink::new(w, scratch, cfg.chunk_bytes);
            write_body(self, cfg.format, &mut sink)?;
            let body_wire = sink.finish()?;
            debug_assert_eq!(FRAME_HEADER_BYTES + body_wire, self.wire_len(cfg));
            Ok(FRAME_HEADER_BYTES + body_wire)
        }
    }

    /// Decode a wire stream (plain or chunked) back into a payload,
    /// reassembling chunked bodies into `scratch`. Rejects transport-control
    /// frame kinds (`>= KIND_NET_BASE`) and any malformed body; never panics.
    pub fn from_wire(stream: &[u8], scratch: &mut Vec<u8>) -> Result<Payload, WireError> {
        let (kind, body) = decode_wire(stream, scratch)?;
        Payload::decode_body(kind, body)
    }

    /// Decode a validated frame body given its kind byte.
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<Payload, WireError> {
        Payload::decode_body_pooled(kind, body, &mut Vec::new())
    }

    /// Decode a validated frame body, drawing dense-value storage from
    /// `pool` instead of allocating. Receivers that recycle a decoded
    /// gradient's buffers back into the pool (see [`Payload::recycle`])
    /// decode allocation-free once the pool is warm. Quantized variants
    /// (fp16/int8) dequantize back to f32 — the in-memory types never
    /// change, only the wire does.
    pub fn decode_body_pooled(
        kind: u8,
        body: &[u8],
        pool: &mut Vec<Vec<f32>>,
    ) -> Result<Payload, WireError> {
        let mut c = Cursor::new(body);
        let payload = match kind {
            KIND_GRAD => {
                let iteration = c.u64()?;
                let lbs = c.u32()? as usize;
                let n_used = c.f64()?;
                let variant = c.u8()?;
                let count = c.u32()? as usize;
                let data = match variant {
                    GRAD_VARIANT_DENSE | GRAD_VARIANT_F16 | GRAD_VARIANT_I8 => {
                        let mut vars = Vec::with_capacity(count.min(MAX_DECODE_VARS));
                        for _ in 0..count {
                            vars.push(dec_tensor_fmt(&mut c, variant, pool)?);
                        }
                        GradData::Dense(vars)
                    }
                    GRAD_VARIANT_SPARSE => {
                        let mut vars = Vec::with_capacity(count.min(MAX_DECODE_VARS));
                        for _ in 0..count {
                            vars.push(dec_sparse(&mut c)?);
                        }
                        GradData::Sparse(vars)
                    }
                    _ => return Err(WireError::Malformed("unknown gradient variant")),
                };
                Payload::Grad(GradMsg {
                    iteration,
                    lbs,
                    data,
                    n_used,
                })
            }
            KIND_LOSS_SHARE => Payload::LossShare { avg_loss: c.f64()? },
            KIND_DKT_REQUEST => Payload::DktRequest,
            KIND_LEAVE => Payload::Leave {
                completed: c.u64()?,
            },
            KIND_WEIGHTS => {
                let sender_loss = c.f64()?;
                let count = c.u32()? as usize;
                let mut weights = Vec::with_capacity(count.min(MAX_DECODE_VARS));
                for _ in 0..count {
                    weights.push(dec_tensor_fmt(&mut c, GRAD_VARIANT_DENSE, pool)?);
                }
                Payload::Weights {
                    weights,
                    sender_loss,
                }
            }
            other => return Err(WireError::BadKind(other)),
        };
        if c.pos != body.len() {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(payload)
    }

    /// Return a consumed payload's dense-value buffers to `pool` so the
    /// next [`Payload::decode_body_pooled`] call reuses them.
    pub fn recycle(self, pool: &mut Vec<Vec<f32>>) {
        match self {
            Payload::Grad(GradMsg {
                data: GradData::Dense(vars),
                ..
            })
            | Payload::Weights { weights: vars, .. } => {
                for t in vars {
                    pool.push(t.into_data());
                }
            }
            _ => {}
        }
    }
}

/// Quantize/sparsify a payload's gradient values exactly the way the wire
/// codec would, in place. The simulator applies this at send time so its
/// receiver math matches the live backend's encode→decode round trip
/// bit-for-bit; the live backend does **not** call it (the codec quantizes
/// on the wire). Only dense gradient payloads change; weights and control
/// payloads always travel full-precision.
pub fn apply_wire_format(payload: &mut Payload, format: WireFormat) {
    let Payload::Grad(g) = payload else { return };
    let GradData::Dense(vars) = &mut g.data else {
        return;
    };
    match format {
        WireFormat::Dense => {}
        WireFormat::Fp16 => {
            for t in vars {
                // The codec's own pair, so sim and live round the same way
                // by construction (the scalar forms are the test reference).
                for x in t.data_mut() {
                    *x = f16_to_f32_select(f16_bits_select(*x));
                }
            }
        }
        WireFormat::Int8 => {
            for t in vars {
                let scale = t.max_abs() / 127.0;
                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                for x in t.data_mut() {
                    *x = quantize_i8(*x, inv) as f32 * scale;
                }
            }
        }
        WireFormat::TopK(n) => {
            g.data = GradData::Sparse(dlion_tensor::sparse::max_n_select_model(vars, n));
            g.n_used = n;
        }
    }
}

/// Accounting slot for a payload as encoded under `format`: the index in
/// [`WIRE_LABELS`] of the `wire_bytes_by_kind` bucket its wire bytes land
/// in. Top-k payloads are sparsified *before* encoding, so they show up as
/// `grad_sparse`.
pub fn wire_slot(payload: &Payload, format: WireFormat) -> usize {
    match payload {
        Payload::Grad(g) => match (&g.data, format) {
            (GradData::Dense(_), WireFormat::Fp16) => 2,
            (GradData::Dense(_), WireFormat::Int8) => 3,
            (GradData::Dense(_), _) => 0,
            (GradData::Sparse(_), _) => 1,
        },
        Payload::Weights { .. } => 4,
        Payload::LossShare { .. } | Payload::DktRequest | Payload::Leave { .. } => 5,
    }
}

/// Every wire label, indexed by [`wire_slot`], in the fixed order the
/// `wire_bytes_by_kind` trace event and the health report's byte ledger
/// list them.
pub const WIRE_LABELS: [&str; 6] = [
    "grad_dense",
    "grad_sparse",
    "grad_fp16",
    "grad_int8",
    "weights",
    "control",
];

/// Trace an encoded bytes-on-the-wire ledger (per label, in [`WIRE_LABELS`]
/// order) as one `wire_bytes_by_kind` event: one fixed key per wire label,
/// so sim (cluster-wide, `w` = `None`) and live (per worker) rows line up
/// column-for-column.
pub fn trace_wire_bytes(vt: f64, w: Option<usize>, bytes: [f64; WIRE_LABELS.len()]) {
    let fields: [(&str, _); WIRE_LABELS.len()] =
        std::array::from_fn(|i| (WIRE_LABELS[i], bytes[i].into()));
    dlion_telemetry::emit(vt, w, "wire_bytes_by_kind", &fields);
}

// ===================================================================
// Wire codec
// ===================================================================
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic  b"DLWF"
//   4       2     version (WIRE_VERSION)
//   6       1     kind
//   7       1     flags (FLAG_CHUNKED; unknown bits rejected)
//   8       4     body_len
//   12      8     checksum
//   20      ...   body
//
// Plain frames (flags == 0): `checksum` is `frame_checksum(bytes [0..12),
// body)` — the lane checksum of the body, seeded with the header prefix —
// and exactly `body_len` body bytes follow.
//
// Chunked streams (flags & FLAG_CHUNKED): `body_len` is the *total* body
// length, `checksum` covers only bytes [0..12) (the body checksums ride on
// the chunks), and the body follows as a sequence of chunks
//
//   chunk_len u32 | chunk_sum u64 | chunk bytes
//
// until `body_len` body bytes have been covered. Each `chunk_sum` is
// `chunk_checksum(index, chunk bytes)` — the lane checksum of that chunk
// *seeded with the chunk index* — so a reader verifies incrementally as
// chunks land, and a reordered chunk fails verification even when its
// bytes are intact.
//
// The lane checksum (wire v3; DESIGN.md "Frame format (v3)" is normative):
// 32 `u64` lanes start from fixed constants; lane `i` absorbs the
// little-endian 8-byte words `i, i+32, i+64, ...` of the input by
// `lane = ((lane ^ word) * LANE_MUL).rotate_left(29)`, the last partial
// 256-byte block zero-padded; the 32 lanes are halved five times by the
// same step (`lane[i] = step(lane[i], lane[i + width])`), and the digest is
// `step(step(seed, lane[0]), byte length)`, the seed being the folded
// header prefix or chunk index. Every step is a bijection of its state
// and injective in the word, so a change confined to one aligned word —
// or to the seed, or to the length — always changes the digest, and the
// rotate keeps a bit position from cancelling between two words of a
// lane. One pass runs at memory speed, which is why the sender,
// `read_frame` and `decode_wire` can all verify every byte.
//
// The checksums cover the header prefix as well as the body, so any
// single-bit corruption anywhere in the frame — including the kind or
// length fields — is detected. Decoding is fully bounds-checked and never
// panics; every failure mode maps to a `WireError`.

/// Frame magic: "DLion Wire Frame".
pub const WIRE_MAGIC: [u8; 4] = *b"DLWF";
/// Codec version; bump on any incompatible change. Version 2: flags byte,
/// chunked streams, quantized gradient variants, byte-wise [`Fnv8`]
/// checksums. Version 3: same layout and sizes, the frame and chunk
/// checksums are the word-wise lane checksum ([`frame_checksum`],
/// [`chunk_checksum`]); a v2 frame is rejected as `BadVersion(2)`.
pub const WIRE_VERSION: u16 = 3;
/// Fixed frame header size in bytes (magic..checksum).
pub const FRAME_HEADER_BYTES: usize = 20;
/// Bytes of the header covered by the frame checksum (magic..body_len).
const CHECKSUMMED_PREFIX_BYTES: usize = 12;
/// Header flag: the body follows as checksummed chunks, not as one run of
/// `body_len` bytes.
pub const FLAG_CHUNKED: u8 = 0x01;
/// Per-chunk header size: `chunk_len u32 | chunk_sum u64`.
pub const CHUNK_HEADER_BYTES: usize = 12;
/// Default chunk size for streamed bodies: large enough that the 12-byte
/// chunk header is noise (<0.005% overhead), small enough that the first
/// chunk is on the wire in a fraction of a full 5 MB serialization.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;
/// Upper bound on a frame body — a defensive cap far above any real payload
/// (a dense MobileNet-scale gradient is ~17 MB).
pub const MAX_FRAME_BODY_BYTES: usize = 256 << 20;

/// Encoded bytes per dense gradient/weight entry (one `f32` value).
pub const ENC_DENSE_ENTRY_BYTES: usize = 4;
/// Encoded bytes per sparse gradient entry (`u32` index + `f32` value).
pub const ENC_SPARSE_ENTRY_BYTES: usize = 8;

/// Payload frame kinds (1..=4). Kinds at or above [`KIND_NET_BASE`] are
/// reserved for transport-level control frames owned by `dlion-net`.
pub const KIND_GRAD: u8 = 1;
pub const KIND_LOSS_SHARE: u8 = 2;
pub const KIND_DKT_REQUEST: u8 = 3;
pub const KIND_WEIGHTS: u8 = 4;
/// Departure notice ([`Payload::Leave`]).
pub const KIND_LEAVE: u8 = 5;
/// First frame kind reserved for transport control (hello/ack/done/rcp).
pub const KIND_NET_BASE: u8 = 0x10;

const GRAD_VARIANT_DENSE: u8 = 0;
const GRAD_VARIANT_SPARSE: u8 = 1;
/// Dense gradient quantized to IEEE-754 half precision (2 bytes/entry).
const GRAD_VARIANT_F16: u8 = 2;
/// Dense gradient quantized to int8 with a per-tensor f32 scale
/// (1 byte/entry + 4 bytes/tensor).
const GRAD_VARIANT_I8: u8 = 3;
/// Cap on pre-allocation from attacker-controlled counts during decode;
/// larger counts still decode, they just reallocate as they grow.
const MAX_DECODE_VARS: usize = 1024;

/// How gradient values travel on the wire — the `--wire` ablation axis.
/// Weights (DKT transfers) and control frames are always
/// full-precision regardless of this setting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum WireFormat {
    /// Full-precision f32 values (the baseline; bit-exact).
    #[default]
    Dense,
    /// IEEE-754 half precision, round-to-nearest-even (2 bytes/entry,
    /// deterministic, relative error ≤ 2⁻¹¹ in the normal half range).
    Fp16,
    /// Per-tensor symmetric int8: `scale = max|g| / 127`, `q = round(g/scale)`
    /// (1 byte/entry; absolute error ≤ scale/2).
    Int8,
    /// Max N sparsification applied at send time (the paper's §3.3
    /// selection, reusing the sparse gradient wire kind); the parameter is
    /// the Max N percentage in (0, 100].
    TopK(f64),
}

impl WireFormat {
    /// Parse a `--wire` value: `dense | fp16 | int8 | topk[:N]`.
    pub fn parse(s: &str) -> Result<WireFormat, String> {
        match s {
            "dense" => Ok(WireFormat::Dense),
            "fp16" => Ok(WireFormat::Fp16),
            "int8" => Ok(WireFormat::Int8),
            "topk" => Ok(WireFormat::TopK(10.0)),
            _ => {
                if let Some(rest) = s.strip_prefix("topk:") {
                    let n: f64 = rest
                        .parse()
                        .map_err(|_| format!("bad top-k percentage '{rest}'"))?;
                    if !(n > 0.0 && n <= 100.0) {
                        return Err(format!("top-k percentage {n} outside (0, 100]"));
                    }
                    Ok(WireFormat::TopK(n))
                } else {
                    Err(format!(
                        "unknown wire format '{s}' (dense|fp16|int8|topk[:N])"
                    ))
                }
            }
        }
    }

    /// Short name for reports and labels.
    pub fn name(&self) -> &'static str {
        match self {
            WireFormat::Dense => "dense",
            WireFormat::Fp16 => "fp16",
            WireFormat::Int8 => "int8",
            WireFormat::TopK(_) => "topk",
        }
    }
}

/// Everything an encoder needs to put a payload on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireCfg {
    pub format: WireFormat,
    /// Bodies larger than this stream as checksummed chunks of this size.
    pub chunk_bytes: usize,
}

impl Default for WireCfg {
    fn default() -> Self {
        WireCfg {
            format: WireFormat::Dense,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }
}

/// Decode failure; every variant is a recoverable error, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// Version field differs from [`WIRE_VERSION`].
    BadVersion(u16),
    /// Unknown payload frame kind.
    BadKind(u8),
    /// Fewer bytes available than the layout requires.
    Truncated { need: usize, have: usize },
    /// Checksum over header-prefix + body does not match.
    ChecksumMismatch,
    /// Structurally invalid contents (bad variant, index out of range, ...).
    Malformed(&'static str),
    /// Declared body length exceeds [`MAX_FRAME_BODY_BYTES`].
    Oversize(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit over a byte slice (seeded); the serial fold inside
/// [`Fnv8`].
fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_LANES: usize = 8;

/// Lane-parallel FNV-1a-64, the repo's *digest* hash: eight independent
/// FNV states, lane `i` consuming bytes `i, i+8, i+16, ...`, updatable at
/// any split. Result digests (the benchmark's input and output digests)
/// are built on it, so its bits never change. It is no longer the frame
/// checksum: one byte per multiply is latency-bound at ~1.7 GB/s however
/// it vectorizes, and wire v3 moved the frames to the word-wise
/// [`frame_checksum`]. [`Fnv8::digest`] folds the lanes plus the total
/// length through a short serial FNV, so truncation and cross-lane swaps
/// still change the digest.
#[derive(Clone, Debug)]
pub struct Fnv8 {
    lanes: [u64; FNV_LANES],
    /// Total bytes consumed (also selects the lane for the next byte).
    len: u64,
}

impl Fnv8 {
    pub fn new(seed: u64) -> Self {
        let mut lanes = [0u64; FNV_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fnv1a64(seed, &[i as u8]);
        }
        Fnv8 { lanes, len: 0 }
    }

    /// Absorb `bytes`; calls may split the input at any boundary and the
    /// digest is unchanged (streaming encoders rely on this).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut i = 0;
        // Consume up to lane alignment one byte at a time.
        while !self.len.is_multiple_of(FNV_LANES as u64) && i < bytes.len() {
            let lane = (self.len % FNV_LANES as u64) as usize;
            self.lanes[lane] = (self.lanes[lane] ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
            self.len += 1;
            i += 1;
        }
        let rest = &bytes[i..];
        let mut chunks = rest.chunks_exact(FNV_LANES);
        // Hot loop: 8 independent xor→multiply chains per iteration.
        for chunk in chunks.by_ref() {
            for (lane, &b) in self.lanes.iter_mut().zip(chunk) {
                *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        let tail = chunks.remainder();
        for (l, &b) in tail.iter().enumerate() {
            self.lanes[l] = (self.lanes[l] ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.len += rest.len() as u64;
    }

    /// Fold the lane states and total length into one 64-bit digest.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lane in self.lanes {
            h = fnv1a64(h, &lane.to_le_bytes());
        }
        fnv1a64(h, &self.len.to_le_bytes())
    }
}

/// Lanes of the frame checksum: 32 `u64`s, four 512-bit (eight 256-bit)
/// vectors of independent multiply chains.
const SUM_LANES: usize = 32;
/// Bytes one round over the lanes absorbs.
const SUM_BLOCK_BYTES: usize = 8 * SUM_LANES;
/// Odd multiplier of the checksum step (2⁶⁴/φ).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_ROT: u32 = 29;

/// One checksum step: absorb `word` into `state`. For a fixed word it is a
/// bijection of the state (xor, odd multiply, rotate), for a fixed state
/// injective in the word.
#[inline(always)]
fn lane_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(LANE_MUL).rotate_left(LANE_ROT)
}

/// Fold `bytes` into a seed, 8 little-endian bytes per step, the last
/// partial word zero-padded.
fn seed_from(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(FNV_OFFSET, |h, ch| {
        let mut word = [0u8; 8];
        word[..ch.len()].copy_from_slice(ch);
        lane_step(h, u64::from_le_bytes(word))
    })
}

/// The word-wise lane checksum of `bytes` under `seed` (see the layout
/// comment above and DESIGN.md "Frame format (v3)").
fn lane_checksum(seed: u64, bytes: &[u8]) -> u64 {
    // Lane i starts at (i + 1) · LANE_MUL: distinct and never zero, the one
    // state an all-zero input would leave in place.
    let mut lanes: [u64; SUM_LANES] =
        std::array::from_fn(|i| (i as u64 + 1).wrapping_mul(LANE_MUL));
    let mut absorb = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    };
    let mut blocks = bytes.chunks_exact(SUM_BLOCK_BYTES);
    blocks.by_ref().for_each(&mut absorb);
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; SUM_BLOCK_BYTES];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&last);
    }
    // Fold the lanes as a tree (five dependent steps, not 32: this is the
    // fixed cost every small frame pays), then bind the seed and length.
    let mut width = SUM_LANES / 2;
    while width > 0 {
        for i in 0..width {
            lanes[i] = lane_step(lanes[i], lanes[i + width]);
        }
        width /= 2;
    }
    lane_step(lane_step(seed, lanes[0]), bytes.len() as u64)
}

/// Checksum of a plain frame: the lane checksum of the body, seeded with
/// the 12-byte header prefix.
pub fn frame_checksum(header_prefix: &[u8], body: &[u8]) -> u64 {
    lane_checksum(seed_from(header_prefix), body)
}

/// Checksum of one chunk of a chunked stream, seeded with the chunk index
/// so intact-but-reordered chunks fail verification.
pub fn chunk_checksum(index: u64, bytes: &[u8]) -> u64 {
    lane_checksum(lane_step(FNV_OFFSET, index), bytes)
}

/// Build the 20-byte frame header. `checksum == None` computes the
/// header-prefix-only sum used by chunked streams.
fn frame_header(kind: u8, flags: u8, body_len: usize, checksum: Option<u64>) -> [u8; 20] {
    debug_assert!(body_len <= MAX_FRAME_BODY_BYTES);
    let mut h = [0u8; FRAME_HEADER_BYTES];
    h[0..4].copy_from_slice(&WIRE_MAGIC);
    h[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    h[6] = kind;
    h[7] = flags;
    h[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
    let sum = checksum.unwrap_or_else(|| frame_checksum(&h[0..CHECKSUMMED_PREFIX_BYTES], &[]));
    h[12..20].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Build a complete plain frame (header + checksum + body) around `body`.
pub fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_FRAME_BODY_BYTES);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    let mut header = frame_header(kind, 0, body.len(), Some(0));
    let sum = frame_checksum(&header[0..CHECKSUMMED_PREFIX_BYTES], body);
    header[12..20].copy_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(body);
    out
}

/// A validated frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: u8,
    /// Header flags ([`FLAG_CHUNKED`]); unknown bits are rejected.
    pub flags: u8,
    /// Body length in bytes (total payload bytes for chunked streams,
    /// excluding per-chunk headers).
    pub body_len: usize,
    /// Frame checksum (header-prefix-only for chunked streams).
    pub checksum: u64,
}

impl FrameHeader {
    pub fn is_chunked(&self) -> bool {
        self.flags & FLAG_CHUNKED != 0
    }
}

/// Validate a frame header (first [`FRAME_HEADER_BYTES`] bytes). Used by
/// streaming readers that fetch the body separately; checksum verification
/// happens in [`verify_frame_body`] (plain) or per chunk (chunked).
pub fn decode_frame_header(header: &[u8]) -> Result<FrameHeader, WireError> {
    if header.len() < FRAME_HEADER_BYTES {
        return Err(WireError::Truncated {
            need: FRAME_HEADER_BYTES,
            have: header.len(),
        });
    }
    if header[0..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = header[6];
    let flags = header[7];
    if flags & !FLAG_CHUNKED != 0 {
        return Err(WireError::Malformed("unknown header flags"));
    }
    let body_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if body_len > MAX_FRAME_BODY_BYTES {
        return Err(WireError::Oversize(body_len));
    }
    let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap());
    Ok(FrameHeader {
        kind,
        flags,
        body_len,
        checksum,
    })
}

/// Verify a plain frame body against the header it was read with.
pub fn verify_frame_body(header: &[u8], body: &[u8], expect_sum: u64) -> Result<(), WireError> {
    if frame_checksum(&header[0..CHECKSUMMED_PREFIX_BYTES], body) != expect_sum {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(())
}

/// Verify a chunked stream's header-prefix checksum (the body checksums
/// ride on the chunks).
pub fn verify_chunked_header(header: &[u8], expect_sum: u64) -> Result<(), WireError> {
    if frame_checksum(&header[0..CHECKSUMMED_PREFIX_BYTES], &[]) != expect_sum {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(())
}

/// Split a complete *plain* frame into `(kind, body)` after full validation
/// (header structure, exact length, checksum). Rejects chunked streams —
/// use [`decode_wire`] to accept both layouts.
pub fn decode_frame(frame: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let h = decode_frame_header(frame)?;
    if h.is_chunked() {
        return Err(WireError::Malformed(
            "chunked stream where plain frame expected",
        ));
    }
    let have = frame.len() - FRAME_HEADER_BYTES;
    if have < h.body_len {
        return Err(WireError::Truncated {
            need: FRAME_HEADER_BYTES + h.body_len,
            have: frame.len(),
        });
    }
    if have > h.body_len {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    let body = &frame[FRAME_HEADER_BYTES..];
    verify_frame_body(frame, body, h.checksum)?;
    Ok((h.kind, body))
}

/// Split a wire stream — plain frame or chunked stream — into
/// `(kind, body)` after full validation. Plain bodies borrow from the
/// input; chunked bodies are verified chunk-by-chunk and reassembled into
/// `scratch` (a reusable buffer), which the returned slice then borrows.
pub fn decode_wire<'a>(
    stream: &'a [u8],
    scratch: &'a mut Vec<u8>,
) -> Result<(u8, &'a [u8]), WireError> {
    let h = decode_frame_header(stream)?;
    if !h.is_chunked() {
        return decode_frame(stream);
    }
    verify_chunked_header(stream, h.checksum)?;
    scratch.clear();
    scratch.reserve(h.body_len);
    let mut pos = FRAME_HEADER_BYTES;
    let mut index = 0u64;
    while scratch.len() < h.body_len {
        if stream.len() < pos + CHUNK_HEADER_BYTES {
            return Err(WireError::Truncated {
                need: pos + CHUNK_HEADER_BYTES,
                have: stream.len(),
            });
        }
        let chunk_len = u32::from_le_bytes(stream[pos..pos + 4].try_into().unwrap()) as usize;
        let chunk_sum = u64::from_le_bytes(stream[pos + 4..pos + 12].try_into().unwrap());
        if chunk_len == 0 {
            return Err(WireError::Malformed("empty chunk"));
        }
        if scratch.len() + chunk_len > h.body_len {
            return Err(WireError::Malformed("chunk overruns body length"));
        }
        let start = pos + CHUNK_HEADER_BYTES;
        if stream.len() < start + chunk_len {
            return Err(WireError::Truncated {
                need: start + chunk_len,
                have: stream.len(),
            });
        }
        let bytes = &stream[start..start + chunk_len];
        if chunk_checksum(index, bytes) != chunk_sum {
            return Err(WireError::ChecksumMismatch);
        }
        scratch.extend_from_slice(bytes);
        pos = start + chunk_len;
        index += 1;
    }
    if pos != stream.len() {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    Ok((h.kind, &scratch[..]))
}

#[cfg(test)]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ===================================================================
// Streaming body encoder
// ===================================================================
//
// `write_body` is the single source of truth for body bytes: it emits
// through a `WireSink`, and the two sinks — `Vec<u8>` (materialize) and
// `ChunkSink` (stream chunks onto a writer) — therefore produce identical
// body bytes by construction. The bulk putters below batch values through
// a small stack buffer in safe code; on little-endian targets the inner
// loops compile to wide copies (dense f32) or vectorized converts
// (fp16/int8), replacing the old 4-bytes-at-a-time `extend_from_slice`.

/// Byte sink for the body encoder.
trait WireSink {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()>;
}

impl WireSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

/// Sink that cuts the body into `chunk_bytes`-sized chunks, checksums each
/// and writes `chunk_len | chunk_sum | bytes` onto `w` in one `write_all`
/// as soon as the chunk fills — chunk *k+1* is serialized while chunk *k*
/// sits in the kernel's socket buffer. `buf` is the caller's reusable
/// scratch (one chunk and its header large, e.g. a link's buffer); a
/// chunk's bytes land behind room for its header.
struct ChunkSink<'a, W: std::io::Write> {
    w: &'a mut W,
    buf: &'a mut Vec<u8>,
    chunk_bytes: usize,
    index: u64,
    written: usize,
}

impl<'a, W: std::io::Write> ChunkSink<'a, W> {
    fn new(w: &'a mut W, buf: &'a mut Vec<u8>, chunk_bytes: usize) -> Self {
        buf.clear();
        buf.reserve(CHUNK_HEADER_BYTES + chunk_bytes);
        buf.resize(CHUNK_HEADER_BYTES, 0);
        ChunkSink {
            w,
            buf,
            chunk_bytes,
            index: 0,
            written: 0,
        }
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        let (header, bytes) = self.buf.split_at_mut(CHUNK_HEADER_BYTES);
        if bytes.is_empty() {
            return Ok(());
        }
        let sum = chunk_checksum(self.index, bytes);
        header[0..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        header[4..12].copy_from_slice(&sum.to_le_bytes());
        self.w.write_all(self.buf)?;
        self.written += self.buf.len();
        self.index += 1;
        self.buf.truncate(CHUNK_HEADER_BYTES);
        Ok(())
    }

    /// Emit the final (short) chunk; returns total wire bytes written.
    fn finish(mut self) -> std::io::Result<usize> {
        self.flush_chunk()?;
        Ok(self.written)
    }
}

impl<W: std::io::Write> WireSink for ChunkSink<'_, W> {
    fn put(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            let room = CHUNK_HEADER_BYTES + self.chunk_bytes - self.buf.len();
            let take = room.min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() == CHUNK_HEADER_BYTES + self.chunk_bytes {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }
}

/// Batch size (in values) for the bulk putters' stack buffer: large enough
/// that the per-`put` bookkeeping is noise next to the conversion loop
/// (fp16 encodes 1.6× faster at 512 than at 64), small enough to stay in L1.
const PUT_BATCH: usize = 512;

/// Bulk little-endian f32 emit: one `put` per batch through a stack
/// buffer; the inner loop is a straight store on LE targets.
fn put_f32s<S: WireSink>(s: &mut S, xs: &[f32]) -> std::io::Result<()> {
    let mut buf = [0u8; 4 * PUT_BATCH];
    for ch in xs.chunks(PUT_BATCH) {
        for (i, &x) in ch.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&x.to_le_bytes());
        }
        s.put(&buf[..4 * ch.len()])?;
    }
    Ok(())
}

fn put_u32s<S: WireSink>(s: &mut S, xs: &[u32]) -> std::io::Result<()> {
    let mut buf = [0u8; 4 * PUT_BATCH];
    for ch in xs.chunks(PUT_BATCH) {
        for (i, &x) in ch.iter().enumerate() {
            buf[4 * i..4 * i + 4].copy_from_slice(&x.to_le_bytes());
        }
        s.put(&buf[..4 * ch.len()])?;
    }
    Ok(())
}

fn put_f16s<S: WireSink>(s: &mut S, xs: &[f32]) -> std::io::Result<()> {
    let mut buf = [0u8; 2 * PUT_BATCH];
    for ch in xs.chunks(PUT_BATCH) {
        for (i, &x) in ch.iter().enumerate() {
            buf[2 * i..2 * i + 2].copy_from_slice(&f16_bits_select(x).to_le_bytes());
        }
        s.put(&buf[..2 * ch.len()])?;
    }
    Ok(())
}

fn put_i8s<S: WireSink>(s: &mut S, xs: &[f32], inv_scale: f32) -> std::io::Result<()> {
    let mut buf = [0u8; PUT_BATCH];
    for ch in xs.chunks(PUT_BATCH) {
        for (i, &x) in ch.iter().enumerate() {
            buf[i] = quantize_i8(x, inv_scale) as u8;
        }
        s.put(&buf[..ch.len()])?;
    }
    Ok(())
}

fn enc_tensor_dims<S: WireSink>(out: &mut S, t: &Tensor) -> std::io::Result<()> {
    let dims = t.shape().dims();
    out.put(&[dims.len() as u8])?;
    for &d in dims {
        out.put(&(d as u32).to_le_bytes())?;
    }
    Ok(())
}

/// Serialize a payload body through a sink. The one body encoder behind
/// [`Payload::to_wire`] and [`Payload::write_wire`].
fn write_body<S: WireSink>(p: &Payload, format: WireFormat, out: &mut S) -> std::io::Result<()> {
    match p {
        Payload::Grad(g) => {
            out.put(&g.iteration.to_le_bytes())?;
            out.put(&(g.lbs as u32).to_le_bytes())?;
            out.put(&g.n_used.to_le_bytes())?;
            match &g.data {
                GradData::Dense(vars) => {
                    match format {
                        WireFormat::Fp16 => {
                            out.put(&[GRAD_VARIANT_F16])?;
                            out.put(&(vars.len() as u32).to_le_bytes())?;
                            for t in vars {
                                enc_tensor_dims(out, t)?;
                                put_f16s(out, t.data())?;
                            }
                        }
                        WireFormat::Int8 => {
                            out.put(&[GRAD_VARIANT_I8])?;
                            out.put(&(vars.len() as u32).to_le_bytes())?;
                            for t in vars {
                                enc_tensor_dims(out, t)?;
                                let scale = t.max_abs() / 127.0;
                                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                                out.put(&scale.to_le_bytes())?;
                                put_i8s(out, t.data(), inv)?;
                            }
                        }
                        // Top-k payloads are sparsified *before* encode
                        // (`apply_wire_format`); a dense body reaching the
                        // codec under TopK encodes full-precision.
                        WireFormat::Dense | WireFormat::TopK(_) => {
                            out.put(&[GRAD_VARIANT_DENSE])?;
                            out.put(&(vars.len() as u32).to_le_bytes())?;
                            for t in vars {
                                enc_tensor_dims(out, t)?;
                                put_f32s(out, t.data())?;
                            }
                        }
                    }
                }
                GradData::Sparse(vars) => {
                    out.put(&[GRAD_VARIANT_SPARSE])?;
                    out.put(&(vars.len() as u32).to_le_bytes())?;
                    for v in vars {
                        out.put(&(v.dense_len as u32).to_le_bytes())?;
                        out.put(&(v.nnz() as u32).to_le_bytes())?;
                        put_u32s(out, &v.indices)?;
                        put_f32s(out, &v.values)?;
                    }
                }
            }
        }
        Payload::LossShare { avg_loss } => out.put(&avg_loss.to_le_bytes())?,
        Payload::DktRequest => {}
        Payload::Leave { completed } => out.put(&completed.to_le_bytes())?,
        Payload::Weights {
            weights,
            sender_loss,
        } => {
            // Weights are always full-precision: a DKT merge reads the
            // donor's model exactly.
            out.put(&sender_loss.to_le_bytes())?;
            out.put(&(weights.len() as u32).to_le_bytes())?;
            for t in weights {
                enc_tensor_dims(out, t)?;
                put_f32s(out, t.data())?;
            }
        }
    }
    Ok(())
}

/// Per-tensor encoded length under `format` (dense gradient bodies only).
fn enc_tensor_len_fmt(t: &Tensor, format: WireFormat) -> usize {
    let dims = 1 + 4 * t.shape().dims().len();
    match format {
        WireFormat::Fp16 => dims + 2 * t.numel(),
        WireFormat::Int8 => dims + 4 + t.numel(),
        WireFormat::Dense | WireFormat::TopK(_) => dims + ENC_DENSE_ENTRY_BYTES * t.numel(),
    }
}

fn enc_tensor_len(t: &Tensor) -> usize {
    enc_tensor_len_fmt(t, WireFormat::Dense)
}

// ===================================================================
// Deterministic quantization
// ===================================================================

/// f32 → IEEE-754 binary16 bits, round-to-nearest-even; overflow goes to
/// ±inf, underflow to ±0 through the subnormal range. Deterministic (no
/// stochastic rounding). The reference form: the codec and the simulator
/// both run `f16_bits_select`, which the tests hold to this one bit for
/// bit on every input.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let mant32 = bits & 0x007f_ffff;
    if exp32 == 0xff {
        // Inf / NaN (NaN keeps a mantissa bit set).
        let nan = if mant32 != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    let e = exp32 - 127;
    if e > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e >= -14 {
        // Normal half: round the 23-bit mantissa to 10 bits, ties to even.
        let mut mant = mant32 >> 13;
        let rem = mant32 & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && mant & 1 == 1) {
            mant += 1;
        }
        let mut exp16 = (e + 15) as u32;
        if mant == 0x400 {
            // Mantissa rounded over; carry into the exponent.
            mant = 0;
            exp16 += 1;
            if exp16 >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((exp16 as u16) << 10) | mant as u16;
    }
    if e >= -25 {
        // Subnormal half: value = mant16 · 2⁻²⁴.
        let full = mant32 | 0x0080_0000;
        let shift = (13 - 14 - e) as u32; // 13 + (-14 - e), in 14..=24
        let mant = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut m = mant;
        if rem > half || (rem == half && m & 1 == 1) {
            m += 1; // may carry to 0x400 == smallest normal; encoding lines up
        }
        return sign | m as u16;
    }
    sign // underflow → ±0
}

/// IEEE-754 binary16 bits → f32 (exact). The reference form of
/// `f16_to_f32_select`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    match (exp, mant) {
        (0, 0) => f32::from_bits(sign),
        (0, m) => {
            // Subnormal: m · 2⁻²⁴, exactly representable in f32.
            let v = m as f32 * (1.0 / 16_777_216.0);
            if sign != 0 {
                -v
            } else {
                v
            }
        }
        (0x1f, 0) => f32::from_bits(sign | 0x7f80_0000),
        (0x1f, _) => f32::from_bits(sign | 0x7fc0_0000),
        (e, m) => f32::from_bits(sign | ((e + 112) << 23) | (m << 13)),
    }
}

/// [`f32_to_f16_bits`] without branches, for the bulk encoder: the three
/// ranges (inf/NaN/overflow, normal, subnormal) are all computed and one is
/// selected, so a loop over it vectorizes. Bit-identical to the reference
/// on every input (`bulk_f16_encode_matches_the_reference_*` tests).
#[inline(always)]
fn f16_bits_select(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    // Exponent above 15 (or inf): ±inf; NaN: quiet bit set.
    let special = if abs > 0x7f80_0000 { 0x7e00 } else { 0x7c00 };
    // Normal half: re-bias the exponent and round the 13 dropped mantissa
    // bits to nearest even with one integer add; a mantissa carry walks
    // into the exponent, up to 0x7c00 = inf.
    let odd = (abs >> 13) & 1;
    let normal = abs.wrapping_sub((112 << 23) - 0xfff - odd) >> 13;
    // Subnormal half (and underflow to zero): adding 0.5 leaves exactly
    // the 10 result bits at the bottom of the f32 mantissa, rounded to
    // nearest even by the IEEE add itself.
    let half = 0.5f32.to_bits();
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(half);
    let magnitude = if abs >= (143 << 23) {
        special
    } else if abs < (113 << 23) {
        subnormal
    } else {
        normal
    };
    (sign | magnitude) as u16
}

/// [`f16_bits_to_f32`] without branches, for the bulk decoder.
#[inline(always)]
fn f16_to_f32_select(h: u16) -> f32 {
    let h = h as u32;
    let sign = (h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = h & 0x3ff;
    let normal = ((exp + 112) << 23) | (mant << 13);
    // mant · 2⁻²⁴: both conversions exact; zero stays zero.
    let subnormal = (mant as f32 * (1.0 / 16_777_216.0)).to_bits();
    let special = if mant == 0 { 0x7f80_0000 } else { 0x7fc0_0000 };
    let magnitude = if exp == 0 {
        subnormal
    } else if exp == 0x1f {
        special
    } else {
        normal
    };
    f32::from_bits(sign | magnitude)
}

/// Symmetric int8 quantization: `round(x · inv_scale)` clamped to
/// ±127 (`inv_scale = 127 / max|g|`; 0 when the tensor is all zero).
pub fn quantize_i8(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round().clamp(-127.0, 127.0) as i8
}

// ===================================================================
// Body decoders
// ===================================================================

/// Decode one tensor of the given gradient variant, drawing value storage
/// from `pool`. The values are `extend`ed from 4-byte (f32), 2-byte (f16)
/// or 1-byte (i8) lanes of the validated body slice: one reservation (none
/// when the pool is warm), no zero-fill before the real values land.
fn dec_tensor_fmt(
    c: &mut Cursor<'_>,
    variant: u8,
    pool: &mut Vec<Vec<f32>>,
) -> Result<Tensor, WireError> {
    let rank = c.u8()? as usize;
    if rank > MAX_RANK {
        return Err(WireError::Malformed("tensor rank too large"));
    }
    let mut dims = [0usize; MAX_RANK];
    let mut numel: usize = 1;
    for d in &mut dims[..rank] {
        *d = c.u32()? as usize;
        numel = numel
            .checked_mul(*d)
            .ok_or(WireError::Malformed("tensor element count overflow"))?;
    }
    let entry_bytes = match variant {
        GRAD_VARIANT_F16 => 2,
        GRAD_VARIANT_I8 => 1,
        _ => ENC_DENSE_ENTRY_BYTES,
    };
    let scale = if variant == GRAD_VARIANT_I8 {
        c.f32()?
    } else {
        0.0
    };
    // Bound the allocation by the bytes actually present before reserving.
    let need = numel
        .checked_mul(entry_bytes)
        .ok_or(WireError::Malformed("tensor element count overflow"))?;
    let bytes = c.take(need)?;
    let mut data = pool.pop().unwrap_or_default();
    data.clear();
    match variant {
        GRAD_VARIANT_F16 => data.extend(
            bytes
                .chunks_exact(2)
                .map(|b| f16_to_f32_select(u16::from_le_bytes(b.try_into().unwrap()))),
        ),
        GRAD_VARIANT_I8 => data.extend(bytes.iter().map(|&b| (b as i8) as f32 * scale)),
        _ => data.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap())),
        ),
    }
    Ok(Tensor::from_vec(Shape::new(&dims[..rank]), data))
}

fn dec_sparse(c: &mut Cursor<'_>) -> Result<SparseVec, WireError> {
    let dense_len = c.u32()? as usize;
    let nnz = c.u32()? as usize;
    if nnz > dense_len {
        return Err(WireError::Malformed("sparse nnz exceeds dense length"));
    }
    let need = nnz
        .checked_mul(ENC_SPARSE_ENTRY_BYTES)
        .ok_or(WireError::Malformed("sparse entry count overflow"))?;
    c.ensure(need)?;
    let indices: Vec<u32> = c
        .take(4 * nnz)?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    // Strictly increasing and the last one in range ⇒ all in range.
    if !indices.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Malformed("sparse indices not increasing"));
    }
    if indices.last().is_some_and(|&i| i as usize >= dense_len) {
        return Err(WireError::Malformed("sparse index out of range"));
    }
    let values: Vec<f32> = c
        .take(4 * nnz)?
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    Ok(SparseVec {
        indices,
        values,
        dense_len,
    })
}

/// Bounds-checked little-endian reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn ensure(&self, n: usize) -> Result<(), WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated {
                need: self.pos + n,
                have: self.buf.len(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.ensure(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_tensor::sparse::max_n_select;
    use dlion_tensor::Shape;

    /// One plain frame whatever the body size: the canonical bytes the tests
    /// below compare payloads by.
    const PLAIN: WireCfg = WireCfg {
        format: WireFormat::Dense,
        chunk_bytes: usize::MAX,
    };

    fn sparse_msg() -> GradMsg {
        let dense = vec![1.0f32, -0.5, 0.0, 0.95, -0.2];
        GradMsg {
            iteration: 3,
            lbs: 32,
            data: GradData::Sparse(vec![max_n_select(&dense, 10.0), max_n_select(&dense, 10.0)]),
            n_used: 10.0,
        }
    }

    fn dense_msg() -> GradMsg {
        GradMsg {
            iteration: 3,
            lbs: 32,
            data: GradData::Dense(vec![
                Tensor::zeros(Shape::d1(7)),
                Tensor::zeros(Shape::d1(3)),
            ]),
            n_used: 100.0,
        }
    }

    #[test]
    fn entries_counts_all_vars() {
        // N=10 -> |v| >= 0.9: {1.0, 0.95} per var.
        assert_eq!(sparse_msg().entries(), 4);
        assert_eq!(dense_msg().entries(), 10);
    }

    #[test]
    fn sparse_wire_bytes_scale() {
        // 4 entries * 2 * bytes_per_param.
        assert_eq!(sparse_msg().wire_bytes(100.0, 10), 800.0);
    }

    #[test]
    fn dense_wire_bytes_use_total_params() {
        assert_eq!(dense_msg().wire_bytes(100.0, 10), 1000.0);
    }

    #[test]
    fn dense_model_bytes_match_paper_scale() {
        // 5 MB model, 14k params: a dense message is exactly the model wire
        // size regardless of the in-memory parameter count.
        let bytes_per_param = 5_000_000.0 / 14_000.0;
        assert!((dense_msg().wire_bytes(bytes_per_param, 14_000) - 5_000_000.0).abs() < 1.0);
    }

    #[test]
    fn sparse_full_selection_costs_twice_dense() {
        // Sending everything sparsely pays the index overhead — strategies
        // should switch to dense at high N.
        let dense = vec![1.0f32; 10];
        let m = GradMsg {
            iteration: 0,
            lbs: 32,
            data: GradData::Sparse(vec![max_n_select(&dense, 100.0)]),
            n_used: 100.0,
        };
        assert_eq!(m.wire_bytes(100.0, 10), 2.0 * 1000.0);
    }

    #[test]
    fn control_payloads_are_tiny() {
        // Control byte counts are derived from the codec's real encoded
        // sizes, not ad-hoc constants.
        let dkt = Payload::DktRequest;
        let loss = Payload::LossShare { avg_loss: 1.0 };
        assert_eq!(
            dkt.wire_bytes(1000.0, 1_000_000),
            dkt.wire_len(&PLAIN) as f64
        );
        assert_eq!(
            loss.wire_bytes(1000.0, 1_000_000),
            loss.wire_len(&PLAIN) as f64
        );
        assert_eq!(loss.wire_bytes(1000.0, 1_000_000), CONTROL_BYTES);
        assert_eq!(dkt.wire_len(&PLAIN), FRAME_HEADER_BYTES);
    }

    #[test]
    fn frame_round_trip_basics() {
        for payload in [
            Payload::Grad(dense_msg()),
            Payload::Grad(sparse_msg()),
            Payload::LossShare { avg_loss: -2.75 },
            Payload::DktRequest,
            Payload::Weights {
                weights: vec![Tensor::from_vec(Shape::d1(3), vec![1.0, -2.0, 0.5])],
                sender_loss: 0.25,
            },
        ] {
            let frame = payload.to_wire(&PLAIN);
            assert_eq!(frame.len(), payload.wire_len(&PLAIN), "{}", payload.kind());
            let back = Payload::from_wire(&frame, &mut Vec::new()).expect("round trip");
            assert_eq!(back.kind(), payload.kind());
            assert_eq!(frame, back.to_wire(&PLAIN), "re-encode must be identical");
        }
    }

    #[test]
    fn decode_rejects_net_control_kinds() {
        let frame = encode_frame(KIND_NET_BASE, &[]);
        let (kind, body) = decode_frame(&frame).expect("frame level ok");
        assert_eq!(kind, KIND_NET_BASE);
        assert_eq!(
            Payload::decode_body(kind, body),
            Err(WireError::BadKind(KIND_NET_BASE))
        );
    }

    #[test]
    fn decode_rejects_unsorted_sparse_indices() {
        let mut body = Vec::new();
        super::put_u64(&mut body, 0); // iteration
        super::put_u32(&mut body, 32); // lbs
        super::put_f64(&mut body, 1.0); // n_used
        body.push(1); // sparse variant
        super::put_u32(&mut body, 1); // one var
        super::put_u32(&mut body, 10); // dense_len
        super::put_u32(&mut body, 2); // nnz
        super::put_u32(&mut body, 5);
        super::put_u32(&mut body, 5); // duplicate index
        super::put_f32(&mut body, 1.0);
        super::put_f32(&mut body, 2.0);
        let frame = encode_frame(KIND_GRAD, &body);
        assert_eq!(
            Payload::from_wire(&frame, &mut Vec::new()),
            Err(WireError::Malformed("sparse indices not increasing"))
        );
    }

    /// A hand-built gradient body up to its single variable.
    fn one_var_grad_body(variant: u8) -> Vec<u8> {
        let mut body = Vec::new();
        super::put_u64(&mut body, 0); // iteration
        super::put_u32(&mut body, 32); // lbs
        super::put_f64(&mut body, 1.0); // n_used
        body.push(variant);
        super::put_u32(&mut body, 1); // one var
        body
    }

    /// A one-variable sparse gradient frame with the given index list.
    fn sparse_frame(dense_len: u32, nnz: u32, indices: &[u32]) -> Vec<u8> {
        let mut body = one_var_grad_body(GRAD_VARIANT_SPARSE);
        super::put_u32(&mut body, dense_len);
        super::put_u32(&mut body, nnz);
        for &i in indices {
            super::put_u32(&mut body, i);
        }
        for i in 0..indices.len() {
            super::put_f32(&mut body, i as f32);
        }
        encode_frame(KIND_GRAD, &body)
    }

    #[test]
    fn decode_rejects_bad_sparse_index_lists() {
        let decode = |frame: Vec<u8>| Payload::from_wire(&frame, &mut Vec::new());
        assert!(decode(sparse_frame(10, 3, &[2, 5, 9])).is_ok());
        for (dense_len, nnz, indices, what) in [
            (10, 3, &[2, 7, 5][..], "sparse indices not increasing"), // unsorted
            (10, 3, &[2, 5, 5][..], "sparse indices not increasing"), // duplicate
            (10, 3, &[2, 5, 10][..], "sparse index out of range"),    // last one past the end
            (2, 3, &[0, 1, 2][..], "sparse nnz exceeds dense length"),
        ] {
            assert_eq!(
                decode(sparse_frame(dense_len, nnz, indices)),
                Err(WireError::Malformed(what)),
                "{indices:?} in {dense_len}"
            );
        }
        // Fewer entries present than `nnz` announces: refused before any
        // allocation sized by it.
        assert!(matches!(
            decode(sparse_frame(1 << 30, 1 << 29, &[1, 2])),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(Payload::Grad(sparse_msg()).kind(), "grad");
        assert_eq!(Payload::DktRequest.kind(), "dkt_request");
        assert_eq!(Payload::LossShare { avg_loss: 0.0 }.kind(), "loss_share");
        assert_eq!(
            Payload::Weights {
                weights: vec![],
                sender_loss: 0.0
            }
            .kind(),
            "weights"
        );
    }

    fn big_dense(n: usize) -> Payload {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        Payload::Grad(GradMsg {
            iteration: 9,
            lbs: 64,
            data: GradData::Dense(vec![Tensor::from_vec(Shape::d1(n), data)]),
            n_used: 100.0,
        })
    }

    #[test]
    fn chunked_stream_round_trips_and_matches_wire_len() {
        let p = big_dense(1000); // 4 KB body over 256-byte chunks
        let cfg = WireCfg {
            format: WireFormat::Dense,
            chunk_bytes: 256,
        };
        assert!(p.wire_is_chunked(&cfg));
        let stream = p.to_wire(&cfg);
        assert_eq!(stream.len(), p.wire_len(&cfg));
        let mut scratch = Vec::new();
        let back = Payload::from_wire(&stream, &mut scratch).expect("chunked round trip");
        assert_eq!(back.to_wire(&PLAIN), p.to_wire(&PLAIN));
        // Plain frames decode through the same entry point.
        let plain = p.to_wire(&PLAIN);
        let back2 = Payload::from_wire(&plain, &mut scratch).expect("plain via from_wire");
        assert_eq!(back2.to_wire(&PLAIN), plain);
    }

    #[test]
    fn write_wire_streams_exactly_to_wire_bytes() {
        let p = big_dense(777);
        for chunk_bytes in [64, 300, 4096, usize::MAX] {
            for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
                let cfg = WireCfg {
                    format,
                    chunk_bytes,
                };
                let mut streamed = Vec::new();
                let mut scratch = Vec::new();
                let n = p.write_wire(&mut streamed, &cfg, &mut scratch).unwrap();
                assert_eq!(n, streamed.len());
                assert_eq!(n, p.wire_len(&cfg));
                assert_eq!(streamed, p.to_wire(&cfg), "{format:?}/{chunk_bytes}");
            }
        }
    }

    /// A writer that counts the `write` calls it takes and keeps every byte.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_wire_makes_one_write_per_frame_and_per_chunk() {
        let payloads = [
            Payload::Grad(dense_msg()),
            Payload::Grad(sparse_msg()),
            big_dense(777),
            Payload::LossShare { avg_loss: 0.75 },
            Payload::DktRequest,
            Payload::Leave { completed: 11 },
            Payload::Weights {
                weights: vec![Tensor::from_vec(
                    Shape::d1(5),
                    vec![0.5, -1.0, 2.0, 0.0, 3.5],
                )],
                sender_loss: 1.25,
            },
        ];
        for p in &payloads {
            for chunk_bytes in [64, 300, 4096, usize::MAX] {
                for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
                    let cfg = WireCfg {
                        format,
                        chunk_bytes,
                    };
                    let mut w = CountingWriter::default();
                    let mut scratch = Vec::new();
                    let n = p.write_wire(&mut w, &cfg, &mut scratch).unwrap();
                    let case = format!("{} {format:?}/{chunk_bytes}", p.kind());
                    assert_eq!(n, w.bytes.len(), "{case}");
                    assert_eq!(w.bytes, p.to_wire(&cfg), "{case}");
                    // A plain frame is one write; a chunked stream is its
                    // header, then one write per chunk (header and bytes).
                    let body = p.body_len_with(format);
                    let calls = if body <= chunk_bytes {
                        1
                    } else {
                        1 + body.div_ceil(chunk_bytes)
                    };
                    assert_eq!(w.calls, calls, "{case}");
                }
            }
        }
    }

    #[test]
    fn fp16_round_trip_error_is_bounded() {
        for i in 0..10_000 {
            let x = ((i as f32) - 5_000.0) * 0.0137;
            let y = f16_bits_to_f32(f32_to_f16_bits(x));
            let tol = x.abs() * (1.0 / 1024.0) + 1e-7;
            assert!((x - y).abs() <= tol, "x={x} y={y}");
            // Re-quantizing a quantized value is a fixed point.
            assert_eq!(f32_to_f16_bits(y), f32_to_f16_bits(x));
        }
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(0.0)), 0.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0)), 1.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-2.5)), -2.5);
        assert!(f16_bits_to_f32(f32_to_f16_bits(1.0e6)).is_infinite());
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn int8_round_trip_error_is_bounded_by_half_scale() {
        let vals: Vec<f32> = (0..1000).map(|i| ((i as f32) - 500.0) * 0.011).collect();
        let max_abs = vals.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        let scale = max_abs / 127.0;
        let inv = 1.0 / scale;
        for &x in &vals {
            let y = quantize_i8(x, inv) as f32 * scale;
            assert!((x - y).abs() <= scale / 2.0 + 1e-6, "x={x} y={y}");
        }
        // All-zero tensors quantize to zero (inv_scale = 0).
        assert_eq!(quantize_i8(0.0, 0.0), 0);
    }

    #[test]
    fn quantized_formats_round_trip_through_the_codec() {
        let p = big_dense(513);
        for (format, label) in [
            (WireFormat::Fp16, "grad_fp16"),
            (WireFormat::Int8, "grad_int8"),
        ] {
            let cfg = WireCfg {
                format,
                chunk_bytes: 512,
            };
            let stream = p.to_wire(&cfg);
            assert_eq!(stream.len(), p.wire_len(&cfg));
            let mut scratch = Vec::new();
            let decoded = Payload::from_wire(&stream, &mut scratch).unwrap();
            // Codec decode == simulator's in-place quantize round trip.
            let mut expect = big_dense(513);
            apply_wire_format(&mut expect, format);
            assert_eq!(decoded.to_wire(&PLAIN), expect.to_wire(&PLAIN), "{label}");
            assert_eq!(WIRE_LABELS[wire_slot(&p, format)], label);
        }
    }

    #[test]
    fn topk_is_applied_above_the_codec() {
        let mut p = big_dense(100);
        apply_wire_format(&mut p, WireFormat::TopK(10.0));
        let Payload::Grad(g) = &p else { unreachable!() };
        assert!(matches!(g.data, GradData::Sparse(_)));
        assert_eq!(g.n_used, 10.0);
        assert_eq!(
            WIRE_LABELS[wire_slot(&p, WireFormat::TopK(10.0))],
            "grad_sparse"
        );
    }

    #[test]
    fn pooled_decode_reuses_recycled_buffers() {
        let p = big_dense(257);
        let frame = p.to_wire(&PLAIN);
        let (kind, body) = decode_frame(&frame).unwrap();
        let mut pool = Vec::new();
        let first = Payload::decode_body_pooled(kind, body, &mut pool).unwrap();
        first.recycle(&mut pool);
        assert_eq!(pool.len(), 1);
        let cap_before = pool[0].capacity();
        let second = Payload::decode_body_pooled(kind, body, &mut pool).unwrap();
        assert!(pool.is_empty(), "pooled buffer was consumed");
        assert_eq!(second.to_wire(&PLAIN), frame);
        second.recycle(&mut pool);
        assert!(pool[0].capacity() >= cap_before);
    }

    /// f32 bit patterns around every rounding decision of the f32 → f16
    /// conversion: each exponent and sign with mantissas at the ends, at
    /// the tie of the normal range and next to it; ±0, ±inf, NaNs; and the
    /// band that lands in the subnormal half range (2⁻²⁵…2⁻¹⁴, dropping
    /// 14…24 mantissa bits) with ties, near-ties, odd and even keepers at
    /// every shift.
    fn f16_edge_patterns() -> Vec<u32> {
        let mut bits = vec![0, 0x8000_0000, 0x7f80_0000, 0xff80_0000];
        bits.extend([0x7f80_0001, 0x7fc0_0000, 0xffc0_1234, 0x7fff_ffff]);
        for sign in [0u32, 0x8000_0000] {
            for exp in 0..=0xffu32 {
                for mant in [0, 1, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x7f_e000, 0x7f_ffff] {
                    bits.push(sign | (exp << 23) | mant);
                }
            }
            for exp in (127 - 26)..=(127 - 14) {
                for p in 0..23 {
                    let one = 1u32 << p;
                    for mant in [one, one - 1, one + 1, 3 * one, 0x7f_ffff ^ one] {
                        bits.push(sign | (exp << 23) | (mant & 0x7f_ffff));
                    }
                }
            }
        }
        bits
    }

    /// The bulk encoder's halves for `xs`.
    fn bulk_f16(xs: &[f32]) -> Vec<u16> {
        let mut out = Vec::new();
        put_f16s(&mut out, xs).unwrap();
        out.chunks_exact(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn bulk_f16_encode_matches_the_reference_at_every_rounding_edge() {
        let xs: Vec<f32> = f16_edge_patterns()
            .into_iter()
            .map(f32::from_bits)
            .collect();
        for (x, got) in xs.iter().zip(bulk_f16(&xs)) {
            assert_eq!(got, f32_to_f16_bits(*x), "{:#010x}", x.to_bits());
        }
    }

    /// Release-only (`cargo test --release -p dlion-core -- --ignored f16`,
    /// about ten seconds): all 2³² inputs.
    #[test]
    #[ignore]
    fn bulk_f16_encode_matches_the_reference_on_every_f32() {
        const STEP: u32 = 1 << 16;
        let mut xs = vec![0f32; STEP as usize];
        for base in (0..=u32::MAX).step_by(STEP as usize) {
            for (i, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(base + i as u32);
            }
            for (x, got) in xs.iter().zip(bulk_f16(&xs)) {
                assert_eq!(got, f32_to_f16_bits(*x), "{:#010x}", x.to_bits());
            }
        }
    }

    /// A dense gradient body of one rank-1 tensor in the given quantized
    /// variant, straight from raw value bytes.
    fn quantized_frame(variant: u8, scale: Option<f32>, numel: u32, values: &[u8]) -> Vec<u8> {
        let mut body = one_var_grad_body(variant);
        body.push(1); // rank
        super::put_u32(&mut body, numel);
        if let Some(scale) = scale {
            super::put_f32(&mut body, scale);
        }
        body.extend_from_slice(values);
        encode_frame(KIND_GRAD, &body)
    }

    fn decoded_values(frame: &[u8]) -> Vec<f32> {
        match Payload::from_wire(frame, &mut Vec::new()).unwrap() {
            Payload::Grad(GradMsg {
                data: GradData::Dense(mut vars),
                ..
            }) => vars.remove(0).into_data(),
            other => panic!("decoded to {}", other.kind()),
        }
    }

    #[test]
    fn f16_decode_matches_the_reference_on_every_half() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_to_f32_select(h), f16_bits_to_f32(h));
            assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
        }
        // ...and through the bulk decoder, which is what receivers run.
        let halves: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let got = decoded_values(&quantized_frame(GRAD_VARIANT_F16, None, 1 << 16, &halves));
        for (h, got) in (0..=u16::MAX).zip(got) {
            assert_eq!(got.to_bits(), f16_bits_to_f32(h).to_bits(), "{h:#06x}");
        }
    }

    #[test]
    fn int8_bulk_decode_matches_the_reference_on_every_byte() {
        let bytes: Vec<u8> = (0..=u8::MAX).collect();
        for scale in [0.0f32, 1.0, 0.0123, -3.5e-7, 7.0e30, f32::INFINITY] {
            let got = decoded_values(&quantized_frame(GRAD_VARIANT_I8, Some(scale), 256, &bytes));
            for (b, got) in bytes.iter().zip(got) {
                let want = (*b as i8) as f32 * scale;
                assert_eq!(got.to_bits(), want.to_bits(), "{b} × {scale}");
            }
        }
    }

    #[test]
    fn fnv8_incremental_updates_match_one_shot() {
        let bytes: Vec<u8> = (0..1029u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut one = Fnv8::new(FNV_OFFSET);
        one.update(&bytes);
        for split in [0, 1, 7, 8, 9, 512, bytes.len()] {
            let mut two = Fnv8::new(FNV_OFFSET);
            two.update(&bytes[..split]);
            two.update(&bytes[split..]);
            assert_eq!(one.digest(), two.digest(), "split at {split}");
        }
        // Length is folded in: a zero-padded prefix is not a collision.
        let mut short = Fnv8::new(FNV_OFFSET);
        short.update(&bytes[..bytes.len() - 1]);
        assert_ne!(one.digest(), short.digest());
    }

    #[test]
    fn chunk_checksums_are_index_seeded() {
        let bytes = [1u8, 2, 3, 4];
        assert_ne!(chunk_checksum(0, &bytes), chunk_checksum(1, &bytes));
    }

    #[test]
    fn wire_format_parse() {
        assert_eq!(WireFormat::parse("dense"), Ok(WireFormat::Dense));
        assert_eq!(WireFormat::parse("fp16"), Ok(WireFormat::Fp16));
        assert_eq!(WireFormat::parse("int8"), Ok(WireFormat::Int8));
        assert_eq!(WireFormat::parse("topk"), Ok(WireFormat::TopK(10.0)));
        assert_eq!(WireFormat::parse("topk:25"), Ok(WireFormat::TopK(25.0)));
        assert!(WireFormat::parse("topk:0").is_err());
        assert!(WireFormat::parse("topk:101").is_err());
        assert!(WireFormat::parse("fp8").is_err());
    }

    #[test]
    fn quantized_bodies_are_smaller_on_the_wire() {
        let p = big_dense(4096);
        let dense = p.body_len_with(WireFormat::Dense);
        let fp16 = p.body_len_with(WireFormat::Fp16);
        let int8 = p.body_len_with(WireFormat::Int8);
        assert!(fp16 < dense && int8 < fp16, "{dense} {fp16} {int8}");
        // Per-value cost dominates: ~2 bytes fp16, ~1 byte int8.
        assert!((fp16 as f64) < 0.55 * dense as f64);
        assert!((int8 as f64) < 0.30 * dense as f64);
    }
}
