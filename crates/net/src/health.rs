//! The cluster health plane (DESIGN.md §4h): the [`crate::KIND_STATS`]
//! report codec and the aggregation that turns per-worker reports into a
//! cluster view — straggler scores, a silence ledger, and the final
//! [`dlion_core::HealthSummary`] in `RunMetrics`.
//!
//! Two kinds of quantity flow through this module, and they are kept
//! strictly apart:
//!
//! * **Deterministic counters** — report rounds, iterations, and the
//!   training-clock rates behind the straggler scores. Reports are
//!   scheduled on the *training clock* (accumulated per-iteration `dt`,
//!   pinnable via `--assumed-iter-time`), exactly like GBS adjustment
//!   rounds, so the report cadence and every derived counter is a pure
//!   function of the iteration schedule: bit-identical across repeat runs
//!   and across Mem vs TCP transports, and testable on a
//!   [`dlion_core::ManualClock`] with zero real sleeps.
//! * **Advisory load signals** — send-queue depths, deferred-gradient
//!   backlog, scratch high-water, frame-lifecycle latency. These are
//!   wall-clock / arrival-order artifacts: invaluable on a dashboard,
//!   never compared bit-for-bit.

use crate::LiveError;

/// Wire labels of the byte ledger carried in a [`WorkerStats`] report, in
/// body order — the same six fixed keys as the `wire_bytes_by_kind` trace
/// event, so dashboard columns line up with the ledger everywhere else.
pub use dlion_core::messages::WIRE_LABELS;

/// One worker's periodic health report — the body of a
/// [`crate::KIND_STATS`] frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Health round this report belongs to (round `r` has nominal time
    /// `r × health_interval` on the training clock; rounds start at 1).
    pub round: u64,
    /// Iterations the worker has completed.
    pub iteration: u64,
    /// GBS adjustment rounds the worker has completed.
    pub gbs_round: u64,
    /// Deferred peer gradients parked for the next BSP flush (advisory).
    pub deferred: u32,
    /// Deepest per-peer send queue right now, in frames (advisory; 0 on
    /// transports without queue instrumentation).
    pub sendq_depth: u32,
    /// High-water of the inbound chunked-stream reassembly scratch, bytes.
    pub scratch_hw: u64,
    /// Samples/sec EWMA — the worker's measured throughput, the same
    /// signal the §3.2 GBS/LBS controller turns into an RCP.
    pub ewma_rate: f64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    /// Exact encoded bytes sent so far, bucketed per [`WIRE_LABELS`].
    pub bytes_by_kind: [f64; 6],
}

/// Encoded size of a [`WorkerStats`] body.
pub const STATS_BODY_BYTES: usize = 112;

/// Encode a [`WorkerStats`] report as a fixed-size little-endian body.
pub fn stats_body(s: &WorkerStats) -> [u8; STATS_BODY_BYTES] {
    let mut b = [0u8; STATS_BODY_BYTES];
    b[0..8].copy_from_slice(&s.round.to_le_bytes());
    b[8..16].copy_from_slice(&s.iteration.to_le_bytes());
    b[16..24].copy_from_slice(&s.gbs_round.to_le_bytes());
    b[24..28].copy_from_slice(&s.deferred.to_le_bytes());
    b[28..32].copy_from_slice(&s.sendq_depth.to_le_bytes());
    b[32..40].copy_from_slice(&s.scratch_hw.to_le_bytes());
    b[40..48].copy_from_slice(&s.ewma_rate.to_le_bytes());
    b[48..56].copy_from_slice(&s.msgs_sent.to_le_bytes());
    b[56..64].copy_from_slice(&s.msgs_recv.to_le_bytes());
    for (i, v) in s.bytes_by_kind.iter().enumerate() {
        b[64 + i * 8..72 + i * 8].copy_from_slice(&v.to_le_bytes());
    }
    b
}

/// Decode [`stats_body`]. Rejects any body that is not exactly
/// [`STATS_BODY_BYTES`] long — the frame codec's checksum already caught
/// corruption, so a wrong length means a protocol violation.
pub fn parse_stats(body: &[u8], from: usize) -> Result<WorkerStats, LiveError> {
    if body.len() != STATS_BODY_BYTES {
        return Err(LiveError::Protocol(format!(
            "bad stats body from {from}: {} bytes",
            body.len()
        )));
    }
    let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().unwrap());
    let u32_at = |o: usize| u32::from_le_bytes(body[o..o + 4].try_into().unwrap());
    let f64_at = |o: usize| f64::from_le_bytes(body[o..o + 8].try_into().unwrap());
    let mut bytes_by_kind = [0.0f64; 6];
    for (i, v) in bytes_by_kind.iter_mut().enumerate() {
        *v = f64_at(64 + i * 8);
    }
    Ok(WorkerStats {
        round: u64_at(0),
        iteration: u64_at(8),
        gbs_round: u64_at(16),
        deferred: u32_at(24),
        sendq_depth: u32_at(28),
        scratch_hw: u64_at(32),
        ewma_rate: f64_at(40),
        msgs_sent: u64_at(48),
        msgs_recv: u64_at(56),
        bytes_by_kind,
    })
}

/// Merges [`WorkerStats`] reports into a cluster view: the latest report
/// and report count per worker, plus the silence ledger. Each live worker
/// runs one (tracking its peers); the orchestrator builds the final
/// cluster summary from the outcomes instead (see
/// `live::assemble_metrics`), because per-frame arrival order is not
/// deterministic but the per-worker round schedules are.
#[derive(Clone, Debug)]
pub struct HealthAggregator {
    /// Latest report seen from each worker.
    last: Vec<Option<WorkerStats>>,
    /// Stats frames received from each worker.
    frames: Vec<u64>,
    /// Workers flagged silent (flagging is one-shot per worker).
    silent: Vec<bool>,
}

impl HealthAggregator {
    pub fn new(n: usize) -> HealthAggregator {
        HealthAggregator {
            last: vec![None; n],
            frames: vec![0; n],
            silent: vec![false; n],
        }
    }

    /// Fold in one report from `from`. Out-of-order frames (impossible
    /// per-peer under FIFO transports, but cheap to guard) keep the
    /// newest round.
    pub fn record(&mut self, from: usize, stats: WorkerStats) {
        if from >= self.last.len() {
            return;
        }
        self.frames[from] += 1;
        match &self.last[from] {
            Some(prev) if prev.round > stats.round => {}
            _ => self.last[from] = Some(stats),
        }
    }

    /// Flag `peer` silent. Returns `true` the first time (callers emit
    /// their `health_silence` event exactly once per peer).
    pub fn flag_silent(&mut self, peer: usize) -> bool {
        if peer >= self.silent.len() || self.silent[peer] {
            return false;
        }
        self.silent[peer] = true;
        true
    }

    pub fn is_silent(&self, peer: usize) -> bool {
        self.silent.get(peer).copied().unwrap_or(false)
    }

    /// Workers flagged silent so far, in id order.
    pub fn silent_peers(&self) -> Vec<usize> {
        (0..self.silent.len()).filter(|&j| self.silent[j]).collect()
    }

    /// Latest report from `peer`, if any arrived.
    pub fn last_report(&self, peer: usize) -> Option<&WorkerStats> {
        self.last.get(peer).and_then(|r| r.as_ref())
    }

    /// Stats frames received from `peer`.
    pub fn frames_from(&self, peer: usize) -> u64 {
        self.frames.get(peer).copied().unwrap_or(0)
    }

    /// Total stats frames received.
    pub fn frames_total(&self) -> u64 {
        self.frames.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KIND_STATS;
    use dlion_core::messages::{decode_wire, encode_frame, Payload};

    fn stats() -> WorkerStats {
        WorkerStats {
            round: 4,
            iteration: 21,
            gbs_round: 3,
            deferred: 2,
            sendq_depth: 5,
            scratch_hw: 1 << 20,
            ewma_rate: 612.5,
            msgs_sent: 40,
            msgs_recv: 39,
            bytes_by_kind: [123456.0, 0.0, 0.5, 0.0, 98304.0, 28.0],
        }
    }

    #[test]
    fn stats_round_trip_through_the_frame_codec() {
        let s = stats();
        let frame = encode_frame(KIND_STATS, &stats_body(&s));
        let mut scratch = Vec::new();
        let (kind, body) = decode_wire(&frame, &mut scratch).unwrap();
        assert_eq!(kind, KIND_STATS);
        assert_eq!(parse_stats(body, 1).unwrap(), s);
        // A stats frame is a control frame: the payload decoder must
        // reject it rather than misread it as training traffic.
        assert!(Payload::from_wire(&frame, &mut Vec::new()).is_err());
    }

    #[test]
    fn corrupted_stats_frames_are_rejected() {
        let frame = encode_frame(KIND_STATS, &stats_body(&stats()));
        let mut scratch = Vec::new();
        // Flip one bit anywhere: the frame checksum must catch it before
        // parse_stats ever sees the body.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            if decode_wire(&bad, &mut scratch).is_err() {
                continue;
            }
            // The only survivable flips are inside the header's own
            // checksum field reshuffling — there are none: decode must
            // have failed.
            panic!("bit flip at byte {i} went undetected");
        }
        // Truncated and oversized bodies fail cleanly at parse.
        assert!(parse_stats(&[0u8; STATS_BODY_BYTES - 1], 0).is_err());
        assert!(parse_stats(&[0u8; STATS_BODY_BYTES + 8], 0).is_err());
    }

    #[test]
    fn aggregator_keeps_newest_round_and_flags_once() {
        let mut agg = HealthAggregator::new(3);
        let mut s = stats();
        agg.record(1, s.clone());
        s.round = 3; // stale
        agg.record(1, s);
        assert_eq!(agg.last_report(1).unwrap().round, 4);
        assert_eq!(agg.frames_from(1), 2);
        assert_eq!(agg.frames_total(), 2);
        assert!(agg.last_report(0).is_none());

        assert!(agg.flag_silent(2));
        assert!(!agg.flag_silent(2), "silence flag must be one-shot");
        assert!(agg.is_silent(2));
        assert_eq!(agg.silent_peers(), vec![2]);
        // Out-of-range ids are ignored, not panics.
        agg.record(9, stats());
        assert!(!agg.flag_silent(9));
    }
}
