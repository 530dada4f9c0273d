//! The live half of the cluster health plane (DESIGN.md §4h): the silence
//! ledger each rank keeps. Nothing health-related crosses the wire — every
//! rank traces its own `worker_health` event per report round, and the
//! final [`dlion_core::HealthSummary`] in `RunMetrics` is built from the
//! outcomes (`live::assemble_metrics`).
//!
//! Two kinds of quantity flow through the plane, and they are kept
//! strictly apart:
//!
//! * **Deterministic counters** — report rounds, iterations, and the
//!   training-clock rates behind the straggler scores. Rounds are
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

/// The silence ledger: which peers this rank has flagged silent. Flagging
/// is one-shot per peer, however many of the fault-plan ledger, a Leave or
/// a socket EOF report it.
#[derive(Clone, Debug)]
pub struct HealthAggregator {
    silent: Vec<bool>,
}

impl HealthAggregator {
    pub fn new(n: usize) -> HealthAggregator {
        HealthAggregator {
            silent: vec![false; n],
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

    /// Workers flagged silent so far, in id order.
    pub fn silent_peers(&self) -> Vec<usize> {
        (0..self.silent.len()).filter(|&j| self.silent[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_is_flagged_once_per_peer() {
        let mut agg = HealthAggregator::new(3);
        assert!(agg.flag_silent(2));
        assert!(!agg.flag_silent(2), "silence flag must be one-shot");
        assert_eq!(agg.silent_peers(), vec![2]);
        // Out-of-range ids are ignored, not panics.
        assert!(!agg.flag_silent(9));
    }
}
