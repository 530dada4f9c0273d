//! The micro-cloud network model.
//!
//! Workers are connected pairwise; each directed link `i→j` has its own
//! bandwidth schedule (the `tc` analogue; LAN links are fast and flat, WAN
//! links follow the Amazon inter-region matrix of Table 2). Two effects the
//! paper's evaluation depends on are modelled explicitly:
//!
//! * **Egress serialization** — a worker has one NIC, so its outgoing
//!   transfers queue FIFO. Sending a dense 5 MB gradient to all 5 peers
//!   costs 5 back-to-back transfers, which is precisely why dense exchange
//!   (Baseline/Hop) collapses in WAN environments.
//! * **Time-varying bandwidth** — transfer duration integrates the link's
//!   bandwidth schedule, so a transfer spanning a bandwidth step slows down
//!   or speeds up mid-flight.
//!
//! The model also exposes [`NetworkModel::bandwidth_mbps`], the paper's
//! *network resource monitor* (Fig. 10): strategies query it to size their
//! partial gradients.

use crate::schedule::PiecewiseConst;
use std::collections::HashMap;

/// Result of enqueueing a transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transfer {
    /// When the NIC started serving this transfer (>= enqueue time).
    pub depart: f64,
    /// When the last byte arrives at the destination.
    pub arrival: f64,
}

impl Transfer {
    /// Total time from NIC service start to delivery.
    pub fn duration(&self) -> f64 {
        self.arrival - self.depart
    }
}

/// Directed-link network with per-worker egress FIFOs.
///
/// Per-link state is flat arrays indexed by link id (`src * n + dst`).
/// Bandwidth schedules are *interned*: real clusters have a handful of
/// distinct link classes (LAN, a few WAN pairs), so an `n×n` cluster stores
/// one `u32` class id per link plus one [`PiecewiseConst`] per class — at
/// n=1024 that is 4 MB of ids instead of ~1M heap-allocated schedules.
pub struct NetworkModel {
    n: usize,
    /// Distinct bandwidth schedules (Mbps), shared across links.
    classes: Vec<PiecewiseConst>,
    /// Row-major `n×n` index into `classes`; diagonal unused.
    link_class: Vec<u32>,
    /// One-way propagation latency per link (seconds), row-major.
    latency: Vec<f64>,
    /// Next time each worker's NIC is free.
    egress_free: Vec<f64>,
}

/// Hashable identity of a schedule: the bit patterns of its steps.
fn sched_key(s: &PiecewiseConst) -> Vec<(u64, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// Intern `sched` into `classes`, returning its class id.
fn intern(
    classes: &mut Vec<PiecewiseConst>,
    by_key: &mut HashMap<Vec<(u64, u64)>, u32>,
    sched: PiecewiseConst,
) -> u32 {
    *by_key.entry(sched_key(&sched)).or_insert_with(|| {
        classes.push(sched);
        (classes.len() - 1) as u32
    })
}

impl NetworkModel {
    /// Build from explicit per-link schedules and latencies.
    pub fn new(n: usize, links: Vec<PiecewiseConst>, latency: Vec<f64>) -> Self {
        assert!(n >= 2, "need at least two workers");
        assert_eq!(links.len(), n * n, "links must be n*n");
        assert_eq!(latency.len(), n * n, "latency must be n*n");
        let mut classes = Vec::new();
        let mut by_key = HashMap::new();
        let link_class = links
            .into_iter()
            .map(|sched| intern(&mut classes, &mut by_key, sched))
            .collect();
        NetworkModel {
            n,
            classes,
            link_class,
            latency,
            egress_free: vec![0.0; n],
        }
    }

    /// Fully symmetric network: every link has the same constant bandwidth
    /// and latency.
    pub fn uniform(n: usize, mbps: f64, latency: f64) -> Self {
        let links = vec![PiecewiseConst::constant(mbps); n * n];
        NetworkModel::new(n, links, vec![latency; n * n])
    }

    /// Build from a per-link constant bandwidth matrix (row-major, Mbps).
    pub fn from_matrix(n: usize, mbps: &[f64], latency: f64) -> Self {
        assert_eq!(mbps.len(), n * n);
        let links = mbps.iter().map(|&b| PiecewiseConst::constant(b)).collect();
        NetworkModel::new(n, links, vec![latency; n * n])
    }

    pub fn n(&self) -> usize {
        self.n
    }

    fn link_idx(&self, src: usize, dst: usize) -> usize {
        assert!(
            src < self.n && dst < self.n && src != dst,
            "bad link {src}->{dst}"
        );
        src * self.n + dst
    }

    /// Replace the schedule of one directed link.
    pub fn set_link(&mut self, src: usize, dst: usize, schedule: PiecewiseConst) {
        let i = self.link_idx(src, dst);
        // Re-intern rather than building the class map from scratch: a
        // dangling class (no links left pointing at it) is a few stale
        // bytes, not a correctness issue.
        let mut by_key: HashMap<Vec<(u64, u64)>, u32> = self
            .classes
            .iter()
            .enumerate()
            .map(|(c, s)| (sched_key(s), c as u32))
            .collect();
        self.link_class[i] = intern(&mut self.classes, &mut by_key, schedule);
    }

    fn link_sched(&self, li: usize) -> &PiecewiseConst {
        &self.classes[self.link_class[li] as usize]
    }

    /// Multiply every link's bandwidth by the sending worker's factor
    /// schedule (egress shaping: one NIC, one uplink). Interning is
    /// preserved — scaled classes are shared by `(class, factor)`
    /// identity, so an n×n cluster with a handful of link classes and a
    /// handful of distinct factors stays a handful of classes.
    pub fn scale_egress(&mut self, factors: &[PiecewiseConst]) {
        assert_eq!(factors.len(), self.n, "need one factor per worker");
        // Distinct factor identities (most scenarios phase-shift a few
        // region waves across many workers).
        let mut by_fkey: HashMap<Vec<(u64, u64)>, u32> = HashMap::new();
        let fid: Vec<u32> = factors
            .iter()
            .map(|f| {
                let next = by_fkey.len() as u32;
                *by_fkey.entry(sched_key(f)).or_insert(next)
            })
            .collect();
        let old_classes = std::mem::take(&mut self.classes);
        let mut scaled: HashMap<(u32, u32), u32> = HashMap::new();
        let mut classes: Vec<PiecewiseConst> = Vec::new();
        for src in 0..self.n {
            for dst in 0..self.n {
                let li = src * self.n + dst;
                if src == dst {
                    // Diagonal is never read; keep its class id valid.
                    self.link_class[li] = 0;
                    continue;
                }
                let oc = self.link_class[li];
                self.link_class[li] = *scaled.entry((oc, fid[src])).or_insert_with(|| {
                    classes.push(old_classes[oc as usize].product_with(&factors[src]));
                    (classes.len() - 1) as u32
                });
            }
        }
        self.classes = classes;
    }

    /// The *network resource monitor*: currently available bandwidth of the
    /// link `src→dst`, in Mbps.
    pub fn bandwidth_mbps(&self, src: usize, dst: usize, now: f64) -> f64 {
        self.link_sched(self.link_idx(src, dst)).value_at(now)
    }

    /// Enqueue a transfer of `bytes` on link `src→dst` at time `now`.
    ///
    /// The transfer starts when the NIC frees up, proceeds at the link's
    /// (time-varying) bandwidth, and arrives one propagation latency after
    /// the last byte leaves. The NIC is then busy until the last byte has
    /// left.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: f64, now: f64) -> Transfer {
        assert!(bytes >= 0.0);
        let li = self.link_idx(src, dst);
        let depart = self.egress_free[src].max(now);
        let megabits = bytes * 8.0 / 1e6;
        let tx = self.link_sched(li).time_to_accumulate(depart, megabits);
        assert!(
            tx.is_finite(),
            "link {src}->{dst} has zero tail bandwidth; transfer never completes"
        );
        let done_sending = depart + tx;
        self.egress_free[src] = done_sending;
        let arrival = done_sending + self.latency[li];
        dlion_telemetry::event!(now, w: src, "link_transfer";
            "dst" => dst,
            "bytes" => bytes,
            "queued" => depart - now,
            "tx_secs" => tx);
        dlion_telemetry::trace!(target: "simnet.net",
            "t={now:.3}: {src}->{dst} {bytes:.0} B queued {:.3}s tx {tx:.3}s",
            depart - now);
        Transfer { depart, arrival }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_timing() {
        let mut net = NetworkModel::uniform(2, 8.0, 0.05);
        // 1 MB at 8 Mbps = 1 s + 0.05 s latency.
        let t = net.transfer(0, 1, 1_000_000.0, 0.0);
        assert_eq!(t.depart, 0.0);
        assert!((t.arrival - 1.05).abs() < 1e-9);
        assert!((t.duration() - 1.05).abs() < 1e-9);
    }

    #[test]
    fn egress_fifo_serializes_sender() {
        let mut net = NetworkModel::uniform(3, 8.0, 0.0);
        let t1 = net.transfer(0, 1, 1_000_000.0, 0.0);
        let t2 = net.transfer(0, 2, 1_000_000.0, 0.0);
        assert!((t1.arrival - 1.0).abs() < 1e-9);
        assert_eq!(t2.depart, 1.0, "second transfer must wait for the NIC");
        assert!((t2.arrival - 2.0).abs() < 1e-9);
        // A different sender is unaffected.
        let t3 = net.transfer(1, 2, 1_000_000.0, 0.0);
        assert_eq!(t3.depart, 0.0);
    }

    #[test]
    fn transfer_spanning_bandwidth_step() {
        let mut net = NetworkModel::uniform(2, 8.0, 0.0);
        // 8 Mbps for 1 s, then 16 Mbps.
        net.set_link(0, 1, PiecewiseConst::steps(vec![(0.0, 8.0), (1.0, 16.0)]));
        // 2 MB = 16 Mb: 8 Mb in the first second, 8 Mb at 16 Mbps = 0.5 s.
        let t = net.transfer(0, 1, 2_000_000.0, 0.0);
        assert!((t.arrival - 1.5).abs() < 1e-9);
    }

    #[test]
    fn monitor_reads_schedule() {
        let mut net = NetworkModel::uniform(2, 50.0, 0.0);
        net.set_link(
            0,
            1,
            PiecewiseConst::steps(vec![(0.0, 30.0), (100.0, 100.0)]),
        );
        assert_eq!(net.bandwidth_mbps(0, 1, 0.0), 30.0);
        assert_eq!(net.bandwidth_mbps(0, 1, 150.0), 100.0);
        assert_eq!(net.bandwidth_mbps(1, 0, 0.0), 50.0);
    }

    #[test]
    fn from_matrix_asymmetric() {
        // 2 workers: 0->1 at 10, 1->0 at 40.
        let net = NetworkModel::from_matrix(2, &[0.0, 10.0, 40.0, 0.0], 0.0);
        assert_eq!(net.bandwidth_mbps(0, 1, 0.0), 10.0);
        assert_eq!(net.bandwidth_mbps(1, 0, 0.0), 40.0);
    }

    #[test]
    fn later_enqueue_after_idle_nic() {
        let mut net = NetworkModel::uniform(2, 8.0, 0.0);
        net.transfer(0, 1, 1_000_000.0, 0.0); // busy until 1.0
        let t = net.transfer(0, 1, 1_000_000.0, 5.0); // NIC idle again
        assert_eq!(t.depart, 5.0);
        // Busy until 6.0: a transfer enqueued at 5.5 waits for it.
        assert_eq!(net.transfer(0, 1, 0.0, 5.5).depart, 6.0);
    }

    #[test]
    fn zero_byte_transfer_is_latency_only() {
        let mut net = NetworkModel::uniform(2, 8.0, 0.07);
        let t = net.transfer(0, 1, 0.0, 3.0);
        assert_eq!(t.depart, 3.0);
        assert!((t.arrival - 3.07).abs() < 1e-12);
    }

    #[test]
    fn scale_egress_applies_sender_factor_and_shares_classes() {
        let mut net = NetworkModel::uniform(4, 100.0, 0.0);
        let half = PiecewiseConst::steps(vec![(0.0, 1.0), (10.0, 0.5)]);
        let factors = vec![
            PiecewiseConst::constant(1.0),
            half.clone(),
            half.clone(),
            PiecewiseConst::constant(1.0),
        ];
        net.scale_egress(&factors);
        // Sender 1's links halve after t=10; sender 0's never do.
        assert_eq!(net.bandwidth_mbps(1, 0, 5.0), 100.0);
        assert_eq!(net.bandwidth_mbps(1, 0, 15.0), 50.0);
        assert_eq!(net.bandwidth_mbps(0, 1, 15.0), 100.0);
        // One base class x two factor identities = two scaled classes.
        assert_eq!(net.classes.len(), 2);
        // Transfers still integrate the scaled schedule.
        let t = net.transfer(2, 3, 1_250_000.0, 10.0); // 10 Mb at 50 Mbps
        assert!((t.arrival - 10.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad link")]
    fn self_link_panics() {
        let net = NetworkModel::uniform(2, 8.0, 0.0);
        net.bandwidth_mbps(1, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "never completes")]
    fn dead_link_transfer_panics() {
        let mut net = NetworkModel::uniform(2, 8.0, 0.0);
        net.set_link(0, 1, PiecewiseConst::constant(0.0));
        net.transfer(0, 1, 1.0, 0.0);
    }
}
