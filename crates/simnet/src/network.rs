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
/// One link table: each distinct link (a bandwidth schedule and its
/// latency) is stored once, and each directed link id (`src * n + dst`)
/// holds a `u32` index into the table. Clusters have a handful of distinct
/// links (LAN, a few WAN pairs): a uniform n=1024 network is 4 MB of zeroed
/// ids and one schedule.
pub struct NetworkModel {
    n: usize,
    /// The distinct links, shared by every link id that indexes them.
    classes: Vec<Link>,
    /// Row-major `n×n` index into `classes` (the diagonal is never read).
    link_class: Vec<u32>,
    /// Next time each worker's NIC is free: `[data, control]`, one lane
    /// per queue ([`NetworkModel::transfer_control`]).
    egress_free: Vec<[f64; 2]>,
}

/// One distinct link of the table.
struct Link {
    /// Bandwidth schedule (Mbps) and one-way latency (seconds).
    mbps: PiecewiseConst,
    latency: f64,
}

/// Bit-for-bit identity of two schedules' steps: a class answers with its
/// own bits, so `0.0` and `-0.0` must not share one.
fn same_bits(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    let bits = |&(t, v): &(f64, f64)| (t.to_bits(), v.to_bits());
    a.len() == b.len() && a.iter().map(bits).eq(b.iter().map(bits))
}

impl NetworkModel {
    /// Fully symmetric network: every link has the same constant bandwidth
    /// and latency (one class).
    pub fn uniform(n: usize, mbps: f64, latency: f64) -> Self {
        assert!(n >= 2, "need at least two workers");
        let mbps = PiecewiseConst::constant(mbps);
        NetworkModel {
            n,
            classes: vec![Link { mbps, latency }],
            link_class: vec![0; n * n],
            egress_free: vec![[0.0; 2]; n],
        }
    }

    /// Build from a per-link constant bandwidth matrix (row-major, Mbps;
    /// the diagonal is ignored).
    pub fn from_matrix(n: usize, mbps: &[f64], latency: f64) -> Self {
        assert_eq!(mbps.len(), n * n);
        NetworkModel::from_links(n, latency, |i, j| [(0.0, mbps[i * n + j])])
    }

    /// Build from the steps of each directed link's bandwidth schedule,
    /// `link(src, dst)`, all at one latency: one class per distinct link.
    pub fn from_links<S: AsRef<[(f64, f64)]>>(
        n: usize,
        latency: f64,
        mut link: impl FnMut(usize, usize) -> S,
    ) -> Self {
        // A uniform table's ids and lanes, with no class yet.
        let mut net = NetworkModel::uniform(n, 0.0, latency);
        net.classes.clear();
        for li in (0..n * n).filter(|li| li / n != li % n) {
            net.intern(li, link(li / n, li % n).as_ref(), latency);
        }
        net
    }

    /// Point link id `li` at the class with the bits of `(steps, latency)`,
    /// adding one if there is none. Classes are few; the scan is short.
    fn intern(&mut self, li: usize, steps: &[(f64, f64)], latency: f64) {
        let same = |c: &Link| {
            c.latency.to_bits() == latency.to_bits() && same_bits(c.mbps.points(), steps)
        };
        let c = self.classes.iter().position(same).unwrap_or_else(|| {
            let mbps = PiecewiseConst::steps(steps.to_vec());
            self.classes.push(Link { mbps, latency });
            self.classes.len() - 1
        });
        self.link_class[li] = c as u32;
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// How many distinct links the table holds.
    pub fn link_classes(&self) -> usize {
        self.classes.len()
    }

    fn link_idx(&self, src: usize, dst: usize) -> usize {
        assert!(
            src < self.n && dst < self.n && src != dst,
            "bad link {src}->{dst}"
        );
        src * self.n + dst
    }

    fn link(&self, li: usize) -> &Link {
        &self.classes[self.link_class[li] as usize]
    }

    /// Replace the schedule of one directed link (its latency stays). A
    /// class no link indexes any more is a few stale bytes.
    pub fn set_link(&mut self, src: usize, dst: usize, schedule: PiecewiseConst) {
        let li = self.link_idx(src, dst);
        self.intern(li, schedule.points(), self.link(li).latency);
    }

    /// Multiply every link's bandwidth by the sending worker's factor
    /// schedule (egress shaping: one NIC, one uplink). A scaled class is
    /// one per `(class, distinct factor)` pair: a handful stays a handful.
    pub fn scale_egress(&mut self, factors: &[PiecewiseConst]) {
        let n = self.n;
        assert_eq!(factors.len(), n, "need one factor per worker");
        // Each factor's identity: the first worker with the same bits.
        let same = |v: usize, w: usize| same_bits(factors[v].points(), factors[w].points());
        let fid: Vec<usize> = (0..n)
            .map(|w| (0..=w).find(|&v| same(v, w)).unwrap())
            .collect();
        let old = std::mem::take(&mut self.classes);
        let mut scaled: HashMap<(u32, usize), u32> = HashMap::new();
        for li in (0..n * n).filter(|li| li / n != li % n) {
            let (oc, src) = (self.link_class[li], li / n);
            self.link_class[li] = *scaled.entry((oc, fid[src])).or_insert_with(|| {
                let Link { mbps, latency } = &old[oc as usize];
                let (mbps, latency) = (mbps.product_with(&factors[src]), *latency);
                self.classes.push(Link { mbps, latency });
                (self.classes.len() - 1) as u32
            });
        }
    }

    /// The *network resource monitor*: currently available bandwidth of the
    /// link `src→dst`, in Mbps.
    pub fn bandwidth_mbps(&self, src: usize, dst: usize, now: f64) -> f64 {
        self.link(self.link_idx(src, dst)).mbps.value_at(now)
    }

    /// Enqueue a transfer of `bytes` on link `src→dst` at time `now`.
    ///
    /// The transfer starts when the NIC frees up, proceeds at the link's
    /// (time-varying) bandwidth, and arrives one propagation latency after
    /// the last byte leaves. The NIC is then busy until the last byte has
    /// left.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: f64, now: f64) -> Transfer {
        self.enqueue(0, src, dst, bytes, now)
    }

    /// [`NetworkModel::transfer`] of a control frame: control frames queue
    /// behind each other, FIFO per sender, but not behind the sender's
    /// data — a frame of a few dozen bytes interleaves with the bulk flows
    /// to other peers, as the prototype's control queue is apart from its
    /// data queue.
    pub fn transfer_control(&mut self, src: usize, dst: usize, bytes: f64, now: f64) -> Transfer {
        self.enqueue(1, src, dst, bytes, now)
    }

    fn enqueue(&mut self, lane: usize, src: usize, dst: usize, bytes: f64, now: f64) -> Transfer {
        assert!(bytes >= 0.0);
        let li = self.link_idx(src, dst);
        let depart = self.egress_free[src][lane].max(now);
        let megabits = bytes * 8.0 / 1e6;
        let link = self.link(li);
        let (tx, latency) = (link.mbps.time_to_accumulate(depart, megabits), link.latency);
        assert!(
            tx.is_finite(),
            "link {src}->{dst} has zero tail bandwidth; transfer never completes"
        );
        let done_sending = depart + tx;
        self.egress_free[src][lane] = done_sending;
        let arrival = done_sending + latency;
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
    fn control_frames_queue_behind_each_other_not_behind_data() {
        let mut net = NetworkModel::uniform(3, 8.0, 0.5);
        net.transfer(0, 1, 1_000_000.0, 0.0); // the data lane is busy for 1 s
        let c1 = net.transfer_control(0, 2, 1_000.0, 0.0);
        let c2 = net.transfer_control(0, 1, 1_000.0, 0.0);
        assert_eq!(c1.depart, 0.0, "a control frame does not wait for data");
        assert!((c1.arrival - 0.501).abs() < 1e-9);
        assert!(
            (c2.depart - 0.001).abs() < 1e-9,
            "but behind the earlier one"
        );
        // ... and the data lane is where it was.
        assert_eq!(net.transfer(0, 2, 8.0, 0.0).depart, 1.0);
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
