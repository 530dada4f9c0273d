//! Training synchronization mechanisms — the paper's `synch_training` API
//! (§4.2): "various configurable synchronization mechanisms ... including
//! synchronous, asynchronous, and bounded synchronous training strategies.
//! It internally maintains each worker's current iteration and received
//! weight variable ids."
//!
//! Each comparison system picks a policy:
//!
//! * Baseline — [`SyncPolicy::Synchronous`] (BSP),
//! * Ako — [`SyncPolicy::Asynchronous`],
//! * Gaia — [`SyncPolicy::BlockOnDelivery`] ("blocking progress to the next
//!   iteration until important gradients are delivered to all workers"),
//! * Hop — [`SyncPolicy::BoundedStaleness`] with backup workers (stragglers
//!   whose updates may be skipped),
//! * DLion — bounded staleness without backups.

/// When may a worker start its next iteration?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// BSP: iteration `t` may start only after gradients of iteration `t-1`
    /// from *all* peers have been received.
    Synchronous,
    /// Never wait.
    Asynchronous,
    /// Iteration `t` may start once at least `n_peers - backup_workers`
    /// peers have delivered gradients of iteration `>= t - 1 - bound`.
    BoundedStaleness { bound: u64, backup_workers: usize },
    /// Iteration `t` may start once all of this worker's own iteration
    /// `t-1` gradient messages have been delivered.
    BlockOnDelivery,
}

/// Per-worker synchronization bookkeeping.
#[derive(Clone, Debug)]
pub struct SyncState {
    /// Highest gradient iteration received from each worker (self entry
    /// unused). `None` until the first gradient arrives.
    received: Vec<Option<u64>>,
    /// The peers whose progress this worker waits on (its communication
    /// neighbors; all other workers under the full mesh). [`demote`]
    /// removes a departed peer so gating stops waiting on it.
    ///
    /// [`demote`]: SyncState::demote
    tracked: Vec<usize>,
    /// This worker's gradient messages still in flight, per destination —
    /// the one delivery ledger: [`on_sent_to`] when the round core puts
    /// one on the wire, [`on_delivered_from`] when it is delivered (the
    /// simulator's arrival, the live backend's ack). [`demote`] forgives a
    /// dead peer's entries so `BlockOnDelivery` cannot deadlock on
    /// deliveries that will never come.
    ///
    /// [`on_sent_to`]: SyncState::on_sent_to
    /// [`on_delivered_from`]: SyncState::on_delivered_from
    /// [`demote`]: SyncState::demote
    undelivered_to: Vec<usize>,
    /// Peers permanently removed by [`demote`](SyncState::demote). A
    /// per-round [`retarget`](SyncState::retarget) never re-admits them,
    /// even when a rotating topology re-declares the peer as a neighbor.
    demoted: Vec<bool>,
    me: usize,
}

impl SyncState {
    pub fn new(me: usize, n: usize) -> Self {
        let tracked = (0..n).filter(|&j| j != me).collect();
        SyncState::with_tracked(me, n, tracked)
    }

    /// Track only the given neighbor set (sparse topologies).
    pub fn with_tracked(me: usize, n: usize, tracked: Vec<usize>) -> Self {
        assert!(me < n);
        assert!(tracked.iter().all(|&j| j < n && j != me), "bad tracked set");
        SyncState {
            received: vec![None; n],
            tracked,
            undelivered_to: vec![0; n],
            demoted: vec![false; n],
            me,
        }
    }

    /// Point gating at a new round's neighbor set (rotating topologies).
    /// Demoted peers stay excluded; received-iteration history is kept,
    /// so a peer that was a neighbor two rounds ago still counts as
    /// caught-up when the schedule rotates it back in.
    pub fn retarget(&mut self, neighbors: &[usize]) {
        self.tracked.clear();
        self.tracked.extend(
            neighbors
                .iter()
                .copied()
                .filter(|&j| j != self.me && !self.demoted[j]),
        );
    }

    /// Record a gradient received from `from` for `iteration`.
    pub fn on_gradient(&mut self, from: usize, iteration: u64) {
        assert_ne!(from, self.me, "own gradients are not received");
        let e = &mut self.received[from];
        *e = Some(e.map_or(iteration, |prev| prev.max(iteration)));
    }

    /// Record one gradient message put on the wire toward `to`. A demoted
    /// peer's delivery is not awaited, like the ones [`demote`] forgave:
    /// it may have left before the message lands.
    ///
    /// [`demote`]: SyncState::demote
    pub fn on_sent_to(&mut self, to: usize) {
        if !self.demoted[to] {
            self.undelivered_to[to] += 1;
        }
    }

    /// One of our gradient messages reached `from`. A delivery from a
    /// peer with no outstanding sends (its balance was forgiven by
    /// [`demote`](SyncState::demote), then the delivery raced in) is
    /// ignored.
    pub fn on_delivered_from(&mut self, from: usize) {
        if self.undelivered_to[from] > 0 {
            self.undelivered_to[from] -= 1;
        }
    }

    /// Stop waiting on `peer`: remove it from the tracked set (gating
    /// under `Synchronous` / `BoundedStaleness` no longer counts it) and
    /// forgive its outstanding deliveries (`BlockOnDelivery` no longer
    /// waits for them). Idempotent; `Worker::demote_peer` calls this on
    /// both backends when a peer departs — the Hop-style demotion to an
    /// absent worker.
    pub fn demote(&mut self, peer: usize) {
        self.demoted[peer] = true;
        self.tracked.retain(|&j| j != peer);
        self.undelivered_to[peer] = 0;
    }

    /// Has `peer` been [`demote`](SyncState::demote)d — has it left the
    /// run?
    pub fn is_demoted(&self, peer: usize) -> bool {
        self.demoted[peer]
    }

    /// Is `peer` currently in the tracked (gating) set?
    pub fn is_tracked(&self, peer: usize) -> bool {
        self.tracked.contains(&peer)
    }

    /// This worker's gradient messages still in flight.
    pub fn undelivered(&self) -> usize {
        self.undelivered_to.iter().sum()
    }

    /// Latest iteration received from `from` (None if nothing yet).
    pub fn received_from(&self, from: usize) -> Option<u64> {
        self.received[from]
    }

    /// May this worker start iteration `next_iter` (0-based) under `policy`?
    pub fn can_start(&self, policy: SyncPolicy, next_iter: u64) -> bool {
        if next_iter == 0 {
            return true;
        }
        let n_peers = self.tracked.len();
        match policy {
            SyncPolicy::Asynchronous => true,
            SyncPolicy::Synchronous => self.peers_at_least(next_iter - 1) == n_peers,
            SyncPolicy::BoundedStaleness {
                bound,
                backup_workers,
            } => {
                let needed = n_peers.saturating_sub(backup_workers);
                let floor = next_iter.saturating_sub(1 + bound);
                if floor == 0 {
                    // Within the staleness window of the start of training;
                    // nothing can be required yet.
                    return true;
                }
                self.peers_at_least(floor) >= needed
            }
            SyncPolicy::BlockOnDelivery => self.undelivered() == 0,
        }
    }

    /// Whom a shut gate for `next_iter` waits on: the tracked peers below
    /// the round it needs (backups included), or — `BlockOnDelivery` —
    /// the peers one of our gradients has not reached. Empty when the
    /// gate is open.
    pub fn lagging(&self, policy: SyncPolicy, next_iter: u64) -> Vec<usize> {
        let below = |round: u64| {
            let behind = |&j: &usize| self.received[j].is_none_or(|v| v < round);
            self.tracked.iter().copied().filter(behind).collect()
        };
        match policy {
            _ if self.can_start(policy, next_iter) => Vec::new(),
            SyncPolicy::Asynchronous => Vec::new(),
            SyncPolicy::Synchronous => below(next_iter - 1),
            SyncPolicy::BoundedStaleness { bound, .. } => below(next_iter - 1 - bound),
            SyncPolicy::BlockOnDelivery => {
                let owed = |&j: &usize| self.undelivered_to[j] > 0;
                (0..self.undelivered_to.len()).filter(owed).collect()
            }
        }
    }

    fn peers_at_least(&self, iteration: u64) -> usize {
        self.tracked
            .iter()
            .filter(|&&i| self.received[i].is_some_and(|v| v >= iteration))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_iteration_always_allowed() {
        let s = SyncState::new(0, 6);
        for p in [
            SyncPolicy::Synchronous,
            SyncPolicy::Asynchronous,
            SyncPolicy::BoundedStaleness {
                bound: 5,
                backup_workers: 1,
            },
            SyncPolicy::BlockOnDelivery,
        ] {
            assert!(s.can_start(p, 0), "{p:?}");
        }
    }

    #[test]
    fn bsp_waits_for_all_peers() {
        let mut s = SyncState::new(0, 3);
        assert!(!s.can_start(SyncPolicy::Synchronous, 1));
        s.on_gradient(1, 0);
        assert!(!s.can_start(SyncPolicy::Synchronous, 1));
        s.on_gradient(2, 0);
        assert!(s.can_start(SyncPolicy::Synchronous, 1));
        // Next round needs iteration-1 gradients.
        assert!(!s.can_start(SyncPolicy::Synchronous, 2));
        s.on_gradient(1, 1);
        s.on_gradient(2, 1);
        assert!(s.can_start(SyncPolicy::Synchronous, 2));
    }

    #[test]
    fn a_shut_gate_names_whom_it_waits_on() {
        use SyncPolicy::*;
        let mut s = SyncState::new(0, 3);
        assert_eq!(s.lagging(Synchronous, 1), vec![1, 2]);
        s.on_gradient(1, 0);
        assert_eq!(s.lagging(Synchronous, 1), vec![2]);
        s.on_gradient(2, 0);
        assert!(s.lagging(Synchronous, 1).is_empty());
        let bounded = BoundedStaleness {
            bound: 5,
            backup_workers: 0,
        };
        assert_eq!(s.lagging(bounded, 8), vec![1, 2], "floor 2, both at 0");
        s.on_sent_to(2);
        assert_eq!(s.lagging(BlockOnDelivery, 3), vec![2]);
        assert!(s.lagging(Asynchronous, 9).is_empty());
    }

    #[test]
    fn async_never_waits() {
        let s = SyncState::new(0, 6);
        assert!(s.can_start(SyncPolicy::Asynchronous, 1_000_000));
    }

    #[test]
    fn bounded_staleness_window() {
        let p = SyncPolicy::BoundedStaleness {
            bound: 5,
            backup_workers: 0,
        };
        let mut s = SyncState::new(0, 3);
        // Iterations 1..=6 are within the initial window (floor 0).
        for t in 1..=6 {
            assert!(s.can_start(p, t), "t={t}");
        }
        // Iteration 7 needs both peers at >= 1.
        assert!(!s.can_start(p, 7));
        s.on_gradient(1, 1);
        assert!(!s.can_start(p, 7));
        s.on_gradient(2, 1);
        assert!(s.can_start(p, 7));
        // Iteration 12 needs both at >= 6.
        s.on_gradient(1, 10);
        s.on_gradient(2, 5);
        assert!(!s.can_start(p, 12));
        s.on_gradient(2, 6);
        assert!(s.can_start(p, 12));
    }

    #[test]
    fn backup_workers_tolerate_stragglers() {
        // Hop's setting: 1 backup worker among 5 peers.
        let p = SyncPolicy::BoundedStaleness {
            bound: 5,
            backup_workers: 1,
        };
        let mut s = SyncState::new(0, 6);
        // 4 of 5 peers at iteration 10, one silent straggler.
        for peer in 1..5 {
            s.on_gradient(peer, 10);
        }
        assert!(s.can_start(p, 11), "one straggler may be skipped");
        // Without backups the straggler blocks.
        let p0 = SyncPolicy::BoundedStaleness {
            bound: 5,
            backup_workers: 0,
        };
        assert!(!s.can_start(p0, 11));
    }

    #[test]
    fn block_on_delivery() {
        let mut s = SyncState::new(0, 3);
        s.on_sent_to(1);
        s.on_sent_to(2);
        assert!(!s.can_start(SyncPolicy::BlockOnDelivery, 1));
        s.on_delivered_from(2);
        assert!(!s.can_start(SyncPolicy::BlockOnDelivery, 1));
        s.on_delivered_from(1);
        assert!(s.can_start(SyncPolicy::BlockOnDelivery, 1));
        assert_eq!(s.undelivered(), 0);
    }

    #[test]
    fn received_tracking_is_monotone() {
        let mut s = SyncState::new(0, 2);
        s.on_gradient(1, 5);
        s.on_gradient(1, 3); // late, out-of-order arrival
        assert_eq!(s.received_from(1), Some(5));
    }

    #[test]
    fn tracked_subset_only_waits_on_neighbors() {
        // Ring-style: worker 0 tracks only {1, 5} out of 6.
        let p = SyncPolicy::Synchronous;
        let mut s = SyncState::with_tracked(0, 6, vec![1, 5]);
        assert!(!s.can_start(p, 1));
        s.on_gradient(1, 0);
        assert!(!s.can_start(p, 1));
        // Gradients from untracked workers don't count...
        s.on_gradient(2, 0);
        s.on_gradient(3, 0);
        assert!(!s.can_start(p, 1));
        // ...only the tracked neighbor unblocks.
        s.on_gradient(5, 0);
        assert!(s.can_start(p, 1));
    }

    #[test]
    fn retarget_follows_rotation_but_never_readmits_demoted() {
        let p = SyncPolicy::Synchronous;
        let mut s = SyncState::with_tracked(0, 6, vec![1, 5]);
        s.on_gradient(1, 0);
        s.on_gradient(5, 0);
        assert!(s.can_start(p, 1));
        // The schedule rotates: round 1 pairs worker 0 with {2, 3}.
        s.retarget(&[2, 3]);
        assert!(!s.is_tracked(1));
        assert!(!s.can_start(p, 2), "new neighbors haven't sent round 1");
        s.on_gradient(2, 1);
        s.on_gradient(3, 1);
        assert!(s.can_start(p, 2));
        // Worker 3 departs; a later rotation that re-declares it must
        // not re-admit it into the gating set.
        s.demote(3);
        s.retarget(&[3, 4]);
        assert!(!s.is_tracked(3));
        assert!(s.is_tracked(4));
        // Self is filtered defensively too.
        s.retarget(&[0, 1]);
        assert!(!s.is_tracked(0));
        assert!(s.is_tracked(1));
    }

    #[test]
    fn retarget_keeps_received_history_across_rotations() {
        let p = SyncPolicy::Synchronous;
        let mut s = SyncState::with_tracked(0, 4, vec![1]);
        s.on_gradient(1, 0);
        s.on_gradient(2, 0); // untracked this round, but recorded
        s.retarget(&[2]);
        // Worker 2's earlier gradient still counts once it is tracked.
        assert!(s.can_start(p, 1));
    }

    #[test]
    fn demote_unblocks_synchronous_gating() {
        let mut s = SyncState::new(0, 3);
        s.on_gradient(1, 0);
        assert!(!s.can_start(SyncPolicy::Synchronous, 1));
        // Worker 2 departs: only worker 1's progress gates us now.
        s.demote(2);
        assert!(!s.is_tracked(2));
        assert!(s.is_tracked(1));
        assert!(s.can_start(SyncPolicy::Synchronous, 1));
        s.demote(2); // idempotent
        assert!(s.is_demoted(2) && !s.is_demoted(1));
        assert!(s.can_start(SyncPolicy::Synchronous, 1));
    }

    #[test]
    fn demote_forgives_outstanding_deliveries() {
        let mut s = SyncState::new(0, 3);
        s.on_sent_to(1);
        s.on_sent_to(1);
        s.on_sent_to(2);
        assert_eq!(s.undelivered(), 3);
        assert!(!s.can_start(SyncPolicy::BlockOnDelivery, 1));
        // Worker 1 dies holding two unacked messages; forgiving them
        // must not touch worker 2's balance.
        s.demote(1);
        assert_eq!(s.undelivered(), 1);
        s.on_delivered_from(2);
        assert!(s.can_start(SyncPolicy::BlockOnDelivery, 1));
        // A late ack from the demoted peer is ignored, not a panic.
        s.on_delivered_from(1);
        assert_eq!(s.undelivered(), 0);
    }

    #[test]
    fn a_send_to_a_demoted_peer_is_not_awaited() {
        let mut s = SyncState::new(0, 3);
        s.demote(1);
        s.on_sent_to(1);
        s.on_sent_to(2);
        assert_eq!(s.undelivered(), 1);
        s.on_delivered_from(1);
        assert!(!s.can_start(SyncPolicy::BlockOnDelivery, 1));
        s.on_delivered_from(2);
        assert!(s.can_start(SyncPolicy::BlockOnDelivery, 1));
    }
}
