//! Property-based tests for the discrete-event substrate, driven by seeded
//! pseudo-random cases.

use dlion_simnet::{ComputeModel, EventQueue, NetworkModel, PiecewiseConst};
use dlion_tensor::DetRng;

fn schedule(rng: &mut DetRng) -> PiecewiseConst {
    let len = 1 + rng.index(7);
    let points = (0..len)
        .map(|i| (i as f64 * 50.0, rng.uniform_range(0.1, 100.0)))
        .collect();
    PiecewiseConst::steps(points)
}

/// Integration is additive over adjacent intervals.
#[test]
fn integrate_additive() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(100 + case);
        let sched = schedule(&mut rng);
        let t0 = rng.uniform_range(0.0, 500.0);
        let a = rng.uniform_range(0.0, 200.0);
        let b = rng.uniform_range(0.0, 200.0);
        let whole = sched.integrate(t0, a + b);
        let split = sched.integrate(t0, a) + sched.integrate(t0 + a, b);
        assert!(
            (whole - split).abs() < 1e-6 * (1.0 + whole.abs()),
            "case {case}: {whole} vs {split}"
        );
    }
}

/// time_to_accumulate inverts integrate.
#[test]
fn accumulate_inverts_integrate() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(1100 + case);
        let sched = schedule(&mut rng);
        let t0 = rng.uniform_range(0.0, 500.0);
        let amount = rng.uniform_range(0.0, 10_000.0);
        let dt = sched.time_to_accumulate(t0, amount);
        if !dt.is_finite() {
            continue;
        }
        let got = sched.integrate(t0, dt);
        assert!(
            (got - amount).abs() < 1e-6 * (1.0 + amount),
            "case {case}: {got} vs {amount}"
        );
    }
}

/// min_with is pointwise min at arbitrary times.
#[test]
fn min_with_pointwise() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(2100 + case);
        let a = schedule(&mut rng);
        let b = schedule(&mut rng);
        let m = a.min_with(&b);
        for _ in 0..20 {
            let t = rng.uniform_range(0.0, 600.0);
            assert_eq!(
                m.value_at(t),
                a.value_at(t).min(b.value_at(t)),
                "case {case} at t={t}"
            );
        }
    }
}

/// Transfers: arrival >= depart >= enqueue time; same-sender transfers
/// never overlap (FIFO NIC); more bytes never arrive earlier.
#[test]
fn transfer_ordering() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(3100 + case);
        let n_transfers = 1 + rng.index(19);
        let mbps = rng.uniform_range(1.0, 1000.0);
        let latency = rng.uniform_range(0.0, 0.2);
        let mut net = NetworkModel::uniform(3, mbps, latency);
        let mut now = 0.0;
        let mut last_send_done = 0.0;
        for i in 0..n_transfers {
            let b = rng.uniform_range(1.0, 5e6);
            let dst = 1 + (i % 2);
            let tr = net.transfer(0, dst, b, now);
            assert!(tr.depart >= now - 1e-9, "case {case}");
            assert!(
                tr.depart >= last_send_done - 1e-9,
                "case {case}: NIC FIFO violated"
            );
            assert!(tr.arrival >= tr.depart + latency - 1e-9, "case {case}");
            last_send_done = tr.arrival - latency;
            now += 0.01;
        }
    }
}

#[test]
fn bigger_transfers_take_longer() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(4100 + case);
        let b1 = rng.uniform_range(1.0, 1e7);
        let factor = rng.uniform_range(1.0, 10.0);
        let mbps = rng.uniform_range(1.0, 1000.0);
        let mut n1 = NetworkModel::uniform(2, mbps, 0.0);
        let mut n2 = NetworkModel::uniform(2, mbps, 0.0);
        let t1 = n1.transfer(0, 1, b1, 0.0);
        let t2 = n2.transfer(0, 1, b1 * factor, 0.0);
        assert!(t2.arrival >= t1.arrival - 1e-12, "case {case}");
    }
}

/// The per-link network the link table stands for: one schedule per
/// directed link, each set on its own, and the transfer arithmetic written
/// out (the NIC's lane frees when the last byte leaves; the bytes arrive
/// one latency later).
struct PerLink {
    n: usize,
    links: Vec<PiecewiseConst>,
    latency: f64,
    free: Vec<[f64; 2]>,
}

impl PerLink {
    fn new(n: usize, latency: f64, mut link: impl FnMut(usize, usize) -> PiecewiseConst) -> Self {
        let mut links = vec![PiecewiseConst::constant(0.0); n * n];
        for src in 0..n {
            for dst in (0..n).filter(|&d| d != src) {
                links[src * n + dst] = link(src, dst);
            }
        }
        PerLink {
            n,
            links,
            latency,
            free: vec![[0.0; 2]; n],
        }
    }

    fn link(&self, src: usize, dst: usize) -> &PiecewiseConst {
        &self.links[src * self.n + dst]
    }

    fn transfer(
        &mut self,
        lane: usize,
        src: usize,
        dst: usize,
        bytes: f64,
        now: f64,
    ) -> (f64, f64) {
        let depart = self.free[src][lane].max(now);
        let tx = self
            .link(src, dst)
            .time_to_accumulate(depart, bytes * 8.0 / 1e6);
        self.free[src][lane] = depart + tx;
        (depart, depart + tx + self.latency)
    }

    /// Distinct off-diagonal schedules, by the bits of their steps.
    fn distinct(&self) -> usize {
        let mut seen: Vec<Vec<(u64, u64)>> = Vec::new();
        for src in 0..self.n {
            for dst in (0..self.n).filter(|&d| d != src) {
                let key: Vec<_> = self
                    .link(src, dst)
                    .points()
                    .iter()
                    .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                    .collect();
                if !seen.contains(&key) {
                    seen.push(key);
                }
            }
        }
        seen.len()
    }
}

/// Every monitor reading and every transfer's depart and arrival of `net`
/// equals the per-link reference's, bit for bit.
fn assert_same_network(
    case: u64,
    rng: &mut DetRng,
    net: &mut NetworkModel,
    reference: &mut PerLink,
) {
    let n = reference.n;
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            let sched = reference.link(src, dst).clone();
            let steps = sched.points().iter().map(|p| p.0);
            for t in steps.chain((0..4).map(|_| rng.uniform_range(0.0, 400.0))) {
                assert_eq!(
                    net.bandwidth_mbps(src, dst, t).to_bits(),
                    sched.value_at(t).to_bits(),
                    "case {case}: monitor {src}->{dst} at t={t}"
                );
            }
        }
    }
    let mut now = 0.0;
    for k in 0..48 {
        let src = rng.index(n);
        let dst = (src + 1 + rng.index(n - 1)) % n;
        let bytes = rng.uniform_range(0.0, 2e6);
        let lane = rng.index(2);
        let got = if lane == 0 {
            net.transfer(src, dst, bytes, now)
        } else {
            net.transfer_control(src, dst, bytes, now)
        };
        let want = reference.transfer(lane, src, dst, bytes, now);
        assert_eq!(
            (got.depart.to_bits(), got.arrival.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "case {case}: transfer {k} {src}->{dst} on lane {lane}"
        );
        now += rng.uniform_range(0.0, 5.0);
    }
}

/// The link table answers exactly as a network that holds one schedule per
/// link: built by each constructor, by `set_link` one link at a time, and
/// after `scale_egress`. Each model built in one piece holds exactly its
/// distinct links.
#[test]
fn link_table_matches_a_per_link_network_bit_for_bit() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(7100 + case);
        let n = 2 + rng.index(7);
        let latency = rng.uniform_range(0.0, 0.1);
        // Few distinct schedules and values, so links share classes.
        let pool: Vec<PiecewiseConst> = (0..1 + rng.index(3)).map(|_| schedule(&mut rng)).collect();
        let values = [10.0, 25.5, 100.0, 1000.0];
        let (mut net, mut reference) = match case % 3 {
            0 => {
                let bw: Vec<&PiecewiseConst> =
                    (0..n).map(|_| &pool[rng.index(pool.len())]).collect();
                let min = |i: usize, j: usize| bw[i].min_with(bw[j]);
                (
                    NetworkModel::from_links(n, latency, min),
                    PerLink::new(n, latency, min),
                )
            }
            1 => {
                let mbps: Vec<f64> = (0..n * n)
                    .map(|_| values[rng.index(values.len())])
                    .collect();
                let reference =
                    PerLink::new(n, latency, |i, j| PiecewiseConst::constant(mbps[i * n + j]));
                (NetworkModel::from_matrix(n, &mbps, latency), reference)
            }
            _ => {
                let reference =
                    PerLink::new(n, latency, |_, _| pool[rng.index(pool.len())].clone());
                let mut net = NetworkModel::uniform(n, values[rng.index(values.len())], latency);
                for src in 0..n {
                    for dst in (0..n).filter(|&d| d != src) {
                        net.set_link(src, dst, reference.link(src, dst).clone());
                    }
                }
                (net, reference)
            }
        };
        if case % 3 == 2 {
            // `set_link` may leave the uniform start's class behind.
            assert!(
                net.link_classes() <= reference.distinct() + 1,
                "case {case}"
            );
        } else {
            assert_eq!(net.link_classes(), reference.distinct(), "case {case}");
        }
        if rng.index(2) == 1 {
            let waves: Vec<PiecewiseConst> = (0..1 + rng.index(2))
                .map(|_| schedule(&mut rng).scaled(0.01))
                .chain([PiecewiseConst::constant(1.0)])
                .collect();
            let factors: Vec<PiecewiseConst> = (0..n)
                .map(|_| waves[rng.index(waves.len())].clone())
                .collect();
            net.scale_egress(&factors);
            let links = std::mem::take(&mut reference.links);
            reference.links = links
                .iter()
                .enumerate()
                .map(|(li, l)| l.product_with(&factors[li / n]))
                .collect();
            assert_eq!(
                net.link_classes(),
                reference.distinct(),
                "case {case}: scaled"
            );
        }
        assert_same_network(case, &mut rng, &mut net, &mut reference);
    }
}

/// A uniform network is one class, whatever its size.
#[test]
fn a_uniform_network_is_one_class() {
    let mut net = NetworkModel::uniform(1024, 1000.0, 0.001);
    assert_eq!(net.link_classes(), 1);
    assert_eq!(net.bandwidth_mbps(1023, 0, 5.0), 1000.0);
    let t = net.transfer(512, 7, 125_000.0, 1.0); // 1 Mb at 1000 Mbps
    assert_eq!((t.depart, t.arrival), (1.0, 1.0 + 0.001 + 0.001));
}

/// Iteration time is monotone in LBS and antitone in capacity, for any
/// batch exponent.
#[test]
fn iter_time_monotonicity() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(5100 + case);
        let cap = rng.uniform_range(1.0, 400.0);
        let beta = rng.uniform_range(0.2, 1.0);
        let lbs = 1 + rng.index(1999);
        let cm = ComputeModel::homogeneous(1, cap, 1.8, 0.1).with_batch_exponent(beta);
        let t = cm.iter_time(0, lbs, 0.0);
        let t_more = cm.iter_time(0, lbs + 1, 0.0);
        assert!(t_more >= t, "case {case}");
        let cm_fast = ComputeModel::homogeneous(1, cap * 2.0, 1.8, 0.1).with_batch_exponent(beta);
        assert!(cm_fast.iter_time(0, lbs, 0.0) <= t, "case {case}");
    }
}

/// The event queue is a stable priority queue: output times are sorted,
/// and equal times preserve insertion order.
#[test]
fn event_queue_stable_sort() {
    for case in 0..128u64 {
        let mut rng = DetRng::seed_from_u64(6100 + case);
        let n_events = rng.index(200);
        let mut q = EventQueue::new();
        for i in 0..n_events {
            // Quantize times to force ties.
            q.schedule(rng.uniform_range(0.0, 100.0).round(), i);
        }
        let mut prev_time = f64::NEG_INFINITY;
        let mut prev_seq_at_time = None::<usize>;
        while let Some((t, seq)) = q.pop() {
            assert!(t >= prev_time, "case {case}");
            if t == prev_time {
                assert!(
                    seq > prev_seq_at_time.unwrap(),
                    "case {case}: tie order violated"
                );
            }
            prev_time = t;
            prev_seq_at_time = Some(seq);
        }
    }
}
