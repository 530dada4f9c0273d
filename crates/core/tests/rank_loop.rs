//! Ranks on one thread: three [`Rank`]s built by `build_cluster`, whose
//! outputs this harness delivers between them in a seeded order that keeps
//! each pair's FIFO — no socket, no thread, no sleeping clock. A rank's
//! step is computed inline when it asks, its step time pinned (times its
//! straggle factor), and its batching clock is its training clock (Σ dt),
//! as on the live driver. Each rank holds a link to every peer, so runs
//! end through the Done barrier.

use dlion_core::gbs::Notice;
use dlion_core::rank::{Host, Input, Output, Outputs, Rank, Wait};
use dlion_core::worker::PendingIteration;
use dlion_core::{build_cluster, run_with_models, Payload, RunConfig, SyncPolicy, SystemKind};
use dlion_nn::Dataset;
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::{DetRng, Tensor};
use std::collections::VecDeque;

const N: usize = 3;

/// What travels from one rank to another.
enum Msg {
    Payload(Payload),
    Notice(Notice),
    /// A gradient was accepted: the sender's delivery credit.
    Ack,
}

struct Harness {
    cfg: RunConfig,
    data: Dataset,
    ranks: Vec<Rank>,
    /// `links[from][to]`: what is in flight, oldest first.
    links: Vec<Vec<VecDeque<Msg>>>,
    finished: Vec<bool>,
    order: DetRng,
    /// Each delivery advances it a little; it stamps events only.
    now: f64,
    dt: f64,
}

impl Harness {
    fn new(cfg: &RunConfig, dt: f64, seed: u64) -> Harness {
        let init = build_cluster(cfg, N);
        let links = |w: usize| (0..N).map(|j| j != w).collect();
        let rank = |worker: dlion_core::worker::Worker| {
            let linked = links(worker.id);
            Rank::new(worker, cfg.max_iters, linked)
        };
        Harness {
            cfg: cfg.clone(),
            data: init.data,
            ranks: init.workers.into_iter().map(rank).collect(),
            links: (0..N)
                .map(|_| (0..N).map(|_| VecDeque::new()).collect())
                .collect(),
            finished: vec![false; N],
            order: DetRng::seed_from_u64(seed),
            now: 0.0,
            dt,
        }
    }

    /// Feed rank `w` an input and carry out what it asks: messages go on
    /// their link, a step is computed right away and a wake-up at `now`
    /// fed, each once the outputs before it are out.
    fn feed(&mut self, w: usize, input: Input) {
        let mut out = Outputs::default();
        let mut next = Some(input);
        while let Some(input) = next.take() {
            // Every link at 1 Gbps, one RCP for all, the training clock.
            let mut host = Host {
                clock: self.ranks[w].worker.record.train_secs,
                bandwidth: &|_| 1000.0,
                rcp: &mut || 1.0,
                joined: &mut drop,
                recycle: &mut drop,
            };
            self.ranks[w].on(input, self.now, &mut host, &mut out);
            while let Some(output) = out.pop() {
                match output {
                    Output::Step => next = Some(self.step(w)),
                    Output::Send(to, payload) => self.links[w][to].push_back(Msg::Payload(payload)),
                    Output::Notice(to, notice) => self.links[w][to].push_back(Msg::Notice(notice)),
                    Output::Ack(from) => self.links[w][from].push_back(Msg::Ack),
                    Output::WakeAt(t) => {
                        assert!(t <= self.now, "no pauses in these runs");
                        next = Some(Input::Wake);
                    }
                    Output::Departed => {}
                    Output::Finished => self.finished[w] = true,
                }
            }
        }
    }

    fn step(&mut self, w: usize) -> Input {
        let worker = &mut self.ranks[w].worker;
        let loss = worker.compute_grads(&self.data, self.cfg.grad_clip);
        worker.last_iter_time = self.dt * self.cfg.straggle_of(w);
        worker.pending = Some(PendingIteration::Done { loss });
        Input::Computed
    }

    /// Start every rank, then deliver the head of a seeded pick among the
    /// busy links until nothing is in flight.
    fn run(&mut self) {
        for w in 0..N {
            self.feed(w, Input::Wake);
        }
        loop {
            let busy: Vec<(usize, usize)> = (0..N)
                .flat_map(|from| (0..N).map(move |to| (from, to)))
                .filter(|&(from, to)| !self.links[from][to].is_empty())
                .collect();
            if busy.is_empty() {
                return;
            }
            let (from, to) = busy[self.order.index(busy.len())];
            let input = match self.links[from][to].pop_front().expect("busy") {
                Msg::Payload(payload) => Input::Payload { from, payload },
                Msg::Notice(notice) => Input::Notice { from, notice },
                Msg::Ack => Input::Delivered { from },
            };
            self.now += 1e-3;
            self.feed(to, input);
        }
    }
}

fn bits(weights: &[Tensor]) -> Vec<Vec<u32>> {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
    weights.iter().map(bits).collect()
}

/// Strict-BSP Baseline, 6 iterations: whatever order the frames arrive
/// in, every rank ends with the simulator's weights, bit for bit.
#[test]
fn strict_bsp_ranks_end_with_the_simulators_weights() {
    let mut cfg = RunConfig::small_test(SystemKind::Baseline);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(6);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let sim = run_with_models(
        &cfg,
        ComputeModel::homogeneous(N, 1.0, 0.001, 0.05),
        NetworkModel::uniform(N, 1000.0, 0.001),
        "rank-loop",
    );
    let want: Vec<_> = sim.final_weights.iter().map(|w| bits(w)).collect();
    assert!(
        want.iter().all(|w| !w.is_empty()),
        "the simulator kept no weights"
    );
    for seed in 1..=4 {
        let mut h = Harness::new(&cfg, 0.05, seed);
        h.run();
        assert_eq!(h.finished, vec![true; N], "seed {seed}");
        for (w, rank) in h.ranks.iter_mut().enumerate() {
            assert_eq!(rank.worker.iteration, 6);
            rank.close();
            let weights = rank.worker.take_record(true).final_weights;
            let got = bits(&weights.expect("a finished rank's weights"));
            assert!(got == want[w], "seed {seed}: rank {w}'s weights differ");
        }
    }
}

/// DLion with a batching round every 0.2 s of training clock, steps pinned
/// at 0.05 s and rank 1 straggled ×3 — a live deadlock, here on one thread.
/// The rule in force: a round comes due on each rank's own training clock.
/// Rank 1's runs ahead, so it opens round 3 after 4 steps and waits for
/// its peers' RCPs, which they send after 12 of theirs; bounded staleness
/// (5) holds them at the gate of round 10 until rank 1's gradient of
/// round 4 is in. Every rank waits, and `waiting_on` names the cycle. A
/// rule under which a peer's RCP makes its round due lets this run finish,
/// and this test then flips.
#[test]
fn a_straggler_ahead_on_its_clock_deadlocks_the_batching_collect() {
    let mut cfg = RunConfig::small_test(SystemKind::DLion);
    cfg.workload.train_size = 12_000;
    cfg.gbs.adjust_period_secs = 0.2;
    cfg.straggle = vec![(1, 3.0)];
    cfg.max_iters = Some(40);
    for seed in 1..=2 {
        let mut h = Harness::new(&cfg, 0.05, seed);
        h.run();
        assert_eq!(h.finished, vec![false; N], "seed {seed}");
        let waits: Vec<_> = h.ranks.iter().map(Rank::waiting_on).collect();
        let gated = Some(Wait::Gate {
            round: 10,
            missing: vec![1],
        });
        assert_eq!(waits[0], gated, "seed {seed}");
        assert_eq!(waits[2], gated, "seed {seed}");
        let collect = Some(Wait::Collect {
            round: 3,
            missing: vec![0, 2],
        });
        assert_eq!(waits[1], collect, "seed {seed}");
        assert_eq!(h.ranks[1].worker.iteration, 4);
    }
}
