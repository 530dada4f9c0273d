//! Backend-independent cluster construction.
//!
//! Both execution backends — the `dlion-simnet` discrete-event simulator and
//! the `dlion-net` live TCP runtime — must start from *identical* state for
//! a given [`RunConfig`]: the same dataset, the same shard assignment, the
//! same initial weights, and per-worker RNGs at the same stream positions.
//! [`build_cluster`] is that single construction path; the sim/live parity
//! tests rely on it.

use crate::config::RunConfig;
use crate::dkt::DktState;
use crate::gbs::Batching;
use crate::strategy::build_strategy;
use crate::sync::SyncState;
use crate::worker::Worker;
use dlion_nn::{Dataset, ModelSpec};
use dlion_tensor::DetRng;
use dlion_topo::TopologySchedule;
use std::sync::Arc;

/// Everything a backend needs to run a cluster: fully initialized workers
/// plus the shared dataset and evaluation subset.
pub struct ClusterInit {
    pub workers: Vec<Worker>,
    /// Train ∪ test data; all workers share it (shards index into it).
    pub data: Dataset,
    /// Test-set indices used for periodic evaluation.
    pub eval_indices: Vec<usize>,
    /// The per-round neighbor oracle both backends consult. Pure in
    /// `(topology, n, seed, round, worker)`, so sim and live agree.
    /// (Round-0 neighbor sets are `schedule.neighbors(w, 0)`; workers are
    /// built with them as their initial gating sets.)
    pub schedule: Arc<dyn TopologySchedule>,
    pub total_params: usize,
    pub bytes_per_param: f64,
    /// RNG stream for compute-profiling noise (the LBS controller's
    /// measurements); derived after all worker streams so adding profiling
    /// never shifts worker randomness.
    pub prof_rng: DetRng,
}

/// Build the initial cluster state for `n` workers deterministically from
/// the config. The RNG draw order here is load-bearing: reordering any draw
/// changes every seeded run.
pub fn build_cluster(cfg: &RunConfig, n: usize) -> ClusterInit {
    cfg.validate();
    let straggled = cfg.straggle.iter().all(|&(w, _)| w < n);
    assert!(straggled, "straggle names a worker outside the {n}");
    assert!(n > 0, "cluster needs at least one worker");
    let wl = &cfg.workload;
    assert!(
        cfg.eval_subset <= wl.test_size,
        "eval subset exceeds test set"
    );
    // CLI layers validate earlier and print usage; this is the backstop
    // for programmatic configs.
    let schedule = cfg
        .topology
        .build(n, cfg.seed)
        .unwrap_or_else(|e| panic!("invalid topology for {n} workers: {e}"));
    let neighbors: Vec<Vec<usize>> = (0..n).map(|w| schedule.neighbors(w, 0)).collect();

    // One dataset holds train ∪ test so both share class prototypes.
    let total = wl.train_size + wl.test_size;
    let data = match wl.model {
        ModelSpec::Cipher => Dataset::synth_vision(total, wl.data_seed),
        ModelSpec::MobileNet => Dataset::synth_imagenet(total, wl.data_seed),
    };
    let eval_indices: Vec<usize> = (wl.train_size..wl.train_size + cfg.eval_subset).collect();

    // Shard the training range across workers (with the configured
    // geo-skew; 0 = i.i.d.). Only training indices participate.
    let mut root = DetRng::seed_from_u64(cfg.seed);
    let full_plan = {
        // Build from a dataset view restricted to training indices.
        let train_labels: Vec<usize> = (0..wl.train_size).map(|i| data.labels()[i]).collect();
        let mut idx: Vec<usize> = (0..wl.train_size).collect();
        root.shuffle(&mut idx);
        let mut shards = vec![Vec::new(); n];
        let mut rr = 0usize;
        for s in idx {
            let w = if wl.shard_skew > 0.0 && root.uniform() < wl.shard_skew {
                train_labels[s] % n
            } else {
                rr = (rr + 1) % n;
                rr
            };
            shards[w].push(s);
        }
        for w in 0..n {
            while shards[w].is_empty() {
                let donor = (0..n).max_by_key(|&d| shards[d].len()).expect("non-empty");
                let moved = shards[donor].pop().expect("donor has samples");
                shards[w].push(moved);
            }
        }
        shards
    };
    let mut shards = full_plan;

    // All workers start from identical weights (decentralized systems
    // begin from a common initialization).
    // Built once; each worker clones it. Tensors are copy-on-write, so the
    // clones share the initial weight buffers — a 1000-worker cluster holds
    // one weight snapshot until workers diverge at their first update. Each
    // worker previously re-ran the same seeded build, so clone-of-one is
    // bit-identical by construction.
    let model_seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(42);
    let sample_shape = data.sample_shape();
    let classes = data.classes();
    let mut mrng = DetRng::seed_from_u64(model_seed);
    let proto_model = wl.model.build(&sample_shape, classes, &mut mrng);
    // The fault plan's permanent kills: the departures every rank knows of
    // from the start, so each renormalizes at the planned round whenever
    // the news lands. A rejoining kill (`W@I+R`) is a pause: its rank stays
    // a member and is never listed.
    let planned: Vec<(usize, u64)> = cfg
        .fault
        .kills
        .iter()
        .filter(|k| k.rejoin_after.is_none() && k.worker < n)
        .map(|k| (k.worker, k.at_iter))
        .collect();
    let workers: Vec<Worker> = (0..n)
        .map(|w| {
            let model = proto_model.clone();
            Worker {
                id: w,
                model,
                strategy: build_strategy(cfg),
                sync: SyncState::with_tracked(w, n, neighbors[w].clone()),
                dkt: DktState::new(w, n, cfg.dkt),
                rng: root.derive(w as u64 + 1),
                shard: std::mem::take(&mut shards[w]),
                lbs: cfg.initial_lbs,
                iteration: 0,
                pending: None,
                last_iter_time: 0.0,
                last_pull_round: 0,
                scratch: dlion_tensor::Scratch::new(),
                grads: Vec::new(),
                batch_buf: Vec::new(),
                lr: cfg.lr,
                weighted: cfg.system.weighted_update(),
                schedule: Arc::clone(&schedule),
                parked: Vec::new(),
                queued: Vec::new(),
                kill: cfg.fault.kill_of(w),
                departures: planned.clone(),
                batching: Batching::new(cfg, n),
                record: Default::default(),
            }
        })
        .collect();

    let total_params = workers[0].model.num_params();
    let bytes_per_param = workers[0].model.bytes_per_param();

    ClusterInit {
        prof_rng: root.derive(0xABCD),
        workers,
        data,
        eval_indices,
        schedule,
        total_params,
        bytes_per_param,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    #[test]
    fn build_is_deterministic() {
        let cfg = RunConfig::small_test(SystemKind::DLion);
        let a = build_cluster(&cfg, 3);
        let b = build_cluster(&cfg, 3);
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.model.weights(), wb.model.weights());
            assert_eq!(wa.shard, wb.shard);
        }
        assert_eq!(a.eval_indices, b.eval_indices);
        assert_eq!(a.total_params, b.total_params);
    }

    #[test]
    fn workers_start_from_identical_weights() {
        let cfg = RunConfig::small_test(SystemKind::Baseline);
        let init = build_cluster(&cfg, 4);
        let w0 = init.workers[0].model.weights();
        for w in &init.workers[1..] {
            assert_eq!(w.model.weights(), w0);
        }
    }

    /// Without batching control and without kills a rank holds no
    /// per-peer share vector and an empty departure list: a 1024-rank
    /// Baseline cluster (the `sim_scale` shape) pays nothing per peer for
    /// its ledger.
    #[test]
    fn a_rank_without_batching_or_kills_holds_no_per_peer_ledger() {
        let n = 1024;
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        cfg.initial_lbs = 1;
        cfg.workload.train_size = 8 * n;
        cfg.workload.test_size = 16;
        cfg.eval_subset = 8;
        cfg.topology = crate::Topology::KRegular { k: 8 };
        let init = build_cluster(&cfg, n);
        for w in &init.workers {
            assert_eq!(w.batching.shares.capacity(), 0);
            assert_eq!(w.departures.capacity(), 0);
            assert_eq!(w.batching.share(w.id ^ 1), 1);
        }
        // A batching system's ranks each hold their own n shares.
        let init = build_cluster(&RunConfig::small_test(SystemKind::DLion), 3);
        assert!(init.workers.iter().all(|w| w.batching.shares == [32; 3]));
    }

    #[test]
    fn shards_cover_training_set() {
        let cfg = RunConfig::small_test(SystemKind::Baseline);
        let init = build_cluster(&cfg, 3);
        let mut all: Vec<usize> = init.workers.iter().flat_map(|w| w.shard.clone()).collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..cfg.workload.train_size).collect();
        assert_eq!(all, expect);
    }
}
