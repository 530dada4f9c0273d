//! Tier-1 guard for "one compute path": training, evaluation and the
//! `forward`/`forward_backward`/`batch` conveniences all run the arena
//! forward/backward, so what they return cannot depend on which arena
//! served them — a throwaway one, a warm one, or one that has already
//! served other batch sizes — at batch 1 as at batch 32 (every CipherNet
//! conv is the implicit GEMM at both).
//! Nor can it depend on which thread computed it: the simulator runs each
//! worker's gradient step as a pool job, and a run whose jobs go to the
//! pool equals one whose jobs run inline.

use dlion::core::{run_env, run_with_models, RunConfig, RunMetrics, SystemKind, Topology};
use dlion::microcloud::EnvId;
use dlion::nn::{Dataset, Model, ModelSpec};
use dlion::simnet::{ComputeModel, NetworkModel};
use dlion::tensor::{par, DetRng, Scratch, Tensor};

fn cipher(ds: &Dataset) -> Model {
    let mut rng = DetRng::seed_from_u64(7);
    ModelSpec::Cipher.build(&ds.sample_shape(), ds.classes(), &mut rng)
}

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn convenience_and_arena_forms_agree_on_both_conv_backends() {
    let ds = Dataset::synth_vision(300, 3);
    let (mut plain, mut pooled) = (cipher(&ds), cipher(&ds));
    let (mut s, mut grads) = (Scratch::new(), Vec::new());
    // The arena has served other batch sizes before each compared step.
    for b in [5usize, 1, 48, 32] {
        let idx: Vec<usize> = (0..b).map(|i| (i * 7 + b) % ds.len()).collect();
        let (x, y) = ds.batch(&idx);
        let (loss, g) = plain.forward_backward(&x, &y);
        let (xs, ys) = ds.batch_scratch(&idx, &mut s);
        assert_eq!((x.data(), &y), (xs.data(), &ys), "batch {b}");
        let loss_s = pooled.forward_backward_scratch(xs, &ys, &mut s, &mut grads);
        assert_eq!(loss.to_bits(), loss_s.to_bits(), "loss at batch {b}");
        assert!(bits(&g) == bits(&grads), "gradients at batch {b}");
        assert_eq!(
            plain.forward(&x).data(),
            pooled.forward_scratch(x.clone(), &mut s).data(),
            "logits at batch {b}"
        );
    }
}

#[test]
fn evaluate_is_repeatable_and_leaves_training_alone() {
    let ds = Dataset::synth_vision(300, 4);
    let all: Vec<usize> = (0..ds.len()).collect();
    let mut m = cipher(&ds);
    // 300 samples in batches of 125: two full chunks and a ragged one
    // through the same per-call arena.
    let first = m.evaluate(&ds, &all, 125);
    let second = m.evaluate(&ds, &all, 125);
    assert_eq!(first.loss.to_bits(), second.loss.to_bits());
    assert_eq!(first.accuracy.to_bits(), second.accuracy.to_bits());
    assert!(first.loss > 0.0 && first.accuracy > 0.0);

    // A training step gives the same bits whether or not an evaluation
    // ran between it and the previous one.
    let mut never_evaluated = cipher(&ds);
    let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
    let (mut g1, mut g2) = (Vec::new(), Vec::new());
    for step in 0..2 {
        let idx: Vec<usize> = (0..32).map(|i| step * 32 + i).collect();
        let (x, y) = ds.batch_scratch(&idx, &mut s1);
        let l1 = m.forward_backward_scratch(x, &y, &mut s1, &mut g1);
        m.evaluate(&ds, &all[..50], 20);
        let (x, y) = ds.batch_scratch(&idx, &mut s2);
        let l2 = never_evaluated.forward_backward_scratch(x, &y, &mut s2, &mut g2);
        assert_eq!(l1.to_bits(), l2.to_bits(), "loss at step {step}");
        assert!(bits(&g1) == bits(&g2), "gradients at step {step}");
        assert_eq!(
            s1.held_bytes(),
            s2.held_bytes(),
            "evaluation touched the arena"
        );
    }
}

/// A cell run by `run` from this thread (its gradient and evaluation jobs
/// go to the pool — and with them, settling each worker's update log) and
/// inside a `par_map` item (a spawn from inside a job runs at its join, so
/// every job runs inline): every number equal.
fn pooled_equals_inline(mut cfg: RunConfig, run: fn(&RunConfig) -> RunMetrics) -> RunMetrics {
    cfg.capture_weights = true;
    let pooled = run(&cfg);
    let inline = par::par_map(&[cfg], run).remove(0);
    assert!(pooled.total_iterations() > 50, "{:?}", pooled.iterations);
    assert_eq!(pooled.final_weights, inline.final_weights);
    assert_eq!(pooled.iterations, inline.iterations);
    assert_eq!(pooled.worker_acc, inline.worker_acc);
    assert_eq!(pooled.gbs_trace, inline.gbs_trace);
    assert_eq!(pooled.lbs_trace, inline.lbs_trace);
    assert_eq!(pooled.wire_bytes_by_kind, inline.wire_bytes_by_kind);
    pooled
}

fn hetero(cfg: &RunConfig) -> RunMetrics {
    run_env(cfg, EnvId::HeteroSysA)
}

/// One DLion cell with DKT merges (a pull and a merge settle the log in
/// place), pooled and inline. The fault and strict-BSP variants live
/// beside the runner (`pooled_jobs_change_no_number_under_faults_or_strict_bsp`).
#[test]
fn a_run_with_pooled_jobs_equals_the_same_run_inline() {
    let dlion = pooled_equals_inline(RunConfig::small_test(SystemKind::DLion), hetero);
    assert!(dlion.dkt_merges > 0, "no DKT merge");
}

/// The other cells where the update log moved the most axpys:
/// `sim_scale`'s shape at 16 ranks (Baseline on `kregular:8` at batch 1
/// under an iteration cap) and Gaia (a weight-reading strategy: its
/// rounds settle in place).
#[test]
fn pooled_jobs_equal_inline_where_the_update_log_settles() {
    let mut scale = RunConfig::small_test(SystemKind::Baseline);
    scale.topology = Topology::KRegular { k: 8 };
    scale.initial_lbs = 1;
    scale.max_iters = Some(6);
    scale.duration = 1e9;
    scale.workload.train_size = 8 * 16;
    scale.eval_subset = 8;
    pooled_equals_inline(scale, |cfg| {
        let compute = ComputeModel::homogeneous(16, 1.0, 0.001, 0.05);
        let net = NetworkModel::uniform(16, 1000.0, 0.001);
        run_with_models(cfg, compute, net, "kregular8")
    });
    pooled_equals_inline(RunConfig::small_test(SystemKind::Gaia), hetero);
}
