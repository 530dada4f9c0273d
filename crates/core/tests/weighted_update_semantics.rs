//! Runner-level semantics of the weighted model update (Eq. 7): with equal
//! batch sizes the weighted and unweighted systems evolve identically; with
//! unequal batch sizes the dynamic batching weight recovers the
//! sample-weighted global gradient.

use dlion_core::weighted::{dynamic_batching_weight, update_factor};
use dlion_core::{run_env, RunConfig, SystemKind};
use dlion_microcloud::EnvId;
use dlion_nn::{cipher_net, Dataset};
use dlion_tensor::{DetRng, Shape, Tensor};

/// Eq. 7 equals Eq. 4 when all workers share one LBS — verified end-to-end
/// by running DLion-no-WU and full DLion in a *homogeneous* cluster with
/// dynamic batching disabled (so LBS never diverges) and comparing
/// trajectories.
#[test]
fn weighted_equals_plain_when_lbs_equal() {
    let mk = |system| {
        let mut c = RunConfig::small_test(system);
        c.duration = 100.0;
        c.workload.train_size = 1500;
        c.workload.test_size = 300;
        // Freeze the GBS controller (tiny caps -> starts Done) and remove
        // profiling noise so the homogeneous partition is exactly even.
        c.gbs.warmup_cap_frac = 0.0001;
        c.gbs.speedup_cap_frac = 0.0002;
        c.profile_noise = 0.0;
        // Identical DKT settings on both sides.
        c.dkt = dlion_core::DktConfig::default();
        run_env(&c, EnvId::HomoA)
    };
    let weighted = mk(SystemKind::DLion);
    let unweighted = mk(SystemKind::DLionNoWu);
    assert_eq!(
        weighted.worker_acc, unweighted.worker_acc,
        "with equal LBS, Eq. 7 must reduce to Eq. 4 exactly"
    );
}

/// Aggregating two gradients with db weights equals the gradient of the
/// concatenated batch: db really is the sample-weight correction.
#[test]
fn db_weight_recovers_sample_weighted_gradient() {
    let mut rng = DetRng::seed_from_u64(3);
    let ds = Dataset::synth_vision(200, 9);
    let mut model = cipher_net(&Shape::d4(1, 1, 12, 12), 10, 4, 8, 16, 32, &mut rng);

    // Two "workers" with LBS 48 and 16 over disjoint batches.
    let idx_a: Vec<usize> = (0..48).collect();
    let idx_b: Vec<usize> = (48..64).collect();
    let (xa, ya) = ds.batch(&idx_a);
    let (xb, yb) = ds.batch(&idx_b);
    let (_, ga) = model.forward_backward(&xa, &ya);
    let (_, gb) = model.forward_backward(&xb, &yb);
    // Worker k = the LBS-16 one: db for sender a is 48/16 = 3.
    let db = dynamic_batching_weight(48, 16);
    assert_eq!(db, 3.0);
    // (db*ga + gb) / (db + 1) should equal the mean gradient over all 64
    // samples (both gradients are per-sample means).
    let idx_all: Vec<usize> = (0..64).collect();
    let (xall, yall) = ds.batch(&idx_all);
    let (_, gall) = model.forward_backward(&xall, &yall);
    for v in 0..model.num_vars() {
        let mut combined = Tensor::zeros(*ga[v].shape());
        combined.axpy(db / (db + 1.0), &ga[v]);
        combined.axpy(1.0 / (db + 1.0), &gb[v]);
        let diff: f32 = combined
            .data()
            .iter()
            .zip(gall[v].data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-4, "var {v}: max diff {diff}");
    }
}

/// The runner applies db-scaled factors: a DLion run in a heterogeneous
/// cluster produces different trajectories with and without WU once LBS
/// diverges.
#[test]
fn weighted_update_changes_hetero_trajectories() {
    let mk = |system| {
        let mut c = RunConfig::small_test(system);
        c.duration = 150.0;
        c.workload.train_size = 6000;
        c.workload.test_size = 300;
        c.dkt = dlion_core::DktConfig::default();
        run_env(&c, EnvId::HeteroCpuA)
    };
    let weighted = mk(SystemKind::DLion);
    let unweighted = mk(SystemKind::DLionNoWu);
    assert_ne!(
        weighted.worker_acc, unweighted.worker_acc,
        "with unequal LBS the db weight must matter"
    );
}

/// Sanity on the factor arithmetic used by the runner: with weighting, a
/// gradient's share equals its batch's share of the GBS.
#[test]
fn factor_composition() {
    let f = update_factor(0.22, 6, 48, 192, true);
    assert!((f - (-0.22 * 48.0 / 192.0)).abs() < 1e-7);
    let f0 = update_factor(0.22, 6, 48, 192, false);
    assert!((f0 - (-0.22 / 6.0)).abs() < 1e-7);
}
