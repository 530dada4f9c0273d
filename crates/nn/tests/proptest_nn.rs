//! Property-based tests for the NN stack: update algebra, weight-merge
//! semantics and dataset invariants over seeded pseudo-random inputs.

use dlion_nn::{cipher_net, Dataset};
use dlion_tensor::{DetRng, Shape, Tensor};

fn model(seed: u64) -> dlion_nn::Model {
    let mut rng = DetRng::seed_from_u64(seed);
    cipher_net(&Shape::d4(1, 1, 12, 12), 10, 4, 8, 16, 32, &mut rng)
}

/// Dense updates are linear: applying g with factor a then b equals one
/// application with a+b.
#[test]
fn dense_update_linearity() {
    for case in 0..24u64 {
        let mut crng = DetRng::seed_from_u64(900 + case);
        let seed = crng.next_u64() % 500;
        let a = crng.uniform_range(-0.5, 0.5) as f32;
        let b = crng.uniform_range(-0.5, 0.5) as f32;
        let mut m1 = model(seed);
        let mut m2 = model(seed);
        let mut rng = DetRng::seed_from_u64(seed + 1);
        let grads: Vec<Tensor> = (0..m1.num_vars())
            .map(|v| Tensor::randn(*m1.var(v).shape(), 0.1, &mut rng))
            .collect();
        m1.apply_dense_update(&grads, a);
        m1.apply_dense_update(&grads, b);
        m2.apply_dense_update(&grads, a + b);
        assert!(
            m1.weight_distance(&m2.weights()) < 1e-3,
            "case {case}: update not linear"
        );
    }
}

/// merge_weights contracts the distance to the target by exactly (1-λ).
#[test]
fn merge_contracts_distance() {
    for case in 0..24u64 {
        let mut crng = DetRng::seed_from_u64(1900 + case);
        let seed = crng.next_u64() % 500;
        let lambda = crng.uniform_range(0.0, 1.0) as f32;
        let mut m = model(seed);
        let target = model(seed + 1).weights();
        let before = m.weight_distance(&target);
        m.merge_weights(&target, lambda);
        let after = m.weight_distance(&target);
        let expect = before * (1.0 - lambda as f64);
        assert!(
            (after - expect).abs() < 1e-3 * (1.0 + before),
            "case {case}: before {before}, λ {lambda}: after {after} vs {expect}"
        );
    }
}

/// Merging twice with λ is merging once with 1-(1-λ)².
#[test]
fn merge_composes() {
    for case in 0..24u64 {
        let mut crng = DetRng::seed_from_u64(2900 + case);
        let seed = crng.next_u64() % 200;
        let lambda = crng.uniform_range(0.0, 1.0) as f32;
        let mut m1 = model(seed);
        let mut m2 = model(seed);
        let target = model(seed + 9).weights();
        m1.merge_weights(&target, lambda);
        m1.merge_weights(&target, lambda);
        let composed = 1.0 - (1.0 - lambda) * (1.0 - lambda);
        m2.merge_weights(&target, composed);
        assert!(
            m1.weight_distance(&m2.weights()) < 1e-3,
            "case {case}: merge does not compose"
        );
    }
}

/// Sharding is always a disjoint cover with near-equal sizes.
#[test]
fn shard_cover() {
    for case in 0..24u64 {
        let mut crng = DetRng::seed_from_u64(3900 + case);
        let n = 20 + crng.index(380);
        let k = 1 + crng.index(9);
        let seed = crng.next_u64() % 1000;
        let ds = Dataset::synth_vision(n, 3);
        let mut rng = DetRng::seed_from_u64(seed);
        let plan = ds.shard(k, &mut rng);
        assert_eq!(plan.total(), n, "case {case}");
        let mut all: Vec<usize> = plan.shards.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "case {case}: shards must be disjoint");
        let min = plan.shards.iter().map(Vec::len).min().unwrap();
        let max = plan.shards.iter().map(Vec::len).max().unwrap();
        assert!(
            max - min <= 1,
            "case {case}: near-equal shards: {min}..{max}"
        );
    }
}

/// forward is deterministic: same weights + same input = same logits.
#[test]
fn forward_deterministic() {
    for case in 0..24u64 {
        let mut crng = DetRng::seed_from_u64(4900 + case);
        let seed = crng.next_u64() % 200;
        let mut m1 = model(seed);
        let mut m2 = model(seed);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xFF);
        let x = Tensor::randn(Shape::d4(3, 1, 12, 12), 1.0, &mut rng);
        let y1 = m1.forward(&x);
        let y2 = m2.forward(&x);
        assert_eq!(y1.data(), y2.data(), "case {case}");
    }
}
