//! In-memory classification datasets and worker sharding.
//!
//! Real CIFAR10/ImageNet files are not available in this environment, so the
//! evaluation uses synthetic stand-ins (DESIGN.md §1): each class is a
//! mixture of Gaussian "prototype" modes in image space, with additive noise
//! and optional label noise. The task difficulty (signal-to-noise ratio and
//! mode count) is tuned so accuracy climbs over many hundreds of SGD
//! iterations — the regime where the paper's systems differentiate.

use dlion_tensor::{draws, DetRng, Shape, Tensor};

/// A labelled image dataset held fully in memory.
pub struct Dataset {
    /// All images, `(N, C, H, W)`.
    images: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Build from raw parts.
    pub fn new(images: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(images.shape().rank(), 4, "images must be NCHW");
        assert_eq!(images.shape().dim(0), labels.len(), "image/label count");
        assert!(labels.iter().all(|&y| y < classes), "label out of range");
        Dataset {
            images,
            labels,
            classes,
        }
    }

    /// Synthetic mixture-of-prototypes dataset.
    ///
    /// * `classes` — number of labels,
    /// * `modes` — Gaussian modes per class (more modes ⇒ less linearly
    ///   separable ⇒ slower convergence),
    /// * `n` — number of samples,
    /// * `sample_shape` — `(1, C, H, W)`; the batch axis must be 1,
    /// * `signal` — prototype scale (higher ⇒ easier),
    /// * `noise` — per-pixel noise std,
    /// * `label_noise` — fraction of labels flipped uniformly at random.
    #[allow(clippy::too_many_arguments)]
    pub fn gaussian_prototypes(
        classes: usize,
        modes: usize,
        n: usize,
        sample_shape: Shape,
        signal: f64,
        noise: f64,
        label_noise: f64,
        rng: &mut DetRng,
    ) -> Self {
        assert!(classes >= 2 && modes >= 1 && n > 0);
        assert_eq!(sample_shape.dim(0), 1, "sample shape batch axis must be 1");
        let pixels = sample_shape.numel();
        // Fixed prototypes per (class, mode).
        let protos: Vec<Vec<f32>> = (0..classes * modes)
            .map(|_| {
                (0..pixels)
                    .map(|_| rng.normal_ms(0.0, signal) as f32)
                    .collect()
            })
            .collect();
        // One sample's draws in stream order: its mode, its pixels (written
        // into `pixels_out`, or skipped), its label. The walk and the fill
        // below both go through here, so they cannot disagree on the order.
        let sample = |i: usize, rng: &mut DetRng, pixels_out: Option<&mut [f32]>| {
            let class = i % classes; // balanced classes
            let mode = rng.index(modes);
            match pixels_out {
                Some(out) => {
                    let p = &protos[class * modes + mode];
                    for (v, &pv) in out.iter_mut().zip(p) {
                        *v = pv + rng.normal_ms(0.0, noise) as f32;
                    }
                }
                None => rng.skip_normals(pixels),
            }
            if label_noise > 0.0 && rng.uniform() < label_noise {
                rng.index(classes)
            } else {
                class
            }
        };
        // The outputs first, ahead of the walk's transient allocations, as
        // the serial loop made them: allocated after them, 2 of 28
        // `sim_paper` benchmark processes read `peak_rss_mb` ≈ 50 instead
        // of 40–44 MB (DESIGN.md §4b).
        let mut data = vec![0.0f32; n * pixels];
        let mut labels = Vec::with_capacity(n);
        // The serial walk: every label, and each chunk's start state.
        let per_chunk = draws::rows_per_chunk(pixels);
        let mut starts = Vec::with_capacity(n.div_ceil(per_chunk));
        for i in 0..n {
            if i % per_chunk == 0 {
                starts.push(rng.clone());
            }
            labels.push(sample(i, rng, None));
        }
        // The pixels, chunk by chunk on the pool, in place.
        let chunk_len = per_chunk * pixels;
        draws::fill_chunks(&mut data, chunk_len, starts, |c, mut rng, chunk| {
            for (j, out) in chunk.chunks_mut(pixels).enumerate() {
                sample(c * per_chunk + j, &mut rng, Some(out));
            }
        });
        let shape = sample_shape.with_dim(0, n);
        Dataset::new(Tensor::from_vec(shape, data), labels, classes)
    }

    /// CIFAR10 stand-in used throughout the CPU-cluster experiments:
    /// 10 classes, 3 modes each, 1×12×12 images, tuned so a 6-worker
    /// cluster's accuracy climbs from ~45 % to ~78 % across the 250–1500
    /// update range where the paper's systems differentiate.
    pub fn synth_vision(n: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        Dataset::gaussian_prototypes(10, 3, n, Shape::d4(1, 1, 12, 12), 0.65, 1.0, 0.02, &mut rng)
    }

    /// ImageNet stand-in for the GPU-cluster experiments. The paper already
    /// subsampled ImageNet to 100 classes for cost; this reproduction
    /// subsamples further to 20 classes and 3×12×12 images so the GPU
    /// figures regenerate within the simulation budget (documented in
    /// EXPERIMENTS.md).
    pub fn synth_imagenet(n: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        Dataset::gaussian_prototypes(20, 2, n, Shape::d4(1, 3, 12, 12), 0.5, 1.0, 0.01, &mut rng)
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one sample as `(1, C, H, W)`.
    pub fn sample_shape(&self) -> Shape {
        let d = self.images.shape().dims();
        Shape::d4(1, d[1], d[2], d[3])
    }

    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Materialize a batch `(images, labels)` for the given sample indices,
    /// the image tensor's storage drawn from the arena `s`; it re-enters
    /// the arena when the training step recycles it, so steady-state
    /// batching makes two allocations: the (small) label vector and the
    /// `Arc` around the arena's buffer (the shape is inline).
    pub fn batch_scratch(
        &self,
        indices: &[usize],
        s: &mut dlion_tensor::Scratch,
    ) -> (Tensor, Vec<usize>) {
        let row_len = self.images.numel() / self.images.shape().dim(0);
        let mut x = s.take_uninit(indices.len() * row_len);
        let id = self.images.data();
        for (dst, &i) in x.chunks_mut(row_len).zip(indices) {
            dst.copy_from_slice(&id[i * row_len..(i + 1) * row_len]);
        }
        let shape = self.images.shape().with_dim(0, indices.len());
        let y = indices.iter().map(|&i| self.labels[i]).collect();
        (Tensor::from_vec(shape, x), y)
    }

    /// [`Dataset::batch_scratch`] for callers without an arena to keep.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        self.batch_scratch(indices, &mut dlion_tensor::Scratch::new())
    }

    /// Randomly partition sample indices into `n_shards` near-equal shards
    /// (i.i.d. split).
    pub fn shard(&self, n_shards: usize, rng: &mut DetRng) -> ShardPlan {
        self.shard_skewed(n_shards, 0.0, rng)
    }

    /// Partition with label skew: with probability `skew` a sample goes to
    /// the worker *owning* its class (ownership round-robin: class `c` is
    /// owned by worker `c mod n`), otherwise to a uniformly random worker.
    ///
    /// `skew = 0` is the i.i.d. split; `skew = 1` is a fully class-partitioned
    /// split. Micro-clouds ingest data from *their own* edge devices, so
    /// their local distributions differ — this is the knob that models it
    /// (see DESIGN.md; the cluster experiments default to a moderate skew).
    pub fn shard_skewed(&self, n_shards: usize, skew: f64, rng: &mut DetRng) -> ShardPlan {
        assert!(n_shards > 0);
        assert!((0.0..=1.0).contains(&skew), "skew must be in [0,1]");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let mut shards = vec![Vec::new(); n_shards];
        let mut rr = 0usize; // round-robin for the uniform share
        for s in idx {
            let w = if skew > 0.0 && rng.uniform() < skew {
                self.labels[s] % n_shards
            } else {
                rr = (rr + 1) % n_shards;
                rr
            };
            shards[w].push(s);
        }
        // Guarantee no shard is empty (possible at extreme skew with more
        // workers than classes): move one sample from the largest shard.
        for w in 0..n_shards {
            while shards[w].is_empty() {
                let donor = (0..n_shards)
                    .max_by_key(|&d| shards[d].len())
                    .expect("non-empty cluster");
                let moved = shards[donor].pop().expect("donor has samples");
                shards[w].push(moved);
            }
        }
        ShardPlan { shards }
    }
}

/// A partition of dataset indices across workers.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    pub shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, i: usize) -> &[usize] {
        &self.shards[i]
    }

    /// Total number of samples across all shards.
    pub fn total(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_vision_shape_and_balance() {
        let ds = Dataset::synth_vision(500, 1);
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.classes(), 10);
        assert_eq!(ds.sample_shape().dims(), &[1, 1, 12, 12]);
        // Balanced classes (up to label noise ~2%).
        let mut counts = vec![0usize; 10];
        for &y in ds.labels() {
            counts[y] += 1;
        }
        for c in counts {
            assert!((30..=70).contains(&c), "class count {c} far from 50");
        }
    }

    #[test]
    fn synth_imagenet_shape() {
        let ds = Dataset::synth_imagenet(300, 2);
        assert_eq!(ds.classes(), 20);
        assert_eq!(ds.sample_shape().dims(), &[1, 3, 12, 12]);
    }

    #[test]
    fn same_seed_same_dataset() {
        let a = Dataset::synth_vision(100, 7);
        let b = Dataset::synth_vision(100, 7);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.images.data(), b.images.data());
    }

    #[test]
    fn different_seed_different_dataset() {
        let a = Dataset::synth_vision(100, 7);
        let b = Dataset::synth_vision(100, 8);
        assert_ne!(a.images.data(), b.images.data());
    }

    #[test]
    fn batch_gathers_correct_samples() {
        let ds = Dataset::synth_vision(50, 3);
        let (x, y) = ds.batch(&[5, 0, 49]);
        assert_eq!(x.shape().dims(), &[3, 1, 12, 12]);
        assert_eq!(y, vec![ds.labels()[5], ds.labels()[0], ds.labels()[49]]);
    }

    #[test]
    fn shard_partition_properties() {
        let ds = Dataset::synth_vision(101, 4);
        let mut rng = DetRng::seed_from_u64(9);
        let plan = ds.shard(6, &mut rng);
        assert_eq!(plan.n_shards(), 6);
        assert_eq!(plan.total(), 101);
        // Near-equal sizes.
        for s in &plan.shards {
            assert!((16..=17).contains(&s.len()));
        }
        // Disjoint and covering.
        let mut all: Vec<usize> = plan.shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_shards_concentrate_owned_classes() {
        let ds = Dataset::synth_vision(3000, 5);
        let mut rng = DetRng::seed_from_u64(1);
        let plan = ds.shard_skewed(6, 0.6, &mut rng);
        assert_eq!(plan.total(), 3000);
        // Worker 0 owns classes 0 and 6: they should be over-represented.
        let share = |w: usize, c: usize| -> f64 {
            let k = plan
                .shard(w)
                .iter()
                .filter(|&&i| ds.labels()[i] == c)
                .count();
            k as f64 / plan.shard(w).len() as f64
        };
        assert!(share(0, 0) > 0.2, "owned class share {}", share(0, 0));
        assert!(share(0, 1) < 0.1, "foreign class share {}", share(0, 1));
        // Still a disjoint cover.
        let mut all: Vec<usize> = plan.shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn full_skew_never_leaves_empty_shards() {
        // 3 classes, 5 workers: workers 3 and 4 own nothing at skew 1.
        let mut rng = DetRng::seed_from_u64(2);
        let ds =
            Dataset::gaussian_prototypes(3, 1, 300, Shape::d4(1, 1, 3, 3), 1.0, 0.3, 0.0, &mut rng);
        let plan = ds.shard_skewed(5, 1.0, &mut rng);
        assert!(plan.shards.iter().all(|s| !s.is_empty()));
        assert_eq!(plan.total(), 300);
    }

    #[test]
    fn zero_skew_matches_iid_balance() {
        let ds = Dataset::synth_vision(600, 5);
        let mut rng = DetRng::seed_from_u64(3);
        let plan = ds.shard_skewed(6, 0.0, &mut rng);
        for s in &plan.shards {
            assert_eq!(s.len(), 100);
        }
    }

    #[test]
    fn label_noise_zero_gives_clean_labels() {
        let mut rng = DetRng::seed_from_u64(11);
        let ds =
            Dataset::gaussian_prototypes(4, 1, 80, Shape::d4(1, 1, 3, 3), 1.0, 0.1, 0.0, &mut rng);
        for (i, &y) in ds.labels().iter().enumerate() {
            assert_eq!(y, i % 4);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_panic() {
        Dataset::new(Tensor::zeros(Shape::d4(2, 1, 2, 2)), vec![0, 5], 3);
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // With high signal and low noise, nearest-prototype classification on
        // the raw pixels should be near perfect — sanity check on generation.
        let mut rng = DetRng::seed_from_u64(13);
        let ds =
            Dataset::gaussian_prototypes(3, 1, 150, Shape::d4(1, 1, 4, 4), 2.0, 0.2, 0.0, &mut rng);
        // Estimate class means from data, then classify.
        let pixels = 16;
        let mut means = vec![vec![0.0f32; pixels]; 3];
        let mut counts = vec![0usize; 3];
        let imgs = ds.images.data();
        for i in 0..ds.len() {
            let y = ds.labels()[i];
            counts[y] += 1;
            for p in 0..pixels {
                means[y][p] += imgs[i * pixels + p];
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut correct = 0;
        for i in 0..ds.len() {
            let mut best = (f32::INFINITY, 0);
            for (k, m) in means.iter().enumerate() {
                let d: f32 = (0..pixels)
                    .map(|p| (imgs[i * pixels + p] - m[p]).powi(2))
                    .sum();
                if d < best.0 {
                    best = (d, k);
                }
            }
            if best.1 == ds.labels()[i] {
                correct += 1;
            }
        }
        assert!(correct as f64 / ds.len() as f64 > 0.95, "{correct}/150");
    }
}
