//! Deterministic random number generation.
//!
//! All stochastic pieces of the simulation (weight init, minibatch sampling,
//! synthetic data, bandwidth jitter) draw from [`DetRng`], a self-contained
//! xoshiro256++ generator (seeded through SplitMix64) plus the distributions
//! the workloads need. A fresh `DetRng` from the same seed always produces
//! the same stream on every platform, which keeps whole cluster simulations
//! bit-reproducible — and the implementation has no external dependencies,
//! so the workspace builds with no registry access.

/// SplitMix64 step: expands a 64-bit seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic RNG used throughout the workspace (xoshiro256++).
#[derive(Clone)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second sample from Box–Muller.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng {
            s,
            spare_normal: None,
        }
    }

    /// Derive a child RNG with a domain-separated seed; used to give each
    /// simulated worker an independent, reproducible stream.
    pub fn derive(&mut self, stream: u64) -> DetRng {
        let s = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(s)
    }

    /// Raw u64, for seeding sub-components. (xoshiro256++ step.)
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's debiased multiply-shift.
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone for exact uniformity over [0, n).
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Standard normal via Box–Muller (no external distribution crate).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Advance the stream exactly as `k` calls of [`DetRng::normal`] would,
    /// the spare included: a held spare is the first draw, a whole pair
    /// costs two `next_u64`, and only an odd tail computes the one
    /// Box–Muller pair whose second half it must leave as the spare.
    pub fn skip_normals(&mut self, mut k: usize) {
        if k > 0 && self.spare_normal.take().is_some() {
            k -= 1;
        }
        for _ in 0..2 * (k / 2) {
            self.next_u64();
        }
        if k % 2 == 1 {
            self.normal();
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k positions need to be final.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let xa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(21);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_is_unbiased_over_small_range() {
        // Lemire rejection must make all residues equally likely; check a
        // range that does not divide 2^64 evenly.
        let mut rng = DetRng::seed_from_u64(77);
        let n = 6;
        let mut counts = [0usize; 6];
        let draws = 60_000;
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = DetRng::seed_from_u64(42);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_ms_scales() {
        let mut rng = DetRng::seed_from_u64(3);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal_ms(5.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = DetRng::seed_from_u64(11);
        let s = rng.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "indices must be distinct");
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_all_indices_is_permutation() {
        let mut rng = DetRng::seed_from_u64(12);
        let mut s = rng.sample_indices(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn derive_gives_independent_reproducible_streams() {
        let mut root1 = DetRng::seed_from_u64(100);
        let mut root2 = DetRng::seed_from_u64(100);
        let mut c1 = root1.derive(5);
        let mut c2 = root2.derive(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut root3 = DetRng::seed_from_u64(100);
        let mut c3 = root3.derive(6);
        let mut root4 = DetRng::seed_from_u64(100);
        let mut c4 = root4.derive(5);
        assert_ne!(c3.next_u64(), c4.next_u64());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = DetRng::seed_from_u64(13);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }
}
