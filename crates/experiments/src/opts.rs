//! Experiment harness options.

use std::path::PathBuf;

/// Global options shared by every experiment.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Seeds to average over (the paper reports the average of 3 runs with
    /// 95% confidence intervals; the default here is 1 seed to fit a
    /// single-core simulation budget — pass `--seeds 3` for paper-style
    /// averaging).
    pub seeds: Vec<u64>,
    /// Shrink all durations ~10× (smoke tests, benches).
    pub fast: bool,
    /// Where CSVs are written.
    pub results_dir: PathBuf,
}

impl ExpOpts {
    pub fn new(n_seeds: usize, fast: bool, results_dir: impl Into<PathBuf>) -> Self {
        assert!(n_seeds >= 1);
        ExpOpts {
            seeds: (1..=n_seeds as u64).collect(),
            fast,
            results_dir: results_dir.into(),
        }
    }

    /// Default full-fidelity options.
    pub fn full() -> Self {
        ExpOpts::new(1, false, "results")
    }

    /// Fast smoke-test options. Their results directory is this
    /// process's own, created only by whoever writes into it.
    pub fn fast() -> Self {
        let dir = format!("dlion-results-{}", std::process::id());
        ExpOpts::new(1, true, std::env::temp_dir().join(dir))
    }

    /// Scale a duration for fast mode.
    pub fn dur(&self, full: f64) -> f64 {
        if self.fast {
            (full / 10.0).max(60.0)
        } else {
            full
        }
    }

    /// Scale a training-set size for fast mode.
    pub fn train_size(&self, full: usize) -> usize {
        if self.fast {
            (full / 10).max(1200)
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_enumerated() {
        let o = ExpOpts::new(3, false, "x");
        assert_eq!(o.seeds, vec![1, 2, 3]);
    }

    #[test]
    fn fast_scaling() {
        let f = ExpOpts::fast();
        assert_eq!(f.dur(1500.0), 150.0);
        assert_eq!(f.dur(300.0), 60.0);
        assert_eq!(f.train_size(24_000), 2400);
        let full = ExpOpts::full();
        assert_eq!(full.dur(1500.0), 1500.0);
        assert_eq!(full.train_size(24_000), 24_000);
    }
}
