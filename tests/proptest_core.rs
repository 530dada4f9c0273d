//! Property-based tests on core invariants that must hold for *any*
//! configuration: the GBS controller, the LBS partitioner, the Max N
//! planner and the synchronization policies. Driven by seeded
//! pseudo-random cases.

use dlion::core::gbs::{GbsConfig, GbsController};
use dlion::core::lbs::{compute_rcp, partition_gbs};
use dlion::core::maxn::MaxNPlanner;
use dlion::core::sync::{SyncPolicy, SyncState};
use dlion::core::weighted::{dynamic_batching_weight, update_factor};
use dlion::tensor::{DetRng, Shape, Tensor};

/// The GBS controller is monotone, terminates, and never exceeds the
/// 10% ceiling (for any growth knobs).
#[test]
fn gbs_controller_invariants() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(100 + case);
        let initial = 32 + rng.index(480);
        let train = 2_000 + rng.index(98_000);
        let warmup_inc = 1 + rng.index(255);
        let speedup = rng.uniform_range(1.1, 4.0);
        let cfg = GbsConfig {
            warmup_increment: warmup_inc,
            speedup_factor: speedup,
            warmup_cap_frac: 0.01,
            speedup_cap_frac: 0.10,
            adjust_period_secs: 250.0,
        };
        let cap = (0.10 * train as f64) as usize;
        let mut c = GbsController::new(initial, train, cfg);
        let mut prev = c.gbs();
        let mut steps = 0;
        while let Some(g) = c.maybe_adjust() {
            assert!(g >= prev, "case {case}: GBS must be monotone");
            assert!(
                g <= cap.max(initial),
                "case {case}: GBS {g} above cap {cap}"
            );
            prev = g;
            steps += 1;
            assert!(steps < 10_000, "case {case}: controller must terminate");
        }
        // Once Done, it stays Done.
        assert!(c.maybe_adjust().is_none(), "case {case}");
    }
}

/// LBS partitioning: sums to GBS, each worker >= 1, and monotone in RCP
/// (a strictly stronger worker never gets a smaller share than a weaker
/// one).
#[test]
fn lbs_partition_invariants() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(1100 + case);
        let gbs = 12 + rng.index(4_988);
        let k = 2 + rng.index(10);
        let rcps: Vec<f64> = (0..k).map(|_| rng.uniform_range(0.5, 100.0)).collect();
        if gbs < rcps.len() {
            continue;
        }
        let parts = partition_gbs(gbs, &rcps);
        assert_eq!(parts.iter().sum::<usize>(), gbs, "case {case}");
        assert!(parts.iter().all(|&p| p >= 1), "case {case}");
        for i in 0..rcps.len() {
            for j in 0..rcps.len() {
                if rcps[i] >= 2.0 * rcps[j] && gbs >= 4 * rcps.len() {
                    assert!(
                        parts[i] + 1 >= parts[j],
                        "case {case}: worker {i} (rcp {}) got {} vs worker {j} (rcp {}) got {}",
                        rcps[i],
                        parts[i],
                        rcps[j],
                        parts[j]
                    );
                }
            }
        }
    }
}

/// RCP from a clean linear profile recovers the capacity ratio.
#[test]
fn rcp_tracks_capacity() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(2100 + case);
        let cap_a = rng.uniform_range(2.0, 64.0);
        let ratio = rng.uniform_range(1.0, 8.0);
        let cap_b = cap_a * ratio;
        let profile = |cap: f64| -> Vec<(f64, f64)> {
            [8.0, 16.0, 32.0, 64.0]
                .iter()
                .map(|&l| (l, 0.1 + l * 1.425 / cap))
                .collect()
        };
        let ra = compute_rcp(&profile(cap_a));
        let rb = compute_rcp(&profile(cap_b));
        let got = rb / ra;
        assert!(
            (got - ratio).abs() < 0.05 * ratio,
            "case {case}: ratio {got} vs {ratio}"
        );
    }
}

/// Max N planner: the chosen N for a budget never selects more entries
/// than the budget allows (above the min-N floor), for random gradients.
#[test]
fn maxn_budget_safety() {
    for case in 0..96u64 {
        let mut crng = DetRng::seed_from_u64(3100 + case);
        let seed = crng.next_u64() % 5_000;
        let budget = crng.index(2_000);
        let mut rng = DetRng::seed_from_u64(seed);
        let grads = vec![
            Tensor::randn(Shape::d1(700), 1.0, &mut rng),
            Tensor::randn(Shape::d1(300), 0.2, &mut rng),
        ];
        let p = MaxNPlanner::new(&grads);
        let n = p.n_for_entry_budget(budget, 0.85);
        let count = p.count_for_n(n);
        assert!(
            count <= budget || (n - 0.85).abs() < 1e-9,
            "case {case}: N={n} selects {count} > budget {budget}"
        );
    }
}

/// The O(E) bucket planner answers every quantile query *exactly* like the
/// old sorted-array implementation, including duplicated magnitudes, exact
/// zeros and all-zero variables.
#[test]
fn maxn_planner_matches_sorted_reference() {
    // Sorted-array reference: the seed implementation's semantics.
    fn reference_count(grads: &[Tensor], n: f64) -> usize {
        if n >= 100.0 {
            // N = 100 ships the dense gradient, exact zeros included.
            return grads.iter().map(|g| g.data().len()).sum();
        }
        let frac = (n / 100.0).clamp(0.0, 1.0);
        let mut count = 0usize;
        for g in grads {
            let mut abs: Vec<f32> = g.data().iter().map(|v| v.abs()).collect();
            abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mx = abs.last().copied().unwrap_or(0.0);
            if mx == 0.0 {
                continue;
            }
            let thr = ((1.0 - frac) * mx as f64) as f32;
            let idx = abs.partition_point(|&v| v < thr);
            let nonzero_from = abs.partition_point(|&v| v <= 0.0);
            count += abs.len() - idx.max(nonzero_from);
        }
        count
    }

    for case in 0..64u64 {
        let mut rng = DetRng::seed_from_u64(4100 + case);
        let mut grads = Vec::new();
        let n_vars = 1 + rng.index(4);
        for _ in 0..n_vars {
            let len = 1 + rng.index(600);
            let mut t = Tensor::randn(Shape::d1(len), 1.0, &mut rng);
            // Inject exact zeros and duplicates to stress tie handling.
            for v in t.data_mut().iter_mut() {
                let r = rng.uniform();
                if r < 0.1 {
                    *v = 0.0;
                } else if r < 0.2 {
                    *v = 0.5;
                }
            }
            grads.push(t);
        }
        // One all-zero variable every few cases.
        if case % 5 == 0 {
            grads.push(Tensor::zeros(Shape::d1(37)));
        }
        let p = MaxNPlanner::new(&grads);
        for n in [0.0, 0.5, 1.0, 5.0, 17.3, 50.0, 85.0, 99.9, 100.0] {
            assert_eq!(
                p.count_for_n(n),
                reference_count(&grads, n),
                "case {case}: count_for_n({n}) diverges from sorted reference"
            );
        }
    }
}

/// `MaxNPlanner::select` / `select_for_budget` / `n_for_entry_budget`
/// against the §3.3 definition written as plain scalar loops — same
/// indices, same value bits, `count_for_n` equal to the entries actually
/// selected, and the same N bit for bit as a full count at every bisection
/// midpoint — over inputs that stress the counting and compaction kernels:
/// exact zeros, −0.0, NaN, ±∞, a denormal maximum, all-equal magnitudes,
/// one-entry and all-zero variables, heavy tails, runs of equal magnitudes
/// at the bisection's thresholds, thresholds that land exactly on an entry,
/// and a gradient of more than 100k entries.
#[test]
fn maxn_select_matches_scalar_definition() {
    use dlion::tensor::sparse::SparseVec;

    // §3.3: per variable, the entries within N% of its largest magnitude;
    // exact zeros never travel; N = 100 is the dense gradient.
    fn max_of(dense: &[f32]) -> f32 {
        let magnitudes = dense.iter().filter(|v| !v.is_nan()).map(|v| v.abs());
        magnitudes.fold(0.0f32, f32::max)
    }
    fn threshold(max: f32, n: f64) -> f32 {
        let n = n.clamp(f64::MIN_POSITIVE, 100.0);
        ((1.0 - n / 100.0) * max as f64) as f32
    }
    fn keep(v: f32, max: f32, n: f64) -> bool {
        if n >= 100.0 {
            true
        } else {
            max > 0.0 && v.abs() >= threshold(max, n) && v != 0.0
        }
    }
    fn reference_select(dense: &[f32], n: f64) -> SparseVec {
        let mut out = SparseVec::empty(dense.len());
        let max = max_of(dense);
        for (i, &v) in dense.iter().enumerate() {
            if keep(v, max, n) {
                out.indices.push(i as u32);
                out.values.push(v);
            }
        }
        out
    }
    fn reference_count(grads: &[Tensor], n: f64) -> usize {
        grads
            .iter()
            .map(|g| {
                let max = max_of(g.data());
                g.data().iter().filter(|&&v| keep(v, max, n)).count()
            })
            .sum()
    }
    // The largest admissible N by the documented 40-step bisection, a full
    // count at every midpoint.
    fn reference_n(grads: &[Tensor], budget: usize, min_n: f64) -> f64 {
        if reference_count(grads, 100.0) <= budget {
            return 100.0;
        }
        if reference_count(grads, min_n) > budget {
            return min_n;
        }
        let (mut lo, mut hi) = (min_n, 100.0);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if reference_count(grads, mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
    // The midpoints of the first `depth` bisection steps, on every path.
    fn midpoints(min_n: f64, depth: u32) -> Vec<f64> {
        let mut out = Vec::new();
        let mut level = vec![(min_n, 100.0)];
        for _ in 0..depth {
            let mut next = Vec::new();
            for (lo, hi) in level {
                let mid = 0.5 * (lo + hi);
                out.push(mid);
                next.extend([(lo, mid), (mid, hi)]);
            }
            level = next;
        }
        out
    }
    fn same_bits(got: &[SparseVec], grads: &[Tensor], n: f64, what: &str) {
        assert_eq!(got.len(), grads.len(), "{what}");
        for (v, (s, g)) in got.iter().zip(grads).enumerate() {
            let want = reference_select(g.data(), n);
            assert_eq!(s.dense_len, want.dense_len, "{what}: var {v}");
            assert_eq!(s.indices, want.indices, "{what}: var {v} at N={n}");
            let bits = |s: &SparseVec| s.values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(s), bits(&want), "{what}: var {v} at N={n}");
        }
    }
    let var = |v: Vec<f32>| Tensor::from_vec(Shape::d1(v.len()), v);

    // Hand-built variables, one hazard each.
    let tiny = f32::from_bits(3); // a denormal
    let fixed = vec![
        var(vec![0.0, -0.0, 1.0, -0.5, 0.5, 0.25, -0.75, 0.0, 0.1]), // 0.5·max, 0.25·max, 0.75·max are entries
        var(vec![f32::NAN, 2.0, -1.0, f32::NAN, 0.0, 1.5]),
        var(vec![1.0, f32::INFINITY, -3.0, f32::NEG_INFINITY, 0.0]),
        var(vec![tiny, -tiny, f32::from_bits(1), 0.0, f32::from_bits(2)]),
        var(vec![-0.3; 40]),
        var(vec![0.7]),
        var(vec![f32::NAN]),
        var(vec![0.0; 23]),
        var(vec![-0.0; 5]),
        var(vec![f32::MAX, f32::MIN_POSITIVE, -f32::MAX, 1.0]),
    ];
    let ns = [
        0.0, 1e-9, 0.85, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.999, 100.0, 250.0,
    ];
    let p = MaxNPlanner::new(&fixed);
    for n in ns {
        same_bits(&p.select(&fixed, n), &fixed, n, "fixed");
        assert_eq!(
            p.count_for_n(n),
            reference_count(&fixed, n),
            "fixed: count_for_n({n})"
        );
    }
    // Every budget the hazard variables can be given.
    for budget in 0..=p.total_entries() + 1 {
        for min_n in [0.85, 0.01, 99.5] {
            assert_eq!(
                p.n_for_entry_budget(budget, min_n).to_bits(),
                reference_n(&fixed, budget, min_n).to_bits(),
                "fixed: budget {budget}, min N {min_n}"
            );
        }
    }

    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(8100 + case);
        let mut grads = Vec::new();
        for _ in 0..1 + rng.index(4) {
            let len = 1 + rng.index(700);
            let std = [1e-3, 1.0, 1e30][rng.index(3)];
            let mut t = Tensor::randn(Shape::d1(len), std, &mut rng);
            // Quantize some cases so magnitudes repeat and k/8·max thresholds
            // are entries; sprinkle the special values over all of them.
            let quantize = rng.index(2) == 0;
            for v in t.data_mut().iter_mut() {
                if quantize {
                    *v = (*v / std * 4.0).round() / 8.0 * std;
                }
                *v = match rng.index(40) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 if case % 7 == 0 => f32::INFINITY,
                    4 if case % 11 == 0 => f32::NEG_INFINITY,
                    _ => *v,
                };
            }
            grads.push(t);
        }
        let p = MaxNPlanner::new(&grads);
        for n in ns {
            same_bits(
                &p.select(&grads, n),
                &grads,
                n,
                &format!("case {case} select"),
            );
            let selected: usize = p.select(&grads, n).iter().map(|s| s.nnz()).sum();
            assert_eq!(p.count_for_n(n), selected, "case {case}: count_for_n({n})");
        }
        let total = p.total_entries();
        for budget in [0, 1, total / 10, total / 2, total - 1, total, total + 1] {
            assert_eq!(
                p.n_for_entry_budget(budget, 0.85).to_bits(),
                reference_n(&grads, budget, 0.85).to_bits(),
                "case {case}: n_for_entry_budget({budget})"
            );
            let want_n = reference_n(&grads, budget, 0.85);
            let (n, sel) = p.select_for_budget(&grads, budget as f64 * 8.0 + 3.0, 8.0, 0.85);
            assert_eq!(
                n.to_bits(),
                want_n.to_bits(),
                "case {case}: budget {budget}"
            );
            same_bits(&sel, &grads, n, &format!("case {case} budget {budget}"));
        }
    }

    // Heavy tails (a normal over a uniform, cubed), and runs of entries
    // equal to the thresholds of the first bisection midpoints, whichever
    // way the steps go.
    let mids = midpoints(0.85, 4);
    for case in 0..48u64 {
        let mut rng = DetRng::seed_from_u64(9100 + case);
        let mut grads = Vec::new();
        for _ in 0..1 + rng.index(4) {
            let len = 1 + rng.index(900);
            let mut v: Vec<f32> = (0..len)
                .map(|_| {
                    let x = rng.normal() / rng.uniform().max(1e-3);
                    (if case % 2 == 0 { x * x * x } else { x }) as f32
                })
                .collect();
            let max = max_of(&v);
            for _ in 0..rng.index(5) {
                let thr = threshold(max, mids[rng.index(mids.len())]);
                let at = rng.index(len);
                let run = (1 + rng.index(40)).min(len - at);
                for (j, x) in v[at..at + run].iter_mut().enumerate() {
                    *x = if j % 2 == 0 { thr } else { -thr };
                }
            }
            grads.push(Tensor::from_vec(Shape::d1(len), v));
        }
        let p = MaxNPlanner::new(&grads);
        let total = p.total_entries();
        let mut budgets = vec![0, total / 100, total / 10, total / 3, total - 1];
        budgets.extend((0..6).map(|_| rng.index(total + 1)));
        // The counts at the tied thresholds themselves, and one either side.
        for &n in &mids {
            let c = reference_count(&grads, n);
            budgets.extend([c.saturating_sub(1), c, c + 1]);
        }
        for budget in budgets {
            assert_eq!(
                p.n_for_entry_budget(budget, 0.85).to_bits(),
                reference_n(&grads, budget, 0.85).to_bits(),
                "tails/ties case {case}: budget {budget}"
            );
        }
    }

    // One gradient of more than 100k entries, heavy-tailed, beside two
    // small variables.
    let mut rng = DetRng::seed_from_u64(9900);
    let big: Vec<f32> = (0..120_000)
        .map(|_| (rng.normal() / rng.uniform().max(1e-2)) as f32)
        .collect();
    let grads = vec![
        Tensor::from_vec(Shape::d1(big.len()), big),
        Tensor::randn(Shape::d1(300), 0.01, &mut rng),
        var(vec![0.0, 1.0, -1.0, 0.5]),
    ];
    let p = MaxNPlanner::new(&grads);
    let total = p.total_entries();
    for budget in [0, total / 1000, total / 20, total / 4, total - 5] {
        let n = p.n_for_entry_budget(budget, 0.85);
        assert_eq!(
            n.to_bits(),
            reference_n(&grads, budget, 0.85).to_bits(),
            "large: budget {budget}"
        );
        same_bits(
            &p.select(&grads, n),
            &grads,
            n,
            &format!("large: budget {budget}"),
        );
    }
}

/// Bounded staleness is monotone: observing more gradients never takes
/// away permission to proceed.
#[test]
fn sync_monotonicity() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(5100 + case);
        let bound = (rng.index(10)) as u64;
        let backup = rng.index(3);
        let next_iter = (rng.index(50)) as u64;
        let n_events = rng.index(60);
        let policy = SyncPolicy::BoundedStaleness {
            bound,
            backup_workers: backup,
        };
        let mut s = SyncState::new(0, 6);
        let mut allowed = s.can_start(policy, next_iter);
        for _ in 0..n_events {
            let peer = 1 + rng.index(5);
            let iter = (rng.index(40)) as u64;
            s.on_gradient(peer, iter);
            let now_allowed = s.can_start(policy, next_iter);
            assert!(
                !allowed || now_allowed,
                "case {case}: permission must not be revoked"
            );
            allowed = now_allowed;
        }
    }
}

/// Asynchronous always proceeds; synchronous implies bounded(0,0)
/// permission implies bounded(k,b) permission.
#[test]
fn sync_policy_lattice() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(6100 + case);
        let n_events = rng.index(50);
        let next_iter = (rng.index(32)) as u64;
        let bound = (rng.index(8)) as u64;
        let backup = rng.index(3);
        let mut s = SyncState::new(0, 6);
        for _ in 0..n_events {
            let peer = 1 + rng.index(5);
            let iter = (rng.index(30)) as u64;
            s.on_gradient(peer, iter);
        }
        assert!(
            s.can_start(SyncPolicy::Asynchronous, next_iter),
            "case {case}"
        );
        if s.can_start(SyncPolicy::Synchronous, next_iter) {
            assert!(
                s.can_start(
                    SyncPolicy::BoundedStaleness {
                        bound,
                        backup_workers: backup
                    },
                    next_iter
                ),
                "case {case}: BSP permission must imply bounded permission"
            );
        }
    }
}

/// Dynamic batching weights: db_j^k * db_k^j == 1; the normalized
/// weighted factors over any LBS assignment sum to exactly -lr.
#[test]
fn db_weight_reciprocity_and_normalization() {
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(7100 + case);
        let a = 1 + rng.index(4095);
        let b = 1 + rng.index(4095);
        let k = 2 + rng.index(6);
        let lbs: Vec<usize> = (0..k).map(|_| 1 + rng.index(499)).collect();
        let ab = dynamic_batching_weight(a, b) as f64;
        let ba = dynamic_batching_weight(b, a) as f64;
        assert!((ab * ba - 1.0).abs() < 1e-4, "case {case}");
        let gbs: usize = lbs.iter().sum();
        let total: f64 = lbs
            .iter()
            .map(|&l| update_factor(0.22, lbs.len(), l, gbs, true) as f64)
            .sum();
        assert!(
            (total + 0.22).abs() < 1e-5,
            "case {case}: factors must sum to -lr: {total}"
        );
    }
}

/// Flatten a [`ScenarioPlan`] into exact bit patterns so two plans can
/// be compared byte-for-byte (f64 equality would hide NaN/-0 drift).
fn scenario_fingerprint(p: &dlion::core::scenario::ScenarioPlan) -> Vec<u64> {
    let mut out = Vec::new();
    for sched in p.capacity_factor.iter().chain(p.bandwidth_factor.iter()) {
        out.push(sched.points().len() as u64);
        for &(t, v) in sched.points() {
            out.push(t.to_bits());
            out.push(v.to_bits());
        }
    }
    for k in &p.fault.kills {
        out.push(k.worker as u64);
        out.push(k.at_iter);
        out.push(k.rejoin_after.map_or(u64::MAX, f64::to_bits));
    }
    for &(w, f) in &p.straggle {
        out.push(w as u64);
        out.push(f.to_bits());
    }
    out
}

/// The scenario generator, for *any* well-formed spec and any
/// `(n, seed, iters, horizon)`: repeat calls are byte-identical, and the
/// emitted plan is always valid — factor schedules in `(0, 1]` with
/// strictly increasing breakpoints, kills inside `[1, iters)` with at most
/// one per worker and at least one survivor, straggle factors in
/// `[1, MAX_STRAGGLE_FACTOR]`.
#[test]
fn scenario_generator_determinism_and_validity() {
    use dlion::core::scenario::{generate, ScenarioSpec, MAX_STRAGGLE_FACTOR};
    const REGIONS: [&str; 6] = ["Virginia", "Oregon", "Ireland", "Mumbai", "Seoul", "Sydney"];
    for case in 0..96u64 {
        let mut rng = DetRng::seed_from_u64(9300 + case);
        let kinds = 1 + rng.index(3);
        let mut parts = Vec::new();
        for _ in 0..kinds {
            match rng.index(4) {
                0 => parts.push(format!(
                    "diurnal:{:.1},{:.2}",
                    rng.uniform_range(60.0, 3600.0),
                    rng.uniform_range(0.05, 0.95)
                )),
                1 => {
                    let r = rng.index(REGIONS.len());
                    if rng.index(2) == 0 {
                        parts.push(format!("outage:{}", REGIONS[r]));
                    } else {
                        parts.push(format!(
                            "outage:{r}@{}+{:.0}",
                            1 + rng.index(40),
                            rng.uniform_range(5.0, 50.0)
                        ));
                    }
                }
                2 => match rng.index(3) {
                    0 => parts.push("spotstorm".into()),
                    1 => parts.push(format!("spotstorm:{}", 1 + rng.index(12))),
                    _ => parts.push(format!(
                        "spotstorm:{}@{}+{:.0}",
                        1 + rng.index(12),
                        1 + rng.index(40),
                        rng.uniform_range(5.0, 50.0)
                    )),
                },
                _ => parts.push(format!(
                    "stragglers:{},{:.2}",
                    1 + rng.index(8),
                    rng.uniform_range(1.1, 4.0)
                )),
            }
        }
        let text = parts.join("/");
        let spec =
            ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("case {case}: {text}: {e}"));
        let n = 2 + rng.index(62);
        let seed = rng.next_u64();
        let iters = rng.index(200) as u64; // includes degenerate 0/1-iteration runs
        let horizon = rng.uniform_range(10.0, 5_000.0);
        let gen = || {
            generate(&spec, n, seed, iters, horizon)
                .unwrap_or_else(|e| panic!("case {case}: {text} @ n={n} iters={iters}: {e}"))
        };
        let plan = gen();
        assert_eq!(
            scenario_fingerprint(&plan),
            scenario_fingerprint(&gen()),
            "case {case}: {text} must be deterministic"
        );

        // Validity: factor schedules.
        assert_eq!(plan.capacity_factor.len(), n, "case {case}");
        assert_eq!(plan.bandwidth_factor.len(), n, "case {case}");
        for sched in plan
            .capacity_factor
            .iter()
            .chain(plan.bandwidth_factor.iter())
        {
            let pts = sched.points();
            assert!(!pts.is_empty(), "case {case}");
            for win in pts.windows(2) {
                assert!(win[0].0 < win[1].0, "case {case}: breakpoints not sorted");
            }
            for &(t, v) in pts {
                assert!(t.is_finite() && t >= 0.0, "case {case}: bad time {t}");
                assert!(
                    v.is_finite() && v > 0.0 && v <= 1.0,
                    "case {case}: factor {v} outside (0, 1]"
                );
            }
        }

        // Validity: fault plan.
        plan.fault
            .validate(n, iters.max(2))
            .unwrap_or_else(|e| panic!("case {case}: {text}: invalid fault plan: {e}"));
        let mut killed = vec![false; n];
        for k in &plan.fault.kills {
            assert!(iters >= 2, "case {case}: kills in a {iters}-iteration run");
            assert!(k.worker < n, "case {case}");
            assert!(
                k.at_iter >= 1 && k.at_iter < iters,
                "case {case}: kill at {} outside [1, {iters})",
                k.at_iter
            );
            assert!(
                !std::mem::replace(&mut killed[k.worker], true),
                "case {case}: worker {} killed twice",
                k.worker
            );
            if let Some(r) = k.rejoin_after {
                assert!(r.is_finite() && r > 0.0, "case {case}");
            }
        }
        let permanent = plan
            .fault
            .kills
            .iter()
            .filter(|k| k.rejoin_after.is_none())
            .count();
        assert!(permanent < n, "case {case}: no survivor");

        // Validity: stragglers.
        let mut slowed = vec![false; n];
        for &(w, f) in &plan.straggle {
            assert!(w < n, "case {case}");
            assert!(
                f.is_finite() && (1.0..=MAX_STRAGGLE_FACTOR).contains(&f),
                "case {case}: straggle factor {f}"
            );
            assert!(
                !std::mem::replace(&mut slowed[w], true),
                "case {case}: worker {w} slowed twice"
            );
        }
    }
}
