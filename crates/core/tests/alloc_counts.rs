//! Host-cost pins: how many heap allocations, and how many bytes, a piece
//! of the stack makes, counted by this binary's global allocator.
//!
//! Every test holds [`LOCK`] for its whole body, so the counters see one
//! test at a time; they are process-wide, so what pool threads allocate
//! for a counted call is counted too. The test harness may still start the
//! next test's thread while a call is counted, which only ever adds
//! allocations: an exact count is the least of a few runs.

use dlion_core::messages::{GradData, WireCfg, WireFormat};
use dlion_core::rank::{Host, Input, Output, Outputs, Rank, Wait};
use dlion_core::strategy::baseline::Baseline;
use dlion_core::worker::PendingIteration;
use dlion_core::{
    build_cluster, ClusterRunner, ExchangeStrategy, GradMsg, Payload, RunConfig, StrategyCtx,
    SyncPolicy, SystemKind, Topology,
};
use dlion_microcloud::ClusterKind;
use dlion_nn::{Dataset, ModelSpec};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::{par, DetRng, Scratch, Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, counting every allocation (a `realloc` is one)
/// and the bytes it asked for, and every allocation of at least
/// [`LARGE`] bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGE_CALLS: AtomicUsize = AtomicUsize::new(0);

/// An allocation this large is a data buffer, not bookkeeping.
const LARGE: usize = 64 << 10;

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    if size >= LARGE {
        LARGE_CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static LOCK: Mutex<()> = Mutex::new(());

/// Take the binary's one lock, with the pool's threads already started
/// (their start-up allocations belong to no test).
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    par::par_map(&[(); 4], |_| ());
    guard
}

/// What `f` allocated: (calls, bytes, calls of at least [`LARGE`] bytes),
/// and its value.
fn counted<R>(f: impl FnOnce() -> R) -> ((usize, usize, usize), R) {
    let before = (
        CALLS.load(Relaxed),
        BYTES.load(Relaxed),
        LARGE_CALLS.load(Relaxed),
    );
    let value = f();
    let after = (
        CALLS.load(Relaxed),
        BYTES.load(Relaxed),
        LARGE_CALLS.load(Relaxed),
    );
    (
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        value,
    )
}

/// The fewest allocations `f` made over five runs.
fn fewest_calls<R>(f: impl Fn() -> R) -> usize {
    (0..5).map(|_| counted(&f).0 .0).min().expect("five runs")
}

fn dense_grad(entries: usize) -> Payload {
    let mut rng = DetRng::seed_from_u64(3);
    Payload::Grad(GradMsg {
        iteration: 4,
        lbs: 32,
        data: GradData::Dense(vec![Tensor::randn(Shape::d1(entries), 1.0, &mut rng)]),
        n_used: 100.0,
    })
}

#[test]
fn a_plain_frame_is_built_in_the_vec_it_is_returned_in() {
    let _one = exclusive();
    let cfg = WireCfg::default();
    for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
        let cfg = WireCfg { format, ..cfg };
        for p in [
            dense_grad(6_500),
            Payload::LossShare { avg_loss: 0.5 },
            Payload::DktRequest,
        ] {
            assert!(!p.wire_is_chunked(&cfg));
            let case = format!("{} {format:?}", p.kind());
            let calls = fewest_calls(|| p.to_wire(&cfg));
            assert_eq!(calls, 1, "{case}: one allocation, the returned Vec");
            let wire = p.to_wire(&cfg);
            assert_eq!(wire.capacity(), wire.len(), "{case}: sized exactly");
        }
    }
}

#[test]
fn a_chunked_stream_allocates_its_vec_and_one_chunk_buffer() {
    let _one = exclusive();
    let p = dense_grad(300_000);
    for format in [WireFormat::Dense, WireFormat::Fp16, WireFormat::Int8] {
        let cfg = WireCfg {
            format,
            ..WireCfg::default()
        };
        assert!(p.wire_is_chunked(&cfg));
        let calls = fewest_calls(|| p.to_wire(&cfg));
        assert_eq!(
            calls, 2,
            "{format:?}: the stream's Vec and one chunk buffer"
        );
    }
}

#[test]
fn a_large_randn_allocates_its_storage_once() {
    let _one = exclusive();
    let n = 1_310_720;
    let mut rng = DetRng::seed_from_u64(1);
    let ((_, bytes, large), t) = counted(|| Tensor::randn(Shape::d1(n), 1.0, &mut rng));
    let storage = 4 * t.numel();
    assert_eq!(large, 1, "one data buffer, no per-chunk buffers");
    assert!(
        bytes < storage + LARGE,
        "{bytes} B allocated for {storage} B of values: a second copy?"
    );
}

#[test]
fn the_synthetic_dataset_allocates_its_images_once() {
    let _one = exclusive();
    let n = 26_000;
    let ((_, bytes, large), ds) = counted(|| Dataset::synth_vision(n, 7));
    let images = 4 * n * ds.sample_shape().numel();
    let labels = std::mem::size_of::<usize>() * n;
    assert_eq!(large, 2, "the images and the labels, no per-chunk buffers");
    assert!(
        bytes < images + labels + LARGE,
        "{bytes} B allocated for {images} B of images and {labels} B of labels"
    );
}

/// Feed `rank` through a host whose answers cost nothing.
fn feed(rank: &mut Rank, input: Input, now: f64, out: &mut Outputs) {
    let mut host = Host {
        clock: now,
        bandwidth: &|_| 1000.0,
        rcp: &mut || 1.0,
        joined: &mut drop,
        recycle: &mut drop,
    };
    rank.on(input, now, &mut host, out);
}

/// A rank input that changes no decision — a delivery credit while the
/// gate stays shut — allocates nothing: the simulator's 1024 ranks pay
/// the rank layer on every event.
#[test]
fn a_rank_input_that_changes_no_decision_allocates_nothing() {
    let _one = exclusive();
    let mut cfg = RunConfig::small_test(SystemKind::Baseline);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    let init = build_cluster(&cfg, 3);
    let worker = init.workers.into_iter().next().expect("rank 0");
    let mut rank = Rank::new(worker, None, Vec::new());
    let mut out = Outputs::default();
    // Round 0 has no gate; its step, computed here, sends a gradient to
    // each peer, and round 1's gate waits for theirs.
    feed(&mut rank, Input::Wake, 0.0, &mut out);
    assert!(matches!(out.pop(), Some(Output::Step)));
    let loss = rank.worker.compute_grads(&init.data, cfg.grad_clip);
    rank.worker.pending = Some(PendingIteration::Done { loss });
    feed(&mut rank, Input::Computed, 1.0, &mut out);
    while let Some(output) = out.pop() {
        if let Output::WakeAt(t) = output {
            feed(&mut rank, Input::Wake, t, &mut out);
        }
    }
    let shut = Wait::Gate {
        round: 1,
        missing: vec![1, 2],
    };
    assert_eq!(rank.waiting_on(), Some(shut));
    let credit = |rank: &mut Rank, out: &mut Outputs| {
        counted(|| feed(rank, Input::Delivered { from: 1 }, 1.0, out))
            .0
             .0
    };
    let calls = (0..5)
        .map(|_| credit(&mut rank, &mut out))
        .min()
        .expect("five runs");
    assert_eq!(calls, 0);
    assert!(out.pop().is_none(), "the gate stays shut");
}

/// A tensor handle is a shape copied inline and a refcount bump: cloning
/// one, or building any shape, never reaches the allocator.
#[test]
fn a_tensor_clone_and_a_shape_allocate_nothing() {
    let _one = exclusive();
    let t = Tensor::zeros(Shape::d4(2, 3, 4, 5));
    assert_eq!(fewest_calls(|| t.clone()), 0, "Tensor::clone");
    let dims = [2usize, 3, 4, 5];
    let shapes: [(&str, &dyn Fn() -> Shape); 6] = [
        ("scalar", &Shape::scalar),
        ("d1", &|| Shape::d1(7)),
        ("d2", &|| Shape::d2(3, 4)),
        ("d4", &|| Shape::d4(2, 3, 4, 5)),
        ("new", &|| Shape::new(&dims)),
        ("from slice", &|| Shape::from(&dims[..3])),
    ];
    for (name, make) in shapes {
        assert_eq!(fewest_calls(make), 0, "Shape::{name}");
    }
    // `From<Vec>` frees the vec it is handed and allocates nothing more.
    let calls = fewest_calls(|| {
        let v = vec![2usize, 3];
        Shape::from(v)
    });
    assert_eq!(calls, 1, "From<Vec<usize>>: only the argument itself");
}

/// A batch drawn from a warm arena: the label `Vec` and the `Arc` around
/// the arena's buffer.
#[test]
fn a_warm_batch_allocates_its_labels_and_its_storage_handle() {
    let _one = exclusive();
    let ds = Dataset::synth_vision(64, 1);
    let mut arena = Scratch::new();
    let indices = [3, 1, 4, 1, 5];
    let calls = (0..5)
        .map(|_| {
            let ((calls, _, _), (x, _labels)) = counted(|| ds.batch_scratch(&indices, &mut arena));
            arena.put_tensor(x);
            calls
        })
        .min()
        .expect("five runs");
    assert_eq!(calls, 2);
}

/// Baseline's dense fan-out (§5.1.4: the whole gradient to every peer)
/// of a Cipher gradient to 8 peers: each peer's `Vec` of tensor handles
/// and the outer `Vec`, nothing per tensor.
#[test]
fn baseline_fans_a_cipher_gradient_out_to_8_peers_in_9_allocations() {
    let _one = exclusive();
    let mut rng = DetRng::seed_from_u64(1);
    let model = ModelSpec::Cipher.build(&Shape::d4(1, 1, 12, 12), 10, &mut rng);
    let grads: Vec<Tensor> = (0..model.num_vars())
        .map(|v| Tensor::zeros(model.var(v).shape().dims()))
        .collect();
    assert_eq!(grads.len(), 10, "Cipher's variables");
    let ctx = StrategyCtx {
        worker: 0,
        n: 9,
        iteration: 0,
        now: 0.0,
        lbs: 1,
        iter_time: 1.0,
        bw_mbps: vec![1000.0; 8],
        neighbors: (1..9).collect(),
        bytes_per_param: 4.0,
        total_params: model.num_params(),
        lr: 0.1,
    };
    let calls = fewest_calls(|| Baseline::new(5).generate_partial_gradients(&ctx, &grads, &model));
    assert_eq!(calls, 8 + 1, "one Vec per peer and the outer one");
}

/// Allocations per rank-iteration of a toy `sim_scale` cell (Baseline on
/// `kregular:8` at batch 1, 48 ranks × 3 iterations), run inside a
/// `par_map` item so every job runs inline on the counted thread: 121.7
/// (DESIGN.md §4b).
#[test]
fn a_scale_cell_stays_within_its_allocations_per_rank_iteration() {
    const N: usize = 48;
    const PER_RANK_ITERATION: usize = 122;
    let _one = exclusive();
    let mut cfg = RunConfig::paper_default(SystemKind::Baseline, ClusterKind::Cpu);
    cfg.seed = 1;
    cfg.duration = 1e9;
    cfg.eval_interval = 1e9;
    cfg.max_iters = Some(3);
    cfg.initial_lbs = 1;
    cfg.workload.train_size = 8 * N;
    cfg.workload.test_size = 16;
    cfg.eval_subset = 8;
    cfg.topology = Topology::KRegular { k: 8 };
    cfg.capture_weights = true;
    let per_run = par::par_map(&[cfg], |cfg| {
        (0..3)
            .map(|_| {
                let runner = ClusterRunner::new(
                    cfg.clone(),
                    ComputeModel::homogeneous(N, 1.0, 0.001, 0.05),
                    NetworkModel::uniform(N, 1000.0, 0.001),
                    "scale/kregular8",
                );
                let ((calls, _, _), m) = counted(|| runner.run());
                assert_eq!(m.total_iterations(), 3 * N as u64);
                calls
            })
            .min()
            .expect("three runs")
    })
    .remove(0);
    let rank_iterations = 3 * N;
    assert!(
        per_run <= PER_RANK_ITERATION * rank_iterations,
        "{per_run} allocations over {rank_iterations} rank-iterations: {:.1} each",
        per_run as f64 / rank_iterations as f64
    );
}
