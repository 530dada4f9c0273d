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
use dlion_core::worker::PendingIteration;
use dlion_core::{build_cluster, GradMsg, Payload, RunConfig, SyncPolicy, SystemKind};
use dlion_nn::Dataset;
use dlion_tensor::{par, DetRng, Shape, Tensor};
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
