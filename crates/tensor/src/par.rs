//! The repo's one task pool: jobs at the grain of a worker-iteration, an
//! experiment cell, or a fixed chunk of a run's set-up draws (no external
//! dependencies).
//!
//! One primitive: [`spawn`] queues a closure and returns its [`Job`];
//! [`Job::join`] returns the closure's value. [`par_map`] is `spawn` per
//! item, `join` in index order. Nothing below those grains goes through
//! the pool — the tensor kernels are serial (DESIGN.md §4b has the
//! measurements) — so a job is one thread's work from start to end and its
//! result cannot depend on which thread ran it. The third grain is
//! [`crate::draws`]: a synthetic dataset or a large `Tensor::randn` cut into
//! chunks that do not depend on the thread count, each started from its
//! recorded stream state, and run inline inside a job like any nested
//! spawn (`sim_paper`'s `setup_s` read 0.105 → 0.062 s).
//!
//! The rules that make it safe to join anywhere:
//! * a lazily-spawned, persistent set of `available_parallelism() - 1`
//!   threads takes queued jobs oldest first; on a single-core machine there
//!   are none and every job runs at its join;
//! * `join` never waits for a job nobody has started: it runs the job on
//!   the caller. While the job it wants is executing elsewhere it runs
//!   *other queued jobs spawned by the calling thread* (a runner waiting
//!   for worker 3's gradients computes worker 5's meanwhile) and only then
//!   sleeps;
//! * a `spawn` from inside a job is not queued at all — it runs at its
//!   `join` — so nesting cannot deadlock (a running job never waits on the
//!   pool) and a sweep of experiment cells keeps the cell as its grain;
//! * a panic inside a job is caught there and re-raised at its `join`; a
//!   `Job` dropped unjoined (the holder is unwinding) cancels the job if
//!   nobody started it and otherwise waits for it, so no job outlives its
//!   handle.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;

type Thunk<R> = Box<dyn FnOnce() -> R + Send>;
type Outcome<R> = Result<R, Box<dyn Any + Send>>;

struct Task<R> {
    /// The spawning thread: `join` only helps with jobs of its own thread.
    owner: ThreadId,
    /// Set once, by whoever gets to run (or cancel) the job.
    claimed: AtomicBool,
    thunk: Mutex<Option<Thunk<R>>>,
    outcome: Mutex<Option<Outcome<R>>>,
    done: Condvar,
}

/// What the queue and a helping joiner see of a [`Task`].
trait Runnable: Send + Sync {
    fn owner(&self) -> ThreadId;
    /// Run the job and publish its outcome, unless somebody else has
    /// claimed it; true if it ran here.
    fn run_if_unclaimed(&self) -> bool;
}

/// No lock in this file is held across a job or any other code that can
/// panic, and every guarded value is valid after each single store, so a
/// poisoned lock (unreachable) is simply entered.
fn enter<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<R> Task<R> {
    /// Win the right to run or cancel the job; false if somebody else has.
    fn claim(&self) -> bool {
        // The swap decides one thing only — who takes the job; the closure
        // and the outcome travel through their mutexes.
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    fn is_done(&self) -> bool {
        enter(&self.outcome).is_some()
    }

    /// Block until whoever claimed the job has published its outcome.
    fn wait(&self) -> Outcome<R> {
        let mut slot = enter(&self.outcome);
        loop {
            match slot.take() {
                Some(outcome) => return outcome,
                None => slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

impl<R: Send> Runnable for Task<R> {
    fn owner(&self) -> ThreadId {
        self.owner
    }

    fn run_if_unclaimed(&self) -> bool {
        if !self.claim() {
            return false;
        }
        let thunk = enter(&self.thunk).take();
        let thunk = thunk.expect("a job just claimed still holds its closure");
        let outer = IN_JOB.replace(true);
        let outcome = catch_unwind(AssertUnwindSafe(thunk));
        IN_JOB.set(outer);
        *enter(&self.outcome) = Some(outcome);
        self.done.notify_all();
        true
    }
}

struct Queue {
    jobs: VecDeque<Arc<dyn Runnable>>,
    /// Pool threads asleep on `wake` — `spawn` skips the futex call when
    /// there is nobody to wake.
    sleepers: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    threads: usize,
}

thread_local! {
    /// True while this thread executes a job (always, on a pool thread): a
    /// `spawn` from here runs at its `join`.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The pool, its threads started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                sleepers: 0,
            }),
            wake: Condvar::new(),
            threads,
        }));
        for i in 0..threads {
            // Never joined: the threads live as long as the process and
            // hold nothing but the queue. A job's panic is caught where it
            // runs, so they cannot die with a job claimed.
            std::thread::Builder::new()
                .name(format!("dlion-par-{i}"))
                .spawn(move || pool.serve())
                .expect("spawn pool thread");
        }
        pool
    })
}

impl Pool {
    fn serve(&self) -> ! {
        IN_JOB.set(true);
        loop {
            let job = {
                let mut q = enter(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    q.sleepers += 1;
                    q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                    q.sleepers -= 1;
                }
            };
            // (A joiner may have claimed it while it sat in the queue.)
            job.run_if_unclaimed();
        }
    }

    fn push(&self, job: Arc<dyn Runnable>) {
        let mut q = enter(&self.queue);
        q.jobs.push_back(job);
        if q.sleepers > 0 {
            self.wake.notify_one();
        }
    }

    /// Take the oldest queued job that thread `owner` spawned.
    fn take_one_of(&self, owner: ThreadId) -> Option<Arc<dyn Runnable>> {
        let mut q = enter(&self.queue);
        let at = q.jobs.iter().position(|j| j.owner() == owner)?;
        q.jobs.remove(at)
    }
}

/// A spawned job's handle. Dropping it unjoined cancels the job if nobody
/// has started it and waits for it otherwise.
pub struct Job<R> {
    task: Arc<Task<R>>,
    joined: bool,
}

fn spawn_boxed<R: Send + 'static>(thunk: Thunk<R>) -> Job<R> {
    let pool = pool();
    let task = Arc::new(Task {
        owner: std::thread::current().id(),
        claimed: AtomicBool::new(false),
        thunk: Mutex::new(Some(thunk)),
        outcome: Mutex::new(None),
        done: Condvar::new(),
    });
    if pool.threads > 0 && !IN_JOB.get() {
        pool.push(task.clone());
    }
    Job {
        task,
        joined: false,
    }
}

/// Hand `job` to the pool. It starts when a pool thread is free or at
/// [`Job::join`], whichever comes first; spawned from inside another job
/// (or on a single-core machine) it runs at its `join`.
pub fn spawn<R, F>(job: F) -> Job<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    spawn_boxed(Box::new(job))
}

impl<R: Send> Job<R> {
    /// The job's value, computed on the calling thread if no pool thread
    /// has started it. Re-raises the job's panic.
    pub fn join(mut self) -> R {
        self.joined = true;
        if !self.task.run_if_unclaimed() {
            // Somebody else is running it: do our own queued work
            // meanwhile rather than sleep next to it — but go back to the
            // caller, the only one who can spawn more, once it is done.
            let (pool, me) = (pool(), std::thread::current().id());
            while !self.task.is_done() {
                match pool.take_one_of(me) {
                    Some(other) => other.run_if_unclaimed(),
                    None => break,
                };
            }
        }
        match self.task.wait() {
            Ok(value) => value,
            Err(panic) => resume_unwind(panic),
        }
    }
}

impl<R> Drop for Job<R> {
    fn drop(&mut self) {
        if self.joined {
            return;
        }
        if self.task.claim() {
            // Nobody started it and now nobody will: drop the closure
            // unrun (outside the lock, like everything that runs user code).
            let unrun = enter(&self.task.thunk).take();
            drop(unrun);
        } else {
            // It is running (or done): wait, and let its value or panic go.
            drop(self.task.wait());
        }
    }
}

/// Map `f` over a slice on the pool, results in input (index) order
/// whatever the execution interleaving. The caller takes part: it runs
/// every item no pool thread got to. A panic in `f` reaches the caller
/// after the items already running have finished.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + 'static,
    F: Fn(&T) -> R + Sync,
{
    let f = &f;
    let jobs: Vec<Job<R>> = items
        .iter()
        .map(|item| {
            let thunk: Box<dyn FnOnce() -> R + Send + '_> = Box::new(move || f(item));
            // SAFETY: the transmute only erases the closure's borrow of
            // `items` and `f` to `'static`. Every `Job` made here lives in
            // `jobs`, which this function consumes by `join` or — if a
            // join unwinds — drops; both return only once the closure has
            // run to completion or been dropped unrun, so no use of the
            // borrows outlives this call. Afterwards the queue may still
            // hold the `Task`, but its closure slot is empty and its
            // outcome holds an `R: 'static`.
            let thunk: Thunk<R> = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() -> R + Send + '_>, Thunk<R>>(thunk)
            };
            spawn_boxed(thunk)
        })
        .collect();
    jobs.into_iter().map(Job::join).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn ran_on() -> Option<String> {
        std::thread::current().name().map(str::to_string)
    }

    #[test]
    fn result_is_the_same_whoever_runs_the_job() {
        let work = |seed: u64| move || (0..1000u64).fold(seed, |h, i| h.rotate_left(5) ^ i);
        let expect = work(7)();
        // Run by the caller: a job spawned inside a job is never queued.
        let (by_caller, who) = spawn(move || {
            let inner = spawn(move || (work(7)(), ran_on()));
            let me = ran_on();
            let (v, who) = inner.join();
            (v, who == me)
        })
        .join();
        assert!(who, "a nested job runs on its joiner");
        assert_eq!(by_caller, expect);
        // Run by a pool thread: wait until one reports it has started.
        if pool().threads > 0 {
            let (started, wait) = mpsc::channel();
            let job = spawn(move || {
                started.send(ran_on()).expect("the test is waiting");
                work(7)()
            });
            let who = wait.recv().expect("a pool thread takes the job");
            assert!(who.is_some_and(|n| n.starts_with("dlion-par-")));
            assert_eq!(job.join(), expect);
        }
    }

    #[test]
    fn spawn_inside_a_job_runs_at_its_join() {
        let (tx, rx) = mpsc::channel();
        let outer = spawn(move || {
            let tx2 = tx.clone();
            let inner = spawn(move || tx2.send("inner").expect("receiver alive"));
            tx.send("outer").expect("receiver alive");
            inner.join();
        });
        outer.join();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec!["outer", "inner"]);
    }

    #[test]
    fn ten_thousand_tiny_jobs_joined_in_reverse_terminate() {
        let jobs: Vec<Job<usize>> = (0..10_000).map(|i| spawn(move || i * 2)).collect();
        for (i, job) in jobs.into_iter().enumerate().rev() {
            assert_eq!(job.join(), i * 2);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<usize> = (0..2048).collect();
        let ys = par_map(&xs, |&x| x * x);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, i * i);
        }
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, |_| 0u8).is_empty());
    }

    /// What `par_chunks_mut_matches_serial` pinned, on spawn/join: chunked
    /// work fanned over the pool lands where the serial loop puts it.
    #[test]
    fn chunked_work_over_par_map_matches_serial() {
        let src: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let step = |ci: usize, chunk: &[f32]| -> Vec<f32> {
            let at = |j: usize| (ci * 37 + j) as f32;
            chunk
                .iter()
                .enumerate()
                .map(|(j, v)| v * 2.0 + at(j))
                .collect()
        };
        let chunks: Vec<(usize, &[f32])> = src.chunks(37).enumerate().collect();
        let a: Vec<f32> = par_map(&chunks, |&(ci, c)| step(ci, c)).concat();
        let b: Vec<f32> = chunks.iter().flat_map(|&(ci, c)| step(ci, c)).collect();
        assert_eq!(a, b);
    }

    /// What `nested_run_falls_back_to_serial` pinned: a fan-out inside a
    /// fan-out completes, every inner item exactly once.
    #[test]
    fn nested_par_map_runs_inline() {
        let outer: Vec<usize> = (0..8).collect();
        let sums = par_map(&outer, |&o| {
            let inner: Vec<usize> = (0..8).collect();
            par_map(&inner, |&i| o * 8 + i).into_iter().sum::<usize>()
        });
        assert_eq!(sums.iter().sum::<usize>(), (0..64).sum());
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_survives() {
        let xs: Vec<usize> = (0..8).collect();
        let caught = catch_unwind(|| {
            par_map(&xs, |&x| {
                assert!(x != 5, "item five fails");
                x
            })
        });
        let panic = caught.expect_err("the panic must reach the caller");
        let text = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert!(text.is_some_and(|t| t.contains("item five fails")));
        assert_eq!(par_map(&xs, |&x| x + 1), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn a_dropped_job_no_longer_holds_its_closure() {
        let held = Arc::new(());
        let in_job = held.clone();
        drop(spawn(move || drop(in_job)));
        // Cancelled unrun, or run to completion before `drop` returned:
        // the closure and what it captured are gone either way.
        assert_eq!(Arc::strong_count(&held), 1);
    }
}
