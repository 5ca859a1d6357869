//! Offline stand-in for `rayon`, backed by a persistent worker pool.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice-parallelism surface the kernels use:
//! `par_chunks_mut(..).for_each`, `par_chunks_mut(..).enumerate().for_each`,
//! `par_iter_mut().for_each`, [`par_partition_mut`] and
//! [`current_num_threads`].
//!
//! Like rayon (and unlike the earlier scoped-thread version of this shim,
//! which spawned fresh OS threads on every call), parallel calls inject a
//! job into a pool of parked workers, spawned once with one worker per
//! core beyond the caller's. Tasks are claimed dynamically with an atomic
//! counter, so ragged task sizes and `tasks < threads` balance without any
//! static dealing; the caller participates in its own job and panics from
//! worker-executed tasks are re-raised on the caller once the job has
//! drained, matching `std::thread::scope` semantics.
//!
//! Every thread runs its parallel calls on a **share** of the host: itself
//! plus at most `share − 1` pool workers. Outside a cluster the share is
//! every core; the SPMD cluster driver gives each of its `P` rank threads
//! [`rank_share`]`(P)`, so `P` ranks together never run more kernel threads
//! than the host has cores. At share 1 every call runs inline on the
//! calling thread: no job, no wake-up, no helper.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

/// Hardware threads available to this process, read once.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

thread_local! {
    /// This thread's share of the host; 0 means unset (every core).
    static SHARE: Cell<usize> = const { Cell::new(0) };
}

/// Number of runners (caller + pool helpers) this thread's parallel
/// operations use: its share of the host.
pub fn current_num_threads() -> usize {
    match SHARE.with(Cell::get) {
        0 => host_threads(),
        share => share,
    }
}

/// The share each of `ranks` threads gets when they run parallel kernels
/// side by side: an equal slice of the host's cores, at least one.
pub fn rank_share(ranks: usize) -> usize {
    (host_threads() / ranks.max(1)).max(1)
}

/// Run `f` with the calling thread's share set to `share` runners (at
/// least one), restoring the previous share afterwards, also on panic.
/// A share above the host's core count cuts tasks as if that many runners
/// existed but still gets only as many helpers as the pool has workers.
pub fn with_share<R>(share: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SHARE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SHARE.with(|s| s.replace(share.max(1))));
    f()
}

/// Below this many items a parallel loop runs inline: waking pool workers
/// costs more than it saves.
const SPAWN_MIN: usize = 1 << 12;

/// A chunked loop is cut into at most this many tasks per runner: enough
/// slack for dynamic balancing, few enough that claiming stays cheap.
const TASKS_PER_RUNNER: usize = 4;

pub mod prelude {
    pub use crate::ParallelSliceMut;
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// Type-erased task body: `f(task_index)`. The pointee lives on the
/// injecting caller's stack; the completion protocol in [`inject`] keeps it
/// alive for as long as any worker may dereference it.
type TaskPtr = *const (dyn Fn(usize) + Sync);

/// One injected parallel call. Shared between the caller and the workers
/// that help it via `Arc`, so stragglers holding a reference after the
/// caller returns only ever touch the atomics, never the dead closure.
struct Job {
    task: TaskPtr,
    total: usize,
    /// Next unclaimed task index (may overshoot `total`).
    next: AtomicUsize,
    /// Helpers that have joined, at most `max_helpers`; only changed under
    /// the pool's `jobs` lock.
    joined: AtomicUsize,
    max_helpers: usize,
    /// Completion book. Every runner adds its whole run at once, so a job
    /// takes O(runners) acquisitions whatever its task count, and
    /// `tasks == total` also publishes every task's side effects to the
    /// waiting caller.
    done: Mutex<Progress>,
    done_cv: Condvar,
    /// First panic payload caught from any task, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

#[derive(Default)]
struct Progress {
    /// Completed tasks.
    tasks: usize,
    /// Times the completion lock was taken, for the O(runners) check.
    locks: usize,
}

// SAFETY: `task` is only dereferenced for a claimed index `< total`, and the
// caller blocks until every such claim has completed (see `inject`), so the
// pointee outlives every dereference. All other fields are `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Whether a parked worker may join: tasks remain unclaimed and the
    /// job has room for another helper.
    fn wants_helper(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.total
            && self.joined.load(Ordering::Relaxed) < self.max_helpers
    }

    /// Claim and execute tasks until none remain, then book the whole run
    /// under one acquisition of the completion lock.
    fn run(&self) -> std::sync::MutexGuard<'_, Progress> {
        let mut ran = 0;
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total {
                break;
            }
            // SAFETY: `idx < total`, so the injecting caller is still blocked
            // in its completion wait (it cannot observe `tasks == total`
            // before this run is booked below), which keeps the closure
            // alive.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(idx))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            ran += 1;
        }
        let mut done = self.done.lock().unwrap();
        done.locks += 1;
        done.tasks += ran;
        done
    }
}

struct Pool {
    /// Jobs with possibly-unclaimed tasks. Finished jobs are removed by
    /// their caller.
    jobs: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
    /// Workers spawned so far; threads park on `work_cv` between jobs.
    spawned: Mutex<usize>,
}

/// The process-wide pool, with one worker per core beyond the caller's
/// spawned on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWN: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool {
        jobs: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        spawned: Mutex::new(0),
    });
    SPAWN.call_once(|| ensure_workers(pool, host_threads() - 1));
    pool
}

fn ensure_workers(pool: &'static Pool, want: usize) {
    let mut n = pool.spawned.lock().unwrap();
    while *n < want {
        std::thread::Builder::new()
            .name(format!("rdm-rayon-{n}"))
            .spawn(move || worker_loop(pool))
            .expect("failed to spawn pool worker");
        *n += 1;
    }
}

fn worker_loop(pool: &'static Pool) {
    // A helper's own parallel calls run inline: helpers never recruit
    // helpers, which keeps every job within its caller's share.
    SHARE.with(|s| s.set(1));
    loop {
        let job = {
            let mut jobs = pool.jobs.lock().unwrap();
            loop {
                if let Some(j) = jobs.iter().find(|j| j.wants_helper()) {
                    j.joined.fetch_add(1, Ordering::Relaxed);
                    break Arc::clone(j);
                }
                jobs = pool.work_cv.wait(jobs).unwrap();
            }
        };
        let done = job.run();
        if done.tasks == job.total {
            job.done_cv.notify_all();
        }
    }
}

/// Run `f(0..total)` with up to `helpers` pool workers assisting the
/// caller. Blocks until every task has completed; re-raises the first task
/// panic. With `helpers == 0` this is a plain sequential loop. Returns how
/// many times the job's completion lock was taken.
fn inject<F>(total: usize, helpers: usize, f: F) -> usize
where
    F: Fn(usize) + Sync,
{
    if helpers == 0 || total <= 1 {
        for i in 0..total {
            f(i);
        }
        return 0;
    }
    let pool = pool();
    let short: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: erasing the borrow's lifetime is sound because `inject` does
    // not return until `tasks == total`, i.e. until no execution of the
    // closure is in flight and no further dereference can happen.
    let task: TaskPtr = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(short)
    };
    let job = Arc::new(Job {
        task,
        total,
        next: AtomicUsize::new(0),
        joined: AtomicUsize::new(0),
        max_helpers: helpers.min(total - 1),
        done: Mutex::new(Progress::default()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    pool.jobs.lock().unwrap().push(Arc::clone(&job));
    for _ in 0..job.max_helpers {
        pool.work_cv.notify_one();
    }
    let mut done = job.run();
    while done.tasks < job.total {
        done = job.done_cv.wait(done).unwrap();
        done.locks += 1;
    }
    let locks = done.locks;
    drop(done);
    pool.jobs.lock().unwrap().retain(|j| !Arc::ptr_eq(j, &job));
    let payload = job.panic.lock().unwrap().take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
    locks
}

/// A raw base pointer that may cross threads; each task derives a disjoint
/// sub-slice from it, so aliasing rules hold.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare `*mut T` inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Public slice API
// ---------------------------------------------------------------------------

/// Entry points on mutable slices, mirroring rayon's `ParallelSliceMut` /
/// `IntoParallelRefMutIterator`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;

    /// Parallel iterator over mutable elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }

    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }
}

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

pub struct EnumeratedChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

/// Run `f` over equal-size chunks (last one ragged) on the worker pool.
/// `f` sees `(chunk_index, chunk)`. Consecutive chunks are coalesced into
/// at most [`TASKS_PER_RUNNER`] tasks per runner; each chunk is still one
/// call of `f`.
fn drive<T: Send, F>(slice: &mut [T], chunk_size: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = slice.len();
    let n_chunks = len.div_ceil(chunk_size);
    let runners = current_num_threads().min(n_chunks);
    if runners <= 1 || len < SPAWN_MIN {
        for (i, chunk) in slice.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let per_task = n_chunks.div_ceil(runners * TASKS_PER_RUNNER);
    let base = SendPtr(slice.as_mut_ptr());
    inject(n_chunks.div_ceil(per_task), runners - 1, move |t| {
        for i in t * per_task..((t + 1) * per_task).min(n_chunks) {
            let s = i * chunk_size;
            let e = (s + chunk_size).min(len);
            // SAFETY: chunks [s, e) are disjoint across chunk indices, each
            // index belongs to exactly one task, and all lie within the
            // slice the caller exclusively borrows for the call.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            f(i, chunk);
        }
    });
}

/// Run `f(i, &mut slice[bounds[i] * scale .. bounds[i + 1] * scale])` for
/// each of the `bounds.len() - 1` variable-size partitions in parallel.
///
/// This is an extension beyond rayon's slice API for pre-balanced
/// partitions (e.g. nonzero-balanced SpMM row panels, where panel `i`
/// covers rows `bounds[i]..bounds[i + 1]` of an output with `scale`
/// columns). Bounds must be non-decreasing, start at 0, and
/// `bounds.last() * scale` must equal `slice.len()`.
///
/// # Panics
/// If `bounds` is empty or violates the contract above.
pub fn par_partition_mut<T, F>(slice: &mut [T], bounds: &[usize], scale: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(!bounds.is_empty(), "need at least one partition bound");
    assert_eq!(bounds[0], 0, "partition bounds must start at 0");
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "partition bounds must be non-decreasing"
    );
    let tasks = bounds.len() - 1;
    assert_eq!(
        bounds[tasks] * scale,
        slice.len(),
        "partition must cover the whole slice"
    );
    let runners = current_num_threads().min(tasks);
    if runners <= 1 || slice.len() < SPAWN_MIN {
        for i in 0..tasks {
            let (s, e) = (bounds[i] * scale, bounds[i + 1] * scale);
            f(i, &mut slice[s..e]);
        }
        return;
    }
    let base = SendPtr(slice.as_mut_ptr());
    inject(tasks, runners - 1, move |i| {
        let (s, e) = (bounds[i] * scale, bounds[i + 1] * scale);
        // SAFETY: bounds are non-decreasing, so [s, e) ranges are disjoint
        // across task indices and within the exclusively borrowed slice.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
    });
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> EnumeratedChunksMut<'a, T> {
        EnumeratedChunksMut {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        drive(self.slice, self.chunk_size, |_, chunk| f(chunk));
    }
}

impl<T: Send> EnumeratedChunksMut<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        drive(self.slice, self.chunk_size, |i, chunk| f((i, chunk)));
    }
}

impl<T: Send> ParIterMut<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let per = self.slice.len().div_ceil(current_num_threads()).max(1);
        drive(self.slice, per, |_, chunk| {
            for v in chunk {
                f(v);
            }
        });
    }
}

/// Test hooks. Not part of the rayon-compatible surface.
#[doc(hidden)]
pub mod internals {
    /// Pooled dispatch with an explicit helper count, bypassing the share
    /// and the `SPAWN_MIN` inline fallback; the pool grows to `helpers`
    /// workers if it has fewer, so real workers take part even on a
    /// single-core host. Returns how many times the job's completion lock
    /// was taken.
    pub fn run_pooled<F>(total: usize, helpers: usize, f: F) -> usize
    where
        F: Fn(usize) + Sync,
    {
        if helpers > 0 && total > 1 {
            super::ensure_workers(super::pool(), helpers);
        }
        super::inject(total, helpers, f)
    }

    /// Pool workers spawned so far.
    pub fn workers() -> usize {
        *super::pool().spawned.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{internals, par_partition_mut, with_share};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn chunks_cover_everything_once() {
        let n = 100_000;
        let mut v = vec![0u64; n];
        v.par_chunks_mut(117).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 117 + j) as u64;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn unenumerated_chunks_and_elements() {
        let mut v = vec![1.0f32; 50_000];
        v.par_chunks_mut(64).for_each(|chunk| {
            for x in chunk {
                *x += 1.0;
            }
        });
        v.par_iter_mut().for_each(|x| *x *= 2.0);
        assert!(v.iter().all(|&x| x == 4.0));
    }

    #[test]
    fn small_slices_run_inline() {
        let mut v = vec![0u8; 10];
        v.par_iter_mut().for_each(|x| *x = 1);
        assert_eq!(v, vec![1u8; 10]);
    }

    #[test]
    fn partition_mut_applies_disjoint_ranges() {
        let mut v = vec![0u32; 6000];
        // Ragged panels, including an empty one.
        let bounds = [0usize, 7, 7, 100, 2800, 6000];
        par_partition_mut(&mut v, &bounds, 1, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i as u32 + 1;
            }
        });
        for (pos, &x) in v.iter().enumerate() {
            let want = bounds.windows(2).position(|w| w[0] <= pos && pos < w[1]);
            assert_eq!(x, want.unwrap() as u32 + 1, "element {pos}");
        }
    }

    #[test]
    fn partition_mut_scales_bounds() {
        let mut v = vec![0u32; 40];
        par_partition_mut(&mut v, &[0, 1, 4, 10], 4, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i as u32;
            }
        });
        assert!(v[..4].iter().all(|&x| x == 0));
        assert!(v[4..16].iter().all(|&x| x == 1));
        assert!(v[16..].iter().all(|&x| x == 2));
    }

    #[test]
    #[should_panic(expected = "cover the whole slice")]
    fn partition_mut_rejects_short_bounds() {
        let mut v = vec![0u32; 10];
        par_partition_mut(&mut v, &[0, 5], 1, |_, _| {});
    }

    #[test]
    fn pooled_matches_sequential_reference() {
        // Force real pool dispatch regardless of host parallelism.
        for total in [1usize, 2, 3, 7, 64, 1000] {
            for helpers in [1usize, 2, 5] {
                let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                internals::run_pooled(total, helpers, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "total={total} helpers={helpers}: some task ran zero or twice"
                );
            }
        }
    }

    #[test]
    fn pooled_panics_propagate_and_pool_survives() {
        let r = std::panic::catch_unwind(|| {
            internals::run_pooled(16, 3, |i| {
                if i == 11 {
                    panic!("task 11 exploded");
                }
            });
        });
        let payload = r.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 11 exploded");
        // The pool must still work after a panicked job.
        let count = AtomicUsize::new(0);
        internals::run_pooled(32, 3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn pooled_supports_concurrent_and_nested_callers() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let count = AtomicUsize::new(0);
                        internals::run_pooled(24, 2, |_| {
                            // Nested injection from inside a task.
                            let inner = AtomicUsize::new(0);
                            internals::run_pooled(3, 2, |_| {
                                inner.fetch_add(1, Ordering::Relaxed);
                            });
                            count.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
                        });
                        assert_eq!(count.load(Ordering::Relaxed), 72);
                    }
                });
            }
        });
    }

    /// Every thread that ran a chunk of a 200-chunk loop over 100 000
    /// elements (far above the inline threshold), under `share`.
    fn runners_of_a_loop(share: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        let mut v = vec![0u32; 100_000];
        with_share(share, || {
            v.par_chunks_mut(500).for_each(|chunk| {
                seen.lock().unwrap().insert(std::thread::current().id());
                chunk.iter_mut().for_each(|x| *x += 1);
            })
        });
        assert!(v.iter().all(|&x| x == 1));
        seen.into_inner().unwrap()
    }

    #[test]
    fn share_one_runs_every_task_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert_eq!(runners_of_a_loop(1), HashSet::from([me]));
        let mut p = vec![0u32; 10_000];
        with_share(1, || {
            par_partition_mut(&mut p, &[0, 2500, 5000, 10_000], 1, |_, _| {
                assert_eq!(std::thread::current().id(), me);
            })
        });
    }

    #[test]
    fn a_job_never_runs_more_than_its_share() {
        // Grow the pool past every share tested, so the cap, not a lack of
        // workers, is what bounds the runners.
        internals::run_pooled(8, 4, |_| {});
        for share in [2usize, 3] {
            let active = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let mut v = vec![0u8; 1 << 16];
            with_share(share, || {
                v.par_chunks_mut(64).for_each(|_| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(20));
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            });
            assert!(peak.load(Ordering::SeqCst) <= share, "share {share}");
            assert!(runners_of_a_loop(share).len() <= share, "share {share}");
        }
    }

    #[test]
    fn share_is_scoped_and_restored() {
        let outer = super::current_num_threads();
        with_share(3, || {
            assert_eq!(super::current_num_threads(), 3);
            with_share(0, || assert_eq!(super::current_num_threads(), 1));
            assert_eq!(super::current_num_threads(), 3);
        });
        assert_eq!(super::current_num_threads(), outer);
        let r = std::panic::catch_unwind(|| with_share(2, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(super::current_num_threads(), outer);
    }

    #[test]
    fn completion_locks_scale_with_runners_not_tasks() {
        for helpers in [1usize, 3] {
            let count = AtomicUsize::new(0);
            let locks = internals::run_pooled(40_000, helpers, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 40_000);
            // One booking per runner plus the caller's wake-ups.
            assert!(
                locks <= 2 * (helpers + 1),
                "{locks} completion-lock acquisitions at {helpers} helpers"
            );
        }
    }
}
