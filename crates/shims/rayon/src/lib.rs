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
//! job into a lazily-initialized pool of parked workers. Tasks are claimed
//! dynamically with an atomic counter, so ragged task sizes and
//! `tasks < threads` balance without any static dealing; the caller
//! participates in its own job and panics from worker-executed tasks are
//! re-raised on the caller once the job has drained, matching
//! `std::thread::scope` semantics.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of runners (caller + pool workers) parallel operations will use.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Below this many items a parallel loop runs inline: waking pool workers
/// costs more than it saves.
const SPAWN_MIN: usize = 1 << 12;

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
    /// Completed-task count; guarded by a mutex so that `done == total`
    /// also publishes every task's side effects to the waiting caller.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload caught from any task, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `task` is only dereferenced for a claimed index `< total`, and the
// caller blocks until every such claim has completed (see `inject`), so the
// pointee outlives every dereference. All other fields are `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Pool {
    /// Jobs with possibly-unclaimed tasks. Finished jobs are removed by
    /// their caller.
    jobs: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
    /// Workers spawned so far; the pool grows on demand and threads park
    /// on `work_cv` between jobs.
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        jobs: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
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
    loop {
        let job = {
            let mut jobs = pool.jobs.lock().unwrap();
            loop {
                if let Some(j) = jobs
                    .iter()
                    .find(|j| j.next.load(Ordering::Relaxed) < j.total)
                {
                    break Arc::clone(j);
                }
                jobs = pool.work_cv.wait(jobs).unwrap();
            }
        };
        run_tasks(&job);
    }
}

/// Claim and execute tasks of `job` until none remain.
fn run_tasks(job: &Job) {
    loop {
        let idx = job.next.fetch_add(1, Ordering::Relaxed);
        if idx >= job.total {
            return;
        }
        // SAFETY: `idx < total`, so the injecting caller is still blocked in
        // its completion wait (it cannot observe `done == total` before the
        // increment below), which keeps the closure alive.
        let task = unsafe { &*job.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(idx))) {
            let mut slot = job.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = job.done.lock().unwrap();
        *done += 1;
        if *done == job.total {
            job.done_cv.notify_all();
        }
    }
}

/// Run `f(0..total)` with up to `helpers` pool workers assisting the
/// caller. Blocks until every task has completed; re-raises the first task
/// panic. With `helpers == 0` this is a plain sequential loop.
fn inject<F>(total: usize, helpers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if total == 0 {
        return;
    }
    if helpers == 0 || total == 1 {
        for i in 0..total {
            f(i);
        }
        return;
    }
    let pool = pool();
    ensure_workers(pool, helpers);
    let short: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: erasing the borrow's lifetime is sound because `inject` does
    // not return until `done == total`, i.e. until no execution of the
    // closure is in flight and no further dereference can happen.
    let task: TaskPtr = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(short)
    };
    let job = Arc::new(Job {
        task,
        total,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    pool.jobs.lock().unwrap().push(Arc::clone(&job));
    pool.work_cv.notify_all();
    run_tasks(&job);
    let mut done = job.done.lock().unwrap();
    while *done < job.total {
        done = job.done_cv.wait(done).unwrap();
    }
    drop(done);
    pool.jobs.lock().unwrap().retain(|j| !Arc::ptr_eq(j, &job));
    let payload = job.panic.lock().unwrap().take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
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
/// `f` sees `(chunk_index, chunk)`.
fn drive<T: Send, F>(slice: &mut [T], chunk_size: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if slice.is_empty() {
        return;
    }
    let len = slice.len();
    let n_chunks = len.div_ceil(chunk_size);
    let runners = current_num_threads().min(n_chunks);
    if runners <= 1 || len < SPAWN_MIN {
        for (i, chunk) in slice.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(slice.as_mut_ptr());
    inject(n_chunks, runners - 1, move |i| {
        let s = i * chunk_size;
        let e = (s + chunk_size).min(len);
        // SAFETY: chunks [s, e) are disjoint across task indices and lie
        // within the slice the caller exclusively borrows for the call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
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
    if tasks == 0 {
        return;
    }
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
        let len = self.slice.len();
        if len == 0 {
            return;
        }
        let per = len.div_ceil(current_num_threads()).max(1);
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
    /// Pooled dispatch with an explicit helper count, bypassing the
    /// `SPAWN_MIN` inline fallback. Used to exercise the pool on hosts
    /// where `current_num_threads() == 1`.
    pub fn run_pooled<F>(total: usize, helpers: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        super::inject(total, helpers, f);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{internals, par_partition_mut};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
}
