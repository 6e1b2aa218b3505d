//! `qcp-xpar` — a minimal fork-join data-parallel executor.
//!
//! The reproduction's heavy loops — flood-simulation trial sweeps, interval
//! scans over week-long query traces, per-object replica placement — are
//! embarrassingly parallel over an index range. This crate provides exactly
//! that shape, in the spirit of Rayon's `par_iter` (see the repo's coding
//! guides) but implemented from scratch on `std` alone: an
//! [`mpsc`](std::sync::mpsc) channel for job dispatch, a
//! [`Mutex`]/[`Condvar`] pair for completion signalling, and atomics for
//! index stealing.
//!
//! Design:
//!
//! * A [`Pool`] owns N worker threads that take turns receiving *batch*
//!   handles from one channel, whose receiver they share behind a mutex.
//!   A worker holds that mutex only while it waits for the next handle.
//! * Executing `pool.run(n, f)` publishes one batch; the calling thread and
//!   every worker repeatedly claim task indices from a shared
//!   `AtomicUsize` until the range is drained (grain-free dynamic
//!   scheduling; callers pick grain by chunking indices themselves or via
//!   [`Pool::par_map`]'s automatic chunking).
//! * The caller participates in execution, so the pool cannot deadlock even
//!   under nested `run` calls: the inner call's caller drains its own batch.
//! * Worker panics are caught, recorded, and re-raised on the calling
//!   thread after the batch drains. No task runs while a lock is held, so
//!   the locks cannot be poisoned by a task; the pool still recovers a
//!   poisoned guard with [`PoisonError::into_inner`] rather than panic.
//!
//! ```
//! let pool = qcp_xpar::Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Type-erased batch of `n` indexed tasks.
struct Batch {
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of tasks.
    n: usize,
    /// Number of participants (caller + workers) still inside `drain`.
    active: AtomicUsize,
    /// Set if any task panicked.
    poisoned: AtomicBool,
    /// Completion signalling for the caller.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// The task body. `'static` by construction in [`Pool::run`], where the
    /// caller blocks until the batch fully drains before the borrow ends.
    task: Box<dyn Fn(usize) + Send + Sync + 'static>,
}

impl Batch {
    /// Claims and runs tasks until the index range is exhausted.
    /// Returns `true` if this participant observed a task panic.
    fn drain(&self) -> bool {
        let mut saw_panic = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
            if result.is_err() {
                self.poisoned.store(true, Ordering::Release);
                saw_panic = true;
            }
        }
        saw_panic
    }

    fn enter(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    fn exit(&self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock(&self.done_lock);
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let guard = lock(&self.done_lock);
        let _guard = self
            .done_cv
            .wait_while(guard, |_| self.active.load(Ordering::Acquire) != 0)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fork-join thread pool.
///
/// Dropping the pool shuts down its workers. Prefer [`Pool::global`] for
/// library code: one process-wide pool avoids oversubscription.
pub struct Pool {
    sender: Sender<Arc<Batch>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<Arc<Batch>>>>) {
    loop {
        // A `let` statement drops the receiver's guard before the batch
        // runs; in a `while let` scrutinee it would live through the body
        // and serialize the workers.
        let next = lock(&rx).recv();
        // Receiving fails only when the pool (the sender) is dropped.
        let Ok(batch) = next else { break };
        batch.enter();
        batch.drain();
        batch.exit();
    }
}

impl Pool {
    /// Creates a pool with `threads` worker threads (0 is promoted to 1;
    /// the *calling* thread always participates too, so `Pool::new(1)` uses
    /// up to two threads of compute during `run`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Arc<Batch>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("qcp-xpar-{i}"))
                    .spawn(move || worker_loop(rx))
                    // qcplint: allow(panic) — pool construction happens once
                    // at startup; failing to spawn a worker is unrecoverable.
                    .expect("failed to spawn xpar worker")
            })
            .collect();
        Self { sender, workers }
    }

    /// The process-wide shared pool, sized to the available parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            Pool::new(n)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(0..n)` across the pool, blocking until every task completes.
    ///
    /// Panics (after draining the batch) if any task panicked.
    pub fn run<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if n == 0 {
            return;
        }
        if n == 1 {
            f(0);
            return;
        }
        let task: Box<dyn Fn(usize) + Send + Sync> = Box::new(f);
        // SAFETY: the closure (and everything it borrows) outlives the
        // batch because this function does not return until `active == 0`
        // and the batch's task pointer is never invoked after that: workers
        // `enter()` before their first claim, and a worker that receives
        // the Arc after drain-complete claims an index >= n and exits
        // immediately without touching borrowed state.
        let task: Box<dyn Fn(usize) + Send + Sync + 'static> = unsafe { std::mem::transmute(task) };
        let batch = Arc::new(Batch {
            next: AtomicUsize::new(0),
            n,
            active: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            task,
        });
        // The caller registers as a participant *before* publishing so the
        // batch can never be observed complete before the caller drains.
        batch.enter();
        for _ in 0..self.workers.len() {
            // Send one handle per worker; extra handles after completion
            // are cheap no-ops.
            let _ = self.sender.send(Arc::clone(&batch));
        }
        batch.drain();
        batch.exit();
        batch.wait();
        if batch.poisoned.load(Ordering::Acquire) {
            // qcplint: allow(panic) — deliberate panic *propagation*: a
            // worker's task panicked and the failure must surface on the
            // caller's thread, matching rayon's join semantics.
            panic!("qcp-xpar: a parallel task panicked");
        }
    }

    /// Parallel map over a slice, preserving order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Send + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Parallel map over an index range, preserving order.
    ///
    /// This is the workhorse for seeded trial sweeps:
    /// `pool.par_map_indexed(trials, |t| simulate(child_seed(seed, t)))`.
    pub fn par_map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Send + Sync,
    {
        let mut out: Vec<std::mem::MaybeUninit<U>> = Vec::with_capacity(n);
        // SAFETY: every slot in 0..n is written exactly once below before
        // the `set_len`; `run` panics (and leaks the uninit buffer contents,
        // which is safe) if any task failed to complete.
        #[allow(clippy::uninit_vec)]
        unsafe {
            out.set_len(n);
        }
        let slots = SharedSlots(out.as_mut_ptr());
        let chunk = chunk_size(n, self.threads());
        let chunks = n.div_ceil(chunk.max(1)).max(1);
        self.run(chunks, |c| {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            for i in start..end {
                let value = f(i);
                // SAFETY: disjoint chunks; each i written exactly once.
                unsafe { slots.write(i, value) };
            }
        });
        // SAFETY: all n slots initialized by the completed batch.
        unsafe { std::mem::transmute::<Vec<std::mem::MaybeUninit<U>>, Vec<U>>(out) }
    }

    /// Parallel for-each over a slice.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Send + Sync,
    {
        let n = items.len();
        let chunk = chunk_size(n, self.threads());
        let chunks = n.div_ceil(chunk.max(1)).max(1);
        if n == 0 {
            return;
        }
        self.run(chunks, |c| {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            for item in &items[start..end] {
                f(item);
            }
        });
    }

    /// Parallel in-place transform over disjoint mutable chunks.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let n = items.len();
        if n == 0 {
            return;
        }
        let chunks = n.div_ceil(chunk);
        let base = SharedMutPtr(items.as_mut_ptr());
        self.run(chunks, |c| {
            let start = c * chunk;
            let len = chunk.min(n - start);
            // SAFETY: chunks [start, start+len) are pairwise disjoint and
            // in-bounds; the borrow of `items` outlives `run`.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
            f(c, slice);
        });
    }

    /// Parallel map-reduce: maps each element, then folds the mapped values
    /// with `reduce` starting from `identity`.
    ///
    /// `reduce` must be associative and `identity` its neutral element for
    /// the result to be deterministic (chunk-internal order is preserved;
    /// chunks are combined in index order).
    pub fn par_reduce<T, U, M, R>(&self, items: &[T], identity: U, map: M, reduce: R) -> U
    where
        T: Sync,
        U: Send + Sync + Clone,
        M: Fn(&T) -> U + Send + Sync,
        R: Fn(U, U) -> U + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return identity;
        }
        let chunk = chunk_size(n, self.threads());
        let chunks = n.div_ceil(chunk.max(1)).max(1);
        let partials = self.par_map_indexed(chunks, |c| {
            let start = c * chunk;
            let end = (start + chunk).min(n);
            let mut acc = identity.clone();
            for item in &items[start..end] {
                acc = reduce(acc, map(item));
            }
            acc
        });
        partials.into_iter().fold(identity, reduce)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channel wakes all workers with Err.
        let (dead_tx, _) = channel();
        self.sender = dead_tx;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Picks a chunk size giving each thread ~4 chunks for load balance while
/// avoiding tiny tasks.
fn chunk_size(n: usize, threads: usize) -> usize {
    let target = threads.max(1) * 4;
    n.div_ceil(target).max(1)
}

struct SharedSlots<U>(*mut std::mem::MaybeUninit<U>);
// SAFETY: `SharedSlots` is a write-only view into a `MaybeUninit` buffer
// owned by `par_map_indexed`, which outlives every worker's use of it (the
// batch barrier in `Pool::run` guarantees all writes complete before the
// buffer is read). Each index is written by exactly one task, so sending
// the pointer to another thread cannot create an aliased write; `U: Send`
// ensures the written values may themselves cross threads.
unsafe impl<U: Send> Send for SharedSlots<U> {}
// SAFETY: shared access only permits `write(i, ..)`, and the caller
// contract (one writer per index, enforced by the batch's atomic index
// claim) means concurrent `&SharedSlots` use never aliases a slot.
unsafe impl<U: Send> Sync for SharedSlots<U> {}
impl<U> SharedSlots<U> {
    /// # Safety
    /// `i` must be in bounds and written at most once across all threads.
    unsafe fn write(&self, i: usize, value: U) {
        // SAFETY: caller upholds the `# Safety` contract above — `i` is in
        // bounds of the allocation and no other thread writes this slot.
        unsafe { (*self.0.add(i)).write(value) };
    }
}

struct SharedMutPtr<T>(*mut T);
// SAFETY: the pointer originates from a `&mut [T]` held exclusively by
// `par_chunks_mut` for the duration of the batch; tasks reconstruct
// *disjoint* chunk slices from it, so moving the wrapper to worker
// threads transfers no aliased access. `T: Send` bounds the element type.
unsafe impl<T: Send> Send for SharedMutPtr<T> {}
// SAFETY: sharing `&SharedMutPtr` only exposes `get()`; the chunk
// arithmetic in `par_chunks_mut` (one task per disjoint `[start, end)`
// range) guarantees no two threads dereference overlapping regions.
unsafe impl<T: Send> Sync for SharedMutPtr<T> {}
impl<T> SharedMutPtr<T> {
    /// Accessor (rather than direct field use) so edition-2021 closures
    /// capture the whole `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_sequential() {
        let pool = Pool::new(4);
        let data: Vec<u64> = (0..10_000).collect();
        let par = pool.par_map(&data, |&x| x * 3 + 1);
        let seq: Vec<u64> = data.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::new(2);
        let empty: Vec<u32> = pool.par_map(&[] as &[u32], |&x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_indexed_order_preserved() {
        let pool = Pool::new(8);
        let out = pool.par_map_indexed(1000, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_for_each_visits_everything_once() {
        let pool = Pool::new(4);
        let counters: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        let idx: Vec<usize> = (0..5000).collect();
        pool.par_for_each(&idx, |&i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_transforms_in_place() {
        let pool = Pool::new(4);
        let mut data: Vec<u64> = (0..1003).collect();
        pool.par_chunks_mut(&mut data, 17, |_, chunk| {
            for v in chunk {
                *v *= 2;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn par_reduce_sums_correctly() {
        let pool = Pool::new(4);
        let data: Vec<u64> = (1..=10_000).collect();
        let sum = pool.par_reduce(&data, 0u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 10_000 * 10_001 / 2);
    }

    #[test]
    fn par_reduce_empty_returns_identity() {
        let pool = Pool::new(2);
        let sum = pool.par_reduce(&[] as &[u64], 42u64, |&x| x, |a, b| a + b);
        assert_eq!(sum, 42);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicU64::new(0);
        pool.run(4, |_| {
            pool.run(8, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let v = pool.par_map_indexed(10, |i| i);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(3);
        let out = pool.par_map_indexed(100, |i| i + 1);
        assert_eq!(out[99], 100);
        drop(pool); // must not hang
    }

    #[test]
    fn heavy_uneven_tasks_balance() {
        let pool = Pool::new(4);
        // Tasks with wildly different costs; correctness is what we assert.
        let out = pool.par_map_indexed(64, |i| {
            let mut acc = 0u64;
            let iters = if i % 8 == 0 { 200_000 } else { 10 };
            for k in 0..iters {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
