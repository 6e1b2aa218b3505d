//! Stress and soundness tests for the `qcp-xpar` fork-join pool.
//!
//! The pool is the one place in the workspace allowed to contain
//! `unsafe`; these tests hammer exactly the properties the SAFETY
//! comments in `src/lib.rs` claim: every slot written exactly once,
//! panics propagated (and the pool reusable afterwards), nested `run`
//! from inside a task not deadlocking, and high batch churn across pool
//! widths producing identical results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qcp_xpar::Pool;

#[test]
fn ten_thousand_tiny_batches_across_pool_sizes() {
    // High batch churn: the per-batch lifecycle (publish, drain, wait,
    // teardown) runs 10_000 times with tiny payloads, where lifecycle
    // bugs (use-after-drain, missed wakeups) are likeliest to surface.
    for threads in [1, 2, 4, 8] {
        let pool = Pool::new(threads);
        let counter = AtomicUsize::new(0);
        for batch in 0..10_000usize {
            let n = batch % 3; // 0, 1, 2 tasks — all edge widths
            pool.run(n, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        // sum over batches of (batch % 3): 10_000 / 3 full cycles of 0+1+2.
        let expected: usize = (0..10_000usize).map(|b| b % 3).sum();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            expected,
            "threads={threads}: every task must run exactly once"
        );
    }
}

#[test]
fn zero_and_one_task_edges() {
    let pool = Pool::new(4);
    let hits = AtomicUsize::new(0);
    pool.run(0, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 0, "n=0 must run nothing");
    pool.run(1, |i| {
        assert_eq!(i, 0);
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 1, "n=1 must run inline once");

    assert!(pool.par_map_indexed(0, |i| i).is_empty());
    assert_eq!(pool.par_map_indexed(1, |i| i + 7), vec![7]);
}

#[test]
fn caller_and_every_worker_run_tasks_at_once() {
    // Each of the three tasks waits until all three have started, so
    // they can all finish only if the caller and both workers run one
    // at the same time. A worker that kept the shared receiver locked
    // while draining its batch would hold the other worker back until
    // the deadline.
    let pool = Pool::new(2);
    let started = AtomicUsize::new(0);
    let met = AtomicUsize::new(0);
    pool.run(3, |_| {
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        if started.load(Ordering::SeqCst) == 3 {
            met.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert_eq!(
        met.load(Ordering::SeqCst),
        3,
        "tasks did not run concurrently"
    );
}

#[test]
fn nested_run_from_inside_a_task() {
    // A task that itself calls `pool.run` must complete: the caller
    // participates in draining its own batch, so inner batches cannot
    // deadlock waiting for workers occupied by the outer batch.
    let pool = Pool::new(2);
    let total = AtomicUsize::new(0);
    pool.run(4, |_| {
        pool.run(8, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(total.load(Ordering::Relaxed), 4 * 8);
}

#[test]
fn nested_par_map_composes() {
    let pool = Pool::new(4);
    let grid: Vec<Vec<usize>> =
        pool.par_map_indexed(16, |i| pool.par_map_indexed(16, move |j| i * 16 + j));
    for (i, row) in grid.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, i * 16 + j);
        }
    }
}

#[test]
fn panic_propagates_and_pool_survives() {
    let pool = Pool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(64, |i| {
            if i == 17 {
                panic!("injected failure");
            }
        });
    }));
    assert!(result.is_err(), "a task panic must reach the caller");

    // The pool must remain fully usable after a poisoned batch.
    let out = pool.par_map_indexed(1_000, |i| i * 2);
    assert_eq!(out.len(), 1_000);
    assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
}

#[test]
fn panic_in_par_map_does_not_leak_uninit_results() {
    // par_map allocates MaybeUninit slots; a panicking map function must
    // not hand back a Vec with uninitialized holes — it must panic.
    let pool = Pool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _: Vec<u64> = pool.par_map_indexed(256, |i| {
            if i == 200 {
                panic!("injected");
            }
            i as u64
        });
    }));
    assert!(result.is_err());
    // And again: usable afterwards.
    assert_eq!(pool.par_map_indexed(8, |i| i).len(), 8);
}

#[test]
fn every_slot_written_exactly_once_under_contention() {
    // Exercises the SharedSlots write-once contract with many more tasks
    // than threads and deliberately uneven task durations.
    let pool = Pool::new(8);
    let writes = AtomicUsize::new(0);
    let out = pool.par_map_indexed(50_000, |i| {
        if i % 1_000 == 0 {
            std::thread::yield_now(); // perturb scheduling
        }
        writes.fetch_add(1, Ordering::Relaxed);
        (i as u64).wrapping_mul(0x9e37_79b9)
    });
    assert_eq!(writes.load(Ordering::Relaxed), 50_000);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as u64).wrapping_mul(0x9e37_79b9));
    }
}

#[test]
fn par_chunks_mut_covers_disjoint_ranges() {
    let pool = Pool::new(4);
    for chunk in [1usize, 3, 7, 64, 1_000] {
        let mut data = vec![0u32; 1_000];
        pool.par_chunks_mut(&mut data, chunk, |c, slice| {
            let start = c * chunk; // first argument is the chunk index
            for (off, v) in slice.iter_mut().enumerate() {
                // Each element must see exactly one write with its own index.
                assert_eq!(*v, 0, "chunk={chunk}: double write at {}", start + off);
                *v = (start + off) as u32 + 1;
            }
        });
        assert!(
            data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
            "chunk={chunk}: coverage must be exact"
        );
    }
}

#[test]
fn par_reduce_matches_sequential_across_widths() {
    let items: Vec<u64> = (0..100_000).collect();
    let expected: u64 = items.iter().map(|&x| x / 3 + 1).sum();
    for threads in [1, 2, 4, 8] {
        let pool = Pool::new(threads);
        let got = pool.par_reduce(&items, 0u64, |&x| x / 3 + 1, |a, b| a + b);
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn results_identical_across_pool_widths() {
    let reference: Vec<u64> = (0..10_000u64).map(|i| i.rotate_left(13) ^ 0xabcd).collect();
    for threads in [1, 2, 3, 8, 16] {
        let pool = Pool::new(threads);
        let got = pool.par_map_indexed(10_000, |i| (i as u64).rotate_left(13) ^ 0xabcd);
        assert_eq!(got, reference, "threads={threads}");
    }
}
