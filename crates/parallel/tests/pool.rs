//! The persistent worker set behind every parallel map: bounded threads,
//! workers that survive a panicking chunk, and nested or concurrent maps
//! that stay bit-identical to the serial map.
//!
//! Every map here asks for at most 4 threads, so no map in this binary may
//! ever need more than 3 pool workers, whatever other test runs beside it.
//! The thread counts below count only the pool's own (named) workers, and
//! the thread identities only those that ran one test's chunks, so the
//! test harness's threads and the threads other tests spawn never enter
//! them.

use rumba_parallel::ThreadPool;
use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

const THREADS: usize = 4;

/// Live pool workers in this process, or `None` where `/proc` is absent.
fn pool_workers() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(Result::ok)
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "rumba-pool")
            .count(),
    )
}

fn work(i: usize) -> u64 {
    (0..50u64).fold(i as u64, |acc, k| acc.rotate_left(7) ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn serial(n: usize) -> Vec<u64> {
    (0..n).map(work).collect()
}

/// The threads that ran chunks of the maps handed to it.
#[derive(Default)]
struct Runners(Mutex<HashSet<ThreadId>>);

impl Runners {
    fn note(&self) {
        self.0.lock().expect("no test panics under this lock").insert(std::thread::current().id());
    }

    fn count(&self) -> usize {
        self.0.lock().expect("no test panics under this lock").len()
    }
}

#[test]
fn maps_after_warm_up_spawn_no_threads() {
    let pool = ThreadPool::with_threads(THREADS);
    let runners = Runners::default();
    let mapped = |i| {
        runners.note();
        work(i)
    };
    let expect = serial(256);
    assert_eq!(pool.par_map_range(256, mapped), expect);
    let after_first = pool_workers();
    let mut rows = vec![0u64; 64 * 3];
    for round in 0..1_000 {
        if round % 2 == 0 {
            assert_eq!(pool.par_map_range(256, mapped), expect);
        } else {
            pool.par_chunks_mut(&mut rows, 3, |_c, range, slice| {
                runners.note();
                for (k, i) in range.enumerate() {
                    slice[k * 3..k * 3 + 3].fill(work(i));
                }
            });
        }
    }
    // The caller plus at most one worker per extra thread ran every chunk.
    assert!(runners.count() <= THREADS, "{} threads ran chunks of 1001 maps", runners.count());
    if let (Some(first), Some(after)) = (after_first, pool_workers()) {
        assert!(after <= first + (THREADS - 1), "{first} -> {after} workers over 1000 maps");
        assert!(after < THREADS, "{after} workers for maps of at most {THREADS} threads");
    }
}

#[test]
fn a_panicking_chunk_reraises_on_the_caller_and_workers_survive() {
    let pool = ThreadPool::with_threads(THREADS);
    let runners = Runners::default();
    let mapped = |i| {
        runners.note();
        work(i)
    };
    assert_eq!(pool.par_map_range(64, mapped), serial(64));
    let before = pool_workers();
    // Every other chunk panics, and each chunk takes long enough that any
    // helper that wakes in time runs one, so a worker usually unwinds too.
    let result = std::panic::catch_unwind(|| {
        pool.par_map_chunked(64, |c, range| {
            runners.note();
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(c % 2 == 0, "chunk {c} fails on purpose");
            range.map(work).collect::<Vec<_>>()
        })
    });
    let payload = result.expect_err("the chunk panic must reach the caller");
    let message = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains("fails on purpose"), "unexpected payload {message:?}");

    assert_eq!(pool.par_map_range(1_000, mapped), serial(1_000));
    assert!(runners.count() <= THREADS, "{} threads ran chunks of 3 maps", runners.count());
    if let (Some(before), Some(after)) = (before, pool_workers()) {
        assert!(after >= before, "a worker died with its chunk: {before} -> {after}");
        assert!(after < THREADS, "{after} workers for maps of at most {THREADS} threads");
    }
}

#[test]
fn nested_maps_equal_the_serial_bits() {
    let pool = ThreadPool::with_threads(THREADS);
    let nested = pool.par_map_range(64, |i| pool.par_map_range(100 + i, work));
    let expect: Vec<Vec<u64>> = (0..64).map(|i| serial(100 + i)).collect();
    assert_eq!(nested, expect);

    let mut rows = vec![0u64; 40 * 2];
    pool.par_chunks_mut(&mut rows, 2, |_c, range, slice| {
        for (k, i) in range.enumerate() {
            let inner = pool.par_map_range(i + 1, work);
            slice[k * 2] = inner.iter().fold(0, |acc, &x| acc ^ x);
            slice[k * 2 + 1] = inner.len() as u64;
        }
    });
    for i in 0..40 {
        assert_eq!(rows[i * 2], serial(i + 1).iter().fold(0, |acc, &x| acc ^ x));
        assert_eq!(rows[i * 2 + 1], i as u64 + 1);
    }
}

#[test]
fn concurrent_maps_from_four_threads_equal_the_serial_bits() {
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let pool = ThreadPool::with_threads(THREADS);
                    let n = 2_000 + t * 37;
                    start.wait();
                    (0..50).all(|_| pool.par_map_range(n, work) == serial(n))
                })
            })
            .collect();
        for caller in callers {
            assert!(caller.join().expect("a mapping thread panicked"));
        }
    });
}
