//! Deterministic parallel execution for the Rumba workspace.
//!
//! Every evaluation layer in this repository (topology search, batched
//! accelerator replay, figure sweeps, dataset generation) is a map over an
//! index range. This crate parallelizes those maps on plain `std::thread`
//! workers while keeping one hard guarantee:
//!
//! > **The output is bit-for-bit identical to the serial path, for every
//! > thread count.**
//!
//! Three rules make that hold:
//!
//! 1. **Fixed chunk layout.** Work is split into chunks whose boundaries
//!    are a pure function of the item count (never of the thread count),
//!    see [`chunk_size`]. Workers claim chunks dynamically, so scheduling
//!    is nondeterministic — but *what* each chunk computes is not.
//! 2. **Ordered merge.** Per-chunk results are merged back in chunk index
//!    order, so the output vector is independent of completion order.
//! 3. **Seed-per-chunk randomness.** Work that needs randomness derives an
//!    RNG stream from an explicit `u64` seed and the chunk (or item) index
//!    via [`seed_for_chunk`] — never from shared mutable state.
//!
//! Thread count comes from, in priority order: an explicit
//! [`ThreadPool::with_threads`], the process-wide [`set_thread_override`]
//! (the CLI's `--threads` flag), the `RUMBA_THREADS` environment variable,
//! and finally [`std::thread::available_parallelism`]. The environment and
//! hardware are read once per process; the override is a relaxed load per
//! pool. A count of 1 takes the exact legacy serial path (no worker thread
//! is touched at all).
//!
//! # Workers
//!
//! Parallel maps run on one process-wide set of parked worker threads,
//! started lazily and then reused, so a map after warm-up spawns no OS
//! thread. The calling thread joins its own map: it posts the chunk-claim
//! loop, wakes at most `threads − 1` helpers, claims chunks itself, then
//! withdraws the job and waits only for helpers already inside it. A small
//! map the caller finishes before any helper wakes therefore never waits on
//! one. A map issued while the workers serve another map (from a worker, a
//! chunk, or another thread) runs the serial chunk loop inline instead, so
//! nested maps never oversubscribe the machine and never deadlock. Neither
//! path changes the chunk layout or the merge order, so neither changes a
//! bit of the output.
//!
//! # Examples
//!
//! ```
//! let squares = rumba_parallel::par_map_range(1_000, |i| i * i);
//! assert_eq!(squares[999], 999 * 999);
//!
//! let pool = rumba_parallel::ThreadPool::with_threads(4);
//! let doubled = pool.par_map_indexed(&[1, 2, 3], |_i, x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-wide thread-count override (0 = unset). Set by the CLI's
/// `--threads` flag; takes precedence over `RUMBA_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count for every subsequent pool constructed without
/// an explicit count. `None` restores environment-based selection.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Resolves the effective thread count: override, then `RUMBA_THREADS`,
/// then available parallelism (minimum 1 everywhere). The environment and
/// hardware parts are resolved on the first call and kept for the life of
/// the process; the override is read on every call.
#[must_use]
pub fn max_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    *RESOLVED.get_or_init(|| {
        let env = std::env::var("RUMBA_THREADS").ok();
        threads_from_parts(env.as_deref(), default_parallelism())
    })
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pure helper behind [`max_threads`]: parses the `RUMBA_THREADS` value,
/// falling back to `available` when absent or malformed.
#[must_use]
pub fn threads_from_parts(env: Option<&str>, available: usize) -> usize {
    match env.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => available.max(1),
    }
}

/// The chunk width used for `n` items — a pure function of `n` only, so
/// chunk boundaries (and therefore any per-chunk RNG stream) are identical
/// for every thread count.
///
/// The layout targets enough chunks for dynamic load balancing across any
/// sane worker count without drowning small workloads in scheduling
/// overhead.
#[must_use]
pub fn chunk_size(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// Mixes an explicit seed with a chunk (or item) index into an independent
/// RNG stream seed (SplitMix64 finalizer). This is the workspace contract
/// for randomness inside parallel maps: never draw from shared state.
#[must_use]
pub fn seed_for_chunk(seed: u64, chunk_index: u64) -> u64 {
    let mut z = seed ^ chunk_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Feeds one chunked-map dispatch into the telemetry registry (`pool.maps`
/// / `pool.chunks` counters, `pool.threads` gauge — surfaced as the `pool`
/// event by `rumba_obs::finish_run`). Purely observational, and skipped
/// entirely (one relaxed atomic load) when telemetry is disabled.
fn note_pool_usage(n_chunks: usize, workers: usize) {
    if rumba_obs::enabled() {
        let m = rumba_obs::metrics();
        m.inc("pool.maps");
        m.add("pool.chunks", n_chunks as u64);
        m.set_gauge("pool.threads", workers as f64);
    }
}

/// A chunk-claim loop posted to the workers, its borrow lifetime erased
/// (see the SAFETY note in [`Lease::run`]).
type Job = &'static (dyn Fn() + Sync);

/// The process-wide set of parked workers behind every parallel map.
struct Workers {
    /// Held by the one caller whose map the workers serve; a map that
    /// finds it taken runs inline.
    leased: AtomicBool,
    state: Mutex<WorkerState>,
    /// Parked workers wait here for a job.
    wake: Condvar,
    /// The caller waits here for the last helper to leave its job.
    left: Condvar,
}

struct WorkerState {
    /// The posted job; `None` once its caller has withdrawn it.
    job: Option<Job>,
    /// Helpers the posted job may still take on.
    wanted: usize,
    /// Helpers running the posted job right now.
    inside: usize,
    /// Workers started so far; they never exit.
    spawned: usize,
}

static WORKERS: Workers = Workers {
    leased: AtomicBool::new(false),
    state: Mutex::new(WorkerState { job: None, wanted: 0, inside: 0, spawned: 0 }),
    wake: Condvar::new(),
    left: Condvar::new(),
};

impl Workers {
    /// No code panics while holding the state lock (jobs run outside it and
    /// catch their own panics), and every update under it is a single
    /// field store, so a poisoned lock still guards valid state.
    fn lock(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A parked worker: joins whichever posted job still wants a helper.
fn worker_loop() {
    let mut st = WORKERS.lock();
    loop {
        match st.job {
            Some(job) if st.wanted > 0 => {
                st.wanted -= 1;
                st.inside += 1;
                drop(st);
                job();
                st = WORKERS.lock();
                st.inside -= 1;
                if st.inside == 0 {
                    WORKERS.left.notify_one();
                }
            }
            _ => st = WORKERS.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Exclusive use of the workers for one map; released on drop.
struct Lease(());

impl Lease {
    /// Takes the workers unless another map holds them.
    fn acquire() -> Option<Self> {
        WORKERS.leased.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).ok()?;
        Some(Self(()))
    }

    /// Runs `job` on the calling thread with up to `helpers` workers
    /// joining it, starting workers on first demand. `job` must claim its
    /// work until none is left, so it is correct for any number of
    /// participants. Returns once every helper has left `job`; a panic in
    /// any participant is then re-raised here, and the workers survive it.
    fn run(self, helpers: usize, job: &(dyn Fn() + Sync)) {
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let guarded = || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
        };
        let guarded: &(dyn Fn() + Sync) = &guarded;
        // SAFETY: the erased reference reaches helpers only through
        // `WorkerState::job`, which is withdrawn below before this frame
        // returns, and the return waits until `inside` is 0, so no helper
        // still runs `guarded` once `job`, `panicked` and the caller data
        // they borrow go out of scope. Nothing in between can unwind past
        // the wait: `guarded` catches every panic and the state lock
        // recovers from poison.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(guarded) };
        {
            let mut st = WORKERS.lock();
            while st.spawned < helpers && spawn_worker() {
                st.spawned += 1;
            }
            st.job = Some(erased);
            st.wanted = helpers;
        }
        for _ in 0..helpers {
            WORKERS.wake.notify_one();
        }
        guarded();
        let mut st = WORKERS.lock();
        st.job = None;
        st.wanted = 0;
        while st.inside > 0 {
            st = WORKERS.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        drop(self);
        if let Some(payload) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        WORKERS.leased.store(false, Ordering::Release);
    }
}

/// Starts one parked worker. Workers live as long as the process and hold
/// nothing between jobs, so they are never joined; a failed spawn just
/// leaves the caller more chunks to run itself.
fn spawn_worker() -> bool {
    std::thread::Builder::new().name("rumba-pool".to_owned()).spawn(worker_loop).is_ok()
}

/// A deterministic pool of `std::thread` workers.
///
/// A pool is a thread-count policy plus the chunked map primitives. The
/// worker threads are shared by every pool in the process: started on the
/// first map that needs them and parked between maps, while the calling
/// thread claims chunks alongside them. A pool is therefore trivially
/// cheap to construct and carries no shutdown obligations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadPool {
    /// A pool sized by [`max_threads`] (override → env → hardware).
    #[must_use]
    pub fn new() -> Self {
        Self { threads: max_threads() }
    }

    /// A pool with an explicit worker count (minimum 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The worker count this pool runs with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` with the item index, in parallel, returning
    /// outputs in index order. Bit-identical to
    /// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for every
    /// thread count; with 1 thread that exact serial loop *is* the
    /// implementation.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_chunked(items.len(), |_chunk, range| {
            range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
        })
    }

    /// Maps `f` over `0..n` in parallel, outputs in index order.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_map_chunked(n, |_chunk, range| range.map(&f).collect::<Vec<R>>())
    }

    /// The chunked primitive everything builds on: splits `0..n` into the
    /// fixed layout of [`chunk_size`] chunks, hands `(chunk_index, index
    /// range)` pairs to workers, and concatenates the per-chunk output
    /// vectors in chunk order.
    ///
    /// `f` must be chunk-local: its output for a chunk may depend on the
    /// chunk index (e.g. through [`seed_for_chunk`]) but not on which
    /// worker ran it or in what order. The chunk layout never depends on
    /// the thread count, so this is exactly as deterministic as running
    /// the chunks back-to-back serially — which is what a 1-thread pool
    /// does.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`, once every worker has left the map.
    pub fn par_map_chunked<R, F>(&self, n: usize, f: F) -> Vec<R::Item>
    where
        R: IntoIterator + Send,
        R::Item: Send,
        F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
    {
        let chunk = chunk_size(n);
        let n_chunks = n.div_ceil(chunk);
        let workers = self.threads.min(n_chunks.max(1));
        note_pool_usage(n_chunks, workers);

        let lease = if workers > 1 { Lease::acquire() } else { None };
        let Some(lease) = lease else {
            // Exact legacy serial path: same chunks, same order, no threads.
            let mut merged = Vec::with_capacity(n);
            for c in 0..n_chunks {
                let lo = c * chunk;
                merged.extend(f(c, lo..(lo + chunk).min(n)));
            }
            return merged;
        };

        let next = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<R::Item>)>> = Mutex::new(Vec::with_capacity(n_chunks));
        lease.run(workers - 1, &|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let lo = c * chunk;
            let out: Vec<R::Item> = f(c, lo..(lo + chunk).min(n)).into_iter().collect();
            parts.lock().expect("no chunk runs under the results lock").push((c, out));
        });

        let mut parts = parts.into_inner().expect("no chunk runs under the results lock");
        parts.sort_unstable_by_key(|&(c, _)| c);
        debug_assert_eq!(parts.len(), n_chunks);
        let mut merged = Vec::with_capacity(n);
        for (_, mut part) in parts {
            merged.append(&mut part);
        }
        merged
    }

    /// Splits a flat row-major buffer (`stride` elements per logical item)
    /// into the same fixed chunk layout as [`ThreadPool::par_map_chunked`]
    /// and hands each worker `(chunk_index, item range, mutable sub-slice)`.
    /// The side-effect counterpart of the map primitives: batched kernels
    /// write results in place instead of returning vectors.
    ///
    /// Chunks are disjoint sub-slices, so as long as `f` is chunk-local
    /// (writes only through the slice it is handed, deriving nothing from
    /// worker identity or completion order) the buffer contents are
    /// bit-identical to running the chunks serially — which is what a
    /// 1-thread pool does, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `stride` (with
    /// `stride == 0` only allowed for empty data); propagates panics from
    /// `f`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], stride: usize, f: F)
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(stride > 0, "stride must be positive for nonempty data");
        assert_eq!(data.len() % stride, 0, "data length must be a multiple of stride");
        let n = data.len() / stride;
        let chunk = chunk_size(n);
        let n_chunks = n.div_ceil(chunk);
        let workers = self.threads.min(n_chunks);
        note_pool_usage(n_chunks, workers);

        let lease = if workers > 1 { Lease::acquire() } else { None };
        let Some(lease) = lease else {
            // Exact serial path: same chunks, same order, zero allocation.
            let mut rest = data;
            for c in 0..n_chunks {
                let lo = c * chunk;
                let hi = (lo + chunk).min(n);
                let (head, tail) = rest.split_at_mut((hi - lo) * stride);
                f(c, lo..hi, head);
                rest = tail;
            }
            return;
        };

        let mut jobs: Vec<(usize, std::ops::Range<usize>, &mut [T])> = Vec::with_capacity(n_chunks);
        let mut rest = data;
        for c in 0..n_chunks {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let (head, tail) = rest.split_at_mut((hi - lo) * stride);
            jobs.push((c, lo..hi, head));
            rest = tail;
        }
        let jobs = Mutex::new(jobs);
        lease.run(workers - 1, &|| loop {
            let job = jobs.lock().expect("no chunk runs under the job lock").pop();
            match job {
                Some((c, range, slice)) => f(c, range, slice),
                None => break,
            }
        });
    }
}

/// [`ThreadPool::par_map_indexed`] on a pool sized by [`max_threads`].
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    ThreadPool::new().par_map_indexed(items, f)
}

/// [`ThreadPool::par_map_range`] on a pool sized by [`max_threads`].
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ThreadPool::new().par_map_range(n, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn serial_and_parallel_agree_on_simple_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> =
            items.iter().enumerate().map(|(i, x)| x.wrapping_mul(i as u64)).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let pool = ThreadPool::with_threads(threads);
            let par = pool.par_map_indexed(&items, |i, x| x.wrapping_mul(i as u64));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // Per-item seeded RNG work: the archetypal workload of the repo.
        let work = |i: usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed_for_chunk(42, i as u64));
            (0..50).map(|_| rng.gen::<f64>().sin()).sum()
        };
        let serial: Vec<u64> = (0..3_000).map(|i| work(i).to_bits()).collect();
        for threads in [2, 4, 7] {
            let par = ThreadPool::with_threads(threads).par_map_range(3_000, work);
            let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(par_bits, serial, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_layout_is_a_pure_function_of_n() {
        for n in [0, 1, 2, 63, 64, 65, 1_000, 65_536] {
            let a = chunk_size(n);
            let b = chunk_size(n);
            assert_eq!(a, b);
            assert!(a >= 1);
            if n > 0 {
                assert!(n.div_ceil(a) <= 64, "n = {n} makes {} chunks", n.div_ceil(a));
            }
        }
    }

    #[test]
    fn chunked_map_passes_fixed_chunk_indices() {
        // Chunk indices and ranges must tile 0..n exactly, independent of
        // thread count.
        for threads in [1, 4] {
            let pool = ThreadPool::with_threads(threads);
            let n = 1_000;
            let mut pairs = pool.par_map_chunked(n, |c, range| vec![(c, range.start, range.end)]);
            pairs.sort_unstable();
            let chunk = chunk_size(n);
            for (k, &(c, lo, hi)) in pairs.iter().enumerate() {
                assert_eq!(c, k);
                assert_eq!(lo, k * chunk);
                assert_eq!(hi, (lo + chunk).min(n));
            }
            assert_eq!(pairs.last().unwrap().2, n);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let pool = ThreadPool::with_threads(8);
        assert_eq!(pool.par_map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_range(1, |i| i), vec![0]);
        let empty: Vec<u8> = Vec::new();
        assert_eq!(pool.par_map_indexed(&empty, |_, &x| x), Vec::<u8>::new());
    }

    #[test]
    fn seed_for_chunk_separates_streams() {
        let s: Vec<u64> = (0..100).map(|c| seed_for_chunk(7, c)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len(), "chunk seeds must not collide");
        assert_ne!(seed_for_chunk(7, 0), seed_for_chunk(8, 0));
    }

    #[test]
    fn override_takes_precedence() {
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        assert_eq!(ThreadPool::new().threads(), 3);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_parts(None, 6), 6);
        assert_eq!(threads_from_parts(Some("4"), 6), 4);
        assert_eq!(threads_from_parts(Some(" 2 "), 6), 2);
        assert_eq!(threads_from_parts(Some("0"), 6), 6, "0 is invalid, fall back");
        assert_eq!(threads_from_parts(Some("lots"), 6), 6);
        assert_eq!(threads_from_parts(None, 0), 1, "minimum is always 1");
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            ThreadPool::with_threads(4).par_map_range(500, |i| {
                assert!(i != 250, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_chunks_mut_writes_are_bit_identical_across_thread_counts() {
        let stride = 3;
        let n = 500;
        let fill = |c: usize, range: std::ops::Range<usize>, slice: &mut [f64]| {
            let mut rng = StdRng::seed_from_u64(seed_for_chunk(9, c as u64));
            for (k, i) in range.enumerate() {
                for j in 0..stride {
                    slice[k * stride + j] = (i * stride + j) as f64 + rng.gen::<f64>();
                }
            }
        };
        let mut serial = vec![0.0f64; n * stride];
        ThreadPool::with_threads(1).par_chunks_mut(&mut serial, stride, fill);
        let serial_bits: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();
        for threads in [2, 4, 9] {
            let mut par = vec![0.0f64; n * stride];
            ThreadPool::with_threads(threads).par_chunks_mut(&mut par, stride, fill);
            let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(par_bits, serial_bits, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_rejects_ragged_strides() {
        let pool = ThreadPool::with_threads(4);
        let mut empty: Vec<f64> = Vec::new();
        pool.par_chunks_mut(&mut empty, 0, |_, _, _| {});
        let ragged = std::panic::catch_unwind(|| {
            let mut data = vec![0.0f64; 7];
            ThreadPool::with_threads(1).par_chunks_mut(&mut data, 2, |_, _, _| {});
        });
        assert!(ragged.is_err());
    }

    proptest! {
        #[test]
        fn par_map_is_bit_identical_to_serial_map(
            n in 0usize..2_000,
            threads in 1usize..12,
            seed in 0u64..1_000,
        ) {
            let work = |i: usize| -> f64 {
                let mut rng = StdRng::seed_from_u64(seed_for_chunk(seed, i as u64));
                rng.gen_range(-1.0e6..1.0e6)
            };
            let serial: Vec<f64> = (0..n).map(work).collect();
            let par = ThreadPool::with_threads(threads).par_map_range(n, work);
            let serial_bits: Vec<u64> = serial.iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(par_bits, serial_bits);
        }

        #[test]
        fn chunked_rng_streams_are_thread_count_invariant(
            n in 1usize..1_500,
            t1 in 1usize..10,
            t2 in 1usize..10,
            seed in 0u64..500,
        ) {
            // Chunk-level RNG (one stream per chunk, not per item): the
            // strongest form of the determinism contract.
            let work = move |c: usize, range: std::ops::Range<usize>| -> Vec<u64> {
                let mut rng = StdRng::seed_from_u64(seed_for_chunk(seed, c as u64));
                range.map(|_| rng.gen::<u64>()).collect()
            };
            let a = ThreadPool::with_threads(t1).par_map_chunked(n, work);
            let b = ThreadPool::with_threads(t2).par_map_chunked(n, work);
            prop_assert_eq!(a, b);
        }
    }
}
