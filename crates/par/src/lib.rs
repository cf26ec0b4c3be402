//! Deterministic data parallelism for the newsdiff workspace.
//!
//! Every hot kernel in the workspace (dense/sparse matrix products,
//! NMF multiplicative updates, Word2Vec batches, CNN layers) is
//! expressed over *row ranges*. This crate provides the one shared
//! primitive set for running those ranges across threads while
//! keeping results **bit-for-bit identical to the serial path**:
//!
//! * **Fixed chunk boundaries.** Work is split into chunks whose
//!   boundaries depend only on the problem size and the requested
//!   chunk length — never on the thread count. `NEWSDIFF_THREADS=1`
//!   and `NEWSDIFF_THREADS=32` see the same chunks.
//! * **In-order reduction.** [`par_map_reduce`] combines per-chunk
//!   results in ascending chunk order, so floating-point rounding is
//!   reproducible regardless of which thread finished first.
//! * **Serial fast path.** With one effective thread, or when the
//!   work is too small to amortise a dispatch, chunks run inline on
//!   the caller's thread through the *same* chunked code path.
//!
//! Thread count comes from the `NEWSDIFF_THREADS` environment
//! variable when set (clamped to at least 1), otherwise from
//! [`std::thread::available_parallelism`]. It is re-read on **every
//! dispatch**, so tests and long-running services can retune without
//! restarting.
//!
//! # Execution model: a persistent worker pool
//!
//! Workers live in a lazily-initialized process-wide pool (`pool`)
//! and park on per-worker `Mutex`+`Condvar` job slots between
//! dispatches. The caller participates in every dispatch as worker 0,
//! so a dispatch wakes `threads() - 1` helpers, runs the caller's own
//! share inline, then waits for the helpers on a completion latch.
//! The pool only ever grows (extra workers are masked out when
//! `NEWSDIFF_THREADS` shrinks), a dispatch costs two condvar hops per
//! helper instead of an OS thread spawn + join, and nested or
//! concurrent dispatches degrade to inline serial execution — the
//! dispatch gate is a `try_lock`, so no configuration can deadlock.
//! Panics inside a job are contained to that dispatch: the pool stays
//! usable and the panic resumes on the dispatching caller.
//!
//! See `DESIGN.md` §8 for the lifecycle, the parking protocol, the
//! determinism argument, and the `SERIAL_CUTOFF` calibration
//! methodology.

#![deny(unsafe_code)]

use std::ops::Range;

/// Work below this many "element-ops" runs serially even when more
/// threads are available; dispatching costs more than it saves.
///
/// Calibrated against the persistent pool (see
/// `calibrate_dispatch_overhead`, DESIGN.md §8.4): on the reference
/// single-core container a warm 4-way dispatch measures ≈ 7.8 µs of
/// latency (two condvar hops per helper plus scheduler round-trips)
/// and one element-op (a multiply-add reaching L1/L2) ≈ 0.94 ns, so
/// the 10%-amortisation point lands at ≈ 83k element-ops. The cutoff
/// is set to the next power-of-two-ish step above it, keeping
/// dispatch overhead ≤ ~6% at the boundary. The old value (16·1024)
/// was a guess that predates the pool: it charged `thread::scope`
/// spawn/join — two orders of magnitude costlier than a pool
/// dispatch — yet was still set far too low, so millisecond-scale
/// kernels paid spawn costs on every call.
pub const SERIAL_CUTOFF: usize = 128 * 1024;

/// Returns the effective worker count: `NEWSDIFF_THREADS` when set to
/// a positive integer, otherwise the machine's available parallelism.
///
/// Read fresh on every call so tests and long-running services can
/// retune without restarting.
pub fn threads() -> usize {
    if let Ok(s) = std::env::var("NEWSDIFF_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of persistent pool workers currently spawned (not counting
/// the caller, which participates in every dispatch as worker 0).
///
/// Grows monotonically: the pool spawns helpers on demand up to
/// `threads() - 1` per dispatch and never joins them — a smaller
/// `NEWSDIFF_THREADS` masks the extras out, it does not retire them.
/// Introspection for tests and ops; `0` until the first parallel
/// dispatch.
pub fn pool_workers() -> usize {
    pool::workers_spawned()
}

/// Splits `0..len` into chunks of `chunk_len` (last one possibly
/// short). Boundaries are a pure function of the two arguments.
pub fn chunk_ranges(len: usize, chunk_len: usize) -> Vec<Range<usize>> {
    let chunk_len = chunk_len.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk_len));
    let mut start = 0;
    while start < len {
        let end = (start + chunk_len).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Picks a chunk length that yields a few chunks per worker for load
/// balance, but never slices finer than `min_chunk` rows.
///
/// The result depends on [`threads()`], so use it **only for
/// disjoint-write kernels** ([`par_for_rows`]), where chunk layout
/// cannot affect results. Reductions ([`par_map_reduce`],
/// [`run_chunks`]) must pass a fixed chunk length instead — their
/// combination order follows chunk boundaries, and those boundaries
/// must not move with the thread count.
pub fn auto_chunk_len(len: usize, min_chunk: usize) -> usize {
    let workers = threads();
    let target_chunks = workers * 4;
    (len.div_ceil(target_chunks)).max(min_chunk.max(1))
}

/// Runs `map` over every chunk of `0..len` and combines the results
/// with `reduce` **in ascending chunk order**.
///
/// Returns `None` when `len == 0`. The serial and parallel paths
/// produce identical bits: both evaluate the same chunks and fold
/// left-to-right; threading only changes *where* each map runs.
///
/// `work_per_item` is a rough cost hint (inner-loop length) used for
/// the serial cutoff; pass `1` when unsure.
pub fn par_map_reduce<R, M, F>(
    len: usize,
    chunk_len: usize,
    work_per_item: usize,
    map: M,
    reduce: F,
) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    F: FnMut(R, R) -> R,
{
    run_chunks(len, chunk_len, work_per_item, map).into_iter().reduce(reduce)
}

/// Runs `map` over every chunk of `0..len`, returning one result per
/// chunk in ascending chunk order.
///
/// A panic inside `map` is contained to this dispatch — the pool
/// stays usable — and resumes on the calling thread once every
/// participant has finished.
pub fn run_chunks<R, M>(len: usize, chunk_len: usize, work_per_item: usize, map: M) -> Vec<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, chunk_len);
    let workers = effective_workers(len, work_per_item, ranges.len());
    if workers <= 1 {
        return ranges.into_iter().map(map).collect();
    }
    let nchunks = ranges.len();
    // One result bucket per participant; participant w writes only
    // bucket w, so the locks are never contended — they exist to keep
    // this path in safe code.
    let buckets: Vec<std::sync::Mutex<Vec<(usize, R)>>> =
        (0..workers).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    let map = &map;
    let ranges_ref = &ranges;
    let buckets_ref = &buckets;
    let task = move |w: usize| {
        // Static stride assignment: participant w owns chunks
        // w, w+W, w+2W, ... Uniform kernels balance well and the
        // assignment is a pure function of (w, W, nchunks).
        let mut local = Vec::new();
        let mut i = w;
        while i < nchunks {
            local.push((i, map(ranges_ref[i].clone())));
            i += workers;
        }
        *lock(&buckets_ref[w]) = local;
    };
    if pool::dispatch(workers, &task) == pool::Dispatch::Inline {
        // The pool gate was contended (nested or concurrent
        // dispatch): run the same chunks inline instead.
        return ranges.into_iter().map(map).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(nchunks);
    slots.resize_with(nchunks, || None);
    for bucket in buckets {
        let items = bucket.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (i, r) in items {
            slots[i] = Some(r);
        }
    }
    slots.into_iter().map(|s| s.expect("every chunk produces a result")).collect()
}

/// Runs `f` over disjoint row-blocks of `out` in parallel.
///
/// `out` is treated as a row-major matrix of `row_width` elements per
/// row; it is split at row boundaries into blocks of `rows_per_chunk`
/// rows, and `f(first_row, block)` is invoked once per block with
/// exclusive access. Writes are disjoint by construction, so results
/// never depend on scheduling.
///
/// `work_per_row` is a rough cost hint (flops per output row) used
/// for the serial cutoff; `row_width` is a reasonable lower bound.
pub fn par_for_rows<T, F>(
    out: &mut [T],
    row_width: usize,
    rows_per_chunk: usize,
    work_per_row: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let row_width = row_width.max(1);
    let rows = out.len() / row_width;
    debug_assert_eq!(out.len(), rows * row_width, "out length must be rows * row_width");
    let rows_per_chunk = rows_per_chunk.max(1);
    let nchunks = rows.div_ceil(rows_per_chunk.max(1)).max(1);
    let workers = effective_workers(rows, work_per_row, nchunks);
    if workers <= 1 {
        for (i, block) in out.chunks_mut(rows_per_chunk * row_width).enumerate() {
            f(i * rows_per_chunk, block);
        }
        return;
    }
    // Contiguous assignment: participant w takes a consecutive run of
    // blocks, keeping each worker inside one cache-friendly region.
    let blocks: Vec<(usize, &mut [T])> = out
        .chunks_mut(rows_per_chunk * row_width)
        .enumerate()
        .map(|(i, b)| (i * rows_per_chunk, b))
        .collect();
    let per_worker = blocks.len().div_ceil(workers);
    type Bucket<'a, T> = std::sync::Mutex<Vec<(usize, &'a mut [T])>>;
    let mut buckets: Vec<Bucket<'_, T>> = Vec::with_capacity(workers);
    let mut iter = blocks.into_iter();
    for _ in 0..workers {
        buckets.push(std::sync::Mutex::new(iter.by_ref().take(per_worker).collect()));
    }
    let f = &f;
    let buckets_ref = &buckets;
    let task = move |w: usize| {
        let bucket = std::mem::take(&mut *lock(&buckets_ref[w]));
        for (first_row, block) in bucket {
            f(first_row, block);
        }
    };
    if pool::dispatch(workers, &task) == pool::Dispatch::Inline {
        // Gate contended: drain the buckets inline, in ascending
        // block order (identical writes either way — blocks are
        // disjoint).
        for bucket in buckets {
            let items = bucket.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (first_row, block) in items {
                f(first_row, block);
            }
        }
    }
}

/// Decides how many workers to actually engage: 1 (serial) when the
/// total estimated work is under [`SERIAL_CUTOFF`], otherwise
/// `min(threads(), nchunks)`.
fn effective_workers(len: usize, work_per_item: usize, nchunks: usize) -> usize {
    let total_work = len.saturating_mul(work_per_item.max(1));
    if total_work < SERIAL_CUTOFF {
        return 1;
    }
    threads().min(nchunks.max(1))
}

/// Poison-recovering lock: a panic inside a job never wedges the
/// bookkeeping (the protected state is a plain value either way).
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The persistent worker pool.
///
/// Lifecycle: lazily created on the first parallel dispatch, grows on
/// demand to `threads() - 1` helpers, never shrinks, never joins —
/// helpers park on their job slot between dispatches and die with the
/// process.
///
/// Parking protocol: each helper owns a `Mutex<Option<Job>>` + a
/// `Condvar`. A dispatch takes the gate (`try_lock` — contention
/// means a dispatch is already running, so the caller degrades to
/// inline execution rather than queueing: this is what makes nested
/// dispatch from inside a pooled task deadlock-free), stores the job
/// in each engaged slot, and wakes that helper. Helpers run the job,
/// record any panic payload, and decrement a shared latch; the
/// dispatcher runs share 0 itself, then waits on the latch. Because
/// the dispatcher cannot return before the latch reaches zero, jobs
/// may borrow from the dispatcher's stack frame — that is the single
/// `unsafe` lifetime erasure below.
mod pool {
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, TryLockError};

    use crate::lock;

    /// Outcome of a dispatch attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum Dispatch {
        /// The job ran across the pool; all participants finished.
        Ran,
        /// The gate was contended (nested or concurrent dispatch):
        /// nothing ran, the caller must execute inline.
        Inline,
    }

    /// A dispatched job, shared by reference with every engaged
    /// helper. The `'static` is a lie told by `dispatch` (see the
    /// SAFETY argument there); it never outlives the dispatch.
    type Job = &'static (dyn Fn(usize) + Sync);

    /// One parked helper's mailbox.
    struct Slot {
        job: Mutex<Option<Job>>,
        ready: Condvar,
    }

    /// Completion latch + first-panic capture, shared by all helpers.
    /// One dispatch runs at a time (the gate), so a single latch
    /// serves the whole pool.
    struct DoneState {
        remaining: Mutex<usize>,
        done: Condvar,
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    struct Pool {
        /// The dispatch gate doubles as the worker list: holding it
        /// grants exclusive use of every slot and of `state`.
        gate: Mutex<Vec<Arc<Slot>>>,
        state: Arc<DoneState>,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();

    /// Runs `task(w)` for `w` in `0..participants`: share 0 on the
    /// calling thread, shares `1..participants` on pool helpers.
    /// Blocks until every participant has finished, then propagates
    /// the first panic (caller's own first), so `task` may freely
    /// borrow from the caller's frame.
    pub(crate) fn dispatch(participants: usize, task: &(dyn Fn(usize) + Sync)) -> Dispatch {
        debug_assert!(participants >= 2, "dispatch wants at least one helper");
        let pool = POOL.get_or_init(|| Pool {
            gate: Mutex::new(Vec::new()),
            state: Arc::new(DoneState {
                remaining: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
        });
        let mut slots = match pool.gate.try_lock() {
            Ok(guard) => guard,
            // Panic payloads never poison the gate (jobs run under
            // catch_unwind), but recover anyway rather than falling
            // back to permanent serial execution.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return Dispatch::Inline,
        };
        let helpers = participants - 1;
        while slots.len() < helpers {
            let slot = Arc::new(Slot { job: Mutex::new(None), ready: Condvar::new() });
            let index = slots.len() + 1; // the caller is participant 0
            let state = Arc::clone(&pool.state);
            let helper_slot = Arc::clone(&slot);
            std::thread::Builder::new()
                .name(format!("nd-par-{index}"))
                .spawn(move || helper_loop(&helper_slot, &state, index))
                .expect("nd-par: failed to spawn pool worker");
            slots.push(slot);
        }
        *lock(&pool.state.remaining) = helpers;
        *lock(&pool.state.panic) = None;
        // Erasing the lifetime is what lets a borrowed closure cross
        // into the long-lived pool threads. This function does not
        // return or unwind before `remaining` reaches zero, and each
        // helper decrements `remaining` only after its call into the
        // job has returned — so no helper can touch the job after
        // `dispatch` exits.
        // SAFETY: per the above, the pointee outlives every use.
        #[allow(unsafe_code)]
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        for slot in slots.iter().take(helpers) {
            *lock(&slot.job) = Some(job);
            slot.ready.notify_one();
        }
        // The caller is participant 0: it works instead of blocking.
        // Its own panic is caught so we still wait for the helpers —
        // they hold references into this frame and must finish before
        // it unwinds.
        let caller = catch_unwind(AssertUnwindSafe(|| task(0)));
        let mut remaining = lock(&pool.state.remaining);
        while *remaining > 0 {
            remaining = pool.state.done.wait(remaining).unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let helper_panic = lock(&pool.state.panic).take();
        drop(slots); // release the dispatch gate
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
        Dispatch::Ran
    }

    /// A pool helper: park on the slot, run the job, sign the latch,
    /// repeat forever. A panicking job is caught and recorded; the
    /// helper itself never dies.
    fn helper_loop(slot: &Slot, state: &DoneState, index: usize) {
        loop {
            let job = {
                let mut guard = lock(&slot.job);
                loop {
                    if let Some(job) = guard.take() {
                        break job;
                    }
                    guard = slot.ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(index))) {
                let mut first = lock(&state.panic);
                if first.is_none() {
                    *first = Some(payload);
                }
            }
            let mut remaining = lock(&state.remaining);
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_one();
            }
        }
    }

    pub(crate) fn workers_spawned() -> usize {
        // The gate is only held for the duration of one dispatch, so
        // a blocking lock here is fine (introspection is never called
        // from inside a pooled task).
        POOL.get().map_or(0, |p| lock(&p.gate).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that mutate `NEWSDIFF_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
        let _g = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("NEWSDIFF_THREADS", n);
        let r = f();
        std::env::remove_var("NEWSDIFF_THREADS");
        r
    }

    #[test]
    fn chunk_boundaries_are_fixed() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(3, 100), vec![0..3]);
        // Boundaries never depend on the thread count.
        let a = with_threads("1", || chunk_ranges(1000, 7));
        let b = with_threads("16", || chunk_ranges(1000, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn env_var_controls_thread_count() {
        assert_eq!(with_threads("3", threads), 3);
        assert_eq!(with_threads("0", threads), 1, "zero clamps to one");
        let _g = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::remove_var("NEWSDIFF_THREADS");
        assert!(threads() >= 1);
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // Pathological float sum where ordering matters: mixing very
        // large and very small magnitudes.
        let data: Vec<f64> =
            (0..10_000).map(|i| if i % 3 == 0 { 1e16 } else { 1.0 + i as f64 * 1e-6 }).collect();
        let sum_with = |n: &str| {
            with_threads(n, || {
                par_map_reduce(
                    data.len(),
                    128,
                    1 << 12, // pretend each item is expensive so the parallel path engages
                    |r| r.map(|i| data[i]).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
            })
        };
        let s1 = sum_with("1");
        let s2 = sum_with("2");
        let s8 = sum_with("8");
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    #[test]
    fn run_chunks_returns_results_in_chunk_order() {
        let out = with_threads("4", || run_chunks(100, 9, 1 << 16, |r| r.start));
        let expected: Vec<usize> = chunk_ranges(100, 9).into_iter().map(|r| r.start).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_for_rows_touches_every_row_exactly_once() {
        let rows = 137;
        let width = 5;
        let check = |n: &str| {
            with_threads(n, || {
                let mut out = vec![0u32; rows * width];
                // Large work hint forces the parallel path despite the
                // small buffer.
                par_for_rows(&mut out, width, 8, 1 << 20, |first_row, block| {
                    for (k, row) in block.chunks_mut(width).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first_row + k) as u32 + 1;
                        }
                    }
                });
                out
            })
        };
        let serial = check("1");
        let parallel = check("8");
        assert_eq!(serial, parallel);
        for (i, &v) in serial.iter().enumerate() {
            assert_eq!(v, (i / width) as u32 + 1, "row {} written once", i / width);
        }
    }

    #[test]
    fn small_work_stays_serial() {
        // 10 items * 1 work unit is far below SERIAL_CUTOFF; the
        // parallel machinery must not engage (observable via thread
        // ids all matching the caller).
        let caller = std::thread::current().id();
        with_threads("8", || {
            let ids = run_chunks(10, 2, 1, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn empty_input_is_fine() {
        assert_eq!(par_map_reduce(0, 8, 1, |_| 1u64, |a, b| a + b), None);
        let mut out: Vec<f64> = Vec::new();
        par_for_rows(&mut out, 4, 2, 1, |_, _| panic!("no rows, no calls"));
    }

    #[test]
    fn pool_resizes_when_env_changes_mid_process() {
        let expected: Vec<usize> = chunk_ranges(64, 4).into_iter().map(|r| r.start).collect();
        with_threads("2", || {
            assert_eq!(run_chunks(64, 4, 1 << 16, |r| r.start), expected);
        });
        // A dispatch at NEWSDIFF_THREADS=2 needs one helper.
        assert!(pool_workers() >= 1);
        with_threads("8", || {
            assert_eq!(run_chunks(64, 4, 1 << 16, |r| r.start), expected);
        });
        // The pool grew to satisfy the larger setting...
        assert!(pool_workers() >= 7, "pool grows on demand, got {}", pool_workers());
        with_threads("2", || {
            assert_eq!(run_chunks(64, 4, 1 << 16, |r| r.start), expected);
        });
        // ...and shrinking the setting masks helpers instead of
        // retiring them.
        assert!(pool_workers() >= 7, "pool never shrinks, got {}", pool_workers());
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        // A pooled task that dispatches again must not deadlock: the
        // gate is already held, so the inner call runs inline on
        // whichever participant issued it.
        let inner_expected: u64 = (0..1000u64).sum();
        let outer = with_threads("4", || {
            run_chunks(8, 1, 1 << 20, |r| {
                let inner = par_map_reduce(
                    1000,
                    64,
                    1 << 12,
                    |ir| ir.map(|i| i as u64).sum::<u64>(),
                    |a, b| a + b,
                )
                .unwrap();
                inner + r.start as u64
            })
        });
        for (i, v) in outer.iter().enumerate() {
            assert_eq!(*v, inner_expected + i as u64, "chunk {i}");
        }
    }

    #[test]
    fn panicking_job_poisons_only_that_dispatch() {
        with_threads("4", || {
            // Panic on a helper-owned chunk (stride assignment: chunk 5
            // belongs to participant 1 at 4 workers).
            let result = std::panic::catch_unwind(|| {
                run_chunks(16, 1, 1 << 20, |r| {
                    if r.start == 5 {
                        panic!("boom in chunk 5");
                    }
                    r.start
                })
            });
            assert!(result.is_err(), "helper panic must propagate to the caller");
            // Panic on the caller's own share (chunk 0 belongs to
            // participant 0).
            let result = std::panic::catch_unwind(|| {
                run_chunks(16, 1, 1 << 20, |r| {
                    if r.start == 0 {
                        panic!("boom in chunk 0");
                    }
                    r.start
                })
            });
            assert!(result.is_err(), "caller panic must propagate");
            // The pool survives both: the very next dispatch works and
            // matches the serial result.
            let v = run_chunks(16, 1, 1 << 20, |r| r.start * 3);
            let expected: Vec<usize> = (0..16).map(|i| i * 3).collect();
            assert_eq!(v, expected, "pool must stay usable after a poisoned dispatch");
        });
    }

    /// Manual `SERIAL_CUTOFF` calibration (methodology in DESIGN.md
    /// §8.4). Measures (a) the latency of an empty pool dispatch and
    /// (b) the cost of one element-op, then prints the work size at
    /// which a dispatch is amortised to 10% of total runtime. Run:
    ///
    /// ```text
    /// cargo test -p nd-par --release -- --ignored calibrate --nocapture
    /// ```
    #[test]
    #[ignore = "manual SERIAL_CUTOFF calibration; run with --ignored --nocapture"]
    fn calibrate_dispatch_overhead() {
        use std::time::Instant;
        with_threads("4", || {
            let mut buf = vec![0u8; 4];
            // Warm the pool so spawn cost is excluded.
            par_for_rows(&mut buf, 1, 1, 1 << 20, |_, _| {});
            let reps = 2_000u32;
            let t0 = Instant::now();
            for _ in 0..reps {
                par_for_rows(&mut buf, 1, 1, 1 << 20, |_, _| {});
            }
            let dispatch_ns = t0.elapsed().as_nanos() as f64 / f64::from(reps);

            // One element-op: a dependent multiply-add over a slice.
            let n = 1 << 16;
            let a: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-9).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 1e-9).collect();
            let mut acc = 0.0f64;
            let op_reps = 200u32;
            let t1 = Instant::now();
            for _ in 0..op_reps {
                acc += a.iter().zip(&b).map(|(x, y)| x * y).sum::<f64>();
            }
            let op_ns =
                t1.elapsed().as_nanos() as f64 / (f64::from(op_reps) * n as f64);
            assert!(acc.is_finite());

            let cutoff = dispatch_ns * 10.0 / op_ns;
            println!("pool dispatch latency : {dispatch_ns:>10.0} ns");
            println!("element-op cost       : {op_ns:>10.2} ns");
            println!("10%-amortised cutoff  : {cutoff:>10.0} element-ops");
            println!("current SERIAL_CUTOFF : {SERIAL_CUTOFF:>10} element-ops");
        });
    }
}
