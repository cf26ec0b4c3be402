//! Request micro-batching with bounded-queue backpressure.
//!
//! Concurrent `/predict` requests land in one bounded queue; worker
//! threads coalesce them into a single forward pass. A worker sleeps
//! only until the queue is non-empty, then takes the front run of
//! same-model jobs (up to [`BatchConfig::max_batch`] rows) and runs it
//! at once. Jobs that arrive during a pass queue up and share the next
//! one, so coalescing comes from load, not from a timer: an idle
//! server answers a lone request without delay, and a busy one fills
//! its passes. Batching is a throughput trade: one matmul over 64 rows
//! amortizes per-pass overhead that 64 single-row passes each pay in
//! full.
//!
//! A row's scores stay bit-identical across passes only while every
//! pass it could run in takes the same GEMM kernel (see
//! `Network::predict_batch`). That holds at any pass size when no
//! Dense layer's input is wider than `gemm::KC` = 256. A wider layer
//! rounds a pass small enough for the naive kernel (m·n·k ≤ 64³)
//! differently from a packed one: for the 308-wide MLP and CNN,
//! passes of 1–6 rows differ from passes of 7 or more, so an 8-row
//! request gets the same bits alone or coalesced and a single row
//! does not.
//!
//! The queue is bounded in *rows*, not requests, so a single 256-row
//! batch request counts like 256 singles. When admission would exceed
//! the bound, [`Batcher::submit`] refuses immediately and the caller
//! turns that into `503 Retry-After` — load sheds at the front door
//! instead of accumulating latency (or memory) inside. A job larger
//! than the whole bound can never be admitted and is refused as
//! [`SubmitError::TooLarge`] instead, so no client retries it.

use crate::metrics::Metrics;
use crate::registry::ModelHandle;
use crate::ServeError;
use nd_linalg::Mat;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most rows coalesced into one forward pass. A pass takes what
    /// is queued when a worker frees up, up to this many rows; it
    /// never waits for more.
    pub max_batch: usize,
    /// Admission bound: queued rows beyond this are rejected.
    pub queue_capacity: usize,
    /// Worker threads running forward passes.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            queue_capacity: 1024,
            workers: 2,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; retry after backoff.
    Overloaded {
        /// Rows currently queued.
        queued_rows: usize,
    },
    /// The job alone holds more rows than the queue admits at all;
    /// retrying cannot help.
    TooLarge {
        /// Rows in the refused job.
        rows: usize,
        /// The queue's admission bound, in rows.
        capacity: usize,
    },
    /// The batcher is draining for shutdown.
    ShuttingDown,
}

struct Job {
    handle: Arc<ModelHandle>,
    rows: Vec<Vec<f64>>,
    tx: Sender<Vec<Vec<f64>>>,
}

struct State {
    queue: VecDeque<Job>,
    queued_rows: usize,
    open: bool,
}

/// The shared queue plus its worker pool.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

struct Inner {
    state: Mutex<State>,
    cond: Condvar,
    config: BatchConfig,
    metrics: Arc<Metrics>,
    completed: AtomicU64,
    /// [`fold_pass_rate`]'s EWMA of one worker's rows per second, as
    /// `f64` bits; 0 until the first pass.
    pass_rate: AtomicU64,
}

impl Batcher {
    /// Starts the worker pool. Fails only when the OS refuses to
    /// spawn threads.
    pub fn start(config: BatchConfig, metrics: Arc<Metrics>) -> Result<Batcher, ServeError> {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queue: VecDeque::new(), queued_rows: 0, open: true }),
            cond: Condvar::new(),
            config,
            metrics,
            completed: AtomicU64::new(0),
            pass_rate: AtomicU64::new(0),
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nd-serve-batch-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .map_err(ServeError::Io)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Batcher { inner, workers: Mutex::new(workers) })
    }

    /// Queues `rows` for prediction on `handle`'s model version. The
    /// returned channel yields one output row per input row, in
    /// order, as `handle.network.predict_batch` computes them in the
    /// pass the job is coalesced into; its doc states when the pass
    /// size can change a row's bits.
    pub fn submit(
        &self,
        handle: Arc<ModelHandle>,
        rows: Vec<Vec<f64>>,
    ) -> Result<Receiver<Vec<Vec<f64>>>, SubmitError> {
        // Poison recovery everywhere a lock is taken: a panicking
        // worker must degrade one response, not wedge the service
        // behind a poisoned mutex. The queue state stays consistent
        // because every mutation in `admit` is a single non-panicking
        // step.
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let rx = self.inner.admit(&mut state, handle, rows)?;
        drop(state);
        self.inner.cond.notify_one();
        Ok(rx)
    }

    /// Rows currently waiting (for the `/metrics` gauge).
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner).queued_rows
    }

    /// Rows whose forward pass has finished since startup (for the
    /// `/metrics` counter).
    pub fn completed_rows(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Rows per second the workers drain together while busy: the
    /// per-pass EWMA times the worker count. Idle time is no input, so
    /// a quiet spell leaves the estimate where the last passes put it.
    /// 0 before the first pass.
    pub(crate) fn drain_rate(&self) -> f64 {
        let per_worker = f64::from_bits(self.inner.pass_rate.load(Ordering::Relaxed));
        per_worker * self.inner.config.workers.max(1) as f64
    }

    /// Closes admission, runs every queued job to completion, and
    /// joins the workers. Nothing already accepted is dropped.
    /// Idempotent: later calls are no-ops.
    pub fn drain(&self) {
        {
            let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.open = false;
        }
        self.inner.cond.notify_all();
        // Take the handles under the lock, join outside it: joining
        // while holding `workers` would block any concurrent drain()
        // caller for the full flush instead of letting it observe the
        // already-emptied list and return.
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for worker in workers {
            // nd-lint: allow(result-dropped) — join only errs if the worker panicked; drain is teardown
            let _ = worker.join();
        }
    }
}

impl Inner {
    /// Queues one job under the caller's hold of the state lock, or
    /// says why it is refused. The caller wakes a worker once it
    /// releases the lock.
    fn admit(
        &self,
        state: &mut State,
        handle: Arc<ModelHandle>,
        rows: Vec<Vec<f64>>,
    ) -> Result<Receiver<Vec<Vec<f64>>>, SubmitError> {
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        let capacity = self.config.queue_capacity;
        if rows.len() > capacity {
            return Err(SubmitError::TooLarge { rows: rows.len(), capacity });
        }
        if state.queued_rows + rows.len() > capacity {
            self.metrics.overload_rejections.inc();
            return Err(SubmitError::Overloaded { queued_rows: state.queued_rows });
        }
        let (tx, rx) = mpsc::channel();
        state.queued_rows += rows.len();
        state.queue.push_back(Job { handle, rows, tx });
        Ok(rx)
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            // Sleep until there is work or we are told to finish.
            while state.queue.is_empty() && state.open {
                state = inner.cond.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            if state.queue.is_empty() {
                return; // drained and closed
            }
            // Run whatever is queued now. Jobs that arrive during this
            // pass wait for the next one and coalesce there.
            take_batch(&mut state, inner.config.max_batch)
        };
        run_batch(inner, batch);
    }
}

/// Pops the longest front run of jobs sharing the first job's model
/// handle, up to `max_batch` rows. The first job is always taken even
/// if oversized, so giant batch requests cannot wedge the queue.
fn take_batch(state: &mut State, max_batch: usize) -> Vec<Job> {
    let mut batch: Vec<Job> = Vec::new();
    let mut rows = 0;
    while let Some(front) = state.queue.front() {
        let same_model = batch
            .first()
            .is_none_or(|first: &Job| Arc::ptr_eq(&first.handle, &front.handle));
        if !same_model || (!batch.is_empty() && rows + front.rows.len() > max_batch) {
            break;
        }
        let Some(job) = state.queue.pop_front() else { break };
        rows += job.rows.len();
        state.queued_rows -= job.rows.len();
        batch.push(job);
    }
    batch
}

/// Folds one forward pass of `rows` rows that ran for `secs` seconds
/// into `rate`, an EWMA of rows per second; the first pass sets it. A
/// pass too short for the clock to time leaves it as it was.
fn fold_pass_rate(rate: f64, rows: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return rate;
    }
    let pass = rows as f64 / secs;
    if rate > 0.0 {
        0.5 * rate + 0.5 * pass
    } else {
        pass
    }
}

fn run_batch(inner: &Inner, batch: Vec<Job>) {
    let Some(first) = batch.first() else { return };
    let handle = Arc::clone(&first.handle);
    let all_rows: Vec<Vec<f64>> =
        batch.iter().flat_map(|job| job.rows.iter().cloned()).collect();
    let n_rows = all_rows.len();
    inner.metrics.batches.inc();
    inner.metrics.batch_rows.observe(n_rows as u64);
    // Row widths were validated at admission; if ragged input slips
    // through anyway, dropping the senders here turns into RecvError
    // at each caller, which the server maps to a 500 — one bad batch
    // must not take the worker thread down with it.
    let Ok(input) = Mat::from_rows(&all_rows) else { return };
    let started = Instant::now();
    let output = handle.network.predict_batch(&input);
    let secs = started.elapsed().as_secs_f64();
    inner.completed.fetch_add(n_rows as u64, Ordering::Relaxed);
    // Concurrent workers may each fold over the same old value, and
    // one pass's sample is then lost; the estimate only steers
    // `Retry-After`.
    let rate = f64::from_bits(inner.pass_rate.load(Ordering::Relaxed));
    inner.pass_rate.store(fold_pass_rate(rate, n_rows, secs).to_bits(), Ordering::Relaxed);
    let mut cursor = 0;
    for job in batch {
        let scores: Vec<Vec<f64>> = (cursor..cursor + job.rows.len())
            .map(|i| output.row(i).to_vec())
            .collect();
        cursor += job.rows.len();
        // A receiver that hung up just discards its rows.
        // nd-lint: allow(result-dropped) — send errs only when the receiver is gone; nothing to deliver to
        let _ = job.tx.send(scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelHandle;
    use nd_core::predict::build_mlp;

    fn handle(seed: u64) -> Arc<ModelHandle> {
        let network = build_mlp(6, seed);
        Arc::new(ModelHandle {
            name: "m".into(),
            version: seed,
            input_dim: 6,
            n_params: network.n_params(),
            network,
        })
    }

    fn row(seed: u64) -> Vec<f64> {
        (0..6).map(|j| (seed as f64) * 0.1 + j as f64).collect()
    }

    #[test]
    fn batched_output_matches_offline_bit_for_bit() {
        let h = handle(3);
        let batcher = Batcher::start(
            BatchConfig { max_batch: 8, ..BatchConfig::default() },
            Arc::new(Metrics::default()),
        )
        .unwrap();
        let rxs: Vec<_> = (0..10)
            .map(|i| batcher.submit(Arc::clone(&h), vec![row(i)]).unwrap())
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let got = rx.recv().unwrap();
            let offline = h
                .network
                .predict_batch(&Mat::from_rows(&[row(i as u64)]).unwrap());
            assert_eq!(got, vec![offline.row(0).to_vec()], "row {i}");
        }
        batcher.drain();
    }

    /// Admits jobs through `f` under one hold of the state lock, then
    /// wakes the workers: no pass can start until every job `f`
    /// admits is queued.
    fn queue_at_once<T>(batcher: &Batcher, f: impl FnOnce(&Inner, &mut State) -> T) -> T {
        let out = {
            let mut state = batcher.inner.state.lock().unwrap();
            f(&batcher.inner, &mut state)
        };
        batcher.inner.cond.notify_all();
        out
    }

    #[test]
    fn queued_singles_share_one_pass() {
        let h = handle(1);
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::start(
            BatchConfig { max_batch: 64, workers: 1, ..BatchConfig::default() },
            Arc::clone(&metrics),
        )
        .unwrap();
        let rxs: Vec<_> = queue_at_once(&batcher, |inner, state| {
            (0..16)
                .map(|i| inner.admit(state, Arc::clone(&h), vec![row(i)]).unwrap())
                .collect()
        });
        for (i, rx) in rxs.into_iter().enumerate() {
            let offline = h.network.predict_batch(&Mat::from_rows(&[row(i as u64)]).unwrap());
            assert_eq!(rx.recv().unwrap(), vec![offline.row(0).to_vec()], "row {i}");
        }
        assert_eq!(metrics.batches.get(), 1, "16 queued singles run as one pass");
        assert_eq!(metrics.batch_rows.snapshot().sum, 16);
        batcher.drain();
    }

    #[test]
    fn overload_is_rejected_not_queued() {
        let h = handle(1);
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::start(
            BatchConfig { queue_capacity: 4, workers: 1, ..BatchConfig::default() },
            Arc::clone(&metrics),
        )
        .unwrap();
        // One 2-row job and eight singles against a 4-row bound, all
        // offered before the worker can take any: the first three
        // fill the queue and the other six are shed.
        let results: Vec<_> = queue_at_once(&batcher, |inner, state| {
            std::iter::once(vec![row(0), row(1)])
                .chain((0..8).map(|i| vec![row(i + 2)]))
                .map(|rows| inner.admit(state, Arc::clone(&h), rows))
                .collect()
        });
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for result in results {
            match result {
                Ok(rx) => accepted.push(rx),
                Err(SubmitError::Overloaded { queued_rows }) => {
                    assert_eq!(queued_rows, 4);
                    rejected += 1;
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        assert_eq!(rejected, 6, "queue_capacity=4 admits 4 of 10 rows");
        assert_eq!(metrics.overload_rejections.get(), 6);
        for rx in accepted {
            rx.recv().unwrap();
        }
        batcher.drain();
    }

    #[test]
    fn mixed_models_never_share_a_pass() {
        let (a, b) = (handle(1), handle(2));
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::start(
            BatchConfig { workers: 1, ..Default::default() },
            Arc::clone(&metrics),
        )
        .unwrap();
        // Queued as a, a, b, b, a, a: each same-model front run is one
        // pass, so three passes of two rows.
        let model = |i: u64| if (i / 2).is_multiple_of(2) { &a } else { &b };
        let rxs: Vec<_> = queue_at_once(&batcher, |inner, state| {
            (0..6)
                .map(|i| (i, inner.admit(state, Arc::clone(model(i)), vec![row(i)]).unwrap()))
                .collect()
        });
        for (i, rx) in rxs {
            let offline = model(i).network.predict_batch(&Mat::from_rows(&[row(i)]).unwrap());
            assert_eq!(rx.recv().unwrap(), vec![offline.row(0).to_vec()], "row {i}");
        }
        assert_eq!(metrics.batches.get(), 3, "one pass per same-model run");
        assert_eq!(metrics.batch_rows.snapshot().sum, 6);
        batcher.drain();
    }

    #[test]
    fn drain_completes_accepted_work_then_refuses() {
        let h = handle(1);
        let batcher =
            Batcher::start(BatchConfig::default(), Arc::new(Metrics::default())).unwrap();
        // Admission closes in the same hold of the lock that queued
        // the jobs, so drain starts with all five still queued.
        let rxs: Vec<_> = queue_at_once(&batcher, |inner, state| {
            let rxs: Vec<_> = (0..5)
                .map(|i| inner.admit(state, Arc::clone(&h), vec![row(i)]).unwrap())
                .collect();
            state.open = false;
            rxs
        });
        batcher.drain();
        // Every accepted job was answered before drain returned.
        for rx in rxs {
            assert_eq!(rx.try_recv().unwrap().len(), 1);
        }
    }

    #[test]
    fn pass_rate_reads_the_passes_not_the_idle_time() {
        // Single-row passes, a quiet spell, then full passes: idle time
        // is no input to the fold, so the spell cannot dilute the rate
        // the full passes show.
        let mut rate = 0.0;
        for _ in 0..10 {
            rate = fold_pass_rate(rate, 1, 0.000_5);
        }
        assert!((rate - 2_000.0).abs() < 1e-6, "{rate}");
        for _ in 0..12 {
            rate = fold_pass_rate(rate, 64, 64.0 / 7_600.0);
        }
        assert!((rate - 7_600.0).abs() < 2.0, "{rate}");
        // A pass too short for the clock leaves the estimate alone.
        assert_eq!(fold_pass_rate(rate, 8, 0.0), rate);
    }

    #[test]
    fn submit_after_drain_refused() {
        let h = handle(1);
        let batcher =
            Batcher::start(BatchConfig::default(), Arc::new(Metrics::default())).unwrap();
        batcher.drain();
        assert_eq!(
            batcher.submit(h, vec![row(0)]).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }
}
