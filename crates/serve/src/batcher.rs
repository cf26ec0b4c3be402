//! Request micro-batching with bounded-queue backpressure.
//!
//! Concurrent `/predict` requests land in one bounded queue; worker
//! threads coalesce them into a single forward pass. A worker that
//! finds one job queued runs it at once; only when a second job is
//! queued does it hold the pass open for stragglers (up to
//! [`BatchConfig::max_wait`]). Batching is a throughput trade: one
//! matmul over 64 rows amortizes per-pass overhead that 64 single-row
//! passes each pay in full.
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
//! instead of accumulating latency (or memory) inside.

use crate::metrics::Metrics;
use crate::registry::ModelHandle;
use crate::ServeError;
use nd_linalg::Mat;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most rows coalesced into one forward pass.
    pub max_batch: usize,
    /// Longest a queued row waits for company before the batch runs
    /// anyway. The wait applies only once a second job is queued: a
    /// worker that finds one job alone runs it at once.
    pub max_wait: Duration,
    /// Admission bound: queued rows beyond this are rejected.
    pub queue_capacity: usize,
    /// Worker threads running forward passes.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
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
        // because every mutation below is a single non-panicking step.
        let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queued_rows + rows.len() > self.inner.config.queue_capacity {
            self.inner.metrics.overload_rejections.inc();
            return Err(SubmitError::Overloaded { queued_rows: state.queued_rows });
        }
        let (tx, rx) = mpsc::channel();
        state.queued_rows += rows.len();
        state.queue.push_back(Job { handle, rows, tx });
        drop(state);
        self.inner.cond.notify_one();
        Ok(rx)
    }

    /// Rows currently waiting (for the `/metrics` gauge).
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner).queued_rows
    }

    /// Rows whose forward pass has finished since startup. Monotone;
    /// the shard layer differences it over time to estimate drain
    /// rate for `Retry-After`.
    pub fn completed_rows(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
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
            // Micro-batch window. A lone queued job runs at once: a
            // wait would only delay it, and jobs that arrive during
            // its pass still queue and coalesce on the next one. Once
            // a second job is queued, stragglers get up to `max_wait`
            // to pile in, unless the pass is already full or we are
            // draining. The window is adaptive: it waits in short
            // slices and exits as soon as a slice passes with no new
            // rows — paying the full `max_wait` on every pass would
            // serialize idle time behind each forward pass and cap
            // throughput at `max_batch / max_wait` even with work
            // already queued.
            let deadline = Instant::now() + inner.config.max_wait;
            let slice = (inner.config.max_wait / 8).max(Duration::from_micros(50));
            while state.open
                && state.queue.len() > 1
                && state.queued_rows < inner.config.max_batch
            {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let before = state.queued_rows;
                let (next, _timeout) = inner
                    .cond
                    .wait_timeout(state, slice.min(deadline - now))
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
                if state.queue.is_empty() || state.queued_rows == before {
                    // Another worker emptied the queue, or arrivals
                    // have stopped — run with what we have.
                    break;
                }
            }
            if state.queue.is_empty() {
                continue; // another worker took everything
            }
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
    let output = handle.network.predict_batch(&input);
    inner.completed.fetch_add(n_rows as u64, Ordering::Relaxed);
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

    #[test]
    fn coalesces_under_concurrency() {
        let h = handle(1);
        let metrics = Arc::new(Metrics::default());
        let batcher = Arc::new(
            Batcher::start(
                BatchConfig {
                    max_batch: 64,
                    max_wait: Duration::from_millis(20),
                    workers: 1,
                    ..BatchConfig::default()
                },
                Arc::clone(&metrics),
            )
            .unwrap(),
        );
        let threads: Vec<_> = (0..16)
            .map(|i| {
                let batcher = Arc::clone(&batcher);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    batcher.submit(h, vec![row(i)]).unwrap().recv().unwrap()
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let batches = metrics.batches.get();
        assert!(batches < 16, "16 concurrent singles ran {batches} passes");
        assert_eq!(metrics.batch_rows.sum(), 16);
        batcher.drain();
    }

    #[test]
    fn lone_job_runs_without_waiting_for_company() {
        let batcher = Batcher::start(
            BatchConfig { max_wait: Duration::from_secs(2), workers: 1, ..Default::default() },
            Arc::new(Metrics::default()),
        )
        .unwrap();
        let started = Instant::now();
        let rx = batcher.submit(handle(1), vec![row(0)]).unwrap();
        assert_eq!(rx.recv().unwrap().len(), 1);
        let waited = started.elapsed();
        assert!(waited < Duration::from_millis(100), "a lone job waited {waited:?}");
        batcher.drain();
    }

    #[test]
    fn overload_is_rejected_not_queued() {
        let h = handle(1);
        let batcher = Batcher::start(
            BatchConfig {
                queue_capacity: 4,
                max_wait: Duration::from_millis(200),
                workers: 1,
                ..BatchConfig::default()
            },
            Arc::new(Metrics::default()),
        )
        .unwrap();
        // Sheds only when the submits outrun the worker: a job found
        // alone runs at once, and once two jobs are queued the 200 ms
        // window holds them while the queue fills behind them.
        let first = batcher.submit(Arc::clone(&h), vec![row(0), row(1)]).unwrap();
        let mut accepted = vec![first];
        let mut rejected = 0;
        for i in 0..8 {
            match batcher.submit(Arc::clone(&h), vec![row(i + 2)]) {
                Ok(rx) => accepted.push(rx),
                Err(SubmitError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert!(rejected > 0, "queue_capacity=4 must shed some of 10 rows");
        for rx in accepted {
            rx.recv().unwrap();
        }
        batcher.drain();
    }

    #[test]
    fn mixed_models_never_share_a_pass() {
        let (a, b) = (handle(1), handle(2));
        let batcher = Batcher::start(
            BatchConfig { max_wait: Duration::from_millis(20), workers: 1, ..Default::default() },
            Arc::new(Metrics::default()),
        )
        .unwrap();
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                let h = if i % 2 == 0 { &a } else { &b };
                (i, batcher.submit(Arc::clone(h), vec![row(i)]).unwrap())
            })
            .collect();
        for (i, rx) in rxs {
            let h = if i % 2 == 0 { &a } else { &b };
            let offline = h.network.predict_batch(&Mat::from_rows(&[row(i)]).unwrap());
            assert_eq!(rx.recv().unwrap(), vec![offline.row(0).to_vec()], "row {i}");
        }
        batcher.drain();
    }

    #[test]
    fn drain_completes_accepted_work_then_refuses() {
        let h = handle(1);
        let batcher = Batcher::start(
            BatchConfig { max_wait: Duration::from_millis(50), ..Default::default() },
            Arc::new(Metrics::default()),
        )
        .unwrap();
        let rxs: Vec<_> = (0..5)
            .map(|i| batcher.submit(Arc::clone(&h), vec![row(i)]).unwrap())
            .collect();
        batcher.drain();
        // Every accepted job still got an answer.
        for rx in rxs {
            assert_eq!(rx.recv().unwrap().len(), 1);
        }
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
