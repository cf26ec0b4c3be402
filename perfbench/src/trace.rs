//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, parent, thread, start and
//! end (ns since the recorder was created) and free-form counters.
//! [`Tracer::chrome_json`] writes them in Chrome trace-event format and
//! [`Tracer::self_times`] folds them into a per-name self-time table.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `core.fold.topics`.
    pub name: String,
    /// Small per-thread number assigned on first use.
    pub thread: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Counters such as rows or bytes.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; shared by reference across threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// An open span; call [`Open::end`] (or [`Open::end_with`]) to record it.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
}

impl Open<'_> {
    /// This span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span and returns its duration in ns.
    pub fn end(self) -> u64 {
        self.end_with(Vec::new())
    }

    /// Closes the span with counters and returns its duration in ns.
    pub fn end_with(self, counters: Vec<(&'static str, u64)>) -> u64 {
        let end_ns = self.tracer.now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD_NO.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            counters,
        };
        let dur = span.dur_ns();
        self.tracer
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .push(span);
        dur
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self.open(name, parent);
        let out = f();
        let ns = span.end();
        (out, ns)
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking thread")
            .clone()
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, µs times).
    pub fn chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                let mut args: serde_json::Map = BTreeMap::new();
                args.insert("id".into(), json!(s.id));
                if let Some(p) = s.parent {
                    args.insert("parent".into(), json!(p));
                }
                for (k, v) in &s.counters {
                    args.insert((*k).to_string(), json!(*v));
                }
                json!({
                    "name": s.name.as_str(),
                    "cat": s.name.split('.').next().unwrap_or("span"),
                    "ph": "X",
                    "pid": 1,
                    "tid": s.thread,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns() as f64 / 1e3,
                    "args": Value::Object(args),
                })
            })
            .collect();
        json!({"traceEvents": events, "displayTimeUnit": "ns"})
    }

    /// Per-name `(count, total ns, self ns)`. A span's self time is its
    /// duration minus the part of its interval its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut table: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let row = table.entry(s.name.clone()).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns().saturating_sub(covered);
        }
        table
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let outer = t.open("outer", None);
        let (_, _) = t.time("inner", Some(outer.id()), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        outer.end();
        let table = t.self_times();
        let (n, total, own) = table["outer"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert_eq!(table["inner"].0, 1);
        let trace = t.chrome_json();
        assert_eq!(trace["traceEvents"].as_array().map(Vec::len), Some(2));
    }
}
