//! Sliding-window document buffer for streaming MABED.
//!
//! Batch MABED scores anomalies over the *whole* collection window,
//! so every new document re-reads all of history. The streaming
//! pipeline (DESIGN.md §17) instead maintains a bounded
//! [`SlidingWindow`]: each fold pushes the new time slice's documents
//! and evicts the documents that have aged out of the detection
//! horizon, then re-detects over the bounded buffer only. Eviction
//! semantics:
//!
//! * The window covers `[head − window_secs, head)`, where `head` is
//!   the end of the most recently pushed slice.
//! * A document is evicted the moment its timestamp falls strictly
//!   before the window start — detection never sees it again, and an
//!   event whose support has fully aged out disappears with it.
//! * Documents must arrive in slice order (the firehose guarantees
//!   it), so the buffer stays timestamp-sorted and eviction is a
//!   prefix drain.
//!
//! The buffer *is* the fold state: it serializes with the detected
//! events, so a decoded window continues exactly where the encoded
//! one stopped.

use crate::timeslice::TimestampedDoc;

/// A timestamp-sorted document buffer bounded by a time horizon.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// Detection horizon in seconds.
    window_secs: u64,
    /// End of the most recently pushed slice (stream head).
    head: u64,
    /// Buffered documents, timestamp-sorted.
    docs: Vec<TimestampedDoc>,
    /// Total documents evicted over the window's lifetime.
    evicted: usize,
}

impl SlidingWindow {
    /// Empty window with the given horizon.
    pub fn new(window_secs: u64) -> Self {
        SlidingWindow { window_secs, head: 0, docs: Vec::new(), evicted: 0 }
    }

    /// Rebuilds a window from serialized state.
    pub fn from_parts(window_secs: u64, head: u64, docs: Vec<TimestampedDoc>, evicted: usize) -> Self {
        SlidingWindow { window_secs, head, docs, evicted }
    }

    /// Serializable state: `(window_secs, head, docs, evicted)`.
    pub fn parts(&self) -> (u64, u64, &[TimestampedDoc], usize) {
        (self.window_secs, self.head, &self.docs, self.evicted)
    }

    /// Detection horizon in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// End of the most recently pushed slice.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Documents currently inside the window, timestamp-sorted.
    pub fn docs(&self) -> &[TimestampedDoc] {
        &self.docs
    }

    /// Total documents evicted so far.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Window start: `head − window_secs` (saturating).
    pub fn window_start(&self) -> u64 {
        self.head.saturating_sub(self.window_secs)
    }

    /// Pushes one slice's documents (timestamp-sorted, all `< slice_end`)
    /// and advances the head to `slice_end`, evicting everything that
    /// aged out. Returns the number of documents evicted by this push.
    pub fn push_slice<I>(&mut self, docs: I, slice_end: u64) -> usize
    where
        I: IntoIterator<Item = TimestampedDoc>,
    {
        debug_assert!(slice_end >= self.head, "slices must arrive in order");
        let mut last = self.docs.last().map(|d| d.timestamp).unwrap_or(0);
        for d in docs {
            debug_assert!(d.timestamp >= last, "documents must be timestamp-sorted");
            last = d.timestamp;
            self.docs.push(d);
        }
        self.head = self.head.max(slice_end);
        self.evict_before(self.window_start())
    }

    /// Drops every document with `timestamp < t0`; returns how many.
    pub fn evict_before(&mut self, t0: u64) -> usize {
        let keep_from = self.docs.partition_point(|d| d.timestamp < t0);
        self.docs.drain(..keep_from);
        self.evicted += keep_from;
        keep_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeslice::SlicedCorpus;

    fn doc(ts: u64, word: &str) -> TimestampedDoc {
        TimestampedDoc::new(ts, vec![word.to_string()], 0)
    }

    #[test]
    fn push_appends_and_advances_head() {
        let mut w = SlidingWindow::new(1000);
        assert_eq!(w.push_slice([doc(10, "a"), doc(20, "b")], 100), 0);
        assert_eq!(w.head(), 100);
        assert_eq!(w.docs().len(), 2);
    }

    #[test]
    fn eviction_is_a_prefix_drain_at_the_horizon() {
        let mut w = SlidingWindow::new(100);
        w.push_slice([doc(10, "a"), doc(50, "b")], 60);
        // Head moves to 160: window start 60, both docs age out.
        let evicted = w.push_slice([doc(100, "c"), doc(150, "d")], 160);
        assert_eq!(evicted, 2);
        assert_eq!(w.docs().len(), 2);
        assert_eq!(w.docs()[0].timestamp, 100);
        assert_eq!(w.evicted(), 2);
    }

    #[test]
    fn boundary_document_survives_exactly_at_window_start() {
        let mut w = SlidingWindow::new(100);
        w.push_slice([doc(60, "a")], 70);
        w.push_slice([doc(159, "b")], 160);
        // Window start is 60; a timestamp of exactly 60 is kept.
        assert_eq!(w.docs().len(), 2);
        w.push_slice([doc(170, "c")], 161);
        assert_eq!(w.window_start(), 61);
        assert_eq!(w.docs()[0].timestamp, 159);
    }

    #[test]
    fn parts_roundtrip_continues_identically() {
        let mut a = SlidingWindow::new(100);
        a.push_slice([doc(10, "x"), doc(90, "y")], 100);
        let (secs, head, docs, evicted) = a.parts();
        let mut b = SlidingWindow::from_parts(secs, head, docs.to_vec(), evicted);
        a.push_slice([doc(150, "z")], 200);
        b.push_slice([doc(150, "z")], 200);
        assert_eq!(a.docs().len(), b.docs().len());
        assert_eq!(a.evicted(), b.evicted());
        assert_eq!(a.head(), b.head());
    }

    #[test]
    fn sliced_corpus_covers_only_the_window() {
        let mut w = SlidingWindow::new(200);
        w.push_slice([doc(0, "old")], 100);
        w.push_slice([doc(250, "new"), doc(299, "new")], 300);
        let sliced = SlicedCorpus::build(w.docs(), 100);
        assert_eq!(sliced.n_docs, 2, "evicted doc must not reach MABED");
    }
}
