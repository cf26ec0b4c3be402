//! Term ↔ index interning.

use std::collections::HashMap;

/// A bidirectional term ↔ index map.
///
/// Term ids are assigned densely in first-seen order, so a vocabulary
/// built from a deterministic corpus ordering is itself deterministic.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> usize {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = self.terms.len();
        self.terms.push(term.to_string());
        self.index.insert(term.to_string(), id);
        id
    }

    /// Id of `term`, if known.
    pub fn get(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Term with id `id`, if in range.
    pub fn term(&self, id: usize) -> Option<&str> {
        self.terms.get(id).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterator over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.terms.iter().enumerate().map(|(i, t)| (i, t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_stable_ids() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn roundtrip() {
        let mut v = Vocabulary::new();
        let id = v.intern("brexit");
        assert_eq!(v.term(id), Some("brexit"));
        assert_eq!(v.get("brexit"), Some(id));
        assert_eq!(v.get("unknown"), None);
        assert_eq!(v.term(99), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut v = Vocabulary::new();
        v.intern("one");
        v.intern("two");
        let collected: Vec<_> = v.iter().collect();
        assert_eq!(collected, vec![(0, "one"), (1, "two")]);
    }
}
