//! Classification metrics (paper §3.6).
//!
//! The paper evaluates its multi-class predictors with the *average
//! accuracy* of Eq. (17): the mean over classes of
//! `(TP_i + TN_i) / (TP_i + FN_i + FP_i + TN_i)`. For completeness the
//! confusion matrix also exposes plain accuracy, per-class
//! precision/recall/F1 and their macro averages.

/// A `k x k` confusion matrix; rows = true class, cols = predicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Builds from parallel true/predicted label slices.
    ///
    /// # Panics
    /// Panics when the slices differ in length or a label `>= k` —
    /// both are caller bugs.
    pub fn from_labels(k: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "label slices must align");
        let mut counts = vec![0u64; k * k];
        for (&t, &p) in truth.iter().zip(predicted) {
            assert!(t < k && p < k, "label out of range");
            counts[t * k + p] += 1;
        }
        ConfusionMatrix { k, counts }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.k
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> u64 {
        self.counts[t * self.k + p]
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn tp(&self, c: usize) -> u64 {
        self.count(c, c)
    }

    fn fp(&self, c: usize) -> u64 {
        (0..self.k).filter(|&t| t != c).map(|t| self.count(t, c)).sum()
    }

    fn fn_(&self, c: usize) -> u64 {
        (0..self.k).filter(|&p| p != c).map(|p| self.count(c, p)).sum()
    }

    fn tn(&self, c: usize) -> u64 {
        self.total() - self.tp(c) - self.fp(c) - self.fn_(c)
    }

    /// Plain accuracy: correct / total (0 for an empty matrix).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.k).map(|c| self.tp(c)).sum();
        correct as f64 / total as f64
    }

    /// Average (per-class, one-vs-rest) accuracy — paper Eq. (17).
    pub fn average_accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.k == 0 {
            return 0.0;
        }
        (0..self.k)
            .map(|c| (self.tp(c) + self.tn(c)) as f64 / total as f64)
            // nd-lint: allow(fp-reduction-order) — serial sum over class indices 0..k.
            .sum::<f64>()
            / self.k as f64
    }

    /// Precision of class `c`; 0 when the class was never predicted.
    pub fn precision(&self, c: usize) -> f64 {
        let denom = self.tp(c) + self.fp(c);
        if denom == 0 {
            0.0
        } else {
            self.tp(c) as f64 / denom as f64
        }
    }

    /// Recall of class `c`; 0 when the class never occurs.
    pub fn recall(&self, c: usize) -> f64 {
        let denom = self.tp(c) + self.fn_(c);
        if denom == 0 {
            0.0
        } else {
            self.tp(c) as f64 / denom as f64
        }
    }

    /// F1 of class `c`.
    pub fn f1(&self, c: usize) -> f64 {
        let (p, r) = (self.precision(c), self.recall(c));
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Convenience: plain accuracy of predictions against truth.
pub fn accuracy(truth: &[usize], predicted: &[usize]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let cm = ConfusionMatrix::from_labels(3, &[0, 1, 2, 0], &[0, 1, 2, 0]);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.average_accuracy(), 1.0);
    }

    #[test]
    fn hand_computed_matrix() {
        // truth:     0 0 1 1 2 2
        // predicted: 0 1 1 1 2 0
        let cm = ConfusionMatrix::from_labels(3, &[0, 0, 1, 1, 2, 2], &[0, 1, 1, 1, 2, 0]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(2, 0), 1);
        assert_eq!(cm.total(), 6);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        // class 0: TP=1 FP=1 FN=1 TN=3 -> 4/6
        // class 1: TP=2 FP=1 FN=0 TN=3 -> 5/6
        // class 2: TP=1 FP=0 FN=1 TN=4 -> 5/6
        let want = (4.0 + 5.0 + 5.0) / (3.0 * 6.0);
        assert!((cm.average_accuracy() - want).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1() {
        let cm = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1], &[0, 1, 1, 1]);
        // class 1: TP=2, FP=1, FN=0
        assert!((cm.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cm.recall(1), 1.0);
        assert!((cm.f1(1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn never_predicted_class_zero_precision() {
        let cm = ConfusionMatrix::from_labels(3, &[2, 2], &[0, 1]);
        assert_eq!(cm.precision(2), 0.0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.f1(2), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let cm = ConfusionMatrix::from_labels(3, &[], &[]);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.average_accuracy(), 0.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn average_accuracy_at_least_plain_accuracy_for_k_ge_2() {
        // With one-vs-rest, TN inflates the per-class score: average
        // accuracy >= plain accuracy.
        let cm = ConfusionMatrix::from_labels(3, &[0, 1, 2, 1, 0], &[1, 1, 0, 2, 0]);
        assert!(cm.average_accuracy() >= cm.accuracy());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        ConfusionMatrix::from_labels(2, &[5], &[0]);
    }

    #[test]
    fn accuracy_helper() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
    }
}
