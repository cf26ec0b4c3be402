//! Descriptive statistics and correlation coefficients.
//!
//! The MABED event detector (paper §3.3) scores candidate words with a
//! first-order autocorrelation coefficient over time series of mention
//! counts (paper Eq. 9–10, following Erdem et al. 2014). The building
//! blocks live here so they can be unit-tested in isolation.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        // nd-lint: allow(fp-reduction-order) — serial sum in slice order; never parallelized.
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    // nd-lint: allow(fp-reduction-order) — serial sum in slice order; never parallelized.
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Erdem et al. (2014) first-order correlation coefficient between two
/// bivariate time series, the `rho` of paper Eq. (10).
///
/// Operates on first differences: for series `x` and `y` over the
/// interval `[a, b]` (indices `0..n`), computes
///
/// ```text
/// rho = sum_i (x_i - x_{i-1}) (y_i - y_{i-1})  /  ((n-1) * A_x * A_y)
/// ```
///
/// where `A_x`, `A_y` are the root-mean-square first differences
/// (paper's definitions (2) and (3)). Returns `0.0` when either series
/// has no movement, or the series are shorter than 2 slices.
///
/// The result lies in `[-1, 1]`; MABED maps it to a weight in `[0, 1]`
/// via `(rho + 1) / 2` (paper Eq. 9) — see [`erdem_weight`].
pub fn erdem_rho(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = (n - 1) as f64;
    let mut num = 0.0;
    let mut ax2 = 0.0;
    let mut ay2 = 0.0;
    for i in 1..n {
        let dx = xs[i] - xs[i - 1];
        let dy = ys[i] - ys[i - 1];
        num += dx * dy;
        ax2 += dx * dx;
        ay2 += dy * dy;
    }
    let ax = (ax2 / m).sqrt();
    let ay = (ay2 / m).sqrt();
    if ax == 0.0 || ay == 0.0 {
        return 0.0;
    }
    (num / (m * ax * ay)).clamp(-1.0, 1.0)
}

/// MABED candidate-word weight, paper Eq. (9): `(erdem_rho + 1) / 2`,
/// guaranteed to lie in `[0, 1]`.
pub fn erdem_weight(xs: &[f64], ys: &[f64]) -> f64 {
    (erdem_rho(xs, ys) + 1.0) / 2.0
}

/// Simple online accumulator for mean/variance (Welford's algorithm);
/// used by the store's index statistics and the training-loop metric
/// summaries.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(erdem_rho(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn erdem_rho_comoving_series() {
        // Two series with identical increments -> rho = 1.
        let xs = [0.0, 1.0, 3.0, 2.0, 5.0];
        let ys = [10.0, 11.0, 13.0, 12.0, 15.0];
        assert!((erdem_rho(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erdem_rho_antimoving_series() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0, 0.0];
        assert!((erdem_rho(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn erdem_rho_flat_series_is_zero() {
        let flat = [2.0, 2.0, 2.0];
        let moving = [0.0, 1.0, 0.0];
        assert_eq!(erdem_rho(&flat, &moving), 0.0);
    }

    #[test]
    fn erdem_weight_in_unit_interval() {
        let xs = [0.0, 3.0, 1.0, 4.0, 1.0];
        let ys = [5.0, 0.0, 4.0, 1.0, 3.0];
        let w = erdem_weight(&xs, &ys);
        assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), Some(2.0));
        assert_eq!(rs.max(), Some(9.0));
    }

    #[test]
    fn running_stats_empty() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.min(), None);
        assert_eq!(rs.max(), None);
    }
}
