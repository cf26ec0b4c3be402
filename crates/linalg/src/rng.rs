//! Deterministic random-number helpers.
//!
//! Every stochastic component in the workspace (weight initialization,
//! negative sampling, synthetic data generation) must be reproducible
//! from an explicit seed. [`SplitMix64`] is the shared primitive: it is
//! tiny, has no external state, and its output for a given seed is
//! stable across platforms and crate versions — unlike `rand`'s
//! `StdRng`, whose stream may change between `rand` releases.

/// A SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush, has a 2^64 period, and needs only one
/// `u64` of state. It is *not* cryptographically secure — it exists so
/// that experiments are exactly reproducible from a seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
    /// Cached second half of a Box–Muller pair.
    gauss_spare: Option<f64>,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Two generators with the same
    /// seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed, gauss_spare: None }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> exactly representable double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`; asking for an index into an empty range
    /// is always a logic error at the call site.
    #[inline]
    pub fn next_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_usize bound must be positive");
        // Rejection-free multiply-shift; bias is negligible for the
        // bounds used in this workspace (< 2^32).
        ((self.next_u64() >> 32).wrapping_mul(bound as u64) >> 32) as usize
    }

    /// Standard normal deviate via Box–Muller (cached pairs).
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(s) = self.gauss_spare.take() {
            return s;
        }
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an index from an unnormalized non-negative weight vector.
    /// Falls back to a uniform draw if all weights are zero.
    ///
    /// # Panics
    /// Panics if `weights` is empty.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "sample_weighted needs at least one weight");
        // nd-lint: allow(fp-reduction-order) — serial sum in the caller's slice order.
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.next_usize(weights.len());
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws a sample from a Zipf-like power-law over `{1, …, max}` with
    /// exponent `alpha` using inverse-CDF on a continuous Pareto
    /// approximation. Used for synthetic follower counts.
    pub fn next_powerlaw(&mut self, alpha: f64, max: u64) -> u64 {
        debug_assert!(alpha > 1.0);
        let u = self.next_f64().max(1e-12);
        let x = u.powf(-1.0 / (alpha - 1.0));
        (x.round() as u64).min(max).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn usize_respects_bound() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.next_usize(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn usize_zero_bound_panics() {
        SplitMix64::new(0).next_usize(0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SplitMix64::new(77);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_weights() {
        let mut r = SplitMix64::new(3);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.sample_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5);
    }

    #[test]
    fn weighted_sampling_all_zero_falls_back_to_uniform() {
        let mut r = SplitMix64::new(3);
        let weights = [0.0, 0.0];
        let mut hit = [false, false];
        for _ in 0..100 {
            hit[r.sample_weighted(&weights)] = true;
        }
        assert!(hit[0] && hit[1]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "50 elements should not stay in order");
    }

    #[test]
    fn powerlaw_bounds_and_skew() {
        let mut r = SplitMix64::new(21);
        let samples: Vec<u64> = (0..20_000).map(|_| r.next_powerlaw(2.0, 1_000_000)).collect();
        assert!(samples.iter().all(|&v| (1..=1_000_000).contains(&v)));
        let small = samples.iter().filter(|&&v| v < 100).count();
        assert!(small as f64 / samples.len() as f64 > 0.9, "power law should be bottom-heavy");
        assert!(samples.iter().any(|&v| v > 1_000), "tail should reach large values");
    }
}
