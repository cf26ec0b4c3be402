//! Free functions over `&[f64]` slices.
//!
//! These are the primitive kernels shared by the embedding, similarity
//! and neural-network code: dot products, norms, cosine similarity
//! (paper Eq. 11), softmax, and simple in-place updates.

/// Dot product of two equal-length slices.
///
/// Accumulates into four independent lanes (combined as
/// `(s0 + s1) + (s2 + s3)`) so the compiler can vectorize and overlap
/// the FMA chains; the summation order is fixed, making results
/// reproducible across runs and thread counts.
///
/// # Panics
/// Debug-asserts equal lengths; in release, the shorter length wins
/// (zip semantics) — callers in this workspace always pass equal
/// lengths by construction.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let quads = n / 4;
    for q in 0..quads {
        let i = q * 4;
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in quads * 4..n {
        s += a[i] * b[i];
    }
    s
}

/// ℓ² (Euclidean) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Scales `a` in place to unit ℓ² norm; a zero vector is left unchanged.
pub fn normalize(a: &mut [f64]) {
    let n = norm2(a);
    if n > 0.0 {
        for v in a {
            *v /= n;
        }
    }
}

/// Cosine similarity (paper Eq. 11).
///
/// Returns `0.0` when either vector has zero norm — the paper's
/// similarity pipeline treats an unembeddable document as matching
/// nothing, and this convention avoids NaN propagation.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (norm2(a), norm2(b));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// `y += alpha * x`, the BLAS `axpy` kernel.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise mean of a set of equal-length vectors; `None` when the
/// set is empty.
pub fn mean_of(vectors: &[&[f64]]) -> Option<Vec<f64>> {
    let first = vectors.first()?;
    let mut acc = vec![0.0; first.len()];
    for v in vectors {
        debug_assert_eq!(v.len(), acc.len());
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += x;
        }
    }
    let n = vectors.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    Some(acc)
}

/// Numerically-stable softmax: `exp(z - max) / sum`.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    if z.is_empty() {
        return Vec::new();
    }
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&v| (v - max).exp()).collect();
    // nd-lint: allow(fp-reduction-order) — serial sum in slice order; never parallelized.
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Index of the maximum element (first index on ties); `None` for empty
/// input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in a.iter().enumerate() {
        if v > a[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert!(cosine(&a, &b).abs() < 1e-12);
        assert!((cosine(&a, &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&a, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [0.3, -0.7, 2.0];
        let b = [1.2, 0.4, -0.1];
        let scaled: Vec<f64> = b.iter().map(|v| v * 42.0).collect();
        assert!((cosine(&a, &b) - cosine(&a, &scaled)).abs() < 1e-12);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let m = mean_of(&[&a, &b]).unwrap();
        assert_eq!(m, vec![2.0, 3.0]);
        assert!(mean_of(&[]).is_none());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }
}
