//! Property-based tests for the linear-algebra substrate.

use nd_linalg::{vecops, Mat};
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    #[test]
    fn cosine_in_unit_range(a in vec_strategy(8), b in vec_strategy(8)) {
        let c = vecops::cosine(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn cosine_symmetric(a in vec_strategy(6), b in vec_strategy(6)) {
        let c1 = vecops::cosine(&a, &b);
        let c2 = vecops::cosine(&b, &a);
        prop_assert!((c1 - c2).abs() < 1e-12);
    }

    #[test]
    fn softmax_is_distribution(z in vec_strategy(7)) {
        let p = vecops::softmax(&z);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn matmul_associates_with_identity(data in vec_strategy(12)) {
        let m = Mat::from_vec(3, 4, data).unwrap();
        let out = m.matmul(&Mat::eye(4)).unwrap();
        prop_assert_eq!(out, m);
    }

    #[test]
    fn transpose_preserves_frobenius(data in vec_strategy(12)) {
        let m = Mat::from_vec(4, 3, data).unwrap();
        prop_assert!((m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn matmul_distributes_over_add(a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)) {
        let ma = Mat::from_vec(2, 3, a).unwrap();
        let mb = Mat::from_vec(3, 2, b).unwrap();
        let mc = Mat::from_vec(3, 2, c).unwrap();
        let lhs = ma.matmul(&mb.add(&mc).unwrap()).unwrap();
        let rhs = ma.matmul(&mb).unwrap().add(&ma.matmul(&mc).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn erdem_weight_unit_interval(a in vec_strategy(10), b in vec_strategy(10)) {
        let w = nd_linalg::stats::erdem_weight(&a, &b);
        prop_assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn gram_is_symmetric_psd_diag(data in vec_strategy(12)) {
        let m = Mat::from_vec(4, 3, data).unwrap();
        let g = m.gram();
        for i in 0..3 {
            prop_assert!(g.get(i, i) >= -1e-9, "diagonal must be non-negative");
            for j in 0..3 {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-9);
            }
        }
    }
}
