//! Property-based tests for the linear-algebra kernels.

use bismarck_linalg::{ops, project_simplex, FeatureVectorRef, SparseVector};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 0..max_len)
}

proptest! {
    #[test]
    fn dot_is_commutative(a in finite_vec(32), b in finite_vec(32)) {
        let ab = ops::dot(&a, &b);
        let ba = ops::dot(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn dot_with_zero_vector_is_zero(a in finite_vec(32)) {
        let z = vec![0.0; a.len()];
        prop_assert_eq!(ops::dot(&a, &z), 0.0);
    }

    #[test]
    fn scale_and_add_matches_elementwise(a in finite_vec(16), c in -10.0f64..10.0) {
        let x: Vec<f64> = a.iter().map(|v| v * 0.5 + 1.0).collect();
        let mut w = a.clone();
        ops::scale_and_add(&mut w, &x, c);
        for i in 0..a.len() {
            prop_assert!((w[i] - (a[i] + c * x[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_in_unit_interval(z in -1e6f64..1e6) {
        let s = ops::sigmoid(z);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn log1p_exp_nonnegative_and_above_linear(z in -700.0f64..700.0) {
        let v = ops::log1p_exp(z);
        prop_assert!(v >= 0.0);
        prop_assert!(v + 1e-9 >= z);
    }

    #[test]
    fn simplex_projection_invariants(mut w in prop::collection::vec(-50.0f64..50.0, 1..24)) {
        project_simplex(&mut w);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        prop_assert!(w.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn sparse_dense_dot_agree(pairs in prop::collection::vec((0usize..64, -10.0f64..10.0), 0..32),
                              w in prop::collection::vec(-10.0f64..10.0, 64..65)) {
        let sv = SparseVector::from_pairs(pairs.clone());
        let view = FeatureVectorRef::from(&sv);
        let dv = view.to_dense(64);
        let sparse_dot = view.dot(&w);
        let dense_dot = ops::dot(&dv, &w);
        prop_assert!((sparse_dot - dense_dot).abs() < 1e-6);
    }

    #[test]
    fn sparse_scale_and_add_agrees_with_dense(
        pairs in prop::collection::vec((0usize..32, -10.0f64..10.0), 0..16),
        c in -5.0f64..5.0)
    {
        let sv = SparseVector::from_pairs(pairs);
        let view = FeatureVectorRef::from(&sv);
        let dv = view.to_dense(32);
        let mut w1 = vec![1.0; 32];
        let mut w2 = vec![1.0; 32];
        view.scale_and_add_into(&mut w1, c);
        ops::scale_and_add(&mut w2, &dv, c);
        for i in 0..32 {
            prop_assert!((w1[i] - w2[i]).abs() < 1e-9);
        }
    }
}
