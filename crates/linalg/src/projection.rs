//! Euclidean projections used as proximal-point operators (Appendix A).
//!
//! The paper's step rule `w ← Π_{αP}(w − α ∇f_i(w))` needs, for the tasks of
//! Figure 1(B):
//! * projection onto the probability simplex Δ (portfolio optimization),
//! * soft-thresholding, the proximal operator of the `µ‖w‖₁` regularizers.

/// The most coordinates [`project_simplex`] sorts without a heap copy.
const SIMPLEX_STACK_COORDS: usize = 64;

/// Project `w` onto the probability simplex `{ w : w_i >= 0, Σ w_i = 1 }`.
///
/// Uses the classic sort-based algorithm (Held, Wolfe & Crowder). The empty
/// vector is returned unchanged. The sorted copy of a model of up to 64
/// coordinates lives on the stack, so a per-step projection of a small model
/// allocates nothing.
pub fn project_simplex(w: &mut [f64]) {
    let n = w.len();
    if n == 0 {
        return;
    }
    let mut stack = [0.0; SIMPLEX_STACK_COORDS];
    let mut heap = Vec::new();
    let sorted = if n <= SIMPLEX_STACK_COORDS {
        &mut stack[..n]
    } else {
        heap.resize(n, 0.0);
        &mut heap[..]
    };
    sorted.copy_from_slice(w);
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut rho_cumsum = 0.0;
    for (k, &v) in sorted.iter().enumerate() {
        cumsum += v;
        let t = (cumsum - 1.0) / (k as f64 + 1.0);
        if v - t > 0.0 {
            rho = k + 1;
            rho_cumsum = cumsum;
        }
    }
    // rho is at least 1 because the largest element always satisfies the test.
    let theta = (rho_cumsum - 1.0) / rho as f64;
    for v in w.iter_mut() {
        *v = (*v - theta).max(0.0);
    }
}

/// Apply element-wise soft-thresholding with threshold `t >= 0`; this is the
/// proximal operator of `t * ‖w‖₁` and implements the `µ‖w‖₁` penalty of the
/// LR and SVM objectives in Figure 1(B).
pub fn soft_threshold_vec(w: &mut [f64], t: f64) {
    assert!(t >= 0.0, "threshold must be non-negative");
    for v in w.iter_mut() {
        *v = soft_threshold(*v, t);
    }
}

/// Soft-thresholding operator used by the L1 (lasso) proximal step:
/// `sign(z) * max(|z| - t, 0)`.
#[inline]
fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_on_simplex(w: &[f64]) {
        assert!(w.iter().all(|&v| v >= -1e-12), "non-negative: {w:?}");
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sums to one: {s}");
    }

    #[test]
    fn simplex_projection_of_simplex_point_is_identity() {
        let mut w = vec![0.2, 0.3, 0.5];
        let orig = w.clone();
        project_simplex(&mut w);
        for (a, b) in w.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn simplex_projection_produces_simplex_point() {
        let mut w = vec![2.0, -1.0, 0.5, 3.0];
        project_simplex(&mut w);
        assert_on_simplex(&w);
    }

    #[test]
    fn simplex_projection_uniform_for_equal_inputs() {
        let mut w = vec![5.0; 4];
        project_simplex(&mut w);
        for &v in &w {
            assert!((v - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn simplex_projection_single_element() {
        let mut w = vec![-3.0];
        project_simplex(&mut w);
        assert!((w[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_empty_is_noop() {
        let mut w: Vec<f64> = vec![];
        project_simplex(&mut w);
        assert!(w.is_empty());
    }

    #[test]
    fn soft_threshold_vec_shrinks_towards_zero() {
        let mut w = vec![2.0, -0.5, -3.0];
        soft_threshold_vec(&mut w, 1.0);
        assert_eq!(w, vec![1.0, 0.0, -2.0]);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }
}
