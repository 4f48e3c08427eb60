//! Scalar and dense-slice kernels: the `Dot_Product`, `Scale_And_Add` and
//! `Sigmoid` primitives of Figure 4, plus numerically-stable log-sum-exp used
//! by the CRF task.

/// Dot product of two equally-long slices.
///
/// The shorter length is used if the slices disagree so the kernel never
/// panics on ragged inputs (the storage layer validates dimensions upstream).
///
/// Four independent accumulators let the compiler keep four FMA chains in
/// flight and auto-vectorize; this runs once per tuple per epoch, so the
/// constant factor here is the system's per-tuple cost (Figure 4).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `w += c * x` over dense slices (`Scale_And_Add` in the paper's Figure 4).
#[inline]
pub fn scale_and_add(w: &mut [f64], x: &[f64], c: f64) {
    let n = w.len().min(x.len());
    let (w, x) = (&mut w[..n], &x[..n]);
    let mut chunks_w = w.chunks_exact_mut(4);
    let mut chunks_x = x.chunks_exact(4);
    for (cw, cx) in chunks_w.by_ref().zip(chunks_x.by_ref()) {
        cw[0] += c * cx[0];
        cw[1] += c * cx[1];
        cw[2] += c * cx[2];
        cw[3] += c * cx[3];
    }
    for (slot, v) in chunks_w
        .into_remainder()
        .iter_mut()
        .zip(chunks_x.remainder())
    {
        *slot += c * v;
    }
}

/// The logistic sigmoid `1 / (1 + exp(-z))`, evaluated without overflow for
/// large `|z|`.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + exp(z))` evaluated without overflow; the logistic loss of a
/// single example is `log1p_exp(-y * w.x)`.
#[inline]
pub fn log1p_exp(z: f64) -> f64 {
    if z > 35.0 {
        // exp(z) dominates; log(1+exp(z)) ~ z
        z
    } else if z < -35.0 {
        // exp(z) ~ 0
        z.exp()
    } else {
        z.exp().ln_1p()
    }
}

/// Numerically stable `log(sum_i exp(xs[i]))`.
///
/// Returns negative infinity for an empty slice, matching the convention
/// `log(0) = -inf` so callers can fold sequences without special cases.
#[inline]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    let sum: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn dot_ragged_uses_shorter() {
        assert!((dot(&[1.0, 2.0], &[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unrolled_kernels_match_naive_loops_across_lengths() {
        for n in 0..23usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.1).collect();
            let naive_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive_dot).abs() < 1e-12, "dot n={n}");
            let mut w = a.clone();
            scale_and_add(&mut w, &b, 0.25);
            for i in 0..n {
                assert!(
                    (w[i] - (a[i] + 0.25 * b[i])).abs() < 1e-12,
                    "axpy n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn scale_and_add_basic() {
        let mut w = vec![1.0, 1.0];
        scale_and_add(&mut w, &[2.0, -1.0], 0.5);
        assert_eq!(w, vec![2.0, 0.5]);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        let z = 1.7;
        assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for &z in &[-10.0, -1.0, 0.0, 1.0, 10.0] {
            let naive = (1.0f64 + f64::exp(z)).ln();
            assert!((log1p_exp(z) - naive).abs() < 1e-9, "z={z}");
        }
    }

    #[test]
    fn log1p_exp_large_inputs_do_not_overflow() {
        assert!((log1p_exp(1000.0) - 1000.0).abs() < 1e-9);
        assert!(log1p_exp(-1000.0) >= 0.0);
        assert!(log1p_exp(-1000.0) < 1e-300);
    }

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs = [0.1, -2.0, 3.5];
        let naive = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_and_large() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        let big = [1000.0, 1000.0];
        assert!((log_sum_exp(&big) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
    }
}
