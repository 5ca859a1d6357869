//! Element-wise and row-wise operations used by GCN layers.

use crate::mat::Mat;
use rayon::prelude::*;

/// Parallelism threshold: below this, rayon overhead beats the win.
pub const PAR_MIN: usize = 1 << 14;

/// `f` over `PAR_MIN`-element chunks of `m` in parallel (inline below
/// `PAR_MIN`): `f(i, chunk)` sees chunk `i`, elements `i·PAR_MIN..`.
fn chunked(m: &mut Mat, f: impl Fn(usize, &mut [f32]) + Sync + Send) {
    m.as_mut_slice()
        .par_chunks_mut(PAR_MIN)
        .enumerate()
        .for_each(|(i, c)| f(i, c));
}

/// `ReLU(x)` element-wise, in place. A select with an unconditional
/// store, so it vectorizes and never mispredicts on mixed signs; it is
/// bitwise `if x < 0 { x = 0 }` (NaN and `−0.0` are kept).
pub fn relu_in_place(m: &mut Mat) {
    chunked(m, |_, c| {
        for v in c {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
    });
}

/// Backward of ReLU in place: `grad ← grad ⊙ 1[z > 0]`, where `z` is the
/// pre-activation. Branch-free like [`relu_in_place`], and bitwise
/// `if z <= 0 { grad = 0 }` (a NaN `z` keeps its gradient).
///
/// # Panics
/// If the shapes differ.
pub fn relu_backward_in_place(grad: &mut Mat, z: &Mat) {
    assert_eq!(grad.shape(), z.shape(), "relu_backward shape mismatch");
    let zd = z.as_slice();
    chunked(grad, |i, c| {
        for (g, &zv) in c.iter_mut().zip(&zd[i * PAR_MIN..]) {
            *g = if zv <= 0.0 { 0.0 } else { *g };
        }
    });
}

/// `ReLU(x)` element-wise, out of place: [`relu_in_place`] on a copy.
pub fn relu(m: &Mat) -> Mat {
    let mut out = m.clone();
    relu_in_place(&mut out);
    out
}

/// Backward of ReLU out of place: [`relu_backward_in_place`] on a copy of
/// `grad`.
pub fn relu_backward(grad: &Mat, z: &Mat) -> Mat {
    let mut out = grad.clone();
    relu_backward_in_place(&mut out, z);
    out
}

/// Element-wise product `a ⊙ b`.
pub fn hadamard(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.shape(), b.shape(), "hadamard shape mismatch");
    let mut out = a.clone();
    out.as_mut_slice()
        .iter_mut()
        .zip(b.as_slice())
        .for_each(|(x, &y)| *x *= y);
    out
}

/// `a += b`.
pub fn add_assign(a: &mut Mat, b: &Mat) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    a.as_mut_slice()
        .iter_mut()
        .zip(b.as_slice())
        .for_each(|(x, &y)| *x += y);
}

/// `m *= s` in place.
pub fn scale(m: &mut Mat, s: f32) {
    chunked(m, |_, c| c.iter_mut().for_each(|v| *v *= s));
}

/// Row-wise softmax (each row sums to 1). Numerically stabilized by the
/// row max.
pub fn softmax_rows(m: &Mat) -> Mat {
    let mut out = m.clone();
    let cols = m.cols();
    if cols == 0 {
        return out;
    }
    out.as_mut_slice().par_chunks_mut(cols).for_each(|row| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    });
    out
}

/// Row-wise log-softmax, the numerically stable form used with NLL loss.
pub fn log_softmax_rows(m: &Mat) -> Mat {
    let mut out = m.clone();
    let cols = m.cols();
    if cols == 0 {
        return out;
    }
    out.as_mut_slice().par_chunks_mut(cols).for_each(|row| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    });
    out
}

/// Largest absolute element-wise difference between two same-shape matrices.
pub fn max_abs_diff(a: &Mat, b: &Mat) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// True when every element of `a` is within `tol` of `b` (absolute, plus a
/// relative term for large magnitudes).
pub fn allclose(a: &Mat, b: &Mat, tol: f32) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        (x - y).abs() <= tol * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let m = Mat::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&m).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_by_preactivation() {
        let g = Mat::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let z = Mat::from_vec(1, 4, vec![-1.0, 0.5, 0.0, 3.0]);
        assert_eq!(relu_backward(&g, &z).as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn hadamard_and_add() {
        let a = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Mat::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[4.0, 10.0, 18.0]);
        let mut c = a.clone();
        add_assign(&mut c, &b);
        assert_eq!(c.as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Mat::random(10, 7, 3.0, 11);
        let s = softmax_rows(&m);
        for i in 0..10 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
            assert!(s.row(i).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let m = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let mut shifted = m.clone();
        for v in shifted.as_mut_slice() {
            *v += 100.0;
        }
        assert!(allclose(&softmax_rows(&m), &softmax_rows(&shifted), 1e-5));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let m = Mat::random(5, 6, 2.0, 13);
        let a = log_softmax_rows(&m);
        let mut b = softmax_rows(&m);
        for v in b.as_mut_slice() {
            *v = v.ln();
        }
        assert!(allclose(&a, &b, 1e-5));
    }

    #[test]
    fn log_softmax_stable_for_large_logits() {
        let m = Mat::from_vec(1, 2, vec![1000.0, 0.0]);
        let s = log_softmax_rows(&m);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((s.get(0, 0) - 0.0).abs() < 1e-4);
    }

    #[test]
    fn allclose_detects_shape_and_value_diff() {
        let a = Mat::zeros(2, 2);
        assert!(!allclose(&a, &Mat::zeros(2, 3), 1e-3));
        let mut b = a.clone();
        b.set(0, 0, 0.01);
        assert!(!allclose(&a, &b, 1e-3));
        assert!(allclose(&a, &b, 0.1));
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let a = Mat::random(4, 4, 1.0, 17);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }
}
