//! The dense matrix type.

use crate::pool;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense, row-major `f32` matrix with flat `Vec` storage.
///
/// Row-major layout means row `i` occupies `data[i*cols .. (i+1)*cols]`,
/// which keeps SpMM row accumulation and GEMM panel traversal contiguous.
///
/// Storage is recycled through the per-thread workspace [`pool`]: every
/// constructor (except [`Mat::from_vec`], which adopts a caller buffer)
/// draws from the pool, and `Drop` returns the buffer to it — so
/// steady-state training epochs perform no fresh heap allocations.
#[derive(Debug)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Drop for Mat {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl Clone for Mat {
    fn clone(&self) -> Self {
        let mut data = pool::take_empty(self.data.len());
        data.extend_from_slice(&self.data);
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl PartialEq for Mat {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl Mat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: pool::take_zeroed(rows * cols),
        }
    }

    /// Build from an existing flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = pool::take_empty(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Deterministic uniform random matrix in `[-scale, scale]`.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new_inclusive(-scale, scale);
        let mut data = pool::take_empty(rows * cols);
        data.extend((0..rows * cols).map(|_| dist.sample(&mut rng)));
        Mat { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization for a `fan_in × fan_out` weight.
    pub fn glorot(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let scale = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::random(fan_in, fan_out, scale, seed)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer (which leaves the pool with it).
    pub fn into_vec(self) -> Vec<f32> {
        let mut this = std::mem::ManuallyDrop::new(self);
        std::mem::take(&mut this.data)
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor (bounds-checked in debug builds).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter (bounds-checked in debug builds).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// `out = self[rows, :]`: row `i` of `out` is row `rows[i]` of `self`.
    /// `out`'s buffer is reused while its capacity suffices and swapped
    /// for a pool buffer otherwise, so a caller gathering into one `out`
    /// allocates nothing once it has gathered its largest block.
    pub fn gather_rows_into(&self, rows: &[u32], out: &mut Mat) {
        let len = rows.len() * self.cols;
        if out.data.capacity() < len {
            pool::give(std::mem::replace(&mut out.data, pool::take_empty(len)));
        }
        out.data.clear();
        for &r in rows {
            out.data.extend_from_slice(self.row(r as usize));
        }
        out.rows = rows.len();
        out.cols = self.cols;
    }

    /// Copy of rows `r0..r1` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Mat {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds"
        );
        let src = &self.data[r0 * self.cols..r1 * self.cols];
        let mut data = pool::take_empty(src.len());
        data.extend_from_slice(src);
        Mat {
            rows: r1 - r0,
            cols: self.cols,
            data,
        }
    }

    /// Copy of columns `c0..c1` as a new matrix.
    pub fn col_block(&self, c0: usize, c1: usize) -> Mat {
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col range {c0}..{c1} out of bounds"
        );
        let w = c1 - c0;
        let mut data = pool::take_empty(self.rows * w);
        for i in 0..self.rows {
            data.extend_from_slice(&self.row(i)[c0..c1]);
        }
        Mat {
            rows: self.rows,
            cols: w,
            data,
        }
    }

    /// Write `block` into this matrix starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Mat) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            let dst =
                &mut self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + block.cols];
            dst.copy_from_slice(block.row(i));
        }
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        // Blocked to keep both source rows and destination rows in cache.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Elements the buffer holds room for (its workspace-pool class).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Number of bytes of the payload (used by the space model and the
    /// communicator's byte accounting).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Evenly split `n` items over `p` parts: part `r` gets range
/// `part_range(n, p, r)`. The first `n % p` parts get one extra item, so
/// parts differ in size by at most one — the partitioning used for both
/// row-sliced and column-sliced distributions throughout the paper.
#[inline]
pub fn part_range(n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
    assert!(r < p, "part index {r} out of {p}");
    let base = n / p;
    let extra = n % p;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn eye_diag() {
        let m = Mat::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn gather_rows_into_reuses_the_buffer_once_large_enough() {
        let src = Mat::from_fn(5, 3, |i, j| (i * 10 + j) as f32);
        let mut out = Mat::from_vec(0, 0, Vec::new());
        src.gather_rows_into(&[4, 0, 2], &mut out);
        assert_eq!(
            out,
            Mat::from_fn(3, 3, |i, j| ([4, 0, 2][i] * 10 + j) as f32)
        );
        let buf = out.as_slice().as_ptr();
        src.gather_rows_into(&[1], &mut out);
        assert_eq!(out.as_slice(), src.row(1));
        assert_eq!(out.as_slice().as_ptr(), buf, "a smaller gather reallocated");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Mat::random(4, 4, 1.0, 7);
        let b = Mat::random(4, 4, 1.0, 7);
        let c = Mat::random(4, 4, 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_respects_scale() {
        let m = Mat::random(16, 16, 0.5, 3);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn row_and_col_block_roundtrip() {
        let m = Mat::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let rb = m.row_block(1, 3);
        assert_eq!(rb.shape(), (2, 6));
        assert_eq!(rb.get(0, 0), 6.0);
        let cb = m.col_block(2, 5);
        assert_eq!(cb.shape(), (4, 3));
        assert_eq!(cb.get(3, 0), 20.0);
    }

    #[test]
    fn set_block_writes_in_place() {
        let mut m = Mat::zeros(4, 4);
        let b = Mat::from_fn(2, 2, |i, j| (i + j + 1) as f32);
        m.set_block(1, 2, &b);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.get(2, 3), 3.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::random(17, 23, 1.0, 1);
        let t = m.transpose();
        assert_eq!(t.shape(), (23, 17));
        assert_eq!(t.transpose(), m);
        assert_eq!(m.get(5, 11), t.get(11, 5));
    }

    #[test]
    fn part_range_covers_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for r in 0..p {
                    let rng = part_range(n, p, r);
                    assert_eq!(rng.start, prev_end, "parts must be contiguous");
                    prev_end = rng.end;
                    covered += rng.len();
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn part_range_balanced_within_one() {
        for n in [9usize, 10, 11] {
            let sizes: Vec<_> = (0..4).map(|r| part_range(n, 4, r).len()).collect();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "sizes {sizes:?}");
        }
    }

    #[test]
    fn fro_norm_matches_manual() {
        let m = Mat::from_vec(1, 3, vec![3.0, 4.0, 0.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-6);
    }
}
