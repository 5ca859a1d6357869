//! Divide / merge kernels for matrix redistribution (Fig. 7 of the paper).
//!
//! Redistribution between a row-sliced ("horizontal") and a column-sliced
//! ("vertical") distribution is: *divide* the local block into `P` chunks
//! along the other axis, exchange chunks all-to-all, then *merge* the
//! received chunks. These helpers implement divide and merge on whole
//! matrices; `rdm-comm`'s redistribution does both in place (it packs each
//! piece from its block of the local slice and lands each received piece
//! at its final offset) and does not call them.
//!
//! The chunking uses [`part_range`] so it agrees exactly with how the
//! distributed matrices partition rows/columns.

use crate::mat::{part_range, Mat};
use std::mem::MaybeUninit;

/// Divide `m` into `p` column chunks; chunk `r` holds the columns that rank
/// `r` owns under a `p`-way column slicing of `m`'s `m.cols()` columns.
pub fn split_cols(m: &Mat, p: usize) -> Vec<Mat> {
    (0..p)
        .map(|r| {
            let rng = part_range(m.cols(), p, r);
            m.col_block(rng.start, rng.end)
        })
        .collect()
}

/// Divide `m` into `p` row chunks; chunk `r` holds the rows rank `r` owns
/// under a `p`-way row slicing.
pub fn split_rows(m: &Mat, p: usize) -> Vec<Mat> {
    (0..p)
        .map(|r| {
            let rng = part_range(m.rows(), p, r);
            m.row_block(rng.start, rng.end)
        })
        .collect()
}

/// Merge row chunks back into one matrix by vertical concatenation.
///
/// # Panics
/// If chunks disagree on column count.
pub fn vstack(chunks: &[Mat]) -> Mat {
    assert!(!chunks.is_empty(), "vstack of zero chunks");
    let cols = chunks[0].cols();
    let rows: usize = chunks.iter().map(Mat::rows).sum();
    let mut data = crate::pool::take_empty(rows * cols);
    for c in chunks {
        assert_eq!(c.cols(), cols, "vstack: inconsistent column counts");
        data.extend_from_slice(c.as_slice());
    }
    Mat::from_vec(rows, cols, data)
}

/// Merge column chunks back into one matrix by horizontal concatenation,
/// each element written once.
///
/// # Panics
/// If chunks disagree on row count.
pub fn hstack(chunks: &[Mat]) -> Mat {
    assert!(!chunks.is_empty(), "hstack of zero chunks");
    let rows = chunks[0].rows();
    let cols: usize = chunks.iter().map(Mat::cols).sum();
    for c in chunks {
        assert_eq!(c.rows(), rows, "hstack: inconsistent row counts");
    }
    let fill = |out: &mut [MaybeUninit<f32>]| {
        let mut c0 = 0;
        for c in chunks {
            for i in 0..rows {
                out[i * cols + c0..][..c.cols()].write_copy_of_slice(c.row(i));
            }
            c0 += c.cols();
        }
    };
    // SAFETY: every chunk has `rows` rows and their widths sum to `cols`,
    // so side by side they cover the output.
    unsafe { Mat::write_once(rows, cols, fill) }
}

/// Merge step of a horizontal→vertical redistribution: rank `r` received one
/// chunk from every rank; chunk `s` is the `(rows of rank s) × (my cols)`
/// piece. Stacking them vertically yields this rank's full column slice.
pub fn merge_row_chunks(chunks: &[Mat]) -> Mat {
    vstack(chunks)
}

/// Merge step of a vertical→horizontal redistribution: rank `r` received one
/// chunk from every rank; chunk `s` is the `(my rows) × (cols of rank s)`
/// piece. Concatenating horizontally yields this rank's full row slice.
pub fn merge_col_chunks(chunks: &[Mat]) -> Mat {
    hstack(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_cols_then_hstack_roundtrips() {
        let m = Mat::from_fn(5, 11, |i, j| (i * 100 + j) as f32);
        for p in [1, 2, 3, 4, 11] {
            let parts = split_cols(&m, p);
            assert_eq!(parts.len(), p);
            assert_eq!(hstack(&parts), m);
        }
    }

    #[test]
    fn split_rows_then_vstack_roundtrips() {
        let m = Mat::from_fn(13, 4, |i, j| (i * 100 + j) as f32);
        for p in [1, 2, 5, 13] {
            let parts = split_rows(&m, p);
            assert_eq!(parts.len(), p);
            assert_eq!(vstack(&parts), m);
        }
    }

    #[test]
    fn split_cols_matches_part_range_widths() {
        let m = Mat::zeros(2, 10);
        let parts = split_cols(&m, 4);
        let widths: Vec<_> = parts.iter().map(Mat::cols).collect();
        assert_eq!(widths, vec![3, 3, 2, 2]);
    }

    #[test]
    fn full_h_to_v_redistribution_simulated() {
        // Simulate the Fig. 7a pipeline on 3 "ranks" without a communicator:
        // global 9x6 matrix, row-sliced; redistribute to column-sliced.
        let global = Mat::from_fn(9, 6, |i, j| (i * 10 + j) as f32);
        let p = 3;
        let row_slices = split_rows(&global, p);
        // divide: each rank splits its row slice into p column chunks
        let divided: Vec<Vec<Mat>> = row_slices.iter().map(|s| split_cols(s, p)).collect();
        // exchange + merge: rank r gathers chunk r from every sender s
        #[allow(clippy::needless_range_loop)]
        for r in 0..p {
            let received: Vec<Mat> = (0..p).map(|s| divided[s][r].clone()).collect();
            let col_slice = merge_row_chunks(&received);
            let rng = crate::mat::part_range(global.cols(), p, r);
            assert_eq!(col_slice, global.col_block(rng.start, rng.end));
        }
    }

    #[test]
    fn full_v_to_h_redistribution_simulated() {
        let global = Mat::from_fn(8, 9, |i, j| (i * 10 + j) as f32);
        let p = 4;
        let col_slices = split_cols(&global, p);
        let divided: Vec<Vec<Mat>> = col_slices.iter().map(|s| split_rows(s, p)).collect();
        #[allow(clippy::needless_range_loop)]
        for r in 0..p {
            let received: Vec<Mat> = (0..p).map(|s| divided[s][r].clone()).collect();
            let row_slice = merge_col_chunks(&received);
            let rng = crate::mat::part_range(global.rows(), p, r);
            assert_eq!(row_slice, global.row_block(rng.start, rng.end));
        }
    }

    #[test]
    #[should_panic]
    fn vstack_inconsistent_cols_panics() {
        let _ = vstack(&[Mat::zeros(1, 2), Mat::zeros(1, 3)]);
    }
}
