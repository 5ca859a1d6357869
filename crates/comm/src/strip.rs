//! The indexed-strip wire format of sparsity-aware redistribution.
//!
//! A redistribution link carries a dense `r×w` piece of an activation
//! matrix. When the activation is the product of a sparse aggregation,
//! many of those rows are exactly zero (every element has the bit pattern
//! `0x0000_0000`): vertices with no in-edges under row normalization, or
//! rows a ReLU zeroed wholesale. [`pack_nonzero_rows`] rewrites such a
//! piece as an *indexed strip* — a row-id index column plus the surviving
//! rows' values — and [`unpack_rows`] reconstructs the original piece
//! bit-for-bit, zero-filling the dropped rows with `+0.0`.
//!
//! Wire format (one `Mat` of shape `(k+1) × (w+1)`, `k` = surviving rows):
//!
//! ```text
//! [ bits(r)      bits(!r)  0      ...  0      ]   header: original row count
//! [ bits(id_0)   v(id_0,0) v(id_0,1) ...      ]   one row per surviving row
//! [ bits(id_1)   v(id_1,0) ...                ]   ids strictly increasing
//! ```
//!
//! Row ids and the header ride in `f32` bit patterns (`f32::from_bits`),
//! so the strip stays an ordinary `Mat` and flows through the fabric, the
//! fault-injection envelope protocol and the chunk pipeline unchanged.
//! The header repeats the row count complemented: a Row→Col receiver
//! knows only the width, so a damaged count would otherwise unpack to a
//! piece of another height.
//!
//! Packing is **adaptive**: a strip is produced only when it is strictly
//! smaller than the dense piece (`(k+1)(w+1) < r·w` elements). Otherwise
//! the piece travels raw, so actual bytes never exceed the dense bound the
//! paper's volume formulas predict.
//!
//! The receiver tells strips from raw pieces with one known dimension
//! ([`Expect`]): a Row→Col link fixes the column count `w` (a strip has
//! `w+1 ≠ w` columns), a Col→Row link fixes the row count `r` (strict
//! profitability implies a strip has `k+1 < r` rows — `(k+1)(w+1) < r·w`
//! gives `k+1 < r` for any `w ≥ 1`, and `w = 0` pieces never pack).

use rdm_dense::Mat;
use std::mem::MaybeUninit;
use std::ops::Range;

/// The one dimension of an incoming redistribution piece the receiver
/// knows a priori, used to discriminate raw pieces from indexed strips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Row→Col links: every incoming piece spans this rank's column slice,
    /// so a raw piece has exactly this many columns.
    Cols(usize),
    /// Col→Row links: every incoming piece spans this rank's row slice,
    /// so a raw piece has exactly this many rows.
    Rows(usize),
}

/// Is every element of `row` the bit pattern `0x0000_0000` (`+0.0`)?
/// `-0.0` and denormals are *kept*: only bit-exact zero rows may be
/// dropped, which is what makes reconstruction lossless.
fn is_bitzero(row: &[f32]) -> bool {
    row.iter().all(|v| v.to_bits() == 0)
}

/// Pack `m` into an indexed strip, or `None` when the strip would not be
/// strictly smaller than `m` (the caller then sends `m` raw).
pub fn pack_nonzero_rows(m: &Mat) -> Option<Mat> {
    pack_block(m, 0..m.rows(), 0..m.cols())
}

/// [`pack_nonzero_rows`] of the block `rows × cols` of `m`, read in place:
/// a redistribution packs each piece straight from its local block.
pub(crate) fn pack_block(m: &Mat, rows: Range<usize>, cols: Range<usize>) -> Option<Mat> {
    let (r, w) = (rows.len(), cols.len());
    if r == 0 || w == 0 {
        return None;
    }
    let row = |i: usize| &m.row(rows.start + i)[cols.clone()];
    let keep: Vec<usize> = (0..r).filter(|&i| !is_bitzero(row(i))).collect();
    let k = keep.len();
    if (k + 1) * (w + 1) >= r * w {
        return None;
    }
    let fill = |out: &mut [MaybeUninit<f32>]| {
        let (header, body) = out.split_at_mut(w + 1);
        header[0].write(f32::from_bits(r as u32));
        header[1].write(f32::from_bits(!(r as u32)));
        header[2..].fill(MaybeUninit::new(0.0));
        for (dst, &i) in body.chunks_exact_mut(w + 1).zip(&keep) {
            dst[0].write(f32::from_bits(i as u32));
            dst[1..].write_copy_of_slice(row(i));
        }
    };
    // SAFETY: the header row and one row per kept id cover all `k + 1`
    // rows of width `w + 1`.
    Some(unsafe { Mat::write_once(k + 1, w + 1, fill) })
}

/// One redistribution piece as its receiver reads it: a block of a raw
/// matrix, or an indexed strip expanded on the fly. [`Piece::rows`] yields
/// the original piece row by row, so a receiver can store it straight at
/// its final offset.
pub(crate) struct Piece<'a> {
    src: &'a Mat,
    /// Original shape.
    rows: usize,
    cols: usize,
    /// Raw: the block's first row and first column in `src`. Strip:
    /// `None` (values start at column 1, ids in column 0).
    at: Option<(usize, usize)>,
}

impl<'a> Piece<'a> {
    /// The block `rows × cols` of a raw matrix.
    ///
    /// # Panics
    /// If the block is out of bounds.
    pub fn block(src: &'a Mat, rows: Range<usize>, cols: Range<usize>) -> Self {
        assert!(
            rows.end <= src.rows() && cols.end <= src.cols(),
            "piece block out of bounds"
        );
        Piece {
            src,
            rows: rows.len(),
            cols: cols.len(),
            at: Some((rows.start, cols.start)),
        }
    }

    /// An incoming piece on the indexed wire: raw when its dimension
    /// matches `expect`, otherwise a strip [`pack_nonzero_rows`] made.
    ///
    /// # Panics
    /// If `msg` is neither a raw piece matching `expect` nor a well-formed
    /// strip consistent with it (shape off by more than the strip's `+1`,
    /// a header that does not check or contradicts `expect`, or row ids out
    /// of range or not strictly increasing) — any of which means sender
    /// and receiver disagree about the link geometry, or the strip was
    /// damaged.
    pub fn unpack(msg: &'a Mat, expect: Expect) -> Self {
        let (rows, cols) = match expect {
            Expect::Cols(w) => {
                if msg.cols() == w {
                    return Self::block(msg, 0..msg.rows(), 0..w);
                }
                assert_eq!(
                    msg.cols(),
                    w + 1,
                    "strip width {} matches neither raw {w} nor indexed {}",
                    msg.cols(),
                    w + 1
                );
                (header(msg), w)
            }
            Expect::Rows(r) => {
                if msg.rows() == r {
                    return Self::block(msg, 0..r, 0..msg.cols());
                }
                let header = header(msg);
                assert_eq!(
                    header, r,
                    "strip header says {header} original rows, link expects {r}"
                );
                (r, msg.cols() - 1)
            }
        };
        let k = msg.rows() - 1;
        assert!(
            (k + 1) * (cols + 1) < rows * cols,
            "non-profitable strip ({k} of {rows} rows kept) should have been sent raw"
        );
        let mut prev: Option<usize> = None;
        for s in 1..=k {
            let i = msg.get(s, 0).to_bits() as usize;
            assert!(i < rows, "strip row id {i} out of range 0..{rows}");
            assert!(
                prev.is_none_or(|p| p < i),
                "strip row ids not strictly increasing"
            );
            prev = Some(i);
        }
        Piece {
            src: msg,
            rows,
            cols,
            at: None,
        }
    }

    /// The original piece's `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The whole piece as one row-major slice, when it is a raw block
    /// spanning every column of its matrix (then its rows are adjacent).
    pub fn contiguous(&self) -> Option<&'a [f32]> {
        let (r0, c0) = self.at?;
        (c0 == 0 && self.cols == self.src.cols())
            .then(|| &self.src.as_slice()[r0 * self.cols..(r0 + self.rows) * self.cols])
    }

    /// The original piece's rows in order: `Some(values)` for a row that
    /// travelled, `None` for a row the strip dropped (all `+0.0`).
    pub fn rows(&self) -> impl Iterator<Item = Option<&'a [f32]>> + '_ {
        let src = self.src;
        let mut next = 1;
        (0..self.rows).map(move |i| match self.at {
            Some((r0, c0)) => Some(&src.row(r0 + i)[c0..c0 + self.cols]),
            None if next < src.rows() && src.get(next, 0).to_bits() as usize == i => {
                next += 1;
                Some(&src.row(next - 1)[1..])
            }
            None => None,
        })
    }
}

/// The original row count a strip's header carries.
///
/// # Panics
/// If `msg` has no room for a header, or its two copies disagree.
fn header(msg: &Mat) -> usize {
    assert!(
        msg.rows() >= 1 && msg.cols() >= 2,
        "strip {}×{} cannot carry a header",
        msg.rows(),
        msg.cols()
    );
    let r = msg.get(0, 0).to_bits();
    assert_eq!(!r, msg.get(0, 1).to_bits(), "strip header is corrupt");
    r as usize
}

/// Store one row [`Piece::rows`] yielded into `dst`: its values, or
/// `+0.0` for a dropped row.
///
/// # Panics
/// If the lengths differ.
pub(crate) fn store_row(dst: &mut [MaybeUninit<f32>], row: Option<&[f32]>) {
    match row {
        Some(values) => {
            dst.write_copy_of_slice(values);
        }
        None => dst.fill(MaybeUninit::new(0.0)),
    }
}

/// Undo [`pack_nonzero_rows`] on the receive side. Raw pieces (dimension
/// matching `expect`) pass through untouched; strips are expanded to their
/// original shape with dropped rows zero-filled (`+0.0` — bit-identical to
/// what the sender elided).
///
/// # Panics
/// As `Piece::unpack`.
pub fn unpack_rows(msg: Mat, expect: Expect) -> Mat {
    let piece = Piece::unpack(&msg, expect);
    if piece.at.is_some() {
        return msg; // raw
    }
    let (rows, cols) = piece.shape();
    let fill = |out: &mut [MaybeUninit<f32>]| {
        for (dst, row) in out.chunks_exact_mut(cols).zip(piece.rows()) {
            store_row(dst, row);
        }
    };
    // SAFETY: a strip has `cols ≥ 1` (zero-width pieces never pack), and
    // `rows()` yields all `rows` rows of width `cols`.
    unsafe { Mat::write_once(rows, cols, fill) }
}

/// Dense-equivalent byte count of a piece: what the link would carry
/// without packing. The figure `RankCtx::send_compressed` books as
/// `dense_bytes`.
pub fn dense_bytes_of(rows: usize, cols: usize) -> usize {
    rows * cols * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Mat, expect: Expect) -> Mat {
        match pack_nonzero_rows(m) {
            Some(strip) => {
                assert!(
                    strip.nbytes() < m.nbytes(),
                    "strip {}B not smaller than dense {}B",
                    strip.nbytes(),
                    m.nbytes()
                );
                unpack_rows(strip, expect)
            }
            None => unpack_rows(m.clone(), expect),
        }
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn roundtrip_is_bitwise_for_sparse_pieces() {
        // 8 rows, 2 nonzero: profitable, and -0.0 rows must survive.
        let mut m = Mat::zeros(8, 5);
        m.set(2, 0, 1.5);
        m.set(6, 4, -0.0); // bit pattern 0x8000_0000: not droppable
        for expect in [Expect::Cols(5), Expect::Rows(8)] {
            let back = roundtrip(&m, expect);
            assert_eq!(bits(&back), bits(&m), "{expect:?}");
        }
        assert!(pack_nonzero_rows(&m).is_some());
    }

    #[test]
    fn dense_pieces_travel_raw() {
        let m = Mat::from_fn(4, 3, |i, j| (i * 3 + j + 1) as f32);
        assert!(pack_nonzero_rows(&m).is_none());
        // Raw pass-through is the identity.
        assert_eq!(bits(&unpack_rows(m.clone(), Expect::Cols(3))), bits(&m));
        assert_eq!(bits(&unpack_rows(m.clone(), Expect::Rows(4))), bits(&m));
    }

    #[test]
    fn packing_is_strictly_profitable_or_skipped() {
        // Sweep shapes and sparsity levels: whenever a strip is produced it
        // must be smaller than dense, and whenever it is skipped the kept
        // rows must be too many for the index overhead to pay off.
        for r in [0usize, 1, 2, 3, 8, 17] {
            for w in [0usize, 1, 2, 7] {
                for nz in 0..=r {
                    let m = Mat::from_fn(r, w, |i, _| if i < nz { 1.0 } else { 0.0 });
                    match pack_nonzero_rows(&m) {
                        Some(s) => {
                            assert!(s.nbytes() < m.nbytes(), "r={r} w={w} nz={nz}");
                            assert!(s.rows() < r, "strip must have fewer rows than raw");
                        }
                        None => {
                            let k = if w == 0 { 0 } else { nz };
                            assert!(
                                r == 0 || w == 0 || (k + 1) * (w + 1) >= r * w,
                                "r={r} w={w} nz={nz}: profitable but skipped"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_zero_piece_packs_to_header_only() {
        let m = Mat::zeros(16, 4);
        let s = pack_nonzero_rows(&m).unwrap();
        assert_eq!((s.rows(), s.cols()), (1, 5));
        let back = unpack_rows(s, Expect::Cols(4));
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn zero_dim_pieces_never_pack() {
        assert!(pack_nonzero_rows(&Mat::zeros(0, 7)).is_none());
        assert!(pack_nonzero_rows(&Mat::zeros(7, 0)).is_none());
        assert!(pack_nonzero_rows(&Mat::zeros(0, 0)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corrupt_row_id_is_rejected() {
        let mut m = Mat::zeros(8, 5);
        m.set(3, 1, 2.0);
        let mut s = pack_nonzero_rows(&m).unwrap();
        s.set(1, 0, f32::from_bits(100));
        let _ = unpack_rows(s, Expect::Cols(5));
    }

    #[test]
    #[should_panic(expected = "link expects")]
    fn header_mismatch_is_rejected() {
        let mut m = Mat::zeros(8, 5);
        m.set(3, 1, 2.0);
        let s = pack_nonzero_rows(&m).unwrap();
        let _ = unpack_rows(s, Expect::Rows(9));
    }
}
