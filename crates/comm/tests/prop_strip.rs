//! Property tests of the indexed-strip wire format: packing round-trips
//! every piece bit for bit, and a damaged strip is either still read as a
//! piece of the original shape or rejected with one of `Piece::unpack`'s
//! named panics — never a piece of another shape.

use proptest::prelude::*;
use rdm_comm::{pack_nonzero_rows, unpack_rows, Expect};
use rdm_dense::Mat;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The panics `Piece::unpack` names; any other panic is a decoder defect.
const NAMED: [&str; 7] = [
    "matches neither raw",
    "cannot carry a header",
    "strip header is corrupt",
    "link expects",
    "should have been sent raw",
    "out of range",
    "not strictly increasing",
];

/// An `r × w` piece whose row `i` is, by `kinds[i] % 6`: all `+0.0`
/// (three in six, so strips pay), `+0.0` but for one `-0.0`, NaNs with
/// arbitrary payloads, or arbitrary bits. `all_zero` zeroes every row.
fn piece(r: usize, w: usize, kinds: &[u8], cells: &[u32], all_zero: bool) -> Mat {
    Mat::from_fn(r, w, |i, j| {
        let bits = cells[(i * w + j) % cells.len()];
        let bits = match (all_zero, kinds[i] % 6) {
            (true, _) | (false, 0..=2) => 0,
            (false, 3) => u32::from(j == i % w) << 31,
            (false, 4) => 0x7f80_0001 | bits,
            _ => bits,
        };
        f32::from_bits(bits)
    })
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Both ways a receiver may know a piece of `m`'s shape.
fn links(m: &Mat) -> [Expect; 2] {
    [Expect::Cols(m.cols()), Expect::Rows(m.rows())]
}

/// `m` with bit `bit` of element `(i, j)` flipped.
fn flipped(m: &Mat, i: usize, j: usize, bit: u32) -> Mat {
    let mut m = m.clone();
    m.set(i, j, f32::from_bits(m.get(i, j).to_bits() ^ (1 << bit)));
    m
}

fn the_piece() -> impl Strategy<Value = Mat> {
    let cells = proptest::collection::vec(0u32..=u32::MAX, 1..40);
    let kinds = proptest::collection::vec(0u8..6, 12..13);
    (0usize..12, 0usize..6, kinds, cells, 0u8..4)
        .prop_map(|(r, w, kinds, cells, zero)| piece(r, w, &kinds, &cells, zero == 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever travels — a strip or the raw piece — unpacks to the piece,
    /// bit for bit: `-0.0` and NaN payloads included, all-zero and
    /// zero-width pieces too.
    #[test]
    fn packing_round_trips_bitwise(m in the_piece()) {
        let msg = pack_nonzero_rows(&m).unwrap_or_else(|| m.clone());
        for link in links(&m) {
            let back = unpack_rows(msg.clone(), link);
            prop_assert_eq!((back.rows(), back.cols()), (m.rows(), m.cols()), "{:?}", link);
            prop_assert_eq!(bits(&back), bits(&m), "{:?}", link);
        }
    }

    /// A strip cut after any row, or with any one bit of its header or of
    /// a row id flipped, reads as a piece of the original shape or panics
    /// with a named message.
    #[test]
    fn damaged_strips_keep_their_shape_or_are_rejected(
        m in the_piece(),
        at in 0usize..64,
        col in 0usize..8,
        bit in 0u32..32,
    ) {
        // A piece that travels raw has no strip to damage.
        let strip = pack_nonzero_rows(&m);
        let mut damaged = Vec::new();
        if let Some(strip) = &strip {
            let rows = strip.rows();
            damaged.push(strip.row_block(0, at % rows));
            damaged.push(flipped(strip, 0, col % strip.cols(), bit));
            if rows > 1 {
                damaged.push(flipped(strip, 1 + at % (rows - 1), 0, bit));
            }
        }
        for msg in damaged {
            for link in links(&m) {
                let read = catch_unwind(AssertUnwindSafe(|| unpack_rows(msg.clone(), link)));
                match read {
                    Ok(back) => {
                        let shape = (back.rows(), back.cols());
                        prop_assert_eq!(shape, (m.rows(), m.cols()), "{:?}", link);
                    }
                    Err(e) => {
                        let text = e
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_default();
                        let named = NAMED.iter().any(|n| text.contains(n));
                        prop_assert!(named, "{:?}: unnamed panic {:?}", link, text);
                    }
                }
            }
        }
    }
}
