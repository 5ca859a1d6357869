//! Trained-weight export/import for the serving path.
//!
//! A [`WeightSnapshot`] is the bridge between offline training
//! ([`train_gcn`](crate::train_gcn) stores one in
//! [`TrainReport::weights`](crate::TrainReport)) and online inference
//! (`rdm-serve` loads one and runs forward-only). The binary format is
//! **byte-exact**: every f32 round-trips through its IEEE-754 bit pattern,
//! so a snapshot saved on one run and loaded on another reproduces
//! bitwise-identical logits.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic  b"RDMW"        4 bytes
//! version u32 = 1       4 bytes
//! layers  u32           4 bytes
//! per layer: rows u32, cols u32, then rows*cols f32 bit patterns
//! ```
//!
//! Layer widths are implied by the weight shapes (`feats[0] = w[0].rows`,
//! `feats[l] = w[l-1].cols`), so the header stores nothing the matrices do
//! not already pin down.

use crate::gcn::GcnWeights;
use rdm_dense::Mat;

/// Magic prefix of the on-disk format.
const MAGIC: &[u8; 4] = b"RDMW";
/// Current format version.
const VERSION: u32 = 1;

/// A replicated set of trained GCN weights, detached from any trainer.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightSnapshot {
    /// `w[l-1]` has shape `feats[l-1] × feats[l]`.
    pub w: Vec<Mat>,
}

impl WeightSnapshot {
    /// Snapshot a trainer's weights (weights are replicated, so any rank's
    /// copy is *the* copy).
    pub fn from_weights(weights: &GcnWeights) -> Self {
        WeightSnapshot {
            w: weights.w.clone(),
        }
    }

    /// Rebuild trainer-shaped weights from the snapshot.
    pub fn to_weights(&self) -> GcnWeights {
        GcnWeights { w: self.w.clone() }
    }

    /// Layer count.
    pub fn layers(&self) -> usize {
        self.w.len()
    }

    /// The layer widths `[f_0, f_1, ..., f_L]` these weights connect.
    pub fn feats(&self) -> Vec<usize> {
        let mut f = Vec::with_capacity(self.w.len() + 1);
        f.push(self.w.first().map(Mat::rows).unwrap_or(0));
        for m in &self.w {
            f.push(m.cols());
        }
        f
    }

    /// Serialize to the byte-exact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self.w.iter().map(|m| 8 + m.len() * 4).sum();
        let mut out = Vec::with_capacity(12 + payload);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.w.len() as u32).to_le_bytes());
        for m in &self.w {
            out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
            for v in m.as_slice() {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Deserialize the binary format.
    ///
    /// # Errors
    /// Describes the first structural problem (bad magic, truncation — a
    /// header or shape claiming more bytes than remain — shape mismatch
    /// between adjacent layers, trailing bytes). No input panics or
    /// allocates more than the bytes it was given justify.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| format!("snapshot truncated at byte {pos}"))?;
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        };
        let u32_at = |pos: &mut usize| -> Result<u32, String> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
        };
        if take(&mut pos, 4)? != MAGIC {
            return Err("not a weight snapshot (bad magic)".into());
        }
        let version = u32_at(&mut pos)?;
        if version != VERSION {
            return Err(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            ));
        }
        let layers = u32_at(&mut pos)? as usize;
        if layers == 0 {
            return Err("snapshot has zero layers".into());
        }
        // Every layer carries an 8-byte shape header, so the bytes left
        // bound how many layers there can be before anything is reserved.
        if layers > (bytes.len() - pos) / 8 {
            return Err(format!(
                "snapshot truncated: {layers} layers cannot fit in {} bytes",
                bytes.len() - pos
            ));
        }
        let mut w = Vec::with_capacity(layers);
        for l in 0..layers {
            let rows = u32_at(&mut pos)? as usize;
            let cols = u32_at(&mut pos)? as usize;
            if let Some(prev) = w.last() {
                let prev: &Mat = prev;
                if prev.cols() != rows {
                    return Err(format!(
                        "layer {l} expects {} input features but layer {} emits {}",
                        rows,
                        l - 1,
                        prev.cols()
                    ));
                }
            }
            let len = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(4))
                .ok_or_else(|| format!("layer {l} shape {rows}x{cols} overflows"))?;
            let raw = take(&mut pos, len)?;
            let data: Vec<f32> = raw
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                .collect();
            w.push(Mat::from_vec(rows, cols, data));
        }
        if pos != bytes.len() {
            return Err(format!(
                "snapshot has {} trailing byte(s) after layer data",
                bytes.len() - pos
            ));
        }
        Ok(WeightSnapshot { w })
    }

    /// Write the snapshot to a file.
    ///
    /// # Errors
    /// Forwards the I/O error as a description.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_bytes()).map_err(|e| format!("{path}: {e}"))
    }

    /// Read a snapshot from a file.
    ///
    /// # Errors
    /// Forwards I/O and format errors as a description.
    pub fn load(path: &str) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightSnapshot {
        WeightSnapshot::from_weights(&GcnWeights::init(&[16, 8, 4], 7))
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = WeightSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.layers(), back.layers());
        for (a, b) in snap.w.iter().zip(&back.w) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Serialization itself is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn feats_recovers_layer_widths() {
        assert_eq!(sample().feats(), vec![16, 8, 4]);
    }

    #[test]
    fn special_float_values_survive() {
        let w = Mat::from_vec(
            1,
            4,
            vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE / 2.0],
        );
        let snap = WeightSnapshot { w: vec![w] };
        let back = WeightSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        for (x, y) in snap.w[0].as_slice().iter().zip(back.w[0].as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let good = sample().to_bytes();
        assert!(WeightSnapshot::from_bytes(b"nope").is_err());
        assert!(WeightSnapshot::from_bytes(&good[..good.len() - 1])
            .unwrap_err()
            .contains("truncated"));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(WeightSnapshot::from_bytes(&trailing)
            .unwrap_err()
            .contains("trailing"));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(WeightSnapshot::from_bytes(&bad_version)
            .unwrap_err()
            .contains("version"));
        // Break the layer-1 / layer-2 width chain.
        let mut mismatched = Vec::new();
        mismatched.extend_from_slice(b"RDMW");
        mismatched.extend_from_slice(&1u32.to_le_bytes());
        mismatched.extend_from_slice(&2u32.to_le_bytes());
        mismatched.extend_from_slice(&1u32.to_le_bytes()); // 1x1
        mismatched.extend_from_slice(&1u32.to_le_bytes());
        mismatched.extend_from_slice(&0f32.to_bits().to_le_bytes());
        mismatched.extend_from_slice(&3u32.to_le_bytes()); // 3x1: wants 3 inputs
        mismatched.extend_from_slice(&1u32.to_le_bytes());
        assert!(WeightSnapshot::from_bytes(&mismatched)
            .unwrap_err()
            .contains("features"));
    }

    /// A snapshot header claiming `layers` layers, followed by one layer
    /// header of shape `rows × cols` and no data.
    fn crafted(layers: u32, rows: u32, cols: u32) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        for x in [layers, rows, cols] {
            b.extend_from_slice(&x.to_le_bytes());
        }
        b
    }

    #[test]
    fn a_huge_layer_count_is_an_error_not_an_abort() {
        // Reserving `u32::MAX` layers up front aborted the process.
        let err = WeightSnapshot::from_bytes(&crafted(u32::MAX, 1, 1)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn a_layer_whose_byte_count_wraps_is_an_error_not_a_panic() {
        // 2³¹ × 2³¹ elements of 4 bytes wrapped to 0 bytes, so the empty
        // data was taken and `Mat::from_vec` panicked on the shape.
        let err = WeightSnapshot::from_bytes(&crafted(1, 1 << 31, 1 << 31)).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn corrupted_snapshots_never_panic(
            widths in proptest::collection::vec(1usize..6, 2..5),
            seed in 0u64..1000,
            cut in 0.0f64..1.0,
            flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 1..4),
        ) {
            let snap = WeightSnapshot::from_weights(&GcnWeights::init(&widths, seed));
            let good = snap.to_bytes();
            // Round trip.
            let back = WeightSnapshot::from_bytes(&good).unwrap();
            proptest::prop_assert_eq!(back.to_bytes(), good.clone());
            // Every truncation is an error (a snapshot has no valid prefix).
            let at = (cut * good.len() as f64) as usize;
            proptest::prop_assert!(WeightSnapshot::from_bytes(&good[..at]).is_err());
            // Bit flips anywhere: an error or a snapshot, never a panic;
            // what parses re-serialises to exactly the bytes it came from.
            let mut bad = good.clone();
            for &(where_, bit) in &flips {
                let i = ((where_ * bad.len() as f64) as usize).min(bad.len() - 1);
                bad[i] ^= 1 << bit;
            }
            if let Ok(s) = WeightSnapshot::from_bytes(&bad) {
                proptest::prop_assert_eq!(s.to_bytes(), bad);
            }
        }
    }

    #[test]
    fn every_truncation_and_single_bit_flip_is_handled() {
        let good = sample().to_bytes();
        for at in 0..good.len() {
            assert!(
                WeightSnapshot::from_bytes(&good[..at]).is_err(),
                "prefix {at}"
            );
        }
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[i] ^= 1 << bit;
                if let Ok(s) = WeightSnapshot::from_bytes(&bad) {
                    assert_eq!(s.to_bytes(), bad, "byte {i} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rdm-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.rdmw");
        let path = path.to_str().unwrap();
        let snap = sample();
        snap.save(path).unwrap();
        let back = WeightSnapshot::load(path).unwrap();
        assert_eq!(snap.to_bytes(), back.to_bytes());
        std::fs::remove_file(path).ok();
        assert!(WeightSnapshot::load(path).is_err());
    }
}
