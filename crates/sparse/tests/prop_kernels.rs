//! Differential property suite for the register-blocked SpMM fast path:
//! every forced lane width vs the scalar bitwise reference, over random
//! CSRs, hub-heavy RMAT-skewed CSRs (the adjacency shape the nnz-balanced
//! panels exist for), masked and row-skipping variants, and degenerate
//! shapes. The fast SpMM keeps the per-element accumulation order of the
//! scalar sweep, so the envelope here is tight — and width 1 must be
//! exactly bitwise. All three kernels are one driver, so at any one width
//! the row-skip kernel's kept rows, skipping nothing and masking nothing
//! must all be *bitwise* the dense kernel (`assert_seams`).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rdm_dense::kernels::{with_mode, Mode, Width};
use rdm_dense::Mat;
use rdm_sparse::{spmm, spmm_masked, spmm_skip, Coo, Csr};

fn ordinal(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        -((b & 0x7FFF_FFFF) as i64)
    } else {
        b as i64
    }
}

fn assert_close(fast: &Mat, scalar: &Mat, max_ulps: i64, label: &str) {
    assert_eq!(fast.shape(), scalar.shape(), "{label}: shape");
    for (i, (&f, &s)) in fast
        .as_slice()
        .iter()
        .zip(scalar.as_slice().iter())
        .enumerate()
    {
        let u = (ordinal(f) - ordinal(s)).abs();
        let scale = 1.0f32.max(f.abs()).max(s.abs());
        assert!(
            u <= max_ulps || (f - s).abs() <= 1e-4 * scale,
            "{label}: element {i}: fast {f} vs scalar {s} ({u} ulps)"
        );
    }
}

fn assert_bitwise(fast: &Mat, scalar: &Mat, label: &str) {
    assert_eq!(fast.shape(), scalar.shape(), "{label}: shape");
    for (i, (&f, &s)) in fast
        .as_slice()
        .iter()
        .zip(scalar.as_slice().iter())
        .enumerate()
    {
        assert_eq!(f.to_bits(), s.to_bits(), "{label}: element {i}: {f} vs {s}");
    }
}

/// RMAT-style power-law generator (a/b/c/d = .57/.19/.19/.05): the skew
/// concentrates nonzeros on hub rows, the regime the nnz-balanced panel
/// partition — and now the register-blocked traversal under it — must
/// survive.
fn rmat_csr(scale: u32, edges: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for _ in 0..scale {
            let p: f64 = rng.gen();
            let (dr, dc) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            r = (r << 1) | dr;
            c = (c << 1) | dc;
        }
        coo.push(r as u32, c as u32, rng.gen_range(-1.0..1.0));
    }
    coo.to_csr()
}

fn mask_for(a: &Csr, seed: u64) -> Vec<bool> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..a.nnz()).map(|_| rng.gen_bool(0.6)).collect()
}

/// The driver's seams at the active kernel width: the row-skip kernel
/// leaves skipped rows exactly zero and is bitwise the dense kernel on kept
/// rows; skipping no row and masking no nonzero are bitwise the dense
/// kernel.
fn assert_seams(a: &Csr, b: &Mat, seed: u64, label: &str) {
    let full = spmm(a, b);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let skip: Vec<bool> = (0..a.rows()).map(|_| rng.gen_bool(0.4)).collect();
    let thin = spmm_skip(a, b, &skip);
    assert_eq!(thin.shape(), full.shape(), "{label}: skip shape");
    for (r, &skipped) in skip.iter().enumerate() {
        for (j, (&t, &f)) in thin.row(r).iter().zip(full.row(r)).enumerate() {
            let expect = if skipped { 0.0f32 } else { f };
            assert_eq!(
                t.to_bits(),
                expect.to_bits(),
                "{label}: skip row {r} (skipped: {skipped}) col {j}: {t} vs {expect}"
            );
        }
    }
    let none = spmm_skip(a, b, &vec![false; a.rows()]);
    assert_bitwise(&none, &full, &format!("{label}: skip nothing"));
    let all = spmm_masked(a, b, &vec![true; a.nnz()]);
    assert_bitwise(&all, &full, &format!("{label}: mask nothing"));
}

fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows as u32, 0..cols as u32, -2.0f32..2.0f32);
        proptest::collection::vec(entry, 0..96).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random CSRs, ragged feature widths: every fast width stays in the
    /// envelope of the scalar reference, masked and unmasked, and the
    /// row-skip kernel is bitwise the dense one at every width.
    #[test]
    fn fast_widths_match_scalar(coo in coo_strategy(), n in 1usize..19, seed in 0u64..1000) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), n, 1.0, seed);
        let mask = mask_for(&a, seed + 1);
        let scalar = spmm(&a, &b);
        let scalar_masked = spmm_masked(&a, &b, &mask);
        assert_seams(&a, &b, seed + 2, &format!("scalar n={n}"));
        for width in [Width::W4, Width::W8] {
            let (f, fm) = with_mode(Mode::Fast(width), || {
                assert_seams(&a, &b, seed + 2, &format!("{width:?} n={n}"));
                (spmm(&a, &b), spmm_masked(&a, &b, &mask))
            });
            assert_close(&f, &scalar, 16, &format!("{width:?} spmm n={n}"));
            assert_close(&fm, &scalar_masked, 16, &format!("{width:?} masked n={n}"));
        }
    }

    /// Width 1 delegates to the scalar kernel: bitwise equal.
    #[test]
    fn width1_is_bitwise_scalar(coo in coo_strategy(), n in 1usize..12, seed in 0u64..1000) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), n, 1.0, seed);
        let mask = mask_for(&a, seed + 1);
        let scalar = spmm(&a, &b);
        let scalar_masked = spmm_masked(&a, &b, &mask);
        let (f, fm) = with_mode(Mode::Fast(Width::W1), || {
            assert_seams(&a, &b, seed + 2, "W1");
            (spmm(&a, &b), spmm_masked(&a, &b, &mask))
        });
        assert_bitwise(&f, &scalar, "W1 spmm");
        assert_bitwise(&fm, &scalar_masked, "W1 masked");
    }

    /// Re-running the fast path yields identical bits (run-to-run
    /// determinism across pool scheduling).
    #[test]
    fn fast_path_is_run_to_run_deterministic(
        coo in coo_strategy(), n in 1usize..12, seed in 0u64..1000,
    ) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), n, 1.0, seed);
        for width in Width::all() {
            let one = with_mode(Mode::Fast(width), || spmm(&a, &b));
            let two = with_mode(Mode::Fast(width), || spmm(&a, &b));
            assert_bitwise(&one, &two, &format!("{width:?} rerun"));
        }
    }
}

#[test]
fn hub_heavy_rmat_every_width() {
    // Power-law skew at several feature widths, including n < W and
    // n % W != 0: the register-blocked traversal must agree with scalar
    // under the exact panel partition spmm uses for skewed matrices.
    for (scale, edges, seed) in [(7u32, 1600usize, 3u64), (8, 4000, 4)] {
        let a = rmat_csr(scale, edges, seed);
        for n in [1usize, 3, 8, 17] {
            let b = Mat::random(a.cols(), n, 1.0, seed + n as u64);
            let mask = mask_for(&a, seed + 7);
            let scalar = spmm(&a, &b);
            let scalar_masked = spmm_masked(&a, &b, &mask);
            for width in Width::all() {
                let (f, fm) = with_mode(Mode::Fast(width), || {
                    (spmm(&a, &b), spmm_masked(&a, &b, &mask))
                });
                assert_close(&f, &scalar, 16, &format!("{width:?} rmat2^{scale} n={n}"));
                assert_close(
                    &fm,
                    &scalar_masked,
                    16,
                    &format!("{width:?} rmat2^{scale} masked n={n}"),
                );
            }
        }
    }
}

#[test]
fn degenerate_shapes_every_width() {
    for width in Width::all() {
        with_mode(Mode::Fast(width), || {
            // Empty matrix, empty rows, single row, zero feature width.
            let b = Mat::random(5, 3, 1.0, 11);
            assert_eq!(spmm(&Csr::empty(0, 5), &b).shape(), (0, 3));
            assert_eq!(spmm(&Csr::empty(7, 5), &b).shape(), (7, 3));
            assert_eq!(spmm(&Csr::empty(7, 5), &Mat::zeros(5, 0)).shape(), (7, 0));
            assert_eq!(spmm_skip(&Csr::empty(0, 5), &b, &[]).shape(), (0, 3));
            assert_seams(&Csr::empty(7, 5), &b, 12, &format!("{width:?} empty rows"));
            assert_seams(
                &Csr::empty(7, 5),
                &Mat::zeros(5, 0),
                12,
                &format!("{width:?} zero width"),
            );
            let mut coo = Coo::new(1, 5);
            coo.push(0, 2, 1.5);
            coo.push(0, 4, -0.5);
            let single = coo.to_csr();
            let got = spmm(&single, &b);
            assert_eq!(got.shape(), (1, 3));
            let scalar = with_mode(Mode::Scalar, || spmm(&single, &b));
            assert_bitwise(&got, &scalar, &format!("{width:?} single row"));
            assert_seams(&single, &b, 13, &format!("{width:?} single row"));
        });
    }
}
