//! Differential property suite for the register-blocked SpMM fast path:
//! every forced lane width vs the scalar reference, over random CSRs,
//! hub-heavy RMAT-skewed CSRs (the adjacency shape the nnz-balanced panels
//! exist for), masked and row-skipping variants, and degenerate shapes.
//! The fast SpMM keeps the per-element accumulation order of the scalar
//! sweep, so the contract is **bitwise** at every width for all three
//! entry points. All three are one driver, so at any one width the
//! row-skip kernel's kept rows, skipping nothing and masking nothing must
//! also be bitwise the dense kernel (`assert_seams`).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rdm_dense::kernels::{with_mode, Mode, Width};
use rdm_dense::Mat;
use rdm_sparse::{spmm, spmm_masked, spmm_skip, Coo, Csr};

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

/// `(spmm, spmm_masked, spmm_skip)` under the current thread's mode.
fn all_entry_points(a: &Csr, b: &Mat, mask: &[bool], skip: &[bool]) -> [Mat; 3] {
    [spmm(a, b), spmm_masked(a, b, mask), spmm_skip(a, b, skip)]
}

/// Every width against the scalar reference, all three entry points.
fn assert_all_widths_bitwise(a: &Csr, b: &Mat, seed: u64, label: &str) {
    let mask = mask_for(a, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
    let skip: Vec<bool> = (0..a.rows()).map(|_| rng.gen_bool(0.4)).collect();
    let scalar = with_mode(Mode::Scalar, || all_entry_points(a, b, &mask, &skip));
    for width in Width::all() {
        let fast = with_mode(Mode::Fast(width), || {
            assert_seams(a, b, seed + 2, &format!("{width:?} {label}"));
            all_entry_points(a, b, &mask, &skip)
        });
        for (name, (f, s)) in ["spmm", "masked", "skip"]
            .iter()
            .zip(fast.iter().zip(&scalar))
        {
            assert_bitwise(f, s, &format!("{width:?} {name} {label}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random CSRs, ragged feature widths: every fast width is bitwise the
    /// scalar reference — plain, masked and row-skipping.
    #[test]
    fn every_width_is_bitwise_scalar(coo in coo_strategy(), n in 1usize..40, seed in 0u64..1000) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), n, 1.0, seed);
        with_mode(Mode::Scalar, || assert_seams(&a, &b, seed + 2, &format!("scalar n={n}")));
        assert_all_widths_bitwise(&a, &b, seed, &format!("n={n}"));
    }
}

#[test]
fn hub_heavy_rmat_every_width() {
    // Power-law skew at several feature widths, including n < W and
    // n % W != 0: the register-blocked traversal must agree with scalar
    // under the exact panel partition spmm uses for skewed matrices.
    for (scale, edges, seed) in [(7u32, 1600usize, 3u64), (8, 4000, 4)] {
        let a = rmat_csr(scale, edges, seed);
        for n in [1usize, 3, 8, 17, 40] {
            let b = Mat::random(a.cols(), n, 1.0, seed + n as u64);
            assert_all_widths_bitwise(&a, &b, seed + 7, &format!("rmat2^{scale} n={n}"));
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
