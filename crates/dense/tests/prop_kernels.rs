//! Differential property suite for the lane-unrolled GEMM microkernels.
//! The contract is **bitwise**: at every width, all five GEMM variants
//! equal the scalar reference bit for bit on finite inputs — swept over
//! ragged shapes (m/n/k deliberately not multiples of the lane width, the
//! row tile or the `k` block), zero dimensions and single rows, with `A`
//! passed through ReLU so the reference's zero-skip really skips, and a
//! non-zero `C` under the accumulating forms. Every width also runs under
//! pool shares 1, 2 and 3 and inside a forced pooled job: neither the
//! panel cut nor the runner count shows in the bits.

use proptest::prelude::*;
use rayon::internals::run_pooled;
use rdm_dense::kernels::{with_mode, Mode, Width};
use rdm_dense::{gemm, gemm_acc, gemm_nt, gemm_tn, gemm_tn_acc, relu, with_share, Mat};
use std::sync::Mutex;

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

/// Run all five GEMM variants on one shape under the current thread's
/// kernel mode. Returns (gemm, gemm_tn, gemm_nt, gemm_acc, gemm_tn_acc).
/// Both `A` operands are post-ReLU activations (about half exact zeros).
fn all_variants(m: usize, k: usize, n: usize, seed: u64) -> [Mat; 5] {
    let a = relu(&Mat::random(m, k, 1.0, seed));
    let b = Mat::random(k, n, 1.0, seed + 1);
    let at = relu(&Mat::random(k, m, 1.0, seed + 2));
    let bt = Mat::random(n, k, 1.0, seed + 3);
    let c0 = Mat::random(m, n, 1.0, seed + 4);
    let mut acc = c0.clone();
    gemm_acc(&a, &b, &mut acc);
    let mut acc_tn = c0.clone();
    gemm_tn_acc(&at, &b, &mut acc_tn);
    [
        gemm(&a, &b),
        gemm_tn(&at, &b),
        gemm_nt(&a, &bt),
        acc,
        acc_tn,
    ]
}

/// `f` at pool shares 1, 2 and 3 (3 is above a 2-core host's cores: tasks
/// are cut for three runners while only the pool's workers join), then
/// three copies at once inside one forced pooled job, on the caller and
/// two pool workers.
fn on_every_share<T: Send>(f: impl Fn() -> T + Sync) -> Vec<(String, T)> {
    let mut out: Vec<(String, T)> = [1, 2, 3]
        .map(|s| (format!("share {s}"), with_share(s, &f)))
        .into();
    let pooled = Mutex::new(Vec::new());
    run_pooled(3, 2, |i| {
        let got = f();
        pooled
            .lock()
            .unwrap()
            .push((format!("pooled copy {i}"), got));
    });
    out.extend(pooled.into_inner().unwrap());
    out
}

/// Every width, at every share, against the scalar reference on one shape.
fn assert_all_widths_bitwise(m: usize, k: usize, n: usize, seed: u64) {
    let scalar = with_mode(Mode::Scalar, || all_variants(m, k, n, seed));
    for width in Width::all() {
        let runs = on_every_share(|| with_mode(Mode::Fast(width), || all_variants(m, k, n, seed)));
        for (share, fast) in &runs {
            for (v, (f, s)) in fast.iter().zip(&scalar).enumerate() {
                assert_bitwise(
                    f,
                    s,
                    &format!("{width:?} {share} variant {v} ({m}x{k}x{n})"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Ragged sweep: shapes straddling the lane width and the row tile.
    #[test]
    fn every_width_is_bitwise_scalar_on_ragged_shapes(
        m in 1usize..22, k in 1usize..26, n in 1usize..22, seed in 0u64..1000,
    ) {
        assert_all_widths_bitwise(m, k, n, seed);
    }

    /// Reductions spanning several `k` blocks with a ragged last block:
    /// block boundaries must not show in the bits.
    #[test]
    fn every_width_is_bitwise_scalar_across_k_blocks(
        m in 1usize..40, k in 120usize..420, n in 1usize..36, seed in 0u64..1000,
    ) {
        assert_all_widths_bitwise(m, k, n, seed);
    }
}

#[test]
fn degenerate_shapes_every_width() {
    // Empty, single-row, single-column and zero-k inputs, all widths: the
    // exact shapes where a lane-tail off-by-one would read out of bounds.
    for (m, k, n) in [
        (0, 3, 3),
        (3, 0, 3),
        (3, 3, 0),
        (1, 1, 1),
        (1, 9, 8),
        (8, 1, 4),
        (5, 4, 1),
        (0, 0, 0),
    ] {
        assert_all_widths_bitwise(m, k, n, 7);
    }
}

#[test]
fn pooled_panels_are_bitwise_scalar() {
    // Outputs big enough for the pool to split into several row panels
    // (gemm: 64-row panels; gemm_tn: 16-row panels), each swept over
    // three k blocks: neither the cut nor the worker count shows.
    assert_all_widths_bitwise(150, 300, 40, 99);
    // Tall enough that `gemm_tn`'s panel height follows the share.
    assert_all_widths_bitwise(40, 520, 24, 98);
}
