//! Differential property suite for the lane-unrolled GEMM microkernels.
//! The contract is **bitwise**: at every width, all five GEMM variants
//! equal the scalar reference bit for bit on finite inputs — swept over
//! ragged shapes (m/n/k deliberately not multiples of the lane width, the
//! row tile or the `k` block), zero dimensions and single rows, with `A`
//! passed through ReLU so the reference's zero-skip really skips, and a
//! non-zero `C` under the accumulating forms. Every width also runs under
//! pool shares 1, 2 and 3 and inside a forced pooled job: neither the
//! panel cut nor the runner count shows in the bits. The allocating forms
//! write their output once, never reading it first: on a workspace pool
//! whose shelves hold NaN-filled buffers they still equal the reference.
//! An `A` borrowed as a row view of a taller matrix is read exactly as an
//! owned copy of those rows, at every width.

use proptest::prelude::*;
use rayon::internals::run_pooled;
use rdm_dense::kernels::{with_mode, Mode, Width};
use rdm_dense::{gemm, gemm_acc, gemm_nt, gemm_tn, gemm_tn_acc, relu, with_share, Mat, MatRef};
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

/// All five variants with each `A` borrowed as rows `lo..` of a taller
/// matrix (`A` for `gemm`/`gemm_nt`/`gemm_acc`, `Aᵀ`'s stored `k×m` for
/// the `tn` forms), then on owned copies of the same rows, under `mode`.
fn views_and_copies(m: usize, k: usize, n: usize, seed: u64, mode: Mode) -> [[Mat; 5]; 2] {
    let lo = (seed % 4) as usize;
    let tall = relu(&Mat::random(lo + m + 3, k, 1.0, seed));
    let tall_t = relu(&Mat::random(lo + k + 3, m, 1.0, seed + 2));
    let b = Mat::random(k, n, 1.0, seed + 1);
    let bt = Mat::random(n, k, 1.0, seed + 3);
    let c0 = Mat::random(m, n, 1.0, seed + 4);
    let run = |a: MatRef<'_>, at: MatRef<'_>| {
        let (mut acc, mut acc_tn) = (c0.clone(), c0.clone());
        gemm_acc(a, &b, &mut acc);
        gemm_tn_acc(at, &b, &mut acc_tn);
        [gemm(a, &b), gemm_tn(at, &b), gemm_nt(a, &bt), acc, acc_tn]
    };
    let (a, at) = (tall.row_block(lo, lo + m), tall_t.row_block(lo, lo + k));
    with_mode(mode, || {
        let views = run(tall.row_view(lo, lo + m), tall_t.row_view(lo, lo + k));
        [views, run((&a).into(), (&at).into())]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A borrowed operand gives bitwise what the owned one does, under the
    /// scalar reference and at every width.
    #[test]
    fn borrowed_operands_are_bitwise_owned_ones(
        m in 1usize..22, k in 1usize..140, n in 1usize..22, seed in 0u64..1000,
    ) {
        let modes = std::iter::once(Mode::Scalar).chain(Width::all().map(Mode::Fast));
        for mode in modes {
            let [views, copies] = views_and_copies(m, k, n, seed, mode);
            for (v, (b, o)) in views.iter().zip(&copies).enumerate() {
                assert_bitwise(b, o, &format!("{mode:?} variant {v} ({m}x{k}x{n})"));
            }
        }
    }

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

/// Park NaN-filled buffers of the size class a `len`-element output is
/// served from on the calling thread's shelf, so a kernel that read its
/// fresh output before writing it would surface NaN.
fn poison_shelf(len: usize) {
    let bufs: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            let mut v = rdm_dense::pool::take_empty(len);
            v.resize(v.capacity(), f32::NAN);
            v
        })
        .collect();
    bufs.into_iter().for_each(rdm_dense::pool::give);
}

#[test]
fn fresh_gemms_never_read_stale_pool_memory() {
    // Shapes with lane tails at every width, one `k` block and three (the
    // later blocks load what the first stored), and outputs tall enough
    // for share 2 to split them across pool workers.
    let modes = std::iter::once(Mode::Scalar).chain(Width::all().map(Mode::Fast));
    for mode in modes {
        for (m, k, n) in [(7, 5, 3), (70, 9, 16), (130, 300, 40), (65, 129, 67)] {
            let (a, b) = (Mat::random(m, k, 1.0, 1), Mat::random(k, n, 1.0, 2));
            let (at, bt) = (a.transpose(), b.transpose());
            let want = with_mode(Mode::Scalar, || {
                [gemm(&a, &b), gemm_tn(&at, &b), gemm_nt(&a, &bt)]
            });
            for share in [1, 2] {
                let run = |f: &dyn Fn() -> Mat| {
                    poison_shelf(m * n);
                    with_share(share, || with_mode(mode, f))
                };
                let got = [
                    run(&|| gemm(&a, &b)),
                    run(&|| gemm_tn(&at, &b)),
                    run(&|| gemm_nt(&a, &bt)),
                ];
                for (name, (g, w)) in ["gemm", "gemm_tn", "gemm_nt"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    assert_bitwise(
                        g,
                        w,
                        &format!("{mode:?} share {share} {name} ({m}x{k}x{n})"),
                    );
                }
            }
        }
    }
}
