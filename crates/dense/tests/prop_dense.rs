//! Property-based tests for the dense kernels: the algebraic identities
//! that the distributed execution relies on.

use proptest::prelude::*;
use rdm_dense::{
    allclose, gemm, gemm_nt, gemm_tn, hstack, part_range, split_cols, split_rows, vstack, Mat,
};

fn mat_strategy(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..max_dim, 1..max_dim, 0u64..1000).prop_map(|(r, c, seed)| Mat::random(r, c, 1.0, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (AB)C == A(BC) — the associativity §III-B exploits to reorder the
    /// SpMM/GEMM chain.
    #[test]
    fn gemm_is_associative(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, q in 1usize..12,
        seed in 0u64..1000,
    ) {
        let a = Mat::random(m, k, 1.0, seed);
        let b = Mat::random(k, n, 1.0, seed + 1);
        let c = Mat::random(n, q, 1.0, seed + 2);
        let left = gemm(&gemm(&a, &b), &c);
        let right = gemm(&a, &gemm(&b, &c));
        prop_assert!(allclose(&left, &right, 1e-3));
    }

    /// Row-sliced GEMM is exact: stacking per-slice products equals the
    /// whole product (the Fig. 2b communication-free identity).
    #[test]
    fn row_sliced_gemm_identity(
        m in 2usize..20, k in 1usize..10, n in 1usize..10,
        p in 1usize..5, seed in 0u64..1000,
    ) {
        let a = Mat::random(m, k, 1.0, seed);
        let w = Mat::random(k, n, 1.0, seed + 1);
        let whole = gemm(&a, &w);
        let parts: Vec<Mat> = split_rows(&a, p).iter().map(|s| gemm(s, &w)).collect();
        prop_assert!(allclose(&vstack(&parts), &whole, 1e-4));
    }

    /// (AᵀB) == (BᵀA)ᵀ.
    #[test]
    fn tn_nt_transpose_relation(
        k in 1usize..16, m in 1usize..8, n in 1usize..8, seed in 0u64..1000,
    ) {
        let a = Mat::random(k, m, 1.0, seed);
        let b = Mat::random(k, n, 1.0, seed + 1);
        let ab = gemm_tn(&a, &b);
        let ba = gemm_tn(&b, &a);
        prop_assert!(allclose(&ab, &ba.transpose(), 1e-4));
    }

    /// A·Bᵀ via gemm_nt equals explicit transpose then gemm.
    #[test]
    fn nt_matches_explicit(
        m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000,
    ) {
        let a = Mat::random(m, k, 1.0, seed);
        let b = Mat::random(n, k, 1.0, seed + 1);
        prop_assert!(allclose(&gemm_nt(&a, &b), &gemm(&a, &b.transpose()), 1e-4));
    }

    /// split/stack roundtrips for any part count.
    #[test]
    fn split_stack_roundtrip(m in mat_strategy(24), p in 1usize..6) {
        prop_assert_eq!(&hstack(&split_cols(&m, p)), &m);
        prop_assert_eq!(&vstack(&split_rows(&m, p)), &m);
    }

    /// Weight-gradient decomposition: AᵀB == Σ_r A_rᵀB_r over row slices —
    /// the partial + all-reduce identity.
    #[test]
    fn weight_grad_decomposition(
        n in 2usize..24, fa in 1usize..8, fb in 1usize..8,
        p in 1usize..5, seed in 0u64..1000,
    ) {
        let a = Mat::random(n, fa, 1.0, seed);
        let b = Mat::random(n, fb, 1.0, seed + 1);
        let whole = gemm_tn(&a, &b);
        let mut acc = Mat::zeros(fa, fb);
        for (sa, sb) in split_rows(&a, p).iter().zip(split_rows(&b, p).iter()) {
            rdm_dense::add_assign(&mut acc, &gemm_tn(sa, sb));
        }
        prop_assert!(allclose(&acc, &whole, 1e-4));
    }

    /// Transpose is an involution and preserves the Frobenius norm.
    #[test]
    fn transpose_properties(m in mat_strategy(24)) {
        let t = m.transpose();
        prop_assert_eq!(&t.transpose(), &m);
        prop_assert!((t.fro_norm() - m.fro_norm()).abs() < 1e-4);
    }

    /// part_range is a partition: contiguous, complete, balanced.
    #[test]
    fn part_range_partitions(n in 0usize..200, p in 1usize..9) {
        let mut end = 0;
        let mut min = usize::MAX;
        let mut max = 0;
        for r in 0..p {
            let rng = part_range(n, p, r);
            prop_assert_eq!(rng.start, end);
            end = rng.end;
            min = min.min(rng.len());
            max = max.max(rng.len());
        }
        prop_assert_eq!(end, n);
        prop_assert!(max - min <= 1);
    }

    /// softmax rows are a probability distribution; log_softmax consistent.
    #[test]
    fn softmax_probability_axioms(m in mat_strategy(16)) {
        let s = rdm_dense::softmax_rows(&m);
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
        let ls = rdm_dense::log_softmax_rows(&m);
        prop_assert!(ls.as_slice().iter().all(|&v| v <= 1e-6));
    }

    /// relu/relu_backward consistency: gradient flows exactly where the
    /// activation is positive.
    #[test]
    fn relu_gradient_support(m in mat_strategy(16), seed in 0u64..1000) {
        let g = Mat::random(m.rows(), m.cols(), 1.0, seed);
        let act = rdm_dense::relu(&m);
        let masked = rdm_dense::relu_backward(&g, &m);
        for (i, (&a, (&gm, &go))) in act
            .as_slice()
            .iter()
            .zip(g.as_slice().iter().zip(masked.as_slice()))
            .enumerate()
        {
            if a > 0.0 {
                prop_assert_eq!(gm, go, "index {}", i);
            } else {
                prop_assert_eq!(go, 0.0, "index {}", i);
            }
        }
    }
}

/// The branchy ReLU and ReLU mask the in-place kernels replaced, kept
/// here as their bitwise oracle.
fn branchy_relu(x: &[f32]) -> Vec<f32> {
    x.iter()
        .map(|&v| {
            let mut v = v;
            if v < 0.0 {
                v = 0.0;
            }
            v
        })
        .collect()
}

fn branchy_mask(grad: &[f32], z: &[f32]) -> Vec<f32> {
    grad.iter()
        .zip(z)
        .map(|(&g, &zv)| {
            let mut g = g;
            if zv <= 0.0 {
                g = 0.0;
            }
            g
        })
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn relu_in_place_matches_branchy_on_special_values() {
    use rdm_dense::ops::PAR_MIN;
    use rdm_dense::{relu, relu_backward, relu_backward_in_place, relu_in_place, with_share};
    let special = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234), // a NaN with a payload
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1), // the smallest subnormal
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
    ];
    // Every third element special, the rest random of both signs.
    let mixed = |len: usize, seed: u64| {
        let mut m = Mat::random(1, len, 2.0, seed);
        for (j, v) in m.as_mut_slice().iter_mut().enumerate().step_by(3) {
            *v = special[(j / 3 + seed as usize) % special.len()];
        }
        m
    };
    for len in [
        1,
        7,
        100,
        PAR_MIN - 1,
        PAR_MIN,
        PAR_MIN + 1,
        3 * PAR_MIN + 5,
    ] {
        let (z, g) = (mixed(len, 1), mixed(len, 2));
        let want_relu = bits(&branchy_relu(z.as_slice()));
        let want_mask = bits(&branchy_mask(g.as_slice(), z.as_slice()));
        for share in [1, 2] {
            with_share(share, || {
                let mut h = z.clone();
                relu_in_place(&mut h);
                assert_eq!(
                    bits(h.as_slice()),
                    want_relu,
                    "relu len {len} share {share}"
                );
                assert_eq!(bits(relu(&z).as_slice()), want_relu, "relu copy len {len}");
                let mut masked = g.clone();
                relu_backward_in_place(&mut masked, &z);
                assert_eq!(
                    bits(masked.as_slice()),
                    want_mask,
                    "mask len {len} share {share}"
                );
                let copy = relu_backward(&g, &z);
                assert_eq!(bits(copy.as_slice()), want_mask, "mask copy len {len}");
            });
        }
    }
}
