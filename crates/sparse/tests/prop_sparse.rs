//! Property-based tests for the CSR data structure and SpMM.

use proptest::prelude::*;
use rdm_dense::{allclose, gemm, Mat};
use rdm_sparse::{
    balanced_panels, gcn_normalize, gcn_normalize_induced, spmm, Coo, Csr, InduceScratch,
};

/// Strategy: a random COO matrix with shape up to 24x24.
fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows as u32, 0..cols as u32, -2.0f32..2.0f32);
        proptest::collection::vec(entry, 0..64).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

/// Square symmetric COO (for normalization properties).
fn sym_coo_strategy() -> impl Strategy<Value = Coo> {
    (2usize..16).prop_flat_map(|n| {
        let entry = (0..n as u32, 0..n as u32);
        proptest::collection::vec(entry, 0..48).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c) in entries {
                if r != c {
                    coo.push(r, c, 1.0);
                    coo.push(c, r, 1.0);
                }
            }
            coo
        })
    })
}

/// Square weighted COO for induction: diagonal entries, repeated (summed)
/// entries, negative weights (degrees ≤ 0 take the zero branch of
/// `D̃^{-1/2}`) and, at low density, empty rows.
fn weighted_square_strategy() -> impl Strategy<Value = Coo> {
    (1usize..20).prop_flat_map(|n| {
        let entry = (0..n as u32, 0..n as u32, -0.5f32..2.0f32);
        proptest::collection::vec(entry, 0..80).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

/// One `keep` over `n` vertices, drawn as a per-vertex (kept?, sort key)
/// pair; `shuffled` orders it by key instead of by vertex.
fn keep_of(draw: &[(u32, u64)], shuffled: bool) -> Vec<u32> {
    let mut kept: Vec<(u64, u32)> = (0..draw.len() as u32)
        .filter(|&v| draw[v as usize].0 == 1)
        .map(|v| (draw[v as usize].1, v))
        .collect();
    if shuffled {
        kept.sort_unstable();
    }
    kept.into_iter().map(|(_, v)| v).collect()
}

/// A matrix with a batch of `keep` draws over its vertices.
fn induce_case(draws: usize) -> impl Strategy<Value = (Coo, Vec<Vec<(u32, u64)>>)> {
    weighted_square_strategy().prop_flat_map(move |coo| {
        let n = coo.rows;
        let draw = proptest::collection::vec((0u32..2, 0u64..1_000_000), n..n + 1);
        (Just(coo), proptest::collection::vec(draw, draws..draws + 1))
    })
}

/// The GCN normalisation of `a[keep, keep]` the long way round, as the
/// workspace computed it before induction and normalisation were fused:
/// relabelled entries plus a self-loop through a COO (duplicates summed),
/// degrees from `row_sums`, then `v * (s_r * s_c)`.
fn reference_gcn_induced(a: &Csr, keep: &[u32]) -> Csr {
    let n = keep.len();
    let mut new_of = vec![None; a.rows()];
    for (i, &v) in keep.iter().enumerate() {
        new_of[v as usize] = Some(i as u32);
    }
    let mut coo = Coo::new(n, n);
    for (i, &v) in keep.iter().enumerate() {
        let (cs, vs) = a.row(v as usize);
        for (&c, &x) in cs.iter().zip(vs) {
            if let Some(j) = new_of[c as usize] {
                coo.push(i as u32, j, x);
            }
        }
        coo.push(i as u32, i as u32, 1.0);
    }
    let mut m = coo.to_csr();
    let s: Vec<f32> = m
        .row_sums()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let (indptr, indices) = (m.indptr().to_vec(), m.indices().to_vec());
    let vals = m.vals_mut();
    for r in 0..n {
        for idx in indptr[r]..indptr[r + 1] {
            vals[idx] *= s[r] * s[indices[idx] as usize];
        }
    }
    m
}

/// Structure plus value *bits* (`==` on `f32` would equate `0.0` and
/// `-0.0`).
fn bits(m: &Csr) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<u32>) {
    let vals = m.vals().iter().map(|v| v.to_bits()).collect();
    (
        m.rows(),
        m.cols(),
        m.indptr().to_vec(),
        m.indices().to_vec(),
        vals,
    )
}

fn induce_fresh(a: &Csr, keep: &[u32]) -> Csr {
    let mut out = Csr::empty(0, 0);
    gcn_normalize_induced(a, keep, &mut InduceScratch::default(), &mut out);
    out
}

proptest! {
    #[test]
    fn gcn_normalize_induced_is_bitwise_the_unfused_path(
        (coo, draws) in induce_case(1),
    ) {
        let a = coo.to_csr();
        for shuffled in [false, true] {
            let keep = keep_of(&draws[0], shuffled);
            let fused = induce_fresh(&a, &keep);
            prop_assert!(fused.validate().is_ok());
            prop_assert_eq!(bits(&fused), bits(&reference_gcn_induced(&a, &keep)));
            prop_assert_eq!(bits(&fused), bits(&gcn_normalize(&a.induced(&keep))));
        }
    }

    #[test]
    fn gcn_normalize_is_the_all_vertices_case(coo in weighted_square_strategy()) {
        let a = coo.to_csr();
        let all: Vec<u32> = (0..a.rows() as u32).collect();
        let whole = gcn_normalize(&a);
        prop_assert_eq!(bits(&whole), bits(&induce_fresh(&a, &all)));
        prop_assert_eq!(bits(&whole), bits(&reference_gcn_induced(&a, &all)));
    }

    #[test]
    fn one_scratch_serves_growing_and_shrinking_keeps((coo, draws) in induce_case(4)) {
        let a = coo.to_csr();
        let all: Vec<u32> = (0..a.rows() as u32).collect();
        let mut scratch = InduceScratch::default();
        let mut out = Csr::empty(0, 0);
        // Small, everything, then smaller again, alternating orders.
        let mut keeps: Vec<Vec<u32>> = draws
            .iter()
            .enumerate()
            .map(|(i, d)| keep_of(d, i % 2 == 1))
            .collect();
        keeps.insert(1, all);
        for keep in &keeps {
            gcn_normalize_induced(&a, keep, &mut scratch, &mut out);
            prop_assert!(scratch.is_clear(), "remap not restored after {keep:?}");
            prop_assert_eq!(bits(&out), bits(&reference_gcn_induced(&a, keep)));
            // The reused matrix must not carry the last batch's caches.
            prop_assert_eq!(out.nnz_partition(3), &balanced_panels(out.indptr(), 3)[..]);
            let fresh = Csr::from_parts(
                out.rows(),
                out.cols(),
                out.indptr().to_vec(),
                out.indices().to_vec(),
                out.vals().to_vec(),
            );
            prop_assert_eq!(out.col_support(2), fresh.col_support(2));
        }
    }
}

proptest! {
    #[test]
    fn csr_always_valid(coo in coo_strategy()) {
        let m = coo.to_csr();
        prop_assert!(m.validate().is_ok());
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy()) {
        let m = coo.to_csr();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_preserves_nnz_and_validates(coo in coo_strategy()) {
        let m = coo.to_csr();
        let t = m.transpose();
        prop_assert_eq!(t.nnz(), m.nnz());
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn spmm_agrees_with_dense(coo in coo_strategy(), seed in 0u64..1000) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), 5, 1.0, seed);
        let sparse_result = spmm(&a, &b);
        let dense_result = gemm(&a.to_dense(), &b);
        prop_assert!(allclose(&sparse_result, &dense_result, 1e-4));
    }

    #[test]
    fn spmm_is_linear_in_b(coo in coo_strategy(), seed in 0u64..1000) {
        // A·(B1 + B2) == A·B1 + A·B2
        let a = coo.to_csr();
        let b1 = Mat::random(a.cols(), 4, 1.0, seed);
        let b2 = Mat::random(a.cols(), 4, 1.0, seed + 1);
        let mut sum = b1.clone();
        rdm_dense::add_assign(&mut sum, &b2);
        let lhs = spmm(&a, &sum);
        let mut rhs = spmm(&a, &b1);
        rdm_dense::add_assign(&mut rhs, &spmm(&a, &b2));
        prop_assert!(allclose(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn row_panels_partition_spmm(coo in coo_strategy(), seed in 0u64..1000) {
        // SpMM of the whole equals the vstack of SpMMs of row panels —
        // the identity behind every row-partitioned distributed scheme.
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), 3, 1.0, seed);
        let full = spmm(&a, &b);
        let mid = a.rows() / 2;
        let top = spmm(&a.row_panel(0, mid), &b);
        let bot = spmm(&a.row_panel(mid, a.rows()), &b);
        let stacked = rdm_dense::vstack(&[top, bot]);
        prop_assert!(allclose(&stacked, &full, 1e-5));
    }

    #[test]
    fn col_blocks_sum_to_spmm(coo in coo_strategy(), seed in 0u64..1000) {
        // A·B == Σ_k A[:, k-block] · B[k-block, :] — the identity behind
        // the CAGNET broadcast scheme (each rank contributes a partial
        // product over its owned block of B's rows).
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), 3, 1.0, seed);
        let full = spmm(&a, &b);
        let mid = a.cols() / 2;
        let left = a.col_block(0, mid);
        let right = a.col_block(mid, a.cols());
        let mut partial = spmm(&left, &b.row_block(0, mid));
        rdm_dense::add_assign(&mut partial, &spmm(&right, &b.row_block(mid, a.cols())));
        prop_assert!(allclose(&partial, &full, 1e-5));
    }

    #[test]
    fn gcn_normalize_symmetric_and_bounded(coo in sym_coo_strategy()) {
        let a = coo.to_csr();
        let norm = gcn_normalize(&a);
        prop_assert!(norm.validate().is_ok());
        prop_assert!(norm.is_symmetric());
        // Every normalized weight lies in (0, 1].
        prop_assert!(norm.vals().iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-6));
    }

    #[test]
    fn induced_on_all_vertices_is_identity_relabel(coo in sym_coo_strategy()) {
        let a = coo.to_csr();
        let all: Vec<u32> = (0..a.rows() as u32).collect();
        prop_assert_eq!(a.induced(&all), a);
    }

    #[test]
    fn induced_nnz_never_grows(coo in sym_coo_strategy()) {
        let a = coo.to_csr();
        let keep: Vec<u32> = (0..a.rows() as u32).step_by(2).collect();
        let sub = a.induced(&keep);
        prop_assert!(sub.nnz() <= a.nnz());
        prop_assert!(sub.validate().is_ok());
    }
}

#[test]
fn a_bad_keep_panics_and_leaves_the_scratch_clear() {
    let mut coo = Coo::new(5, 5);
    for (r, c) in [(0, 1), (1, 0), (1, 2), (2, 1), (3, 3), (4, 0)] {
        coo.push(r, c, 1.0);
    }
    let a = coo.to_csr();
    let mut scratch = InduceScratch::default();
    let mut out = Csr::empty(0, 0);
    for bad in [&[0u32, 2, 1, 2][..], &[3, 3], &[1, 5]] {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gcn_normalize_induced(&a, bad, &mut scratch, &mut out)
        }));
        assert!(run.is_err(), "{bad:?} must panic");
        assert!(scratch.is_clear(), "{bad:?} left vertices in the remap");
        // The scratch still induces correctly afterwards.
        gcn_normalize_induced(&a, &[2, 1, 0], &mut scratch, &mut out);
        assert_eq!(bits(&out), bits(&reference_gcn_induced(&a, &[2, 1, 0])));
    }
}

#[test]
fn csr_roundtrip_through_dense() {
    let mut coo = Coo::new(6, 6);
    for i in 0..5u32 {
        coo.push(i, i + 1, (i + 1) as f32);
    }
    let m = coo.to_csr();
    let d = m.to_dense();
    // Rebuild from dense.
    let mut coo2 = Coo::new(6, 6);
    for r in 0..6 {
        for c in 0..6 {
            let v = d.get(r, c);
            if v != 0.0 {
                coo2.push(r as u32, c as u32, v);
            }
        }
    }
    assert_eq!(coo2.to_csr(), m);
}
