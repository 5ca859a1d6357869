//! Graph normalizations for GCN.

use crate::csr::{Csr, InduceScratch};

/// The GCN symmetric normalization of Kipf & Welling:
/// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` is the degree matrix of
/// `A + I`. Input values are treated as edge weights; self-loops are added
/// with weight 1 (existing diagonal entries are summed with the added loop,
/// matching the CAGNET normalization code reused by the paper).
///
/// The identity-`keep` case of [`gcn_normalize_induced`].
///
/// # Panics
/// If `a` is not square.
pub fn gcn_normalize(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "gcn_normalize needs a square matrix");
    let mut out = Csr::empty(0, 0);
    gcn_normalize_induced(a, &all_vertices(a), &mut InduceScratch::default(), &mut out);
    out
}

/// The GCN normalization of the subgraph induced on `keep`,
/// `D̃^{-1/2}(A[keep, keep] + I)D̃^{-1/2}`, into `out` — one induction
/// pass (which sums each degree while its row is hot) plus one in-place
/// scaling pass, reusing `out`'s and `scratch`'s buffers. Vertex `keep[i]`
/// becomes row and column `i`.
///
/// Bitwise `gcn_normalize(&a.induced(keep))`: each degree is summed in
/// column order as [`Csr::row_sums`] does, and each value scaled as
/// `v * (s_r * s_c)`.
///
/// # Panics
/// If `keep` contains an out-of-range or duplicate vertex.
pub fn gcn_normalize_induced(a: &Csr, keep: &[u32], scratch: &mut InduceScratch, out: &mut Csr) {
    a.induce_into(keep, true, scratch, out);
    let s = &mut scratch.degree;
    for d in s.iter_mut() {
        *d = if *d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
    }
    let (indptr, indices, vals) = out.parts_mut();
    for (r, w) in indptr.windows(2).enumerate() {
        let sr = s[r];
        for idx in w[0]..w[1] {
            vals[idx] *= sr * s[indices[idx] as usize];
        }
    }
}

/// GraphSAGE-style mean aggregation: `D̃^{-1}(A + I)` — each vertex
/// averages itself and its neighbors. Unlike [`gcn_normalize`] the result
/// is **not symmetric**, so distributed backward passes must multiply by
/// its transpose.
///
/// # Panics
/// If `a` is not square.
pub fn mean_normalize(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "mean_normalize needs a square matrix");
    let mut out = Csr::empty(0, 0);
    a.induce_into(
        &all_vertices(a),
        true,
        &mut InduceScratch::default(),
        &mut out,
    );
    row_normalize_in_place(&mut out);
    out
}

/// Row normalization `D^{-1} A` (mean aggregation). Rows with zero degree
/// stay zero.
pub fn row_normalize(a: &Csr) -> Csr {
    let mut out = a.clone();
    row_normalize_in_place(&mut out);
    out
}

fn row_normalize_in_place(a: &mut Csr) {
    let (indptr, _, vals) = a.parts_mut();
    for w in indptr.windows(2) {
        let row = &mut vals[w[0]..w[1]];
        let d: f32 = row.iter().sum();
        if d == 0.0 {
            continue;
        }
        let inv = 1.0 / d;
        for v in row {
            *v *= inv;
        }
    }
}

/// `0..n` for an `n × n` matrix: the `keep` that induces all of it.
fn all_vertices(a: &Csr) -> Vec<u32> {
    (0..a.rows() as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;

    fn path_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push(i as u32, i as u32 + 1, 1.0);
            coo.push(i as u32 + 1, i as u32, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn gcn_normalize_adds_self_loops() {
        let a = path_graph(3);
        let norm = gcn_normalize(&a);
        norm.validate().unwrap();
        assert_eq!(norm.nnz(), a.nnz() + 3);
        // Diagonal entries exist and are positive.
        for r in 0..3 {
            let (cs, vs) = norm.row(r);
            let d = cs.iter().position(|&c| c as usize == r).unwrap();
            assert!(vs[d] > 0.0);
        }
    }

    #[test]
    fn gcn_normalize_is_symmetric_for_symmetric_input() {
        let a = path_graph(5);
        assert!(gcn_normalize(&a).is_symmetric());
    }

    #[test]
    fn gcn_normalize_values_on_path2() {
        // Two vertices with one edge: A+I = [[1,1],[1,1]], degrees 2,2,
        // normalized = 1/2 everywhere.
        let a = path_graph(2);
        let norm = gcn_normalize(&a);
        for r in 0..2 {
            let (_, vs) = norm.row(r);
            for &v in vs {
                assert!((v - 0.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gcn_normalize_spectral_radius_at_most_one() {
        // Power iteration on the normalized matrix must not blow up: the
        // symmetric normalization has eigenvalues in [-1, 1].
        let a = path_graph(10);
        let norm = gcn_normalize(&a);
        let mut x = rdm_dense::Mat::from_fn(10, 1, |i, _| 1.0 + i as f32);
        for _ in 0..50 {
            let y = crate::spmm(&norm, &x);
            let n = y.fro_norm();
            assert!(n.is_finite());
            x = y;
            let scale = 1.0 / x.fro_norm().max(1e-12);
            rdm_dense::scale(&mut x, scale);
        }
        let y = crate::spmm(&norm, &x);
        assert!(y.fro_norm() <= 1.0 + 1e-4);
    }

    #[test]
    fn mean_normalize_rows_sum_to_one_with_self_loop() {
        let a = path_graph(4);
        let m = mean_normalize(&a);
        m.validate().unwrap();
        assert_eq!(m.nnz(), a.nnz() + 4);
        for r in 0..4 {
            let sum: f32 = m.row(r).1.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mean_normalize_is_not_symmetric_on_irregular_graphs() {
        // A star graph: the hub averages many, leaves average two.
        let mut coo = Coo::new(4, 4);
        for i in 1..4u32 {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        let m = mean_normalize(&coo.to_csr());
        assert!(!m.is_symmetric());
    }

    #[test]
    fn row_normalize_rows_sum_to_one() {
        let a = path_graph(4);
        let rn = row_normalize(&a);
        for r in 0..4 {
            let sum: f32 = rn.row(r).1.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn row_normalize_keeps_zero_rows() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0);
        let a = coo.to_csr();
        let rn = row_normalize(&a);
        assert_eq!(rn.row(1).0.len(), 0);
        assert_eq!(rn.row(2).0.len(), 0);
        assert!((rn.row(0).1[0] - 1.0).abs() < 1e-6);
    }
}
