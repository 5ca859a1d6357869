//! The fused induce + GCN-normalise kernel at serving scale.
//!
//! The CSR property suite (`crates/sparse/tests/prop_sparse.rs`) draws
//! graphs of at most 20 vertices, so it never meets what a serving batch
//! does: a remap over tens of thousands of vertices, hub rows thousands of
//! entries long, and a keep rate near one half. This test runs
//! `Dataset::induced_into` on the `serve-induced` benchmark's graph shape
//! (50 000 vertices, 500 000 edges) for ten batches the serving sampler
//! plans at a 4 096-vertex budget, each in sorted and in reversed order,
//! and compares the arena bitwise with the long way round.
//!
//! The CI `serve` job runs this file.

use gnn_rdm::graph::{DatasetSpec, InducedBatch};
use gnn_rdm::serve::{planned_batches, planned_vertices, BatchPolicy, LoadGen};
use gnn_rdm::sparse::{Coo, Csr};

/// `D̃^{-1/2}(A[keep, keep] + I)D̃^{-1/2}` the long way round: relabelled
/// entries plus a self-loop through a COO (duplicates summed), degrees
/// from `row_sums`, then `v * (s_r * s_c)`.
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
fn bits(m: &Csr) -> (usize, usize, &[usize], &[u32], Vec<u32>) {
    let vals = m.vals().iter().map(|v| v.to_bits()).collect();
    (m.rows(), m.cols(), m.indptr(), m.indices(), vals)
}

#[test]
fn serving_scale_induction_is_bitwise_the_coo_reference() {
    let ds = DatasetSpec::synthetic("scale", 50_000, 500_000, 64, 16).instantiate(1);
    let requests = LoadGen::new(1, 4, 50, 80).generate(ds.n());
    let batches = planned_batches(&requests, &BatchPolicy::new(8, 2_000));
    assert!(batches.len() >= 10, "only {} batches", batches.len());
    let (mut scanned, mut kept, mut longest) = (0usize, 0usize, 0usize);
    let mut arena = InducedBatch::default();
    for batch in &batches[..10] {
        let sorted = planned_vertices(&ds, batch, 4096, 0x5EED);
        assert_eq!(sorted.len(), 4096);
        let mut reversed = sorted.clone();
        reversed.reverse();
        for keep in [&sorted, &reversed] {
            ds.induced_into(keep, &mut arena);
            let reference = reference_gcn_induced(&ds.adj, keep);
            assert_eq!(bits(&arena.adj_norm), bits(&reference));
        }
        let degrees = sorted.iter().map(|&v| ds.adj.row(v as usize).0.len());
        scanned += degrees.clone().sum::<usize>();
        longest = longest.max(degrees.max().unwrap());
        kept += arena.adj_norm.nnz() - sorted.len();
    }
    // The regime the small property cases never reach.
    assert!(longest >= 1000, "longest kept row has {longest} entries");
    let rate = kept as f64 / scanned as f64;
    assert!((0.3..0.8).contains(&rate), "keep rate {rate:.2}");
}
