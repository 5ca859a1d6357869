//! Forward-only inference: the serving-path entry into the RDM engine.
//!
//! Training and serving share one forward loop (the one behind
//! [`crate::gcn::rdm_forward`]); this module wraps it for the online
//! case — no loss, no backward, no optimizer — so `rdm-serve` and the
//! equivalence harness run *exactly* the code path a training epoch's
//! forward half runs. That shared implementation is what makes the
//! serving outputs bitwise identical to a direct engine pass.

use crate::dist::DistMat;
use crate::gcn::{forward_pass, GcnWeights, RankInput, Start};
use crate::ops::{OpCounters, Topology};
use crate::plan::Plan;
use rdm_comm::RankCtx;
use rdm_dense::Mat;
use rdm_model::{forward_schedule, Entry};
use rdm_sparse::Csr;

/// One forward-only pass over a (sub)graph: aggregate `adj_norm`, apply
/// `weights` under `plan`, and return the logits row-sliced over ranks
/// (rank `r` holds rows `part_range(n, p, r)`).
///
/// `sparse` routes redistributions through the sparsity-aware
/// indexed-strip wire format; results are bit-identical to the dense path.
/// The plan's replication factor must divide `p`; `r_a < p` serves from a
/// replicated-panel topology (Fig. 6) — group redistributions plus dense
/// panel broadcasts — with logits still row-sliced `P` ways.
pub fn forward_logits(
    ctx: &RankCtx,
    adj_norm: &Csr,
    features: &Mat,
    weights: &GcnWeights,
    plan: &Plan,
    sparse: bool,
    ops: &mut OpCounters,
) -> DistMat {
    forward_logits_with(ctx, adj_norm, features, weights, plan, sparse, 1, None, ops)
}

/// [`forward_logits`] with a serving session's two knobs: `chunks`, the
/// strips every fed product's redistribution pipelines into its kernel
/// (`1`: blocking), and
/// `held`, layer 1's aggregation `T¹ = Â·H⁰` kept across the batches of a
/// full-graph session over one `adj_norm` and `features`.
///
/// Frozen weights and a fixed graph make `T¹` a constant of the session.
/// An empty `held` (batch 0) runs the whole forward and is then filled
/// with `T¹`'s row slice, moved out of the pass; a filled one seeds the
/// pass instead of the input, which is then never read, and layer 1
/// starts at its GEMM. A pass from the input borrows `features`' row
/// slice where it reads one and copies its tile only where layer 1
/// aggregates first ([`RankInput`]). `T¹`'s row slice exists on every
/// grid (`r_a | p`), and both knobs keep the logits bitwise identical to
/// a direct forward.
///
/// # Panics
/// If `plan.r_a` does not divide `p`, or `held` is supplied for a plan
/// whose first layer is GEMM-first (it never forms `Â·H⁰`).
#[allow(clippy::too_many_arguments)]
pub fn forward_logits_with(
    ctx: &RankCtx,
    adj_norm: &Csr,
    features: &Mat,
    weights: &GcnWeights,
    plan: &Plan,
    sparse: bool,
    chunks: usize,
    mut held: Option<&mut Option<DistMat>>,
    ops: &mut OpCounters,
) -> DistMat {
    assert!(
        plan.r_a >= 1 && ctx.size().is_multiple_of(plan.r_a),
        "plan r_a {} must divide P = {}",
        plan.r_a,
        ctx.size()
    );
    let mut topo = Topology::new(adj_norm, plan.r_a, ctx);
    topo.set_sparse(sparse);
    // Without a backward pass, memoization only decides how long each
    // aggregation lives: a holding session memoizes, so batch 0 leaves
    // `T¹` behind.
    let memoize = plan.memoize || held.is_some();
    let input;
    let start = match held.as_deref_mut().and_then(Option::take) {
        Some(t) => Start::Held(t),
        None => {
            let steps = forward_schedule(&plan.config, memoize, &weights.widths(), Entry::Both)
                .unwrap_or_else(|e| panic!("weights do not fit the plan: {e}"));
            input = RankInput::new(features, &topo, &steps, ctx);
            Start::Input(&input)
        }
    };
    let mut art = forward_pass(ctx, &topo, start, weights, plan, memoize, chunks, ops);
    if let Some(held) = held {
        *held = Some(art.take_aggregation());
    }
    art.into_logits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::serial;
    use crate::snapshot::WeightSnapshot;
    use rdm_comm::{Cluster, CollectiveKind};
    use rdm_dense::allclose;
    use rdm_graph::dataset::toy;

    #[test]
    fn forward_only_matches_serial_reference() {
        let ds = toy(60, 3);
        let weights = GcnWeights::init(&[16, 8, 4], 5);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let expect = serial_h.last().unwrap().clone();
        let (adj, feats, w2) = (ds.adj_norm.clone(), ds.features.clone(), weights.clone());
        let out = Cluster::new(4).run(move |ctx| {
            let plan = Plan::from_id(10, 2, ctx.size());
            let mut ops = OpCounters::default();
            let logits = forward_logits(ctx, &adj, &feats, &w2, &plan, false, &mut ops);
            logits.gather(ctx, CollectiveKind::Other)
        });
        for got in &out.results {
            assert!(allclose(got, &expect, 1e-4));
        }
    }

    /// A session holding `T¹` serves every batch bitwise what a direct
    /// forward serves, on every grid and pipeline depth, and after batch 0
    /// multiplies layer 2's aggregation alone: `T¹`'s SpMM FMAs go.
    #[test]
    fn held_aggregation_is_bitwise_and_aggregates_once() {
        let ds = toy(52, 8);
        let weights = GcnWeights::init(&[16, 8, 4], 13);
        let p = 4;
        for r_a in [4, 2, 1] {
            for chunks in [1, 3] {
                let (adj, feats, w) = (ds.adj_norm.clone(), ds.features.clone(), weights.clone());
                let out = Cluster::new(p).run(move |ctx| {
                    // Plan id 5 runs layer 1 SpMM-first.
                    let plan = Plan::from_id(5, 2, ctx.size()).with_ra(r_a);
                    let mut ops = OpCounters::default();
                    let direct = forward_logits(ctx, &adj, &feats, &w, &plan, false, &mut ops);
                    let mut held = None;
                    let batches: Vec<_> = (0..3)
                        .map(|_| {
                            let mut ops = OpCounters::default();
                            let logits = forward_logits_with(
                                ctx,
                                &adj,
                                &feats,
                                &w,
                                &plan,
                                false,
                                chunks,
                                Some(&mut held),
                                &mut ops,
                            );
                            (logits.local, ops)
                        })
                        .collect();
                    (direct.local, ops, batches)
                });
                for (direct, ops, batches) in &out.results {
                    let what = format!("r_a {r_a} chunks {chunks}");
                    for (logits, _) in batches {
                        assert_eq!(logits.as_slice(), direct.as_slice(), "{what}");
                    }
                    assert_eq!(batches[0].1, *ops, "{what}: batch 0 is a whole forward");
                    let (first, later) = (batches[0].1, batches[1].1);
                    assert_eq!(later, batches[2].1, "{what}");
                    assert_eq!(later.gemm_fma, first.gemm_fma, "{what}");
                    // Layer 1 aggregates 16 columns; plan 5's GEMM-first
                    // layer 2 aggregates its 4 outputs.
                    assert_eq!(later.spmm_fma * 5.0, first.spmm_fma, "{what}");
                }
            }
        }
    }

    /// Forward-only serving from a replicated-panel plan (`r_a < p`) must
    /// produce bitwise-identical logits to the fully replicated topology,
    /// across the dense wire, the sparse wire and the overlapped engine.
    #[test]
    fn replicated_panel_forward_is_bitwise_full_replication() {
        let ds = toy(52, 6);
        let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 8, 4], 11));
        let p = 4;
        let run = |r_a: usize, sparse: bool, chunks: usize| {
            let (adj, feats) = (ds.adj_norm.clone(), ds.features.clone());
            let w = snap.to_weights();
            Cluster::new(p).run(move |ctx| {
                let plan = Plan::from_id(10, 2, ctx.size()).with_ra(r_a);
                let mut ops = OpCounters::default();
                let logits = forward_logits_with(
                    ctx, &adj, &feats, &w, &plan, sparse, chunks, None, &mut ops,
                );
                logits.gather(ctx, CollectiveKind::Other)
            })
        };
        let base = run(p, false, 1);
        for r_a in [1, 2] {
            for (sparse, chunks) in [(false, 1), (true, 1), (true, 3)] {
                let got = run(r_a, sparse, chunks);
                assert_eq!(
                    base.results[0].as_slice(),
                    got.results[0].as_slice(),
                    "r_a={r_a} sparse={sparse} chunks={chunks} logits drifted"
                );
            }
        }
    }

    #[test]
    fn sparse_wire_path_is_bitwise_dense() {
        let ds = toy(48, 4);
        let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 8, 4], 9));
        let mut runs = Vec::new();
        for sparse in [false, true] {
            let (adj, feats) = (ds.adj_norm.clone(), ds.features.clone());
            let w = snap.to_weights();
            let out = Cluster::new(4).run(move |ctx| {
                let plan = Plan::from_id(5, 2, ctx.size());
                let mut ops = OpCounters::default();
                let logits = forward_logits(ctx, &adj, &feats, &w, &plan, sparse, &mut ops);
                logits.gather(ctx, CollectiveKind::Other)
            });
            runs.push(out.results[0].clone());
        }
        assert_eq!(runs[0].as_slice(), runs[1].as_slice());
    }
}
