//! Forward-only inference: the serving-path entry into the RDM engine.
//!
//! Training and serving share one forward loop (the one behind
//! [`crate::gcn::rdm_forward`]); this module wraps it for the online
//! case — no loss, no backward, no optimizer, optionally the layer-1
//! aggregation cache — so `rdm-serve` and the equivalence harness run
//! *exactly* the code path a training epoch's forward half runs. That
//! shared implementation is what makes the serving outputs bitwise
//! identical to a direct engine pass.

use crate::aggcache::AggCache;
use crate::dist::DistMat;
use crate::gcn::{forward_pass, input_cache, GcnWeights, OverlapSpec};
use crate::ops::{OpCounters, Topology};
use crate::plan::Plan;
use rdm_comm::RankCtx;
use rdm_dense::Mat;
use rdm_model::AdmitOutcome;
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
    forward_logits_with(
        ctx, adj_norm, features, weights, plan, sparse, None, None, ops,
    )
    .0
}

/// [`forward_logits`] with the serving depth knobs: an optional
/// [`OverlapSpec`] pipelining every redistribution into its kernel, and an
/// optional aggregation cache plus this batch's request targets. With the
/// cache supplied, layer 1 runs the thinned cached exchange and the batch
/// is admitted afterwards; the returned [`AdmitOutcome`] carries its
/// hit/miss accounting. Both knobs preserve bitwise-identical logits.
///
/// The aggregation cache indexes rows of the fully replicated adjacency,
/// so `cache` requires `plan.r_a == p`; callers serving a replicated-panel
/// plan must leave it `None` (the serve engine rejects the combination
/// before a session starts).
#[allow(clippy::too_many_arguments)]
pub fn forward_logits_with(
    ctx: &RankCtx,
    adj_norm: &Csr,
    features: &Mat,
    weights: &GcnWeights,
    plan: &Plan,
    sparse: bool,
    overlap: Option<&OverlapSpec>,
    cache: Option<(&mut AggCache, &[u32])>,
    ops: &mut OpCounters,
) -> (DistMat, Option<AdmitOutcome>) {
    assert!(
        plan.r_a >= 1 && ctx.size().is_multiple_of(plan.r_a),
        "plan r_a {} must divide P = {}",
        plan.r_a,
        ctx.size()
    );
    assert!(
        cache.is_none() || plan.r_a == ctx.size(),
        "the aggregation cache requires full adjacency replication (r_a {} != P {})",
        plan.r_a,
        ctx.size()
    );
    let mut topo = Topology::new(adj_norm, plan.r_a, ctx);
    topo.set_sparse(sparse);
    let input = input_cache(features, &topo, ctx);
    let (art, outcome) = forward_pass(ctx, &topo, input, weights, plan, overlap, cache, ops);
    (art.logits_row(), outcome)
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

    /// The cached forward must produce bitwise-identical logits while
    /// shrinking the redistribution payload once repeats start hitting —
    /// and with a cache that can hold nothing, the loop's cached arm must
    /// be the uncached one to the byte.
    #[test]
    fn cached_forward_is_bitwise_and_thins_the_exchange() {
        let ds = toy(54, 7);
        let weights = GcnWeights::init(&[16, 8, 4], 9);
        let p = 3;
        let batches: Vec<Vec<u32>> = vec![vec![3, 17, 40], vec![3, 17, 8], vec![3, 17, 40, 8]];
        let run = |cache_rows: Option<usize>| {
            let (adj, feats, w) = (ds.adj_norm.clone(), ds.features.clone(), weights.clone());
            let b2 = batches.clone();
            Cluster::new(p).run(move |ctx| {
                // Plan id 5 runs layer 1 SpMM-first — the cacheable shape.
                let plan = Plan::from_id(5, 2, ctx.size());
                let mut ops = OpCounters::default();
                let mut cache = crate::aggcache::AggCache::new(
                    adj.rows(),
                    ctx.size(),
                    ctx.rank(),
                    cache_rows.unwrap_or(0),
                    16,
                );
                let mut outs = Vec::new();
                let mut hits = 0u64;
                for t in &b2 {
                    let (logits, o) = if cache_rows.is_some() {
                        forward_logits_with(
                            ctx,
                            &adj,
                            &feats,
                            &w,
                            &plan,
                            false,
                            None,
                            Some((&mut cache, t)),
                            &mut ops,
                        )
                    } else {
                        (
                            forward_logits(ctx, &adj, &feats, &w, &plan, false, &mut ops),
                            None,
                        )
                    };
                    hits += o.map_or(0, |o| o.hits);
                    outs.push(logits.gather(ctx, CollectiveKind::Other));
                }
                (outs, hits)
            })
        };
        let base = run(None);
        let empty = run(Some(0));
        let cached = run(Some(4));
        for (b, c) in base.results.iter().zip(&cached.results) {
            for (lb, lc) in b.0.iter().zip(&c.0) {
                assert_eq!(lb.as_slice(), lc.as_slice(), "cached logits drifted");
            }
            assert!(c.1 > 0, "repeated targets must hit");
        }
        let bytes = |out: &rdm_comm::RunOutput<(Vec<Mat>, u64)>| -> u64 {
            out.stats
                .iter()
                .map(|s| s.bytes(CollectiveKind::Redistribute))
                .sum()
        };
        for (b, e) in base.results.iter().zip(&empty.results) {
            assert_eq!(b.0, e.0, "capacity-0 cache changed the logits");
            assert_eq!(e.1, 0, "a capacity-0 cache cannot hit");
        }
        assert_eq!(
            bytes(&empty),
            bytes(&base),
            "a capacity-0 cache must leave the exchange whole"
        );
        assert!(
            bytes(&cached) < bytes(&base),
            "cache hits must thin the exchange: {} !< {}",
            bytes(&cached),
            bytes(&base)
        );
    }

    /// Forward-only serving from a replicated-panel plan (`r_a < p`) must
    /// produce bitwise-identical logits to the fully replicated topology,
    /// across the dense wire, the sparse wire and the overlapped engine.
    #[test]
    fn replicated_panel_forward_is_bitwise_full_replication() {
        let ds = toy(52, 6);
        let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 8, 4], 11));
        let p = 4;
        let run = |r_a: usize, sparse: bool, overlap: Option<usize>| {
            let (adj, feats) = (ds.adj_norm.clone(), ds.features.clone());
            let w = snap.to_weights();
            Cluster::new(p).run(move |ctx| {
                let plan = Plan::from_id(10, 2, ctx.size()).with_ra(r_a);
                let spec = overlap.map(OverlapSpec::new);
                let mut ops = OpCounters::default();
                let (logits, _) = forward_logits_with(
                    ctx,
                    &adj,
                    &feats,
                    &w,
                    &plan,
                    sparse,
                    spec.as_ref(),
                    None,
                    &mut ops,
                );
                logits.gather(ctx, CollectiveKind::Other)
            })
        };
        let base = run(p, false, None);
        for r_a in [1, 2] {
            for (sparse, overlap) in [(false, None), (true, None), (true, Some(3))] {
                let got = run(r_a, sparse, overlap);
                assert_eq!(
                    base.results[0].as_slice(),
                    got.results[0].as_slice(),
                    "r_a={r_a} sparse={sparse} overlap={overlap:?} logits drifted"
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
