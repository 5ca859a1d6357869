//! The RDM GCN engine: forward and backward passes that execute any
//! SpMM/GEMM ordering (Table IV configuration) with communication-free
//! products and explicit redistributions, on any adjacency replication
//! factor `R_A` (Fig. 6 topology; `R_A = P` is full replication).
//!
//! The engine decides nothing about the schedule. A plan expands into
//! one ordered step list (`rdm_model::schedule`) — the list the
//! conformance checker prices — and the engine interprets it over one
//! [`FormCache`] per tensor, freeing a layout where a `Free` step says.
//! A `Convert` step is one blocking group all-to-all, tagged
//! [`CollectiveKind::Redistribute`] where Table IV prices it (mismatched
//! adjacent orders, loss boundary, non-memoized weight gradient) and
//! `Other` for the ReLU-mask alignment it does not, so measured
//! `Redistribute` bytes stay model-exact. Under `R_A < P` the SpMM itself
//! additionally broadcasts inside column groups (tagged `Broadcast`), per
//! Table II's `R_A < P` rows, and weight gradients are ring all-reduced
//! (tagged `AllReduce`).
//!
//! A layer is two products — the aggregation (SpMM on the tile layout)
//! and the update (GEMM on row slices) — in the plan's order; the forward
//! and the backward pass (`Âᵀ`, `Wᵀ`) both run them. Both products have
//! one body, `fed_product`: a product on a cached layout runs on it, and
//! a product the step marks as fed converts the layout it has through the
//! one redistribution primitive, running the kernel on each strip as it
//! lands. Blocking is the one-strip
//! pipeline, so every kernel span times the kernel it names, nested in the
//! `Redistribute` span that feeds it.

use crate::dist::{DistMat, FormCache};
use crate::ops::{row_gemm, weight_grad, OpCounters, Topology};
use crate::plan::Plan;
use rdm_comm::{CollectiveKind, Form, RankCtx};
use rdm_dense::{hstack, relu_backward_in_place, relu_in_place, vstack, Mat};
use rdm_model::{schedule, Op, Slot, Step};
use rdm_trace::TraceCollective;
use std::collections::BTreeMap;

/// The one body of a product: `kernel` applied to `cache`'s form `to` —
/// the tile form for the aggregation, row slices for the update —
/// returning this rank's block of the product in that same form.
///
/// Unless `fed`, the kernel runs on the cached form. Otherwise the other
/// form is converted as `chunks` strips — blocking is the one-strip
/// pipeline — and the kernel runs on each strip as it lands, opening its
/// own kernel span inside the `Redistribute` span that feeds it while
/// later strips are in flight. Both kernels are strip-separable (SpMM
/// output columns, GEMM output rows), so the product is bitwise the same
/// for every strip count; one strip is moved out, not copied. The
/// converted form lands in `cache`. What the pipeline hides is priced from
/// the schedule (`rdm_model::RankPrice::hidden_ns`), not here.
#[allow(clippy::too_many_arguments)]
fn fed_product(
    ctx: &RankCtx,
    topo: &Topology,
    cache: &mut FormCache,
    to: Form,
    fed: bool,
    chunks: usize,
    ops: &mut OpCounters,
    mut kernel: impl FnMut(&Mat, &mut OpCounters) -> Mat,
) -> Mat {
    if !fed {
        return kernel(&cache.get(to).local, ops);
    }
    let src = cache.get(to.other());
    let mut outs: Vec<Mat> = Vec::with_capacity(chunks);
    let kind = CollectiveKind::Redistribute;
    let converted = topo.convert(src, to, ctx, kind, chunks, |_, strip| {
        outs.push(kernel(strip, ops))
    });
    cache.put(converted);
    match (outs.len(), to) {
        (1, _) => outs.pop().expect("one strip"),
        (_, Form::Col) => hstack(&outs),
        (_, Form::Row) => vstack(&outs),
    }
}

/// Replicated GCN weights, `w[l-1]` has shape `feats[l-1] × feats[l]`.
#[derive(Clone, Debug)]
pub struct GcnWeights {
    pub w: Vec<Mat>,
}

impl GcnWeights {
    /// Glorot-initialized weights, identical on every rank for a given
    /// seed.
    pub fn init(feats: &[usize], seed: u64) -> Self {
        let w = feats
            .windows(2)
            .enumerate()
            .map(|(l, pair)| Mat::glorot(pair[0], pair[1], seed.wrapping_add(l as u64)))
            .collect();
        GcnWeights { w }
    }

    /// Layer count.
    pub fn layers(&self) -> usize {
        self.w.len()
    }

    /// The `(rows, cols)` of every weight (for optimizer state).
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.w.iter().map(|m| m.shape()).collect()
    }
}

/// One epoch's schedule in execution: the plan's step list, how far it
/// has run, and the tensors it has not freed. The forward pass runs it to
/// the loss boundary; the backward pass runs the rest.
pub struct ForwardArtifacts {
    steps: Vec<Step>,
    /// Index of the next step to run.
    next: usize,
    /// Ordered, so the tensors an epoch leaves behind are freed in one
    /// order every run (the workspace pool's counts depend on it).
    slots: BTreeMap<Slot, FormCache>,
    layers: usize,
}

impl ForwardArtifacts {
    /// The logits as a row-sliced matrix (the schedule converted them at
    /// the loss boundary of §IV-A.1 if the last layer left them
    /// tile-sliced).
    pub fn logits_row(&self) -> DistMat {
        self.slots[&Slot::H(self.layers)].get(Form::Row).clone()
    }

    /// Hand back the input `H⁰`: the schedule reads it and never writes
    /// or frees it.
    pub(crate) fn take_input(&mut self) -> FormCache {
        self.slots.remove(&Slot::H(0)).expect("the input")
    }

    /// Hand back layer 1's aggregation `T¹ = Â·H⁰`, row-sliced: what layer
    /// 1's GEMM read, moved out (a memoized or held `T¹` is never freed).
    pub(crate) fn take_aggregation(&mut self) -> DistMat {
        let t = self.slots.remove(&Slot::T(1)).and_then(|t| t.row);
        t.expect("layer 1's aggregation, row-sliced")
    }

    /// Run steps until the loss boundary or the end of the schedule.
    /// Weight gradients land in `grads`.
    fn run(
        &mut self,
        ctx: &RankCtx,
        topo: &Topology,
        weights: &GcnWeights,
        chunks: usize,
        grads: &mut [Mat],
        ops: &mut OpCounters,
    ) {
        while let Some(&step) = self.steps.get(self.next) {
            let slots = &mut self.slots;
            let slot = |s: Slot| &slots[&s];
            match step {
                Step::Loss => break,
                Step::Convert {
                    slot: s, to, kind, ..
                } => {
                    let kind = match kind {
                        TraceCollective::Redistribute => CollectiveKind::Redistribute,
                        _ => CollectiveKind::Other,
                    };
                    let m = topo.convert(slot(s).get(to.other()), to, ctx, kind, 1, |_, _| {});
                    slots.get_mut(&s).expect("converted slot").put(m);
                }
                Step::Product {
                    op,
                    layer,
                    src,
                    dst,
                    f_out,
                    fed,
                    bwd,
                    ..
                } => {
                    let kernel = |m: &Mat, ops: &mut OpCounters| match op {
                        Op::Spmm => topo.spmm_tile(m, bwd, ctx, ops),
                        Op::Gemm => row_gemm(m, &weights.w[layer - 1], bwd, ops),
                    };
                    let c = slots.get_mut(&src).expect("product source");
                    let local = fed_product(ctx, topo, c, op.form(), fed, chunks, ops, kernel);
                    let (dist, rows, cols) = (op.form(), topo.n, f_out);
                    slots.insert(
                        dst,
                        FormCache::of(DistMat {
                            dist,
                            rows,
                            cols,
                            local,
                        }),
                    );
                }
                Step::WeightGrad { layer, a, b, .. } => {
                    let (a, b) = (slot(a).get(Form::Row), slot(b).get(Form::Row));
                    grads[layer - 1] = weight_grad(a, b, ctx, ops);
                }
                Step::Relu { layer, form } => {
                    let z = slots.get_mut(&Slot::H(layer)).expect("activation");
                    relu_in_place(&mut z.layout(form).as_mut().expect("activation layout").local);
                }
                Step::ReluMask { layer, form } => {
                    // Take the gradient's layout out of its slot so the
                    // activation's can be read beside it, then put it back.
                    let (g, h) = (Slot::G(layer - 1), Slot::H(layer - 1));
                    let grads = slots.get_mut(&g).expect("gradient");
                    let mut grad = grads.layout(form).take().expect("gradient layout");
                    relu_backward_in_place(&mut grad.local, &slots[&h].get(form).local);
                    slots.get_mut(&g).expect("gradient").put(grad);
                }
                Step::Free { slot: s, form } => {
                    *slots.get_mut(&s).expect("freed slot").layout(form) = None;
                }
            }
            self.next += 1;
        }
    }
}

/// `relu(z)`, in place, when `apply` (every layer but the last), else `z`.
pub(crate) fn activate(mut z: DistMat, apply: bool) -> DistMat {
    if apply {
        relu_in_place(&mut z.local);
    }
    z
}

/// Run the forward pass of eq. (1)–(2) under `plan`.
///
/// `input` must hold *both* layouts of `H^0` (the initial distribution is
/// free — data is loaded wherever the plan wants it, §IV-B). Every
/// product a conversion feeds runs as `chunks` strips (`1`: the classic
/// blocking schedule); results and payload bytes are identical either way.
/// `plan::resolve` decides `chunks` once per run.
pub fn rdm_forward(
    ctx: &RankCtx,
    topo: &Topology,
    input: FormCache,
    weights: &GcnWeights,
    plan: &Plan,
    chunks: usize,
    ops: &mut OpCounters,
) -> ForwardArtifacts {
    let entry = (Slot::H(0), input);
    forward_pass(ctx, topo, entry, weights, plan, plan.memoize, chunks, ops)
}

/// The one forward loop: `plan`'s schedule, memoized or not, run to the
/// loss boundary from `entry`. The entry is the dual-form input `H⁰` —
/// or, in a full-graph serving batch after the first, layer 1's held
/// aggregation `T¹`, row-sliced, from which the `held` schedule starts at
/// layer 1's GEMM.
///
/// # Panics
/// If the weights do not match the plan's layers, the plan's replication
/// factor is not the topology's, or `T¹` is held by a plan whose first
/// layer is GEMM-first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_pass(
    ctx: &RankCtx,
    topo: &Topology,
    entry: (Slot, FormCache),
    weights: &GcnWeights,
    plan: &Plan,
    memoize: bool,
    chunks: usize,
    ops: &mut OpCounters,
) -> ForwardArtifacts {
    assert_eq!(
        plan.r_a, topo.grid.r_a,
        "plan replication factor does not match the topology"
    );
    let feats: Vec<usize> = std::iter::once(weights.w[0].rows())
        .chain(weights.w.iter().map(Mat::cols))
        .collect();
    let held = entry.0 == Slot::T(1);
    let steps = schedule(&plan.config, memoize, &feats, held)
        .unwrap_or_else(|e| panic!("weights do not fit the plan: {e}"));
    let mut art = ForwardArtifacts {
        steps,
        next: 0,
        slots: BTreeMap::from([entry]),
        layers: weights.layers(),
    };
    art.run(ctx, topo, weights, chunks, &mut [], ops);
    art
}

/// Gradients produced by the backward pass.
pub struct BackwardResult {
    /// Replicated, already all-reduced weight gradients (one per layer).
    pub weight_grads: Vec<Mat>,
    /// Gradient with respect to the input features (`G^0` in Fig. 4).
    pub g0: DistMat,
}

/// Run the backward pass of eq. (3)–(4): the rest of the forward pass's
/// schedule from the row-sliced loss gradient on. `chunks` pipelines the
/// gradient propagation as in [`rdm_forward`]; the weight-gradient and
/// ReLU-mask conversions stay blocking (they are rarely on the critical
/// redistribution path).
pub fn rdm_backward(
    ctx: &RankCtx,
    topo: &Topology,
    artifacts: &mut ForwardArtifacts,
    weights: &GcnWeights,
    loss_grad: DistMat,
    chunks: usize,
    ops: &mut OpCounters,
) -> BackwardResult {
    assert_eq!(
        artifacts.steps.get(artifacts.next),
        Some(&Step::Loss),
        "the forward pass stops at the loss boundary"
    );
    let g = Slot::G(artifacts.layers);
    artifacts.slots.insert(g, FormCache::of_row(loss_grad));
    artifacts.next += 1;
    let mut weight_grads: Vec<Mat> = weights
        .w
        .iter()
        .map(|w| Mat::zeros(w.rows(), w.cols()))
        .collect();
    artifacts.run(ctx, topo, weights, chunks, &mut weight_grads, ops);
    let g0 = artifacts
        .slots
        .remove(&Slot::G(0))
        .expect("layer 1 always produces G^0");
    BackwardResult {
        weight_grads,
        g0: g0.row.or(g0.col).expect("G^0 has a layout"),
    }
}

/// Serial (single-process) GCN forward/backward reference used by tests:
/// plain dense/sparse algebra with no distribution at all.
pub mod serial {
    use super::GcnWeights;
    use rdm_dense::{gemm, gemm_nt, gemm_tn, relu, relu_backward, Mat};
    use rdm_sparse::{spmm, Csr};

    /// Forward: returns per-layer activations (`h[0]` = input, `h[L]` =
    /// logits).
    pub fn forward(adj: &Csr, input: &Mat, weights: &GcnWeights) -> Vec<Mat> {
        let mut h = vec![input.clone()];
        let layers = weights.layers();
        for l in 1..=layers {
            let t = spmm(adj, &h[l - 1]);
            let z = gemm(&t, &weights.w[l - 1]);
            h.push(if l < layers { relu(&z) } else { z });
        }
        h
    }

    /// Backward from a logits gradient for a **symmetric** aggregation
    /// matrix; returns (weight grads, input grad).
    pub fn backward(
        adj: &Csr,
        h: &[Mat],
        weights: &GcnWeights,
        loss_grad: &Mat,
    ) -> (Vec<Mat>, Mat) {
        backward_asym(adj, h, weights, loss_grad)
    }

    /// Backward for a general aggregation matrix `M`: pass `Mᵀ` as
    /// `adj_bwd` (equal to `M` in the symmetric GCN case). All adjacency
    /// products in the backward pass are against the transpose:
    /// `Gˡ⁻¹ = Mᵀ Gˡ Wᵀ ⊙ σ'` and `Yˡ = Hᵀ Mᵀ Gˡ`.
    pub fn backward_asym(
        adj_bwd: &Csr,
        h: &[Mat],
        weights: &GcnWeights,
        loss_grad: &Mat,
    ) -> (Vec<Mat>, Mat) {
        let layers = weights.layers();
        let mut grads = Vec::new();
        let mut g = loss_grad.clone();
        for l in (1..=layers).rev() {
            let t = spmm(adj_bwd, &g); // Mᵀ·Gˡ
            let y = gemm_tn(&h[l - 1], &t); // Hᵀ Mᵀ Gˡ
            grads.push(y);
            let mut gp = gemm_nt(&t, &weights.w[l - 1]);
            if l > 1 {
                gp = relu_backward(&gp, &h[l - 1]);
            }
            g = gp;
        }
        grads.reverse();
        (grads, g)
    }
}

/// Build the input [`FormCache`] for a topology: both layouts of the
/// feature matrix, sliced locally (the initial distribution is free).
pub fn input_cache(features: &Mat, topo: &Topology, ctx: &RankCtx) -> FormCache {
    let mut c = FormCache::of_row(DistMat::scatter_rows(features, ctx.size(), ctx.rank()));
    c.put(topo.scatter_tile(features, ctx));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::loss::{serial as loss_serial, softmax_xent, LossSpec};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rdm_comm::{Cluster, RunOutput};
    use rdm_dense::allclose;
    use rdm_graph::dataset::{toy, Dataset};
    use rdm_model::OrderConfig;

    /// Distributed forward under every 2-layer plan must equal the serial
    /// forward.
    #[test]
    fn forward_matches_serial_for_all_16_configs() {
        let ds = toy(60, 1);
        let weights = GcnWeights::init(&[16, 8, 4], 7);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let logits_ref = serial_h.last().unwrap().clone();
        for id in 0..16 {
            let plan = Plan::from_id(id, 2, 4);
            let (adj, feats, w2, lr) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                logits_ref.clone(),
            );
            let out = Cluster::new(4).run(move |ctx| {
                let topo = Topology::full(&adj, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                logits.gather(ctx, CollectiveKind::Other)
            });
            for got in &out.results {
                assert!(allclose(got, &lr, 1e-3), "config ID {id} forward mismatch");
            }
        }
    }

    /// Distributed backward under every 2-layer plan must produce the same
    /// weight gradients as the serial reference.
    #[test]
    fn backward_matches_serial_for_all_16_configs() {
        let ds = toy(48, 2);
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 3);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let mask = vec![true; ds.n()];
        let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
        let (serial_grads, serial_g0) = serial::backward(&ds.adj_norm, &serial_h, &weights, &lg);
        for id in 0..16 {
            let plan = Plan::from_id(id, 2, 4);
            let (adj, feats, w2, labels) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                ds.labels.clone(),
            );
            let m2 = mask.clone();
            let out = Cluster::new(4).run(move |ctx| {
                let topo = Topology::full(&adj, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                let spec = LossSpec {
                    labels: &labels,
                    mask: &m2,
                    num_classes: 4,
                };
                let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                let back = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
                let g0 = match back.g0.dist {
                    Dist::Row => back.g0.gather(ctx, CollectiveKind::Other),
                    Dist::Col => topo.gather_tile(&back.g0, ctx, CollectiveKind::Other),
                };
                (back.weight_grads, g0)
            });
            for (grads, g0) in &out.results {
                for (l, (got, expect)) in grads.iter().zip(&serial_grads).enumerate() {
                    assert!(
                        allclose(got, expect, 1e-3),
                        "config ID {id} weight grad layer {} mismatch",
                        l + 1
                    );
                }
                assert!(allclose(g0, &serial_g0, 1e-3), "config ID {id} g0 mismatch");
            }
        }
    }

    /// Three-layer plans must also match the serial reference.
    #[test]
    fn three_layer_forward_backward_matches_serial() {
        let ds = toy(40, 5);
        let feats_dims = vec![16usize, 12, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 11);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let mask = vec![true; ds.n()];
        let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
        let (serial_grads, _) = serial::backward(&ds.adj_norm, &serial_h, &weights, &lg);
        // Sample of IDs including ones that hit the pathological reuse
        // paths; running all 64 here would be slow in debug builds.
        for id in [0usize, 5, 10, 21, 42, 63, 38, 27] {
            let plan = Plan {
                config: OrderConfig::from_id(id, 3),
                r_a: 4,
                memoize: true,
            };
            let (adj, feats, w2, labels) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                ds.labels.clone(),
            );
            let m2 = mask.clone();
            let out = Cluster::new(4).run(move |ctx| {
                let topo = Topology::full(&adj, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                let spec = LossSpec {
                    labels: &labels,
                    mask: &m2,
                    num_classes: 4,
                };
                let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                let back = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
                back.weight_grads
            });
            for grads in &out.results {
                for (l, (got, expect)) in grads.iter().zip(&serial_grads).enumerate() {
                    assert!(
                        allclose(got, expect, 1e-3),
                        "3-layer ID {id} grad layer {} mismatch",
                        l + 1
                    );
                }
            }
        }
    }

    /// `R_A < P` (Fig. 6 topology): forward and backward still match the
    /// serial reference, for all 16 configs on a 2×2 grid and a 4×2 grid.
    #[test]
    fn ra_topology_matches_serial_for_all_configs() {
        let ds = toy(48, 9);
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 3);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let mask = vec![true; ds.n()];
        let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
        let (serial_grads, _) = serial::backward(&ds.adj_norm, &serial_h, &weights, &lg);
        for (p, r_a) in [(4usize, 2usize), (8, 2), (8, 4)] {
            for id in 0..16 {
                let plan = Plan {
                    config: OrderConfig::from_id(id, 2),
                    r_a,
                    memoize: true,
                };
                let (adj, feats, w2, labels) = (
                    ds.adj_norm.clone(),
                    ds.features.clone(),
                    weights.clone(),
                    ds.labels.clone(),
                );
                let m2 = mask.clone();
                let out = Cluster::new(p).run(move |ctx| {
                    let topo = Topology::new(&adj, r_a, ctx);
                    let mut ops = OpCounters::default();
                    let input = input_cache(&feats, &topo, ctx);
                    let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                    let logits = art.logits_row();
                    let spec = LossSpec {
                        labels: &labels,
                        mask: &m2,
                        num_classes: 4,
                    };
                    let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                    let back = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
                    back.weight_grads
                });
                for grads in &out.results {
                    for (l, (got, expect)) in grads.iter().zip(&serial_grads).enumerate() {
                        assert!(
                            allclose(got, expect, 1e-3),
                            "P={p} R_A={r_a} ID {id} grad layer {} mismatch",
                            l + 1
                        );
                    }
                }
            }
        }
    }

    /// Disabling memoization must not change the numerics, only the cost.
    #[test]
    fn no_memoize_same_gradients_more_spmm() {
        let ds = toy(48, 4);
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 3);
        // ID 8 = (F:SS, B:DS): layer 2 is S-forward, D-backward — the
        // memoized case.
        let run = |memoize: bool| {
            let plan = Plan {
                config: OrderConfig::from_id(8, 2),
                r_a: 4,
                memoize,
            };
            let (adj, feats, w2, labels) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                ds.labels.clone(),
            );
            Cluster::new(4).run(move |ctx| {
                let topo = Topology::full(&adj, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                let mask = vec![true; labels.len()];
                let spec = LossSpec {
                    labels: &labels,
                    mask: &mask,
                    num_classes: 4,
                };
                let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                let back = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
                (back.weight_grads, ops)
            })
        };
        let with = run(true);
        let without = run(false);
        for (a, b) in with.results.iter().zip(&without.results) {
            for (ga, gb) in a.0.iter().zip(&b.0) {
                assert!(allclose(ga, gb, 1e-4), "gradients changed with memoize off");
            }
            assert!(
                b.1.spmm_fma > a.1.spmm_fma,
                "no-memoize must pay extra SpMM: {} vs {}",
                b.1.spmm_fma,
                a.1.spmm_fma
            );
        }
    }

    /// The measured redistribution traffic of an epoch must equal the cost
    /// model's prediction exactly, for representative configurations.
    #[test]
    fn measured_redistribution_matches_cost_model() {
        let ds = toy(64, 3);
        let p = 4;
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 5);
        let shape = rdm_model::GnnShape {
            n: ds.n(),
            nnz: ds.adj_norm.nnz(),
            feats: feats_dims.clone(),
        };
        for id in [0usize, 2, 3, 5, 8, 10, 12] {
            let plan = Plan::from_id(id, 2, p);
            let expect = rdm_model::cost::config_cost(&shape, &plan.config, p, p);
            let (adj, feats, w2, labels) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                ds.labels.clone(),
            );
            let out = Cluster::new(p).run(move |ctx| {
                let topo = Topology::full(&adj, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                let mask = vec![true; labels.len()];
                let spec = LossSpec {
                    labels: &labels,
                    mask: &mask,
                    num_classes: 4,
                };
                let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                let _ = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
                ops
            });
            let measured_bytes: u64 = out
                .stats
                .iter()
                .map(|s| s.bytes(CollectiveKind::Redistribute))
                .sum();
            // The model counts elements; ×4 for f32 bytes. Balanced
            // partition of 64 rows / 16·8·4 cols over 4 ranks is exact.
            let expect_bytes = (expect.comm_elems * 4.0) as u64;
            assert_eq!(
                measured_bytes, expect_bytes,
                "config ID {id}: measured {measured_bytes} vs model {expect_bytes}"
            );
            // SpMM op counts must match too.
            let measured_spmm: f64 = out.results.iter().map(|o| o.spmm_fma).sum();
            assert_eq!(measured_spmm, expect.spmm_ops, "config ID {id} spmm ops");
        }
    }

    /// Under `R_A < P` the measured traffic (group redistributions +
    /// panel broadcasts) must equal the Table II/III `R_A < P` model.
    #[test]
    fn ra_measured_traffic_matches_cost_model() {
        let ds = toy(64, 6);
        let p = 4;
        let r_a = 2;
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 5);
        let shape = rdm_model::GnnShape {
            n: ds.n(),
            nnz: ds.adj_norm.nnz(),
            feats: feats_dims.clone(),
        };
        for id in [0usize, 5, 10] {
            let plan = Plan {
                config: OrderConfig::from_id(id, 2),
                r_a,
                memoize: true,
            };
            let expect = rdm_model::cost::config_cost(&shape, &plan.config, p, r_a);
            let (adj, feats, w2, labels) = (
                ds.adj_norm.clone(),
                ds.features.clone(),
                weights.clone(),
                ds.labels.clone(),
            );
            let out = Cluster::new(p).run(move |ctx| {
                let topo = Topology::new(&adj, r_a, ctx);
                let mut ops = OpCounters::default();
                let input = input_cache(&feats, &topo, ctx);
                let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
                let logits = art.logits_row();
                let mask = vec![true; labels.len()];
                let spec = LossSpec {
                    labels: &labels,
                    mask: &mask,
                    num_classes: 4,
                };
                let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
                let _ = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
            });
            let measured: u64 = out
                .stats
                .iter()
                .map(|s| s.bytes(CollectiveKind::Redistribute) + s.bytes(CollectiveKind::Broadcast))
                .sum();
            let expect_bytes = (expect.comm_elems * 4.0) as u64;
            assert_eq!(
                measured, expect_bytes,
                "R_A={r_a} config ID {id}: measured {measured} vs model {expect_bytes}"
            );
        }
    }

    /// ID 10 (the paper's running example) must move exactly 4·f_h units
    /// and nothing else.
    #[test]
    fn id10_traffic_is_4fh_only() {
        let ds = toy(64, 9);
        let p = 4;
        let feats_dims = vec![16usize, 8, 4];
        let weights = GcnWeights::init(&feats_dims, 5);
        let plan = Plan::from_id(10, 2, p);
        let (adj, feats, w2, labels) = (
            ds.adj_norm.clone(),
            ds.features.clone(),
            weights.clone(),
            ds.labels.clone(),
        );
        let out = Cluster::new(p).run(move |ctx| {
            let topo = Topology::full(&adj, ctx);
            let mut ops = OpCounters::default();
            let input = input_cache(&feats, &topo, ctx);
            let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
            let logits = art.logits_row();
            let mask = vec![true; labels.len()];
            let spec = LossSpec {
                labels: &labels,
                mask: &mask,
                num_classes: 4,
            };
            let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
            let _ = rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops);
        });
        let redistribute: u64 = out
            .stats
            .iter()
            .map(|s| s.bytes(CollectiveKind::Redistribute))
            .sum();
        // 4 · f_h · (P-1)/P · N elements × 4 bytes; N=64, f_h=8, P=4.
        assert_eq!(redistribute as usize, 4 * (3 * 64 / 4) * 8 * 4);
        // No broadcast traffic at all (fully replicated adjacency).
        for st in &out.stats {
            assert_eq!(st.bytes(CollectiveKind::Broadcast), 0);
        }
    }

    /// What one training step leaves on a rank: loss, weight gradients,
    /// gathered G⁰, FMA counters, and the panel's (kept, total) nonzeros.
    type Step = (f32, Vec<Mat>, Mat, OpCounters, (usize, usize));

    /// One training step (forward, loss, backward) of `plan` on `p` ranks:
    /// every fed product as `chunks` strips (`1`: blocking), on the indexed
    /// or dense wire, and — with `edge_mask` — under a seeded keep-mask over the
    /// adjacency's nonzeros, of which each rank installs its panel's run.
    fn engine_step(
        ds: &Dataset,
        weights: &GcnWeights,
        plan: &Plan,
        p: usize,
        chunks: usize,
        sparse: bool,
        edge_mask: bool,
    ) -> RunOutput<Step> {
        let keep: Vec<bool> = {
            let mut rng = StdRng::seed_from_u64(29);
            (0..ds.adj_norm.nnz()).map(|_| rng.gen_bool(0.6)).collect()
        };
        Cluster::new(p).run(|ctx| {
            let mut topo = Topology::new(&ds.adj_norm, plan.r_a, ctx);
            topo.set_sparse(sparse);
            if edge_mask {
                let rows = topo.tile_rows(ctx.rank());
                let indptr = ds.adj_norm.indptr();
                topo.set_mask(Some(keep[indptr[rows.start]..indptr[rows.end]].to_vec()));
            }
            let nnz = topo.panel.nnz();
            let kept = topo
                .mask
                .as_ref()
                .map_or(nnz, |m| m.iter().filter(|&&k| k).count());
            let mut ops = OpCounters::default();
            let input = input_cache(&ds.features, &topo, ctx);
            let mut art = rdm_forward(ctx, &topo, input, weights, plan, chunks, &mut ops);
            let logits = art.logits_row();
            let mask = vec![true; ds.labels.len()];
            let lspec = LossSpec {
                labels: &ds.labels,
                mask: &mask,
                num_classes: 4,
            };
            let (loss, lgrad) = softmax_xent(&logits, &lspec, ctx);
            let back = rdm_backward(ctx, &topo, &mut art, weights, lgrad, chunks, &mut ops);
            let g0 = match back.g0.dist {
                Dist::Row => back.g0.gather(ctx, CollectiveKind::Other),
                Dist::Col => topo.gather_tile(&back.g0, ctx, CollectiveKind::Other),
            };
            (loss, back.weight_grads, g0, ops, (kept, nnz))
        })
    }

    /// `run` is bitwise `blocking` — loss, gradients, G⁰, FMA counters —
    /// with identical dense-equivalent Redistribute and Broadcast books and
    /// identical (always dense) broadcast bytes.
    fn assert_same_step(blocking: &RunOutput<Step>, run: &RunOutput<Step>, what: &str) {
        for (b, o) in blocking.results.iter().zip(&run.results) {
            assert_eq!(b.0.to_bits(), o.0.to_bits(), "{what}: loss drifted");
            for (l, (gb, go)) in b.1.iter().zip(&o.1).enumerate() {
                assert_eq!(gb.as_slice(), go.as_slice(), "{what}: grad layer {}", l + 1);
            }
            assert_eq!(b.2.as_slice(), o.2.as_slice(), "{what}: g0 drifted");
            assert_eq!(b.3, o.3, "{what}: FMA drifted");
        }
        for (sb, so) in blocking.stats.iter().zip(&run.stats) {
            for kind in [CollectiveKind::Redistribute, CollectiveKind::Broadcast] {
                assert_eq!(
                    sb.dense_bytes(kind),
                    so.dense_bytes(kind),
                    "{what}: {kind:?} book drifted"
                );
            }
            assert_eq!(
                sb.bytes(CollectiveKind::Broadcast),
                so.bytes(CollectiveKind::Broadcast),
                "{what}: broadcast bytes drifted"
            );
        }
    }

    /// The masked step multiplies only the kept nonzeros: its SpMM FMAs are
    /// kept nonzeros × the unmasked step's widths; GEMM work is untouched.
    fn assert_masked_fmas(unmasked: &RunOutput<Step>, masked: &RunOutput<Step>, what: &str) {
        for (u, m) in unmasked.results.iter().zip(&masked.results) {
            let (kept, nnz) = m.4;
            assert!(kept < nnz, "{what}: the keep-mask dropped nothing");
            assert_eq!(
                m.3.spmm_fma * nnz as f64,
                u.3.spmm_fma * kept as f64,
                "{what}: masked SpMM FMAs are not kept nonzeros × width"
            );
            assert_eq!(m.3.gemm_fma, u.3.gemm_fma, "{what}: GEMM FMAs drifted");
        }
    }

    /// The pipelined engine must be *bitwise* identical to the blocking
    /// one — logits, weight gradients, G⁰ and payload bytes — for every
    /// 2-layer plan, unmasked and under an edge mask. (What the pipeline
    /// hides is priced, not executed: `plan::tests::
    /// pipelined_price_is_the_executed_book`.)
    #[test]
    fn overlapped_engine_is_bitwise_blocking() {
        let ds = toy(57, 13);
        let p = 3;
        let weights = GcnWeights::init(&[16, 8, 4], 21);
        for id in 0..16 {
            let plan = Plan::from_id(id, 2, p);
            let mut blocking_runs = Vec::new();
            for masked in [false, true] {
                let what = format!("id {id} masked {masked}");
                let blocking = engine_step(&ds, &weights, &plan, p, 1, false, masked);
                let overlapped = engine_step(&ds, &weights, &plan, p, 3, false, masked);
                assert_same_step(&blocking, &overlapped, &what);
                for (sb, so) in blocking.stats.iter().zip(&overlapped.stats) {
                    assert_eq!(
                        sb.bytes(CollectiveKind::Redistribute),
                        so.bytes(CollectiveKind::Redistribute),
                        "{what}: payload bytes drifted"
                    );
                }
                blocking_runs.push(blocking);
            }
            assert_masked_fmas(&blocking_runs[0], &blocking_runs[1], &format!("id {id}"));
        }
    }

    /// Replicated-panel parity: at `R_A < P` the pipelined engine (dense
    /// or sparse wire, unmasked or under an edge mask) must match the
    /// blocking dense engine bitwise — loss, gradients, G⁰, FMA counters —
    /// with identical dense-equivalent Redistribute *and* Broadcast books,
    /// down to `r_a = 1`, whose one-member groups `plan::resolve` never
    /// pipelines but the engine strips like any other.
    #[test]
    fn overlapped_engine_is_bitwise_blocking_at_ra_lt_p() {
        let ds = toy(57, 13);
        let p = 4;
        let weights = GcnWeights::init(&[16, 8, 4], 21);
        for id in [0usize, 5, 10, 15] {
            for r_a in [1usize, 2] {
                let plan = Plan::from_id(id, 2, p).with_ra(r_a);
                let mut blocking_runs = Vec::new();
                for masked in [false, true] {
                    let blocking = engine_step(&ds, &weights, &plan, p, 1, false, masked);
                    for sparse in [false, true] {
                        let what = format!("id {id} r_a {r_a} masked {masked} sparse {sparse}");
                        let run = engine_step(&ds, &weights, &plan, p, 3, sparse, masked);
                        assert_same_step(&blocking, &run, &what);
                    }
                    blocking_runs.push(blocking);
                }
                let what = format!("id {id} r_a {r_a}");
                assert_masked_fmas(&blocking_runs[0], &blocking_runs[1], &what);
            }
        }
    }
}
