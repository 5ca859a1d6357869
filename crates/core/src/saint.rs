//! GraphSAINT trainers (§V-C).
//!
//! * **GraphSAINT-RDM**: every step samples *one* subgraph (all ranks draw
//!   it from a shared seed — §III-F's trick for avoiding mask
//!   communication) and trains on it with the full RDM machinery across
//!   all `P` ranks. Weights update after every subgraph, independent of
//!   `P`.
//! * **GraphSAINT-DDP**: every rank samples its *own* subgraph, trains it
//!   locally, and gradients are averaged with an all-reduce — the
//!   DGL+DistributedDataParallel setup the paper compares against. With
//!   `S` subgraphs per epoch and `G` GPUs there are only `S/G` weight
//!   updates, so the effective batch grows with `G` and convergence per
//!   epoch degrades (the effect Fig. 13 shows).
//!
//! Held-out evaluation runs as a *serial local forward* on the full graph
//! (weights are replicated, the graph fits every rank at our scale), so it
//! adds no inter-rank traffic and is excluded from timed communication.

use crate::adam::Adam;
use crate::gcn::{input_cache, rdm_backward, rdm_forward, serial, GcnWeights};
use crate::loss::{accuracy, serial as loss_serial, softmax_xent, LossSpec};
use crate::ops::OpCounters;
use crate::ops::Topology;
use crate::plan::Plan;
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::Mat;
use rdm_graph::dataset::{Dataset, Split};
use rdm_graph::SaintSampler;
use rdm_model::DeviceModel;

/// Shared bits of both GraphSAINT trainers.
struct SaintCommon {
    ds: Dataset,
    weights: GcnWeights,
    adam: Adam,
    sampler: SaintSampler,
    feats: Vec<usize>,
    steps_per_epoch: usize,
    train_mask: Vec<bool>,
    test_mask: Vec<bool>,
    seed: u64,
}

impl SaintCommon {
    fn new(
        ds: &Dataset,
        hidden: usize,
        layers: usize,
        lr: f32,
        seed: u64,
        sampler: SaintSampler,
        steps_per_epoch: usize,
    ) -> Self {
        let feats = ds.shape_layers(hidden, layers).feats;
        let weights = GcnWeights::init(&feats, seed);
        let adam = Adam::new(lr, &weights.shapes());
        SaintCommon {
            ds: ds.clone(),
            weights,
            adam,
            sampler,
            feats,
            steps_per_epoch,
            train_mask: ds.split.iter().map(|&s| s == Split::Train).collect(),
            test_mask: ds.split.iter().map(|&s| s == Split::Test).collect(),
            seed,
        }
    }

    /// Number of subgraph draws that roughly cover the graph once.
    fn default_steps(n: usize, sampler: SaintSampler) -> usize {
        (n / sampler.nominal_size().max(1)).max(1)
    }

    /// Serial full-graph evaluation: (train loss, train acc, test acc).
    fn evaluate(&self) -> (f32, f32, f32) {
        let h = serial::forward(&self.ds.adj_norm, &self.ds.features, &self.weights);
        let logits = h.last().unwrap();
        let (loss, _) = loss_serial::softmax_xent(logits, &self.ds.labels, &self.train_mask);
        let tr = loss_serial::accuracy(logits, &self.ds.labels, &self.train_mask);
        let te = loss_serial::accuracy(logits, &self.ds.labels, &self.test_mask);
        (loss, tr, te)
    }
}

/// GraphSAINT with RDM-parallel subgraph training.
pub struct SaintRdmTrainer {
    common: SaintCommon,
    plan_layers: usize,
    epoch_no: u64,
}

impl SaintRdmTrainer {
    /// The current (replicated) weights — the trained model once the
    /// epochs are done.
    pub fn weights(&self) -> &GcnWeights {
        &self.common.weights
    }

    pub fn setup(
        ds: &Dataset,
        hidden: usize,
        layers: usize,
        lr: f32,
        seed: u64,
        sampler: SaintSampler,
    ) -> Self {
        let steps = SaintCommon::default_steps(ds.n(), sampler);
        SaintRdmTrainer {
            common: SaintCommon::new(ds, hidden, layers, lr, seed, sampler, steps),
            plan_layers: layers,
            epoch_no: 0,
        }
    }

    /// One epoch = `steps_per_epoch` subgraphs, each trained across all
    /// ranks with RDM; returns (loss, train acc, test acc) from a full
    /// graph evaluation.
    pub fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let c = &mut self.common;
        let p = ctx.size();
        for step in 0..c.steps_per_epoch {
            // Identical subgraph on every rank from the shared seed.
            let draw_seed = c
                .seed
                .wrapping_add(self.epoch_no.wrapping_mul(10_007))
                .wrapping_add(step as u64);
            let sub = c.sampler.sample(&c.ds.adj, draw_seed);
            if sub.vertices.len() < p.max(4) {
                continue; // degenerate draw
            }
            let sd = c.ds.induced(&sub.vertices);
            // Plan for this subgraph's shape.
            let shape = rdm_model::GnnShape {
                n: sd.n(),
                nnz: sd.adj_norm.nnz(),
                feats: c.feats.clone(),
            };
            let plan = crate::plan::best_plan(&shape, p, p, &DeviceModel::a6000_pcie(), 1.0);
            assert_eq!(plan.config.layers(), self.plan_layers);
            // Distribute the subgraph inputs (local slicing, no traffic).
            let topo = Topology::full(&sd.adj_norm, ctx);
            let input = input_cache(&sd.features, &topo, ctx);
            let mut art = rdm_forward(ctx, &topo, input, &c.weights, &plan, None, ops);
            let logits = art.logits_row(&topo, ctx);
            let sub_train: Vec<bool> = sd.split.iter().map(|&s| s == Split::Train).collect();
            let spec = LossSpec {
                labels: &sd.labels,
                mask: &sub_train,
                num_classes: sd.spec.labels,
            };
            let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
            let back = rdm_backward(
                ctx, &topo, &mut art, &c.weights, &plan, lgrad, &c.feats, None, ops,
            );
            c.adam.step(&mut c.weights.w, &back.weight_grads);
        }
        self.epoch_no += 1;
        c.evaluate()
    }
}

/// GraphSAINT with one subgraph per rank and gradient all-reduce (DDP).
pub struct SaintDdpTrainer {
    common: SaintCommon,
    epoch_no: u64,
}

impl SaintDdpTrainer {
    /// The current (replicated) weights.
    pub fn weights(&self) -> &GcnWeights {
        &self.common.weights
    }

    pub fn setup(
        ds: &Dataset,
        hidden: usize,
        layers: usize,
        lr: f32,
        seed: u64,
        sampler: SaintSampler,
        p: usize,
    ) -> Self {
        // S subgraphs per epoch overall → S/G optimizer steps.
        let s = SaintCommon::default_steps(ds.n(), sampler);
        let steps = (s / p).max(1);
        SaintDdpTrainer {
            common: SaintCommon::new(ds, hidden, layers, lr, seed, sampler, steps),
            epoch_no: 0,
        }
    }

    /// One epoch; every step trains `P` subgraphs (one per rank) and takes
    /// a single averaged optimizer step.
    pub fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let c = &mut self.common;
        let p = ctx.size();
        for step in 0..c.steps_per_epoch {
            let draw_seed = c
                .seed
                .wrapping_add(self.epoch_no.wrapping_mul(20_011))
                .wrapping_add((step * p + ctx.rank()) as u64);
            let sub = c.sampler.sample(&c.ds.adj, draw_seed);
            let grads: Vec<Mat> = if sub.vertices.len() >= 4 {
                let sd = c.ds.induced(&sub.vertices);
                let h = serial::forward(&sd.adj_norm, &sd.features, &c.weights);
                // Count the local compute.
                for l in 1..=c.weights.layers() {
                    ops.spmm_fma += sd.adj_norm.nnz() as f64 * c.feats[l - 1] as f64;
                    ops.gemm_fma += sd.n() as f64 * c.feats[l - 1] as f64 * c.feats[l] as f64;
                }
                let sub_train: Vec<bool> = sd.split.iter().map(|&s| s == Split::Train).collect();
                let (_, lg) = loss_serial::softmax_xent(h.last().unwrap(), &sd.labels, &sub_train);
                let (grads, _) = serial::backward(&sd.adj_norm, &h, &c.weights, &lg);
                for l in 1..=c.weights.layers() {
                    ops.spmm_fma += sd.adj_norm.nnz() as f64 * c.feats[l] as f64;
                    ops.gemm_fma += 2.0 * sd.n() as f64 * c.feats[l - 1] as f64 * c.feats[l] as f64;
                }
                grads
            } else {
                // Degenerate draw: contribute zero gradients but keep the
                // collective schedule aligned.
                c.weights
                    .w
                    .iter()
                    .map(|w| Mat::zeros(w.rows(), w.cols()))
                    .collect()
            };
            // Average gradients across ranks (DDP all-reduce).
            let mut avg = Vec::with_capacity(grads.len());
            for g in grads {
                let mut summed = ctx.all_reduce_sum(g, CollectiveKind::AllReduce);
                rdm_dense::scale(&mut summed, 1.0 / p as f32);
                avg.push(summed);
            }
            c.adam.step(&mut c.weights.w, &avg);
        }
        self.epoch_no += 1;
        c.evaluate()
    }
}

/// Sampling by **masked SpMM** (§III-F): for sampling schemes that do not
/// build independent subgraphs, every training step draws a Bernoulli mask
/// over the edges and aggregates only the sampled neighbors with the
/// masked kernel. The mask is generated from a seed shared by all ranks —
/// "a random generated seed can be passed to all processes and each
/// process can generate its sparse mask individually, reducing the
/// communication overhead for the sampling mask" — so sampling costs zero
/// communication. Edge values are pre-scaled by `1/keep` so the masked
/// aggregation is an unbiased estimator of the full one.
pub struct SaintMaskedTrainer {
    common: SaintCommon,
    /// Edge keep probability `q ∈ (0, 1]`.
    keep: f64,
    /// Adjacency with values scaled by `1/q`.
    adj_scaled: rdm_sparse::Csr,
    plan_layers: usize,
    epoch_no: u64,
}

impl SaintMaskedTrainer {
    /// The current (replicated) weights.
    pub fn weights(&self) -> &GcnWeights {
        &self.common.weights
    }

    /// # Panics
    /// If `keep` is not in `(0, 1]`.
    pub fn setup(
        ds: &Dataset,
        hidden: usize,
        layers: usize,
        lr: f32,
        seed: u64,
        keep: f64,
    ) -> Self {
        assert!(
            keep > 0.0 && keep <= 1.0,
            "keep probability must be in (0,1]"
        );
        // One epoch touches every edge once in expectation.
        let steps = (1.0 / keep).ceil() as usize;
        let dummy = SaintSampler::Node { budget: ds.n() };
        let mut adj_scaled = ds.adj_norm.clone();
        let inv = (1.0 / keep) as f32;
        for v in adj_scaled.vals_mut() {
            *v *= inv;
        }
        SaintMaskedTrainer {
            common: SaintCommon::new(ds, hidden, layers, lr, seed, dummy, steps),
            keep,
            adj_scaled,
            plan_layers: layers,
            epoch_no: 0,
        }
    }

    /// One epoch = `⌈1/keep⌉` masked full-graph steps; returns
    /// (loss, train acc, test acc) from an unmasked evaluation.
    pub fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        use rand::{Rng, SeedableRng};
        let c = &mut self.common;
        let p = ctx.size();
        let shape = rdm_model::GnnShape {
            n: c.ds.n(),
            nnz: self.adj_scaled.nnz(),
            feats: c.feats.clone(),
        };
        let plan = crate::plan::best_plan(&shape, p, p, &DeviceModel::a6000_pcie(), 1.0);
        assert_eq!(plan.config.layers(), self.plan_layers);
        for step in 0..c.steps_per_epoch {
            // The shared-seed mask: identical on every rank, no traffic.
            let draw_seed = c
                .seed
                .wrapping_add(self.epoch_no.wrapping_mul(30_029))
                .wrapping_add(step as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(draw_seed);
            let mask: Vec<bool> = (0..self.adj_scaled.nnz())
                .map(|_| rng.gen_bool(self.keep))
                .collect();
            let mut topo = Topology::full(&self.adj_scaled, ctx);
            topo.set_mask(Some(mask));
            let input = input_cache(&c.ds.features, &topo, ctx);
            let mut art = rdm_forward(ctx, &topo, input, &c.weights, &plan, None, ops);
            let logits = art.logits_row(&topo, ctx);
            let spec = LossSpec {
                labels: &c.ds.labels,
                mask: &c.train_mask,
                num_classes: c.ds.spec.labels,
            };
            let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
            let back = rdm_backward(
                ctx, &topo, &mut art, &c.weights, &plan, lgrad, &c.feats, None, ops,
            );
            c.adam.step(&mut c.weights.w, &back.weight_grads);
        }
        self.epoch_no += 1;
        c.evaluate()
    }
}

/// Full-batch RDM evaluation helper shared by the trainer driver: runs the
/// distributed forward with evaluation-tagged traffic to compute held-out
/// accuracy without polluting training metrics. (Used by tests; the
/// GraphSAINT trainers evaluate serially instead.)
pub fn eval_accuracy_distributed(
    ds: &Dataset,
    weights: &GcnWeights,
    plan: &Plan,
    ctx: &RankCtx,
) -> (f32, f32) {
    let mut scratch = OpCounters::default();
    let topo = Topology::full(&ds.adj_norm, ctx);
    let input = input_cache(&ds.features, &topo, ctx);
    let mut art = rdm_forward(ctx, &topo, input, weights, plan, None, &mut scratch);
    let last = art.h.len() - 1;
    let logits = art.h[last]
        .require_row(&topo, ctx, CollectiveKind::Eval)
        .clone();
    let train_mask: Vec<bool> = ds.split.iter().map(|&s| s == Split::Train).collect();
    let test_mask: Vec<bool> = ds.split.iter().map(|&s| s == Split::Test).collect();
    let tr = accuracy(&logits, &ds.labels, &train_mask, ctx);
    let te = accuracy(&logits, &ds.labels, &test_mask, ctx);
    (tr, te)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_comm::Cluster;
    use rdm_graph::dataset::toy;

    fn sampler() -> SaintSampler {
        SaintSampler::Node { budget: 40 }
    }

    #[test]
    fn saint_rdm_learns_on_toy_data() {
        let ds = toy(200, 1);
        let ds2 = ds.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let mut t = SaintRdmTrainer::setup(&ds2, 16, 2, 0.02, 3, sampler());
            let mut ops = OpCounters::default();
            let mut accs = Vec::new();
            for _ in 0..6 {
                accs.push(t.epoch(ctx, &mut ops).2);
            }
            accs
        });
        let accs = &out.results[0];
        let baseline = 1.0 / 4.0; // 4 classes
        assert!(
            *accs.last().unwrap() > baseline + 0.2,
            "SAINT-RDM failed to learn: {accs:?}"
        );
    }

    #[test]
    fn saint_ddp_learns_and_all_ranks_agree() {
        let ds = toy(200, 2);
        let ds2 = ds.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let mut t = SaintDdpTrainer::setup(&ds2, 16, 2, 0.02, 3, sampler(), ctx.size());
            let mut ops = OpCounters::default();
            let mut last = (0.0, 0.0, 0.0);
            for _ in 0..6 {
                last = t.epoch(ctx, &mut ops);
            }
            last
        });
        let first = out.results[0];
        for r in &out.results {
            assert!((r.2 - first.2).abs() < 1e-6, "ranks disagree on accuracy");
        }
        assert!(first.2 > 0.45, "SAINT-DDP failed to learn: {first:?}");
    }

    #[test]
    fn saint_rdm_updates_more_often_than_ddp() {
        // With S subgraphs per epoch, RDM takes S optimizer steps and DDP
        // takes S/P — the §V-C batch-size effect.
        let ds = toy(400, 3);
        let rdm = SaintRdmTrainer::setup(&ds, 16, 2, 0.01, 3, sampler());
        let ddp = SaintDdpTrainer::setup(&ds, 16, 2, 0.01, 3, sampler(), 4);
        assert_eq!(rdm.common.steps_per_epoch, 10);
        assert_eq!(ddp.common.steps_per_epoch, 2);
    }

    #[test]
    fn ddp_allreduce_traffic_scales_with_steps_not_graph() {
        let ds = toy(200, 4);
        let ds2 = ds.clone();
        let out = Cluster::new(2).run(move |ctx| {
            let mut t = SaintDdpTrainer::setup(&ds2, 16, 2, 0.01, 3, sampler(), ctx.size());
            let mut ops = OpCounters::default();
            t.epoch(ctx, &mut ops);
            t.common.steps_per_epoch
        });
        let steps = out.results[0];
        // Per step: one all-reduce per layer; naive all-gather impl sends
        // (P-1)·|W| per rank per layer.
        // Both layers' weights: (16×16 + 16×4) f32s; P-1 = 1 copy per rank.
        let w_bytes = (16 * 16 + 16 * 4) * 4;
        let expect = steps * w_bytes;
        for st in &out.stats {
            assert_eq!(st.bytes(rdm_comm::CollectiveKind::AllReduce), expect as u64);
        }
    }

    #[test]
    fn masked_trainer_learns() {
        let ds = toy(250, 7);
        let ds2 = ds.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let mut t = SaintMaskedTrainer::setup(&ds2, 16, 2, 0.02, 3, 0.5);
            let mut ops = OpCounters::default();
            let mut last = (0.0, 0.0, 0.0);
            for _ in 0..8 {
                last = t.epoch(ctx, &mut ops);
            }
            last
        });
        let acc = out.results[0].2;
        assert!(acc > 0.5, "masked-SpMM training failed to learn: {acc}");
        for r in &out.results {
            assert_eq!(r.2, out.results[0].2, "ranks disagree");
        }
    }

    #[test]
    fn masked_trainer_charges_no_sampling_traffic() {
        // §III-F: the mask comes from a shared seed — zero communication
        // beyond the ordinary RDM redistributions.
        let ds = toy(120, 8);
        let ds2 = ds.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let mut t = SaintMaskedTrainer::setup(&ds2, 8, 2, 0.01, 5, 0.25);
            let mut ops = OpCounters::default();
            t.epoch(ctx, &mut ops);
            ops
        });
        for st in &out.stats {
            assert_eq!(st.bytes(rdm_comm::CollectiveKind::Sampling), 0);
            assert_eq!(st.bytes(rdm_comm::CollectiveKind::Broadcast), 0);
        }
        // Masked steps do fewer SpMM FMAs than the keep=1 equivalent
        // would (~keep fraction of edges participate).
        let full_fma_per_step = ds.adj_norm.nnz() as f64; // per unit width
        let _ = full_fma_per_step;
        assert!(out.results[0].spmm_fma > 0.0);
    }

    #[test]
    fn keep_one_mask_matches_full_batch_rdm_losses() {
        // keep = 1.0: the mask keeps everything and values are unscaled,
        // so one masked step equals one full-batch step.
        let ds = toy(100, 9);
        let ds2 = ds.clone();
        let masked = Cluster::new(2).run(move |ctx| {
            let mut t = SaintMaskedTrainer::setup(&ds2, 8, 2, 0.01, 5, 1.0);
            let mut ops = OpCounters::default();
            (0..3)
                .map(|_| t.epoch(ctx, &mut ops).0)
                .collect::<Vec<f32>>()
        });
        // Reference: serial full-batch training with identical init.
        let weights = GcnWeights::init(&[16, 8, 4], 5);
        let mut w = weights.clone();
        let mut adam = crate::adam::Adam::new(0.01, &w.shapes());
        let train_mask: Vec<bool> = ds.split.iter().map(|&s| s == Split::Train).collect();
        let mut expect = Vec::new();
        for _ in 0..3 {
            let h = serial::forward(&ds.adj_norm, &ds.features, &w);
            let (_, lg) = loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, &train_mask);
            let (grads, _) = serial::backward(&ds.adj_norm, &h, &w, &lg);
            adam.step(&mut w.w, &grads);
            // The trainer reports the post-epoch evaluation loss.
            let h2 = serial::forward(&ds.adj_norm, &ds.features, &w);
            let (l2, _) = loss_serial::softmax_xent(h2.last().unwrap(), &ds.labels, &train_mask);
            expect.push(l2);
        }
        for (a, b) in masked.results[0].iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "masked {a} vs full-batch {b}");
        }
    }

    #[test]
    fn distributed_eval_matches_serial_eval() {
        let ds = toy(80, 5);
        let weights = GcnWeights::init(&[16, 8, 4], 9);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let test_mask: Vec<bool> = ds.split.iter().map(|&s| s == Split::Test).collect();
        let expect = loss_serial::accuracy(serial_h.last().unwrap(), &ds.labels, &test_mask);
        let ds2 = ds.clone();
        let w2 = weights.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let plan = Plan::from_id(0, 2, ctx.size());
            eval_accuracy_distributed(&ds2, &w2, &plan, ctx).1
        });
        for acc in &out.results {
            assert!((acc - expect).abs() < 1e-6);
        }
    }
}
