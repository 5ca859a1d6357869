//! The sampling trainers: GraphSAINT (§V-C) and masked-SpMM (§III-F).
//!
//! * **GraphSAINT-RDM**: every step samples *one* subgraph and trains on
//!   it across all `P` ranks; weights update after every subgraph,
//!   independent of `P`.
//! * **GraphSAINT-DDP**: every rank samples its *own* subgraph, trains it
//!   locally, and gradients are averaged with an all-reduce — the
//!   DGL+DistributedDataParallel setup the paper compares against. With
//!   `S` subgraphs per epoch and `G` GPUs there are only `S/G` weight
//!   updates, so the effective batch grows with `G` and convergence per
//!   epoch degrades (the effect Fig. 13 shows).
//! * **Masked-SpMM**: for sampling schemes that do not build independent
//!   subgraphs, every step draws a Bernoulli mask over the edges and
//!   aggregates only the sampled neighbors with the masked kernel. The
//!   mask is generated from a seed shared by all ranks — "a random
//!   generated seed can be passed to all processes and each process can
//!   generate its sparse mask individually, reducing the communication
//!   overhead for the sampling mask" — so sampling costs zero
//!   communication. Edge values are pre-scaled by `1/keep` so the masked
//!   aggregation is an unbiased estimator of the full one.
//!
//! GraphSAINT-RDM and masked-SpMM train through the RDM step full-batch RDM
//! runs ([`crate::trainer`]), under plans selected on the configured device
//! ([`TrainerConfig::device`]). What the paper's GPUs each derive from the
//! shared seed is built once, on the thread calling [`crate::train_gcn`]:
//! masked SpMM's scaled adjacency and plan (`ScaledGraph`), and each
//! step's draw — a subgraph with its targets and plan, or an edge mask —
//! one step ahead of the ranks, which read it in place ([`rdm_comm::feed`]).
//! The trainer and the schedule checker both walk [`saint_rdm_draw`]'s and
//! [`masked_spmm_draw`]'s draws.
//!
//! Held-out evaluation runs as a *serial local forward* on the full graph
//! (weights are replicated, the graph fits every rank at our scale), so it
//! adds no inter-rank traffic and is excluded from timed communication.
//! Rank 0 alone runs it: the weights it scores are every rank's.

use crate::gcn::{serial, GcnWeights, RankInput};
use crate::loss::serial as loss_serial;
use crate::metrics::EpochScore;
use crate::ops::{OpCounters, Topology};
use crate::plan::{best_plan, Plan};
use crate::trainer::{split_mask, Algo, Model, Targets, Trainer, TrainerConfig};
use rdm_comm::feed::{Feed, Intake};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::Mat;
use rdm_graph::dataset::{Dataset, InducedBatch, Split};
use rdm_graph::SaintSampler;
use rdm_model::GnnShape;
use rdm_sparse::Csr;

/// What every sampling trainer shares: the full graph, the model, the
/// per-epoch draw schedule and the serial evaluation.
struct SaintCommon<'a> {
    ds: &'a Dataset,
    model: Model,
    /// The full graph's labels and split.
    targets: &'a Targets,
    steps_per_epoch: usize,
    seed: u64,
    epoch_no: u64,
}

impl<'a> SaintCommon<'a> {
    fn new(ds: &'a Dataset, cfg: &TrainerConfig, targets: &'a Targets) -> Self {
        SaintCommon {
            ds,
            model: Model::new(ds, cfg),
            targets,
            steps_per_epoch: saint_steps(ds, cfg),
            seed: cfg.seed,
            epoch_no: 0,
        }
    }

    /// Close the epoch; on rank 0, score it with a serial full-graph
    /// evaluation of the replicated weights.
    fn finish_epoch(&mut self, ctx: &RankCtx) -> Option<EpochScore> {
        self.epoch_no += 1;
        if ctx.rank() != 0 {
            return None;
        }
        let (ds, t) = (self.ds, self.targets);
        let h = serial::forward(&ds.adj_norm, &ds.features, &self.model.weights);
        let logits = h.last().unwrap();
        let (loss, _) = loss_serial::softmax_xent(logits, &t.labels, &t.train);
        Some(EpochScore {
            loss,
            train_acc: loss_serial::accuracy(logits, &t.labels, &t.train),
            test_acc: loss_serial::accuracy(logits, &t.labels, &t.test),
        })
    }
}

/// The optimizer steps of each epoch of `cfg`'s sampling trainer on `ds`:
/// GraphSAINT's `S` draws, which roughly cover the graph once, one to a
/// step under RDM and one per rank (`P` to a step) under DDP; masked SpMM's
/// `⌈1/keep⌉` masks, which touch every edge once in expectation.
///
/// # Panics
/// If `cfg` runs no sampling trainer.
pub fn saint_steps(ds: &Dataset, cfg: &TrainerConfig) -> usize {
    let (sampler, draws_per_step) = match cfg.algo {
        Algo::SaintRdm { sampler } => (sampler, 1),
        Algo::SaintDdp { sampler } => (sampler, cfg.p),
        Algo::SaintMasked { keep } => return (1.0 / keep as f64).ceil() as usize,
        _ => panic!("{} runs no sampling trainer", cfg.algo.label()),
    };
    let draws = (ds.n() / sampler.nominal_size().max(1)).max(1);
    (draws / draws_per_step).max(1)
}

/// The shared seed of epoch `epoch`'s draw `k` from run seed `seed`,
/// epochs `stride` apart.
fn draw_seed(seed: u64, epoch: u64, stride: u64, k: usize) -> u64 {
    seed.wrapping_add(epoch.wrapping_mul(stride))
        .wrapping_add(k as u64)
}

/// Draw `k` of epoch `epoch` of GraphSAINT-RDM under `cfg` on `ds`, from
/// its shared seed: unless it is too small to spread over the ranks,
/// induced into `sub`, with the fully replicated plan selected for it. The
/// trainer's host and a schedule checker both draw here.
///
/// # Panics
/// If `cfg` does not run GraphSAINT-RDM.
pub fn saint_rdm_draw(
    ds: &Dataset,
    cfg: &TrainerConfig,
    epoch: usize,
    k: usize,
    sub: &mut InducedBatch,
) -> Option<Plan> {
    let Algo::SaintRdm { sampler } = cfg.algo else {
        panic!("{} runs no GraphSAINT-RDM step", cfg.algo.label());
    };
    let drawn = sampler.sample(&ds.adj, draw_seed(cfg.seed, epoch as u64, 10_007, k));
    if drawn.vertices.len() < cfg.p.max(4) {
        return None;
    }
    ds.induced_into(&drawn.vertices, sub);
    Some(replicated_plan(sub.n(), sub.adj_norm.nnz(), ds, cfg))
}

/// Step `k` of epoch `epoch` of masked SpMM under `cfg` on `ds`: its
/// shared-seed edge mask, one flag per nonzero of `Â`, drawn into `mask`.
/// The trainer's host and a schedule checker both draw here.
///
/// # Panics
/// If `cfg` does not run masked SpMM.
pub fn masked_spmm_draw(
    ds: &Dataset,
    cfg: &TrainerConfig,
    epoch: usize,
    k: usize,
    mask: &mut Vec<bool>,
) {
    use rand::{Rng, SeedableRng};
    let Algo::SaintMasked { keep } = cfg.algo else {
        panic!("{} runs no masked-SpMM step", cfg.algo.label());
    };
    let seed = draw_seed(cfg.seed, epoch as u64, 30_029, k);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    mask.clear();
    mask.extend((0..ds.adj_norm.nnz()).map(|_| rng.gen_bool(keep as f64)));
}

/// The model-selected, fully replicated plan for a graph of `n` vertices
/// and `nnz` nonzeros with `ds`'s widths under `cfg`, priced on its device.
fn replicated_plan(n: usize, nnz: usize, ds: &Dataset, cfg: &TrainerConfig) -> Plan {
    let feats = ds.shape_layers(cfg.hidden, cfg.layers).feats;
    best_plan(&GnnShape { n, nnz, feats }, cfg.p, cfg.p, &cfg.device, 1.0)
}

/// One optimizer step's draw, as the host feeds it to every rank: a
/// GraphSAINT-RDM subgraph with its targets and plan (`None` for a
/// degenerate draw no rank trains), or a masked-SpMM step's edge mask.
#[derive(Default)]
pub(crate) struct Draw {
    sub: InducedBatch,
    targets: Targets,
    plan: Option<Plan>,
    mask: Vec<bool>,
}

/// The host of a training run: for GraphSAINT-RDM and masked SpMM, every
/// draw of its epochs in order, degenerate ones included, so each rank reads
/// exactly [`saint_steps`] per epoch. Other algorithms read nothing.
pub(crate) fn feed_draws(ds: &Dataset, cfg: &TrainerConfig, feed: &Feed<Draw>) {
    if !matches!(cfg.algo, Algo::SaintRdm { .. } | Algo::SaintMasked { .. }) {
        return;
    }
    let steps = saint_steps(ds, cfg);
    for epoch in 0..cfg.epochs {
        for k in 0..steps {
            feed.fill(|d| {
                if let Algo::SaintMasked { .. } = cfg.algo {
                    return masked_spmm_draw(ds, cfg, epoch, k, &mut d.mask);
                }
                d.plan = saint_rdm_draw(ds, cfg, epoch, k, &mut d.sub);
                if d.plan.is_some() {
                    d.targets = Targets::new(d.sub.labels.clone(), &d.sub.split, ds.spec.labels);
                }
            });
        }
    }
}

/// GraphSAINT with RDM-parallel subgraph training.
pub(crate) struct SaintRdmTrainer<'a> {
    common: SaintCommon<'a>,
    /// The host's draws, read in place.
    draws: &'a Intake<'a, Draw>,
}

impl<'a> SaintRdmTrainer<'a> {
    pub(crate) fn setup(
        ds: &'a Dataset,
        cfg: &TrainerConfig,
        targets: &'a Targets,
        draws: &'a Intake<'a, Draw>,
    ) -> Self {
        SaintRdmTrainer {
            common: SaintCommon::new(ds, cfg, targets),
            draws,
        }
    }
}

impl Trainer for SaintRdmTrainer<'_> {
    /// One epoch = the host's draws, each that is not degenerate trained
    /// across all ranks with the RDM step; rank 0 scores the epoch on the
    /// full graph.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> Option<EpochScore> {
        let c = &mut self.common;
        for _ in 0..c.steps_per_epoch {
            let draw = self.draws.next();
            let Some(plan) = &draw.plan else {
                continue; // degenerate draw
            };
            // The subgraph's inputs, sliced or borrowed locally (no traffic).
            let topo = Topology::full(&draw.sub.adj_norm, ctx);
            let features = &draw.sub.features;
            let input = RankInput::for_plan(features, &topo, plan, &c.model.weights, ctx);
            c.model
                .rdm_step(ctx, &topo, &input, plan, &draw.targets, false, 1, ops);
        }
        c.finish_epoch(ctx)
    }

    fn weights(&self) -> &GcnWeights {
        &self.common.model.weights
    }
}

/// GraphSAINT with one subgraph per rank and gradient all-reduce (DDP).
pub(crate) struct SaintDdpTrainer<'a> {
    common: SaintCommon<'a>,
    sampler: SaintSampler,
    /// This rank's subgraphs are induced into the same buffers.
    sub: InducedBatch,
}

impl<'a> SaintDdpTrainer<'a> {
    pub(crate) fn setup(ds: &'a Dataset, cfg: &TrainerConfig, targets: &'a Targets) -> Self {
        let Algo::SaintDdp { sampler } = cfg.algo else {
            unreachable!("the DDP trainer runs GraphSAINT-DDP")
        };
        SaintDdpTrainer {
            common: SaintCommon::new(ds, cfg, targets),
            sampler,
            sub: InducedBatch::default(),
        }
    }
}

impl Trainer for SaintDdpTrainer<'_> {
    /// One epoch; every step trains `P` subgraphs (one per rank) and takes
    /// a single averaged optimizer step.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> Option<EpochScore> {
        let c = &mut self.common;
        let p = ctx.size();
        for step in 0..c.steps_per_epoch {
            let seed = draw_seed(c.seed, c.epoch_no, 20_011, step * p + ctx.rank());
            let sub = self.sampler.sample(&c.ds.adj, seed);
            let (w, feats) = (&c.model.weights, &c.model.feats);
            let grads: Vec<Mat> = if sub.vertices.len() >= 4 {
                let sd = &mut self.sub;
                c.ds.induced_into(&sub.vertices, sd);
                let h = serial::forward(&sd.adj_norm, &sd.features, w);
                let sub_train = split_mask(&sd.split, Split::Train);
                let (_, lg) = loss_serial::softmax_xent(h.last().unwrap(), &sd.labels, &sub_train);
                let (grads, _) = serial::backward(&sd.adj_norm, &h, w, &lg);
                // Count the local compute: per layer, the forward products
                // and the backward's SpMM at the output width and two GEMMs.
                let (nnz, n) = (sd.adj_norm.nnz() as f64, sd.n() as f64);
                for f in feats.windows(2) {
                    let (f_in, f_out) = (f[0] as f64, f[1] as f64);
                    ops.spmm_fma += nnz * (f_in + f_out);
                    ops.gemm_fma += 3.0 * n * f_in * f_out;
                }
                grads
            } else {
                // Degenerate draw: contribute zero gradients but keep the
                // collective schedule aligned.
                w.w.iter().map(|w| Mat::zeros(w.rows(), w.cols())).collect()
            };
            // Average gradients across ranks (DDP all-reduce).
            let mut avg = Vec::with_capacity(grads.len());
            for g in grads {
                let mut summed = ctx.all_reduce_sum(g, CollectiveKind::AllReduce);
                rdm_dense::scale(&mut summed, 1.0 / p as f32);
                avg.push(summed);
            }
            let m = &mut c.model;
            m.adam.step(&mut m.weights.w, &avg);
        }
        c.finish_epoch(ctx)
    }

    fn weights(&self) -> &GcnWeights {
        &self.common.model.weights
    }
}

/// Masked SpMM's full graph, built once for every rank of a run: `Â` with
/// values scaled by `1/keep`, and its fully replicated plan.
pub(crate) struct ScaledGraph {
    adj: Csr,
    plan: Plan,
}

impl ScaledGraph {
    /// `None` unless `cfg` runs masked SpMM.
    pub(crate) fn of(ds: &Dataset, cfg: &TrainerConfig) -> Option<Self> {
        let Algo::SaintMasked { keep } = cfg.algo else {
            return None;
        };
        let mut adj = ds.adj_norm.clone();
        let inv = (1.0 / keep as f64) as f32;
        for v in adj.vals_mut() {
            *v *= inv;
        }
        let plan = replicated_plan(ds.n(), adj.nnz(), ds, cfg);
        Some(ScaledGraph { adj, plan })
    }
}

/// Sampling by masked SpMM: `⌈1/keep⌉` steps per epoch, each the RDM step
/// on the full graph under the host's shared-seed edge mask.
pub(crate) struct SaintMaskedTrainer<'a> {
    common: SaintCommon<'a>,
    /// The run's scaled adjacency, borrowed; each step installs its mask.
    topo: Topology<'a>,
    /// The layouts of the input features the plan reads, for every step.
    input: RankInput<'a>,
    plan: &'a Plan,
    /// The host's masks, read in place.
    draws: &'a Intake<'a, Draw>,
}

impl<'a> SaintMaskedTrainer<'a> {
    pub(crate) fn setup(
        ds: &'a Dataset,
        cfg: &TrainerConfig,
        targets: &'a Targets,
        scaled: &'a ScaledGraph,
        draws: &'a Intake<'a, Draw>,
        ctx: &RankCtx,
    ) -> Self {
        let topo = Topology::full(&scaled.adj, ctx);
        let common = SaintCommon::new(ds, cfg, targets);
        let weights = &common.model.weights;
        SaintMaskedTrainer {
            input: RankInput::for_plan(&ds.features, &topo, &scaled.plan, weights, ctx),
            common,
            topo,
            plan: &scaled.plan,
            draws,
        }
    }
}

impl Trainer for SaintMaskedTrainer<'_> {
    /// One epoch = `⌈1/keep⌉` masked full-graph steps; rank 0 scores the
    /// epoch unmasked.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> Option<EpochScore> {
        let c = &mut self.common;
        for _ in 0..c.steps_per_epoch {
            let draw = self.draws.next();
            let mut topo = self.topo.clone();
            topo.set_mask(&draw.mask);
            let (input, plan) = (&self.input, self.plan);
            c.model
                .rdm_step(ctx, &topo, input, plan, c.targets, false, 1, ops);
        }
        c.finish_epoch(ctx)
    }

    fn weights(&self) -> &GcnWeights {
        &self.common.model.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PanelGrid;
    use crate::train_gcn;
    use crate::trainer::on_ranks;
    use rdm_graph::dataset::toy;
    use rdm_model::DeviceModel;

    fn sampler() -> SaintSampler {
        SaintSampler::Node { budget: 40 }
    }

    /// Rank 0's score of each of `epochs` epochs of `cfg`, once every rank
    /// has ended on the same weights and no other rank has scored.
    fn run(ds: &Dataset, cfg: TrainerConfig, epochs: usize) -> Vec<EpochScore> {
        let out = on_ranks(ds, &cfg.epochs(epochs), |t, ctx| {
            let mut ops = OpCounters::default();
            let scores: Vec<_> = (0..epochs).map(|_| t.epoch(ctx, &mut ops)).collect();
            (scores, t.weights().w.clone())
        })
        .results;
        for (rank, (scores, w)) in out.iter().enumerate().skip(1) {
            assert_eq!(*w, out[0].1, "rank {rank}'s weights drifted");
            assert!(scores.iter().all(Option::is_none), "rank {rank} scored");
        }
        out[0].0.iter().map(|s| s.expect("rank 0 scores")).collect()
    }

    #[test]
    fn saint_rdm_learns_on_toy_data() {
        let ds = toy(200, 1);
        let cfg = TrainerConfig::saint_rdm(4, sampler())
            .hidden(16)
            .lr(0.02)
            .seed(3);
        let accs: Vec<f32> = run(&ds, cfg, 6).iter().map(|e| e.test_acc).collect();
        let baseline = 1.0 / 4.0; // 4 classes
        assert!(
            *accs.last().unwrap() > baseline + 0.2,
            "SAINT-RDM failed to learn: {accs:?}"
        );
    }

    /// A draw too small to spread over the ranks is fed like any other
    /// and skipped by every rank: an epoch of nothing but degenerate draws
    /// trains nothing — no traffic, no FMAs, the initial weights on every
    /// rank.
    #[test]
    fn an_epoch_of_degenerate_draws_trains_nothing() {
        let ds = toy(120, 5);
        let cfg = TrainerConfig::saint_rdm(4, SaintSampler::Node { budget: 3 })
            .hidden(8)
            .epochs(2);
        assert!(saint_steps(&ds, &cfg) > 1);
        let report = train_gcn(&ds, &cfg).unwrap();
        for e in &report.epochs {
            assert_eq!(
                (e.total_bytes, e.ops.spmm_fma, e.ops.gemm_fma),
                (0, 0.0, 0.0)
            );
        }
        let init = GcnWeights::init(&ds.shape_layers(8, 2).feats, cfg.seed);
        let trained = report.weights.unwrap().to_weights();
        assert!(trained.w.iter().zip(&init.w).all(|(a, b)| a == b));
        run(&ds, cfg, 2);
    }

    /// In an epoch of mixed draws the ranks train exactly the draws that
    /// are not degenerate: a traced run records the schedule of each of
    /// those, under its own plan, and nothing else.
    #[test]
    fn a_mixed_epoch_trains_exactly_its_non_degenerate_draws() {
        use rdm_model::{check, Part, Unit};
        let ds = toy(120, 5);
        let sampler = SaintSampler::RandomWalk {
            roots: 1,
            walk_len: 4,
        };
        let cfg = TrainerConfig::saint_rdm(4, sampler)
            .hidden(8)
            .epochs(2)
            .trace();
        let (feats, draws) = (ds.shape_layers(8, 2).feats, saint_steps(&ds, &cfg));
        let mut sub = InducedBatch::default();
        let mut units = Vec::new();
        for idx in 0..cfg.epochs {
            let mut parts = Vec::new();
            for k in 0..draws {
                if let Some(plan) = saint_rdm_draw(&ds, &cfg, idx, k, &mut sub) {
                    let steps = plan.schedule(&feats).unwrap();
                    let graph = PanelGrid::new(4, 4).graph(&sub.adj_norm, None);
                    parts.push(Part { steps, graph });
                }
            }
            let (scope, markers) = (rdm_trace::Span::Epoch { idx }, Vec::new());
            units.push(Unit {
                scope,
                markers,
                parts,
            });
        }
        for u in &units {
            let trained = u.parts.len();
            assert!(
                0 < trained && trained < draws,
                "{trained} of {draws} draws trained"
            );
        }
        let traces = train_gcn(&ds, &cfg).unwrap().traces.unwrap();
        assert_eq!(check(&traces, 4, 1, &units), Ok(vec![]));
    }

    #[test]
    fn saint_ddp_learns_and_all_ranks_agree() {
        let ds = toy(200, 2);
        let cfg = TrainerConfig::saint_ddp(4, sampler())
            .hidden(16)
            .lr(0.02)
            .seed(3);
        let last = run(&ds, cfg, 6)[5];
        assert!(last.test_acc > 0.45, "SAINT-DDP failed to learn: {last:?}");
    }

    #[test]
    fn saint_rdm_updates_more_often_than_ddp() {
        // With S subgraphs per epoch, RDM takes S optimizer steps and DDP
        // takes S/P — the §V-C batch-size effect.
        let ds = toy(400, 3);
        let steps = |cfg| saint_steps(&ds, &cfg);
        assert_eq!(steps(TrainerConfig::saint_rdm(4, sampler())), 10);
        assert_eq!(steps(TrainerConfig::saint_ddp(4, sampler())), 2);
    }

    #[test]
    fn ddp_allreduce_traffic_scales_with_steps_not_graph() {
        let ds = toy(200, 4);
        let cfg = TrainerConfig::saint_ddp(2, sampler()).hidden(16).seed(3);
        let out = on_ranks(&ds, &cfg, |t, ctx| {
            t.epoch(ctx, &mut OpCounters::default());
        });
        let steps = saint_steps(&ds, &cfg);
        // Per step: one all-reduce per layer; naive all-gather impl sends
        // (P-1)·|W| per rank per layer.
        // Both layers' weights: (16×16 + 16×4) f32s; P-1 = 1 copy per rank.
        let w_bytes = (16 * 16 + 16 * 4) * 4;
        let expect = steps * w_bytes;
        for st in &out.stats {
            assert_eq!(st.bytes(CollectiveKind::AllReduce), expect as u64);
        }
    }

    #[test]
    fn masked_trainer_learns() {
        let ds = toy(250, 7);
        let cfg = TrainerConfig::saint_masked(4, 0.5)
            .hidden(16)
            .lr(0.02)
            .seed(3);
        let acc = run(&ds, cfg, 8)[7].test_acc;
        assert!(acc > 0.5, "masked-SpMM training failed to learn: {acc}");
    }

    /// Every rank of a masked run borrows the one scaled adjacency built
    /// for the run: no rank copies or scales it.
    #[test]
    fn every_masked_rank_borrows_one_scaled_adjacency() {
        use crate::metrics::session;
        let ds = toy(120, 8);
        let cfg = TrainerConfig::saint_masked(4, 0.5).hidden(8).epochs(1);
        let (targets, scaled) = (
            Targets::new(ds.labels.clone(), &ds.split, ds.spec.labels),
            ScaledGraph::of(&ds, &cfg).unwrap(),
        );
        let host = |feed: &_| feed_draws(&ds, &cfg, feed);
        let ranks = |ctx: &RankCtx, draws: &Intake<Draw>| {
            let t = SaintMaskedTrainer::setup(&ds, &cfg, &targets, &scaled, draws, ctx);
            &*t.topo.panel as *const Csr as usize
        };
        let (_, _, out) = session(4, None, false, cfg.kernels, Default::default(), host, ranks);
        let shared = &scaled.adj as *const Csr as usize;
        assert_eq!(out.results, vec![shared; 4]);
    }

    #[test]
    fn masked_trainer_charges_no_sampling_traffic() {
        // §III-F: the mask comes from a shared seed — zero communication
        // beyond the ordinary RDM redistributions.
        let ds = toy(120, 8);
        let cfg = TrainerConfig::saint_masked(4, 0.25).hidden(8).seed(5);
        let out = on_ranks(&ds, &cfg, |t, ctx| {
            let mut ops = OpCounters::default();
            t.epoch(ctx, &mut ops);
            ops
        });
        for st in &out.stats {
            let rdm_step =
                st.bytes(CollectiveKind::Redistribute) + st.bytes(CollectiveKind::AllReduce);
            assert_eq!(
                st.total_bytes(),
                rdm_step,
                "bytes charged outside the RDM step"
            );
            assert_eq!(st.bytes(CollectiveKind::Broadcast), 0);
        }
        assert!(out.results[0].spmm_fma > 0.0);
    }

    #[test]
    fn keep_one_mask_matches_full_batch_rdm_losses() {
        // keep = 1.0: the mask keeps everything and values are unscaled,
        // so one masked step equals one full-batch step.
        let ds = toy(100, 9);
        let masked = run(
            &ds,
            TrainerConfig::saint_masked(2, 1.0).hidden(8).seed(5),
            3,
        );
        // Reference: serial full-batch training with identical init.
        let weights = GcnWeights::init(&[16, 8, 4], 5);
        let mut w = weights.clone();
        let mut adam = crate::adam::Adam::new(0.01, &w.shapes());
        let train_mask = split_mask(&ds.split, Split::Train);
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
        for (a, b) in masked.iter().zip(&expect) {
            assert!(
                (a.loss - b).abs() < 1e-3,
                "masked {} vs full-batch {b}",
                a.loss
            );
        }
    }

    /// Every per-step plan is priced on `TrainerConfig::device`, the device
    /// simulated time is priced on: a device under which the model picks
    /// another ordering for the step's graph trains that ordering, which
    /// the FMA book shows (GEMM-first and SpMM-first layers multiply at
    /// different widths).
    #[test]
    fn sampling_trainers_plan_on_the_configured_device() {
        let ds = toy(120, 7);
        let default = DeviceModel::a6000_pcie();
        // Sparse kernels so slow that only the SpMM op count matters.
        let slow_spmm = DeviceModel {
            spmm_fma_per_sec: 1.0,
            ..default
        };
        let shape = ds.shape_layers(8, 2);
        let pick = |device| best_plan(&shape, 4, 4, &device, 1.0).id();
        assert_ne!(pick(default), pick(slow_spmm), "the devices must disagree");
        let sampler = SaintSampler::Node { budget: 100 };
        for cfg in [
            TrainerConfig::saint_masked(4, 0.5),
            TrainerConfig::saint_rdm(4, sampler),
        ] {
            let fma = |device| {
                let cfg = TrainerConfig {
                    device,
                    ..cfg.clone()
                };
                train_gcn(&ds, &cfg.hidden(8).epochs(1)).unwrap().epochs[0].ops
            };
            assert_ne!(fma(default), fma(slow_spmm), "{}", cfg.algo.label());
        }
    }
}
