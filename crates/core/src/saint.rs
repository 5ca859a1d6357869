//! The sampling trainers: GraphSAINT (§V-C) and masked-SpMM (§III-F).
//!
//! * **GraphSAINT-RDM**: every step samples *one* subgraph and trains on
//!   it across all `P` ranks; weights update after every subgraph,
//!   independent of `P`. The paper's GPUs each draw it from a shared seed
//!   (§III-F); here the training thread draws, induces and plans each step
//!   once, a step ahead of the rank threads, which read it in place
//!   ([`rdm_comm::feed`]). The seed is what the trainer and the schedule
//!   checker share: both walk [`saint_rdm_draw`]'s draws.
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
//! runs ([`crate::trainer`]), under plans selected for each step's graph on
//! the configured device ([`TrainerConfig::device`]).
//!
//! Held-out evaluation runs as a *serial local forward* on the full graph
//! (weights are replicated, the graph fits every rank at our scale), so it
//! adds no inter-rank traffic and is excluded from timed communication.

use crate::dist::FormCache;
use crate::gcn::{input_cache, serial, GcnWeights};
use crate::loss::serial as loss_serial;
use crate::ops::{OpCounters, Topology};
use crate::plan::{best_plan, Plan, Resolution};
use crate::trainer::{split_mask, Algo, Model, Targets, Trainer, TrainerConfig};
use rdm_comm::feed::{Feed, Intake};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::Mat;
use rdm_graph::dataset::{Dataset, InducedBatch, Split};
use rdm_graph::SaintSampler;
use rdm_model::GnnShape;

/// What every sampling trainer shares: the full graph, the model, the
/// per-epoch draw schedule and the serial evaluation.
struct SaintCommon<'a> {
    ds: &'a Dataset,
    model: Model,
    /// The full graph's labels and split.
    targets: Targets,
    steps_per_epoch: usize,
    seed: u64,
    epoch_no: u64,
}

impl<'a> SaintCommon<'a> {
    fn new(ds: &'a Dataset, cfg: &TrainerConfig, steps_per_epoch: usize) -> Self {
        SaintCommon {
            ds,
            model: Model::new(ds, cfg),
            targets: Targets::of(ds),
            steps_per_epoch,
            seed: cfg.seed,
            epoch_no: 0,
        }
    }

    /// The shared seed of this epoch's draw `k`, epochs `stride` apart.
    fn draw_seed(&self, stride: u64, k: usize) -> u64 {
        draw_seed(self.seed, self.epoch_no, stride, k)
    }

    /// Close the epoch with a serial full-graph evaluation:
    /// (train loss, train acc, test acc).
    fn finish_epoch(&mut self) -> (f32, f32, f32) {
        self.epoch_no += 1;
        let (ds, t) = (self.ds, &self.targets);
        let h = serial::forward(&ds.adj_norm, &ds.features, &self.model.weights);
        let logits = h.last().unwrap();
        let (loss, _) = loss_serial::softmax_xent(logits, &t.labels, &t.train);
        let tr = loss_serial::accuracy(logits, &t.labels, &t.train);
        let te = loss_serial::accuracy(logits, &t.labels, &t.test);
        (loss, tr, te)
    }
}

/// A GraphSAINT algorithm's sampler and the optimizer steps of each of
/// its epochs: the `S` draws that roughly cover the graph once, one to a
/// step under RDM and one per rank (`P` to a step) under DDP.
///
/// # Panics
/// If `cfg` runs no GraphSAINT algorithm.
fn sampling(ds: &Dataset, cfg: &TrainerConfig) -> (SaintSampler, usize) {
    let (sampler, draws_per_step) = match cfg.algo {
        Algo::SaintRdm { sampler } => (sampler, 1),
        Algo::SaintDdp { sampler } => (sampler, cfg.p),
        _ => panic!("{} runs no GraphSAINT sampler", cfg.algo.label()),
    };
    let draws = (ds.n() / sampler.nominal_size().max(1)).max(1);
    (sampler, (draws / draws_per_step).max(1))
}

/// The shared seed of epoch `epoch`'s draw `k` from run seed `seed`,
/// epochs `stride` apart.
fn draw_seed(seed: u64, epoch: u64, stride: u64, k: usize) -> u64 {
    seed.wrapping_add(epoch.wrapping_mul(stride))
        .wrapping_add(k as u64)
}

/// A GraphSAINT-RDM draw as the host feeds it to the ranks: its induced
/// subgraph and its plan, `None` for a degenerate draw no rank trains.
pub type SaintDraw = (InducedBatch, Option<Plan>);

/// The draws of each GraphSAINT-RDM epoch under `cfg` on `ds`, one to an
/// optimizer step.
pub fn saint_rdm_draws(ds: &Dataset, cfg: &TrainerConfig) -> usize {
    sampling(ds, cfg).1
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
    let feats = ds.shape_layers(cfg.hidden, cfg.layers).feats;
    Some(replicated_plan(sub.n(), sub.adj_norm.nnz(), feats, cfg))
}

/// The model-selected, fully replicated plan for a graph of `n` vertices
/// and `nnz` nonzeros under `cfg`, priced on its device.
fn replicated_plan(n: usize, nnz: usize, feats: Vec<usize>, cfg: &TrainerConfig) -> Plan {
    best_plan(&GnnShape { n, nnz, feats }, cfg.p, cfg.p, &cfg.device, 1.0)
}

/// The host of a training run: for GraphSAINT-RDM, every draw of its
/// `cfg.epochs` epochs, in order, degenerate ones included, so each rank
/// reads exactly [`saint_rdm_draws`] per epoch. Every other algorithm
/// reads nothing.
pub(crate) fn feed_draws(ds: &Dataset, cfg: &TrainerConfig, feed: &Feed<SaintDraw>) {
    if !matches!(cfg.algo, Algo::SaintRdm { .. }) {
        return;
    }
    let draws = saint_rdm_draws(ds, cfg);
    for epoch in 0..cfg.epochs {
        for k in 0..draws {
            feed.fill(|(sub, plan)| *plan = saint_rdm_draw(ds, cfg, epoch, k, sub));
        }
    }
}

/// GraphSAINT with RDM-parallel subgraph training.
pub(crate) struct SaintRdmTrainer<'a> {
    common: SaintCommon<'a>,
    /// The host's draws, read in place.
    draws: &'a Intake<'a, SaintDraw>,
}

impl<'a> SaintRdmTrainer<'a> {
    pub(crate) fn setup(
        ds: &'a Dataset,
        cfg: &TrainerConfig,
        draws: &'a Intake<'a, SaintDraw>,
    ) -> Self {
        SaintRdmTrainer {
            common: SaintCommon::new(ds, cfg, saint_rdm_draws(ds, cfg)),
            draws,
        }
    }
}

impl Trainer for SaintRdmTrainer<'_> {
    /// One epoch = the host's draws, each that is not degenerate trained
    /// across all ranks with the RDM step; returns a full-graph evaluation.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let c = &mut self.common;
        for _ in 0..c.steps_per_epoch {
            let draw = self.draws.next();
            let (sd, Some(plan)) = &*draw else {
                continue; // degenerate draw
            };
            // Distribute the subgraph inputs (local slicing, no traffic).
            let topo = Topology::full(&sd.adj_norm, ctx);
            let mut input = input_cache(&sd.features, &topo, ctx);
            let targets = Targets::new(sd.labels.clone(), &sd.split, c.ds.spec.labels);
            c.model
                .rdm_step(ctx, &topo, &mut input, plan, &targets, false, 1, ops);
        }
        c.finish_epoch()
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
    pub(crate) fn setup(ds: &'a Dataset, cfg: &TrainerConfig, _: &Resolution, _: &RankCtx) -> Self {
        let (sampler, steps) = sampling(ds, cfg);
        SaintDdpTrainer {
            common: SaintCommon::new(ds, cfg, steps),
            sampler,
            sub: InducedBatch::default(),
        }
    }
}

impl Trainer for SaintDdpTrainer<'_> {
    /// One epoch; every step trains `P` subgraphs (one per rank) and takes
    /// a single averaged optimizer step.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let c = &mut self.common;
        let p = ctx.size();
        for step in 0..c.steps_per_epoch {
            let sub = self
                .sampler
                .sample(&c.ds.adj, c.draw_seed(20_011, step * p + ctx.rank()));
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
        c.finish_epoch()
    }

    fn weights(&self) -> &GcnWeights {
        &self.common.model.weights
    }
}

/// Sampling by masked SpMM: `⌈1/keep⌉` steps per epoch, each the RDM step
/// on the full graph under a fresh shared-seed edge mask.
pub(crate) struct SaintMaskedTrainer<'a> {
    common: SaintCommon<'a>,
    /// Edge keep probability `q ∈ (0, 1]`.
    keep: f64,
    /// The fully replicated adjacency with values scaled by `1/q`; every
    /// step installs its own mask.
    topo: Topology<'a>,
    input: FormCache,
    plan: Plan,
}

impl<'a> SaintMaskedTrainer<'a> {
    pub(crate) fn setup(
        ds: &'a Dataset,
        cfg: &TrainerConfig,
        _: &Resolution,
        ctx: &RankCtx,
    ) -> Self {
        let Algo::SaintMasked { keep } = cfg.algo else {
            unreachable!("the masked trainer runs masked-SpMM sampling")
        };
        let keep = keep as f64;
        // One epoch touches every edge once in expectation.
        let steps = (1.0 / keep).ceil() as usize;
        let mut topo = Topology::full(&ds.adj_norm, ctx);
        let inv = (1.0 / keep) as f32;
        for v in topo.panel.to_mut().vals_mut() {
            *v *= inv;
        }
        let common = SaintCommon::new(ds, cfg, steps);
        SaintMaskedTrainer {
            plan: replicated_plan(ds.n(), topo.panel.nnz(), common.model.feats.clone(), cfg),
            input: input_cache(&ds.features, &topo, ctx),
            common,
            keep,
            topo,
        }
    }
}

impl Trainer for SaintMaskedTrainer<'_> {
    /// One epoch = `⌈1/keep⌉` masked full-graph steps; returns an unmasked
    /// evaluation.
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        use rand::{Rng, SeedableRng};
        let c = &mut self.common;
        for step in 0..c.steps_per_epoch {
            // The shared-seed mask: identical on every rank, no traffic.
            let mut rng = rand::rngs::StdRng::seed_from_u64(c.draw_seed(30_029, step));
            let nnz = self.topo.panel.nnz();
            let mask = (0..nnz).map(|_| rng.gen_bool(self.keep)).collect();
            self.topo.set_mask(Some(mask));
            let (topo, input, plan) = (&self.topo, &mut self.input, &self.plan);
            c.model
                .rdm_step(ctx, topo, input, plan, &c.targets, false, 1, ops);
        }
        c.finish_epoch()
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

    /// Every rank's result of each of `epochs` epochs of `cfg`.
    fn run(ds: &Dataset, cfg: TrainerConfig, epochs: usize) -> Vec<Vec<(f32, f32, f32)>> {
        on_ranks(ds, &cfg.epochs(epochs), |t, ctx| {
            let mut ops = OpCounters::default();
            (0..epochs).map(|_| t.epoch(ctx, &mut ops)).collect()
        })
        .results
    }

    #[test]
    fn saint_rdm_learns_on_toy_data() {
        let ds = toy(200, 1);
        let cfg = TrainerConfig::saint_rdm(4, sampler())
            .hidden(16)
            .lr(0.02)
            .seed(3);
        let accs: Vec<f32> = run(&ds, cfg, 6)[0].iter().map(|e| e.2).collect();
        let baseline = 1.0 / 4.0; // 4 classes
        assert!(
            *accs.last().unwrap() > baseline + 0.2,
            "SAINT-RDM failed to learn: {accs:?}"
        );
    }

    /// A draw too small to spread over the ranks is fed like any other
    /// and skipped by every rank: an epoch of nothing but degenerate draws
    /// trains nothing — no traffic, no FMAs, the initial weights — and
    /// every rank reports the same evaluation.
    #[test]
    fn an_epoch_of_degenerate_draws_trains_nothing() {
        let ds = toy(120, 5);
        let cfg = TrainerConfig::saint_rdm(4, SaintSampler::Node { budget: 3 })
            .hidden(8)
            .epochs(2);
        assert!(saint_rdm_draws(&ds, &cfg) > 1);
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
        let out = run(&ds, cfg, 2);
        assert!(out.iter().all(|r| *r == out[0]), "ranks disagree: {out:?}");
    }

    /// In an epoch of mixed draws the ranks train exactly the draws that
    /// are not degenerate: a traced run records the schedule of each of
    /// those, under its own plan, and nothing else.
    #[test]
    fn a_mixed_epoch_trains_exactly_its_non_degenerate_draws() {
        use rdm_model::{check, schedule, Part, Unit};
        let ds = toy(120, 5);
        let sampler = SaintSampler::RandomWalk {
            roots: 1,
            walk_len: 4,
        };
        let cfg = TrainerConfig::saint_rdm(4, sampler)
            .hidden(8)
            .epochs(2)
            .trace();
        let (feats, draws) = (ds.shape_layers(8, 2).feats, saint_rdm_draws(&ds, &cfg));
        let mut sub = InducedBatch::default();
        let mut units = Vec::new();
        for idx in 0..cfg.epochs {
            let mut parts = Vec::new();
            for k in 0..draws {
                if let Some(plan) = saint_rdm_draw(&ds, &cfg, idx, k, &mut sub) {
                    let steps = schedule(&plan.config, plan.memoize, &feats, false).unwrap();
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
        let out = run(&ds, cfg, 6);
        let first = out[0][5];
        for r in &out {
            assert!(
                (r[5].2 - first.2).abs() < 1e-6,
                "ranks disagree on accuracy"
            );
        }
        assert!(first.2 > 0.45, "SAINT-DDP failed to learn: {first:?}");
    }

    #[test]
    fn saint_rdm_updates_more_often_than_ddp() {
        // With S subgraphs per epoch, RDM takes S optimizer steps and DDP
        // takes S/P — the §V-C batch-size effect.
        let ds = toy(400, 3);
        let steps = |cfg| sampling(&ds, &cfg).1;
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
        let steps = sampling(&ds, &cfg).1;
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
        let out = run(&ds, cfg, 8);
        let acc = out[0][7].2;
        assert!(acc > 0.5, "masked-SpMM training failed to learn: {acc}");
        for r in &out {
            assert_eq!(r[7].2, acc, "ranks disagree");
        }
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
        for (a, b) in masked[0].iter().zip(&expect) {
            assert!((a.0 - b).abs() < 1e-3, "masked {} vs full-batch {b}", a.0);
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
