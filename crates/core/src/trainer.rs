//! The public training entry point: pick an algorithm, a cluster size and
//! an epoch budget, get back a [`TrainReport`] with per-epoch metrics.
//!
//! Every algorithm trains through one of two step bodies. The baselines
//! (CAGNET 1D / 1.5D and DGCL) share one row-sliced epoch whose only
//! per-algorithm part is the aggregation `Â·X`; full-batch RDM,
//! GraphSAINT-RDM and masked-SpMM share one RDM step — forward under a
//! plan, loss, backward, Adam. GraphSAINT-DDP trains local subgraphs
//! serially and all-reduces their gradients ([`crate::saint`]).
//! [`train_gcn`] drives every algorithm through one per-rank trainer
//! interface: an epoch and the weights.

use crate::adam::Adam;
use crate::dist::{DistMat, FormCache};
use crate::gcn::{activate, input_cache, rdm_backward, rdm_forward, GcnWeights};
use crate::loss::{score, LossSpec, Scores};
use crate::metrics::{book_unit, hidden_price, session, EpochMetrics, RankEpoch, TrainReport};
use crate::ops::{dist_gemm, weight_grad, OpCounters, PanelGrid, Topology};
use crate::plan::{Plan, PlanRequest, Resolution};
use crate::saint::{SaintDdpTrainer, SaintMaskedTrainer, SaintRdmTrainer};
use rdm_comm::{FaultPlan, RankCtx};
use rdm_dense::kernels::{self, Mode as KernelMode};
use rdm_dense::{relu_backward_in_place, Mat};
use rdm_graph::dataset::{Dataset, Split};
use rdm_graph::SaintSampler;
use rdm_model::{schedule, DeviceModel};
use rdm_trace::Span;

/// Which distributed GNN system to run.
#[derive(Clone, Debug)]
pub enum Algo {
    /// The paper's contribution. `plan: None` selects the best
    /// Pareto-optimal configuration with the device model (§IV-B).
    Rdm { plan: Option<Plan> },
    /// CAGNET 1D (broadcast SpMM).
    Cagnet1D,
    /// CAGNET 1.5D with replication factor `c`.
    Cagnet15D { c: usize },
    /// Vertex-partitioned halo-exchange baseline (DGCL-like).
    Dgcl,
    /// GraphSAINT, subgraphs trained RDM-parallel across all ranks.
    SaintRdm { sampler: SaintSampler },
    /// GraphSAINT with one subgraph per rank and gradient all-reduce.
    SaintDdp { sampler: SaintSampler },
    /// Masked-SpMM sampling (§III-F): per-step Bernoulli edge masks from a
    /// shared seed, aggregated with the masked kernel.
    SaintMasked { keep: f32 },
}

impl Algo {
    /// Human-readable algorithm label for reports.
    pub fn label(&self) -> String {
        match self {
            Algo::Rdm { plan: Some(pl) } => format!("RDM(id={})", pl.id()),
            Algo::Rdm { plan: None } => "RDM(auto)".to_string(),
            Algo::Cagnet1D => "CAGNET-1D".to_string(),
            Algo::Cagnet15D { c } => format!("CAGNET-1.5D(c={c})"),
            Algo::Dgcl => "DGCL-like".to_string(),
            Algo::SaintRdm { .. } => "GraphSAINT-RDM".to_string(),
            Algo::SaintDdp { .. } => "GraphSAINT-DDP".to_string(),
            Algo::SaintMasked { keep } => format!("MaskedSpMM(keep={keep})"),
        }
    }
}

/// Everything needed to run a training job.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    pub algo: Algo,
    /// Number of ranks ("GPUs").
    pub p: usize,
    pub hidden: usize,
    pub layers: usize,
    pub lr: f32,
    pub epochs: usize,
    pub seed: u64,
    /// Device model used for simulated timing.
    pub device: DeviceModel,
    /// Fault plan for the fabric. Training results are bit-identical with
    /// or without one (the envelope protocol hides every fault); only the
    /// retransmission counters in the report change.
    pub fault_plan: Option<FaultPlan>,
    /// Chunk count for pipelined redistribution (RDM algorithms only).
    /// `Some(c)` with `c > 1` overlaps every Row↔Col redistribution with
    /// its downstream kernel in `c`-strip chunks; results and payload
    /// bytes are bit-identical to blocking, and the communication time the
    /// pipeline hides is priced from the schedule into
    /// [`EpochMetrics::overlap_ns`].
    pub overlap: Option<usize>,
    /// Adjacency replication factor for RDM plans (`Algo::Rdm`): `Some(r)`
    /// selects through [`crate::plan::best_plan`] at `r_a = r` — every
    /// candidate ordering priced on its schedule at that grid, its group
    /// redistributions, panel broadcasts and their messages included — and
    /// the chosen plan carries `r_a = r`. `None` selects at full
    /// replication. Must divide `P`; an explicit plan with a different
    /// `r_a`, or an algorithm that reads no plan, is an error
    /// ([`crate::plan::resolve`]).
    pub ra: Option<usize>,
    /// Record a per-rank structured event trace of the run into
    /// [`TrainReport::traces`]. Off by default; when off, no trace code
    /// runs beyond a thread-local check, so results, payload counters and
    /// simulated epoch times are bit-identical to a build without tracing.
    pub trace: bool,
    /// Route every RDM redistribution through the sparsity-aware
    /// indexed-strip path (RDM algorithms only). Results are bit-identical
    /// to the dense path; [`rdm_comm::CommStats`] keeps booking the
    /// dense-equivalent volume alongside the (smaller or equal) actual
    /// wire bytes.
    pub sparse: bool,
    /// Kernel path every rank's GEMM/SpMM calls dispatch to. The default
    /// is [`kernels::default_mode`]: the lane-unrolled microkernels at the
    /// host's widest width. [`KernelMode::Scalar`] is the reference loops
    /// every golden was recorded with; the two are bitwise identical (see
    /// [`rdm_dense::kernels`]), so this changes speed, never results.
    pub kernels: KernelMode,
}

impl TrainerConfig {
    /// RDM with an explicit plan.
    pub fn rdm(p: usize, plan: Plan) -> Self {
        Self::base(Algo::Rdm { plan: Some(plan) }, p)
    }

    /// RDM with model-driven plan selection.
    pub fn rdm_auto(p: usize) -> Self {
        Self::base(Algo::Rdm { plan: None }, p)
    }

    /// CAGNET 1.5D (the variant the paper benchmarks against) with `c = 2`
    /// when `p` is even, else 1D.
    pub fn cagnet(p: usize) -> Self {
        let algo = if p >= 2 && p.is_multiple_of(2) {
            Algo::Cagnet15D { c: 2 }
        } else {
            Algo::Cagnet1D
        };
        Self::base(algo, p)
    }

    /// CAGNET 1D.
    pub fn cagnet_1d(p: usize) -> Self {
        Self::base(Algo::Cagnet1D, p)
    }

    /// The DGCL-like baseline.
    pub fn dgcl(p: usize) -> Self {
        Self::base(Algo::Dgcl, p)
    }

    /// GraphSAINT-RDM.
    pub fn saint_rdm(p: usize, sampler: SaintSampler) -> Self {
        Self::base(Algo::SaintRdm { sampler }, p)
    }

    /// GraphSAINT-DDP.
    pub fn saint_ddp(p: usize, sampler: SaintSampler) -> Self {
        Self::base(Algo::SaintDdp { sampler }, p)
    }

    /// Masked-SpMM sampling with edge keep probability `keep`.
    pub fn saint_masked(p: usize, keep: f32) -> Self {
        Self::base(Algo::SaintMasked { keep }, p)
    }

    fn base(algo: Algo, p: usize) -> Self {
        TrainerConfig {
            algo,
            p,
            hidden: 128,
            layers: 2,
            lr: 0.01,
            epochs: 10,
            seed: 42,
            device: DeviceModel::a6000_pcie(),
            fault_plan: None,
            overlap: None,
            ra: None,
            trace: false,
            sparse: false,
            kernels: kernels::default_mode(),
        }
    }

    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    pub fn hidden(mut self, h: usize) -> Self {
        self.hidden = h;
        self
    }

    pub fn layers(mut self, l: usize) -> Self {
        self.layers = l;
        self
    }

    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Train on a faulty fabric following `plan`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Pipeline every RDM redistribution into `chunks` strips overlapped
    /// with the downstream kernel.
    pub fn overlap(mut self, chunks: usize) -> Self {
        self.overlap = Some(chunks);
        self
    }

    /// Select model-driven RDM plans at adjacency replication factor `r`
    /// instead of full replication (see [`TrainerConfig::ra`]).
    pub fn ra(mut self, r: usize) -> Self {
        self.ra = Some(r);
        self
    }

    /// Route every RDM redistribution through the sparsity-aware
    /// indexed-strip path. Bit-identical results; never more wire bytes
    /// than the dense path.
    pub fn sparse(mut self) -> Self {
        self.sparse = true;
        self
    }

    /// Record a per-rank structured event trace into
    /// [`TrainReport::traces`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Select the default (fast) kernels — a no-op unless
    /// [`Self::reference_kernels`] came first. Kept for callers written
    /// when the fast microkernels were opt-in.
    pub fn fast_kernels(self) -> Self {
        self.kernel_mode(kernels::default_mode())
    }

    /// Run every rank's GEMM/SpMM on the scalar reference loops (what
    /// `--reference-kernels` selects). Same bits as the default, slower;
    /// the differential suites use it as the oracle.
    pub fn reference_kernels(self) -> Self {
        self.kernel_mode(KernelMode::Scalar)
    }

    /// Force a specific kernel mode (differential tests use this to pin
    /// the lane width regardless of host capabilities).
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernels = mode;
        self
    }
}

/// One rank's training state, as [`train_gcn`] drives it.
pub(crate) trait Trainer {
    /// One epoch; returns (loss, train accuracy, test accuracy).
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32);

    /// The current (replicated) weights — the trained model once the
    /// epochs are done.
    fn weights(&self) -> &GcnWeights;
}

/// Set up this rank's trainer for `cfg.algo`.
fn setup<'a>(
    ds: &'a Dataset,
    cfg: &TrainerConfig,
    resolved: &Resolution,
    ctx: &RankCtx,
) -> Box<dyn Trainer + 'a> {
    match cfg.algo {
        Algo::Rdm { .. } => Box::new(RdmTrainer::setup(ds, cfg, resolved, ctx)),
        Algo::Cagnet1D | Algo::Cagnet15D { .. } => {
            Box::new(crate::cagnet::setup(ds, cfg, resolved, ctx))
        }
        Algo::Dgcl => Box::new(crate::dgcl::setup(ds, cfg, resolved, ctx)),
        Algo::SaintRdm { .. } => Box::new(SaintRdmTrainer::setup(ds, cfg, resolved, ctx)),
        Algo::SaintDdp { .. } => Box::new(SaintDdpTrainer::setup(ds, cfg, resolved, ctx)),
        Algo::SaintMasked { .. } => Box::new(SaintMaskedTrainer::setup(ds, cfg, resolved, ctx)),
    }
}

/// The replicated weights and their optimizer, identical on every rank.
pub(crate) struct Model {
    pub(crate) weights: GcnWeights,
    pub(crate) adam: Adam,
    /// Layer widths `f_0 … f_L`.
    pub(crate) feats: Vec<usize>,
}

impl Model {
    /// `cfg`'s model on `ds`: Glorot weights from `cfg.seed`, fresh Adam
    /// state at `cfg.lr`.
    pub(crate) fn new(ds: &Dataset, cfg: &TrainerConfig) -> Self {
        let feats = ds.shape_layers(cfg.hidden, cfg.layers).feats;
        let weights = GcnWeights::init(&feats, cfg.seed);
        let adam = Adam::new(cfg.lr, &weights.shapes());
        Model {
            weights,
            adam,
            feats,
        }
    }

    /// The RDM step that full-batch RDM, GraphSAINT-RDM (on each subgraph)
    /// and masked-SpMM (under each edge mask) share: the forward pass under
    /// `plan`, the loss at the row-sliced logits, the backward pass and the
    /// Adam update. With `measure`, train and test accuracy are taken
    /// between the loss and the backward pass, and every fed product runs
    /// as `chunks` strips. The schedule never writes `H⁰`, so `input` is
    /// lent to the step and handed back uncopied.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rdm_step(
        &mut self,
        ctx: &RankCtx,
        topo: &Topology,
        input: &mut FormCache,
        plan: &Plan,
        targets: &Targets,
        measure: bool,
        chunks: usize,
        ops: &mut OpCounters,
    ) -> (f32, Option<(f32, f32)>) {
        let w = &self.weights;
        let lent = std::mem::take(input);
        let mut art = rdm_forward(ctx, topo, lent, w, plan, chunks, ops);
        let logits = art.logits_row();
        let Scores {
            loss,
            grad,
            accuracy,
        } = targets.score(&logits, measure, ctx);
        let back = rdm_backward(ctx, topo, &mut art, w, grad, chunks, ops);
        *input = art.take_input();
        self.adam.step(&mut self.weights.w, &back.weight_grads);
        (loss, accuracy)
    }
}

/// The vertices of `split` that lie in `set` — the one place a split
/// becomes a train or test mask.
pub(crate) fn split_mask(split: &[Split], set: Split) -> Vec<bool> {
    split.iter().map(|&s| s == set).collect()
}

/// What a step scores its logits against: every vertex's label and the
/// train / test masks.
pub(crate) struct Targets {
    pub(crate) labels: Vec<u32>,
    pub(crate) train: Vec<bool>,
    pub(crate) test: Vec<bool>,
    classes: usize,
}

impl Targets {
    pub(crate) fn new(labels: Vec<u32>, split: &[Split], classes: usize) -> Self {
        Targets {
            labels,
            train: split_mask(split, Split::Train),
            test: split_mask(split, Split::Test),
            classes,
        }
    }

    /// `ds`'s own labels and split.
    pub(crate) fn of(ds: &Dataset) -> Self {
        Self::new(ds.labels.clone(), &ds.split, ds.spec.labels)
    }

    /// Loss and gradient of row-sliced logits over the training set and,
    /// with `measure`, train and test accuracy: one sweep, one all-reduce.
    fn score(&self, logits: &DistMat, measure: bool, ctx: &RankCtx) -> Scores {
        let spec = LossSpec {
            labels: &self.labels,
            mask: &self.train,
            num_classes: self.classes,
        };
        score(logits, &spec, measure.then_some(&self.test[..]), ctx)
    }
}

/// The one per-algorithm part of a row-sliced baseline: the aggregation
/// `Â·X` of a row-sliced `X`, returned row-sliced.
pub(crate) trait RowAggregation {
    fn aggregate(&self, x: &DistMat, ctx: &RankCtx, ops: &mut OpCounters) -> DistMat;
}

/// The baselines' epoch (CAGNET, DGCL): activations and gradients stay
/// row-sliced, every layer aggregates first — in both passes — and
/// multiplies the replicated weights locally; only `agg` differs.
pub(crate) struct RowTrainer<A> {
    pub(crate) agg: A,
    /// This rank's row slice of the input features.
    pub(crate) input: DistMat,
    pub(crate) model: Model,
    pub(crate) targets: Targets,
}

impl<A: RowAggregation> Trainer for RowTrainer<A> {
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let w = &self.model.weights.w;
        let layers = w.len();
        let mut h: Vec<DistMat> = vec![self.input.clone()];
        for l in 1..=layers {
            let t = self.agg.aggregate(&h[l - 1], ctx, ops);
            h.push(activate(dist_gemm(&t, &w[l - 1], false, ops), l < layers));
        }
        let scores = self.targets.score(&h[layers], true, ctx);
        let (train_acc, test_acc) = scores.accuracy.expect("a measured score has accuracies");
        // Backward: reuse Â·Gˡ for both the weight gradient and the
        // propagated gradient.
        let mut grads: Vec<Mat> = Vec::with_capacity(layers);
        let mut g = scores.grad;
        for l in (1..=layers).rev() {
            let t = self.agg.aggregate(&g, ctx, ops);
            grads.push(weight_grad(&h[l - 1], &t, ctx, ops));
            if l > 1 {
                let mut gp = dist_gemm(&t, &w[l - 1], true, ops);
                relu_backward_in_place(&mut gp.local, &h[l - 1].local);
                g = gp;
            }
        }
        grads.reverse();
        let m = &mut self.model;
        m.adam.step(&mut m.weights.w, &grads);
        (scores.loss, train_acc, test_acc)
    }

    fn weights(&self) -> &GcnWeights {
        &self.model.weights
    }
}

/// Full-batch RDM under one plan.
struct RdmTrainer<'a> {
    plan: Plan,
    topo: Topology<'a>,
    /// Both layouts of the input features (the initial distribution is
    /// free).
    input: FormCache,
    model: Model,
    targets: Targets,
    /// The resolved pipeline depth.
    chunks: usize,
}

impl<'a> RdmTrainer<'a> {
    fn setup(ds: &'a Dataset, cfg: &TrainerConfig, resolved: &Resolution, ctx: &RankCtx) -> Self {
        let plan = resolved.plan.clone().expect("RDM always resolves a plan");
        let mut topo = match &ds.adj_norm_t {
            None => Topology::new(&ds.adj_norm, plan.r_a, ctx),
            Some(t) => Topology::new_asym(&ds.adj_norm, t, plan.r_a, ctx),
        };
        topo.set_sparse(cfg.sparse);
        RdmTrainer {
            input: input_cache(&ds.features, &topo, ctx),
            model: Model::new(ds, cfg),
            targets: Targets::of(ds),
            chunks: resolved.chunks,
            plan,
            topo,
        }
    }
}

impl Trainer for RdmTrainer<'_> {
    fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let (loss, acc) = self.model.rdm_step(
            ctx,
            &self.topo,
            &mut self.input,
            &self.plan,
            &self.targets,
            true,
            self.chunks,
            ops,
        );
        let (train_acc, test_acc) = acc.expect("full-batch steps measure accuracy");
        (loss, train_acc, test_acc)
    }

    fn weights(&self) -> &GcnWeights {
        &self.model.weights
    }
}

/// Check `cfg` against `ds` and resolve its plan.
///
/// # Errors
/// Zero epochs/ranks/layers, a zero hidden width under a hidden layer, a
/// learning rate that is not positive and finite, a graph smaller than the
/// cluster, a keep probability outside `(0, 1]`, a non-symmetric
/// aggregation outside RDM, or a request [`crate::plan::resolve`] rejects.
fn resolve(ds: &Dataset, cfg: &TrainerConfig) -> Result<Resolution, String> {
    if cfg.p == 0 {
        return Err("need at least one rank".into());
    }
    if cfg.epochs == 0 {
        return Err("need at least one epoch".into());
    }
    if cfg.layers == 0 {
        return Err("need at least one layer".into());
    }
    if cfg.layers > 1 && cfg.hidden == 0 {
        return Err(format!(
            "a {}-layer model needs a hidden width of at least 1",
            cfg.layers
        ));
    }
    if !(cfg.lr.is_finite() && cfg.lr > 0.0) {
        return Err(format!(
            "learning rate {} must be positive and finite",
            cfg.lr
        ));
    }
    if ds.n() < cfg.p {
        return Err(format!("graph has {} vertices but P={}", ds.n(), cfg.p));
    }
    if let Algo::SaintMasked { keep } = cfg.algo {
        if !(keep > 0.0 && keep <= 1.0) {
            return Err(format!("edge keep probability {keep} must be in (0, 1]"));
        }
    }
    if ds.adj_norm_t.is_some() && !matches!(cfg.algo, Algo::Rdm { .. }) {
        return Err("non-symmetric (mean) aggregation is only supported by the RDM trainer".into());
    }
    crate::plan::resolve(
        &PlanRequest {
            algo: &cfg.algo,
            p: cfg.p,
            ra: cfg.ra,
            sparse: cfg.sparse,
            overlap: cfg.overlap,
            device: &cfg.device,
        },
        &ds.shape_layers(cfg.hidden, cfg.layers),
        &ds.adj_norm,
    )
}

/// Train a GCN on `ds` per `cfg` and return per-epoch metrics.
///
/// # Errors
/// Returns a description if the configuration is inconsistent (zero
/// epochs/ranks, graph smaller than the cluster, or a request
/// [`crate::plan::resolve`] rejects).
pub fn train_gcn(ds: &Dataset, cfg: &TrainerConfig) -> Result<TrainReport, String> {
    let resolved = resolve(ds, cfg)?;
    let out = session(cfg.p, cfg.fault_plan, cfg.trace, cfg.kernels, |ctx| {
        let mut trainer = setup(ds, cfg, &resolved, ctx);
        let mut epochs = Vec::with_capacity(cfg.epochs);
        for idx in 0..cfg.epochs {
            let ((loss, train_acc, test_acc), book) =
                book_unit(ctx, Span::Epoch { idx }, |ops| trainer.epoch(ctx, ops));
            epochs.push(RankEpoch {
                loss,
                train_acc,
                test_acc,
                book,
            });
        }
        // Weights are replicated, so rank 0's copy is the trained model.
        let weights = (ctx.rank() == 0)
            .then(|| crate::snapshot::WeightSnapshot::from_weights(trainer.weights()));
        (epochs, weights)
    });

    // Every epoch runs the resolved plan's schedule, so its pipeline
    // hides the same priced time each epoch.
    let plan_id = resolved.plan.as_ref().map(Plan::id);
    let hidden = match &resolved.plan {
        Some(plan) => {
            let feats = ds.shape_layers(cfg.hidden, cfg.layers).feats;
            let steps = schedule(&plan.config, plan.memoize, &feats, false)?;
            let (grid, adj_t) = (PanelGrid::new(cfg.p, plan.r_a), ds.adj_norm_t.as_ref());
            let (adj, chunks, device) = (&ds.adj_norm, resolved.chunks, &cfg.device);
            hidden_price(&steps, &feats, adj, adj_t, grid, chunks, device)
        }
        None => vec![0; cfg.p],
    };
    // Aggregate per epoch across ranks.
    let mut per_rank = out.results;
    let mut epochs = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        let snapshot: Vec<RankEpoch> = per_rank.iter().map(|r| r.0[e].clone()).collect();
        let metrics = EpochMetrics::from_ranks(e, &snapshot, &hidden, &cfg.device);
        epochs.push(EpochMetrics { plan_id, ..metrics });
    }
    // An auto-selected plan is reported by the id it resolved to.
    let algo = match &cfg.algo {
        Algo::Rdm { .. } => Algo::Rdm {
            plan: resolved.plan,
        },
        algo => algo.clone(),
    };
    Ok(TrainReport {
        algo: algo.label(),
        dataset: ds.spec.name.clone(),
        p: cfg.p,
        epochs,
        traces: out.traces,
        weights: per_rank[0].1.take(),
        overlap_inert: resolved.overlap_inert,
        sparse_inert: resolved.sparse_inert,
    })
}

/// Set up every rank's trainer for `cfg` on `ds` and run `body` on it (the
/// per-algorithm unit tests).
#[cfg(test)]
pub(crate) fn on_ranks<T: Send>(
    ds: &Dataset,
    cfg: &TrainerConfig,
    body: impl Fn(&mut dyn Trainer, &RankCtx) -> T + Sync,
) -> rdm_comm::RunOutput<T> {
    let resolved = resolve(ds, cfg).expect("a valid test configuration");
    rdm_comm::Cluster::new(cfg.p).run(|ctx| body(&mut *setup(ds, cfg, &resolved, ctx), ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_comm::{Cluster, Form};
    use rdm_graph::dataset::toy;

    /// The schedule never writes `H⁰`: epochs borrow the input's row and
    /// tile buffers and hand the same buffers back, unchanged and uncopied.
    #[test]
    fn epochs_lend_the_input_without_copying_it() {
        let ds = toy(60, 3);
        let cfg = TrainerConfig::rdm_auto(2).epochs(2).hidden(8);
        let resolved = resolve(&ds, &cfg).expect("a valid configuration");
        Cluster::new(2).run(|ctx| {
            let mut t = RdmTrainer::setup(&ds, &cfg, &resolved, ctx);
            let layouts = |t: &RdmTrainer| {
                [Form::Row, Form::Col].map(|f| t.input.get(f).local.as_slice().as_ptr() as usize)
            };
            let (before, snapshot) = (layouts(&t), t.input.clone());
            let mut ops = OpCounters::default();
            for _ in 0..2 {
                t.epoch(ctx, &mut ops);
            }
            assert_eq!(layouts(&t), before, "an epoch copied the input");
            for f in [Form::Row, Form::Col] {
                assert_eq!(t.input.get(f).local, snapshot.get(f).local, "{f:?} changed");
            }
        });
    }

    /// Every overlap gate reason must surface in the report instead of a
    /// silent blocking fallback, and an active `r_a < P` overlap must
    /// report no reason while actually hiding time.
    #[test]
    fn requested_overlap_surfaces_inert_reason() {
        let ds = toy(60, 3);
        let base = || TrainerConfig::rdm_auto(4).epochs(1).hidden(8);
        let r = train_gcn(
            &ds,
            &TrainerConfig::rdm_auto(1).epochs(1).hidden(8).overlap(4),
        )
        .unwrap();
        assert_eq!(r.overlap_inert_reason(), Some("single rank"));
        for chunks in [0, 1] {
            let r = train_gcn(&ds, &base().overlap(chunks)).unwrap();
            assert_eq!(r.overlap_inert_reason(), Some("chunks < 2"));
        }
        let r = train_gcn(&ds, &base().overlap(4).ra(1)).unwrap();
        let reason = r.overlap_inert_reason().expect("r_a = 1 must be inert");
        assert!(reason.contains("r_a = 1"), "got {reason:?}");
        let r = train_gcn(
            &ds,
            &TrainerConfig::saint_masked(4, 0.5)
                .epochs(1)
                .hidden(8)
                .overlap(4),
        )
        .unwrap();
        assert_eq!(
            r.overlap_inert_reason(),
            Some("SAINT trainers run the blocking path")
        );
        // No overlap requested → no reason, even where one would apply.
        let r = train_gcn(&ds, &TrainerConfig::rdm_auto(1).epochs(1).hidden(8)).unwrap();
        assert_eq!(r.overlap_inert_reason(), None);
        // Replicated panels pipeline for real now.
        let r = train_gcn(&ds, &base().overlap(4).ra(2)).unwrap();
        assert_eq!(r.overlap_inert_reason(), None);
        assert!(r.total_overlap_ns() > 0, "r_a = 2 overlap must hide time");
    }

    /// An explicit plan and a conflicting config replication factor is a
    /// configuration error, not a silent override.
    #[test]
    fn conflicting_explicit_plan_and_config_ra_error() {
        let ds = toy(60, 3);
        let plan = Plan::from_id(5, 2, 4).with_ra(4);
        let cfg = TrainerConfig::rdm(4, plan).epochs(1).hidden(8).ra(2);
        let err = train_gcn(&ds, &cfg).unwrap_err();
        assert!(err.contains("r_a"), "got {err}");
        let cfg = TrainerConfig::rdm_auto(4).epochs(1).hidden(8).ra(3);
        let err = train_gcn(&ds, &cfg).unwrap_err();
        assert!(err.contains("divide"), "got {err}");
    }

    /// A requested indexed wire that carries nothing says why, and `--ra`
    /// outside RDM is an error naming the algorithm: neither is silent.
    #[test]
    fn inert_sparse_wire_and_foreign_ra_are_reported() {
        let ds = toy(60, 3);
        let run = |cfg: TrainerConfig| train_gcn(&ds, &cfg.epochs(1).hidden(8));
        let inert = |cfg: TrainerConfig| run(cfg.sparse()).unwrap().sparse_inert;
        let saint = SaintSampler::Node { budget: 40 };
        for (cfg, reason) in [
            (TrainerConfig::cagnet_1d(4), Some("non-RDM algorithm")),
            (
                TrainerConfig::saint_rdm(4, saint),
                Some("non-RDM algorithm"),
            ),
            (
                TrainerConfig::rdm(1, Plan::from_id(5, 2, 1)),
                Some("single rank"),
            ),
            (TrainerConfig::rdm_auto(4), None),
        ] {
            assert_eq!(inert(cfg), reason);
        }
        for cfg in [TrainerConfig::dgcl(4), TrainerConfig::saint_masked(4, 0.5)] {
            let label = cfg.algo.label();
            let err = run(cfg.ra(2)).unwrap_err();
            assert!(err.starts_with(&label) && err.contains("r_a = 2"), "{err}");
        }
    }

    #[test]
    fn rdm_full_batch_trains_to_high_accuracy() {
        let ds = toy(300, 1);
        let cfg = TrainerConfig::rdm_auto(4).epochs(30).hidden(16).lr(0.02);
        let report = train_gcn(&ds, &cfg).unwrap();
        assert_eq!(report.epochs.len(), 30);
        let acc = report.final_test_acc();
        assert!(acc > 0.7, "final accuracy only {acc}");
        // Loss decreases.
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
    }

    #[test]
    fn all_algorithms_produce_identical_losses_initially() {
        // Same seed → same initial weights → the first epoch's loss (which
        // is computed before any update) must agree across full-batch
        // algorithms.
        let ds = toy(120, 2);
        let mut losses = Vec::new();
        for cfg in [
            TrainerConfig::rdm_auto(4),
            TrainerConfig::cagnet_1d(4),
            TrainerConfig::cagnet(4),
            TrainerConfig::dgcl(4),
        ] {
            let report = train_gcn(&ds, &cfg.epochs(1).hidden(8)).unwrap();
            losses.push(report.epochs[0].loss);
        }
        for l in &losses[1..] {
            assert!(
                (l - losses[0]).abs() < 1e-3,
                "initial losses diverge: {losses:?}"
            );
        }
    }

    #[test]
    fn rdm_moves_fewer_bytes_than_cagnet_1d_at_p8() {
        let ds = toy(400, 3);
        let rdm = train_gcn(&ds, &TrainerConfig::rdm_auto(8).epochs(2).hidden(32)).unwrap();
        let cag = train_gcn(&ds, &TrainerConfig::cagnet_1d(8).epochs(2).hidden(32)).unwrap();
        assert!(
            rdm.mean_bytes_per_epoch() < cag.mean_bytes_per_epoch() / 2.0,
            "RDM {} vs CAGNET {}",
            rdm.mean_bytes_per_epoch(),
            cag.mean_bytes_per_epoch()
        );
    }

    #[test]
    fn rdm_traffic_nearly_constant_in_p() {
        let ds = toy(400, 4);
        let r2 = train_gcn(&ds, &TrainerConfig::rdm_auto(2).epochs(1).hidden(32)).unwrap();
        let r8 = train_gcn(&ds, &TrainerConfig::rdm_auto(8).epochs(1).hidden(32)).unwrap();
        // Redistribution volume scales exactly with (P-1)/P: 0.5 → 0.875,
        // a factor of 1.75 — the paper's "independent of the number of
        // GPUs" claim.
        let b2 = r2.epochs[0].redistribution_bytes() as f64;
        let b8 = r8.epochs[0].redistribution_bytes() as f64;
        assert!(
            (b8 / b2 - 1.75).abs() < 0.05,
            "RDM redistribution ratio {b2} -> {b8} off (P-1)/P scaling"
        );
        // Total traffic (incl. weight all-reduces) stays within a small
        // constant too.
        assert!(
            r8.mean_bytes_per_epoch() < 3.0 * r2.mean_bytes_per_epoch(),
            "RDM total bytes grew too fast: {} -> {}",
            r2.mean_bytes_per_epoch(),
            r8.mean_bytes_per_epoch()
        );
        let c2 = train_gcn(&ds, &TrainerConfig::cagnet_1d(2).epochs(1).hidden(32))
            .unwrap()
            .mean_bytes_per_epoch();
        let c8 = train_gcn(&ds, &TrainerConfig::cagnet_1d(8).epochs(1).hidden(32))
            .unwrap()
            .mean_bytes_per_epoch();
        assert!(
            c8 > 5.0 * c2,
            "CAGNET bytes should grow ~(P-1): {c2} -> {c8}"
        );
    }

    #[test]
    fn saint_trainers_run_through_driver() {
        let ds = toy(200, 5);
        let sampler = SaintSampler::Node { budget: 50 };
        for cfg in [
            TrainerConfig::saint_rdm(2, sampler),
            TrainerConfig::saint_ddp(2, sampler),
        ] {
            let report = train_gcn(&ds, &cfg.epochs(2).hidden(8)).unwrap();
            assert_eq!(report.epochs.len(), 2);
            assert!(report.epochs[1].test_acc >= 0.0);
        }
    }

    #[test]
    fn config_validation_errors() {
        let ds = toy(64, 6);
        assert!(train_gcn(&ds, &TrainerConfig::rdm_auto(0)).is_err());
        assert!(train_gcn(&ds, &TrainerConfig::rdm_auto(2).epochs(0)).is_err());
        let bad_c = TrainerConfig {
            algo: Algo::Cagnet15D { c: 3 },
            ..TrainerConfig::cagnet(8)
        };
        assert!(train_gcn(&ds, &bad_c).is_err());
        let plan = Plan::from_id(0, 3, 2);
        let mismatched = TrainerConfig::rdm(2, plan); // layers defaults to 2
        assert!(train_gcn(&ds, &mismatched).is_err());
    }

    #[test]
    fn explicit_plan_is_respected_in_label() {
        let ds = toy(64, 7);
        let cfg = TrainerConfig::rdm(2, Plan::from_id(10, 2, 2))
            .epochs(1)
            .hidden(8);
        let report = train_gcn(&ds, &cfg).unwrap();
        assert_eq!(report.algo, "RDM(id=10)");
    }

    #[test]
    fn single_rank_training_works_for_every_algo() {
        let ds = toy(80, 8);
        for cfg in [
            TrainerConfig::rdm_auto(1),
            TrainerConfig::cagnet_1d(1),
            TrainerConfig::dgcl(1),
        ] {
            let report = train_gcn(&ds, &cfg.epochs(2).hidden(8)).unwrap();
            assert_eq!(report.p, 1);
            // One rank: zero inter-rank bytes.
            assert_eq!(report.mean_bytes_per_epoch(), 0.0);
        }
    }
}
