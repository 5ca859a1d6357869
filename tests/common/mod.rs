//! What the integration suites share: fixtures, and the one differential
//! harness over the configuration space. A [`Config`] names a point of the
//! space; [`check`] runs it beside its reference — the same point on the
//! dense wire, blocking, fault-free, untraced, on the scalar kernels — and
//! its clean twin — the same wire and depth, fault-free, untraced, scalar —
//! and asserts the invariant set every point must meet. `config_space.rs`
//! samples points; the other suites pin a few by name.

#![allow(dead_code)]

use gnn_rdm::comm::{Cluster, CollectiveKind, CommStats, FaultPlan};
use gnn_rdm::core::adam::Adam;
use gnn_rdm::core::gcn::{serial, GcnWeights};
use gnn_rdm::core::infer::forward_logits;
use gnn_rdm::core::loss::serial as loss_serial;
use gnn_rdm::core::ops::{OpCounters, PanelGrid};
use gnn_rdm::core::{best_plan, overlap_inert_reason, train_gcn, Algo, Plan, TrainReport};
use gnn_rdm::core::{masked_spmm_draw, saint_rdm_draw, saint_steps, TrainerConfig};
use gnn_rdm::core::{EpochMetrics, WeightSnapshot};
use gnn_rdm::dense::{kernels, part_range, KernelMode};
use gnn_rdm::graph::dataset::{InducedBatch, Split};
use gnn_rdm::graph::{Dataset, DatasetSpec, SaintSampler};
use gnn_rdm::model::{self, forward_schedule, predict, price_ranks, DeviceModel, Entry};
use gnn_rdm::model::{Graph, Order, Part, SchedEvent, Step, Unit, UnitEvent};
use gnn_rdm::serve::{planned_batches, planned_vertices, serve, Batch, InferRequest, LoadGen};
use gnn_rdm::serve::{ServeConfig, ServeOutput, ServeSampler};
use gnn_rdm::sparse::Coo;
use gnn_rdm::trace::{RankTrace, Span, TraceCollective};
use std::fmt::Debug;

/// Fault-seed offset from the environment, so CI sweeps fault universes
/// (and `config_space.rs` its sample) without code changes.
pub fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The suites' small graph: 140 vertices, 16 features, 5 classes.
pub fn dataset() -> Dataset {
    DatasetSpec::synthetic("space", 140, 1100, FEATURES, CLASSES).instantiate(31)
}

/// 180 vertices on 700 edges: isolated vertices, so row aggregation has
/// empty rows for the indexed wire to elide.
pub fn compressible() -> Dataset {
    DatasetSpec::synthetic("sparse-e2e", 180, 300, FEATURES, CLASSES).instantiate(31)
}

const FEATURES: usize = 16;
const CLASSES: usize = 5;

/// The serving suites' graph: 120 vertices, 12 features, 4 classes.
pub fn serve_dataset() -> Dataset {
    DatasetSpec::synthetic("serve-e2e", 120, 900, 12, 4).instantiate(17)
}

/// Weights for [`serve_dataset`].
pub fn serve_snapshot() -> WeightSnapshot {
    WeightSnapshot::from_weights(&GcnWeights::init(&[12, 10, 4], 23))
}

/// A Zipf-skewed request stream.
pub fn zipf_requests(ds: &Dataset) -> Vec<InferRequest> {
    LoadGen::new(3, 3, 40, 40).zipf(4).generate(ds.n())
}

/// `ds` on a directed version of its graph: each edge `(u, v)` with
/// `u > v` and `u + v` even is dropped, so the transpose's row panels hold
/// other populations than the adjacency's (every loader symmetrizes, so
/// only a directed graph tells the two apart).
pub fn directed(mut ds: Dataset) -> Dataset {
    let n = ds.n();
    let mut coo = Coo::new(n, n);
    for u in 0..n as u32 {
        for &v in ds.adj.row(u as usize).0 {
            if u <= v || (u + v) % 2 == 1 {
                coo.push(u, v, 1.0);
            }
        }
    }
    ds.adj = coo.to_csr();
    ds
}

/// `(loss, train_acc, test_acc)` bit patterns per epoch.
pub fn trajectory(r: &TrainReport) -> Vec<(u32, u32, u32)> {
    let bits = |e: &EpochMetrics| {
        (
            e.loss.to_bits(),
            e.train_acc.to_bits(),
            e.test_acc.to_bits(),
        )
    };
    r.epochs.iter().map(bits).collect()
}

pub fn losses(r: &TrainReport) -> Vec<f32> {
    r.epochs.iter().map(|e| e.loss).collect()
}

/// Dense-equivalent payload bytes per collective kind per epoch: what no
/// wire format, pipeline depth, fault or kernel path may move.
fn volumes(r: &TrainReport) -> Vec<[u64; 5]> {
    let book = |e: &EpochMetrics| CollectiveKind::ALL.map(|k| e.comm.dense_bytes(k));
    r.epochs.iter().map(book).collect()
}

pub fn assert_rows_bitwise(a: &[f32], b: &[f32], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: width");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} != {y}");
    }
}

/// Direct engine forward of `ds` under `plan` on the scalar kernels: the
/// full logits matrix, assembled from each rank's row slice.
pub fn reference_logits(
    ds: &Dataset,
    snap: &WeightSnapshot,
    p: usize,
    plan: &Plan,
) -> Vec<Vec<f32>> {
    let out = Cluster::new(p).run(|ctx| {
        kernels::set_mode(KernelMode::Scalar);
        let (w, mut ops) = (snap.to_weights(), OpCounters::default());
        let logits = forward_logits(ctx, &ds.adj_norm, &ds.features, &w, plan, false, &mut ops);
        let start = part_range(ds.n(), p, ctx.rank()).start;
        (start, logits.local.as_slice().to_vec(), logits.cols)
    });
    let mut rows = vec![Vec::new(); ds.n()];
    for (start, flat, cols) in out.results {
        for (i, row) in flat.chunks(cols).enumerate() {
            rows[start + i] = row.to_vec();
        }
    }
    rows
}

/// A run that must succeed.
pub fn report(ds: &Dataset, cfg: TrainerConfig) -> TrainReport {
    train_gcn(ds, &cfg).unwrap()
}

/// A traced run's per-rank traces.
pub fn traced(ds: &Dataset, cfg: TrainerConfig) -> Vec<RankTrace> {
    report(ds, cfg.trace())
        .traces
        .expect("traced run returns traces")
}

/// Batch `b`'s unit: its scope, one `Serve` marker per admitted request,
/// and `part`, what it runs.
pub fn batch_unit(b: &Batch, part: Part) -> Unit {
    let serve = |r: &InferRequest| Span::Serve {
        client: r.client,
        req_id: r.req_id,
    };
    Unit {
        scope: Span::Batch {
            idx: b.idx,
            size: b.requests.len(),
        },
        markers: b.requests.iter().map(serve).collect(),
        parts: vec![part],
    }
}

/// The units of a full-graph session of `cfg`'s plan over `reqs` on `ds`
/// with layer widths `feats`: batch 0 runs the plan's forward half, and
/// every later batch the held-`Â·H⁰` one when layer 1 runs SpMM first.
pub fn full_graph_units(
    ds: &Dataset,
    feats: &[usize],
    reqs: &[InferRequest],
    cfg: &ServeConfig,
) -> Result<Vec<Unit>, String> {
    let plan = cfg.plan.as_ref().expect("an explicit plan");
    let reuse = plan.config.forward[0] == Order::SpmmFirst;
    let forward = |entry| forward_schedule(&plan.config, plan.memoize || reuse, feats, entry);
    let first = forward(Entry::Both)?;
    let steady = if reuse {
        forward(Entry::Held)?
    } else {
        first.clone()
    };
    let graph = PanelGrid::new(cfg.p, plan.r_a).graph(&ds.adj_norm, None);
    let unit = |b: &Batch| {
        let steps = if b.idx == 0 { &first } else { &steady };
        let graph = graph.clone();
        batch_unit(
            b,
            Part {
                steps: steps.clone(),
                graph,
            },
        )
    };
    Ok(planned_batches(reqs, &cfg.policy)
        .iter()
        .map(unit)
        .collect())
}

/// The units of an induced-minibatch session of `cfg`'s plan over `reqs`
/// on `ds` with layer widths `feats`: each batch runs the plan's forward
/// half on the subgraph induced on its planned vertices, which `each`
/// gets too.
pub fn induced_units(
    ds: &Dataset,
    feats: &[usize],
    reqs: &[InferRequest],
    cfg: &ServeConfig,
    mut each: impl FnMut(&Batch, &[u32], &Dataset),
) -> Result<Vec<Unit>, String> {
    let ServeSampler::Induced { budget } = cfg.sampler else {
        return Err("a full-graph session induces no minibatch".into());
    };
    let plan = cfg.plan.as_ref().expect("an explicit plan");
    let steps = forward_schedule(&plan.config, plan.memoize, feats, Entry::Both)?;
    let grid = PanelGrid::new(cfg.p, plan.r_a);
    let mut unit = |b: &Batch| {
        let verts = planned_vertices(ds, b, budget, cfg.sample_seed);
        let sub = ds.induced(&verts);
        each(b, &verts, &sub);
        let graph = grid.graph(&sub.adj_norm, None);
        batch_unit(
            b,
            Part {
                steps: steps.clone(),
                graph,
            },
        )
    };
    Ok(planned_batches(reqs, &cfg.policy)
        .iter()
        .map(&mut unit)
        .collect())
}

/// Epochs `0..epochs`, each running `steps` on `graph`.
pub fn epoch_units(steps: Vec<Step>, graph: Graph, epochs: usize) -> Vec<Unit> {
    let epoch = |idx| Unit {
        scope: Span::Epoch { idx },
        markers: Vec::new(),
        parts: vec![Part {
            steps: steps.clone(),
            graph: graph.clone(),
        }],
    };
    (0..epochs).map(epoch).collect()
}

/// Hidden width, epochs and learning rate of every harness run.
const HIDDEN: usize = 8;
const EPOCHS: usize = 3;
const LR: f32 = 0.05;
/// §V-B: systems agree "with small differences due to reordering of
/// floating point operations" — per epoch, and far tighter at the first
/// step, before Adam amplifies them.
const LOSS_TOL: f32 = 2e-3;
const FIRST_STEP_TOL: f32 = 1e-5;

/// Which system trains (serving points always run an explicit plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Auto,
    Plan {
        id: usize,
        memoize: bool,
    },
    Cagnet1D,
    /// CAGNET-1.5D at `c = r_a`.
    Cagnet15D,
    Dgcl,
    SaintRdm,
    SaintDdp,
    /// Masked SpMM at keep probability 0.5 (named points only: the
    /// sampler never deals it).
    SaintMasked,
}

/// The aggregation matrix: symmetric GCN, or (RDM only) mean or row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    Gcn,
    Mean,
    Row,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    Train,
    /// Full-graph serving: an SpMM-first plan reuses batch 0's `Â·H⁰`.
    Serve,
    /// Serving on 48-vertex induced minibatches.
    Induced,
}

/// One point of the configuration space; `{:?}` prints it on one line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    pub surface: Surface,
    pub system: System,
    pub layers: usize,
    pub p: usize,
    /// Replication factor of RDM plans, `c` of CAGNET-1.5D.
    pub r_a: usize,
    pub sparse: bool,
    /// Requested pipeline depth; `None` runs blocking without asking.
    pub chunks: Option<usize>,
    pub agg: Agg,
    /// A directed graph (row and mean aggregation only).
    pub directed: bool,
    pub chaos: bool,
    pub trace: bool,
    pub kernels: KernelMode,
}

impl Config {
    /// A blocking, dense, fault-free, untraced, scalar training run of
    /// `system` on the symmetric GCN graph.
    pub fn train(system: System, layers: usize, p: usize) -> Self {
        Config {
            surface: Surface::Train,
            system,
            layers,
            p,
            r_a: p,
            sparse: false,
            chunks: None,
            agg: Agg::Gcn,
            directed: false,
            chaos: false,
            trace: false,
            kernels: KernelMode::Scalar,
        }
    }

    pub fn plan_id(id: usize, layers: usize, p: usize) -> Self {
        Self::train(System::Plan { id, memoize: true }, layers, p)
    }

    pub fn plan(mut self, id: usize, memoize: bool) -> Self {
        self.system = System::Plan { id, memoize };
        self
    }

    pub fn on(mut self, surface: Surface) -> Self {
        self.surface = surface;
        self
    }

    pub fn ra(mut self, r_a: usize) -> Self {
        self.r_a = r_a;
        self
    }

    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = Some(chunks);
        self
    }

    pub fn sparse(mut self) -> Self {
        self.sparse = true;
        self
    }

    pub fn agg(mut self, agg: Agg) -> Self {
        self.agg = agg;
        self
    }

    pub fn chaos(mut self) -> Self {
        self.chaos = true;
        self
    }

    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    pub fn kernels(mut self, kernels: KernelMode) -> Self {
        self.kernels = kernels;
        self
    }

    /// The point whose every observable this one must reproduce: faults,
    /// tracing and the kernel path change nothing at any wire and depth.
    pub fn clean(mut self) -> Self {
        (self.chaos, self.trace) = (false, false);
        self.kernels(KernelMode::Scalar)
    }

    /// The point whose math this one must reproduce bit for bit.
    pub fn reference(mut self) -> Self {
        (self.sparse, self.chunks) = (false, None);
        self.clean()
    }

    /// Row aggregation runs on [`compressible`], the others on [`dataset`].
    pub fn dataset(&self) -> Dataset {
        let row = self.agg == Agg::Row;
        let mut ds = if row { compressible() } else { dataset() };
        if self.directed {
            ds = directed(ds);
        }
        match self.agg {
            Agg::Gcn => ds,
            Agg::Mean => ds.with_mean_aggregation(),
            Agg::Row => ds.with_row_aggregation(),
        }
    }

    fn explicit_plan(&self) -> Option<Plan> {
        let System::Plan { id, memoize } = self.system else {
            return None;
        };
        let plan = Plan::from_id(id, self.layers, self.p).with_ra(self.r_a);
        Some(if memoize { plan } else { plan.no_memoize() })
    }

    pub fn trainer(&self) -> TrainerConfig {
        let (p, saint) = (self.p, SaintSampler::Node { budget: 48 });
        let mut cfg = match self.system {
            System::Auto => TrainerConfig::rdm_auto(p).ra(self.r_a),
            System::Plan { .. } => TrainerConfig::rdm(p, self.explicit_plan().unwrap()),
            System::Cagnet1D => TrainerConfig::cagnet_1d(p),
            System::Cagnet15D => TrainerConfig {
                algo: Algo::Cagnet15D { c: self.r_a },
                ..TrainerConfig::cagnet_1d(p)
            },
            System::Dgcl => TrainerConfig::dgcl(p),
            System::SaintRdm => TrainerConfig::saint_rdm(p, saint),
            System::SaintDdp => TrainerConfig::saint_ddp(p, saint),
            System::SaintMasked => TrainerConfig::saint_masked(p, 0.5),
        };
        cfg = cfg.layers(self.layers).hidden(HIDDEN).epochs(EPOCHS).lr(LR);
        (cfg.sparse, cfg.overlap, cfg.trace, cfg.kernels) =
            (self.sparse, self.chunks, self.trace, self.kernels);
        cfg.fault_plan = self.chaos.then(|| chaos(0xC0FFEE));
        cfg
    }

    pub fn server(&self) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.p).kernel_mode(self.kernels);
        (cfg.plan, cfg.sparse) = (self.explicit_plan(), self.sparse);
        (cfg.pipeline, cfg.trace) = (self.chunks, self.trace);
        cfg.faults = self.chaos.then(|| chaos(0x5EBE));
        match self.surface {
            Surface::Serve => {}
            Surface::Induced => cfg.sampler = ServeSampler::Induced { budget: 48 },
            Surface::Train => unreachable!("a training point has no server"),
        }
        cfg
    }

    /// The replication factor the run executes at: CAGNET-1D is 1.5D at
    /// `c = 1`.
    pub fn run_ra(&self) -> usize {
        match self.system {
            System::Cagnet1D => 1,
            _ => self.r_a,
        }
    }

    /// The plan whose schedule a full-batch run executes every epoch and
    /// the checker prices: an explicit plan, the auto-selected one the
    /// report names, or CAGNET's (RDM plan 0 at `r_a = c`, from a row-only
    /// `H⁰`, with no `G⁰`).
    fn priced_plan(&self, report: &TrainReport) -> Option<Plan> {
        let (layers, p) = (self.layers, self.p);
        match self.system {
            System::Plan { .. } => self.explicit_plan(),
            System::Auto => {
                let id = report.epochs[0].plan_id.expect("RDM names its plan");
                Some(Plan::from_id(id, layers, p).with_ra(self.r_a))
            }
            System::Cagnet1D | System::Cagnet15D => Some(Plan::cagnet(layers, self.run_ra())),
            _ => None,
        }
    }

    /// The kinds of [`Step`] an explicit plan's executed schedule holds (a
    /// serving batch after the first runs a subset of batch 0's).
    pub fn step_kinds(&self) -> Vec<String> {
        let Some(plan) = self.explicit_plan() else {
            return Vec::new();
        };
        let mut feats = vec![HIDDEN; self.layers + 1];
        (feats[0], feats[self.layers]) = (FEATURES, CLASSES);
        let steps = plan.schedule(&feats).expect("a valid plan");
        let served = self.surface != Surface::Train;
        let end = steps.iter().position(|s| served && *s == Step::Loss);
        steps[..end.unwrap_or(steps.len())]
            .iter()
            .map(step_kind)
            .collect()
    }
}

/// A step's variant, with a conversion's booking and a product's feed.
fn step_kind(step: &Step) -> String {
    let variant = format!("{step:?}");
    let name = variant.split([' ', '(']).next().unwrap_or_default();
    match step {
        Step::Convert { kind, .. } => format!("{name}({kind:?})"),
        Step::Product { fed, .. } => format!("{name}(fed={fed})"),
        _ => name.to_string(),
    }
}

/// The fault recipe of a chaotic point: drops, reordering delays and
/// stragglers, in the universe `chaos_base() ^ salt`.
fn chaos(salt: u64) -> FaultPlan {
    let plan = FaultPlan::new(chaos_base() ^ salt).drop_rate(0.2);
    plan.delay(0.25, 3).straggler(0.02, 20_000)
}

/// Run `cfg` and its reference and assert every invariant of the set; a
/// failure names the point.
pub fn check(cfg: &Config) {
    if let Err(e) = try_check(cfg) {
        panic!("{cfg:?}: {e}");
    }
}

/// [`check`], returning the first broken invariant.
pub fn try_check(cfg: &Config) -> Result<(), String> {
    match cfg.surface {
        Surface::Train => check_training(cfg),
        _ => check_serving(cfg),
    }
}

/// `Err` naming `what` unless `got == want`.
fn same<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    let msg = || format!("{what}: {got:?}, expected {want:?}");
    (got == want).then_some(()).ok_or_else(msg)
}

/// The dense Redistribute and Broadcast bytes `units` move, summed over
/// every rank of the `p/r_a × r_a` grid, as [`predict`]ed.
pub fn priced(units: &[Unit], p: usize, r_a: usize) -> Result<[u64; 2], String> {
    let mut book = [0, 0];
    for (unit, rank) in units.iter().flat_map(|u| (0..p).map(move |r| (u, r))) {
        for e in predict(unit, p, r_a, 1, rank)? {
            match e {
                UnitEvent::Sched(SchedEvent::Redist {
                    kind: TraceCollective::Redistribute,
                    bytes,
                    ..
                }) => book[0] += bytes,
                UnitEvent::Sched(SchedEvent::Broadcast { bytes }) => book[1] += bytes,
                _ => {}
            }
        }
    }
    Ok(book)
}

/// The dense Redistribute and Broadcast bytes of `stats`.
fn measured(stats: &CommStats) -> [u64; 2] {
    [CollectiveKind::Redistribute, CollectiveKind::Broadcast].map(|k| stats.dense_bytes(k))
}

/// The kinds whose wire bytes exceed their dense-equivalent bytes.
fn above_dense(stats: &CommStats) -> Vec<CollectiveKind> {
    let above = |k: &CollectiveKind| stats.bytes(*k) > stats.dense_bytes(*k);
    CollectiveKind::ALL.into_iter().filter(above).collect()
}

/// The first violation a conformance check reported, if any.
fn first<T: ToString>(violations: &[T]) -> Option<String> {
    violations.first().map(T::to_string)
}

/// Whether a requested pipeline must stay inert, and why: RDM's own gate,
/// or whatever reason a system that never pipelines gives.
fn inert(cfg: &Config, rdm: bool, given: Option<&'static str>) -> Option<&'static str> {
    let c = cfg.chunks?;
    if rdm {
        overlap_inert_reason(c, cfg.p, cfg.r_a)
    } else {
        given.or(Some("a reason"))
    }
}

/// The pipeline depth a point runs at: the requested one unless inert.
fn depth(cfg: &Config, inert: Option<&str>) -> usize {
    match (cfg.chunks, inert) {
        (Some(chunks), None) => chunks,
        _ => 1,
    }
}

/// The pipeline depth `cfg`'s run executes: an RDM plan's, trained or
/// served, unless its grid makes the request inert; every other system
/// runs blocking.
pub fn run_depth(cfg: &Config) -> usize {
    let rdm = matches!(cfg.system, System::Auto | System::Plan { .. });
    depth(cfg, inert(cfg, rdm || cfg.surface != Surface::Train, None))
}

/// What `part` hides at `chunks` strips, as the schedule prices it on
/// every rank of `cfg`'s grid with each panel's own nonzeros, summed over
/// ranks.
fn priced_hidden(cfg: &Config, part: &Part, chunks: usize) -> Result<u64, String> {
    let ranks = price_ranks(&part.steps, &part.graph, cfg.p, cfg.r_a, chunks, 1.0)?;
    let device = DeviceModel::a6000_pcie();
    Ok(ranks.iter().map(|r| r.hidden_ns(&device)).sum())
}

/// The epochs a training run of `cfg` on `ds` records, each with what it
/// runs: an RDM plan's schedule (the plan `run` reports when selected) or
/// CAGNET's on the whole graph, every GraphSAINT-RDM subgraph step under
/// its own plan, or every masked-SpMM step under the one plan on the
/// nonzeros its mask keeps. Empty for the systems the checker does not
/// cover.
pub fn training_units(cfg: &Config, ds: &Dataset, run: &TrainReport) -> Result<Vec<Unit>, String> {
    let (feats, trainer) = (ds.shape_layers(HIDDEN, cfg.layers).feats, cfg.trainer());
    if cfg.system == System::SaintRdm {
        let mut sub = InducedBatch::default();
        return sampled_units(ds, &trainer, |idx, k| {
            let Some(plan) = saint_rdm_draw(ds, &trainer, idx, k, &mut sub) else {
                return Ok(None);
            };
            let steps = plan.schedule(&feats)?;
            let graph = PanelGrid::new(cfg.p, cfg.p).graph(&sub.adj_norm, None);
            Ok(Some(Part { steps, graph }))
        });
    }
    if cfg.system == System::SaintMasked {
        let shape = ds.shape_layers(HIDDEN, cfg.layers);
        let plan = best_plan(&shape, cfg.p, cfg.p, &trainer.device, 1.0);
        let steps = plan.schedule(&feats)?;
        let mut mask = Vec::new();
        return sampled_units(ds, &trainer, |idx, k| {
            masked_spmm_draw(ds, &trainer, idx, k, &mut mask);
            let kept = mask.iter().filter(|&&keep| keep).count();
            let (n, steps) = (ds.n(), steps.clone());
            let graph = Graph {
                n,
                panel_nnz: vec![kept],
                panel_nnz_t: None,
            };
            Ok(Some(Part { steps, graph }))
        });
    }
    let Some(plan) = cfg.priced_plan(run) else {
        return Ok(Vec::new());
    };
    let steps = plan.schedule(&feats)?;
    let grid = PanelGrid::new(cfg.p, plan.r_a);
    let graph = grid.graph(&ds.adj_norm, ds.adj_norm_t.as_ref());
    Ok(epoch_units(steps, graph, EPOCHS))
}

/// The epochs of a sampling trainer: epoch `idx` holds `draw(idx, k)` for
/// each of its steps `k` that trains.
fn sampled_units(
    ds: &Dataset,
    trainer: &TrainerConfig,
    mut draw: impl FnMut(usize, usize) -> Result<Option<Part>, String>,
) -> Result<Vec<Unit>, String> {
    let mut epoch = |idx| {
        let mut parts = Vec::new();
        for k in 0..saint_steps(ds, trainer) {
            parts.extend(draw(idx, k)?);
        }
        let scope = Span::Epoch { idx };
        Ok(Unit {
            scope,
            markers: Vec::new(),
            parts,
        })
    };
    (0..EPOCHS).map(&mut epoch).collect()
}

/// A traced run of `cfg` (training, or a session of the harness's
/// requests) and the units the checker holds it to.
pub fn traced_units(cfg: &Config) -> Result<(Vec<RankTrace>, Vec<Unit>), String> {
    let (ds, cfg) = (&cfg.dataset(), &cfg.traced());
    if cfg.surface == Surface::Train {
        let run = train_gcn(ds, &cfg.trainer())?;
        let units = training_units(cfg, ds, &run)?;
        return Ok((run.traces.expect("a traced run"), units));
    }
    let feats = ds.shape_layers(HIDDEN, cfg.layers).feats;
    let (snap, reqs, server) = (session_snapshot(&feats), zipf_requests(ds), cfg.server());
    let out = serve(ds, &snap, &reqs, &server)?;
    let units = match cfg.surface {
        Surface::Induced => induced_units(ds, &feats, &reqs, &server, |_, _, _| {})?,
        _ => full_graph_units(ds, &feats, &reqs, &server)?,
    };
    Ok((out.traces.expect("a traced session"), units))
}

/// The weights every harness session serves.
fn session_snapshot(feats: &[usize]) -> WeightSnapshot {
    WeightSnapshot::from_weights(&GcnWeights::init(feats, 23))
}

/// An active pipeline hides time; an inert one says why and hides none.
fn pipeline(cfg: &Config, inert: Option<&str>, got: (Option<&str>, u64)) -> Result<(), String> {
    if cfg.chunks.is_some() && inert.is_none() {
        return same("an active pipeline hid time", got.1 > 0, true);
    }
    same("inert reason, hidden time", got, (inert, 0))
}

/// The loss trajectory of the one-device GCN: `gcn::serial` forward and
/// backward, the same Adam.
fn serial_losses(ds: &Dataset, layers: usize, epochs: usize) -> Vec<f32> {
    let feats = ds.shape_layers(HIDDEN, layers).feats;
    let mut w = GcnWeights::init(&feats, TrainerConfig::rdm_auto(1).seed);
    let mut adam = Adam::new(LR, &w.shapes());
    let train: Vec<bool> = ds.split.iter().map(|&s| s == Split::Train).collect();
    let adj_t = ds.adj_norm_t.as_ref().unwrap_or(&ds.adj_norm);
    let mut step = || {
        let h = serial::forward(&ds.adj_norm, &ds.features, &w);
        let (loss, grad) = loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, &train);
        let grads = serial::backward_asym(adj_t, &h, &w, &grad).0;
        adam.step(&mut w.w, &grads);
        loss
    };
    (0..epochs).map(|_| step()).collect()
}

/// `cfg`'s run, then its clean twin's and its reference's where each is
/// another point than the one before it (`None`: that one stands in).
type Runs<T> = (T, Option<T>, Option<T>);

fn runs<T, E>(cfg: &Config, run: impl Fn(&Config) -> Result<T, E>) -> Result<Runs<T>, E> {
    let (clean, reference) = (cfg.clean(), cfg.reference());
    let (first, other) = (run(cfg)?, |c, of| (c != of).then(|| run(&c)).transpose());
    Ok((first, other(clean, *cfg)?, other(reference, clean)?))
}

fn check_training(cfg: &Config) -> Result<(), String> {
    let ds = &cfg.dataset();
    let (run, twin, base) = &runs(cfg, |c| train_gcn(ds, &c.trainer()))?;
    let twin = twin.as_ref().unwrap_or(run);
    let r = base.as_ref().unwrap_or(twin);
    // A traced epoch that runs a step list, GraphSAINT-RDM's and CAGNET's
    // included, records exactly its schedule, checked first: a drifted
    // schedule says where.
    let units = training_units(cfg, ds, run)?;
    if let Some(traces) = &run.traces {
        traces.iter().try_for_each(RankTrace::validate_nesting)?;
        if !units.is_empty() {
            let v = model::check(traces, cfg.run_ra(), run_depth(cfg), &units)?;
            same("first conformance violation", first(&v), None)?;
        }
    }
    same("loss/accuracy bits", trajectory(run), trajectory(r))?;
    same("dense-equivalent book", volumes(run), volumes(r))?;
    let above: Vec<_> = run.epochs.iter().map(|e| above_dense(&e.comm)).collect();
    same("kinds above dense", above, vec![vec![]; EPOCHS])?;
    // A rerun replays the whole run: trajectory, trained weights and every
    // epoch's book, its pool counts included.
    let replay = |t: &TrainReport| {
        let book = |e: &EpochMetrics| {
            let kinds = CollectiveKind::ALL
                .map(|k| (e.comm.bytes(k), e.comm.dense_bytes(k), e.comm.messages(k)));
            let model = [
                e.ops.spmm_fma,
                e.ops.gemm_fma,
                e.sim.total_s,
                e.sim.hidden_s,
            ];
            let pool = (e.ws_fresh, e.ws_reused);
            (e.plan_id, kinds, model.map(f64::to_bits), e.retries(), pool)
        };
        let weights = t.weights.as_ref().map(WeightSnapshot::to_bytes);
        (
            trajectory(t),
            weights,
            t.epochs.iter().map(book).collect::<Vec<_>>(),
        )
    };
    let again = train_gcn(ds, &cfg.trainer())?;
    same("a rerun's run", replay(&again), replay(run))?;

    // Every epoch that runs a step list, GraphSAINT-RDM's and CAGNET's
    // included, moves what its schedule prices.
    if !units.is_empty() {
        let expect = units.chunks(1).map(|u| priced(u, cfg.p, cfg.run_ra()));
        let expect = expect.collect::<Result<Vec<_>, _>>()?;
        let got: Vec<_> = run.epochs.iter().map(|e| measured(&e.comm)).collect();
        same("dense bytes against the schedule", got, expect)?;
    }

    let full_batch = !matches!(
        cfg.system,
        System::SaintRdm | System::SaintDdp | System::SaintMasked
    );
    if !cfg.sparse && full_batch {
        let fresh: Vec<_> = run.epochs[1..].iter().map(EpochMetrics::ws_fresh).collect();
        same("steady fresh allocations", fresh, vec![0; EPOCHS - 1])?;
    }
    let rdm = matches!(cfg.system, System::Auto | System::Plan { .. });
    let (reason, hidden) = (run.overlap_inert_reason(), run.total_overlap_ns());
    let inert = inert(cfg, rdm, reason);
    pipeline(cfg, inert, (reason, hidden))?;
    // What an RDM plan's pipeline hid is its schedule's price, every epoch.
    if rdm {
        let price = priced_hidden(cfg, &units[0].parts[0], depth(cfg, inert))?;
        let got: Vec<u64> = run.epochs.iter().map(EpochMetrics::overlap_ns).collect();
        same("hidden time against the price", got, vec![price; EPOCHS])?;
    }
    // Row aggregation zeroes the isolated vertices' rows from the first
    // aggregation on, and every plan redistributes some of them: a blocking
    // indexed wire that redistributes at all sends less than a dense one (an
    // active pipeline's narrow strips may not pay for their index column).
    let blocking = cfg.chunks.is_none() || inert.is_some();
    if cfg.sparse && cfg.agg == Agg::Row && blocking {
        let dense = run.total_redistribution_dense_bytes();
        let below = run.total_redistribution_bytes() < dense || dense == 0;
        same("indexed Redistribute bytes below dense", below, true)?;
    }
    // Faults, tracing and the kernel path move neither the modeled epoch,
    // a message, a wire byte nor hidden time; an inert pipeline on the
    // dense wire moves none of them either.
    let sim = |e: &EpochMetrics| [e.sim.compute_s, e.sim.comm_s, e.sim.total_s].map(f64::to_bits);
    let wire =
        |e: &EpochMetrics| CollectiveKind::ALL.map(|k| (e.comm.messages(k), e.comm.bytes(k)));
    let timeline = |t: &TrainReport| -> (Vec<_>, u64) {
        let epochs = t.epochs.iter().map(|e| (sim(e), wire(e))).collect();
        (epochs, t.total_overlap_ns())
    };
    same("modeled epochs, wire", timeline(run), timeline(twin))?;
    if !cfg.sparse && blocking {
        same("the same against blocking", timeline(twin), timeline(r))?;
    }
    if cfg.chaos {
        let messages: u64 = run.epochs.iter().map(|e| e.comm.total_messages()).sum();
        let faulted = messages < 64 || run.total_retries() > 0;
        same("chaos injected a fault", faulted, true)?;
    }
    if full_batch {
        let (serial, losses) = (serial_losses(ds, cfg.layers, EPOCHS), losses(run));
        let tol = |i| if i == 0 { FIRST_STEP_TOL } else { LOSS_TOL };
        let far = (0..EPOCHS).filter(|&i| (losses[i] - serial[i]).abs() > tol(i));
        let what = format!("epochs of {losses:?} off gcn::serial {serial:?}");
        same(&what, far.collect(), vec![])?;
    }
    Ok(())
}

fn check_serving(cfg: &Config) -> Result<(), String> {
    let ds = &cfg.dataset();
    let feats = ds.shape_layers(HIDDEN, cfg.layers).feats;
    let (snap, reqs, server) = (session_snapshot(&feats), zipf_requests(ds), cfg.server());
    let (out, twin, base) = &runs(cfg, |c| serve(ds, &snap, &reqs, &c.server()))?;
    let twin = twin.as_ref().unwrap_or(out);
    let r = base.as_ref().unwrap_or(twin);
    let plan = server.plan.clone().unwrap();
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Every batch runs its forward schedule on the graph it ran on, and its
    // logits equal a direct forward of that graph: an induced batch's
    // adjacency is built once, for both. A traced session must record
    // exactly that schedule, checked first: a drifted schedule says where.
    let mut direct = vec![Vec::new(); reqs.len()];
    let units = if cfg.surface == Surface::Induced {
        induced_units(ds, &feats, &reqs, &server, |batch, verts, sub| {
            let rows = reference_logits(sub, &snap, cfg.p, &plan);
            for q in &batch.requests {
                direct[q.idx] = bits(&rows[verts.binary_search(&q.target).unwrap()]);
            }
        })?
    } else {
        let rows = reference_logits(ds, &snap, cfg.p, &plan);
        for q in &reqs {
            direct[q.idx] = bits(&rows[q.target as usize]);
        }
        let h = serial::forward(&ds.adj_norm, &ds.features, &snap.to_weights());
        let off = |(v, row): (usize, &Vec<f32>)| {
            let near = |(x, y): (&f32, &f32)| (x - y).abs() <= 1e-4;
            (!row.iter().zip(h.last().unwrap().row(v)).all(near)).then_some(v)
        };
        let off: Vec<usize> = rows.iter().enumerate().filter_map(off).collect();
        same("vertices whose logits are off gcn::serial", off, vec![])?;
        full_graph_units(ds, &feats, &reqs, &server)?
    };
    if let Some(traces) = &out.traces {
        traces.iter().try_for_each(RankTrace::validate_nesting)?;
        let v = model::check(traces, cfg.r_a, run_depth(cfg), &units)?;
        same("first conformance violation", first(&v), None)?;
    }
    let logits =
        |o: &ServeOutput| -> Vec<_> { o.report.requests.iter().map(|q| bits(&q.logits)).collect() };
    same("logits", logits(out), logits(r))?;
    same("logits against a direct forward", logits(out), direct)?;
    let book = |o: &ServeOutput| CollectiveKind::ALL.map(|k| o.stats.dense_bytes(k));
    same("dense-equivalent book", book(out), book(r))?;
    same("kinds above dense", above_dense(&out.stats), vec![])?;
    let expect = priced(&units, cfg.p, cfg.r_a)?;
    same(
        "dense bytes against the session",
        measured(&out.stats),
        expect,
    )?;
    // A rerun replays the whole report, its pool counts included.
    let again = serve(ds, &snap, &reqs, &server)?;
    same("a rerun's report", &again.report, &out.report)?;
    let reason = match cfg.surface {
        Surface::Induced => Some("induced minibatches"),
        _ => (plan.config.forward[0] == Order::GemmFirst).then_some("layer 0 runs GEMM first"),
    };
    same("why Â·H⁰ was not reused", out.report.reuse_inert, reason)?;

    if !cfg.sparse {
        same("steady fresh allocations", out.report.ws_fresh_steady, 0)?;
    }
    let inert = inert(cfg, true, None);
    let blocking = cfg.chunks.is_none() || inert.is_some();
    let hidden = out.hidden_ns.iter().sum();
    pipeline(cfg, inert, (out.report.overlap_inert_reason(), hidden))?;
    // What each batch's pipeline hid is the price of the forward schedule
    // it ran on the graph it ran on.
    let chunks = depth(cfg, inert);
    let price = |u: &Unit| priced_hidden(cfg, &u.parts[0], chunks);
    let expect = units.iter().map(price).collect::<Result<Vec<_>, _>>()?;
    same(
        "hidden time against the price",
        out.hidden_ns.clone(),
        expect,
    )?;
    // Faults, tracing and the kernel path move neither the timeline, a
    // book of the report, a wire byte nor hidden time; an inert pipeline on
    // the dense wire moves none of them either.
    let seen = |o: &ServeOutput| {
        let mut r = o.report.clone();
        (r.retries, r.overlap_inert) = (0, None);
        let wire = CollectiveKind::ALL.map(|k| (o.stats.messages(k), o.stats.bytes(k)));
        (r, wire, o.hidden_ns.clone())
    };
    same("the report, wire", seen(out), seen(twin))?;
    if !cfg.sparse && blocking {
        same("the same against blocking", seen(twin), seen(r))?;
    }
    if cfg.chaos {
        let faulted = out.report.messages < 64 || out.report.retries > 0;
        same("chaos injected a fault", faulted, true)?;
    }
    Ok(())
}
