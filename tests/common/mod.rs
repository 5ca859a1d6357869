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
use gnn_rdm::core::ops::OpCounters;
use gnn_rdm::core::{overlap_inert_reason, train_gcn, Algo, Plan, TrainReport, TrainerConfig};
use gnn_rdm::core::{EpochMetrics, WeightSnapshot};
use gnn_rdm::dense::{kernels, part_range, KernelMode};
use gnn_rdm::graph::dataset::Split;
use gnn_rdm::graph::{Dataset, DatasetSpec, SaintSampler};
use gnn_rdm::model::{check_run, check_session, predict_epoch, predict_session, schedule};
use gnn_rdm::model::{Order, OrderConfig, SchedEvent, ServeEvent, SessionBatch, Step};
use gnn_rdm::serve::{planned_batches, planned_vertices, serve, Batch, InferRequest, LoadGen};
use gnn_rdm::serve::{ServeConfig, ServeOutput, ServeSampler};
use gnn_rdm::sparse::{Coo, Csr};
use gnn_rdm::trace::{RankTrace, TraceCollective};
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

/// Nonzeros of each row panel of `adj` on the `p/r_a × r_a` grid — panel
/// `k` spans the contiguous row slices of ranks `[k·r_a, (k+1)·r_a)`.
pub fn panel_nnz(adj: &Csr, p: usize, r_a: usize) -> Vec<usize> {
    let (indptr, n) = (adj.indptr(), adj.rows());
    (0..p / r_a)
        .map(|k| {
            let r0 = part_range(n, p, k * r_a).start;
            indptr[part_range(n, p, (k + 1) * r_a - 1).end] - indptr[r0]
        })
        .collect()
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

/// The batch schedule as the serving predictor needs it.
pub fn session_batches(reqs: &[InferRequest], cfg: &ServeConfig) -> Vec<SessionBatch> {
    let batch = |b: &Batch| SessionBatch {
        idx: b.idx,
        requests: b.requests.iter().map(|r| (r.client, r.req_id)).collect(),
    };
    planned_batches(reqs, &cfg.policy)
        .iter()
        .map(batch)
        .collect()
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
    Dynamic,
    Cagnet1D,
    /// CAGNET-1.5D at `c = r_a`.
    Cagnet15D,
    Dgcl,
    SaintRdm,
    SaintDdp,
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
            System::Dynamic => TrainerConfig::rdm_dynamic(p, 1).ra(self.r_a),
            System::Cagnet1D => TrainerConfig::cagnet_1d(p),
            System::Cagnet15D => TrainerConfig {
                algo: Algo::Cagnet15D { c: self.r_a },
                ..TrainerConfig::cagnet_1d(p)
            },
            System::Dgcl => TrainerConfig::dgcl(p),
            System::SaintRdm => TrainerConfig::saint_rdm(p, saint),
            System::SaintDdp => TrainerConfig::saint_ddp(p, saint),
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

    /// The plan whose schedule the run executes and the checker prices:
    /// an explicit plan, or the auto-selected one the report names.
    fn priced_plan(&self, report: Option<&TrainReport>) -> Option<(OrderConfig, bool)> {
        let (id, memoize) = match (self.system, report) {
            (System::Plan { id, memoize }, _) => (id, memoize),
            (System::Auto, Some(r)) => (r.epochs[0].plan_id.expect("RDM names its plan"), true),
            _ => return None,
        };
        Some((OrderConfig::from_id(id, self.layers), memoize))
    }

    /// The kinds of [`Step`] an explicit plan's executed schedule holds (a
    /// serving batch after the first runs a subset of batch 0's).
    pub fn step_kinds(&self) -> Vec<String> {
        let Some((config, memoize)) = self.priced_plan(None) else {
            return Vec::new();
        };
        let mut feats = vec![HIDDEN; self.layers + 1];
        (feats[0], feats[self.layers]) = (FEATURES, CLASSES);
        let steps = schedule(&config, memoize, &feats, false).expect("a valid plan");
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

/// Redistribute and Broadcast bytes of `events`.
fn priced(events: impl IntoIterator<Item = SchedEvent>) -> [u64; 2] {
    let mut book = [0, 0];
    for e in events {
        let redistribute = TraceCollective::Redistribute;
        match e {
            SchedEvent::Redist { kind, bytes, .. } if kind == redistribute => book[0] += bytes,
            SchedEvent::Broadcast { bytes } => book[1] += bytes,
            _ => {}
        }
    }
    book
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
    same("loss/accuracy bits", trajectory(run), trajectory(r))?;
    same("dense-equivalent book", volumes(run), volumes(r))?;
    let above: Vec<_> = run.epochs.iter().map(|e| above_dense(&e.comm)).collect();
    same("kinds above dense", above, vec![vec![]; EPOCHS])?;

    let (shape, p, r_a) = (ds.shape_layers(HIDDEN, cfg.layers), cfg.p, cfg.r_a);
    let nnz = panel_nnz(&ds.adj_norm, p, r_a);
    let nnz_t = ds.adj_norm_t.as_ref().map(|t| panel_nnz(t, p, r_a));
    let nnz_t = nnz_t.as_deref();
    let plan = cfg.priced_plan(Some(run));
    if let Some((config, memoize)) = &plan {
        let epoch = |rank| predict_epoch(&shape, config, *memoize, p, r_a, rank, &nnz, nnz_t);
        let expect = priced((0..p).flat_map(|rank| epoch(rank).unwrap()));
        let got: Vec<_> = run.epochs.iter().map(|e| measured(&e.comm)).collect();
        same(
            "dense bytes against the schedule",
            got,
            vec![expect; EPOCHS],
        )?;
    }
    if let Some(traces) = &run.traces {
        traces.iter().try_for_each(RankTrace::validate_nesting)?;
        if let Some((config, memoize)) = &plan {
            let v = check_run(traces, &shape, config, *memoize, r_a, &nnz, nnz_t)?;
            same("first conformance violation", first(&v), None)?;
        }
    }

    let full_batch = !matches!(cfg.system, System::SaintRdm | System::SaintDdp);
    if !cfg.sparse && !cfg.chaos && full_batch && cfg.system != System::Dynamic {
        let fresh: Vec<_> = run.epochs[1..].iter().map(EpochMetrics::ws_fresh).collect();
        same("steady fresh allocations", fresh, vec![0; EPOCHS - 1])?;
    }
    let rdm = matches!(cfg.system, System::Auto | System::Plan { .. });
    let (reason, hidden) = (run.overlap_inert_reason(), run.total_overlap_ns());
    let inert = inert(cfg, rdm, reason);
    pipeline(cfg, inert, (reason, hidden))?;
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
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&feats, 23));
    let reqs = zipf_requests(ds);
    let server = cfg.server();
    let (out, twin, base) = &runs(cfg, |c| serve(ds, &snap, &reqs, &c.server()))?;
    let twin = twin.as_ref().unwrap_or(out);
    let r = base.as_ref().unwrap_or(twin);
    let plan = server.plan.clone().unwrap();
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let logits =
        |o: &ServeOutput| -> Vec<_> { o.report.requests.iter().map(|q| bits(&q.logits)).collect() };
    same("logits", logits(out), logits(r))?;
    let book = |o: &ServeOutput| CollectiveKind::ALL.map(|k| o.stats.dense_bytes(k));
    same("dense-equivalent book", book(out), book(r))?;
    same("kinds above dense", above_dense(&out.stats), vec![])?;
    // A rerun replays the whole report (faults may keep more buffers in
    // flight, so a chaotic point's pool counts are left out).
    let replay = |o: &ServeOutput| {
        let mut r = o.report.clone();
        if cfg.chaos {
            (r.ws_fresh_warmup, r.ws_fresh_steady, r.ws_reused_steady) = (0, 0, 0);
        }
        r
    };
    let again = serve(ds, &snap, &reqs, &server)?;
    same("a rerun's report", replay(&again), replay(out))?;

    // Served logits equal a direct forward of the graph each batch ran on.
    let mut direct = vec![Vec::new(); reqs.len()];
    if cfg.surface == Surface::Induced {
        for batch in planned_batches(&reqs, &server.policy) {
            let verts = planned_vertices(ds, &batch, 48, server.sample_seed);
            let rows = reference_logits(&ds.induced(&verts), &snap, cfg.p, &plan);
            for q in &batch.requests {
                direct[q.idx] = bits(&rows[verts.binary_search(&q.target).unwrap()]);
            }
        }
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
    }
    same("logits against a direct forward", logits(out), direct)?;

    if cfg.surface == Surface::Serve {
        let shape = ds.shape_layers(HIDDEN, cfg.layers);
        let (config, memoize, p, r_a) = (&plan.config, plan.memoize, cfg.p, cfg.r_a);
        let batches = session_batches(&reqs, &server);
        let nnz = panel_nnz(&ds.adj_norm, p, r_a);
        let session = |rank| predict_session(&shape, config, memoize, p, r_a, rank, &batches, &nnz);
        let events = (0..p).map(session).collect::<Result<Vec<_>, _>>()?;
        let sched = |e| match e {
            ServeEvent::Sched(s) => Some(s),
            _ => None,
        };
        let expect = priced(events.into_iter().flatten().filter_map(sched));
        same(
            "dense bytes against the session",
            measured(&out.stats),
            expect,
        )?;
        if let Some(traces) = &out.traces {
            let v = check_session(traces, &shape, config, memoize, &batches, r_a, &nnz)?;
            same("first conformance violation", first(&v), None)?;
        }
        let gemm_first = config.forward[0] == Order::GemmFirst;
        let reason = gemm_first.then_some("layer 0 runs GEMM first");
        same("why Â·H⁰ was not reused", out.report.reuse_inert, reason)?;
    } else if let Some(traces) = &out.traces {
        traces.iter().try_for_each(RankTrace::validate_nesting)?;
    }

    if !cfg.sparse && !cfg.chaos {
        same("steady fresh allocations", out.report.ws_fresh_steady, 0)?;
    }
    let inert = inert(cfg, true, None);
    let blocking = cfg.chunks.is_none() || inert.is_some();
    pipeline(
        cfg,
        inert,
        (out.report.overlap_inert_reason(), out.stats.overlap_ns),
    )?;
    // Faults, tracing and the kernel path move neither the timeline, a
    // book of the report, a wire byte nor hidden time (faults may keep more
    // buffers in flight); an inert pipeline on the dense wire moves none of
    // them either.
    let seen = |o: &ServeOutput, pool: bool| {
        let mut r = o.report.clone();
        (r.retries, r.overlap_inert) = (0, None);
        if !pool {
            (r.ws_fresh_warmup, r.ws_fresh_steady, r.ws_reused_steady) = (0, 0, 0);
        }
        let wire = CollectiveKind::ALL.map(|k| (o.stats.messages(k), o.stats.bytes(k)));
        (r, wire, o.stats.overlap_ns)
    };
    let pool = !cfg.chaos;
    same("the report, wire", seen(out, pool), seen(twin, pool))?;
    if !cfg.sparse && blocking {
        same("the same against blocking", seen(twin, true), seen(r, true))?;
    }
    if cfg.chaos {
        let faulted = out.report.messages < 64 || out.report.retries > 0;
        same("chaos injected a fault", faulted, true)?;
    }
    Ok(())
}
