//! The four workloads: how each builds its inputs from the seed, runs the
//! system through its public entry points (`train_gcn`, `rdm_serve::serve`)
//! and checks what came back.
//!
//! A *step* is the unit of repeated work a user waits for: one training
//! epoch (slowest rank, barrier to barrier) on the `train-*` workloads, one
//! closed-loop serving session on `serve-induced`. Step 0 of every call is
//! warm-up (pool fill, lazy caches, page faults) and is never a sample.

use std::time::Instant;

use gnn_rdm::comm::{Cluster, CollectiveKind};
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::infer::forward_logits;
use gnn_rdm::core::ops::OpCounters;
use gnn_rdm::core::{
    best_plan_with_ra_sparsity, train_gcn, Plan, TrainReport, TrainerConfig, WeightSnapshot,
};
use gnn_rdm::dense::kernels;
use gnn_rdm::graph::{Dataset, DatasetSpec};
use gnn_rdm::model::cost::config_cost;
use gnn_rdm::model::{GnnShape, Order};
use gnn_rdm::serve::{
    planned_batches, planned_vertices, serve, BatchPolicy, InferRequest, LoadGen, ServeConfig,
    ServeReport, ServeSampler,
};
use gnn_rdm::trace::RankTrace;

const CLASSES: usize = 16;
const LAYERS: usize = 2;
/// Requests per serving session: a multiple of the batch size, so every
/// session runs the same number of full batches, and short enough that a
/// run holds many sessions.
pub const SESSION_REQUESTS: usize = 80;

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub vertices: usize,
    pub edges: usize,
    pub features: usize,
    pub kind: Kind,
}

#[derive(Clone, Debug)]
pub enum Kind {
    Train {
        cfg: TrainerConfig,
        /// Self-loop-free row aggregation: isolated vertices aggregate
        /// nothing, so the sparse wire has all-zero rows to elide.
        row_aggregation: bool,
    },
    Serve {
        hidden: usize,
        cfg: ServeConfig,
        requests: usize,
    },
}

impl Workload {
    /// Sizes are chosen so one step takes 0.1–0.25 s on a 2-core
    /// container: each of a 20 s run's five measuring processes then holds
    /// 15–40 steady steps.
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            // Degree-40 graph, wide layers, library defaults (auto plan,
            // default kernels, dense blocking wire): SpMM and GEMM dominate.
            "train-kernels" => Workload {
                name: "train-kernels",
                vertices: 20_000,
                edges: 800_000,
                features: 128,
                kind: Kind::Train {
                    cfg: TrainerConfig::rdm_auto(2).hidden(128),
                    row_aggregation: false,
                },
            },
            // Degree-2 graph, thin layers, all-SpMM-first plan (id 15: the
            // most redistributions), fast kernels: low arithmetic
            // intensity, so redistribution, split/merge and the untraced
            // epoch residue are visible.
            "train-thin" => Workload {
                name: "train-thin",
                vertices: 80_000,
                edges: 160_000,
                features: 64,
                kind: Kind::Train {
                    cfg: TrainerConfig::rdm(2, Plan::from_id(15, LAYERS, 2))
                        .hidden(16)
                        .fast_kernels(),
                    row_aggregation: false,
                },
            },
            // The redistribution layer used the other way: group-scoped
            // (R_A = 2 < P = 4), indexed-strip wire, chunk-pipelined, plus
            // panel broadcasts. Four ranks on two cores is deliberate:
            // R_A < P needs P >= 4.
            "train-grid-sparse" => Workload {
                name: "train-grid-sparse",
                vertices: 100_000,
                edges: 50_000,
                features: 128,
                kind: Kind::Train {
                    cfg: TrainerConfig::rdm_auto(4)
                        .ra(2)
                        .hidden(16)
                        .sparse()
                        .overlap(3),
                    row_aggregation: true,
                },
            },
            // Forward-only, tiny kernels: each batch is dominated by
            // subgraph induction, normalisation and feature gather.
            "serve-induced" => {
                let mut cfg = ServeConfig::new(2);
                cfg.sampler = ServeSampler::Induced { budget: 4096 };
                cfg.policy = BatchPolicy::new(8, 2_000);
                Workload {
                    name: "serve-induced",
                    vertices: 50_000,
                    edges: 500_000,
                    features: 64,
                    kind: Kind::Serve {
                        hidden: 64,
                        cfg,
                        requests: SESSION_REQUESTS,
                    },
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// The same workload on a graph `div` times smaller (tests only need
    /// the code paths, not the timings).
    #[cfg(test)]
    pub fn shrunk(mut self, div: usize) -> Workload {
        self.vertices /= div;
        self.edges /= div;
        if let Kind::Serve { cfg, requests, .. } = &mut self.kind {
            cfg.sampler = ServeSampler::Induced { budget: 64 };
            *requests = 40;
        }
        self
    }

    pub fn ranks(&self) -> usize {
        match &self.kind {
            Kind::Train { cfg, .. } => cfg.p,
            Kind::Serve { cfg, .. } => cfg.p,
        }
    }

    /// Adjacency replication factor the workload runs at.
    pub fn r_a(&self) -> usize {
        match &self.kind {
            Kind::Train { cfg, .. } => cfg.ra.unwrap_or(cfg.p),
            Kind::Serve { cfg, .. } => cfg.p,
        }
    }

    /// Vertex budget of the induced minibatch sampler, when serving.
    pub fn sampler_budget(&self) -> Option<usize> {
        match &self.kind {
            Kind::Serve {
                cfg:
                    ServeConfig {
                        sampler: ServeSampler::Induced { budget },
                        ..
                    },
                ..
            } => Some(*budget),
            _ => None,
        }
    }

    pub fn hidden(&self) -> usize {
        match &self.kind {
            Kind::Train { cfg, .. } => cfg.hidden,
            Kind::Serve { hidden, .. } => *hidden,
        }
    }

    pub fn kernel_mode(&self) -> kernels::Mode {
        match &self.kind {
            Kind::Train { cfg, .. } => cfg.kernels,
            Kind::Serve { cfg, .. } => cfg.kernels,
        }
    }

    pub fn sparse_wire(&self) -> bool {
        match &self.kind {
            Kind::Train { cfg, .. } => cfg.sparse,
            Kind::Serve { cfg, .. } => cfg.sparse,
        }
    }

    pub fn instantiate(&self, seed: u64) -> Dataset {
        let ds =
            DatasetSpec::synthetic(self.name, self.vertices, self.edges, self.features, CLASSES)
                .instantiate(seed);
        match self.kind {
            Kind::Train {
                row_aggregation: true,
                ..
            } => ds.with_row_aggregation(),
            _ => ds,
        }
    }
}

/// Steady steps a call sized by time takes at least, however slow the host.
const MIN_STEPS: usize = 10;

/// How long a call runs.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Exactly this many steady steps.
    Steps(usize),
    /// About `seconds` of steady steps, at least [`MIN_STEPS`]. Sessions
    /// run until the time is up; a training call has to fix its epoch count
    /// up front and sizes itself with the estimate `step_s`.
    Seconds { seconds: f64, step_s: f64 },
}

/// Violations found by the output checks. Each is named on stderr as it
/// is found; none aborts the run.
#[derive(Default, Debug)]
pub struct Checks {
    /// Operations checked: steady epochs, or served requests.
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.failures.push(what);
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }
}

/// What one steady step reported about itself.
#[derive(Clone, Debug, Default)]
pub struct Step {
    pub wall_s: f64,
    /// Payload bytes that crossed between ranks, all collective kinds.
    pub wire_bytes: u64,
    /// What the same messages would have carried uncompressed.
    pub dense_bytes: u64,
    /// The same two books for plan-level redistributions alone: panel
    /// broadcasts stay dense by design, so the compression the sparse
    /// wire achieves reads off these.
    pub redist_wire_bytes: u64,
    pub redist_dense_bytes: u64,
    pub messages: u64,
    /// Slowest rank's time inside communication calls (train); mean over
    /// ranks (serve, where only the merged book is returned).
    pub comm_wall_s: f64,
    pub ws_fresh: u64,
    pub ws_reused: u64,
    pub retries: u64,
    pub spmm_fma: f64,
    pub gemm_fma: f64,
    /// Device-model (virtual) time: never compared with wall time as if
    /// measured.
    pub sim_s: f64,
    pub sim_comm_s: f64,
    pub sim_hidden_s: f64,
    /// Virtual request latency of a serving session (p50 µs, p99 µs) and
    /// its virtual throughput (requests/s); zero when training.
    pub virtual_p50_us: f64,
    pub virtual_p99_us: f64,
    pub virtual_rps: f64,
}

/// What a call returned, kept until [`Ready::check`] looks at it: the
/// checks are untimed and wait until peak memory has been read.
#[derive(Debug, Default)]
enum Unchecked {
    #[default]
    Nothing,
    Train(TrainReport, TrainerConfig),
    /// Steady sessions: number, requests, and the report or the error.
    Sessions(
        Vec<(usize, Vec<InferRequest>, Result<ServeReport, String>)>,
        ServeConfig,
    ),
}

/// One call into the system: a warm-up step plus `steps` steady ones.
#[derive(Debug, Default)]
pub struct Steps {
    pub steady: Vec<Step>,
    /// Wall time of the whole call, warm-up included.
    pub call_s: f64,
    /// Bit patterns of everything the run computed that must replay:
    /// per-epoch losses (warm-up included), or per-request logits.
    pub outputs: Vec<u32>,
    /// One entry per traced `Cluster::run` (one per training run, one per
    /// serving session).
    pub traces: Vec<Vec<RankTrace>>,
    /// Units (batches) per step when a step holds more than one.
    pub units_per_step: usize,
    /// Table-IV id of the ordering a training run executed (auto-selected
    /// plans resolve inside `train_gcn`; the report carries the id).
    pub plan_id: Option<usize>,
    unchecked: Unchecked,
}

impl Steps {
    pub fn walls(&self) -> Vec<f64> {
        self.steady.iter().map(|s| s.wall_s).collect()
    }
}

/// Inputs built from the seed, ready to run.
pub struct Ready {
    pub workload: Workload,
    pub seed: u64,
    pub ds: Dataset,
    /// Weights and the session plan (`serve-induced` only).
    pub serving: Option<(WeightSnapshot, ServeConfig)>,
    pub instantiate_s: f64,
}

/// A complete set-up, as a process that has done nothing else pays it.
pub struct SetUp {
    pub ready: Ready,
    /// The one steady step that followed the warm-up step.
    pub first: Steps,
    /// Everything up to the first steady step: dataset instantiation,
    /// weights, cluster spawn, plan selection, lazy caches, pool
    /// warm-up and the warm-up step itself.
    pub setup_s: f64,
}

impl Workload {
    /// The inputs, built from the seed. Serving gets Glorot-initialised
    /// weights: a serving process loads its weights, it does not train, and
    /// no cost of serving depends on their values.
    pub fn prepare(&self, seed: u64) -> Result<Ready, String> {
        let t0 = Instant::now();
        let ds = self.instantiate(seed);
        let instantiate_s = t0.elapsed().as_secs_f64();
        let serving = match &self.kind {
            Kind::Train { .. } => None,
            Kind::Serve { hidden, cfg, .. } => {
                let feats = [ds.features.cols(), *hidden, CLASSES];
                let snap = WeightSnapshot::from_weights(&GcnWeights::init(&feats, seed));
                // The plan `serve` would pick itself, computed the same
                // way and pinned so the direct-forward check runs the
                // identical schedule.
                let serve_n = self.sampler_budget().unwrap_or(ds.n()).min(ds.n());
                let nnz = (ds.adj_norm.nnz() * serve_n / ds.n()).max(serve_n);
                let shape =
                    GnnShape::gcn(serve_n, nnz, ds.features.cols(), *hidden, CLASSES, LAYERS);
                let mut cfg = cfg.clone();
                cfg.plan = Some(best_plan_with_ra_sparsity(
                    &shape,
                    cfg.p,
                    cfg.p,
                    &cfg.device,
                    1.0,
                ));
                Some((snap, cfg))
            }
        };
        Ok(Ready {
            workload: self.clone(),
            seed,
            ds,
            serving,
            instantiate_s,
        })
    }

    pub fn set_up(&self, seed: u64) -> Result<SetUp, String> {
        let t0 = Instant::now();
        let ready = self.prepare(seed)?;
        let before_first_call_s = t0.elapsed().as_secs_f64();
        let first = ready.run(Until::Steps(1), false)?;
        let setup_s = before_first_call_s + first.call_s - first.steady[0].wall_s;
        Ok(SetUp {
            ready,
            first,
            setup_s,
        })
    }
}

impl Ready {
    /// Run a warm-up step and then steady ones. Nothing is checked here:
    /// see [`Ready::check`].
    pub fn run(&self, until: Until, trace: bool) -> Result<Steps, String> {
        match &self.workload.kind {
            Kind::Train { cfg, .. } => {
                let steps = match until {
                    Until::Steps(n) => n,
                    Until::Seconds { seconds, step_s } => {
                        ((seconds / step_s).ceil() as usize).max(MIN_STEPS)
                    }
                };
                let mut cfg = cfg.clone().epochs(steps + 1).seed(self.seed);
                cfg.trace = trace;
                let t = Instant::now();
                let report = train_gcn(&self.ds, &cfg)?;
                let call_s = t.elapsed().as_secs_f64();
                Ok(train_steps(report, cfg, call_s))
            }
            Kind::Serve { requests, .. } => {
                let (snap, cfg) = self.serving.as_ref().expect("set up for serving");
                let mut cfg = cfg.clone();
                cfg.trace = trace;
                Ok(self.run_sessions(snap, cfg, until, *requests))
            }
        }
    }

    /// The output checks on what `run` returned (once per call). Every
    /// violation is counted and named on stderr; none aborts the run.
    pub fn check(&self, steps: &mut Steps, checks: &mut Checks) {
        match std::mem::take(&mut steps.unchecked) {
            Unchecked::Nothing => {}
            Unchecked::Train(report, cfg) => check_train(&report, &self.ds, &cfg, checks),
            Unchecked::Sessions(sessions, cfg) => {
                let (snap, _) = self.serving.as_ref().expect("set up for serving");
                for (session, reqs, report) in sessions {
                    checks.attempted += reqs.len() as u64;
                    match report {
                        Ok(report) => {
                            check_session(&self.ds, snap, &cfg, &reqs, &report, session, checks)
                        }
                        // A session that failed has failed every request.
                        Err(e) => (0..reqs.len())
                            .for_each(|_| checks.fail(format!("session {session}: {e}"))),
                    }
                }
            }
        }
    }

    /// The plain single-worker run of the same task: same dataset, plan
    /// ordering and kernel mode on one rank.
    pub fn run_single_worker(&self, steps: usize, plan_id: Option<usize>) -> Result<Steps, String> {
        match &self.workload.kind {
            Kind::Train { cfg, .. } => {
                let plan_id = plan_id.ok_or("the run reported no plan id")?;
                let mut one = TrainerConfig::rdm(1, Plan::from_id(plan_id, LAYERS, 1))
                    .hidden(cfg.hidden)
                    .lr(cfg.lr)
                    .kernel_mode(cfg.kernels)
                    .epochs(steps + 1)
                    .seed(self.seed);
                one.device = cfg.device;
                let t = Instant::now();
                let report = train_gcn(&self.ds, &one)?;
                let call_s = t.elapsed().as_secs_f64();
                Ok(train_steps(report, one, call_s))
            }
            Kind::Serve { requests, .. } => {
                let (snap, cfg) = self.serving.as_ref().expect("set up for serving");
                let mut one = cfg.clone();
                one.p = 1;
                one.plan = cfg.plan.clone().map(|pl| pl.with_ra(1));
                Ok(self.run_sessions(snap, one, Until::Steps(steps), *requests))
            }
        }
    }

    fn run_sessions(
        &self,
        snap: &WeightSnapshot,
        cfg: ServeConfig,
        until: Until,
        requests: usize,
    ) -> Steps {
        // Closed loop, one client of `serve`: the next session starts when
        // this one has returned, and nothing else runs in between. Each
        // session has its own request stream.
        let t_call = Instant::now();
        let mut out = Steps::default();
        let mut kept = Vec::new();
        let mut steady_since = t_call;
        for session in 0.. {
            let stream = self
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add(session as u64);
            let reqs = LoadGen::new(stream, 8, 50, requests).generate(self.ds.n());
            let t = Instant::now();
            let served = serve(&self.ds, snap, &reqs, &cfg);
            let wall_s = t.elapsed().as_secs_f64();
            if session == 0 {
                steady_since = Instant::now();
                continue;
            }
            kept.push((
                session,
                reqs,
                served.map(|served| {
                    out.steady.push(session_step(&served, &cfg, wall_s));
                    out.units_per_step = served.report.batches.len();
                    out.outputs.extend(
                        served
                            .report
                            .requests
                            .iter()
                            .flat_map(|q| q.logits.iter().map(|v| v.to_bits())),
                    );
                    out.traces.extend(served.traces);
                    served.report
                }),
            ));
            let done = match until {
                Until::Steps(n) => session >= n,
                Until::Seconds { seconds, .. } => {
                    session >= MIN_STEPS && steady_since.elapsed().as_secs_f64() >= seconds
                }
            };
            if done {
                break;
            }
        }
        out.call_s = t_call.elapsed().as_secs_f64();
        out.unchecked = Unchecked::Sessions(kept, cfg);
        out
    }
}

/// What one steady serving session reported about itself.
fn session_step(served: &gnn_rdm::serve::ServeOutput, cfg: &ServeConfig, wall_s: f64) -> Step {
    let r = &served.report;
    let p = cfg.p as f64;
    Step {
        wall_s,
        wire_bytes: served.stats.total_bytes(),
        dense_bytes: served.stats.total_dense_bytes(),
        redist_wire_bytes: served.stats.bytes(CollectiveKind::Redistribute),
        redist_dense_bytes: served.stats.dense_bytes(CollectiveKind::Redistribute),
        messages: served.stats.total_messages(),
        comm_wall_s: served.stats.comm_time.as_secs_f64() / p,
        ws_fresh: r.ws_fresh_steady,
        ws_reused: r.ws_reused_steady,
        retries: r.retries,
        // The session report carries no FMA book; the traced run reads the
        // counts off the kernel spans instead.
        spmm_fma: 0.0,
        gemm_fma: 0.0,
        sim_s: r.batches.iter().map(|b| b.service_us as f64).sum::<f64>() * 1e-6,
        sim_comm_s: cfg.device.comm_time(
            served.stats.total_bytes() as f64 / p,
            served.stats.total_messages() as f64 / p,
        ),
        sim_hidden_s: r.overlap_us_total() as f64 * 1e-6,
        virtual_p50_us: r.p50_us() as f64,
        virtual_p99_us: r.p99_us() as f64,
        virtual_rps: r.throughput_rps(),
    }
}

fn train_steps(mut report: TrainReport, cfg: TrainerConfig, call_s: f64) -> Steps {
    let steady = report.epochs[1..]
        .iter()
        .map(|e| Step {
            wall_s: e.wall.as_secs_f64(),
            wire_bytes: e.total_bytes,
            dense_bytes: e.comm.total_dense_bytes(),
            redist_wire_bytes: e.redistribution_bytes(),
            redist_dense_bytes: e.redistribution_dense_bytes(),
            messages: e.comm.total_messages(),
            comm_wall_s: e.comm_wall.as_secs_f64(),
            ws_fresh: e.ws_fresh,
            ws_reused: e.ws_reused,
            retries: e.retries(),
            spmm_fma: e.ops.spmm_fma,
            gemm_fma: e.ops.gemm_fma,
            sim_s: e.sim.total_s,
            sim_comm_s: e.sim.comm_s,
            sim_hidden_s: e.overlap_ns() as f64 * 1e-9 / report.p as f64,
            ..Step::default()
        })
        .collect();
    Steps {
        steady,
        call_s,
        outputs: report.epochs.iter().map(|e| e.loss.to_bits()).collect(),
        plan_id: report.epochs.last().and_then(|e| e.plan_id),
        traces: report.traces.take().into_iter().collect(),
        units_per_step: 1,
        unchecked: Unchecked::Train(report, cfg),
    }
}

fn check_train(report: &TrainReport, ds: &Dataset, cfg: &TrainerConfig, checks: &mut Checks) {
    let steady = &report.epochs[1..];
    checks.attempted += steady.len() as u64;
    let r_a = cfg.ra.unwrap_or(cfg.p);
    let shape = ds.shape_layers(cfg.hidden, LAYERS);
    for e in &report.epochs {
        let at = format!("{} epoch {}", report.dataset, e.epoch);
        if !e.loss.is_finite() {
            checks.fail(format!("{at}: loss {} is not finite", e.loss));
        }
        if e.epoch == 0 {
            continue;
        }
        // On the indexed-strip wire the packed sizes follow the values
        // (rows turn all-zero and back as training moves), so bytes and a
        // few pool size classes change from epoch to epoch; the exact-repeat
        // checks hold on the dense wire only.
        if !cfg.sparse && e.total_bytes != steady[0].total_bytes {
            checks.fail(format!(
                "{at}: wire bytes {} differ from epoch 1's {}",
                e.total_bytes, steady[0].total_bytes
            ));
        }
        if e.comm.total_bytes() > e.comm.total_dense_bytes() {
            checks.fail(format!(
                "{at}: wire bytes {} exceed the dense-equivalent {}",
                e.comm.total_bytes(),
                e.comm.total_dense_bytes()
            ));
        }
        // The paper's volume formulas against the executed schedule:
        // dense-equivalent redistribution (plus panel broadcast at
        // R_A < P) bytes must be what `rdm-model` prices for the plan.
        // With both orders GEMM-first at a layer, Table IV charges a
        // non-memoized redistribution the executor may find cached, so
        // there the model is an upper bound.
        if let Some(id) = e.plan_id {
            let plan = Plan::from_id(id, LAYERS, cfg.p);
            let predicted = config_cost(&shape, &plan.config, cfg.p, r_a).comm_elems * 4.0;
            let measured = (e.redistribution_dense_bytes() + e.broadcast_bytes()) as f64;
            let may_undershoot = (0..LAYERS).any(|l| {
                plan.config.forward[l] == Order::GemmFirst
                    && plan.config.backward[l] == Order::GemmFirst
            });
            let ok = if may_undershoot {
                measured <= predicted
            } else {
                measured == predicted
            };
            if !ok {
                checks.fail(format!(
                    "{at}: dense-equivalent volume {measured} B, rdm-model predicts {predicted} B for plan {id}"
                ));
            }
        }
        if !cfg.sparse && e.epoch >= 2 && e.ws_fresh != 0 {
            checks.fail(format!(
                "{at}: {} fresh pool allocations in steady state",
                e.ws_fresh
            ));
        }
        if e.retries() != 0 {
            checks.fail(format!("{at}: {} retries on a perfect fabric", e.retries()));
        }
    }
}

/// Losses of the first epochs must match the single-worker run of the same
/// dataset, ordering and kernel mode to 1e-3 relative.
pub fn check_against_single_worker(run: &Steps, single: &Steps, checks: &mut Checks) {
    for (epoch, (a, b)) in run.outputs.iter().zip(&single.outputs).take(3).enumerate() {
        let (a, b) = (f32::from_bits(*a), f32::from_bits(*b));
        if (a - b).abs() > 1e-3 * b.abs() {
            checks.fail(format!(
                "epoch {epoch}: loss {a} differs from the single-worker loss {b}"
            ));
        }
    }
}

/// Two runs at one seed must compute bit-identical outputs (compared over
/// the steps both ran).
pub fn check_replay(what: &str, a: &Steps, b: &Steps, checks: &mut Checks) {
    let n = a.outputs.len().min(b.outputs.len());
    if a.outputs[..n] != b.outputs[..n] {
        checks.fail(format!("{what}: same seed, outputs not bit-identical"));
    }
}

fn check_session(
    ds: &Dataset,
    snap: &WeightSnapshot,
    cfg: &ServeConfig,
    reqs: &[InferRequest],
    report: &ServeReport,
    session: usize,
    checks: &mut Checks,
) {
    let at = format!("session {session}");
    // Exactly once: one record per request, in arrival order.
    if report.requests.len() != reqs.len() {
        checks.fail(format!(
            "{at}: {} records for {} requests",
            report.requests.len(),
            reqs.len()
        ));
        return;
    }
    for (q, rec) in reqs.iter().zip(&report.requests) {
        if (rec.idx, rec.req_id, rec.target) != (q.idx, q.req_id, q.target) {
            checks.fail(format!("{at}: request {} answered as {}", q.idx, rec.idx));
        }
    }
    if report.ws_fresh_steady != 0 {
        checks.fail(format!(
            "{at}: {} fresh pool allocations in steady state",
            report.ws_fresh_steady
        ));
    }
    if report.retries != 0 {
        checks.fail(format!(
            "{at}: {} retries on a perfect fabric",
            report.retries
        ));
    }
    // Every tenth batch against a direct engine forward over the same
    // planned vertex set.
    let ServeSampler::Induced { budget } = cfg.sampler else {
        return;
    };
    let plan = cfg.plan.as_ref().expect("plan pinned at set-up");
    let batches = planned_batches(reqs, &cfg.policy);
    let checked: Vec<_> = batches.iter().step_by(10).collect();
    let subs: Vec<(Vec<u32>, Dataset)> = checked
        .iter()
        .map(|b| {
            let verts = planned_vertices(ds, b, budget, cfg.sample_seed);
            let sub = ds.induced(&verts);
            (verts, sub)
        })
        .collect();
    let weights = snap.to_weights();
    let direct = Cluster::new(cfg.p).run(|ctx| {
        kernels::set_mode(cfg.kernels);
        subs.iter()
            .map(|(_, sub)| {
                forward_logits(
                    ctx,
                    &sub.adj_norm,
                    &sub.features,
                    &weights,
                    plan,
                    cfg.sparse,
                    &mut OpCounters::default(),
                )
                .gather(ctx, CollectiveKind::Other)
            })
            .collect::<Vec<_>>()
    });
    for ((batch, (verts, _)), logits) in checked.iter().zip(&subs).zip(&direct.results[0]) {
        for q in &batch.requests {
            let row = verts
                .binary_search(&q.target)
                .expect("sampler always includes batch targets");
            let mut class = 0;
            for (i, v) in logits.row(row).iter().enumerate() {
                if *v > logits.get(row, class) {
                    class = i;
                }
            }
            let served = report.requests[q.idx].predicted_class();
            if served != class {
                checks.fail(format!(
                    "{at} batch {}: request {} served class {served}, direct forward says {class}",
                    batch.idx, q.idx
                ));
            }
        }
    }
}
