//! The serving session: one long-lived cluster, a stream of batches.
//!
//! [`serve`] brings up a simulated cluster once, loads the weight snapshot
//! on every rank, and drives the whole batch schedule through a single
//! [`session`] — the persistent worker pool and each rank's workspace
//! shelf live for the session, so after the first (warmup) batch every
//! matrix the forward pass needs comes off the shelf without a fresh
//! allocation. A full-graph session of a plan whose first layer runs
//! SpMM first computes layer 1's aggregation `T¹ = Â·H⁰` once: frozen
//! weights and a fixed graph make it a constant, so batch 0 leaves its row
//! slice behind and every later batch starts at layer 1's GEMM on it.
//! Batch composition is a pure function of the shared load
//! stream ([`crate::form_batches`]), so all ranks compute the identical
//! schedule with zero coordination traffic, the same shared-seed
//! discipline the paper's §III-F uses for redistribution.
//!
//! Each rank books every batch with [`book_unit`], between barriers, as
//! the trainer books an epoch. Latency is *virtual*: a batch's service
//! time is what [`DeviceModel::slowest`] prices its books at, beside what
//! its pipelines hide as priced from the forward schedule the batch ran
//! ([`hidden_price`]) — the clock training epochs use — and completions
//! follow the one-batch-at-a-time
//! queueing recurrence `dispatch_k = max(close_k, completion_{k-1})`. The
//! timeline reads no wall clock, so a session replays byte-identically
//! under a fixed seed — including under fault injection, whose
//! retransmissions never touch the payload book.

use rdm_comm::{CommStats, FaultPlan};
use rdm_core::infer::forward_logits_with;
use rdm_core::metrics::{book_unit, hidden_price, session, UnitBook};
use rdm_core::ops::PanelGrid;
use rdm_core::plan::{resolve, Plan, PlanRequest};
use rdm_core::{Algo, WeightSnapshot};
use rdm_dense::kernels::{self, Mode as KernelMode};
use rdm_dense::mat::part_range;
use rdm_graph::dataset::{Dataset, InducedBatch};
use rdm_graph::sampler::Subgraph;
use rdm_model::{forward_schedule, DeviceModel, GnnShape, MeasuredRank, Order};
use rdm_sparse::{gcn_normalize_induced, Csr, InduceScratch};
use rdm_trace::{RankTrace, Span};

use crate::batch::{form_batches, Batch, BatchPolicy};
use crate::load::InferRequest;
use crate::report::{BatchTiming, RequestRecord, ServeReport};

/// How each batch's minibatch graph is formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeSampler {
    /// Run every batch over the full graph (exact inference).
    Full,
    /// Run each batch over a deterministic fixed-size induced subgraph
    /// anchored at the batch's targets ([`Subgraph::around`]). The fixed
    /// budget keeps batch-to-batch matrix shapes identical, which is what
    /// lets the workspace pool serve steady-state batches alloc-free.
    Induced { budget: usize },
}

/// Configuration of a serving session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Cluster size.
    pub p: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Minibatch formation.
    pub sampler: ServeSampler,
    /// Execution plan; `None` picks the device-model best for the serving
    /// shape (priced at [`ServeConfig::ra`]'s replication factor). The
    /// plan's `r_a` must divide `p`; `r_a < p` serves from the
    /// replicated-panel topology with bitwise-identical logits.
    pub plan: Option<Plan>,
    /// Adjacency replication factor for the auto-selected plan: candidates
    /// are priced at `price_plan(shape, cfg, p, r, σ)` so the chosen ordering
    /// reflects the group-redistribution / panel-broadcast trade-off.
    /// `None` means full replication. Must divide `p`; an explicit
    /// [`ServeConfig::plan`] carries its own `r_a` and conflicts with a
    /// different value here.
    pub ra: Option<usize>,
    /// Ship redistribution payloads in the sparsity-compressed wire format.
    pub sparse: bool,
    /// Fault injection for the session's fabric.
    pub faults: Option<FaultPlan>,
    /// Record per-rank structured traces (Batch/Serve spans included).
    pub trace: bool,
    /// Device model pricing the virtual service times.
    pub device: DeviceModel,
    /// Seed for the induced sampler's hash fill.
    pub sample_seed: u64,
    /// Kernel path the session's GEMM/SpMM calls dispatch to: by default
    /// [`kernels::default_mode`], the lane-unrolled microkernels. Every
    /// mode serves logits bitwise identical to the scalar direct forward.
    pub kernels: KernelMode,
    /// Pipelined batch admission: issue every redistribution as this many
    /// strips and run the kernels strip by strip, hiding communication
    /// behind compute. The hidden time is priced from each batch's
    /// schedule into the virtual latency timeline (and lets a dispatched
    /// batch prefetch behind its predecessor; an inert pipeline is timed
    /// as the blocking session it ran); logits stay bitwise
    /// identical to sequential serving. `None` (default) is the blocking
    /// schedule; so is `Some(chunks)` below 2, reported inert.
    pub pipeline: Option<usize>,
}

impl ServeConfig {
    pub fn new(p: usize) -> Self {
        ServeConfig {
            p,
            policy: BatchPolicy::new(8, 2_000),
            sampler: ServeSampler::Full,
            plan: None,
            ra: None,
            sparse: false,
            faults: None,
            trace: false,
            device: DeviceModel::a6000_pcie(),
            sample_seed: 0x5EED,
            kernels: kernels::default_mode(),
            pipeline: None,
        }
    }

    /// Enable pipelined batch admission with `chunks` strips per
    /// redistribution.
    pub fn pipelined(mut self, chunks: usize) -> Self {
        self.pipeline = Some(chunks);
        self
    }

    /// Serve at replication factor `r` (see [`ServeConfig::ra`]).
    pub fn ra(mut self, r: usize) -> Self {
        self.ra = Some(r);
        self
    }

    /// Serve on the scalar reference loops (what `--reference-kernels`
    /// selects). Same logits as the default, slower.
    pub fn reference_kernels(self) -> Self {
        self.kernel_mode(KernelMode::Scalar)
    }

    /// Force a specific kernel mode.
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernels = mode;
        self
    }
}

/// A finished serving session.
#[derive(Debug)]
pub struct ServeOutput {
    pub report: ServeReport,
    /// Merged communication statistics across ranks.
    pub stats: CommStats,
    /// Priced communication time each batch's pipelines hid behind
    /// compute, summed over ranks (virtual ns; zeros when blocking).
    pub hidden_ns: Vec<u64>,
    /// Per-rank traces when [`ServeConfig::trace`] is set.
    pub traces: Option<Vec<RankTrace>>,
}

/// Serve `requests` against `ds` with the weights in `snap`.
///
/// Returns the per-request logits (each request served exactly once, on
/// the rank owning its target's row), the virtual-latency report, and the
/// session's communication statistics. Errors on configuration the engine
/// cannot execute rather than panicking mid-session.
pub fn serve(
    ds: &Dataset,
    snap: &WeightSnapshot,
    requests: &[InferRequest],
    cfg: &ServeConfig,
) -> Result<ServeOutput, String> {
    let n = ds.n();
    let p = cfg.p;
    if p == 0 {
        return Err("cluster needs at least one rank".into());
    }
    if n < p {
        return Err(format!("graph with {n} vertices cannot span {p} ranks"));
    }
    if cfg.policy.max_batch == 0 {
        return Err("batch policy must admit at least one request".into());
    }
    let feats = snap.feats();
    if feats.first() != Some(&ds.features.cols()) {
        return Err(format!(
            "snapshot expects {}-dimensional input features, dataset has {}",
            feats.first().copied().unwrap_or(0),
            ds.features.cols()
        ));
    }
    if feats.last() != Some(&ds.num_classes()) {
        return Err(format!(
            "snapshot emits {} classes, dataset has {}",
            feats.last().copied().unwrap_or(0),
            ds.num_classes()
        ));
    }
    if let Some(bad) = requests.iter().find(|r| (r.target as usize) >= n) {
        return Err(format!(
            "request {} targets vertex {} outside graph of {n}",
            bad.idx, bad.target
        ));
    }
    if ds.adj_norm_t.is_some() && matches!(cfg.sampler, ServeSampler::Induced { .. }) {
        return Err("non-symmetric (mean) aggregation is only supported by the \
                    full-graph sampler (induced minibatches are GCN-normalised)"
            .into());
    }
    let serve_n = match cfg.sampler {
        ServeSampler::Full => n,
        ServeSampler::Induced { budget } => {
            if budget < p.max(4) {
                return Err(format!(
                    "sampler budget {budget} below minimum {}",
                    p.max(4)
                ));
            }
            if budget < cfg.policy.max_batch {
                return Err(format!(
                    "sampler budget {budget} cannot hold a full batch of {}",
                    cfg.policy.max_batch
                ));
            }
            budget.min(n)
        }
    };

    // One plan for the whole session, priced for the serving shape (a
    // one-layer shape has no hidden width: `feats[1]` is then unused).
    let layers = snap.layers();
    let nnz_est = ((ds.adj_norm.nnz() * serve_n) / n).max(serve_n);
    let shape = GnnShape::gcn(serve_n, nnz_est, feats[0], feats[1], feats[layers], layers);
    let resolved = resolve(
        &PlanRequest {
            algo: &Algo::Rdm {
                plan: cfg.plan.clone(),
            },
            p,
            ra: cfg.ra,
            sparse: cfg.sparse,
            overlap: cfg.pipeline,
            device: &cfg.device,
        },
        &shape,
        &ds.adj_norm,
    )?;
    let plan = resolved.plan.expect("RDM always resolves a plan");
    // Layer 1's aggregation is a constant of the session only on the one
    // graph a full-graph session serves, and only a plan that aggregates
    // before its first GEMM forms it.
    let reuse_inert = match cfg.sampler {
        ServeSampler::Induced { .. } => Some("induced minibatches"),
        ServeSampler::Full => {
            (plan.config.forward[0] == Order::GemmFirst).then_some("layer 0 runs GEMM first")
        }
    };

    // The batch schedule and (for the induced sampler) each batch's vertex
    // set are pure functions of the shared inputs — computed once here,
    // read-only inside the cluster.
    let batches = form_batches(requests, &cfg.policy);
    let batch_verts: Vec<Option<Vec<u32>>> = batches
        .iter()
        .map(|b| match cfg.sampler {
            ServeSampler::Full => None,
            ServeSampler::Induced { budget } => {
                Some(planned_vertices(ds, b, budget, cfg.sample_seed))
            }
        })
        .collect();

    let out = session(p, cfg.faults, cfg.trace, cfg.kernels, |ctx| {
        let weights = snap.to_weights();
        // Layer 1's aggregation, row-sliced, once batch 0 has formed it.
        let mut held = None;
        let mut books: Vec<UnitBook> = Vec::with_capacity(batches.len());
        // This rank's induction arena: every induced batch of the session
        // is built in the same buffers.
        let mut induced = InducedBatch::default();
        let mut rows: Vec<(usize, Vec<f32>)> = Vec::new();
        for (batch, verts) in batches.iter().zip(&batch_verts) {
            let span = Span::Batch {
                idx: batch.idx,
                size: batch.requests.len(),
            };
            let ((), book) = book_unit(ctx, span, |ops| {
                for r in &batch.requests {
                    // Admission markers: one Serve span per request, nested
                    // in the batch span, so Chrome traces show batch
                    // membership.
                    let _s = rdm_trace::span(Span::Serve {
                        client: r.client,
                        req_id: r.req_id,
                    });
                }
                // Resolve what this batch runs on — the whole graph, or the
                // subgraph induced on the sampler's vertices — and how a
                // request's target maps to a row of its logits.
                let (adj, features) = match verts {
                    None => (&ds.adj_norm, &ds.features),
                    Some(v) => {
                        ds.induced_into(v, &mut induced);
                        (&induced.adj_norm, &induced.features)
                    }
                };
                let local_index_of = |target: u32| match verts {
                    None => target as usize,
                    Some(v) => v
                        .binary_search(&target)
                        .expect("sampler always includes batch targets"),
                };
                let logits = forward_logits_with(
                    ctx,
                    adj,
                    features,
                    &weights,
                    &plan,
                    cfg.sparse,
                    resolved.chunks,
                    reuse_inert.is_none().then_some(&mut held),
                    ops,
                );
                let range = part_range(adj.rows(), p, ctx.rank());
                for r in &batch.requests {
                    let li = local_index_of(r.target);
                    if range.contains(&li) {
                        rows.push((r.idx, logits.local.row(li - range.start).to_vec()));
                    }
                }
            });
            books.push(book);
        }
        (rows, books)
    });

    // Assemble: every request served exactly once, by the rank owning its
    // target's logits row.
    let mut logits_by_req: Vec<Option<Vec<f32>>> = vec![None; requests.len()];
    for (rows, _) in &out.results {
        for (idx, row) in rows {
            if logits_by_req[*idx].replace(row.clone()).is_some() {
                return Err(format!("request {idx} served more than once"));
            }
        }
    }
    if let Some(miss) = logits_by_req.iter().position(|l| l.is_none()) {
        return Err(format!("request {miss} was never served"));
    }

    // What each batch's pipelines hide, per rank, priced from the forward
    // schedule it ran: batch 0's and the held-`T¹` one on the full graph,
    // or the plan's on each induced batch's own adjacency.
    let (grid, chunks, device) = (PanelGrid::new(p, plan.r_a), resolved.chunks, &cfg.device);
    let memoize = plan.memoize || reuse_inert.is_none();
    let price = |held: bool, adj: &Csr| -> Result<Vec<u64>, String> {
        let steps = forward_schedule(&plan.config, memoize, &feats, held)?;
        Ok(hidden_price(
            &steps, &feats, adj, None, grid, chunks, device,
        ))
    };
    let hidden: Vec<Vec<u64>> = if chunks < 2 {
        vec![vec![0; p]; batches.len()]
    } else if let ServeSampler::Induced { .. } = cfg.sampler {
        let (mut scratch, mut adj) = (InduceScratch::default(), Csr::empty(0, 0));
        let mut induced = |v: &Vec<u32>| {
            gcn_normalize_induced(&ds.adj, v, &mut scratch, &mut adj);
            price(false, &adj)
        };
        let verts = batch_verts.iter().flatten();
        verts.map(&mut induced).collect::<Result<_, _>>()?
    } else {
        let first = price(false, &ds.adj_norm)?;
        let steady = match reuse_inert {
            None => price(true, &ds.adj_norm)?,
            Some(_) => first.clone(),
        };
        let kind = |b: &Batch| if b.idx == 0 { &first } else { &steady };
        batches.iter().map(|b| kind(b).clone()).collect()
    };

    // Virtual timeline: service = the clock's slowest rank per batch, one
    // batch in flight at a time. The pipeline shortens a batch two ways:
    // within the batch, the clock takes each rank's hidden time off its
    // comm; across batches, a batch dispatched while its predecessor still
    // runs can prefetch up to its exposed communication behind that
    // predecessor's compute. A blocking session — no pipeline, or one
    // `resolve` declared inert — has neither, and the recurrence is the
    // classic blocking one.
    let prefetch = chunks > 1;
    let mut timings: Vec<BatchTiming> = Vec::with_capacity(batches.len());
    let mut prev_completion = 0u64;
    for batch in &batches {
        let measured: Vec<MeasuredRank> = (out.results.iter().zip(&hidden[batch.idx]))
            .map(|((_, books), &hidden_ns)| books[batch.idx].measured(hidden_ns))
            .collect();
        let t = cfg.device.slowest(&measured);
        let dispatch_us = batch.close_us.max(prev_completion);
        let prefetch_us = if prefetch && batch.idx > 0 {
            let busy_us = prev_completion.saturating_sub(batch.close_us);
            ((t.comm_s * 1.0e6).round() as u64).min(busy_us)
        } else {
            0
        };
        let service_us = ((t.total_s * 1.0e6).round() as u64)
            .saturating_sub(prefetch_us)
            .max(1);
        let completion_us = dispatch_us + service_us;
        prev_completion = completion_us;
        timings.push(BatchTiming {
            idx: batch.idx,
            size: batch.requests.len(),
            close_us: batch.close_us,
            dispatch_us,
            service_us,
            completion_us,
            overlap_us: ((t.hidden_s * 1.0e6).round() as u64) + prefetch_us,
        });
    }

    let mut request_records: Vec<RequestRecord> = Vec::with_capacity(requests.len());
    for batch in &batches {
        let t = &timings[batch.idx];
        for r in &batch.requests {
            request_records.push(RequestRecord {
                idx: r.idx,
                client: r.client,
                req_id: r.req_id,
                target: r.target,
                batch: batch.idx,
                arrival_us: r.arrival_us,
                completion_us: t.completion_us,
                logits: logits_by_req[r.idx].take().expect("assembled above"),
            });
        }
    }
    request_records.sort_by_key(|r| r.idx);

    // Batch 0 is the warmup batch; every later one is steady.
    let mut ws_fresh_warmup = 0;
    let mut ws_fresh_steady = 0;
    let mut ws_reused_steady = 0;
    for (_, books) in &out.results {
        if let Some((first, steady)) = books.split_first() {
            ws_fresh_warmup += first.ws_fresh;
            ws_fresh_steady += steady.iter().map(|b| b.ws_fresh).sum::<u64>();
            ws_reused_steady += steady.iter().map(|b| b.ws_reused).sum::<u64>();
        }
    }

    let mut stats = CommStats::default();
    for s in &out.stats {
        stats.merge(s);
    }
    let report = ServeReport {
        dataset: ds.spec.name.clone(),
        p,
        sparse: cfg.sparse,
        requests: request_records,
        batches: timings,
        ws_fresh_warmup,
        ws_fresh_steady,
        ws_reused_steady,
        payload_bytes: stats.total_bytes(),
        messages: stats.total_messages(),
        retries: stats.retries,
        // Requested pipelining that the engine gate drops anyway (a single
        // rank, or `r_a = 1` leaving no redistribution group) is surfaced
        // on the report instead of silently serving blocking; so are a
        // requested indexed wire the session cannot use and a layer-1
        // aggregation it cannot reuse.
        overlap_inert: resolved.overlap_inert,
        sparse_inert: resolved.sparse_inert,
        reuse_inert,
    };
    Ok(ServeOutput {
        report,
        stats,
        hidden_ns: hidden.iter().map(|ranks| ranks.iter().sum()).collect(),
        traces: out.traces,
    })
}

/// The batches [`serve`] will execute for this request stream — exposed so
/// harnesses can reconstruct the exact minibatches for reference forwards.
pub fn planned_batches(requests: &[InferRequest], policy: &BatchPolicy) -> Vec<Batch> {
    form_batches(requests, policy)
}

/// The vertex set [`serve`] uses for one batch under the induced sampler —
/// exposed for the same reason.
pub fn planned_vertices(ds: &Dataset, batch: &Batch, budget: usize, sample_seed: u64) -> Vec<u32> {
    let targets: Vec<u32> = batch.requests.iter().map(|r| r.target).collect();
    Subgraph::around(
        &ds.adj,
        &targets,
        budget.min(ds.n()),
        sample_seed ^ batch.idx as u64,
    )
    .vertices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadGen;
    use rdm_comm::CollectiveKind;
    use rdm_core::gcn::GcnWeights;
    use rdm_graph::dataset::DatasetSpec;
    use rdm_trace::EventData;

    fn setup() -> (Dataset, WeightSnapshot) {
        let ds = DatasetSpec::synthetic("demo", 96, 700, 8, 3).instantiate(1);
        let w = GcnWeights::init(&[8, 8, 3], 7);
        (ds, WeightSnapshot::from_weights(&w))
    }

    #[test]
    fn full_graph_session_serves_every_request_and_replays() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(11, 3, 50, 24).generate(ds.n());
        let cfg = ServeConfig::new(2);
        let a = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(a.report.requests.len(), 24);
        assert!(!a.report.batches.is_empty());
        assert!(a.report.requests.iter().all(|r| r.logits.len() == 3));
        assert!(a
            .report
            .requests
            .iter()
            .all(|r| r.completion_us > r.arrival_us));
        let b = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(a.report, b.report, "replay diverged");
        assert_eq!(a.report.render(), b.report.render());
    }

    #[test]
    fn induced_sampler_is_alloc_free_after_warmup() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(5, 2, 20, 64).generate(ds.n());
        let mut cfg = ServeConfig::new(2);
        cfg.sampler = ServeSampler::Induced { budget: 48 };
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert!(out.report.batches.len() >= 4, "want several steady batches");
        assert!(out.report.ws_fresh_warmup > 0, "warmup must allocate");
        assert_eq!(
            out.report.ws_fresh_steady, 0,
            "steady-state batches allocated fresh workspaces"
        );
        assert!(out.report.ws_reused_steady > 0);
    }

    #[test]
    fn completions_respect_per_client_request_order() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(23, 4, 10, 80).generate(ds.n());
        let cfg = ServeConfig::new(2);
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        let mut last: Vec<Option<(u64, u64)>> = vec![None; 4];
        let mut by_completion: Vec<&RequestRecord> = out.report.requests.iter().collect();
        by_completion.sort_by_key(|r| (r.completion_us, r.batch, r.idx));
        for r in by_completion {
            if let Some((prev_id, prev_done)) = last[r.client] {
                assert!(
                    r.req_id > prev_id,
                    "client {} completed out of order",
                    r.client
                );
                assert!(r.completion_us >= prev_done);
            }
            last[r.client] = Some((r.req_id, r.completion_us));
        }
    }

    #[test]
    fn misconfigured_sessions_error_instead_of_panicking() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(1, 1, 10, 4).generate(ds.n());
        // Wrong input width.
        let bad = WeightSnapshot::from_weights(&GcnWeights::init(&[9, 8, 3], 7));
        assert!(serve(&ds, &bad, &reqs, &ServeConfig::new(2)).is_err());
        // Wrong class count.
        let bad = WeightSnapshot::from_weights(&GcnWeights::init(&[8, 8, 4], 7));
        assert!(serve(&ds, &bad, &reqs, &ServeConfig::new(2)).is_err());
        // A replication factor that does not divide P.
        let mut cfg = ServeConfig::new(4);
        cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(3));
        assert!(serve(&ds, &snap, &reqs, &cfg).is_err());
        let mut cfg = ServeConfig::new(4);
        cfg.ra = Some(3);
        assert!(serve(&ds, &snap, &reqs, &cfg).is_err());
        // An explicit plan conflicting with the configured factor.
        let mut cfg = ServeConfig::new(4);
        cfg.plan = Some(Plan::from_id(0, 2, 4));
        cfg.ra = Some(2);
        assert!(serve(&ds, &snap, &reqs, &cfg).is_err());
        // Budget below a full batch.
        let mut cfg = ServeConfig::new(2);
        cfg.sampler = ServeSampler::Induced { budget: 4 };
        cfg.policy = BatchPolicy::new(16, 1_000);
        assert!(serve(&ds, &snap, &reqs, &cfg).is_err());
        // Target outside the graph.
        let mut stray = reqs.clone();
        stray[0].target = ds.n() as u32;
        assert!(serve(&ds, &snap, &stray, &ServeConfig::new(2)).is_err());
        // A pipeline below two strips runs blocking and says why.
        for chunks in [0, 1] {
            let mut cfg = ServeConfig::new(2);
            cfg.pipeline = Some(chunks);
            let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
            assert_eq!(out.report.overlap_inert_reason(), Some("chunks < 2"));
        }
    }

    /// Induced minibatches are GCN-normalised, so a dataset built with
    /// another aggregation is refused rather than silently served with a
    /// different matrix; the full-graph sampler serves its own aggregation.
    #[test]
    fn induced_sampler_refuses_non_symmetric_aggregation() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(3, 2, 20, 16).generate(ds.n());
        let mut induced = ServeConfig::new(2);
        induced.sampler = ServeSampler::Induced { budget: 48 };
        assert!(serve(&ds, &snap, &reqs, &induced).is_ok());
        for agg in [
            Dataset::with_mean_aggregation,
            Dataset::with_row_aggregation,
        ] {
            let ds = agg(ds.clone());
            assert_eq!(
                serve(&ds, &snap, &reqs, &induced).unwrap_err(),
                "non-symmetric (mean) aggregation is only supported by the \
                 full-graph sampler (induced minibatches are GCN-normalised)"
            );
            assert!(serve(&ds, &snap, &reqs, &ServeConfig::new(2)).is_ok());
        }
    }

    /// Pipelined admission must keep logits bitwise identical while the
    /// priced hidden communication time lands in the session's
    /// nanosecond-resolution book and the timeline keeps its queueing
    /// invariants. (Whether the
    /// pipeline *wins* depends on shape — chunking pays a per-message
    /// latency toll — so the p99 victory is asserted by
    /// `tests/serving_claims.rs` on a realistic shape, not here on a toy
    /// graph.)
    #[test]
    fn pipelined_session_is_bitwise_and_hides_communication() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(31, 3, 20, 48).generate(ds.n());
        let base = serve(&ds, &snap, &reqs, &ServeConfig::new(2)).unwrap();
        let piped = serve(&ds, &snap, &reqs, &ServeConfig::new(2).pipelined(3)).unwrap();
        for (a, b) in base.report.requests.iter().zip(&piped.report.requests) {
            assert_eq!(a.logits, b.logits, "pipelining changed request {}", a.idx);
        }
        assert!(
            piped.hidden_ns.iter().all(|&ns| ns > 0),
            "a batch hid nothing"
        );
        assert!(base.hidden_ns.iter().all(|&ns| ns == 0));
        assert_eq!(base.report.overlap_us_total(), 0);
        let mut prev_done = 0;
        for t in &piped.report.batches {
            assert_eq!(t.dispatch_us, t.close_us.max(prev_done));
            assert_eq!(t.completion_us, t.dispatch_us + t.service_us);
            assert!(t.service_us >= 1);
            prev_done = t.completion_us;
        }
        // Replays stay byte-identical with the pipeline on.
        let again = serve(&ds, &snap, &reqs, &ServeConfig::new(2).pipelined(3)).unwrap();
        assert_eq!(piped.report, again.report);
    }

    /// A full-graph session of an SpMM-first plan aggregates `Â·H⁰` in
    /// batch 0 only: every later batch books layer 2's SpMM alone, at every
    /// grid, while its logits stay those of the direct forward and its
    /// steady batches allocate nothing.
    #[test]
    fn later_batches_reuse_layer_one_aggregation() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(13, 2, 20, 24).generate(ds.n());
        for r_a in [4, 2, 1] {
            let mut cfg = ServeConfig::new(4);
            // Plan 5 runs layer 1 SpMM-first.
            cfg.plan = Some(Plan::from_id(5, 2, 4).with_ra(r_a));
            cfg.trace = true;
            let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
            assert_eq!(out.report.reuse_inert, None);
            assert!(out.report.batches.len() >= 3, "want several batches");
            assert_eq!(out.report.ws_fresh_steady, 0, "r_a {r_a}");
            let spmm_per_batch = |t: &RankTrace| {
                let mut counts = Vec::new();
                for e in &t.events {
                    match e.data {
                        EventData::Begin(Span::Batch { .. }) => counts.push(0),
                        EventData::Begin(Span::Spmm { .. }) => *counts.last_mut().unwrap() += 1,
                        _ => {}
                    }
                }
                counts
            };
            for t in out.traces.as_ref().unwrap() {
                let counts = spmm_per_batch(t);
                assert_eq!(counts[0], 2, "r_a {r_a}: batch 0 aggregates twice");
                assert!(counts[1..].iter().all(|&c| c == 1), "r_a {r_a}: {counts:?}");
            }
        }
    }

    /// A plan whose first layer runs GEMM before SpMM never forms `Â·H⁰`,
    /// and induced minibatches change the graph every batch: both sessions
    /// say why nothing is reused.
    #[test]
    fn gemm_first_and_induced_sessions_report_reuse_inert() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(13, 2, 20, 24).generate(ds.n());
        let mut cfg = ServeConfig::new(2);
        cfg.plan = Some(Plan::from_id(2, 2, 2));
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(out.report.reuse_inert, Some("layer 0 runs GEMM first"));
        assert!(out
            .report
            .render()
            .contains("\nreuse       inert (layer 0 runs GEMM first)\n"));
        cfg.plan = Some(Plan::from_id(5, 2, 2));
        cfg.sampler = ServeSampler::Induced { budget: 48 };
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(out.report.reuse_inert, Some("induced minibatches"));
    }

    /// A single rank has no redistribution to compress: the session says so
    /// instead of reporting `wire=sparse` over zero payload bytes.
    #[test]
    fn single_rank_sessions_report_the_sparse_wire_inert() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(13, 2, 20, 24).generate(ds.n());
        let mut cfg = ServeConfig::new(1);
        cfg.sparse = true;
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(out.report.payload_bytes, 0);
        assert_eq!(out.report.sparse_inert, Some("single rank"));
        assert!(out
            .report
            .render()
            .contains("\nsparse      inert (single rank)\n"));
        cfg.p = 2;
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        assert_eq!(out.report.sparse_inert, None);
        assert!(!out.report.render().contains("inert"));
    }

    /// Serving from a replicated-panel plan (`r_a < p`) must produce
    /// bitwise-identical logits to the fully replicated session — across
    /// the dense wire, the sparse wire and pipelined admission — while
    /// group redistributions plus dense panel broadcasts replace the
    /// full-replication exchange on the wire.
    #[test]
    fn replicated_panel_sessions_are_bitwise_full_replication() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(17, 3, 25, 32).generate(ds.n());
        let base = {
            let mut cfg = ServeConfig::new(4);
            cfg.plan = Some(Plan::from_id(10, 2, 4));
            serve(&ds, &snap, &reqs, &cfg).unwrap()
        };
        for (sparse, pipeline) in [(false, None), (true, None), (true, Some(3))] {
            let mut cfg = ServeConfig::new(4);
            cfg.plan = Some(Plan::from_id(10, 2, 4).with_ra(2));
            cfg.sparse = sparse;
            cfg.pipeline = pipeline;
            let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
            for (a, b) in base.report.requests.iter().zip(&out.report.requests) {
                assert_eq!(
                    a.logits, b.logits,
                    "r_a=2 sparse={sparse} pipeline={pipeline:?} drifted on request {}",
                    a.idx
                );
            }
            assert!(
                out.stats.bytes(CollectiveKind::Broadcast) > 0,
                "replicated panels must broadcast tiles"
            );
            assert!(out.report.overlap_inert_reason().is_none());
            if pipeline.is_some() {
                assert!(out.hidden_ns.iter().all(|&ns| ns > 0), "r_a=2 hid nothing");
            }
        }
        // A one-panel-column grid (r_a = 1) has no redistribution group to
        // pipeline: the session still serves correct logits but reports the
        // requested pipeline as inert — and, on a stream dense enough that
        // batches queue, is timed exactly as the blocking session it ran.
        let dense = LoadGen::new(17, 3, 1, 32).generate(ds.n());
        let mut blocking = ServeConfig::new(4);
        blocking.ra = Some(1);
        blocking.plan = Some(Plan::from_id(10, 2, 4).with_ra(1));
        blocking.policy = BatchPolicy::new(2, 2_000);
        let cfg = blocking.clone().pipelined(3);
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        for (a, b) in base.report.requests.iter().zip(&out.report.requests) {
            assert_eq!(a.logits, b.logits, "r_a=1 drifted on request {}", a.idx);
        }
        assert_eq!(
            out.report.overlap_inert_reason(),
            Some("r_a = 1 leaves no redistribution group to pipeline")
        );
        assert!(out.report.render().contains("overlap     inert (r_a = 1"));
        let queued = serve(&ds, &snap, &dense, &blocking).unwrap();
        assert!(
            queued
                .report
                .batches
                .iter()
                .any(|t| t.dispatch_us > t.close_us),
            "no batch queued behind its predecessor"
        );
        let inert = serve(&ds, &snap, &dense, &cfg).unwrap();
        assert_eq!(
            inert.report.batches, queued.report.batches,
            "an inert pipeline must not prefetch"
        );
    }

    #[test]
    fn batch_timeline_obeys_the_queueing_recurrence() {
        let (ds, snap) = setup();
        let reqs = LoadGen::new(2, 2, 5, 60).generate(ds.n());
        let cfg = ServeConfig::new(2);
        let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
        let mut prev_done = 0;
        for t in &out.report.batches {
            assert_eq!(t.dispatch_us, t.close_us.max(prev_done));
            assert_eq!(t.completion_us, t.dispatch_us + t.service_us);
            assert!(t.service_us >= 1);
            prev_done = t.completion_us;
        }
    }
}
