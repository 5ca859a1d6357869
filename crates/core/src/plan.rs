//! Execution plans, model-driven plan selection (§IV-B), and the one
//! resolution of a run's request into a plan that training and serving
//! share ([`resolve`]).

use crate::trainer::Algo;
use rdm_model::{DeviceModel, GnnShape, Order, OrderConfig};
use rdm_sparse::Csr;

/// Re-export: the per-layer, per-pass order (SpMM-first / GEMM-first).
pub type LayerOrder = Order;

/// A complete execution plan for the RDM trainer: the SpMM/GEMM ordering
/// plus the adjacency replication factor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub config: OrderConfig,
    /// Adjacency replication factor; `r_a == p` means full replication
    /// (the common case on the paper's 48 GB GPUs). Must divide `P`.
    pub r_a: usize,
    /// Save `Â·H^{l-1}` from SpMM-first forward layers for reuse by
    /// GEMM-first backward layers (§III-C). Disabling trades the saved
    /// memory for an extra SpMM — the ablation Table III's N.M. rows
    /// price.
    pub memoize: bool,
}

impl Plan {
    /// Plan from a Table-IV configuration ID with full replication.
    pub fn from_id(id: usize, layers: usize, p: usize) -> Self {
        Plan {
            config: OrderConfig::from_id(id, layers),
            r_a: p,
            memoize: true,
        }
    }

    /// The CAGNET-equivalent all-SpMM-first plan.
    pub fn all_spmm_first(layers: usize, p: usize) -> Self {
        Plan {
            config: OrderConfig::all_spmm_first(layers),
            r_a: p,
            memoize: true,
        }
    }

    /// Same plan with a different replication factor.
    pub fn with_ra(mut self, r_a: usize) -> Self {
        self.r_a = r_a;
        self
    }

    /// Same plan with memoization disabled.
    pub fn no_memoize(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Table-IV ID of the ordering.
    pub fn id(&self) -> usize {
        self.config.id()
    }
}

/// Pick the best plan for a shape on `p` ranks at replication factor
/// `r_a`: price every ordering on the schedule it runs, keep the
/// Pareto-optimal ones (communication × SpMM ops), then rank them by the
/// clock that books executed epochs — the slowest rank's modeled time of
/// its priced book, FMAs, bytes and messages — the model-driven version of
/// the paper's "execute every Pareto-optimal candidate for a few epochs
/// and keep the fastest". The one selector: every quantity it reads is
/// one the executed epoch books, so a trial epoch would measure nothing
/// the price does not already know.
///
/// `r_a` joins the pricing (group redistributions shrink while dense panel
/// broadcasts appear), so the best ordering at `r_a < p` can differ from
/// the one at full replication. `sigma`, the expected fraction of
/// intermediate rows that carry data (`1.0` on the dense wire), re-prices
/// the conversions only — op counts and panel broadcasts are unchanged by
/// sparsity.
///
/// # Panics
/// If `r_a` does not divide `p`.
pub fn best_plan(shape: &GnnShape, p: usize, r_a: usize, device: &DeviceModel, sigma: f64) -> Plan {
    let time = |c: &rdm_model::PlanPrice| device.slowest(c.ranks.iter().map(|r| &r.book)).total_s;
    let best = rdm_model::pareto_configs(shape, p, r_a, sigma)
        .into_iter()
        .min_by(|a, b| time(a).total_cmp(&time(b)))
        .expect("pareto set is never empty");
    Plan {
        config: best.config,
        r_a,
        memoize: true,
    }
}

/// [`best_plan`] under the name the frozen benchmark calls.
#[doc(hidden)]
pub use self::best_plan as best_plan_with_ra_sparsity;

/// A replication factor over `p` ranks must be nonzero and divide `p`.
///
/// # Errors
/// The one message both binaries print for it.
pub fn check_replication(r: usize, p: usize) -> Result<(), String> {
    if r == 0 || !p.is_multiple_of(r) {
        return Err(format!("replication factor {r} must divide P = {p}"));
    }
    Ok(())
}

/// What a run asks of planning, as `train_gcn` and `rdm_serve::serve`
/// (always [`Algo::Rdm`]) know it before the cluster comes up.
#[derive(Debug)]
pub struct PlanRequest<'a> {
    pub algo: &'a Algo,
    pub p: usize,
    /// `None` takes the explicit plan's `r_a`, or full replication.
    pub ra: Option<usize>,
    /// Indexed-strip wire requested.
    pub sparse: bool,
    /// Pipeline depth requested.
    pub overlap: Option<usize>,
    pub device: &'a DeviceModel,
}

/// A resolved request: the plan, the pipeline depth it runs at, and why
/// each requested optimisation that will not run is inert.
#[derive(Debug)]
pub struct Resolution {
    /// `None` for algorithms that read no plan.
    pub plan: Option<Plan>,
    /// Strips every fed product's conversion ships in: the requested depth
    /// when the pipeline runs, else `1` (blocking).
    pub chunks: usize,
    pub overlap_inert: Option<&'static str>,
    pub sparse_inert: Option<&'static str>,
}

/// Why a requested pipeline of `chunks` strips would be inert on `p` ranks
/// at replication factor `r_a`, or `None` when it runs: no pipeline depth
/// (`chunks < 2`), or nothing to overlap (a single rank, or `r_a = 1`,
/// where the redistribution group is the rank alone). The one gate:
/// [`resolve`] decides a run's depth with it, and reports say why a run
/// stayed blocking.
pub fn overlap_inert_reason(chunks: usize, p: usize, r_a: usize) -> Option<&'static str> {
    if chunks < 2 {
        Some("chunks < 2")
    } else if p < 2 {
        Some("single rank")
    } else if r_a < 2 {
        Some("r_a = 1 leaves no redistribution group to pipeline")
    } else {
        None
    }
}

/// Turn a run's request into a plan — the one place training and serving
/// check it: `--ra` only for RDM, an explicit plan's `r_a` against the
/// requested one, `r_a` (and CAGNET-1.5D's `c`) dividing `P`, the plan's
/// layer count against `shape`. Then price `σ = 1 − empty_row_fraction(adj)`
/// under the indexed wire, select through [`best_plan`] when no plan is
/// given, fix the pipeline depth, and name why a requested overlap or
/// indexed wire stays inert.
///
/// # Errors
/// The first check the request fails, with the message both binaries print.
pub fn resolve(req: &PlanRequest<'_>, shape: &GnnShape, adj: &Csr) -> Result<Resolution, String> {
    let p = req.p;
    let (rdm, explicit) = match req.algo {
        Algo::Rdm { plan } => (true, plan.as_ref()),
        Algo::Cagnet15D { c } => {
            check_replication(*c, p)?;
            (false, None)
        }
        _ => (false, None),
    };
    match (rdm, explicit, req.ra) {
        (false, _, Some(r)) => Err(format!(
            "{} does not read a replication factor (r_a = {r})",
            req.algo.label()
        )),
        (_, Some(pl), Some(r)) if pl.r_a != r => Err(format!(
            "explicit plan has r_a = {} but the config asks for r_a = {r}",
            pl.r_a
        )),
        _ => Ok(()),
    }?;
    let r_a = explicit.map(|pl| pl.r_a).or(req.ra).unwrap_or(p);
    check_replication(r_a, p)?;
    if let Some(pl) = explicit.filter(|pl| pl.config.layers() != shape.layers()) {
        let (plan, model) = (pl.config.layers(), shape.layers());
        return Err(format!(
            "plan orders {plan} layers but the model has {model}"
        ));
    }
    // Rows of `Â·X` are all-zero exactly where `Â` has empty rows, and the
    // indexed wire drops all-zero rows.
    let sigma = if req.sparse {
        1.0 - adj.empty_row_fraction()
    } else {
        1.0
    };
    let plan = rdm.then(|| {
        explicit
            .cloned()
            .unwrap_or_else(|| best_plan(shape, p, r_a, req.device, sigma))
    });
    let overlap_inert = req.overlap.and_then(|chunks| match req.algo {
        Algo::Rdm { .. } => overlap_inert_reason(chunks, p, r_a),
        Algo::SaintRdm { .. } | Algo::SaintDdp { .. } | Algo::SaintMasked { .. } => {
            Some("SAINT trainers run the blocking path")
        }
        _ => Some("non-RDM algorithm"),
    });
    let sparse_inert = match (req.sparse, rdm) {
        (false, _) => None,
        (true, false) => Some("non-RDM algorithm"),
        (true, true) => (p < 2).then_some("single rank"),
    };
    let chunks = req.overlap.filter(|_| overlap_inert.is_none()).unwrap_or(1);
    Ok(Resolution {
        plan,
        chunks,
        overlap_inert,
        sparse_inert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_plan_is_pareto_member() {
        let shape = GnnShape::gcn(10_000, 100_000, 602, 128, 41, 2);
        let plan = best_plan(&shape, 8, 8, &DeviceModel::a6000_pcie(), 1.0);
        let pareto: Vec<usize> = rdm_model::pareto_ids(&shape, 8, 8, 1.0);
        assert!(
            pareto.contains(&plan.id()),
            "chosen {} not in pareto {pareto:?}",
            plan.id()
        );
    }

    #[test]
    fn reddit_shape_prefers_low_comm_candidate() {
        // Reddit's Pareto set is {2, 3, 10}; with SpMM far slower than
        // GEMM and nnz/N huge, the device model should not pick an option
        // dominated on sparse ops.
        let shape = GnnShape::gcn(232_965, 114_848_857, 602, 128, 41, 2);
        let plan = best_plan(&shape, 8, 8, &DeviceModel::a6000_pcie(), 1.0);
        assert!([2, 3, 10].contains(&plan.id()), "picked {}", plan.id());
    }

    #[test]
    fn sparse_repricing_still_picks_a_pareto_member() {
        let shape = GnnShape::gcn(10_000, 100_000, 602, 128, 41, 2);
        let device = DeviceModel::a6000_pcie();
        for sigma in [1.0, 0.6, 0.2] {
            let plan = best_plan(&shape, 8, 8, &device, sigma);
            let pareto = rdm_model::pareto_ids(&shape, 8, 8, 1.0);
            assert!(
                pareto.contains(&plan.id()),
                "sigma={sigma}: chosen {} not in pareto {pareto:?}",
                plan.id()
            );
        }
    }

    /// The price selection reads is the book the engine keeps: for every
    /// 2- and 3-layer plan on each `(P, R_A)` grid, one fault-free,
    /// blocking, dense-wire epoch books exactly the priced `Redistribute`
    /// and `Broadcast` bytes and the priced messages on every rank — its
    /// conversions (`Redistribute` and the mask alignments' `Other`),
    /// panel broadcasts, weight-gradient ring all-reduces, and the loss
    /// boundary's scalar all-reduce, which the price books at
    /// `Step::Loss` — and the priced SpMM and GEMM FMAs summed over ranks.
    /// The nonzeros are unevenly spread over the panels, which the price
    /// assumes balanced, so FMAs are compared as totals.
    #[test]
    fn selection_price_is_the_executed_book() {
        use crate::metrics::book_unit;
        use crate::trainer::{on_ranks, TrainerConfig};
        use rdm_comm::CollectiveKind::{Broadcast, Redistribute};
        const GRIDS: [(usize, usize); 6] = [(2, 2), (4, 4), (8, 8), (4, 2), (4, 1), (8, 2)];
        let ds = rdm_graph::DatasetSpec::synthetic("booked", 54, 300, 10, 6).instantiate(3);
        for layers in [2, 3] {
            let shape = ds.shape_layers(8, layers);
            for config in OrderConfig::enumerate(layers) {
                for (p, r_a) in GRIDS {
                    let plan = Plan::from_id(config.id(), layers, p).with_ra(r_a);
                    let what = format!("{layers}-layer id {} P {p} R_A {r_a}", plan.id());
                    let price = rdm_model::price_plan(&shape, &config, p, r_a, 1.0);
                    let cfg = TrainerConfig::rdm(p, plan).hidden(8).layers(layers);
                    let books = on_ranks(&ds, &cfg, |t, ctx| {
                        let idx = 0;
                        book_unit(ctx, rdm_trace::Span::Epoch { idx }, |ops| t.epoch(ctx, ops)).1
                    })
                    .results;
                    for (rank, (book, priced)) in books.iter().zip(&price.ranks).enumerate() {
                        let booked = (book.comm.bytes(Redistribute), book.comm.bytes(Broadcast));
                        let expect = (priced.redistribute, priced.broadcast);
                        assert_eq!(booked, expect, "{what} rank {rank}: bytes");
                        let messages = book.comm.total_messages() as f64;
                        assert_eq!(
                            messages, priced.book.messages,
                            "{what} rank {rank}: messages"
                        );
                    }
                    let spmm: f64 = books.iter().map(|b| b.ops.spmm_fma).sum();
                    let gemm: f64 = books.iter().map(|b| b.ops.gemm_fma).sum();
                    assert_eq!(spmm, price.cost.spmm_ops, "{what}: SpMM FMAs");
                    assert_eq!(gemm, price.cost.gemm_ops, "{what}: GEMM FMAs");
                }
            }
        }
    }

    /// The pipelined price is the executed book too: at `chunks` 2, 3 and
    /// 7 on full-replication and replicated-panel grids, one fault-free
    /// dense-wire epoch of every 2-layer plan books exactly the priced
    /// `Redistribute` and `Broadcast` bytes and messages on every rank —
    /// `chunks·(r_a − 1)` per fed conversion, `chunks·(P/r_a − 1)` per fed
    /// panel broadcast — and, priced on the real panel nonzeros, the
    /// priced FMAs. Every plan's pipelines hide time.
    #[test]
    fn pipelined_price_is_the_executed_book() {
        use crate::metrics::book_unit;
        use crate::ops::PanelGrid;
        use crate::trainer::{on_ranks, TrainerConfig};
        use rdm_comm::CollectiveKind::{Broadcast, Redistribute};
        let device = DeviceModel::a6000_pcie();
        let ds = rdm_graph::DatasetSpec::synthetic("booked", 54, 300, 10, 6).instantiate(3);
        let shape = ds.shape_layers(8, 2);
        for config in OrderConfig::enumerate(2) {
            let steps = rdm_model::schedule(&config, true, &shape.feats, false).unwrap();
            for (p, r_a) in [(4, 4), (4, 2), (8, 2)] {
                let nnz = PanelGrid::new(p, r_a).panel_nnz(&ds.adj_norm);
                for chunks in [2, 3, 7] {
                    let what = format!("id {} P {p} R_A {r_a} chunks {chunks}", config.id());
                    let price =
                        rdm_model::price_ranks(&steps, &shape, p, r_a, chunks, &nnz, None, 1.0);
                    let price = price.unwrap();
                    let plan = Plan::from_id(config.id(), 2, p).with_ra(r_a);
                    let cfg = TrainerConfig::rdm(p, plan).hidden(8).overlap(chunks);
                    let books = on_ranks(&ds, &cfg, |t, ctx| {
                        let idx = 0;
                        book_unit(ctx, rdm_trace::Span::Epoch { idx }, |ops| t.epoch(ctx, ops)).1
                    })
                    .results;
                    for (rank, (book, priced)) in books.iter().zip(&price).enumerate() {
                        let (comm, ops, b) = (&book.comm, &book.ops, &priced.book);
                        let messages = comm.total_messages() as f64;
                        let booked = (comm.bytes(Redistribute), comm.bytes(Broadcast), messages);
                        let expect = (priced.redistribute, priced.broadcast, b.messages);
                        assert_eq!(booked, expect, "{what} rank {rank}: bytes, messages");
                        let fmas = (ops.spmm_fma, ops.gemm_fma);
                        assert_eq!(fmas, (b.spmm_fma, b.gemm_fma), "{what} rank {rank}: FMAs");
                    }
                    let hidden: u64 = price.iter().map(|r| r.hidden_ns(&device)).sum();
                    assert!(hidden > 0, "{what}: the pipeline hides nothing");
                }
            }
        }
    }

    /// Selection is a fixed point of execution: at three P = 4 points (two
    /// 2-layer, one 3-layer) one executed epoch of every Pareto plan
    /// through `train_gcn` is fastest, slowest rank against slowest rank,
    /// for the plan `best_plan` prices fastest — all a trial epoch could
    /// have measured. Booking no messages, the price picked the slower
    /// plan at all three (3, 3 and 9; EXPERIMENTS.md has the table).
    #[test]
    fn best_plan_runs_the_fastest_executed_epoch() {
        use crate::trainer::{train_gcn, TrainerConfig};
        let device = DeviceModel::a6000_pcie();
        for (n, e, f, hidden, classes, layers) in [
            (2000, 40_000, 128, 16, 8, 2),
            (1500, 30_000, 256, 32, 4, 2),
            (2000, 16_000, 32, 64, 8, 3),
        ] {
            let spec = rdm_graph::DatasetSpec::synthetic("fixed", n, e, f, classes);
            let ds = spec.instantiate(1);
            let shape = ds.shape_layers(hidden, layers);
            let executed: Vec<(f64, usize)> = rdm_model::pareto_ids(&shape, 4, 4, 1.0)
                .into_iter()
                .map(|id| {
                    let cfg = TrainerConfig::rdm(4, Plan::from_id(id, layers, 4));
                    let cfg = cfg.hidden(hidden).layers(layers).epochs(1);
                    (train_gcn(&ds, &cfg).unwrap().epochs[0].sim.total_s, id)
                })
                .collect();
            let fastest = executed.iter().min_by(|a, b| a.0.total_cmp(&b.0));
            let pick = best_plan(&shape, 4, 4, &device, 1.0).id();
            assert_eq!(Some(pick), fastest.map(|t| t.1), "N {n}: {executed:?}");
        }
    }

    /// The ledger's three auto-selecting workloads (`bench/`) keep their
    /// plans: each Pareto set is one plan, so no book the price reads can
    /// move them. Resolved as `train_gcn` and `serve` resolve them.
    #[test]
    fn ledger_workloads_keep_their_plans() {
        let device = DeviceModel::a6000_pcie();
        let synthetic = |n, e, f| rdm_graph::DatasetSpec::synthetic("ledger", n, e, f, 16);
        // The pick, and the Pareto set it was picked from.
        let pick = |shape: &GnnShape, adj: &Csr, p, ra, sparse| {
            let algo = Algo::Rdm { plan: None };
            let (overlap, device) = (None, &device);
            let req = PlanRequest {
                algo: &algo,
                p,
                ra,
                sparse,
                overlap,
                device,
            };
            let plan = resolve(&req, shape, adj).unwrap().plan.unwrap();
            let sigma = if sparse {
                1.0 - adj.empty_row_fraction()
            } else {
                1.0
            };
            (plan.id(), rdm_model::pareto_ids(shape, p, plan.r_a, sigma))
        };
        let k = synthetic(20_000, 800_000, 128).instantiate(1);
        let got = pick(&k.shape_layers(128, 2), &k.adj_norm, 2, None, false);
        assert_eq!(got, (5, vec![5]), "train-kernels");
        let grid = synthetic(100_000, 50_000, 128).instantiate(1);
        let grid = grid.with_row_aggregation();
        let got = pick(&grid.shape_layers(16, 2), &grid.adj_norm, 4, Some(2), true);
        assert_eq!(got, (10, vec![10]), "train-grid-sparse");
        // serve-induced prices its 4096-vertex batches.
        let serve = synthetic(50_000, 500_000, 64).instantiate(1);
        let nnz = (serve.adj_norm.nnz() * 4096 / 50_000).max(4096);
        let batch = GnnShape::gcn(4096, nnz, 64, 64, 16, 2);
        let got = pick(&batch, &serve.adj_norm, 2, None, false);
        assert_eq!(got, (5, vec![5]), "serve-induced");
    }

    /// One reason per gate in [`overlap_inert_reason`], in precedence order
    /// — the strings reports print must track the gate exactly.
    #[test]
    fn overlap_inert_reasons_cover_every_gate() {
        assert_eq!(overlap_inert_reason(1, 4, 4), Some("chunks < 2"));
        assert_eq!(overlap_inert_reason(4, 1, 1), Some("single rank"));
        let ra1 = overlap_inert_reason(4, 4, 1).expect("r_a = 1 must be inert");
        assert!(ra1.contains("r_a = 1"), "got {ra1:?}");
        assert_eq!(overlap_inert_reason(4, 4, 2), None);
        assert_eq!(overlap_inert_reason(4, 4, 4), None);
    }

    #[test]
    fn from_id_roundtrip() {
        let p = Plan::from_id(10, 2, 8);
        assert_eq!(p.id(), 10);
        assert_eq!(p.r_a, 8);
    }

    #[test]
    fn three_layer_plans_supported() {
        let shape = GnnShape::gcn(10_000, 100_000, 128, 128, 40, 3);
        let plan = best_plan(&shape, 4, 4, &DeviceModel::a6000_pcie(), 1.0);
        assert_eq!(plan.config.layers(), 3);
        assert!(plan.id() < 64);
    }
}

#[cfg(test)]
mod ra_selection_tests {
    use super::*;

    /// Headline regression for the `--ra` mispricing bug: on this shape
    /// (the RMAT bench graph with a 16-wide hidden layer) the model's best
    /// ordering at full replication is ID 10, but at `r_a = 2` the group
    /// redistributions shrink while dense panel broadcasts appear and the
    /// best ordering becomes ID 3. Selecting at `r_a = p` and bolting
    /// `.with_ra(2)` on afterwards would silently train the mispriced
    /// plan 10.
    #[test]
    fn replication_factor_changes_the_chosen_plan() {
        let device = DeviceModel::a6000_pcie();
        let shape = GnnShape::gcn(2048, 8192, 32, 16, 8, 2);
        let full = best_plan(&shape, 4, 4, &device, 1.0);
        let half = best_plan(&shape, 4, 2, &device, 1.0);
        assert_eq!(full.id(), 10, "full-replication pick moved");
        assert_eq!(half.id(), 3, "r_a = 2 pick moved");
        assert_ne!(
            full.id(),
            half.id(),
            "shape no longer separates r_a = P from r_a = 2 pricing"
        );
        assert_eq!(half.r_a, 2, "selection must carry the replication factor");
    }

    /// Sigma repricing composes with `r_a`: on this tall skinny shape the
    /// dense full-replication pick is ID 10, but halving the expected row
    /// occupancy flips it to ID 3 — while the `r_a = 2` pick is ID 3
    /// under both pricings (its broadcast share stays dense). Degree 20:
    /// at degree 10 the messages plan 3's extra conversions send already
    /// cost it the σ = 0.5 pick.
    #[test]
    fn sigma_repricing_composes_with_replication_factor() {
        let device = DeviceModel::a6000_pcie();
        let shape = GnnShape::gcn(50_000, 1_000_000, 512, 8, 4, 2);
        assert_eq!(best_plan(&shape, 4, 4, &device, 1.0).id(), 10);
        assert_eq!(best_plan(&shape, 4, 4, &device, 0.5).id(), 3);
        for sigma in [1.0, 0.5] {
            assert_eq!(
                best_plan(&shape, 4, 2, &device, sigma).id(),
                3,
                "sigma={sigma}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_replication_factor_is_rejected() {
        let shape = GnnShape::gcn(2048, 8192, 32, 16, 8, 2);
        best_plan(&shape, 4, 3, &DeviceModel::a6000_pcie(), 1.0);
    }
}
