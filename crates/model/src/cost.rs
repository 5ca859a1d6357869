//! Whole-network cost evaluation and the Pareto filter (§IV-B, Table VI).
//!
//! A plan is priced on the schedule the engine runs: [`price_plan`]
//! expands its [`schedule`] once and prices the step list on every rank of
//! the `p/r_a × r_a` grid, into Table IV's three quantities ([`Cost`]) and
//! each rank's book as the clock reads it ([`MeasuredRank`]: FMAs, bytes
//! and messages). The Pareto filter reads the first (volume × SpMM ops),
//! selection the second, both at the replication factor `r_a` and
//! row-occupancy factor `sigma` they execute with (`r_a = p, sigma = 1.0`
//! is the paper's dense, fully replicated case).
//!
//! [`config_cost`] composes the paper's per-layer rules (Tables II–IV)
//! instead. It is the oracle the priced schedule is checked against, and
//! no selection reads it.

use crate::config::{Order, OrderConfig};
use crate::conformance::{part_len, Pricer, SchedEvent, Strip};
use crate::device::{DeviceModel, MeasuredRank};
use crate::layer::{backward_layer_cost, forward_layer_cost, redistribution_elems, LayerDims};
use crate::schedule::{schedule, Step};
use rdm_trace::TraceCollective;

/// The shape of a GCN training problem: vertex count, edge count (nnz of
/// the normalized adjacency), and the feature width of every boundary —
/// `feats[0] = f_in`, `feats[L] = f_out`, `feats.len() = L+1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GnnShape {
    pub n: usize,
    pub nnz: usize,
    pub feats: Vec<usize>,
}

impl GnnShape {
    /// A GCN with `layers` layers and a uniform hidden width.
    pub fn gcn(
        n: usize,
        nnz: usize,
        f_in: usize,
        hidden: usize,
        f_out: usize,
        layers: usize,
    ) -> Self {
        assert!(layers >= 1);
        let mut feats = Vec::with_capacity(layers + 1);
        feats.push(f_in);
        for _ in 1..layers {
            feats.push(hidden);
        }
        feats.push(f_out);
        GnnShape { n, nnz, feats }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.feats.len() - 1
    }

    /// The [`LayerDims`] of layer `l` (1-based).
    pub fn layer_dims(&self, l: usize) -> LayerDims {
        LayerDims {
            f_in: self.feats[l - 1],
            f_out: self.feats[l],
        }
    }
}

/// Total cost of one training epoch (forward + backward) for a configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    /// Communication volume in elements (global, summed over ranks).
    pub comm_elems: f64,
    /// SpMM FMA count.
    pub spmm_ops: f64,
    /// GEMM FMA count (order-independent; carried for the device model).
    pub gemm_ops: f64,
}

impl Cost {
    /// Pareto dominance over (communication, SpMM ops): true when `self` is
    /// no worse in both and strictly better in at least one.
    pub fn dominates(&self, other: &Cost) -> bool {
        let le = self.comm_elems <= other.comm_elems && self.spmm_ops <= other.spmm_ops;
        let lt = self.comm_elems < other.comm_elems || self.spmm_ops < other.spmm_ops;
        le && lt
    }
}

/// Cost of running one epoch with configuration `cfg` on `p` ranks with
/// adjacency replication `r_a` (use `r_a = p` for full replication), by
/// the paper's rules — the oracle, not the price plans are chosen on.
///
/// Implements the composition rules of §IV-A (verified against Table IV):
///
/// * intra-layer cost per [`forward_layer_cost`] / [`backward_layer_cost`];
/// * an extra redistribution of `f_l` between adjacent forward layers with
///   the same order, and of `f_l` between adjacent backward layers with the
///   same order;
/// * an extra `f_out` redistribution after the last forward layer when it
///   is GEMM-first (the loss needs row-sliced embeddings), and an extra
///   `f_out` before the last backward layer when it is SpMM-first (the
///   gradient leaves the loss row-sliced but the SpMM needs it
///   column-sliced).
pub fn config_cost(shape: &GnnShape, cfg: &OrderConfig, p: usize, r_a: usize) -> Cost {
    let l = shape.layers();
    assert_eq!(cfg.layers(), l, "config layer count mismatch");
    let mut total = Cost::default();
    let n = shape.n;
    let nnz = shape.nnz;
    // Boundary conversions (inter-layer, loss, gradient) are full-cluster
    // all-to-alls under full replication, and row-group all-to-alls under
    // the R_A < P tiling.
    let boundary = |f: usize| -> f64 {
        if r_a == p {
            redistribution_elems(n, f, p)
        } else {
            crate::layer::group_redistribution_elems(n, f, r_a)
        }
    };

    // Forward pass.
    for layer in 1..=l {
        let c = forward_layer_cost(
            shape.layer_dims(layer),
            cfg.forward[layer - 1],
            n,
            nnz,
            p,
            r_a,
        );
        total.comm_elems += c.comm_elems;
        total.spmm_ops += c.spmm_ops;
        total.gemm_ops += c.gemm_ops;
        // Inter-layer redistribution when adjacent forward layers share an
        // order (the output distribution of one mismatches the input
        // requirement of the next).
        if layer < l && cfg.forward[layer - 1] == cfg.forward[layer] {
            total.comm_elems += boundary(shape.feats[layer]);
        }
    }
    // Loss boundary: final embedding must be row-sliced.
    if cfg.forward[l - 1] == Order::GemmFirst {
        total.comm_elems += boundary(shape.feats[l]);
    }
    // Gradient boundary: the loss produces a row-sliced G^L; an SpMM-first
    // last backward layer needs it column-sliced.
    if cfg.backward[l - 1] == Order::SpmmFirst {
        total.comm_elems += boundary(shape.feats[l]);
    }
    // Backward pass, executed from layer L down to 1.
    for layer in (1..=l).rev() {
        let fwd_was_s = cfg.forward[layer - 1] == Order::SpmmFirst;
        let c = backward_layer_cost(
            shape.layer_dims(layer),
            cfg.backward[layer - 1],
            fwd_was_s,
            n,
            nnz,
            p,
            r_a,
        );
        total.comm_elems += c.comm_elems;
        total.spmm_ops += c.spmm_ops;
        total.gemm_ops += c.gemm_ops;
        // Inter-layer boundary between backward layer `layer` and
        // `layer-1`: the crossing matrix is G^{layer-1} of width
        // `feats[layer-1]`.
        if layer > 1 && cfg.backward[layer - 1] == cfg.backward[layer - 2] {
            total.comm_elems += boundary(shape.feats[layer - 1]);
        }
    }
    total
}

/// One rank's share of a schedule, priced.
#[derive(Clone, Debug, Default)]
pub struct RankPrice {
    /// Dense payload bytes of this rank's `Redistribute` conversions.
    pub redistribute: u64,
    /// Bytes of this rank's panel broadcasts (`R_A < P` only).
    pub broadcast: u64,
    /// What the clock reads: FMAs, every byte the list sends (with
    /// `sigma` applied to the conversions), and the messages the
    /// collectives send for it, the loss boundary's included.
    pub book: MeasuredRank,
    /// The strips of each pipelined product (none when blocking).
    pub pipelines: Vec<Vec<Strip>>,
}

impl RankPrice {
    /// The communication time, in virtual ns, this rank's pipelines hide
    /// behind their kernels on `device`: per product, the
    /// [`DeviceModel::hidden_time`] of its strips' link and kernel times,
    /// truncated to whole ns; summed. Zero on a blocking schedule.
    pub fn hidden_ns(&self, device: &DeviceModel) -> u64 {
        let hidden = |strips: &Vec<Strip>| {
            let (mut comm, mut comp) = (Vec::new(), Vec::new());
            for s in strips {
                let [(bytes, messages), (broadcast, peers)] = s.sends;
                let mut t = device.comm_time(bytes as f64, messages as f64);
                if peers > 0 {
                    t += device.comm_time(broadcast as f64, peers as f64);
                }
                comm.push(t);
                comp.push(device.compute_time(s.spmm_fma, s.gemm_fma));
            }
            (device.hidden_time(&comm, &comp) * 1e9) as u64
        };
        self.pipelines.iter().map(hidden).sum()
    }
}

/// One plan's epoch, priced on its schedule.
#[derive(Clone, Debug)]
pub struct PlanPrice {
    pub config: OrderConfig,
    /// Table IV's quantities, summed over ranks: the `Redistribute`
    /// elements times `sigma` plus the panel-broadcast elements, and the
    /// list's FMAs.
    pub cost: Cost,
    /// Every rank of the `p/r_a × r_a` grid, in rank order.
    pub ranks: Vec<RankPrice>,
}

/// Price one memoized epoch of `cfg` on the schedule the engine runs: the
/// step list is expanded once and priced on every rank of the
/// `p/r_a × r_a` grid, with the nonzeros split evenly over the panels.
/// `sigma`, the expected fraction of intermediate rows that carry data
/// (`1.0` on the dense wire), scales the Row↔Col conversions only — op
/// counts, panel broadcasts and weight-gradient all-reduces do not ride
/// the indexed wire, and a packed piece is still one message.
///
/// # Panics
/// If `r_a` does not divide `p`, `sigma` is outside `[0, 1]`, or `shape`
/// does not have a width per layer boundary of `cfg`.
pub fn price_plan(
    shape: &GnnShape,
    cfg: &OrderConfig,
    p: usize,
    r_a: usize,
    sigma: f64,
) -> PlanPrice {
    assert!(
        (0.0..=1.0).contains(&sigma),
        "sparsity factor {sigma} outside [0, 1]"
    );
    let steps = schedule(cfg, true, &shape.feats, false).unwrap_or_else(|e| panic!("{e}"));
    let panels = p / r_a;
    let panel_nnz: Vec<usize> = (0..panels)
        .map(|k| part_len(shape.nnz, panels, k))
        .collect();
    let ranks = price_ranks(&steps, shape, p, r_a, 1, &panel_nnz, None, sigma)
        .unwrap_or_else(|e| panic!("{e}"));
    let bytes = |f: fn(&RankPrice) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let cost = Cost {
        comm_elems: (sigma * bytes(|r| r.redistribute) + bytes(|r| r.broadcast)) / 4.0,
        spmm_ops: ranks.iter().map(|r| r.book.spmm_fma).sum(),
        gemm_ops: ranks.iter().map(|r| r.book.gemm_fma).sum(),
    };
    PlanPrice {
        config: cfg.clone(),
        cost,
        ranks,
    }
}

/// Price `steps` on every rank of the `p/r_a × r_a` grid, in rank order,
/// with each fed product's conversion shipped as `chunks` strips (`1`:
/// blocking) and each strip's pipeline kept for [`RankPrice::hidden_ns`].
/// `panel_nnz[k]` is the nonzero count of panel `k`'s row slice of the
/// adjacency, `panel_nnz_t` that of its transpose (`None`: symmetric), and
/// `sigma` scales the conversions' bytes as in [`price_plan`].
///
/// # Errors
/// If `chunks` is zero, or the grid or the panel counts do not fit `shape`
/// (see [`crate::conformance::predict_epoch`]).
#[allow(clippy::too_many_arguments)]
pub fn price_ranks(
    steps: &[Step],
    shape: &GnnShape,
    p: usize,
    r_a: usize,
    chunks: usize,
    panel_nnz: &[usize],
    panel_nnz_t: Option<&[usize]>,
    sigma: f64,
) -> Result<Vec<RankPrice>, String> {
    if chunks == 0 {
        return Err("a pipeline needs at least one strip".into());
    }
    let rank = |rank| {
        let mut pricer = Pricer::new(shape, p, r_a, rank, panel_nnz, panel_nnz_t)?;
        pricer.chunks = chunks;
        pricer.price(steps);
        let (mut r, mut converted, mut rest) = (RankPrice::default(), 0, 0);
        r.book.messages = pricer.messages as f64;
        for e in pricer.events {
            match e {
                SchedEvent::Redist { kind, bytes, .. } => {
                    converted += bytes;
                    if kind == TraceCollective::Redistribute {
                        r.redistribute += bytes;
                    }
                }
                SchedEvent::Broadcast { bytes } => {
                    r.broadcast += bytes;
                    rest += bytes;
                }
                SchedEvent::AllReduce { bytes } => rest += bytes,
                SchedEvent::Spmm { cols, nnz, .. } => r.book.spmm_fma += (cols * nnz) as f64,
                SchedEvent::Gemm { m, n, k } => r.book.gemm_fma += (m * n * k) as f64,
            }
        }
        r.book.bytes_sent = sigma * converted as f64 + rest as f64;
        r.pipelines = pricer.pipelines;
        Ok(r)
    };
    (0..p).map(rank).collect()
}

/// Every configuration priced by [`price_plan`], ordered by ID.
pub fn all_config_costs(shape: &GnnShape, p: usize, r_a: usize, sigma: f64) -> Vec<PlanPrice> {
    OrderConfig::enumerate(shape.layers())
        .iter()
        .map(|cfg| price_plan(shape, cfg, p, r_a, sigma))
        .collect()
}

/// The Pareto-optimal configurations with respect to (communication volume,
/// SpMM operations) — §IV-B / Table VI. Ties collapse: among configurations
/// with identical cost vectors only the lowest ID is kept, matching how the
/// paper lists candidate IDs.
///
/// With `r_a == p` the factor `sigma` scales every candidate's
/// communication uniformly, so the membership matches the dense pricing;
/// under `R_A < P` the dense broadcast share shifts the trade-off and the
/// set can differ.
pub fn pareto_configs(shape: &GnnShape, p: usize, r_a: usize, sigma: f64) -> Vec<PlanPrice> {
    let all = all_config_costs(shape, p, r_a, sigma);
    let kept: Vec<bool> = all
        .iter()
        .enumerate()
        .map(|(i, a)| {
            all.iter().enumerate().all(|(j, b)| {
                // Identical cost vector: keep only the first (lowest ID).
                let tie = j < i
                    && b.cost.comm_elems == a.cost.comm_elems
                    && b.cost.spmm_ops == a.cost.spmm_ops;
                !b.cost.dominates(&a.cost) && !tie
            })
        })
        .collect();
    all.into_iter()
        .zip(kept)
        .filter_map(|(c, k)| k.then_some(c))
        .collect()
}

/// Just the Pareto-optimal IDs (Table VI's "Candidates IDs" column).
pub fn pareto_ids(shape: &GnnShape, p: usize, r_a: usize, sigma: f64) -> Vec<usize> {
    pareto_configs(shape, p, r_a, sigma)
        .iter()
        .map(|c| c.config.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table VI datasets: (name, f_in, f_h, f_out, expected candidate IDs).
    /// The paper computes these with the 2-layer, 128-hidden model; the IDs
    /// are independent of N/nnz/P because every term scales by the same
    /// nnz or (P-1)/P·N factor.
    const TABLE6: &[(&str, usize, usize, usize, &[usize])] = &[
        ("OGB-Arxiv", 128, 128, 40, &[5]),
        ("OGB-MAG", 128, 128, 349, &[10]),
        ("OGB-Products", 100, 128, 47, &[5]),
        ("Reddit", 602, 128, 41, &[2, 3, 10]),
        ("Web-Google", 256, 128, 100, &[2, 3, 10]),
        ("Com-Orkut", 128, 128, 100, &[5, 10]),
        ("CAMI Airways", 256, 128, 25, &[2, 3, 10]),
        ("CAMI Oral", 256, 128, 32, &[2, 3, 10]),
    ];

    #[test]
    fn reproduces_table6_pareto_candidates() {
        for &(name, f_in, f_h, f_out, expect) in TABLE6 {
            let shape = GnnShape::gcn(10_000, 100_000, f_in, f_h, f_out, 2);
            let ids = pareto_ids(&shape, 8, 8, 1.0);
            assert_eq!(ids, expect, "dataset {name}");
        }
    }

    #[test]
    fn pareto_ids_independent_of_p_and_scale() {
        let shape_a = GnnShape::gcn(1_000, 5_000, 602, 128, 41, 2);
        let shape_b = GnnShape::gcn(232_965, 114_848_857, 602, 128, 41, 2);
        for p in [2, 4, 8] {
            assert_eq!(
                pareto_ids(&shape_a, p, p, 1.0),
                pareto_ids(&shape_b, 8, 8, 1.0)
            );
        }
    }

    #[test]
    fn pareto_set_is_nonempty_and_nondominated() {
        let shape = GnnShape::gcn(5_000, 60_000, 64, 32, 10, 2);
        let pareto = pareto_configs(&shape, 4, 4, 1.0);
        assert!(!pareto.is_empty());
        for a in &pareto {
            for b in &pareto {
                assert!(
                    !a.cost.dominates(&b.cost),
                    "pareto set contains dominated entry"
                );
            }
        }
    }

    #[test]
    fn dominance_definition() {
        let a = Cost {
            comm_elems: 1.0,
            spmm_ops: 1.0,
            gemm_ops: 0.0,
        };
        let b = Cost {
            comm_elems: 2.0,
            spmm_ops: 1.0,
            gemm_ops: 0.0,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
    }

    #[test]
    fn three_layer_enumeration_has_64_configs() {
        let shape = GnnShape::gcn(1_000, 10_000, 128, 128, 40, 3);
        let all = all_config_costs(&shape, 8, 8, 1.0);
        assert_eq!(all.len(), 64);
        let pareto = pareto_configs(&shape, 8, 8, 1.0);
        assert!(pareto.len() < 64);
        assert!(!pareto.is_empty());
    }

    #[test]
    fn gemm_ops_are_order_independent() {
        let shape = GnnShape::gcn(1_000, 10_000, 64, 32, 8, 2);
        let all = all_config_costs(&shape, 4, 4, 1.0);
        let g0 = all[0].cost.gemm_ops;
        assert!(all.iter().all(|c| c.cost.gemm_ops == g0));
    }

    #[test]
    fn replication_reduces_total_comm() {
        // With R_A < P every configuration pays broadcast traffic; raising
        // R_A must never increase communication.
        let shape = GnnShape::gcn(10_000, 200_000, 128, 128, 40, 2);
        let cfg = OrderConfig::from_id(5, 2);
        let p = 8;
        let mut prev = f64::INFINITY;
        for r_a in [1, 2, 4, 8] {
            let c = config_cost(&shape, &cfg, p, r_a);
            assert!(c.comm_elems < prev);
            prev = c.comm_elems;
        }
    }

    #[test]
    fn sparsity_factor_scales_conversions_but_not_broadcast() {
        let shape = GnnShape::gcn(10_000, 200_000, 128, 128, 40, 2);
        let cfg = OrderConfig::from_id(5, 2);
        // Full replication: every comm term is a redistribution, so the
        // volume scales linearly in sigma while compute is untouched.
        let dense = price_plan(&shape, &cfg, 8, 8, 1.0);
        let half = price_plan(&shape, &cfg, 8, 8, 0.5);
        assert_eq!(half.cost.comm_elems, 0.5 * dense.cost.comm_elems);
        assert_eq!(half.cost.spmm_ops, dense.cost.spmm_ops);
        assert_eq!(half.cost.gemm_ops, dense.cost.gemm_ops);
        // Each rank's book keeps its weight-gradient all-reduce dense.
        for (d, h) in dense.ranks.iter().zip(&half.ranks) {
            assert_eq!(d.redistribute, h.redistribute);
            let redistribute = d.redistribute as f64;
            assert_eq!(d.book.bytes_sent - h.book.bytes_sent, 0.5 * redistribute);
        }
        // R_A < P: the panel broadcast stays dense, so sigma = 0 leaves
        // exactly the broadcast volume standing.
        let tiled = price_plan(&shape, &cfg, 8, 2, 0.0);
        let broadcast: u64 = tiled.ranks.iter().map(|r| r.broadcast).sum();
        assert!(broadcast > 0);
        assert_eq!(tiled.cost.comm_elems, broadcast as f64 / 4.0);
        assert!(tiled.cost.comm_elems < price_plan(&shape, &cfg, 8, 2, 1.0).cost.comm_elems);
    }

    #[test]
    fn sparse_pareto_membership_matches_dense_under_full_replication() {
        // Uniform scaling of one axis preserves dominance, so plan
        // selection keeps choosing among the paper's Table VI candidates.
        for &(name, f_in, f_h, f_out, _) in TABLE6 {
            let shape = GnnShape::gcn(10_000, 100_000, f_in, f_h, f_out, 2);
            let dense = pareto_ids(&shape, 8, 8, 1.0);
            assert_eq!(dense, pareto_ids(&shape, 8, 8, 0.37), "dataset {name}");
        }
    }

    #[test]
    fn rdm_total_volume_is_p_independent() {
        // The headline scalability claim: with full replication, total
        // communication volume is (P-1)/P·N·Σ(widths) — essentially
        // constant in P, approaching N·Σ(widths).
        let shape = GnnShape::gcn(10_000, 200_000, 128, 128, 40, 2);
        let cfg = OrderConfig::from_id(5, 2);
        let c2 = config_cost(&shape, &cfg, 2, 2);
        let c8 = config_cost(&shape, &cfg, 8, 8);
        // Ratio (P-1)/P: 0.5 → 0.875, less than 2× growth from 2 to 8 GPUs.
        assert!(c8.comm_elems / c2.comm_elems < 2.0);
        // While a CAGNET-style broadcast (modelled by R_A = 1) grows ~7x.
        let b2 = config_cost(&shape, &OrderConfig::all_spmm_first(2), 2, 1);
        let b8 = config_cost(&shape, &OrderConfig::all_spmm_first(2), 8, 1);
        assert!(b8.comm_elems / b2.comm_elems > 5.0);
    }
}
