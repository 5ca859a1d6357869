//! Property-based tests of the RDM engine over randomized graphs,
//! orderings, cluster sizes and replication factors.

use proptest::prelude::*;
use rdm_comm::CollectiveKind::{self, Other};
use rdm_comm::{Cluster, Form};
use rdm_core::gcn::{rdm_backward, rdm_forward, serial, GcnWeights, RankInput};
use rdm_core::loss::{serial as loss_serial, softmax_xent, LossSpec};
use rdm_core::ops::{OpCounters, Topology};
use rdm_core::Plan;
use rdm_dense::allclose;
use rdm_graph::DatasetSpec;

/// Divisor pairs (p, r_a) with r_a | p, small enough for fast cases.
fn grid_strategy() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1usize, 1usize)),
        Just((2usize, 1usize)),
        Just((2usize, 2usize)),
        Just((3usize, 3usize)),
        Just((4usize, 2usize)),
        Just((4usize, 4usize)),
        Just((6usize, 2usize)),
        Just((6usize, 3usize)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any ordering, any grid, any small random graph: the distributed
    /// forward+backward equals the serial reference.
    #[test]
    fn engine_matches_serial_everywhere(
        (p, r_a) in grid_strategy(),
        id in 0usize..16,
        n in 20usize..60,
        deg in 3usize..8,
        seed in 0u64..200,
    ) {
        let ds = DatasetSpec::synthetic("prop", n, n * deg, 10, 4).instantiate(seed);
        let feats = vec![10usize, 6, 4];
        let weights = GcnWeights::init(&feats, seed ^ 7);
        let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
        let mask = vec![true; ds.n()];
        let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
        let (serial_grads, _) = serial::backward(&ds.adj_norm, &serial_h, &weights, &lg);
        let plan = Plan::from_id(id, 2, r_a);
        let (adj, features, labels) =
            (ds.adj_norm.clone(), ds.features.clone(), ds.labels.clone());
        let w2 = weights.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let topo = Topology::new(&adj, r_a, ctx);
            let mut ops = OpCounters::default();
            let input = RankInput::for_plan(&features, &topo, &plan, &w2, ctx);
            let mut art = rdm_forward(ctx, &topo, &input, &w2, &plan, 1, &mut ops);
            let logits = art.logits_row();
            let mask = vec![true; labels.len()];
            let spec = LossSpec {
                labels: &labels,
                mask: &mask,
                num_classes: 4,
            };
            let (_, lgrad) = softmax_xent(logits, &spec, ctx);
            rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops)
                .weight_grads
        });
        for grads in &out.results {
            for (l, (got, expect)) in grads.iter().zip(&serial_grads).enumerate() {
                prop_assert!(
                    allclose(got, expect, 2e-3),
                    "p={} r_a={} id={} layer {} gradient mismatch",
                    p, r_a, id, l + 1
                );
            }
        }
    }

    /// Redistribution traffic never exceeds the analytical model, for any
    /// ordering and any graph (the model is an upper bound; exact without
    /// the N.M. penalty).
    #[test]
    fn traffic_never_exceeds_model(
        id in 0usize..16,
        n in 24usize..64,
        seed in 0u64..200,
    ) {
        let p = 4;
        let ds = DatasetSpec::synthetic("prop2", n, n * 5, 8, 4).instantiate(seed);
        let feats = vec![8usize, 6, 4];
        let weights = GcnWeights::init(&feats, 3);
        let plan = Plan::from_id(id, 2, p);
        let shape = rdm_model::GnnShape {
            n: ds.n(),
            nnz: ds.adj_norm.nnz(),
            feats: feats.clone(),
        };
        let model = rdm_model::cost::config_cost(&shape, &plan.config, p, p);
        let (adj, features, labels) =
            (ds.adj_norm.clone(), ds.features.clone(), ds.labels.clone());
        let out = Cluster::new(p).run(move |ctx| {
            let topo = Topology::full(&adj, ctx);
            let mut ops = OpCounters::default();
            let input = RankInput::for_plan(&features, &topo, &plan, &weights, ctx);
            let mut art = rdm_forward(ctx, &topo, &input, &weights, &plan, 1, &mut ops);
            let logits = art.logits_row();
            let mask = vec![true; labels.len()];
            let spec = LossSpec {
                labels: &labels,
                mask: &mask,
                num_classes: 4,
            };
            let (_, lgrad) = softmax_xent(logits, &spec, ctx);
            let _ = rdm_backward(ctx, &topo, &mut art, &weights, lgrad, 1, &mut ops);
        });
        let measured: u64 = out
            .stats
            .iter()
            .map(|s| s.bytes(CollectiveKind::Redistribute))
            .sum();
        // Partition rounding can add at most one row per chunk per
        // redistribution; bound generously.
        let slack = (16 * 8 * 4) as f64;
        prop_assert!(
            (measured as f64) <= model.comm_elems * 4.0 + slack,
            "id={} measured {} above model {}",
            id, measured, model.comm_elems * 4.0
        );
    }

    /// Tile scatter/gather is the identity for any grid.
    #[test]
    fn tile_scatter_gather_roundtrip(
        (p, r_a) in grid_strategy(),
        n in 8usize..40,
        f in 2usize..12,
        seed in 0u64..200,
    ) {
        let global = rdm_dense::Mat::random(n, f, 1.0, seed);
        let adj = rdm_sparse::Csr::identity(n);
        let g2 = global.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let topo = Topology::new(&adj, r_a, ctx);
            let tile = topo.scatter_tile(&g2, ctx);
            topo.gather_tile(&tile, ctx, Other)
        });
        for got in &out.results {
            prop_assert_eq!(got, &global);
        }
    }

    /// The `P/R_A × R_A` grid algebra: row groups partition the ranks
    /// into contiguous panels, column groups stride across panels, the
    /// two intersect in exactly this rank, and the panel row ranges tile
    /// `[0, n)` in agreement with the global per-rank slicing.
    #[test]
    fn panel_grid_partitions_ranks_and_rows(
        (p, r_a) in grid_strategy(),
        n in 1usize..60,
    ) {
        use rdm_core::ops::PanelGrid;
        let grid = PanelGrid::new(p, r_a);
        prop_assert_eq!(grid.panels() * r_a, p);
        for rank in 0..p {
            let rg = grid.row_group(rank);
            let cg = grid.col_group(rank);
            prop_assert_eq!(rg.len(), r_a);
            prop_assert_eq!(cg.len(), grid.panels());
            // Every row-group member shares the panel and the group.
            for &m in &rg {
                prop_assert_eq!(grid.panel_of(m), grid.panel_of(rank));
                prop_assert_eq!(grid.row_group(m), rg.clone());
            }
            // Column groups hold one member per panel, at this rank's
            // group position.
            for (i, &m) in cg.iter().enumerate() {
                prop_assert_eq!(grid.panel_of(m), i);
                prop_assert_eq!(m % r_a, rank % r_a);
            }
            let both: Vec<usize> =
                rg.iter().copied().filter(|m| cg.contains(m)).collect();
            prop_assert_eq!(both, vec![rank]);
        }
        // Panel row ranges are contiguous, tile [0, n), and agree with
        // the union of their members' balanced slices.
        let mut next = 0usize;
        for panel in 0..grid.panels() {
            let r = grid.panel_rows(n, panel);
            prop_assert_eq!(r.start, next);
            let member_rows: usize = (panel * r_a..(panel + 1) * r_a)
                .map(|rk| rdm_dense::part_range(n, p, rk).len())
                .sum();
            prop_assert_eq!(r.end - r.start, member_rows);
            next = r.end;
        }
        prop_assert_eq!(next, n);
    }

    /// Tile→row→tile conversions restore the original tile exactly.
    #[test]
    fn tile_row_conversions_roundtrip(
        (p, r_a) in grid_strategy(),
        n in 8usize..40,
        f in 2usize..12,
        seed in 0u64..200,
    ) {
        let global = rdm_dense::Mat::random(n, f, 1.0, seed);
        let adj = rdm_sparse::Csr::identity(n);
        let out = Cluster::new(p).run(move |ctx| {
            let topo = Topology::new(&adj, r_a, ctx);
            let tile = topo.scatter_tile(&global, ctx);
            let convert = |m: &rdm_dense::Mat, to| topo.convert(m, to, ctx, Other, 1, |_, _| {});
            let back = convert(&convert(&tile.local, Form::Row), Form::Col);
            (tile.local, back)
        });
        for (orig, back) in &out.results {
            prop_assert_eq!(orig, back);
        }
    }
}
