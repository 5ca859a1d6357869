//! The CAGNET baselines (Tripathy, Yelick, Buluç — SC'20), re-implemented
//! from the algorithm descriptions in §II and §III-E of the RDM paper.
//!
//! * **1D**: adjacency and activations are row-partitioned; every SpMM
//!   broadcasts each rank's activation block to all peers, moving
//!   `(P-1)·N·f` elements per product. GEMMs are local (weights
//!   replicated). The order is fixed SpMM-first in both passes.
//! * **1.5D**: the row panels of `A` are replicated `c` times; dense
//!   operands are 2-D tiled (`P/c` panels × `c` column slices). Broadcasts
//!   happen within column groups (`(P/c - 1)·N·f` per product) and a group
//!   redistribution (`(c-1)/c·N·f`) restores row slicing for the GEMM —
//!   the instantiation described in §III-E, which reduces traffic by more
//!   than half for `c = 2`.

use crate::adam::Adam;
use crate::dist::{Dist, DistMat};
use crate::gcn::GcnWeights;
use crate::loss::{accuracy, softmax_xent, LossSpec};
use crate::ops::{bcast_spmm, dist_gemm, panel_spmm, weight_grad, OpCounters, PanelGrid};
use rdm_comm::{CollectiveKind, Form, RankCtx, Redistribution, Wire};
use rdm_dense::{part_range, relu, relu_backward, Mat};
use rdm_graph::dataset::{Dataset, Split};
use rdm_sparse::Csr;

/// Which CAGNET algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CagnetVariant {
    OneD,
    /// 1.5D with replication factor `c` (must divide `P`).
    OneFiveD(usize),
}

/// Per-rank training state for the CAGNET baselines.
pub struct CagnetTrainer {
    variant: CagnetVariant,
    /// 1D: my row panel of `Â`, split into per-source column blocks.
    panel_blocks: Vec<Csr>,
    /// 1.5D: my full row panel of `Â` (grid layout), plus the grid.
    panel: Csr,
    grid: PanelGrid,
    /// My row slice of the input features (1D layout).
    input: DistMat,
    pub weights: GcnWeights,
    adam: Adam,
    labels: Vec<u32>,
    train_mask: Vec<bool>,
    test_mask: Vec<bool>,
    num_classes: usize,
    n: usize,
}

impl CagnetTrainer {
    /// Build per-rank state. Deterministic given the seed, identical
    /// weights on every rank.
    pub fn setup(
        ds: &Dataset,
        hidden: usize,
        layers: usize,
        lr: f32,
        seed: u64,
        variant: CagnetVariant,
        ctx: &RankCtx,
    ) -> Self {
        let p = ctx.size();
        let n = ds.n();
        let me = ctx.rank();
        let c = match variant {
            CagnetVariant::OneD => 1,
            CagnetVariant::OneFiveD(c) => c,
        };
        let grid = PanelGrid::new(p, c);
        // 1D panel: my N/P rows, split by source rank for the broadcast
        // loop. 1.5D panel: my panel-group's rows.
        let rows_1d = part_range(n, p, me);
        let panel_1d = ds.adj_norm.row_panel(rows_1d.start, rows_1d.end);
        let panel_blocks = (0..p)
            .map(|s| {
                let cb = part_range(n, p, s);
                panel_1d.col_block(cb.start, cb.end)
            })
            .collect();
        let prows = grid.panel_rows(n, grid.panel_of(me));
        let panel = ds.adj_norm.row_panel(prows.start, prows.end);
        let weights = GcnWeights::init(&ds.shape_layers(hidden, layers).feats, seed);
        let adam = Adam::new(lr, &weights.shapes());
        CagnetTrainer {
            variant,
            panel_blocks,
            panel,
            grid,
            input: DistMat::scatter_rows(&ds.features, p, me),
            weights,
            adam,
            labels: ds.labels.clone(),
            train_mask: ds.split.iter().map(|&s| s == Split::Train).collect(),
            test_mask: ds.split.iter().map(|&s| s == Split::Test).collect(),
            num_classes: ds.spec.labels,
            n,
        }
    }

    /// The aggregation product `Â · X` for a row-sliced `X`, by the
    /// variant's algorithm. Output is row-sliced.
    fn aggregate(&self, x: &DistMat, ctx: &RankCtx, ops: &mut OpCounters) -> DistMat {
        match self.variant {
            CagnetVariant::OneD => bcast_spmm(&self.panel_blocks, x, ctx, ops),
            CagnetVariant::OneFiveD(_) => {
                let me = ctx.rank();
                let f = x.cols;
                // Group redistribution: P-way row slices → 2-D tiles
                // (my panel's rows × my f/c column slice).
                let to_tile = Redistribution {
                    group: &self.grid.row_group(me),
                    to: Form::Col,
                    wire: Wire::Dense,
                    chunks: 1,
                    kind: CollectiveKind::Redistribute,
                };
                let tile_local = ctx.redistribute(&to_tile, &x.local, |_, _| {});
                // Broadcast within the column group and multiply my panel.
                let out_tile =
                    panel_spmm(self.grid, &self.panel, None, &tile_local, self.n, ctx, ops);
                // 2-D tiles → P-way row slices for the GEMM.
                let to_row = Redistribution {
                    to: Form::Row,
                    ..to_tile
                };
                let out_local = ctx.redistribute(&to_row, &out_tile, |_, _| {});
                DistMat {
                    dist: Dist::Row,
                    rows: self.n,
                    cols: f,
                    local: out_local,
                }
            }
        }
    }

    /// One full-batch training epoch; returns (loss, train acc, test acc).
    pub fn epoch(&mut self, ctx: &RankCtx, ops: &mut OpCounters) -> (f32, f32, f32) {
        let layers = self.weights.layers();
        // Forward, everything row-sliced, SpMM-first per layer.
        let mut h: Vec<DistMat> = vec![self.input.clone()];
        for l in 1..=layers {
            let t = self.aggregate(&h[l - 1], ctx, ops);
            let mut z = dist_gemm(&t, &self.weights.w[l - 1], false, ops);
            if l < layers {
                z.local = relu(&z.local);
            }
            h.push(z);
        }
        let logits = h.last().unwrap();
        let spec = LossSpec {
            labels: &self.labels,
            mask: &self.train_mask,
            num_classes: self.num_classes,
        };
        let (loss, lg) = softmax_xent(logits, &spec, ctx);
        let train_acc = accuracy(logits, &self.labels, &self.train_mask, ctx);
        let test_acc = accuracy(logits, &self.labels, &self.test_mask, ctx);
        // Backward: SpMM-first, reusing Â·Gˡ for both the weight gradient
        // and the propagated gradient.
        let mut grads: Vec<Mat> = Vec::with_capacity(layers);
        let mut g = lg;
        for l in (1..=layers).rev() {
            let t = self.aggregate(&g, ctx, ops);
            grads.push(weight_grad(&h[l - 1], &t, ctx, ops));
            if l > 1 {
                let mut gp = dist_gemm(&t, &self.weights.w[l - 1], true, ops);
                gp.local = relu_backward(&gp.local, &h[l - 1].local);
                g = gp;
            }
        }
        grads.reverse();
        self.adam.step(&mut self.weights.w, &grads);
        (loss, train_acc, test_acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::serial;
    use crate::loss::serial as loss_serial;
    use rdm_comm::Cluster;
    use rdm_dense::allclose;
    use rdm_graph::dataset::toy;

    /// A serial training step to compare against: same math, no
    /// distribution.
    fn serial_epoch(
        ds: &Dataset,
        weights: &mut GcnWeights,
        adam: &mut Adam,
        train_mask: &[bool],
    ) -> f32 {
        let h = serial::forward(&ds.adj_norm, &ds.features, weights);
        let (loss, lg) = loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, train_mask);
        let (grads, _) = serial::backward(&ds.adj_norm, &h, weights, &lg);
        adam.step(&mut weights.w, &grads);
        loss
    }

    #[test]
    fn cagnet_1d_epoch_matches_serial_training() {
        let ds = toy(60, 3);
        let train_mask: Vec<bool> = ds.split.iter().map(|&s| s == Split::Train).collect();
        let mut sw = GcnWeights::init(&[16, 8, 4], 5);
        let mut sadam = Adam::new(0.01, &sw.shapes());
        let mut serial_losses = Vec::new();
        for _ in 0..3 {
            serial_losses.push(serial_epoch(&ds, &mut sw, &mut sadam, &train_mask));
        }
        let ds2 = ds.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let mut t = CagnetTrainer::setup(&ds2, 8, 2, 0.01, 5, CagnetVariant::OneD, ctx);
            let mut ops = OpCounters::default();
            (0..3)
                .map(|_| t.epoch(ctx, &mut ops).0)
                .collect::<Vec<f32>>()
        });
        for losses in &out.results {
            for (a, b) in losses.iter().zip(&serial_losses) {
                assert!((a - b).abs() < 1e-3, "losses {a} vs serial {b}");
            }
        }
    }

    #[test]
    fn cagnet_1d_broadcast_volume_matches_formula() {
        // Per §II: a 2-layer GCN epoch broadcasts matrices of width
        // f_in + 2f_h + f_out in total, each moving (P-1)·N·f elements.
        let ds = toy(64, 4);
        let p = 4;
        let ds2 = ds.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let mut t = CagnetTrainer::setup(&ds2, 8, 2, 0.01, 5, CagnetVariant::OneD, ctx);
            let mut ops = OpCounters::default();
            t.epoch(ctx, &mut ops);
        });
        let measured: u64 = out
            .stats
            .iter()
            .map(|s| s.bytes(CollectiveKind::Broadcast))
            .sum();
        let n = 64;
        let (f_in, f_h, f_out) = (16, 8, 4);
        let expect = (p - 1) * n * (f_in + 2 * f_h + f_out) * 4;
        assert_eq!(measured as usize, expect);
        // And no redistribution traffic at all in 1D.
        for st in &out.stats {
            assert_eq!(st.bytes(CollectiveKind::Redistribute), 0);
        }
    }

    #[test]
    fn cagnet_15d_matches_1d_numerically() {
        let ds = toy(48, 6);
        let run = |variant: CagnetVariant| {
            let ds = ds.clone();
            Cluster::new(4)
                .run(move |ctx| {
                    let mut t = CagnetTrainer::setup(&ds, 8, 2, 0.01, 9, variant, ctx);
                    let mut ops = OpCounters::default();
                    let mut last = 0.0;
                    for _ in 0..3 {
                        last = t.epoch(ctx, &mut ops).0;
                    }
                    last
                })
                .results[0]
        };
        let l1 = run(CagnetVariant::OneD);
        let l15 = run(CagnetVariant::OneFiveD(2));
        assert!((l1 - l15).abs() < 1e-3, "1D {l1} vs 1.5D {l15}");
    }

    #[test]
    fn cagnet_15d_moves_less_than_1d() {
        // Per aggregate at P=8, c=2: 1D moves 7·N·f; 1.5D moves
        // (P/c-1)·N·f + 2·(c-1)/c·N·f = 4·N·f — "less than half" (§III-E).
        let ds = toy(64, 7);
        let p = 8;
        let vol = |variant: CagnetVariant| {
            let ds = ds.clone();
            let out = Cluster::new(p).run(move |ctx| {
                let mut t = CagnetTrainer::setup(&ds, 8, 2, 0.01, 5, variant, ctx);
                let mut ops = OpCounters::default();
                t.epoch(ctx, &mut ops);
            });
            out.stats
                .iter()
                .map(|s| s.bytes(CollectiveKind::Broadcast) + s.bytes(CollectiveKind::Redistribute))
                .sum::<u64>()
        };
        let v1 = vol(CagnetVariant::OneD);
        let v15 = vol(CagnetVariant::OneFiveD(2));
        assert!(
            (v15 as f64) < 0.6 * v1 as f64,
            "1.5D volume {v15} not under 60% of 1D {v1}"
        );
    }

    #[test]
    fn weights_stay_identical_across_ranks() {
        let ds = toy(40, 8);
        let ds2 = ds.clone();
        let out = Cluster::new(3).run(move |ctx| {
            let mut t = CagnetTrainer::setup(&ds2, 8, 2, 0.01, 5, CagnetVariant::OneD, ctx);
            let mut ops = OpCounters::default();
            for _ in 0..2 {
                t.epoch(ctx, &mut ops);
            }
            t.weights.w.clone()
        });
        for w in &out.results[1..] {
            for (a, b) in w.iter().zip(&out.results[0]) {
                assert!(allclose(a, b, 1e-6), "weights diverged across ranks");
            }
        }
    }
}
