//! The CAGNET baselines (Tripathy, Yelick, Buluç — SC'20), re-implemented
//! from the algorithm descriptions in §II and §III-E of the RDM paper.
//!
//! Both train through the row-sliced epoch the baselines share
//! ([`crate::trainer`]). CAGNET's own part is the aggregation, run on the
//! RDM [`Topology`] at `R_A = c` — the row-panel SpMM of Fig. 6:
//!
//! * **1.5D** with replication factor `c`: the row panels of `A` are
//!   replicated `c` times and dense operands are 2-D tiled (`P/c` panels ×
//!   `c` column slices). A group redistribution (`(c-1)/c·N·f`) turns the
//!   row-sliced input into tiles, the tiles are broadcast within column
//!   groups (`(P/c - 1)·N·f` per product) and multiplied by the panel, and
//!   a second group redistribution restores row slicing for the GEMM —
//!   the instantiation described in §III-E, which reduces traffic by more
//!   than half for `c = 2`.
//! * **1D** is 1.5D at `c = 1` (Tripathy et al., arXiv 2005.03300): the
//!   row group is this rank alone, so the tile *is* the row slice and
//!   nothing is converted, and the column group is every rank, so each
//!   product broadcasts every rank's activation block — `(P-1)·N·f`
//!   elements (§II, Fig. 1).
//!
//! GEMMs are local (weights replicated); the order is fixed SpMM-first in
//! both passes.

use crate::dist::DistMat;
use crate::ops::{OpCounters, Topology};
use crate::trainer::{Algo, Model, RowAggregation, RowTrainer, Targets, TrainerConfig};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_graph::dataset::Dataset;

impl RowAggregation for Topology<'_> {
    fn aggregate(&self, x: &DistMat, ctx: &RankCtx, ops: &mut OpCounters) -> DistMat {
        if self.grid.r_a == 1 {
            let local = self.spmm_tile(&x.local, false, ctx, ops);
            return DistMat::from_row_slice(local, self.n);
        }
        const KIND: CollectiveKind = CollectiveKind::Redistribute;
        let tiles = self.spmm(&self.row_to_tile(x, ctx, KIND), false, ctx, ops);
        self.tile_to_row(&tiles, ctx, KIND)
    }
}

/// CAGNET-1D, or CAGNET-1.5D at `cfg.algo`'s `c`, scored against the
/// run's `targets`.
pub(crate) fn setup<'a>(
    ds: &'a Dataset,
    cfg: &TrainerConfig,
    targets: &'a Targets,
    ctx: &RankCtx,
) -> RowTrainer<'a, Topology<'a>> {
    let c = match cfg.algo {
        Algo::Cagnet15D { c } => c,
        _ => 1,
    };
    RowTrainer {
        agg: Topology::new(&ds.adj_norm, c, ctx),
        input: DistMat::scatter_rows(&ds.features, ctx.size(), ctx.rank()),
        model: Model::new(ds, cfg),
        targets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::gcn::{serial, GcnWeights};
    use crate::loss::serial as loss_serial;
    use crate::trainer::{on_ranks, split_mask};
    use rdm_dense::allclose;
    use rdm_graph::dataset::{toy, Split};

    /// `epochs` epochs of `cfg` on every rank: each rank's losses.
    fn losses(ds: &Dataset, cfg: TrainerConfig, epochs: usize) -> Vec<Vec<f32>> {
        on_ranks(ds, &cfg.hidden(8), |t, ctx| {
            let mut ops = OpCounters::default();
            (0..epochs)
                .map(|_| t.epoch(ctx, &mut ops).expect("scored").loss)
                .collect()
        })
        .results
    }

    /// Total bytes of `kinds` one epoch of `cfg` moves.
    fn volume(ds: &Dataset, cfg: TrainerConfig, kinds: &[CollectiveKind]) -> u64 {
        let out = on_ranks(ds, &cfg.hidden(8).seed(5), |t, ctx| {
            t.epoch(ctx, &mut OpCounters::default());
        });
        let per_rank = |s: &rdm_comm::CommStats| kinds.iter().map(|&k| s.bytes(k)).sum::<u64>();
        out.stats.iter().map(per_rank).sum()
    }

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
        let train_mask = split_mask(&ds.split, Split::Train);
        let mut sw = GcnWeights::init(&[16, 8, 4], 5);
        let mut sadam = Adam::new(0.01, &sw.shapes());
        let mut serial_losses = Vec::new();
        for _ in 0..3 {
            serial_losses.push(serial_epoch(&ds, &mut sw, &mut sadam, &train_mask));
        }
        for losses in &losses(&ds, TrainerConfig::cagnet_1d(4).seed(5), 3) {
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
        let measured = volume(
            &ds,
            TrainerConfig::cagnet_1d(p),
            &[CollectiveKind::Broadcast],
        );
        let n = 64;
        let (f_in, f_h, f_out) = (16, 8, 4);
        let expect = (p - 1) * n * (f_in + 2 * f_h + f_out) * 4;
        assert_eq!(measured as usize, expect);
        // And no redistribution traffic at all in 1D.
        let redistributed = volume(
            &ds,
            TrainerConfig::cagnet_1d(p),
            &[CollectiveKind::Redistribute],
        );
        assert_eq!(redistributed, 0);
    }

    #[test]
    fn cagnet_15d_matches_1d_numerically() {
        let ds = toy(48, 6);
        let last = |cfg: TrainerConfig| losses(&ds, cfg.seed(9), 3)[0][2];
        let l1 = last(TrainerConfig::cagnet_1d(4));
        let l15 = last(TrainerConfig::cagnet(4));
        assert!((l1 - l15).abs() < 1e-3, "1D {l1} vs 1.5D {l15}");
    }

    #[test]
    fn cagnet_15d_moves_less_than_1d() {
        // Per aggregate at P=8, c=2: 1D moves 7·N·f; 1.5D moves
        // (P/c-1)·N·f + 2·(c-1)/c·N·f = 4·N·f — "less than half" (§III-E).
        let ds = toy(64, 7);
        let kinds = [CollectiveKind::Broadcast, CollectiveKind::Redistribute];
        let v1 = volume(&ds, TrainerConfig::cagnet_1d(8), &kinds);
        let v15 = volume(&ds, TrainerConfig::cagnet(8), &kinds);
        assert!(
            (v15 as f64) < 0.6 * v1 as f64,
            "1.5D volume {v15} not under 60% of 1D {v1}"
        );
    }

    #[test]
    fn weights_stay_identical_across_ranks() {
        let ds = toy(40, 8);
        let cfg = TrainerConfig::cagnet_1d(3).hidden(8).seed(5);
        let out = on_ranks(&ds, &cfg, |t, ctx| {
            let mut ops = OpCounters::default();
            for _ in 0..2 {
                t.epoch(ctx, &mut ops);
            }
            t.weights().w.clone()
        });
        for w in &out.results[1..] {
            for (a, b) in w.iter().zip(&out.results[0]) {
                assert!(allclose(a, b, 1e-6), "weights diverged across ranks");
            }
        }
    }
}
