//! A DGCL-like vertex-partitioned baseline (Cai et al., EuroSys'21).
//!
//! DGCL itself is a communication-planning library over a METIS-partitioned
//! graph: every rank owns a vertex set, stores the adjacency rows of its
//! vertices, and — per layer, per pass — fetches the *halo* (features of
//! remote neighbors) from their owners. Its traffic is the number of cut
//! edges' distinct endpoints × feature width, which **grows with P** as
//! partitions fragment; that scaling contrast is what the paper's Figs.
//! 8–11 exercise.
//!
//! Here it is the aggregation of the row-sliced epoch the baselines share
//! ([`crate::trainer`]): the graph is relabelled so each partition is one
//! balanced row slice, and `Â · X` is a halo exchange followed by one local
//! SpMM; everything else is CAGNET's epoch.
//!
//! Substitutions: METIS → [`rdm_graph::greedy_bfs_partition`]; NVLink-aware
//! transfer planning → direct owner-to-requester messages (the volume, not
//! the routing, is what the comparison needs).

use crate::dist::{Dist, DistMat};
use crate::ops::OpCounters;
use crate::plan::Resolution;
use crate::trainer::{Model, RowAggregation, RowTrainer, Targets, TrainerConfig};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::{part_range, Mat};
use rdm_graph::dataset::{Dataset, Split};
use rdm_graph::greedy_bfs_partition;
use rdm_sparse::{Coo, Csr};

/// DGCL's aggregation `Â · X`: exchange halo rows of the row-sliced `X`,
/// then one local SpMM against the ext-indexed panel.
pub(crate) struct Halo {
    /// My adjacency rows with columns remapped to `[0, local + halo)`:
    /// index `< local` is a local vertex, `local + k` is the `k`-th halo
    /// entry.
    panel_ext: Csr,
    /// Halo request lists: `need[s]` = local row indices *on rank `s`* of
    /// the vertices I must receive from `s` each exchange (empty for `me`).
    need: Vec<Vec<u32>>,
    /// What I must send: `serve[d]` = local row indices of my vertices that
    /// rank `d` needs.
    serve: Vec<Vec<u32>>,
    n: usize,
}

/// Compute the vertex permutation that makes each partition contiguous and
/// aligned with the balanced `part_range` slicing: vertices sorted by
/// (owner, id). Returns `perm` with `perm[new] = old`.
fn partition_permutation(owner: &[u32], p: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..owner.len() as u32).collect();
    perm.sort_by_key(|&v| (owner[v as usize], v));
    // The greedy partitioner produces exactly balanced parts, so the
    // sorted order aligns with part_range slicing.
    let mut check = 0;
    for r in 0..p {
        let range = part_range(owner.len(), p, r);
        for i in range {
            assert_eq!(
                owner[perm[i] as usize] as usize, r,
                "partition sizes must match the balanced slicing"
            );
            check += 1;
        }
    }
    assert_eq!(check, owner.len());
    perm
}

/// Partition the graph, relabel it so each partition is one balanced row
/// slice, and build the halo exchange lists. All ranks compute the same
/// deterministic partition, so no setup communication is needed.
pub(crate) fn setup(
    ds: &Dataset,
    cfg: &TrainerConfig,
    _: &Resolution,
    ctx: &RankCtx,
) -> RowTrainer<Halo> {
    let (p, me, n) = (ctx.size(), ctx.rank(), ds.n());
    let owner = greedy_bfs_partition(&ds.adj_norm, p, cfg.seed);
    let perm = partition_permutation(&owner, p);
    // Vertex `v` of the relabelled graph is vertex `perm[v]` of `ds`.
    let old = |v: usize| perm[v] as usize;
    let labels = (0..n).map(|v| ds.labels[old(v)]).collect();
    let split: Vec<Split> = (0..n).map(|v| ds.split[old(v)]).collect();
    let rows = part_range(n, p, me);
    let mut input = Mat::zeros(rows.len(), ds.features.cols());
    for (i, v) in rows.enumerate() {
        input.row_mut(i).copy_from_slice(ds.features.row(old(v)));
    }
    RowTrainer {
        agg: Halo::new(&ds.adj_norm.permute_symmetric(&perm), ctx),
        input: DistMat::from_row_slice(input, n),
        model: Model::new(ds, cfg),
        targets: Targets::new(labels, &split, ds.spec.labels),
    }
}

impl Halo {
    /// My rows of the relabelled adjacency `adj` and the halo structure.
    fn new(adj: &Csr, ctx: &RankCtx) -> Self {
        let (p, me, n) = (ctx.size(), ctx.rank(), adj.rows());
        let my_range = part_range(n, p, me);
        let local = my_range.len();
        let panel = adj.row_panel(my_range.start, my_range.end);
        let owner_of = |v: usize| -> usize {
            // part_range boundaries are monotone; binary search the owner.
            (0..p).find(|&r| part_range(n, p, r).contains(&v)).unwrap()
        };
        // Distinct remote vertices appearing in my panel, grouped by owner.
        let mut halo_of: Vec<Vec<u32>> = vec![Vec::new(); p];
        {
            let mut seen = vec![false; n];
            for idx in panel.indices() {
                let v = *idx as usize;
                if !my_range.contains(&v) && !seen[v] {
                    seen[v] = true;
                    halo_of[owner_of(v)].push(v as u32);
                }
            }
            for h in &mut halo_of {
                h.sort_unstable();
            }
        }
        // Global→ext remap: local vertices to 0..local, halo entries after.
        let mut remap = vec![u32::MAX; n];
        for (i, v) in my_range.clone().enumerate() {
            remap[v] = i as u32;
        }
        let mut ext = local as u32;
        for h in &halo_of {
            for &v in h {
                remap[v as usize] = ext;
                ext += 1;
            }
        }
        // Rebuild my panel against the ext indexing.
        let mut coo = Coo::new(local, ext as usize);
        for r in 0..local {
            let (cs, vs) = panel.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                coo.push(r as u32, remap[c as usize], v);
            }
        }
        let panel_ext = coo.to_csr();
        // need[s]: indices of the halo vertices *within rank s's range*.
        let need: Vec<Vec<u32>> = halo_of
            .iter()
            .enumerate()
            .map(|(s, h)| {
                let s0 = part_range(n, p, s).start as u32;
                h.iter().map(|&v| v - s0).collect()
            })
            .collect();
        // serve[d]: recompute rank d's needs from the shared adjacency
        // (deterministic, so both sides agree without communication).
        let mut serve: Vec<Vec<u32>> = vec![Vec::new(); p];
        #[allow(clippy::needless_range_loop)] // d is a rank id
        for d in 0..p {
            if d == me {
                continue;
            }
            let d_range = part_range(n, p, d);
            let d_panel = adj.row_panel(d_range.start, d_range.end);
            let mut seen = vec![false; my_range.len()];
            let mut list = Vec::new();
            for idx in d_panel.indices() {
                let v = *idx as usize;
                if my_range.contains(&v) && !seen[v - my_range.start] {
                    seen[v - my_range.start] = true;
                    list.push((v - my_range.start) as u32);
                }
            }
            list.sort_unstable();
            serve[d] = list;
        }
        Halo {
            panel_ext,
            need,
            serve,
            n,
        }
    }
}

impl RowAggregation for Halo {
    fn aggregate(&self, x: &DistMat, ctx: &RankCtx, ops: &mut OpCounters) -> DistMat {
        assert_eq!(x.dist, Dist::Row);
        let p = ctx.size();
        let me = ctx.rank();
        let f = x.cols;
        // Send requested rows to each peer.
        for d in 0..p {
            if d == me || self.serve[d].is_empty() {
                continue;
            }
            let mut block = Mat::zeros(self.serve[d].len(), f);
            for (i, &r) in self.serve[d].iter().enumerate() {
                block.row_mut(i).copy_from_slice(x.local.row(r as usize));
            }
            ctx.send(d, block, CollectiveKind::Halo);
        }
        // Assemble the extended input: local rows then halo rows in owner
        // order.
        let halo_total: usize = self.need.iter().map(Vec::len).sum();
        let mut x_ext = Mat::zeros(x.local.rows() + halo_total, f);
        x_ext.set_block(0, 0, &x.local);
        let mut at = x.local.rows();
        for (s, list) in self.need.iter().enumerate() {
            if s == me || list.is_empty() {
                continue;
            }
            let block = ctx.recv(s);
            assert_eq!(block.rows(), list.len(), "halo block size mismatch");
            x_ext.set_block(at, 0, &block);
            at += block.rows();
        }
        let local = rdm_sparse::spmm(&self.panel_ext, &x_ext);
        ops.spmm_fma += self.panel_ext.nnz() as f64 * f as f64;
        DistMat {
            dist: Dist::Row,
            rows: self.n,
            cols: f,
            local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::on_ranks;
    use rdm_graph::dataset::toy;
    use rdm_graph::DatasetSpec;

    /// Rank 0's losses over `epochs` epochs of `cfg`, and the bytes of
    /// `kind` the whole run moved.
    fn run(
        ds: &Dataset,
        cfg: TrainerConfig,
        epochs: usize,
        kind: CollectiveKind,
    ) -> (Vec<f32>, u64) {
        let out = on_ranks(ds, &cfg.hidden(8).seed(5), |t, ctx| {
            let mut ops = OpCounters::default();
            (0..epochs)
                .map(|_| t.epoch(ctx, &mut ops).0)
                .collect::<Vec<f32>>()
        });
        let bytes = out.stats.iter().map(|s| s.bytes(kind)).sum();
        (out.results[0].clone(), bytes)
    }

    #[test]
    fn dgcl_loss_matches_cagnet_loss_sequence() {
        // Same model, same data, different distribution strategy and a
        // vertex relabeling: per-epoch losses must agree.
        let ds = toy(60, 3);
        let (dgcl, _) = run(&ds, TrainerConfig::dgcl(4), 3, CollectiveKind::Halo);
        let (cag, _) = run(
            &ds,
            TrainerConfig::cagnet_1d(4),
            3,
            CollectiveKind::Broadcast,
        );
        for (a, b) in dgcl.iter().zip(&cag) {
            assert!((a - b).abs() < 1e-3, "dgcl {a} vs cagnet {b}");
        }
    }

    #[test]
    fn dgcl_halo_volume_is_below_cagnet_broadcast() {
        // On a community graph the cut is small, so DGCL must move far
        // less than CAGNET's full broadcast.
        let ds = DatasetSpec::synthetic("comm", 240, 2400, 16, 4).instantiate(7);
        let (_, halo) = run(&ds, TrainerConfig::dgcl(4), 1, CollectiveKind::Halo);
        let (_, bcast) = run(
            &ds,
            TrainerConfig::cagnet_1d(4),
            1,
            CollectiveKind::Broadcast,
        );
        assert!(
            halo < bcast,
            "halo volume {halo} not below broadcast {bcast}"
        );
    }

    #[test]
    fn dgcl_volume_grows_with_p() {
        // Fragmenting the partition increases the cut and hence traffic —
        // the scaling weakness RDM exploits.
        let ds = toy(240, 9);
        let vol = |p| run(&ds, TrainerConfig::dgcl(p), 1, CollectiveKind::Halo).1;
        let v2 = vol(2);
        let v8 = vol(8);
        assert!(v8 > v2, "halo volume at P=8 ({v8}) not above P=2 ({v2})");
    }

    #[test]
    fn partition_permutation_is_a_permutation() {
        let ds = toy(100, 2);
        let owner = greedy_bfs_partition(&ds.adj_norm, 4, 3);
        let perm = partition_permutation(&owner, 4);
        let mut seen = [false; 100];
        for &v in &perm {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }
}
