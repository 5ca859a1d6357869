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
//! SpMM; everything else is CAGNET's epoch. As DGCL runs METIS offline, the
//! graph is partitioned and relabelled once per run (`Partition`), and
//! every rank's halo lists are found in the same pass over it: a rank's
//! set-up slices its rows and borrows the lists.
//!
//! Substitutions: METIS → [`rdm_graph::greedy_bfs_partition`]; NVLink-aware
//! transfer planning → direct owner-to-requester messages (the volume, not
//! the routing, is what the comparison needs).

use crate::dist::{Dist, DistMat};
use crate::ops::OpCounters;
use crate::trainer::{Model, RowAggregation, RowTrainer, Targets, TrainerConfig};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::{part_range, Mat};
use rdm_graph::dataset::{Dataset, Split};
use rdm_graph::greedy_bfs_partition;
use rdm_sparse::{Coo, Csr};

/// DGCL's aggregation `Â · X`: exchange halo rows of the row-sliced `X`,
/// then one local SpMM against the ext-indexed panel.
pub(crate) struct Halo<'a> {
    /// My adjacency rows with columns remapped to `[0, local + halo)`:
    /// index `< local` is a local vertex, `local + k` is the `k`-th halo
    /// entry.
    panel_ext: Csr,
    /// Every rank's halo lists, borrowed from the partition: `need[r][s]`
    /// holds the local row indices *on rank `s`* of the vertices rank `r`
    /// receives from `s` each exchange. I receive `need[me][s]` from `s` and
    /// send `need[d][me]` to `d`.
    need: &'a [Vec<Vec<u32>>],
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
    for r in 0..p {
        let mut range = part_range(owner.len(), p, r);
        let aligned = range.all(|i| owner[perm[i] as usize] as usize == r);
        assert!(aligned, "partition sizes must match the balanced slicing");
    }
    perm
}

/// The graph every DGCL rank reads, built once per run: partitioned into
/// `P` parts and relabelled so part `r` is rank `r`'s balanced row slice.
pub(crate) struct Partition {
    /// `ds`'s adjacency relabelled: vertex `v` is vertex `perm[v]` of `ds`.
    adj: Csr,
    perm: Vec<u32>,
    /// The relabelled labels and split.
    targets: Targets,
    /// Every rank's halo lists ([`Halo::need`]).
    need: Vec<Vec<Vec<u32>>>,
}

impl Partition {
    /// `ds` partitioned for `cfg`'s ranks: deterministic, so no rank
    /// communicates to set up.
    pub(crate) fn new(ds: &Dataset, cfg: &TrainerConfig) -> Self {
        let owner = greedy_bfs_partition(&ds.adj_norm, cfg.p, cfg.seed);
        let perm = partition_permutation(&owner, cfg.p);
        let labels = perm.iter().map(|&v| ds.labels[v as usize]).collect();
        let split: Vec<Split> = perm.iter().map(|&v| ds.split[v as usize]).collect();
        let adj = ds.adj_norm.permute_symmetric(&perm);
        Partition {
            need: halo_lists(&adj, cfg.p),
            adj,
            targets: Targets::new(labels, &split, ds.spec.labels),
            perm,
        }
    }
}

/// Every rank's halo lists over `adj` row-sliced `p` ways, in one pass
/// over its nonzeros: `need[r][s]` holds, sorted and distinct, the
/// vertices of rank `s`'s slice that rank `r`'s rows reach, indexed within
/// that slice (deterministic, so both sides of every exchange agree
/// without communication). Empty for `s == r`.
fn halo_lists(adj: &Csr, p: usize) -> Vec<Vec<Vec<u32>>> {
    let n = adj.rows();
    let starts: Vec<usize> = (0..p).map(|r| part_range(n, p, r).start).collect();
    let mut need = vec![vec![Vec::new(); p]; p];
    for (r, lists) in need.iter_mut().enumerate() {
        for v in part_range(n, p, r) {
            for &c in adj.row(v).0 {
                let c = c as usize;
                let s = starts.partition_point(|&start| start <= c) - 1;
                if s != r {
                    lists[s].push((c - starts[s]) as u32);
                }
            }
        }
        for list in lists {
            list.sort_unstable();
            list.dedup();
        }
    }
    need
}

/// This rank's DGCL trainer: its row slice of the relabelled features and
/// the halo structure of its rows of `partition`.
pub(crate) fn setup<'a>(
    ds: &Dataset,
    cfg: &TrainerConfig,
    partition: &'a Partition,
    ctx: &RankCtx,
) -> RowTrainer<'a, Halo<'a>> {
    let n = ds.n();
    let rows = part_range(n, ctx.size(), ctx.rank());
    let mut input = Mat::zeros(rows.len(), ds.features.cols());
    for (i, v) in rows.enumerate() {
        let old = partition.perm[v] as usize;
        input.row_mut(i).copy_from_slice(ds.features.row(old));
    }
    RowTrainer {
        agg: Halo::new(partition, ctx),
        input: DistMat::from_row_slice(input, n),
        model: Model::new(ds, cfg),
        targets: &partition.targets,
    }
}

impl<'a> Halo<'a> {
    /// My rows of `partition`'s adjacency, remapped against my halo, read
    /// in place with the partition's halo lists.
    fn new(partition: &'a Partition, ctx: &RankCtx) -> Self {
        let (p, me, adj) = (ctx.size(), ctx.rank(), &partition.adj);
        let (n, need) = (adj.rows(), &partition.need);
        let (mine, range) = (part_range(n, p, me), |r| part_range(n, p, r));
        // Global→ext remap: my vertices to 0..local, then the halo, grouped
        // by owner in rank order.
        let mut remap = vec![u32::MAX; n];
        let halo = (need[me].iter().enumerate())
            .flat_map(|(s, h)| h.iter().map(move |&i| range(s).start + i as usize));
        for (i, v) in mine.clone().chain(halo).enumerate() {
            remap[v] = i as u32;
        }
        let ext = mine.len() + need[me].iter().map(Vec::len).sum::<usize>();
        // Rebuild my rows against the ext indexing.
        let mut coo = Coo::new(mine.len(), ext);
        for (r, v) in mine.enumerate() {
            let (cs, vs) = adj.row(v);
            for (&c, &x) in cs.iter().zip(vs) {
                coo.push(r as u32, remap[c as usize], x);
            }
        }
        Halo {
            panel_ext: coo.to_csr(),
            need,
            n,
        }
    }
}

impl RowAggregation for Halo<'_> {
    fn aggregate(&self, x: &DistMat, ctx: &RankCtx, ops: &mut OpCounters) -> DistMat {
        assert_eq!(x.dist, Dist::Row);
        let p = ctx.size();
        let me = ctx.rank();
        let f = x.cols;
        // Send requested rows to each peer.
        for d in 0..p {
            let serve = &self.need[d][me];
            if d == me || serve.is_empty() {
                continue;
            }
            let mut block = Mat::zeros(serve.len(), f);
            for (i, &r) in serve.iter().enumerate() {
                block.row_mut(i).copy_from_slice(x.local.row(r as usize));
            }
            ctx.send(d, block, CollectiveKind::Halo);
        }
        // Assemble the extended input: local rows then halo rows in owner
        // order.
        let halo_total: usize = self.need[me].iter().map(Vec::len).sum();
        let mut x_ext = Mat::zeros(x.local.rows() + halo_total, f);
        x_ext.set_block(0, 0, &x.local);
        let mut at = x.local.rows();
        for (s, list) in self.need[me].iter().enumerate() {
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
                .map(|_| t.epoch(ctx, &mut ops).expect("scored").loss)
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

    /// The one-pass halo lists are each rank's own scan: the distinct
    /// vertices of every peer's slice that its rows reach, sorted.
    #[test]
    fn one_pass_halo_lists_match_each_ranks_scan() {
        let ds = toy(90, 4);
        for p in [1, 2, 3, 4, 7] {
            let cfg = TrainerConfig::dgcl(p);
            let part = Partition::new(&ds, &cfg);
            let n = part.adj.rows();
            for r in 0..p {
                for s in 0..p {
                    let of = part_range(n, p, s);
                    let mut want: Vec<u32> = (part_range(n, p, r))
                        .flat_map(|v| part.adj.row(v).0.iter().map(|&c| c as usize))
                        .filter(|c| r != s && of.contains(c))
                        .map(|c| (c - of.start) as u32)
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(part.need[r][s], want, "p {p}: rank {r} from rank {s}");
                }
            }
        }
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
