//! FLOP-counted distributed matrix primitives.
//!
//! Every kernel that the cost model prices goes through this module so
//! that per-rank FMA counts are measured, not estimated. Every aggregation
//! is one function, [`panel_spmm`] — the row-panel product of Fig. 6,
//! whose column-group broadcast degenerates to nothing at full replication
//! (Fig. 2a) and is CAGNET-1D's broadcast SpMM (§II) at `R_A = 1` — and
//! the update is [`dist_gemm`] (Fig. 2b).

use std::borrow::Cow;

use crate::dist::{Dist, DistMat};
use rdm_comm::{CollectiveKind, Form, RankCtx, Redistribution, Wire};
use rdm_dense::kernels::{call_mode, Kernel};
use rdm_dense::{gemm, gemm_nt, gemm_tn, Mat, MatRef};
use rdm_model::Graph;
use rdm_sparse::{spmm, spmm_masked, Csr};
use rdm_trace::Span;

/// Per-rank FMA counters, split the way the device model prices them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounters {
    pub spmm_fma: f64,
    pub gemm_fma: f64,
}

impl OpCounters {
    pub fn add(&mut self, other: OpCounters) {
        self.spmm_fma += other.spmm_fma;
        self.gemm_fma += other.gemm_fma;
    }
}

/// Communication-free distributed GEMM (Fig. 2b): `Out = In · W` — or,
/// `transposed`, `Out = In · Wᵀ` (the backward gradient propagation
/// `G·Wᵀ`) — with `W` replicated and `In` row-sliced; the output inherits
/// the row slicing.
pub fn dist_gemm(input: &DistMat, w: &Mat, transposed: bool, ops: &mut OpCounters) -> DistMat {
    assert_eq!(input.dist, Dist::Row, "dist_gemm needs a row-sliced input");
    DistMat::from_row_slice(row_gemm(&input.local, w, transposed, ops), input.rows)
}

/// The local product of [`dist_gemm`] on any block of whole rows — a row
/// slice, owned or borrowed, or one strip of it as a redistribution
/// delivers it — inside a `Gemm` span shaped as that block.
pub(crate) fn row_gemm<'a>(
    rows: impl Into<MatRef<'a>>,
    w: &Mat,
    transposed: bool,
    ops: &mut OpCounters,
) -> Mat {
    let rows = rows.into();
    let (k, n) = if transposed {
        (w.cols(), w.rows())
    } else {
        w.shape()
    };
    assert_eq!(rows.cols(), k, "dist_gemm shape mismatch");
    let _span = rdm_trace::span(Span::Gemm {
        m: rows.rows(),
        n,
        k,
        width: call_mode(Kernel::Gemm, n).width(),
    });
    ops.gemm_fma += rows.rows() as f64 * k as f64 * n as f64;
    if transposed {
        gemm_nt(rows, w)
    } else {
        gemm(rows, w)
    }
}

/// Weight gradient `Y = AᵀB` from this rank's row slices of two matrices
/// with identical row distributions (`A`'s owned or borrowed): local
/// partial product plus an all-reduce of the small `f_a × f_b` result.
/// Returns the replicated gradient.
pub fn weight_grad<'a>(
    a: impl Into<MatRef<'a>>,
    b: &Mat,
    ctx: &RankCtx,
    ops: &mut OpCounters,
) -> Mat {
    let a = a.into();
    assert_eq!(a.rows(), b.rows(), "weight_grad: local row blocks differ");
    let _span = rdm_trace::span(Span::Gemm {
        m: a.cols(),
        n: b.cols(),
        k: a.rows(),
        width: call_mode(Kernel::Gemm, b.cols()).width(),
    });
    let partial = gemm_tn(a, b);
    ops.gemm_fma += a.rows() as f64 * a.cols() as f64 * b.cols() as f64;
    // Ring all-reduce: 2·(P-1)/P·|Y| per rank, the NCCL-style
    // bandwidth-optimal schedule (the naive gather would grow the total
    // volume quadratically in P).
    ctx.all_reduce_ring(partial, CollectiveKind::AllReduce)
}

/// The replication-group layout of the `R_A < P` schemes (Fig. 6 and
/// CAGNET 1.5D): ranks form a `P/R_A × R_A` grid; rank `r` sits at panel
/// row `r / R_A` and group column `r % R_A`.
#[derive(Clone, Copy, Debug)]
pub struct PanelGrid {
    pub p: usize,
    pub r_a: usize,
}

impl PanelGrid {
    /// # Panics
    /// If `r_a` does not divide `p`.
    pub fn new(p: usize, r_a: usize) -> Self {
        assert!(
            r_a >= 1 && r_a <= p && p.is_multiple_of(r_a),
            "R_A must divide P"
        );
        PanelGrid { p, r_a }
    }

    /// Number of row panels (`P_i = P / R_A`).
    pub fn panels(&self) -> usize {
        self.p / self.r_a
    }

    /// Which row panel of `A` this rank stores.
    pub fn panel_of(&self, rank: usize) -> usize {
        rank / self.r_a
    }

    /// The ranks sharing this rank's panel (its broadcast group in Fig. 6
    /// is *column-wise*; its redistribution group is this row group).
    pub fn row_group(&self, rank: usize) -> Vec<usize> {
        let base = self.panel_of(rank) * self.r_a;
        (base..base + self.r_a).collect()
    }

    /// The ranks holding the same vertical slice of the dense matrix —
    /// one per panel (the broadcast group of Fig. 6).
    pub fn col_group(&self, rank: usize) -> Vec<usize> {
        let col = rank % self.r_a;
        (0..self.panels()).map(|i| i * self.r_a + col).collect()
    }

    /// The global row range of panel `i`: the union of its members'
    /// balanced per-rank row slices. (Not `part_range(n, panels, i)` —
    /// with `n % p != 0` the two differ, and the redistribution inside a
    /// row group must agree with the global per-rank slicing.)
    pub fn panel_rows(&self, n: usize, panel: usize) -> std::ops::Range<usize> {
        let first = panel * self.r_a;
        let last = first + self.r_a - 1;
        use rdm_dense::part_range;
        part_range(n, self.p, first).start..part_range(n, self.p, last).end
    }

    /// `adj` as the schedule pricer sees it on this grid: its vertex count
    /// and the nonzeros of each row panel, of `adj_t` too (the transpose
    /// backward SpMMs multiply; `None` when symmetric).
    pub fn graph(&self, adj: &Csr, adj_t: Option<&Csr>) -> Graph {
        let panel_nnz = |adj: &Csr| -> Vec<usize> {
            let indptr = adj.indptr();
            let rows = |k| self.panel_rows(adj.rows(), k);
            (0..self.panels())
                .map(|k| indptr[rows(k).end] - indptr[rows(k).start])
                .collect()
        };
        Graph {
            n: adj.rows(),
            panel_nnz: panel_nnz(adj),
            panel_nnz_t: adj_t.map(panel_nnz),
        }
    }
}

/// Row-panel replicated SpMM (Fig. 6): `Out = A · In` where this rank
/// stores the full row panel `panel_of(rank)` of `A` and `In` is 2-D
/// tiled — this rank holds tile `(panel, col-slice)` of the global dense
/// matrix, i.e. `N/P_i` rows × `f/R_A` columns. Each column group
/// broadcasts its tiles so every member assembles the full rows of its
/// column slice, then multiplies its panel — over the nonzeros flagged in
/// `mask` only, when one is given (§III-F), inside an `Spmm` span that
/// records the nonzeros multiplied. The output keeps the same 2-D tiling.
/// This is the only place the engine assembles a column slice and the only
/// place it multiplies a panel.
///
/// Total traffic per product: `(P/R_A - 1) · N · f` elements (§III-E);
/// at full replication the column group is this rank alone and the tile
/// *is* the column slice, multiplied in place.
pub fn panel_spmm<'a>(
    grid: PanelGrid,
    panel: &Csr,
    mask: Option<&[bool]>,
    tile: impl Into<MatRef<'a>>,
    global_rows: usize,
    ctx: &RankCtx,
    ops: &mut OpCounters,
) -> Mat {
    let tile = tile.into();
    let nnz = mask.map_or(panel.nnz(), |m| m.iter().filter(|&&keep| keep).count());
    let _span = rdm_trace::span(Span::Spmm {
        rows: panel.rows(),
        cols: tile.cols(),
        nnz,
        width: call_mode(Kernel::Spmm, tile.cols()).width(),
    });
    let col_group = grid.col_group(ctx.rank());
    // Assemble the full column slice: stack the tiles of every panel in
    // vertical order. Each member broadcasts its own tile to the group.
    let assembled;
    let col_slice = if col_group.len() == 1 {
        tile
    } else {
        let parts: Vec<Mat> = col_group
            .iter()
            .map(|&root| {
                let payload = (root == ctx.rank()).then(|| tile.to_mat());
                ctx.group_broadcast(&col_group, root, payload, CollectiveKind::Broadcast)
            })
            .collect();
        assembled = rdm_dense::vstack(&parts);
        MatRef::from(&assembled)
    };
    assert_eq!(
        col_slice.rows(),
        global_rows,
        "assembled slice must span all rows"
    );
    let out = match mask {
        None => spmm(panel, col_slice),
        Some(m) => spmm_masked(panel, col_slice, m),
    };
    ops.spmm_fma += nnz as f64 * col_slice.cols() as f64;
    out
}

/// The sparse-matrix topology of one rank: which row panel of `Â` it
/// stores and how dense matrices tile across the grid (§III-E).
///
/// With `r_a == p` (full replication) every rank stores all of `Â` — the
/// caller's matrix itself, borrowed, so ranks and runs sharing one
/// adjacency copy nothing — the "tile" layout degenerates to a plain
/// `P`-way column slicing, the SpMM broadcast group is this rank alone
/// (zero traffic) and the group redistributions span all ranks — exactly
/// the base RDM scheme. The GCN engine is written against this type only,
/// so one code path executes both regimes.
#[derive(Clone)]
pub struct Topology<'a> {
    pub grid: PanelGrid,
    /// This rank's row panel of the normalized adjacency: the caller's
    /// matrix when the panel is every row (`r_a == p`), an owned copy of
    /// the row range otherwise.
    pub panel: Cow<'a, Csr>,
    /// Global vertex count.
    pub n: usize,
    /// Optional per-nonzero edge mask (§III-F): when set, every SpMM runs
    /// the masked kernel over the sampled neighbors. Indexed by nonzero
    /// position in `panel`. Drawn from a shared seed, once per step for
    /// every rank, so it costs no communication; every rank borrows it.
    pub mask: Option<&'a [bool]>,
    /// Row panel of `Âᵀ` when the aggregation matrix is not symmetric
    /// (mean/GraphSAGE normalization): the backward pass must multiply by
    /// the transpose. `None` for the symmetric GCN normalization. Borrowed
    /// or owned exactly like `panel`.
    pub panel_t: Option<Cow<'a, Csr>>,
    /// The wire every redistribution of this topology rides. On
    /// [`Wire::Indexed`] bit-zero rows of every shipped piece are elided
    /// (`rdm_comm::strip`); results are bit-identical to [`Wire::Dense`],
    /// only actual bytes (and never the dense-equivalent accounting)
    /// change. Dense by default.
    pub wire: Wire,
}

/// Rows `rows` of `m`: `m` itself when that is every row, else a copy.
fn row_range(m: &Csr, rows: std::ops::Range<usize>) -> Cow<'_, Csr> {
    if rows == (0..m.rows()) {
        Cow::Borrowed(m)
    } else {
        Cow::Owned(m.row_panel(rows.start, rows.end))
    }
}

impl<'a> Topology<'a> {
    /// Build the topology for this rank.
    ///
    /// # Panics
    /// If `r_a` does not divide the cluster size.
    pub fn new(adj: &'a Csr, r_a: usize, ctx: &RankCtx) -> Self {
        let p = ctx.size();
        let grid = PanelGrid::new(p, r_a);
        let rows = grid.panel_rows(adj.rows(), grid.panel_of(ctx.rank()));
        Topology {
            grid,
            panel: row_range(adj, rows),
            n: adj.rows(),
            mask: None,
            panel_t: None,
            wire: Wire::Dense,
        }
    }

    /// Topology for a **non-symmetric** aggregation matrix: `adj_t` must
    /// be `adj.transpose()`; the backward pass multiplies by it.
    ///
    /// # Panics
    /// If shapes mismatch or `r_a` does not divide the cluster size.
    pub fn new_asym(adj: &'a Csr, adj_t: &'a Csr, r_a: usize, ctx: &RankCtx) -> Self {
        assert_eq!(adj.rows(), adj_t.rows(), "transpose shape mismatch");
        assert_eq!(adj.nnz(), adj_t.nnz(), "transpose nnz mismatch");
        let mut topo = Self::new(adj, r_a, ctx);
        topo.panel_t = Some(row_range(adj_t, topo.tile_rows(ctx.rank())));
        topo
    }

    /// Install the §III-F edge mask (one flag per panel nonzero).
    ///
    /// # Panics
    /// If the mask length does not match the panel's nonzero count, or the
    /// aggregation is not symmetric.
    pub fn set_mask(&mut self, mask: &'a [bool]) {
        assert_eq!(mask.len(), self.panel.nnz(), "mask/panel nnz mismatch");
        assert!(
            self.panel_t.is_none(),
            "edge masks are only supported with symmetric aggregation"
        );
        self.mask = Some(mask);
    }

    /// Enable or disable sparsity-aware redistribution (see
    /// [`Topology::wire`]).
    pub fn set_sparse(&mut self, sparse: bool) {
        self.wire = if sparse { Wire::Indexed } else { Wire::Dense };
    }

    /// Fully replicated topology (`r_a == p`).
    pub fn full(adj: &'a Csr, ctx: &RankCtx) -> Self {
        Self::new(adj, ctx.size(), ctx)
    }

    /// Width of this rank's column slice of a width-`f` matrix.
    pub fn tile_cols(&self, f: usize, rank: usize) -> std::ops::Range<usize> {
        rdm_dense::part_range(f, self.grid.r_a, rank % self.grid.r_a)
    }

    /// Row range of this rank's tile (its panel's rows).
    pub fn tile_rows(&self, rank: usize) -> std::ops::Range<usize> {
        self.grid.panel_rows(self.n, self.grid.panel_of(rank))
    }

    /// The shape of `rank`'s block of a width-`f` matrix in form `form`:
    /// its row slice, or its tile.
    pub(crate) fn local_shape(&self, form: Form, f: usize, rank: usize) -> (usize, usize) {
        match form {
            Form::Row => (rdm_dense::part_range(self.n, self.grid.p, rank).len(), f),
            Form::Col => (self.tile_rows(rank).len(), self.tile_cols(f, rank).len()),
        }
    }

    /// Take this rank's tile of a global matrix (set-up only).
    pub fn scatter_tile(&self, global: &Mat, ctx: &RankCtx) -> DistMat {
        let r = self.tile_rows(ctx.rank());
        let c = self.tile_cols(global.cols(), ctx.rank());
        DistMat {
            dist: Dist::Col,
            rows: global.rows(),
            cols: global.cols(),
            local: global.block(r.start, r.end, c.start, c.end),
        }
    }

    /// This rank's block of the distributed SpMM `Out = Â·In` on a tiled
    /// input (Fig. 6) — or, for the backward pass (`bwd`), `Out = Âᵀ·In`,
    /// which differs only under mean/GraphSAGE aggregation — on any block
    /// of whole columns of its tile: the tile, or one strip of it as a
    /// redistribution delivers it. Tiles are broadcast within the column
    /// group and this rank's panel multiplies them (under the edge mask, if
    /// one is installed); the output keeps the tile layout. Traffic:
    /// `(P/R_A - 1)·N·f` elements total; zero when `r_a == p`.
    pub(crate) fn spmm_tile<'t>(
        &self,
        tile: impl Into<MatRef<'t>>,
        bwd: bool,
        ctx: &RankCtx,
        ops: &mut OpCounters,
    ) -> Mat {
        let panel = match &self.panel_t {
            Some(t) if bwd => t,
            _ => &self.panel,
        };
        panel_spmm(self.grid, panel, self.mask, tile, self.n, ctx, ops)
    }

    /// The Row↔tile conversion of this topology: this rank's block `local`
    /// (owned or borrowed) of a matrix in the form opposite to `to`,
    /// redistributed inside its row group on [`Topology::wire`] —
    /// `(R_A-1)/R_A·N·f` elements in total — into its block in form `to`,
    /// shipped as `chunks` strips with strip `q` of the destination handed
    /// to `sink` as it completes (`chunks == 1` is the blocking
    /// conversion).
    pub fn convert<'m>(
        &self,
        local: impl Into<MatRef<'m>>,
        to: Form,
        ctx: &RankCtx,
        kind: CollectiveKind,
        chunks: usize,
        sink: impl FnMut(usize, &Mat),
    ) -> Mat {
        let spec = Redistribution {
            group: &self.grid.row_group(ctx.rank()),
            to,
            wire: self.wire,
            chunks,
            kind,
        };
        ctx.redistribute(&spec, local, sink)
    }

    /// Gather a tile-layout matrix onto every rank (tests only).
    pub fn gather_tile(&self, m: &DistMat, ctx: &RankCtx, kind: CollectiveKind) -> Mat {
        assert_eq!(m.dist, Dist::Col);
        let parts = ctx.all_gather(m.local.clone(), kind);
        let mut out = Mat::zeros(m.rows, m.cols);
        for (rank, part) in parts.iter().enumerate() {
            let r = self.tile_rows(rank);
            let c = self.tile_cols(m.cols, rank);
            assert_eq!(part.shape(), (r.len(), c.len()));
            out.set_block(r.start, c.start, part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_comm::Cluster;
    use rdm_dense::{allclose, part_range};
    use rdm_sparse::Coo;

    const K: CollectiveKind = CollectiveKind::Other;

    fn random_adj(n: usize, seed: u64) -> Csr {
        // Deterministic symmetric-ish sparse matrix with self loops.
        let mut coo = Coo::new(n, n);
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            coo.push(i as u32, i as u32, 1.0);
            for _ in 0..4 {
                let j = next() % n;
                coo.push(i as u32, j as u32, 0.5);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn full_topology_spmm_matches_serial() {
        let n = 24;
        let f = 10;
        let adj = random_adj(n, 1);
        let h = Mat::random(n, f, 1.0, 2);
        let expect = spmm(&adj, &h);
        let (a2, h2, e2) = (adj.clone(), h.clone(), expect.clone());
        let out = Cluster::new(4).run(move |ctx| {
            let mut ops = OpCounters::default();
            let input = DistMat::scatter_cols(&h2, ctx.size(), ctx.rank());
            let local = Topology::full(&a2, ctx).spmm_tile(&input.local, false, ctx, &mut ops);
            let result = DistMat { local, ..input };
            (result.gather(ctx, K), ops)
        });
        for (g, ops) in &out.results {
            assert!(allclose(g, &e2, 1e-5));
            assert!(ops.spmm_fma > 0.0);
        }
        // No communication inside the product itself (only the gather).
        let per_rank_gather = out.stats[0].bytes(K);
        assert!(per_rank_gather > 0);
    }

    #[test]
    fn full_topology_spmm_is_communication_free() {
        let n = 16;
        let adj = random_adj(n, 3);
        let h = Mat::random(n, 8, 1.0, 4);
        let out = Cluster::new(4).run(move |ctx| {
            let mut ops = OpCounters::default();
            let input = DistMat::scatter_cols(&h, ctx.size(), ctx.rank());
            let _ = Topology::full(&adj, ctx).spmm_tile(&input.local, false, ctx, &mut ops);
        });
        for st in &out.stats {
            assert_eq!(st.total_bytes(), 0, "Fig 2a product must move no bytes");
        }
    }

    #[test]
    fn dist_gemm_matches_serial_and_is_free() {
        let n = 20;
        let (fi, fo) = (6, 9);
        let h = Mat::random(n, fi, 1.0, 5);
        let w = Mat::random(fi, fo, 1.0, 6);
        let expect = gemm(&h, &w);
        let out = Cluster::new(4).run(move |ctx| {
            let mut ops = OpCounters::default();
            let input = DistMat::scatter_rows(&h, ctx.size(), ctx.rank());
            let r = dist_gemm(&input, &w, false, &mut ops);
            assert_eq!(r.dist, Dist::Row);
            (r.gather(ctx, K), ops.gemm_fma)
        });
        for (g, fma) in &out.results {
            assert!(allclose(g, &expect, 1e-5));
            assert!(*fma > 0.0);
        }
        // Sum of per-rank GEMM FMAs equals the global count.
        let total: f64 = out.results.iter().map(|(_, f)| f).sum();
        assert_eq!(total, (n * fi * fo) as f64);
    }

    #[test]
    fn dist_gemm_transposed_matches_transpose() {
        let n = 12;
        let (fi, fo) = (5, 7);
        let g = Mat::random(n, fo, 1.0, 7);
        let w = Mat::random(fi, fo, 1.0, 8);
        let expect = gemm(&g, &w.transpose());
        let out = Cluster::new(3).run(move |ctx| {
            let mut ops = OpCounters::default();
            let input = DistMat::scatter_rows(&g, ctx.size(), ctx.rank());
            dist_gemm(&input, &w, true, &mut ops).gather(ctx, K)
        });
        for got in &out.results {
            assert!(allclose(got, &expect, 1e-5));
        }
    }

    #[test]
    fn weight_grad_matches_serial_product() {
        let n = 30;
        let (fa, fb) = (6, 4);
        let a = Mat::random(n, fa, 1.0, 9);
        let b = Mat::random(n, fb, 1.0, 10);
        let expect = gemm_tn(&a, &b);
        let out = Cluster::new(5).run(move |ctx| {
            let mut ops = OpCounters::default();
            let da = DistMat::scatter_rows(&a, ctx.size(), ctx.rank());
            let db = DistMat::scatter_rows(&b, ctx.size(), ctx.rank());
            weight_grad(&da.local, &db.local, ctx, &mut ops)
        });
        for got in &out.results {
            assert!(allclose(got, &expect, 1e-4));
        }
        // Only AllReduce traffic.
        for st in &out.stats {
            assert_eq!(st.total_bytes(), st.bytes(CollectiveKind::AllReduce));
        }
    }

    #[test]
    fn panel_grid_geometry() {
        let g = PanelGrid::new(8, 2);
        assert_eq!(g.panels(), 4);
        assert_eq!(g.panel_of(5), 2);
        assert_eq!(g.row_group(5), vec![4, 5]);
        assert_eq!(g.col_group(5), vec![1, 3, 5, 7]);
        let full = PanelGrid::new(4, 4);
        assert_eq!(full.panels(), 1);
        assert_eq!(full.row_group(2), vec![0, 1, 2, 3]);
        assert_eq!(full.col_group(2), vec![2]);
    }

    #[test]
    fn full_replication_borrows_the_callers_matrix() {
        // At r_a = P the panel is every row: every rank reads the caller's
        // matrix itself (and its transpose's) instead of a copy. Below P
        // each rank owns its row panel.
        let n = 20;
        let p = 4;
        let adj = random_adj(n, 21);
        let adj_t = adj.transpose();
        Cluster::new(p).run(|ctx| {
            let full = Topology::new(&adj, p, ctx);
            assert!(std::ptr::eq(&*full.panel, &adj));
            let asym = Topology::new_asym(&adj, &adj_t, p, ctx);
            assert!(std::ptr::eq(asym.panel_t.as_deref().unwrap(), &adj_t));
            for r_a in [1, 2] {
                let topo = Topology::new(&adj, r_a, ctx);
                let rows = topo.tile_rows(ctx.rank());
                assert!(matches!(topo.panel, Cow::Owned(_)), "r_a = {r_a}");
                assert_eq!(*topo.panel, adj.row_panel(rows.start, rows.end));
            }
        });
    }

    #[test]
    fn panel_spmm_matches_serial_fig6() {
        // P = 4, R_A = 2 — exactly the Fig. 6 example — unmasked, and under
        // an edge mask (§III-F), which must thin the product and its FMA
        // count but not the panel broadcast.
        let n = 24;
        let f = 8;
        let p = 4;
        let r_a = 2;
        let adj = random_adj(n, 13);
        let h = Mat::random(n, f, 1.0, 14);
        let edge_mask: Vec<bool> = (0..adj.nnz()).map(|i| i % 3 != 0).collect();
        for masked in [false, true] {
            let expect = if masked {
                spmm_masked(&adj, &h, &edge_mask)
            } else {
                spmm(&adj, &h)
            };
            let (a2, h2, e2, m2) = (adj.clone(), h.clone(), expect.clone(), edge_mask.clone());
            let out = Cluster::new(p).run(move |ctx| {
                let grid = PanelGrid::new(p, r_a);
                let me = ctx.rank();
                let panel_idx = grid.panel_of(me);
                let prows = grid.panel_rows(n, panel_idx);
                let panel = a2.row_panel(prows.start, prows.end);
                // A row panel's nonzeros are a contiguous run of the global
                // ones, so its mask is that run of the global mask.
                let nz = a2.indptr()[prows.start]..a2.indptr()[prows.end];
                let mask = masked.then(|| &m2[nz]);
                // My tile of the dense input: rows of my panel, my column slice.
                let col = part_range(f, r_a, me % r_a);
                let tile = h2
                    .row_block(prows.start, prows.end)
                    .col_block(col.start, col.end);
                let mut ops = OpCounters::default();
                let out_tile = panel_spmm(grid, &panel, mask, &tile, n, ctx, &mut ops);
                // Check my output tile against the serial product.
                let expect_tile = e2
                    .row_block(prows.start, prows.end)
                    .col_block(col.start, col.end);
                assert!(allclose(&out_tile, &expect_tile, 1e-5));
                let live = mask.map_or(panel.nnz(), |m| m.iter().filter(|&&k| k).count());
                assert_eq!(ops.spmm_fma, (live * col.len()) as f64);
            });
            // Fig. 6 volume: (P/R_A - 1)·N·f elements total.
            let total: u64 = out
                .stats
                .iter()
                .map(|s| s.bytes(CollectiveKind::Broadcast))
                .sum();
            assert_eq!(total as usize, (p / r_a - 1) * n * f * 4);
        }
    }
}
