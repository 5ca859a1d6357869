//! Distributed dense matrices.
//!
//! A [`DistMat`] is one rank's view of a global `rows × cols` matrix under
//! one of the two sliced distributions of Fig. 2 of the paper (replicated
//! matrices — weights, the adjacency — are plain [`Mat`]s):
//!
//! * `Row` — rank `r` holds the balanced row slice `part_range(rows, P, r)`
//!   ("horizontal" in the paper; what communication-free GEMM needs).
//! * `Col` — rank `r` holds the balanced column slice ("vertical"; what
//!   communication-free SpMM needs).
//!
//! [`FormCache`] keeps both layouts of the same logical tensor when both
//! were materialized (e.g. an intermediate before and after a
//! redistribution), which is how the backward pass reuses forward
//! redistributions instead of paying for new ones (§III-C).

use rdm_comm::{CollectiveKind, Form, RankCtx, Redistribution, Wire};
use rdm_dense::{part_range, Mat};
use std::convert::Infallible;

/// How a global matrix is laid out across ranks: the form the
/// redistribution primitive converts between.
pub type Dist = Form;

/// One rank's piece of a distributed matrix.
#[derive(Clone, Debug)]
pub struct DistMat {
    pub dist: Dist,
    /// Global shape.
    pub rows: usize,
    pub cols: usize,
    /// This rank's local block.
    pub local: Mat,
}

impl DistMat {
    /// Take this rank's row slice of a global matrix (setup only — real
    /// training never materializes the global matrix on a rank).
    pub fn scatter_rows(global: &Mat, p: usize, rank: usize) -> Self {
        let r = part_range(global.rows(), p, rank);
        DistMat {
            dist: Dist::Row,
            rows: global.rows(),
            cols: global.cols(),
            local: global.row_block(r.start, r.end),
        }
    }

    /// Take this rank's column slice of a global matrix.
    pub fn scatter_cols(global: &Mat, p: usize, rank: usize) -> Self {
        let c = part_range(global.cols(), p, rank);
        DistMat {
            dist: Dist::Col,
            rows: global.rows(),
            cols: global.cols(),
            local: global.col_block(c.start, c.end),
        }
    }

    /// Wrap an already-local row slice.
    pub fn from_row_slice(local: Mat, global_rows: usize) -> Self {
        DistMat {
            dist: Dist::Row,
            rows: global_rows,
            cols: local.cols(),
            local,
        }
    }

    /// The global row range this rank owns under `Row` distribution.
    pub fn my_rows(&self, ctx: &RankCtx) -> std::ops::Range<usize> {
        assert_eq!(self.dist, Dist::Row);
        part_range(self.rows, ctx.size(), ctx.rank())
    }

    /// The Row↔Col conversion described by `spec`, through the one
    /// redistribution primitive ([`RankCtx::redistribute`]): any group
    /// (the local block is split `spec.group.len()` ways — the row group
    /// under `R_A < P`, where `Col` is the tile layout), either wire, any
    /// pipeline depth, handing strip `q` of the destination slice to `sink`
    /// while later strips are in flight.
    ///
    /// # Panics
    /// If this matrix is already in the form `spec.to`.
    pub(crate) fn convert(
        &self,
        ctx: &RankCtx,
        spec: &Redistribution<'_>,
        sink: impl FnMut(usize, &Mat),
    ) -> DistMat {
        assert_ne!(
            self.dist, spec.to,
            "Row<->Col conversion of a matrix already in the target form"
        );
        DistMat {
            dist: spec.to,
            rows: self.rows,
            cols: self.cols,
            local: ctx.redistribute(spec, &self.local, sink),
        }
    }

    // Kept only because the frozen benchmark's `comm.redistribute_chunked_ms`
    // probe calls them by name and `.expect`s their result
    // (`bench/src/probes.rs`); a later benchmark PR ports the probe and
    // deletes both.

    #[doc(hidden)]
    pub fn redistribute_overlapped_grouped(
        &self,
        ctx: &RankCtx,
        group: &[usize],
        target: Dist,
        kind: CollectiveKind,
        chunks: usize,
        sink: impl FnMut(usize, &Mat),
    ) -> Result<DistMat, Infallible> {
        let spec = Redistribution {
            group,
            to: target,
            wire: Wire::Dense,
            chunks,
            kind,
        };
        Ok(self.convert(ctx, &spec, sink))
    }

    #[doc(hidden)]
    pub fn redistribute_overlapped_grouped_sparse(
        &self,
        ctx: &RankCtx,
        group: &[usize],
        target: Dist,
        kind: CollectiveKind,
        chunks: usize,
        sink: impl FnMut(usize, &Mat),
    ) -> Result<DistMat, Infallible> {
        let spec = Redistribution {
            group,
            to: target,
            wire: Wire::Indexed,
            chunks,
            kind,
        };
        Ok(self.convert(ctx, &spec, sink))
    }

    /// Gather the full global matrix onto every rank (tests and final
    /// output collection only).
    pub fn gather(&self, ctx: &RankCtx, kind: CollectiveKind) -> Mat {
        let parts = ctx.all_gather(self.local.clone(), kind);
        match self.dist {
            Dist::Row => rdm_dense::vstack(&parts),
            Dist::Col => rdm_dense::hstack(&parts),
        }
    }
}

/// Both layouts of one logical tensor, each present once materialized.
/// Which layouts exist, and when one is converted or dropped, is the
/// schedule's business (`rdm_model::schedule`), not the cache's.
#[derive(Clone, Debug, Default)]
pub struct FormCache {
    pub row: Option<DistMat>,
    pub col: Option<DistMat>,
}

impl FormCache {
    /// Cache holding only a row-form tensor.
    pub fn of_row(m: DistMat) -> Self {
        assert_eq!(m.dist, Dist::Row);
        FormCache {
            row: Some(m),
            col: None,
        }
    }

    /// Cache holding only `m`, in whichever form it is.
    pub fn of(m: DistMat) -> Self {
        let mut cache = FormCache::default();
        cache.put(m);
        cache
    }

    /// Insert a layout (overwrites the slot).
    pub fn put(&mut self, m: DistMat) {
        let form = m.dist;
        *self.layout(form) = Some(m);
    }

    /// The slot of layout `form`.
    pub(crate) fn layout(&mut self, form: Dist) -> &mut Option<DistMat> {
        match form {
            Dist::Row => &mut self.row,
            Dist::Col => &mut self.col,
        }
    }

    /// Layout `form`, if it is held.
    pub(crate) fn held(&self, form: Dist) -> Option<&DistMat> {
        match form {
            Dist::Row => self.row.as_ref(),
            Dist::Col => self.col.as_ref(),
        }
    }

    /// Layout `form`.
    ///
    /// # Panics
    /// If it was never materialized.
    pub(crate) fn get(&self, form: Dist) -> &DistMat {
        self.held(form).expect("FormCache lacks the layout")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_comm::Cluster;

    const K: CollectiveKind = CollectiveKind::Other;

    #[test]
    fn scatter_gather_roundtrip_rows_and_cols() {
        let global = Mat::from_fn(10, 6, |i, j| (i * 10 + j) as f32);
        let g = global.clone();
        let out = Cluster::new(3).run(move |ctx| {
            let r = DistMat::scatter_rows(&g, ctx.size(), ctx.rank());
            let c = DistMat::scatter_cols(&g, ctx.size(), ctx.rank());
            (r.gather(ctx, K), c.gather(ctx, K))
        });
        for (gr, gc) in &out.results {
            assert_eq!(*gr, global);
            assert_eq!(*gc, global);
        }
    }

    #[test]
    fn row_to_col_and_back_roundtrips() {
        let global = Mat::random(12, 8, 1.0, 3);
        let g = global.clone();
        let adj = rdm_sparse::Csr::identity(12);
        let out = Cluster::new(4).run(move |ctx| {
            let topo = crate::ops::Topology::full(&adj, ctx);
            let r = DistMat::scatter_rows(&g, ctx.size(), ctx.rank());
            let local = topo.convert(&r.local, Form::Col, ctx, K, 1, |_, _| {});
            let c = DistMat {
                dist: Dist::Col,
                local,
                ..r
            };
            let local = topo.convert(&c.local, Form::Row, ctx, K, 1, |_, _| {});
            let r2 = DistMat {
                dist: Dist::Row,
                local,
                ..r
            };
            (c.gather(ctx, K), r2.gather(ctx, K))
        });
        for (gc, gr) in &out.results {
            assert_eq!(*gc, global);
            assert_eq!(*gr, global);
        }
    }

    #[test]
    fn pipelined_conversion_is_bitwise_blocking() {
        for p in [1usize, 2, 3, 4] {
            for chunks in [1usize, 2, 3, 8, 17] {
                let global = Mat::random(13, 9, 1.0, 7);
                let adj = rdm_sparse::Csr::identity(13);
                let out = Cluster::new(p).run(move |ctx| {
                    // The blocking reference: the engine's own conversions.
                    let topo = crate::ops::Topology::full(&adj, ctx);
                    let group: Vec<usize> = (0..p).collect();
                    let to_col = Redistribution {
                        group: &group,
                        to: Form::Col,
                        wire: Wire::Dense,
                        chunks,
                        kind: K,
                    };
                    let r = DistMat::scatter_rows(&global, ctx.size(), ctx.rank());
                    let blocking = topo.convert(&r.local, Form::Col, ctx, K, 1, |_, _| {});
                    let mut strips = 0usize;
                    let pipelined = r.convert(ctx, &to_col, |q, strip| {
                        assert_eq!(q, strips);
                        assert_eq!(strip.rows(), 13);
                        strips += 1;
                    });
                    assert_eq!(strips, chunks);
                    assert_eq!(blocking, pipelined.local, "p={p} chunks={chunks}");
                    // And the reverse direction.
                    let to_row = Redistribution {
                        to: Form::Row,
                        ..to_col
                    };
                    let back = topo.convert(&blocking, Form::Row, ctx, K, 1, |_, _| {});
                    let back_p = pipelined.convert(ctx, &to_row, |_, _| {});
                    assert_eq!(back, back_p.local);
                });
                drop(out);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn conversion_refuses_the_form_it_already_has() {
        Cluster::new(2).run(|ctx| {
            let spec = Redistribution {
                group: &[0, 1],
                to: Form::Row,
                wire: Wire::Dense,
                chunks: 2,
                kind: K,
            };
            DistMat::from_row_slice(Mat::zeros(2, 4), 4).convert(ctx, &spec, |_, _| {});
        });
    }

    #[test]
    fn form_cache_holds_each_layout_in_its_slot() {
        let mut cache = FormCache::of(DistMat::from_row_slice(Mat::zeros(2, 4), 8));
        assert_eq!(cache.get(Dist::Row).rows, 8);
        assert!(cache.col.is_none());
        cache.put(DistMat::scatter_cols(&Mat::zeros(8, 4), 4, 0));
        assert_eq!(cache.get(Dist::Col).cols, 4);
        *cache.layout(Dist::Row) = None;
        assert!(cache.row.is_none());
    }

    #[test]
    fn my_rows_match_part_range() {
        let global = Mat::zeros(10, 10);
        Cluster::new(3).run(move |ctx| {
            let r = DistMat::scatter_rows(&global, ctx.size(), ctx.rank());
            assert_eq!(r.my_rows(ctx), part_range(10, 3, ctx.rank()));
            assert_eq!(r.local.rows(), r.my_rows(ctx).len());
        });
    }

    #[test]
    #[should_panic(expected = "FormCache lacks the layout")]
    fn empty_form_cache_panics_on_get() {
        FormCache::default().get(Dist::Row);
    }
}
