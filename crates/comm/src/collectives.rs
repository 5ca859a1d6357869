//! Collective operations, composed from point-to-point sends so that byte
//! accounting is uniform and exact.
//!
//! The generic collectives (broadcast, all-gather, all-reduce) take an
//! explicit rank list — the `R_A < P` row-panel scheme of §III-E
//! broadcasts inside a panel group; all-gather and all-reduce also have a
//! whole-cluster convenience form.
//!
//! The paper's one communication operation, the Row↔Col redistribution of
//! Fig. 7, is a single primitive described by a value: a
//! [`Redistribution`] names the group, the target form, the [`Wire`]
//! format, the pipeline depth and the accounting kind, and
//! [`RankCtx::redistribute`] executes it. A blocking redistribution is the
//! 1-chunk case, a whole-cluster one passes every rank as the group, and
//! sparsity-awareness is a property of the wire, not a second collective.
//!
//! Volume notes (payload of `|m|` bytes per rank, group size `g`):
//!
//! * `group_broadcast`: root sends `g-1` copies → `(g-1)·|m|` total — the
//!   paper's "no hardware multicast" accounting for CAGNET's SpMM
//!   broadcast.
//! * `redistribute`: each rank ships all parts except its own
//!   → `(g-1)/g · |M|` total for a global matrix of `|M|` bytes — the RDM
//!   redistribution volume, whatever the chunk count or wire.
//! * `all_reduce_sum` (naive gather): `g·(g-1)·|m|` total.
//! * `all_reduce_ring`: reduce-scatter + all-gather, `2·(g-1)/g·|m|` per
//!   rank — the bandwidth-optimal NCCL-style ring, provided as an ablation.

use crate::cluster::RankCtx;
use crate::stats::CollectiveKind;
use crate::strip::{self, Expect, Piece};
use rdm_dense::{add_assign, part_range, Mat, MatRef};
use rdm_trace::{Form, Span};
use std::mem::MaybeUninit;
use std::ops::Range;

/// How the pieces of a redistribution travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Every piece is sent raw.
    Dense,
    /// Every piece is adaptively packed as an indexed strip
    /// ([`crate::strip`]) when its bit-zero rows make that strictly
    /// smaller, and unpacked transparently on receive. Results are
    /// bit-identical to [`Wire::Dense`]; actual bytes per link never exceed
    /// it, and `CommStats::dense_bytes` keeps the dense-equivalent figure.
    Indexed,
}

/// One Row↔Col redistribution (Fig. 7), described as a value.
#[derive(Clone, Copy, Debug)]
pub struct Redistribution<'g> {
    /// The ranks exchanging, this rank among them: every rank for the base
    /// scheme, the row group under `R_A < P`.
    pub group: &'g [usize],
    /// The form being produced. `Form::Col` (Row→Col) splits each piece
    /// into column strips, `Form::Row` (Col→Row) into row strips.
    pub to: Form,
    pub wire: Wire,
    /// Pipeline depth: every piece is shipped as `chunks` sub-blocks,
    /// chunk-major. `1` is the blocking exchange.
    pub chunks: usize,
    /// The stats/trace bucket the bytes are charged to.
    pub kind: CollectiveKind,
}

impl Redistribution<'_> {
    /// The one `Span::Redistribute` of this redistribution; the exchange,
    /// the landing of its pieces and every strip a sink sees run inside it.
    fn span(&self) -> rdm_trace::SpanGuard {
        rdm_trace::span(Span::Redistribute {
            from: self.to.other(),
            to: self.to,
            chunks: self.chunks,
            kind: self.kind.trace_tag(),
        })
    }
}

/// One strip of a redistribution, written once: `pieces` in group order,
/// stacked vertically for `Form::Col` (every piece as wide as the strip)
/// or side by side for `Form::Row` (every piece as tall).
///
/// # Panics
/// If a piece disagrees with the first along the shared dimension.
fn land(pieces: &[Piece<'_>], to: Form) -> Mat {
    let (h, w) = pieces[0].shape();
    let (rows, cols) = match to {
        Form::Col => (pieces.iter().map(|p| p.shape().0).sum(), w),
        Form::Row => (h, pieces.iter().map(|p| p.shape().1).sum()),
    };
    for p in pieces {
        let (ph, pw) = p.shape();
        match to {
            Form::Col => assert_eq!(pw, w, "piece width {pw} differs from {w}"),
            Form::Row => assert_eq!(ph, h, "piece height {ph} differs from {h}"),
        }
    }
    let fill = |out: &mut [MaybeUninit<f32>]| {
        let mut at = 0;
        for p in pieces {
            let (ph, pw) = p.shape();
            match (to, p.contiguous()) {
                // Stacked, a whole raw piece is one run of the strip.
                (Form::Col, Some(all)) => {
                    out[at * cols..][..all.len()].write_copy_of_slice(all);
                }
                _ => {
                    for (i, row) in p.rows().enumerate() {
                        let start = match to {
                            Form::Col => (at + i) * cols,
                            Form::Row => i * cols + at,
                        };
                        strip::store_row(&mut out[start..start + pw], row);
                    }
                }
            }
            at += match to {
                Form::Col => ph,
                Form::Row => pw,
            };
        }
    };
    // SAFETY: the pieces share the strip's width (`Col`) or height (`Row`),
    // and their heights (widths) sum to its own, so stacked in order they
    // tile it; `rows()` yields every row of each piece.
    unsafe { Mat::write_once(rows, cols, fill) }
}

impl RankCtx {
    /// Position of this rank within `group`.
    ///
    /// # Panics
    /// If this rank is not a member.
    fn group_index(&self, group: &[usize]) -> usize {
        group
            .iter()
            .position(|&r| r == self.rank())
            .unwrap_or_else(|| panic!("rank {} not in group {group:?}", self.rank()))
    }

    /// Every rank of the cluster, as a group.
    fn everyone(&self) -> Vec<usize> {
        (0..self.size()).collect()
    }

    /// Broadcast `root`'s matrix to every rank in `group`. `root` is an
    /// absolute rank id and must be in the group. Only the root's `mat` is
    /// consulted; other ranks pass `None`.
    pub fn group_broadcast(
        &self,
        group: &[usize],
        root: usize,
        mat: Option<Mat>,
        kind: CollectiveKind,
    ) -> Mat {
        self.group_index(group); // membership check
        if self.rank() == root {
            let m = mat.expect("root must supply the broadcast payload");
            for &dst in group {
                if dst != root {
                    self.send(dst, m.clone(), kind);
                }
            }
            m
        } else {
            self.recv(root)
        }
    }

    /// All-gather within `group`: every rank contributes `part`; returns the
    /// parts of all members ordered by group position.
    pub fn group_all_gather(&self, group: &[usize], part: Mat, kind: CollectiveKind) -> Vec<Mat> {
        let my_idx = self.group_index(group);
        for &dst in group {
            if dst != self.rank() {
                self.send(dst, part.clone(), kind);
            }
        }
        group
            .iter()
            .enumerate()
            .map(|(idx, &src)| {
                if idx == my_idx {
                    part.clone()
                } else {
                    self.recv(src)
                }
            })
            .collect()
    }

    /// Whole-cluster all-gather.
    pub fn all_gather(&self, part: Mat, kind: CollectiveKind) -> Vec<Mat> {
        self.group_all_gather(&self.everyone(), part, kind)
    }

    /// Send the block `rows × cols` of `m` on `wire`, packed or copied
    /// straight from it. Either way the stats book the block's dense bytes
    /// as the dense-equivalent volume.
    fn send_block(
        &self,
        dst: usize,
        m: MatRef<'_>,
        (rows, cols): (Range<usize>, Range<usize>),
        wire: Wire,
        kind: CollectiveKind,
    ) {
        let packed = match wire {
            Wire::Dense => None,
            Wire::Indexed => strip::pack_block(m, rows.clone(), cols.clone()),
        };
        match packed {
            Some(s) => {
                let dense = strip::dense_bytes_of(rows.len(), cols.len());
                self.send_compressed(dst, s, kind, dense)
            }
            None => self.send(
                dst,
                m.block(rows.start, rows.end, cols.start, cols.end),
                kind,
            ),
        }
    }

    /// Redistribute `local` — this rank's slice of a global matrix in the
    /// form opposite to `spec.to`, owned or borrowed — into its slice in
    /// form `spec.to` (Fig. 7). Each piece is packed or copied straight
    /// from `local`, and each strip of the destination lands in one
    /// write-once buffer: this rank's own piece and every received piece
    /// (raw, or an indexed strip expanded on the fly) are stored once, at
    /// their final offsets. As
    /// strip `q` completes it is handed to `sink(q, strip)`: strip `q` of a
    /// Row→Col redistribution is the column sub-range
    /// `part_range(my_cols, chunks, q)` of the final column slice with all
    /// the group's rows present; Col→Row is the mirror image. The received
    /// pieces of a strip are freed before `sink` sees it. With one chunk
    /// the strip *is* the returned slice; with more, each strip is copied
    /// into place once the sink is done with it. Bit-identical for every
    /// `chunks` and `wire`.
    ///
    /// Pieces go out chunk-major, so chunk `q` is on every link before
    /// chunk `q + 1`. Payload bytes per (src, dst) pair
    /// do not depend on `chunks` — the sub-blocks tile the part exactly —
    /// but messages do: `chunks · (g - 1)` per rank, empty sub-blocks
    /// included when `chunks` exceeds the split dimension. On
    /// [`Wire::Indexed`] the receiver tells strips from raw pieces by the
    /// geometry of its own part.
    ///
    /// # Panics
    /// If `spec.chunks == 0`, this rank is not in the group, or a peer's
    /// piece does not fit this rank's geometry.
    pub fn redistribute<'m>(
        &self,
        spec: &Redistribution<'_>,
        local: impl Into<MatRef<'m>>,
        mut sink: impl FnMut(usize, &Mat),
    ) -> Mat {
        let local = local.into();
        let (group, to, chunks) = (spec.group, spec.to, spec.chunks);
        assert!(chunks > 0, "need at least one chunk");
        let _span = spec.span();
        let my_idx = self.group_index(group);
        let (rows, cols) = (0..local.rows(), 0..local.cols());
        // Chunk `q` of the part of `local` member `idx` gets, as a block.
        let block = |idx: usize, q: usize| {
            let axis = match to {
                Form::Col => local.cols(),
                Form::Row => local.rows(),
            };
            let part = part_range(axis, group.len(), idx);
            let sub = part_range(part.len(), chunks, q);
            let cut = part.start + sub.start..part.start + sub.end;
            match to {
                Form::Col => (rows.clone(), cut),
                Form::Row => (cut, cols.clone()),
            }
        };
        // Chunk-major: all of chunk 0 to every peer, then all of chunk 1,
        // … Sends never block on this fabric, so per-link FIFO makes the
        // `q`-th receive from a peer its chunk `q`, faults or not.
        for q in 0..chunks {
            for idx in (0..group.len()).filter(|&idx| idx != my_idx) {
                self.send_block(group[idx], local, block(idx, q), spec.wire, spec.kind);
            }
        }
        let strip = |q: usize| {
            let (r, c) = block(my_idx, q);
            let expect = match to {
                Form::Col => Expect::Cols(c.len()),
                Form::Row => Expect::Rows(r.len()),
            };
            let msgs: Vec<Option<Mat>> = group
                .iter()
                .map(|&src| (src != self.rank()).then(|| self.recv(src)))
                .collect();
            let pieces: Vec<Piece<'_>> = msgs
                .iter()
                .map(|msg| match (msg, spec.wire) {
                    (None, _) => Piece::block(local, r.clone(), c.clone()),
                    (Some(m), Wire::Dense) => Piece::block(m, 0..m.rows(), 0..m.cols()),
                    (Some(m), Wire::Indexed) => Piece::unpack(m, expect),
                })
                .collect();
            land(&pieces, to)
        };
        let first = strip(0);
        if chunks == 1 {
            sink(0, &first);
            return first;
        }
        // Row→Col strips are column ranges of the slice, Col→Row strips
        // row ranges; chunk 0 fixes the extent along the other axis.
        let (out_rows, out_cols) = match to {
            Form::Col => (
                first.rows(),
                part_range(local.cols(), group.len(), my_idx).len(),
            ),
            Form::Row => (
                part_range(local.rows(), group.len(), my_idx).len(),
                first.cols(),
            ),
        };
        let fill = |out: &mut [MaybeUninit<f32>]| {
            let mut next = Some(first);
            let mut at = 0;
            for q in 0..chunks {
                let s = next.take().unwrap_or_else(|| strip(q));
                sink(q, &s);
                match to {
                    Form::Col => {
                        assert_eq!(s.rows(), out_rows, "strip {q} has the wrong height");
                        for i in 0..out_rows {
                            out[i * out_cols + at..][..s.cols()].write_copy_of_slice(s.row(i));
                        }
                        at += s.cols();
                    }
                    Form::Row => {
                        assert_eq!(s.cols(), out_cols, "strip {q} has the wrong width");
                        out[at * out_cols..][..s.len()].write_copy_of_slice(s.as_slice());
                        at += s.rows();
                    }
                }
            }
        };
        // SAFETY: strip `q` spans `part_range(mine, chunks, q)` along the
        // split axis (`land` checks each piece against it) and the whole
        // slice along the other (checked above), so the strips tile it.
        unsafe { Mat::write_once(out_rows, out_cols, fill) }
    }

    /// Element-wise sum all-reduce within `group` (naive all-gather
    /// implementation; exact for small payloads like weight gradients).
    pub fn group_all_reduce_sum(&self, group: &[usize], mat: Mat, kind: CollectiveKind) -> Mat {
        let parts = self.group_all_gather(group, mat, kind);
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            add_assign(&mut acc, p);
        }
        acc
    }

    /// Whole-cluster sum all-reduce.
    pub fn all_reduce_sum(&self, mat: Mat, kind: CollectiveKind) -> Mat {
        self.group_all_reduce_sum(&self.everyone(), mat, kind)
    }

    /// Bandwidth-optimal ring all-reduce (reduce-scatter by rows, then
    /// all-gather), `2·(g-1)/g·|m|` bytes per rank. Matches
    /// [`RankCtx::all_reduce_sum`] numerically up to FP reassociation.
    pub fn all_reduce_ring(&self, mat: Mat, kind: CollectiveKind) -> Mat {
        let p = self.size();
        // Span opens before the P=1 early return so the traced schedule
        // shape is independent of the cluster size.
        let _span = rdm_trace::span(Span::AllReduce {
            elems: mat.rows() * mat.cols(),
        });
        if p == 1 {
            return mat;
        }
        let me = self.rank();
        let rows = mat.rows();
        let cols = mat.cols();
        // Phase 1: reduce-scatter. Chunk r ends up fully reduced on rank r.
        // Step s: send chunk (me - s - 1) to the next rank, receive chunk
        // (me - s - 2)... simpler indexing: at step s, rank sends the chunk
        // it most recently accumulated.
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let chunk = |m: &Mat, idx: usize| {
            let r = part_range(rows, p, idx);
            m.row_block(r.start, r.end)
        };
        let mut acc = mat.clone();
        // Standard ring reduce-scatter: at step s (0..p-1), send chunk
        // (me - s) mod p, receive and accumulate chunk (me - s - 1) mod p.
        for s in 0..p - 1 {
            let send_idx = (me + p - s) % p;
            let recv_idx = (me + p - s - 1) % p;
            self.send(next, chunk(&acc, send_idx), kind);
            let got = self.recv(prev);
            let r = part_range(rows, p, recv_idx);
            let mut merged = acc.row_block(r.start, r.end);
            add_assign(&mut merged, &got);
            acc.set_block(r.start, 0, &merged);
        }
        // Now chunk (me + 1) mod p is fully reduced on this rank.
        // Phase 2: all-gather the reduced chunks around the ring.
        let mut out = Mat::zeros(rows, cols);
        let owned_idx = (me + 1) % p;
        let owned = chunk(&acc, owned_idx);
        {
            let r = part_range(rows, p, owned_idx);
            out.set_block(r.start, 0, &owned);
        }
        let mut carry = owned;
        let mut carry_idx = owned_idx;
        for _ in 0..p - 1 {
            self.send(next, carry, kind);
            let got = self.recv(prev);
            carry_idx = (carry_idx + p - 1) % p;
            let r = part_range(rows, p, carry_idx);
            out.set_block(r.start, 0, &got);
            carry = got;
        }
        out
    }

    // The six `#[doc(hidden)]` forwards (four here, two on
    // `rdm_core::DistMat`) exist only because the frozen benchmark's probes
    // call them by name (`bench/src/probes.rs`, `comm.redistribute*_ms`); a
    // later benchmark PR ports the probes to `redistribute` and deletes
    // them, this helper included.
    fn blocking(
        &self,
        group: &[usize],
        to: Form,
        wire: Wire,
        m: &Mat,
        kind: CollectiveKind,
    ) -> Mat {
        let spec = Redistribution {
            group,
            to,
            wire,
            chunks: 1,
            kind,
        };
        self.redistribute(&spec, m, |_, _| {})
    }

    #[doc(hidden)]
    pub fn redistribute_h_to_v(&self, local: &Mat, kind: CollectiveKind) -> Mat {
        self.blocking(&self.everyone(), Form::Col, Wire::Dense, local, kind)
    }

    #[doc(hidden)]
    pub fn redistribute_v_to_h(&self, local: &Mat, kind: CollectiveKind) -> Mat {
        self.blocking(&self.everyone(), Form::Row, Wire::Dense, local, kind)
    }

    #[doc(hidden)]
    pub fn group_redistribute_h_to_v_sparse(
        &self,
        group: &[usize],
        local: &Mat,
        kind: CollectiveKind,
    ) -> Mat {
        self.blocking(group, Form::Col, Wire::Indexed, local, kind)
    }

    #[doc(hidden)]
    pub fn group_redistribute_v_to_h_sparse(
        &self,
        group: &[usize],
        local: &Mat,
        kind: CollectiveKind,
    ) -> Mat {
        self.blocking(group, Form::Row, Wire::Indexed, local, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use rdm_dense::allclose;

    const K: CollectiveKind = CollectiveKind::Other;

    #[test]
    fn broadcast_delivers_to_all() {
        let p = 4;
        let out = Cluster::new(p).run(|ctx| {
            let payload = (ctx.rank() == 1).then(|| Mat::from_vec(1, 2, vec![3.0, 4.0]));
            ctx.group_broadcast(&ctx.everyone(), 1, payload, K)
        });
        for m in &out.results {
            assert_eq!(m.as_slice(), &[3.0, 4.0]);
        }
        // Root sent p-1 copies of 8 bytes.
        assert_eq!(out.stats[1].total_bytes(), ((p - 1) * 8) as u64);
        assert_eq!(out.stats[0].total_bytes(), 0);
    }

    #[test]
    fn group_broadcast_leaves_nonmembers_alone() {
        let out = Cluster::new(4).run(|ctx| {
            // Group {1, 3}, root 3. Ranks 0 and 2 do nothing.
            if ctx.rank() == 1 || ctx.rank() == 3 {
                let payload = (ctx.rank() == 3).then(|| Mat::from_vec(1, 1, vec![9.0]));
                Some(ctx.group_broadcast(&[1, 3], 3, payload, K))
            } else {
                None
            }
        });
        assert!(out.results[0].is_none());
        assert_eq!(out.results[1].as_ref().unwrap().get(0, 0), 9.0);
        assert_eq!(out.stats[3].total_bytes(), 4);
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let out = Cluster::new(3).run(|ctx| {
            let part = Mat::from_vec(1, 1, vec![ctx.rank() as f32]);
            ctx.all_gather(part, K)
        });
        for parts in &out.results {
            let vals: Vec<f32> = parts.iter().map(|m| m.get(0, 0)).collect();
            assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn redistribution_transposes_ownership() {
        let p = 4;
        let out = Cluster::new(p).run(|ctx| {
            let me = ctx.rank() as f32;
            // Columns 2j, 2j+1 of this rank's row are [me, j]: the part
            // addressed to rank j.
            let local = Mat::from_fn(
                1,
                2 * p,
                |_, c| if c % 2 == 0 { me } else { (c / 2) as f32 },
            );
            let spec = Redistribution {
                group: &ctx.everyone(),
                to: Form::Col,
                wire: Wire::Dense,
                chunks: 1,
                kind: K,
            };
            ctx.redistribute(&spec, &local, |_, _| {})
        });
        for (r, received) in out.results.iter().enumerate() {
            for s in 0..p {
                assert_eq!(received.get(s, 0), s as f32, "from rank");
                assert_eq!(received.get(s, 1), r as f32, "addressed to me");
            }
        }
        // Each rank sent p-1 parts of 8 bytes.
        for st in &out.stats {
            assert_eq!(st.total_bytes(), ((p - 1) * 8) as u64);
        }
    }

    /// A global matrix with a deterministic mix of bit-zero and nonzero
    /// rows: row i is zero unless `i % 3 == 0`.
    fn sparse_global(n: usize, f: usize) -> Mat {
        Mat::from_fn(n, f, |i, j| {
            if i % 3 == 0 {
                (i * 100 + j + 1) as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn indexed_wire_saves_bytes_and_books_dense_equivalent() {
        let p = 4;
        let n = 32;
        let f = 8;
        let run = |wire: Wire| {
            Cluster::new(p).run(move |ctx| {
                let global = sparse_global(n, f);
                let r = part_range(n, p, ctx.rank());
                let group: Vec<usize> = (0..p).collect();
                let spec = Redistribution {
                    group: &group,
                    to: Form::Col,
                    wire,
                    chunks: 1,
                    kind: CollectiveKind::Redistribute,
                };
                ctx.redistribute(&spec, &global.row_block(r.start, r.end), |_, _| {})
            })
        };
        let dense = run(Wire::Dense);
        let sparse = run(Wire::Indexed);
        assert_eq!(dense.results, sparse.results);
        let dense_actual: u64 = dense.stats.iter().map(|s| s.total_bytes()).sum();
        let sparse_actual: u64 = sparse.stats.iter().map(|s| s.total_bytes()).sum();
        let sparse_equiv: u64 = sparse
            .stats
            .iter()
            .map(|s| s.dense_bytes(CollectiveKind::Redistribute))
            .sum();
        // The dense-equivalent figure reproduces the paper's (P-1)/P·N·f
        // formula (§III-D) exactly while actual wire bytes drop below it.
        let formula = ((p - 1) * n * f * 4 / p) as u64;
        assert_eq!(dense_actual, formula);
        assert_eq!(sparse_equiv, formula);
        assert!(
            sparse_actual < dense_actual,
            "sparse {sparse_actual} !< dense {dense_actual}"
        );
    }

    #[test]
    fn indexed_wire_never_exceeds_dense_even_on_incompressible_data() {
        // Fully dense payload: adaptive packing must fall back to raw
        // sends, keeping actual == dense-equivalent bytes.
        let p = 3;
        let out = Cluster::new(p).run(move |ctx| {
            let global = Mat::from_fn(12, 6, |i, j| (i * 10 + j + 1) as f32);
            let r = part_range(12, p, ctx.rank());
            let group: Vec<usize> = (0..p).collect();
            let spec = Redistribution {
                group: &group,
                to: Form::Col,
                wire: Wire::Indexed,
                chunks: 1,
                kind: CollectiveKind::Redistribute,
            };
            ctx.redistribute(&spec, &global.row_block(r.start, r.end), |_, _| {})
        });
        for st in &out.stats {
            assert_eq!(
                st.bytes(CollectiveKind::Redistribute),
                st.dense_bytes(CollectiveKind::Redistribute)
            );
        }
    }

    #[test]
    fn all_reduce_sum_matches_manual_sum() {
        let p = 5;
        let out = Cluster::new(p).run(|ctx| {
            let m = Mat::from_fn(2, 2, |i, j| (ctx.rank() + i + j) as f32);
            ctx.all_reduce_sum(m, K)
        });
        let expect = Mat::from_fn(2, 2, |i, j| (0..p).map(|r| (r + i + j) as f32).sum());
        for m in &out.results {
            assert!(allclose(m, &expect, 1e-6));
        }
    }

    #[test]
    fn ring_all_reduce_matches_naive() {
        for p in [1, 2, 3, 4, 7] {
            let out = Cluster::new(p).run(|ctx| {
                let m = Mat::random(9, 5, 1.0, ctx.rank() as u64);
                let naive = ctx.all_reduce_sum(m.clone(), K);
                let ring = ctx.all_reduce_ring(m, K);
                (naive, ring)
            });
            for (naive, ring) in &out.results {
                assert!(allclose(naive, ring, 1e-4), "p={p}");
            }
        }
    }

    #[test]
    fn ring_all_reduce_volume_is_bandwidth_optimal() {
        // Per-rank ring volume must be strictly below naive volume for p>2.
        let p = 8;
        let rows = 64;
        let cols = 4;
        let naive = Cluster::new(p).run(|ctx| {
            ctx.all_reduce_sum(Mat::zeros(rows, cols), K);
        });
        let ring = Cluster::new(p).run(|ctx| {
            ctx.all_reduce_ring(Mat::zeros(rows, cols), K);
        });
        let naive_bytes: u64 = naive.stats.iter().map(|s| s.total_bytes()).sum();
        let ring_bytes: u64 = ring.stats.iter().map(|s| s.total_bytes()).sum();
        assert!(
            ring_bytes < naive_bytes / 2,
            "ring {ring_bytes} vs naive {naive_bytes}"
        );
        // Ring moves 2·(p-1)/p·|m| per rank.
        let expect_per_rank = 2 * (rows * cols * 4) * (p - 1) / p;
        for st in &ring.stats {
            let got = st.total_bytes() as usize;
            // Chunking of 64 rows over 8 ranks is exact.
            assert_eq!(got, expect_per_rank);
        }
    }

    #[test]
    fn group_redistribution_within_subgroup() {
        // Ranks {0, 2} redistribute among themselves; {1, 3} idle.
        let out = Cluster::new(4).run(|ctx| {
            if ctx.rank() % 2 == 0 {
                let global = Mat::from_fn(4, 4, |i, j| (i * 10 + j) as f32);
                let idx = ctx.rank() / 2;
                let r = part_range(4, 2, idx);
                let local = global.row_block(r.start, r.end);
                let spec = Redistribution {
                    group: &[0, 2],
                    to: Form::Col,
                    wire: Wire::Dense,
                    chunks: 1,
                    kind: K,
                };
                Some(ctx.redistribute(&spec, &local, |_, _| {}))
            } else {
                None
            }
        });
        let global = Mat::from_fn(4, 4, |i, j| (i * 10 + j) as f32);
        assert_eq!(*out.results[0].as_ref().unwrap(), global.col_block(0, 2));
        assert_eq!(*out.results[2].as_ref().unwrap(), global.col_block(2, 4));
    }
}
