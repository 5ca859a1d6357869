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
//! [`RankCtx::exchange`] / [`RankCtx::redistribute`] execute it. A blocking
//! redistribution is the 1-chunk case, a whole-cluster one passes every
//! rank as the group, and sparsity-awareness is a property of the wire, not
//! a second collective.
//!
//! Volume notes (payload of `|m|` bytes per rank, group size `g`):
//!
//! * `group_broadcast`: root sends `g-1` copies → `(g-1)·|m|` total — the
//!   paper's "no hardware multicast" accounting for CAGNET's SpMM
//!   broadcast.
//! * `exchange` / `redistribute`: each rank ships all parts except its own
//!   → `(g-1)/g · |M|` total for a global matrix of `|M|` bytes — the RDM
//!   redistribution volume, whatever the chunk count or wire.
//! * `all_reduce_sum` (naive gather): `g·(g-1)·|m|` total.
//! * `all_reduce_ring`: reduce-scatter + all-gather, `2·(g-1)/g·|m|` per
//!   rank — the bandwidth-optimal NCCL-style ring, provided as an ablation.

use crate::cluster::RankCtx;
use crate::stats::CollectiveKind;
use crate::strip::{self, Expect};
use rdm_dense::{add_assign, hstack, part_range, split_cols, split_rows, vstack, Mat};
use rdm_trace::{Form, Span};

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

/// Chunk `q` of `chunks` equal-as-possible sub-blocks of `m` along the
/// axis a redistribution to `to` strips (`part_range` splitting: empty
/// sub-blocks when `chunks` exceeds the dimension).
fn sub_block(m: &Mat, to: Form, chunks: usize, q: usize) -> Mat {
    match to {
        Form::Col => {
            let r = part_range(m.cols(), chunks, q);
            m.col_block(r.start, r.end)
        }
        Form::Row => {
            let r = part_range(m.rows(), chunks, q);
            m.row_block(r.start, r.end)
        }
    }
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

    /// Send one redistribution piece on `wire`. Either way the stats book
    /// `piece.nbytes()` as the dense-equivalent volume.
    fn send_piece(&self, dst: usize, piece: Mat, wire: Wire, kind: CollectiveKind) {
        let packed = match wire {
            Wire::Dense => None,
            Wire::Indexed => strip::pack_nonzero_rows(&piece),
        };
        match packed {
            Some(s) => self.send_compressed(dst, s, kind, piece.nbytes()),
            None => self.send(dst, piece, kind),
        }
    }

    /// The redistribution exchange on pre-split parts: `parts[j]` is
    /// destined for the `j`-th member of `spec.group`, and every part is
    /// shipped as `spec.chunks` sub-blocks **chunk-major** (all of chunk 0
    /// to every peer, then all of chunk 1, …), so the first chunk completes
    /// everywhere before later ones are even on the wire — sends never
    /// block on this fabric. `on_chunk(q, pieces)` then receives chunk `q`'s
    /// sub-blocks from every member in group order (this rank's own is
    /// sliced locally and costs no bytes), so the caller computes on chunk
    /// `q` while chunks `q+1..` are in flight. Per-link FIFO plus the
    /// chunk-major send order guarantee the `q`-th receive from a peer is
    /// its chunk `q`, faults or not.
    ///
    /// Payload **bytes** per (src, dst) pair do not depend on `chunks` —
    /// the sub-blocks tile the part exactly — but message *counts* scale
    /// with it (empty sub-blocks still cost a zero-byte message when
    /// `chunks` exceeds the split dimension). A 1-chunk exchange moves
    /// whole parts onto the wire without copying them.
    ///
    /// On [`Wire::Indexed`] the receiver tells strips from raw pieces by
    /// the geometry of its own part, which every incoming piece must share
    /// along the stripped axis (columns for `Form::Col`, rows for
    /// `Form::Row`) — true of any Row↔Col split.
    ///
    /// The whole exchange, `on_chunk` calls included, is one
    /// `Span::Redistribute` (so kernel spans a caller opens per chunk nest
    /// inside it); this is the only place that opens one.
    ///
    /// # Panics
    /// If `parts.len() != spec.group.len()`, `spec.chunks == 0`, or this
    /// rank is not in the group.
    pub fn exchange(
        &self,
        spec: &Redistribution<'_>,
        mut parts: Vec<Mat>,
        mut on_chunk: impl FnMut(usize, Vec<Mat>),
    ) {
        let (group, to, chunks) = (spec.group, spec.to, spec.chunks);
        assert_eq!(
            parts.len(),
            group.len(),
            "exchange needs one part per group member"
        );
        assert!(chunks > 0, "need at least one chunk");
        let _span = rdm_trace::span(Span::Redistribute {
            from: match to {
                Form::Col => Form::Row,
                Form::Row => Form::Col,
            },
            to,
            chunks,
            kind: spec.kind.trace_tag(),
        });
        let my_idx = self.group_index(group);
        let take = |part: &mut Mat, q: usize| {
            if chunks == 1 {
                std::mem::replace(part, Mat::zeros(0, 0))
            } else {
                sub_block(part, to, chunks, q)
            }
        };
        for q in 0..chunks {
            for (idx, &dst) in group.iter().enumerate() {
                if idx != my_idx {
                    self.send_piece(dst, take(&mut parts[idx], q), spec.wire, spec.kind);
                }
            }
        }
        // Everything but this rank's own part is on the wire: free it before
        // the receive side starts allocating strips.
        let mut own = parts.swap_remove(my_idx);
        drop(parts);
        for q in 0..chunks {
            let mine = take(&mut own, q);
            let expect = match to {
                Form::Col => Expect::Cols(mine.cols()),
                Form::Row => Expect::Rows(mine.rows()),
            };
            let mut mine = Some(mine);
            let pieces = group
                .iter()
                .map(|&src| match (src == self.rank(), spec.wire) {
                    (true, _) => mine.take().expect("one own piece per chunk"),
                    (false, Wire::Dense) => self.recv(src),
                    (false, Wire::Indexed) => strip::unpack_rows(self.recv(src), expect),
                })
                .collect();
            on_chunk(q, pieces);
        }
    }

    /// Redistribute `local` — this rank's slice of a global matrix in the
    /// form opposite to `spec.to` — into its slice in form `spec.to`
    /// (Fig. 7): divide it into one part per group member, [`exchange`],
    /// and merge. As each strip of the *destination* slice completes it is
    /// handed to `sink(q, strip)`: strip `q` of a Row→Col redistribution is
    /// the column sub-range `part_range(my_cols, chunks, q)` of the final
    /// column slice with all the group's rows present; Col→Row is the
    /// mirror image. The received pieces of a strip are freed before `sink`
    /// sees it. The returned matrix is the strips reassembled —
    /// bit-identical for every `chunks` and `wire`.
    ///
    /// [`exchange`]: RankCtx::exchange
    pub fn redistribute(
        &self,
        spec: &Redistribution<'_>,
        local: &Mat,
        mut sink: impl FnMut(usize, &Mat),
    ) -> Mat {
        type Stack = fn(&[Mat]) -> Mat;
        let g = spec.group.len();
        let (parts, merge_pieces, merge_strips): (_, Stack, Stack) = match spec.to {
            Form::Col => (split_cols(local, g), vstack, hstack),
            Form::Row => (split_rows(local, g), hstack, vstack),
        };
        let mut strips = Vec::with_capacity(spec.chunks);
        self.exchange(spec, parts, |q, pieces| {
            let strip = merge_pieces(&pieces);
            drop(pieces);
            sink(q, &strip);
            strips.push(strip);
        });
        if strips.len() == 1 {
            strips.pop().expect("one strip")
        } else {
            merge_strips(&strips)
        }
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
    fn exchange_transposes_ownership() {
        let p = 4;
        let out = Cluster::new(p).run(|ctx| {
            let me = ctx.rank() as f32;
            // parts[j] = [me, j]
            let parts = (0..p)
                .map(|j| Mat::from_vec(1, 2, vec![me, j as f32]))
                .collect();
            let spec = Redistribution {
                group: &ctx.everyone(),
                to: Form::Col,
                wire: Wire::Dense,
                chunks: 1,
                kind: K,
            };
            let mut received = Vec::new();
            ctx.exchange(&spec, parts, |_, pieces| received = pieces);
            received
        });
        for (r, received) in out.results.iter().enumerate() {
            for (s, m) in received.iter().enumerate() {
                assert_eq!(m.get(0, 0), s as f32, "from rank");
                assert_eq!(m.get(0, 1), r as f32, "addressed to me");
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
