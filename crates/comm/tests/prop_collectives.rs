//! Property-based tests of the collective fabric: the algebraic contracts
//! every trainer relies on, over randomized shapes and cluster sizes.

use proptest::prelude::*;
use rdm_comm::{Cluster, CollectiveKind, FaultPlan, Form, RankCtx, Redistribution, Wire};
use rdm_dense::{allclose, hstack, part_range, vstack, Mat};
use rdm_trace::{EventData, Span};

const K: CollectiveKind = CollectiveKind::Other;

/// The whole-cluster blocking dense redistribution to `to`, charged to
/// `kind`.
fn redistribute_all(ctx: &RankCtx, to: Form, local: &Mat, kind: CollectiveKind) -> Mat {
    let group: Vec<usize> = (0..ctx.size()).collect();
    let spec = Redistribution {
        group: &group,
        to,
        wire: Wire::Dense,
        chunks: 1,
        kind,
    };
    ctx.redistribute(&spec, local, |_, _| {})
}

/// The all-to-all view of the primitive: `exchange` on arbitrary pre-split
/// parts, every sender's chunks reassembled.
fn exchange_all(ctx: &RankCtx, spec: &Redistribution<'_>, parts: Vec<Mat>) -> Vec<Mat> {
    let mut per_sender: Vec<Vec<Mat>> = parts.iter().map(|_| Vec::new()).collect();
    ctx.exchange(spec, parts, |_, pieces| {
        for (sender, piece) in pieces.into_iter().enumerate() {
            per_sender[sender].push(piece);
        }
    });
    per_sender
        .iter()
        .map(|c| match spec.to {
            Form::Col => hstack(c),
            Form::Row => vstack(c),
        })
        .collect()
}

/// `exchange_all` over the whole cluster.
fn exchange_everyone(
    ctx: &RankCtx,
    to: Form,
    wire: Wire,
    chunks: usize,
    parts: Vec<Mat>,
) -> Vec<Mat> {
    let group: Vec<usize> = (0..ctx.size()).collect();
    let spec = Redistribution {
        group: &group,
        to,
        wire,
        chunks,
        kind: K,
    };
    exchange_all(ctx, &spec, parts)
}

fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcast delivers a bit-identical copy to every rank, from any
    /// root.
    #[test]
    fn broadcast_delivers_exact_copies(
        p in 1usize..6,
        root_pick in 0usize..6,
        rows in 1usize..20,
        cols in 1usize..10,
        seed in 0u64..500,
    ) {
        let root = root_pick % p;
        let payload = Mat::random(rows, cols, 1.0, seed);
        let expect = payload.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let m = (ctx.rank() == root).then(|| payload.clone());
            let everyone: Vec<usize> = (0..p).collect();
            ctx.group_broadcast(&everyone, root, m, K)
        });
        for got in &out.results {
            prop_assert_eq!(got, &expect);
        }
    }

    /// The blocking exchange is an ownership transpose: received[i] on
    /// rank j equals sent[j] by rank i.
    #[test]
    fn exchange_is_a_transpose(p in 1usize..6, seed in 0u64..500) {
        let out = Cluster::new(p).run(move |ctx| {
            let parts: Vec<Mat> = (0..p)
                .map(|j| Mat::random(2, 2, 1.0, seed ^ ((ctx.rank() * 31 + j) as u64)))
                .collect();
            exchange_everyone(ctx, Form::Col, Wire::Dense, 1, parts)
        });
        for (j, received) in out.results.iter().enumerate() {
            for (i, m) in received.iter().enumerate() {
                let expect = Mat::random(2, 2, 1.0, seed ^ ((i * 31 + j) as u64));
                prop_assert_eq!(m, &expect, "rank {} from rank {}", j, i);
            }
        }
    }

    /// H→V followed by V→H restores every rank's row slice exactly, for
    /// any matrix shape (including ones that do not divide P).
    #[test]
    fn redistribution_roundtrip(
        p in 1usize..6,
        n in 1usize..40,
        f in 1usize..16,
        seed in 0u64..500,
    ) {
        let global = Mat::random(n, f, 1.0, seed);
        let g2 = global.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let r = part_range(n, p, ctx.rank());
            let local = g2.row_block(r.start, r.end);
            let v = redistribute_all(ctx, Form::Col, &local, K);
            redistribute_all(ctx, Form::Row, &v, K)
        });
        for (rank, got) in out.results.iter().enumerate() {
            let r = part_range(n, p, rank);
            prop_assert_eq!(got, &global.row_block(r.start, r.end));
        }
    }

    /// The H→V redistribution moves exactly Σ_{r≠owner} bytes — never
    /// more than (P-1)/P of the matrix, and exactly that when P divides
    /// both dimensions.
    #[test]
    fn redistribution_volume_bounded(
        p in 2usize..6,
        n_mult in 1usize..6,
        f_mult in 1usize..4,
    ) {
        let n = n_mult * p;
        let f = f_mult * p;
        let out = Cluster::new(p).run(move |ctx| {
            let r = part_range(n, p, ctx.rank());
            let local = Mat::zeros(r.len(), f);
            redistribute_all(ctx, Form::Col, &local, CollectiveKind::Redistribute);
        });
        let total: u64 = out
            .stats
            .iter()
            .map(|s| s.bytes(CollectiveKind::Redistribute))
            .sum();
        let exact = ((p - 1) * n * f * 4 / p) as u64;
        prop_assert_eq!(total, exact);
    }

    /// Ring and naive all-reduce agree numerically for any payload shape.
    #[test]
    fn ring_equals_naive_allreduce(
        p in 1usize..6,
        rows in 1usize..24,
        cols in 1usize..8,
        seed in 0u64..500,
    ) {
        let out = Cluster::new(p).run(move |ctx| {
            let m = Mat::random(rows, cols, 1.0, seed ^ ctx.rank() as u64);
            let naive = ctx.all_reduce_sum(m.clone(), K);
            let ring = ctx.all_reduce_ring(m, K);
            (naive, ring)
        });
        for (naive, ring) in &out.results {
            prop_assert!(allclose(naive, ring, 1e-4));
        }
    }

    /// All-gather returns every rank's contribution in rank order on
    /// every rank.
    #[test]
    fn all_gather_order_and_content(p in 1usize..6, seed in 0u64..500) {
        let out = Cluster::new(p).run(move |ctx| {
            let part = Mat::random(1, 3, 1.0, seed ^ ctx.rank() as u64);
            ctx.all_gather(part, K)
        });
        for parts in &out.results {
            prop_assert_eq!(parts.len(), p);
            for (i, m) in parts.iter().enumerate() {
                let expect = Mat::random(1, 3, 1.0, seed ^ i as u64);
                prop_assert_eq!(m, &expect);
            }
        }
    }

    /// The chunked exchange is the ownership transpose for *any* chunk
    /// count — including counts that don't divide the split axis (ragged
    /// tails) and counts exceeding it (empty chunks) — on both axes and
    /// both wires.
    #[test]
    fn chunked_exchange_is_a_transpose(
        p in 1usize..6,
        rows in 1usize..12,
        cols in 1usize..9,
        chunks in 1usize..20,
        by_rows in 0usize..2,
        indexed in 0usize..2,
        seed in 0u64..500,
    ) {
        let to = if by_rows == 1 { Form::Row } else { Form::Col };
        let wire = if indexed == 1 { Wire::Indexed } else { Wire::Dense };
        let make = move |me: usize| -> Vec<Mat> {
            (0..p)
                .map(|j| {
                    // Zero some parts outright so the indexed wire packs.
                    if (me + j + seed as usize).is_multiple_of(3) {
                        Mat::zeros(rows, cols)
                    } else {
                        Mat::random(rows, cols, 1.0, seed ^ ((me * 31 + j) as u64))
                    }
                })
                .collect()
        };
        let chunked = Cluster::new(p)
            .run(move |ctx| exchange_everyone(ctx, to, wire, chunks, make(ctx.rank())));
        for (rank, got) in chunked.results.iter().enumerate() {
            for (i, m) in got.iter().enumerate() {
                prop_assert_eq!(m, &make(i)[rank], "rank {} chunked payload from {}", rank, i);
            }
        }
        // The dense-equivalent book is every part but the own one, which
        // the wire never exceeds and the dense wire carries exactly; only
        // message counts scale with the (non-empty) chunk count.
        for (me, sc) in chunked.stats.iter().enumerate() {
            let sent = make(me).iter().map(Mat::nbytes).sum::<usize>() - make(me)[me].nbytes();
            prop_assert_eq!(sc.dense_bytes(K), sent as u64);
            prop_assert!(sc.bytes(K) <= sent as u64);
            if wire == Wire::Dense {
                prop_assert_eq!(sc.bytes(K), sent as u64);
            }
            prop_assert!(sc.messages(K) >= (p - 1) as u64);
        }
    }

    /// A chunked H→V redistribution followed by a chunked V→H one
    /// restores every rank's slice exactly, via the same all-to-all
    /// algebra the engine's Row→Col→Row path uses.
    #[test]
    fn chunked_redistribution_roundtrip(
        p in 1usize..6,
        n in 1usize..40,
        f in 1usize..16,
        chunks in 1usize..24,
        seed in 0u64..500,
    ) {
        let global = Mat::random(n, f, 1.0, seed);
        let g2 = global.clone();
        let out = Cluster::new(p).run(move |ctx| {
            let me = ctx.rank();
            let r = part_range(n, p, me);
            let local = g2.row_block(r.start, r.end);
            // H→V: split my row slice by column ownership, chunk along
            // columns (the strips the pipelined SpMM consumes).
            let parts: Vec<Mat> = (0..p)
                .map(|j| {
                    let c = part_range(f, p, j);
                    local.col_block(c.start, c.end)
                })
                .collect();
            let got = exchange_everyone(ctx, Form::Col, Wire::Dense, chunks, parts);
            let mine = part_range(f, p, me);
            let v = rdm_dense::vstack(&got);
            assert_eq!(v.cols(), mine.len());
            // V→H: split the column slice by row ownership, chunk along
            // rows, and reassemble my original slice.
            let back: Vec<Mat> = (0..p)
                .map(|j| {
                    let rr = part_range(n, p, j);
                    v.row_block(rr.start, rr.end)
                })
                .collect();
            let got = exchange_everyone(ctx, Form::Row, Wire::Dense, chunks, back);
            rdm_dense::hstack(&got)
        });
        for (rank, got) in out.results.iter().enumerate() {
            let r = part_range(n, p, rank);
            prop_assert_eq!(got, &global.row_block(r.start, r.end));
        }
    }

    /// Chunked collectives ride the same envelope protocol as everything
    /// else: under seeded drops, reordering and stragglers the results
    /// and payload counters are bit-identical to the clean run.
    #[test]
    fn chunked_all_to_all_bitwise_under_chaos(
        p in 2usize..6,
        chunks in 1usize..10,
        drop in 0.0f64..0.4,
        seed in 0u64..32,
    ) {
        let prog = move |ctx: &RankCtx| {
            let parts: Vec<Mat> = (0..p)
                .map(|j| Mat::random(5, 7, 1.0, (ctx.rank() * 31 + j) as u64))
                .collect();
            exchange_everyone(ctx, Form::Col, Wire::Dense, chunks, parts)
        };
        let plan = FaultPlan::new(chaos_base() ^ seed ^ 0xA17)
            .drop_rate(drop)
            .delay(0.2, 3)
            .straggler(0.02, 20_000);
        let clean = Cluster::new(p).run(prog);
        let faulty = Cluster::with_faults(p, plan).run(prog);
        for (rank, (c, f)) in clean.results.iter().zip(&faulty.results).enumerate() {
            prop_assert_eq!(c, f, "rank {} diverged under faults", rank);
        }
        for (sc, sf) in clean.stats.iter().zip(&faulty.stats) {
            prop_assert_eq!(sc.bytes(K), sf.bytes(K), "payload bytes perturbed");
            prop_assert_eq!(sc.messages(K), sf.messages(K), "payload messages perturbed");
        }
    }

    /// Within every row group of a `P/R_A × R_A` grid, the sparsity-aware
    /// chunk-pipelined exchange is the group's ownership transpose — for
    /// any chunk count (ragged tails, empty chunks), any zero-row pattern,
    /// and any chaos schedule — and its wire bytes never exceed the dense
    /// volume while the dense-equivalent book matches it exactly.
    #[test]
    fn group_chunked_sparse_exchange_is_a_transpose(
        panels in 1usize..4,
        r_a in 1usize..4,
        rows in 1usize..10,
        cols in 1usize..8,
        chunks in 1usize..12,
        drop in 0.0f64..0.3,
        seed in 0u64..64,
    ) {
        let p = panels * r_a;
        let make = move |me: usize| -> Vec<Mat> {
            (0..r_a)
                .map(|j| {
                    // Zero some pieces outright so the indexed-strip
                    // packing actually engages.
                    if (me + j + seed as usize).is_multiple_of(3) {
                        Mat::zeros(rows, cols)
                    } else {
                        Mat::random(rows, cols, 1.0, seed ^ ((me * 31 + j) as u64))
                    }
                })
                .collect()
        };
        let row_group = move |me: usize| -> Vec<usize> {
            let base = (me / r_a) * r_a;
            (base..base + r_a).collect()
        };
        let plan = FaultPlan::new(chaos_base() ^ seed ^ 0x9A7)
            .drop_rate(drop)
            .delay(0.2, 3);
        let sparse = Cluster::with_faults(p, plan).run(move |ctx| {
            let me = ctx.rank();
            let spec = Redistribution {
                group: &row_group(me),
                to: Form::Col,
                wire: Wire::Indexed,
                chunks,
                kind: K,
            };
            exchange_all(ctx, &spec, make(me))
        });
        for (rank, got) in sparse.results.iter().enumerate() {
            for (i, (m, &src)) in got.iter().zip(&row_group(rank)).enumerate() {
                let sent = &make(src)[rank % r_a];
                prop_assert_eq!(m, sent, "rank {} diverged from member {}'s part", rank, i);
            }
        }
        for (me, ss) in sparse.stats.iter().enumerate() {
            let dense = make(me).iter().map(Mat::nbytes).sum::<usize>() - make(me)[me % r_a].nbytes();
            prop_assert!(
                ss.bytes(K) <= dense as u64,
                "sparse wire bytes {} above dense {}",
                ss.bytes(K),
                dense
            );
            prop_assert_eq!(ss.dense_bytes(K), dense as u64, "dense-equivalent book diverged");
        }
    }
}

/// The whole {group} × {wire} × {chunks} × {direction} × {fabric} lattice
/// of the one redistribution primitive, as a table. Every corner must
/// reproduce the scatter reference bitwise, stream exactly `chunks` strips
/// that tile the result, book the paper's `(g-1)/g·|M|` dense-equivalent
/// volume, never put more than that on the wire (exactly that on the dense
/// wire), cost `chunks·(g-1)` messages per rank, and open exactly one
/// `Redistribute { chunks }` span per call.
#[test]
fn redistribution_lattice() {
    const KIND: CollectiveKind = CollectiveKind::Redistribute;
    let p = 4;
    // Scope: the whole cluster, or the row groups of a P=4, R_A=2 grid.
    type GroupOf = fn(usize) -> Vec<usize>;
    let scopes: [(&str, GroupOf); 2] = [
        ("global", |_| (0..4).collect()),
        ("row group", |me| vec![me / 2 * 2, me / 2 * 2 + 1]),
    ];
    // The matrix each group redistributes: every third row bit-zero so the
    // indexed wire has something to elide; distinct per group. `g` divides
    // the first shape (the formula is exact), not the second (ragged).
    let matrix = |base: usize, n: usize, f: usize| {
        Mat::from_fn(n, f, move |i, j| {
            if i % 3 == 1 {
                0.0
            } else {
                (base * 10_000 + i * 100 + j + 1) as f32
            }
        })
    };
    let mut retries = 0u64;
    for (scope, group_of) in scopes {
        for (n, f) in [(8usize, 12usize), (7, 5)] {
            for wire in [Wire::Dense, Wire::Indexed] {
                for chunks in [1usize, 2, 3, 5, 13] {
                    for to in [Form::Col, Form::Row] {
                        for faulty in [false, true] {
                            let case = format!(
                                "{scope} {n}x{f} {wire:?} chunks={chunks} to={to:?} faulty={faulty}"
                            );
                            let cluster = if faulty {
                                let plan = FaultPlan::new(chaos_base() ^ 0x1A77)
                                    .drop_rate(0.3)
                                    .delay(0.4, 3);
                                Cluster::with_faults(p, plan)
                            } else {
                                Cluster::new(p)
                            };
                            let out = cluster.traced().run(move |ctx| {
                                let group = group_of(ctx.rank());
                                let (g, idx) = (group.len(), ctx.rank() - group[0]);
                                let m = matrix(group[0], n, f);
                                let (rows, cols) = (part_range(n, g, idx), part_range(f, g, idx));
                                let (local, expect) = match to {
                                    Form::Col => (
                                        m.row_block(rows.start, rows.end),
                                        m.col_block(cols.start, cols.end),
                                    ),
                                    Form::Row => (
                                        m.col_block(cols.start, cols.end),
                                        m.row_block(rows.start, rows.end),
                                    ),
                                };
                                let spec = Redistribution {
                                    group: &group,
                                    to,
                                    wire,
                                    chunks,
                                    kind: KIND,
                                };
                                let mut strips = Vec::new();
                                let got = ctx.redistribute(&spec, &local, |q, strip| {
                                    assert_eq!(q, strips.len(), "strips arrive in order");
                                    strips.push(strip.clone());
                                });
                                assert_eq!(got, expect, "result is the scatter reference");
                                assert_eq!(strips.len(), chunks, "one strip per chunk");
                                let tiled = match to {
                                    Form::Col => hstack(&strips),
                                    Form::Row => vstack(&strips),
                                };
                                assert_eq!(tiled, expect, "strips tile the result");
                                // Dense-equivalent bytes this rank ships: its
                                // slice minus the part it keeps.
                                (g, 4 * (local.len() - rows.len() * cols.len()))
                            });
                            let traces = out.traces.as_ref().expect("traced");
                            for (rank, st) in out.stats.iter().enumerate() {
                                let (g, dense) = out.results[rank];
                                assert_eq!(st.dense_bytes(KIND), dense as u64, "{case}");
                                assert!(st.bytes(KIND) <= st.dense_bytes(KIND), "{case}");
                                if wire == Wire::Dense {
                                    assert_eq!(st.bytes(KIND), st.dense_bytes(KIND), "{case}");
                                }
                                assert_eq!(st.messages(KIND), (chunks * (g - 1)) as u64, "{case}");
                                assert_eq!(st.total_bytes(), st.bytes(KIND), "{case}");
                                let spans: Vec<_> = traces[rank]
                                    .events
                                    .iter()
                                    .filter_map(|e| match e.data {
                                        EventData::Begin(Span::Redistribute { chunks, .. }) => {
                                            Some(chunks)
                                        }
                                        _ => None,
                                    })
                                    .collect();
                                assert_eq!(spans, [chunks], "{case}: one span per call");
                                retries += st.retries;
                            }
                            // Σ over a group of what its members ship is the
                            // paper's (g-1)/g·|M| when g divides the shape.
                            if (n, f) == (8, 12) {
                                let g = out.results[0].0;
                                let total: u64 =
                                    out.stats.iter().map(|s| s.dense_bytes(KIND)).sum();
                                let groups = (p / g) as u64;
                                assert_eq!(
                                    total,
                                    groups * ((g - 1) * n * f * 4 / g) as u64,
                                    "{case}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(retries > 0, "the fault plan never fired");
}
