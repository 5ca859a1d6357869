//! Per-layer probes: each times one layer's public functions from outside,
//! on the shapes the workload gives one rank, so a change to that layer
//! shows here before (and whether or not) it shows end to end.
//!
//! A probe reports the median of at least [`MIN_CALLS`] calls after
//! [`WARMUPS`] warm-up calls, unless that would take more than four time
//! slices. Collectives run inside one `Cluster::new(P).run`, every call
//! preceded by a barrier, and report the slowest rank's median.

use std::hint::black_box;
use std::time::Instant;

use gnn_rdm::comm::{pack_nonzero_rows, unpack_rows, Cluster, CollectiveKind, Expect, RankCtx};
use gnn_rdm::core::adam::Adam;
use gnn_rdm::core::loss::{accuracy, softmax_xent, LossSpec};
use gnn_rdm::core::ops::PanelGrid;
use gnn_rdm::core::{best_plan_with_ra_sparsity, Dist, DistMat};
use gnn_rdm::dense::{self, kernels, part_range, Mat};
use gnn_rdm::graph::Subgraph;
use gnn_rdm::model::DeviceModel;
use gnn_rdm::serve::{form_batches, BatchPolicy, LoadGen};
use gnn_rdm::sparse::{self, Csr};

use crate::stats::median;
use crate::workloads::{Kind, Ready, SESSION_REQUESTS};

const WARMUPS: usize = 3;
const MIN_CALLS: usize = 30;
const MAX_CALLS: usize = 10_000;
const KIND: CollectiveKind = CollectiveKind::Other;

/// Median seconds of `body(prep())`; only `body` is timed.
fn time_calls<S, R>(
    slice_s: f64,
    mut prep: impl FnMut() -> S,
    mut body: impl FnMut(S) -> R,
) -> f64 {
    for _ in 0..WARMUPS {
        black_box(body(prep()));
    }
    let mut samples = Vec::new();
    let t0 = Instant::now();
    loop {
        let state = prep();
        let t = Instant::now();
        black_box(body(state));
        samples.push(t.elapsed().as_secs_f64());
        let spent = t0.elapsed().as_secs_f64();
        let enough = samples.len() >= MIN_CALLS && spent >= slice_s;
        if enough || spent >= 4.0 * slice_s || samples.len() >= MAX_CALLS {
            return median(&samples);
        }
    }
}

/// Slowest rank's median seconds of `body` run as a collective on `p`
/// ranks. Ranks agree on the call count from their mean warm-up time, so
/// none is left waiting in a collective the others have stopped calling.
fn time_collective<S, R>(
    p: usize,
    slice_s: f64,
    prep: impl Fn(&RankCtx) -> S + Sync,
    body: impl Fn(&RankCtx, &S) -> R + Sync,
) -> f64 {
    let out = Cluster::new(p).run(|ctx| {
        let state = prep(ctx);
        let t = Instant::now();
        for _ in 0..WARMUPS {
            ctx.barrier();
            black_box(body(ctx, &state));
        }
        let warm_s = t.elapsed().as_secs_f32() / WARMUPS as f32;
        let mean_s = ctx
            .all_reduce_sum(Mat::from_vec(1, 1, vec![warm_s]), KIND)
            .get(0, 0) as f64
            / p as f64;
        let fit = |budget_s: f64| (budget_s / mean_s.max(1e-9)) as usize;
        let calls = fit(slice_s)
            .clamp(MIN_CALLS, MAX_CALLS)
            .min(fit(4.0 * slice_s).max(WARMUPS));
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                ctx.barrier();
                let t = Instant::now();
                black_box(body(ctx, &state));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    });
    out.results.into_iter().fold(0.0, f64::max)
}

/// A matrix of noise whose first `zero_share` of rows are all-zero — what
/// the sparse wire sees after an aggregation with that share of empty
/// adjacency rows.
fn noise(rows: usize, cols: usize, zero_share: f64, seed: u64) -> Mat {
    let mut m = Mat::random(rows, cols, 1.0, seed);
    let zero_rows = (rows as f64 * zero_share) as usize;
    for r in 0..zero_rows {
        m.row_mut(r).fill(0.0);
    }
    m
}

/// Run every probe within about `budget_s` seconds; returns
/// `(metric name, value)` pairs.
pub fn run(ready: &Ready, budget_s: f64) -> Vec<(&'static str, f64)> {
    let w = &ready.workload;
    let ds = &ready.ds;
    let (p, r_a, f, hidden) = (w.ranks(), w.r_a(), w.features, w.hidden());
    let classes = ds.num_classes();
    let mode = w.kernel_mode();
    let policy = BatchPolicy::new(8, 2_000);
    let reqs = LoadGen::new(ready.seed, 8, 50, SESSION_REQUESTS).generate(ds.n());
    let targets: Vec<u32> = reqs[..8].iter().map(|r| r.target).collect();
    let budget = w.sampler_budget().unwrap_or(4096).min(ds.n());
    let around = Subgraph::around(&ds.adj, &targets, budget, ready.seed);

    // What one rank holds of one unit of work: all of the graph when
    // training, one induced minibatch when serving.
    let sub = matches!(w.kind, Kind::Serve { .. }).then(|| ds.induced(&around.vertices));
    let unit = sub.as_ref().unwrap_or(ds);
    let rows = unit.n();
    let local_rows = part_range(rows, p, 0).len();
    let grid = PanelGrid::new(p, r_a);
    let panel_rows = grid.panel_rows(rows, 0);
    let panel = unit.adj_norm.row_panel(panel_rows.start, panel_rows.end);
    let tile_cols = part_range(f, r_a, 0).len();
    let zero_share = unit.adj_norm.empty_row_fraction();
    let row_aggregation = unit.adj_norm_t.is_some();
    let sparse_wire = w.sparse_wire();

    const TIMED_PROBES: f64 = 23.0;
    let slice = budget_s / TIMED_PROBES;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // rdm-dense ---------------------------------------------------------
    let x = noise(local_rows, f, 0.0, 1);
    let g = noise(local_rows, hidden, 0.0, 2);
    let wgt = noise(f, hidden, 0.0, 3);
    let logits = noise(local_rows, classes, 0.0, 4);
    let gemm_s = kernels::with_mode(mode, || {
        time_calls(
            slice,
            || (),
            |()| {
                (
                    dense::gemm(&x, &wgt),
                    dense::gemm_tn(&x, &g),
                    dense::gemm_nt(&g, &wgt),
                )
            },
        )
    });
    out.push(("dense.gemm_ms", gemm_s * 1e3));
    let gemm_flop = 3.0 * 2.0 * (local_rows * f * hidden) as f64;
    out.push(("dense.gemm_gflops", gemm_flop / gemm_s * 1e-9));
    // Both directions of one redistribution as a rank sees them: a row
    // slice cut by columns and re-joined, a column slice cut by rows and
    // re-joined (pieces of one cut share the other dimension).
    let col_slice = noise(rows, part_range(f, p, 0).len(), 0.0, 15);
    let split_merge_s = time_calls(
        slice,
        || (),
        |()| {
            (
                dense::merge_col_chunks(&dense::split_cols(&x, p)),
                dense::merge_row_chunks(&dense::split_rows(&col_slice, p)),
            )
        },
    );
    out.push(("dense.split_merge_ms", split_merge_s * 1e3));
    let elementwise_s = time_calls(
        slice,
        || (),
        |()| {
            (
                dense::relu(&g),
                dense::relu_backward(&g, &g),
                dense::softmax_rows(&logits),
            )
        },
    );
    out.push(("dense.elementwise_ms", elementwise_s * 1e3));

    // rdm-sparse --------------------------------------------------------
    let b = noise(panel.cols(), tile_cols, 0.0, 5);
    let spmm_s = kernels::with_mode(mode, || {
        time_calls(slice, || (), |()| sparse::spmm(&panel, &b))
    });
    out.push(("sparse.spmm_ms", spmm_s * 1e3));
    let spmm_flop = 2.0 * (panel.nnz() * tile_cols) as f64;
    out.push(("sparse.spmm_gflops", spmm_flop / spmm_s * 1e-9));
    let normalize_s = time_calls(
        slice,
        || (),
        |()| {
            if row_aggregation {
                sparse::row_normalize(&unit.adj)
            } else {
                sparse::gcn_normalize(&unit.adj)
            }
        },
    );
    out.push(("sparse.normalize_ms", normalize_s * 1e3));
    // `col_support` caches on the matrix, so every call gets a fresh copy.
    let col_support_s = time_calls(
        slice,
        || panel.row_panel(0, panel.rows()),
        |fresh: Csr| fresh.col_support(p).len(),
    );
    out.push(("sparse.col_support_ms", col_support_s * 1e3));

    // rdm-comm ----------------------------------------------------------
    let pingpong_s = time_collective(
        p,
        slice,
        |_| Mat::zeros(1, 1),
        |ctx, one| match ctx.rank() {
            0 => {
                ctx.send(1, one.clone(), KIND);
                ctx.recv(1);
            }
            1 => {
                let m = ctx.recv(0);
                ctx.send(0, m, KIND);
            }
            _ => {}
        },
    );
    out.push(("comm.pingpong_us", pingpong_s * 1e6));
    let local = |ctx: &RankCtx, zero_share: f64| {
        noise(
            part_range(rows, p, ctx.rank()).len(),
            f,
            zero_share,
            10 + ctx.rank() as u64,
        )
    };
    let redistribute_s = time_collective(
        p,
        slice,
        |ctx| local(ctx, 0.0),
        |ctx, x| {
            let col = ctx.redistribute_h_to_v(x, KIND);
            ctx.redistribute_v_to_h(&col, KIND)
        },
    );
    out.push(("comm.redistribute_ms", redistribute_s * 1e3));
    let redistribute_sparse_s = time_collective(
        p,
        slice,
        |ctx| (grid.row_group(ctx.rank()), local(ctx, zero_share)),
        |ctx, (group, x)| {
            let col = ctx.group_redistribute_h_to_v_sparse(group, x, KIND);
            ctx.group_redistribute_v_to_h_sparse(group, &col, KIND)
        },
    );
    out.push(("comm.redistribute_sparse_ms", redistribute_sparse_s * 1e3));
    let redistribute_chunked_s = time_collective(
        p,
        slice,
        |ctx| {
            let x = local(ctx, if sparse_wire { zero_share } else { 0.0 });
            (grid.row_group(ctx.rank()), DistMat::from_row_slice(x, rows))
        },
        |ctx, (group, x)| {
            let sink = |_: usize, _: &Mat| {};
            if sparse_wire {
                x.redistribute_overlapped_grouped_sparse(ctx, group, Dist::Col, KIND, 3, sink)
            } else {
                x.redistribute_overlapped_grouped(ctx, group, Dist::Col, KIND, 3, sink)
            }
            .expect("Row->Col is always pipelined")
        },
    );
    out.push(("comm.redistribute_chunked_ms", redistribute_chunked_s * 1e3));
    // One piece of a group redistribution, as the indexed-strip wire
    // packs and unpacks it.
    let piece = noise(local_rows, part_range(f, r_a, 0).len(), zero_share, 6);
    let pack_s = time_calls(slice, || (), |()| pack_nonzero_rows(&piece));
    out.push(("comm.strip_pack_ms", pack_s * 1e3));
    let unpack_s = time_calls(
        slice,
        || pack_nonzero_rows(&piece).unwrap_or_else(|| piece.clone()),
        |msg| unpack_rows(msg, Expect::Cols(piece.cols())),
    );
    out.push(("comm.strip_unpack_ms", unpack_s * 1e3));
    let broadcast_s = time_collective(
        p,
        slice,
        |ctx| {
            // The panel-broadcast group where there is one, else everyone.
            let group = grid.col_group(ctx.rank());
            let group = if group.len() > 1 {
                group
            } else {
                (0..p).collect()
            };
            (group, noise(local_rows, tile_cols, 0.0, 7))
        },
        |ctx, (group, tile)| {
            let root = group[0];
            let payload = (ctx.rank() == root).then(|| tile.clone());
            ctx.group_broadcast(group, root, payload, KIND)
        },
    );
    out.push(("comm.broadcast_ms", broadcast_s * 1e3));
    let allreduce_s = time_collective(
        p,
        slice,
        |_| noise(f, hidden, 0.0, 8),
        |ctx, grad| ctx.all_reduce_ring(grad.clone(), KIND),
    );
    out.push(("comm.allreduce_ms", allreduce_s * 1e3));
    let spawn_s = time_calls(slice, || (), |()| Cluster::new(p).run(|_| ()).results.len());
    out.push(("comm.cluster_spawn_ms", spawn_s * 1e3));

    // rdm-graph ---------------------------------------------------------
    out.push(("graph.instantiate_ms", ready.instantiate_s * 1e3));
    let around_s = time_calls(
        slice,
        || (),
        |()| Subgraph::around(&ds.adj, &targets, budget, ready.seed),
    );
    out.push(("graph.subgraph_around_us", around_s * 1e6));
    let induced_s = time_calls(slice, || (), |()| ds.induced(&around.vertices));
    out.push(("graph.induced_us", induced_s * 1e6));

    // rdm-model ---------------------------------------------------------
    let shape = unit.shape_layers(hidden, 2);
    let device = DeviceModel::a6000_pcie();
    let sigma = if sparse_wire { 1.0 - zero_share } else { 1.0 };
    let best_plan_s = time_calls(
        slice,
        || (),
        |()| best_plan_with_ra_sparsity(&shape, p, r_a, &device, sigma),
    );
    out.push(("model.best_plan_us", best_plan_s * 1e6));

    // rdm-core ----------------------------------------------------------
    let labels = &unit.labels;
    let mask = vec![true; rows];
    let loss_s = time_collective(
        p,
        slice,
        |ctx| {
            let mine = part_range(rows, p, ctx.rank()).len();
            DistMat::from_row_slice(noise(mine, classes, 0.0, 9), rows)
        },
        |ctx, logits| {
            let spec = LossSpec {
                labels,
                mask: &mask,
                num_classes: classes,
            };
            (
                softmax_xent(logits, &spec, ctx).0,
                accuracy(logits, labels, &mask, ctx),
            )
        },
    );
    out.push(("core.loss_ms", loss_s * 1e3));
    let shapes = [(f, hidden), (hidden, classes)];
    let grads = [noise(f, hidden, 0.0, 11), noise(hidden, classes, 0.0, 12)];
    let mut params = [noise(f, hidden, 0.0, 13), noise(hidden, classes, 0.0, 14)];
    let mut adam = Adam::new(0.01, &shapes);
    let adam_s = time_calls(slice, || (), |()| adam.step(&mut params, &grads));
    out.push(("core.adam_us", adam_s * 1e6));

    // rdm-serve ---------------------------------------------------------
    let form_batches_s = time_calls(slice, || (), |()| form_batches(&reqs, &policy));
    out.push(("serve.form_batches_us", form_batches_s * 1e6));
    let loadgen_s = time_calls(
        slice,
        || (),
        |()| LoadGen::new(ready.seed, 8, 50, SESSION_REQUESTS).generate(ds.n()),
    );
    out.push(("serve.loadgen_us", loadgen_s * 1e6));

    // shims/rayon -------------------------------------------------------
    // The shim is not a public dependency of the facade crate, so the
    // probe goes through the smallest public call that takes the parallel
    // path: an in-place `scale` at the 16 384-element threshold.
    let mut trivial = Mat::zeros(128, 128);
    let dispatch_s = time_calls(slice, || (), |()| dense::scale(&mut trivial, 1.0));
    out.push(("pool.dispatch_us", dispatch_s * 1e6));

    out
}
