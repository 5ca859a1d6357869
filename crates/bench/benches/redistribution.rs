//! Microbenchmarks of the RDM redistribution (Fig. 7): the all-to-all
//! row↔column conversion that replaces CAGNET's broadcasts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdm_comm::{Cluster, CollectiveKind, Form, RankCtx, Redistribution, Wire};
use rdm_dense::{part_range, Mat};

/// One whole-cluster blocking Row→Col redistribution on `wire`.
fn row_to_col(ctx: &RankCtx, local: &Mat, wire: Wire) -> Mat {
    let group: Vec<usize> = (0..ctx.size()).collect();
    let spec = Redistribution {
        group: &group,
        to: Form::Col,
        wire,
        chunks: 1,
        kind: CollectiveKind::Redistribute,
    };
    ctx.redistribute(&spec, local, |_, _| {})
}

fn bench_redistribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("redistribute_row_to_col");
    group.sample_size(20);
    for &p in &[2usize, 4, 8] {
        {
            let &(n, f) = &(20_000usize, 128usize);
            group.throughput(Throughput::Bytes((n * f * 4) as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("p{p}_n{n}_f{f}")),
                &(p, n, f),
                |b, &(p, n, f)| {
                    b.iter(|| {
                        Cluster::new(p).run(|ctx| {
                            let rows = part_range(n, p, ctx.rank());
                            let local = Mat::zeros(rows.len(), f);
                            row_to_col(ctx, &local, Wire::Dense)
                        })
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_sparse_redistribution(c: &mut Criterion) {
    // The sparsity-aware indexed-strip path on a payload with one third of
    // its rows bit-zero (isolated vertices under self-loop-free row
    // aggregation). Compare against `redistribute_row_to_col` above for the
    // packing overhead vs volume saving trade.
    let mut group = c.benchmark_group("redistribute_row_to_col_indexed");
    group.sample_size(20);
    for &p in &[2usize, 4, 8] {
        let &(n, f) = &(20_000usize, 128usize);
        group.throughput(Throughput::Bytes((n * f * 4) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}_n{n}_f{f}")),
            &(p, n, f),
            |b, &(p, n, f)| {
                b.iter(|| {
                    Cluster::new(p).run(|ctx| {
                        let rows = part_range(n, p, ctx.rank());
                        let local = Mat::from_fn(rows.len(), f, |r, _| {
                            if (rows.start + r).is_multiple_of(3) {
                                0.0
                            } else {
                                1.0
                            }
                        });
                        row_to_col(ctx, &local, Wire::Indexed)
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_divide_merge(c: &mut Criterion) {
    // The local kernels of Fig. 7 in isolation (no threads).
    let mut group = c.benchmark_group("divide_merge");
    let m = Mat::random(20_000, 128, 1.0, 1);
    group.bench_function("split_cols_p8", |b| b.iter(|| rdm_dense::split_cols(&m, 8)));
    let parts = rdm_dense::split_rows(&m, 8);
    group.bench_function("vstack_p8", |b| b.iter(|| rdm_dense::vstack(&parts)));
    group.finish();
}

criterion_group!(
    benches,
    bench_redistribution,
    bench_sparse_redistribution,
    bench_divide_merge
);
criterion_main!(benches);
