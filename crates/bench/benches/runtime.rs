//! The intra-rank compute runtime, measured head to head against what it
//! replaced: persistent-pool dispatch vs spawn-per-call scoped threads,
//! and nnz-balanced SpMM panels vs the old row-uniform chunking on a
//! skewed RMAT graph.
//!
//! Two properties are asserted (so `--test` mode gates CI):
//!
//! * pooled dispatch is cheaper than spawning fresh OS threads per call on
//!   small (sub-`SPAWN_MIN`-adjacent) kernels — the pool's raison d'être;
//! * the nnz-balanced partition's makespan (max per-task nonzeros, the
//!   quantity parallel SpMM wall time is proportional to) beats uniform
//!   row chunking's on a power-law graph. The wall-clock counterpart is
//!   additionally asserted when the host actually has ≥ 2 cores; the
//!   makespan assertion is deterministic and runs everywhere.

use criterion::{criterion_group, criterion_main, Criterion};
use rdm_core::{train_gcn, TrainerConfig};
use rdm_dense::kernels::{with_mode, Mode};
use rdm_dense::{gemm, gemm_nt, gemm_tn, Mat};
use rdm_graph::{rmat, symmetrize, DatasetSpec};
use rdm_sparse::{balanced_panels, gcn_normalize, spmm, Csr};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Small per-task kernel: enough work to be real, little enough that
/// dispatch overhead dominates a spawn-per-call runtime.
fn small_task(i: usize) {
    let mut acc = i as f32;
    for k in 0..300 {
        acc = acc.mul_add(1.000_1, k as f32 * 1e-6);
    }
    black_box(acc);
}

/// Minimum over `reps` timed batches of `calls` dispatches each.
fn min_batch_time(reps: usize, calls: usize, mut run: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                run();
            }
            t0.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_dispatch(c: &mut Criterion) {
    const TASKS: usize = 64;
    const HELPERS: usize = 3;
    // Warm the pool so lazy worker spawning is not billed to the first batch.
    rayon::internals::run_pooled(TASKS, HELPERS, small_task);

    let pooled = min_batch_time(5, 40, || {
        rayon::internals::run_pooled(TASKS, HELPERS, small_task)
    });
    let scoped = min_batch_time(5, 40, || {
        rayon::internals::run_scoped(TASKS, HELPERS + 1, small_task)
    });
    eprintln!(
        "dispatch: 40 calls x {TASKS} tasks — pooled {pooled:?} vs spawn-per-call {scoped:?} \
         ({:.1}x)",
        scoped.as_secs_f64() / pooled.as_secs_f64()
    );
    assert!(
        pooled < scoped,
        "persistent pool ({pooled:?}) must beat spawn-per-call ({scoped:?}) on small kernels"
    );

    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    group.bench_function("pooled", |b| {
        b.iter(|| rayon::internals::run_pooled(TASKS, HELPERS, small_task))
    });
    group.bench_function("spawn_per_call", |b| {
        b.iter(|| rayon::internals::run_scoped(TASKS, HELPERS + 1, small_task))
    });
    group.finish();
}

/// Per-task nonzero counts under uniform row chunking (the old schedule).
fn uniform_task_nnz(a: &Csr, tasks: usize) -> Vec<usize> {
    let chunk = (a.rows() / tasks).max(1);
    (0..a.rows())
        .step_by(chunk)
        .map(|r0| {
            let r1 = (r0 + chunk).min(a.rows());
            a.indptr()[r1] - a.indptr()[r0]
        })
        .collect()
}

fn bench_spmm_balance(c: &mut Criterion) {
    // Graph500-skewed RMAT: a handful of hub vertices own most edges.
    let n = 1 << 12;
    let a = gcn_normalize(&symmetrize(n, &rmat(n, 16 * n, 7)));
    let tasks = 32;

    let uniform = uniform_task_nnz(&a, tasks);
    let balanced = balanced_panels(a.indptr(), tasks);
    let balanced_nnz: Vec<usize> = balanced
        .windows(2)
        .map(|w| a.indptr()[w[1]] - a.indptr()[w[0]])
        .collect();
    let uniform_makespan = *uniform.iter().max().unwrap();
    let balanced_makespan = *balanced_nnz.iter().max().unwrap();
    let mean = a.nnz() as f64 / tasks as f64;
    eprintln!(
        "spmm balance: {tasks} tasks on rmat(n={n}, nnz={}) — makespan {uniform_makespan} nnz \
         uniform vs {balanced_makespan} nnz balanced (mean {mean:.0}, {:.2}x better)",
        a.nnz(),
        uniform_makespan as f64 / balanced_makespan as f64
    );
    assert!(
        (balanced_makespan as f64) < 0.8 * uniform_makespan as f64,
        "nnz-balanced makespan ({balanced_makespan}) must clearly beat uniform row \
         chunking ({uniform_makespan}) on a skewed graph"
    );
    assert!(
        (balanced_makespan as f64) < 1.5 * mean,
        "balanced partition should be near the per-task mean ({balanced_makespan} vs {mean:.0})"
    );

    let b = rdm_dense::Mat::random(n, 32, 1.0, 3);
    let dense_cols = b.cols();
    // Wall-clock comparison only means something with real parallelism.
    if rayon::current_num_threads() >= 2 {
        let t_bal = min_batch_time(3, 5, || {
            black_box(spmm(&a, &b));
        });
        // Replay the old row-uniform schedule through the same pool.
        let chunk = (a.rows() / tasks).max(1);
        let n_chunks = a.rows().div_ceil(chunk);
        let t_uni = min_batch_time(3, 5, || {
            let mut out = rdm_dense::Mat::zeros(a.rows(), dense_cols);
            let (indptr, indices, vals) = (a.indptr(), a.indices(), a.vals());
            let b_data = b.as_slice();
            let out_slice = out.as_mut_slice();
            let bounds: Vec<usize> = (0..=n_chunks).map(|i| (i * chunk).min(n)).collect();
            rayon::par_partition_mut(out_slice, &bounds, dense_cols, |t, c_chunk| {
                for (rr, r) in (bounds[t]..bounds[t + 1]).enumerate() {
                    let c_row = &mut c_chunk[rr * dense_cols..(rr + 1) * dense_cols];
                    for idx in indptr[r]..indptr[r + 1] {
                        let k = indices[idx] as usize;
                        let v = vals[idx];
                        for (cv, &bv) in c_row.iter_mut().zip(&b_data[k * dense_cols..]) {
                            *cv += v * bv;
                        }
                    }
                }
            });
            black_box(out);
        });
        eprintln!("spmm wall: balanced {t_bal:?} vs uniform {t_uni:?}");
        assert!(
            t_bal < t_uni,
            "nnz-balanced SpMM ({t_bal:?}) must beat row-uniform ({t_uni:?}) on ≥2 cores"
        );
    } else {
        eprintln!("spmm wall: single hardware thread, skipping wall-clock comparison");
    }

    let mut group = c.benchmark_group("spmm_rmat");
    group.sample_size(10);
    group.bench_function("nnz_balanced", |bch| bch.iter(|| black_box(spmm(&a, &b))));
    group.finish();
}

/// The default (fast) microkernels, measured head to head against the
/// scalar reference they are bitwise equal to: raw GEMM in all three
/// orientations and SpMM at the auto-detected lane width, and the
/// end-to-end training epoch on the bench-smoke configuration, which must
/// come out ≥ 2× faster than `reference_kernels()`. `gemm_tn` / `gemm_nt`
/// are timed at a training shape (reduction over the vertices, 128-wide
/// features) because that is where a fast path that only re-tiles `gemm`
/// falls behind the reference; the fast `gemm_tn` must never be slower.
fn bench_fast_kernels(c: &mut Criterion) {
    let fast = rdm_dense::kernels::default_mode();
    // (scalar, fast) best-of-5 batch times of one kernel call.
    let both = |run: &dyn Fn()| {
        with_mode(fast, run); // warm the pool and the scratch shelf
        let scalar = with_mode(Mode::Scalar, || min_batch_time(5, 3, run));
        (scalar, with_mode(fast, || min_batch_time(5, 3, run)))
    };
    let speedup = |(scalar, fast): (Duration, Duration)| scalar.as_secs_f64() / fast.as_secs_f64();

    // Forward GEMM: tall activations × square weights.
    let a = Mat::random(512, 192, 1.0, 1);
    let b = Mat::random(192, 192, 1.0, 2);
    let t_gemm = both(&|| drop(black_box(gemm(&a, &b))));
    // Backward GEMMs: weight gradient Hᵀ·G and gradient propagation G·Wᵀ.
    let h = Mat::random(8192, 128, 1.0, 3);
    let g = Mat::random(8192, 128, 1.0, 4);
    let w = Mat::random(128, 128, 1.0, 5);
    let t_tn = both(&|| drop(black_box(gemm_tn(&h, &g))));
    let t_nt = both(&|| drop(black_box(gemm_nt(&g, &w))));
    // SpMM on the skewed RMAT graph the panel scheduler targets.
    let n = 1 << 12;
    let adj = gcn_normalize(&symmetrize(n, &rmat(n, 16 * n, 7)));
    let feats = Mat::random(n, 64, 1.0, 6);
    let t_spmm = both(&|| drop(black_box(spmm(&adj, &feats))));
    eprintln!(
        "fast kernels ({fast:?}) vs scalar: gemm 512x192x192 {:.2}x, gemm_tn 8192x128ᵀ·8192x128 \
         {:.2}x, gemm_nt 8192x128·(128x128)ᵀ {:.2}x, spmm rmat(n={n})x64 {:.2}x",
        speedup(t_gemm),
        speedup(t_tn),
        speedup(t_nt),
        speedup(t_spmm),
    );
    assert!(
        t_tn.1 <= t_tn.0,
        "fast gemm_tn must not be slower than the scalar reference: {t_tn:?}"
    );

    // End-to-end: the bench-smoke training config. Compute-heavy (wide
    // features and hidden layer) so kernel time dominates the epoch, as
    // it does at paper scale.
    let ds = DatasetSpec::synthetic("fastk", 2048, 8 * 2048, 192, 8).instantiate(3);
    let fast_cfg = TrainerConfig::rdm_auto(2).hidden(192).epochs(2);
    let scalar_cfg = fast_cfg.clone().reference_kernels();
    train_gcn(&ds, &fast_cfg).unwrap(); // warm-up
    let time_train = |cfg: &TrainerConfig| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(train_gcn(&ds, cfg).unwrap());
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let t_epoch_scalar = time_train(&scalar_cfg);
    let t_epoch_fast = time_train(&fast_cfg);
    let epoch_speedup = t_epoch_scalar.as_secs_f64() / t_epoch_fast.as_secs_f64();
    eprintln!(
        "fast kernels: bench-smoke epoch {t_epoch_scalar:?} -> {t_epoch_fast:?} \
         ({epoch_speedup:.2}x)"
    );
    assert!(
        epoch_speedup >= 2.0,
        "the default kernels must deliver >= 2x over --reference-kernels on the bench-smoke \
         epoch (measured {epoch_speedup:.2}x: scalar {t_epoch_scalar:?}, fast {t_epoch_fast:?})"
    );

    let mut group = c.benchmark_group("fast_kernels");
    group.sample_size(10);
    for (label, mode) in [("scalar", Mode::Scalar), ("fast", fast)] {
        group.bench_function(format!("gemm_{label}"), |bch| {
            bch.iter(|| with_mode(mode, || black_box(gemm(&a, &b))))
        });
        group.bench_function(format!("gemm_tn_{label}"), |bch| {
            bch.iter(|| with_mode(mode, || black_box(gemm_tn(&h, &g))))
        });
        group.bench_function(format!("gemm_nt_{label}"), |bch| {
            bch.iter(|| with_mode(mode, || black_box(gemm_nt(&g, &w))))
        });
        group.bench_function(format!("spmm_{label}"), |bch| {
            bch.iter(|| with_mode(mode, || black_box(spmm(&adj, &feats))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_spmm_balance,
    bench_fast_kernels
);
criterion_main!(benches);
