//! Sparse↔dense redistribution: the sparsity-aware indexed-strip wire is
//! *invisible* to the math — bit-identical losses and accuracies for every
//! ordering plan, cluster size, fault plan and pipeline depth — while
//! `CommStats` reconciles the two volume books: the sparse run's
//! dense-equivalent bytes equal the dense run's actual bytes, and its
//! actual bytes never exceed them. `common::check` asserts that at every
//! indexed-wire point `config_space.rs` samples; the tests below pin named
//! points, the compression claims and the volume-regression gate.

mod common;

use common::{check, panel_nnz, Agg, Config};
use gnn_rdm::core::{train_gcn, Plan, TrainReport, TrainerConfig};
use gnn_rdm::graph::{rmat, symmetrize, Dataset, DatasetSpec};
use gnn_rdm::model::{predict_epoch, GnnShape, OrderConfig, SchedEvent};
use gnn_rdm::trace::TraceCollective;

/// The indexed wire on row aggregation of `common::compressible`, whose
/// empty rows it elides.
fn sparse_row(id: usize, p: usize) -> Config {
    Config::plan_id(id, 2, p).sparse().agg(Agg::Row)
}

/// A small dataset whose aggregation matrix has empty rows (self-loop-free
/// row normalization over a graph with isolated vertices), so the sparse
/// path actually compresses instead of trivially matching the dense one.
fn compressible_dataset() -> Dataset {
    DatasetSpec::synthetic("sparse-e2e", 180, 700, 12, 4)
        .instantiate(31)
        .with_row_aggregation()
}

/// The RMAT volume-gate config: pure Graph500-skewed RMAT (no SBM infill),
/// so a sizable fraction of vertices is isolated and their intermediate
/// rows stay bit-zero through every layer.
fn rmat_bench_dataset() -> Dataset {
    let n = 2048;
    let mut ds = DatasetSpec::synthetic("rmat-bench", n, 4096, 32, 8).instantiate(7);
    ds.adj = symmetrize(n, &rmat(n, 4096, 7));
    ds.with_row_aggregation()
}

/// Assert two runs are bitwise-identical in their training trajectory and
/// that their communication books reconcile: same per-kind dense volume,
/// sparse actual ≤ dense actual.
fn assert_runs_reconcile(dense: &TrainReport, sparse: &TrainReport, label: &str) {
    assert_eq!(dense.epochs.len(), sparse.epochs.len(), "{label}");
    for (d, s) in dense.epochs.iter().zip(&sparse.epochs) {
        let e = d.epoch;
        assert_eq!(
            d.loss.to_bits(),
            s.loss.to_bits(),
            "{label} epoch {e}: loss diverged ({} vs {})",
            d.loss,
            s.loss
        );
        assert_eq!(
            d.train_acc.to_bits(),
            s.train_acc.to_bits(),
            "{label} epoch {e}: train accuracy diverged"
        );
        assert_eq!(
            d.test_acc.to_bits(),
            s.test_acc.to_bits(),
            "{label} epoch {e}: test accuracy diverged"
        );
        // Volume reconciliation: the dense path books identical actual and
        // dense-equivalent bytes; the sparse path preserves the
        // dense-equivalent book and only shrinks the actual one.
        assert_eq!(
            d.redistribution_bytes(),
            d.redistribution_dense_bytes(),
            "{label} epoch {e}: dense run's two books disagree"
        );
        assert_eq!(
            d.redistribution_dense_bytes(),
            s.redistribution_dense_bytes(),
            "{label} epoch {e}: dense-equivalent volume changed"
        );
        assert!(
            s.redistribution_bytes() <= d.redistribution_bytes(),
            "{label} epoch {e}: sparse path sent {} B, above the dense {} B",
            s.redistribution_bytes(),
            d.redistribution_bytes()
        );
    }
}

#[test]
fn sparse_is_bitwise_identical_across_all_plans_and_cluster_sizes() {
    for (p, id) in [(2, 3), (4, 12), (4, 15)] {
        check(&sparse_row(id, p));
    }
}

/// Strips ride the fault-envelope protocol and the chunk pipeline like
/// dense payloads.
#[test]
fn sparse_survives_chaos_and_overlap_bitwise() {
    check(&sparse_row(10, 4).chaos());
    check(&sparse_row(10, 4).chaos().chunks(4));
}

#[test]
fn sparse_actually_compresses_on_compressible_data() {
    // Guards against the sparse knob silently degenerating into the dense
    // path: on a dataset with empty aggregation rows, at least one epoch's
    // actual redistribution bytes must drop strictly below dense.
    let ds = compressible_dataset();
    let base = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(8)
        .epochs(3);
    let dense = train_gcn(&ds, &base).unwrap();
    let sparse = train_gcn(&ds, &base.clone().sparse()).unwrap();
    assert_runs_reconcile(&dense, &sparse, "compression");
    assert!(
        sparse.total_redistribution_bytes() < dense.total_redistribution_bytes(),
        "sparse path never compressed anything: {} B vs {} B",
        sparse.total_redistribution_bytes(),
        dense.total_redistribution_bytes()
    );
}

/// Group-scoped redistributions ship strips, panel broadcasts stay dense.
#[test]
fn sparse_is_bitwise_identical_across_replication_factors() {
    for r_a in [1, 2] {
        check(&sparse_row(5, 4).ra(r_a));
    }
}

#[test]
fn replicated_panel_volume_reconciles_exactly_with_the_schedule_predictor() {
    // The R_A = 2 volume gate on the bench-smoke config: measured
    // group-redistribution and panel-broadcast bytes must equal the
    // schedule predictor's totals *exactly*, on both CommStats books —
    // and the predictor's totals are themselves the paper's closed-form
    // `group_redistribution_elems` / `panel_broadcast_elems` volumes.
    let ds = rmat_bench_dataset();
    let (p, r_a) = (4usize, 2usize);
    let base = TrainerConfig::rdm(p, Plan::from_id(10, 2, p).with_ra(r_a))
        .hidden(32)
        .epochs(2);
    let dense = train_gcn(&ds, &base).unwrap();
    let sparse = train_gcn(&ds, &base.clone().sparse()).unwrap();
    assert_runs_reconcile(&dense, &sparse, "r_a=2 rmat gate");

    // Predicted per-epoch totals, summed over the grid.
    let n = ds.n();
    let shape = GnnShape {
        n,
        nnz: ds.adj_norm.nnz(),
        feats: vec![ds.spec.feature_size, 32, ds.spec.labels],
    };
    let config = OrderConfig::from_id(10, 2);
    let panel_nnz = panel_nnz(&ds.adj_norm, p, r_a);
    let (mut redist, mut bcast) = (0u64, 0u64);
    for rank in 0..p {
        for e in predict_epoch(&shape, &config, true, p, r_a, rank, &panel_nnz, None).unwrap() {
            match e {
                SchedEvent::Redist {
                    kind: TraceCollective::Redistribute,
                    bytes,
                    ..
                } => redist += bytes,
                SchedEvent::Broadcast { bytes } => bcast += bytes,
                _ => {}
            }
        }
    }
    assert!(redist > 0 && bcast > 0, "degenerate predicted schedule");
    for (rep, label) in [(&dense, "dense"), (&sparse, "sparse")] {
        for ep in &rep.epochs {
            assert_eq!(
                ep.redistribution_dense_bytes(),
                redist,
                "{label} epoch {}: group-redistribution dense-equivalent book \
                 diverged from the cost model",
                ep.epoch
            );
            assert_eq!(
                ep.broadcast_bytes(),
                bcast,
                "{label} epoch {}: panel-broadcast book diverged from the cost model",
                ep.epoch
            );
        }
    }
    // The dense wire path's actual book is the dense-equivalent one.
    for ep in &dense.epochs {
        assert_eq!(ep.redistribution_bytes(), redist);
    }

    // Cross-check the predictor against the paper's closed forms: on this
    // evenly-divisible config every group redistribution of a width-f
    // matrix moves (R_A-1)/R_A·N·f elements and every panel SpMM
    // broadcasts (P/R_A-1)·N·f. Events align index-wise across ranks
    // (every rank runs the same control flow), so each event's grid-wide
    // total must hit one of the per-width closed-form volumes.
    use gnn_rdm::model::{group_redistribution_elems, panel_broadcast_elems};
    let gre: Vec<u64> = shape
        .feats
        .iter()
        .map(|&f| (group_redistribution_elems(n, f, r_a) * 4.0) as u64)
        .collect();
    let pbe: Vec<u64> = shape
        .feats
        .iter()
        .map(|&f| (panel_broadcast_elems(n, f, p, r_a) * 4.0) as u64)
        .collect();
    let per_rank: Vec<Vec<SchedEvent>> = (0..p)
        .map(|rank| predict_epoch(&shape, &config, true, p, r_a, rank, &panel_nnz, None).unwrap())
        .collect();
    for (i, e) in per_rank[0].iter().enumerate() {
        let total = |pick: fn(&SchedEvent) -> Option<u64>| -> u64 {
            per_rank.iter().map(|ev| pick(&ev[i]).unwrap()).sum()
        };
        match e {
            SchedEvent::Redist {
                kind: TraceCollective::Redistribute,
                ..
            } => {
                let sum = total(|e| match e {
                    SchedEvent::Redist { bytes, .. } => Some(*bytes),
                    _ => None,
                });
                assert!(
                    gre.contains(&sum),
                    "event {i}: group redistribution total {sum} matches no \
                     (R_A-1)/R_A·N·f volume in {gre:?}"
                );
            }
            SchedEvent::Broadcast { .. } => {
                let sum = total(|e| match e {
                    SchedEvent::Broadcast { bytes } => Some(*bytes),
                    _ => None,
                });
                assert!(
                    pbe.contains(&sum),
                    "event {i}: panel broadcast total {sum} matches no \
                     (P/R_A-1)·N·f volume in {pbe:?}"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn volume_regression_gate_on_rmat_bench_config() {
    // The CI-gated claim: on the hub-heavy RMAT bench config the sparse
    // path's actual redistribution bytes land strictly below the dense
    // `(P-1)/P·N·f` volume, by a pinned margin with headroom. The pinned
    // ratio (measured ≈ 0.71 on this config) fails the build if a wire-
    // format or support-computation regression erodes the win.
    const MAX_RATIO: f64 = 0.80;
    let ds = rmat_bench_dataset();
    let base = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(32)
        .epochs(3);
    let dense = train_gcn(&ds, &base).unwrap();
    let sparse = train_gcn(&ds, &base.clone().sparse()).unwrap();
    assert_runs_reconcile(&dense, &sparse, "rmat gate");

    let dense_b = dense.total_redistribution_bytes();
    let sparse_b = sparse.total_redistribution_bytes();
    let ratio = sparse_b as f64 / dense_b as f64;
    eprintln!("volume gate: sparse {sparse_b} B / dense {dense_b} B = {ratio:.4}");
    assert!(
        ratio < MAX_RATIO,
        "volume regression: sparse/dense ratio {ratio:.4} exceeds the pinned {MAX_RATIO}"
    );
    // And the dense-equivalent book still matches the dense run exactly,
    // so the paper's volume formulas remain checkable as the dense bound.
    assert_eq!(
        sparse.total_redistribution_dense_bytes(),
        dense_b,
        "dense-equivalent book drifted from the dense run"
    );
}
