//! The central soundness check of the reproduction: the analytical cost
//! model (Tables II–IV) and the executed system must agree *exactly* on
//! communication volume and SpMM operation counts.

use gnn_rdm::core::{train_gcn, Plan, TrainerConfig};
use gnn_rdm::dense::{KernelMode, KernelWidth};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::model::cost::config_cost;
use gnn_rdm::model::GnnShape;

fn dataset(n: usize, edges: usize, f_in: usize, classes: usize) -> gnn_rdm::graph::Dataset {
    DatasetSpec::synthetic("mvm", n, edges, f_in, classes).instantiate(11)
}

/// Redistribution bytes of one epoch must equal the model for every
/// 2-layer configuration, across cluster sizes, including when N does not
/// divide P.
#[test]
fn every_2layer_config_matches_model_bytes() {
    for (n, p) in [(96usize, 4usize), (100, 4), (91, 7)] {
        let ds = dataset(n, 8 * n, 12, 5);
        let shape = GnnShape {
            n: ds.n(),
            nnz: ds.adj_norm.nnz(),
            feats: vec![12, 16, 5],
        };
        for id in 0..16 {
            let plan = Plan::from_id(id, 2, p);
            let cfg = TrainerConfig::rdm(p, plan.clone()).hidden(16).epochs(1);
            let report = train_gcn(&ds, &cfg).unwrap();
            let measured = report.epochs[0].redistribution_bytes() as f64;
            let model = config_cost(&shape, &plan.config, p, p);
            // With N not divisible by P the partition is balanced within
            // one row, so measured bytes may deviate by at most
            // (#redistributions)·f_max·4 bytes from the continuous
            // formula.
            let expect = model.comm_elems * 4.0;
            let slack = 16.0 * 16.0 * 4.0;
            let has_nm_penalty = (0..2).any(|l| {
                plan.config.forward[l] == gnn_rdm::model::Order::GemmFirst
                    && plan.config.backward[l] == gnn_rdm::model::Order::GemmFirst
            });
            if has_nm_penalty {
                // Table IV charges 2·min(f_{l-1}, f_l) unconditionally for
                // the non-memoized weight-gradient SpMM; the executor skips
                // a redistribution whenever the needed layout is already
                // cached (always true at layer 1, whose input features
                // exist in both layouts for free), so it may move *less*
                // than the model — never more.
                assert!(
                    measured <= expect + slack,
                    "n={n} p={p} id={id}: measured {measured} above model {expect}"
                );
            } else {
                assert!(
                    (measured - expect).abs() <= slack,
                    "n={n} p={p} id={id}: measured {measured} vs model {expect}"
                );
            }
        }
    }
}

/// SpMM FMA counts must match the model exactly for all configs (the
/// sparse products are independent of partition rounding).
#[test]
fn every_2layer_config_matches_model_spmm_ops() {
    let ds = dataset(80, 600, 10, 4);
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![10, 8, 4],
    };
    let p = 4;
    for id in 0..16 {
        let plan = Plan::from_id(id, 2, p);
        let cfg = TrainerConfig::rdm(p, plan.clone()).hidden(8).epochs(1);
        let report = train_gcn(&ds, &cfg).unwrap();
        let model = config_cost(&shape, &plan.config, p, p);
        assert_eq!(
            report.epochs[0].ops.spmm_fma, model.spmm_ops,
            "id={id} spmm ops"
        );
    }
}

/// GEMM FMA counts are order-independent and must match the model.
#[test]
fn gemm_ops_match_model_for_sampled_configs() {
    let ds = dataset(64, 500, 8, 4);
    let shape = GnnShape {
        n: 64,
        nnz: ds.adj_norm.nnz(),
        feats: vec![8, 8, 4],
    };
    let p = 2;
    for id in [0usize, 5, 10, 15] {
        let plan = Plan::from_id(id, 2, p);
        let cfg = TrainerConfig::rdm(p, plan.clone()).hidden(8).epochs(1);
        let report = train_gcn(&ds, &cfg).unwrap();
        let model = config_cost(&shape, &plan.config, p, p);
        // The executed system adds the weight-gradient GEMMs the model
        // folds into its 2× factor, plus nothing else; they must match.
        assert_eq!(
            report.epochs[0].ops.gemm_fma, model.gemm_ops,
            "id={id} gemm ops"
        );
    }
}

/// 3-layer plans: SpMM op counts still match the generic model.
#[test]
fn three_layer_spmm_ops_match_model() {
    let ds = dataset(60, 500, 9, 3);
    let p = 3;
    let shape = GnnShape {
        n: 60,
        nnz: ds.adj_norm.nnz(),
        feats: vec![9, 6, 6, 3],
    };
    for id in [0usize, 21, 42, 63, 10, 38] {
        let plan = Plan::from_id(id, 3, p);
        let cfg = TrainerConfig::rdm(p, plan.clone())
            .hidden(6)
            .layers(3)
            .epochs(1);
        let report = train_gcn(&ds, &cfg).unwrap();
        let model = config_cost(&shape, &plan.config, p, p);
        assert_eq!(
            report.epochs[0].ops.spmm_fma, model.spmm_ops,
            "3-layer id={id} spmm ops"
        );
    }
}

/// FMA counters and wire bytes are a function of the computation graph,
/// never of the kernel path: every forced lane width must reproduce the
/// scalar path's counts — and, the kernel path pricing nothing, the same
/// simulated epoch times — exactly, epoch by epoch.
#[test]
fn op_counts_are_kernel_path_invariant() {
    let ds = dataset(96, 800, 12, 5);
    let cfg = |mode| {
        TrainerConfig::rdm(4, Plan::from_id(5, 2, 4))
            .hidden(16)
            .epochs(2)
            .kernel_mode(mode)
    };
    let reference = train_gcn(&ds, &cfg(KernelMode::Scalar)).unwrap();
    for width in KernelWidth::all() {
        let fast = train_gcn(&ds, &cfg(KernelMode::Fast(width))).unwrap();
        for (e, (a, b)) in reference.epochs.iter().zip(&fast.epochs).enumerate() {
            assert_eq!(a.ops.spmm_fma, b.ops.spmm_fma, "{width:?} epoch {e} spmm");
            assert_eq!(a.ops.gemm_fma, b.ops.gemm_fma, "{width:?} epoch {e} gemm");
            assert_eq!(
                a.redistribution_bytes(),
                b.redistribution_bytes(),
                "{width:?} epoch {e} bytes"
            );
            assert_eq!(a.sim, b.sim, "{width:?} epoch {e} simulated time");
        }
    }
}

/// The CAGNET baseline's broadcast volume must match the paper's §II
/// formula `(P-1)·N·Σf` per epoch (forward f_in..f_h + backward f_h..f_out
/// widths).
#[test]
fn cagnet_broadcast_volume_matches_formula() {
    let n = 120;
    let ds = dataset(n, 1000, 16, 4);
    for p in [2usize, 4, 6] {
        let cfg = TrainerConfig::cagnet_1d(p).hidden(8).epochs(1);
        let report = train_gcn(&ds, &cfg).unwrap();
        let widths = 16 + 8 + 8 + 4; // fwd: f_in, f_h; bwd: f_out, f_h
        let expect = ((p - 1) * n * widths * 4) as u64;
        assert_eq!(report.epochs[0].broadcast_bytes(), expect, "p={p}");
    }
}
