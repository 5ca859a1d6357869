//! Serving↔engine: a serving session is *invisible* to the math — for
//! the same weight snapshot and minibatch, the logits a request receives
//! from a batched session are bitwise identical to a direct engine
//! forward, across cluster sizes, wire formats, kernel widths and fault
//! injection, and chaos leaves the payload book and the virtual latency
//! timeline untouched. `common::check` asserts that at every serving point
//! `config_space.rs` samples; the tests below pin named points, replay
//! determinism, and the one plan resolution training and serving share.

mod common;

use common::{assert_rows_bitwise, check, reference_logits, Config, Surface};
use common::{serve_dataset as dataset, serve_snapshot as snapshot};
use gnn_rdm::core::{best_plan, train_gcn, Algo, Plan, TrainerConfig, WeightSnapshot};
use gnn_rdm::dense::{kernels, KernelMode, KernelWidth};
use gnn_rdm::model::DeviceModel;
use gnn_rdm::serve::{serve, LoadGen, ServeConfig, ServeSampler};

/// Full-graph serving of plan 5 on `p` ranks.
fn served(p: usize) -> Config {
    Config::plan_id(5, 2, p).on(Surface::Serve { cache: 0 })
}

#[test]
fn full_graph_serving_matches_direct_forward_bitwise() {
    check(&served(1));
    check(&served(2).sparse());
    check(&served(4));
    check(&served(4).sparse());
}

#[test]
fn induced_serving_matches_direct_subgraph_forward_bitwise() {
    for p in [1, 2, 4] {
        check(&Config::plan_id(10, 2, p).on(Surface::Induced));
    }
}

#[test]
fn chaos_leaves_logits_payload_book_and_timeline_unchanged() {
    for p in [2, 4] {
        check(&served(p).chaos());
        check(&served(p).sparse().chaos());
    }
}

/// At every forced lane width, batched serving is bitwise identical to a
/// direct engine forward on the scalar reference kernels.
#[test]
fn fast_kernel_serving_matches_the_scalar_direct_forward() {
    for width in KernelWidth::all() {
        check(&served(4).sparse().kernels(KernelMode::Fast(width)));
    }
}

/// Chaos never perturbs fast-kernel logits, at any width.
#[test]
fn fast_kernel_serving_is_chaos_invariant_and_replays() {
    for width in KernelWidth::all() {
        check(&served(2).sparse().chaos().kernels(KernelMode::Fast(width)));
    }
}

/// Default kernels vs `reference_kernels()`: the whole report — virtual
/// latencies, payload book, batch table — is identical, because the
/// kernel path re-prices nothing.
#[test]
fn fast_kernel_session_report_equals_the_reference_kernels_session() {
    check(&served(2).kernels(kernels::default_mode()));
}

#[test]
fn trained_snapshot_roundtrips_through_serving() {
    // End-to-end: train, snapshot via TrainReport, byte-roundtrip, serve,
    // and check against a direct forward with the same snapshot.
    let ds = dataset();
    let cfg = TrainerConfig::rdm_auto(2).hidden(10).epochs(2).seed(5);
    let report = train_gcn(&ds, &cfg).unwrap();
    let snap = report.weights.expect("trainer returns final weights");
    let snap = WeightSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let requests = LoadGen::new(1, 2, 50, 16).generate(ds.n());
    let plan = Plan::from_id(0, 2, 2);
    let mut scfg = ServeConfig::new(2);
    scfg.plan = Some(plan.clone());
    let out = serve(&ds, &snap, &requests, &scfg).unwrap();
    let reference = reference_logits(&ds, &snap, 2, &plan);
    for r in &out.report.requests {
        assert_rows_bitwise(&r.logits, &reference[r.target as usize], "trained snapshot");
    }
}

#[test]
fn serving_report_replays_byte_identically() {
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(13, 3, 20, 40).generate(ds.n());
    let mut cfg = ServeConfig::new(4);
    cfg.sampler = ServeSampler::Induced { budget: 40 };
    cfg.sparse = true;
    let a = serve(&ds, &snap, &requests, &cfg).unwrap();
    let b = serve(&ds, &snap, &requests, &cfg).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.render(), b.report.render());
}

/// Regression for the trainer's replication-factor rejection path, the
/// rule `rdm-train --ra` and `best_plan` document: `r_a`
/// must divide `P`, and zero is never valid.
#[test]
fn trainer_rejects_replication_factors_that_do_not_divide_p() {
    let ds = dataset();
    for (p, ra) in [(4usize, 3usize), (4, 0), (6, 4)] {
        let plan = Plan::from_id(0, 2, p).with_ra(ra);
        let cfg = TrainerConfig::rdm(p, plan).hidden(8).epochs(1);
        let err = train_gcn(&ds, &cfg).unwrap_err();
        assert!(
            err.contains("must divide"),
            "P={p} r_a={ra}: unexpected error {err:?}"
        );
    }
    // The serving engine accepts replicated-panel plans (r_a < P is
    // first-class since the grid-parity PR) but enforces the same
    // divisibility rule, and the layer-0 aggregation cache still
    // requires full replication.
    let snap = snapshot();
    let requests = LoadGen::new(2, 1, 10, 4).generate(ds.n());
    let mut cfg = ServeConfig::new(4);
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(2));
    serve(&ds, &snap, &requests, &cfg).expect("r_a = 2 on P = 4 is a valid serving grid");
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(3));
    let err = serve(&ds, &snap, &requests, &cfg).unwrap_err();
    assert!(err.contains("must divide"), "unexpected error {err:?}");
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(2));
    cfg.cache = 16;
    let err = serve(&ds, &snap, &requests, &cfg).unwrap_err();
    assert!(err.contains("cannot cache"), "unexpected error {err:?}");
}

/// One plan resolution (`rdm_core::plan::resolve`) behind both entry
/// points: `train_gcn` and `serve` reject a request with one message...
#[test]
fn train_and_serve_reject_a_request_with_one_message() {
    let ds = dataset();
    let requests = LoadGen::new(2, 1, 10, 4).generate(ds.n());
    let conflict = "explicit plan has r_a = 4 but the config asks for r_a = 2";
    let layers = "plan orders 3 layers but the model has 2";
    for (plan, ra, expect) in [
        (None, Some(0), "replication factor 0 must divide P = 4"),
        (None, Some(3), "replication factor 3 must divide P = 4"),
        (Some(Plan::from_id(5, 2, 4)), Some(2), conflict),
        (Some(Plan::from_id(5, 3, 4)), None, layers),
    ] {
        let mut train = TrainerConfig::rdm_auto(4).hidden(10).epochs(1);
        (train.algo, train.ra) = (Algo::Rdm { plan: plan.clone() }, ra);
        let mut cfg = ServeConfig::new(4);
        (cfg.plan, cfg.ra) = (plan, ra);
        let served = serve(&ds, &snapshot(), &requests, &cfg);
        assert_eq!(train_gcn(&ds, &train).unwrap_err(), expect);
        assert_eq!(served.unwrap_err(), expect);
    }
}

/// ...and both run `best_plan` of the run's shape, `r_a` and `σ` when no
/// plan is given.
#[test]
fn train_and_serve_auto_select_the_best_plan() {
    let requests = LoadGen::new(3, 2, 20, 24).generate(dataset().n());
    let row = dataset().with_row_aggregation();
    let sigma = 1.0 - row.adj_norm.empty_row_fraction();
    for (ds, sparse, sigma) in [(dataset(), false, 1.0), (row, true, sigma)] {
        for r_a in [4, 2] {
            let shape = ds.shape_layers(10, 2);
            let best = best_plan(&shape, 4, r_a, &DeviceModel::a6000_pcie(), sigma);
            let mut train = TrainerConfig::rdm_auto(4).hidden(10).epochs(1).ra(r_a);
            train.sparse = sparse;
            let report = train_gcn(&ds, &train).unwrap();
            assert_eq!(report.epochs[0].plan_id, Some(best.id()), "r_a={r_a}");
            let run = |plan: Option<Plan>| {
                let mut cfg = ServeConfig::new(4).ra(r_a);
                (cfg.plan, cfg.sparse) = (plan, sparse);
                serve(&ds, &snapshot(), &requests, &cfg).unwrap().report
            };
            let other = Plan::from_id((best.id() + 1) % 16, 2, 4).with_ra(r_a);
            assert_eq!(run(None), run(Some(best)), "r_a={r_a} sparse={sparse}");
            assert_ne!(run(None), run(Some(other)), "plans must be told apart");
        }
    }
}
