//! All distributed systems implement the *same* GCN: training trajectories
//! coincide across systems, cluster sizes, orderings and kernel paths —
//! §V-B's "all three implementations compute identical outputs, with
//! small differences due to reordering of floating point operations".
//! `common::check` holds every point `config_space.rs` samples to
//! `gcn::serial` within that tolerance and to its own scalar blocking
//! reference bit for bit; the tests below pin named points, plus the
//! properties a single run cannot show.

mod common;

use common::{check, losses, report, Config, System};
use gnn_rdm::core::{best_plan, train_gcn, TrainerConfig};
use gnn_rdm::dense::{KernelMode, KernelWidth};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::model::DeviceModel;

fn dataset() -> gnn_rdm::graph::Dataset {
    DatasetSpec::synthetic("e2e", 150, 1200, 16, 5).instantiate(23)
}

#[test]
fn all_systems_share_the_training_trajectory() {
    for system in [System::Cagnet1D, System::Cagnet15D, System::Dgcl] {
        check(&Config::train(system, 2, 4).ra(2));
    }
}

#[test]
fn trajectory_independent_of_cluster_size() {
    for p in [1, 5, 8] {
        check(&Config::train(System::Auto, 2, p));
    }
}

/// Every Table-IV configuration computes the same mathematics.
#[test]
fn trajectory_independent_of_ordering_plan() {
    for id in [3, 6, 9, 12] {
        check(&Config::plan_id(id, 2, 4));
    }
}

/// Same-seed replay is a `common::check` invariant of every training
/// point; the seed must also matter.
#[test]
fn determinism_same_seed_same_report() {
    let ds = dataset();
    let cfg = TrainerConfig::rdm_auto(4).hidden(8).epochs(4);
    let a = losses(&report(&ds, cfg.clone().seed(9)));
    let c = losses(&report(&ds, cfg.seed(10)));
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn three_layer_systems_agree_too() {
    for system in [System::Auto, System::Cagnet1D] {
        check(&Config::train(system, 3, 4));
    }
}

#[test]
fn steady_state_epochs_allocate_no_fresh_buffers() {
    // The quickstart configuration from the README: after the first epoch
    // has populated every rank's workspace shelf, later epochs replay the
    // identical allocation schedule and must be served entirely from
    // recycled buffers — the `ws_fresh` counter (fresh heap allocations
    // observed by the per-rank workspace pool) stays at zero from epoch 2
    // onward, while `ws_reused` shows the pool is actually being used.
    let ds = DatasetSpec::synthetic("demo", 5_000, 40_000, 32, 8).instantiate(42);
    let p = 4;
    let device = DeviceModel::a6000_pcie();
    let plan = best_plan(&ds.shape_layers(64, 2), p, p, &device, 1.0);
    let report = train_gcn(
        &ds,
        &TrainerConfig::rdm(p, plan).hidden(64).epochs(4).lr(0.02),
    )
    .unwrap();
    assert!(
        report.epochs[0].ws_fresh() > 0,
        "epoch 1 should warm the pool with fresh allocations"
    );
    for e in &report.epochs[1..] {
        assert_eq!(
            e.ws_fresh(),
            0,
            "epoch {} performed {} fresh kernel/redistribution allocations \
             (steady state must be allocation-free)",
            e.epoch + 1,
            e.ws_fresh()
        );
        assert!(
            e.ws_reused() > 0,
            "epoch {} never touched the workspace pool",
            e.epoch + 1
        );
    }
}

/// The kernel axis: every forced lane width reproduces the scalar
/// reference bit for bit — the microkernels never reassociate a sum.
#[test]
fn fast_kernels_trajectory_is_bitwise_scalar() {
    for width in KernelWidth::all() {
        check(&Config::train(System::Auto, 2, 4).kernels(KernelMode::Fast(width)));
    }
}

/// At every lane width, the pipeline, the indexed wire and chaos together
/// leave the trajectory bit-identical to the scalar blocking dense run.
#[test]
fn fast_kernels_bitwise_scalar_across_axes() {
    for width in KernelWidth::all() {
        let point = Config::plan_id(5, 2, 4).chunks(3).sparse().chaos();
        check(&point.kernels(KernelMode::Fast(width)));
    }
}

#[test]
fn accuracy_improves_with_training() {
    let ds = DatasetSpec::synthetic("learn", 400, 4000, 16, 4).instantiate(5);
    let report = train_gcn(
        &ds,
        &TrainerConfig::rdm_auto(4).hidden(16).epochs(25).lr(0.02),
    )
    .unwrap();
    let first = report.epochs[0].test_acc;
    let last = report.final_test_acc();
    assert!(last > first + 0.3, "no learning: {first} -> {last}");
    assert!(last > 0.8, "final accuracy too low: {last}");
}
