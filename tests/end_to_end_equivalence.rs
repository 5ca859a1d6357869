//! All distributed systems implement the *same* GCN: training trajectories
//! must coincide across systems, cluster sizes, and orderings — §V-B's
//! "all three implementations compute identical outputs, with small
//! differences due to reordering of floating point operations".

use gnn_rdm::comm::FaultPlan;
use gnn_rdm::core::{best_plan, train_gcn, Plan, TrainerConfig};
use gnn_rdm::dense::{KernelMode, KernelWidth};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::model::DeviceModel;

fn dataset() -> gnn_rdm::graph::Dataset {
    DatasetSpec::synthetic("e2e", 150, 1200, 16, 5).instantiate(23)
}

fn losses(ds: &gnn_rdm::graph::Dataset, cfg: TrainerConfig) -> Vec<f32> {
    train_gcn(ds, &cfg)
        .unwrap()
        .epochs
        .iter()
        .map(|e| e.loss)
        .collect()
}

#[test]
fn all_systems_share_the_training_trajectory() {
    let ds = dataset();
    let reference = losses(&ds, TrainerConfig::rdm_auto(4).hidden(8).epochs(5));
    for cfg in [
        TrainerConfig::cagnet_1d(4),
        TrainerConfig::cagnet(4),
        TrainerConfig::dgcl(4),
    ] {
        let other = losses(&ds, cfg.hidden(8).epochs(5));
        for (i, (a, b)) in reference.iter().zip(&other).enumerate() {
            assert!((a - b).abs() < 2e-3, "epoch {i}: loss {a} vs {b} diverged");
        }
    }
}

#[test]
fn trajectory_independent_of_cluster_size() {
    let ds = dataset();
    let reference = losses(&ds, TrainerConfig::rdm_auto(1).hidden(8).epochs(5));
    for p in [2usize, 3, 5, 8] {
        let other = losses(&ds, TrainerConfig::rdm_auto(p).hidden(8).epochs(5));
        for (i, (a, b)) in reference.iter().zip(&other).enumerate() {
            assert!(
                (a - b).abs() < 2e-3,
                "p={p} epoch {i}: loss {a} vs {b} diverged"
            );
        }
    }
}

#[test]
fn trajectory_independent_of_ordering_plan() {
    // Every Table-IV configuration computes the same mathematics.
    let ds = dataset();
    let reference = losses(
        &ds,
        TrainerConfig::rdm(4, Plan::from_id(0, 2, 4))
            .hidden(8)
            .epochs(4),
    );
    for id in [3usize, 5, 6, 9, 10, 12, 15] {
        let other = losses(
            &ds,
            TrainerConfig::rdm(4, Plan::from_id(id, 2, 4))
                .hidden(8)
                .epochs(4),
        );
        for (i, (a, b)) in reference.iter().zip(&other).enumerate() {
            assert!(
                (a - b).abs() < 2e-3,
                "id={id} epoch {i}: loss {a} vs {b} diverged"
            );
        }
    }
}

#[test]
fn determinism_same_seed_same_report() {
    let ds = dataset();
    let a = losses(&ds, TrainerConfig::rdm_auto(4).hidden(8).epochs(4).seed(9));
    let b = losses(&ds, TrainerConfig::rdm_auto(4).hidden(8).epochs(4).seed(9));
    assert_eq!(a, b, "same seed must reproduce bit-identical losses");
    let c = losses(&ds, TrainerConfig::rdm_auto(4).hidden(8).epochs(4).seed(10));
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn three_layer_systems_agree_too() {
    let ds = dataset();
    let rdm = losses(
        &ds,
        TrainerConfig::rdm_auto(4).hidden(8).layers(3).epochs(3),
    );
    let cag = losses(
        &ds,
        TrainerConfig::cagnet_1d(4).hidden(8).layers(3).epochs(3),
    );
    for (a, b) in rdm.iter().zip(&cag) {
        assert!((a - b).abs() < 2e-3, "3-layer loss {a} vs {b}");
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

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn fast_kernels_trajectory_is_bitwise_scalar() {
    // The kernel axis: the default (fast) path and every forced lane
    // width reproduce the scalar reference's loss trajectory bit for bit
    // — the microkernels never reassociate a sum.
    let ds = dataset();
    let base = TrainerConfig::rdm_auto(4).hidden(8).epochs(4).seed(9);
    let scalar = bits(&losses(&ds, base.clone().reference_kernels()));
    assert_eq!(scalar, bits(&losses(&ds, base.clone())), "default kernels");
    for width in KernelWidth::all() {
        let fast = losses(&ds, base.clone().kernel_mode(KernelMode::Fast(width)));
        assert_eq!(scalar, bits(&fast), "{width:?} diverged from scalar");
    }
}

#[test]
fn fast_kernels_bitwise_scalar_across_axes() {
    // At every lane width, overlap, the sparse wire format and chaos all
    // leave the trajectory bit-identical to the scalar blocking dense
    // fault-free run.
    let ds = dataset();
    let plan = |p: usize, id: usize| {
        TrainerConfig::rdm(p, Plan::from_id(id, 2, p))
            .hidden(8)
            .epochs(3)
    };
    let scalar = losses(&ds, plan(4, 5).reference_kernels());
    for width in KernelWidth::all() {
        let base = plan(4, 5).kernel_mode(KernelMode::Fast(width));
        for (axis, cfg) in [
            ("blocking", base.clone()),
            ("overlap", base.clone().overlap(3)),
            ("sparse wire format", base.clone().sparse()),
            (
                "chaos",
                base.clone()
                    .faults(FaultPlan::new(71).drop_rate(0.15).delay(0.2, 3)),
            ),
        ] {
            assert_eq!(bits(&scalar), bits(&losses(&ds, cfg)), "{width:?}: {axis}");
        }
        // Rank count and ordering plan genuinely re-partition reductions
        // (ring all-reduce, tile sweeps), so — exactly as for the scalar
        // path — those axes agree to tolerance, not bitwise; each point is
        // still bitwise its own scalar run.
        for (p, id) in [(1usize, 5usize), (2, 5), (4, 0), (4, 10)] {
            let other = losses(&ds, plan(p, id).kernel_mode(KernelMode::Fast(width)));
            assert_eq!(
                bits(&other),
                bits(&losses(&ds, plan(p, id).reference_kernels())),
                "{width:?}: P={p} id={id}"
            );
            for (i, (a, b)) in scalar.iter().zip(&other).enumerate() {
                assert!(
                    (a - b).abs() < 2e-3,
                    "{width:?} P={p} id={id} epoch {i}: {a} vs {b}"
                );
            }
        }
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
