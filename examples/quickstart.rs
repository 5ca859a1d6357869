//! Quickstart: train a 2-layer GCN on a synthetic graph with GNN-RDM on
//! four simulated GPUs, and compare the communication volume against the
//! CAGNET baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use gnn_rdm::prelude::*;

fn main() {
    // A synthetic dataset: 5 000 vertices, 40 000 edges, 32 input
    // features, 8 classes. Labels follow planted communities, so the GCN
    // has something to learn.
    let spec = DatasetSpec::synthetic("quickstart", 5_000, 40_000, 32, 8);
    let ds = spec.instantiate(42);
    println!(
        "dataset: {} vertices, {} nonzeros (normalized), {} features, {} classes",
        ds.n(),
        ds.adj_norm.nnz(),
        ds.spec.feature_size,
        ds.num_classes()
    );

    // Ask the analytical model for the best SpMM/GEMM ordering on 4 GPUs.
    let p = 4;
    let shape = ds.shape_layers(64, 2); // 2 layers, 64 hidden features
    let plan = best_plan(&shape, p, p, &DeviceModel::a6000_pcie(), 1.0);
    println!(
        "model-selected plan: Table-IV ID {} ({})",
        plan.id(),
        plan.config.display()
    );

    // Train with RDM.
    let cfg = TrainerConfig::rdm(p, plan).hidden(64).epochs(20).lr(0.02);
    let report = train_gcn(&ds, &cfg).expect("training failed");
    let last = report.epochs.last().unwrap();
    println!(
        "RDM     : final loss {:.4}, test accuracy {:.1}%, {:.2} MB moved/epoch",
        last.loss,
        100.0 * last.test_acc,
        report.mean_bytes_per_epoch() / 1e6
    );

    // Same training with the CAGNET baseline: identical math, very
    // different traffic.
    let cagnet = train_gcn(
        &ds,
        &TrainerConfig::cagnet(p).hidden(64).epochs(20).lr(0.02),
    )
    .expect("training failed");
    let clast = cagnet.epochs.last().unwrap();
    println!(
        "CAGNET  : final loss {:.4}, test accuracy {:.1}%, {:.2} MB moved/epoch",
        clast.loss,
        100.0 * clast.test_acc,
        cagnet.mean_bytes_per_epoch() / 1e6
    );

    println!(
        "RDM moves {:.1}x less data and is {:.2}x faster on the simulated 8xA6000 node",
        cagnet.mean_bytes_per_epoch() / report.mean_bytes_per_epoch(),
        cagnet.mean_sim_epoch_s() / report.mean_sim_epoch_s()
    );
    assert!(
        (last.loss - clast.loss).abs() < 1e-2,
        "both systems compute the same model"
    );
}
