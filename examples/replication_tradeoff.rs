//! The memory / communication trade-off of adjacency replication
//! (§III-E, Fig. 6, Table X): train the same GCN with `R_A` from 1 (each
//! rank stores `1/P` of `Â`, maximum broadcast traffic — CAGNET-like) to
//! `P` (full replication, communication-minimal RDM), and watch traffic
//! fall as the per-GPU footprint grows.
//!
//! Run with: `cargo run --release --example replication_tradeoff`

use gnn_rdm::model::{max_replication, rdm_bytes_per_gpu, MemoryParams};
use gnn_rdm::prelude::*;

fn main() {
    let ds = DatasetSpec::synthetic("ra-demo", 8_000, 96_000, 64, 16).instantiate(7);
    let p = 8;
    let hidden = 64;
    let shape = ds.shape_layers(hidden, 2);
    let plan = best_plan(&shape, p, p, &DeviceModel::a6000_pcie(), 1.0);
    println!(
        "dataset: N={}, nnz={}, plan ID {} on P={p} ranks",
        ds.n(),
        ds.adj_norm.nnz(),
        plan.id()
    );
    println!();
    println!(
        "{:<5} {:>14} {:>14} {:>12} {:>14}",
        "R_A", "broadcast MB", "redistrib MB", "sim ms/ep", "model MB/GPU"
    );
    let mp = MemoryParams {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feat_sum: ds.spec.feature_size + hidden + ds.spec.labels,
        p,
    };
    for r_a in [1usize, 2, 4, 8] {
        let cfg = TrainerConfig::rdm(p, plan.clone().with_ra(r_a))
            .hidden(hidden)
            .epochs(3);
        let report = train_gcn(&ds, &cfg).expect("training failed");
        let e = report.epochs.last().unwrap();
        println!(
            "{:<5} {:>14.2} {:>14.2} {:>12.3} {:>14.2}",
            r_a,
            e.broadcast_bytes() as f64 / 1e6,
            e.redistribution_bytes() as f64 / 1e6,
            e.sim.total_s * 1e3,
            rdm_bytes_per_gpu(mp, r_a) as f64 / 1e6,
        );
    }
    println!();
    // The §III-E sizing rule: the largest replication that fits.
    for mem_mb in [1usize, 2, 4, 64] {
        let r = max_replication(mp, mem_mb << 20);
        println!("with {mem_mb:>3} MB of device memory, the model picks R_A = {r}");
    }
}
