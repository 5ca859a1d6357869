//! Explore the analytical cost model: print the cost of every SpMM/GEMM
//! ordering for a GNN shape, mark the Pareto-optimal ones, and show how
//! the predicted best plan changes with feature widths — the reasoning
//! behind Tables IV and VI of the paper.
//!
//! Run with: `cargo run --release --example cost_model_explorer -- [f_in f_h f_out]`

use gnn_rdm::model::cost::all_config_costs;
use gnn_rdm::prelude::*;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let (f_in, f_h, f_out) = match args.as_slice() {
        [a, b, c] => (*a, *b, *c),
        _ => (602, 128, 41), // Reddit's shape
    };
    let p = 8;
    let n = 100_000;
    let nnz = 2_000_000;
    let shape = GnnShape::gcn(n, nnz, f_in, f_h, f_out, 2);
    let pareto: Vec<usize> = gnn_rdm::model::pareto_ids(&shape, p, p, 1.0);
    let device = DeviceModel::a6000_pcie();

    println!("2-layer GCN, f_in={f_in}, f_h={f_h}, f_out={f_out}, N={n}, nnz={nnz}, P={p}");
    println!();
    println!(
        "{:<4} {:<10} {:>14} {:>14} {:>12}  pareto?",
        "ID", "orders", "comm (elems)", "SpMM (FMA)", "pred (ms)"
    );
    for price in all_config_costs(&shape, p, p, 1.0) {
        let (cfg, cost) = (&price.config, price.cost);
        let pred = device.slowest(price.ranks.iter().map(|r| &r.book));
        let mark = if pareto.contains(&cfg.id()) {
            "  *"
        } else {
            ""
        };
        println!(
            "{:<4} {:<10} {:>14.3e} {:>14.3e} {:>12.3}{}",
            cfg.id(),
            cfg.display(),
            cost.comm_elems,
            cost.spmm_ops,
            pred.total_s * 1e3,
            mark
        );
    }
    println!();
    let plan = best_plan(&shape, p, p, &device, 1.0);
    println!(
        "device-model pick: ID {} ({}) out of pareto set {:?}",
        plan.id(),
        plan.config.display(),
        pareto
    );
    println!();
    println!("Try other widths, e.g.: cargo run --example cost_model_explorer -- 128 128 349");
    println!("(OGB-MAG's wide output flips the best plan to ID 10)");
}
