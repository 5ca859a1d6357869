//! Regenerates **Table VIII**: measured epoch time for every SpMM/GEMM
//! ordering, grouping the model-predicted Pareto-optimal configurations
//! against the rest — the validation of the analytical model (§V-B).
//!
//! For each dataset and GPU count, all 16 orderings of the 2-layer GCN are
//! *executed* and their simulated epoch times reported as
//! `min-max` ranges, exactly like the paper's table. The check: the
//! Pareto range should sit at or below the non-Pareto range (the paper
//! notes OGB-Products as an exception at small P).

use rdm_bench::{bench_epochs, run, scaled_datasets, TablePrinter, GPU_COUNTS};
use rdm_core::{Plan, TrainerConfig};
use rdm_model::{pareto_ids, GnnShape};

fn main() {
    println!("Table VIII: epoch time (ms, simulated) for Pareto vs non-Pareto orderings");
    println!("            2-layer GCN, hidden = 128");
    println!();
    let t = TablePrinter::new(&[14, 4, 18, 18, 18]);
    t.row(&[
        "Dataset".into(),
        "P".into(),
        "Pareto IDs".into(),
        "Pareto (ms)".into(),
        "Non-Pareto (ms)".into(),
    ]);
    t.sep();
    for ds in scaled_datasets() {
        let shape = GnnShape::gcn(
            ds.n(),
            ds.adj_norm.nnz(),
            ds.spec.feature_size,
            128,
            ds.spec.labels,
            2,
        );
        for p in GPU_COUNTS {
            let pareto = pareto_ids(&shape, p, p, 1.0);
            let mut pareto_times = Vec::new();
            let mut rest_times = Vec::new();
            for id in 0..16 {
                let cfg = TrainerConfig::rdm(p, Plan::from_id(id, 2, p))
                    .hidden(128)
                    .epochs(bench_epochs());
                let ms = run(&ds, &cfg).mean_sim_epoch_s() * 1e3;
                if pareto.contains(&id) {
                    pareto_times.push(ms);
                } else {
                    rest_times.push(ms);
                }
            }
            let range = |v: &[f64]| {
                let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = v.iter().cloned().fold(0.0f64, f64::max);
                format!("{lo:.2}-{hi:.2}")
            };
            t.row(&[
                ds.spec.name.clone(),
                p.to_string(),
                pareto
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                range(&pareto_times),
                range(&rest_times),
            ]);
        }
        t.sep();
    }
}
