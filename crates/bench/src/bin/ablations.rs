//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Order selection** (the §IV-B model): best Pareto-optimal plan vs
//!    the worst ordering, per dataset.
//! 2. **Memoization** (§III-C): the same plan with the forward SpMM saved
//!    vs recomputed (Table III's N.M. penalty), in ops and simulated time.
//! 3. **Adjacency replication `R_A`** (§III-E): traffic vs memory as
//!    replication shrinks from `P` to 1, on the RDM trainer itself.
//! 4. **Collective schedule**: naive vs ring all-reduce volume.

use rdm_bench::{bench_epochs, run, scaled_dataset, TablePrinter};
use rdm_comm::{Cluster, CollectiveKind};
use rdm_core::{Plan, TrainerConfig};
use rdm_dense::Mat;
use rdm_model::cost::all_config_costs;
use rdm_model::{pareto_ids, rdm_bytes_per_gpu, Cost, DeviceModel, GnnShape, MemoryParams};

fn main() {
    ablation_order_selection();
    ablation_memoization();
    ablation_replication();
    ablation_allreduce();
}

fn ablation_order_selection() {
    println!("Ablation 1: model-driven order selection (P = 8, 2-layer, hidden = 128)");
    println!();
    let t = TablePrinter::new(&[14, 10, 14, 10, 14, 9]);
    t.row(&[
        "Dataset".into(),
        "best ID".into(),
        "best (ms)".into(),
        "worst ID".into(),
        "worst (ms)".into(),
        "gain".into(),
    ]);
    t.sep();
    let p = 8;
    for name in ["OGB-Arxiv", "OGB-MAG", "Reddit", "CAMI-Oral"] {
        let ds = scaled_dataset(name).unwrap();
        let shape = GnnShape::gcn(
            ds.n(),
            ds.adj_norm.nnz(),
            ds.spec.feature_size,
            128,
            ds.spec.labels,
            2,
        );
        let pareto = pareto_ids(&shape, p, p, 1.0);
        // Worst = the config maximizing comm + spmm by the model.
        let worst = all_config_costs(&shape, p, p, 1.0)
            .into_iter()
            .max_by(|a, b| {
                let total = |c: &Cost| c.comm_elems + c.spmm_ops;
                total(&a.cost).total_cmp(&total(&b.cost))
            })
            .unwrap()
            .config
            .id();
        let best_report = run(
            &ds,
            &TrainerConfig::rdm_auto(p)
                .hidden(128)
                .epochs(bench_epochs()),
        );
        let worst_report = run(
            &ds,
            &TrainerConfig::rdm(p, Plan::from_id(worst, 2, p))
                .hidden(128)
                .epochs(bench_epochs()),
        );
        let b = best_report.mean_sim_epoch_s() * 1e3;
        let w = worst_report.mean_sim_epoch_s() * 1e3;
        t.row(&[
            name.into(),
            format!("{:?}", pareto),
            format!("{b:.3}"),
            worst.to_string(),
            format!("{w:.3}"),
            format!("{:.2}x", w / b),
        ]);
    }
    println!();
}

fn ablation_memoization() {
    println!("Ablation 2: SpMM memoization across forward/backward (§III-C)");
    println!();
    // ID 8 = (F:SS, B:DS): layer 2 runs S forward / D backward — the
    // configuration that reuses the saved forward intermediate.
    let ds = scaled_dataset("OGB-Arxiv").unwrap();
    let p = 8;
    let t = TablePrinter::new(&[12, 16, 14, 14]);
    t.row(&[
        "memoize".into(),
        "SpMM GFMA/epoch".into(),
        "MB/epoch".into(),
        "sim ms/ep".into(),
    ]);
    t.sep();
    for memoize in [true, false] {
        let mut plan = Plan::from_id(8, 2, p);
        if !memoize {
            plan = plan.no_memoize();
        }
        let report = run(
            &ds,
            &TrainerConfig::rdm(p, plan)
                .hidden(128)
                .epochs(bench_epochs()),
        );
        let e = report.epochs.last().unwrap();
        t.row(&[
            memoize.to_string(),
            format!("{:.3}", e.ops.spmm_fma / 1e9),
            format!("{:.2}", e.total_bytes as f64 / 1e6),
            format!("{:.3}", e.sim.total_s * 1e3),
        ]);
    }
    println!();
}

fn ablation_replication() {
    println!("Ablation 3: adjacency replication R_A (P = 8, RDM trainer, §III-E)");
    println!();
    let ds = scaled_dataset("OGB-Products").unwrap();
    let p = 8;
    let shape = GnnShape::gcn(
        ds.n(),
        ds.adj_norm.nnz(),
        ds.spec.feature_size,
        128,
        ds.spec.labels,
        2,
    );
    let base_plan = rdm_core::best_plan(&shape, p, p, &DeviceModel::a6000_pcie(), 1.0);
    let t = TablePrinter::new(&[6, 14, 14, 14, 14]);
    t.row(&[
        "R_A".into(),
        "bcast MB/ep".into(),
        "redist MB/ep".into(),
        "sim ms/ep".into(),
        "MB/GPU (model)".into(),
    ]);
    t.sep();
    for r_a in [1usize, 2, 4, 8] {
        let plan = base_plan.clone().with_ra(r_a);
        let report = run(
            &ds,
            &TrainerConfig::rdm(p, plan)
                .hidden(128)
                .epochs(bench_epochs()),
        );
        let e = report.epochs.last().unwrap();
        let mp = MemoryParams {
            n: ds.n(),
            nnz: ds.adj_norm.nnz(),
            feat_sum: ds.spec.feature_size + 128 + ds.spec.labels,
            p,
        };
        t.row(&[
            r_a.to_string(),
            format!("{:.2}", e.broadcast_bytes() as f64 / 1e6),
            format!("{:.2}", e.redistribution_bytes() as f64 / 1e6),
            format!("{:.3}", e.sim.total_s * 1e3),
            format!("{:.1}", rdm_bytes_per_gpu(mp, r_a) as f64 / 1e6),
        ]);
    }
    println!("(R_A = 1 matches CAGNET-1D traffic; R_A = P is communication-minimal)");
    println!();
}

fn ablation_allreduce() {
    println!("Ablation 4: weight-gradient all-reduce schedule (P = 8, 602x128 gradient)");
    println!();
    let p = 8;
    let naive = Cluster::new(p).run(|ctx| {
        ctx.all_reduce_sum(Mat::zeros(602, 128), CollectiveKind::AllReduce);
    });
    let ring = Cluster::new(p).run(|ctx| {
        ctx.all_reduce_ring(Mat::zeros(602, 128), CollectiveKind::AllReduce);
    });
    let total = |out: &rdm_comm::cluster::RunOutput<()>| -> f64 {
        out.stats.iter().map(|s| s.total_bytes()).sum::<u64>() as f64 / 1e6
    };
    println!("naive gather: {:.2} MB total", total(&naive));
    println!("ring        : {:.2} MB total", total(&ring));
    println!("(the trainers use the ring schedule; naive grows quadratically in P)");
}
