//! Scaled-down checks of the paper's headline claims — the qualitative
//! *shape* of every result the evaluation section reports.

use gnn_rdm::core::{train_gcn, Plan, TrainerConfig};
use gnn_rdm::graph::{DatasetSpec, SaintSampler};
use gnn_rdm::model::{pareto_ids, GnnShape};

fn dataset(n: usize, deg: usize) -> gnn_rdm::graph::Dataset {
    DatasetSpec::synthetic("claims", n, n * deg, 32, 8).instantiate(17)
}

/// §I / §III-D: RDM's total communication volume is (nearly) independent
/// of P, while CAGNET's grows linearly and DGCL's grows with the cut.
#[test]
fn scalability_of_communication_volume() {
    let ds = dataset(600, 10);
    let vol = |cfg: TrainerConfig| {
        train_gcn(&ds, &cfg.hidden(32).epochs(1)).unwrap().epochs[0].total_bytes as f64
    };
    let rdm_growth = vol(TrainerConfig::rdm_auto(8)) / vol(TrainerConfig::rdm_auto(2));
    let cag_growth = vol(TrainerConfig::cagnet_1d(8)) / vol(TrainerConfig::cagnet_1d(2));
    let dgcl_growth = vol(TrainerConfig::dgcl(8)) / vol(TrainerConfig::dgcl(2));
    assert!(
        rdm_growth < 2.2,
        "RDM volume grew {rdm_growth}x from P=2 to 8"
    );
    assert!(cag_growth > 5.0, "CAGNET volume grew only {cag_growth}x");
    assert!(dgcl_growth > 1.2, "DGCL volume grew only {dgcl_growth}x");
    assert!(rdm_growth < dgcl_growth && dgcl_growth < cag_growth);
}

/// Fig. 8–11 / Table VII shape: RDM's simulated throughput beats CAGNET
/// at every P (the paper reports ≥2× everywhere; its own speedups are not
/// monotone in P — 2.29/2.38/2.04 for the 2-layer/128 row — so only the
/// "always ahead, clearly ahead at 8 GPUs" shape is asserted).
#[test]
fn rdm_beats_cagnet_at_every_p() {
    // Bench-scale shape (OGB-Arxiv-like): below ~N=3000 the per-message
    // latency floor drowns the volume differences the claim is about.
    let ds = DatasetSpec::synthetic("claims-big", 4000, 64_000, 128, 40).instantiate(17);
    let mut at8 = 0.0;
    for p in [2usize, 4, 8] {
        let rdm = train_gcn(&ds, &TrainerConfig::rdm_auto(p).hidden(128).epochs(2)).unwrap();
        let cag = train_gcn(&ds, &TrainerConfig::cagnet(p).hidden(128).epochs(2)).unwrap();
        let speedup = cag.mean_sim_epoch_s() / rdm.mean_sim_epoch_s();
        assert!(speedup > 1.1, "P={p}: RDM not clearly faster ({speedup})");
        at8 = speedup;
    }
    assert!(at8 > 1.5, "8-rank speedup only {at8}");
}

/// Table VIII's purpose: a model-selected Pareto configuration is at least
/// as fast (simulated) as the worst non-Pareto configuration, and the
/// Pareto set's best beats the non-Pareto set's best on communication.
#[test]
fn pareto_configs_beat_non_pareto_on_their_metrics() {
    let ds = dataset(500, 10);
    let p = 4;
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![32, 16, 8],
    };
    let pareto = pareto_ids(&shape, p, p, 1.0);
    let mut best_pareto_comm = u64::MAX;
    let mut best_rest_comm = u64::MAX;
    for id in 0..16 {
        let report = train_gcn(
            &ds,
            &TrainerConfig::rdm(p, Plan::from_id(id, 2, p))
                .hidden(16)
                .epochs(1),
        )
        .unwrap();
        let comm = report.epochs[0].redistribution_bytes();
        if pareto.contains(&id) {
            best_pareto_comm = best_pareto_comm.min(comm);
        } else {
            best_rest_comm = best_rest_comm.min(comm);
        }
    }
    assert!(
        best_pareto_comm <= best_rest_comm,
        "a non-Pareto config moved less data: {best_rest_comm} < {best_pareto_comm}"
    );
}

/// §V-C: GraphSAINT-RDM takes P× more optimizer steps per epoch than
/// GraphSAINT-DDP, and converges at least as fast per epoch.
#[test]
fn saint_rdm_converges_no_slower_than_ddp_per_epoch() {
    let ds = dataset(800, 10);
    let sampler = SaintSampler::Node { budget: 80 };
    let epochs = 5;
    let rdm = train_gcn(
        &ds,
        &TrainerConfig::saint_rdm(4, sampler)
            .hidden(16)
            .epochs(epochs)
            .lr(0.02),
    )
    .unwrap();
    let ddp = train_gcn(
        &ds,
        &TrainerConfig::saint_ddp(4, sampler)
            .hidden(16)
            .epochs(epochs)
            .lr(0.02),
    )
    .unwrap();
    // Compare accuracy trajectories epoch by epoch: RDM should dominate
    // or match (it takes 4x the optimizer steps).
    let rdm_sum: f32 = rdm.epochs.iter().map(|e| e.test_acc).sum();
    let ddp_sum: f32 = ddp.epochs.iter().map(|e| e.test_acc).sum();
    assert!(
        rdm_sum >= ddp_sum - 0.05 * epochs as f32,
        "SAINT-RDM trajectory ({rdm_sum}) fell behind DDP ({ddp_sum})"
    );
}

/// Fig. 12 / Table IX shape: RDM's absolute communication time per epoch
/// is below CAGNET's ("the total time spent in communication is lower for
/// RDM, often by a significant amount") — the fraction can go either way
/// because RDM's compute also shrinks with a cheaper ordering.
#[test]
fn rdm_comm_time_below_cagnet() {
    let ds = dataset(2000, 12);
    let p = 8;
    let comm = |cfg: TrainerConfig| {
        let r = train_gcn(&ds, &cfg.hidden(64).epochs(2)).unwrap();
        r.epochs.last().unwrap().sim.comm_s
    };
    let rdm = comm(TrainerConfig::rdm_auto(p));
    let cag = comm(TrainerConfig::cagnet(p));
    assert!(rdm < cag, "RDM comm time {rdm} not below CAGNET {cag}");
}

/// §III-E / Table X trade-off: lowering R_A in the CAGNET-1.5D family
/// (our Fig. 6 instantiation) raises traffic; the memory model confirms
/// the inverse relation between replication and communication.
#[test]
fn replication_vs_traffic_tradeoff() {
    use gnn_rdm::core::Algo;
    let ds = dataset(600, 10);
    let p = 8;
    let vol = |c: usize| {
        let cfg = TrainerConfig {
            algo: Algo::Cagnet15D { c },
            ..TrainerConfig::cagnet(p)
        };
        train_gcn(&ds, &cfg.hidden(32).epochs(1)).unwrap().epochs[0].total_bytes
    };
    let v1 = vol(1);
    let v2 = vol(2);
    let v4 = vol(4);
    let v8 = vol(8);
    assert!(
        v1 > v2 && v2 > v4 && v4 > v8,
        "traffic not decreasing: {v1} {v2} {v4} {v8}"
    );
    // Memory moves the other way.
    use gnn_rdm::model::{rdm_bytes_per_gpu, MemoryParams};
    let mp = MemoryParams {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feat_sum: 32 + 32 + 8,
        p,
    };
    assert!(rdm_bytes_per_gpu(mp, 8) > rdm_bytes_per_gpu(mp, 2));
}
