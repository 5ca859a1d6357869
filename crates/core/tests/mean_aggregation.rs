//! GraphSAGE-style mean aggregation (§I's claim that RDM applies across
//! GNN variants): the aggregation matrix is non-symmetric, so the backward
//! pass must multiply by its transpose. These tests pin the mathematics
//! down with finite differences and cross-check the distributed engine
//! against the serial reference.

use rdm_comm::Cluster;
use rdm_core::gcn::{input_cache, rdm_backward, rdm_forward, serial, GcnWeights};
use rdm_core::loss::{serial as loss_serial, softmax_xent, LossSpec};
use rdm_core::ops::{OpCounters, Topology};
use rdm_core::{train_gcn, Plan, TrainerConfig};
use rdm_dense::allclose;
use rdm_graph::DatasetSpec;

fn mean_dataset(n: usize, seed: u64) -> rdm_graph::Dataset {
    DatasetSpec::synthetic("mean", n, 6 * n, 12, 4)
        .instantiate(seed)
        .with_mean_aggregation()
}

#[test]
fn mean_matrix_is_asymmetric_and_transpose_is_stored() {
    let ds = mean_dataset(60, 1);
    assert!(!ds.adj_norm.is_symmetric());
    let t = ds.adj_norm_t.as_ref().unwrap();
    assert_eq!(*t, ds.adj_norm.transpose());
}

/// The serial asymmetric backward must be the true gradient: check weight
/// gradients by central finite differences of the loss.
#[test]
fn serial_backward_asym_matches_finite_differences() {
    let ds = mean_dataset(30, 2);
    let feats = [12usize, 6, 4];
    let weights = GcnWeights::init(&feats, 5);
    let mask = vec![true; ds.n()];
    let m_t = ds.adj_norm.transpose();
    let loss_of = |w: &GcnWeights| -> f32 {
        let h = serial::forward(&ds.adj_norm, &ds.features, w);
        loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, &mask).0
    };
    let h = serial::forward(&ds.adj_norm, &ds.features, &weights);
    let (_, lg) = loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, &mask);
    let (grads, _) = serial::backward_asym(&m_t, &h, &weights, &lg);
    let eps = 2e-2f32;
    #[allow(clippy::needless_range_loop)]
    for layer in 0..2 {
        for (i, j) in [(0usize, 0usize), (1, 2), (3, 1)] {
            let mut wp = weights.clone();
            let v = wp.w[layer].get(i, j);
            wp.w[layer].set(i, j, v + eps);
            let lp = loss_of(&wp);
            let mut wm = weights.clone();
            let v = wm.w[layer].get(i, j);
            wm.w[layer].set(i, j, v - eps);
            let lm = loss_of(&wm);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[layer].get(i, j);
            assert!(
                (numeric - analytic).abs() < 5e-3 + 0.05 * analytic.abs(),
                "layer {layer} w[{i}][{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

/// The symmetric backward applied to the asymmetric matrix must be
/// *wrong* — guarding against silently dropping the transpose.
#[test]
fn symmetric_backward_is_wrong_for_mean_aggregation() {
    let ds = mean_dataset(40, 3);
    let weights = GcnWeights::init(&[12, 6, 4], 5);
    let mask = vec![true; ds.n()];
    let h = serial::forward(&ds.adj_norm, &ds.features, &weights);
    let (_, lg) = loss_serial::softmax_xent(h.last().unwrap(), &ds.labels, &mask);
    let (right, _) = serial::backward_asym(&ds.adj_norm.transpose(), &h, &weights, &lg);
    let (wrong, _) = serial::backward_asym(&ds.adj_norm, &h, &weights, &lg);
    assert!(
        !allclose(&right[0], &wrong[0], 1e-4),
        "transpose should matter on an asymmetric matrix"
    );
}

/// Distributed engine with the asymmetric topology matches the serial
/// asymmetric reference for all 16 orderings.
#[test]
fn distributed_mean_aggregation_matches_serial_all_configs() {
    let ds = mean_dataset(48, 4);
    let feats = vec![12usize, 6, 4];
    let weights = GcnWeights::init(&feats, 7);
    let m_t = ds.adj_norm.transpose();
    let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
    let mask = vec![true; ds.n()];
    let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
    let (serial_grads, _) = serial::backward_asym(&m_t, &serial_h, &weights, &lg);
    for id in 0..16 {
        let plan = Plan::from_id(id, 2, 4);
        let (adj, adj_t, features, labels) = (
            ds.adj_norm.clone(),
            m_t.clone(),
            ds.features.clone(),
            ds.labels.clone(),
        );
        let w2 = weights.clone();
        let out = Cluster::new(4).run(move |ctx| {
            let topo = Topology::new_asym(&adj, &adj_t, 4, ctx);
            let mut ops = OpCounters::default();
            let input = input_cache(&features, &topo, ctx);
            let mut art = rdm_forward(ctx, &topo, input, &w2, &plan, 1, &mut ops);
            let logits = art.logits_row();
            let mask = vec![true; labels.len()];
            let spec = LossSpec {
                labels: &labels,
                mask: &mask,
                num_classes: 4,
            };
            let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
            rdm_backward(ctx, &topo, &mut art, &w2, lgrad, 1, &mut ops).weight_grads
        });
        for grads in &out.results {
            for (l, (got, expect)) in grads.iter().zip(&serial_grads).enumerate() {
                assert!(
                    allclose(got, expect, 2e-3),
                    "mean-agg config {id} layer {} mismatch",
                    l + 1
                );
            }
        }
    }
}

/// End-to-end: the RDM trainer trains a mean-aggregation GCN to high
/// accuracy, and the trainer rejects baselines that assume symmetry.
#[test]
fn trainer_supports_mean_aggregation_rdm_only() {
    let ds = mean_dataset(300, 5);
    let report = train_gcn(
        &ds,
        &TrainerConfig::rdm_auto(4).hidden(16).epochs(25).lr(0.02),
    )
    .unwrap();
    assert!(
        report.final_test_acc() > 0.7,
        "mean aggregation failed to learn: {}",
        report.final_test_acc()
    );
    assert!(train_gcn(&ds, &TrainerConfig::cagnet_1d(4).epochs(1)).is_err());
    assert!(train_gcn(&ds, &TrainerConfig::dgcl(4).epochs(1)).is_err());
}

/// Asymmetric aggregation also works under R_A < P tiling.
#[test]
fn mean_aggregation_with_replication_factor() {
    let ds = mean_dataset(64, 6);
    let feats = vec![12usize, 6, 4];
    let weights = GcnWeights::init(&feats, 7);
    let m_t = ds.adj_norm.transpose();
    let serial_h = serial::forward(&ds.adj_norm, &ds.features, &weights);
    let mask = vec![true; ds.n()];
    let (_, lg) = loss_serial::softmax_xent(serial_h.last().unwrap(), &ds.labels, &mask);
    let (serial_grads, _) = serial::backward_asym(&m_t, &serial_h, &weights, &lg);
    let plan = Plan::from_id(5, 2, 4).with_ra(2);
    let out = Cluster::new(4).run(move |ctx| {
        let topo = Topology::new_asym(&ds.adj_norm, &m_t, 2, ctx);
        let mut ops = OpCounters::default();
        let input = input_cache(&ds.features, &topo, ctx);
        let mut art = rdm_forward(ctx, &topo, input, &weights, &plan, 1, &mut ops);
        let logits = art.logits_row();
        let mask = vec![true; ds.labels.len()];
        let spec = LossSpec {
            labels: &ds.labels,
            mask: &mask,
            num_classes: 4,
        };
        let (_, lgrad) = softmax_xent(&logits, &spec, ctx);
        rdm_backward(ctx, &topo, &mut art, &weights, lgrad, 1, &mut ops).weight_grads
    });
    for grads in &out.results {
        for (got, expect) in grads.iter().zip(&serial_grads) {
            assert!(allclose(got, expect, 2e-3), "R_A<P mean-agg mismatch");
        }
    }
}
