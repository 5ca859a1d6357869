//! Serving depth: pipelined batch admission and the reuse of batch 0's
//! layer-1 aggregation are *invisible* to the math. For the same weight
//! snapshot and request stream, a pipelined session that holds `Â·H⁰`
//! serves logits bitwise identical to the plain sequential session and to
//! a direct engine forward, across cluster sizes, replication factors,
//! wire formats, kernel widths and fault injection (`common::check`, at
//! every full-graph point `config_space.rs` samples) — while the session's
//! payload book is exactly batch 0's plus every later batch's, each priced
//! from the one schedule the engine runs.

mod common;

use common::zipf_requests as requests;
use common::{check, full_graph_units, priced, Config, Surface};
use common::{serve_dataset as dataset, serve_snapshot as snapshot};
use gnn_rdm::comm::CollectiveKind;
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::metrics::hidden_price;
use gnn_rdm::core::ops::PanelGrid;
use gnn_rdm::core::{Plan, WeightSnapshot};
use gnn_rdm::dense::{KernelMode, KernelWidth};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::model::{forward_schedule, DeviceModel, Entry};
use gnn_rdm::serve::{serve, ServeConfig};

/// The plain sequential session (no pipeline).
fn baseline_cfg(p: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(p);
    cfg.plan = Some(Plan::from_id(5, 2, p));
    cfg
}

/// Plan 5 (layer 1 SpMM-first, so batches after the first reuse batch 0's
/// `Â·H⁰`) on `p` ranks behind a 3-strip pipeline.
fn deep(p: usize) -> Config {
    Config::plan_id(5, 2, p).on(Surface::Serve).chunks(3)
}

#[test]
fn pipelined_cached_serving_is_bitwise_across_the_matrix() {
    check(&deep(1));
    check(&deep(2).sparse());
    check(&deep(4));
    check(&deep(4).sparse());
    check(&deep(4).ra(2));
    check(&deep(4).ra(1).sparse());
}

#[test]
fn fast_kernel_widths_preserve_the_depth_invariant() {
    for width in KernelWidth::all() {
        check(&deep(2).sparse().kernels(KernelMode::Fast(width)));
    }
}

#[test]
fn chaos_leaves_depth_serving_and_payload_book_unchanged() {
    for p in [2, 4] {
        check(&deep(p).chaos());
        check(&deep(p).sparse().chaos());
    }
}

/// A session aggregates `Â·H⁰` once: its books are batch 0's plus `B − 1`
/// times the books of a batch that holds `T¹`, each priced from its unit
/// — which a batch after the first undercuts by layer
/// 1's whole exchange and panel broadcasts — on every grid and both wires.
#[test]
fn session_books_are_batch_zero_plus_held_aggregation_batches() {
    let (ds, snap, reqs) = (dataset(), snapshot(), requests(&dataset()));
    let feats = ds.shape_layers(10, 2).feats;
    for r_a in [4, 2, 1] {
        for sparse in [false, true] {
            let mut cfg = baseline_cfg(4);
            cfg.plan = Some(Plan::from_id(5, 2, 4).with_ra(r_a));
            cfg.sparse = sparse;
            let out = serve(&ds, &snap, &reqs, &cfg).unwrap();
            let units = full_graph_units(&ds, &feats, &reqs, &cfg).unwrap();
            let first = priced(&units[..1], 4, r_a).unwrap();
            let two = priced(&units[..2], 4, r_a).unwrap();
            let later = [two[0] - first[0], two[1] - first[1]];
            let label = format!("r_a={r_a} sparse={sparse}");
            // Layer 1's exchange leaves only with a group to exchange in
            // (r_a > 1), its panel broadcasts only with panels (r_a < P).
            let cut = [r_a > 1, r_a < 4];
            for k in 0..2 {
                assert_eq!(
                    later[k] < first[k],
                    cut[k],
                    "{label}: {later:?} vs {first:?}"
                );
            }
            let b = units.len() as u64;
            assert!(b > 2, "{label}: want several batches");
            let book = |k| out.stats.dense_bytes(k);
            assert_eq!(
                [CollectiveKind::Redistribute, CollectiveKind::Broadcast].map(book),
                [0, 1].map(|k| first[k] + (b - 1) * later[k]),
                "{label}"
            );
        }
    }
}

#[test]
fn depth_sessions_replay_byte_identically() {
    let ds = dataset();
    let snap = snapshot();
    let reqs = requests(&ds);
    let cfg = baseline_cfg(4).pipelined(3);
    let a = serve(&ds, &snap, &reqs, &cfg).unwrap();
    let b = serve(&ds, &snap, &reqs, &cfg).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.render(), b.report.render());
}

/// A priced hidden time under 1 ns truncates to 0, so on a toy graph a
/// batch that holds `Â·H⁰` and one that does not both hide 0 and nothing
/// tells them apart. On a graph large enough for the held schedule to hide
/// a nonzero time of its own, every batch after the first hides exactly
/// that price — nonzero, and not batch 0's.
#[test]
fn held_batches_hide_their_own_nonzero_price() {
    let (n, f, hidden) = (4_000, 32, 32);
    let ds = DatasetSpec::synthetic("serve-held", n, 10 * n, f, 4).instantiate(17);
    let feats = [f, hidden, 4];
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&feats, 23));
    let cfg = baseline_cfg(2).pipelined(3);
    let out = serve(&ds, &snap, &requests(&ds), &cfg).unwrap();
    let config = &cfg.plan.as_ref().unwrap().config;
    let price = |held| {
        let entry = if held { Entry::Held } else { Entry::Both };
        let steps = forward_schedule(config, true, &feats, entry).unwrap();
        let (grid, device) = (PanelGrid::new(2, 2), DeviceModel::a6000_pcie());
        let ranks = hidden_price(&steps, &ds.adj_norm, None, grid, 3, &device);
        ranks.iter().sum::<u64>()
    };
    let (first, steady) = (price(false), price(true));
    assert!(steady > 0 && steady != first, "{steady} vs {first}");
    assert!(out.hidden_ns.len() > 2, "want several batches");
    assert_eq!(out.hidden_ns[0], first);
    assert!(
        out.hidden_ns[1..].iter().all(|&ns| ns == steady),
        "{:?}",
        out.hidden_ns
    );
}
