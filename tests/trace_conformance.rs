//! Schedule conformance: recorded traces of real runs must match the
//! model's predicted per-rank event sequence — op kinds, redistribution
//! directions, payload bytes, kernel shapes. `common::check` runs the
//! checker on every traced point `config_space.rs` samples (training
//! against `predict_epoch`, full-graph serving against `predict_session`);
//! the tests below pin named points of the space, and hold the checker
//! itself to account: a deliberately corrupted trace, or one checked
//! against the wrong grid, must fail with a rank-and-index-specific diff.

mod common;

use common::{
    check, dataset, directed, panel_nnz, session_batches, traced, Config, Surface, System,
};
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::{Plan, TrainerConfig, WeightSnapshot};
use gnn_rdm::graph::Dataset;
use gnn_rdm::model::{check_session, conformance, GnnShape, OrderConfig, SessionBatch};
use gnn_rdm::serve::{serve, LoadGen, ServeConfig};
use gnn_rdm::trace::{chrome, EventData, RankTrace, Span};

#[test]
fn all_16_plans_conform_at_p_1_2_4_with_and_without_memoization() {
    for (p, id, memoize) in [(1, 3, true), (2, 6, false), (4, 9, true), (4, 12, false)] {
        check(&Config::train(System::Plan { id, memoize }, 2, p).traced());
    }
}

/// The pipelined path and fault retransmissions leave the extracted
/// schedule alone.
#[test]
fn conformance_holds_under_overlap_and_chaos() {
    for id in [0, 15] {
        check(&Config::plan_id(id, 2, 4).traced().chunks(3).chaos());
    }
}

/// `R_A < P`: group-scoped redistributions and panel tile broadcasts,
/// blocking, pipelined and chaotic.
#[test]
fn replicated_panel_runs_conform_across_plans_and_chaos() {
    let grid = |id| Config::plan_id(id, 2, 4).ra(2).traced();
    check(&grid(0));
    check(&grid(5).chunks(3));
    check(&grid(10).chunks(3).chaos());
}

#[test]
fn replicated_panel_corruption_yields_one_addressed_violation() {
    // Acceptance: corrupt exactly one event of an R_A = 2 run and the
    // checker must return exactly one violation, addressed to the rank
    // and schedule index of the corruption.
    let ds = dataset();
    let shape = ds.shape_layers(16, 2);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4).with_ra(2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
    let config = OrderConfig::from_id(10, 2);
    let nnz = panel_nnz(&ds.adj_norm, 4, 2);
    assert!(
        conformance::check_run(&traces, &shape, &config, true, 2, &nnz, None)
            .unwrap()
            .is_empty()
    );
    // Corrupt the first SpMM span of rank 3: one wrong panel-row count.
    let victim = traces[3]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Begin(Span::Spmm { .. })))
        .expect("rank 3 ran an SpMM");
    if let EventData::Begin(Span::Spmm { rows, .. }) = &mut victim.data {
        *rows += 1;
    }
    let violations = conformance::check_run(&traces, &shape, &config, true, 2, &nnz, None).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted field must yield exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].rank, 3);
    let msg = violations[0].to_string();
    assert!(msg.contains("rank 3"), "{msg}");
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");
}

#[test]
fn full_replication_traces_fail_a_mismatched_grid_prediction() {
    // The grid matters: checking an R_A = P run against an R_A = 2
    // prediction must surface violations (panel broadcasts that never
    // happened), not silently pass out-of-scope input.
    let ds = dataset();
    let shape = ds.shape_layers(16, 2);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let traces = traced(&ds, cfg);
    let config = OrderConfig::from_id(10, 2);
    let nnz = panel_nnz(&ds.adj_norm, 4, 2);
    let violations = conformance::check_run(&traces, &shape, &config, true, 2, &nnz, None).unwrap();
    assert!(
        !violations.is_empty(),
        "a full-replication trace conformed to the R_A = 2 schedule"
    );
}

#[test]
fn corrupting_one_event_fails_with_rank_and_index_specific_diff() {
    let ds = dataset();
    let shape = ds.shape_layers(16, 2);
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
    let config = OrderConfig::from_id(0, 2);
    assert!(
        conformance::check_run(&traces, &shape, &config, true, 2, &[shape.nnz], None)
            .unwrap()
            .is_empty()
    );
    // Corrupt the first SpMM span of rank 1: one wrong column count.
    let victim = traces[1]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Begin(Span::Spmm { .. })))
        .expect("rank 1 ran an SpMM");
    if let EventData::Begin(Span::Spmm { cols, .. }) = &mut victim.data {
        *cols += 1;
    }
    let violations =
        conformance::check_run(&traces, &shape, &config, true, 2, &[shape.nnz], None).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted field must yield exactly one violation: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.rank, 1);
    assert_eq!(v.epoch, 0);
    // ID 0 layer 1 is SpMM-first on a dual-form input: the SpMM is the
    // very first schedule event.
    assert_eq!(v.index, 0);
    let msg = v.to_string();
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("event 0"), "{msg}");
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");
}

#[test]
fn corrupting_payload_bytes_is_caught() {
    // Schedule conformance covers volumes, not just op kinds: retag one
    // redistribution send's byte count and the diff must surface it.
    let ds = dataset();
    let shape = ds.shape_layers(16, 2);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
    let config = OrderConfig::from_id(10, 2);
    let victim = traces[2]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Collective { .. }))
        .expect("rank 2 sent something");
    if let EventData::Collective {
        bytes, dense_bytes, ..
    } = &mut victim.data
    {
        (*bytes, *dense_bytes) = (*bytes + 4, *dense_bytes + 4);
    }
    let violations =
        conformance::check_run(&traces, &shape, &config, true, 4, &[shape.nnz], None).unwrap();
    assert!(!violations.is_empty(), "byte corruption went unnoticed");
    assert!(violations.iter().all(|v| v.rank == 2));
}

#[test]
fn exported_chrome_json_passes_schema_validation() {
    let ds = dataset();
    for p in [1usize, 2, 4] {
        let cfg = TrainerConfig::rdm(p, Plan::from_id(10, 2, p))
            .hidden(16)
            .epochs(2);
        let traces = traced(&ds, cfg);
        for normalized in [false, true] {
            let json = chrome::to_chrome_json(&traces, normalized);
            chrome::validate(&json)
                .unwrap_or_else(|e| panic!("p={p} normalized={normalized}: {e}"));
        }
    }
}

/// A traced serving session plus the schedule the predictor needs.
fn traced_session(
    ds: &Dataset,
    snap: &WeightSnapshot,
    cfg: &ServeConfig,
) -> (Vec<RankTrace>, Vec<SessionBatch>) {
    let reqs = LoadGen::new(41, 3, 30, 36).zipf(4).generate(ds.n());
    let mut cfg = cfg.clone();
    cfg.trace = true;
    let out = serve(ds, snap, &reqs, &cfg).unwrap();
    let batches = session_batches(&reqs, &cfg);
    (out.traces.expect("traced session returns traces"), batches)
}

/// Cache-pruned exchanges are priced by the directory replay, with and
/// without the pipeline.
#[test]
fn serving_sessions_conform_across_plans_cache_and_pipeline() {
    let served = |id, cache| {
        Config::plan_id(id, 2, 2)
            .on(Surface::Serve { cache })
            .traced()
    };
    check(&served(0, 16));
    check(&served(5, 0).chunks(3));
    check(&served(15, 16).chunks(3));
}

#[test]
fn serving_conformance_survives_chaos() {
    let served = Config::plan_id(5, 2, 2).on(Surface::Serve { cache: 16 });
    check(&served.traced().chunks(3).chaos());
}

#[test]
fn replicated_panel_serving_sessions_conform() {
    let served = |id, r_a| {
        Config::plan_id(id, 2, 4)
            .ra(r_a)
            .on(Surface::Serve { cache: 0 })
    };
    check(&served(0, 1).traced());
    check(&served(5, 2).traced().chunks(3));
    check(&served(10, 2).traced());
}

#[test]
fn corrupting_one_batch_event_yields_one_addressed_serving_violation() {
    let ds = dataset();
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 10, 5], 23));
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![16, 10, 5],
    };
    let mut cfg = ServeConfig::new(2);
    cfg.plan = Some(Plan::from_id(5, 2, 2));
    cfg.cache = 16;
    let (mut traces, batches) = traced_session(&ds, &snap, &cfg);
    let config = OrderConfig::from_id(5, 2);
    let nnz = [shape.nnz];
    assert!(
        check_session(&traces, &shape, &config, true, &batches, 16, 2, &nnz)
            .unwrap()
            .is_empty()
    );
    // Corrupt rank 1's second batch span: one wrong admission count.
    let victim = traces[1]
        .events
        .iter_mut()
        .filter(|e| matches!(e.data, EventData::Begin(Span::Batch { .. })))
        .nth(1)
        .expect("session ran at least two batches");
    let EventData::Begin(Span::Batch {
        idx: batch_idx,
        size,
    }) = &mut victim.data
    else {
        unreachable!()
    };
    *size += 1;
    let batch_idx = *batch_idx;
    let violations = check_session(&traces, &shape, &config, true, &batches, 16, 2, &nnz).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted batch event must yield exactly one violation: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.rank, 1);
    assert_eq!(v.batch, batch_idx);
    let msg = v.to_string();
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains(&format!("batch {batch_idx}")), "{msg}");
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");
}

/// Past Table IV's 2-layer encoding, the pathological weight-gradient
/// paths included.
#[test]
fn three_layer_plans_conform_too() {
    for id in [21, 37, 42, 63] {
        check(&Config::plan_id(id, 3, 3).traced());
    }
}

#[test]
fn asymmetric_aggregations_conform_on_the_transposes_panels() {
    // Row (`D⁻¹A`) and mean (`D̃⁻¹(A+I)`) aggregation are not symmetric:
    // backward SpMMs multiply `Âᵀ`'s panels. On the sparse wire with
    // 3-chunk overlap (the train-grid-sparse configuration) every run
    // conforms once the transpose's per-panel populations price the
    // backward SpMMs. On a directed graph those differ from `Â`'s at
    // R_A < P, and pricing the backward SpMMs on `Â`'s panels is caught.
    let cases = [
        ("row", dataset().with_row_aggregation()),
        ("mean", dataset().with_mean_aggregation()),
        ("directed row", directed(dataset()).with_row_aggregation()),
    ];
    for (agg, ds) in cases {
        let adj_t = ds.adj_norm_t.as_ref().expect("the transpose is stored");
        let shape = ds.shape_layers(16, 2);
        for r_a in [2usize, 4] {
            let (nnz, nnz_t) = (panel_nnz(&ds.adj_norm, 4, r_a), panel_nnz(adj_t, 4, r_a));
            let differ = agg == "directed row" && r_a == 2;
            assert_eq!(nnz != nnz_t, differ, "{agg} r_a={r_a}: panel populations");
            for id in [0usize, 5, 10, 15] {
                let cfg = TrainerConfig::rdm(4, Plan::from_id(id, 2, 4).with_ra(r_a))
                    .hidden(16)
                    .epochs(2)
                    .sparse()
                    .overlap(3);
                let traces = traced(&ds, cfg);
                let config = OrderConfig::from_id(id, 2);
                let check = |t: Option<&[usize]>| {
                    conformance::check_run(&traces, &shape, &config, true, r_a, &nnz, t)
                        .unwrap_or_else(|e| panic!("{agg} id={id} r_a={r_a}: {e}"))
                };
                let violations = check(Some(&nnz_t));
                assert!(
                    violations.is_empty(),
                    "{agg} id={id} r_a={r_a}: {} violation(s), first: {}",
                    violations.len(),
                    violations[0]
                );
                assert_eq!(
                    check(None).is_empty(),
                    !differ,
                    "{agg} id={id} r_a={r_a}: backward SpMMs priced on Â's panels"
                );
            }
        }
    }
}
