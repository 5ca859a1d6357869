//! Schedule conformance: recorded traces of real runs must match the
//! model's predicted per-rank event sequence — op kinds, redistribution
//! directions, payload bytes, kernel shapes. There is one checker,
//! `rdm_model::check`, over units of work: `common::check` runs it on every
//! traced RDM point `config_space.rs` samples — training epochs (explicit
//! and auto-selected plans), GraphSAINT-RDM epochs (one part per subgraph
//! step), full-graph and induced serving batches. The tests below pin
//! named points of the space, and hold the checker itself to account: a
//! deliberately corrupted trace, or one checked against the wrong grid,
//! must fail with a rank-, unit- and index-specific diff, and breaking any
//! span or priced send of a conforming unit of each kind never passes.

mod common;

use common::{check, dataset, directed, epoch_units, full_graph_units, run_depth, traced};
use common::{traced_units, Config, Surface, System};
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::ops::PanelGrid;
use gnn_rdm::core::{Plan, TrainerConfig, WeightSnapshot};
use gnn_rdm::graph::Dataset;
use gnn_rdm::model::{self, Unit, UnitEvent};
use gnn_rdm::serve::{planned_batches, serve, LoadGen, ServeConfig};
use gnn_rdm::sparse::Csr;
use gnn_rdm::trace::{chrome, Event, EventData, RankTrace, Span};

/// The first `epochs` epochs of 2-layer plan `id` at hidden width 16 on
/// `ds`, priced on the `p/r_a × r_a` grid (backward SpMMs on `adj_t`'s
/// panels).
fn plan_epochs(
    ds: &Dataset,
    id: usize,
    epochs: usize,
    grid: (usize, usize),
    adj_t: Option<&Csr>,
) -> Vec<Unit> {
    let feats = ds.shape_layers(16, 2).feats;
    let steps = Plan::from_id(id, 2, 1).schedule(&feats).unwrap();
    let graph = PanelGrid::new(grid.0, grid.1).graph(&ds.adj_norm, adj_t);
    epoch_units(steps, graph, epochs)
}

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
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4).with_ra(2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
    let units = plan_epochs(&ds, 10, 1, (4, 2), None);
    assert!(model::check(&traces, 2, 1, &units).unwrap().is_empty());
    // Corrupt the first SpMM span of rank 3: one wrong panel-row count.
    let victim = traces[3]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Begin(Span::Spmm { .. })))
        .expect("rank 3 ran an SpMM");
    if let EventData::Begin(Span::Spmm { rows, .. }) = &mut victim.data {
        *rows += 1;
    }
    let violations = model::check(&traces, 2, 1, &units).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted field must yield exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].rank, 3);
    assert_eq!(violations[0].unit, Span::Epoch { idx: 0 });
    let msg = violations[0].to_string();
    assert!(msg.contains("rank 3 epoch 0 event"), "{msg}");
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");
}

#[test]
fn full_replication_traces_fail_a_mismatched_grid_prediction() {
    // The grid matters: checking an R_A = P run against an R_A = 2
    // prediction must surface violations (panel broadcasts that never
    // happened), not silently pass out-of-scope input.
    let ds = dataset();
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let traces = traced(&ds, cfg);
    let violations = model::check(&traces, 2, 1, &plan_epochs(&ds, 10, 1, (4, 2), None)).unwrap();
    assert!(
        !violations.is_empty(),
        "a full-replication trace conformed to the R_A = 2 schedule"
    );
}

#[test]
fn corrupting_one_event_fails_with_rank_and_index_specific_diff() {
    let ds = dataset();
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
    let units = plan_epochs(&ds, 0, 1, (2, 2), None);
    assert!(model::check(&traces, 2, 1, &units).unwrap().is_empty());
    // Corrupt the first SpMM span of rank 1: one wrong column count.
    let victim = traces[1]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Begin(Span::Spmm { .. })))
        .expect("rank 1 ran an SpMM");
    if let EventData::Begin(Span::Spmm { cols, .. }) = &mut victim.data {
        *cols += 1;
    }
    let violations = model::check(&traces, 2, 1, &units).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted field must yield exactly one violation: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.rank, 1);
    assert_eq!(v.unit, Span::Epoch { idx: 0 });
    // ID 0 layer 1 is SpMM-first on a dual-form input: the SpMM is the
    // very first schedule event.
    assert_eq!(v.index, 0);
    let msg = v.to_string();
    assert!(msg.contains("rank 1 epoch 0 event 0"), "{msg}");
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");
}

#[test]
fn corrupting_payload_bytes_is_caught() {
    // Schedule conformance covers volumes, not just op kinds: retag one
    // redistribution send's byte count and the diff must surface it.
    let ds = dataset();
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let mut traces = traced(&ds, cfg);
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
    let violations = model::check(&traces, 4, 1, &plan_epochs(&ds, 10, 1, (4, 4), None)).unwrap();
    assert!(!violations.is_empty(), "byte corruption went unnoticed");
    assert!(violations.iter().all(|v| v.rank == 2));
}

/// Every send is a message the schedule prices, empty ones included: a
/// plan-0 epoch at P = 4 pipelined in 64 strips ships thousands of
/// zero-byte pieces (strips narrower than a column), and removing any one
/// of them fails the check on its rank's message count for the epoch.
#[test]
fn removing_any_empty_send_is_caught() {
    let ds = dataset();
    let cfg = TrainerConfig::rdm(4, Plan::from_id(0, 2, 4))
        .hidden(16)
        .epochs(1)
        .overlap(64);
    let traces = traced(&ds, cfg);
    let units = plan_epochs(&ds, 0, 1, (4, 4), None);
    assert_eq!(model::check(&traces, 4, 64, &units), Ok(vec![]));
    let mut empty = 0;
    for trace in &traces {
        for (i, e) in trace.events.iter().enumerate() {
            if !matches!(e.data, EventData::Collective { bytes: 0, .. }) {
                continue;
            }
            let v = model::check(&without(&traces, trace.rank, &[i]), 4, 64, &units).unwrap();
            let messages = |v: &model::Violation| match (v.expected, v.got) {
                (Some(UnitEvent::Messages(e)), Some(UnitEvent::Messages(g))) => Some((e, g)),
                _ => None,
            };
            assert_eq!(v.len(), 1, "rank {} without send {i}: {v:?}", trace.rank);
            let (expected, got) = messages(&v[0]).expect("a message count violation");
            assert_eq!((v[0].rank, got + 1), (trace.rank, expected));
            empty += 1;
        }
    }
    assert!(empty > 1000, "only {empty} empty sends");
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

/// A traced serving session plus the units the checker holds it to.
fn traced_session(
    ds: &Dataset,
    snap: &WeightSnapshot,
    cfg: &ServeConfig,
) -> (Vec<RankTrace>, Vec<Unit>) {
    let reqs = LoadGen::new(41, 3, 30, 36).zipf(4).generate(ds.n());
    let mut cfg = cfg.clone();
    cfg.trace = true;
    let out = serve(ds, snap, &reqs, &cfg).unwrap();
    let units = full_graph_units(ds, &snap.feats(), &reqs, &cfg).unwrap();
    assert_eq!(units.len(), planned_batches(&reqs, &cfg.policy).len());
    (out.traces.expect("traced session returns traces"), units)
}

/// Batches after the first are priced from the held-`Â·H⁰` schedule when
/// layer 1 runs SpMM first (plans 0, 5), and from the plan's whole forward
/// when it runs GEMM first (plan 15), with and without the pipeline.
#[test]
fn serving_sessions_conform_across_plans_cache_and_pipeline() {
    let served = |id| Config::plan_id(id, 2, 2).on(Surface::Serve).traced();
    check(&served(0));
    check(&served(5).chunks(3));
    check(&served(15).chunks(3));
}

#[test]
fn serving_conformance_survives_chaos() {
    let served = Config::plan_id(5, 2, 2).on(Surface::Serve);
    check(&served.traced().chunks(3).chaos());
}

#[test]
fn replicated_panel_serving_sessions_conform() {
    let served = |id, r_a| Config::plan_id(id, 2, 4).ra(r_a).on(Surface::Serve);
    check(&served(0, 1).traced());
    check(&served(5, 2).traced().chunks(3));
    check(&served(10, 2).traced());
}

#[test]
fn corrupting_one_batch_event_yields_one_addressed_serving_violation() {
    let ds = dataset();
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 10, 5], 23));
    let mut cfg = ServeConfig::new(2);
    cfg.plan = Some(Plan::from_id(5, 2, 2));
    let (mut traces, units) = traced_session(&ds, &snap, &cfg);
    assert!(model::check(&traces, 2, 1, &units).unwrap().is_empty());
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
    let scope = Span::Batch {
        idx: *batch_idx,
        size: *size,
    };
    *size += 1;
    let batch_idx = *batch_idx;
    let violations = model::check(&traces, 2, 1, &units).unwrap();
    assert_eq!(
        violations.len(),
        1,
        "one corrupted batch event must yield exactly one violation: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.rank, 1);
    assert_eq!(v.unit, scope);
    assert_eq!(v.expected, Some(UnitEvent::Scope(scope)));
    let msg = v.to_string();
    assert!(
        msg.contains(&format!("rank 1 batch {batch_idx} event 0")),
        "{msg}"
    );
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
        for r_a in [2usize, 4] {
            let graph = PanelGrid::new(4, r_a).graph(&ds.adj_norm, Some(adj_t));
            let differ = agg == "directed row" && r_a == 2;
            let populations = Some(&graph.panel_nnz) != graph.panel_nnz_t.as_ref();
            assert_eq!(populations, differ, "{agg} r_a={r_a}: panel populations");
            for id in [0usize, 5, 10, 15] {
                let cfg = TrainerConfig::rdm(4, Plan::from_id(id, 2, 4).with_ra(r_a))
                    .hidden(16)
                    .epochs(2)
                    .sparse()
                    .overlap(3);
                let traces = traced(&ds, cfg);
                let check = |t: Option<&Csr>| {
                    let units = plan_epochs(&ds, id, 2, (4, r_a), t);
                    model::check(&traces, r_a, 3, &units)
                        .unwrap_or_else(|e| panic!("{agg} id={id} r_a={r_a}: {e}"))
                };
                let violations = check(Some(adj_t));
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

/// The index of the `End` that closes the span `events[begin]` opens.
fn end_of(events: &[Event], begin: usize) -> usize {
    let mut depth = 0usize;
    for (i, e) in events.iter().enumerate().skip(begin) {
        match e.data {
            EventData::Begin(_) => depth += 1,
            EventData::End if depth == 1 => return i,
            EventData::End => depth -= 1,
            _ => {}
        }
    }
    panic!("the span at event {begin} never closes")
}

/// `traces` with the events `drop` of rank `rank`'s trace removed.
fn without(traces: &[RankTrace], rank: usize, drop: &[usize]) -> Vec<RankTrace> {
    let mut out = traces.to_vec();
    let mut i = 0;
    out[rank].events.retain(|_| {
        i += 1;
        !drop.contains(&(i - 1))
    });
    out
}

/// Breaking unit `at` of a conforming traced run on any rank — removing
/// one span with its `End`, or one send inside a `Redistribute` or
/// `AllReduce` span — makes the check fail (never pass, never panic); the
/// `Retry` and `OverlapStrip` instants change nothing.
fn every_break_fails(what: &str, cfg: Config, at: usize) {
    let (traces, units) = traced_units(&cfg).unwrap();
    let check = |t: &[RankTrace]| model::check(t, cfg.run_ra(), run_depth(&cfg), &units);
    assert_eq!(check(&traces), Ok(vec![]), "{what}: the run conforms");
    let unit = |e: &Event| {
        matches!(
            e.data,
            EventData::Begin(Span::Epoch { .. } | Span::Batch { .. })
        )
    };
    let mut breaks = 0;
    for trace in &traces {
        let ev = &trace.events;
        let begin = (ev.iter().enumerate())
            .filter(|(_, e)| unit(e))
            .nth(at)
            .expect("the run recorded the unit")
            .0;
        let mut open = Vec::new();
        for i in begin..=end_of(ev, begin) {
            let priced = matches!(
                open.last(),
                Some(Span::Redistribute { .. } | Span::AllReduce { .. })
            );
            let drop = match ev[i].data {
                EventData::Begin(span) => {
                    open.push(span);
                    vec![i, end_of(ev, i)]
                }
                EventData::End => {
                    open.pop();
                    continue;
                }
                EventData::Collective { .. } if priced => vec![i],
                _ => continue,
            };
            let passed = check(&without(&traces, trace.rank, &drop)) == Ok(vec![]);
            assert!(
                !passed,
                "{what}: rank {} passes without {drop:?}",
                trace.rank
            );
            breaks += 1;
        }
    }
    assert!(breaks > 0, "{what}: nothing to break");

    // A chaotic run retried some sends; a recorder that marks every strip
    // kernel's retirement adds `OverlapStrip` instants. Neither is priced.
    let instant = |e: &Event| {
        matches!(
            e.data,
            EventData::Retry { .. } | EventData::OverlapStrip { .. }
        )
    };
    let retries = traces.iter().flat_map(|t| &t.events).filter(|e| instant(e));
    assert!(retries.count() > 0, "{what}: chaos retried nothing");
    let strips = |t: &RankTrace| {
        let mut events = Vec::new();
        for (i, e) in t.events.iter().enumerate() {
            events.push(e.data);
            if matches!(e.data, EventData::End) && i > 0 {
                if let EventData::Begin(Span::Spmm { .. } | Span::Gemm { .. }) =
                    t.events[i - 1].data
                {
                    events.push(EventData::OverlapStrip {
                        idx: 0,
                        hidden_ns: 1,
                    });
                }
            }
        }
        let events = events.into_iter().enumerate().map(|(i, data)| Event {
            seq: i as u64,
            ts_ns: i as u64,
            data,
        });
        RankTrace {
            rank: t.rank,
            events: events.collect(),
        }
    };
    let marked: Vec<RankTrace> = traces.iter().map(strips).collect();
    let bare = |t: &RankTrace| RankTrace {
        rank: t.rank,
        events: t.events.iter().filter(|e| !instant(e)).copied().collect(),
    };
    for (how, t) in [
        ("marked", &marked),
        ("bare", &traces.iter().map(bare).collect()),
    ] {
        assert_eq!(check(t), Ok(vec![]), "{what}: {how}");
    }
}

/// The checker holds every kind of unit to its schedule: a training epoch
/// (group redistributions, panel broadcasts, two-strip pipeline), a
/// CAGNET-1.5D epoch (its per-epoch conversion of `H⁰`, no `G⁰`), a
/// full-graph and an induced serving batch, a GraphSAINT-RDM epoch and a
/// masked-SpMM epoch — each chaotic, so the trace carries retries.
#[test]
fn breaking_any_unit_of_each_kind_fails_the_check() {
    let epoch = Config::plan_id(10, 2, 4).ra(2).chunks(2).chaos();
    every_break_fails("training epoch", epoch, 0);
    let cagnet = Config::train(System::Cagnet15D, 2, 4).ra(2).chaos();
    every_break_fails("CAGNET-1.5D epoch", cagnet, 0);
    let served = Config::plan_id(5, 2, 4).ra(2).on(Surface::Serve).chaos();
    every_break_fails("full-graph batch", served, 0);
    let induced = Config::plan_id(0, 2, 2).on(Surface::Induced).chaos();
    every_break_fails("induced batch", induced, 1);
    let saint = Config::train(System::SaintRdm, 2, 2).chaos();
    every_break_fails("GraphSAINT-RDM epoch", saint, 0);
    let masked = Config::train(System::SaintMasked, 2, 2).chaos();
    every_break_fails("masked-SpMM epoch", masked, 0);
}
