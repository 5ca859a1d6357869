//! Schedule-conformance harness: recorded traces of real training runs
//! must match the model's predicted per-rank event sequence — op kinds,
//! redistribution directions, payload bytes, kernel shapes — for every
//! Table-IV ordering, and a deliberately corrupted trace must fail with a
//! rank-and-index-specific diff.
//!
//! `CHAOS_SEED` (env) shifts the fault seed so CI can sweep chaos
//! schedules without code changes.

use gnn_rdm::comm::FaultPlan;
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::{train_gcn, Plan, TrainerConfig, WeightSnapshot};
use gnn_rdm::dense::mat::part_range;
use gnn_rdm::graph::{Dataset, DatasetSpec};
use gnn_rdm::model::{check_session, conformance, GnnShape, OrderConfig, SessionBatch};
use gnn_rdm::serve::{planned_batches, serve, LoadGen, ServeConfig};
use gnn_rdm::sparse::{Coo, Csr};
use gnn_rdm::trace::{chrome, EventData, RankTrace, Span};

/// Nonzeros of each row panel of `adj` on the `p/r_a × r_a` grid — panel
/// `k` spans the contiguous row slices of ranks `[k·r_a, (k+1)·r_a)`.
/// The data-dependent input the replicated-panel predictor cannot derive
/// from the shape alone.
fn panel_nnz(adj: &Csr, p: usize, r_a: usize) -> Vec<usize> {
    let indptr = adj.indptr();
    let n = adj.rows();
    (0..p / r_a)
        .map(|k| {
            let r0 = part_range(n, p, k * r_a).start;
            let r1 = part_range(n, p, (k + 1) * r_a - 1).end;
            indptr[r1] - indptr[r0]
        })
        .collect()
}

fn dataset() -> Dataset {
    DatasetSpec::synthetic("conformance", 140, 1100, 16, 5).instantiate(31)
}

fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn shape_of(ds: &Dataset, hidden: usize) -> GnnShape {
    GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![ds.spec.feature_size, hidden, ds.spec.labels],
    }
}

fn traced_run(ds: &Dataset, cfg: TrainerConfig) -> Vec<RankTrace> {
    train_gcn(ds, &cfg.trace())
        .unwrap()
        .traces
        .expect("traced run returns traces")
}

#[test]
fn all_16_plans_conform_at_p_1_2_4_with_and_without_memoization() {
    let ds = dataset();
    let shape = shape_of(&ds, 16);
    for p in [1usize, 2, 4] {
        for id in 0..16 {
            for memoize in [true, false] {
                let mut plan = Plan::from_id(id, 2, p);
                if !memoize {
                    plan = plan.no_memoize();
                }
                let cfg = TrainerConfig::rdm(p, plan).hidden(16).epochs(2);
                let traces = traced_run(&ds, cfg);
                assert_eq!(traces.len(), p);
                let config = OrderConfig::from_id(id, 2);
                let violations = conformance::check_run(
                    &traces,
                    &shape,
                    &config,
                    memoize,
                    p,
                    &[shape.nnz],
                    None,
                )
                .unwrap_or_else(|e| {
                    panic!("p={p} id={id} memoize={memoize}: malformed trace: {e}")
                });
                assert!(
                    violations.is_empty(),
                    "p={p} id={id} memoize={memoize}: {} violation(s), first: {}",
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
}

#[test]
fn conformance_holds_under_overlap_and_chaos() {
    // The pipelined path and fault retransmissions must not change the
    // extracted schedule: same spans, same payload bytes.
    let ds = dataset();
    let shape = shape_of(&ds, 16);
    let faults = FaultPlan::new(chaos_base() ^ 0xD1CE)
        .drop_rate(0.08)
        .delay(0.25, 3)
        .straggler(0.02, 20_000);
    for id in [0usize, 5, 10, 15] {
        let cfg = TrainerConfig::rdm(4, Plan::from_id(id, 2, 4))
            .hidden(16)
            .epochs(2)
            .overlap(3)
            .faults(faults);
        let traces = traced_run(&ds, cfg);
        let config = OrderConfig::from_id(id, 2);
        let violations =
            conformance::check_run(&traces, &shape, &config, true, 4, &[shape.nnz], None).unwrap();
        assert!(
            violations.is_empty(),
            "id={id}: overlap+chaos broke conformance: {}",
            violations[0]
        );
    }
}

#[test]
fn replicated_panel_runs_conform_across_plans_and_chaos() {
    // R_A < P training must be explained by the grid-aware predictor:
    // group-scoped redistribution bytes and the panel tile broadcasts,
    // blocking and pipelined, with and without faults. Zero violations
    // across plans × R_A ∈ {1, 2} × chaos.
    let ds = dataset();
    let shape = shape_of(&ds, 16);
    let faults = FaultPlan::new(chaos_base() ^ 0xAB5E)
        .drop_rate(0.08)
        .delay(0.25, 3);
    for id in [0usize, 5, 10, 15] {
        for r_a in [1usize, 2] {
            for (overlap, chaos) in [(None, false), (Some(3), false), (Some(3), true)] {
                let mut cfg = TrainerConfig::rdm(4, Plan::from_id(id, 2, 4).with_ra(r_a))
                    .hidden(16)
                    .epochs(2);
                if let Some(chunks) = overlap {
                    cfg = cfg.overlap(chunks);
                }
                if chaos {
                    cfg = cfg.faults(faults);
                }
                let traces = traced_run(&ds, cfg);
                let config = OrderConfig::from_id(id, 2);
                let nnz = panel_nnz(&ds.adj_norm, 4, r_a);
                let violations =
                    conformance::check_run(&traces, &shape, &config, true, r_a, &nnz, None)
                        .unwrap_or_else(|e| {
                            panic!("id={id} r_a={r_a} overlap={overlap:?} chaos={chaos}: {e}")
                        });
                assert!(
                    violations.is_empty(),
                    "id={id} r_a={r_a} overlap={overlap:?} chaos={chaos}: {} violation(s), \
                     first: {}",
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
}

#[test]
fn replicated_panel_corruption_yields_one_addressed_violation() {
    // Acceptance: corrupt exactly one event of an R_A = 2 run and the
    // checker must return exactly one violation, addressed to the rank
    // and schedule index of the corruption.
    let ds = dataset();
    let shape = shape_of(&ds, 16);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4).with_ra(2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced_run(&ds, cfg);
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
    if let EventData::Begin(Span::Spmm {
        rows,
        cols,
        nnz,
        width,
    }) = victim.data
    {
        victim.data = EventData::Begin(Span::Spmm {
            rows: rows + 1,
            cols,
            nnz,
            width,
        });
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
    let shape = shape_of(&ds, 16);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let traces = traced_run(&ds, cfg);
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
    let shape = shape_of(&ds, 16);
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(16)
        .epochs(1);
    let mut traces = traced_run(&ds, cfg);
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
    if let EventData::Begin(Span::Spmm {
        rows,
        cols,
        nnz,
        width,
    }) = victim.data
    {
        victim.data = EventData::Begin(Span::Spmm {
            rows,
            cols: cols + 1,
            nnz,
            width,
        });
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
    let shape = shape_of(&ds, 16);
    let cfg = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(16)
        .epochs(1);
    let mut traces = traced_run(&ds, cfg);
    let config = OrderConfig::from_id(10, 2);
    let victim = traces[2]
        .events
        .iter_mut()
        .find(|e| matches!(e.data, EventData::Collective { .. }))
        .expect("rank 2 sent something");
    if let EventData::Collective {
        kind,
        peer,
        bytes,
        dense_bytes,
        msg_seq,
    } = victim.data
    {
        victim.data = EventData::Collective {
            kind,
            peer,
            bytes: bytes + 4,
            dense_bytes: dense_bytes + 4,
            msg_seq,
        };
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
        let traces = traced_run(&ds, cfg);
        for normalized in [false, true] {
            let json = chrome::to_chrome_json(&traces, normalized);
            chrome::validate(&json)
                .unwrap_or_else(|e| panic!("p={p} normalized={normalized}: {e}"));
        }
    }
}

/// A traced serving session plus the schedule the predictor needs: the
/// per-batch admission markers and targets, rebuilt exactly as the engine
/// builds them (a pure function of the shared request stream).
fn traced_session(
    ds: &Dataset,
    snap: &WeightSnapshot,
    cfg: &ServeConfig,
) -> (Vec<RankTrace>, Vec<SessionBatch>) {
    let reqs = LoadGen::new(41, 3, 30, 36).zipf(4).generate(ds.n());
    let mut cfg = cfg.clone();
    cfg.trace = true;
    let out = serve(ds, snap, &reqs, &cfg).unwrap();
    let batches = planned_batches(&reqs, &cfg.policy)
        .iter()
        .map(|b| SessionBatch {
            idx: b.idx,
            requests: b.requests.iter().map(|r| (r.client, r.req_id)).collect(),
            targets: b.requests.iter().map(|r| r.target).collect(),
        })
        .collect();
    (out.traces.expect("traced session returns traces"), batches)
}

#[test]
fn serving_sessions_conform_across_plans_cache_and_pipeline() {
    // The serving predictor must explain every rank's recorded per-batch
    // event sequence from (plan id, P, batch schedule, cache state) alone:
    // zero violations across plan ids × cache on/off × pipeline on/off,
    // including cache-pruned Redist frames whose bytes follow the
    // directory replay.
    let ds = dataset();
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 10, 5], 23));
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![16, 10, 5],
    };
    for id in [0usize, 5, 10, 15] {
        for cache in [0usize, 16] {
            for pipeline in [None, Some(3)] {
                let mut cfg = ServeConfig::new(2);
                cfg.plan = Some(Plan::from_id(id, 2, 2));
                cfg.cache = cache;
                cfg.pipeline = pipeline;
                let (traces, batches) = traced_session(&ds, &snap, &cfg);
                let config = OrderConfig::from_id(id, 2);
                let nnz = [shape.nnz];
                let violations =
                    check_session(&traces, &shape, &config, true, &batches, cache, 2, &nnz)
                        .unwrap_or_else(|e| {
                            panic!("id={id} cache={cache} pipeline={pipeline:?}: {e}")
                        });
                assert!(
                    violations.is_empty(),
                    "id={id} cache={cache} pipeline={pipeline:?}: {} violation(s), first: {}",
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
}

#[test]
fn serving_conformance_survives_chaos() {
    // Fault retransmissions are transparent to the extracted serving
    // schedule: a chaotic cached+pipelined session conforms with zero
    // violations, same as the clean one.
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
    cfg.pipeline = Some(3);
    cfg.faults = Some(
        FaultPlan::new(chaos_base() ^ 0x5EBE)
            .drop_rate(0.15)
            .delay(0.25, 3),
    );
    let (traces, batches) = traced_session(&ds, &snap, &cfg);
    let config = OrderConfig::from_id(5, 2);
    let nnz = [shape.nnz];
    let violations = check_session(&traces, &shape, &config, true, &batches, 16, 2, &nnz).unwrap();
    assert!(
        violations.is_empty(),
        "chaos broke serving conformance: {}",
        violations[0]
    );
}

#[test]
fn replicated_panel_serving_sessions_conform() {
    // Serving at R_A < P: the session predictor must explain every batch
    // of a replicated-panel session — group redistributions, panel
    // broadcasts flushed at the kernel span, blocking and pipelined —
    // with zero violations (the cache stays off: it requires R_A = P).
    let ds = dataset();
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 10, 5], 23));
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![16, 10, 5],
    };
    for id in [0usize, 5, 10] {
        for r_a in [1usize, 2] {
            for pipeline in [None, Some(3)] {
                let mut cfg = ServeConfig::new(4);
                cfg.plan = Some(Plan::from_id(id, 2, 4).with_ra(r_a));
                cfg.pipeline = pipeline;
                let (traces, batches) = traced_session(&ds, &snap, &cfg);
                let config = OrderConfig::from_id(id, 2);
                let nnz = panel_nnz(&ds.adj_norm, 4, r_a);
                let violations =
                    check_session(&traces, &shape, &config, true, &batches, 0, r_a, &nnz)
                        .unwrap_or_else(|e| panic!("id={id} r_a={r_a} pipeline={pipeline:?}: {e}"));
                assert!(
                    violations.is_empty(),
                    "id={id} r_a={r_a} pipeline={pipeline:?}: {} violation(s), first: {}",
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
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
    let batch_idx = if let EventData::Begin(Span::Batch { idx, size }) = victim.data {
        victim.data = EventData::Begin(Span::Batch {
            idx,
            size: size + 1,
        });
        idx
    } else {
        unreachable!()
    };
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

#[test]
fn three_layer_plans_conform_too() {
    // The predictor generalizes past Table IV's 2-layer encoding; spot
    // check a few 3-layer ids, including ones that exercise the
    // pathological weight-gradient paths.
    let ds = dataset();
    let shape = GnnShape {
        n: ds.n(),
        nnz: ds.adj_norm.nnz(),
        feats: vec![ds.spec.feature_size, 12, 12, ds.spec.labels],
    };
    for id in [0usize, 21, 42, 63, 37] {
        let cfg = TrainerConfig::rdm(3, Plan::from_id(id, 3, 3))
            .hidden(12)
            .layers(3)
            .epochs(2);
        let traces = traced_run(&ds, cfg);
        let config = OrderConfig::from_id(id, 3);
        let violations =
            conformance::check_run(&traces, &shape, &config, true, 3, &[shape.nnz], None).unwrap();
        assert!(violations.is_empty(), "3-layer id={id}: {}", violations[0]);
    }
}

/// `ds` on a directed version of its graph: each edge `(u, v)` with
/// `u > v` and `u + v` even is dropped, so the transpose's row panels hold
/// other populations than the adjacency's (every loader symmetrizes, so
/// only a directed graph tells the two apart).
fn directed(mut ds: Dataset) -> Dataset {
    let n = ds.n();
    let mut coo = Coo::new(n, n);
    for u in 0..n as u32 {
        for &v in ds.adj.row(u as usize).0 {
            if u <= v || (u + v) % 2 == 1 {
                coo.push(u, v, 1.0);
            }
        }
    }
    ds.adj = coo.to_csr();
    ds
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
        let shape = shape_of(&ds, 16);
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
                let traces = traced_run(&ds, cfg);
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
