//! Serving↔engine differential harness: a serving session must be
//! *invisible* to the math — for the same weight snapshot and the same
//! minibatch, the logits a request receives from `rdm-serve`'s batched
//! session are bitwise identical to a direct engine forward, across
//! cluster sizes, wire formats and fault injection. Chaos additionally
//! must leave the payload book and the virtual latency timeline untouched:
//! retransmissions are accounted separately and never perturb results.
//!
//! The CI `serve` job sweeps this file over fault seeds (`CHAOS_SEED`).

use gnn_rdm::comm::{Cluster, FaultPlan};
use gnn_rdm::core::gcn::GcnWeights;
use gnn_rdm::core::infer::forward_logits;
use gnn_rdm::core::ops::OpCounters;
use gnn_rdm::core::{best_plan, train_gcn, Algo, Plan, TrainerConfig, WeightSnapshot};
use gnn_rdm::dense::mat::part_range;
use gnn_rdm::dense::{kernels, KernelMode, KernelWidth};
use gnn_rdm::graph::{Dataset, DatasetSpec};
use gnn_rdm::model::DeviceModel;
use gnn_rdm::serve::{
    planned_batches, planned_vertices, serve, LoadGen, ServeConfig, ServeSampler,
};

/// Fault-seed offset from the environment, so the CI job can sweep
/// distinct fault universes without code changes.
fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn dataset() -> Dataset {
    DatasetSpec::synthetic("serve-e2e", 120, 900, 12, 4).instantiate(17)
}

fn snapshot() -> WeightSnapshot {
    WeightSnapshot::from_weights(&GcnWeights::init(&[12, 10, 4], 23))
}

/// Direct engine forward of `sub` under `plan` on the scalar reference
/// kernels: the full logits matrix, assembled from each rank's row slice.
/// Sessions are served on the default (fast) kernels unless a test forces
/// a width, so every bitwise comparison against this also crosses the
/// kernel axis.
fn reference_logits(
    sub: &Dataset,
    snap: &WeightSnapshot,
    p: usize,
    plan: &Plan,
    sparse: bool,
) -> Vec<Vec<f32>> {
    let out = Cluster::new(p).run(|ctx| {
        kernels::set_mode(KernelMode::Scalar);
        let weights = snap.to_weights();
        let mut ops = OpCounters::default();
        let logits = forward_logits(
            ctx,
            &sub.adj_norm,
            &sub.features,
            &weights,
            plan,
            sparse,
            &mut ops,
        );
        let range = part_range(sub.n(), p, ctx.rank());
        (range.start, logits.local.as_slice().to_vec(), logits.cols)
    });
    let mut rows = vec![Vec::new(); sub.n()];
    for (start, flat, cols) in out.results {
        for (i, chunk) in flat.chunks(cols).enumerate() {
            rows[start + i] = chunk.to_vec();
        }
    }
    rows
}

fn assert_rows_bitwise(a: &[f32], b: &[f32], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: width");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} != {y}");
    }
}

#[test]
fn full_graph_serving_matches_direct_forward_bitwise() {
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(3, 3, 40, 30).generate(ds.n());
    for p in [1usize, 2, 4] {
        for sparse in [false, true] {
            let plan = Plan::from_id(5, 2, p);
            let mut cfg = ServeConfig::new(p);
            cfg.plan = Some(plan.clone());
            cfg.sparse = sparse;
            let out = serve(&ds, &snap, &requests, &cfg).unwrap();
            let reference = reference_logits(&ds, &snap, p, &plan, sparse);
            for r in &out.report.requests {
                assert_rows_bitwise(
                    &r.logits,
                    &reference[r.target as usize],
                    &format!("P={p} sparse={sparse} request {}", r.idx),
                );
            }
        }
    }
}

#[test]
fn induced_serving_matches_direct_subgraph_forward_bitwise() {
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(9, 2, 25, 32).generate(ds.n());
    let budget = 48;
    for p in [1usize, 2, 4] {
        let plan = Plan::from_id(10, 2, p);
        let mut cfg = ServeConfig::new(p);
        cfg.plan = Some(plan.clone());
        cfg.sampler = ServeSampler::Induced { budget };
        let out = serve(&ds, &snap, &requests, &cfg).unwrap();
        // Rebuild each batch's minibatch exactly as the engine did and run
        // it through a direct forward.
        for batch in planned_batches(&requests, &cfg.policy) {
            let verts = planned_vertices(&ds, &batch, budget, cfg.sample_seed);
            let sub = ds.induced(&verts);
            let reference = reference_logits(&sub, &snap, p, &plan, false);
            for r in &batch.requests {
                let li = verts.binary_search(&r.target).unwrap();
                let served = &out.report.requests[r.idx];
                assert_eq!(served.idx, r.idx);
                assert_rows_bitwise(
                    &served.logits,
                    &reference[li],
                    &format!("P={p} batch {} request {}", batch.idx, r.idx),
                );
            }
        }
    }
}

#[test]
fn chaos_leaves_logits_payload_book_and_timeline_unchanged() {
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(21, 4, 30, 40).generate(ds.n());
    for p in [2usize, 4] {
        for sparse in [false, true] {
            let mut cfg = ServeConfig::new(p);
            cfg.plan = Some(Plan::from_id(5, 2, p));
            cfg.sparse = sparse;
            let clean = serve(&ds, &snap, &requests, &cfg).unwrap();
            assert_eq!(clean.report.retries, 0);
            let mut chaotic_cfg = cfg.clone();
            chaotic_cfg.faults = Some(
                FaultPlan::new(chaos_base().wrapping_add(p as u64))
                    .drop_rate(0.2)
                    .delay(0.3, 4)
                    .straggler(0.02, 10_000),
            );
            let chaotic = serve(&ds, &snap, &requests, &chaotic_cfg).unwrap();
            let label = format!("P={p} sparse={sparse}");
            assert!(
                chaotic.report.retries > 0,
                "{label}: chaos injected nothing"
            );
            // Outputs: bitwise identical.
            for (c, f) in clean.report.requests.iter().zip(&chaotic.report.requests) {
                assert_rows_bitwise(&c.logits, &f.logits, &format!("{label} request {}", c.idx));
            }
            // Payload book: retransmissions excluded, so identical.
            assert_eq!(
                clean.report.payload_bytes, chaotic.report.payload_bytes,
                "{label}: payload book perturbed"
            );
            assert_eq!(clean.report.messages, chaotic.report.messages, "{label}");
            assert!(chaotic.stats.retransmit_bytes > 0, "{label}");
            // Virtual timeline prices payload bytes only, so latency
            // quantiles are fault-invariant too.
            assert_eq!(clean.report.batches, chaotic.report.batches, "{label}");
            assert_eq!(clean.report.p50_us(), chaotic.report.p50_us(), "{label}");
            assert_eq!(clean.report.p99_us(), chaotic.report.p99_us(), "{label}");
        }
    }
}

#[test]
fn fast_kernel_serving_matches_the_scalar_direct_forward() {
    // The serving invariant crosses the kernel axis: at every forced lane
    // width, batched serving is bitwise identical to a direct engine
    // forward on the scalar reference kernels.
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(6, 3, 40, 24).generate(ds.n());
    for (p, sparse) in [(1usize, false), (2, false), (2, true), (4, true)] {
        let plan = Plan::from_id(5, 2, p);
        let scalar = reference_logits(&ds, &snap, p, &plan, sparse);
        for width in KernelWidth::all() {
            let mut cfg = ServeConfig::new(p);
            cfg.plan = Some(plan.clone());
            cfg.sparse = sparse;
            cfg.kernels = KernelMode::Fast(width);
            let out = serve(&ds, &snap, &requests, &cfg).unwrap();
            for r in &out.report.requests {
                assert_rows_bitwise(
                    &r.logits,
                    &scalar[r.target as usize],
                    &format!("{width:?} P={p} sparse={sparse} request {}", r.idx),
                );
            }
        }
    }
}

#[test]
fn fast_kernel_serving_is_chaos_invariant_and_replays() {
    // Chaos and replay determinism hold per width: faults never perturb
    // fast-kernel logits, and the whole report is byte-stable.
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(31, 3, 30, 32).generate(ds.n());
    for width in KernelWidth::all() {
        let mut cfg = ServeConfig::new(2);
        cfg.plan = Some(Plan::from_id(5, 2, 2));
        cfg.sparse = true;
        cfg.kernels = KernelMode::Fast(width);
        let clean = serve(&ds, &snap, &requests, &cfg).unwrap();
        let replay = serve(&ds, &snap, &requests, &cfg).unwrap();
        assert_eq!(clean.report, replay.report, "{width:?}: replay drifted");
        let mut chaotic_cfg = cfg.clone();
        chaotic_cfg.faults = Some(
            FaultPlan::new(chaos_base().wrapping_add(width.lanes() as u64))
                .drop_rate(0.2)
                .delay(0.3, 4),
        );
        let chaotic = serve(&ds, &snap, &requests, &chaotic_cfg).unwrap();
        assert!(
            chaotic.report.retries > 0,
            "{width:?}: chaos injected nothing"
        );
        for (c, f) in clean.report.requests.iter().zip(&chaotic.report.requests) {
            assert_rows_bitwise(
                &c.logits,
                &f.logits,
                &format!("{width:?} chaos request {}", c.idx),
            );
        }
        assert_eq!(clean.report.payload_bytes, chaotic.report.payload_bytes);
        assert_eq!(clean.report.p99_us(), chaotic.report.p99_us());
    }
}

#[test]
fn fast_kernel_session_report_equals_the_reference_kernels_session() {
    // Default kernels vs `reference_kernels()`: not just the logits but
    // the whole report — virtual latencies, payload book, batch table —
    // is identical, because the kernel path re-prices nothing.
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(12, 2, 40, 16).generate(ds.n());
    let mut cfg = ServeConfig::new(2);
    cfg.plan = Some(Plan::from_id(5, 2, 2));
    let fast = serve(&ds, &snap, &requests, &cfg).unwrap();
    let scalar = serve(&ds, &snap, &requests, &cfg.reference_kernels()).unwrap();
    assert_eq!(fast.report, scalar.report);
}

#[test]
fn trained_snapshot_roundtrips_through_serving() {
    // End-to-end: train, snapshot via TrainReport, byte-roundtrip, serve,
    // and check against a direct forward with the same snapshot.
    let ds = dataset();
    let cfg = TrainerConfig::rdm_auto(2).hidden(10).epochs(2).seed(5);
    let report = train_gcn(&ds, &cfg).unwrap();
    let snap = report.weights.expect("trainer returns final weights");
    let snap = WeightSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let requests = LoadGen::new(1, 2, 50, 16).generate(ds.n());
    let plan = Plan::from_id(0, 2, 2);
    let mut scfg = ServeConfig::new(2);
    scfg.plan = Some(plan.clone());
    let out = serve(&ds, &snap, &requests, &scfg).unwrap();
    let reference = reference_logits(&ds, &snap, 2, &plan, false);
    for r in &out.report.requests {
        assert_rows_bitwise(&r.logits, &reference[r.target as usize], "trained snapshot");
    }
}

#[test]
fn serving_report_replays_byte_identically() {
    let ds = dataset();
    let snap = snapshot();
    let requests = LoadGen::new(13, 3, 20, 40).generate(ds.n());
    let mut cfg = ServeConfig::new(4);
    cfg.sampler = ServeSampler::Induced { budget: 40 };
    cfg.sparse = true;
    let a = serve(&ds, &snap, &requests, &cfg).unwrap();
    let b = serve(&ds, &snap, &requests, &cfg).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.render(), b.report.render());
}

/// Regression for the trainer's replication-factor rejection path, the
/// rule `rdm-train --ra` and `best_plan` document: `r_a`
/// must divide `P`, and zero is never valid.
#[test]
fn trainer_rejects_replication_factors_that_do_not_divide_p() {
    let ds = dataset();
    for (p, ra) in [(4usize, 3usize), (4, 0), (6, 4)] {
        let plan = Plan::from_id(0, 2, p).with_ra(ra);
        let cfg = TrainerConfig::rdm(p, plan).hidden(8).epochs(1);
        let err = train_gcn(&ds, &cfg).unwrap_err();
        assert!(
            err.contains("must divide"),
            "P={p} r_a={ra}: unexpected error {err:?}"
        );
    }
    // The serving engine accepts replicated-panel plans (r_a < P is
    // first-class since the grid-parity PR) but enforces the same
    // divisibility rule, and the layer-0 aggregation cache still
    // requires full replication.
    let snap = snapshot();
    let requests = LoadGen::new(2, 1, 10, 4).generate(ds.n());
    let mut cfg = ServeConfig::new(4);
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(2));
    serve(&ds, &snap, &requests, &cfg).expect("r_a = 2 on P = 4 is a valid serving grid");
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(3));
    let err = serve(&ds, &snap, &requests, &cfg).unwrap_err();
    assert!(err.contains("must divide"), "unexpected error {err:?}");
    cfg.plan = Some(Plan::from_id(0, 2, 4).with_ra(2));
    cfg.cache = 16;
    let err = serve(&ds, &snap, &requests, &cfg).unwrap_err();
    assert!(err.contains("cannot cache"), "unexpected error {err:?}");
}

/// One plan resolution (`rdm_core::plan::resolve`) behind both entry
/// points: `train_gcn` and `serve` reject a request with one message...
#[test]
fn train_and_serve_reject_a_request_with_one_message() {
    let ds = dataset();
    let requests = LoadGen::new(2, 1, 10, 4).generate(ds.n());
    let conflict = "explicit plan has r_a = 4 but the config asks for r_a = 2";
    let layers = "plan orders 3 layers but the model has 2";
    for (plan, ra, expect) in [
        (None, Some(0), "replication factor 0 must divide P = 4"),
        (None, Some(3), "replication factor 3 must divide P = 4"),
        (Some(Plan::from_id(5, 2, 4)), Some(2), conflict),
        (Some(Plan::from_id(5, 3, 4)), None, layers),
    ] {
        let mut train = TrainerConfig::rdm_auto(4).hidden(10).epochs(1);
        (train.algo, train.ra) = (Algo::Rdm { plan: plan.clone() }, ra);
        let mut cfg = ServeConfig::new(4);
        (cfg.plan, cfg.ra) = (plan, ra);
        let served = serve(&ds, &snapshot(), &requests, &cfg);
        assert_eq!(train_gcn(&ds, &train).unwrap_err(), expect);
        assert_eq!(served.unwrap_err(), expect);
    }
}

/// ...and both run `best_plan` of the run's shape, `r_a` and `σ` when no
/// plan is given.
#[test]
fn train_and_serve_auto_select_the_best_plan() {
    let requests = LoadGen::new(3, 2, 20, 24).generate(dataset().n());
    let row = dataset().with_row_aggregation();
    let sigma = 1.0 - row.adj_norm.empty_row_fraction();
    for (ds, sparse, sigma) in [(dataset(), false, 1.0), (row, true, sigma)] {
        for r_a in [4, 2] {
            let shape = ds.shape_layers(10, 2);
            let best = best_plan(&shape, 4, r_a, &DeviceModel::a6000_pcie(), sigma);
            let mut train = TrainerConfig::rdm_auto(4).hidden(10).epochs(1).ra(r_a);
            train.sparse = sparse;
            let report = train_gcn(&ds, &train).unwrap();
            assert_eq!(report.epochs[0].plan_id, Some(best.id()), "r_a={r_a}");
            let run = |plan: Option<Plan>| {
                let mut cfg = ServeConfig::new(4).ra(r_a);
                (cfg.plan, cfg.sparse) = (plan, sparse);
                serve(&ds, &snapshot(), &requests, &cfg).unwrap().report
            };
            let other = Plan::from_id((best.id() + 1) % 16, 2, 4).with_ra(r_a);
            assert_eq!(run(None), run(Some(best)), "r_a={r_a} sparse={sparse}");
            assert_ne!(run(None), run(Some(other)), "plans must be told apart");
        }
    }
}
