//! Tracing must be an observer, never a participant: with `--trace` on,
//! every loss, accuracy, simulated epoch time and per-kind payload byte
//! count is bitwise identical to the untraced run (`common::check` holds
//! every traced point `config_space.rs` samples to that). Two same-seed
//! traced runs serialize to byte-identical normalized Chrome JSON, pinned
//! by a golden snapshot; every kernel span that consumes a conversion
//! nests in the `Redistribute` span feeding it, one span per strip; and
//! dynamic selection's trial epochs stay blocking even when `--overlap`
//! and `--trace` are both set.

mod common;

use common::{check, dataset, report, trajectory, Config, System};
use gnn_rdm::core::{Plan, TrainReport, TrainerConfig};
use gnn_rdm::dense::{part_range, KernelMode, KernelWidth};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::trace::{chrome, EventData, RankTrace, Span, TraceCollective};

/// Traced blocking and pipelined runs at Table IV's corners.
#[test]
fn tracing_changes_nothing_observable() {
    for id in [0, 10] {
        check(&Config::plan_id(id, 2, 4).traced());
    }
    for id in [5, 15] {
        check(&Config::plan_id(id, 2, 4).traced().chunks(3));
    }
}

#[test]
fn traced_trajectory_matches_pre_pool_golden() {
    // Recorded on the spawn-per-call runtime immediately before the
    // persistent pool / nnz-balanced partition / workspace pool landed:
    // the traced run must still hit these exact bits.
    let golden: [(u32, u32, u32); 2] = [
        (1070767628, 1047486570, 1046952398),
        (1070624032, 1049338601, 1048846600),
    ];
    let ds = dataset();
    let r = report(
        &ds,
        TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
            .hidden(8)
            .epochs(2)
            .trace(),
    );
    let got = trajectory(&r);
    assert_eq!(
        got,
        golden.to_vec(),
        "pooled runtime drifted from the pre-pool golden trajectory"
    );
}

#[test]
fn same_seed_runs_serialize_to_identical_normalized_json() {
    let ds = dataset();
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(8)
        .epochs(2)
        .trace();
    let a = report(&ds, cfg.clone());
    let b = report(&ds, cfg);
    let ja = chrome::to_chrome_json(a.traces.as_ref().unwrap(), true);
    let jb = chrome::to_chrome_json(b.traces.as_ref().unwrap(), true);
    assert_eq!(ja, jb, "normalized trace JSON is not reproducible");
    chrome::validate(&ja).unwrap();
}

#[test]
fn normalized_trace_matches_golden_snapshot() {
    // P=2, plan id 0, one epoch: the full normalized export is pinned.
    // Regenerate with:
    //   cargo test --test trace_equivalence -- --ignored regenerate_golden
    let ds = dataset();
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(8)
        .epochs(1)
        .trace();
    let r = report(&ds, cfg);
    let json = chrome::to_chrome_json(r.traces.as_ref().unwrap(), true);
    let golden = include_str!("golden/trace_p2_id0.json");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "normalized trace drifted from tests/golden/trace_p2_id0.json \
         (regenerate deliberately if the schedule changed)"
    );
}

#[test]
fn lane_width_is_in_the_raw_export_only() {
    // The kernel spans' `width` names the host's SIMD width, not the
    // schedule: a raw trace records it, the normalized export (the golden
    // above) must not, or the snapshot would differ between W4 and W8
    // hosts and between the default and `reference_kernels()`.
    let ds = dataset();
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(8)
        .epochs(1)
        .trace();
    let fast = report(&ds, cfg.clone());
    let scalar = report(&ds, cfg.reference_kernels());
    let json = |r: &TrainReport, normalized| {
        chrome::to_chrome_json(r.traces.as_ref().unwrap(), normalized)
    };
    assert!(json(&fast, false).contains("\"width\":"));
    assert!(json(&scalar, false).contains("\"width\":1,"));
    assert!(!json(&fast, true).contains("\"width\""));
    assert_eq!(json(&fast, true), json(&scalar, true));
}

#[test]
fn kernel_spans_report_the_width_each_call_ran() {
    // A 16-lane mode is a ceiling: an SpMM runs 16 lanes only from
    // n = 64 and a GEMM from n = 16, each dropping to 8 below, and the
    // span names the width that ran. At P = 2 with 128 features, hidden
    // 128 and 16 classes, the column-sliced SpMMs are 64 and 8 wide.
    let ds = DatasetSpec::synthetic("w16", 160, 1200, 128, 16).instantiate(5);
    let mut spmm_cols = Vec::new();
    for id in [0, 15] {
        let mut cfg = TrainerConfig::rdm(2, Plan::from_id(id, 2, 2))
            .hidden(128)
            .epochs(1)
            .trace();
        cfg.kernels = KernelMode::Fast(KernelWidth::W16);
        for trace in report(&ds, cfg).traces.unwrap() {
            for e in &trace.events {
                match e.data {
                    EventData::Begin(Span::Spmm { cols, width, .. }) => {
                        let want = if cols >= 64 { 16 } else { 8 };
                        assert_eq!(width, want, "plan {id}: Spmm{{cols: {cols}}}");
                        spmm_cols.push(cols);
                    }
                    EventData::Begin(Span::Gemm { n, width, .. }) => {
                        let want = if n >= 16 { 16 } else { 8 };
                        assert_eq!(width, want, "plan {id}: Gemm{{n: {n}}}");
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(
        spmm_cols.contains(&8) && spmm_cols.contains(&64),
        "{spmm_cols:?}"
    );
}

#[test]
#[ignore = "writes the golden snapshot; run explicitly after deliberate schedule changes"]
fn regenerate_golden() {
    let ds = dataset();
    let cfg = TrainerConfig::rdm(2, Plan::from_id(0, 2, 2))
        .hidden(8)
        .epochs(1)
        .trace();
    let r = report(&ds, cfg);
    let json = chrome::to_chrome_json(r.traces.as_ref().unwrap(), true);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_p2_id0.json"
    );
    std::fs::write(path, &json).unwrap();
}

/// One conversion-fed product of a rank's trace, its strips folded: the
/// kernel, its fixed dimensions (`rows, nnz` for SpMM, `n, k` for GEMM)
/// and the strip-summed one (`cols` for SpMM, `m` for GEMM).
type Product = (&'static str, usize, usize, usize);

/// Walk one rank's trace and return its conversion-fed products, checking
/// that each Redistribute span which feeds a kernel holds `chunks` strip
/// kernel spans, and that no kernel span follows an empty-handed
/// Redistribute — weight-gradient GEMMs, which nest their all-reduce,
/// excepted (their conversions are not fused into the kernel).
fn fed_products(trace: &RankTrace, chunks: usize) -> Vec<Product> {
    struct Frame {
        span: Span,
        strips: Vec<Span>,
        allreduce: bool,
        after_empty_redist: bool,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut products = Vec::new();
    let mut empty_redist_closed = false;
    for e in &trace.events {
        match e.data {
            EventData::Begin(span) => {
                if let Some(parent) = stack.last_mut() {
                    match span {
                        Span::Spmm { .. } | Span::Gemm { .. }
                            if matches!(parent.span, Span::Redistribute { .. }) =>
                        {
                            parent.strips.push(span)
                        }
                        Span::AllReduce { .. } => parent.allreduce = true,
                        _ => {}
                    }
                }
                stack.push(Frame {
                    span,
                    strips: Vec::new(),
                    allreduce: false,
                    after_empty_redist: std::mem::take(&mut empty_redist_closed),
                });
            }
            EventData::End => {
                let f = stack.pop().expect("balanced trace");
                match f.span {
                    Span::Redistribute {
                        chunks: c,
                        kind: TraceCollective::Redistribute,
                        ..
                    } => {
                        empty_redist_closed = f.strips.is_empty();
                        if !f.strips.is_empty() {
                            assert_eq!(c, chunks, "rank {}: conversion chunk count", trace.rank);
                            assert_eq!(
                                f.strips.len(),
                                c,
                                "rank {}: one kernel span per strip",
                                trace.rank
                            );
                            let mut product = match f.strips[0] {
                                Span::Spmm { rows, nnz, .. } => ("spmm", rows, nnz, 0),
                                Span::Gemm { n, k, .. } => ("gemm", n, k, 0),
                                _ => unreachable!("strips are kernel spans"),
                            };
                            for s in &f.strips {
                                let (fixed, summed) = match *s {
                                    Span::Spmm {
                                        rows, nnz, cols, ..
                                    } => (("spmm", rows, nnz), cols),
                                    Span::Gemm { n, k, m, .. } => (("gemm", n, k), m),
                                    _ => unreachable!("strips are kernel spans"),
                                };
                                assert_eq!(
                                    fixed,
                                    (product.0, product.1, product.2),
                                    "rank {}: ragged strips",
                                    trace.rank
                                );
                                product.3 += summed;
                            }
                            products.push(product);
                        }
                    }
                    Span::Spmm { .. } | Span::Gemm { .. } => {
                        assert!(
                            !f.after_empty_redist || f.allreduce,
                            "rank {}: {:?} follows its Redistribute empty-handed",
                            trace.rank,
                            f.span
                        );
                        empty_redist_closed = false;
                    }
                    _ => empty_redist_closed = false,
                }
            }
            // Traffic in between (the loss's reductions after the loss
            // boundary) means the next kernel does not consume it.
            EventData::Collective { .. } => empty_redist_closed = false,
            _ => {}
        }
    }
    products
}

#[test]
fn kernel_spans_nest_in_the_redistribution_that_feeds_them() {
    // P = 4 at R_A = 2 (group conversions plus panel broadcasts), blocking
    // and 3-chunk pipelined: each conversion-fed product is one kernel
    // span per strip inside its Redistribute span, the strips tile the
    // product (GEMM strips sum to this rank's row slice, SpMM strips to a
    // tile width), and the pipelined run folds to the blocking products.
    let ds = dataset();
    let (p, r_a) = (4usize, 2usize);
    for id in [0usize, 5, 10] {
        let base = TrainerConfig::rdm(p, Plan::from_id(id, 2, p).with_ra(r_a))
            .hidden(8)
            .epochs(1)
            .trace();
        let mut folded = Vec::new();
        for chunks in [1usize, 3] {
            let cfg = if chunks > 1 {
                base.clone().overlap(chunks)
            } else {
                base.clone()
            };
            let r = report(&ds, cfg);
            let per_rank: Vec<Vec<Product>> = r
                .traces
                .as_ref()
                .unwrap()
                .iter()
                .map(|t| fed_products(t, chunks))
                .collect();
            for (rank, products) in per_rank.iter().enumerate() {
                assert!(!products.is_empty(), "id={id}: no fed products");
                let tile_widths: Vec<usize> = [16usize, 8, 5]
                    .iter()
                    .map(|&f| part_range(f, r_a, rank % r_a).len())
                    .collect();
                for &(kernel, _, _, summed) in products {
                    match kernel {
                        "gemm" => assert_eq!(summed, part_range(ds.n(), p, rank).len()),
                        _ => assert!(
                            tile_widths.contains(&summed),
                            "id={id}: SpMM width {summed}"
                        ),
                    }
                }
            }
            folded.push(per_rank);
        }
        assert_eq!(
            folded[0], folded[1],
            "id={id}: pipelined strips fold differently"
        );
    }
}

/// Dynamic selection's trial epochs measure the *blocking* schedule on
/// purpose (a pipeline would skew the per-plan timings they rank):
/// `--overlap --trace` together must not change that.
#[test]
fn dynamic_selection_trials_stay_blocking_under_overlap_and_trace() {
    check(&Config::train(System::Dynamic, 2, 4).chunks(3).traced());
}
