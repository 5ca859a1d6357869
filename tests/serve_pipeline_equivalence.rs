//! Serving depth: pipelined batch admission and the frozen-weight
//! aggregation cache are *invisible* to the math. For the same weight
//! snapshot and request stream, a pipelined + cached session serves logits
//! bitwise identical to the plain sequential session and to a direct
//! engine forward, across cluster sizes, wire formats, kernel widths and
//! fault injection (`common::check`, at every cached or pipelined point
//! `config_space.rs` samples) — while the payload book's savings reconcile
//! *exactly* with a directory replay of the batch schedule: every byte the
//! cache claims to have elided left the dense-equivalent Redistribute book.

mod common;

use common::zipf_requests as requests;
use common::{check, serve_dataset as dataset, serve_snapshot as snapshot, Config, Surface};
use gnn_rdm::comm::CollectiveKind;
use gnn_rdm::core::Plan;
use gnn_rdm::dense::mat::part_range;
use gnn_rdm::dense::{KernelMode, KernelWidth};
use gnn_rdm::model::CacheSim;
use gnn_rdm::serve::{planned_batches, serve, ServeConfig, ServeOutput};

/// The plain sequential session (no pipeline, no cache).
fn baseline_cfg(p: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(p);
    cfg.plan = Some(Plan::from_id(5, 2, p));
    cfg
}

/// Plan 5 on `p` ranks with both depth knobs on: a 3-strip pipeline and a
/// 16-row cache.
fn deep(p: usize) -> Config {
    Config::plan_id(5, 2, p)
        .on(Surface::Serve { cache: 16 })
        .chunks(3)
}

#[test]
fn pipelined_cached_serving_is_bitwise_across_the_matrix() {
    check(&deep(1));
    check(&deep(2).sparse());
    check(&deep(4));
    check(&deep(4).sparse());
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

/// Every byte the cache elides is accounted for: the dense-equivalent
/// Redistribute savings of a cached session equal, to the byte, what a
/// cold directory replay of the batch schedule predicts. Rank `j`'s
/// cached rows are skipped in every *other* rank's column strip of the
/// layer-1 Col→Row exchange, so one skipped row of `j` saves
/// `(f0 - len_j) * 4` bytes, priced with the directory state as of batch
/// open (admission happens after the batch).
#[test]
fn cache_savings_reconcile_with_a_directory_replay() {
    let ds = dataset();
    let snap = snapshot();
    let reqs = requests(&ds);
    let f0 = ds.features.cols();
    for p in [2usize, 4] {
        for sparse in [false, true] {
            let mut base = baseline_cfg(p);
            base.sparse = sparse;
            let mut cached = base.clone();
            cached.cache = 32;
            let a = serve(&ds, &snap, &reqs, &base).unwrap();
            let b = serve(&ds, &snap, &reqs, &cached).unwrap();

            let mut sim = CacheSim::new(ds.n(), p, cached.cache);
            let mut saved = 0u64;
            for batch in planned_batches(&reqs, &cached.policy) {
                for j in 0..p {
                    let len_j = part_range(f0, p, j).len();
                    saved += sim.cached_in_rank(j) as u64 * (f0 - len_j) as u64 * 4;
                }
                let targets: Vec<u32> = batch.requests.iter().map(|r| r.target).collect();
                sim.admit(&targets);
            }

            let wire = |o: &ServeOutput| o.stats.dense_bytes(CollectiveKind::Redistribute);
            let label = format!("P={p} sparse={sparse}");
            assert!(saved > 0, "{label}: replay predicts no savings");
            assert_eq!(
                wire(&a) - wire(&b),
                saved,
                "{label}: payload savings do not reconcile"
            );
            assert_eq!(b.report.cache_hits, sim.hits, "{label}: hit book drifted");
            assert_eq!(b.report.cache_misses, sim.misses, "{label}");
        }
    }
}

#[test]
fn depth_sessions_replay_byte_identically() {
    let ds = dataset();
    let snap = snapshot();
    let reqs = requests(&ds);
    let cfg = baseline_cfg(4).pipelined(3).cached(32);
    let a = serve(&ds, &snap, &reqs, &cfg).unwrap();
    let b = serve(&ds, &snap, &reqs, &cfg).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.render(), b.report.render());
}
