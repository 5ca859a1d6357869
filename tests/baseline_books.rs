//! Bitwise books of every non-RDM algorithm: per epoch, the loss / train /
//! test accuracy bits, the payload bytes and message count of every
//! collective kind, and the SpMM / GEMM FMA counts, at P ∈ {1, 3, 4},
//! pinned in `tests/golden/baseline_books.txt`.
//!
//! The baselines are otherwise only compared to RDM within a tolerance;
//! this pins their exact trajectory and traffic, so a refactor of their
//! training step has to reproduce both to the bit.
//!
//! With `CHAOS_SEED` set (the CI `chaos` job) every run trains on a faulty
//! fabric seeded from it: the envelope protocol hides every fault, so the
//! same books must come out. Regenerate deliberately with
//! `cargo test --test baseline_books -- --ignored regenerate_books`.

use gnn_rdm::comm::{CollectiveKind, FaultPlan};
use gnn_rdm::core::{train_gcn, Algo, TrainerConfig};
use gnn_rdm::graph::dataset::toy;
use gnn_rdm::graph::SaintSampler;
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/baseline_books.txt"
);

/// The fault plan `CHAOS_SEED` selects, if any.
fn faults() -> Option<FaultPlan> {
    let seed: u64 = std::env::var("CHAOS_SEED").ok()?.parse().ok()?;
    Some(FaultPlan::new(seed ^ 0xB00C5).drop_rate(0.2).delay(0.2, 3))
}

/// Every covered algorithm, named as `rdm-train --algo` spells it.
fn algos() -> Vec<(&'static str, Algo)> {
    let sampler = SaintSampler::Node { budget: 40 };
    vec![
        ("cagnet1d", Algo::Cagnet1D),
        ("cagnet15d:2", Algo::Cagnet15D { c: 2 }),
        ("dgcl", Algo::Dgcl),
        ("saint-rdm", Algo::SaintRdm { sampler }),
        ("saint-ddp", Algo::SaintDdp { sampler }),
        ("masked:0.5", Algo::SaintMasked { keep: 0.5 }),
    ]
}

/// The books of every (algorithm, P) pair, one line per epoch (or one
/// `rejected` line where the algorithm refuses that cluster size).
fn books() -> String {
    let ds = toy(120, 7);
    let mut out = String::new();
    for (name, algo) in algos() {
        for p in [1usize, 3, 4] {
            let mut cfg = TrainerConfig {
                algo: algo.clone(),
                ..TrainerConfig::rdm_auto(p)
            }
            .hidden(8)
            .lr(0.02)
            .epochs(3)
            .seed(5);
            if let Some(plan) = faults() {
                cfg = cfg.faults(plan);
            }
            let report = match train_gcn(&ds, &cfg) {
                Ok(r) => r,
                Err(_) => {
                    writeln!(out, "{name} p={p} rejected").unwrap();
                    continue;
                }
            };
            for e in &report.epochs {
                write!(
                    out,
                    "{name} p={p} e={} loss={:08x} train={:08x} test={:08x} \
                     spmm={} gemm={} plan={:?}",
                    e.epoch,
                    e.loss.to_bits(),
                    e.train_acc.to_bits(),
                    e.test_acc.to_bits(),
                    e.ops.spmm_fma,
                    e.ops.gemm_fma,
                    e.plan_id,
                )
                .unwrap();
                for kind in CollectiveKind::ALL {
                    let (b, m) = (e.comm.bytes(kind), e.comm.messages(kind));
                    if b > 0 || m > 0 {
                        write!(out, " {kind:?}={b}/{m}").unwrap();
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn baseline_books_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/baseline_books.txt");
    let got = books();
    for (g, w) in got.lines().zip(golden.lines()) {
        assert_eq!(g, w, "books drifted from tests/golden/baseline_books.txt");
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "book count");
}

#[test]
#[ignore = "writes the golden books; run explicitly after a deliberate change"]
fn regenerate_books() {
    assert!(faults().is_none(), "record the books on a clean fabric");
    std::fs::write(GOLDEN, books()).unwrap();
}
