//! End-to-end fault tolerance: training on a faulty fabric is
//! *indistinguishable* from fault-free training — bit-identical losses and
//! accuracies every epoch, identical payload books — while the
//! retransmission counters (and only they) record what the chaos cost.
//! `common::check` asserts that at every chaotic point `config_space.rs`
//! samples; the tests below pin a few, and the reproducibility of the
//! retry book itself.

mod common;

use common::{chaos_base, check, Config, System};
use gnn_rdm::comm::FaultPlan;
use gnn_rdm::core::{train_gcn, TrainerConfig};
use gnn_rdm::graph::dataset::toy;

#[test]
fn rdm_training_bit_identical_under_faults() {
    check(&Config::train(System::Auto, 2, 4).chaos());
}

#[test]
fn chaos_training_reproducible_from_seed() {
    let ds = toy(120, 3);
    let plan = FaultPlan::new(chaos_base() ^ 77)
        .drop_rate(0.2)
        .delay(0.3, 3);
    let run = || {
        let cfg = TrainerConfig::rdm_auto(3).epochs(3).hidden(8).faults(plan);
        let report = train_gcn(&ds, &cfg).unwrap();
        (
            report
                .epochs
                .iter()
                .map(|e| e.loss.to_bits())
                .collect::<Vec<_>>(),
            report.total_retries(),
            report.total_retransmit_bytes(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "same fault seed must reproduce losses and retry counts"
    );
}

/// The protocol lives below the collectives, so every algorithm — not
/// just RDM — trains identically under faults.
#[test]
fn baselines_also_survive_chaos() {
    for system in [System::Cagnet1D, System::Cagnet15D, System::Dgcl] {
        check(&Config::train(system, 2, 4).ra(2).chaos());
    }
}
