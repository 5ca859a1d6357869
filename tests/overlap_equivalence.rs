//! Chunk-pipelined redistribution: the overlapped path is bit-identical to
//! the blocking schedule — same losses, accuracies and dense-equivalent
//! payload bytes per collective kind — across cluster sizes, Table-IV
//! orderings, replication factors, chunk counts and chaos; only the
//! hidden time, priced from the schedule (and, under faults, the
//! retransmission counters) may differ. `config_space.rs` samples that space; the tests below pin
//! named points of it (`common::check`) beside the accounting goldens only
//! this file holds.
//!
//! Per-tensor gradient bit-identity is covered rank-by-rank in
//! `rdm_core::gcn::tests::overlapped_engine_is_bitwise_blocking`; here the
//! whole training trajectory stands in for it — one drifted bit in any
//! gradient diverges the Adam state and every later loss.

mod common;

use common::{check, dataset, report, trajectory, Config, System};
use gnn_rdm::comm::CollectiveKind;
use gnn_rdm::core::{Plan, TrainerConfig};
use gnn_rdm::graph::DatasetSpec;
use gnn_rdm::model::DeviceModel;

/// `(loss, train_acc, test_acc)` bit patterns for one epoch.
type EpochBits = (u32, u32, u32);

/// A 3-chunk pipeline at Table IV's corners, `P = 1` (inert) to `P = 7`.
#[test]
fn overlapped_training_is_bitwise_blocking_everywhere() {
    for (p, id) in [(1, 0), (2, 15), (3, 5), (7, 10)] {
        check(&Config::plan_id(id, 2, p).chunks(3));
    }
}

/// Group-scoped pipelines at `R_A = 2` and `P`; at `R_A = 1` the request
/// is inert and says why.
#[test]
fn overlapped_training_is_bitwise_blocking_across_replication_factors() {
    for r_a in [1, 2, 4] {
        check(&Config::plan_id(10, 2, 4).ra(r_a).chunks(3));
    }
}

#[test]
fn trajectories_match_pre_pool_goldens() {
    // The pooled worker runtime, the nnz-balanced SpMM partition and the
    // workspace pool are all required to be bitwise no-ops. These loss /
    // accuracy bit patterns were recorded on the spawn-per-call,
    // row-uniform, allocating runtime immediately before the pooled
    // runtime landed; any drift means a kernel changed its accumulation
    // order.
    let golden: [(usize, [EpochBits; 3]); 4] = [
        (
            0,
            [
                (1070767628, 1047486570, 1046952398),
                (1070624031, 1049338601, 1048846600),
                (1070484119, 1050210144, 1048846600),
            ],
        ),
        (
            5,
            [
                (1070767628, 1047486570, 1046952398),
                (1070624031, 1049338601, 1048846600),
                (1070484118, 1050210144, 1048846600),
            ],
        ),
        (
            10,
            [
                (1070767628, 1047486570, 1046952398),
                (1070624031, 1049338601, 1048846600),
                (1070484118, 1050210144, 1048846600),
            ],
        ),
        (
            15,
            [
                (1070767628, 1047486570, 1046952398),
                (1070624031, 1049338601, 1048846600),
                (1070484118, 1050210144, 1048846600),
            ],
        ),
    ];
    let ds = dataset();
    for (id, expect) in golden {
        let r = report(
            &ds,
            TrainerConfig::rdm(4, Plan::from_id(id, 2, 4))
                .hidden(8)
                .epochs(3),
        );
        assert_eq!(
            trajectory(&r),
            expect.to_vec(),
            "id={id}: pooled runtime drifted from the pre-pool golden trajectory"
        );
    }
}

#[test]
fn overlapped_matches_single_rank_reference() {
    for p in [3, 7] {
        check(&Config::train(System::Auto, 2, p).chunks(4));
    }
}

/// Chunk counts that do not divide the strip widths, and counts above the
/// widest tensor (empty tail chunks).
#[test]
fn ragged_and_oversized_chunk_counts_stay_bitwise() {
    for chunks in [2, 7, 64] {
        check(&Config::plan_id(5, 2, 3).chunks(chunks));
    }
}

#[test]
fn overlap_composes_with_fault_injection() {
    check(&Config::plan_id(10, 2, 4).chunks(3).chaos());
}

#[test]
fn overlap_ns_is_bounded_by_the_ideal_golden_value() {
    // Golden check of the priced accounting: what a pipeline can hide is
    // at most min(T_comm, T_compute) — computed here from the *measured*
    // byte and FMA counters, which the price equals — and a
    // c-deep pipeline on a bandwidth-dominated problem should realize a
    // good fraction of that ideal.
    let ds = DatasetSpec::synthetic("overlap-golden", 600, 6000, 64, 8).instantiate(7);
    let chunks = 4usize;
    let p = 4usize;
    let overlapped = report(
        &ds,
        TrainerConfig::rdm(p, Plan::from_id(5, 2, p))
            .hidden(64)
            .epochs(3)
            .overlap(chunks),
    );
    let device = DeviceModel::a6000_pcie();
    for e in &overlapped.epochs {
        let hidden_s = e.overlap_ns() as f64 * 1e-9;
        // Summed over ranks, like overlap_ns itself.
        let comm_s = device.comm_time(
            e.comm.bytes(CollectiveKind::Redistribute) as f64,
            e.comm.messages(CollectiveKind::Redistribute) as f64,
        );
        let compute_s = device.compute_time(e.ops.spmm_fma, e.ops.gemm_fma);
        let ideal = comm_s.min(compute_s);
        assert!(
            hidden_s <= ideal * 1.001,
            "epoch {}: hid {hidden_s}s, more than the ideal {ideal}s",
            e.epoch
        );
        assert!(
            hidden_s > 0.15 * ideal,
            "epoch {}: hid only {hidden_s}s of an ideal {ideal}s",
            e.epoch
        );
        // And the reported epoch time reflects the hiding.
        assert!(e.sim.comm_s >= 0.0 && e.sim.total_s > 0.0);
    }
}

#[test]
fn pipelining_shortens_the_simulated_epoch_where_comm_rivals_spmm() {
    // Wide features, a dense-ish graph and the all-GEMM-first plan, so every
    // redistribution feeds a (slow, memory-bound) SpMM it can hide behind.
    // Pipelining is not a free win: at 1500x30000x128 on P = 4, or at
    // 600x12000x64 on P = 2 or 4, the per-chunk latency toll makes the
    // modeled epoch *slower*. Here it is 0.3208 -> 0.3033 sim ms.
    let ds = DatasetSpec::synthetic("overlap-epoch", 1_500, 30_000, 128, 16).instantiate(3);
    let base = TrainerConfig::rdm(2, Plan::from_id(15, 2, 2))
        .hidden(128)
        .epochs(1);
    let blocking = report(&ds, base.clone());
    let overlapped = report(&ds, base.overlap(4));
    let (b, o) = (blocking.mean_sim_epoch_s(), overlapped.mean_sim_epoch_s());
    assert!(
        o < b,
        "pipelining must reduce the simulated epoch ({b} -> {o} s)"
    );
    assert_eq!(trajectory(&blocking), trajectory(&overlapped));
}
