//! Differential harness for chunk-pipelined redistribution: the overlapped
//! path must be *bit-identical* to the blocking schedule — same losses,
//! same accuracies, same payload bytes per collective kind — across
//! cluster sizes, Table-IV orderings, chunk counts and chaos. Only the
//! `overlap_ns` accounting (and, under faults, the retransmission
//! counters) may differ.
//!
//! Per-tensor gradient bit-identity is covered rank-by-rank in
//! `rdm_core::gcn::tests::overlapped_engine_is_bitwise_blocking`; here the
//! whole training trajectory stands in for it — one drifted bit in any
//! gradient diverges the Adam state and every later loss.
//!
//! `CHAOS_SEED` (env) shifts the fault seeds so CI can sweep chaos
//! schedules without code changes.

use gnn_rdm::comm::{CollectiveKind, FaultPlan};
use gnn_rdm::core::{train_gcn, Plan, TrainReport, TrainerConfig};
use gnn_rdm::graph::{Dataset, DatasetSpec};
use gnn_rdm::model::DeviceModel;

fn dataset() -> Dataset {
    DatasetSpec::synthetic("overlap", 140, 1100, 16, 5).instantiate(31)
}

fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn report(ds: &Dataset, cfg: TrainerConfig) -> TrainReport {
    train_gcn(ds, &cfg).unwrap()
}

/// Losses + accuracies, bitwise comparable.
fn trajectory(r: &TrainReport) -> Vec<(u32, u32, u32)> {
    r.epochs
        .iter()
        .map(|e| {
            (
                e.loss.to_bits(),
                e.train_acc.to_bits(),
                e.test_acc.to_bits(),
            )
        })
        .collect()
}

/// Payload bytes per collective kind per epoch — chunking must not move a
/// single extra payload byte anywhere.
fn volumes(r: &TrainReport) -> Vec<Vec<u64>> {
    use CollectiveKind::*;
    r.epochs
        .iter()
        .map(|e| {
            [Redistribute, Broadcast, AllReduce, Halo, Other]
                .iter()
                .map(|&k| e.comm.bytes(k))
                .collect()
        })
        .collect()
}

/// The four 2-layer order plans (forward/backward each all-SpMM-first or
/// all-GEMM-first), i.e. the corners of Table IV's configuration space.
const PLAN_IDS: [usize; 4] = [0, 5, 10, 15];

#[test]
fn overlapped_training_is_bitwise_blocking_everywhere() {
    let ds = dataset();
    for p in [1usize, 2, 3, 4, 7] {
        for id in PLAN_IDS {
            let base = TrainerConfig::rdm(p, Plan::from_id(id, 2, p))
                .hidden(8)
                .epochs(4);
            let blocking = report(&ds, base.clone());
            let overlapped = report(&ds, base.overlap(3));
            assert_eq!(
                trajectory(&blocking),
                trajectory(&overlapped),
                "p={p} id={id}: overlapped trajectory drifted"
            );
            assert_eq!(
                volumes(&blocking),
                volumes(&overlapped),
                "p={p} id={id}: payload bytes drifted"
            );
            for e in &blocking.epochs {
                assert_eq!(e.overlap_ns(), 0, "blocking run recorded overlap");
            }
            if p > 1 {
                assert!(
                    overlapped.total_overlap_ns() > 0,
                    "p={p} id={id}: pipeline hid nothing"
                );
            } else {
                assert_eq!(overlapped.total_overlap_ns(), 0, "P=1 has no comm to hide");
            }
        }
    }
}

#[test]
fn overlapped_training_is_bitwise_blocking_across_replication_factors() {
    // The lifted `r_a == P` gate: chunk-pipelined group redistribution
    // (with the panel-group broadcast overlapped into the strip sink)
    // must be bitwise the blocking replicated-panel schedule at every
    // R_A — same trajectory, same payload bytes per collective kind.
    let ds = dataset();
    let p = 4usize;
    for r_a in [1usize, 2, 4] {
        for id in PLAN_IDS {
            let base = TrainerConfig::rdm(p, Plan::from_id(id, 2, p).with_ra(r_a))
                .hidden(8)
                .epochs(4);
            let blocking = report(&ds, base.clone());
            let overlapped = report(&ds, base.overlap(3));
            assert_eq!(
                trajectory(&blocking),
                trajectory(&overlapped),
                "r_a={r_a} id={id}: overlapped trajectory drifted"
            );
            assert_eq!(
                volumes(&blocking),
                volumes(&overlapped),
                "r_a={r_a} id={id}: payload bytes drifted"
            );
            if r_a > 1 {
                // Group redistribution exists to pipeline: bytes hide.
                assert!(
                    overlapped.total_overlap_ns() > 0,
                    "r_a={r_a} id={id}: pipeline hid nothing"
                );
            } else {
                // R_A = 1: single-member groups leave no redistribution;
                // the pipeline gate reports itself inert.
                assert_eq!(
                    overlapped.total_overlap_ns(),
                    0,
                    "r_a=1 has no group redistribution to hide"
                );
                assert_eq!(
                    overlapped.overlap_inert_reason(),
                    Some("r_a = 1 leaves no redistribution group to pipeline"),
                    "id={id}: missing inert-overlap reason"
                );
            }
        }
    }
}

/// `(loss, train_acc, test_acc)` bit patterns for one epoch.
type EpochBits = (u32, u32, u32);

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
    // Same mathematics as one device, up to FP reassociation across P.
    let ds = dataset();
    let reference = report(&ds, TrainerConfig::rdm_auto(1).hidden(8).epochs(5));
    for p in [2usize, 3, 4, 7] {
        let overlapped = report(
            &ds,
            TrainerConfig::rdm_auto(p).hidden(8).epochs(5).overlap(4),
        );
        for (a, b) in reference.epochs.iter().zip(&overlapped.epochs) {
            assert!(
                (a.loss - b.loss).abs() < 2e-3,
                "p={p} epoch {}: loss {} vs single-rank {}",
                b.epoch,
                b.loss,
                a.loss
            );
        }
    }
}

#[test]
fn ragged_and_oversized_chunk_counts_stay_bitwise() {
    // chunks that don't divide the strip widths, and chunk counts larger
    // than the widest tensor (empty tail chunks), must change nothing.
    let ds = dataset();
    let base = TrainerConfig::rdm(3, Plan::from_id(5, 2, 3))
        .hidden(8)
        .epochs(3);
    let blocking = report(&ds, base.clone());
    for chunks in [2usize, 7, 64] {
        let overlapped = report(&ds, base.clone().overlap(chunks));
        assert_eq!(
            trajectory(&blocking),
            trajectory(&overlapped),
            "chunks={chunks} drifted"
        );
        assert_eq!(
            volumes(&blocking),
            volumes(&overlapped),
            "chunks={chunks} moved different payload bytes"
        );
    }
}

#[test]
fn overlap_composes_with_fault_injection() {
    // The envelope protocol hides every fault; pipelining on a faulty
    // fabric must still be bit-identical to fault-free blocking, with the
    // damage visible only in the retransmission counters.
    let ds = dataset();
    let base = TrainerConfig::rdm(4, Plan::from_id(10, 2, 4))
        .hidden(8)
        .epochs(3);
    let clean = report(&ds, base.clone());
    for round in 0..2u64 {
        let plan = FaultPlan::new(chaos_base() ^ (0xC0FFEE + round))
            .drop_rate(0.08)
            .delay(0.25, 3)
            .straggler(0.02, 20_000);
        let chaotic = report(&ds, base.clone().overlap(3).faults(plan));
        assert_eq!(
            trajectory(&clean),
            trajectory(&chaotic),
            "round {round}: chaos perturbed the overlapped trajectory"
        );
        assert_eq!(
            volumes(&clean),
            volumes(&chaotic),
            "round {round}: chaos leaked into payload counters"
        );
        assert!(chaotic.total_overlap_ns() > 0, "round {round}: hid nothing");
    }
}

#[test]
fn overlap_ns_is_bounded_by_the_ideal_golden_value() {
    // Golden check of the modeled accounting: what a pipeline can hide is
    // at most min(T_comm, T_compute) — computed here from the *measured*
    // byte and FMA counters, the same inputs the trainer prices — and a
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
