//! Every plan's schedule, pinned: the predicted per-rank event sequence
//! (one `Display` line per event) of every 2-layer plan at P ∈ {1, 2, 3, 4}
//! with and without memoization, the replicated-panel corners at P = 4,
//! every 3-layer plan at P = 4, and two serving sessions: one whose later
//! batches reuse batch 0's `Â·H⁰`, one whose GEMM-first layer 1 cannot. A
//! redistribution added, dropped, retagged or repriced, or a
//! kernel reshaped, in any plan, shows up as a diff of
//! `tests/golden/schedules.txt`.
//!
//! The vertex count and the widths divide none of the cluster sizes, so
//! every ragged slice of the balanced partition is priced. Regenerate
//! deliberately with:
//!   cargo test --test schedule_golden -- --ignored regenerate_schedules

use gnn_rdm::model::{predict_epoch, predict_session, GnnShape, OrderConfig, SessionBatch};
use std::fmt::Write;

const N: usize = 143;
const NNZ: usize = 1100;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schedules.txt");

fn shape(feats: &[usize]) -> GnnShape {
    GnnShape {
        n: N,
        nnz: NNZ,
        feats: feats.to_vec(),
    }
}

/// Every rank's epoch schedule of plan `id` on the `p/r_a × r_a` grid.
fn epoch(out: &mut String, s: &GnnShape, id: usize, memoize: bool, grid: (usize, usize, &[usize])) {
    let (p, r_a, panel_nnz) = grid;
    let config = OrderConfig::from_id(id, s.layers());
    for rank in 0..p {
        writeln!(
            out,
            "epoch id {id} P {p} r_a {r_a} memoize {memoize} rank {rank}"
        )
        .unwrap();
        for e in predict_epoch(s, &config, memoize, p, r_a, rank, panel_nnz, None).unwrap() {
            writeln!(out, "  {e}").unwrap();
        }
    }
}

/// Every rank's schedule of a three-batch serving session of plan `id`.
fn session(out: &mut String, s: &GnnShape, id: usize, grid: (usize, usize, &[usize])) {
    let (p, r_a, panel_nnz) = grid;
    let config = OrderConfig::from_id(id, s.layers());
    let batches: Vec<SessionBatch> = [3, 3, 4]
        .into_iter()
        .enumerate()
        .map(|(idx, size)| SessionBatch {
            idx,
            requests: (0..size).map(|c| (c, idx as u64)).collect(),
        })
        .collect();
    for rank in 0..p {
        writeln!(out, "session id {id} P {p} r_a {r_a} rank {rank}").unwrap();
        let events = predict_session(s, &config, true, p, r_a, rank, &batches, panel_nnz).unwrap();
        for e in events {
            writeln!(out, "  {e}").unwrap();
        }
    }
}

fn schedules() -> String {
    let mut out = String::new();
    // Layer 1 widens (6 → 12) and layer 2 narrows (12 → 5), so the
    // non-memoized weight gradient recomputes on both sides.
    let two = shape(&[6, 12, 5]);
    for p in 1..=4 {
        for id in 0..16 {
            for memoize in [true, false] {
                epoch(&mut out, &two, id, memoize, (p, p, &[NNZ]));
            }
        }
    }
    for (r_a, panel_nnz) in [(2, &[620, 480][..]), (1, &[300, 250, 280, 270][..])] {
        for id in [0, 5, 10, 15] {
            epoch(&mut out, &two, id, true, (4, r_a, panel_nnz));
        }
    }
    let three = shape(&[12, 6, 9, 5]);
    for id in 0..64 {
        epoch(&mut out, &three, id, true, (4, 4, &[NNZ]));
    }
    session(&mut out, &two, 5, (2, 2, &[NNZ]));
    session(&mut out, &two, 10, (4, 2, &[620, 480]));
    out
}

#[test]
fn every_plan_schedule_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/schedules.txt");
    let got = schedules();
    if let Some((i, (g, e))) = got
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, e))| g != e)
    {
        panic!(
            "schedule drifted from tests/golden/schedules.txt at line {}: expected {e:?}, \
             got {g:?} (regenerate deliberately if the schedule changed)",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "schedule line count drifted from tests/golden/schedules.txt"
    );
}

#[test]
#[ignore = "writes the schedule golden; run explicitly after deliberate schedule changes"]
fn regenerate_schedules() {
    std::fs::write(GOLDEN, schedules()).unwrap();
}
