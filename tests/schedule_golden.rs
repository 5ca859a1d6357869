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

use gnn_rdm::model::{forward_schedule, predict, schedule, Entry, Graph, Order, OrderConfig};
use gnn_rdm::model::{Part, Unit, UnitEvent};
use gnn_rdm::trace::Span;
use std::fmt::Write;

const N: usize = 143;
const NNZ: usize = 1100;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schedules.txt");

/// The `N`-vertex graph with these panel populations.
fn graph(panel_nnz: &[usize]) -> Graph {
    Graph {
        n: N,
        panel_nnz: panel_nnz.to_vec(),
        panel_nnz_t: None,
    }
}

/// Every rank's epoch schedule of plan `id` on the `p/r_a × r_a` grid.
fn epoch(
    out: &mut String,
    feats: &[usize],
    id: usize,
    memoize: bool,
    grid: (usize, usize, &[usize]),
) {
    let (p, r_a, panel_nnz) = grid;
    let config = OrderConfig::from_id(id, feats.len() - 1);
    let steps = schedule(&config, memoize, feats, Entry::Both, true).unwrap();
    let unit = Unit {
        scope: Span::Epoch { idx: 0 },
        markers: Vec::new(),
        parts: vec![Part {
            steps,
            graph: graph(panel_nnz),
        }],
    };
    for rank in 0..p {
        writeln!(
            out,
            "epoch id {id} P {p} r_a {r_a} memoize {memoize} rank {rank}"
        )
        .unwrap();
        for e in predict(&unit, p, r_a, 1, rank).unwrap() {
            writeln!(out, "  {e}").unwrap();
        }
    }
}

/// Every rank's schedule of a three-batch full-graph serving session of
/// plan `id`: batch 0 runs the plan's forward half, later batches the
/// held-`Â·H⁰` one when layer 1 runs SpMM first.
fn session(out: &mut String, feats: &[usize], id: usize, grid: (usize, usize, &[usize])) {
    let (p, r_a, panel_nnz) = grid;
    let config = OrderConfig::from_id(id, feats.len() - 1);
    let forward = |held| {
        let entry = if held { Entry::Held } else { Entry::Both };
        forward_schedule(&config, true, feats, entry).unwrap()
    };
    let held = config.forward[0] == Order::SpmmFirst;
    let batch = |(idx, size): (usize, usize)| {
        let steps = forward(held && idx > 0);
        Unit {
            scope: Span::Batch { idx, size },
            markers: (0..size)
                .map(|client| Span::Serve {
                    client,
                    req_id: idx as u64,
                })
                .collect(),
            parts: vec![Part {
                steps,
                graph: graph(panel_nnz),
            }],
        }
    };
    let units: Vec<Unit> = [3, 3, 4].into_iter().enumerate().map(batch).collect();
    for rank in 0..p {
        writeln!(out, "session id {id} P {p} r_a {r_a} rank {rank}").unwrap();
        for unit in &units {
            writeln!(out, "  {}", UnitEvent::Scope(unit.scope)).unwrap();
            for e in predict(unit, p, r_a, 1, rank).unwrap() {
                writeln!(out, "  {e}").unwrap();
            }
            writeln!(out, "  batch end").unwrap();
        }
    }
}

fn schedules() -> String {
    let mut out = String::new();
    // Layer 1 widens (6 → 12) and layer 2 narrows (12 → 5), so the
    // non-memoized weight gradient recomputes on both sides.
    let two = [6, 12, 5];
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
    let three = [12, 6, 9, 5];
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
