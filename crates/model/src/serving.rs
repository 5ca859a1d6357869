//! Serving-session schedule model: the per-batch schedule predictor and
//! conformance checker of a full-graph serving session.
//!
//! Serving freezes the weights and the adjacency, so layer 1's aggregation
//! `T¹ = Â·H⁰` of an SpMM-first plan is a constant of the session: batch 0
//! computes it, and every later batch starts from its held row slice at
//! layer 1's GEMM. Executor and pricer read one step list
//! (`crate::schedule`): the executor runs its forward half — batch 0 the
//! plan's, later batches the `held` one — and [`predict_session`] prices
//! the same two halves batch by batch; [`check_session`] diffs a recorded
//! serving trace against it the way `check_run` does for training epochs.

use crate::config::{Order, OrderConfig};
use crate::conformance::{walk_schedule, Pricer, SchedEvent, Walked};
use crate::cost::GnnShape;
use crate::schedule::forward_schedule;
use rdm_trace::{RankTrace, Span};
use std::fmt;

/// One schedule-level event of a serving session: batch boundaries and
/// admission markers interleaved with the forward pass's [`SchedEvent`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A `Span::Batch` opened.
    BatchBegin { idx: usize, size: usize },
    /// One request admitted into the open batch.
    Serve { client: usize, req_id: u64 },
    /// A forward-pass schedule event inside the open batch.
    Sched(SchedEvent),
    /// The open batch closed.
    BatchEnd,
}

impl fmt::Display for ServeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeEvent::BatchBegin { idx, size } => write!(f, "batch {idx} begin ({size} reqs)"),
            ServeEvent::Serve { client, req_id } => write!(f, "serve c{client}#{req_id}"),
            ServeEvent::Sched(e) => write!(f, "{e}"),
            ServeEvent::BatchEnd => write!(f, "batch end"),
        }
    }
}

/// One serving-schedule mismatch: rank `rank`'s trace diverged from the
/// prediction at `index` (position in the whole session's event sequence)
/// inside batch `batch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeViolation {
    pub rank: usize,
    pub batch: usize,
    pub index: usize,
    pub expected: Option<ServeEvent>,
    pub got: Option<ServeEvent>,
}

impl fmt::Display for ServeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} batch {} event {}: ",
            self.rank, self.batch, self.index
        )?;
        match (&self.expected, &self.got) {
            (Some(e), Some(g)) => write!(f, "expected {e}, got {g}"),
            (Some(e), None) => write!(f, "expected {e}, but the trace ended"),
            (None, Some(g)) => write!(f, "unexpected trailing event {g}"),
            (None, None) => write!(f, "internal: empty diff"),
        }
    }
}

/// One batch of the serving schedule, as the predictor needs it: its
/// admission markers. A pure function of the shared request stream, so
/// harnesses rebuild it from `rdm_serve::planned_batches`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionBatch {
    pub idx: usize,
    /// `(client, req_id)` per admitted request, in admission order.
    pub requests: Vec<(usize, u64)>,
}

/// Predict the serving-schedule event sequence rank `rank` of the
/// `p/r_a × r_a` grid produces for a full-graph serving session of
/// `batches` under `config`: the plan's [`forward_schedule`], priced per
/// batch as [`crate::conformance::predict_epoch`] prices an epoch; `panel_nnz[k]` is the nonzero count of panel `k`'s row slice of
/// the adjacency (full replication: `r_a = p, panel_nnz = [shape.nnz]`).
///
/// When layer 1 runs SpMM-first, only the first batch aggregates `Â·H⁰`;
/// every later batch prices the `held` schedule, which starts at layer 1's
/// GEMM — no layer-1 SpMM, panel broadcast or Col→Row exchange. A
/// GEMM-first layer 1 prices the plan's forward half for every batch.
///
/// # Errors
/// If `r_a` does not divide `p`, `rank` is out of range, `panel_nnz` is
/// inconsistent with the grid, or `shape` has no width per layer boundary
/// of `config` — inputs the predictor would otherwise silently misprice.
#[allow(clippy::too_many_arguments)]
pub fn predict_session(
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    p: usize,
    r_a: usize,
    rank: usize,
    batches: &[SessionBatch],
    panel_nnz: &[usize],
) -> Result<Vec<ServeEvent>, String> {
    let mut pricer = Pricer::new(shape, p, r_a, rank, panel_nnz, None)?;
    let forward = |held| forward_schedule(config, memoize, &shape.feats, held);
    let first = forward(false)?;
    let steady = match config.forward[0] {
        Order::SpmmFirst => forward(true)?,
        Order::GemmFirst => first.clone(),
    };
    let mut out = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        out.push(ServeEvent::BatchBegin {
            idx: b.idx,
            size: b.requests.len(),
        });
        for &(client, req_id) in &b.requests {
            out.push(ServeEvent::Serve { client, req_id });
        }
        pricer.price(if i == 0 { &first } else { &steady });
        out.extend(pricer.events.drain(..).map(ServeEvent::Sched));
        out.push(ServeEvent::BatchEnd);
    }
    Ok(out)
}

/// Reduce one rank's recorded serving trace to [`ServeEvent`]s. The same
/// reducer as `extract_epoch`, keyed on `Span::Batch` instead of
/// `Span::Epoch`: traffic outside a batch (barriers) is ignored, `Redist`
/// frames are priced at their dense-equivalent volume (hard error if the
/// wire sent more), and `Retry`/`OverlapStrip` instants are transparent —
/// a pipelined or chaotic session extracts to the same schedule as a plain
/// one with the same shapes.
///
/// # Errors
/// If the trace is malformed (unbalanced spans), contains no batch span,
/// or a redistribution sent more than its dense-equivalent bytes.
pub fn extract_session(trace: &RankTrace) -> Result<Vec<ServeEvent>, String> {
    let (walked, found) = walk_schedule(trace, |span| {
        matches!(span, Span::Batch { .. }).then_some(true)
    })?;
    if !found {
        return Err(format!(
            "rank {}: trace contains no batch spans",
            trace.rank
        ));
    }
    Ok(walked
        .into_iter()
        .filter_map(|w| match w {
            Walked::Begin(Span::Batch { idx, size }) => Some(ServeEvent::BatchBegin { idx, size }),
            Walked::Begin(Span::Serve { client, req_id }) => {
                Some(ServeEvent::Serve { client, req_id })
            }
            Walked::Begin(_) => None,
            Walked::ScopeEnd => Some(ServeEvent::BatchEnd),
            Walked::Sched(e) => Some(ServeEvent::Sched(e)),
        })
        .collect())
}

/// Elementwise diff of a predicted and an extracted serving schedule,
/// addressing each mismatch with the batch index current at its position.
fn diff_session(rank: usize, expected: &[ServeEvent], got: &[ServeEvent]) -> Vec<ServeViolation> {
    let mut v = Vec::new();
    let mut batch = 0usize;
    for i in 0..expected.len().max(got.len()) {
        let (e, g) = (expected.get(i).copied(), got.get(i).copied());
        if let Some(ServeEvent::BatchBegin { idx, .. }) = e.or(g) {
            batch = idx;
        }
        if e != g {
            v.push(ServeViolation {
                rank,
                batch,
                index: i,
                expected: e,
                got: g,
            });
        }
    }
    v
}

/// Check a whole recorded serving session (all ranks; `P` is
/// `traces.len()`) against the model's prediction at replication factor
/// `r_a`: each rank's expected schedule is predicted from
/// `(plan, P, r_a)` and the per-panel adjacency populations, so
/// group-scoped redistributions and panel-tile broadcasts are
/// conformance-checked rather than silently skipped. Returns every
/// serving-schedule violation — empty means the session conformed.
///
/// # Errors
/// If any trace is structurally malformed (see [`extract_session`]), or
/// the grid inputs are outside the predictor's scope.
pub fn check_session(
    traces: &[RankTrace],
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    batches: &[SessionBatch],
    r_a: usize,
    panel_nnz: &[usize],
) -> Result<Vec<ServeViolation>, String> {
    let p = traces.len();
    if p == 0 {
        return Err("need at least one rank trace".into());
    }
    let mut violations = Vec::new();
    for trace in traces {
        trace.validate_nesting()?;
        let expected = predict_session(
            shape, config, memoize, p, r_a, trace.rank, batches, panel_nnz,
        )?;
        let got = extract_session(trace)?;
        violations.extend(diff_session(trace.rank, &expected, &got));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule;

    fn shape() -> GnnShape {
        GnnShape {
            n: 24,
            nnz: 100,
            feats: vec![8, 6, 4],
        }
    }

    fn batches() -> Vec<SessionBatch> {
        vec![
            SessionBatch {
                idx: 0,
                requests: vec![(0, 0), (1, 0)],
            },
            SessionBatch {
                idx: 1,
                requests: vec![(0, 1)],
            },
        ]
    }

    /// Each batch's schedule events, markers dropped.
    fn per_batch(events: &[ServeEvent]) -> Vec<Vec<SchedEvent>> {
        let mut out = Vec::new();
        for e in events {
            match e {
                ServeEvent::BatchBegin { .. } => out.push(Vec::new()),
                ServeEvent::Sched(s) => out.last_mut().unwrap().push(*s),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn prediction_interleaves_markers_and_schedules_per_batch() {
        let cfg = OrderConfig::from_id(0, 2); // all SpMM-first
        let ev = predict_session(&shape(), &cfg, true, 2, 2, 1, &batches(), &[100]).unwrap();
        let count = |f: fn(&ServeEvent) -> bool| ev.iter().filter(|e| f(e)).count();
        let begins = count(|e| matches!(e, ServeEvent::BatchBegin { .. }));
        let ends = count(|e| matches!(e, ServeEvent::BatchEnd));
        assert_eq!((begins, ends), (2, 2));
        assert_eq!(ev[0], ServeEvent::BatchBegin { idx: 0, size: 2 });
        let serve = |client, req_id| ServeEvent::Serve { client, req_id };
        assert_eq!(ev[1..3], [serve(0, 0), serve(1, 0)]);
    }

    /// Batch 0 aggregates `Â·H⁰` and exchanges it; every later batch of an
    /// SpMM-first plan starts at layer 1's GEMM, on every grid.
    #[test]
    fn later_batches_start_at_layer_one_gemm() {
        let cfg = OrderConfig::from_id(0, 2);
        for (p, r_a, nnz) in [
            (2, 2, &[100][..]),
            (4, 2, &[60, 40]),
            (4, 1, &[30, 20, 25, 25]),
        ] {
            for rank in 0..p {
                let ev = predict_session(&shape(), &cfg, true, p, r_a, rank, &batches(), nnz);
                let [first, later] = &per_batch(&ev.unwrap())[..] else {
                    panic!("two batches");
                };
                let spmm = |b: &[SchedEvent]| {
                    b.iter()
                        .filter(|e| matches!(e, SchedEvent::Spmm { .. }))
                        .count()
                };
                assert_eq!((spmm(first), spmm(later)), (2, 1), "P {p} r_a {r_a}");
                let gemm = first
                    .iter()
                    .position(|e| matches!(e, SchedEvent::Gemm { .. }))
                    .unwrap();
                assert_eq!(later[..], first[gemm..], "P {p} r_a {r_a} rank {rank}");
            }
        }
    }

    #[test]
    fn gemm_first_batches_all_price_the_full_forward() {
        let cfg = OrderConfig::from_id(3, 2);
        assert_eq!(cfg.forward[0], Order::GemmFirst);
        assert!(schedule(&cfg, true, &shape().feats, true).is_err());
        let ev = predict_session(&shape(), &cfg, true, 2, 2, 1, &batches(), &[100]).unwrap();
        let [first, later] = &per_batch(&ev)[..] else {
            panic!("two batches");
        };
        assert_eq!(first, later);
    }

    #[test]
    fn a_session_without_traces_is_an_error() {
        let cfg = OrderConfig::from_id(0, 2);
        let err = check_session(&[], &shape(), &cfg, true, &[], 1, &[100]).unwrap_err();
        assert!(err.contains("at least one rank trace"), "{err}");
    }
}
