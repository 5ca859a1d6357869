//! Reduce a rank's event trace to self time per span kind.
//!
//! A span's self time is its duration minus the part of that interval its
//! child spans cover. Spans on one rank are strictly nested and sequential
//! (one thread), so the covered part is the sum of the direct children's
//! durations. Everything is grouped by *unit* — the top-level `Epoch`
//! (training) or `Batch` (serving) span.

use gnn_rdm::trace::{EventData, RankTrace, Span};

/// The span kinds the ledger reports. `Other` is the unit span's own self
/// time (loss, accuracy, Adam, element-wise ops, gathers; subgraph
/// induction when serving) plus the zero-length `Serve` markers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Spmm,
    Gemm,
    Redistribute,
    AllReduce,
    Other,
}

pub const KINDS: usize = 5;

fn kind_of(span: &Span) -> Kind {
    match span {
        Span::Spmm { .. } => Kind::Spmm,
        Span::Gemm { .. } => Kind::Gemm,
        Span::Redistribute { .. } => Kind::Redistribute,
        Span::AllReduce { .. } => Kind::AllReduce,
        Span::Epoch { .. } | Span::Batch { .. } | Span::Serve { .. } => Kind::Other,
    }
}

/// One unit span, reduced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Unit {
    pub wall_ns: u64,
    /// Self time per [`Kind`] (indexed by `Kind as usize`); sums to
    /// `wall_ns`.
    pub self_ns: [u64; KINDS],
    /// Events recorded inside the unit, its own begin and end included.
    pub events: u64,
    /// FMAs the kernel spans declare (`nnz·cols`, `m·n·k`).
    pub spmm_fma: f64,
    pub gemm_fma: f64,
}

impl Unit {
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind as usize]
    }
}

struct Open {
    kind: Kind,
    start_ns: u64,
    covered_ns: u64,
}

/// Units of one rank in trace order. Spans outside any unit are skipped;
/// an `End` without a `Begin`, or a span left open, is an error.
pub fn units(trace: &RankTrace) -> Result<Vec<Unit>, String> {
    let mut stack: Vec<Open> = Vec::new();
    let mut out = Vec::new();
    let mut unit: Option<Unit> = None;
    for (i, e) in trace.events.iter().enumerate() {
        if let Some(u) = unit.as_mut() {
            u.events += 1;
        }
        match &e.data {
            EventData::Begin(span) => {
                if stack.is_empty() && matches!(span, Span::Epoch { .. } | Span::Batch { .. }) {
                    unit = Some(Unit {
                        events: 1,
                        ..Unit::default()
                    });
                }
                if let Some(u) = unit.as_mut() {
                    match *span {
                        Span::Spmm { cols, nnz, .. } => u.spmm_fma += nnz as f64 * cols as f64,
                        Span::Gemm { m, n, k, .. } => u.gemm_fma += m as f64 * n as f64 * k as f64,
                        _ => {}
                    }
                }
                stack.push(Open {
                    kind: kind_of(span),
                    start_ns: e.ts_ns,
                    covered_ns: 0,
                });
            }
            EventData::End => {
                let open = stack.pop().ok_or_else(|| {
                    format!("rank {} event {i}: End with no open span", trace.rank)
                })?;
                let dur = e.ts_ns.saturating_sub(open.start_ns);
                if let Some(u) = unit.as_mut() {
                    u.self_ns[open.kind as usize] += dur.saturating_sub(open.covered_ns);
                }
                match stack.last_mut() {
                    Some(parent) => parent.covered_ns += dur,
                    None => {
                        if let Some(mut u) = unit.take() {
                            u.wall_ns = dur;
                            out.push(u);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if !stack.is_empty() {
        return Err(format!(
            "rank {}: {} span(s) left open at end of trace",
            trace.rank,
            stack.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn_rdm::trace::{Event, Form, TraceCollective};

    fn trace(events: &[(u64, EventData)]) -> RankTrace {
        RankTrace {
            rank: 0,
            events: events
                .iter()
                .enumerate()
                .map(|(i, &(ts_ns, data))| Event {
                    seq: i as u64,
                    ts_ns,
                    data,
                })
                .collect(),
        }
    }

    const SPMM: Span = Span::Spmm {
        rows: 10,
        cols: 4,
        nnz: 30,
        width: 1,
    };
    const GEMM: Span = Span::Gemm {
        m: 5,
        n: 4,
        k: 3,
        width: 1,
    };

    fn redistribute(chunks: usize) -> Span {
        Span::Redistribute {
            from: Form::Row,
            to: Form::Col,
            chunks,
            kind: TraceCollective::Redistribute,
        }
    }

    #[test]
    fn nested_spans_split_into_self_times() {
        use EventData::{Begin, End};
        let t = trace(&[
            (0, Begin(Span::Epoch { idx: 0 })),
            (10, Begin(SPMM)),
            (40, End),
            (45, Begin(GEMM)),
            (65, End),
            (70, Begin(Span::AllReduce { elems: 12 })),
            (75, End),
            (100, End),
            // Outside any unit: skipped.
            (110, Begin(Span::AllReduce { elems: 4 })),
            (120, End),
            (200, Begin(Span::Epoch { idx: 1 })),
            (260, End),
        ]);
        let u = units(&t).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].wall_ns, 100);
        assert_eq!(u[0].self_ns(Kind::Spmm), 30);
        assert_eq!(u[0].self_ns(Kind::Gemm), 20);
        assert_eq!(u[0].self_ns(Kind::AllReduce), 5);
        assert_eq!(u[0].self_ns(Kind::Redistribute), 0);
        assert_eq!(u[0].self_ns(Kind::Other), 45);
        assert_eq!(u[0].self_ns.iter().sum::<u64>(), u[0].wall_ns);
        assert_eq!(u[0].events, 8);
        assert_eq!(u[0].spmm_fma, 120.0);
        assert_eq!(u[0].gemm_fma, 60.0);
        assert_eq!(u[1].wall_ns, 60);
        assert_eq!(u[1].self_ns(Kind::Other), 60);
    }

    /// A chunked redistribution stays open while strips are consumed, so
    /// kernel spans nest inside it: only the uncovered part is its own.
    #[test]
    fn chunked_redistribute_excludes_spmm_children() {
        use EventData::{Begin, End};
        let t = trace(&[
            (0, Begin(Span::Batch { idx: 3, size: 8 })),
            (
                0,
                Begin(Span::Serve {
                    client: 1,
                    req_id: 7,
                }),
            ),
            (0, End),
            (5, Begin(redistribute(3))),
            (10, Begin(SPMM)),
            (20, End),
            (
                22,
                EventData::OverlapStrip {
                    idx: 0,
                    hidden_ns: 9,
                },
            ),
            (25, Begin(SPMM)),
            (40, End),
            (50, End),
            (60, End),
        ]);
        let u = units(&t).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].wall_ns, 60);
        assert_eq!(u[0].self_ns(Kind::Spmm), 25);
        assert_eq!(u[0].self_ns(Kind::Redistribute), 45 - 25);
        assert_eq!(u[0].self_ns(Kind::Other), 60 - 45);
        assert_eq!(u[0].events, 11);
        assert_eq!(u[0].spmm_fma, 240.0);
    }

    #[test]
    fn unbalanced_traces_are_rejected() {
        use EventData::{Begin, End};
        let stray_end = trace(&[(0, Begin(Span::Epoch { idx: 0 })), (5, End), (6, End)]);
        assert!(units(&stray_end).unwrap_err().contains("no open span"));
        let left_open = trace(&[
            (0, Begin(Span::Epoch { idx: 0 })),
            (5, Begin(GEMM)),
            (9, End),
        ]);
        assert!(units(&left_open).unwrap_err().contains("left open"));
    }
}
