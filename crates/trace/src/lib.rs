//! Per-rank structured event tracing for GNN-RDM.
//!
//! Each simulated rank is an OS thread, so the recorder is a thread-local
//! ring buffer: recording an event is an `Option` check plus a `Vec` push,
//! with no locks and no cross-thread traffic. The ring drains into a
//! backing store when it fills and at barrier/epoch boundaries
//! ([`flush`]), and [`uninstall`] hands the whole per-rank event stream
//! back as a [`RankTrace`].
//!
//! When no recorder is installed (tracing off — the default), every entry
//! point reduces to one thread-local `Option` check, so the traced code
//! paths stay bit-identical in results, payload counters and simulated
//! timing.
//!
//! Event vocabulary:
//!
//! * [`Span`] — nested regions: `Epoch`, `Redistribute` (one per
//!   all-to-all, blocking or chunk-pipelined), `Spmm`, `Gemm`,
//!   `AllReduce`, and the serving-path `Batch` / `Serve` (one per
//!   executed inference batch / one per request inside it).
//! * Instants — `Collective` (one per point-to-point send, carrying the
//!   fabric sequence number), `Retry` (one per injected drop the envelope
//!   protocol recovered from) and `OverlapStrip` (one per pipelined strip,
//!   carrying the modeled hidden time).
//!
//! Only *sender-side* events are recorded: receive completion order is
//! timing-dependent, while the send schedule is a pure function of the
//! plan, so same-seed runs produce identical normalized traces. [`chrome`] exports the stream as Chrome-trace JSON
//! for `chrome://tracing` / Perfetto.

use std::cell::RefCell;
use std::time::Instant;

pub mod chrome;

/// Collective kind tag, mirroring `rdm_comm::CollectiveKind` without a
/// dependency edge (comm depends on this crate, not the reverse).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceCollective {
    Redistribute,
    Broadcast,
    AllReduce,
    Halo,
    Other,
}

impl TraceCollective {
    pub fn name(self) -> &'static str {
        match self {
            TraceCollective::Redistribute => "redistribute",
            TraceCollective::Broadcast => "broadcast",
            TraceCollective::AllReduce => "allreduce",
            TraceCollective::Halo => "halo",
            TraceCollective::Other => "other",
        }
    }
}

/// Matrix distribution form, as seen by redistributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Form {
    /// Row-sliced (horizontal): rank r holds rows `part_range(n, p, r)`.
    Row,
    /// Column-sliced tile (vertical): rank r holds cols `part_range(f, p, r)`.
    Col,
}

impl Form {
    pub fn name(self) -> &'static str {
        match self {
            Form::Row => "row",
            Form::Col => "col",
        }
    }

    /// The form a conversion to this one starts from.
    pub fn other(self) -> Form {
        match self {
            Form::Row => Form::Col,
            Form::Col => Form::Row,
        }
    }
}

/// A nested trace region. `Begin`/`End` events carrying these must nest
/// properly per rank (checked by [`RankTrace::validate_nesting`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// One training epoch (trainer loop body, barriers excluded).
    Epoch { idx: usize },
    /// One all-to-all redistribution; `chunks > 1` means the
    /// chunk-pipelined path.
    Redistribute {
        from: Form,
        to: Form,
        chunks: usize,
        kind: TraceCollective,
    },
    /// One distributed SpMM over the local adjacency panel. `width` is
    /// the kernel lane width the op ran at (1 = scalar reference path).
    Spmm {
        rows: usize,
        cols: usize,
        nnz: usize,
        width: usize,
    },
    /// One distributed GEMM (`m×k · k×n`) at kernel lane width `width`
    /// (1 = scalar reference path).
    Gemm {
        m: usize,
        n: usize,
        k: usize,
        width: usize,
    },
    /// One ring all-reduce over `elems` f32 elements.
    AllReduce { elems: usize },
    /// One served inference batch (`rdm-serve` loop body): `size` requests
    /// executed as a single forward pass.
    Batch { idx: usize, size: usize },
    /// One request's service inside its [`Span::Batch`], tagged with the
    /// requesting client and its per-client request id.
    Serve { client: usize, req_id: u64 },
}

impl Span {
    pub fn name(self) -> &'static str {
        match self {
            Span::Epoch { .. } => "epoch",
            Span::Redistribute { .. } => "redistribute",
            Span::Spmm { .. } => "spmm",
            Span::Gemm { .. } => "gemm",
            Span::AllReduce { .. } => "allreduce",
            Span::Batch { .. } => "batch",
            Span::Serve { .. } => "serve",
        }
    }
}

/// The payload of one trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventData {
    /// Open a [`Span`].
    Begin(Span),
    /// Close the innermost open span.
    End,
    /// One point-to-point payload send; `msg_seq` is the fabric's
    /// per-link sequence number. `bytes` is what actually crossed the
    /// link; `dense_bytes` is the dense-equivalent payload the paper's
    /// volume formulas price. They coincide except on sparsity-compressed
    /// sends, where `bytes <= dense_bytes`.
    Collective {
        kind: TraceCollective,
        peer: usize,
        bytes: usize,
        dense_bytes: usize,
        msg_seq: u64,
    },
    /// One injected drop the envelope protocol retransmitted through.
    /// `attempt` counts from 0; `backoff_ns` is that attempt's
    /// exponential backoff.
    Retry {
        peer: usize,
        msg_seq: u64,
        attempt: u32,
        bytes: usize,
        backoff_ns: u64,
    },
    /// One strip of a chunk-pipelined redistribution retired, with the
    /// modeled communication time it hid behind compute.
    OverlapStrip { idx: usize, hidden_ns: u64 },
}

/// One recorded event. `seq` is strictly increasing per rank; `ts_ns` is
/// nanoseconds since the recorder was installed on this rank's thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub ts_ns: u64,
    pub data: EventData,
}

/// The full event stream of one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<Event>,
}

impl RankTrace {
    /// Check that `Begin`/`End` events nest (never more `End`s than
    /// `Begin`s, zero depth at the end) and that sequence numbers are
    /// strictly increasing. Returns a description of the first violation.
    pub fn validate_nesting(&self) -> Result<(), String> {
        let mut depth = 0usize;
        let mut prev_seq: Option<u64> = None;
        for (i, e) in self.events.iter().enumerate() {
            if let Some(p) = prev_seq {
                if e.seq <= p {
                    return Err(format!(
                        "rank {} event {i}: seq {} not greater than previous {p}",
                        self.rank, e.seq
                    ));
                }
            }
            prev_seq = Some(e.seq);
            match e.data {
                EventData::Begin(_) => depth += 1,
                EventData::End => {
                    depth = depth.checked_sub(1).ok_or_else(|| {
                        format!("rank {} event {i}: End with no open span", self.rank)
                    })?;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(format!(
                "rank {}: {depth} span(s) left open at end of trace",
                self.rank
            ));
        }
        Ok(())
    }
}

/// Ring capacity before an in-band drain to the backing store. Sized so a
/// typical epoch fits without draining mid-epoch.
const RING_CAPACITY: usize = 4096;

struct Recorder {
    rank: usize,
    start: Instant,
    next_seq: u64,
    ring: Vec<Event>,
    drained: Vec<Event>,
}

impl Recorder {
    fn new(rank: usize) -> Self {
        Recorder {
            rank,
            start: Instant::now(),
            next_seq: 0,
            ring: Vec::with_capacity(RING_CAPACITY),
            drained: Vec::new(),
        }
    }

    fn record(&mut self, data: EventData) {
        if self.ring.len() == RING_CAPACITY {
            self.drained.append(&mut self.ring);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push(Event {
            seq,
            ts_ns: self.start.elapsed().as_nanos() as u64,
            data,
        });
    }

    fn flush(&mut self) {
        self.drained.append(&mut self.ring);
    }

    fn finish(mut self) -> RankTrace {
        self.flush();
        RankTrace {
            rank: self.rank,
            events: self.drained,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a recorder on the current thread (one per rank thread).
/// Replaces any previous recorder, discarding its events.
pub fn install(rank: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(rank)));
}

/// Remove the current thread's recorder and return everything it
/// captured. `None` if tracing was never installed here.
pub fn uninstall() -> Option<RankTrace> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(Recorder::finish)
}

/// Is tracing active on this thread? One thread-local `Option` check —
/// this is the whole cost of the instrumentation when tracing is off.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Record one event. No-op when tracing is off.
pub fn record(data: EventData) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record(data);
        }
    });
}

/// Drain the ring buffer into the backing store. Called at barrier and
/// epoch boundaries so the ring never wraps mid-epoch.
pub fn flush() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.flush();
        }
    });
}

/// Open a span; the returned guard closes it on drop. When tracing is off
/// the guard is inert.
#[must_use = "dropping the guard closes the span"]
pub fn span(s: Span) -> SpanGuard {
    if enabled() {
        record(EventData::Begin(s));
        SpanGuard { active: true }
    } else {
        SpanGuard { active: false }
    }
}

/// RAII guard for an open [`Span`].
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            record(EventData::End);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!enabled());
        record(EventData::End);
        let _g = span(Span::Epoch { idx: 0 });
        drop(_g);
        flush();
        assert!(uninstall().is_none());
    }

    #[test]
    fn events_carry_increasing_seqs_and_nest() {
        install(3);
        assert!(enabled());
        {
            let _e = span(Span::Epoch { idx: 0 });
            record(EventData::Collective {
                kind: TraceCollective::Redistribute,
                peer: 1,
                bytes: 64,
                dense_bytes: 64,
                msg_seq: 0,
            });
            let _s = span(Span::Spmm {
                rows: 4,
                cols: 2,
                nnz: 9,
                width: 1,
            });
        }
        flush();
        let t = uninstall().unwrap();
        assert_eq!(t.rank, 3);
        assert_eq!(t.events.len(), 5);
        t.validate_nesting().unwrap();
        assert!(matches!(
            t.events[0].data,
            EventData::Begin(Span::Epoch { idx: 0 })
        ));
        assert!(matches!(t.events[4].data, EventData::End));
        assert!(!enabled());
    }

    #[test]
    fn ring_overflow_preserves_order() {
        install(0);
        let n = RING_CAPACITY * 2 + 17;
        for i in 0..n {
            record(EventData::OverlapStrip {
                idx: i,
                hidden_ns: 0,
            });
        }
        let t = uninstall().unwrap();
        assert_eq!(t.events.len(), n);
        for (i, e) in t.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert!(matches!(e.data, EventData::OverlapStrip { idx, .. } if idx == i));
        }
        t.validate_nesting().unwrap();
    }

    #[test]
    fn nesting_violations_are_reported() {
        install(1);
        record(EventData::End);
        let t = uninstall().unwrap();
        let err = t.validate_nesting().unwrap_err();
        assert!(err.contains("rank 1"), "{err}");
        assert!(err.contains("no open span"), "{err}");

        install(2);
        record(EventData::Begin(Span::Epoch { idx: 0 }));
        let t = uninstall().unwrap();
        let err = t.validate_nesting().unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }
}
