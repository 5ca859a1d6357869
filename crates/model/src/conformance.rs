//! Schedule conformance: diff a recorded per-rank trace against the
//! event sequence the model predicts for a plan.
//!
//! One schedule, two readers. [`crate::schedule::schedule`] expands a plan
//! into its one step list; the GCN engine executes that list, and
//! [`predict_epoch`] prices it into the exact per-rank sequence of
//! schedule-level events one training epoch must produce — redistribution
//! directions and payload bytes, SpMM/GEMM kernel shapes, weight-gradient
//! ring all-reduce bytes. [`extract_epoch`] reduces a recorded
//! `rdm_trace::RankTrace` to the same event vocabulary, and [`check_run`]
//! diffs the two, reporting every mismatch with its rank, epoch and event
//! index. What the check proves is that the engine ran the list and that
//! the pricing geometry is the wire's; the list itself is pinned by its
//! golden and by its agreement with `config_cost` (see DESIGN §10).
//!
//! Scope: every replication factor the engine executes — `R_A` dividing
//! `P`, no edge mask — on symmetric and asymmetric aggregations (backward
//! SpMMs multiply `Âᵀ`'s panels, priced on their own per-panel nonzero
//! counts). At `R_A < P` redistributions are group-scoped (priced by the
//! replicated-panel geometry of Fig. 6) and every panel SpMM carries the
//! column group's dense tile broadcast, which the extractor books as one
//! [`SchedEvent::Broadcast`] per product, after its SpMM. Traffic the
//! schedule does not price (loss/accuracy scalar all-reduces, dynamic
//! selection) appears in traces as bare `Collective` events outside any
//! span and is ignored by the extractor. [`predict_epoch`] takes
//! `(p, r_a)` plus the per-panel adjacency nonzero counts — full
//! replication is `r_a = p` with one panel — and errors on inputs outside
//! its scope instead of silently assuming full replication.
//!
//! The extractor is insensitive to pipelining. A product fed by a
//! conversion runs one kernel span per strip *inside* the `Redistribute`
//! span that feeds it (one strip when blocking, `chunks` when pipelined;
//! the strips' panel broadcasts inside them), and the extractor folds
//! those strip spans into one SpMM (`cols` summed) or GEMM (`m` summed)
//! emitted after the redistribution; a product on an already-cached form
//! is a top-level kernel span. A blocking and an overlapped run of the
//! same plan therefore extract to identical schedules.

use crate::config::OrderConfig;
use crate::cost::GnnShape;
use crate::schedule::{schedule, Op, Step};
use rdm_trace::{EventData, Form, RankTrace, Span, TraceCollective};
use std::fmt;

/// Length of rank `r`'s slice of `n` items over `p` ranks — the exact
/// balanced partition the runtime uses (`rdm_dense::part_range`, inlined
/// here so the model crate stays dependency-free of the dense kernels).
pub(crate) fn part_len(n: usize, p: usize, r: usize) -> usize {
    let base = n / p;
    let extra = n % p;
    base + usize::from(r < extra)
}

/// One schedule-level event: what the plan predicts and what a trace
/// reduces to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A Row↔Col redistribution; `bytes` is this rank's send-side payload.
    Redist {
        from: Form,
        to: Form,
        kind: TraceCollective,
        bytes: u64,
    },
    /// A distributed SpMM over this rank's adjacency panel (the whole
    /// adjacency at `R_A = P`).
    Spmm {
        rows: usize,
        cols: usize,
        nnz: usize,
    },
    /// The column group's dense tile broadcast carried by one panel SpMM
    /// (`R_A < P` only); `bytes` is this rank's send-side volume of its
    /// own tile to the `P/R_A - 1` other panels.
    Broadcast { bytes: u64 },
    /// A distributed GEMM (`m×k · k×n`).
    Gemm { m: usize, n: usize, k: usize },
    /// A weight-gradient ring all-reduce; `bytes` is this rank's
    /// send-side volume (zero at `P = 1`).
    AllReduce { bytes: u64 },
}

impl fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedEvent::Redist {
                from,
                to,
                kind,
                bytes,
            } => write!(
                f,
                "redist {}->{} kind={} {bytes}B",
                from.name(),
                to.name(),
                kind.name()
            ),
            SchedEvent::Spmm { rows, cols, nnz } => {
                write!(f, "spmm {rows}x{cols} nnz={nnz}")
            }
            SchedEvent::Broadcast { bytes } => write!(f, "broadcast {bytes}B"),
            SchedEvent::Gemm { m, n, k } => write!(f, "gemm {m}x{k}.{k}x{n}"),
            SchedEvent::AllReduce { bytes } => write!(f, "allreduce {bytes}B"),
        }
    }
}

/// One schedule mismatch: the trace of `rank` diverged from the predicted
/// sequence at `index` within `epoch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rank: usize,
    pub epoch: usize,
    /// Position in the per-epoch schedule where prediction and trace
    /// diverge.
    pub index: usize,
    /// What the model predicted at this position (`None`: trace has extra
    /// trailing events).
    pub expected: Option<SchedEvent>,
    /// What the trace recorded (`None`: trace ended early).
    pub got: Option<SchedEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} epoch {} event {}: ",
            self.rank, self.epoch, self.index
        )?;
        match (&self.expected, &self.got) {
            (Some(e), Some(g)) => write!(f, "expected {e}, got {g}"),
            (Some(e), None) => write!(f, "expected {e}, but the trace ended"),
            (None, Some(g)) => write!(f, "unexpected trailing event {g}"),
            (None, None) => write!(f, "internal: empty diff"),
        }
    }
}

/// Prices a schedule on one rank of the `p/r_a × r_a` grid: the
/// schedule-level events each [`Step`] produces there, with this rank's
/// byte and shape geometry.
pub(crate) struct Pricer {
    /// Vertex count.
    n: usize,
    p: usize,
    /// Adjacency replication factor (`p` = full replication).
    r_a: usize,
    rank: usize,
    /// Nonzeros of this rank's row panel of `Â` and of `Âᵀ`, which
    /// backward SpMMs multiply.
    nnz: (usize, usize),
    pub(crate) events: Vec<SchedEvent>,
}

impl Pricer {
    /// A pricer for rank `rank` of the `p/r_a × r_a` grid, with
    /// `panel_nnz[k]` the nonzero count of panel `k`'s row slice of the
    /// adjacency and `panel_nnz_t` that of its transpose (`None`: the
    /// aggregation is symmetric).
    pub(crate) fn new(
        shape: &GnnShape,
        p: usize,
        r_a: usize,
        rank: usize,
        panel_nnz: &[usize],
        panel_nnz_t: Option<&[usize]>,
    ) -> Result<Self, String> {
        if rank >= p {
            return Err(format!("rank {rank} out of range for P={p}"));
        }
        if r_a == 0 || !p.is_multiple_of(r_a) {
            return Err(format!("replication factor {r_a} must divide P = {p}"));
        }
        let panel_nnz_t = panel_nnz_t.unwrap_or(panel_nnz);
        for counts in [panel_nnz, panel_nnz_t] {
            let (panels, sum) = (counts.len(), counts.iter().sum::<usize>());
            if panels != p / r_a {
                return Err(format!(
                    "got {panels} panel nonzero counts for {} panels",
                    p / r_a
                ));
            }
            if sum != shape.nnz {
                return Err(format!(
                    "panel nonzeros sum to {sum}, shape has {}",
                    shape.nnz
                ));
            }
        }
        Ok(Pricer {
            n: shape.n,
            p,
            r_a,
            rank,
            nnz: (panel_nnz[rank / r_a], panel_nnz_t[rank / r_a]),
            events: Vec::new(),
        })
    }

    /// Rows of this rank's row slice of the `n`-vertex dense matrices.
    fn rows_r(&self) -> usize {
        part_len(self.n, self.p, self.rank)
    }

    /// Columns of this rank's tile slice of a width-`f` matrix: the
    /// `f`-axis is partitioned over the `r_a` members of its row group
    /// (over all `p` ranks at full replication).
    fn tile_cols(&self, f: usize) -> usize {
        part_len(f, self.r_a, self.rank % self.r_a)
    }

    /// Rows of this rank's adjacency panel: the union of its row group's
    /// row slices (`n` at full replication).
    fn panel_len(&self) -> usize {
        let first = (self.rank / self.r_a) * self.r_a;
        (first..first + self.r_a)
            .map(|r| part_len(self.n, self.p, r))
            .sum()
    }

    /// Send-side bytes of a Row→Col (row slice → tile) redistribution of
    /// an `n × f` matrix: this rank ships every column it does not keep
    /// from its row slice to its row-group peers.
    fn row_to_col_bytes(&self, f: usize) -> u64 {
        (self.rows_r() * (f - self.tile_cols(f)) * 4) as u64
    }

    /// Send-side bytes of a Col→Row (tile → row slice) redistribution:
    /// every panel row it does not keep from its tile.
    fn col_to_row_bytes(&self, f: usize) -> u64 {
        ((self.panel_len() - self.rows_r()) * self.tile_cols(f) * 4) as u64
    }

    /// Send-side bytes of the ring all-reduce of an `rows × cols` matrix:
    /// reduce-scatter then all-gather, each `p-1` sends of row chunks
    /// walking backwards around the ring from this rank's position.
    fn ring_bytes(&self, rows: usize, cols: usize) -> u64 {
        let p = self.p;
        if p == 1 {
            return 0;
        }
        let me = self.rank;
        let mut elems = 0usize;
        for s in 0..p - 1 {
            // Reduce-scatter step `s` sends chunk `(me - s) mod p`.
            elems += part_len(rows, p, (me + p - s) % p) * cols;
        }
        for t in 0..p - 1 {
            // All-gather send `t` forwards chunk `(me + 1 - t) mod p`.
            elems += part_len(rows, p, (me + 1 + p - t) % p) * cols;
        }
        (elems * 4) as u64
    }

    fn redist(&mut self, to: Form, kind: TraceCollective, f: usize) {
        let bytes = match to {
            Form::Col => self.row_to_col_bytes(f),
            Form::Row => self.col_to_row_bytes(f),
        };
        self.events.push(SchedEvent::Redist {
            from: to.other(),
            to,
            kind,
            bytes,
        });
    }

    /// One panel SpMM (of `Âᵀ` with `bwd`) on a width-`f` tile input. At
    /// `R_A = P` the panel is the whole adjacency, so the span shape is a
    /// pure function of the graph shape; at `R_A < P` the kernel runs this
    /// rank's panel and carries the column group's dense tile broadcast.
    fn spmm(&mut self, f: usize, bwd: bool) {
        let (rows, cols, panels) = (self.panel_len(), self.tile_cols(f), self.p / self.r_a);
        let nnz = if bwd { self.nnz.1 } else { self.nnz.0 };
        self.events.push(SchedEvent::Spmm { rows, cols, nnz });
        if panels > 1 {
            let bytes = ((panels - 1) * rows * cols * 4) as u64;
            self.events.push(SchedEvent::Broadcast { bytes });
        }
    }

    /// Append the events `steps` produce on this rank.
    pub(crate) fn price(&mut self, steps: &[Step]) {
        for step in steps {
            match *step {
                Step::Convert { to, kind, f, .. } => self.redist(to, kind, f),
                Step::Product {
                    op,
                    f_in,
                    f_out,
                    fed,
                    bwd,
                    ..
                } => {
                    if fed {
                        self.redist(op.form(), TraceCollective::Redistribute, f_in);
                    }
                    match op {
                        Op::Spmm => self.spmm(f_in, bwd),
                        Op::Gemm => self.events.push(SchedEvent::Gemm {
                            m: self.rows_r(),
                            n: f_out,
                            k: f_in,
                        }),
                    }
                }
                // A local `f_in × f_out` partial product plus its ring
                // all-reduce (nested inside the GEMM span, so the GEMM
                // event comes first).
                Step::WeightGrad { f_in, f_out, .. } => {
                    self.events.push(SchedEvent::Gemm {
                        m: f_in,
                        n: f_out,
                        k: self.rows_r(),
                    });
                    let bytes = self.ring_bytes(f_in, f_out);
                    self.events.push(SchedEvent::AllReduce { bytes });
                }
                Step::Relu { .. } | Step::ReluMask { .. } | Step::Loss | Step::Free { .. } => {}
            }
        }
    }
}

/// Predict the schedule-level event sequence rank `rank` of the
/// `p/r_a × r_a` grid produces during one training epoch of `config` on
/// `shape` (no edge mask): the plan's [`schedule`], priced. Every epoch of
/// a fixed-plan run produces this same sequence: the engine rebuilds its
/// layout caches from the (dual-form) input every epoch. Redistribution
/// bytes are group-scoped, and at `r_a < p` every panel SpMM carries one
/// dense tile [`SchedEvent::Broadcast`]. `panel_nnz[k]` is the nonzero
/// count of panel `k`'s row slice of the adjacency — data-dependent, so
/// callers read it off the partitioned graph; full replication is
/// `r_a = p, panel_nnz = [shape.nnz]`. `panel_nnz_t` is the same for the
/// transpose, which backward SpMMs multiply (`None` for a symmetric
/// aggregation).
///
/// # Errors
/// If `r_a` does not divide `p`, `rank` is out of range, a panel count
/// has the wrong length or does not sum to `shape.nnz`, or `shape` does
/// not have a width per layer boundary of `config` — inputs the predictor
/// would otherwise silently misprice.
#[allow(clippy::too_many_arguments)]
pub fn predict_epoch(
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    p: usize,
    r_a: usize,
    rank: usize,
    panel_nnz: &[usize],
    panel_nnz_t: Option<&[usize]>,
) -> Result<Vec<SchedEvent>, String> {
    let mut pricer = Pricer::new(shape, p, r_a, rank, panel_nnz, panel_nnz_t)?;
    pricer.price(&schedule(config, memoize, &shape.feats, false)?);
    Ok(pricer.events)
}

/// The schedule event a kernel span names. `width` is deliberately
/// dropped: the scheduler predicts op shapes, not kernel paths, so
/// conformance holds for scalar and fast kernels alike.
fn kernel_event(span: Span) -> Option<SchedEvent> {
    match span {
        Span::Spmm {
            rows, cols, nnz, ..
        } => Some(SchedEvent::Spmm { rows, cols, nnz }),
        Span::Gemm { m, n, k, .. } => Some(SchedEvent::Gemm { m, n, k }),
        _ => None,
    }
}

/// Fold the next strip kernel of a conversion-fed product into the product
/// so far: SpMM strips are column strips (`cols` add), GEMM strips row
/// strips (`m` adds). `None` unless every other dimension agrees.
fn fold_strip(product: Option<SchedEvent>, strip: SchedEvent) -> Option<SchedEvent> {
    use SchedEvent::{Gemm, Spmm};
    let Some(product) = product else {
        return Some(strip);
    };
    let (folded, fixed) = match (product, strip) {
        (Spmm { cols, .. }, Spmm { rows, cols: c, nnz }) => (
            Spmm {
                rows,
                cols: cols + c,
                nnz,
            },
            Spmm { rows, cols, nnz },
        ),
        (Gemm { m, .. }, Gemm { m: dm, n, k }) => (Gemm { m: m + dm, n, k }, Gemm { m, n, k }),
        _ => return None,
    };
    // `fixed` is the product so far with the strip's other dimensions.
    (fixed == product).then_some(folded)
}

/// One item of [`walk_schedule`]'s reduction of a trace.
pub(crate) enum Walked {
    /// A scope span of interest opened, or a `Serve` span opened inside one.
    Begin(Span),
    /// The open scope span closed.
    ScopeEnd,
    Sched(SchedEvent),
}

/// The trace reducer behind [`extract_epoch`] and
/// `serving::extract_session` (whose docs say what is booked and what is
/// ignored): walk one rank's events with a span stack and emit the
/// schedule-level events recorded inside the spans `scope` selects
/// (`Some(true)` = a scope to reduce, `Some(false)` = a scope span to
/// skip, `None` = not a scope span).
///
/// Returns the items and whether any selected scope was entered.
///
/// # Errors
/// If the trace is malformed: unbalanced spans, broadcast sends with no
/// kernel span to book them, a redistribution that sent more than its
/// dense-equivalent bytes, or strip kernels that do not tile one product.
pub(crate) fn walk_schedule(
    trace: &RankTrace,
    scope: impl Fn(Span) -> Option<bool>,
) -> Result<(Vec<Walked>, bool), String> {
    enum Frame {
        Scope {
            ours: bool,
        },
        Redist {
            from: Form,
            to: Form,
            kind: TraceCollective,
            /// Actual wire bytes (compressed when the indexed wire packed).
            bytes: u64,
            /// Dense-equivalent bytes — what the schedule predictor prices.
            dense: u64,
            /// The product the strip kernels nested in this conversion
            /// fold into.
            product: Option<SchedEvent>,
        },
        AllReduce {
            bytes: u64,
        },
        /// A top-level SpMM span, which can carry the replicated panels'
        /// tile broadcast; closing it flushes the pending broadcast bytes.
        Spmm,
        Other,
    }
    // One broadcast event per SpMM product, after it.
    let flush = |out: &mut Vec<Walked>, pending: &mut u64| {
        if *pending > 0 {
            out.push(Walked::Sched(SchedEvent::Broadcast { bytes: *pending }));
            *pending = 0;
        }
    };
    let mut stack: Vec<Frame> = Vec::new();
    let mut out = Vec::new();
    let mut in_scope = false;
    let mut found = false;
    let mut pending_bcast = 0u64;
    for (i, e) in trace.events.iter().enumerate() {
        match e.data {
            EventData::Begin(span) => {
                let frame = match (scope(span), span) {
                    (Some(ours), _) => {
                        if ours {
                            in_scope = true;
                            found = true;
                            out.push(Walked::Begin(span));
                        }
                        Frame::Scope { ours }
                    }
                    (None, _) if !in_scope => Frame::Other,
                    (None, Span::Serve { .. }) => {
                        out.push(Walked::Begin(span));
                        Frame::Other
                    }
                    (None, Span::Redistribute { from, to, kind, .. }) => Frame::Redist {
                        from,
                        to,
                        kind,
                        bytes: 0,
                        dense: 0,
                        product: None,
                    },
                    (None, Span::AllReduce { .. }) => Frame::AllReduce { bytes: 0 },
                    (None, _) => match (kernel_event(span), stack.last_mut()) {
                        (None, _) => Frame::Other,
                        // A strip of the product its conversion feeds.
                        (Some(strip), Some(Frame::Redist { product, .. })) => {
                            *product = Some(fold_strip(*product, strip).ok_or_else(|| {
                                format!(
                                    "rank {} event {i}: strip {strip} does not continue the \
                                     product of its redistribution",
                                    trace.rank
                                )
                            })?);
                            Frame::Other
                        }
                        (Some(event), _) => {
                            out.push(Walked::Sched(event));
                            match event {
                                SchedEvent::Spmm { .. } => Frame::Spmm,
                                _ => Frame::Other,
                            }
                        }
                    },
                };
                stack.push(frame);
            }
            EventData::End => {
                let frame = stack.pop().ok_or_else(|| {
                    format!("rank {} event {i}: End with no open span", trace.rank)
                })?;
                match frame {
                    Frame::Scope { ours } => {
                        if ours {
                            in_scope = false;
                            out.push(Walked::ScopeEnd);
                        }
                    }
                    Frame::Redist {
                        from,
                        to,
                        kind,
                        bytes,
                        dense,
                        product,
                    } => {
                        // The predictor prices the dense-equivalent volume;
                        // the sparse path may send less, never more.
                        if bytes > dense {
                            return Err(format!(
                                "rank {}: redistribution sent {bytes} B, above its \
                                 dense-equivalent {dense} B",
                                trace.rank
                            ));
                        }
                        out.push(Walked::Sched(SchedEvent::Redist {
                            from,
                            to,
                            kind,
                            bytes: dense,
                        }));
                        if let Some(product) = product {
                            out.push(Walked::Sched(product));
                            if let SchedEvent::Spmm { .. } = product {
                                flush(&mut out, &mut pending_bcast);
                            }
                        }
                    }
                    Frame::AllReduce { bytes } => {
                        out.push(Walked::Sched(SchedEvent::AllReduce { bytes }));
                    }
                    Frame::Spmm => flush(&mut out, &mut pending_bcast),
                    Frame::Other => {}
                }
            }
            EventData::Collective {
                kind,
                bytes,
                dense_bytes,
                ..
            } => {
                // Payload attribution: only sends issued directly inside a
                // redistribution or all-reduce span of their own kind
                // belong to that frame; broadcast sends accumulate toward
                // the carrying SpMM; anything else (loss/accuracy scalar
                // reductions) is unpriced traffic.
                if in_scope && kind == TraceCollective::Broadcast {
                    pending_bcast += bytes as u64;
                } else {
                    match stack.last_mut() {
                        Some(Frame::Redist {
                            kind: fk,
                            bytes: b,
                            dense,
                            ..
                        }) if *fk == kind => {
                            *b += bytes as u64;
                            *dense += dense_bytes as u64;
                        }
                        Some(Frame::AllReduce { bytes: b })
                            if kind == TraceCollective::AllReduce =>
                        {
                            *b += bytes as u64;
                        }
                        _ => {}
                    }
                }
            }
            EventData::Retry { .. } | EventData::OverlapStrip { .. } => {}
        }
    }
    if !stack.is_empty() {
        return Err(format!(
            "rank {}: {} span(s) left open at end of trace",
            trace.rank,
            stack.len()
        ));
    }
    if pending_bcast > 0 {
        return Err(format!(
            "rank {}: {pending_bcast} broadcast bytes with no kernel span to book them",
            trace.rank
        ));
    }
    Ok((out, found))
}

/// Reduce one rank's recorded trace to the schedule-level events of epoch
/// `epoch`. Bare `Collective` sends outside a redistribution/all-reduce
/// span (loss and accuracy scalar reductions, dynamic-selection traffic)
/// are ignored, as are `Retry` and `OverlapStrip` instants.
///
/// Attribution is kind-aware: a redistribution frame books only sends of
/// its own collective kind, while `Broadcast`-kind sends — the replicated
/// panels' tile exchange — accumulate wherever they occur (inside each
/// strip kernel span) and are flushed as one [`SchedEvent::Broadcast`]
/// after the SpMM product they carry. Strip kernel spans nested in a
/// redistribution fold into one product event emitted after it, so a
/// blocking and an overlapped run of the same plan extract to identical
/// schedules at every replication factor.
///
/// # Errors
/// If the trace is malformed (unbalanced spans, broadcast sends with no
/// kernel span to book them, strips that do not tile one product) or
/// never enters epoch `epoch`.
pub fn extract_epoch(trace: &RankTrace, epoch: usize) -> Result<Vec<SchedEvent>, String> {
    let (walked, found) = walk_schedule(trace, |span| match span {
        Span::Epoch { idx } => Some(idx == epoch),
        _ => None,
    })?;
    if !found {
        return Err(format!(
            "rank {}: trace contains no epoch {epoch}",
            trace.rank
        ));
    }
    Ok(walked
        .into_iter()
        .filter_map(|w| match w {
            Walked::Sched(e) => Some(e),
            Walked::Begin(_) | Walked::ScopeEnd => None,
        })
        .collect())
}

/// Elementwise diff of a predicted and an extracted schedule.
fn diff(rank: usize, epoch: usize, expected: &[SchedEvent], got: &[SchedEvent]) -> Vec<Violation> {
    let mut v = Vec::new();
    for i in 0..expected.len().max(got.len()) {
        let (e, g) = (expected.get(i).copied(), got.get(i).copied());
        if e != g {
            v.push(Violation {
                rank,
                epoch,
                index: i,
                expected: e,
                got: g,
            });
        }
    }
    v
}

/// The epochs a rank's trace recorded, in order.
fn epochs(trace: &RankTrace) -> Vec<usize> {
    trace
        .events
        .iter()
        .filter_map(|e| match e.data {
            EventData::Begin(Span::Epoch { idx }) => Some(idx),
            _ => None,
        })
        .collect()
}

/// Check a whole recorded run (all ranks, every epoch present in the
/// traces) against the model's prediction for a fixed plan on the
/// `(P, r_a, panel_nnz, panel_nnz_t)` grid (`P` is `traces.len()`; see
/// [`predict_epoch`]). Returns the full list of schedule violations —
/// empty means the run conformed.
///
/// # Errors
/// If there are no traces, any trace is structurally malformed (see
/// [`extract_epoch`]), ranks disagree on the set of epochs, or the grid
/// inputs are outside the predictor's scope.
pub fn check_run(
    traces: &[RankTrace],
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    r_a: usize,
    panel_nnz: &[usize],
    panel_nnz_t: Option<&[usize]>,
) -> Result<Vec<Violation>, String> {
    let p = traces.len();
    let Some(first) = traces.first() else {
        return Err("need at least one rank trace".into());
    };
    let run = epochs(first);
    if run.is_empty() {
        return Err("rank 0 trace contains no epoch spans".into());
    }
    let mut violations = Vec::new();
    for trace in traces {
        trace.validate_nesting()?;
        let recorded = epochs(trace);
        if recorded != run {
            return Err(format!(
                "rank {} recorded epochs {recorded:?}, rank 0 {run:?}",
                trace.rank
            ));
        }
        let rank = trace.rank;
        let expected = predict_epoch(shape, config, memoize, p, r_a, rank, panel_nnz, panel_nnz_t)?;
        for &epoch in &run {
            violations.extend(diff(rank, epoch, &expected, &extract_epoch(trace, epoch)?));
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_trace::Event;

    fn shape() -> GnnShape {
        GnnShape {
            n: 140,
            nnz: 1100,
            feats: vec![16, 16, 5],
        }
    }

    #[test]
    fn part_len_matches_balanced_partition() {
        // 10 over 3: 4, 3, 3 — remainder ranks first.
        assert_eq!(part_len(10, 3, 0), 4);
        assert_eq!(part_len(10, 3, 1), 3);
        assert_eq!(part_len(10, 3, 2), 3);
        assert_eq!((0..7).map(|r| part_len(23, 7, r)).sum::<usize>(), 23);
    }

    #[test]
    fn single_rank_prediction_moves_no_bytes() {
        for id in 0..16 {
            let cfg = OrderConfig::from_id(id, 2);
            let ev = predict_epoch(&shape(), &cfg, true, 1, 1, 0, &[shape().nnz], None).unwrap();
            for e in &ev {
                match e {
                    SchedEvent::Redist { bytes, .. } | SchedEvent::AllReduce { bytes } => {
                        assert_eq!(*bytes, 0, "id {id}: {e}");
                    }
                    _ => {}
                }
            }
            // The span skeleton is still there: 2 SpMMs + 2 GEMMs forward,
            // at least as many backward.
            let spmms = ev
                .iter()
                .filter(|e| matches!(e, SchedEvent::Spmm { .. }))
                .count();
            assert!(spmms >= 4, "id {id}: only {spmms} spmms");
        }
    }

    #[test]
    fn id0_forward_needs_one_redistribution_per_layer() {
        // All-SpMM-first: the input has both forms, so layer 1's SpMM is
        // free; each layer pays exactly one intra-layer Col→Row.
        let cfg = OrderConfig::from_id(0, 2);
        let ev = predict_epoch(&shape(), &cfg, true, 4, 4, 1, &[shape().nnz], None).unwrap();
        // Forward slice: up to the loss boundary there are 2 layers ×
        // (Spmm, Redist, Gemm).
        assert!(matches!(ev[0], SchedEvent::Spmm { .. }));
        assert!(matches!(
            ev[1],
            SchedEvent::Redist {
                from: Form::Col,
                to: Form::Row,
                kind: TraceCollective::Redistribute,
                ..
            }
        ));
        assert!(matches!(ev[2], SchedEvent::Gemm { .. }));
        // Layer 2's input exists only row-sliced, so its SpMM pays a
        // Row→Col first.
        assert!(matches!(
            ev[3],
            SchedEvent::Redist {
                from: Form::Row,
                to: Form::Col,
                ..
            }
        ));
        assert!(matches!(ev[4], SchedEvent::Spmm { .. }));
    }

    #[test]
    fn memoization_changes_the_predicted_schedule() {
        // ID 4: forward [S, S], backward [D, S] — layer 1 memoizes
        // (forward S, backward D). Without memoization the backward
        // weight grad must recompute an SpMM, so the schedules differ.
        let cfg = OrderConfig::from_id(4, 2);
        assert!(cfg.memoize_forward_spmm(1));
        let with = predict_epoch(&shape(), &cfg, true, 4, 4, 0, &[shape().nnz], None).unwrap();
        let without = predict_epoch(&shape(), &cfg, false, 4, 4, 0, &[shape().nnz], None).unwrap();
        assert_ne!(with, without);
        let spmms = |ev: &[SchedEvent]| {
            ev.iter()
                .filter(|e| matches!(e, SchedEvent::Spmm { .. }))
                .count()
        };
        assert!(spmms(&without) > spmms(&with));
    }

    #[test]
    fn redistribution_bytes_sum_to_global_volume() {
        // Row→Col of an n × f matrix moves (p-1)/p · n · f elements in
        // total, summed over ranks, for any divisibility.
        let s = shape();
        for p in [2usize, 3, 4, 7] {
            let cfg = OrderConfig::from_id(0, 2);
            let mut totals = [0u64; 3];
            for r in 0..p {
                let ev = predict_epoch(&s, &cfg, true, p, p, r, &[s.nnz], None).unwrap();
                for (i, e) in ev
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            SchedEvent::Redist {
                                kind: TraceCollective::Redistribute,
                                ..
                            }
                        )
                    })
                    .enumerate()
                    .take(3)
                {
                    if let SchedEvent::Redist { bytes, .. } = e {
                        totals[i] += bytes;
                    }
                }
            }
            // First forward redistribution: Col→Row of the n × f_h layer-1
            // SpMM output.
            let expect = |f: usize| {
                let kept: usize = (0..p)
                    .map(|r| part_len(s.n, p, r) * part_len(f, p, r))
                    .sum();
                ((s.n * f - kept) * 4) as u64
            };
            assert_eq!(totals[0], expect(s.feats[0]), "p={p}");
        }
    }

    #[test]
    fn extract_ignores_unpriced_traffic_and_diffs_are_indexed() {
        // Hand-build a tiny trace: epoch 0 containing one redistribution
        // with two sends, a bare send (ignored), and one spmm.
        let mk = |seq: u64, data: EventData| Event {
            seq,
            ts_ns: seq,
            data,
        };
        let redist = Span::Redistribute {
            from: Form::Row,
            to: Form::Col,
            chunks: 1,
            kind: TraceCollective::Redistribute,
        };
        let events = vec![
            mk(0, EventData::Begin(Span::Epoch { idx: 0 })),
            mk(1, EventData::Begin(redist)),
            mk(
                2,
                EventData::Collective {
                    kind: TraceCollective::Redistribute,
                    peer: 1,
                    bytes: 100,
                    dense_bytes: 100,
                    msg_seq: 0,
                },
            ),
            mk(
                3,
                EventData::Collective {
                    kind: TraceCollective::Redistribute,
                    peer: 2,
                    bytes: 60,
                    dense_bytes: 60,
                    msg_seq: 1,
                },
            ),
            mk(4, EventData::End),
            // Bare send outside any accounting span: ignored.
            mk(
                5,
                EventData::Collective {
                    kind: TraceCollective::AllReduce,
                    peer: 1,
                    bytes: 8,
                    dense_bytes: 8,
                    msg_seq: 2,
                },
            ),
            mk(
                6,
                EventData::Begin(Span::Spmm {
                    rows: 10,
                    cols: 4,
                    nnz: 30,
                    width: 8,
                }),
            ),
            mk(7, EventData::End),
            mk(8, EventData::End),
        ];
        let trace = RankTrace { rank: 2, events };
        let got = extract_epoch(&trace, 0).unwrap();
        assert_eq!(
            got,
            vec![
                SchedEvent::Redist {
                    from: Form::Row,
                    to: Form::Col,
                    kind: TraceCollective::Redistribute,
                    bytes: 160,
                },
                SchedEvent::Spmm {
                    rows: 10,
                    cols: 4,
                    nnz: 30,
                },
            ]
        );
        // Diff against a prediction that disagrees at index 1.
        let expected = vec![
            got[0],
            SchedEvent::Spmm {
                rows: 10,
                cols: 5,
                nnz: 30,
            },
        ];
        let v = diff(2, 0, &expected, &got);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 1);
        let msg = v[0].to_string();
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("event 1"), "{msg}");
        assert!(msg.contains("10x5"), "{msg}");
        assert!(msg.contains("10x4"), "{msg}");
    }

    #[test]
    fn extract_prices_compressed_sends_at_their_dense_volume() {
        // A sparse-path send books fewer wire bytes than its
        // dense-equivalent; the extracted schedule event must carry the
        // dense total (what the predictor prices), and a send claiming
        // MORE than its dense equivalent is a malformed trace.
        let mk = |seq: u64, data: EventData| Event {
            seq,
            ts_ns: seq,
            data,
        };
        let redist = Span::Redistribute {
            from: Form::Row,
            to: Form::Col,
            chunks: 1,
            kind: TraceCollective::Redistribute,
        };
        let send = |seq, bytes, dense_bytes| {
            mk(
                seq,
                EventData::Collective {
                    kind: TraceCollective::Redistribute,
                    peer: 1,
                    bytes,
                    dense_bytes,
                    msg_seq: seq,
                },
            )
        };
        let events = vec![
            mk(0, EventData::Begin(Span::Epoch { idx: 0 })),
            mk(1, EventData::Begin(redist)),
            send(2, 40, 100),
            send(3, 60, 60),
            mk(4, EventData::End),
            mk(5, EventData::End),
        ];
        let trace = RankTrace { rank: 0, events };
        let got = extract_epoch(&trace, 0).unwrap();
        assert_eq!(
            got,
            vec![SchedEvent::Redist {
                from: Form::Row,
                to: Form::Col,
                kind: TraceCollective::Redistribute,
                bytes: 160,
            }]
        );

        let events = vec![
            mk(0, EventData::Begin(Span::Epoch { idx: 0 })),
            mk(1, EventData::Begin(redist)),
            send(2, 104, 100),
            mk(3, EventData::End),
            mk(4, EventData::End),
        ];
        let trace = RankTrace { rank: 0, events };
        let err = extract_epoch(&trace, 0).unwrap_err();
        assert!(err.contains("above its dense-equivalent"), "{err}");
    }

    #[test]
    fn extract_requires_the_epoch_to_exist() {
        let trace = RankTrace {
            rank: 0,
            events: vec![],
        };
        let err = extract_epoch(&trace, 3).unwrap_err();
        assert!(err.contains("no epoch 3"), "{err}");
    }

    #[test]
    fn replicated_panel_prediction_prices_group_bytes_and_broadcasts() {
        // P=4, R_A=2 on the 140-vertex shape: rank 1 sits at panel 0,
        // position 1. Its panel spans rows [0, 70), its width-16 tile
        // keeps 8 columns.
        let s = shape();
        let (p, r_a) = (4usize, 2usize);
        let panel_nnz = [620usize, 480];
        let cfg = OrderConfig::from_id(0, 2);
        let ev = predict_epoch(&s, &cfg, true, p, r_a, 1, &panel_nnz, None).unwrap();

        // Every panel SpMM carries the column group's dense tile
        // broadcast: (P/R_A - 1) · panel_len · tile_cols · 4 bytes.
        let mut spmm_width = None;
        for pair in ev.windows(2) {
            if let SchedEvent::Spmm { rows, cols, nnz } = pair[0] {
                assert_eq!(rows, 70, "panel rows");
                assert_eq!(nnz, panel_nnz[0], "panel population");
                assert!(
                    matches!(pair[1], SchedEvent::Broadcast { bytes }
                        if bytes == (70 * cols * 4) as u64),
                    "spmm not followed by its tile broadcast: {} then {}",
                    pair[0],
                    pair[1]
                );
                spmm_width = Some(cols);
            }
        }
        assert_eq!(spmm_width, Some(8), "width-16 tile over a 2-rank group");

        // Group redistributions stay inside the row group: the first
        // forward Col→Row ships the 70 - 35 panel rows this rank does
        // not own, at its 8 tile columns.
        let first_redist = ev
            .iter()
            .find_map(|e| match e {
                SchedEvent::Redist {
                    from: Form::Col,
                    to: Form::Row,
                    bytes,
                    ..
                } => Some(*bytes),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_redist, (35 * 8 * 4) as u64);

        // Full replication (one panel, r_a = p) carries no Broadcast
        // events.
        let full = predict_epoch(&s, &cfg, true, p, p, 1, &[s.nnz], None).unwrap();
        assert!(!full
            .iter()
            .any(|e| matches!(e, SchedEvent::Broadcast { .. })));

        // R_A = 1 (fully partitioned adjacency): single-member row groups
        // move no redistribution bytes; all traffic is tile broadcasts.
        let parted: Vec<usize> = (0..p).map(|r| 200 + r * 50).collect();
        let parted = {
            let mut v = parted;
            let slack = s.nnz - v.iter().sum::<usize>();
            v[0] += slack;
            v
        };
        let ev1 = predict_epoch(&s, &cfg, true, p, 1, 2, &parted, None).unwrap();
        for e in &ev1 {
            if let SchedEvent::Redist {
                kind: TraceCollective::Redistribute,
                bytes,
                ..
            } = e
            {
                assert_eq!(*bytes, 0, "{e}");
            }
        }
        assert!(ev1
            .iter()
            .any(|e| matches!(e, SchedEvent::Broadcast { bytes } if *bytes > 0)));
    }

    #[test]
    fn replicated_panel_prediction_rejects_malformed_grids() {
        let s = shape();
        let cfg = OrderConfig::from_id(0, 2);
        let err = predict_epoch(&s, &cfg, true, 4, 3, 0, &[s.nnz], None).unwrap_err();
        assert!(err.contains("must divide"), "{err}");
        let err = predict_epoch(&s, &cfg, true, 4, 2, 4, &[600, 500], None).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = predict_epoch(&s, &cfg, true, 4, 2, 0, &[s.nnz], None).unwrap_err();
        assert!(err.contains("panel nonzero counts"), "{err}");
        let err = predict_epoch(&s, &cfg, true, 4, 2, 0, &[600, 600], None).unwrap_err();
        assert!(err.contains("sum to"), "{err}");
    }

    #[test]
    fn transpose_panel_counts_price_backward_spmms_only() {
        // An asymmetric aggregation's transpose has its own per-panel
        // population; it prices the backward SpMMs and must be well formed.
        let s = shape();
        let cfg = OrderConfig::from_id(0, 2);
        let sym = predict_epoch(&s, &cfg, true, 4, 2, 1, &[620, 480], None).unwrap();
        let asym = predict_epoch(&s, &cfg, true, 4, 2, 1, &[620, 480], Some(&[500, 600])).unwrap();
        let spmm_nnz = |ev: &[SchedEvent]| -> Vec<usize> {
            ev.iter()
                .filter_map(|e| match e {
                    SchedEvent::Spmm { nnz, .. } => Some(*nnz),
                    _ => None,
                })
                .collect()
        };
        // ID 0: two forward SpMMs, then two backward ones.
        assert_eq!(spmm_nnz(&sym), vec![620; 4]);
        assert_eq!(spmm_nnz(&asym), vec![620, 620, 500, 500]);
        let err = predict_epoch(&s, &cfg, true, 4, 2, 0, &[620, 480], Some(&[s.nnz])).unwrap_err();
        assert!(err.contains("panel nonzero counts"), "{err}");
    }

    #[test]
    fn out_of_scope_inputs_are_errors_not_panics() {
        // A shape whose widths do not match the plan's layer count.
        let s = shape();
        let three = OrderConfig::from_id(0, 3);
        let err = predict_epoch(&s, &three, true, 2, 2, 0, &[s.nnz], None).unwrap_err();
        assert!(err.contains("layer widths"), "{err}");
        let epoch = |rank| RankTrace {
            rank,
            events: vec![
                Event {
                    seq: 0,
                    ts_ns: 0,
                    data: EventData::Begin(Span::Epoch { idx: 0 }),
                },
                Event {
                    seq: 1,
                    ts_ns: 1,
                    data: EventData::End,
                },
            ],
        };
        let traces = [epoch(0), epoch(1)];
        let err = check_run(&traces, &s, &three, true, 2, &[s.nnz], None).unwrap_err();
        assert!(err.contains("layer widths"), "{err}");
        let err = check_run(&[], &s, &three, true, 1, &[s.nnz], None).unwrap_err();
        assert!(err.contains("at least one rank trace"), "{err}");
    }

    #[test]
    fn ranks_that_disagree_on_the_epochs_are_an_error() {
        // Rank 1 recorded an extra epoch that rank 0 never ran: the run is
        // malformed, whatever the schedule inside either epoch.
        let span = |seq: u64, idx: usize| {
            [
                Event {
                    seq,
                    ts_ns: seq,
                    data: EventData::Begin(Span::Epoch { idx }),
                },
                Event {
                    seq: seq + 1,
                    ts_ns: seq + 1,
                    data: EventData::End,
                },
            ]
        };
        let traces = [
            RankTrace {
                rank: 0,
                events: span(0, 0).to_vec(),
            },
            RankTrace {
                rank: 1,
                events: [span(0, 0), span(2, 1)].concat(),
            },
        ];
        let s = shape();
        let cfg = OrderConfig::from_id(0, 2);
        let err = check_run(&traces, &s, &cfg, true, 2, &[s.nnz], None).unwrap_err();
        assert!(
            err.contains("rank 1 recorded epochs [0, 1], rank 0 [0]"),
            "{err}"
        );
    }

    #[test]
    fn extract_folds_strip_kernels_into_one_product() {
        // A conversion-fed product is one kernel span per strip nested in
        // the Redistribute span feeding it — one strip blocking, several
        // pipelined — and a product on a cached form is a top-level span.
        // Every placement extracts to the same [Redist, Spmm], plus one
        // Broadcast per product when the replicated panels' tile broadcast
        // rides inside the kernel spans.
        use EventData::{Begin, End};
        let trace = |body: Vec<EventData>| RankTrace {
            rank: 0,
            events: std::iter::once(Begin(Span::Epoch { idx: 0 }))
                .chain(body)
                .chain([End])
                .enumerate()
                .map(|(i, data)| Event {
                    seq: i as u64,
                    ts_ns: i as u64,
                    data,
                })
                .collect(),
        };
        let send = |kind, bytes| EventData::Collective {
            kind,
            peer: 1,
            bytes,
            dense_bytes: bytes,
            msg_seq: 0,
        };
        let redist = |to| {
            let from = if to == Form::Col {
                Form::Row
            } else {
                Form::Col
            };
            vec![
                Begin(Span::Redistribute {
                    from,
                    to,
                    chunks: 1,
                    kind: TraceCollective::Redistribute,
                }),
                send(TraceCollective::Redistribute, 96),
            ]
        };
        // SpMM strips of a 70-row panel (620 nonzeros) over 8 tile
        // columns, each broadcasting its 70 × cols tile strip (or not).
        let spmm = |cols: usize, nnz: usize, bcast: bool| {
            let mut ev = vec![Begin(Span::Spmm {
                rows: 70,
                cols,
                nnz,
                width: 8,
            })];
            if bcast {
                ev.push(send(TraceCollective::Broadcast, 70 * cols * 4));
            }
            ev.push(End);
            ev
        };
        let nested = |strips: &[usize], bcast: bool| {
            let mut ev = redist(Form::Col);
            for (idx, &cols) in strips.iter().enumerate() {
                ev.extend(spmm(cols, 620, bcast));
                ev.push(EventData::OverlapStrip { idx, hidden_ns: 1 });
            }
            ev.push(End);
            ev
        };
        let redist_event = |from, to| SchedEvent::Redist {
            from,
            to,
            kind: TraceCollective::Redistribute,
            bytes: 96,
        };
        for bcast in [false, true] {
            let top_level = [redist(Form::Col), vec![End], spmm(8, 620, bcast)].concat();
            let mut expect = vec![
                redist_event(Form::Row, Form::Col),
                SchedEvent::Spmm {
                    rows: 70,
                    cols: 8,
                    nnz: 620,
                },
            ];
            if bcast {
                expect.push(SchedEvent::Broadcast { bytes: 2240 });
            }
            for (what, body) in [
                ("top-level", top_level),
                ("one strip", nested(&[8], bcast)),
                ("three strips", nested(&[3, 3, 2], bcast)),
            ] {
                let got = extract_epoch(&trace(body), 0).unwrap();
                assert_eq!(got, expect, "{what}, broadcast {bcast}");
            }
        }

        // GEMM strips are row strips: `m` sums.
        let mut body = redist(Form::Row);
        for m in [12, 12, 11] {
            body.extend([
                Begin(Span::Gemm {
                    m,
                    n: 5,
                    k: 16,
                    width: 8,
                }),
                End,
            ]);
        }
        body.push(End);
        assert_eq!(
            extract_epoch(&trace(body), 0).unwrap(),
            vec![
                redist_event(Form::Col, Form::Row),
                SchedEvent::Gemm { m: 35, n: 5, k: 16 },
            ]
        );

        // Strips that do not tile one product, and broadcast bytes with no
        // kernel span to book them, are malformed traces, not silence.
        let ragged = [
            redist(Form::Col),
            spmm(4, 620, false),
            spmm(4, 610, false),
            vec![End],
        ];
        let err = extract_epoch(&trace(ragged.concat()), 0).unwrap_err();
        assert!(err.contains("does not continue"), "{err}");
        let dangling = vec![send(TraceCollective::Broadcast, 64)];
        let err = extract_epoch(&trace(dangling), 0).unwrap_err();
        assert!(err.contains("no kernel span"), "{err}");
    }
}
