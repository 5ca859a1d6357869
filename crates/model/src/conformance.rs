//! Schedule conformance: diff a recorded per-rank trace against the
//! event sequence the model predicts for each unit of work it ran.
//!
//! One schedule, two readers. [`crate::schedule::schedule`] expands a plan
//! into its one step list; the GCN engine executes that list, and
//! [`predict`] prices it into the exact per-rank sequence of
//! schedule-level events a [`Unit`] must produce — redistribution
//! directions and payload bytes, SpMM/GEMM kernel shapes, panel tile
//! broadcasts, weight-gradient ring all-reduce bytes — and the messages
//! the unit sends, so an empty piece of a pipelined conversion cannot go
//! missing unseen. [`check`] reduces
//! every rank's recorded `rdm_trace::RankTrace` to the same vocabulary and
//! diffs the two, reporting every mismatch with its rank, unit and event
//! index. What the check proves is that the engine ran the list and that
//! the pricing geometry is the wire's; the list itself is pinned by its
//! golden and by its agreement with `config_cost` (see DESIGN §10).
//!
//! A unit is whatever one `Span::Epoch` or `Span::Batch` scopes: a
//! training epoch (one part, the plan's [`crate::schedule::schedule`]), a
//! GraphSAINT-RDM epoch (one part per subgraph step, each priced on its
//! own subgraph), or a served batch (one part: the plan's forward half,
//! or the held-`Â·H⁰` one, on the whole graph or on the batch's induced
//! subgraph), with the `Span::Serve` admission markers it holds.
//!
//! Scope: every replication factor the engine executes — `R_A` dividing
//! `P`, no edge mask — on symmetric and asymmetric aggregations (backward
//! SpMMs multiply `Âᵀ`'s panels, priced on their own per-panel nonzero
//! counts). At `R_A < P` redistributions are group-scoped (priced by the
//! replicated-panel geometry of Fig. 6) and every panel SpMM carries the
//! column group's dense tile broadcast, which the extractor books as one
//! [`SchedEvent::Broadcast`] per product, after its SpMM. The loss
//! boundary's scalar all-reduce, whose bytes the schedule does not price,
//! appears in traces as bare `Collective` events outside any span and is
//! ignored by the extractor, as is all traffic outside a unit (barriers).
//!
//! The extractor is insensitive to pipelining and faults. A product fed by
//! a conversion runs one kernel span per strip *inside* the `Redistribute`
//! span that feeds it (one strip when blocking, `chunks` when pipelined;
//! the strips' panel broadcasts inside them), and the extractor folds
//! those strip spans into one SpMM (`cols` summed) or GEMM (`m` summed)
//! emitted after the redistribution; a product on an already-cached form
//! is a top-level kernel span. `Retry` and `OverlapStrip` instants are
//! transparent. A blocking, an overlapped and a chaotic run of the same
//! plan therefore extract to identical schedules.

use crate::schedule::{Op, Step};
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

/// The graph a schedule runs on, as the pricer sees it on the
/// `p/r_a × r_a` grid: its vertex count and the nonzeros of each row panel
/// of the aggregation `Â` and of its transpose, which backward SpMMs
/// multiply. Panel `k` spans the row slices of ranks `[k·r_a, (k+1)·r_a)`;
/// full replication (`r_a = p`) is one panel holding every nonzero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    pub n: usize,
    pub panel_nnz: Vec<usize>,
    /// `None`: the aggregation is symmetric.
    pub panel_nnz_t: Option<Vec<usize>>,
}

impl Graph {
    /// A symmetric graph of `n` vertices whose `nnz` nonzeros spread
    /// evenly over `panels` row panels.
    pub fn even(n: usize, nnz: usize, panels: usize) -> Self {
        Graph {
            n,
            panel_nnz: (0..panels).map(|k| part_len(nnz, panels, k)).collect(),
            panel_nnz_t: None,
        }
    }
}

/// One step list and the graph it runs on.
#[derive(Clone, Debug, PartialEq)]
pub struct Part {
    pub steps: Vec<Step>,
    pub graph: Graph,
}

/// One unit of work a trace records: its scope span, the marker spans it
/// must hold, and what it runs, in order.
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// `Span::Epoch` or `Span::Batch`, compared as recorded.
    pub scope: Span,
    /// Spans the unit opens before its schedule, in order: a batch's
    /// `Span::Serve` admissions.
    pub markers: Vec<Span>,
    pub parts: Vec<Part>,
}

/// One event of a unit, as predicted and as recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitEvent {
    /// The unit's scope span. Only a [`Violation`] carries it.
    Scope(Span),
    /// A marker span opened inside the unit.
    Marker(Span),
    Sched(SchedEvent),
    /// The messages this rank sent inside the unit, every collective's and
    /// the loss boundary's, empty pieces included: a unit's last event.
    Messages(usize),
}

impl fmt::Display for UnitEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitEvent::Scope(Span::Epoch { idx }) => write!(f, "epoch {idx} begin"),
            UnitEvent::Scope(Span::Batch { idx, size }) => {
                write!(f, "batch {idx} begin ({size} reqs)")
            }
            UnitEvent::Marker(Span::Serve { client, req_id }) => {
                write!(f, "serve c{client}#{req_id}")
            }
            UnitEvent::Scope(s) | UnitEvent::Marker(s) => write!(f, "{}", s.name()),
            UnitEvent::Sched(e) => write!(f, "{e}"),
            UnitEvent::Messages(n) => write!(f, "messages {n}"),
        }
    }
}

/// One schedule mismatch: rank `rank`'s trace diverged from the prediction
/// at `index` of unit `unit`'s events — its markers, then its schedule
/// events — or recorded another scope than the unit's, or a unit too few
/// or too many (`index` 0, the scopes as the events).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rank: usize,
    /// The unit's scope span (the recorded one for a unit the prediction
    /// lacks).
    pub unit: Span,
    pub index: usize,
    /// What the model predicted here (`None`: the trace has extra events).
    pub expected: Option<UnitEvent>,
    /// What the trace recorded (`None`: the unit ended early).
    pub got: Option<UnitEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} ", self.rank)?;
        match self.unit {
            Span::Epoch { idx } => write!(f, "epoch {idx}")?,
            Span::Batch { idx, .. } => write!(f, "batch {idx}")?,
            other => write!(f, "{}", other.name())?,
        }
        write!(f, " event {}: ", self.index)?;
        match (&self.expected, &self.got) {
            (Some(e), Some(g)) => write!(f, "expected {e}, got {g}"),
            (Some(e), None) => write!(f, "expected {e}, but the trace ended"),
            (None, Some(g)) => write!(f, "unexpected trailing event {g}"),
            (None, None) => write!(f, "internal: empty diff"),
        }
    }
}

/// One strip of a pipelined product on one rank: the `(bytes, messages)`
/// this rank sends for it — its conversion pieces, one message per
/// row-group peer, then its panel broadcast (an SpMM at `R_A < P`; none
/// otherwise) — and the FMAs its kernel runs, on the strips
/// `RankCtx::redistribute` hands its sink.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Strip {
    pub sends: [(u64, usize); 2],
    pub spmm_fma: f64,
    pub gemm_fma: f64,
}

/// Prices a schedule on one rank of the `p/r_a × r_a` grid: the
/// schedule-level events each [`Step`] produces there, with this rank's
/// byte and shape geometry, and the messages the collectives send for
/// them — a fed product's as `chunks` strips.
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
    /// Messages this rank sends: one per row-group peer for each
    /// conversion and one per other panel for each panel broadcast —
    /// `chunks` times over for a fed product's, one per strip (an empty
    /// piece is still sent) — `2(p-1)` for each ring all-reduce, and `p-1`
    /// for the loss boundary's scalar all-reduce (an all-gather; the same
    /// for every plan).
    pub(crate) messages: usize,
    /// Strips each fed product's conversion ships in (`1`: blocking).
    pub(crate) chunks: usize,
    /// The strips of every fed product, in schedule order, when
    /// `chunks > 1` (a blocking schedule has no pipeline).
    pub(crate) pipelines: Vec<Vec<Strip>>,
}

impl Pricer {
    /// A pricer for rank `rank` of the `p/r_a × r_a` grid on `graph`.
    pub(crate) fn new(graph: &Graph, p: usize, r_a: usize, rank: usize) -> Result<Self, String> {
        if rank >= p {
            return Err(format!("rank {rank} out of range for P={p}"));
        }
        if r_a == 0 || !p.is_multiple_of(r_a) {
            return Err(format!("replication factor {r_a} must divide P = {p}"));
        }
        let nnz = &graph.panel_nnz;
        let nnz_t = graph.panel_nnz_t.as_deref().unwrap_or(nnz);
        for counts in [nnz, nnz_t] {
            if counts.len() != p / r_a {
                return Err(format!(
                    "got {} panel nonzero counts for {} panels",
                    counts.len(),
                    p / r_a
                ));
            }
        }
        let (sum, sum_t) = (nnz.iter().sum::<usize>(), nnz_t.iter().sum::<usize>());
        if sum != sum_t {
            return Err(format!(
                "the transpose's panel nonzeros sum to {sum_t}, the adjacency's to {sum}"
            ));
        }
        Ok(Pricer {
            n: graph.n,
            p,
            r_a,
            rank,
            nnz: (nnz[rank / r_a], nnz_t[rank / r_a]),
            events: Vec::new(),
            messages: 0,
            chunks: 1,
            pipelines: Vec::new(),
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

    fn redist(&mut self, to: Form, kind: TraceCollective, f: usize, chunks: usize) {
        let bytes = match to {
            Form::Col => self.row_to_col_bytes(f),
            Form::Row => self.col_to_row_bytes(f),
        };
        self.messages += chunks * (self.r_a - 1);
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
    fn spmm(&mut self, f: usize, bwd: bool, chunks: usize) {
        let (rows, cols, panels) = (self.panel_len(), self.tile_cols(f), self.p / self.r_a);
        let nnz = if bwd { self.nnz.1 } else { self.nnz.0 };
        self.events.push(SchedEvent::Spmm { rows, cols, nnz });
        if panels > 1 {
            let bytes = ((panels - 1) * rows * cols * 4) as u64;
            self.messages += chunks * (panels - 1);
            self.events.push(SchedEvent::Broadcast { bytes });
        }
    }

    /// The strips of a fed `op` from width `f_in` to `f_out`: this rank
    /// cuts the piece of its slice each row-group peer gets into `chunks`
    /// sub-blocks along the axis the conversion splits — the columns of a
    /// row slice feeding an SpMM, the panel rows of a tile feeding a GEMM —
    /// and its strip `q` is the `q`-th cut of its own part.
    fn pipeline(&mut self, op: Op, f_in: usize, f_out: usize, bwd: bool) {
        let (g, me, chunks) = (self.r_a, self.rank % self.r_a, self.chunks);
        let (axis, fixed) = match op {
            Op::Spmm => (f_in, self.rows_r()),
            Op::Gemm => (self.panel_len(), self.tile_cols(f_in)),
        };
        let (panels, rows, mine) = (self.p / g, self.panel_len(), part_len(axis, g, me));
        let nnz = if bwd { self.nnz.1 } else { self.nnz.0 };
        let strip = |q: usize| {
            let peers = (0..g).filter(|&j| j != me);
            let elems: usize = peers
                .map(|j| part_len(part_len(axis, g, j), chunks, q))
                .sum();
            let width = part_len(mine, chunks, q);
            let conversion = ((elems * fixed * 4) as u64, g - 1);
            let broadcast = (((panels - 1) * rows * width * 4) as u64, panels - 1);
            match op {
                Op::Spmm => Strip {
                    sends: [conversion, broadcast],
                    spmm_fma: (nnz * width) as f64,
                    gemm_fma: 0.0,
                },
                Op::Gemm => Strip {
                    sends: [conversion, (0, 0)],
                    spmm_fma: 0.0,
                    gemm_fma: (width * f_in * f_out) as f64,
                },
            }
        };
        self.pipelines.push((0..chunks).map(strip).collect());
    }

    /// Append the events `steps` produce on this rank.
    pub(crate) fn price(&mut self, steps: &[Step]) {
        for step in steps {
            match *step {
                Step::Convert { to, kind, f, .. } => self.redist(to, kind, f, 1),
                Step::Product {
                    op,
                    f_in,
                    f_out,
                    fed,
                    bwd,
                    ..
                } => {
                    let chunks = if fed { self.chunks } else { 1 };
                    if fed {
                        self.redist(op.form(), TraceCollective::Redistribute, f_in, chunks);
                    }
                    if chunks > 1 {
                        self.pipeline(op, f_in, f_out, bwd);
                    }
                    match op {
                        Op::Spmm => self.spmm(f_in, bwd, chunks),
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
                    self.messages += 2 * (self.p - 1);
                    self.events.push(SchedEvent::AllReduce { bytes });
                }
                Step::Loss => self.messages += self.p - 1,
                Step::Relu { .. } | Step::ReluMask { .. } | Step::Free { .. } => {}
            }
        }
    }
}

/// Predict the events rank `rank` of the `p/r_a × r_a` grid records inside
/// `unit`: its markers, then each part's steps priced on the part's graph,
/// then the messages they send, every fed product's conversion shipped in
/// `chunks` strips. Redistribution bytes are group-scoped, and at
/// `r_a < p` every panel SpMM carries one dense tile
/// [`SchedEvent::Broadcast`].
///
/// # Errors
/// If `r_a` does not divide `p`, `rank` is out of range, or a part's panel
/// counts do not fit the grid — inputs the predictor would otherwise
/// silently misprice.
pub fn predict(
    unit: &Unit,
    p: usize,
    r_a: usize,
    chunks: usize,
    rank: usize,
) -> Result<Vec<UnitEvent>, String> {
    let mut out: Vec<UnitEvent> = unit.markers.iter().map(|&m| UnitEvent::Marker(m)).collect();
    let mut messages = 0;
    for part in &unit.parts {
        let mut pricer = Pricer::new(&part.graph, p, r_a, rank)?;
        pricer.chunks = chunks;
        pricer.price(&part.steps);
        out.extend(pricer.events.into_iter().map(UnitEvent::Sched));
        messages += pricer.messages;
    }
    out.push(UnitEvent::Messages(messages));
    Ok(out)
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

/// Reduce one rank's recorded trace to its units, in order: each
/// `Span::Epoch` or `Span::Batch` with the marker spans and the
/// schedule-level events recorded inside it, then the number of sends it
/// recorded.
///
/// Attribution is kind-aware: a redistribution frame books only sends of
/// its own collective kind, at their dense-equivalent volume (what the
/// predictor prices), and an all-reduce frame only all-reduce sends.
/// `Broadcast`-kind sends — the replicated panels' tile exchange —
/// accumulate wherever they occur (inside each strip kernel span) and are
/// flushed as one [`SchedEvent::Broadcast`] after the SpMM product they
/// carry. Strip kernel spans nested in a redistribution fold into one
/// product event emitted after it.
///
/// # Errors
/// If the trace is malformed: unbalanced spans, a unit opened inside
/// another, broadcast sends with no kernel span to book them, a
/// redistribution that sent more than its dense-equivalent bytes, or strip
/// kernels that do not tile one product.
fn extract(trace: &RankTrace) -> Result<Vec<(Span, Vec<UnitEvent>)>, String> {
    enum Frame {
        Unit,
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
    let flush = |out: &mut Vec<UnitEvent>, pending: &mut u64| {
        if *pending > 0 {
            out.push(UnitEvent::Sched(SchedEvent::Broadcast { bytes: *pending }));
            *pending = 0;
        }
    };
    let rank = trace.rank;
    let mut units = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // The open unit's scope and the events recorded in it so far.
    let (mut scope, mut out): (Option<Span>, Vec<UnitEvent>) = (None, Vec::new());
    let (mut pending_bcast, mut messages) = (0u64, 0usize);
    for (i, e) in trace.events.iter().enumerate() {
        match e.data {
            EventData::Begin(span @ (Span::Epoch { .. } | Span::Batch { .. })) => {
                if scope.replace(span).is_some() {
                    return Err(format!(
                        "rank {rank} event {i}: a unit opened inside another"
                    ));
                }
                stack.push(Frame::Unit);
            }
            EventData::Begin(span) => {
                let frame = match span {
                    _ if scope.is_none() => Frame::Other,
                    Span::Serve { .. } => {
                        out.push(UnitEvent::Marker(span));
                        Frame::Other
                    }
                    Span::Redistribute { from, to, kind, .. } => Frame::Redist {
                        from,
                        to,
                        kind,
                        bytes: 0,
                        dense: 0,
                        product: None,
                    },
                    Span::AllReduce { .. } => Frame::AllReduce { bytes: 0 },
                    _ => match (kernel_event(span), stack.last_mut()) {
                        (None, _) => Frame::Other,
                        // A strip of the product its conversion feeds.
                        (Some(strip), Some(Frame::Redist { product, .. })) => {
                            *product = Some(fold_strip(*product, strip).ok_or_else(|| {
                                format!(
                                    "rank {rank} event {i}: strip {strip} does not continue the \
                                     product of its redistribution"
                                )
                            })?);
                            Frame::Other
                        }
                        (Some(event), _) => {
                            out.push(UnitEvent::Sched(event));
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
                let frame = stack
                    .pop()
                    .ok_or_else(|| format!("rank {rank} event {i}: End with no open span"))?;
                match frame {
                    Frame::Unit => {
                        let span = scope.take().expect("a unit frame has a scope");
                        out.push(UnitEvent::Messages(std::mem::take(&mut messages)));
                        units.push((span, std::mem::take(&mut out)));
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
                                "rank {rank}: redistribution sent {bytes} B, above its \
                                 dense-equivalent {dense} B"
                            ));
                        }
                        out.push(UnitEvent::Sched(SchedEvent::Redist {
                            from,
                            to,
                            kind,
                            bytes: dense,
                        }));
                        if let Some(product) = product {
                            out.push(UnitEvent::Sched(product));
                            if let SchedEvent::Spmm { .. } = product {
                                flush(&mut out, &mut pending_bcast);
                            }
                        }
                    }
                    Frame::AllReduce { bytes } => {
                        out.push(UnitEvent::Sched(SchedEvent::AllReduce { bytes }));
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
                // reductions) is unpriced traffic. Every send in a unit is
                // one of its messages.
                messages += usize::from(scope.is_some());
                if scope.is_some() && kind == TraceCollective::Broadcast {
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
            "rank {rank}: {} span(s) left open at end of trace",
            stack.len()
        ));
    }
    if pending_bcast > 0 {
        return Err(format!(
            "rank {rank}: {pending_bcast} broadcast bytes with no kernel span to book them"
        ));
    }
    Ok(units)
}

/// Every position where `expected` and `got` differ, with both sides.
fn mismatches<'a, T: Copy + PartialEq>(
    expected: &'a [T],
    got: &'a [T],
) -> impl Iterator<Item = (usize, Option<T>, Option<T>)> + 'a {
    (0..expected.len().max(got.len()))
        .map(|i| (i, expected.get(i).copied(), got.get(i).copied()))
        .filter(|(_, e, g)| e != g)
}

/// Check a whole recorded run (all ranks; `P` is `traces.len()`) against
/// the prediction for `units` on the `P/r_a × r_a` grid, its fed products
/// pipelined `chunks` deep (`1`: blocking): each rank must
/// record exactly these units, in order, each with its scope and the events
/// [`predict`] gives it. Returns every violation — empty means the run
/// conformed.
///
/// # Errors
/// If there are no traces or no units, any trace is malformed (see
/// `extract`), or a unit is outside the predictor's scope.
pub fn check(
    traces: &[RankTrace],
    r_a: usize,
    chunks: usize,
    units: &[Unit],
) -> Result<Vec<Violation>, String> {
    let p = traces.len();
    if p == 0 {
        return Err("need at least one rank trace".into());
    }
    if units.is_empty() {
        return Err("need at least one unit to check".into());
    }
    let scopes: Vec<Span> = units.iter().map(|u| u.scope).collect();
    let mut violations = Vec::new();
    for trace in traces {
        trace.validate_nesting()?;
        let rank = trace.rank;
        let recorded = extract(trace)?;
        let got: Vec<Span> = recorded.iter().map(|(scope, _)| *scope).collect();
        for (_, e, g) in mismatches(&scopes, &got) {
            violations.push(Violation {
                rank,
                unit: e.or(g).expect("a mismatch has a side"),
                index: 0,
                expected: e.map(UnitEvent::Scope),
                got: g.map(UnitEvent::Scope),
            });
        }
        for (unit, (_, got)) in units.iter().zip(&recorded) {
            let expected = predict(unit, p, r_a, chunks, rank)?;
            violations.extend(
                mismatches(&expected, got).map(|(index, expected, got)| Violation {
                    rank,
                    unit: unit.scope,
                    index,
                    expected,
                    got,
                }),
            );
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrderConfig;
    use crate::schedule::{schedule, Entry};
    use rdm_trace::Event;

    /// The test graph: 140 vertices, 1100 nonzeros, widths 16 → 16 → 5.
    const N: usize = 140;
    const NNZ: usize = 1100;
    const FEATS: [usize; 3] = [16, 16, 5];

    /// Epoch 0 of `cfg` on the test graph with these panel populations.
    fn epoch_unit(
        cfg: &OrderConfig,
        memoize: bool,
        nnz: &[usize],
        nnz_t: Option<&[usize]>,
    ) -> Result<Unit, String> {
        let graph = Graph {
            n: N,
            panel_nnz: nnz.to_vec(),
            panel_nnz_t: nnz_t.map(<[usize]>::to_vec),
        };
        let steps = schedule(cfg, memoize, &FEATS, Entry::Both, true)?;
        Ok(Unit {
            scope: Span::Epoch { idx: 0 },
            markers: Vec::new(),
            parts: vec![Part { steps, graph }],
        })
    }

    fn sched(events: Vec<UnitEvent>) -> Vec<SchedEvent> {
        let sched = |e| match e {
            UnitEvent::Sched(s) => Some(s),
            _ => None,
        };
        events.into_iter().filter_map(sched).collect()
    }

    /// Rank `rank`'s predicted epoch schedule on the `p/r_a × r_a` grid.
    fn predict_epoch(
        cfg: &OrderConfig,
        memoize: bool,
        (p, r_a, rank): (usize, usize, usize),
        nnz: &[usize],
        nnz_t: Option<&[usize]>,
    ) -> Result<Vec<SchedEvent>, String> {
        let unit = epoch_unit(cfg, memoize, nnz, nnz_t)?;
        Ok(sched(predict(&unit, p, r_a, 1, rank)?))
    }

    /// The schedule events of the first unit `trace` recorded.
    fn extract_epoch(trace: &RankTrace) -> Result<Vec<SchedEvent>, String> {
        let (_, events) = extract(trace)?.into_iter().next().ok_or("no unit")?;
        Ok(sched(events))
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
            let ev = predict_epoch(&cfg, true, (1, 1, 0), &[NNZ], None).unwrap();
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
        let ev = predict_epoch(&cfg, true, (4, 4, 1), &[NNZ], None).unwrap();
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
        let with = predict_epoch(&cfg, true, (4, 4, 0), &[NNZ], None).unwrap();
        let without = predict_epoch(&cfg, false, (4, 4, 0), &[NNZ], None).unwrap();
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
        for p in [2usize, 3, 4, 7] {
            let cfg = OrderConfig::from_id(0, 2);
            let mut totals = [0u64; 3];
            for r in 0..p {
                let ev = predict_epoch(&cfg, true, (p, p, r), &[NNZ], None).unwrap();
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
                let kept: usize = (0..p).map(|r| part_len(N, p, r) * part_len(f, p, r)).sum();
                ((N * f - kept) * 4) as u64
            };
            assert_eq!(totals[0], expect(FEATS[0]), "p={p}");
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
        let got = extract_epoch(&trace).unwrap();
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
        let v: Vec<Violation> = mismatches(&expected, &got)
            .map(|(index, e, g)| Violation {
                rank: 2,
                unit: Span::Epoch { idx: 0 },
                index,
                expected: e.map(UnitEvent::Sched),
                got: g.map(UnitEvent::Sched),
            })
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 1);
        let msg = v[0].to_string();
        assert!(msg.contains("rank 2 epoch 0 event 1"), "{msg}");
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
        let got = extract_epoch(&trace).unwrap();
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
        let err = extract_epoch(&trace).unwrap_err();
        assert!(err.contains("above its dense-equivalent"), "{err}");
    }

    #[test]
    fn replicated_panel_prediction_prices_group_bytes_and_broadcasts() {
        // P=4, R_A=2 on the 140-vertex shape: rank 1 sits at panel 0,
        // position 1. Its panel spans rows [0, 70), its width-16 tile
        // keeps 8 columns.
        let (p, r_a) = (4usize, 2usize);
        let panel_nnz = [620usize, 480];
        let cfg = OrderConfig::from_id(0, 2);
        let ev = predict_epoch(&cfg, true, (p, r_a, 1), &panel_nnz, None).unwrap();

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
        let full = predict_epoch(&cfg, true, (p, p, 1), &[NNZ], None).unwrap();
        assert!(!full
            .iter()
            .any(|e| matches!(e, SchedEvent::Broadcast { .. })));

        // R_A = 1 (fully partitioned adjacency): single-member row groups
        // move no redistribution bytes; all traffic is tile broadcasts.
        let parted: Vec<usize> = (0..p).map(|r| 200 + r * 50).collect();
        let parted = {
            let mut v = parted;
            let slack = NNZ - v.iter().sum::<usize>();
            v[0] += slack;
            v
        };
        let ev1 = predict_epoch(&cfg, true, (p, 1, 2), &parted, None).unwrap();
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
        let cfg = OrderConfig::from_id(0, 2);
        let err = predict_epoch(&cfg, true, (4, 3, 0), &[NNZ], None).unwrap_err();
        assert!(err.contains("must divide"), "{err}");
        let err = predict_epoch(&cfg, true, (4, 2, 4), &[600, 500], None).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = predict_epoch(&cfg, true, (4, 2, 0), &[NNZ], None).unwrap_err();
        assert!(err.contains("panel nonzero counts"), "{err}");
        let err = predict_epoch(&cfg, true, (4, 2, 0), &[600, 500], Some(&[600, 600])).unwrap_err();
        assert!(
            err.contains("sum to 1200, the adjacency's to 1100"),
            "{err}"
        );
    }

    #[test]
    fn transpose_panel_counts_price_backward_spmms_only() {
        // An asymmetric aggregation's transpose has its own per-panel
        // population; it prices the backward SpMMs and must be well formed.
        let cfg = OrderConfig::from_id(0, 2);
        let sym = predict_epoch(&cfg, true, (4, 2, 1), &[620, 480], None).unwrap();
        let asym = predict_epoch(&cfg, true, (4, 2, 1), &[620, 480], Some(&[500, 600])).unwrap();
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
        let err = predict_epoch(&cfg, true, (4, 2, 0), &[620, 480], Some(&[NNZ])).unwrap_err();
        assert!(err.contains("panel nonzero counts"), "{err}");
    }

    /// A trace of empty epochs `idxs`, one rank.
    fn empty_epochs(rank: usize, idxs: &[usize]) -> RankTrace {
        let events = idxs
            .iter()
            .flat_map(|&idx| [EventData::Begin(Span::Epoch { idx }), EventData::End]);
        let events = events.enumerate().map(|(i, data)| Event {
            seq: i as u64,
            ts_ns: i as u64,
            data,
        });
        RankTrace {
            rank,
            events: events.collect(),
        }
    }

    #[test]
    fn out_of_scope_inputs_are_errors_not_panics() {
        // A shape whose widths do not match the plan's layer count.
        let three = OrderConfig::from_id(0, 3);
        let err = predict_epoch(&three, true, (2, 2, 0), &[NNZ], None).unwrap_err();
        assert!(err.contains("layer widths"), "{err}");
        let unit = epoch_unit(&OrderConfig::from_id(0, 2), true, &[NNZ], None).unwrap();
        let traces = [empty_epochs(0, &[0]), empty_epochs(1, &[0])];
        let err = check(&traces, 3, 1, std::slice::from_ref(&unit)).unwrap_err();
        assert!(err.contains("must divide"), "{err}");
        let err = check(&[], 1, 1, &[unit]).unwrap_err();
        assert!(err.contains("at least one rank trace"), "{err}");
        let err = check(&traces, 2, 1, &[]).unwrap_err();
        assert!(err.contains("at least one unit"), "{err}");
    }

    #[test]
    fn a_unit_missing_extra_or_rescoped_is_a_violation() {
        // Rank 1 recorded an extra epoch that was never predicted, rank 2
        // one too few, rank 3 another epoch than the prediction's: each is
        // one violation on its scope, whatever the schedule inside.
        let cfg = OrderConfig::from_id(0, 2);
        let mut unit = epoch_unit(&cfg, true, &[NNZ], None).unwrap();
        unit.parts.clear();
        let units = [
            unit.clone(),
            Unit {
                scope: Span::Epoch { idx: 1 },
                ..unit
            },
        ];
        let traces = [
            empty_epochs(0, &[0, 1]),
            empty_epochs(1, &[0, 1, 2]),
            empty_epochs(2, &[0]),
            empty_epochs(3, &[0, 3]),
        ];
        let v = check(&traces, 4, 1, &units).unwrap();
        let epoch = |idx| Some(UnitEvent::Scope(Span::Epoch { idx }));
        let got: Vec<_> = v.iter().map(|v| (v.rank, v.expected, v.got)).collect();
        let want = [
            (1, None, epoch(2)),
            (2, epoch(1), None),
            (3, epoch(1), epoch(3)),
        ];
        assert_eq!(got, want);
        let msgs: Vec<String> = v.iter().map(Violation::to_string).collect();
        assert_eq!(
            msgs,
            [
                "rank 1 epoch 2 event 0: unexpected trailing event epoch 2 begin",
                "rank 2 epoch 1 event 0: expected epoch 1 begin, but the trace ended",
                "rank 3 epoch 1 event 0: expected epoch 1 begin, got epoch 3 begin",
            ]
        );
    }

    /// A batch unit of `cfg`'s forward half (the held-`Â·H⁰` one with
    /// `held`) admitting `reqs` requests.
    fn batch_unit(cfg: &OrderConfig, held: bool, reqs: usize, graph: Graph) -> Unit {
        let serve = |c| Span::Serve {
            client: c,
            req_id: 7,
        };
        let entry = if held { Entry::Held } else { Entry::Both };
        let steps = crate::schedule::forward_schedule(cfg, true, &FEATS, entry).unwrap();
        Unit {
            scope: Span::Batch { idx: 3, size: reqs },
            markers: (0..reqs).map(serve).collect(),
            parts: vec![Part { steps, graph }],
        }
    }

    #[test]
    fn a_batch_predicts_its_markers_then_its_forward() {
        let cfg = OrderConfig::from_id(0, 2);
        let ev = predict(
            &batch_unit(&cfg, false, 2, Graph::even(N, NNZ, 1)),
            2,
            2,
            1,
            1,
        )
        .unwrap();
        let serve = |client| UnitEvent::Marker(Span::Serve { client, req_id: 7 });
        assert_eq!(ev[..2], [serve(0), serve(1)]);
        assert_eq!(ev[2].to_string(), "spmm 140x8 nnz=1100");
        let (messages, forward) = ev[2..].split_last().unwrap();
        assert!(forward.iter().all(|e| matches!(e, UnitEvent::Sched(_))));
        // At P = R_A = 2 each conversion is one message, and a forward
        // sends nothing else.
        let redists = forward
            .iter()
            .filter(|e| e.to_string().starts_with("redist"));
        assert_eq!(*messages, UnitEvent::Messages(redists.count()));
    }

    /// A batch that holds `Â·H⁰` prices the plan's forward from layer 1's
    /// GEMM on: no layer-1 SpMM, panel broadcast or Col→Row exchange, on
    /// every grid. A GEMM-first layer 1 has no held forward.
    #[test]
    fn a_held_batch_starts_at_layer_one_gemm() {
        let cfg = OrderConfig::from_id(0, 2);
        for (p, r_a, nnz) in [
            (2, 2, vec![NNZ]),
            (4, 2, vec![620, 480]),
            (4, 1, vec![275; 4]),
        ] {
            for rank in 0..p {
                let graph = Graph {
                    n: N,
                    panel_nnz: nnz.clone(),
                    panel_nnz_t: None,
                };
                let priced = |held| {
                    let unit = batch_unit(&cfg, held, 0, graph.clone());
                    sched(predict(&unit, p, r_a, 1, rank).unwrap())
                };
                let (first, later) = (priced(false), priced(true));
                let gemm = first
                    .iter()
                    .position(|e| matches!(e, SchedEvent::Gemm { .. }))
                    .unwrap();
                assert_eq!(later[..], first[gemm..], "P {p} r_a {r_a} rank {rank}");
            }
        }
        let gemm_first = OrderConfig::from_id(3, 2);
        let held = crate::schedule::forward_schedule(&gemm_first, true, &FEATS, Entry::Held);
        assert!(held.is_err());
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
                let got = extract_epoch(&trace(body)).unwrap();
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
            extract_epoch(&trace(body)).unwrap(),
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
        let err = extract_epoch(&trace(ragged.concat())).unwrap_err();
        assert!(err.contains("does not continue"), "{err}");
        let dangling = vec![send(TraceCollective::Broadcast, 64)];
        let err = extract_epoch(&trace(dangling)).unwrap_err();
        assert!(err.contains("no kernel span"), "{err}");
    }
}
