//! Serving-session schedule model: the frozen-weight aggregation-cache
//! directory and the per-batch schedule-conformance checker.
//!
//! Serving freezes the weights and the adjacency, so the layer-1
//! aggregation `T = Â·H⁰` is a constant of the session — any row of it,
//! once computed, can be cached and replayed staleness-free. [`CacheSim`]
//! is the *shared-seed directory* of that cache: a pure function of the
//! request stream (capacity-bounded, per-owner-rank FIFO), replicated
//! bit-identically on every rank by `rdm-core`'s executor and re-derived
//! here by the conformance checker. Both sides also read one step list
//! (`crate::schedule`): the executor runs its forward half, and
//! [`predict_session`] prices it batch by batch. Because both run the same
//! directory simulation, the pricer knows exactly which SpMM rows the
//! executor skipped and which redistribution strips never crossed the
//! wire — every batch's cache-pruned `Redist` frame is priced from the
//! directory state alone — and [`check_session`] diffs a recorded serving
//! trace against it the way `check_run` does for training epochs.

use crate::config::{Order, OrderConfig};
use crate::conformance::{part_len, walk_schedule, Pricer, SchedEvent, Walked};
use crate::cost::GnnShape;
use crate::schedule::{schedule, Step};
use rdm_trace::{RankTrace, Span};
use std::collections::VecDeque;
use std::fmt;

/// What one [`CacheSim::admit`] call did, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Request targets that were cached when the batch opened.
    pub hits: u64,
    /// Request targets that were not (each occurrence counts).
    pub misses: u64,
    /// Fill steps in order: each inserts one vertex, evicting at most one
    /// (the owner rank's FIFO head) first. Empty means the directory did
    /// not change — the next batch reuses this batch's exchange shapes.
    pub steps: Vec<(Option<u32>, u32)>,
}

impl AdmitOutcome {
    /// Did this batch change the directory (and therefore the shapes of
    /// the next batch's cache-pruned exchange)?
    pub fn changed(&self) -> bool {
        !self.steps.is_empty()
    }
}

/// The deterministic directory of the layer-0 aggregation cache.
///
/// Every rank holds `capacity` full-width rows of `T = Â·H⁰` for vertices
/// it owns (the balanced row partition). Admission is FIFO per owner rank:
/// a batch's request targets are classified against the directory *as of
/// batch open* (hits never refresh recency — FIFO, not LRU, so eviction
/// order is a pure function of insertion order), then each unique missed
/// target is inserted, evicting the owner's oldest entry when full.
#[derive(Clone, Debug)]
pub struct CacheSim {
    n: usize,
    p: usize,
    capacity: usize,
    cached: Vec<bool>,
    fifo: Vec<VecDeque<u32>>,
    /// Session totals (sums of the per-batch outcomes).
    pub hits: u64,
    pub misses: u64,
}

impl CacheSim {
    /// A cold directory for an `n`-vertex graph over `p` ranks with
    /// `capacity` rows per rank. `capacity == 0` disables admission (every
    /// target is a miss, nothing is ever cached).
    pub fn new(n: usize, p: usize, capacity: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        CacheSim {
            n,
            p,
            capacity,
            cached: vec![false; n],
            fifo: vec![VecDeque::new(); p],
            hits: 0,
            misses: 0,
        }
    }

    /// The rank owning vertex `v`'s row under the balanced partition
    /// (identical to `rdm_dense::part_range`).
    pub fn owner(&self, v: u32) -> usize {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} outside graph of {}", self.n);
        let base = self.n / self.p;
        let extra = self.n % self.p;
        let cut = extra * (base + 1);
        if v < cut {
            v / (base + 1)
        } else {
            extra + (v - cut) / base.max(1)
        }
    }

    /// Is `v` currently cached?
    pub fn is_cached(&self, v: u32) -> bool {
        self.cached[v as usize]
    }

    /// Per-vertex cached flags — the executor's SpMM row-skip mask.
    pub fn mask(&self) -> &[bool] {
        &self.cached
    }

    /// How many of rank `r`'s vertices are cached (its skipped strip rows).
    pub fn cached_in_rank(&self, r: usize) -> usize {
        self.fifo[r].len()
    }

    /// Total cached vertices across all ranks.
    pub fn cached_total(&self) -> usize {
        self.fifo.iter().map(|q| q.len()).sum()
    }

    /// Per-rank row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Close one batch: classify `targets` against the directory as of
    /// batch open, then insert each unique missed target (first-occurrence
    /// order), evicting the owner rank's oldest entry when its FIFO is
    /// full.
    pub fn admit(&mut self, targets: &[u32]) -> AdmitOutcome {
        let mut out = AdmitOutcome::default();
        let mut fresh: Vec<u32> = Vec::new();
        for &t in targets {
            if self.cached[t as usize] {
                out.hits += 1;
            } else {
                out.misses += 1;
                if !fresh.contains(&t) {
                    fresh.push(t);
                }
            }
        }
        if self.capacity > 0 {
            for v in fresh {
                let o = self.owner(v);
                let evicted = if self.fifo[o].len() == self.capacity {
                    let old = self.fifo[o].pop_front().expect("full FIFO");
                    self.cached[old as usize] = false;
                    Some(old)
                } else {
                    None
                };
                self.fifo[o].push_back(v);
                self.cached[v as usize] = true;
                out.steps.push((evicted, v));
            }
        }
        self.hits += out.hits;
        self.misses += out.misses;
        out
    }
}

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

/// One batch of the serving schedule, as the predictor needs it: the
/// admission markers and the request targets that drive the cache
/// directory. A pure function of the shared request stream, so harnesses
/// rebuild it from `rdm_serve::planned_batches`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionBatch {
    pub idx: usize,
    /// `(client, req_id)` per admitted request, in admission order.
    pub requests: Vec<(usize, u64)>,
    /// Request target vertices, in admission order.
    pub targets: Vec<u32>,
}

/// Predict the serving-schedule event sequence rank `rank` of the
/// `p/r_a × r_a` grid produces for a full-graph serving session of
/// `batches` under `config`, with a `cache_rows`-per-rank layer-0
/// aggregation cache (`0` = off): the forward half of the plan's
/// [`schedule`], priced per batch as [`crate::conformance::predict_epoch`]
/// prices an epoch; `panel_nnz[k]` is the nonzero count of panel `k`'s row
/// slice of the adjacency (full replication: `r_a = p, panel_nnz =
/// [shape.nnz]`).
///
/// The cache prunes layer 1's intra-layer Col→Row exchange only when the
/// plan runs that layer SpMM-first (the cached tensor *is* the SpMM
/// output); under a GemmFirst first layer the cache is inert and the
/// schedule equals the uncached one. Bytes of the pruned exchange follow
/// the directory state at each batch's open, replayed by [`CacheSim`].
///
/// # Errors
/// If `r_a` does not divide `p`, `rank` is out of range, `panel_nnz` is
/// inconsistent with the grid, or `cache_rows > 0` at `r_a < p` (the
/// layer-0 aggregation cache indexes the fully replicated adjacency), or
/// `shape` has no width per layer boundary of `config` — inputs the
/// predictor would otherwise silently misprice.
#[allow(clippy::too_many_arguments)]
pub fn predict_session(
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    p: usize,
    r_a: usize,
    rank: usize,
    batches: &[SessionBatch],
    cache_rows: usize,
    panel_nnz: &[usize],
) -> Result<Vec<ServeEvent>, String> {
    if cache_rows > 0 && r_a != p {
        return Err(format!(
            "the layer-0 aggregation cache indexes the fully replicated \
             adjacency: r_a {r_a} < P {p} cannot cache"
        ));
    }
    let mut pricer = Pricer::new(shape, p, r_a, rank, panel_nnz, None)?;
    let cached = cache_rows > 0 && config.forward[0] == Order::SpmmFirst;
    let steps = schedule(config, memoize, &shape.feats, cached)?;
    let loss = steps
        .iter()
        .position(|s| *s == Step::Loss)
        .unwrap_or(steps.len());
    let mut sim = CacheSim::new(shape.n, p, cache_rows);
    let cols_me = part_len(shape.feats[0], p, rank);
    let mut out = Vec::new();
    for b in batches {
        out.push(ServeEvent::BatchBegin {
            idx: b.idx,
            size: b.requests.len(),
        });
        for &(client, req_id) in &b.requests {
            out.push(ServeEvent::Serve { client, req_id });
        }
        // The cache-pruned exchange ships every unskipped remote row of
        // this rank's column slice: Σ_{j≠me} (rows_j − cached_j)·cols_me.
        let layer1_bytes = (0..p)
            .filter(|&j| j != rank)
            .map(|j| ((part_len(shape.n, p, j) - sim.cached_in_rank(j)) * cols_me * 4) as u64)
            .sum();
        pricer.price(&steps[..loss], layer1_bytes);
        out.extend(pricer.events.drain(..).map(ServeEvent::Sched));
        out.push(ServeEvent::BatchEnd);
        if cached {
            sim.admit(&b.targets);
        }
    }
    Ok(out)
}

/// Reduce one rank's recorded serving trace to [`ServeEvent`]s. The same
/// reducer as `extract_epoch`, keyed on `Span::Batch` instead of
/// `Span::Epoch`: traffic outside a batch (barriers) is ignored, `Redist`
/// frames are priced at their dense-equivalent volume (hard error if the
/// wire sent more), and `Retry`/`OverlapStrip`/`AggCache` instants are
/// transparent — a pipelined, chaotic or cache-instrumented session
/// extracts to the same schedule as a plain one with the same shapes.
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
#[allow(clippy::too_many_arguments)]
pub fn check_session(
    traces: &[RankTrace],
    shape: &GnnShape,
    config: &OrderConfig,
    memoize: bool,
    batches: &[SessionBatch],
    cache_rows: usize,
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
            shape, config, memoize, p, r_a, trace.rank, batches, cache_rows, panel_nnz,
        )?;
        let got = extract_session(trace)?;
        violations.extend(diff_session(trace.rank, &expected, &got));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_matches_the_balanced_partition() {
        let sim = CacheSim::new(10, 3, 4);
        // 10 over 3: ranks own [0,4), [4,7), [7,10).
        let owners: Vec<usize> = (0..10).map(|v| sim.owner(v)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        for r in 0..3 {
            let n_r = owners.iter().filter(|&&o| o == r).count();
            assert_eq!(n_r, part_len(10, 3, r));
        }
    }

    #[test]
    fn admission_counts_against_the_batch_open_directory() {
        let mut sim = CacheSim::new(16, 2, 4);
        // First batch: all misses, including the duplicate.
        let out = sim.admit(&[1, 2, 1]);
        assert_eq!((out.hits, out.misses), (0, 3));
        // Duplicates insert once.
        assert_eq!(out.steps, vec![(None, 1), (None, 2)]);
        assert_eq!(sim.cached_in_rank(0), 2);
        // Second batch: 1 and 2 now hit; a miss on the same vertices
        // within the batch would still be a hit (directory at open).
        let out = sim.admit(&[1, 2, 9]);
        assert_eq!((out.hits, out.misses), (2, 1));
        assert_eq!(out.steps, vec![(None, 9)]);
        assert_eq!((sim.hits, sim.misses), (2, 4));
    }

    #[test]
    fn eviction_is_fifo_per_owner_and_capacity_is_never_exceeded() {
        let mut sim = CacheSim::new(8, 1, 2);
        sim.admit(&[0, 1]);
        // 2 is the third distinct vertex: evicts 0 (oldest), not 1.
        let out = sim.admit(&[2]);
        assert_eq!(out.steps, vec![(Some(0), 2)]);
        assert!(!sim.is_cached(0));
        assert!(sim.is_cached(1) && sim.is_cached(2));
        assert_eq!(sim.cached_in_rank(0), 2);
        // Hits do not refresh recency: hitting 1 then inserting 3 still
        // evicts 1 (FIFO, not LRU).
        let out = sim.admit(&[1, 3]);
        assert_eq!(out.hits, 1);
        assert_eq!(out.steps, vec![(Some(1), 3)]);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut sim = CacheSim::new(8, 2, 0);
        let out = sim.admit(&[0, 1, 2]);
        assert_eq!(out.misses, 3);
        assert!(!out.changed());
        assert_eq!(sim.cached_total(), 0);
        assert_eq!(sim.admit(&[0]).misses, 1);
    }

    #[test]
    fn prediction_interleaves_markers_and_schedules_per_batch() {
        let shape = GnnShape {
            n: 24,
            nnz: 100,
            feats: vec![8, 6, 4],
        };
        let cfg = OrderConfig::from_id(0, 2); // all SpMM-first
        let batches = vec![
            SessionBatch {
                idx: 0,
                requests: vec![(0, 0), (1, 0)],
                targets: vec![3, 9],
            },
            SessionBatch {
                idx: 1,
                requests: vec![(0, 1)],
                targets: vec![3],
            },
        ];
        // Targets 3 and 9 are owned by rank 0, so rank 1's sends *to*
        // rank 0 shrink once they are cached — predict rank 1's schedule.
        let ev = predict_session(&shape, &cfg, true, 2, 2, 1, &batches, 4, &[shape.nnz]).unwrap();
        // Two batches, each bracketed.
        let begins = ev
            .iter()
            .filter(|e| matches!(e, ServeEvent::BatchBegin { .. }))
            .count();
        let ends = ev
            .iter()
            .filter(|e| matches!(e, ServeEvent::BatchEnd))
            .count();
        assert_eq!((begins, ends), (2, 2));
        assert_eq!(ev[0], ServeEvent::BatchBegin { idx: 0, size: 2 });
        assert_eq!(
            ev[1],
            ServeEvent::Serve {
                client: 0,
                req_id: 0
            }
        );
        assert_eq!(
            ev[2],
            ServeEvent::Serve {
                client: 1,
                req_id: 0
            }
        );
        // Batch 0 opens cold: its layer-1 exchange is full-volume. Batch 1
        // opens with 3 and 9 cached, so its exchange is strictly smaller.
        let redists: Vec<u64> = ev
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Sched(SchedEvent::Redist { bytes, .. }) => Some(*bytes),
                _ => None,
            })
            .collect();
        // Per batch: layer-1 exchange, layer-2 Row→Col, loss boundary is
        // free (layer 2 SpmmFirst output is row-sliced)... count and
        // compare the first redistribution of each batch.
        let per_batch = redists.len() / 2;
        assert!(per_batch >= 2, "expected ≥2 redists per batch");
        assert!(
            redists[per_batch] < redists[0],
            "cached batch 1 exchange {} not below cold batch 0 {}",
            redists[per_batch],
            redists[0]
        );
    }

    #[test]
    fn uncached_prediction_is_batch_invariant_and_gemm_first_is_inert() {
        let shape = GnnShape {
            n: 24,
            nnz: 100,
            feats: vec![8, 6, 4],
        };
        let batches = vec![
            SessionBatch {
                idx: 0,
                requests: vec![(0, 0)],
                targets: vec![5],
            },
            SessionBatch {
                idx: 1,
                requests: vec![(0, 1)],
                targets: vec![5],
            },
        ];
        // GemmFirst layer 1: cache on and off predict identical schedules.
        let cfg = OrderConfig::from_id(3, 2);
        assert_eq!(cfg.forward[0], Order::GemmFirst);
        let on = predict_session(&shape, &cfg, true, 2, 2, 1, &batches, 8, &[shape.nnz]).unwrap();
        let off = predict_session(&shape, &cfg, true, 2, 2, 1, &batches, 0, &[shape.nnz]).unwrap();
        assert_eq!(on, off);
    }

    #[test]
    fn a_session_without_traces_is_an_error() {
        let shape = GnnShape {
            n: 24,
            nnz: 100,
            feats: vec![8, 6, 4],
        };
        let cfg = OrderConfig::from_id(0, 2);
        let err = check_session(&[], &shape, &cfg, true, &[], 0, 1, &[shape.nnz]).unwrap_err();
        assert!(err.contains("at least one rank trace"), "{err}");
    }
}
