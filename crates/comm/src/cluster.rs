//! The SPMD execution driver.

use crate::fault::FaultPlan;
use crate::feed::{Feed, Intake, RING};
use crate::mailbox::{Barrier, Fabric};
use crate::stats::{CollectiveKind, CommStats};
use rdm_dense::{pool, Mat};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A fixed-size group of ranks (the simulated multi-GPU node).
///
/// [`Cluster::run`] executes one SPMD closure on every rank concurrently;
/// ranks may only interact through the [`RankCtx`] passed to the closure.
/// [`Cluster::with_faults`] makes every run's fabric misbehave per a seeded
/// [`FaultPlan`] — the retrying envelope protocol still delivers everything
/// in order, so SPMD results are unchanged while `retries` /
/// `retransmit_bytes` show up in the returned [`CommStats`].
/// [`Cluster::traced`] installs a per-rank `rdm_trace` recorder for the
/// run, collecting every send/retry/span into [`RunOutput::traces`].
pub struct Cluster {
    p: usize,
    plan: Option<FaultPlan>,
    trace: bool,
}

/// Per-rank results of a [`Cluster::run`].
pub struct RunOutput<T> {
    /// Closure return value of each rank, indexed by rank.
    pub results: Vec<T>,
    /// Communication statistics of each rank, indexed by rank.
    pub stats: Vec<CommStats>,
    /// Structured event traces of each rank, indexed by rank; `Some` only
    /// for [`Cluster::traced`] clusters.
    pub traces: Option<Vec<rdm_trace::RankTrace>>,
}

impl Cluster {
    /// A cluster of `p` ranks.
    ///
    /// # Panics
    /// If `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "cluster needs at least one rank");
        Cluster {
            p,
            plan: None,
            trace: false,
        }
    }

    /// A cluster whose fabric injects the faults described by `plan`.
    ///
    /// # Panics
    /// If `p == 0`.
    pub fn with_faults(p: usize, plan: FaultPlan) -> Self {
        assert!(p > 0, "cluster needs at least one rank");
        Cluster {
            p,
            plan: Some(plan),
            trace: false,
        }
    }

    /// Record a structured event trace on every rank of every run.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The fault plan every run's fabric will follow, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Run `f` on every rank concurrently and wait for all to finish.
    ///
    /// The closure receives a [`RankCtx`] scoped to its rank. Each rank's
    /// kernels run on `max(1, cores / P)` of the host's cores
    /// ([`rdm_dense::rank_share`]), so no rank's kernels recruit helper
    /// threads onto another rank's cores. After all ranks return, the
    /// fabric is checked for unconsumed messages — leaving any behind
    /// indicates mismatched collective calls and panics.
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        self.run_hosted(|| Ok(()), f).1
    }

    /// [`Cluster::run`], with `host` run on the calling thread while the
    /// ranks run: it [`Feed::fill`]s `arenas` with the items every rank
    /// reads in order through its [`Intake`] (see [`crate::feed`]). The
    /// arenas come back with the host's result, for the caller to keep
    /// for its next run.
    ///
    /// # Panics
    /// With the host's panic if `host` panics: every rank waiting on an
    /// item the host never fed panics instead of hanging, and the run
    /// re-raises the host's panic once all ranks have left.
    pub fn run_fed<A, H, T, G, F>(
        &self,
        arenas: [A; RING],
        host: G,
        f: F,
    ) -> (H, [A; RING], RunOutput<T>)
    where
        A: Send + Sync,
        T: Send,
        G: FnOnce(&Feed<A>) -> H,
        F: Fn(&RankCtx, &Intake<A>) -> T + Sync,
    {
        let feed = Feed::new(self.p, arenas);
        let host = || {
            let hosted = panic::catch_unwind(AssertUnwindSafe(|| host(&feed)));
            feed.end(hosted.is_err());
            hosted
        };
        let (hosted, out) = self.run_hosted(host, |ctx| f(ctx, &feed.intake(ctx.rank())));
        (hosted, feed.into_arenas(), out)
    }

    /// Run `f` on every rank and `host` on the calling thread meanwhile,
    /// then join the ranks; a host that failed fails the run with its
    /// panic once every rank has left.
    fn run_hosted<H, T, F>(
        &self,
        host: impl FnOnce() -> std::thread::Result<H>,
        f: F,
    ) -> (H, RunOutput<T>)
    where
        T: Send,
        F: Fn(&RankCtx) -> T + Sync,
    {
        let fabric = Arc::new(Fabric::with_faults(self.p, self.plan));
        let barrier = Arc::new(Barrier::new(self.p));
        let clearing = Arc::new(Clearing::default());
        let trace = self.trace;
        let share = rdm_dense::rank_share(self.p);
        type Slot<T> = Option<(T, CommStats, Option<rdm_trace::RankTrace>)>;
        let mut slots: Vec<Slot<T>> = (0..self.p).map(|_| None).collect();
        let hosted = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.p);
            for (rank, slot) in slots.iter_mut().enumerate() {
                let fabric = fabric.clone();
                let barrier = barrier.clone();
                let clearing = clearing.clone();
                let f = &f;
                handles.push(scope.spawn(move || {
                    if trace {
                        rdm_trace::install(rank);
                    }
                    let reserve = clearing.clone();
                    pool::draw_on(Some(Box::new(move |d| reserve.lend(d))));
                    let ctx = RankCtx {
                        rank,
                        fabric,
                        barrier,
                        clearing,
                        stats: RefCell::new(CommStats::default()),
                    };
                    let out = rdm_dense::with_share(share, || f(&ctx));
                    *slot = Some((out, ctx.stats.into_inner(), rdm_trace::uninstall()));
                }));
            }
            let hosted = host();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            match hosted {
                Ok(h) => {
                    for j in joined {
                        j.expect("rank thread panicked");
                    }
                    h
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        });
        assert!(
            fabric.all_drained(),
            "unconsumed messages left in the fabric: mismatched collectives"
        );
        let mut results = Vec::with_capacity(self.p);
        let mut stats = Vec::with_capacity(self.p);
        let mut traces = Vec::with_capacity(self.p);
        for s in slots {
            let (r, st, tr) = s.expect("rank produced no result");
            results.push(r);
            stats.push(st);
            traces.extend(tr);
        }
        let out = RunOutput {
            results,
            stats,
            traces: trace.then_some(traces),
        };
        (hosted, out)
    }
}

/// Where the ranks' workspace pools even out, at each barrier, the buffers
/// messages moved between them: ranks that received more buffers of a
/// class than they sent pay idle ones in before the barrier, the last
/// rank to arrive puts them in the reserve, and any rank whose shelf is
/// out of a class draws on it before allocating
/// ([`rdm_dense::pool::draw_on`]). The reserve changes only while every
/// rank waits at a barrier, so how many buffers each unit finds there is a
/// function of the run's schedule, not of thread timing.
#[derive(Default)]
struct Clearing {
    state: Mutex<ClearingState>,
}

#[derive(Default)]
struct ClearingState {
    /// Paid in since the last barrier: `(class, buffer)`.
    paid: Vec<(usize, Vec<f32>)>,
    /// Idle buffers any rank may draw, by size class.
    reserve: BTreeMap<usize, Vec<Vec<f32>>>,
}

impl Clearing {
    fn lock(&self) -> std::sync::MutexGuard<'_, ClearingState> {
        self.state.lock().expect("no rank panics while clearing")
    }

    /// Run by the last rank to arrive at a barrier: what was paid in
    /// joins the reserve.
    fn open(&self) {
        let st = &mut *self.lock();
        for (d, v) in st.paid.drain(..) {
            st.reserve.entry(d).or_default().push(v);
        }
    }

    /// An idle buffer of class `d`, if the reserve holds one.
    fn lend(&self, d: usize) -> Option<Vec<f32>> {
        self.lock().reserve.get_mut(&d)?.pop()
    }
}

/// Handle through which a rank communicates. Created by [`Cluster::run`];
/// one per rank, not `Send` (it belongs to its thread).
pub struct RankCtx {
    rank: usize,
    fabric: Arc<Fabric>,
    barrier: Arc<Barrier>,
    clearing: Arc<Clearing>,
    pub(crate) stats: RefCell<CommStats>,
}

impl RankCtx {
    /// This rank's id in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.fabric.size()
    }

    /// Point-to-point send. Payload bytes are charged to `kind`.
    ///
    /// # Panics
    /// If `dst` is this rank (use a local move instead) or out of range.
    pub fn send(&self, dst: usize, msg: Mat, kind: CollectiveKind) {
        self.send_accounted(dst, msg, kind, None);
    }

    /// Point-to-point send of a sparsity-compressed payload standing in
    /// for `dense_bytes` dense-equivalent bytes. Actual wire bytes are
    /// charged to `kind` as usual; the dense figure keeps the paper's
    /// volume formulas checkable as the upper bound.
    ///
    /// # Panics
    /// Like [`RankCtx::send`]; additionally if the payload exceeds
    /// `dense_bytes` (compression must never inflate).
    pub fn send_compressed(&self, dst: usize, msg: Mat, kind: CollectiveKind, dense_bytes: usize) {
        self.send_accounted(dst, msg, kind, Some(dense_bytes));
    }

    fn send_accounted(&self, dst: usize, msg: Mat, kind: CollectiveKind, dense: Option<usize>) {
        assert_ne!(dst, self.rank, "self-send: keep the data local instead");
        assert!(dst < self.size(), "send to rank {dst} out of range");
        let t0 = Instant::now();
        pool::sent(msg.capacity());
        let receipt = self.fabric.send(self.rank, dst, msg);
        let mut st = self.stats.borrow_mut();
        match dense {
            None => st.record_send(kind, receipt.bytes),
            Some(d) => st.record_send_compressed(kind, receipt.bytes, d),
        }
        st.record_retransmits(
            receipt.retries,
            receipt.retransmit_bytes,
            receipt.backoff_ns,
        );
        st.record_time(t0.elapsed());
        drop(st);
        if rdm_trace::enabled() {
            rdm_trace::record(rdm_trace::EventData::Collective {
                kind: kind.trace_tag(),
                peer: dst,
                bytes: receipt.bytes,
                dense_bytes: dense.unwrap_or(receipt.bytes),
                msg_seq: receipt.seq,
            });
            // One Retry instant per injected drop; attempt k's backoff is
            // `base << k`, so per-send sums reproduce the receipt exactly.
            let base = self.fabric.fault_plan().map_or(0, |p| p.backoff_base_ns);
            for attempt in 0..receipt.retries {
                rdm_trace::record(rdm_trace::EventData::Retry {
                    peer: dst,
                    msg_seq: receipt.seq,
                    attempt,
                    bytes: receipt.bytes,
                    backoff_ns: base << attempt,
                });
            }
        }
    }

    /// Blocking point-to-point receive from `src`.
    pub fn recv(&self, src: usize) -> Mat {
        assert_ne!(src, self.rank, "self-recv is meaningless");
        assert!(src < self.size(), "recv from rank {src} out of range");
        let t0 = Instant::now();
        let msg = self.fabric.recv(src, self.rank);
        self.stats.borrow_mut().record_time(t0.elapsed());
        pool::received(msg.capacity());
        msg
    }

    /// Block until every rank reaches the barrier. Barriers are the
    /// trace's drain points: the rank's event ring is flushed here.
    pub fn barrier(&self) {
        rdm_trace::flush();
        let t0 = Instant::now();
        // Barriers are also where the ranks' workspace pools even out the
        // buffers messages moved between them (see `rdm_dense::pool`).
        let paid = pool::settle();
        self.clearing.lock().paid.extend(paid);
        self.barrier.wait_then(|| self.clearing.open());
        self.stats.borrow_mut().record_time(t0.elapsed());
    }

    /// Snapshot of this rank's statistics so far.
    pub fn stats_snapshot(&self) -> CommStats {
        self.stats.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_per_rank_results_in_order() {
        let out = Cluster::new(4).run(|ctx| ctx.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30]);
        assert_eq!(out.stats.len(), 4);
    }

    #[test]
    fn every_rank_runs_on_its_share_of_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for p in [1usize, 2, 3, cores, cores + 1] {
            let out = Cluster::new(p).run(|_| rdm_dense::current_num_threads());
            assert_eq!(out.results, vec![(cores / p).max(1); p], "P = {p}");
        }
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = Cluster::new(1).run(|ctx| {
            ctx.barrier();
            ctx.size()
        });
        assert_eq!(out.results, vec![1]);
        assert_eq!(out.stats[0].total_bytes(), 0);
    }

    #[test]
    fn ring_pass_moves_data_and_counts_bytes() {
        let p = 4;
        let out = Cluster::new(p).run(|ctx| {
            let me = ctx.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            ctx.send(
                next,
                Mat::from_vec(1, 2, vec![me as f32, 1.0]),
                CollectiveKind::Other,
            );
            let got = ctx.recv(prev);
            got.get(0, 0) as usize
        });
        // Each rank receives its predecessor's id.
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        for st in &out.stats {
            assert_eq!(st.total_bytes(), 8); // 2 f32s
            assert_eq!(st.total_messages(), 1);
        }
    }

    #[test]
    fn partition_isolation_no_shared_state() {
        // Each rank mutates only its own data; results must not interfere.
        let out = Cluster::new(8).run(|ctx| {
            let mut local = vec![0u64; 1000];
            for (i, v) in local.iter_mut().enumerate() {
                *v = (ctx.rank() as u64) * (i as u64);
            }
            local.iter().sum::<u64>()
        });
        for (r, &sum) in out.results.iter().enumerate() {
            assert_eq!(sum, (r as u64) * (999 * 1000 / 2));
        }
    }

    #[test]
    #[should_panic(expected = "unconsumed messages")]
    fn leftover_messages_panic() {
        Cluster::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Mat::zeros(1, 1), CollectiveKind::Other);
            }
            // Rank 1 never receives.
        });
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn self_send_panics() {
        Cluster::new(2).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(0, Mat::zeros(1, 1), CollectiveKind::Other);
            }
        });
    }

    #[test]
    fn faulty_cluster_same_results_nonzero_retransmits() {
        use crate::fault::FaultPlan;
        let p = 4;
        let spmd = |ctx: &RankCtx| {
            let me = ctx.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            for round in 0..20 {
                ctx.send(
                    next,
                    Mat::from_vec(1, 1, vec![(me * 100 + round) as f32]),
                    CollectiveKind::Other,
                );
                let got = ctx.recv(prev);
                assert_eq!(got.get(0, 0) as usize, prev * 100 + round);
            }
            me
        };
        let clean = Cluster::new(p).run(spmd);
        let faulty = Cluster::with_faults(p, FaultPlan::new(17).drop_rate(0.3)).run(spmd);
        assert_eq!(clean.results, faulty.results);
        // Payload accounting identical; retransmits only under faults.
        for r in 0..p {
            assert_eq!(clean.stats[r].total_bytes(), faulty.stats[r].total_bytes());
            assert_eq!(clean.stats[r].retries, 0);
            assert_eq!(clean.stats[r].retransmit_bytes, 0);
        }
        let total_retries: u64 = faulty.stats.iter().map(|s| s.retries).sum();
        assert!(total_retries > 0, "drop rate 0.3 never dropped an attempt");
    }

    #[test]
    fn fault_retry_counts_reproducible_across_runs() {
        use crate::fault::FaultPlan;
        let run = || {
            let out = Cluster::with_faults(3, FaultPlan::new(5).drop_rate(0.25)).run(|ctx| {
                let me = ctx.rank();
                for dst in 0..3 {
                    if dst != me {
                        ctx.send(
                            dst,
                            Mat::from_vec(1, 1, vec![me as f32]),
                            CollectiveKind::Other,
                        );
                    }
                }
                for src in 0..3 {
                    if src != me {
                        let _ = ctx.recv(src);
                    }
                }
            });
            out.stats.iter().map(|s| s.retries).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// One-way traffic: the buffers rank 1 receives come back to rank 0
    /// at each barrier, so rank 0's later rounds send from reused ones.
    #[test]
    fn barriers_return_one_way_traffic_to_its_sender() {
        let out = Cluster::new(2).run(|ctx| {
            for _ in 0..3 {
                match ctx.rank() {
                    0 => ctx.send(1, Mat::zeros(8, 16), CollectiveKind::Other),
                    _ => drop(ctx.recv(0)),
                }
                ctx.barrier();
            }
            pool::stats()
        });
        assert_eq!((out.results[0].fresh, out.results[0].reused), (1, 2));
    }

    #[test]
    fn barriers_order_cross_rank_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let out = Cluster::new(6).run(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            phase1.load(Ordering::SeqCst)
        });
        assert!(out.results.iter().all(|&v| v == 6));
    }
}
