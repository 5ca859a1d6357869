//! One measurement path and one price for every unit of work.
//!
//! A unit is a training epoch or a served batch. [`session`] is the one
//! cluster set-up training and serving run under — the calling thread
//! feeding the ranks what every rank reads whole (a GraphSAINT-RDM draw, an
//! induced serving minibatch), or nothing — and [`book_unit`] the one way a
//! rank measures a unit: a [`UnitBook`] of wall time, communication,
//! FMAs and workspace-pool activity between the unit's opening and
//! closing barriers. What a chunk pipeline hides is not measured but
//! priced from the unit's schedule ([`hidden_price`]). Each rank's book,
//! beside its priced hidden time, prices through
//! [`DeviceModel::rank_time`] and a unit's through
//! [`DeviceModel::slowest`] — the one clock [`EpochMetrics::from_ranks`]
//! and the serving timeline share.

use crate::ops::{OpCounters, PanelGrid};
use rdm_comm::feed::{Feed, Intake, RING};
use rdm_comm::{Cluster, CollectiveKind, CommStats, FaultPlan, RankCtx, RunOutput};
use rdm_dense::kernels::{self, Mode as KernelMode};
use rdm_dense::pool;
use rdm_model::{price_ranks, DeviceModel, MeasuredRank, Predicted, Step};
use rdm_sparse::Csr;
use rdm_trace::Span;
use std::time::{Duration, Instant};

/// Run `body` on every rank of a fresh `p`-rank cluster — on a faulty
/// fabric per `faults`, traced when `trace` — with each rank's kernel path
/// pinned to `mode` before any compute, and `host` on the calling thread
/// meanwhile, feeding the ranks through `arenas` ([`Cluster::run_fed`]).
/// A host with nothing to feed returns at once.
pub fn session<A, H, T>(
    p: usize,
    faults: Option<FaultPlan>,
    trace: bool,
    mode: KernelMode,
    arenas: [A; RING],
    host: impl FnOnce(&Feed<A>) -> H,
    body: impl Fn(&RankCtx, &Intake<A>) -> T + Sync,
) -> (H, [A; RING], RunOutput<T>)
where
    A: Send + Sync,
    T: Send,
{
    let cluster = match faults {
        Some(plan) => Cluster::with_faults(p, plan),
        None => Cluster::new(p),
    };
    let cluster = if trace { cluster.traced() } else { cluster };
    cluster.run_fed(arenas, host, |ctx, intake| {
        // Rank threads are spawned fresh per run.
        kernels::set_mode(mode);
        body(ctx, intake)
    })
}

/// What one rank measured over one unit of work.
#[derive(Clone, Debug, Default)]
pub struct UnitBook {
    /// From the start of the unit's body to its closing barrier.
    pub wall: Duration,
    /// Bytes/messages this rank sent, opening barrier to closing barrier.
    pub comm: CommStats,
    /// FMA counts.
    pub ops: OpCounters,
    /// Workspace-pool buffers this rank freshly allocated. Zero after the
    /// first unit in steady state (the pool's guarantee).
    pub ws_fresh: u64,
    /// Workspace-pool buffers this rank reused from its shelf.
    pub ws_reused: u64,
}

impl UnitBook {
    /// What the clock prices: this book, beside `hidden_ns`, the rank's
    /// priced pipeline hidden time for the unit ([`hidden_price`]).
    pub fn measured(&self, hidden_ns: u64) -> MeasuredRank {
        MeasuredRank {
            spmm_fma: self.ops.spmm_fma,
            gemm_fma: self.ops.gemm_fma,
            bytes_sent: self.comm.total_bytes() as f64,
            messages: self.comm.total_messages() as f64,
            hidden_ns,
        }
    }
}

/// Each rank's communication time, in virtual ns, that `chunks`-strip
/// pipelines hide behind the kernels of `steps` run over `adj` (and
/// `adj_t`, the transpose backward SpMMs multiply; `None` when symmetric)
/// on `grid`: the schedule priced per rank with the real nonzeros of every
/// panel ([`rdm_model::RankPrice::hidden_ns`]). What the clock reads beside
/// a unit's measured books; zero on every rank when blocking.
pub fn hidden_price(
    steps: &[Step],
    adj: &Csr,
    adj_t: Option<&Csr>,
    grid: PanelGrid,
    chunks: usize,
    device: &DeviceModel,
) -> Vec<u64> {
    if chunks < 2 {
        return vec![0; grid.p];
    }
    let graph = grid.graph(adj, adj_t);
    let ranks = price_ranks(steps, &graph, grid.p, grid.r_a, chunks, 1.0);
    let ranks = ranks.unwrap_or_else(|e| panic!("{e}"));
    ranks.iter().map(|r| r.hidden_ns(device)).collect()
}

/// Run one unit of work on this rank and book it. The book opens before
/// the opening barrier and closes after the closing barrier, so whatever a
/// rank does between units stays out of it; `span` wraps only `body`.
pub fn book_unit<R>(
    ctx: &RankCtx,
    span: Span,
    body: impl FnOnce(&mut OpCounters) -> R,
) -> (R, UnitBook) {
    let (comm0, ws0) = (ctx.stats_snapshot(), pool::stats());
    ctx.barrier();
    let guard = rdm_trace::span(span);
    let t0 = Instant::now();
    let mut ops = OpCounters::default();
    let out = body(&mut ops);
    drop(guard);
    ctx.barrier();
    let wall = t0.elapsed();
    let ws = pool::stats();
    let book = UnitBook {
        wall,
        comm: ctx.stats_snapshot().delta_since(&comm0),
        ops,
        ws_fresh: ws.fresh - ws0.fresh,
        ws_reused: ws.reused - ws0.reused,
    };
    (out, book)
}

/// An epoch's evaluation: the training loss and the train and test
/// accuracy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochScore {
    pub loss: f32,
    pub train_acc: f32,
    pub test_acc: f32,
}

/// What one rank recorded during one epoch (returned from inside the SPMD
/// closure; aggregated into [`EpochMetrics`] by the trainer).
#[derive(Clone, Debug)]
pub struct RankEpoch {
    /// The epoch's score, where this rank evaluated it: rank 0 always
    /// does, the other ranks of a sampling trainer never (`None`).
    pub score: Option<EpochScore>,
    /// What this rank measured over the epoch.
    pub book: UnitBook,
}

/// One epoch, aggregated over ranks.
#[derive(Clone, Debug)]
pub struct EpochMetrics {
    pub epoch: usize,
    pub loss: f32,
    pub train_acc: f32,
    pub test_acc: f32,
    /// Slowest rank's wall time (the epoch's real duration).
    pub wall: Duration,
    /// Slowest rank's communication wall time.
    pub comm_wall: Duration,
    /// Total bytes moved between ranks, all kinds.
    pub total_bytes: u64,
    /// Total bytes by collective kind, summed over ranks.
    pub comm: CommStats,
    /// Global FMA counts (summed over ranks).
    pub ops: OpCounters,
    /// Simulated timing on the paper's device (slowest rank).
    pub sim: Predicted,
    /// Priced communication time the epoch's chunk pipelines hid behind
    /// compute, summed over ranks (virtual ns; zero when blocking).
    pub hidden_ns: u64,
    /// The Table-IV ordering this epoch executed, when applicable.
    pub plan_id: Option<usize>,
    /// Fresh workspace-pool allocations this epoch, summed over ranks.
    pub ws_fresh: u64,
    /// Workspace-pool buffer reuses this epoch, summed over ranks.
    pub ws_reused: u64,
}

impl EpochMetrics {
    /// Aggregate per-rank records, each beside its rank's priced hidden
    /// time in `hidden_ns`, under a device model, scored by rank 0. The
    /// plan id is left unset: the caller knows the plan.
    ///
    /// # Panics
    /// If there are no ranks, not one hidden time per rank, or rank 0 did
    /// not score the epoch.
    pub fn from_ranks(
        epoch: usize,
        ranks: &[RankEpoch],
        hidden_ns: &[u64],
        device: &DeviceModel,
    ) -> Self {
        assert!(!ranks.is_empty());
        assert_eq!(ranks.len(), hidden_ns.len(), "one hidden time per rank");
        let score = ranks[0].score.expect("rank 0 scores every epoch");
        let mut comm = CommStats::default();
        let mut ops = OpCounters::default();
        for r in ranks {
            comm.merge(&r.book.comm);
            ops.add(r.book.ops);
        }
        let measured: Vec<MeasuredRank> = (ranks.iter().zip(hidden_ns))
            .map(|(r, &hidden)| r.book.measured(hidden))
            .collect();
        EpochMetrics {
            plan_id: None,
            hidden_ns: hidden_ns.iter().sum(),
            ws_fresh: ranks.iter().map(|r| r.book.ws_fresh).sum(),
            ws_reused: ranks.iter().map(|r| r.book.ws_reused).sum(),
            epoch,
            loss: score.loss,
            train_acc: score.train_acc,
            test_acc: score.test_acc,
            wall: ranks.iter().map(|r| r.book.wall).max().unwrap(),
            comm_wall: ranks.iter().map(|r| r.book.comm.comm_time).max().unwrap(),
            total_bytes: comm.total_bytes(),
            comm,
            ops,
            sim: device.slowest(&measured),
        }
    }

    /// Bytes attributed to plan-level redistributions.
    pub fn redistribution_bytes(&self) -> u64 {
        self.comm.bytes(CollectiveKind::Redistribute)
    }

    /// Dense-equivalent bytes of plan-level redistributions — the volume
    /// the paper's `(P-1)/P·N·f` formulas price. Equals
    /// [`EpochMetrics::redistribution_bytes`] on the dense wire path and
    /// an upper bound for it on the sparsity-aware path.
    pub fn redistribution_dense_bytes(&self) -> u64 {
        self.comm.dense_bytes(CollectiveKind::Redistribute)
    }

    /// Bytes attributed to SpMM-internal broadcasts (CAGNET / `R_A < P`).
    pub fn broadcast_bytes(&self) -> u64 {
        self.comm.bytes(CollectiveKind::Broadcast)
    }

    /// Transmission attempts lost to injected faults this epoch (summed
    /// over ranks). Zero on a perfect fabric.
    pub fn retries(&self) -> u64 {
        self.comm.retries
    }

    /// Bytes re-sent by fault-induced retransmissions this epoch — kept
    /// out of `total_bytes`, which stays the paper's payload volume.
    pub fn retransmit_bytes(&self) -> u64 {
        self.comm.retransmit_bytes
    }

    /// Priced communication time hidden behind compute by pipelined
    /// redistribution this epoch (summed over ranks, virtual nanoseconds).
    /// Zero on the blocking path. What the epoch saved is the slowest
    /// rank's share, `sim.hidden_s`.
    pub fn overlap_ns(&self) -> u64 {
        self.hidden_ns
    }

    /// Fresh workspace-pool heap allocations this epoch, summed over
    /// ranks. The zero-alloc steady-state tests assert this is 0 for
    /// every epoch after the first.
    pub fn ws_fresh(&self) -> u64 {
        self.ws_fresh
    }

    /// Workspace-pool buffer reuses this epoch, summed over ranks.
    pub fn ws_reused(&self) -> u64 {
        self.ws_reused
    }
}

/// A whole training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Human-readable description of the algorithm and its parameters.
    pub algo: String,
    pub dataset: String,
    pub p: usize,
    pub epochs: Vec<EpochMetrics>,
    /// Per-rank structured event traces, when the run was configured with
    /// `TrainerConfig::trace()`. Export with
    /// `rdm_trace::chrome::to_chrome_json`, or check against the model's
    /// predicted schedule with `rdm_model::conformance`.
    pub traces: Option<Vec<rdm_trace::RankTrace>>,
    /// The final trained weights (rank 0's replicated copy), exportable
    /// with [`WeightSnapshot::save`](crate::snapshot::WeightSnapshot) and
    /// servable with `rdm-serve`.
    pub weights: Option<crate::snapshot::WeightSnapshot>,
    /// Why a requested pipelined-redistribution overlap stayed inert for
    /// the whole run (`None` when overlap ran, or was never requested).
    /// The engine silently falls back to the blocking path when its gate
    /// fails — this field makes that fallback visible in reports instead
    /// of masquerading as "overlap hid 0 ms".
    pub overlap_inert: Option<&'static str>,
    /// Why a requested indexed-strip wire carried nothing for the whole
    /// run, like [`TrainReport::overlap_inert`].
    pub sparse_inert: Option<&'static str>,
}

impl TrainReport {
    /// Mean simulated epoch time over all epochs, seconds.
    pub fn mean_sim_epoch_s(&self) -> f64 {
        self.epochs.iter().map(|e| e.sim.total_s).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean simulated communication time per epoch, seconds.
    pub fn mean_sim_comm_s(&self) -> f64 {
        self.epochs.iter().map(|e| e.sim.comm_s).sum::<f64>() / self.epochs.len() as f64
    }

    /// Simulated training throughput (epochs / second), the paper's
    /// headline metric (arithmetic mean, as in §V-A).
    pub fn sim_epochs_per_sec(&self) -> f64 {
        1.0 / self.mean_sim_epoch_s()
    }

    /// Mean measured wall time per epoch, seconds.
    pub fn mean_wall_epoch_s(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.wall.as_secs_f64())
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Final test accuracy.
    pub fn final_test_acc(&self) -> f32 {
        self.epochs.last().map(|e| e.test_acc).unwrap_or(0.0)
    }

    /// Mean inter-rank traffic per epoch, bytes.
    pub fn mean_bytes_per_epoch(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.total_bytes as f64)
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Actual redistribution wire bytes over the whole run.
    pub fn total_redistribution_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.redistribution_bytes()).sum()
    }

    /// Dense-equivalent redistribution bytes over the whole run — the
    /// paper-formula bound the sparsity-aware path stays under.
    pub fn total_redistribution_dense_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.redistribution_dense_bytes())
            .sum()
    }

    /// Fault-induced retransmission attempts over the whole run.
    pub fn total_retries(&self) -> u64 {
        self.epochs.iter().map(|e| e.retries()).sum()
    }

    /// Bytes re-sent by fault-induced retransmissions over the whole run.
    pub fn total_retransmit_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.retransmit_bytes()).sum()
    }

    /// Priced communication time hidden by pipelined redistribution over
    /// the whole run, summed over ranks, virtual nanoseconds. Zero unless
    /// the trainer ran with `overlap`.
    pub fn total_overlap_ns(&self) -> u64 {
        self.epochs.iter().map(|e| e.overlap_ns()).sum()
    }

    /// Why a requested overlap stayed inert, or `None` when it ran (or
    /// was not requested). See [`TrainReport::overlap_inert`].
    pub fn overlap_inert_reason(&self) -> Option<&'static str> {
        self.overlap_inert
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(ms: u64, bytes: usize, spmm: f64) -> RankEpoch {
        let mut comm = CommStats::default();
        comm.record_send(CollectiveKind::Redistribute, bytes);
        comm.record_time(Duration::from_millis(ms / 4));
        RankEpoch {
            score: Some(EpochScore {
                loss: 1.0,
                train_acc: 0.5,
                test_acc: 0.4,
            }),
            book: UnitBook {
                wall: Duration::from_millis(ms),
                comm,
                ops: OpCounters {
                    spmm_fma: spmm,
                    gemm_fma: 0.0,
                },
                ..UnitBook::default()
            },
        }
    }

    #[test]
    fn aggregate_takes_max_wall_and_sums_bytes() {
        let device = DeviceModel::a6000_pcie();
        let ranks = [rank(10, 100, 1e6), rank(30, 200, 2e6)];
        let m = EpochMetrics::from_ranks(3, &ranks, &[0, 0], &device);
        assert_eq!(m.epoch, 3);
        assert_eq!(m.wall, Duration::from_millis(30));
        assert_eq!(m.total_bytes, 300);
        assert_eq!(m.ops.spmm_fma, 3e6);
        assert!(m.sim.total_s > 0.0);
        assert_eq!(m.redistribution_bytes(), 300);
        assert_eq!(m.broadcast_bytes(), 0);
    }

    #[test]
    fn report_means() {
        let device = DeviceModel::a6000_pcie();
        let e1 = EpochMetrics::from_ranks(0, &[rank(10, 100, 1e6)], &[0], &device);
        let e2 = EpochMetrics::from_ranks(1, &[rank(20, 300, 1e6)], &[0], &device);
        let r = TrainReport {
            algo: "test".into(),
            dataset: "toy".into(),
            p: 1,
            epochs: vec![e1, e2],
            traces: None,
            weights: None,
            overlap_inert: None,
            sparse_inert: None,
        };
        assert!((r.mean_wall_epoch_s() - 0.015).abs() < 1e-9);
        assert_eq!(r.mean_bytes_per_epoch(), 200.0);
        assert!(r.sim_epochs_per_sec() > 0.0);
        assert_eq!(r.final_test_acc(), 0.4);
    }
}
