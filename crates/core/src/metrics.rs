//! Epoch-level measurement records.

use crate::ops::OpCounters;
use rdm_comm::{CollectiveKind, CommStats};
use rdm_model::{DeviceModel, MeasuredRank, Predicted};
use std::time::Duration;

/// What one rank recorded during one epoch (returned from inside the SPMD
/// closure; aggregated into [`EpochMetrics`] by the trainer).
#[derive(Clone, Debug)]
pub struct RankEpoch {
    pub loss: f32,
    pub train_acc: f32,
    pub test_acc: f32,
    /// Wall time of the whole epoch on this rank.
    pub wall: Duration,
    /// Wall time spent inside communication calls.
    pub comm_wall: Duration,
    /// Bytes/messages this rank sent this epoch.
    pub comm: CommStats,
    /// FMA counts this epoch.
    pub ops: OpCounters,
    /// The Table-IV ordering this epoch executed (RDM trainers; `None`
    /// for the fixed-order baselines).
    pub plan_id: Option<usize>,
    /// Workspace-pool buffers this rank freshly allocated this epoch.
    /// Zero from epoch 2 onward in steady state (the pool's guarantee).
    pub ws_fresh: u64,
    /// Workspace-pool buffers this rank reused from its shelf this epoch.
    pub ws_reused: u64,
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
    /// The Table-IV ordering this epoch executed, when applicable.
    pub plan_id: Option<usize>,
    /// Fresh workspace-pool allocations this epoch, summed over ranks.
    pub ws_fresh: u64,
    /// Workspace-pool buffer reuses this epoch, summed over ranks.
    pub ws_reused: u64,
}

impl EpochMetrics {
    /// Aggregate per-rank records under a device model.
    pub fn from_ranks(epoch: usize, ranks: &[RankEpoch], device: &DeviceModel) -> Self {
        assert!(!ranks.is_empty());
        let mut comm = CommStats::default();
        for r in ranks {
            comm.merge(&r.comm);
        }
        let measured: Vec<MeasuredRank> = ranks
            .iter()
            .map(|r| {
                // Held-out evaluation traffic is not part of the training
                // epoch the paper times.
                let eval_b = r.comm.bytes(CollectiveKind::Eval);
                let eval_m = r.comm.messages(CollectiveKind::Eval);
                MeasuredRank {
                    spmm_fma: r.ops.spmm_fma,
                    gemm_fma: r.ops.gemm_fma,
                    bytes_sent: r.comm.total_bytes() - eval_b,
                    messages: r.comm.total_messages() - eval_m,
                }
            })
            .collect();
        let sim = if ranks.iter().all(|r| r.comm.overlap_ns == 0) {
            device.epoch_from_measured(&measured)
        } else {
            // Pipelined redistribution hides part of each rank's comm
            // time behind its kernels; the epoch still finishes with the
            // slowest rank.
            let mut worst = Predicted::default();
            for (r, m) in ranks.iter().zip(&measured) {
                let compute = device.compute_time(m.spmm_fma, m.gemm_fma);
                let comm = device.comm_time(m.bytes_sent as f64, m.messages as f64);
                let hidden = (r.comm.overlap_ns as f64 * 1e-9).min(comm);
                let total = compute + comm - hidden + device.epoch_overhead;
                if total > worst.total_s {
                    worst = Predicted {
                        compute_s: compute,
                        comm_s: comm - hidden,
                        total_s: total,
                    };
                }
            }
            worst
        };
        let mut ops = OpCounters::default();
        for r in ranks {
            ops.add(r.ops);
        }
        EpochMetrics {
            plan_id: ranks[0].plan_id,
            ws_fresh: ranks.iter().map(|r| r.ws_fresh).sum(),
            ws_reused: ranks.iter().map(|r| r.ws_reused).sum(),
            epoch,
            loss: ranks[0].loss,
            train_acc: ranks[0].train_acc,
            test_acc: ranks[0].test_acc,
            wall: ranks.iter().map(|r| r.wall).max().unwrap(),
            comm_wall: ranks.iter().map(|r| r.comm_wall).max().unwrap(),
            total_bytes: comm.total_bytes(),
            comm,
            ops,
            sim,
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

    /// Modeled communication time hidden behind compute by pipelined
    /// redistribution this epoch (summed over ranks, virtual nanoseconds).
    /// Zero on the blocking path.
    pub fn overlap_ns(&self) -> u64 {
        self.comm.overlap_ns
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

    /// Modeled communication time hidden by pipelined redistribution over
    /// the whole run, virtual nanoseconds. Zero unless the trainer ran
    /// with `overlap`.
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
        RankEpoch {
            plan_id: None,
            ws_fresh: 0,
            ws_reused: 0,
            loss: 1.0,
            train_acc: 0.5,
            test_acc: 0.4,
            wall: Duration::from_millis(ms),
            comm_wall: Duration::from_millis(ms / 4),
            comm,
            ops: OpCounters {
                spmm_fma: spmm,
                gemm_fma: 0.0,
            },
        }
    }

    #[test]
    fn aggregate_takes_max_wall_and_sums_bytes() {
        let device = DeviceModel::a6000_pcie();
        let m = EpochMetrics::from_ranks(3, &[rank(10, 100, 1e6), rank(30, 200, 2e6)], &device);
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
        let e1 = EpochMetrics::from_ranks(0, &[rank(10, 100, 1e6)], &device);
        let e2 = EpochMetrics::from_ranks(1, &[rank(20, 300, 1e6)], &device);
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
