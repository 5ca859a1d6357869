//! The calibrated device model.
//!
//! The paper's testbed is 8 × NVIDIA RTX A6000 (PCIe 4.0, no NVLink)
//! driven through NCCL. We have no GPUs, so simulated time is computed
//! from *measured* operation and byte counts using effective rates:
//!
//! * GEMM: dense fp32 matmul on an A6000 sustains ~10 TFMA/s with cuBLAS.
//! * SpMM: memory-bound CSR SpMM on power-law graphs sustains two orders
//!   of magnitude less — ~60 GFMA/s — which is exactly why the paper says
//!   the aggregation step dominates (the paper's ref. 14, and its §I).
//! * Links: PCIe 4.0 ×16 moves ~20 GB/s effective per GPU with ~20 µs
//!   per-message latency through NCCL.
//!
//! The absolute numbers are calibration constants; every claim the
//! experiments reproduce (who wins, how speedups scale with `P`) depends
//! only on their *ratios*, which are set by the hardware class, not the
//! specific board.

/// Effective execution rates of one device and its interconnect.
#[derive(Clone, Copy, Debug)]
pub struct DeviceModel {
    /// Sustained dense FMA/s.
    pub gemm_fma_per_sec: f64,
    /// Sustained sparse FMA/s.
    pub spmm_fma_per_sec: f64,
    /// Effective link bandwidth per rank, bytes/s.
    pub link_bytes_per_sec: f64,
    /// Per-message latency, seconds.
    pub msg_latency: f64,
    /// Fixed per-epoch framework overhead, seconds (kernel launches,
    /// optimizer step, Python-side glue in the original systems).
    pub epoch_overhead: f64,
}

impl DeviceModel {
    /// The paper's 8×A6000 PCIe node.
    ///
    /// `epoch_overhead` is zero: simulated time covers kernel and link
    /// time only, so ratios reflect measured op/byte counts directly.
    /// (A fixed per-epoch framework overhead would be realistic for
    /// PyTorch but, on scaled-down datasets, swamps exactly the
    /// communication differences the experiments measure.)
    pub fn a6000_pcie() -> Self {
        DeviceModel {
            gemm_fma_per_sec: 1.0e13,
            spmm_fma_per_sec: 6.0e10,
            link_bytes_per_sec: 2.0e10,
            // NCCL's real per-message latency is ~20 µs; the harness runs
            // datasets scaled down ~15–60× in volume, so the latency is
            // scaled in proportion to keep the latency/bandwidth balance
            // of the full-size system.
            msg_latency: 1.0e-6,
            epoch_overhead: 0.0,
        }
    }

    /// Seconds to execute the given FMA counts on one device.
    pub fn compute_time(&self, spmm_fma: f64, gemm_fma: f64) -> f64 {
        spmm_fma / self.spmm_fma_per_sec + gemm_fma / self.gemm_fma_per_sec
    }

    /// Seconds to move `bytes` in `msgs` messages through one rank's link.
    pub fn comm_time(&self, bytes: f64, msgs: f64) -> f64 {
        bytes / self.link_bytes_per_sec + msgs * self.msg_latency
    }

    /// Completion time of a `c`-stage chunk pipeline: chunk `q`'s compute
    /// starts when chunk `q` has arrived **and** chunk `q-1`'s compute is
    /// done (double buffering; the wire carries later chunks while earlier
    /// ones are consumed).
    pub fn pipelined_time(&self, comm_s: &[f64], compute_s: &[f64]) -> f64 {
        assert_eq!(comm_s.len(), compute_s.len(), "one compute per chunk");
        let mut arrived = 0.0f64;
        let mut finished = 0.0f64;
        for (c, k) in comm_s.iter().zip(compute_s) {
            arrived += c;
            finished = finished.max(arrived) + k;
        }
        finished
    }

    /// Communication time hidden by the chunk pipeline: the blocking
    /// schedule's total (`ΣT_comm + ΣT_compute`) minus the pipelined
    /// completion time. Bounded by `min(ΣT_comm, ΣT_compute)`; approaches
    /// it as chunks shrink.
    pub fn hidden_time(&self, comm_s: &[f64], compute_s: &[f64]) -> f64 {
        let blocking: f64 = comm_s.iter().sum::<f64>() + compute_s.iter().sum::<f64>();
        (blocking - self.pipelined_time(comm_s, compute_s)).max(0.0)
    }

    /// The clock: one rank's modeled time for one unit of work (a training
    /// epoch or a served batch) from what it measured — compute, plus the
    /// communication the chunk pipeline did not hide, plus the fixed
    /// overhead. The hidden time is priced, not measured
    /// ([`crate::RankPrice::hidden_ns`]), and capped at the rank's
    /// communication time.
    pub fn rank_time(&self, r: &MeasuredRank) -> Predicted {
        let compute = self.compute_time(r.spmm_fma, r.gemm_fma);
        let comm = self.comm_time(r.bytes_sent, r.messages);
        let hidden = (r.hidden_ns as f64 * 1e-9).min(comm);
        Predicted {
            compute_s: compute,
            comm_s: comm - hidden,
            hidden_s: hidden,
            total_s: compute + comm - hidden + self.epoch_overhead,
        }
    }

    /// A unit finishes when its slowest rank does: the [`Self::rank_time`]
    /// with the largest total (the first of equals; the default for no
    /// ranks).
    pub fn slowest<'a>(&self, per_rank: impl IntoIterator<Item = &'a MeasuredRank>) -> Predicted {
        let mut worst = Predicted::default();
        for r in per_rank {
            let t = self.rank_time(r);
            if t.total_s > worst.total_s {
                worst = t;
            }
        }
        worst
    }
}

/// What one rank did during one unit of work (filled from `rdm-comm` stats
/// and the executors' op counters, or priced from a schedule).
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredRank {
    pub spmm_fma: f64,
    pub gemm_fma: f64,
    pub bytes_sent: f64,
    pub messages: f64,
    /// Priced communication time the unit's chunk pipelines hide behind
    /// compute ([`crate::RankPrice::hidden_ns`]), virtual nanoseconds;
    /// zero on the blocking path. Nothing measures it.
    pub hidden_ns: u64,
}

/// A simulated epoch-time breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Predicted {
    pub compute_s: f64,
    /// Exposed communication: what the pipeline did not hide.
    pub comm_s: f64,
    /// Communication hidden behind compute (never more than it).
    pub hidden_s: f64,
    pub total_s: f64,
}

impl Predicted {
    /// Training throughput in epochs per second.
    pub fn epochs_per_sec(&self) -> f64 {
        1.0 / self.total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrderConfig;
    use crate::cost::{price_plan, GnnShape};

    #[test]
    fn spmm_is_slower_than_gemm_per_op() {
        let d = DeviceModel::a6000_pcie();
        assert!(d.spmm_fma_per_sec < d.gemm_fma_per_sec / 50.0);
    }

    #[test]
    fn rdm_scales_better_than_broadcast_scheme() {
        // The headline result in miniature: simulated speedup of RDM over
        // an R_A = 1 broadcast scheme must grow with P.
        let d = DeviceModel::a6000_pcie();
        let shape = GnnShape::gcn(2_000_000, 60_000_000, 128, 128, 47, 2);
        let rdm_cfg = OrderConfig::from_id(5, 2);
        let cag_cfg = OrderConfig::all_spmm_first(2);
        let time = |cfg, p, r_a| {
            let price = price_plan(&shape, cfg, p, r_a, 1.0);
            d.slowest(price.ranks.iter().map(|r| &r.book)).total_s
        };
        let mut prev_speedup = 0.0;
        for p in [2usize, 4, 8] {
            let speedup = time(&cag_cfg, p, 1) / time(&rdm_cfg, p, p);
            assert!(
                speedup > prev_speedup,
                "speedup {speedup} at P={p} not above {prev_speedup}"
            );
            prev_speedup = speedup;
        }
        assert!(prev_speedup > 1.5, "8-GPU speedup only {prev_speedup}");
    }

    #[test]
    fn pipeline_times_bracket_the_ideal() {
        let d = DeviceModel::a6000_pcie();
        // Balanced uniform chunks: hidden → (c-1)/c · min(T_comm, T_comp).
        for c in [2usize, 4, 16] {
            let comm: Vec<f64> = vec![1.0 / c as f64; c];
            let comp: Vec<f64> = vec![1.0 / c as f64; c];
            let hidden = d.hidden_time(&comm, &comp);
            let expect = (c - 1) as f64 / c as f64;
            assert!(
                (hidden - expect).abs() < 1e-12,
                "c={c}: hidden {hidden} != {expect}"
            );
            // Never more than the ideal overlap, and the pipelined total
            // never beats max(T_comm, T_comp).
            assert!(hidden <= 1.0 + 1e-12);
            assert!(d.pipelined_time(&comm, &comp) >= 1.0 - 1e-12);
        }
        // One chunk degenerates to the blocking schedule.
        assert_eq!(d.hidden_time(&[2.0], &[3.0]), 0.0);
        // Compute-dominated: all comm after the first chunk hides.
        let hidden = d.hidden_time(&[0.1, 0.1], &[5.0, 5.0]);
        assert!((hidden - 0.1).abs() < 1e-12);
    }

    /// What `epoch_from_measured` priced before the clock replaced it.
    fn blocking_price(d: &DeviceModel, r: &MeasuredRank) -> (f64, f64, f64) {
        let compute = d.compute_time(r.spmm_fma, r.gemm_fma);
        let comm = d.comm_time(r.bytes_sent, r.messages);
        (compute, comm, compute + comm + d.epoch_overhead)
    }

    #[test]
    fn measured_epoch_takes_slowest_rank() {
        let d = DeviceModel::a6000_pcie();
        let ranks = vec![
            MeasuredRank {
                spmm_fma: 1e8,
                ..MeasuredRank::default()
            },
            MeasuredRank {
                spmm_fma: 5e8,
                gemm_fma: 3e7,
                bytes_sent: (1 << 20) as f64,
                messages: 4.0,
                hidden_ns: 0,
            },
        ];
        let pred = d.slowest(&ranks);
        let slow = d.compute_time(5e8, 3e7);
        assert!(pred.compute_s == slow);
        assert!(pred.total_s > slow);
        // Zero hidden time prices every rank bit for bit as before.
        for r in &ranks {
            let t = d.rank_time(r);
            let (compute, comm, total) = blocking_price(&d, r);
            assert_eq!(t.compute_s.to_bits(), compute.to_bits());
            assert_eq!(t.comm_s.to_bits(), comm.to_bits());
            assert_eq!(t.total_s.to_bits(), total.to_bits());
            assert_eq!(t.hidden_s, 0.0);
        }
        assert_eq!(pred, d.rank_time(&ranks[1]));
    }

    #[test]
    fn hidden_time_above_comm_clamps() {
        let d = DeviceModel {
            epoch_overhead: 0.25,
            ..DeviceModel::a6000_pcie()
        };
        let r = MeasuredRank {
            spmm_fma: 6e10,
            gemm_fma: 0.0,
            bytes_sent: 2e10,
            messages: 0.0,
            hidden_ns: 5_000_000_000,
        };
        // One second of compute, one of comm, five "hidden".
        let t = d.rank_time(&r);
        assert_eq!(t.comm_s, 0.0);
        assert_eq!(t.hidden_s, 1.0);
        assert_eq!(t.total_s, t.compute_s + d.epoch_overhead);
        // Partly hidden: the rest stays exposed.
        let t = d.rank_time(&MeasuredRank {
            hidden_ns: 250_000_000,
            ..r
        });
        assert_eq!((t.comm_s, t.hidden_s), (0.75, 0.25));
        assert_eq!(t.total_s, 2.0);
    }

    #[test]
    fn no_ranks_is_the_default() {
        let d = DeviceModel::a6000_pcie();
        assert_eq!(d.slowest(&[]), Predicted::default());
    }

    #[test]
    fn epochs_per_sec_inverts_total() {
        let p = Predicted {
            compute_s: 0.2,
            comm_s: 0.3,
            hidden_s: 0.0,
            total_s: 0.5,
        };
        assert!((p.epochs_per_sec() - 2.0).abs() < 1e-12);
    }
}
