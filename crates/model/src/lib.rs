//! The analytical performance model of GNN-RDM.
//!
//! Everything here is a pure function of the GNN shape
//! (`N`, `nnz`, feature widths), the cluster size `P`, the adjacency
//! replication factor `R_A`, the row-occupancy factor `σ` of the indexed
//! wire, and the per-layer SpMM/GEMM ordering — no I/O, no execution.
//! Each question has one entry point. A plan is priced on the schedule
//! the engine runs ([`price_plan`]), with `R_A` and `σ` as arguments: full
//! replication on the dense wire is `R_A = P, σ = 1`, not a separate
//! signature. The same quantities are measured by `rdm-comm`'s byte
//! counters during real runs, and tests assert the two agree exactly.
//!
//! * [`config`] — orderings (`S`/`D` per layer per pass), the paper's ID
//!   encoding, enumeration of all `2^{2L}` configurations.
//! * [`layer`] — the paper's per-layer rules (Tables II and III), including
//!   the `R_A < P` row-tiling variants and the non-memoized penalty. With
//!   [`symbolic`] and `cost::config_cost` they are the oracle the priced
//!   schedule is checked against; no selection reads them.
//! * [`cost`] — a plan's price on its schedule (communication elements,
//!   SpMM and GEMM FMAs, and each rank's book), the Pareto filter
//!   (Table VI), and the rules' whole-network composition (Table IV).
//! * [`symbolic`] — symbolic 2-layer costs as linear combinations of
//!   `f_in, f_h, f_out, min(…)` terms, regenerating Table IV.
//! * [`memory`] — the per-GPU space model (Table X).
//! * [`device`] — the calibrated device model, the one clock: a rank's
//!   op and byte book in simulated seconds on the paper's 8×A6000 node, and
//!   a unit of work as long as its slowest rank. Selection ranks plans by
//!   it and the engine books every executed unit by it.
//! * [`schedule`](mod@schedule) — one epoch's schedule as an ordered step
//!   list, the one description of a plan that the GCN engine executes,
//!   the checker diffs and selection prices.
//! * [`conformance`] — the schedule-conformance checker: price a plan's
//!   step list into the predicted per-rank event sequence and diff it
//!   against a recorded `rdm-trace` run.
//! * [`serving`] — the serving-session extension of the checker: the
//!   per-batch schedule predictor/extractor for online inference traces,
//!   where batches after the first start from layer 1's held aggregation.

pub mod config;
pub mod conformance;
pub mod cost;
pub mod device;
pub mod layer;
pub mod memory;
pub mod schedule;
pub mod serving;
pub mod symbolic;

pub use config::{Order, OrderConfig};
pub use conformance::{check_run, predict_epoch, SchedEvent, Strip, Violation};
pub use cost::{
    pareto_configs, pareto_ids, price_plan, price_ranks, Cost, GnnShape, PlanPrice, RankPrice,
};
pub use device::{DeviceModel, MeasuredRank, Predicted};
pub use layer::{
    group_redistribution_elems, panel_broadcast_elems, redistribution_elems, LayerDims,
};
pub use memory::{cagnet_bytes_per_gpu, max_replication, rdm_bytes_per_gpu, MemoryParams};
pub use schedule::{forward_schedule, schedule, Op, Slot, Step};
pub use serving::{
    check_session, extract_session, predict_session, ServeEvent, ServeViolation, SessionBatch,
};
pub use symbolic::{table4, Table4Row};
