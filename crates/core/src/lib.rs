//! GNN-RDM core: distributed GCN training by **ReDistribution of Matrices**.
//!
//! The crate implements the paper's contribution and every comparator:
//!
//! * [`dist`] — distributed dense matrices ([`DistMat`]: row-sliced /
//!   column-sliced) and the form cache that tracks which layouts of a
//!   tensor exist on a rank.
//! * [`ops`] — FLOP-counted distributed products: the row-panel SpMM of
//!   Fig. 6 (communication-free at full replication, Fig. 2a; CAGNET-1D's
//!   broadcast SpMM at `R_A = 1`), the communication-free GEMM of Fig. 2b,
//!   and the partial+all-reduce weight-gradient GEMM.
//! * [`loss`] — softmax cross-entropy over row-distributed embeddings.
//! * [`adam`] — the Adam optimizer (replicated weights, deterministic).
//! * [`plan`] — execution plans: per-layer SpMM/GEMM orders plus
//!   memoization, model-driven plan selection ([`best_plan`]), and the one
//!   resolution of a run's request into a plan ([`plan::resolve`]) that
//!   training and serving share.
//! * [`gcn`] — the RDM forward/backward engine that executes any plan and
//!   charges exactly the redistributions of §IV-A.
//! * [`cagnet`] — the CAGNET baselines' aggregation: the row-panel SpMM on
//!   the RDM topology at `R_A = c`, 1D being 1.5D at `c = 1`.
//! * [`dgcl`] — the vertex-partitioned, halo-exchange baseline (DGCL-like).
//! * [`saint`] — GraphSAINT-RDM, GraphSAINT-DDP (§V-C) and masked-SpMM
//!   sampling (§III-F).
//! * [`metrics`] / [`trainer`] — epoch accounting and the public
//!   [`train_gcn`] entry point, which drives every algorithm through one of
//!   two step bodies: the row-sliced epoch CAGNET and DGCL share, and the
//!   RDM step full-batch RDM, GraphSAINT-RDM and masked-SpMM share.
//! * [`snapshot`] / [`infer`] — byte-exact trained-weight export/import
//!   and the forward-only entry point the serving path runs on, which can
//!   hold layer 1's aggregation `Â·H⁰` across a serving session.

pub mod adam;
pub mod cagnet;
pub mod dgcl;
pub mod dist;
pub mod gcn;
pub mod infer;
pub mod loss;
pub mod metrics;
pub mod ops;
pub mod plan;
pub mod saint;
pub mod snapshot;
pub mod trainer;

pub use dist::{Dist, DistMat};
pub use metrics::{EpochMetrics, TrainReport};
pub use plan::{best_plan, best_plan_with_ra_sparsity, overlap_inert_reason, LayerOrder, Plan};
pub use snapshot::WeightSnapshot;
pub use trainer::{train_gcn, Algo, TrainerConfig};
