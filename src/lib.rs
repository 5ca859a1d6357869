//! # GNN-RDM
//!
//! A Rust reproduction of *Communication Optimization for Distributed
//! Execution of Graph Neural Networks* (Kurt, Yan, Sukumaran-Rajam, Pandey,
//! Sadayappan — IPDPS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`dense`] — dense matrices and blocked, rayon-parallel GEMM kernels.
//! * [`sparse`] — CSR sparse matrices, SpMM, GCN normalization.
//! * [`comm`] — the SPMD multi-rank runtime with byte-counted collectives
//!   (the "multi-GPU node" substrate; each rank is an OS thread).
//! * [`graph`] — synthetic graph generators, the paper's eight datasets,
//!   partitioners, GraphSAINT samplers.
//! * [`model`] — the analytical cost model (Tables II–IV, VI, X) and the
//!   device model used for simulated timing.
//! * [`core`] — distributed matrices, redistribution, communication-free
//!   distributed SpMM/GEMM, GCN training (RDM + CAGNET + DGCL + GraphSAINT
//!   trainers).
//! * [`trace`] — per-rank structured event tracing with Chrome-trace
//!   export (`rdm-train --trace`), checked against the model's predicted
//!   schedule by `rdm_model::conformance`.
//! * [`serve`] — batched online inference serving: a long-lived cluster
//!   loads a trained weight snapshot and executes a deterministic
//!   open-loop request stream (`rdm-serve`), reporting virtual p50/p99
//!   latency and throughput.
//!
//! ## Quickstart
//!
//! ```
//! use gnn_rdm::prelude::*;
//!
//! // A small synthetic dataset, 4 simulated GPUs, 2-layer GCN.
//! let ds = DatasetSpec::synthetic("demo", 256, 2_000, 16, 4).instantiate(42);
//! let device = DeviceModel::a6000_pcie();
//! // Full replication (r_a = P = 4) on the dense wire (sigma = 1).
//! let plan = best_plan(&ds.shape_layers(16, 2), 4, 4, &device, 1.0);
//! let cfg = TrainerConfig::rdm(4, plan).epochs(3);
//! let report = train_gcn(&ds, &cfg).unwrap();
//! assert_eq!(report.epochs.len(), 3);
//! ```

pub mod cli;

pub use rdm_comm as comm;
pub use rdm_core as core;
pub use rdm_dense as dense;
pub use rdm_graph as graph;
pub use rdm_model as model;
pub use rdm_serve as serve;
pub use rdm_sparse as sparse;
pub use rdm_trace as trace;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rdm_comm::{Cluster, CollectiveKind, CommStats, FaultPlan};
    pub use rdm_core::{
        best_plan, train_gcn, Algo, DistMat, LayerOrder, Plan, TrainerConfig, WeightSnapshot,
    };
    pub use rdm_dense::Mat;
    pub use rdm_graph::{Dataset, DatasetSpec, SaintSampler};
    pub use rdm_model::{DeviceModel, GnnShape, LayerDims, OrderConfig};
    pub use rdm_serve::{BatchPolicy, LoadGen, ServeConfig, ServeReport, ServeSampler};
    pub use rdm_sparse::Csr;
}
