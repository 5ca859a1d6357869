//! Graph datasets for GNN-RDM.
//!
//! The paper evaluates on eight public datasets (Table V) ranging up to
//! 117 M edges. Those graphs (and the CAMI metagenomic reads) are not
//! shippable here, so this crate provides *synthetic stand-ins with the
//! same shape parameters*: vertex count, edge count, feature width and
//! label count are taken from Table V (optionally scaled down by a common
//! factor for CPU execution), while the structure comes from an RMAT-style
//! power-law generator blended with planted communities so that (a) degree
//! skew stresses load balance the way real graphs do and (b) labels are
//! *learnable*, which the accuracy-vs-time experiment (Fig. 13) needs.
//!
//! * [`gen`] — RMAT, Erdős–Rényi and stochastic-block-model edge
//!   generators, symmetrization.
//! * [`dataset`] — [`DatasetSpec`] (shape parameters; includes the paper's
//!   eight rows) and [`Dataset`] (materialized graph + features + labels +
//!   splits).
//! * [`partition`] — range / random / greedy-BFS vertex partitioners and
//!   edge-cut accounting (the DGCL-like baseline's substrate).
//! * [`sampler`] — GraphSAINT node / edge / random-walk subgraph samplers.

pub mod dataset;
pub mod gen;
pub mod partition;
pub mod sampler;

pub use dataset::{paper_datasets, Dataset, DatasetSpec, InducedBatch};
pub use gen::{erdos_renyi, rmat, sbm, symmetrize};
pub use partition::{edge_cut, greedy_bfs_partition, random_partition, range_partition};
pub use sampler::{SaintSampler, Subgraph};
