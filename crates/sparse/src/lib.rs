//! Sparse linear algebra for GNN-RDM.
//!
//! Graph adjacency matrices are stored in CSR ([`Csr`]) with `u32` column
//! indices (graphs here are far below 2³² vertices; halving index width
//! doubles effective memory bandwidth, the limiting resource of SpMM).
//!
//! * [`csr`] — the CSR type, COO construction, transpose, slicing by row
//!   panel / column block, submatrix induction (used by GraphSAINT and the
//!   vertex-partitioned DGCL baseline), permutation.
//! * [`mod@spmm`] — rayon-parallel `C = A·B` for CSR `A` and dense `B`, plus the
//!   masked variant from §III-F.
//! * [`norm`] — the GCN symmetric normalization `D^{-1/2}(A+I)D^{-1/2}`,
//!   of a whole matrix or fused with induction into reused buffers
//!   ([`gcn_normalize_induced`]).

pub mod csr;
pub mod norm;
pub mod spmm;

pub use csr::{balanced_panels, Coo, Csr, InduceScratch};
pub use norm::{gcn_normalize, gcn_normalize_induced, mean_normalize, row_normalize};
pub use spmm::{spmm, spmm_masked};
