//! Dense linear algebra for GNN-RDM.
//!
//! The central type is [`Mat`], a row-major `f32` matrix. All heavy kernels
//! (GEMM and its transposed variants) are cache-blocked and parallelized
//! with rayon over row panels, following the idioms of the Rust Performance
//! Book: flat storage, no per-element allocation, explicit blocking.
//!
//! The module split mirrors how the kernels are used by the distributed
//! layer:
//!
//! * [`mat`] — the matrix type, constructors, slicing and layout helpers.
//! * [`mod@gemm`] — `C = A·B`, `C = Aᵀ·B`, `C = A·Bᵀ` with accumulate variants.
//! * [`kernels`] — scalar-vs-fast kernel-path selection (thread-local
//!   [`KernelMode`] with a forced-width hook for differential tests).
//! * [`ops`] — element-wise operations (ReLU and its derivative, Hadamard,
//!   axpy, softmax / log-softmax rows).
//! * [`split`] — the divide/merge kernels of Fig. 7 of the paper, for whole
//!   matrices (a redistribution itself packs each piece from, and lands
//!   each piece in, its final place).

pub mod gemm;
pub mod kernels;
pub mod mat;
pub mod ops;
pub mod pool;
pub mod split;

pub use gemm::{gemm, gemm_acc, gemm_nt, gemm_tn, gemm_tn_acc};
pub use kernels::{Mode as KernelMode, Width as KernelWidth};
pub use mat::{part_range, Mat, MatRef};
pub use ops::{
    add_assign, allclose, hadamard, log_softmax_rows, max_abs_diff, relu, relu_backward,
    relu_backward_in_place, relu_in_place, scale, softmax_rows,
};
/// The worker pool's per-thread share of the host's cores, for crates that
/// size it without depending on the pool (the cluster driver gives each
/// of its `P` rank threads `rank_share(P)`).
pub use rayon::{current_num_threads, rank_share, with_share};
pub use split::{hstack, merge_col_chunks, merge_row_chunks, split_cols, split_rows, vstack};
