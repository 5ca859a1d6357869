//! The SPMD multi-rank runtime: GNN-RDM's substitute for a multi-GPU node.
//!
//! The paper runs on 8 GPUs connected by NVLink/PCIe and communicates with
//! NCCL. Here every *rank* is an OS thread with rank-private buffers; ranks
//! exchange data **only** through the [`RankCtx`] collectives, and every
//! transferred byte is recorded per rank and per [`CollectiveKind`]. That
//! accounting is what lets the experiments *measure* the communication
//! volumes the paper derives analytically (Tables II–IV, Fig. 12) instead of
//! trusting the formulas.
//!
//! * [`cluster`] — [`Cluster::run`]: spawn `P` ranks, run an SPMD closure,
//!   join, and return per-rank results plus [`CommStats`].
//! * [`feed`] — the host feed of [`Cluster::run_fed`]: input the calling
//!   thread builds one item ahead while the ranks run, each item built
//!   once and read in place by every rank.
//! * [`mailbox`] — the blocking channel fabric between rank pairs, running
//!   a sequence-numbered envelope protocol with simulated retransmission
//!   so per-link FIFO delivery survives an unreliable wire.
//! * [`fault`] — deterministic, seed-reproducible fault injection
//!   ([`FaultPlan`]): per-link drops, reordering delays and stragglers.
//!   [`Cluster::with_faults`] runs any SPMD program under a plan; results
//!   are bit-identical to the fault-free run while retransmission cost is
//!   accounted separately in [`CommStats`].
//! * [`collectives`] — broadcast / all-gather / all-to-all / all-reduce /
//!   reduce-scatter over an explicit rank group (the `R_A < P` row-panel
//!   scheme of §III-E needs subsets), and the one Row↔Col redistribution
//!   primitive: a [`Redistribution`] value names group, target form,
//!   [`Wire`] and pipeline depth, and [`RankCtx::redistribute`] executes
//!   it.
//! * [`strip`] — the indexed-strip wire format of sparsity-aware
//!   redistribution: bit-zero rows are elided on the wire and zero-filled
//!   on receive, adaptively (never above the dense byte bound) and
//!   losslessly (bit-identical reconstruction).
//! * [`stats`] — byte, message, wall-time, retransmission and
//!   dense-equivalent-volume accounting: what the fabric measured, nothing
//!   modeled beyond the retries' backoff.

pub mod cluster;
pub mod collectives;
pub mod fault;
pub mod feed;
pub mod mailbox;
pub mod stats;
pub mod strip;

pub use cluster::{Cluster, RankCtx, RunOutput};
pub use collectives::{Redistribution, Wire};
pub use fault::{FaultPlan, Resolution};
pub use rdm_trace::Form;
pub use stats::{CollectiveKind, CommStats};
pub use strip::{pack_nonzero_rows, unpack_rows, Expect};
