//! Per-layer cost entries: Tables II and III of the paper.
//!
//! All quantities are *global* (summed over ranks). Communication is in
//! **elements** (multiply by 4 for bytes); compute is in FMA operations
//! (`nnz·f` for SpMM, `N·f_{l-1}·f_l` for GEMM). Every entry takes the
//! replication factor `r_a` as an input: `r_a = p` is the paper's fully
//! replicated pricing, not a separate entry point. These are the paper's
//! rules, kept as the oracle the priced schedule is checked against
//! ([`crate::cost::config_cost`]); plans are priced on their schedule.

use crate::config::Order;

/// Feature widths around one layer: input width `f_{l-1}`, output `f_l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerDims {
    pub f_in: usize,
    pub f_out: usize,
}

/// Cost of one layer of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCost {
    /// Communication volume in elements.
    pub comm_elems: f64,
    /// SpMM FMA count.
    pub spmm_ops: f64,
    /// GEMM FMA count.
    pub gemm_ops: f64,
}

impl LayerCost {
    pub fn add(&mut self, other: LayerCost) {
        self.comm_elems += other.comm_elems;
        self.spmm_ops += other.spmm_ops;
        self.gemm_ops += other.gemm_ops;
    }
}

/// Elements moved by a row↔column redistribution of an `n × f` dense matrix
/// over `p` ranks: `(p-1)/p · n · f` (§III-D).
pub fn redistribution_elems(n: usize, f: usize, p: usize) -> f64 {
    (p - 1) as f64 / p as f64 * n as f64 * f as f64
}

/// Elements moved when the `R_A < P` scheme (§III-E) executes one
/// communication-free-style matrix product on a dense matrix of width `f`:
/// the broadcast inside each panel group, `(P/R_A - 1)·N·f`.
pub fn panel_broadcast_elems(n: usize, f: usize, p: usize, r_a: usize) -> f64 {
    assert!(
        r_a >= 1 && r_a <= p && p.is_multiple_of(r_a),
        "R_A must divide P"
    );
    (p / r_a - 1) as f64 * n as f64 * f as f64
}

/// Elements moved by the group redistribution of the `R_A < P` scheme:
/// `(R_A-1)/R_A · N · f` (§IV-A.4).
pub fn group_redistribution_elems(n: usize, f: usize, r_a: usize) -> f64 {
    (r_a - 1) as f64 / r_a as f64 * n as f64 * f as f64
}

/// Table II: one **forward** layer with order `ord`.
///
/// When `r_a == p` the adjacency is fully replicated and the SpMM itself is
/// communication-free; the only traffic is the intra-layer redistribution.
/// When `r_a < p` the SpMM adds the panel-group broadcast and the
/// redistribution happens inside groups of `R_A`.
pub fn forward_layer_cost(
    dims: LayerDims,
    ord: Order,
    n: usize,
    nnz: usize,
    p: usize,
    r_a: usize,
) -> LayerCost {
    // Width of the intermediate that crosses between the two operations.
    let inter_width = match ord {
        Order::SpmmFirst => dims.f_in,
        Order::GemmFirst => dims.f_out,
    };
    let spmm_ops = nnz as f64 * inter_width as f64;
    let gemm_ops = n as f64 * dims.f_in as f64 * dims.f_out as f64;
    let comm_elems = if r_a == p {
        redistribution_elems(n, inter_width, p)
    } else {
        group_redistribution_elems(n, inter_width, r_a)
            + panel_broadcast_elems(n, inter_width, p, r_a)
    };
    LayerCost {
        comm_elems,
        spmm_ops,
        gemm_ops,
    }
}

/// Table III: one **backward** layer with order `ord`.
///
/// `fwd_was_spmm_first` tells whether this layer's forward pass memoized
/// `AᵀH^{l-1}` (it can iff the forward order was SpMM-first). When the
/// backward order is GEMM-first *and* no memoized product exists, the
/// weight-gradient SpMM must be recomputed: `min(f_{l-1}, f_l)` extra ops
/// and `2·min(f_{l-1}, f_l)` extra redistribution volume (the N.M. rows).
pub fn backward_layer_cost(
    dims: LayerDims,
    ord: Order,
    fwd_was_spmm_first: bool,
    n: usize,
    nnz: usize,
    p: usize,
    r_a: usize,
) -> LayerCost {
    let inter_width = match ord {
        Order::SpmmFirst => dims.f_out, // A·Gˡ has width f_l
        Order::GemmFirst => dims.f_in,  // Gˡ·Wᵀ has width f_{l-1}
    };
    let mut spmm_ops = nnz as f64 * inter_width as f64;
    // Two GEMMs: gradient propagation and the weight gradient.
    let gemm_ops = 2.0 * n as f64 * dims.f_in as f64 * dims.f_out as f64;
    let mut comm_elems = if r_a == p {
        redistribution_elems(n, inter_width, p)
    } else {
        group_redistribution_elems(n, inter_width, r_a)
            + panel_broadcast_elems(n, inter_width, p, r_a)
    };
    if ord == Order::GemmFirst && !fwd_was_spmm_first {
        // Non-memoized penalty: an extra SpMM of the cheaper of AᵀH^{l-1}
        // and A·Gˡ, plus the redistributions around it (and, under
        // R_A < P, that SpMM's own panel broadcast).
        let w = dims.f_in.min(dims.f_out);
        spmm_ops += nnz as f64 * w as f64;
        comm_elems += if r_a == p {
            2.0 * redistribution_elems(n, w, p)
        } else {
            2.0 * group_redistribution_elems(n, w, r_a) + panel_broadcast_elems(n, w, p, r_a)
        };
    }
    LayerCost {
        comm_elems,
        spmm_ops,
        gemm_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Order::*;

    const N: usize = 1000;
    const NNZ: usize = 8000;
    const P: usize = 4;

    fn dims() -> LayerDims {
        LayerDims {
            f_in: 64,
            f_out: 16,
        }
    }

    #[test]
    fn redistribution_volume_formula() {
        assert_eq!(redistribution_elems(100, 10, 4), 750.0);
        assert_eq!(redistribution_elems(100, 10, 1), 0.0);
    }

    #[test]
    fn forward_spmm_first_uses_input_width() {
        let c = forward_layer_cost(dims(), SpmmFirst, N, NNZ, P, P);
        assert_eq!(c.spmm_ops, (NNZ * 64) as f64);
        assert_eq!(c.comm_elems, redistribution_elems(N, 64, P));
        assert_eq!(c.gemm_ops, (N * 64 * 16) as f64);
    }

    #[test]
    fn forward_gemm_first_uses_output_width() {
        let c = forward_layer_cost(dims(), GemmFirst, N, NNZ, P, P);
        assert_eq!(c.spmm_ops, (NNZ * 16) as f64);
        assert_eq!(c.comm_elems, redistribution_elems(N, 16, P));
        // GEMM op count is order-independent (Table II).
        assert_eq!(
            c.gemm_ops,
            forward_layer_cost(dims(), SpmmFirst, N, NNZ, P, P).gemm_ops
        );
    }

    #[test]
    fn forward_order_choice_follows_widths() {
        // §IV-A: if f_l > f_{l-1}, SpMM-first is cheaper; if f_l < f_{l-1},
        // GEMM-first is cheaper.
        let narrow_out = LayerDims {
            f_in: 128,
            f_out: 32,
        };
        let s = forward_layer_cost(narrow_out, SpmmFirst, N, NNZ, P, P);
        let d = forward_layer_cost(narrow_out, GemmFirst, N, NNZ, P, P);
        assert!(d.spmm_ops < s.spmm_ops && d.comm_elems < s.comm_elems);
        let wide_out = LayerDims {
            f_in: 32,
            f_out: 128,
        };
        let s = forward_layer_cost(wide_out, SpmmFirst, N, NNZ, P, P);
        let d = forward_layer_cost(wide_out, GemmFirst, N, NNZ, P, P);
        assert!(s.spmm_ops < d.spmm_ops && s.comm_elems < d.comm_elems);
    }

    #[test]
    fn backward_spmm_first_no_penalty_ever() {
        let a = backward_layer_cost(dims(), SpmmFirst, true, N, NNZ, P, P);
        let b = backward_layer_cost(dims(), SpmmFirst, false, N, NNZ, P, P);
        assert_eq!(a, b);
        assert_eq!(a.spmm_ops, (NNZ * 16) as f64);
    }

    #[test]
    fn backward_gemm_first_memoized_vs_not() {
        let memo = backward_layer_cost(dims(), GemmFirst, true, N, NNZ, P, P);
        let no_memo = backward_layer_cost(dims(), GemmFirst, false, N, NNZ, P, P);
        let w = 16; // min(64, 16)
        assert_eq!(no_memo.spmm_ops - memo.spmm_ops, (NNZ * w) as f64);
        assert_eq!(
            no_memo.comm_elems - memo.comm_elems,
            2.0 * redistribution_elems(N, w, P)
        );
    }

    #[test]
    fn backward_has_two_gemms() {
        let c = backward_layer_cost(dims(), SpmmFirst, false, N, NNZ, P, P);
        assert_eq!(c.gemm_ops, (2 * N * 64 * 16) as f64);
    }

    #[test]
    fn ra_scheme_comm_decreases_with_replication() {
        // Table II, R_A < P rows: higher replication, less data movement.
        let p = 8;
        let mut prev = f64::INFINITY;
        for r_a in [1, 2, 4, 8] {
            let c = forward_layer_cost(dims(), SpmmFirst, N, NNZ, p, r_a);
            assert!(
                c.comm_elems < prev,
                "R_A={r_a} comm {} not below previous {prev}",
                c.comm_elems
            );
            prev = c.comm_elems;
        }
    }

    #[test]
    fn ra_equal_1_is_cagnet_broadcast_volume() {
        // R_A = 1: no group redistribution, broadcast volume (P-1)·N·f —
        // identical to CAGNET 1D (§III-E).
        let p = 8;
        let c = forward_layer_cost(dims(), SpmmFirst, N, NNZ, p, 1);
        assert_eq!(c.comm_elems, ((p - 1) * N * 64) as f64);
    }

    #[test]
    fn ra_equal_p_matches_plain_formula() {
        let p = 8;
        let via_ra = forward_layer_cost(dims(), SpmmFirst, N, NNZ, p, p);
        assert_eq!(via_ra.comm_elems, redistribution_elems(N, 64, p));
    }

    #[test]
    #[should_panic]
    fn ra_must_divide_p() {
        let _ = panel_broadcast_elems(N, 8, 8, 3);
    }
}
