//! The schedule of one epoch as data: one ordered step list per plan,
//! read by both the GCN engine and the conformance checker.
//!
//! An epoch's schedule is a pure function of the plan (§III-C, §IV-A,
//! Table IV): which Row↔Col redistributions run, where the memoized
//! `Â·Hˡ⁻¹` stands in for a backward SpMM, which weight-gradient product
//! fires, where the ReLU mask must be aligned. [`schedule`] is the one
//! place that decides it: it tracks which layouts of each tensor exist —
//! symbolically, once — and writes every decision down as a [`Step`].
//! `rdm-core`'s engine executes the list over its layout caches and
//! [`crate::conformance`] prices it; neither inspects which layouts exist
//! to decide what runs, so executor and checker cannot disagree.

use crate::config::{Order, OrderConfig};
use rdm_trace::{Form, TraceCollective};
use std::collections::HashSet;

/// A tensor of one epoch. Each slot is written by one step (the
/// activation and the ReLU mask update theirs in place) and may come to
/// hold both layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// `Hˡ`: the input features (`l = 0`), layer `l`'s activated output,
    /// or the logits (`l = L`).
    H(usize),
    /// Layer `l`'s forward intermediate: `Â·Hˡ⁻¹` SpMM-first (what the
    /// weight gradient may reuse), `Hˡ⁻¹·Wˡ` GEMM-first.
    T(usize),
    /// The gradient with respect to `Hˡ`: the loss gradient (`l = L`), then
    /// each backward layer's output, masked by `σ'` above layer 1.
    G(usize),
    /// Backward layer `l`'s intermediate: `Âᵀ·Gˡ` or `Gˡ·Wˡᵀ`.
    Tb(usize),
    /// Layer `l`'s non-memoized weight gradient's recomputed aggregation.
    R(usize),
}

/// A distributed kernel: the panel SpMM on the tile layout (Fig. 2a,
/// Fig. 6) or the row-sliced GEMM with a replicated weight (Fig. 2b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Spmm,
    Gemm,
}

impl Op {
    /// The layout the kernel reads and writes.
    pub fn form(self) -> Form {
        match self {
            Op::Spmm => Form::Col,
            Op::Gemm => Form::Row,
        }
    }
}

/// One step of an epoch's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A blocking Row↔Col conversion of the width-`f` slot into `to`,
    /// tagged `Redistribute` where Table IV prices it and `Other` for the
    /// ReLU-mask alignment it does not.
    Convert {
        slot: Slot,
        to: Form,
        kind: TraceCollective,
        f: usize,
    },
    /// `dst = op(src)`: the SpMM `Â·src` (`Âᵀ·src` with `bwd`) at width
    /// `f_in = f_out`, or the GEMM `src·Wˡ` (`src·Wˡᵀ` with `bwd`) from
    /// width `f_in` to `f_out`. With `fed`, `src` lacks the layout the
    /// kernel reads: one `Redistribute` conversion of its other layout
    /// feeds the kernel strip by strip and leaves that layout in `src`.
    Product {
        op: Op,
        layer: usize,
        src: Slot,
        dst: Slot,
        f_in: usize,
        f_out: usize,
        fed: bool,
        bwd: bool,
    },
    /// The weight gradient `Yˡ = aᵀ·b` (`f_in × f_out`) of the row slices
    /// of `a` and `b`, ring all-reduced.
    WeightGrad {
        layer: usize,
        a: Slot,
        b: Slot,
        f_in: usize,
        f_out: usize,
    },
    /// `Hˡ ← relu(Hˡ)` in the layout its product left (every layer but
    /// the last).
    Relu { layer: usize, form: Form },
    /// `Gˡ⁻¹ ← Gˡ⁻¹ ⊙ σ'(Hˡ⁻¹)` in the gradient's layout `form`.
    ReluMask { layer: usize, form: Form },
    /// The loss boundary: the logits leave `H(L)` row-sliced and the loss
    /// gradient arrives in `G(L)` row-sliced. The forward pass ends here.
    Loss,
    /// Free layout `form` of `slot`. Activations and the memoized
    /// aggregations live to the end of the epoch; every other tensor is
    /// freed once its layer is done with it.
    Free { slot: Slot, form: Form },
}

/// The step list under construction, and which slot layouts exist so far.
#[derive(Default)]
struct Builder {
    steps: Vec<Step>,
    held: HashSet<(Slot, Form)>,
}

impl Builder {
    /// Free the layouts of `slot` among `forms` that it holds.
    fn free(&mut self, slot: Slot, forms: &[Form]) {
        for &form in forms {
            if self.held.remove(&(slot, form)) {
                self.steps.push(Step::Free { slot, form });
            }
        }
    }

    /// Convert the width-`f` `slot` to `to` unless it already holds it.
    fn require(&mut self, slot: Slot, to: Form, kind: TraceCollective, f: usize) {
        if self.held.insert((slot, to)) {
            self.steps.push(Step::Convert { slot, to, kind, f });
        }
    }

    /// `dst = op(src)`, fed by a conversion when `src` lacks the layout
    /// the kernel reads; returns the layout `dst` holds.
    fn product(&mut self, op: Op, l: usize, src: Slot, dst: Slot, f: (usize, usize)) -> Form {
        let fed = self.held.insert((src, op.form()));
        // The backward pass (`Âᵀ`, `Wᵀ`) multiplies gradients.
        let bwd = matches!(src, Slot::G(_) | Slot::Tb(_));
        self.steps.push(Step::Product {
            op,
            layer: l,
            src,
            dst,
            f_in: f.0,
            f_out: f.1,
            fed,
            bwd,
        });
        self.held.insert((dst, op.form()));
        op.form()
    }
}

/// The schedule of one epoch of `config` over layer widths `feats`
/// (`feats.len() = L + 1`): the forward pass through the loss boundary,
/// then the backward pass. With `memoize` an SpMM-first forward layer's
/// `Â·Hˡ⁻¹` is kept for the weight gradient (§III-C).
///
/// With `held`, layer 1's aggregation `T¹ = Â·H⁰` is held row-sliced at
/// entry instead of the input: a full-graph serving batch after the first,
/// whose frozen weights and adjacency make `T¹` a constant of the session.
/// Layer 1 then runs its GEMM alone, on `T¹`'s row slice, and the schedule
/// never frees `T¹` (the session keeps it, as a memoized plan keeps its
/// `T`). Such a schedule is forward-only: it ends at the loss boundary.
///
/// # Errors
/// If `feats` does not have `L + 1` widths, or `held` is asked of a plan
/// whose first layer is GEMM-first (its layer 1 never forms `Â·H⁰`).
pub fn schedule(
    config: &OrderConfig,
    memoize: bool,
    feats: &[usize],
    held: bool,
) -> Result<Vec<Step>, String> {
    use Slot::{Tb, G, H, R, T};
    use TraceCollective::{Other, Redistribute};
    const BOTH: &[Form] = &[Form::Row, Form::Col];
    let layers = config.layers();
    if feats.len() != layers + 1 {
        let widths = feats.len();
        return Err(format!("{widths} layer widths for a {layers}-layer plan"));
    }
    if held && config.forward[0] == Order::GemmFirst {
        return Err("a GEMM-first layer 1 never forms the aggregation Â·H⁰".into());
    }
    let mut b = Builder::default();
    if held {
        b.held.insert((T(1), Form::Row));
    } else {
        // The input holds both layouts: the initial distribution is free
        // (§IV-B).
        b.held.extend([(H(0), Form::Row), (H(0), Form::Col)]);
    }
    for l in 1..=layers {
        let (f_in, f_out) = (feats[l - 1], feats[l]);
        let form = match config.forward[l - 1] {
            // T = Â·Hˡ⁻¹ on the tile layout, then Hˡ = T·W on row slices.
            Order::SpmmFirst => {
                if !(held && l == 1) {
                    b.product(Op::Spmm, l, H(l - 1), T(l), (f_in, f_in));
                }
                b.product(Op::Gemm, l, T(l), H(l), (f_in, f_out))
            }
            // T = Hˡ⁻¹·W on row slices, then Hˡ = Â·T on the tile layout.
            Order::GemmFirst => {
                b.product(Op::Gemm, l, H(l - 1), T(l), (f_in, f_out));
                let form = b.product(Op::Spmm, l, T(l), H(l), (f_out, f_out));
                b.free(T(l), BOTH);
                form
            }
        };
        if l < layers {
            b.steps.push(Step::Relu { layer: l, form });
        }
        // A memoized Â·Hˡ⁻¹ lives to the end of the epoch; a held one
        // outlives it.
        if !(memoize || held && l == 1) {
            b.free(T(l), BOTH);
        }
    }
    b.require(H(layers), Form::Row, Redistribute, feats[layers]);
    b.steps.push(Step::Loss);
    if held {
        return Ok(b.steps);
    }
    b.held.insert((G(layers), Form::Row));
    for l in (1..=layers).rev() {
        let (f_in, f_out) = (feats[l - 1], feats[l]);
        let backward = config.backward[l - 1];
        // Gˡ⁻¹ = Âᵀ·Gˡ·Wˡᵀ in the plan's order.
        let form = match backward {
            // Âᵀ·Gˡ's row slices may still feed the weight gradient.
            Order::SpmmFirst => {
                b.product(Op::Spmm, l, G(l), Tb(l), (f_out, f_out));
                let form = b.product(Op::Gemm, l, Tb(l), G(l - 1), (f_out, f_in));
                b.free(Tb(l), &[Form::Col]);
                form
            }
            Order::GemmFirst => {
                b.product(Op::Gemm, l, G(l), Tb(l), (f_out, f_in));
                let form = b.product(Op::Spmm, l, Tb(l), G(l - 1), (f_in, f_in));
                b.free(Tb(l), BOTH);
                form
            }
        };
        // The weight gradient Yˡ = (Hˡ⁻¹)ᵀ·Âᵀ·Gˡ = (Â·Hˡ⁻¹)ᵀ·Gˡ by its
        // cheapest valid product.
        let memo = memoize && config.forward[l - 1] == Order::SpmmFirst;
        let stand_in = memo
            && (backward == Order::GemmFirst
                || (!b.held.contains(&(H(l - 1), Form::Row))
                    && b.held.contains(&(G(l), Form::Row))));
        let (a, g) = if stand_in {
            // The memoized Â·Hˡ⁻¹ stands in for the backward SpMM (or for
            // converting Hˡ⁻¹); the forward GEMM left its row slices.
            (T(l), G(l))
        } else if backward == Order::SpmmFirst {
            // Âᵀ·Gˡ is already row-sliced; Hˡ⁻¹ may need converting (only
            // in 3-layer plans).
            b.require(H(l - 1), Form::Row, Redistribute, f_in);
            (H(l - 1), Tb(l))
        } else if f_out <= f_in {
            // Non-memoized (Table III, N.M.): recompute Âᵀ·Gˡ, the
            // narrower aggregation, with its conversions.
            b.require(G(l), Form::Col, Redistribute, f_out);
            b.product(Op::Spmm, l, G(l), R(l), (f_out, f_out));
            b.require(R(l), Form::Row, Redistribute, f_out);
            b.require(H(l - 1), Form::Row, Redistribute, f_in);
            (H(l - 1), R(l))
        } else {
            // Non-memoized: recompute Â·Hˡ⁻¹.
            b.require(H(l - 1), Form::Col, Redistribute, f_in);
            b.product(Op::Spmm, l, H(l - 1), R(l), (f_in, f_in));
            b.require(R(l), Form::Row, Redistribute, f_in);
            (R(l), G(l))
        };
        b.steps.push(Step::WeightGrad {
            layer: l,
            a,
            b: g,
            f_in,
            f_out,
        });
        b.free(R(l), BOTH);
        // σ'(Hˡ⁻¹) aligned to the gradient's layout; none into the input.
        if l > 1 {
            b.require(H(l - 1), form, Other, f_in);
            b.steps.push(Step::ReluMask { layer: l, form });
        }
        b.free(G(l), BOTH);
        b.free(Tb(l), BOTH);
    }
    Ok(b.steps)
}

/// The forward half of [`schedule`], up to the loss boundary: what a
/// forward-only pass (a serving batch) runs.
///
/// # Errors
/// As [`schedule`].
pub fn forward_schedule(
    config: &OrderConfig,
    memoize: bool,
    feats: &[usize],
    held: bool,
) -> Result<Vec<Step>, String> {
    let mut steps = schedule(config, memoize, feats, held)?;
    let loss = steps.iter().position(|s| *s == Step::Loss);
    steps.truncate(loss.unwrap_or(steps.len()));
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{config_cost, price_plan, GnnShape};
    use crate::layer::{group_redistribution_elems, redistribution_elems};

    /// The `(P, R_A)` grids the priced schedule is checked on.
    const GRIDS: [(usize, usize); 6] = [(2, 2), (4, 4), (8, 8), (4, 2), (4, 1), (8, 2)];

    /// The price selection reads is checked against the paper's own
    /// composition rules (§IV-A, Table IV), not against itself: on a
    /// P-divisible shape, every 2- and 3-layer plan's priced epoch moves
    /// exactly `config_cost`'s volume and multiplies exactly its SpMM and
    /// GEMM FMAs. Where a layer is GEMM-first in both passes, Table IV
    /// charges a non-memoized redistribution the schedule may find cached,
    /// so there the rules are an upper bound. 3-layer ids 36, 37, 44 and 45
    /// (forward D→S into layer 2, backward S at layer 2 under D at layer 3)
    /// pay one width-f₁ group conversion more than the rules: the layer-2
    /// weight gradient converts H¹ to row slices as `Redistribute`, which
    /// `config_cost` does not count — and the ReLU mask then finds that
    /// layout cached, so its `Other` alignment is skipped.
    #[test]
    fn priced_schedule_agrees_with_config_cost() {
        for (layers, feats) in [(2, vec![16, 12, 8]), (3, vec![16, 12, 8, 4])] {
            let shape = GnnShape {
                n: 96,
                nnz: 960,
                feats,
            };
            for &(p, r_a) in &GRIDS {
                let boundary = |f: usize| match r_a == p {
                    true => redistribution_elems(shape.n, f, p),
                    false => group_redistribution_elems(shape.n, f, r_a),
                };
                for config in OrderConfig::enumerate(layers) {
                    let id = config.id();
                    let what = format!("{layers}-layer id {id} P {p} R_A {r_a}");
                    let rules = config_cost(&shape, &config, p, r_a);
                    let price = price_plan(&shape, &config, p, r_a, 1.0).cost;
                    assert_eq!(price.spmm_ops, rules.spmm_ops, "{what}: SpMM FMAs");
                    assert_eq!(price.gemm_ops, rules.gemm_ops, "{what}: GEMM FMAs");
                    let (bytes, model) = (price.comm_elems * 4.0, rules.comm_elems * 4.0);
                    if layers == 3 && [36, 37, 44, 45].contains(&id) {
                        let excess = boundary(shape.feats[1]) * 4.0;
                        assert_eq!(bytes, model + excess, "{what}: the H¹ conversion");
                    } else if (0..layers).any(|l| {
                        config.forward[l] == Order::GemmFirst
                            && config.backward[l] == Order::GemmFirst
                    }) {
                        assert!(
                            bytes <= model,
                            "{what}: {bytes} B above the model's {model}"
                        );
                    } else {
                        assert_eq!(bytes, model, "{what}: bytes");
                    }
                }
            }
        }
    }
}
