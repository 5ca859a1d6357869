//! Softmax cross-entropy over row-distributed final embeddings.
//!
//! The loss "needs all the embeddings for a single vertex to be in the same
//! process node" (§IV-A.1), which is why the RDM plan always delivers a
//! row-sliced `H^L`. Each rank evaluates its own vertices; scalars are
//! combined with a tiny all-reduce. A training step scores its logits with
//! [`score`]: loss, gradient and both accuracies from one sweep over the
//! logits and one all-reduce.

use crate::dist::{Dist, DistMat};
use rdm_comm::{CollectiveKind, RankCtx};
use rdm_dense::Mat;
use std::cmp::Ordering;

/// Which global vertices participate (train mask) and their labels.
pub struct LossSpec<'a> {
    /// Label of every global vertex.
    pub labels: &'a [u32],
    /// Mask of vertices contributing to the loss (the training set).
    pub mask: &'a [bool],
    pub num_classes: usize,
}

/// One row's share of the masked cross-entropy: writes
/// `softmax(row) − onehot(y)` into `grad` and returns `log softmax(row)[y]`.
/// These are the operations of `softmax_rows` and `log_softmax_rows`, in
/// their order — the row max, one `exp` per element, their sum in element
/// order — so every bit equals the two-matrix form's.
fn xent_row(row: &[f32], y: usize, grad: &mut [f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (g, &v) in grad.iter_mut().zip(row) {
        *g = (v - max).exp();
        sum += *g;
    }
    let inv = 1.0 / sum;
    for g in grad.iter_mut() {
        *g *= inv;
    }
    grad[y] -= 1.0;
    row[y] - (sum.ln() + max)
}

/// The argmax order on logits: `partial_cmp` on every pair of numbers (so
/// `±0` tie, and `max_by` keeps the last of equal maxima) with NaN below
/// every number, so a diverged logit cannot panic one rank while its peers
/// wait in the next all-reduce.
fn logit_order(a: &f32, b: &f32) -> Ordering {
    b.is_nan()
        .cmp(&a.is_nan())
        .then_with(|| a.partial_cmp(b).unwrap_or(Ordering::Equal))
}

/// Add one masked row to a `[correct, count]` tally: correct when its
/// argmax is `label` and a number (a row of NaNs predicts nothing).
fn tally(t: &mut [f32], row: &[f32], label: u32) {
    t[1] += 1.0;
    let pred = row.iter().enumerate().max_by(|a, b| logit_order(a.1, b.1));
    if pred.is_some_and(|(i, v)| i == label as usize && !v.is_nan()) {
        t[0] += 1.0;
    }
}

/// What a step learns from its row-sliced logits; identical on every rank.
pub struct Scores {
    /// Mean softmax cross-entropy over the loss mask.
    pub loss: f32,
    /// Its gradient with respect to the logits, row-sliced like them.
    pub grad: DistMat,
    /// Train (the loss mask) and test accuracy, when a test mask was given.
    pub accuracy: Option<(f32, f32)>,
}

/// Score row-sliced logits in one sweep: the mean masked cross-entropy,
/// its gradient, and — given a `test` mask — train and test accuracy.
/// Everything is combined by **one** all-reduce of 2 elements (loss and
/// count) or 6 (plus correct and count per accuracy), each element summed
/// in rank order exactly as the separate reductions it replaces.
pub fn score(
    logits: &DistMat,
    spec: &LossSpec<'_>,
    test: Option<&[bool]>,
    ctx: &RankCtx,
) -> Scores {
    assert_eq!(logits.dist, Dist::Row, "loss needs row-sliced logits");
    assert_eq!(spec.labels.len(), logits.rows);
    assert_eq!(spec.mask.len(), logits.rows);
    let local = &logits.local;
    let mut grad = Mat::zeros(local.rows(), local.cols());
    let (mut loss, mut count) = (0.0f64, 0.0f64);
    // [train correct, train count, test correct, test count]
    let mut acc = [0.0f32; 4];
    for (li, g) in logits.my_rows(ctx).enumerate() {
        let (row, y) = (local.row(li), spec.labels[g]);
        if spec.mask[g] {
            loss -= xent_row(row, y as usize, grad.row_mut(li)) as f64;
            count += 1.0;
        }
        if let Some(test) = test {
            if spec.mask[g] {
                tally(&mut acc[..2], row, y);
            }
            if test[g] {
                tally(&mut acc[2..], row, y);
            }
        }
    }
    let parts = [loss as f32, count as f32, acc[0], acc[1], acc[2], acc[3]];
    let width = if test.is_some() { 6 } else { 2 };
    // Pooled constructor (not `from_vec` with a fresh literal) so the
    // per-epoch reduction stays allocation-free in steady state.
    let partial = Mat::from_fn(1, width, |_, j| parts[j]);
    let summed = ctx.all_reduce_sum(partial, CollectiveKind::AllReduce);
    let total_count = summed.get(0, 1).max(1.0);
    // Scale gradient by 1/total_count (mean reduction).
    rdm_dense::scale(&mut grad, 1.0 / total_count);
    let ratio = |c: usize| summed.get(0, c) / summed.get(0, c + 1).max(1.0);
    Scores {
        loss: summed.get(0, 0) / total_count,
        grad: DistMat {
            dist: Dist::Row,
            rows: logits.rows,
            cols: logits.cols,
            local: grad,
        },
        accuracy: test.map(|_| (ratio(2), ratio(4))),
    }
}

/// Mean softmax cross-entropy over masked vertices and its gradient with
/// respect to the logits, evaluated on a row-sliced logits matrix. The
/// returned gradient is row-sliced like the input; the scalar loss is
/// identical on every rank.
pub fn softmax_xent(logits: &DistMat, spec: &LossSpec<'_>, ctx: &RankCtx) -> (f32, DistMat) {
    let s = score(logits, spec, None, ctx);
    (s.loss, s.grad)
}

/// Classification accuracy of row-sliced logits over a masked vertex set;
/// identical on every rank.
pub fn accuracy(logits: &DistMat, labels: &[u32], mask: &[bool], ctx: &RankCtx) -> f32 {
    assert_eq!(logits.dist, Dist::Row, "accuracy needs row-sliced logits");
    let mut t = [0.0f32; 2];
    for (li, g) in logits.my_rows(ctx).enumerate() {
        if mask[g] {
            tally(&mut t, logits.local.row(li), labels[g]);
        }
    }
    let partial = Mat::from_fn(1, 2, |_, j| t[j]);
    let summed = ctx.all_reduce_sum(partial, CollectiveKind::AllReduce);
    summed.get(0, 0) / summed.get(0, 1).max(1.0)
}

/// Serial reference implementations for testing the distributed versions.
pub mod serial {
    use super::{tally, xent_row};
    use rdm_dense::Mat;

    /// Mean masked cross-entropy and its logits gradient.
    pub fn softmax_xent(logits: &Mat, labels: &[u32], mask: &[bool]) -> (f32, Mat) {
        let mut loss = 0.0f64;
        let mut count = 0.0f64;
        let mut grad = Mat::zeros(logits.rows(), logits.cols());
        for i in 0..logits.rows() {
            if !mask[i] {
                continue;
            }
            loss -= xent_row(logits.row(i), labels[i] as usize, grad.row_mut(i)) as f64;
            count += 1.0;
        }
        let c = count.max(1.0);
        rdm_dense::scale(&mut grad, 1.0 / c as f32);
        ((loss / c) as f32, grad)
    }

    /// Masked argmax accuracy.
    pub fn accuracy(logits: &Mat, labels: &[u32], mask: &[bool]) -> f32 {
        let mut t = [0.0f32; 2];
        for i in 0..logits.rows() {
            if mask[i] {
                tally(&mut t, logits.row(i), labels[i]);
            }
        }
        t[0] / f32::max(t[1], 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdm_comm::Cluster;
    use rdm_dense::allclose;

    #[test]
    fn distributed_loss_matches_serial() {
        let n = 23;
        let c = 5;
        let logits = Mat::random(n, c, 2.0, 1);
        let labels: Vec<u32> = (0..n as u32).map(|i| i % c as u32).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let (sl, sg) = serial::softmax_xent(&logits, &labels, &mask);
        let (l2, lab2, m2) = (logits.clone(), labels.clone(), mask.clone());
        let out = Cluster::new(4).run(move |ctx| {
            let d = DistMat::scatter_rows(&l2, ctx.size(), ctx.rank());
            let spec = LossSpec {
                labels: &lab2,
                mask: &m2,
                num_classes: c,
            };
            let (loss, grad) = softmax_xent(&d, &spec, ctx);
            (loss, grad.gather(ctx, CollectiveKind::Other))
        });
        for (loss, grad) in &out.results {
            assert!((loss - sl).abs() < 1e-5, "loss {loss} vs serial {sl}");
            assert!(allclose(grad, &sg, 1e-5));
        }
    }

    #[test]
    fn loss_gradient_rows_sum_to_zero_on_masked() {
        // softmax - onehot sums to 0 across classes.
        let n = 12;
        let logits = Mat::random(n, 4, 1.0, 3);
        let labels = vec![1u32; n];
        let mask = vec![true; n];
        let (_, g) = serial::softmax_xent(&logits, &labels, &mask);
        for i in 0..n {
            let s: f32 = g.row(i).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn unmasked_rows_have_zero_gradient() {
        let logits = Mat::random(6, 3, 1.0, 4);
        let labels = vec![0u32; 6];
        let mut mask = vec![true; 6];
        mask[2] = false;
        let (_, g) = serial::softmax_xent(&logits, &labels, &mask);
        assert!(g.row(2).iter().all(|&v| v == 0.0));
        assert!(g.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn distributed_accuracy_matches_serial() {
        let n = 31;
        let c = 4;
        let logits = Mat::random(n, c, 1.0, 5);
        let labels: Vec<u32> = (0..n as u32).map(|i| (i * 7) % c as u32).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let expect = serial::accuracy(&logits, &labels, &mask);
        let (l2, lab2, m2) = (logits.clone(), labels.clone(), mask.clone());
        let out = Cluster::new(3).run(move |ctx| {
            let d = DistMat::scatter_rows(&l2, ctx.size(), ctx.rank());
            accuracy(&d, &lab2, &m2, ctx)
        });
        for acc in &out.results {
            assert!((acc - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_logits_give_accuracy_one_and_low_loss() {
        let n = 10;
        let c = 3;
        let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let logits = Mat::from_fn(
            n,
            c,
            |i, j| {
                if j == labels[i] as usize {
                    10.0
                } else {
                    -10.0
                }
            },
        );
        let mask = vec![true; n];
        let (loss, _) = serial::softmax_xent(&logits, &labels, &mask);
        assert!(loss < 1e-3);
        assert_eq!(serial::accuracy(&logits, &labels, &mask), 1.0);
    }

    #[test]
    fn gradient_is_finite_difference_of_loss() {
        // Check d loss / d logits numerically at a few positions.
        let n = 5;
        let c = 4;
        let logits = Mat::random(n, c, 1.0, 8);
        let labels = vec![2u32, 0, 1, 3, 2];
        let mask = vec![true, true, false, true, true];
        let (_, grad) = serial::softmax_xent(&logits, &labels, &mask);
        let eps = 1e-3f32;
        for (i, j) in [(0, 1), (1, 0), (3, 3), (4, 2)] {
            let mut plus = logits.clone();
            plus.set(i, j, plus.get(i, j) + eps);
            let (lp, _) = serial::softmax_xent(&plus, &labels, &mask);
            let mut minus = logits.clone();
            minus.set(i, j, minus.get(i, j) - eps);
            let (lm, _) = serial::softmax_xent(&minus, &labels, &mask);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.get(i, j)).abs() < 1e-2,
                "grad({i},{j}) analytic {} vs numeric {numeric}",
                grad.get(i, j)
            );
        }
    }

    /// The pre-fusion path: `log_softmax_rows` and `softmax_rows` as two
    /// full matrices beside the gradient, one 2-element all-reduce for the
    /// loss and one per accuracy, argmax by `partial_cmp`.
    fn two_matrix_path(
        logits: &DistMat,
        spec: &LossSpec<'_>,
        test: &[bool],
        ctx: &RankCtx,
    ) -> (f32, Mat, f32, f32) {
        use rdm_dense::{log_softmax_rows, softmax_rows};
        let local = &logits.local;
        let (log_probs, probs) = (log_softmax_rows(local), softmax_rows(local));
        let (mut loss, mut count) = (0.0f64, 0.0f64);
        let mut grad = Mat::zeros(local.rows(), local.cols());
        for (li, g) in logits.my_rows(ctx).enumerate() {
            if spec.mask[g] {
                let y = spec.labels[g] as usize;
                loss -= log_probs.get(li, y) as f64;
                count += 1.0;
                grad.row_mut(li).copy_from_slice(probs.row(li));
                grad.row_mut(li)[y] -= 1.0;
            }
        }
        let parts = [loss as f32, count as f32];
        let summed = ctx.all_reduce_sum(
            Mat::from_fn(1, 2, |_, j| parts[j]),
            CollectiveKind::AllReduce,
        );
        let total = summed.get(0, 1).max(1.0);
        rdm_dense::scale(&mut grad, 1.0 / total);
        let acc = |mask: &[bool]| {
            let (mut correct, mut count) = (0.0f32, 0.0f32);
            for (li, g) in logits.my_rows(ctx).enumerate() {
                if mask[g] {
                    count += 1.0;
                    let row = local.row(li);
                    let pred = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .map_or(0, |(i, _)| i);
                    if pred == spec.labels[g] as usize {
                        correct += 1.0;
                    }
                }
            }
            let parts = [correct, count];
            let s = ctx.all_reduce_sum(
                Mat::from_fn(1, 2, |_, j| parts[j]),
                CollectiveKind::AllReduce,
            );
            s.get(0, 0) / s.get(0, 1).max(1.0)
        };
        let (tr, te) = (acc(spec.mask), acc(test));
        (summed.get(0, 0) / total, grad, tr, te)
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Random logits with a fully tied row, a mixed `±0` row, a row tied
    /// between two maxima, and labels on each side of those ties.
    fn awkward_logits(n: usize, c: usize) -> (Mat, Vec<u32>) {
        let mut logits = Mat::random(n, c, 2.0, 21);
        for j in 0..c {
            logits.set(0, j, 0.5);
            logits.set(1, j, if j % 2 == 0 { 0.0 } else { -0.0 });
            logits.set(2, j, if j == 0 || j == c - 2 { 3.0 } else { -1.0 });
        }
        let mut labels: Vec<u32> = (0..n as u32).map(|i| (i * 5) % c as u32).collect();
        labels[0] = c as u32 - 1;
        labels[1] = c as u32 - 1;
        labels[2] = 0;
        (logits, labels)
    }

    #[test]
    fn fused_scores_are_bitwise_the_two_matrix_path_and_the_serial_reference() {
        let (n, c) = (29, 5);
        let (logits, labels) = awkward_logits(n, c);
        let train: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let test: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i == 1).collect();
        let (serial_loss, serial_grad) = serial::softmax_xent(&logits, &labels, &train);
        let serial_acc = (
            serial::accuracy(&logits, &labels, &train),
            serial::accuracy(&logits, &labels, &test),
        );
        // The serial reference is itself the two-matrix form, bit for bit.
        let old = Cluster::new(1).run(|ctx| {
            let d = DistMat::scatter_rows(&logits, 1, 0);
            let spec = LossSpec {
                labels: &labels,
                mask: &train,
                num_classes: c,
            };
            two_matrix_path(&d, &spec, &test, ctx)
        });
        assert_eq!(bits(&old.results[0].1), bits(&serial_grad));
        assert!((old.results[0].0 - serial_loss).abs() < 1e-6);
        for p in [1usize, 3, 4] {
            let out = Cluster::new(p).run(|ctx| {
                let d = DistMat::scatter_rows(&logits, p, ctx.rank());
                let spec = LossSpec {
                    labels: &labels,
                    mask: &train,
                    num_classes: c,
                };
                let fused = score(&d, &spec, Some(&test), ctx);
                let loss_only = score(&d, &spec, None, ctx);
                let old = two_matrix_path(&d, &spec, &test, ctx);
                let grad = fused.grad.gather(ctx, CollectiveKind::Other);
                (fused.loss, fused.accuracy, loss_only, old, grad)
            });
            for (loss, acc, loss_only, old, grad) in &out.results {
                let (tr, te) = acc.expect("a test mask asks for accuracies");
                assert_eq!(loss.to_bits(), old.0.to_bits(), "P={p} loss");
                assert_eq!(loss_only.loss.to_bits(), old.0.to_bits(), "P={p}");
                assert!(loss_only.accuracy.is_none());
                assert_eq!(
                    (tr.to_bits(), te.to_bits()),
                    (old.2.to_bits(), old.3.to_bits())
                );
                assert_eq!((tr, te), serial_acc, "P={p} accuracies");
                assert_eq!(bits(grad), bits(&serial_grad), "P={p} gradient");
            }
        }
    }

    #[test]
    fn a_step_reduces_once_with_the_bytes_of_three() {
        let (n, c) = (12, 3);
        let (logits, labels) = awkward_logits(n, c);
        let (train, test) = (vec![true; n], vec![false; n]);
        let books = |fused: bool| {
            let out = Cluster::new(3).run(|ctx| {
                let d = DistMat::scatter_rows(&logits, 3, ctx.rank());
                let spec = LossSpec {
                    labels: &labels,
                    mask: &train,
                    num_classes: c,
                };
                if fused {
                    score(&d, &spec, Some(&test), ctx);
                } else {
                    two_matrix_path(&d, &spec, &test, ctx);
                }
            });
            let st = &out.stats[0];
            (st.total_bytes(), st.total_messages())
        };
        let (fused, old) = (books(true), books(false));
        assert_eq!(fused.0, old.0, "same payload bytes");
        assert_eq!(fused.1 * 3, old.1, "one all-reduce instead of three");
    }

    #[test]
    fn a_nan_logit_scores_wrong_and_panics_nowhere() {
        let nan = f32::NAN;
        #[rustfmt::skip]
        let logits = Mat::from_vec(4, 3, vec![
            nan, 1.0, 0.5, // NaN at the label: the label cannot win
            0.2, nan, 0.1, // likewise
            nan, nan, nan, // no number, so no prediction (label 2 is last)
            0.0, 3.0, nan, // a NaN elsewhere leaves the argmax alone
        ]);
        let labels = [0u32, 1, 2, 1];
        let mask = [true; 4];
        assert_eq!(serial::accuracy(&logits, &labels, &mask), 0.25);
        let out = Cluster::new(2).run(|ctx| {
            let d = DistMat::scatter_rows(&logits, 2, ctx.rank());
            let spec = LossSpec {
                labels: &labels,
                mask: &mask,
                num_classes: 3,
            };
            let s = score(&d, &spec, Some(&mask), ctx);
            (s.accuracy, accuracy(&d, &labels, &mask, ctx))
        });
        for (acc, plain) in out.results {
            assert_eq!(acc, Some((0.25, 0.25)));
            assert_eq!(plain, 0.25);
        }
    }
}
