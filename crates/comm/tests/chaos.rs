//! Chaos suite: every collective must complete *bit-identically* on a
//! faulty fabric.
//!
//! The retrying envelope protocol (`rdm_comm::mailbox`) claims that drops,
//! reordering delays and stragglers are invisible to the application: the
//! SPMD program computes the same bytes, the payload accounting matches the
//! paper's formulas exactly, and only the `retries` / `retransmit_bytes`
//! counters reveal that the wire misbehaved. These tests check that claim
//! across cluster sizes, fault seeds and drop rates.
//!
//! The `CHAOS_SEED` environment variable offsets every fault seed, letting
//! CI sweep distinct fault universes run-to-run without touching the code
//! (the `chaos` job pins three values so failures stay reproducible).

use proptest::prelude::*;
use rdm_comm::{Cluster, CollectiveKind, CommStats, FaultPlan, Form, Redistribution, Wire};
use rdm_dense::Mat;

const K: CollectiveKind = CollectiveKind::Other;

/// Fault-seed offset from the environment (CI sweeps this), 0 by default.
fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The cluster sizes the acceptance criteria call out.
fn p_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3usize), Just(4usize), Just(7usize)]
}

/// The drop rates the acceptance criteria call out.
fn drop_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(0.05f64), Just(0.2f64)]
}

/// One SPMD round trip through every collective, returning everything
/// each rank observed. Deterministic in (p, rank) so any cross-run
/// difference is the fabric's fault.
fn all_collectives(p: usize) -> impl Fn(&rdm_comm::RankCtx) -> Vec<Mat> + Sync {
    move |ctx| {
        let me = ctx.rank();
        let everyone: Vec<usize> = (0..p).collect();
        let mut seen = Vec::new();
        // Broadcast from every root in turn.
        for root in 0..p {
            let payload =
                (me == root).then(|| Mat::from_fn(2, 3, |i, j| (root * 100 + i * 3 + j) as f32));
            seen.push(ctx.group_broadcast(&everyone, root, payload, K));
        }
        // All-gather of a rank-stamped part.
        let part = Mat::from_fn(1, 4, |_, j| (me * 10 + j) as f32);
        seen.extend(ctx.all_gather(part, K));
        // Personalized exchange, two chunks per part.
        let parts = (0..p)
            .map(|j| Mat::from_fn(1, 2, |_, c| (me * 1000 + j * 10 + c) as f32))
            .collect();
        let spec = Redistribution {
            group: &everyone,
            to: Form::Col,
            wire: Wire::Dense,
            chunks: 2,
            kind: K,
        };
        ctx.exchange(&spec, parts, |_, pieces| seen.extend(pieces));
        // Both all-reduce algorithms.
        let m = Mat::from_fn(3, 3, |i, j| (me + i * 3 + j) as f32);
        seen.push(ctx.all_reduce_sum(m.clone(), K));
        seen.push(ctx.all_reduce_ring(m, K));
        seen
    }
}

fn total_retransmit_bytes(stats: &[CommStats]) -> u64 {
    stats.iter().map(|s| s.retransmit_bytes).sum()
}

fn total_retries(stats: &[CommStats]) -> u64 {
    stats.iter().map(|s| s.retries).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any cluster size, fault seed and drop rate: the faulty run's
    /// results are bit-identical to the fault-free run's, payload byte
    /// accounting matches exactly, and retransmit bytes appear exactly when
    /// attempts are dropped.
    #[test]
    fn collectives_bit_identical_under_faults(
        p in p_strategy(),
        drop in drop_strategy(),
        seed in 0u64..32,
    ) {
        let plan = FaultPlan::new(chaos_base() ^ seed)
            .drop_rate(drop)
            .delay(0.2, 3)
            .straggler(0.02, 20_000);
        let clean = Cluster::new(p).run(all_collectives(p));
        let faulty = Cluster::with_faults(p, plan).run(all_collectives(p));
        for (r, (c, f)) in clean.results.iter().zip(&faulty.results).enumerate() {
            prop_assert_eq!(c, f, "rank {} diverged under faults", r);
        }
        for r in 0..p {
            prop_assert_eq!(
                clean.stats[r].total_bytes(),
                faulty.stats[r].total_bytes(),
                "rank {} payload accounting perturbed by faults", r
            );
            prop_assert_eq!(
                clean.stats[r].total_messages(),
                faulty.stats[r].total_messages(),
                "rank {} message accounting perturbed by faults", r
            );
            prop_assert_eq!(clean.stats[r].retries, 0u64);
            prop_assert_eq!(clean.stats[r].retransmit_bytes, 0u64);
        }
        if drop == 0.0 {
            prop_assert_eq!(total_retransmit_bytes(&faulty.stats), 0);
            prop_assert_eq!(total_retries(&faulty.stats), 0);
        }
    }

    /// The same fault seed yields the same retry counts on every run —
    /// chaos results are reproducible from the seed alone.
    #[test]
    fn retry_counts_reproducible_from_seed(
        p in p_strategy(),
        seed in 0u64..32,
    ) {
        let plan = FaultPlan::new(chaos_base() ^ seed)
            .drop_rate(0.2)
            .delay(0.3, 4);
        let run = || {
            let out = Cluster::with_faults(p, plan).run(all_collectives(p));
            (
                out.stats.iter().map(|s| s.retries).collect::<Vec<_>>(),
                out.stats.iter().map(|s| s.retransmit_bytes).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-link FIFO ordering survives arbitrary drop/delay combinations:
    /// indexed messages between every rank pair arrive strictly in send
    /// order.
    #[test]
    fn fifo_order_survives_chaos(
        p in p_strategy(),
        seed in 0u64..32,
        drop in drop_strategy(),
    ) {
        let plan = FaultPlan::new(chaos_base() ^ seed ^ 0xF1F0)
            .drop_rate(drop)
            .delay(0.5, 4);
        let rounds = 12;
        Cluster::with_faults(p, plan).run(|ctx| {
            let me = ctx.rank();
            for round in 0..rounds {
                for dst in 0..p {
                    if dst != me {
                        ctx.send(dst, Mat::from_vec(1, 1, vec![round as f32]), K);
                    }
                }
                for src in 0..p {
                    if src != me {
                        let got = ctx.recv(src);
                        assert_eq!(
                            got.get(0, 0) as usize,
                            round,
                            "link {src}->{me} broke FIFO order"
                        );
                    }
                }
            }
        });
    }
}

/// Acceptance pin: zero retransmit traffic without drops, nonzero at a 0.2
/// drop rate, for every required cluster size.
#[test]
fn retransmit_bytes_zero_without_drops_nonzero_with() {
    for p in [2, 3, 4, 7] {
        let calm = FaultPlan::new(chaos_base() ^ 41).delay(0.3, 3);
        let out = Cluster::with_faults(p, calm).run(all_collectives(p));
        assert_eq!(
            total_retransmit_bytes(&out.stats),
            0,
            "p={p}: retransmits without any drop rate"
        );

        let stormy = FaultPlan::new(chaos_base() ^ 41)
            .drop_rate(0.2)
            .delay(0.3, 3);
        let out = Cluster::with_faults(p, stormy).run(all_collectives(p));
        assert!(
            total_retransmit_bytes(&out.stats) > 0,
            "p={p}: drop rate 0.2 produced no retransmit traffic"
        );
        assert!(total_retries(&out.stats) > 0, "p={p}: no retries recorded");
    }
}

/// The drain check stays armed under faults: a message that is sent but
/// never received panics the run instead of vanishing into the fabric.
#[test]
#[should_panic(expected = "unconsumed messages")]
fn unconsumed_message_panics_under_faults() {
    let plan = FaultPlan::new(chaos_base() ^ 7)
        .drop_rate(0.2)
        .delay(0.5, 3);
    Cluster::with_faults(2, plan).run(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, Mat::zeros(2, 2), K);
        }
        // Rank 1 never receives: Cluster::run must notice at join time.
    });
}

/// Redistribution volume still matches the paper's (P-1)/P formula under
/// faults — retransmitted bytes are accounted separately, never folded into
/// the payload counters the experiments report.
#[test]
fn redistribution_volume_formula_holds_under_faults() {
    let p = 4;
    let n = 32;
    let f = 8;
    let plan = FaultPlan::new(chaos_base() ^ 113)
        .drop_rate(0.2)
        .delay(0.2, 3);
    let out = Cluster::with_faults(p, plan).run(move |ctx| {
        let r = rdm_dense::part_range(n, p, ctx.rank());
        let local = Mat::zeros(r.len(), f);
        let group: Vec<usize> = (0..p).collect();
        let spec = Redistribution {
            group: &group,
            to: Form::Col,
            wire: Wire::Dense,
            chunks: 1,
            kind: CollectiveKind::Redistribute,
        };
        ctx.redistribute(&spec, &local, |_, _| {});
    });
    let payload: u64 = out
        .stats
        .iter()
        .map(|s| s.bytes(CollectiveKind::Redistribute))
        .sum();
    assert_eq!(payload as usize, (p - 1) * n * f * 4 / p);
    assert!(total_retransmit_bytes(&out.stats) > 0);
}
