//! Property tests of the structured tracer: under arbitrary chaos seeds
//! and cluster sizes, recorded traces are well-formed (spans nest,
//! per-rank sequence numbers strictly increase), every `Retry` event pairs
//! with an injected drop in the fault plan, and the trace's byte totals
//! reconcile *exactly* with the rank's `CommStats` payload and
//! retransmission counters.
//!
//! `CHAOS_SEED` (env) shifts the fault seeds so CI can sweep chaos
//! schedules without code changes.

use proptest::prelude::*;
use rdm_comm::{Cluster, CollectiveKind, FaultPlan, Form, RankCtx, Redistribution, Wire};
use rdm_dense::{part_range, Mat};
use rdm_trace::EventData;

fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A workload touching every traced code path: plain and chunked
/// redistributions, the ring all-reduce, and barriers (which drain the
/// ring buffer mid-run).
fn workload(ctx: &RankCtx) -> Mat {
    let p = ctx.size();
    let me = ctx.rank();
    let r = part_range(40, p, me);
    let local = Mat::random(r.len(), 12, 1.0, me as u64);
    let group: Vec<usize> = (0..p).collect();
    let to_col = Redistribution {
        group: &group,
        to: Form::Col,
        wire: Wire::Dense,
        chunks: 1,
        kind: CollectiveKind::Redistribute,
    };
    let to_row = Redistribution {
        to: Form::Row,
        ..to_col
    };
    let v = ctx.redistribute(&to_col, &local, |_, _| {});
    let _h = ctx.redistribute(&to_row, &v, |_, _| {});
    ctx.barrier();
    let chunked = Redistribution {
        chunks: 3,
        ..to_col
    };
    let wide = Mat::random(5, 7 * p, 1.0, (me * 31) as u64);
    ctx.redistribute(&chunked, &wide, |_, _| {});
    ctx.all_reduce_ring(Mat::random(6, 3, 1.0, me as u64), CollectiveKind::AllReduce)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Traces are well-formed and reconcile with the stats counters under
    /// chaos, for every cluster size the trainers use.
    #[test]
    fn traces_are_well_formed_and_reconcile_with_stats(
        p_pick in 0usize..4,
        drop in 0.0f64..0.35,
        seed in 0u64..64,
    ) {
        let p = [2usize, 3, 4, 7][p_pick];
        let plan = FaultPlan::new(chaos_base() ^ seed ^ 0x7ACE)
            .drop_rate(drop)
            .delay(0.2, 3)
            .straggler(0.02, 10_000);
        let out = Cluster::with_faults(p, plan).traced().run(workload);
        let traces = out.traces.as_ref().expect("traced cluster returns traces");
        prop_assert_eq!(traces.len(), p);
        for (rank, trace) in traces.iter().enumerate() {
            prop_assert_eq!(trace.rank, rank);
            // Well-formedness: nesting balanced, seq strictly increasing.
            let nesting = trace.validate_nesting();
            prop_assert!(nesting.is_ok(), "malformed trace: {}", nesting.unwrap_err());
            let stats = &out.stats[rank];
            // Byte reconciliation: payload sends in the trace sum to the
            // stats' payload counters exactly, per run.
            let mut payload_bytes = 0u64;
            let mut payload_msgs = 0u64;
            let mut retry_count = 0u64;
            let mut retry_bytes = 0u64;
            let mut retry_backoff = 0u64;
            for e in &trace.events {
                match e.data {
                    EventData::Collective { bytes, .. } => {
                        payload_bytes += bytes as u64;
                        payload_msgs += 1;
                    }
                    EventData::Retry { peer, msg_seq, attempt, bytes, backoff_ns } => {
                        retry_count += 1;
                        retry_bytes += bytes as u64;
                        retry_backoff += backoff_ns;
                        // Every Retry pairs with an injected drop: the
                        // fault plan is pure, so we can re-ask it.
                        prop_assert!(
                            plan.attempt_dropped(rank, peer, msg_seq, attempt),
                            "rank {} retry (peer {}, seq {}, attempt {}) \
                             has no matching injected drop",
                            rank, peer, msg_seq, attempt
                        );
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(payload_bytes, stats.total_bytes(),
                "rank {} payload bytes diverged", rank);
            prop_assert_eq!(payload_msgs, stats.total_messages(),
                "rank {} payload messages diverged", rank);
            prop_assert_eq!(retry_count, stats.retries,
                "rank {} retry count diverged", rank);
            prop_assert_eq!(retry_bytes, stats.retransmit_bytes,
                "rank {} retransmit bytes diverged", rank);
            prop_assert_eq!(retry_backoff, stats.backoff_ns,
                "rank {} backoff accounting diverged", rank);
        }
    }

    /// On a clean fabric there are no Retry events, and tracing changes
    /// neither results nor stats relative to an untraced run.
    #[test]
    fn clean_runs_have_no_retries_and_tracing_is_invisible(
        p_pick in 0usize..4,
        seed in 0u64..64,
    ) {
        let p = [2usize, 3, 4, 7][p_pick];
        let _ = seed;
        let plain = Cluster::new(p).run(workload);
        let traced = Cluster::new(p).traced().run(workload);
        for (a, b) in plain.results.iter().zip(&traced.results) {
            prop_assert_eq!(a, b, "tracing changed a result");
        }
        for (sa, sb) in plain.stats.iter().zip(&traced.stats) {
            prop_assert_eq!(sa.total_bytes(), sb.total_bytes());
            prop_assert_eq!(sa.total_messages(), sb.total_messages());
            prop_assert_eq!(sa.retries, 0u64);
            prop_assert_eq!(sb.retries, 0u64);
        }
        prop_assert!(plain.traces.is_none());
        for trace in traced.traces.as_ref().unwrap() {
            prop_assert!(
                !trace.events.iter().any(|e| matches!(e.data, EventData::Retry { .. })),
                "clean fabric produced a Retry event"
            );
        }
    }
}
