//! The reasons serving batches, pipelines and aggregates once, on the
//! virtual (device-model) clock, so every assertion is deterministic:
//!
//! * under load heavy enough that per-request dispatch falls behind,
//!   batching (`max_batch = 8`) beats batch-size-1 on throughput and tail
//!   latency, because a batch of B requests shares one fixed-size forward;
//! * on a saturating Zipf-skewed stream, every batch after the first skips
//!   layer 1's aggregation (`Â·H⁰` is a constant of the session), so it is
//!   served faster than batch 0, and the session beats the capacity-bounded
//!   row cache this reuse replaced on p99 and throughput. Pipelined, it
//!   still matches that cache's throughput; its p99 is set by batch 0,
//!   whose pipelined layer-1 exchange pays more per-message latency on
//!   this tiny graph than it hides, so it is not asserted.

use rdm_core::gcn::GcnWeights;
use rdm_core::WeightSnapshot;
use rdm_graph::DatasetSpec;
use rdm_serve::{serve, BatchPolicy, LoadGen, ServeConfig, ServeReport};

/// One P = 4 session over `load`'s stream with batches capped at
/// `max_batch`, blocking or pipelined as 2 strips.
fn session(load: LoadGen, max_batch: usize, pipelined: bool) -> ServeReport {
    let ds = DatasetSpec::synthetic("serve-bench", 256, 2_000, 16, 4).instantiate(42);
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 16, 4], 7));
    let mut cfg = ServeConfig::new(4);
    cfg.policy = BatchPolicy::new(max_batch, 50);
    if pipelined {
        cfg = cfg.pipelined(2);
    }
    serve(&ds, &snap, &load.generate(ds.n()), &cfg)
        .expect("session must serve")
        .report
}

#[test]
fn batching_beats_batch_size_one_under_saturating_load() {
    // Arrivals every ~2 us of virtual time against several us of service
    // per forward: a batch-size-1 server necessarily falls behind.
    let heavy = || LoadGen::new(11, 4, 2, 96);
    let batched = session(heavy(), 8, false);
    let single = session(heavy(), 1, false);
    assert!(
        batched.throughput_rps() > single.throughput_rps(),
        "batched serving ({:.0} rps) must beat batch-size-1 ({:.0} rps)",
        batched.throughput_rps(),
        single.throughput_rps(),
    );
    assert!(
        batched.p99_us() < single.p99_us(),
        "batching must also cut tail latency ({} us vs {} us)",
        batched.p99_us(),
        single.p99_us(),
    );
}

/// The pipelined session on this stream with the capacity-bounded FIFO
/// row cache that full-graph reuse replaced (`pipelined(2).cached(64)`,
/// 64 rows per rank), as that code served it: p99 and virtual throughput.
/// The figures are virtual, so they are a deterministic function of the
/// stream and the device model.
const FIFO_CACHE_P99_US: u64 = 19;
const FIFO_CACHE_RPS: f64 = 935_672.5;

#[test]
fn reuse_serves_a_zipf_stream_no_worse_than_the_fifo_cache() {
    // Saturation is the honest setting: batches queue behind their
    // predecessors, so service time shows in the latency tail.
    let zipf = || LoadGen::new(11, 4, 1, 160).zipf(5);
    let plain = session(zipf(), 8, false);
    let piped = session(zipf(), 8, true);
    for r in [&plain, &piped] {
        assert_eq!(r.reuse_inert, None, "the auto plan must reuse Â·H⁰");
        let (first, later) = r.batches.split_first().expect("batches");
        assert!(
            later.iter().all(|b| b.service_us < first.service_us),
            "a batch after the first was not served faster than batch 0"
        );
    }
    assert!(
        plain.p99_us() <= FIFO_CACHE_P99_US,
        "p99 {} us above the FIFO cache's {FIFO_CACHE_P99_US} us",
        plain.p99_us(),
    );
    for r in [&plain, &piped] {
        assert!(
            r.throughput_rps() >= FIFO_CACHE_RPS,
            "{:.1} rps below the FIFO cache's {FIFO_CACHE_RPS} rps",
            r.throughput_rps(),
        );
    }
}
