//! The two reasons serving batches and pipelines at all, on the virtual
//! (device-model) clock, so every assertion is deterministic:
//!
//! * under load heavy enough that per-request dispatch falls behind,
//!   batching (`max_batch = 8`) beats batch-size-1 on throughput and tail
//!   latency, because a batch of B requests shares one fixed-size forward;
//! * on a saturating Zipf-skewed stream, pipelined admission with the
//!   frozen-weight aggregation cache beats the plain batched session on
//!   p99 and throughput: hits thin the layer-1 exchange and the pipeline
//!   prefetches exposed communication behind the predecessor batch.

use rdm_core::gcn::GcnWeights;
use rdm_core::WeightSnapshot;
use rdm_graph::DatasetSpec;
use rdm_serve::{serve, BatchPolicy, LoadGen, ServeConfig, ServeReport};

/// One P = 4 session over `load`'s stream with batches capped at
/// `max_batch`, plain or with the depth knobs (pipeline + cache) on.
fn session(load: LoadGen, max_batch: usize, depth: bool) -> ServeReport {
    let ds = DatasetSpec::synthetic("serve-bench", 256, 2_000, 16, 4).instantiate(42);
    let snap = WeightSnapshot::from_weights(&GcnWeights::init(&[16, 16, 4], 7));
    let mut cfg = ServeConfig::new(4);
    cfg.policy = BatchPolicy::new(max_batch, 50);
    if depth {
        cfg = cfg.pipelined(2).cached(64);
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

#[test]
fn pipelined_cached_serving_beats_plain_on_a_zipf_stream() {
    // Saturation is the honest setting: cross-batch prefetch only pays when
    // a dispatched batch can hide its exposed communication behind a
    // still-running predecessor.
    let zipf = || LoadGen::new(11, 4, 1, 160).zipf(5);
    let plain = session(zipf(), 8, false);
    let depth = session(zipf(), 8, true);
    assert!(depth.cache_hits > 0, "Zipf stream produced no cache hits");
    assert!(
        depth.p99_us() < plain.p99_us(),
        "pipelined+cached serving must cut p99 ({} us vs {} us)",
        depth.p99_us(),
        plain.p99_us(),
    );
    assert!(
        depth.throughput_rps() > plain.throughput_rps(),
        "pipelined+cached serving must raise throughput ({:.0} rps vs {:.0} rps)",
        depth.throughput_rps(),
        plain.throughput_rps(),
    );
}
