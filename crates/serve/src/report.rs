//! Serving telemetry: per-request latency records, nearest-rank
//! quantiles, workspace-pool accounting and a deterministic text report.
//!
//! All times are *virtual* microseconds from the device model — the same
//! clock the training-side predictions use — so a report replays
//! byte-identically for a fixed seed regardless of host speed or thread
//! scheduling.

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// element with cumulative frequency `≥ q`. `q` is clamped to `(0, 1]`;
/// an empty window has no quantile.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// One served request, with its virtual timeline and the logits row the
/// engine produced for its target vertex.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Position in the arrival stream.
    pub idx: usize,
    pub client: usize,
    pub req_id: u64,
    pub target: u32,
    /// Batch that served this request.
    pub batch: usize,
    pub arrival_us: u64,
    pub completion_us: u64,
    /// Logits for `target` (one entry per class).
    pub logits: Vec<f32>,
}

impl RequestRecord {
    /// Queueing delay + batching delay + service time.
    pub fn latency_us(&self) -> u64 {
        self.completion_us - self.arrival_us
    }

    /// Argmax class of the logits row.
    pub fn predicted_class(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.logits.iter().enumerate() {
            if v > self.logits[best] {
                best = i;
            }
        }
        best
    }
}

/// One executed batch on the virtual timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchTiming {
    pub idx: usize,
    pub size: usize,
    /// When the batcher closed the batch (see [`crate::Batch::close_us`]).
    pub close_us: u64,
    /// When the engine actually started it: `max(close, previous batch's
    /// completion)` — the engine serves one batch at a time.
    pub dispatch_us: u64,
    /// Device-model execution time: slowest rank's compute + communication
    /// for this batch, plus the per-dispatch overhead, minus whatever the
    /// pipeline hid.
    pub service_us: u64,
    pub completion_us: u64,
    /// Modeled communication time the pipelined admission hid for this
    /// batch (in-batch strip overlap plus cross-batch prefetch behind the
    /// predecessor); `0` for blocking sessions.
    pub overlap_us: u64,
}

/// Everything a serving session produced: per-request outcomes, the batch
/// timeline, workspace-pool and communication accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    pub dataset: String,
    pub p: usize,
    pub sparse: bool,
    /// Per-request records in arrival order.
    pub requests: Vec<RequestRecord>,
    /// Per-batch timings in dispatch order.
    pub batches: Vec<BatchTiming>,
    /// Fresh workspace-pool allocations during the warmup batch (index 0,
    /// the only one), summed over ranks.
    pub ws_fresh_warmup: u64,
    /// Fresh allocations in every later batch, summed over ranks. The
    /// steady-state guarantee is that this is zero: after warmup, every
    /// matrix the engine needs comes off the pool shelf.
    pub ws_fresh_steady: u64,
    /// Shelf reuses after warmup, summed over ranks.
    pub ws_reused_steady: u64,
    /// Payload bytes sent across the session (retransmissions excluded —
    /// the payload book is fault-invariant).
    pub payload_bytes: u64,
    /// Messages carrying those bytes.
    pub messages: u64,
    /// Transmission attempts lost to injected faults and re-sent.
    pub retries: u64,
    /// Why a requested pipelined admission stayed inert (the session ran
    /// the blocking schedule), mirroring the engine's overlap gate: `None`
    /// when the pipeline ran — or was never requested.
    pub overlap_inert: Option<&'static str>,
    /// Why a requested indexed-strip wire stayed inert (a single rank has
    /// no redistribution to compress); `None` when it ran or was never
    /// requested.
    pub sparse_inert: Option<&'static str>,
    /// Why batches after the first recompute layer 0's aggregation `Â·H⁰`
    /// instead of reusing batch 0's: a GEMM-first layer 0 never forms it,
    /// and induced minibatches change the graph every batch. `None` when
    /// the session reused it.
    pub reuse_inert: Option<&'static str>,
}

impl ServeReport {
    /// Ascending-sorted per-request latencies.
    pub fn latencies_us(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.requests.iter().map(|r| r.latency_us()).collect();
        l.sort_unstable();
        l
    }

    /// Nearest-rank latency quantile; 0 for an empty session.
    pub fn quantile_us(&self, q: f64) -> u64 {
        nearest_rank(&self.latencies_us(), q).unwrap_or(0)
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    pub fn mean_us(&self) -> u64 {
        if self.requests.is_empty() {
            return 0;
        }
        let sum: u64 = self.requests.iter().map(|r| r.latency_us()).sum();
        sum / self.requests.len() as u64
    }

    pub fn max_us(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.latency_us())
            .max()
            .unwrap_or(0)
    }

    /// Requests per second of virtual time, over the span from the first
    /// arrival to the last completion.
    pub fn throughput_rps(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let first = self.requests.iter().map(|r| r.arrival_us).min().unwrap();
        let last = self
            .batches
            .last()
            .map(|b| b.completion_us)
            .unwrap_or(first);
        let span = (last - first).max(1);
        self.requests.len() as f64 * 1.0e6 / span as f64
    }

    /// Total modeled communication time the pipeline hid, summed over
    /// batches.
    pub fn overlap_us_total(&self) -> u64 {
        self.batches.iter().map(|b| b.overlap_us).sum()
    }

    /// Why a requested pipelined admission stayed inert, or `None` when it
    /// ran (or was never requested).
    pub fn overlap_inert_reason(&self) -> Option<&'static str> {
        self.overlap_inert
    }

    /// Fixed-format text report. Every field is an integer or printed with
    /// a fixed precision, so a replayed session renders byte-identically.
    pub fn render(&self) -> String {
        let wire = if self.sparse { "sparse" } else { "dense" };
        let mean_batch = if self.batches.is_empty() {
            0.0
        } else {
            self.requests.len() as f64 / self.batches.len() as f64
        };
        let overlap = match self.overlap_inert {
            Some(reason) => format!("inert ({reason}); the session ran blocking"),
            None => format!("{} us hidden by pipelining", self.overlap_us_total()),
        };
        let sparse = self
            .sparse_inert
            .map(|reason| format!("sparse      inert ({reason})\n"))
            .unwrap_or_default();
        let reuse = match self.reuse_inert {
            Some(reason) => format!("inert ({reason})"),
            None => "batch 0's Â·H⁰ in every later batch".to_string(),
        };
        format!(
            "== rdm-serve report ==\n\
             dataset     {}  P={}  wire={}\n\
             requests    {} in {} batches (mean batch {:.2})\n\
             latency     p50 {} us  p99 {} us  mean {} us  max {} us\n\
             throughput  {:.1} req/s (virtual)\n\
             overlap     {}\n\
             {}\
             reuse       {}\n\
             workspace   warmup fresh {}  steady fresh {}  steady reused {}\n\
             comm        {} payload bytes in {} messages  retries {}\n",
            self.dataset,
            self.p,
            wire,
            self.requests.len(),
            self.batches.len(),
            mean_batch,
            self.p50_us(),
            self.p99_us(),
            self.mean_us(),
            self.max_us(),
            self.throughput_rps(),
            overlap,
            sparse,
            reuse,
            self.ws_fresh_warmup,
            self.ws_fresh_steady,
            self.ws_reused_steady,
            self.payload_bytes,
            self.messages,
            self.retries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: smallest element whose cumulative frequency
    /// reaches `q`, computed by scanning.
    fn brute_quantile(sorted: &[u64], q: f64) -> Option<u64> {
        let n = sorted.len();
        (0..n)
            .find(|&i| (i + 1) as f64 / n as f64 >= q - 1e-12)
            .map(|i| sorted[i])
    }

    #[test]
    fn nearest_rank_matches_brute_force_with_ties() {
        let windows: [&[u64]; 5] = [
            &[5],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[7, 7, 7, 7],
            &[0, 0, 1, 1, 1, 2, 9, 9],
            &[3, 100],
        ];
        for w in windows {
            for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
                assert_eq!(
                    nearest_rank(w, q),
                    brute_quantile(w, q),
                    "window {w:?} q={q}"
                );
            }
        }
    }

    #[test]
    fn empty_window_has_no_quantile() {
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn single_request_window_returns_it_for_all_quantiles() {
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[42], q), Some(42));
        }
    }

    #[test]
    fn out_of_range_quantiles_are_clamped() {
        let w = [1u64, 2, 3];
        assert_eq!(nearest_rank(&w, 0.0), Some(1));
        assert_eq!(nearest_rank(&w, 2.0), Some(3));
    }

    fn tiny_report() -> ServeReport {
        let mk = |idx: usize, arrival: u64, completion: u64| RequestRecord {
            idx,
            client: 0,
            req_id: idx as u64,
            target: idx as u32,
            batch: 0,
            arrival_us: arrival,
            completion_us: completion,
            logits: vec![0.0, 1.0],
        };
        ServeReport {
            dataset: "demo".into(),
            p: 2,
            sparse: false,
            requests: vec![mk(0, 10, 30), mk(1, 12, 30), mk(2, 40, 55)],
            batches: vec![
                BatchTiming {
                    idx: 0,
                    size: 2,
                    close_us: 14,
                    dispatch_us: 14,
                    service_us: 16,
                    completion_us: 30,
                    overlap_us: 0,
                },
                BatchTiming {
                    idx: 1,
                    size: 1,
                    close_us: 45,
                    dispatch_us: 45,
                    service_us: 10,
                    completion_us: 55,
                    overlap_us: 3,
                },
            ],
            ws_fresh_warmup: 12,
            ws_fresh_steady: 0,
            ws_reused_steady: 12,
            payload_bytes: 4096,
            messages: 16,
            retries: 0,
            overlap_inert: None,
            sparse_inert: None,
            reuse_inert: None,
        }
    }

    #[test]
    fn summary_statistics_agree_with_hand_computation() {
        let r = tiny_report();
        // Latencies: 20, 18, 15 → sorted [15, 18, 20].
        assert_eq!(r.latencies_us(), vec![15, 18, 20]);
        assert_eq!(r.p50_us(), 18);
        assert_eq!(r.p99_us(), 20);
        assert_eq!(r.mean_us(), 17);
        assert_eq!(r.max_us(), 20);
        // 3 requests over [10, 55] us.
        let rps = r.throughput_rps();
        assert!((rps - 3.0e6 / 45.0).abs() < 1e-6, "rps {rps}");
    }

    #[test]
    fn predicted_class_is_argmax() {
        let r = tiny_report();
        assert_eq!(r.requests[0].predicted_class(), 1);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let a = tiny_report().render();
        let b = tiny_report().render();
        assert_eq!(a, b);
        for needle in [
            "p50 18 us",
            "p99 20 us",
            "3 in 2 batches",
            "warmup fresh 12  steady fresh 0  steady reused 12",
            "4096 payload bytes in 16 messages  retries 0",
            "overlap     3 us hidden by pipelining",
            "reuse       batch 0's Â·H⁰ in every later batch",
        ] {
            assert!(a.contains(needle), "missing {needle:?} in:\n{a}");
        }
    }

    #[test]
    fn inert_overlap_renders_the_reason_instead_of_hidden_time() {
        let mut r = tiny_report();
        r.overlap_inert = Some("single rank");
        let s = r.render();
        assert!(
            s.contains("overlap     inert (single rank); the session ran blocking"),
            "missing inert line in:\n{s}"
        );
        assert!(!s.contains("hidden by pipelining"));
        assert_eq!(r.overlap_inert_reason(), Some("single rank"));
    }

    #[test]
    fn empty_session_renders_zeros() {
        let r = ServeReport {
            dataset: "demo".into(),
            p: 1,
            sparse: true,
            requests: vec![],
            batches: vec![],
            ws_fresh_warmup: 0,
            ws_fresh_steady: 0,
            ws_reused_steady: 0,
            payload_bytes: 0,
            messages: 0,
            retries: 0,
            overlap_inert: None,
            sparse_inert: None,
            reuse_inert: None,
        };
        assert_eq!(r.p50_us(), 0);
        assert_eq!(r.p99_us(), 0);
        assert_eq!(r.mean_us(), 0);
        assert_eq!(r.max_us(), 0);
        assert_eq!(r.throughput_rps(), 0.0);
        assert!(r.render().contains("0 in 0 batches"));
    }
}
