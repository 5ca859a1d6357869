//! Communication accounting.

use std::collections::BTreeMap;
use std::time::Duration;

/// What a transfer was *for*. Tagging at the call site lets Fig. 12's
/// compute/communication breakdown attribute bytes to algorithm phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectiveKind {
    /// Row↔column redistribution of a dense activation (the RDM all-to-all).
    Redistribute,
    /// Dense-activation broadcast inside an SpMM (CAGNET 1D/1.5D, and the
    /// panel-group broadcast of the `R_A < P` scheme).
    Broadcast,
    /// Gradient / weight all-reduce.
    AllReduce,
    /// Halo exchange of remote-vertex features (the DGCL-like baseline).
    Halo,
    /// Anything else (tests, setup, output collection).
    Other,
}

impl CollectiveKind {
    /// All variants, for iteration in reports.
    pub const ALL: [CollectiveKind; 5] = [
        CollectiveKind::Redistribute,
        CollectiveKind::Broadcast,
        CollectiveKind::AllReduce,
        CollectiveKind::Halo,
        CollectiveKind::Other,
    ];

    /// The `rdm_trace` tag mirroring this kind (the trace crate carries no
    /// dependency on this one, so the tag enum lives there).
    pub fn trace_tag(self) -> rdm_trace::TraceCollective {
        use rdm_trace::TraceCollective as T;
        match self {
            CollectiveKind::Redistribute => T::Redistribute,
            CollectiveKind::Broadcast => T::Broadcast,
            CollectiveKind::AllReduce => T::AllReduce,
            CollectiveKind::Halo => T::Halo,
            CollectiveKind::Other => T::Other,
        }
    }
}

/// Per-rank communication statistics.
///
/// `bytes_sent` counts payload bytes this rank *sent to other ranks*
/// (self-copies inside a collective are free, matching how the paper counts
/// inter-GPU volume). Wall time covers blocking communication calls.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    per_kind: BTreeMap<CollectiveKind, KindStats>,
    /// Wall-clock time spent inside communication calls (send, blocked
    /// receive, barrier).
    pub comm_time: Duration,
    /// Transmission attempts lost to injected faults and re-sent. Zero on a
    /// perfect fabric.
    pub retries: u64,
    /// Payload bytes carried by those retransmissions. Kept separate from
    /// `bytes_sent` so fault injection never perturbs the paper's
    /// communication-volume accounting.
    pub retransmit_bytes: u64,
    /// Modeled exponential-backoff wait accumulated by retries, in virtual
    /// nanoseconds (accounted, never slept).
    pub backoff_ns: u64,
    /// Modeled communication time hidden behind compute by the pipelined
    /// redistribution path, in virtual nanoseconds. Zero on the blocking
    /// path. Like `backoff_ns` this is device-model time, never wall time,
    /// so it is deterministic for a given run.
    pub overlap_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct KindStats {
    pub bytes_sent: u64,
    pub messages: u64,
    /// Dense-equivalent payload bytes: what the same messages would have
    /// carried without sparsity compression. Equals `bytes_sent` for
    /// uncompressed sends, so the paper's dense volume formulas stay
    /// checkable as the upper bound (`bytes_sent <= dense_bytes` always).
    pub dense_bytes: u64,
}

impl CommStats {
    /// Record `bytes` sent in one message of the given kind.
    pub fn record_send(&mut self, kind: CollectiveKind, bytes: usize) {
        let e = self.per_kind.entry(kind).or_default();
        e.bytes_sent += bytes as u64;
        e.dense_bytes += bytes as u64;
        e.messages += 1;
    }

    /// Record a sparsity-compressed send: `bytes` actually crossed the
    /// link, standing in for `dense` dense-equivalent bytes.
    ///
    /// # Panics
    /// If `bytes > dense` — compression must never inflate a payload.
    pub fn record_send_compressed(&mut self, kind: CollectiveKind, bytes: usize, dense: usize) {
        assert!(
            bytes <= dense,
            "compressed send of {bytes} B exceeds its dense equivalent {dense} B"
        );
        let e = self.per_kind.entry(kind).or_default();
        e.bytes_sent += bytes as u64;
        e.dense_bytes += dense as u64;
        e.messages += 1;
    }

    /// Add blocking-communication wall time.
    pub fn record_time(&mut self, d: Duration) {
        self.comm_time += d;
    }

    /// Record what fault-induced retransmission cost one send: `retries`
    /// lost attempts carrying `bytes` re-sent bytes, plus `backoff_ns` of
    /// modeled backoff wait. No-op when all are zero (the fault-free path).
    pub fn record_retransmits(&mut self, retries: u32, bytes: u64, backoff_ns: u64) {
        self.retries += retries as u64;
        self.retransmit_bytes += bytes;
        self.backoff_ns += backoff_ns;
    }

    /// Record modeled comm time hidden behind compute by an overlapped
    /// (chunk-pipelined) collective, in virtual nanoseconds.
    pub fn record_overlap(&mut self, ns: u64) {
        self.overlap_ns += ns;
    }

    /// Total bytes sent across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.per_kind.values().map(|k| k.bytes_sent).sum()
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.per_kind.values().map(|k| k.messages).sum()
    }

    /// Bytes sent for one kind.
    pub fn bytes(&self, kind: CollectiveKind) -> u64 {
        self.per_kind.get(&kind).map_or(0, |k| k.bytes_sent)
    }

    /// Dense-equivalent bytes for one kind (= `bytes` unless some sends
    /// were sparsity-compressed).
    pub fn dense_bytes(&self, kind: CollectiveKind) -> u64 {
        self.per_kind.get(&kind).map_or(0, |k| k.dense_bytes)
    }

    /// Total dense-equivalent bytes across all kinds.
    pub fn total_dense_bytes(&self) -> u64 {
        self.per_kind.values().map(|k| k.dense_bytes).sum()
    }

    /// Messages sent for one kind.
    pub fn messages(&self, kind: CollectiveKind) -> u64 {
        self.per_kind.get(&kind).map_or(0, |k| k.messages)
    }

    /// Merge another rank's (or epoch's) stats into this one.
    pub fn merge(&mut self, other: &CommStats) {
        for (kind, ks) in &other.per_kind {
            let e = self.per_kind.entry(*kind).or_default();
            e.bytes_sent += ks.bytes_sent;
            e.dense_bytes += ks.dense_bytes;
            e.messages += ks.messages;
        }
        self.comm_time += other.comm_time;
        self.retries += other.retries;
        self.retransmit_bytes += other.retransmit_bytes;
        self.backoff_ns += other.backoff_ns;
        self.overlap_ns += other.overlap_ns;
    }

    /// `self - baseline` for every counter; used to carve an epoch's stats
    /// out of running totals. Saturates at zero.
    pub fn delta_since(&self, baseline: &CommStats) -> CommStats {
        let mut out = CommStats::default();
        for (kind, ks) in &self.per_kind {
            let b = baseline.per_kind.get(kind).copied().unwrap_or_default();
            let e = out.per_kind.entry(*kind).or_default();
            e.bytes_sent = ks.bytes_sent.saturating_sub(b.bytes_sent);
            e.dense_bytes = ks.dense_bytes.saturating_sub(b.dense_bytes);
            e.messages = ks.messages.saturating_sub(b.messages);
        }
        out.comm_time = self.comm_time.saturating_sub(baseline.comm_time);
        out.retries = self.retries.saturating_sub(baseline.retries);
        out.retransmit_bytes = self
            .retransmit_bytes
            .saturating_sub(baseline.retransmit_bytes);
        out.backoff_ns = self.backoff_ns.saturating_sub(baseline.backoff_ns);
        out.overlap_ns = self.overlap_ns.saturating_sub(baseline.overlap_ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = CommStats::default();
        s.record_send(CollectiveKind::Redistribute, 100);
        s.record_send(CollectiveKind::Redistribute, 50);
        s.record_send(CollectiveKind::Broadcast, 10);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.bytes(CollectiveKind::Redistribute), 150);
        assert_eq!(s.messages(CollectiveKind::Broadcast), 1);
        assert_eq!(s.bytes(CollectiveKind::Halo), 0);
    }

    #[test]
    fn compressed_sends_split_actual_and_dense() {
        let mut s = CommStats::default();
        s.record_send(CollectiveKind::Redistribute, 100);
        s.record_send_compressed(CollectiveKind::Redistribute, 40, 100);
        // Actual and dense-equivalent totals diverge by the saved bytes...
        assert_eq!(s.bytes(CollectiveKind::Redistribute), 140);
        assert_eq!(s.dense_bytes(CollectiveKind::Redistribute), 200);
        assert_eq!(s.total_bytes(), 140);
        assert_eq!(s.total_dense_bytes(), 200);
        // ...and plain sends keep both counters coincident.
        assert_eq!(s.dense_bytes(CollectiveKind::Halo), 0);

        let mut merged = CommStats::default();
        merged.record_send_compressed(CollectiveKind::Redistribute, 8, 20);
        merged.merge(&s);
        assert_eq!(merged.bytes(CollectiveKind::Redistribute), 148);
        assert_eq!(merged.dense_bytes(CollectiveKind::Redistribute), 220);

        let d = merged.delta_since(&s);
        assert_eq!(d.bytes(CollectiveKind::Redistribute), 8);
        assert_eq!(d.dense_bytes(CollectiveKind::Redistribute), 20);
    }

    #[test]
    #[should_panic(expected = "exceeds its dense equivalent")]
    fn compressed_send_larger_than_dense_panics() {
        let mut s = CommStats::default();
        s.record_send_compressed(CollectiveKind::Redistribute, 101, 100);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::default();
        a.record_send(CollectiveKind::AllReduce, 5);
        let mut b = CommStats::default();
        b.record_send(CollectiveKind::AllReduce, 7);
        b.record_send(CollectiveKind::Halo, 2);
        a.merge(&b);
        assert_eq!(a.bytes(CollectiveKind::AllReduce), 12);
        assert_eq!(a.bytes(CollectiveKind::Halo), 2);
    }

    #[test]
    fn retransmits_tracked_separately_from_payload() {
        let mut s = CommStats::default();
        s.record_send(CollectiveKind::Redistribute, 100);
        s.record_retransmits(3, 300, 7_000);
        // Retransmitted bytes never leak into the paper's volume counters.
        assert_eq!(s.total_bytes(), 100);
        assert_eq!(s.retries, 3);
        assert_eq!(s.retransmit_bytes, 300);
        assert_eq!(s.backoff_ns, 7_000);

        let mut merged = CommStats::default();
        merged.record_retransmits(1, 50, 1_000);
        merged.merge(&s);
        assert_eq!(merged.retries, 4);
        assert_eq!(merged.retransmit_bytes, 350);

        let d = merged.delta_since(&s);
        assert_eq!(d.retries, 1);
        assert_eq!(d.retransmit_bytes, 50);
        assert_eq!(d.backoff_ns, 1_000);
    }

    #[test]
    fn overlap_tracked_separately_from_payload() {
        let mut s = CommStats::default();
        s.record_send(CollectiveKind::Redistribute, 100);
        s.record_overlap(5_000);
        s.record_overlap(2_500);
        // Hidden-comm accounting never perturbs the volume counters.
        assert_eq!(s.total_bytes(), 100);
        assert_eq!(s.overlap_ns, 7_500);

        let mut merged = CommStats::default();
        merged.record_overlap(500);
        merged.merge(&s);
        assert_eq!(merged.overlap_ns, 8_000);

        let d = merged.delta_since(&s);
        assert_eq!(d.overlap_ns, 500);
    }

    #[test]
    fn delta_since_saturates_on_every_counter() {
        // An "earlier" snapshot that is ahead of `now` on every single
        // counter: each subtraction must clamp to zero independently.
        let mut ahead = CommStats::default();
        ahead.record_send(CollectiveKind::Redistribute, 1_000);
        ahead.record_send(CollectiveKind::Redistribute, 1_000);
        ahead.record_time(Duration::from_millis(80));
        ahead.record_retransmits(9, 9_000, 90_000);
        ahead.record_overlap(70_000);

        let mut now = CommStats::default();
        now.record_send(CollectiveKind::Redistribute, 300);
        now.record_time(Duration::from_millis(2));
        now.record_retransmits(1, 100, 1_000);
        now.record_overlap(500);

        let d = now.delta_since(&ahead);
        assert_eq!(d.bytes(CollectiveKind::Redistribute), 0);
        assert_eq!(d.messages(CollectiveKind::Redistribute), 0);
        assert_eq!(d.comm_time, Duration::ZERO);
        assert_eq!(d.retries, 0);
        assert_eq!(d.retransmit_bytes, 0);
        assert_eq!(d.backoff_ns, 0);
        assert_eq!(d.overlap_ns, 0);
        assert_eq!(d.total_bytes(), 0);
        assert_eq!(d.total_messages(), 0);
    }

    #[test]
    fn delta_since_saturates_per_counter_not_jointly() {
        // Mixed directions: counters ahead of the baseline subtract
        // normally while counters behind it clamp, in the same call.
        let mut base = CommStats::default();
        base.record_retransmits(5, 500, 5_000);
        base.record_overlap(100);

        let mut now = CommStats::default();
        now.record_send(CollectiveKind::AllReduce, 64);
        now.record_retransmits(7, 300, 9_000); // retries/backoff ahead, bytes behind
        now.record_overlap(40); // behind

        let d = now.delta_since(&base);
        assert_eq!(d.bytes(CollectiveKind::AllReduce), 64);
        assert_eq!(d.retries, 2);
        assert_eq!(d.retransmit_bytes, 0);
        assert_eq!(d.backoff_ns, 4_000);
        assert_eq!(d.overlap_ns, 0);
    }

    #[test]
    fn delta_since_ignores_kinds_only_in_baseline() {
        // A kind present only in the baseline never shows up (let alone
        // underflows) in the delta.
        let mut base = CommStats::default();
        base.record_send(CollectiveKind::Halo, 128);
        let now = CommStats::default();
        let d = now.delta_since(&base);
        assert_eq!(d.bytes(CollectiveKind::Halo), 0);
        assert_eq!(d.total_messages(), 0);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut base = CommStats::default();
        base.record_send(CollectiveKind::Broadcast, 10);
        let mut now = base.clone();
        now.record_send(CollectiveKind::Broadcast, 30);
        now.record_send(CollectiveKind::Halo, 4);
        let d = now.delta_since(&base);
        assert_eq!(d.bytes(CollectiveKind::Broadcast), 30);
        assert_eq!(d.messages(CollectiveKind::Broadcast), 1);
        assert_eq!(d.bytes(CollectiveKind::Halo), 4);
    }
}
