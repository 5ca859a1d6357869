//! The channel fabric between ranks: one directed link per (src, dst) pair,
//! carrying sequence-numbered envelopes over an optionally faulty wire.
//!
//! ## Protocol
//!
//! Every link runs a sequence-numbered delivery protocol whose
//! retransmissions are simulated:
//!
//! * **Envelopes.** Each payload is wrapped with a per-link sequence
//!   number. The receiver hands payloads to the application strictly in
//!   sequence order, so the FIFO contract of the fault-free fabric is
//!   preserved no matter how the wire reorders copies.
//! * **Retransmits (simulated).** When the [`FaultPlan`] drops
//!   transmission attempts, [`FaultPlan::resolve`] settles, before the
//!   message lands, how many attempts were lost and the exponential
//!   backoff (`base << attempt`, accounted in virtual time) the sender
//!   paid; the copy that finally lands is the one enqueued. No copy is
//!   kept for a later resend, because none happens. Each lost attempt is
//!   counted as a retry and its payload bytes as retransmitted bytes —
//!   separate from the payload accounting, so fault-free byte counts match
//!   the paper's cost model exactly.
//! * **Acks.** The receiver's in-order delivery is the whole ack: with
//!   every drop settled at send time there is no retransmit buffer to
//!   purge and no reverse ack traffic to account.
//!
//! Faults are *simulated at the protocol level*: a drop never enqueues the
//! copy (the sender's simulated retransmit is what lands), a delay
//! holds the landed copy back until `k` later messages have been sent (or
//! the receiver drains the link), and a straggler stalls the sending
//! thread for real wall time. All decisions come from the seeded
//! [`FaultPlan`], so runs are reproducible; see `fault.rs`.
//!
//! Sends never block (the wire is unbounded — the "GPU memory" of the
//! receiving device); receives block on a condvar until the next in-order
//! message arrives. Messages are dense matrices ([`Mat`]) because
//! everything a GNN moves is a dense activation, gradient or weight block.

use crate::fault::FaultPlan;
use rdm_dense::Mat;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// A payload on the wire, tagged with its per-link sequence number.
struct Envelope {
    seq: u64,
    payload: Mat,
}

/// All mutable state of one directed link.
#[derive(Default)]
struct LinkState {
    /// Sender: next sequence number to assign.
    next_seq: u64,
    /// The wire: copies that have arrived, in arrival order.
    arrived: VecDeque<Envelope>,
    /// Copies held back by delay faults: `(release_at_seq, envelope)` —
    /// the copy arrives once `next_seq` passes `release_at_seq`, or when
    /// the receiver drains the link while waiting.
    delayed: Vec<(u64, Envelope)>,
    /// Receiver: arrived-but-early copies, keyed by sequence number.
    reorder: BTreeMap<u64, Mat>,
    /// Receiver: next sequence number to hand to the application.
    next_deliver: u64,
}

impl LinkState {
    /// Move delayed copies whose release point has passed onto the wire.
    fn release_due(&mut self) {
        let due = self.next_seq;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= due {
                let (_, env) = self.delayed.swap_remove(i);
                self.arrived.push_back(env);
            } else {
                i += 1;
            }
        }
    }

    /// Force every held-back copy onto the wire (receiver timed out
    /// waiting: simulated time advances past all delays).
    fn release_all(&mut self) {
        for (_, env) in self.delayed.drain(..) {
            self.arrived.push_back(env);
        }
    }

    /// True when no message is in flight or undelivered anywhere on the
    /// link.
    fn drained(&self) -> bool {
        self.next_deliver == self.next_seq
            && self.arrived.is_empty()
            && self.delayed.is_empty()
            && self.reorder.is_empty()
    }
}

/// One directed link: protocol state plus a wakeup for blocked receivers.
#[derive(Default)]
struct Slot {
    state: Mutex<LinkState>,
    ready: Condvar,
}

/// What one [`Fabric::send`] did, for the caller's accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendReceipt {
    /// Payload size of the message.
    pub bytes: usize,
    /// Transmission attempts lost to injected drops before one landed.
    pub retries: u32,
    /// Bytes re-sent by those retransmissions (`retries * bytes`).
    pub retransmit_bytes: u64,
    /// Modeled exponential-backoff wait accumulated by the retries,
    /// nanoseconds of virtual time.
    pub backoff_ns: u64,
    /// The per-link sequence number this send occupied on the wire.
    pub seq: u64,
}

/// All `P × P` pairwise links, shared read-only between rank threads.
pub struct Fabric {
    p: usize,
    slots: Vec<Slot>,
    plan: Option<FaultPlan>,
}

impl Fabric {
    /// A perfect fabric for `p` ranks: no drops, no reordering, no stalls.
    pub fn new(p: usize) -> Self {
        Self::with_faults(p, None)
    }

    /// A fabric whose links misbehave per `plan`. `None` is the perfect
    /// fabric; a no-op plan is silently treated the same.
    pub fn with_faults(p: usize, plan: Option<FaultPlan>) -> Self {
        assert!(p > 0, "need at least one rank");
        Fabric {
            p,
            slots: (0..p * p).map(|_| Slot::default()).collect(),
            plan: plan.filter(|pl| !pl.is_noop()),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    #[inline]
    fn slot(&self, src: usize, dst: usize) -> &Slot {
        debug_assert!(src < self.p && dst < self.p);
        &self.slots[src * self.p + dst]
    }

    /// Transmit a message from `src` to `dst`, through any injected drops:
    /// the fault plan settles the lost attempts and their backoff before
    /// the copy lands. Never blocks on the receiver; returns the delivery
    /// accounting.
    pub fn send(&self, src: usize, dst: usize, msg: Mat) -> SendReceipt {
        let bytes = msg.nbytes();
        let resolution = self
            .plan
            .as_ref()
            .map(|plan| plan.resolve(src, dst, self.peek_seq(src, dst)))
            .unwrap_or_default();
        if resolution.straggle_ns > 0 {
            // A straggler link: stall the sending thread for real, before
            // touching the lock, so other ranks genuinely race ahead.
            std::thread::sleep(std::time::Duration::from_nanos(resolution.straggle_ns));
        }
        let slot = self.slot(src, dst);
        let mut st = slot.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        let env = Envelope { seq, payload: msg };
        if resolution.delay > 0 {
            // The landed copy queues behind `delay` later messages: it
            // reaches the wire only once `delay` further sends have been
            // issued on this link (or the receiver drains the link).
            st.delayed.push((seq + 1 + resolution.delay as u64, env));
        } else {
            st.arrived.push_back(env);
        }
        st.release_due();
        drop(st);
        slot.ready.notify_one();
        SendReceipt {
            bytes,
            retries: resolution.retries,
            retransmit_bytes: resolution.retries as u64 * bytes as u64,
            backoff_ns: resolution.backoff_ns,
            seq,
        }
    }

    /// The sequence number the next `send(src, dst, ..)` will use.
    fn peek_seq(&self, src: usize, dst: usize) -> u64 {
        self.slot(src, dst).state.lock().unwrap().next_seq
    }

    /// Deliver the next in-order message from `src` addressed to `dst`,
    /// blocking until it arrives. Reordered copies are buffered and
    /// surfaced strictly by sequence number, so the application observes
    /// per-link FIFO regardless of injected faults.
    pub fn recv(&self, src: usize, dst: usize) -> Mat {
        let slot = self.slot(src, dst);
        let mut st = slot.state.lock().unwrap();
        loop {
            let want = st.next_deliver;
            // Fast path: the next message already sits in the reorder
            // buffer from an earlier out-of-order arrival.
            if let Some(payload) = st.reorder.remove(&want) {
                st.next_deliver += 1;
                return payload;
            }
            // Pull arrivals off the wire until the wanted seq shows up.
            if let Some(env) = st.arrived.pop_front() {
                if env.seq == want {
                    st.next_deliver += 1;
                    return env.payload;
                }
                debug_assert!(env.seq > want, "duplicate delivery of seq {}", env.seq);
                st.reorder.insert(env.seq, env.payload);
                continue;
            }
            if !st.delayed.is_empty() {
                // Nothing on the wire but copies are held back: the
                // receiver has waited long enough — simulated time passes
                // all delay windows.
                st.release_all();
                continue;
            }
            st = slot.ready.wait(st).unwrap();
        }
    }

    /// True if every link is drained — used by `Cluster::run` to assert no
    /// rank left unconsumed messages behind (a collective-ordering bug).
    pub fn all_drained(&self) -> bool {
        self.slots.iter().all(|s| s.state.lock().unwrap().drained())
    }
}

/// A reusable sense-reversing barrier for `p` ranks.
pub struct Barrier {
    p: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl Barrier {
    pub fn new(p: usize) -> Self {
        Barrier {
            p,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `p` ranks have called `wait` for this generation.
    pub fn wait(&self) {
        self.wait_then(|| {});
    }

    /// [`Barrier::wait`], where the last rank to arrive runs `last` before
    /// any rank leaves — alone, with every rank's pre-barrier work done.
    pub fn wait_then(&self, last: impl FnOnce()) {
        let mut st = self.state.lock().unwrap();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.p {
            last();
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            while st.generation == gen {
                st = self.cv.wait(st).unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn send_recv_fifo_order() {
        let f = Fabric::new(2);
        f.send(0, 1, Mat::from_vec(1, 1, vec![1.0]));
        f.send(0, 1, Mat::from_vec(1, 1, vec![2.0]));
        assert_eq!(f.recv(0, 1).get(0, 0), 1.0);
        assert_eq!(f.recv(0, 1).get(0, 0), 2.0);
        assert!(f.all_drained());
    }

    #[test]
    fn pairs_are_independent() {
        let f = Fabric::new(3);
        f.send(0, 1, Mat::from_vec(1, 1, vec![1.0]));
        f.send(2, 1, Mat::from_vec(1, 1, vec![9.0]));
        // Receiving from 2 does not consume 0's message.
        assert_eq!(f.recv(2, 1).get(0, 0), 9.0);
        assert_eq!(f.recv(0, 1).get(0, 0), 1.0);
    }

    #[test]
    fn recv_blocks_until_send() {
        let f = Arc::new(Fabric::new(2));
        let f2 = f.clone();
        let h = std::thread::spawn(move || f2.recv(0, 1).get(0, 0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        f.send(0, 1, Mat::from_vec(1, 1, vec![7.0]));
        assert_eq!(h.join().unwrap(), 7.0);
    }

    #[test]
    fn perfect_fabric_reports_no_retries() {
        let f = Fabric::new(2);
        let r = f.send(0, 1, Mat::zeros(4, 4));
        assert_eq!(r.retries, 0);
        assert_eq!(r.retransmit_bytes, 0);
        assert_eq!(r.bytes, 64);
        let _ = f.recv(0, 1);
    }

    #[test]
    fn dropped_sends_account_retransmits_and_still_deliver() {
        let plan = FaultPlan::new(123).drop_rate(0.4);
        let f = Fabric::with_faults(2, Some(plan));
        let n = 200;
        let mut retries = 0u64;
        let mut retransmit = 0u64;
        for i in 0..n {
            let r = f.send(0, 1, Mat::from_vec(1, 1, vec![i as f32]));
            retries += r.retries as u64;
            retransmit += r.retransmit_bytes;
        }
        assert!(retries > 0, "drop rate 0.4 over 200 sends never dropped");
        assert_eq!(retransmit, retries * 4);
        // Every message still arrives, in order.
        for i in 0..n {
            assert_eq!(f.recv(0, 1).get(0, 0), i as f32);
        }
        assert!(f.all_drained());
    }

    #[test]
    fn delayed_sends_deliver_in_sequence_order() {
        let plan = FaultPlan::new(7).delay(1.0, 4);
        let f = Fabric::with_faults(2, Some(plan));
        for i in 0..50 {
            f.send(0, 1, Mat::from_vec(1, 1, vec![i as f32]));
        }
        for i in 0..50 {
            assert_eq!(f.recv(0, 1).get(0, 0), i as f32, "reordered at {i}");
        }
        assert!(f.all_drained());
    }

    #[test]
    fn faulty_fabric_retry_counts_are_reproducible() {
        let run = || {
            let plan = FaultPlan::new(99).drop_rate(0.3).delay(0.5, 3);
            let f = Fabric::with_faults(2, Some(plan));
            let mut retries = Vec::new();
            for i in 0..100 {
                retries.push(f.send(0, 1, Mat::from_vec(1, 1, vec![i as f32])).retries);
            }
            for _ in 0..100 {
                let _ = f.recv(0, 1);
            }
            retries
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        let p = 4;
        let barrier = Arc::new(Barrier::new(p));
        let before = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..p)
            .map(|_| {
                let barrier = barrier.clone();
                let before = before.clone();
                std::thread::spawn(move || {
                    before.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    // After the barrier every thread must observe all
                    // increments.
                    assert_eq!(before.load(Ordering::SeqCst), p);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_is_reusable() {
        let p = 3;
        let barrier = Arc::new(Barrier::new(p));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..p)
            .map(|_| {
                let barrier = barrier.clone();
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for round in 0..10 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::SeqCst), (round + 1) * p);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
