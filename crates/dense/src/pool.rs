//! Per-rank (thread-local) workspace pool for `f32` buffers.
//!
//! Every [`Mat`](crate::Mat) allocates through [`take_empty`] /
//! [`take_zeroed`] and returns its buffer through [`give`] on drop, so
//! steady-state training epochs recycle the same handful of buffers
//! instead of hitting the system allocator. Ranks are threads in this
//! workspace, which makes a thread-local shelf exactly a *per-rank* pool:
//! no locks, no cross-rank sharing, deterministic reuse.
//!
//! ## Size classes
//!
//! Buffers are binned by power-of-two capacity classes starting at
//! [`MIN_CLASS`] elements: class `d` holds capacities in
//! `[MIN_CLASS << d, MIN_CLASS << (d + 1))`. A request of `len` elements
//! is rounded up to the smallest class capacity that fits and is served
//! **only** from that exact class (no best-fit scavenging from larger
//! classes). Exact-class matching is what makes the steady-state
//! guarantee provable: after one full epoch the per-class inventory
//! equals the epoch's peak concurrent demand for that class, and every
//! later epoch — which replays the identical allocation schedule — is
//! served entirely from the shelf. Upward fallback would let a large
//! class cannibalize a small one and re-introduce fresh allocations.
//!
//! Requests smaller than `MIN_CLASS` are served from class 0; parked
//! memory beyond [`MAX_PARKED_BYTES`] per thread is dropped instead of
//! shelved so pathological workloads cannot hoard.
//!
//! The [`stats`] counters (fresh vs reused takes) are the allocation
//! hook the end-to-end tests use to prove epoch ≥ 2 performs zero fresh
//! kernel/redistribution allocations.
//!
//! ## Buffers that change threads
//!
//! A message moves its buffer from the sending rank's thread to the
//! receiving rank's, where it is shelved on drop. When ranks do not send
//! as many buffers of a class as they receive (uneven partitions, ragged
//! pipeline strips), one rank's shelf would grow every epoch while
//! another allocated afresh. So each thread keeps, per class, the buffers
//! it [`received`] minus those it [`sent`], and at every barrier
//! [`settle`]s: a surplus is paid out in idle buffers of its class, a
//! deficit is reported, and the cluster hands what was paid to the
//! reporting threads (see `rdm_comm`'s barrier). Where every rank sends
//! as many buffers of each class as it receives (the even case) nothing
//! moves.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Smallest pooled capacity, in `f32` elements. Requests below this are
/// rounded up; returned buffers below it are dropped (not worth shelving).
pub const MIN_CLASS: usize = 64;

/// Per-thread cap on parked (idle) pool memory, in bytes.
pub const MAX_PARKED_BYTES: usize = 256 << 20;

/// Fresh-vs-reused take counters, cumulative per thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes that had to allocate a new buffer.
    pub fresh: u64,
    /// Takes served from the shelf without allocating.
    pub reused: u64,
}

#[derive(Default)]
struct Shelf {
    /// `buckets[d]` holds idle buffers with capacity in
    /// `[MIN_CLASS << d, MIN_CLASS << (d + 1))`.
    buckets: Vec<Vec<Vec<f32>>>,
    parked_bytes: usize,
    stats: PoolStats,
    /// Buffers of class `d` received minus those sent, by `d`, since the
    /// last [`settle`] (plus any surplus it could not pay).
    balance: BTreeMap<usize, i64>,
}

thread_local! {
    static SHELF: RefCell<Shelf> = RefCell::new(Shelf::default());
}

/// Size class that serves a request of `len` elements: smallest `d` with
/// `MIN_CLASS << d >= len`.
#[inline]
fn demand_class(len: usize) -> usize {
    let units = len.div_ceil(MIN_CLASS).max(1);
    usize::BITS as usize - (units - 1).leading_zeros() as usize
}

/// Size class a returned buffer of capacity `cap` belongs to (floor), or
/// `None` when it is too small to shelve.
#[inline]
fn storage_class(cap: usize) -> Option<usize> {
    if cap < MIN_CLASS {
        return None;
    }
    Some(usize::BITS as usize - 1 - (cap / MIN_CLASS).leading_zeros() as usize)
}

/// Take a buffer with `len == 0` and `capacity >= len` elements.
pub fn take_empty(len: usize) -> Vec<f32> {
    let d = demand_class(len);
    SHELF
        .try_with(|cell| {
            let mut shelf = cell.borrow_mut();
            if let Some(mut v) = shelf.buckets.get_mut(d).and_then(Vec::pop) {
                shelf.parked_bytes -= v.capacity() * std::mem::size_of::<f32>();
                shelf.stats.reused += 1;
                v.clear();
                v
            } else {
                shelf.stats.fresh += 1;
                Vec::with_capacity(MIN_CLASS << d)
            }
        })
        // Thread teardown: the TLS shelf is gone, fall back to a plain alloc.
        .unwrap_or_else(|_| Vec::with_capacity(MIN_CLASS << d))
}

/// Take a buffer of exactly `len` zeroed elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_empty(len);
    v.resize(len, 0.0);
    v
}

/// Return a buffer to this thread's shelf. Dropped (deallocated) when it
/// is below [`MIN_CLASS`] or the shelf is at its byte cap.
pub fn give(v: Vec<f32>) {
    let cap = v.capacity();
    let Some(d) = storage_class(cap) else {
        return;
    };
    let bytes = cap * std::mem::size_of::<f32>();
    let _ = SHELF.try_with(|cell| {
        let mut shelf = cell.borrow_mut();
        if shelf.parked_bytes + bytes > MAX_PARKED_BYTES {
            return; // drop `v`
        }
        if shelf.buckets.len() <= d {
            shelf.buckets.resize_with(d + 1, Vec::new);
        }
        shelf.buckets[d].push(v);
        shelf.parked_bytes += bytes;
    });
}

/// Book a buffer of capacity `cap` entering (`+1`) or leaving (`-1`)
/// the calling thread.
fn book(cap: usize, delta: i64) {
    if let Some(d) = storage_class(cap) {
        let _ = SHELF.try_with(|cell| *cell.borrow_mut().balance.entry(d).or_default() += delta);
    }
}

/// The calling thread received a buffer of capacity `cap` from another.
pub fn received(cap: usize) {
    book(cap, 1);
}

/// The calling thread sent a buffer of capacity `cap` to another.
pub fn sent(cap: usize) {
    book(cap, -1);
}

/// What a thread's balances come to at a barrier.
#[derive(Debug, Default)]
pub struct Settlement {
    /// `(class, buffer)`: idle buffers paid out against surpluses.
    pub paid: Vec<(usize, Vec<f32>)>,
    /// `(class, count)`: buffers the thread sent beyond those it received.
    pub short: Vec<(usize, usize)>,
}

/// Settle the calling thread's balances: pay each surplus in idle buffers
/// of its class, as far as the shelf holds them (an unpaid rest stays
/// owed), and report each deficit.
pub fn settle() -> Settlement {
    let mut out = Settlement::default();
    let _ = SHELF.try_with(|cell| {
        let shelf = &mut *cell.borrow_mut();
        for (&d, balance) in shelf.balance.iter_mut() {
            if *balance < 0 {
                out.short.push((d, balance.unsigned_abs() as usize));
            }
            let bucket = shelf.buckets.get_mut(d);
            let pay = (*balance).clamp(0, bucket.as_ref().map_or(0, |b| b.len()) as i64);
            if let Some(bucket) = bucket.filter(|_| pay > 0) {
                let paid = bucket.split_off(bucket.len() - pay as usize);
                shelf.parked_bytes -=
                    paid.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<f32>();
                out.paid.extend(paid.into_iter().map(|v| (d, v)));
            }
            *balance = (*balance - pay).max(0);
        }
    });
    out
}

/// Cumulative fresh/reused counters for the calling thread.
pub fn stats() -> PoolStats {
    SHELF
        .try_with(|cell| cell.borrow().stats)
        .unwrap_or_default()
}

/// Drop every parked buffer on the calling thread and reset the counters.
/// Test isolation helper; production code never needs it.
pub fn clear() {
    let _ = SHELF.try_with(|cell| {
        let mut shelf = cell.borrow_mut();
        shelf.buckets.clear();
        shelf.parked_bytes = 0;
        shelf.stats = PoolStats::default();
        shelf.balance.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_up_and_floor_correctly() {
        assert_eq!(demand_class(0), 0);
        assert_eq!(demand_class(1), 0);
        assert_eq!(demand_class(MIN_CLASS), 0);
        assert_eq!(demand_class(MIN_CLASS + 1), 1);
        assert_eq!(demand_class(4 * MIN_CLASS), 2);
        assert_eq!(storage_class(MIN_CLASS - 1), None);
        assert_eq!(storage_class(MIN_CLASS), Some(0));
        assert_eq!(storage_class(2 * MIN_CLASS - 1), Some(0));
        assert_eq!(storage_class(2 * MIN_CLASS), Some(1));
    }

    #[test]
    fn take_give_take_reuses_exact_class() {
        std::thread::spawn(|| {
            clear();
            let a = take_zeroed(100);
            assert!(a.capacity() >= 100);
            assert_eq!(
                stats(),
                PoolStats {
                    fresh: 1,
                    reused: 0
                }
            );
            give(a);
            let b = take_zeroed(80); // 80 and 100 both land in class 1 (65..=128)
            assert_eq!(
                stats(),
                PoolStats {
                    fresh: 1,
                    reused: 1
                }
            );
            assert_eq!(b.len(), 80);
            assert!(b.iter().all(|&x| x == 0.0));
            // A different class misses even though a larger buffer is parked.
            give(b);
            let _c = take_zeroed(10);
            assert_eq!(
                stats(),
                PoolStats {
                    fresh: 2,
                    reused: 1
                }
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn tiny_buffers_are_not_shelved() {
        std::thread::spawn(|| {
            clear();
            give(Vec::with_capacity(MIN_CLASS - 1));
            let _a = take_empty(1);
            assert_eq!(stats().reused, 0, "undersized buffer must not be reused");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zeroed_take_clears_previous_contents() {
        std::thread::spawn(|| {
            clear();
            let mut a = take_zeroed(64);
            a.iter_mut().for_each(|x| *x = 7.0);
            give(a);
            let b = take_zeroed(64);
            assert!(b.iter().all(|&x| x == 0.0));
            assert_eq!(stats().reused, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn surpluses_are_paid_in_kind_and_deficits_reported() {
        std::thread::spawn(|| {
            clear();
            give(take_empty(100)); // one idle class-1 buffer
            received(128);
            received(128);
            sent(256); // class 2: a deficit
            received(10); // too small to shelve: not booked
            let s = settle();
            let paid: Vec<_> = s
                .paid
                .iter()
                .map(|(d, v)| (*d, storage_class(v.capacity())))
                .collect();
            assert_eq!(paid, [(1, Some(1))]);
            assert_eq!(s.short, [(2, 1)]);
            // The unpaid class-1 rest stays owed; the deficit is reported once.
            give(take_empty(100));
            let s = settle();
            assert_eq!((s.paid.len(), s.short.len()), (1, 0));
            assert_eq!(stats().fresh, 2);
        })
        .join()
        .unwrap();
    }
}
