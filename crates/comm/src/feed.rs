//! The host feed: input the thread calling [`Cluster::run_fed`] builds
//! while the ranks run, and every rank reads in place.
//!
//! Some input every rank needs whole — a serving batch's induced
//! minibatch at `r_a = P` — costs the same on every rank and moves no
//! byte between them, so it is built once, on the calling thread, instead
//! of once per rank. A [`Feed`] is a ring of [`RING`] arenas the caller
//! lends the run and gets back after it, so they can outlive it: the host
//! [`Feed::fill`]s item `k + 1` into one while the ranks read item `k`
//! from the other, each rank every item, in order, through its
//! [`Intake`]. A read is a [`Lease`] on the shared arena (read-only, no
//! copy); the arena goes back to the host when the item's last rank drops
//! its lease.
//!
//! Failure is contained on both ends. A host that panics wakes every rank
//! waiting on an item it never published, and [`Intake::next`] panics
//! instead of waiting forever ([`Cluster::run_fed`] then fails with the
//! host's panic). A rank that leaves the run — returning or unwinding —
//! drops its leases and gives up every item it never read, so the host
//! never waits on a ring no rank will empty.
//!
//! [`Cluster::run_fed`]: crate::Cluster::run_fed

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Arenas in a feed's ring: the host works one item ahead of the ranks.
pub const RING: usize = 2;

/// The ring of arenas shared by the host and the ranks of one run.
pub struct Feed<A> {
    state: Mutex<State<A>>,
    /// Signalled when an item is published or the host ends.
    published: Condvar,
    /// Signalled when an arena returns to the host.
    returned: Condvar,
}

struct State<A> {
    /// Arenas the host may fill.
    vacant: Vec<Arc<A>>,
    /// Published items some running rank has not released, oldest first.
    items: VecDeque<Item<A>>,
    /// The index the next published item gets.
    next: usize,
    /// Per rank: the index of the next item it reads, `None` once it has
    /// left the run.
    cursors: Vec<Option<usize>>,
    /// Set when the host has returned (`Some(false)`) or panicked
    /// (`Some(true)`): no item will be published any more.
    ended: Option<bool>,
}

struct Item<A> {
    idx: usize,
    arena: Arc<A>,
    /// Ranks that have not released the item yet.
    readers: usize,
}

impl<A> State<A> {
    /// One reader of item `idx` is done with it; the last one returns its
    /// arena to the host.
    fn release(&mut self, idx: usize, returned: &Condvar) {
        let pos = (self.items.iter())
            .position(|i| i.idx == idx)
            .expect("an item is published until its last reader releases it");
        self.items[pos].readers -= 1;
        if self.items[pos].readers == 0 {
            let item = self.items.remove(pos).expect("found above");
            self.vacant.push(item.arena);
            returned.notify_one();
        }
    }
}

impl<A> Feed<A> {
    /// A feed for `p` ranks over `arenas`.
    pub(crate) fn new(p: usize, arenas: [A; RING]) -> Self {
        Feed {
            state: Mutex::new(State {
                vacant: arenas.into_iter().map(Arc::new).collect(),
                items: VecDeque::with_capacity(RING),
                next: 0,
                cursors: vec![Some(0); p],
                ended: None,
            }),
            published: Condvar::new(),
            returned: Condvar::new(),
        }
    }

    /// The ring's arenas, once every rank has left the run.
    pub(crate) fn into_arenas(self) -> [A; RING] {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let held = st.items.into_iter().map(|item| item.arena);
        let arenas = (st.vacant.into_iter().chain(held))
            .map(|a| Arc::into_inner(a).expect("no lease outlives its rank"));
        let arenas: Vec<A> = arenas.collect();
        arenas
            .try_into()
            .unwrap_or_else(|_| panic!("a ring keeps its {RING} arenas"))
    }

    /// No lock is held across a panic of this module's callers, and its
    /// own critical sections leave the state consistent, so a poisoned
    /// lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, State<A>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Host side: publish the next item, built by `build` in an arena no
    /// rank holds — waiting, off-CPU, while both arenas are out. Returns
    /// what `build` returns.
    pub fn fill<R>(&self, build: impl FnOnce(&mut A) -> R) -> R {
        let mut arena = {
            let mut st = self.lock();
            loop {
                match st.vacant.pop() {
                    Some(arena) => break arena,
                    None => {
                        st = self
                            .returned
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        let out = build(Arc::get_mut(&mut arena).expect("no rank holds a returned arena"));
        let mut st = self.lock();
        let (idx, readers) = (st.next, st.cursors.iter().flatten().count());
        st.next += 1;
        if readers == 0 {
            st.vacant.push(arena);
        } else {
            st.items.push_back(Item {
                idx,
                arena,
                readers,
            });
            self.published.notify_all();
        }
        out
    }

    /// The host is done (`panicked` says how): ranks waiting on an item
    /// that will never come wake up.
    pub(crate) fn end(&self, panicked: bool) {
        self.lock().ended = Some(panicked);
        self.published.notify_all();
    }

    /// Rank `rank`'s reading end.
    pub(crate) fn intake(&self, rank: usize) -> Intake<'_, A> {
        Intake { feed: self, rank }
    }
}

/// One rank's reading end of a [`Feed`]. Dropping it — when the rank
/// leaves the run, returning or unwinding — gives up every item the rank
/// has not read.
pub struct Intake<'a, A> {
    feed: &'a Feed<A>,
    rank: usize,
}

impl<A> Intake<'_, A> {
    /// The next item, once the host has published it (waiting off-CPU).
    ///
    /// # Panics
    /// If the host ended without publishing it.
    pub fn next(&self) -> Lease<'_, A> {
        let feed = self.feed;
        let mut st = feed.lock();
        let idx = st.cursors[self.rank].expect("a rank reads only while it runs");
        loop {
            if let Some(item) = st.items.iter().find(|i| i.idx == idx) {
                let arena = Arc::clone(&item.arena);
                st.cursors[self.rank] = Some(idx + 1);
                return Lease {
                    feed,
                    idx,
                    arena: Some(arena),
                };
            }
            if let Some(panicked) = st.ended {
                drop(st);
                let why = if panicked { "panicked" } else { "returned" };
                panic!("the host {why} without feeding item {idx}");
            }
            st = feed
                .published
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<A> Drop for Intake<'_, A> {
    fn drop(&mut self) {
        let mut st = self.feed.lock();
        let Some(cursor) = st.cursors[self.rank].take() else {
            return;
        };
        let unread: Vec<usize> = (st.items.iter())
            .map(|i| i.idx)
            .filter(|&idx| idx >= cursor)
            .collect();
        for idx in unread {
            st.release(idx, &self.feed.returned);
        }
    }
}

/// A rank's read-only hold on one published item.
pub struct Lease<'a, A> {
    feed: &'a Feed<A>,
    idx: usize,
    /// `Some` until dropped.
    arena: Option<Arc<A>>,
}

impl<A> std::ops::Deref for Lease<'_, A> {
    type Target = A;

    fn deref(&self) -> &A {
        self.arena
            .as_ref()
            .expect("a lease holds its arena until dropped")
    }
}

impl<A> Drop for Lease<'_, A> {
    fn drop(&mut self) {
        // Let go of the arena before releasing the item, so the arena the
        // last release hands back has no other owner.
        drop(self.arena.take());
        self.feed.lock().release(self.idx, &self.feed.returned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every rank reads every item in order from the one shared arena it
    /// was built in, and the host never works more than one item ahead of
    /// the slowest rank.
    #[test]
    fn ranks_read_every_item_in_order_one_item_behind_the_host() {
        let filled = AtomicUsize::new(0);
        let (built, _, out) = Cluster::new(3).run_fed(
            [Vec::new(), Vec::new()],
            |feed| {
                let mut arenas = Vec::new();
                for k in 0..7 {
                    arenas.push(feed.fill(|a| {
                        a.clear();
                        a.push(k);
                        a.as_ptr() as usize
                    }));
                    filled.fetch_add(1, Ordering::SeqCst);
                }
                arenas
            },
            |_, intake| {
                let mut seen = Vec::new();
                for k in 0..7 {
                    let item = intake.next();
                    assert!(filled.load(Ordering::SeqCst) <= k + RING);
                    seen.push((item[0], item.as_ptr() as usize));
                }
                seen
            },
        );
        let distinct: std::collections::BTreeSet<_> = built.iter().collect();
        assert_eq!(distinct.len(), RING, "items are built in the ring's arenas");
        let expect: Vec<_> = built.into_iter().enumerate().collect();
        assert_eq!(out.results, vec![expect; 3]);
    }

    /// A host that panics wakes the ranks waiting on an item it never fed,
    /// and the run fails with the host's panic instead of hanging.
    #[test]
    #[should_panic(expected = "sampler failed on item 2")]
    fn a_panicking_host_fails_the_run_with_its_panic() {
        Cluster::new(3).run_fed(
            [Vec::new(), Vec::new()],
            |feed| {
                for k in 0..5 {
                    feed.fill(|a| {
                        assert!(k < 2, "sampler failed on item {k}");
                        a.push(k);
                    });
                }
            },
            |_, intake| {
                for _ in 0..5 {
                    drop(intake.next());
                }
            },
        );
    }

    /// A rank that unwinds holding a lease hands it back and gives up the
    /// items it will never read: the host feeds the rest to the ranks
    /// still running, and the run fails with the rank's panic.
    #[test]
    fn an_unwinding_rank_hands_its_arena_back() {
        let (filled, read) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            Cluster::new(3).run_fed(
                [Vec::new(), Vec::new()],
                |feed| {
                    for k in 0..6 {
                        feed.fill(|a| {
                            a.clear();
                            a.push(k);
                        });
                        filled.fetch_add(1, Ordering::SeqCst);
                    }
                },
                |ctx, intake| {
                    let first = intake.next();
                    if ctx.rank() == 1 {
                        panic!("rank 1 fails holding item {}", first[0]);
                    }
                    drop(first);
                    for k in 1..6 {
                        assert_eq!(intake.next()[0], k);
                        read.fetch_add(1, Ordering::SeqCst);
                    }
                },
            )
        }));
        let Err(payload) = run else {
            panic!("the rank's panic must fail the run");
        };
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("rank thread panicked: Any { .. }"));
        assert_eq!(filled.load(Ordering::SeqCst), 6);
        assert_eq!(read.load(Ordering::SeqCst), 2 * 5);
    }

    /// A rank that returns without reading gives its items up too, so a
    /// host feeding more than the ranks read still finishes.
    #[test]
    fn ranks_that_leave_early_never_block_the_host() {
        let (fed, arenas, out) = Cluster::new(2).run_fed(
            [0, 0],
            |feed| (0..5).map(|k| feed.fill(|a| *a = k)).count(),
            |ctx, intake| (ctx.rank() == 0).then(|| *intake.next()),
        );
        assert_eq!(fed, 5);
        assert_eq!(out.results, vec![Some(0), None]);
        assert!(arenas.contains(&4), "the ring's arenas come back filled");
    }
}
