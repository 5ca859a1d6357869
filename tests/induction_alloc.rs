//! Allocation gate for the per-rank induction arena: once an
//! [`InducedBatch`] has held the subgraph of a vertex set,
//! `Dataset::induced_into` on any subset of it — sorted, as the serving
//! sampler draws it, or in any other order — performs **zero** heap
//! allocations.
//!
//! The workspace pool's fresh/reused counters cannot show this: they count
//! `Mat` buffers only, while induction also fills CSR arrays, a remap and
//! label/split vectors. So this test binary installs a counting global
//! allocator whose counter is thread-local — the test harness's other
//! threads cannot disturb it.
//!
//! The CI `serve` job runs this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gnn_rdm::graph::sampler::Subgraph;
use gnn_rdm::graph::{DatasetSpec, InducedBatch};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread made while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warmed_induction_allocates_nothing() {
    let ds = DatasetSpec::synthetic("alloc", 3000, 24_000, 32, 4).instantiate(5);
    let mut batch = InducedBatch::default();
    // Warm-up: every vertex, in an order that is not increasing, so the
    // arena grows every buffer once (the unsorted path's row buffer too).
    let all: Vec<u32> = (0..ds.n() as u32).rev().collect();
    assert!(allocations(|| ds.induced_into(&all, &mut batch)) > 0);

    for seed in 0..8u64 {
        let targets: Vec<u32> = (0..8)
            .map(|i| ((seed * 131 + i * 977) % 3000) as u32)
            .collect();
        let budget = [64, 512, 2048, 256][seed as usize % 4];
        let sorted = Subgraph::around(&ds.adj, &targets, budget, seed).vertices;
        let mut shuffled = sorted.clone();
        shuffled.rotate_left(sorted.len() / 3);
        shuffled.reverse();
        for keep in [&sorted, &shuffled] {
            let n = allocations(|| ds.induced_into(keep, &mut batch));
            assert_eq!(n, 0, "{n} allocations inducing {} vertices", keep.len());
            // The reused arena holds exactly what a fresh induction builds.
            let fresh = ds.induced(keep);
            assert_eq!(batch.adj_norm, fresh.adj_norm);
            assert_eq!(batch.features, fresh.features);
            assert_eq!(batch.labels, fresh.labels);
            assert_eq!(batch.split, fresh.split);
        }
    }
}
