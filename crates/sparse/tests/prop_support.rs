//! Property-based tests for the cached per-destination remote-row support
//! ([`Csr::col_support`]): the lazily computed, partition-bucketed list of
//! columns a rank's panel actually touches must always agree with a
//! brute-force reference scan, across empty panels, full-support panels,
//! single-row matrices and hub-heavy RMAT-like skew.

use proptest::prelude::*;
use rdm_sparse::{Coo, Csr};

/// Brute-force reference: for each of `parts` column ranges, list (sorted,
/// deduplicated) every column in that range referenced by any stored entry.
fn reference_support(m: &Csr, parts: usize) -> Vec<Vec<u32>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|j| {
            let r = rdm_dense::part_range(m.cols(), parts, j);
            let mut cols: Vec<u32> = m
                .indices()
                .iter()
                .copied()
                .filter(|&c| r.contains(&(c as usize)))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows as u32, 0..cols as u32, -2.0f32..2.0f32);
        proptest::collection::vec(entry, 0..64).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

proptest! {
    #[test]
    fn support_matches_brute_force(coo in coo_strategy(), parts in 1usize..8) {
        let m = coo.to_csr();
        prop_assert_eq!(m.col_support(parts), &reference_support(&m, parts)[..]);
    }

    #[test]
    fn support_is_sorted_unique_and_in_range(coo in coo_strategy(), parts in 1usize..8) {
        let m = coo.to_csr();
        for (j, cols) in m.col_support(parts).iter().enumerate() {
            let r = rdm_dense::part_range(m.cols(), parts, j);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "part {j} not strictly sorted");
            prop_assert!(
                cols.iter().all(|&c| r.contains(&(c as usize))),
                "part {j} lists a column outside its range"
            );
        }
    }

    #[test]
    fn support_union_counts_touched_columns(coo in coo_strategy(), parts in 1usize..8) {
        // The parts partition the column space, so the per-part supports
        // are disjoint and their union is exactly the touched columns.
        let m = coo.to_csr();
        let total: usize = m.col_support(parts).iter().map(|c| c.len()).sum();
        let mut touched: Vec<u32> = m.indices().to_vec();
        touched.sort_unstable();
        touched.dedup();
        prop_assert_eq!(total, touched.len());
    }
}

#[test]
fn empty_panel_has_empty_support_everywhere() {
    // One matrix answers every `parts` value from its own cache entry.
    let m = Csr::empty(6, 12);
    for parts in [1usize, 2, 3, 5] {
        let support = m.col_support(parts);
        assert_eq!(support.len(), parts);
        assert!(support.iter().all(|c| c.is_empty()));
    }
}

#[test]
fn full_support_panel_lists_every_column() {
    // A dense row touches all columns: every part's support is its whole
    // range.
    let mut coo = Coo::new(3, 10);
    for c in 0..10u32 {
        coo.push(1, c, 1.0);
    }
    for parts in [1usize, 2, 3, 4] {
        let m = coo.to_csr();
        for (j, cols) in m.col_support(parts).iter().enumerate() {
            let r = rdm_dense::part_range(10, parts, j);
            let expect: Vec<u32> = (r.start as u32..r.end as u32).collect();
            assert_eq!(cols, &expect, "parts={parts} j={j}");
        }
    }
}

#[test]
fn single_row_single_entry() {
    let mut coo = Coo::new(1, 7);
    coo.push(0, 4, 2.5);
    let m = coo.to_csr();
    assert_eq!(m.col_support(7), reference_support(&m, 7));
    assert_eq!(m.col_support(7)[4], vec![4]);
}

#[test]
fn hub_heavy_rmat_like_skew_matches_reference() {
    // A crude RMAT-style skew: entry (r, c) with both indices biased
    // toward 0 by repeated halving, plus a hub row touching many columns.
    // Exercises the uneven per-part support sizes the nnz-balanced
    // schedule sees on real power-law graphs.
    let n = 64;
    let mut coo = Coo::new(n, n);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..400 {
        let mut r = 0usize;
        let mut c = 0usize;
        let mut half = n / 2;
        while half > 0 {
            if next() % 100 < 30 {
                r += half;
            }
            if next() % 100 < 30 {
                c += half;
            }
            half /= 2;
        }
        coo.push(r as u32, c as u32, 1.0);
    }
    for c in 0..n as u32 {
        if c % 3 != 0 {
            coo.push(0, c, 1.0);
        }
    }
    let reference_m = coo.to_csr();
    let m = coo.to_csr();
    for parts in [1usize, 2, 4, 8] {
        // Cached per `parts`: each count gets its own bucketing.
        assert_eq!(
            m.col_support(parts),
            reference_support(&reference_m, parts),
            "parts={parts}"
        );
    }
}
