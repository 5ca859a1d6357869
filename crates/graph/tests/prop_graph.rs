//! Property-based tests for generators, partitioners and samplers.

use proptest::prelude::*;
use rdm_graph::dataset::{load_edge_list, Split};
use rdm_graph::{
    edge_cut, greedy_bfs_partition, random_partition, range_partition, rmat, sbm, symmetrize,
    DatasetSpec, SaintSampler,
};

/// The loader's bound on vertex ids at the 4-wide features of
/// `load_edge_list_never_panics`: `n · 4 ≤ 2^30` entries.
const ID_BOUND: u64 = 1 << 28;

/// One token of an edge-list line: an id that loads, one past the bound,
/// one past `u32`, or junk.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..48).prop_map(|v| v.to_string()),
        (ID_BOUND as u32..=u32::MAX).prop_map(|v| v.to_string()),
        (1u64 << 32..u64::MAX).prop_map(|v| v.to_string()),
        (-1000i64..0).prop_map(|v| v.to_string()),
        Just("9".repeat(40)),
        prop_oneof![
            Just("x"),
            Just("1.5"),
            Just("+3"),
            Just("0x10"),
            Just("é"),
            Just("#")
        ]
        .prop_map(String::from),
    ]
}

/// One line: blank, a comment, an edge, or up to four tokens.
fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("# a comment".to_string()),
        (0u32..48, 0u32..48).prop_map(|(u, v)| format!("{u} {v}")),
        proptest::collection::vec(token(), 0..5).prop_map(|t| t.join(" ")),
        proptest::collection::vec(token(), 2..3).prop_map(|t| format!("\t{}  ", t.join("\t"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generators respect their contract: requested edge count, in-range
    /// endpoints, no self loops.
    #[test]
    fn generators_produce_valid_edges(
        n in 4usize..200, m_mult in 1usize..8, seed in 0u64..500,
    ) {
        let m = n * m_mult;
        for edges in [rmat(n, m, seed), sbm(n, m, 4.min(n), 0.8, seed)] {
            prop_assert_eq!(edges.len(), m);
            for &(u, v) in &edges {
                prop_assert!((u as usize) < n && (v as usize) < n);
                prop_assert!(u != v);
            }
        }
    }

    /// Symmetrization always yields a valid, symmetric 0/1 matrix.
    #[test]
    fn symmetrize_always_symmetric(n in 4usize..100, m_mult in 1usize..6, seed in 0u64..500) {
        let adj = symmetrize(n, &rmat(n, n * m_mult, seed));
        prop_assert!(adj.validate().is_ok());
        prop_assert!(adj.is_symmetric());
        prop_assert!(adj.vals().iter().all(|&v| v == 1.0));
    }

    /// Every partitioner covers all vertices with balanced parts.
    #[test]
    fn partitions_are_balanced_covers(
        n in 8usize..200, p in 1usize..7, seed in 0u64..500,
    ) {
        let adj = symmetrize(n, &rmat(n, 6 * n, seed));
        for owner in [
            range_partition(n, p),
            random_partition(n, p, seed),
            greedy_bfs_partition(&adj, p, seed),
        ] {
            prop_assert_eq!(owner.len(), n);
            for r in 0..p {
                let cnt = owner.iter().filter(|&&o| o as usize == r).count();
                let expect = rdm_dense::part_range(n, p, r).len();
                prop_assert_eq!(cnt, expect);
            }
        }
    }

    /// The edge cut is symmetric-consistent: counting from either endpoint
    /// gives the same total (every undirected cut edge appears twice).
    #[test]
    fn edge_cut_is_even(n in 8usize..120, p in 2usize..6, seed in 0u64..500) {
        let adj = symmetrize(n, &rmat(n, 5 * n, seed));
        let owner = greedy_bfs_partition(&adj, p, seed);
        prop_assert_eq!(edge_cut(&adj, &owner) % 2, 0);
    }

    /// Samplers return sorted, distinct, in-range vertices, and induced
    /// subgraphs carry consistent attributes.
    #[test]
    fn samplers_yield_valid_subgraphs(
        n in 50usize..300, seed in 0u64..500, budget in 8usize..40,
    ) {
        let ds = DatasetSpec::synthetic("p", n, 8 * n, 8, 4).instantiate(seed);
        for sampler in [
            SaintSampler::Node { budget },
            SaintSampler::Edge { budget },
            SaintSampler::RandomWalk { roots: budget / 4 + 1, walk_len: 4 },
        ] {
            let sub = sampler.sample(&ds.adj, seed);
            prop_assert!(!sub.vertices.is_empty());
            prop_assert!(sub.vertices.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(sub.vertices.iter().all(|&v| (v as usize) < n));
            let sd = ds.induced(&sub.vertices);
            prop_assert!(sd.adj_norm.validate().is_ok());
            prop_assert_eq!(sd.features.rows(), sub.vertices.len());
            prop_assert_eq!(sd.labels.len(), sub.vertices.len());
        }
    }

    /// Dataset instantiation invariants: symmetric graph, normalized
    /// matrix with self loops, label range, split totals.
    #[test]
    fn dataset_invariants(n in 64usize..300, seed in 0u64..500) {
        let k = 5usize;
        let ds = DatasetSpec::synthetic("p", n, 6 * n, 12, k).instantiate(seed);
        prop_assert!(ds.adj.is_symmetric());
        prop_assert_eq!(ds.adj_norm.nnz(), ds.adj.nnz() + n);
        prop_assert!(ds.labels.iter().all(|&l| (l as usize) < k));
        let t = ds.split_indices(Split::Train).len()
            + ds.split_indices(Split::Val).len()
            + ds.split_indices(Split::Test).len();
        prop_assert_eq!(t, n);
        // Normalized weights are positive and at most 1 (each entry is
        // ã_ij/√(d_i d_j) with d ≥ 1); row *sums* can exceed 1 on skewed
        // graphs, so only the per-entry bound is asserted.
        prop_assert!(ds
            .adj_norm
            .vals()
            .iter()
            .all(|&v| v > 0.0 && v <= 1.0 + 1e-6));
    }

    /// Mean aggregation stores an exact transpose.
    #[test]
    fn mean_aggregation_transpose_consistency(n in 32usize..150, seed in 0u64..500) {
        let ds = DatasetSpec::synthetic("p", n, 5 * n, 8, 4)
            .instantiate(seed)
            .with_mean_aggregation();
        let t = ds.adj_norm_t.as_ref().unwrap();
        prop_assert_eq!(t, &ds.adj_norm.transpose());
        // Mean rows sum to exactly 1 (self loop guarantees nonzero degree).
        for r in 0..n {
            let s: f32 = ds.adj_norm.row(r).1.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text never panics the loader: it loads exactly when every
    /// data line starts with two in-range ids and there is one, and the
    /// vertex count is then the largest id plus one.
    #[test]
    fn load_edge_list_never_panics(
        lines in proptest::collection::vec(line(), 0..10),
        crlf in 0usize..2,
    ) {
        let text = lines.join(if crlf == 1 { "\r\n" } else { "\n" });
        let mut max_id = None;
        let mut loads = true;
        for l in text.lines().map(str::trim) {
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let mut ids = l.split_whitespace().map(|t| t.parse::<u32>().ok());
            match (ids.next().flatten(), ids.next().flatten()) {
                (Some(u), Some(v)) if u64::from(u.max(v)) < ID_BOUND => {
                    max_id = max_id.max(Some(u.max(v)));
                }
                _ => loads = false,
            }
        }
        match load_edge_list("fuzz", &text, 4, 3, 7) {
            Ok(ds) => {
                prop_assert!(loads);
                prop_assert_eq!(Some(ds.n()), max_id.map(|m| m as usize + 1));
            }
            Err(_) => prop_assert!(!loads || max_id.is_none()),
        }
    }
}
