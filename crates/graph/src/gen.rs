//! Synthetic edge generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdm_sparse::{Coo, Csr};

/// RMAT recursive-partition generator (Chakrabarti et al.): produces the
/// heavy-tailed degree distributions of web and social graphs. `n` is
/// rounded up internally to a power of two for recursion and edges outside
/// `0..n` are rejected. Self-loops and duplicates are allowed here and
/// coalesced by CSR conversion.
///
/// Probabilities follow the common (a, b, c, d) = (0.57, 0.19, 0.19, 0.05)
/// "Graph500" skew.
pub fn rmat(n: usize, edges: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(n >= 2, "rmat needs at least 2 vertices");
    let scale = (n as f64).log2().ceil() as u32;
    let side = 1usize << scale;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let (mut r0, mut c0, mut half) = (0usize, 0usize, side / 2);
        while half > 0 {
            let x: f64 = rng.gen();
            if x < a {
                // top-left: nothing to add
            } else if x < a + b {
                c0 += half;
            } else if x < a + b + c {
                r0 += half;
            } else {
                r0 += half;
                c0 += half;
            }
            half /= 2;
        }
        if r0 < n && c0 < n && r0 != c0 {
            out.push((r0 as u32, c0 as u32));
        }
    }
    out
}

/// Erdős–Rényi G(n, m): `m` uniformly random non-self-loop directed edges.
pub fn erdos_renyi(n: usize, edges: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let r = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        if r != c {
            out.push((r, c));
        }
    }
    out
}

/// Stochastic block model: vertices are assigned round-robin to
/// `communities` blocks; each generated edge is intra-community with
/// probability `p_intra`, otherwise uniform. Vertex `v`'s community is
/// `v % communities`, so callers can recover the planted labels without
/// extra state.
pub fn sbm(n: usize, edges: usize, communities: usize, p_intra: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!(n >= 2 && communities >= 1 && communities <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(edges);
    while out.len() < edges {
        let r = rng.gen_range(0..n as u32);
        let c = if rng.gen_bool(p_intra) {
            // Another vertex of the same community (round-robin layout).
            let size = (n - r as usize % communities).div_ceil(communities);
            let k = rng.gen_range(0..size as u32);
            r % communities as u32 + k * communities as u32
        } else {
            rng.gen_range(0..n as u32)
        };
        if r != c && (c as usize) < n {
            out.push((r, c));
        }
    }
    out
}

/// Build a symmetric unweighted CSR adjacency from a directed edge list:
/// every `(u, v)` contributes both `(u, v)` and `(v, u)` with weight 1;
/// duplicates coalesce (summed weights are then clamped back to 1 so the
/// result is a 0/1 adjacency).
pub fn symmetrize(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut coo = Coo::new(n, n);
    for &(u, v) in edges {
        coo.push(u, v, 1.0);
        coo.push(v, u, 1.0);
    }
    let mut csr = coo.to_csr();
    for v in csr.vals_mut() {
        *v = 1.0;
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_produces_requested_edges_in_range() {
        let edges = rmat(100, 500, 1);
        assert_eq!(edges.len(), 500);
        assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < 100 && (v as usize) < 100 && u != v));
    }

    #[test]
    fn rmat_is_deterministic() {
        assert_eq!(rmat(64, 200, 7), rmat(64, 200, 7));
        assert_ne!(rmat(64, 200, 7), rmat(64, 200, 8));
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        // Power-law-ish: the max degree should far exceed the mean.
        let n = 1024;
        let edges = rmat(n, 16 * n, 3);
        let adj = symmetrize(n, &edges);
        let degs = adj.row_degrees();
        let mean = degs.iter().sum::<usize>() as f64 / n as f64;
        let max = *degs.iter().max().unwrap() as f64;
        assert!(
            max > 5.0 * mean,
            "max degree {max} not much above mean {mean}"
        );
    }

    #[test]
    fn balanced_panels_beat_uniform_chunking_on_rmat() {
        // Graph500-skewed RMAT: a handful of hub vertices own most edges.
        // The makespan (max per-task nnz) is what parallel SpMM time tracks.
        let n = 1 << 12;
        let a = rdm_sparse::gcn_normalize(&symmetrize(n, &rmat(n, 16 * n, 7)));
        let tasks = 32;
        let chunk = n / tasks;
        let uniform = (0..tasks)
            .map(|t| a.indptr()[(t + 1) * chunk] - a.indptr()[t * chunk])
            .max()
            .unwrap() as f64;
        let balanced = rdm_sparse::balanced_panels(a.indptr(), tasks)
            .windows(2)
            .map(|w| a.indptr()[w[1]] - a.indptr()[w[0]])
            .max()
            .unwrap() as f64;
        let mean = a.nnz() as f64 / tasks as f64;
        assert!(
            balanced < 0.8 * uniform,
            "nnz-balanced makespan {balanced} must clearly beat uniform chunking's {uniform}"
        );
        assert!(
            balanced < 1.5 * mean,
            "balanced makespan {balanced} should be near the per-task mean {mean:.0}"
        );
    }

    #[test]
    fn erdos_renyi_is_not_skewed() {
        let n = 1024;
        let edges = erdos_renyi(n, 16 * n, 3);
        let adj = symmetrize(n, &edges);
        let degs = adj.row_degrees();
        let mean = degs.iter().sum::<usize>() as f64 / n as f64;
        let max = *degs.iter().max().unwrap() as f64;
        assert!(max < 3.0 * mean, "ER max degree {max} vs mean {mean}");
    }

    #[test]
    fn sbm_favors_intra_community_edges() {
        let n = 600;
        let k = 3;
        let edges = sbm(n, 6000, k, 0.9, 5);
        let intra = edges
            .iter()
            .filter(|&&(u, v)| u % k as u32 == v % k as u32)
            .count();
        assert!(
            intra as f64 / edges.len() as f64 > 0.8,
            "only {intra}/{} intra-community",
            edges.len()
        );
    }

    #[test]
    fn symmetrize_yields_symmetric_01_matrix() {
        let edges = rmat(50, 300, 11);
        let adj = symmetrize(50, &edges);
        adj.validate().unwrap();
        assert!(adj.is_symmetric());
        assert!(adj.vals().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn symmetrize_nnz_at_most_twice_edges() {
        let edges = erdos_renyi(40, 100, 2);
        let adj = symmetrize(40, &edges);
        assert!(adj.nnz() <= 200);
        assert!(adj.nnz() >= 100); // at least the forward directions, deduped
    }
}
