//! Dataset specifications (Table V) and materialized datasets.

use crate::gen::{rmat, sbm, symmetrize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdm_dense::Mat;
use rdm_model::GnnShape;
use rdm_sparse::{gcn_normalize, gcn_normalize_induced, Coo, Csr, InduceScratch};

/// Shape parameters of one evaluation dataset — the columns of Table V.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    pub name: String,
    pub vertices: usize,
    /// Directed edge count before symmetrization (the paper's "Edges").
    pub edges: usize,
    pub feature_size: usize,
    pub labels: usize,
    /// Whether the original dataset ships labels/splits usable for
    /// accuracy experiments (Web-Google and Com-Orkut do not — the paper
    /// uses random features/labels for those and excludes them from
    /// Fig. 13).
    pub has_labels: bool,
    /// Strength of the class indicator planted in the input features,
    /// relative to U(-0.5, 0.5) noise. At the default (1.5) classes are
    /// largely feature-identifiable (like citation/co-purchase data with
    /// strong bag-of-words features); small values (≲0.3) make the graph
    /// structure essential, emulating datasets — like the paper's
    /// metagenomics reads — where subsampling the graph costs accuracy.
    pub feature_signal: f32,
}

impl DatasetSpec {
    /// A free-form synthetic spec.
    pub fn synthetic(
        name: &str,
        vertices: usize,
        edges: usize,
        feature_size: usize,
        labels: usize,
    ) -> Self {
        DatasetSpec {
            name: name.to_string(),
            vertices,
            edges,
            feature_size,
            labels,
            has_labels: true,
            feature_signal: 1.5,
        }
    }

    /// Same spec with a different planted feature-signal strength.
    pub fn with_feature_signal(mut self, signal: f32) -> Self {
        self.feature_signal = signal;
        self
    }

    /// Scale vertex and edge counts down by `factor` (≥ 1), keeping feature
    /// and label widths — the communication/compute *ratios* the cost model
    /// cares about are preserved because both N and nnz shrink together.
    pub fn scaled(&self, factor: usize) -> DatasetSpec {
        assert!(factor >= 1);
        DatasetSpec {
            name: self.name.clone(),
            vertices: (self.vertices / factor).max(64),
            edges: (self.edges / factor).max(256),
            ..self.clone()
        }
    }

    /// The model-facing shape of a GCN over this dataset.
    ///
    /// `nnz` is estimated as symmetrized edges plus self-loops, matching
    /// what [`DatasetSpec::instantiate`] materializes (up to duplicate
    /// collisions).
    pub fn shape_with(&self, hidden: usize, layers: usize) -> GnnShape {
        GnnShape::gcn(
            self.vertices,
            2 * self.edges + self.vertices,
            self.feature_size,
            hidden,
            self.labels,
            layers,
        )
    }

    /// Materialize a dataset: generate the graph (half RMAT for degree
    /// skew, half planted-community for learnability), then attach the
    /// per-vertex data: labels equal to the planted community, features
    /// correlated with it, and a 60/20/20 train/val/test split.
    ///
    /// # Panics
    /// If the spec has fewer than 2 vertices, more label classes than
    /// vertices, or no feature columns.
    pub fn instantiate(&self, seed: u64) -> Dataset {
        let n = self.vertices;
        let half = self.edges / 2;
        let mut edge_list = rmat(n, half, seed);
        edge_list.extend(sbm(
            n,
            self.edges - half,
            self.classes(),
            0.85,
            seed ^ 0x5bd1_e995,
        ));
        self.on_graph(symmetrize(n, &edge_list), seed)
    }

    /// Planted communities: the label count, at least two.
    fn classes(&self) -> usize {
        self.labels.max(2)
    }

    /// A dataset over the raw symmetric adjacency `adj`, with this spec's
    /// per-vertex data: labels equal to the planted community (`v % k`),
    /// features correlated with it, and a 60/20/20 train/val/test split.
    /// Features and split draw from seeds of their own, so they depend on
    /// `seed` and the vertex count only — never on the graph.
    fn on_graph(&self, adj: Csr, seed: u64) -> Dataset {
        let n = adj.rows();
        let k = self.classes();
        // Labels: the planted community (v % k), exactly what the SBM half
        // of [`DatasetSpec::instantiate`]'s edges encodes.
        let labels: Vec<u32> = (0..n as u32).map(|v| v % k as u32).collect();

        // Features: a noisy community indicator so the task is learnable
        // but not trivially so (indicator occupies dims [0, k) mod width).
        let f = self.feature_size;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut features = Mat::zeros(n, f);
        for v in 0..n {
            let row = features.row_mut(v);
            for x in row.iter_mut() {
                *x = rng.gen_range(-0.5..0.5);
            }
            row[labels[v] as usize % f] += self.feature_signal;
        }

        // 60/20/20 split.
        let mut split_rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut split = vec![Split::Train; n];
        for s in split.iter_mut() {
            let x: f64 = split_rng.gen();
            *s = if x < 0.6 {
                Split::Train
            } else if x < 0.8 {
                Split::Val
            } else {
                Split::Test
            };
        }

        Dataset {
            spec: self.clone(),
            adj_norm: gcn_normalize(&adj),
            adj,
            adj_norm_t: None,
            features,
            labels,
            split,
        }
    }
}

/// Which split a vertex belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    Train,
    Val,
    Test,
}

/// A materialized dataset: graph, features, labels, splits.
#[derive(Clone, Debug)]
pub struct Dataset {
    pub spec: DatasetSpec,
    /// Raw symmetric 0/1 adjacency.
    pub adj: Csr,
    /// Normalized aggregation matrix — the matrix all trainers multiply
    /// by. Symmetric (`D̃^{-1/2}(A+I)D̃^{-1/2}`) by default; row-normalized
    /// after [`Dataset::with_mean_aggregation`].
    pub adj_norm: Csr,
    /// Transpose of `adj_norm` when it is not symmetric (mean
    /// aggregation); `None` for the symmetric GCN normalization.
    pub adj_norm_t: Option<Csr>,
    /// `N × f_in` input features.
    pub features: Mat,
    /// Class id per vertex.
    pub labels: Vec<u32>,
    pub split: Vec<Split>,
}

impl Dataset {
    /// Vertices.
    pub fn n(&self) -> usize {
        self.adj.rows()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.labels
    }

    /// Model shape with explicit layer count, using the *materialized* nnz.
    pub fn shape_layers(&self, hidden: usize, layers: usize) -> GnnShape {
        GnnShape::gcn(
            self.n(),
            self.adj_norm.nnz(),
            self.spec.feature_size,
            hidden,
            self.spec.labels,
            layers,
        )
    }

    /// Indices of vertices in a split.
    pub fn split_indices(&self, which: Split) -> Vec<usize> {
        self.split
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (s == which).then_some(i))
            .collect()
    }

    /// Restrict to an induced subgraph on `keep` (GraphSAINT). Features,
    /// labels and splits are relabelled; the normalized adjacency is
    /// re-normalized on the subgraph as GraphSAINT does. The same bits as
    /// [`Dataset::induced_into`], plus the raw induced adjacency, in a
    /// dataset of its own.
    pub fn induced(&self, keep: &[u32]) -> Dataset {
        let mut batch = InducedBatch::default();
        self.induced_into(keep, &mut batch);
        let adj = self.adj.induced(keep);
        Dataset {
            spec: DatasetSpec {
                name: format!("{}-sub", self.spec.name),
                vertices: keep.len(),
                edges: adj.nnz() / 2,
                ..self.spec.clone()
            },
            adj,
            adj_norm: batch.adj_norm,
            adj_norm_t: None,
            features: batch.features,
            labels: batch.labels,
            split: batch.split,
        }
    }

    /// The subgraph induced on `keep`, into `out`'s reused buffers: the
    /// GCN-normalised adjacency (one fused pass,
    /// [`rdm_sparse::gcn_normalize_induced`]) and the relabelled features,
    /// labels and split. Allocates nothing once `out` has held the
    /// subgraph of a superset of `keep`'s vertices, in any order.
    ///
    /// # Panics
    /// If `keep` contains an out-of-range or duplicate vertex.
    pub fn induced_into(&self, keep: &[u32], out: &mut InducedBatch) {
        gcn_normalize_induced(&self.adj, keep, &mut out.scratch, &mut out.adj_norm);
        self.features.gather_rows_into(keep, &mut out.features);
        out.labels.clear();
        out.labels
            .extend(keep.iter().map(|&v| self.labels[v as usize]));
        out.split.clear();
        out.split
            .extend(keep.iter().map(|&v| self.split[v as usize]));
    }

    /// Switch to GraphSAGE-style mean aggregation (`D̃^{-1}(A+I)`): the
    /// aggregation matrix becomes non-symmetric, so its transpose is
    /// stored alongside for the backward pass. Supported by the RDM
    /// trainer (the broadcast/halo baselines assume symmetry).
    pub fn with_mean_aggregation(mut self) -> Dataset {
        let m = rdm_sparse::mean_normalize(&self.adj);
        self.adj_norm_t = Some(m.transpose());
        self.adj_norm = m;
        self
    }

    /// Switch to self-loop-free row aggregation (`D^{-1}A`): mean
    /// aggregation without the added self-loops, so isolated vertices
    /// aggregate nothing and their intermediate rows stay exactly zero.
    /// Those all-zero rows are what the sparsity-aware redistribution
    /// path compresses away on the wire. Non-symmetric (RDM-only), like
    /// [`Dataset::with_mean_aggregation`].
    pub fn with_row_aggregation(mut self) -> Dataset {
        let m = rdm_sparse::row_normalize(&self.adj);
        self.adj_norm_t = Some(m.transpose());
        self.adj_norm = m;
        self
    }
}

/// One induced minibatch in buffers that outlive it — what
/// [`Dataset::induced_into`] fills. A serving rank or a sampling trainer
/// keeps one for its whole session, so inducing a batch costs no
/// allocation in steady state.
#[derive(Debug)]
pub struct InducedBatch {
    /// `D̃^{-1/2}(A[keep, keep] + I)D̃^{-1/2}`.
    pub adj_norm: Csr,
    /// `keep.len() × f` input features (pool-backed).
    pub features: Mat,
    /// Class id per kept vertex.
    pub labels: Vec<u32>,
    pub split: Vec<Split>,
    scratch: InduceScratch,
}

impl Default for InducedBatch {
    fn default() -> Self {
        InducedBatch {
            adj_norm: Csr::empty(0, 0),
            features: Mat::from_vec(0, 0, Vec::new()),
            labels: Vec::new(),
            split: Vec::new(),
            scratch: InduceScratch::default(),
        }
    }
}

impl InducedBatch {
    /// Vertices of the batch's subgraph.
    pub fn n(&self) -> usize {
        self.adj_norm.rows()
    }
}

/// The eight evaluation datasets of Table V, at full paper scale.
pub fn paper_datasets() -> Vec<DatasetSpec> {
    let row = |name: &str, vertices, edges, feature_size, labels, has_labels, signal| DatasetSpec {
        name: name.to_string(),
        vertices,
        edges,
        feature_size,
        labels,
        has_labels,
        feature_signal: signal,
    };
    // The metagenomics datasets carry tetra-nucleotide frequencies as
    // features — weakly class-informative on their own, which is why the
    // paper finds full-batch training essential there (§V-C). They get a
    // low planted signal; the OGB/Reddit text-derived features a high one.
    vec![
        row("OGB-Arxiv", 169_343, 1_166_243, 128, 40, true, 1.5),
        row("OGB-MAG", 1_939_743, 21_111_007, 128, 349, true, 1.5),
        row("OGB-Products", 2_449_029, 61_859_140, 100, 47, true, 1.5),
        row("Reddit", 232_965, 114_848_857, 602, 41, true, 1.5),
        row("Web-Google", 875_713, 5_105_039, 256, 100, false, 1.5),
        row("Com-Orkut", 3_072_441, 117_185_083, 128, 100, false, 1.5),
        row("CAMI-Airways", 1_000_000, 22_901_745, 256, 25, true, 0.25),
        row("CAMI-Oral", 1_000_000, 20_734_972, 256, 32, true, 0.25),
    ]
}

/// The most feature entries (4 GiB of `f32`) an edge list may imply; every
/// Table V dataset fits.
const MAX_FEATURE_ENTRIES: usize = 1 << 30;

/// Load a dataset from a whitespace-separated edge list (`u v` per line,
/// 0-based), with the features, labels and split
/// [`DatasetSpec::instantiate`] generates for as many vertices. Lines
/// starting with `#` are skipped; an id whose feature matrix would exceed
/// 2^30 entries (4 GiB of `f32`) is an error naming its line.
pub fn load_edge_list(
    name: &str,
    text: &str,
    feature_size: usize,
    labels: usize,
    seed: u64,
) -> Result<Dataset, String> {
    let mut edges = Vec::new();
    let mut max_v = 0u32;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or_else(|| format!("line {}: missing source", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let v: u32 = it
            .next()
            .ok_or_else(|| format!("line {}: missing target", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        // The vertex count `max id + 1` sizes the feature matrix: bound it
        // before anything is allocated.
        let n = u.max(v) as usize + 1;
        if n.saturating_mul(feature_size.max(1)) > MAX_FEATURE_ENTRIES {
            return Err(format!(
                "line {}: vertex id {} is out of range: {n} vertices of {feature_size} \
                 features exceed the loader's 2^30 feature entries",
                lineno + 1,
                u.max(v)
            ));
        }
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }
    if edges.is_empty() {
        return Err("edge list is empty".into());
    }
    let n = max_v as usize + 1;
    let spec = DatasetSpec::synthetic(name, n, edges.len(), feature_size, labels);
    Ok(spec.on_graph(symmetrize(n, &edges), seed))
}

/// A tiny deterministic dataset for doctests and unit tests.
pub fn toy(n: usize, seed: u64) -> Dataset {
    DatasetSpec::synthetic("toy", n, 8 * n, 16, 4).instantiate(seed)
}

#[allow(dead_code)]
fn _assert_coo_reachable() {
    // Keep the import list honest if Coo stops being needed.
    let _ = Coo::new(1, 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_datasets_match_table5() {
        let ds = paper_datasets();
        assert_eq!(ds.len(), 8);
        let reddit = ds.iter().find(|d| d.name == "Reddit").unwrap();
        assert_eq!(reddit.vertices, 232_965);
        assert_eq!(reddit.edges, 114_848_857);
        assert_eq!(reddit.feature_size, 602);
        assert_eq!(reddit.labels, 41);
        assert!(
            !ds.iter()
                .find(|d| d.name == "Com-Orkut")
                .unwrap()
                .has_labels
        );
    }

    #[test]
    fn instantiate_produces_consistent_dataset() {
        let d = DatasetSpec::synthetic("t", 200, 1500, 32, 5).instantiate(1);
        assert_eq!(d.n(), 200);
        assert_eq!(d.features.shape(), (200, 32));
        assert_eq!(d.labels.len(), 200);
        assert!(d.labels.iter().all(|&l| l < 5));
        d.adj.validate().unwrap();
        d.adj_norm.validate().unwrap();
        assert!(d.adj.is_symmetric());
        // Normalized matrix has self-loops: nnz grows by n.
        assert_eq!(d.adj_norm.nnz(), d.adj.nnz() + 200);
    }

    #[test]
    fn instantiate_is_deterministic() {
        let a = DatasetSpec::synthetic("t", 100, 800, 16, 4).instantiate(9);
        let b = DatasetSpec::synthetic("t", 100, 800, 16, 4).instantiate(9);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn splits_cover_all_vertices_roughly_60_20_20() {
        let d = DatasetSpec::synthetic("t", 2000, 10_000, 8, 4).instantiate(2);
        let tr = d.split_indices(Split::Train).len();
        let va = d.split_indices(Split::Val).len();
        let te = d.split_indices(Split::Test).len();
        assert_eq!(tr + va + te, 2000);
        assert!((tr as f64 / 2000.0 - 0.6).abs() < 0.05);
        assert!((va as f64 / 2000.0 - 0.2).abs() < 0.05);
    }

    #[test]
    fn scaled_preserves_widths() {
        let full = &paper_datasets()[3]; // Reddit
        let s = full.scaled(100);
        assert_eq!(s.feature_size, 602);
        assert_eq!(s.labels, 41);
        assert_eq!(s.vertices, 2329);
        assert!(s.edges >= 256);
    }

    #[test]
    fn shape_matches_materialization() {
        let spec = DatasetSpec::synthetic("t", 300, 2000, 24, 6);
        let d = spec.instantiate(3);
        let sh = d.shape_layers(128, 2);
        assert_eq!(sh.n, 300);
        assert_eq!(sh.nnz, d.adj_norm.nnz());
        assert_eq!(sh.feats, vec![24, 128, 6]);
        // The a-priori estimate is an upper bound (duplicates collide).
        assert!(spec.shape_with(128, 2).nnz >= sh.nnz);
    }

    #[test]
    fn induced_keeps_attributes_aligned() {
        let d = toy(100, 4);
        let keep: Vec<u32> = (0..50).map(|i| i * 2).collect();
        let sub = d.induced(&keep);
        assert_eq!(sub.n(), 50);
        for (new, &old) in keep.iter().enumerate() {
            assert_eq!(sub.labels[new], d.labels[old as usize]);
            assert_eq!(sub.features.row(new), d.features.row(old as usize));
        }
        sub.adj_norm.validate().unwrap();
    }

    #[test]
    fn load_edge_list_parses_and_errors() {
        let text = "# comment\n0 1\n1 2\n2 0\n";
        let d = load_edge_list("tri", text, 8, 3, 1).unwrap();
        assert_eq!(d.n(), 3);
        assert_eq!(d.adj.nnz(), 6);
        assert!(load_edge_list("bad", "0\n", 8, 3, 1).is_err());
        assert!(load_edge_list("empty", "# nothing\n", 8, 3, 1).is_err());
        let err = load_edge_list("huge", "0 1\n1 4294967295\n", 8, 3, 1).unwrap_err();
        assert!(err.starts_with("line 2: vertex id 4294967295"), "{err}");
        // Ids below u32::MAX are bounded by the feature matrix they imply.
        let err = load_edge_list("near", "0 1\n1 4294967294\n", 8, 3, 1).unwrap_err();
        assert!(err.starts_with("line 2: vertex id 4294967294"), "{err}");
        let err = load_edge_list("wide", "0 134217728\n", 8, 3, 1).unwrap_err();
        assert!(err.starts_with("line 1: vertex id 134217728"), "{err}");
    }

    #[test]
    fn edge_lists_get_the_per_vertex_data_of_instantiate() {
        // Two vertices is below what the generators accept, not the loader.
        let pair = load_edge_list("pair", "0 1\n", 8, 16, 5).unwrap();
        assert_eq!((pair.n(), pair.adj.nnz()), (2, 2));
        let spec = DatasetSpec::synthetic("t", 40, 200, 8, 3);
        let generated = spec.instantiate(5);
        let loaded = load_edge_list("t", "0 39\n", 8, 3, 5).unwrap();
        assert_eq!(loaded.features, generated.features);
        assert_eq!(loaded.labels, generated.labels);
        assert_eq!(loaded.split, generated.split);
    }

    #[test]
    fn feature_signal_knob_controls_identifiability() {
        let strong = DatasetSpec::synthetic("s", 400, 3000, 16, 4).instantiate(9);
        let weak = DatasetSpec::synthetic("s", 400, 3000, 16, 4)
            .with_feature_signal(0.1)
            .instantiate(9);
        let hit_rate = |d: &Dataset| {
            let mut hits = 0;
            for v in 0..d.n() {
                let row = d.features.row(v);
                let argmax = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                if argmax == d.labels[v] as usize % 16 {
                    hits += 1;
                }
            }
            hits as f64 / d.n() as f64
        };
        assert!(hit_rate(&strong) > 0.8);
        assert!(
            hit_rate(&weak) < 0.4,
            "weak signal should not be identifiable"
        );
        // Structure is unchanged: same graph either way.
        assert_eq!(strong.adj, weak.adj);
    }

    #[test]
    fn features_correlate_with_labels() {
        // The indicator bump makes the labeled dimension the max on
        // average — sanity that Fig 13's task is learnable.
        let d = toy(500, 6);
        let mut hits = 0;
        for v in 0..500 {
            let row = d.features.row(v);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            if argmax == d.labels[v] as usize % 16 {
                hits += 1;
            }
        }
        assert!(hits > 400, "only {hits}/500 features match label");
    }
}
