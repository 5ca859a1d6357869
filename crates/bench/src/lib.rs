//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §5 for the index). This library holds what they
//! share: dataset scaling, the algorithm grid, and report formatting.
//!
//! ## Scaling
//!
//! The paper's datasets reach 117 M edges; executing them on CPU threads
//! would take hours per figure. Each dataset is scaled down by
//! [`scale_factor`] (vertices and edges divided equally, feature/label
//! widths untouched), which preserves every ratio the cost model prices.
//! Set `RDM_SCALE=<n>` to override the default divisor — `RDM_SCALE=1`
//! runs the full Table V sizes if you have the patience.

use rdm_core::{train_gcn, TrainReport, TrainerConfig};
use rdm_graph::{paper_datasets, Dataset, DatasetSpec};

/// Default divisor applied to each dataset so a full experiment grid runs
/// in minutes. Chosen per dataset so the scaled edge count lands near
/// 60–150 k.
pub fn default_scale(spec: &DatasetSpec) -> usize {
    (spec.edges / 80_000).max(1)
}

/// The divisor actually used: `RDM_SCALE` env override, else the default.
pub fn scale_factor(spec: &DatasetSpec) -> usize {
    match std::env::var("RDM_SCALE") {
        Ok(v) => v.parse().unwrap_or_else(|_| default_scale(spec)).max(1),
        Err(_) => default_scale(spec),
    }
}

/// Scale a spec for execution while keeping the regime the paper operates
/// in: vertices are floored at 3000 so `N ≫ f` still holds (otherwise the
/// weight matrices dwarf the activations and every ratio inverts), and the
/// average degree is capped at 48 so the densest graphs (Reddit's true
/// mean degree is ~985) stay executable on CPU threads. Communication
/// ratios depend on `N·f` only, so they are unaffected; the SpMM/GEMM
/// balance shifts for the capped graphs and is reported as such in
/// EXPERIMENTS.md.
pub fn scaled_spec(spec: &DatasetSpec) -> DatasetSpec {
    let s = scale_factor(spec);
    if s == 1 {
        return spec.clone();
    }
    let n = (spec.vertices / s).max(3000).min(spec.vertices);
    let e = (spec.edges / s).clamp(4 * n, 48 * n);
    DatasetSpec {
        vertices: n,
        edges: e,
        ..spec.clone()
    }
}

/// Materialize every paper dataset at its scaled size (deterministic).
pub fn scaled_datasets() -> Vec<Dataset> {
    paper_datasets()
        .iter()
        .map(|spec| scaled_spec(spec).instantiate(7_777))
        .collect()
}

/// Materialize one paper dataset by name at its scaled size.
pub fn scaled_dataset(name: &str) -> Option<Dataset> {
    paper_datasets()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .map(|spec| scaled_spec(spec).instantiate(7_777))
}

/// How many epochs the throughput experiments run per configuration.
/// The paper uses 100; the simulated-time metric is stable after a few.
pub fn bench_epochs() -> usize {
    std::env::var("RDM_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// The three systems Figs. 8–11 compare, configured per the paper
/// (CAGNET 1.5D is "the algorithm with the best throughput" per §V-B).
pub fn throughput_trio(p: usize, layers: usize, hidden: usize) -> Vec<TrainerConfig> {
    vec![
        TrainerConfig::rdm_auto(p)
            .layers(layers)
            .hidden(hidden)
            .epochs(bench_epochs()),
        TrainerConfig::cagnet(p)
            .layers(layers)
            .hidden(hidden)
            .epochs(bench_epochs()),
        TrainerConfig::dgcl(p)
            .layers(layers)
            .hidden(hidden)
            .epochs(bench_epochs()),
    ]
}

/// Run one config, panicking with context on configuration errors (the
/// harness always builds valid configs).
pub fn run(ds: &Dataset, cfg: &TrainerConfig) -> TrainReport {
    train_gcn(ds, cfg).unwrap_or_else(|e| panic!("{} on {}: {e}", cfg.algo.label(), ds.spec.name))
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Simple fixed-width table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    pub fn new(widths: &[usize]) -> Self {
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{:<w$} ", c, w = w));
        }
        println!("{}", line.trim_end());
    }

    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 1).sum();
        println!("{}", "-".repeat(total));
    }
}

/// `P` values exercised by the throughput figures.
pub const GPU_COUNTS: [usize; 3] = [2, 4, 8];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_datasets_stay_small() {
        for ds in scaled_datasets() {
            assert!(ds.adj.nnz() < 600_000, "{} too large", ds.spec.name);
            assert!(ds.n() >= 64);
        }
    }

    #[test]
    fn scaled_dataset_lookup() {
        assert!(scaled_dataset("reddit").is_some());
        assert!(scaled_dataset("nope").is_none());
    }
}
