//! The command-line surface `rdm-train` and `rdm-serve` share: dataset
//! selection, cluster and model size, replication factor and wire, fault
//! injection, kernel path and trace output — one parser, one validation,
//! one set of error strings, one `FaultPlan` recipe for both binaries.

use crate::comm::FaultPlan;
use crate::core::plan::check_replication;
use crate::dense::kernels::{self, Mode as KernelMode};
use crate::graph::dataset::load_edge_list;
use crate::graph::{paper_datasets, Dataset, DatasetSpec};
use crate::trace::RankTrace;

/// The flags both binaries accept, with their shared defaults.
pub struct CommonArgs {
    pub dataset: Option<String>,
    pub edge_list: Option<String>,
    pub synthetic: Option<(usize, usize)>,
    pub features: usize,
    pub classes: usize,
    pub scale: Option<usize>,
    pub chaos: Option<u64>,
    /// `None`: the default, 0.05.
    pub drop_rate: Option<f64>,
    pub trace: Option<String>,
    pub reference_kernels: bool,
    pub ranks: usize,
    pub layers: usize,
    pub hidden: usize,
    pub seed: u64,
    pub ra: Option<usize>,
    pub sparse: bool,
    pub quiet: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            dataset: None,
            edge_list: None,
            synthetic: None,
            features: 64,
            classes: 16,
            scale: None,
            chaos: None,
            drop_rate: None,
            trace: None,
            reference_kernels: false,
            ranks: 4,
            layers: 2,
            hidden: 128,
            seed: 42,
            ra: None,
            sparse: false,
            quiet: false,
        }
    }
}

impl CommonArgs {
    /// Consume `flag` if it is one of the shared flags, pulling its value
    /// from `value`. `Ok(false)` leaves the flag to the binary's own parser.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--dataset" => self.dataset = Some(value("--dataset")?),
            "--edge-list" => self.edge_list = Some(value("--edge-list")?),
            "--synthetic" => {
                let v = value("--synthetic")?;
                let (n, e) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--synthetic wants NxE, got {v}"))?;
                self.synthetic = Some((
                    n.parse().map_err(|e| format!("bad N: {e}"))?,
                    e.parse().map_err(|e| format!("bad E: {e}"))?,
                ));
            }
            "--features" => {
                self.features = value("--features")?.parse().map_err(|e| format!("{e}"))?
            }
            "--classes" => {
                self.classes = value("--classes")?.parse().map_err(|e| format!("{e}"))?
            }
            "--scale" => self.scale = Some(value("--scale")?.parse().map_err(|e| format!("{e}"))?),
            "--chaos" => self.chaos = Some(value("--chaos")?.parse().map_err(|e| format!("{e}"))?),
            "--drop-rate" => {
                let rate: f64 = value("--drop-rate")?.parse().map_err(|e| format!("{e}"))?;
                if !(0.0..1.0).contains(&rate) {
                    return Err(format!("--drop-rate must be in [0, 1), got {rate}"));
                }
                self.drop_rate = Some(rate);
            }
            "--trace" => self.trace = Some(value("--trace")?),
            "--reference-kernels" => self.reference_kernels = true,
            "--ranks" => self.ranks = value("--ranks")?.parse().map_err(|e| format!("{e}"))?,
            "--layers" => self.layers = value("--layers")?.parse().map_err(|e| format!("{e}"))?,
            "--hidden" => self.hidden = value("--hidden")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => self.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--ra" => self.ra = Some(value("--ra")?.parse().map_err(|e| format!("{e}"))?),
            "--sparse" => self.sparse = true,
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Reject flag values no run can execute, once all flags are parsed —
    /// the replication factor with the library's own check, so the message
    /// is the one `train_gcn` and `serve` would return.
    pub fn validate(&self) -> Result<(), String> {
        if self.features == 0 {
            return Err("--features must be at least 1".into());
        }
        if self.classes < 2 {
            return Err(format!(
                "--classes must be at least 2, got {}",
                self.classes
            ));
        }
        if self.scale == Some(0) {
            return Err("--scale must be at least 1".into());
        }
        if self.drop_rate.is_some() && self.chaos.is_none() {
            return Err("--drop-rate needs --chaos: without faults nothing is dropped".into());
        }
        self.ra.map_or(Ok(()), |r| check_replication(r, self.ranks))
    }

    /// Instantiate the dataset the data flags select.
    pub fn build_dataset(&self, seed: u64) -> Result<Dataset, String> {
        if let Some(path) = &self.edge_list {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            return load_edge_list(path, &text, self.features, self.classes, seed);
        }
        if let Some((n, e)) = self.synthetic {
            // The generators plant one community per class.
            let min = self.classes.max(2);
            if n < min {
                return Err(format!(
                    "--synthetic needs at least {min} vertices (one per class), got {n}"
                ));
            }
            return Ok(
                DatasetSpec::synthetic("synthetic", n, e, self.features, self.classes)
                    .instantiate(seed),
            );
        }
        if let Some(name) = &self.dataset {
            let wanted = name.to_lowercase().replace('_', "-");
            let spec = paper_datasets()
                .into_iter()
                .find(|s| s.name.to_lowercase() == wanted)
                .ok_or_else(|| {
                    format!(
                        "unknown dataset {name}; options: {}",
                        paper_datasets()
                            .iter()
                            .map(|s| s.name.to_lowercase())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            let scale = self.scale.unwrap_or((spec.edges / 100_000).max(1));
            return Ok(spec.scaled(scale).instantiate(seed));
        }
        Err("pick a dataset: --dataset, --synthetic or --edge-list (see --help)".into())
    }

    /// The fault plan `--chaos <seed>` asks for: seeded drops at
    /// `--drop-rate`, reordering delays and stragglers.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.chaos.map(|seed| {
            FaultPlan::new(seed)
                .drop_rate(self.drop_rate.unwrap_or(0.05))
                .delay(0.2, 3)
                .straggler(0.02, 20_000)
        })
    }

    /// The kernel path the flags select: the library default unless
    /// `--reference-kernels` asked for the scalar loops.
    pub fn kernel_mode(&self) -> KernelMode {
        if self.reference_kernels {
            KernelMode::Scalar
        } else {
            kernels::default_mode()
        }
    }

    /// The `kernels:` line both binaries always print.
    pub fn kernels_line(&self) -> String {
        match self.kernel_mode() {
            KernelMode::Scalar => "kernels: reference".to_string(),
            KernelMode::Fast(w) => {
                format!("kernels: fast W{} (bitwise = reference)", w.lanes())
            }
        }
    }

    /// Write `traces` as Chrome trace JSON to the `--trace` path, if one
    /// was given, and report it on stdout.
    pub fn write_trace(&self, traces: Option<&Vec<RankTrace>>) -> Result<(), String> {
        let Some(path) = &self.trace else {
            return Ok(());
        };
        let traces = traces.expect("traced run returns traces");
        let events: usize = traces.iter().map(|t| t.events.len()).sum();
        let json = crate::trace::chrome::to_chrome_json(traces, false);
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace: {events} events across {} ranks written to {path} \
             (chrome://tracing / Perfetto)",
            traces.len(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_flag_is_shared_and_fast_kernels_is_no_longer_one() {
        let mut no_value =
            |f: &str| -> Result<String, String> { Err(format!("{f} takes no value")) };
        let mut args = CommonArgs::default();
        assert_eq!(args.kernel_mode(), kernels::default_mode());
        assert!(args.kernels_line().starts_with("kernels: fast W"));
        assert!(args.kernels_line().ends_with("(bitwise = reference)"));
        // Left to the binaries' own parsers, which both reject it.
        assert_eq!(args.parse_flag("--fast-kernels", &mut no_value), Ok(false));
        assert_eq!(
            args.parse_flag("--reference-kernels", &mut no_value),
            Ok(true)
        );
        assert_eq!(args.kernel_mode(), KernelMode::Scalar);
        assert_eq!(args.kernels_line(), "kernels: reference");
    }

    #[test]
    fn replication_factor_is_validated_against_ranks() {
        let validate = |ra: &str| {
            let mut args = CommonArgs::default(); // --ranks 4
            args.parse_flag("--ra", &mut |_| Ok(ra.into())).unwrap();
            args.validate().err()
        };
        assert_eq!(validate("2"), None);
        for ra in ["0", "3"] {
            let expect = format!("replication factor {ra} must divide P = 4");
            assert_eq!(validate(ra), Some(expect));
        }
    }

    #[test]
    fn drop_rate_needs_chaos() {
        let mut args = CommonArgs::default();
        args.parse_flag("--drop-rate", &mut |_| Ok("0.2".into()))
            .unwrap();
        assert!(args.validate().unwrap_err().contains("--chaos"));
        args.parse_flag("--chaos", &mut |_| Ok("7".into())).unwrap();
        assert_eq!(args.validate(), Ok(()));
    }
}
