//! `rdm-train` — command-line distributed GCN training.
//!
//! ```text
//! rdm-train --dataset reddit --algo rdm --ranks 8 --epochs 20
//! rdm-train --synthetic 10000x80000 --features 64 --classes 16 --algo cagnet15d:2
//! rdm-train --edge-list graph.txt --algo dgcl --ranks 4
//! ```
//!
//! Algorithms: `rdm` (the Pareto candidate whose priced epoch is fastest —
//! §IV-B), `rdm:<id>` (explicit Table-IV ordering), `cagnet1d`,
//! `cagnet15d:<c>`, `dgcl`, `saint-rdm`, `saint-ddp`, `masked:<keep>`.

use gnn_rdm::cli::CommonArgs;
use gnn_rdm::core::{train_gcn, Algo, Plan, TrainerConfig};
use gnn_rdm::graph::{Dataset, SaintSampler};
use std::process::ExitCode;

struct Args {
    common: CommonArgs,
    algo: String,
    lr: f32,
    epochs: usize,
    save_weights: Option<String>,
    overlap: Option<usize>,
    agg: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            common: CommonArgs::default(),
            algo: "rdm".into(),
            lr: 0.01,
            epochs: 10,
            save_weights: None,
            overlap: None,
            agg: "gcn".into(),
        }
    }
}

const USAGE: &str = "\
rdm-train — distributed GCN training with GNN-RDM and baselines

USAGE:
  rdm-train [--dataset <name> | --synthetic <NxE> | --edge-list <path>] [options]

DATA:
  --dataset <name>      one of the paper's datasets (ogb-arxiv, ogb-mag,
                        ogb-products, reddit, web-google, com-orkut,
                        cami-airways, cami-oral), synthesized at --scale
  --synthetic <NxE>     synthetic graph with N vertices, E edges
  --edge-list <path>    whitespace edge list, 0-based vertex ids
  --features <f>        input feature width for synthetic/edge-list [64]
  --classes <c>         label count for synthetic/edge-list [16]
  --scale <s>           divide a paper dataset's size by s [auto]

MODEL / TRAINING:
  --algo <a>            rdm | rdm:<id> | cagnet1d | cagnet15d:<c> | dgcl |
                        saint-rdm | saint-ddp | masked:<keep>   [rdm]
                        rdm picks the Pareto candidate whose priced epoch
                        (FMAs, bytes, messages; slowest rank) is fastest
  --ranks <p>           simulated GPUs [4]
  --layers <l>          GCN layers [2]
  --hidden <h>          hidden width [128]
  --ra <r>              adjacency replication factor (rdm only) [P]. r must
                        divide P (the trainer rejects any other value). With
                        auto ordering, candidates are priced at r_a = r —
                        group redistributions shrink to (r-1)/r while dense
                        panel broadcasts appear, so the chosen Table-IV id
                        can differ from the full-replication pick. With
                        --sparse, sparsity re-prices redistribution volume
                        only; broadcasts and op counts are unchanged
  --overlap <c>         pipeline redistributions into c chunks overlapped
                        with compute (rdm only); results are bit-identical
                        to blocking, hidden comm time is reported. Below 2
                        chunks the run executes blocking and says so
  --sparse              sparsity-aware redistribution (rdm only): all-zero
                        rows ride an indexed-strip wire format; results are
                        bit-identical to dense, actual vs dense-equivalent
                        volume is reported
  --reference-kernels   run GEMM/SpMM on the scalar reference loops, not the
                        default lane-unrolled microkernels; same bits,
                        slower (the differential suites' oracle)
  --agg <kind>          aggregation matrix: gcn (symmetric D̃^-½(A+I)D̃^-½),
                        mean (D̃^-1(A+I)), row (self-loop-free D^-1 A;
                        isolated vertices stay zero — what --sparse
                        compresses)                              [gcn]
  --lr <x>              learning rate [0.01]
  --epochs <n>          epochs [10]
  --seed <s>            RNG seed [42]
  --save-weights <path> write the final trained weights as a snapshot file
                        that rdm-serve --weights can load
  --trace <out.json>    record per-rank structured traces and write them as
                        Chrome trace JSON (load in chrome://tracing or
                        Perfetto); results are bit-identical to untraced
  --quiet               summary only

CHAOS:
  --chaos <seed>        train on a faulty fabric (seeded drops, reordering
                        and stragglers); losses are bit-identical to the
                        fault-free run, retransmissions are reported
  --drop-rate <r>       per-attempt drop probability; needs --chaos [0.05]
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        if args.common.parse_flag(&flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--algo" => args.algo = value("--algo")?,
            "--save-weights" => args.save_weights = Some(value("--save-weights")?),
            "--overlap" => {
                args.overlap = Some(value("--overlap")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--agg" => {
                let v = value("--agg")?;
                if !["gcn", "mean", "row"].contains(&v.as_str()) {
                    return Err(format!("--agg wants gcn, mean or row, got {v}"));
                }
                args.agg = v;
            }
            "--lr" => args.lr = value("--lr")?.parse().map_err(|e| format!("{e}"))?,
            "--epochs" => args.epochs = value("--epochs")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    args.common.validate()?;
    Ok(args)
}

fn build_dataset(args: &Args) -> Result<Dataset, String> {
    let ds = args.common.build_dataset(args.common.seed)?;
    Ok(match args.agg.as_str() {
        "mean" => ds.with_mean_aggregation(),
        "row" => ds.with_row_aggregation(),
        _ => ds,
    })
}

fn build_algo(args: &Args) -> Result<Algo, String> {
    let (name, param) = match args.algo.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (args.algo.as_str(), None),
    };
    let common = &args.common;
    let sampler = SaintSampler::Node {
        budget: 256.max(common.hidden),
    };
    Ok(match name {
        "rdm" => match param {
            // Auto ordering; --ra joins the pricing inside the trainer.
            None => Algo::Rdm { plan: None },
            Some(id) => {
                let id: usize = id.parse().map_err(|e| format!("bad plan id: {e}"))?;
                if id >= 1 << (2 * common.layers) {
                    return Err(format!(
                        "plan id {id} out of range for {} layers",
                        common.layers
                    ));
                }
                let plan = Plan::from_id(id, common.layers, common.ranks)
                    .with_ra(common.ra.unwrap_or(common.ranks));
                Algo::Rdm { plan: Some(plan) }
            }
        },
        "cagnet1d" => Algo::Cagnet1D,
        "cagnet15d" => {
            let c: usize = param
                .ok_or("cagnet15d wants a replication factor, e.g. cagnet15d:2")?
                .parse()
                .map_err(|e| format!("bad c: {e}"))?;
            Algo::Cagnet15D { c }
        }
        "dgcl" => Algo::Dgcl,
        "saint-rdm" => Algo::SaintRdm { sampler },
        "saint-ddp" => Algo::SaintDdp { sampler },
        "masked" => {
            let keep: f32 = param
                .ok_or("masked wants a keep probability, e.g. masked:0.5")?
                .parse()
                .map_err(|e| format!("bad keep: {e}"))?;
            Algo::SaintMasked { keep }
        }
        other => return Err(format!("unknown algorithm {other} (try --help)")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ds = match build_dataset(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let algo = match build_algo(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let common = &args.common;
    let mut cfg = TrainerConfig {
        algo,
        // The trainer prices every candidate ordering at r_a = r
        // (sigma-repriced under --sparse), and rejects --ra for
        // algorithms that read no plan.
        ra: common.ra,
        sparse: common.sparse,
        ..TrainerConfig::rdm_auto(common.ranks)
    }
    .layers(common.layers)
    .hidden(common.hidden)
    .lr(args.lr)
    .epochs(args.epochs)
    .seed(common.seed);
    if let Some(c) = args.overlap {
        cfg = cfg.overlap(c);
    }
    cfg = cfg.kernel_mode(common.kernel_mode());
    if let Some(plan) = common.fault_plan() {
        cfg = cfg.faults(plan);
    }
    if common.trace.is_some() {
        cfg = cfg.trace();
    }

    println!(
        "dataset {}: {} vertices, {} edges (nnz {}), {} features, {} classes",
        ds.spec.name,
        ds.n(),
        ds.adj.nnz() / 2,
        ds.adj_norm.nnz(),
        ds.spec.feature_size,
        ds.spec.labels,
    );
    let report = match train_gcn(&ds, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("algorithm {} on {} ranks", report.algo, report.p);
    if !common.quiet {
        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>12} {:>12}",
            "epoch", "loss", "train-acc", "test-acc", "MB moved", "sim ms"
        );
        for e in &report.epochs {
            println!(
                "{:>5} {:>10.4} {:>9.1}% {:>9.1}% {:>12.2} {:>12.3}",
                e.epoch,
                e.loss,
                100.0 * e.train_acc,
                100.0 * e.test_acc,
                e.total_bytes as f64 / 1e6,
                e.sim.total_s * 1e3,
            );
        }
    }
    println!(
        "final: loss {:.4}, test accuracy {:.1}%, {:.2} MB/epoch, {:.2} simulated epochs/s",
        report.epochs.last().unwrap().loss,
        100.0 * report.final_test_acc(),
        report.mean_bytes_per_epoch() / 1e6,
        report.sim_epochs_per_sec(),
    );
    if common.chaos.is_some() {
        println!(
            "chaos: {} retransmits re-sent {:.2} MB (excluded from volume above); \
             losses bit-identical to the fault-free run",
            report.total_retries(),
            report.total_retransmit_bytes() as f64 / 1e6,
        );
    }
    if args.overlap.is_some() {
        match report.overlap_inert_reason() {
            Some(reason) => println!("overlap: inert ({reason}); the run executed blocking"),
            None => println!(
                "overlap: {:.3} ms of the slowest rank's communication hidden behind \
                 compute over the run (modeled); results bit-identical to blocking",
                report.epochs.iter().map(|e| e.sim.hidden_s).sum::<f64>() * 1e3,
            ),
        }
    }
    if let Some(reason) = report.sparse_inert {
        println!("sparse: inert ({reason})");
    } else if common.sparse {
        let actual = report.total_redistribution_bytes();
        let dense = report.total_redistribution_dense_bytes();
        let saved = 100.0 * (1.0 - actual as f64 / dense.max(1) as f64);
        println!(
            "sparse: redistributions moved {:.2} MB of a dense-equivalent {:.2} MB \
             ({saved:.1}% saved); results bit-identical to dense",
            actual as f64 / 1e6,
            dense as f64 / 1e6,
        );
    }
    println!("{}", common.kernels_line());
    if let Some(path) = &args.save_weights {
        let snap = match &report.weights {
            Some(s) => s,
            None => {
                eprintln!("error: trainer returned no weight snapshot");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = snap.save(path) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "weights: {} layers ({}) written to {path} (load with rdm-serve --weights)",
            snap.layers(),
            snap.feats()
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("→"),
        );
    }
    if let Err(e) = common.write_trace(report.traces.as_ref()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
