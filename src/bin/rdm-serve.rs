//! `rdm-serve` — batched online GCN inference serving.
//!
//! ```text
//! rdm-train --synthetic 256x2000 --features 16 --classes 4 --hidden 16 \
//!           --save-weights demo.rdmw
//! rdm-serve --synthetic 256x2000 --features 16 --classes 4 --hidden 16 \
//!           --weights demo.rdmw --requests 64
//! ```
//!
//! Brings up a long-lived simulated cluster, loads a trained weight
//! snapshot (or trains one in place when `--weights` is absent), and
//! drives a deterministic open-loop request stream through the batching
//! engine. Latencies are virtual (device-model) time, so the report is
//! byte-identical across machines and replays for a fixed `--seed`. A
//! full-graph session computes layer 1's aggregation `Â·H⁰` once, in the
//! first (warmup) batch, when the plan aggregates first. The run fails if
//! any later batch needed a fresh workspace allocation — the pool must
//! serve everything after warmup.

use gnn_rdm::cli::CommonArgs;
use gnn_rdm::core::{train_gcn, TrainerConfig, WeightSnapshot};
use gnn_rdm::graph::Dataset;
use gnn_rdm::serve::{serve, BatchPolicy, LoadGen, ServeConfig, ServeSampler};
use std::process::ExitCode;

struct Args {
    common: CommonArgs,
    weights: Option<String>,
    train_epochs: usize,
    requests: usize,
    clients: usize,
    mean_gap: u64,
    max_batch: usize,
    max_wait: u64,
    budget: Option<usize>,
    pipeline: Option<usize>,
    zipf: u32,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            common: CommonArgs::default(),
            weights: None,
            train_epochs: 5,
            requests: 64,
            clients: 4,
            mean_gap: 200,
            max_batch: 8,
            max_wait: 2_000,
            budget: None,
            pipeline: None,
            zipf: 0,
        }
    }
}

const USAGE: &str = "\
rdm-serve — batched online GCN inference on a long-lived RDM cluster

USAGE:
  rdm-serve [--dataset <name> | --synthetic <NxE> | --edge-list <path>] [options]

DATA:
  --dataset <name>      one of the paper's datasets, synthesized at --scale
  --synthetic <NxE>     synthetic graph with N vertices, E edges
  --edge-list <path>    whitespace edge list, 0-based vertex ids
  --features <f>        input feature width for synthetic/edge-list [64]
  --classes <c>         label count for synthetic/edge-list [16]
  --scale <s>           divide a paper dataset's size by s [auto]

WEIGHTS:
  --weights <path>      load a snapshot written by rdm-train --save-weights;
                        without it a model is trained in place first
  --train-epochs <n>    epochs for the in-place fallback training [5]
  --layers <l>          GCN layers for fallback training [2]
  --hidden <h>          hidden width for fallback training [128]

SERVING:
  --ranks <p>           simulated GPUs [4]
  --requests <n>        total requests in the open-loop stream [64]
  --clients <c>         request issuers (per-client FIFO is guaranteed) [4]
  --mean-gap <us>       mean inter-arrival gap, virtual microseconds [200]
  --max-batch <b>       batch size cap [8]
  --max-wait <us>       max time the first request of a batch waits [2000]
  --budget <v>          serve each batch on a deterministic v-vertex induced
                        subgraph around its targets; default is full-graph
  --seed <s>            load-generator seed; the whole report replays
                        byte-identically for a fixed seed [42]
  --ra <r>              adjacency replication factor (must divide --ranks);
                        r < P serves from replicated row panels: the auto
                        plan is re-priced at r, group redistributions shrink
                        to (r-1)/r while dense panel broadcasts appear, and
                        logits stay bitwise identical to full replication
  --sparse              ship redistributions in the sparsity-aware wire format
  --pipeline <chunks>   pipelined batch admission: chunk every redistribution
                        into <chunks> strips and hide the transfer behind
                        compute; logits stay bitwise identical. Below 2
                        chunks the session runs blocking and says so
  --zipf <tiers>        skew request targets toward a hot set with <tiers>
                        halving tiers; 0 keeps the stream uniform [0]
  --reference-kernels   run GEMM/SpMM on the scalar reference loops, not the
                        default lane-unrolled microkernels; same logits,
                        slower (the differential suites' oracle)
  --trace <out.json>    write per-rank Chrome traces with per-batch and
                        per-request (Serve) spans
  --quiet               report only, no per-batch table

CHAOS:
  --chaos <seed>        serve on a faulty fabric (seeded drops, reordering,
                        stragglers); logits and the payload book are
                        bit-identical to the fault-free run
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
            "--weights" => args.weights = Some(value("--weights")?),
            "--train-epochs" => {
                args.train_epochs = value("--train-epochs")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--clients" => {
                args.clients = value("--clients")?.parse().map_err(|e| format!("{e}"))?;
                if args.clients == 0 {
                    return Err("--clients needs at least one client".into());
                }
            }
            "--mean-gap" => {
                args.mean_gap = value("--mean-gap")?.parse().map_err(|e| format!("{e}"))?;
                if args.mean_gap == 0 {
                    return Err("--mean-gap must be positive".into());
                }
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?.parse().map_err(|e| format!("{e}"))?;
                if args.max_batch == 0 {
                    return Err("--max-batch needs at least one request".into());
                }
            }
            "--max-wait" => {
                args.max_wait = value("--max-wait")?.parse().map_err(|e| format!("{e}"))?
            }
            "--budget" => {
                args.budget = Some(value("--budget")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--pipeline" => {
                args.pipeline = Some(value("--pipeline")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--zipf" => args.zipf = value("--zipf")?.parse().map_err(|e| format!("{e}"))?,
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

fn obtain_weights(args: &Args, ds: &Dataset) -> Result<WeightSnapshot, String> {
    if let Some(path) = &args.weights {
        return WeightSnapshot::load(path);
    }
    // Train-first fallback: a short RDM run on the serving cluster size.
    let common = &args.common;
    let cfg = TrainerConfig::rdm_auto(common.ranks)
        .layers(common.layers)
        .hidden(common.hidden)
        .epochs(args.train_epochs)
        .seed(common.seed);
    let report = train_gcn(ds, &cfg)?;
    report
        .weights
        .ok_or_else(|| "trainer returned no weight snapshot".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let common = &args.common;
    let ds = match common.build_dataset(common.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dataset {}: {} vertices, {} edges (nnz {}), {} features, {} classes",
        ds.spec.name,
        ds.n(),
        ds.adj.nnz() / 2,
        ds.adj_norm.nnz(),
        ds.spec.feature_size,
        ds.spec.labels,
    );
    let snap = match obtain_weights(&args, &ds) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "weights: {} layers ({}){}",
        snap.layers(),
        snap.feats()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("→"),
        if args.weights.is_some() {
            " loaded"
        } else {
            " trained in place"
        },
    );

    let load =
        LoadGen::new(common.seed, args.clients, args.mean_gap, args.requests).zipf(args.zipf);
    let requests = load.generate(ds.n());
    let mut cfg = ServeConfig::new(common.ranks);
    cfg.policy = BatchPolicy::new(args.max_batch, args.max_wait);
    cfg.ra = common.ra;
    cfg.sparse = common.sparse;
    cfg.pipeline = args.pipeline;
    cfg = cfg.kernel_mode(common.kernel_mode());
    cfg.trace = common.trace.is_some();
    cfg.sample_seed = common.seed;
    if let Some(budget) = args.budget {
        cfg.sampler = ServeSampler::Induced { budget };
    }
    cfg.faults = common.fault_plan();
    let out = match serve(&ds, &snap, &requests, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = &out.report;
    if !common.quiet {
        println!(
            "{:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
            "batch", "size", "close us", "dispatch", "service", "done us"
        );
        for b in &report.batches {
            println!(
                "{:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
                b.idx, b.size, b.close_us, b.dispatch_us, b.service_us, b.completion_us
            );
        }
    }
    print!("{}", report.render());
    if let Some(r) = common.ra {
        println!(
            "replication: r_a={r} of P={} (replicated row panels; logits \
             bitwise identical to full replication)",
            common.ranks
        );
    }
    println!("{}", common.kernels_line());
    if common.chaos.is_some() {
        println!(
            "chaos: {} retransmits; logits and payload book bit-identical to fault-free",
            report.retries
        );
    }
    if let Err(e) = common.write_trace(out.traces.as_ref()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // The steady-state guarantee the workspace pool exists for: after the
    // warmup batch, serving must be alloc-free. Fault injection is exempt:
    // retransmission and reordering raise the peak number of concurrently
    // live buffers past what the warmup batch could shelve.
    if common.chaos.is_none() && report.batches.len() >= 2 && report.ws_fresh_steady > 0 {
        eprintln!(
            "error: {} fresh workspace allocations after warmup (expected 0)",
            report.ws_fresh_steady
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
