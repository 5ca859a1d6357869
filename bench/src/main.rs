//! `rdm-ledger`: the repo's benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! rdm-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rdm-ledger run [--seed <n>] [--out <file.json>]
//! rdm-ledger compare <a.json> <b.json>
//! rdm-ledger list
//! ```
//!
//! The first form is one run of one workload: it prints every metric as
//! `name value unit` and, as the last line of standard output, the result
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. A timed run measures in [`SLICES`] processes of itself, one after
//! the other (`--slice <k>`): each sets up once, runs its share of the
//! steady steps and prints what it measured as one line of JSON.

mod json;
mod ledger;
mod probes;
mod reduce;
mod run;
mod spec;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::{obj, Value};
use run::Slice;
use spec::Spec;
use workloads::Workload;

/// Measuring processes per timed run. Each is one sample of what a process
/// pays to set up and of its peak memory, taken in a process that has done
/// nothing before; the run's step time is taken over the steady steps of
/// all of them, so it averages over what differs from one process to the
/// next (heap layout, allocator state).
const SLICES: usize = 5;

/// `--flag value` pairs after the subcommand, in any order.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value")),
    }
}

/// The timed run's measuring processes: `SLICES` of them, one after the
/// other, each running `seconds / SLICES` of steady steps.
fn measure_slices(workload: &str, seed: u64, seconds: f64) -> Result<Vec<Slice>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SLICES)
        .map(|k| {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &(seconds / SLICES as f64).to_string()])
                .args(["--slice", &k.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning measuring process {k}: {e}"))?;
            if !out.status.success() {
                return Err(format!("measuring process {k} exited with {}", out.status));
            }
            let line = String::from_utf8_lossy(&out.stdout);
            Slice::from_json(&json::parse(line.trim())?)
                .map_err(|e| format!("measuring process {k}: {e}"))
        })
        .collect()
}

/// One run of one workload; prints the report and the result line.
fn run_one(spec: &Spec, args: &[String]) -> Result<(), String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(ledger::DEFAULT_SEED);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(spec.run_seconds as f64);
    let traced = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    let workload = Workload::by_name(&name)
        .filter(|_| spec.workloads.iter().any(|(n, _)| *n == name))
        .ok_or(format!("unknown workload {name:?} (try `rdm-ledger list`)"))?;
    if let Some(k) = flag::<usize>(args, "--slice")? {
        // Slice 0 also carries the single-worker reference check.
        let slice = run::measure_slice(&workload, seed, seconds, k == 0)?;
        println!("{}", slice.to_json().render());
        return Ok(());
    }
    let (outcome, listed) = if traced {
        (run::per_layer(&workload, seed, seconds)?, &spec.per_layer)
    } else {
        let slices = measure_slices(&name, seed, seconds)?;
        (run::end_to_end(&workload, &slices)?, &spec.end_to_end)
    };

    // A run emits exactly the metrics BENCHMARK.json lists, in its order.
    let mut metrics = Vec::with_capacity(listed.len());
    for m in listed {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .ok_or(format!("metric {} is listed but was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} measured as {value}", m.name));
        }
        println!("{} {value} {}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        ));
    }
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| listed.iter().all(|m| m.name != *n))
    {
        return Err(format!("metric {stray} was measured but is not listed"));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let result = obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    // A violated check is reported in the result (`correct`, `failed`), not
    // through the exit code: the run itself completed. `run` fails on it.
    println!("{}", result.render());
    Ok(())
}

fn list(spec: &Spec) {
    println!("workloads:");
    for (name, why) in &spec.workloads {
        println!("  {name}: {why}");
    }
    println!("end to end (bound):");
    for m in &spec.end_to_end {
        println!(
            "  {} [{}] {:?} is better, may worsen by {}%",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per layer:");
    for m in &spec.per_layer {
        println!("  {} [{}]", m.name, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let done = match args.first().map(String::as_str) {
        Some("list") => {
            list(&spec);
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => ledger::run_all(&spec, &args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => ledger::compare(&spec, a, b),
            _ => Err("usage: rdm-ledger compare <a.json> <b.json>".to_string()),
        },
        _ => run_one(&spec, &args).map(|()| ExitCode::SUCCESS),
    };
    done.unwrap_or_else(|e| {
        eprintln!("rdm-ledger: {e}");
        ExitCode::from(2)
    })
}
