//! Ledger entries: `run` measures every workload into one JSON document,
//! `compare` sets two documents side by side under the bounds
//! `BENCHMARK.json` fixes.
//!
//! An entry holds, per workload, the value of every end-to-end metric in
//! each of [`RUNS`] timed runs of `run_seconds` (run `r` uses seed
//! `seed + r`) and the per-layer metrics of one traced run. Medians and
//! quartiles are taken across runs, as the acceptance rule does.

use std::process::{Command, ExitCode, Stdio};

use crate::flag;
use crate::json::{self, obj, Value};
use crate::spec::{Better, Spec};
use crate::stats::{median, spread};

pub const DEFAULT_SEED: u64 = 1;
/// Timed runs per workload in one entry: what the acceptance rule takes
/// its quartiles over. Fixed, like the run length, so that entries compare.
const RUNS: usize = 10;

/// Units of metrics that are counts or device-model values: two entries
/// of one commit at one seed must agree on them exactly.
fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "bytes" | "fma") || unit.starts_with("sim_")
}

/// One run of one workload in a child process (so peak memory is the
/// workload's own); returns its result object.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("the {workload} run printed no result"))?;
    for line in report.lines() {
        println!("{workload} {line}");
    }
    json::parse(result)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or(format!("result without metric {name}"))
}

pub fn run_all(spec: &Spec, args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = spec.run_seconds as f64;
    let out_path: Option<String> = flag(args, "--out")?;
    let count = |result: &Value, key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);

    let mut workloads = Vec::new();
    let mut any_failed = false;
    for (name, _) in &spec.workloads {
        let mut values: Vec<Vec<Value>> = vec![Vec::new(); spec.end_to_end.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..RUNS {
            let result = child_run(name, seed + r as u64, seconds, 0)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (m, vals) in spec.end_to_end.iter().zip(&mut values) {
                vals.push(Value::Num(metric_value(&result, &m.name)?));
            }
        }
        let traced = child_run(name, seed, seconds, 1)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        any_failed |= failed > 0.0;
        let per_layer = spec
            .per_layer
            .iter()
            .map(|m| Ok((m.name.clone(), Value::Num(metric_value(&traced, &m.name)?))))
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = spec
            .end_to_end
            .iter()
            .zip(values)
            .map(|(m, vals)| (m.name.clone(), Value::Arr(vals)));
        workloads.push((
            name.clone(),
            obj([
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lanes = gnn_rdm::dense::kernels::detect_width().lanes();
    let entry = obj([
        (
            "host",
            obj([
                ("nproc", Value::Num(nproc as f64)),
                ("lanes", Value::Num(lanes as f64)),
                ("git_rev", Value::Str(git_rev())),
                ("seed", Value::Num(seed as f64)),
                ("runs", Value::Num(RUNS as f64)),
                ("seconds", Value::Num(seconds)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    let text = entry.render();
    match &out_path {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
            println!("ledger entry written to {path}");
        }
        None => println!("{text}"),
    }
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Verdict on one end-to-end metric: `b` against baseline `a`.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread of either side exceeds the bound, so a change of
    /// that size cannot be told from noise.
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(spec: &Spec, path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    fn section<'a>(doc: &'a Value, workload: &str, part: &str) -> Option<&'a Value> {
        doc.get("workloads")?.get(workload)?.get(part)
    }
    let mut any_worse = false;
    println!("workload metric median_a median_b change spread_a spread_b bound verdict");
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let values = |doc: &Value, path: &str| -> Result<Vec<f64>, String> {
                section(doc, workload, "end_to_end")
                    .and_then(|e| e.get(&m.name)?.as_arr())
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .filter(|v: &Vec<f64>| !v.is_empty())
                    .ok_or(format!("{path}: no {workload} {}", m.name))
            };
            let (va, vb) = (values(&a, path_a)?, values(&b, path_b)?);
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, m.better, bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{workload} {} {:.4} {:.4} {:+.2}% {:.2}% {:.2}% {}% {}",
                m.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) / median(&va) - 1.0),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Any failed operation is a regression, whatever the timings say.
        for (doc, path) in [(&a, path_a), (&b, path_b)] {
            let failed = section(doc, workload, "failed").and_then(|f| f.as_f64());
            if failed != Some(0.0) {
                println!("{workload} failed operations in {path}: {failed:?} worse");
                any_worse = true;
            }
        }
        let exact: Vec<_> = spec
            .per_layer
            .iter()
            .filter(|m| is_exact(&m.unit))
            .collect();
        let differing: Vec<String> = exact
            .iter()
            .filter_map(|m| {
                let get = |doc: &Value| section(doc, workload, "per_layer")?.get(&m.name)?.as_f64();
                let (x, y) = (get(&a), get(&b));
                (x != y).then(|| format!("{} {x:?} -> {y:?}", m.name))
            })
            .collect();
        println!(
            "{workload} exact counts and modeled values: {} of {} identical{}",
            exact.len() - differing.len(),
            exact.len(),
            differing
                .iter()
                .map(|d| format!("; {d}"))
                .collect::<String>()
        );
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m * 1.005];
        assert_eq!(
            verdict(&steady(100.0), &steady(105.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(115.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(50.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(85.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(130.0), Better::Higher, 0.10),
            Verdict::Ok
        );
        let noisy = vec![80.0, 100.0, 125.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &steady(150.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady(100.0), &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
