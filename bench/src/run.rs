//! One benchmark run of one workload: the timed run that yields the
//! end-to-end metrics (tracing off), or the traced run that yields the
//! per-layer metrics. End-to-end numbers never come from the traced run.

use gnn_rdm::trace::RankTrace;

use crate::json::{obj, Value};
use crate::probes;
use crate::reduce::{self, Kind, Unit};
use crate::stats::{mean, median, quartiles, tail};
use crate::workloads::{
    check_against_single_worker, check_replay, Checks, Kind as WorkloadKind, SetUp, Until, Workload,
};

/// Steady steps of the single-worker baseline.
const SINGLE_WORKER_STEPS: usize = 2;

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations the output checks looked at, and how many failed one.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable detail behind the headline numbers.
    pub notes: Vec<String>,
}

/// Peak resident set of this process so far, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one measuring process reports: its set-up, a slice of the run's
/// steady steps, its peak memory and what its output checks found.
#[derive(Debug, PartialEq)]
pub struct Slice {
    pub setup_s: f64,
    /// Checksum of the outputs of the first call, which every slice of a
    /// run computes alike.
    pub outputs: u64,
    pub walls_ms: Vec<f64>,
    pub wire_mb: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// FNV-1a over the output bit patterns.
fn checksum(outputs: &[u32]) -> u64 {
    outputs
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

impl Slice {
    /// The line a measuring process prints for the run that started it.
    pub fn to_json(&self) -> Value {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::Num(*x)).collect());
        obj([
            ("setup_s", Value::Num(self.setup_s)),
            // 64 bits do not fit a JSON number.
            ("outputs", Value::Str(format!("{:016x}", self.outputs))),
            ("walls_ms", nums(&self.walls_ms)),
            ("wire_mb", nums(&self.wire_mb)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
        ])
    }

    pub fn from_json(doc: &Value) -> Result<Slice, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("slice without number `{key}`"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .and_then(|a| a.iter().map(Value::as_f64).collect())
                .filter(|v: &Vec<f64>| !v.is_empty())
                .ok_or(format!("slice without samples `{key}`"))
        };
        Ok(Slice {
            setup_s: num("setup_s")?,
            outputs: doc
                .get("outputs")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("slice without checksum `outputs`")?,
            walls_ms: nums("walls_ms")?,
            wire_mb: nums("wire_mb")?,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
        })
    }
}

/// What a measuring process does, in a process that has done nothing else:
/// one complete set-up (so it pays what only the first set-up of a process
/// pays: pool spawn, allocator growth, first-touch page faults), about
/// `seconds` of steady steps in one call, peak memory, and only then the
/// output checks. `reference` adds the comparison with a single-worker run.
pub fn measure_slice(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: bool,
) -> Result<Slice, String> {
    let SetUp {
        ready,
        mut first,
        setup_s,
    } = w.set_up(seed)?;
    let until = Until::Seconds {
        seconds,
        step_s: first.steady[0].wall_s,
    };
    let mut timed = ready.run(until, false)?;
    let peak_rss_mb = peak_rss_mb()?;

    // Untimed from here on.
    let mut checks = Checks::default();
    ready.check(&mut first, &mut checks);
    ready.check(&mut timed, &mut checks);
    check_replay("timed call against first call", &first, &timed, &mut checks);
    if reference && matches!(w.kind, WorkloadKind::Train { .. }) {
        let single = ready.run_single_worker(SINGLE_WORKER_STEPS, timed.plan_id)?;
        check_against_single_worker(&timed, &single, &mut checks);
    }
    Ok(Slice {
        setup_s,
        outputs: checksum(&first.outputs),
        walls_ms: timed.walls().iter().map(|s| s * 1e3).collect(),
        wire_mb: timed
            .steady
            .iter()
            .map(|s| s.wire_bytes as f64 * 1e-6)
            .collect(),
        peak_rss_mb,
        attempted: checks.attempted,
        failed: checks.failed(),
    })
}

/// The timed run, from the slices its measuring processes report (at least
/// one). Step time and wire bytes are taken over the steady steps of all
/// slices together; set-up time and peak memory are medians over slices.
pub fn end_to_end(w: &Workload, slices: &[Slice]) -> Result<Outcome, String> {
    let reference = slices.first().ok_or("no slice to report")?;
    let attempted: u64 = slices.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = slices.iter().map(|s| s.failed).sum();
    for (i, slice) in slices.iter().enumerate() {
        if slice.outputs != reference.outputs {
            eprintln!("check failed: slice {i}: same seed, outputs not bit-identical");
            failed += 1;
        }
    }
    let failed = failed.min(attempted.max(1));

    let pooled = |f: fn(&Slice) -> &Vec<f64>| -> Vec<f64> {
        slices.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let over_slices = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let walls_ms = pooled(|s| &s.walls_ms);
    let step_wall_ms = mean(&walls_ms);
    let (q1, q3) = quartiles(&walls_ms);
    let mut notes = vec![
        format!(
            "step_wall_ms: n={} median={:.3} q1={q1:.3} q3={q3:.3}{}",
            walls_ms.len(),
            median(&walls_ms),
            tail(&walls_ms).map_or(String::new(), |(p, v)| format!(" p{p}={v:.3}")),
        ),
        format!(
            "step_wall_ms by slice: {:.3?}",
            over_slices(&|s| mean(&s.walls_ms))
        ),
    ];
    if let WorkloadKind::Serve { requests, .. } = w.kind {
        notes.push(format!(
            "serve_req_per_s {:.1} 1/s ({requests} requests per step)",
            requests as f64 / step_wall_ms * 1e3
        ));
    }
    let setups = over_slices(&|s| s.setup_s);
    let peaks = over_slices(&|s| s.peak_rss_mb);
    notes.push(format!("setup_s by slice: {setups:.3?}"));
    notes.push(format!("peak_rss_mb by slice: {peaks:.1?}"));
    Ok(Outcome {
        metrics: vec![
            ("step_wall_ms", step_wall_ms),
            ("wire_mb_per_step", median(&pooled(|s| &s.wire_mb))),
            ("peak_rss_mb", median(&peaks)),
            (
                "passed_share",
                1.0 - failed as f64 / attempted.max(1) as f64,
            ),
            ("setup_s", median(&setups)),
        ],
        attempted,
        failed,
        notes,
    })
}

/// Steady units of every rank, warm-up unit of each traced run dropped.
fn steady_units(traces: &[Vec<RankTrace>], ranks: usize) -> Result<Vec<Vec<Unit>>, String> {
    let mut per_rank: Vec<Vec<Unit>> = vec![Vec::new(); ranks];
    for run in traces {
        for t in run {
            per_rank[t.rank].extend(reduce::units(t)?.into_iter().skip(1));
        }
    }
    Ok(per_rank)
}

/// The traced run: an untraced and a traced quarter-length call (their
/// ratio is the tracing overhead), the single-worker baseline, then the
/// probes.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let SetUp { ready, first, .. } = w.set_up(seed)?;
    let until = Until::Seconds {
        seconds: seconds / 4.0,
        step_s: first.steady[0].wall_s,
    };
    let mut plain = ready.run(until, false)?;
    let mut traced = ready.run(until, true)?;
    ready.check(&mut plain, &mut checks);
    ready.check(&mut traced, &mut checks);
    check_replay("traced against untraced run", &plain, &traced, &mut checks);
    let single = ready.run_single_worker(SINGLE_WORKER_STEPS, plain.plan_id)?;

    let per_rank = steady_units(&traced.traces, w.ranks())?;
    let slowest = per_rank
        .iter()
        .max_by_key(|units| units.iter().map(|u| u.wall_ns).sum::<u64>())
        .filter(|units| !units.is_empty())
        .ok_or("the traced run recorded no steady unit")?;
    let unit_ms: Vec<f64> = slowest.iter().map(|u| u.wall_ns as f64 * 1e-6).collect();
    let self_ms = |kind: Kind| {
        let ms: Vec<f64> = slowest
            .iter()
            .map(|u| u.self_ns(kind) as f64 * 1e-6)
            .collect();
        median(&ms)
    };
    let unit_wall_ms = median(&unit_ms);
    // Counts and modeled values are read off one reference step — the
    // second steady one, past every warm-up effect — so that they repeat
    // exactly for one commit and seed however many steps the run fits in.
    const REFERENCE: usize = 1;
    let reference = &plain.steady[REFERENCE];
    let units = plain.units_per_step.saturating_sub(1).max(1);
    let reference_units = || {
        per_rank
            .iter()
            .flat_map(|u| u.iter().skip(REFERENCE * units).take(units))
    };
    let spmm_fma: f64 = reference_units().map(|u| u.spmm_fma).sum();
    let gemm_fma: f64 = reference_units().map(|u| u.gemm_fma).sum();
    // The program's own FMA book (training reports carry one) must agree
    // with what the kernel spans declare.
    let booked = &traced.steady[REFERENCE];
    if booked.spmm_fma + booked.gemm_fma > 0.0
        && (booked.spmm_fma, booked.gemm_fma) != (spmm_fma, gemm_fma)
    {
        checks.fail(format!(
            "kernel spans declare {spmm_fma}/{gemm_fma} SpMM/GEMM FMAs per step, the report books {}/{}",
            booked.spmm_fma, booked.gemm_fma
        ));
    }

    let plain_ms = mean(&plain.walls()) * 1e3;
    let traced_ms = mean(&traced.walls()) * 1e3;
    let single_ms = mean(&single.walls()) * 1e3;
    let (plain_q1, plain_q3) = quartiles(&plain.walls());
    let sim_ms = reference.sim_s * 1e3;
    let comm_wall_ms =
        plain.steady.iter().map(|s| s.comm_wall_s).sum::<f64>() / plain.steady.len() as f64 * 1e3;
    let (tail_p, unit_tail_ms) = tail(&unit_ms).unwrap_or((50.0, median(&unit_ms)));

    let mut metrics = vec![
        ("dense.pool_fresh_steady", reference.ws_fresh as f64),
        ("dense.pool_reused_steady", reference.ws_reused as f64),
        ("comm.comm_wall_ms", comm_wall_ms),
        ("comm.messages_per_step", reference.messages as f64),
        ("comm.wire_bytes_per_step", reference.wire_bytes as f64),
        ("comm.dense_bytes_per_step", reference.dense_bytes as f64),
        (
            "comm.wire_over_dense",
            reference.redist_wire_bytes as f64 / reference.redist_dense_bytes as f64,
        ),
        ("comm.retries", reference.retries as f64),
        ("model.sim_step_ms", sim_ms),
        ("model.sim_comm_ms", reference.sim_comm_s * 1e3),
        ("model.overlap_hidden_ms", reference.sim_hidden_s * 1e3),
        ("model.virtual_p50_us", reference.virtual_p50_us),
        ("model.virtual_p99_us", reference.virtual_p99_us),
        ("model.virtual_rps", reference.virtual_rps),
        ("model.wall_over_sim", plain_ms / sim_ms),
        ("core.spmm_self_ms", self_ms(Kind::Spmm)),
        ("core.gemm_self_ms", self_ms(Kind::Gemm)),
        ("core.redistribute_self_ms", self_ms(Kind::Redistribute)),
        (
            "core.allreduce_self_pct",
            100.0 * self_ms(Kind::AllReduce) / unit_wall_ms,
        ),
        ("core.other_self_ms", self_ms(Kind::Other)),
        ("core.spmm_fma", spmm_fma),
        ("core.gemm_fma", gemm_fma),
        (
            "core.step_iqr_pct",
            100.0 * (plain_q3 - plain_q1) / median(&plain.walls()),
        ),
        ("core.p1_step_ms", single_ms),
        ("core.speedup_vs_p1", single_ms / plain_ms),
        ("trace.unit_wall_ms", unit_wall_ms),
        ("trace.unit_wall_tail_ms", unit_tail_ms),
        ("trace.units_per_step", plain.units_per_step as f64),
        ("trace.overhead_pct", 100.0 * (traced_ms / plain_ms - 1.0)),
        (
            "trace.events_per_step",
            reference_units().map(|u| u.events as f64).sum(),
        ),
    ];
    metrics.extend(probes::run(&ready, seconds / 2.0));
    let notes = vec![
        format!(
            "untraced step {plain_ms:.3} ms (n={}), traced {traced_ms:.3} ms (n={}); single worker {single_ms:.3} ms",
            plain.steady.len(),
            traced.steady.len()
        ),
        format!(
            "trace.unit_wall_tail_ms is p{tail_p} of {} units on the slowest rank",
            unit_ms.len()
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted: checks.attempted,
        failed: checks.failed(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// Every workload, shrunk, through both kinds of run: each emits
    /// exactly the metrics `BENCHMARK.json` lists, and every output check
    /// passes.
    #[test]
    fn runs_emit_exactly_the_listed_metrics() {
        let spec = Spec::load();
        for (name, _) in &spec.workloads {
            let w = Workload::by_name(name)
                .unwrap_or_else(|| panic!("BENCHMARK.json lists unknown workload {name}"))
                .shrunk(100);
            // Two slices, through the form they cross the pipe in.
            let slices: Vec<Slice> = [true, false]
                .iter()
                .map(|&reference| {
                    let slice = measure_slice(&w, 7, 0.05, reference).unwrap();
                    let line = slice.to_json().render();
                    let back = Slice::from_json(&crate::json::parse(&line).unwrap()).unwrap();
                    assert_eq!(back, slice, "{name}");
                    back
                })
                .collect();
            for (outcome, listed) in [
                (end_to_end(&w, &slices).unwrap(), &spec.end_to_end),
                (per_layer(&w, 7, 0.2).unwrap(), &spec.per_layer),
            ] {
                let mut emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
                let mut wanted: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
                emitted.sort_unstable();
                wanted.sort_unstable();
                assert_eq!(emitted, wanted, "{name}");
                assert!(
                    outcome.metrics.iter().all(|(_, v)| v.is_finite()),
                    "{name}: {:?}",
                    outcome.metrics
                );
                assert_eq!(outcome.failed, 0, "{name}: see stderr");
                assert!(outcome.attempted > 0, "{name}");
            }
        }
    }

    #[test]
    fn a_slice_that_computed_something_else_is_a_failure() {
        let slice = |outputs| Slice {
            setup_s: 0.5,
            outputs,
            walls_ms: vec![10.0, 12.0],
            wire_mb: vec![1.0, 1.0],
            peak_rss_mb: 100.0,
            attempted: 2,
            failed: 0,
        };
        let w = Workload::by_name("train-thin").unwrap();
        let same = end_to_end(&w, &[slice(1), slice(1)]).unwrap();
        assert_eq!((same.attempted, same.failed), (4, 0));
        let differing = end_to_end(&w, &[slice(1), slice(2)]).unwrap();
        assert_eq!(differing.failed, 1);
        assert!(end_to_end(&w, &[]).is_err());
        assert!(Slice::from_json(&crate::json::parse("{}").unwrap()).is_err());
    }
}
