//! `BENCHMARK.json`, compiled in: the one place workload and metric names,
//! units, directions and regression bounds are written down. A run must
//! emit exactly the metrics listed there (checked at run time and by the
//! tests), and `compare` applies the bounds from there.

use crate::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("BENCHMARK.json: no list `{key}`"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: match text_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_stays_within_its_contract() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for (name, why) in &spec.workloads {
            assert!(is_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            assert!(
                crate::workloads::Workload::by_name(name).is_some(),
                "{name}"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_name(&m.name), "{}", m.name);
            assert!(is_unit(&m.unit), "{}: unit {:?}", m.name, m.unit);
            names.push(&m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        // Modeled quantities never sit among the end-to-end metrics, and
        // carry a unit that says so where they do appear.
        assert!(spec.end_to_end.iter().all(|m| !m.unit.starts_with("sim_")));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(r#"{"run_seconds": 1, "workloads": [{"name": "a"}]}"#).is_err());
    }
}
