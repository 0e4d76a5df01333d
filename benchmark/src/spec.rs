//! The benchmark's workloads and metrics, read from `BENCHMARK.json` at
//! the repository root, which is compiled in: names, units, directions and
//! bounds have that one source.

use std::sync::OnceLock;

use crate::json::Json;

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One metric as `BENCHMARK.json` states it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening of the median across seeds, as a share of the
    /// parent's median (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Whether the value repeats exactly for a seed on any host (modeled
    /// values and outcome counts). `compare` allows such a metric no
    /// worsening at all on any seed.
    pub deterministic: bool,
}

/// The whole benchmark definition.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced run, named `<crate>.<metric>`.
    pub per_layer: Vec<Metric>,
}

/// End-to-end metrics computed from the repository's cycle and energy
/// models and from outcome counts over a fixed prefix of operations: they
/// do not depend on the host. `BENCHMARK.json` holds only each metric's
/// name, unit, direction and bound, so the list lives here.
const DETERMINISTIC: [&str; 5] = [
    "uj_per_plan",
    "pj_per_work",
    "modeled_us_per_plan",
    "modeled_p99_us",
    "ok_frac",
];

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Returns what is missing or malformed.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::arr)
                .ok_or(format!("no `{key}` list"))
        };
        let text_of = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or(format!("an entry lacks the string `{key}`"))
        };
        let metric = |entry: &Json| -> Result<Metric, String> {
            let name = text_of(entry, "name")?;
            Ok(Metric {
                unit: text_of(entry, "unit")?,
                better: match text_of(entry, "better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("{name}: `better` is `{other}`")),
                },
                bound: entry.get("bound").and_then(Json::num),
                deterministic: DETERMINISTIC.contains(&name.as_str()),
                name,
            })
        };
        let spec = Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
        };
        if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric {} has no bound", m.name));
        }
        for name in DETERMINISTIC {
            if !spec.end_to_end.iter().any(|m| m.name == name) {
                return Err(format!(
                    "deterministic metric {name} is not an end-to-end metric"
                ));
            }
        }
        Ok(spec)
    }
}

/// The benchmark definition compiled into this binary.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_definition_parses() {
        let s = spec();
        assert!(!s.workloads.is_empty());
        assert_eq!(s.end_to_end[0].name, "setup_s");
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let det: Vec<&str> = s
            .end_to_end
            .iter()
            .filter(|m| m.deterministic)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(det, DETERMINISTIC);
    }

    #[test]
    fn rejects_an_unbounded_end_to_end_metric() {
        let text = r#"{"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower"}]}"#;
        assert!(Spec::parse(text).is_err());
    }
}
