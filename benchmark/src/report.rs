//! Metric names, units and bounds — read from `BENCHMARK.json`, the one
//! place that decides them — and the run's printed output.

use std::collections::BTreeMap;

use warptree::server::{json, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric `BENCHMARK.json` names.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; 0 for a per-layer metric, which has no bound.
    pub bound: f64,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Reported by every workload's `--trace 0` run.
    pub end_to_end: Vec<Metric>,
    /// Reported by every workload's `--trace 1` run (0 where the
    /// workload does not exercise the layer).
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// Parses the `BENCHMARK.json` the package was built beside.
    pub fn load() -> Manifest {
        let v = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Metric> {
            let text = |m: &Json, k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: a metric of {key} lacks {k}"))
                    .to_string()
            };
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: match text(m, "better").as_str() {
                        "lower" => Better::Lower,
                        _ => Better::Higher,
                    },
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Manifest {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that errored, were refused, or disagreed
    /// with the oracle.
    pub failed: u64,
    /// Oracle mismatches found outside the timed phase (set-up checks);
    /// any makes the run incorrect.
    pub oracle_mismatches: u64,
    /// Measured values by metric name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
    /// `# key: value` lines printed ahead of the metrics.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric. A non-finite value (an empty sample's ratio)
    /// is stored as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a `# key: value` line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Whether every answer checked was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracle_mismatches == 0
    }

    /// Prints the notes, every metric of the run's kind by name and
    /// unit, and — as the last line — the contract's JSON object.
    pub fn print(&self, trace: bool) {
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        let manifest = Manifest::load();
        let listed = if trace {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        let mut fields = Vec::with_capacity(listed.len());
        for Metric { name, unit, .. } in listed {
            let value = self.metrics.get(name.as_str()).copied();
            match value {
                Some(v) => println!("{name} = {v} {unit}"),
                None => println!("{name} = 0 {unit}  (layer not exercised by this workload)"),
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}
