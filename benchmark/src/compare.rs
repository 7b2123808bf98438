//! `warptree-benchmark compare A B`: the self-check behind "two sets of
//! runs of one commit agree", and the table later performance changes
//! quote.
//!
//! A result set is a directory holding one `<workload>.jsonl` per
//! workload: the final JSON line of each `--trace 0` run, one per line,
//! at least [`MIN_RUNS`] of them.

use std::collections::BTreeMap;
use std::path::Path;

use warptree::server::{json, Json};

use crate::inputs::WORKLOADS;
use crate::report::{Better, Manifest, Metric};
use crate::stats::{median, quartiles};

/// Fewest runs per workload a result set may hold.
pub const MIN_RUNS: usize = 5;

/// `values[metric]` = one value per run.
type Runs = BTreeMap<String, Vec<f64>>;

/// Parses one workload's result lines. Rejects traced output, failed
/// runs, and lines that lack an end-to-end metric.
pub fn parse_runs(text: &str, end_to_end: &[Metric]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let lines = text.lines().filter(|l| !l.trim().is_empty());
    for (n, line) in lines.enumerate() {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let metrics = v
            .get("metrics")
            .ok_or_else(|| format!("line {}: no \"metrics\"", n + 1))?;
        if metrics.get("trace.coverage_ratio").is_some() {
            return Err(format!(
                "line {}: this is a --trace 1 run; traced runs are never end-to-end numbers",
                n + 1
            ));
        }
        if v.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("line {}: the run was not correct", n + 1));
        }
        for m in end_to_end {
            let value = metrics
                .get(&m.name)
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: no value for {}", n + 1, m.name))?;
            runs.entry(m.name.clone()).or_default().push(value);
        }
    }
    let count = runs.values().next().map_or(0, Vec::len);
    if count < MIN_RUNS {
        return Err(format!(
            "{count} runs; a result set needs at least {MIN_RUNS}"
        ));
    }
    Ok(runs)
}

/// One side's median and quartiles of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median over the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Summarises one metric's runs.
    pub fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How one workload × metric compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound.
    Same,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own quartiles are further apart than the bound: the runs
    /// cannot resolve a difference of that size.
    Unresolved,
}

/// Compares one metric: `(change of B against A as a share of A, verdict)`.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> (f64, Verdict) {
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let verdict = if a.spread() > bound {
        Verdict::Unresolved
    } else if change.abs() <= bound {
        Verdict::Same
    } else if (change < 0.0) == (better == Better::Lower) {
        Verdict::Better
    } else {
        Verdict::Worse
    };
    (change, verdict)
}

fn load(dir: &Path, workload: &str, end_to_end: &[Metric]) -> Result<Runs, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_runs(&text, end_to_end).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints each side's median and quartiles per workload × metric.
/// `Ok(true)` when every median pair is within its bound; unresolved
/// metrics are counted and printed but do not fail the comparison.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    println!(
        "{:<14} {:<20} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let (mut differ, mut unresolved) = (0, 0);
    let end_to_end = Manifest::load().end_to_end;
    for w in &WORKLOADS {
        let (ra, rb) = (load(a, w.name, &end_to_end)?, load(b, w.name, &end_to_end)?);
        for m in &end_to_end {
            let (sa, sb) = (Side::of(&ra[&m.name]), Side::of(&rb[&m.name]));
            let (change, verdict) = judge(&sa, &sb, m.better, m.bound);
            let show = |s: &Side| format!("{:.5} [{:.5}, {:.5}]", s.median, s.q1, s.q3);
            let word = match verdict {
                Verdict::Same => "same".to_string(),
                Verdict::Better => format!("DIFFERS: better by more than {}", m.bound),
                Verdict::Worse => format!("DIFFERS: worse by more than {}", m.bound),
                Verdict::Unresolved => format!(
                    "unresolved: A's spread {:.3} exceeds {}",
                    sa.spread(),
                    m.bound
                ),
            };
            println!(
                "{:<14} {:<20} {:>36} {:>36} {:>+7.1}%  {word}",
                w.name,
                m.name,
                show(&sa),
                show(&sb),
                change * 100.0
            );
            match verdict {
                Verdict::Better | Verdict::Worse => differ += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Same => {}
            }
        }
    }
    println!("{differ} differ, {unresolved} unresolved");
    Ok(differ == 0)
}
