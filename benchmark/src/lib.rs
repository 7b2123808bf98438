#![warn(missing_docs)]

//! # warptree-benchmark
//!
//! The repo benchmark behind `BENCHMARK.json`: four paper-scale
//! workloads measured over whole passes, each run checked against the
//! sequential scan. See `README.md` for what each workload is for and
//! how its metrics are defined.

pub mod common;
pub mod compare;
pub mod coord_run;
pub mod ingest_run;
pub mod inputs;
pub mod layers;
pub mod lib_run;
pub mod report;
pub mod serve_run;
pub mod stats;
pub mod tmp;
pub mod trace;

use common::Budget;
use inputs::{Inputs, Kind};
use report::Outcome;
use tmp::TempRoot;
use trace::Tracer;

/// Runs one workload on generated inputs and returns what it measured.
/// With `trace`, spans are recorded and written to `trace_path` at the
/// end, and the per-layer metrics are filled in; a traced run makes the
/// minimum number of passes, because its layer probes take the time the
/// further passes of an untraced run would.
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    trace_path: &std::path::Path,
    tmp: &mut TempRoot,
) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(trace);
    let budget = Budget::new(if trace { 0.0 } else { seconds });
    out.note(
        "inputs_fingerprint",
        format!("{:016x}", inputs.fingerprint()),
    );
    match inputs.kind {
        Kind::Lib => lib_run::run(inputs, &budget, &mut tr, tmp, &mut out),
        Kind::Serve => serve_run::run(inputs, &budget, &mut tr, tmp, &mut out),
        Kind::Ingest => ingest_run::run(inputs, &budget, &mut tr, tmp, &mut out),
    }
    if trace {
        match tr.write_json(trace_path) {
            Ok(()) => out.note("trace", trace_path.display()),
            Err(e) => out.note("trace", format!("not written: {e}")),
        }
    }
    out
}
