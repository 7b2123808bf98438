//! The same seed gives byte-identical inputs, answers and exact-count
//! metrics across two runs; another seed gives other inputs.
//!
//! The runs here are cut short — a few queries, a few ingest steps — so
//! the suite stays quick in a debug build; they go through exactly the
//! code a full run does.

use std::collections::BTreeSet;
use warptree_benchmark::inputs::{generate, slice, spec, Inputs, WORKLOADS};

use warptree_benchmark::report::{Manifest, Metric, Outcome};
use warptree_benchmark::tmp::{out_dir, TempRoot};

const EXACT_COUNTS: [&str; 3] = ["space_amp", "resident_amp", "write_amp"];

fn shortened(name: &str, seed: u64) -> Inputs {
    let mut inputs = generate(spec(name).unwrap(), seed);
    inputs.queries.truncate(6);
    if let Some(plan) = inputs.ingest.as_mut() {
        plan.batches.truncate(5); // far enough for one compaction
        plan.reads.truncate(5);
        inputs.store = slice(&inputs.store, 0..plan.visible_after(4));
    }
    inputs
}

fn run(name: &str, seed: u64, trace: bool) -> Outcome {
    let inputs = shortened(name, seed);
    let mut tmp = TempRoot::new().unwrap();
    let trace_path = out_dir().join(format!("trace-test-{name}.json"));
    warptree_benchmark::run(&inputs, 0.0, trace, &trace_path, &mut tmp)
}

fn run_once(name: &str, seed: u64) -> Outcome {
    run(name, seed, false)
}

fn note<'a>(o: &'a Outcome, key: &str) -> &'a str {
    &o.notes.iter().find(|(k, _)| k == key).unwrap().1
}

fn assert_repeats(name: &str) {
    let (a, b) = (run_once(name, 11), run_once(name, 11));
    assert!(a.correct() && b.correct(), "{name}: a run was incorrect");
    assert!(a.attempted > 0);
    for key in ["inputs_fingerprint", "answers_checksum"] {
        assert_eq!(note(&a, key), note(&b, key), "{name}: {key} differs");
    }
    for m in EXACT_COUNTS {
        let (x, y) = (a.metrics[m], b.metrics[m]);
        assert!(x > 0.0, "{name}: {m} is {x}");
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {m} differs");
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in &WORKLOADS {
        let a = generate(w, 7).fingerprint();
        assert_eq!(a, generate(w, 7).fingerprint(), "{}", w.name);
        assert_ne!(a, generate(w, 8).fingerprint(), "{}", w.name);
    }
}

#[test]
fn broad_workloads_share_their_query_list() {
    let lib = generate(spec("lib-broad").unwrap(), 3);
    let serve = generate(spec("serve-broad").unwrap(), 3);
    assert_eq!(lib.queries, serve.queries);
    assert_eq!(lib.window, serve.window);
    assert!(serve.epsilon < lib.epsilon);
}

/// The metric names live in `BENCHMARK.json` alone, so nothing else
/// stops a run from setting a name the file does not list (it would be
/// dropped from the output) or the file from listing a layer no
/// workload measures (it would read 0 everywhere).
#[test]
fn runs_set_the_listed_metrics_and_no_others() {
    let manifest = Manifest::load();
    let names = |v: &[Metric]| -> BTreeSet<String> { v.iter().map(|m| m.name.clone()).collect() };
    let (end_to_end, per_layer) = (names(&manifest.end_to_end), names(&manifest.per_layer));
    let mut traced = BTreeSet::new();
    for name in ["lib-broad", "serve-broad", "ingest-read"] {
        let o = run(name, 5, true);
        assert!(o.correct(), "{name}: the traced run was incorrect");
        let set: BTreeSet<String> = o.metrics.keys().map(|k| k.to_string()).collect();
        assert!(
            end_to_end.is_subset(&set),
            "{name}: an end-to-end metric is not set"
        );
        traced.extend(set);
    }
    let listed: BTreeSet<String> = end_to_end.union(&per_layer).cloned().collect();
    assert_eq!(traced, listed);
}

#[test]
fn lib_run_repeats_exactly() {
    assert_repeats("lib-selective");
}

#[test]
fn serve_run_repeats_exactly() {
    assert_repeats("serve-broad");
}

#[test]
fn ingest_run_repeats_exactly() {
    assert_repeats("ingest-read");
}
