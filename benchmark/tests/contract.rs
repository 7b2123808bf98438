//! `BENCHMARK.json` stays inside the limits of the builder's contract,
//! and names the workloads the benchmark runs. (The metric tables live
//! in that file alone; `report::Manifest` reads them from it.)

use std::collections::BTreeSet;

use warptree::server::{json, Json};
use warptree_benchmark::inputs::WORKLOADS;

const TEXT: &str = include_str!("../../BENCHMARK.json");

fn manifest() -> Json {
    json::parse(TEXT).unwrap()
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        _ => panic!("not an object"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap()
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap()
}

fn well_formed_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape() {
    let m = manifest();
    assert!(TEXT.len() <= 64 * 1024);
    assert_eq!(
        keys(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = list(&m, "command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = list(&m, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().unwrap();
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }
    let seconds = m.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_are_the_ones_the_benchmark_runs() {
    let m = manifest();
    let listed = list(&m, "workloads");
    assert!((2..=8).contains(&listed.len()));
    let names: Vec<&str> = listed.iter().map(|w| text(w, "name")).collect();
    let run: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, run);
    for w in listed {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{}: why",
            text(w, "name")
        );
    }
}

#[test]
fn metrics_stay_inside_the_limits() {
    let m = manifest();
    let end_to_end = list(&m, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    let mut largest = 0.0f64;
    for e in end_to_end {
        assert_eq!(keys(e), ["better", "bound", "name", "unit"]);
        let bound = e.get("bound").and_then(Json::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound), "{}", text(e, "name"));
        largest = largest.max(bound);
    }
    let setup = end_to_end
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let per_layer = list(&m, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for l in per_layer {
        assert_eq!(keys(l), ["better", "name", "unit"]);
    }
    for metric in end_to_end.iter().chain(per_layer) {
        assert!(well_formed_unit(text(metric, "unit")));
        assert!(matches!(text(metric, "better"), "lower" | "higher"));
    }
}

#[test]
fn names_are_unique_and_well_formed() {
    let m = manifest();
    let names: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| list(&m, k))
        .map(|v| text(v, "name"))
        .collect();
    for n in &names {
        assert!(well_formed_name(n), "{n}");
    }
    let distinct: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used twice");
}
