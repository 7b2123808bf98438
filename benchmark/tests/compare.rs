//! `compare`: medians and quartiles per workload × metric, non-zero on
//! a difference beyond the bound, "unresolved" on a wide spread, and no
//! traced output accepted.

use warptree_benchmark::compare::{compare, judge, parse_runs, Side, Verdict, MIN_RUNS};
use warptree_benchmark::inputs::WORKLOADS;
use warptree_benchmark::report::{Better, Manifest};
use warptree_benchmark::tmp::TempRoot;

/// One `--trace 0` result line with every end-to-end metric at `base`,
/// except `op_p50_ms`, which is given.
fn line(base: f64, op_p50_ms: f64) -> String {
    let fields: Vec<String> = Manifest::load()
        .end_to_end
        .iter()
        .map(|m| {
            let v = if m.name == "op_p50_ms" {
                op_p50_ms
            } else {
                base
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": 600, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn write_set(root: &std::path::Path, name: &str, p50s: &[f64]) -> std::path::PathBuf {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let text: String = p50s.iter().map(|&p| line(2.0, p) + "\n").collect();
    for w in &WORKLOADS {
        std::fs::write(dir.join(format!("{}.jsonl", w.name)), &text).unwrap();
    }
    dir
}

#[test]
fn verdicts_follow_bound_direction_and_spread() {
    let tight = |m: f64| Side::of(&[m * 0.99, m, m, m, m * 1.01]);
    let lower = Better::Lower;
    assert_eq!(
        judge(&tight(10.0), &tight(10.5), lower, 0.10).1,
        Verdict::Same
    );
    assert_eq!(
        judge(&tight(10.0), &tight(12.0), lower, 0.10).1,
        Verdict::Worse
    );
    assert_eq!(
        judge(&tight(10.0), &tight(8.0), lower, 0.10).1,
        Verdict::Better
    );
    assert_eq!(
        judge(&tight(10.0), &tight(8.0), Better::Higher, 0.10).1,
        Verdict::Worse
    );
    let wide = Side::of(&[6.0, 8.0, 10.0, 12.0, 14.0]);
    assert!(wide.spread() > 0.10);
    assert_eq!(
        judge(&wide, &tight(10.0), lower, 0.10).1,
        Verdict::Unresolved
    );
}

#[test]
fn agreeing_sets_pass_and_differing_sets_fail() {
    let tmp = TempRoot::new().unwrap();
    std::fs::create_dir_all(tmp.root()).unwrap();
    let a = write_set(tmp.root(), "a", &[10.0, 10.1, 9.9, 10.0, 10.2]);
    let b = write_set(tmp.root(), "b", &[10.3, 10.1, 10.4, 10.2, 10.3]);
    // Beyond any bound the contract allows (at most 0.25).
    let c = write_set(tmp.root(), "c", &[14.0, 14.1, 13.9, 14.2, 14.0]);
    assert_eq!(compare(&a, &b), Ok(true));
    assert_eq!(compare(&a, &c), Ok(false));
}

#[test]
fn short_traced_and_incorrect_sets_are_rejected() {
    let end_to_end = Manifest::load().end_to_end;
    let few: String = (0..MIN_RUNS - 1).map(|_| line(2.0, 10.0) + "\n").collect();
    assert!(parse_runs(&few, &end_to_end)
        .unwrap_err()
        .contains("at least"));

    let traced = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"trace.coverage_ratio\": {\"value\": 1, \"unit\": \"ratio\"}}}\n";
    assert!(parse_runs(&traced.repeat(MIN_RUNS), &end_to_end)
        .unwrap_err()
        .contains("--trace 1"));

    let wrong = line(2.0, 10.0).replace("\"correct\": true", "\"correct\": false") + "\n";
    assert!(parse_runs(&wrong.repeat(MIN_RUNS), &end_to_end)
        .unwrap_err()
        .contains("not correct"));
}
