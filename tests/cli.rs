//! End-to-end test of the `warptree` CLI binary: generate → build →
//! info → search → knn → scan, verifying the index search agrees with
//! the exact scan.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_warptree"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "command {:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn full_cli_pipeline() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let idx = dir.join("idx");

    // gen
    let out = run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "30",
        "--len",
        "60",
        "--seed",
        "9",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(out.contains("wrote 30 sequences"));

    // build (sparse, ME)
    let out = run_ok(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--method",
        "me",
        "--categories",
        "12",
        "--sparse",
        "--batch",
        "7",
        "--out-dir",
        idx.to_str().unwrap(),
    ]);
    assert!(out.contains("built sparse tree index over 30 sequences"));

    // info
    let out = run_ok(&["info", "--index-dir", idx.to_str().unwrap()]);
    assert!(out.contains("sequences:      30"));
    assert!(out.contains("sparse (SST_C)"));

    // Extract a real subsequence from the CSV as the query.
    let first_line = std::fs::read_to_string(&csv)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    let query: String = first_line
        .split(',')
        .skip(4)
        .take(6)
        .collect::<Vec<_>>()
        .join(",");

    // search: the planted subsequence must come back with distance 0.
    let out = run_ok(&[
        "search",
        "--index-dir",
        idx.to_str().unwrap(),
        "--query",
        &query,
        "--epsilon",
        "2",
        "--limit",
        "3",
    ]);
    assert!(out.contains("dist 0.0000"), "missing exact hit:\n{out}");
    let idx_answers = out
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    // scan must agree on the answer count.
    let out = run_ok(&[
        "scan",
        "--input",
        csv.to_str().unwrap(),
        "--query",
        &query,
        "--epsilon",
        "2",
    ]);
    let scan_answers = out
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    assert_eq!(idx_answers, scan_answers, "index vs scan answer count");

    // knn
    let out = run_ok(&[
        "knn",
        "--index-dir",
        idx.to_str().unwrap(),
        "--query",
        &query,
        "--k",
        "3",
    ]);
    assert!(out.contains("3 nearest"));
    assert!(out.contains("dist 0.0000"));

    // Bad input is a clean error, not a panic.
    let out = bin()
        .args(["search", "--index-dir", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--query"));

    let out = bin().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--backend esa` builds through the CLI, reports itself in `info`,
/// and answers `search`/`knn` with the same output as a tree build of
/// the same data.
#[test]
fn esa_backend_cli_pipeline() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-esa-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let tree_idx = dir.join("tree-idx");
    let esa_idx = dir.join("esa-idx");

    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "20",
        "--len",
        "40",
        "--seed",
        "5",
        "--out",
        csv.to_str().unwrap(),
    ]);
    let common = [
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--method",
        "me",
        "--categories",
        "10",
        "--sparse",
    ];
    let mut args = common.to_vec();
    args.extend(["--out-dir", tree_idx.to_str().unwrap()]);
    let out = run_ok(&args);
    assert!(out.contains("built sparse tree index over 20 sequences"));
    let mut args = common.to_vec();
    args.extend(["--backend", "esa", "--out-dir", esa_idx.to_str().unwrap()]);
    let out = run_ok(&args);
    assert!(out.contains("built sparse esa index over 20 sequences"));

    let info = run_ok(&["info", "--index-dir", esa_idx.to_str().unwrap()]);
    assert!(info.contains("esa (enhanced suffix array)"), "{info}");
    let info = run_ok(&["info", "--index-dir", tree_idx.to_str().unwrap()]);
    assert!(info.contains("tree (suffix tree)"), "{info}");

    let first_line = std::fs::read_to_string(&csv)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    let query: String = first_line
        .split(',')
        .skip(3)
        .take(5)
        .collect::<Vec<_>>()
        .join(",");
    // Outputs match up to the wall-clock "in N.NNms" fragment (whose
    // unit is µs on a fast enough run).
    let mask_ms = |s: String| -> String {
        match s.find(" in ") {
            Some(a) => match s[a..].find(" (") {
                Some(b) => format!("{} in X{}", &s[..a], &s[a + b..]),
                None => s,
            },
            None => s,
        }
    };
    for cmd in [
        vec![
            "search",
            "--query",
            query.as_str(),
            "--epsilon",
            "2",
            "--limit",
            "5",
        ],
        vec!["knn", "--query", query.as_str(), "--k", "3"],
    ] {
        let mut t = cmd.clone();
        t.extend(["--index-dir", tree_idx.to_str().unwrap()]);
        let mut e = cmd.clone();
        e.extend(["--index-dir", esa_idx.to_str().unwrap()]);
        assert_eq!(
            mask_ms(run_ok(&t)),
            mask_ms(run_ok(&e)),
            "backends disagree on {:?}",
            cmd[0]
        );
    }

    // Unknown backend names fail cleanly at build time.
    let bogus_dir = dir.join("x");
    let mut args = common.to_vec();
    args.extend([
        "--backend",
        "btree",
        "--out-dir",
        bogus_dir.to_str().unwrap(),
    ]);
    let out = bin().args(&args).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("backend"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gen_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.csv"), dir.join("b.csv"));
    for p in [&a, &b] {
        run_ok(&[
            "gen",
            "--kind",
            "stock",
            "--sequences",
            "5",
            "--len",
            "30",
            "--seed",
            "4",
            "--out",
            p.to_str().unwrap(),
        ]);
    }
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_commands() {
    let out = run_ok(&["help"]);
    for cmd in ["gen", "build", "info", "search", "knn", "scan"] {
        assert!(out.contains(cmd), "help missing {cmd}");
    }
    // PathBuf used in signature intentionally.
    let _ = PathBuf::new();
}

#[test]
fn append_extends_a_built_index() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv1, csv2, idx) = (dir.join("one.csv"), dir.join("two.csv"), dir.join("idx"));
    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "10",
        "--len",
        "40",
        "--seed",
        "1",
        "--out",
        csv1.to_str().unwrap(),
    ]);
    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "6",
        "--len",
        "40",
        "--seed",
        "2",
        "--out",
        csv2.to_str().unwrap(),
    ]);
    run_ok(&[
        "build",
        "--input",
        csv1.to_str().unwrap(),
        "--method",
        "me",
        "--categories",
        "10",
        "--sparse",
        "--out-dir",
        idx.to_str().unwrap(),
    ]);
    let out = run_ok(&[
        "append",
        "--input",
        csv2.to_str().unwrap(),
        "--index-dir",
        idx.to_str().unwrap(),
    ]);
    assert!(out.contains("appended 6 sequences"));
    let out = run_ok(&["info", "--index-dir", idx.to_str().unwrap()]);
    assert!(
        out.contains("sequences:      16"),
        "info after append:\n{out}"
    );

    // A query drawn from the appended file must be findable.
    let line = std::fs::read_to_string(&csv2)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    let query: String = line
        .split(',')
        .skip(2)
        .take(5)
        .collect::<Vec<_>>()
        .join(",");
    let out = run_ok(&[
        "search",
        "--index-dir",
        idx.to_str().unwrap(),
        "--query",
        &query,
        "--epsilon",
        "1",
    ]);
    assert!(
        out.contains("dist 0.0000"),
        "appended data searchable:\n{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_file_accepted() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-qfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, idx, qf) = (dir.join("d.csv"), dir.join("idx"), dir.join("q.txt"));
    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "6",
        "--len",
        "30",
        "--seed",
        "3",
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--sparse",
        "--categories",
        "8",
        "--out-dir",
        idx.to_str().unwrap(),
    ]);
    // One value per line.
    let line = std::fs::read_to_string(&csv)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    let vals: Vec<&str> = line.split(',').take(5).collect();
    std::fs::write(&qf, vals.join("\n")).unwrap();
    let out = run_ok(&[
        "search",
        "--index-dir",
        idx.to_str().unwrap(),
        "--query-file",
        qf.to_str().unwrap(),
        "--epsilon",
        "1",
    ]);
    assert!(out.contains("dist 0.0000"), "query-file search:\n{out}");
    // Both at once is an error.
    let out = bin()
        .args([
            "search",
            "--index-dir",
            idx.to_str().unwrap(),
            "--query",
            "1,2",
            "--query-file",
            qf.to_str().unwrap(),
            "--epsilon",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `warptree search … | head -1`: a reader that closes the pipe after the
/// first line ends the report, not the process — exit 0 and no panic,
/// with far more output pending than a pipe buffers.
#[test]
fn search_survives_a_closed_pipe() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("warptree-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, idx) = (dir.join("d.csv"), dir.join("idx"));
    let gen = ["--kind", "stock", "--sequences", "60", "--len", "120"];
    run_ok(&[&["gen"], &gen[..], &["--out", csv.to_str().unwrap()]].concat());
    let build = ["--method", "me", "--categories", "16", "--sparse"];
    let (input, out_dir) = (csv.to_str().unwrap(), idx.to_str().unwrap());
    run_ok(
        &[
            &["build", "--input", input],
            &build[..],
            &["--out-dir", out_dir],
        ]
        .concat(),
    );
    let search = |limit: &str| {
        let mut cmd = bin();
        cmd.args(["search", "--index-dir", out_dir, "--epsilon", "20"]);
        cmd.args(["--query", "30.1,30.5,31.0,30.2", "--limit", limit]);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        cmd.spawn().expect("binary runs")
    };
    // Read to the end, the report is several pipe buffers long...
    let mut whole = String::new();
    let mut child = search("1000000");
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut whole)
        .unwrap();
    assert!(child.wait().unwrap().success());
    assert!(whole.len() > 256 * 1024, "{} bytes", whole.len());
    // ...so a reader that stops after one line leaves the writer mid-report.
    let mut child = search("1000000");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    drop(stdout);
    assert!(first.contains("answers within"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}: {stderr}",
        out.status.code()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mine_and_forecast_commands() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-apps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, full_idx, sparse_idx) = (dir.join("d.csv"), dir.join("full"), dir.join("sparse"));
    run_ok(&[
        "gen",
        "--kind",
        "stock",
        "--sequences",
        "20",
        "--len",
        "50",
        "--seed",
        "11",
        "--out",
        csv.to_str().unwrap(),
    ]);
    run_ok(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--categories",
        "10",
        "--out-dir",
        full_idx.to_str().unwrap(),
    ]);
    run_ok(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--categories",
        "10",
        "--sparse",
        "--out-dir",
        sparse_idx.to_str().unwrap(),
    ]);

    // mine works on the full index and names exemplars by ticker.
    let out = run_ok(&[
        "mine",
        "--index-dir",
        full_idx.to_str().unwrap(),
        "--len",
        "4",
        "--k",
        "2",
    ]);
    assert!(out.contains("top 2 motifs"), "mine output:\n{out}");
    assert!(out.contains("STK"), "ticker names shown:\n{out}");

    // mine refuses a sparse index with a helpful message.
    let out = bin()
        .args(["mine", "--index-dir", sparse_idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("full index"));

    // forecast produces a horizon of estimates.
    let line = std::fs::read_to_string(&csv)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    let query: String = line
        .split(',')
        .skip(10)
        .take(8)
        .collect::<Vec<_>>()
        .join(",");
    let out = run_ok(&[
        "forecast",
        "--index-dir",
        full_idx.to_str().unwrap(),
        "--query",
        &query,
        "--epsilon",
        "10",
        "--horizon",
        "2",
    ]);
    assert!(out.contains("+1:"), "forecast output:\n{out}");
    assert!(out.contains("+2:"));
    std::fs::remove_dir_all(&dir).unwrap();
}
