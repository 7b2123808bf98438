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

/// An append keeps the names its CSV gives: a match in an appended
/// sequence is reported under its name, and `info` says how the corpus
/// holds its whole-cent values.
#[test]
fn appended_sequences_keep_their_names() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-named-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv1, csv2, idx) = (dir.join("one.csv"), dir.join("two.csv"), dir.join("idx"));
    std::fs::write(
        &csv1,
        "BASE1, 10.25, 11.50, 12.75, 11.00, 10.00\nBASE2, 20.00, 21.10, 19.95\n",
    )
    .unwrap();
    std::fs::write(&csv2, "NEWCO, 30.10, 31.20, 32.30, 31.40\n40.00, 41.00\n").unwrap();
    let idx_s = idx.to_str().unwrap();
    run_ok(&[
        "build",
        "--input",
        csv1.to_str().unwrap(),
        "--categories",
        "4",
        "--out-dir",
        idx_s,
    ]);
    run_ok(&[
        "append",
        "--input",
        csv2.to_str().unwrap(),
        "--index-dir",
        idx_s,
    ]);
    let out = run_ok(&[
        "search",
        "--index-dir",
        idx_s,
        "--query",
        "30.10,31.20,32.30",
        "--epsilon",
        "0.01",
    ]);
    assert!(out.contains("NEWCO"), "appended name lost:\n{out}");
    let out = run_ok(&["info", "--index-dir", idx_s]);
    assert!(out.contains("2-decimal delta varints"), "info:\n{out}");
    let json = run_ok(&["info", "--index-dir", idx_s, "--json"]);
    assert!(
        json.contains("\"decimals\":2,\"file_bytes\":8192}"),
        "info --json:\n{json}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
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

    // mine counts the corpus, not the index: a sparse directory mines
    // the same motifs as the full one.
    let mine = |idx: &PathBuf| {
        let dir = idx.to_str().unwrap();
        run_ok(&["mine", "--index-dir", dir, "--len", "4", "--k", "2"])
    };
    assert_eq!(mine(&sparse_idx), mine(&full_idx));

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

/// Writes 24 sequences over the values 0..=9 to `path` as CSV. The
/// first line holds both 0 and 9, so an equal-length alphabet fit on
/// any prefix of the file is the one fit on the whole file.
fn write_levels_csv(path: &std::path::Path) -> Vec<String> {
    let lines: Vec<String> = (0..24u32)
        .map(|s| {
            let values = (0..30u32).map(|i| match (s, i) {
                (0, 0) => 0,
                (0, 1) => 9,
                _ => (s * 7 + i * i * 3 + i / 4) % 10,
            });
            values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        })
        .collect();
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
    lines
}

/// `mine` answers over every live sequence: a directory built from a
/// CSV's first half and appended its second half mines exactly what a
/// directory built from the whole CSV does, on either backend.
#[test]
fn mine_counts_appended_sequences() {
    let dir = std::env::temp_dir().join(format!("warptree-cli-mine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let whole = dir.join("whole.csv");
    let lines = write_levels_csv(&whole);
    let (first, second) = (dir.join("first.csv"), dir.join("second.csv"));
    std::fs::write(&first, lines[..12].join("\n") + "\n").unwrap();
    std::fs::write(&second, lines[12..].join("\n") + "\n").unwrap();
    let build = |csv: &PathBuf, backend: &str, out: &PathBuf| {
        run_ok(&[
            "build",
            "--input",
            csv.to_str().unwrap(),
            "--method",
            "el",
            "--categories",
            "5",
            "--backend",
            backend,
            "--out-dir",
            out.to_str().unwrap(),
        ]);
    };
    let mine = |idx: &PathBuf| {
        let dir = idx.to_str().unwrap();
        run_ok(&["mine", "--index-dir", dir, "--len", "3", "--k", "6"])
    };
    let mut outputs = Vec::new();
    for backend in ["tree", "esa"] {
        let (appended, one_go) = (dir.join(format!("{backend}-appended")), dir.join(backend));
        build(&first, backend, &appended);
        let appended_s = appended.to_str().unwrap();
        run_ok(&[
            "append",
            "--input",
            second.to_str().unwrap(),
            "--index-dir",
            appended_s,
        ]);
        build(&whole, backend, &one_go);
        let out = mine(&one_go);
        assert!(out.contains("top 6 motifs of length 3"), "{out}");
        assert_eq!(mine(&appended), out, "{backend}: appended vs one build");
        outputs.push(out);
    }
    assert_eq!(outputs[0], outputs[1], "tree vs esa");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `info --deep --json` reports one `structure` object for tree and
/// ESA builds of the same CSV: both present the same logical tree. There
/// is no page pool to profile, so neither reports a `cache` block.
#[test]
fn info_deep_structure_is_backend_neutral() {
    use warptree::server::json::{parse, Json};
    let dir = std::env::temp_dir().join(format!("warptree-cli-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("levels.csv");
    write_levels_csv(&csv);
    for sparse in [false, true] {
        let structure = |backend: &str| -> Json {
            let idx = dir.join(format!("{backend}-{sparse}"));
            let mut args = vec![
                "build",
                "--input",
                csv.to_str().unwrap(),
                "--categories",
                "5",
            ];
            args.extend(["--backend", backend, "--out-dir", idx.to_str().unwrap()]);
            if sparse {
                args.push("--sparse");
            }
            run_ok(&args);
            let out = run_ok(&[
                "info",
                "--index-dir",
                idx.to_str().unwrap(),
                "--deep",
                "--json",
            ]);
            let info = parse(&out).unwrap();
            let structure = info.get("structure").unwrap().clone();
            let suffixes = info.get("index").and_then(|i| i.get("suffixes")).cloned();
            assert_eq!(structure.get("suffixes").cloned(), suffixes, "{backend}");
            assert!(info.get("cache").is_none(), "{backend}");
            structure
        };
        let tree = structure("tree");
        assert!(tree.get("nodes").and_then(Json::as_u64).unwrap() > 1);
        assert_eq!(tree, structure("esa"), "sparse: {sparse}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A base index over 30 generated sequences and one tail segment over
/// 20 more, in a fresh scratch directory. Returns the scratch
/// directory, the index directory, the base CSV and a query drawn from
/// the tail's data.
fn base_and_tail(tag: &str) -> (PathBuf, PathBuf, PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("warptree-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (base, more, idx) = (dir.join("base.csv"), dir.join("more.csv"), dir.join("idx"));
    for (csv, n, seed) in [(&base, "30", "7"), (&more, "20", "8")] {
        let csv = csv.to_str().unwrap();
        run_ok(&[
            "gen",
            "--sequences",
            n,
            "--len",
            "60",
            "--seed",
            seed,
            "--out",
            csv,
        ]);
    }
    let (base_s, more_s, idx_s) = (
        base.to_str().unwrap(),
        more.to_str().unwrap(),
        idx.to_str().unwrap(),
    );
    run_ok(&[
        "build",
        "--input",
        base_s,
        "--categories",
        "12",
        "--out-dir",
        idx_s,
    ]);
    run_ok(&["append", "--input", more_s, "--index-dir", idx_s]);
    let line = std::fs::read_to_string(&more).unwrap();
    let query = line.lines().nth(3).unwrap().split(',').skip(20).take(8);
    (dir, idx, base, query.collect::<Vec<_>>().join(","))
}

/// The one file of `idx` whose name starts with `prefix`.
fn data_file(idx: &std::path::Path, prefix: &str) -> PathBuf {
    let mut found = std::fs::read_dir(idx)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix));
    let path = found.next().expect("a committed file");
    assert!(found.next().is_none());
    path
}

/// Flips one byte in every page of `path` from page `from` on.
fn corrupt_pages_from(path: &std::path::Path, from: usize) {
    const PAGE: usize = 8192;
    let mut bytes = std::fs::read(path).unwrap();
    let pages = bytes.len() / PAGE;
    assert!(pages > from.max(2), "{} is too small", path.display());
    for page in from..pages {
        bytes[page * PAGE + 17] ^= 0xA5;
    }
    std::fs::write(path, &bytes).unwrap();
}

/// Runs the CLI; returns its exit code, stdout and stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = bin().args(args).output().expect("binary runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// The `degraded:` line a query over `idx` with `file` damaged prints.
fn assert_degraded_line(stderr: &str, file: &str) {
    let line = stderr.lines().find(|l| l.starts_with("degraded: "));
    let line = line.unwrap_or_else(|| panic!("no degraded: line in\n{stderr}"));
    let head = "degraded: answered by sequential scan; damaged ";
    assert!(line.starts_with(head), "{line}");
    assert!(line.contains(file), "{line}");
    assert!(line.contains("run `warptree scrub"), "{line}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A query report's match lines. The head line carries the wall time
/// and the funnel counts of the plan that answered, so it is left out.
fn match_lines(stdout: &str) -> Vec<String> {
    stdout.lines().skip(1).map(str::to_string).collect()
}

/// `search` (every match) and `knn` over `idx`: exit 0, and the match
/// lines of each, and stderr.
fn search_and_knn(idx: &str, query: &str) -> [(Vec<String>, String); 2] {
    let search = [
        "search",
        "--index-dir",
        idx,
        "--query",
        query,
        "--epsilon",
        "4",
        "--limit",
        "100000",
    ];
    let knn = ["knn", "--index-dir", idx, "--query", query, "--k", "3"];
    [&search[..], &knn[..]].map(|args| {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(0), "{stderr}");
        (match_lines(&stdout), stderr)
    })
}

/// A tail whose pages fail their CRC: `search`, `knn` and `explain`
/// answer by sequential scan, exit 0 and say so on stderr — and the
/// answers are the clean directory's, which are the sequential scan's
/// over the whole corpus.
#[test]
fn a_corrupt_tail_answers_like_the_clean_directory() {
    let (dir, idx, _, query) = base_and_tail("corrupt-tail");
    let seg = data_file(&idx, "segment-");
    let name = seg.file_name().unwrap().to_str().unwrap();
    let q = query.as_str();
    let explain = |idx: &str| {
        let args = [
            "explain",
            "--index-dir",
            idx,
            "--query",
            q,
            "--epsilon",
            "4",
            "--json",
        ];
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, Some(0), "{stderr}");
        let v = warptree::server::json::parse(stdout.trim()).unwrap();
        let answers = v.get("funnel").and_then(|f| f.get("answers"));
        let plan = v.get("plan").and_then(|p| p.as_str().map(str::to_string));
        (answers.and_then(|a| a.as_u64()), plan.unwrap(), stderr)
    };

    let clean = {
        let idx = idx.to_str().unwrap();
        let [search, knn] = search_and_knn(idx, q);
        assert!(
            search.1.is_empty() && knn.1.is_empty(),
            "{}{}",
            search.1,
            knn.1
        );
        let (answers, plan, _) = explain(idx);
        assert_eq!(plan, "index");
        (search.0, knn.0, answers)
    };
    // The clean answer is the sequential scan's over the whole corpus.
    let opened = warptree::open_index_dir(&idx, 64).unwrap();
    let values: Vec<f64> = query.split(',').map(|v| v.parse().unwrap()).collect();
    let params = warptree::core::search::SearchParams::with_epsilon(4.0);
    let mut stats = warptree::core::search::SearchStats::default();
    use warptree::core::search::{seq_scan, SeqScanMode};
    let scan = seq_scan(
        &opened.store,
        &values,
        &params,
        SeqScanMode::Full,
        &mut stats,
    );
    assert!(!scan.is_empty(), "the comparison needs answers");
    let mut want: Vec<String> = (scan.matches().iter())
        .map(|m| {
            let name = opened.store.display_name(m.occ.seq);
            format!("  {} ({name})  dist {:.4}", m.occ, m.dist)
        })
        .collect();
    let mut got = clean.0.clone();
    want.sort();
    got.sort();
    assert_eq!(got, want);
    assert_eq!(clean.2, Some(scan.len() as u64));
    drop(opened);

    corrupt_pages_from(&seg, 1);
    let idx = idx.to_str().unwrap();
    let [search, knn] = search_and_knn(idx, q);
    assert_eq!(search.0, clean.0);
    assert_degraded_line(&search.1, name);
    assert_eq!(knn.0, clean.1);
    assert_eq!(knn.0.len(), 3);
    assert_degraded_line(&knn.1, name);
    let (answers, plan, stderr) = explain(idx);
    assert_eq!((answers, plan.as_str()), (clean.2, "scan"));
    assert_degraded_line(&stderr, name);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// After `scrub --check-only` quarantines the corrupt tail, `search`
/// no longer reads it, still answers like the clean directory, and
/// says the answer came by scan; `explain` says so too.
#[test]
fn a_quarantined_tail_answers_like_the_clean_directory() {
    let (dir, idx, _, query) = base_and_tail("quarantined-tail");
    let seg = data_file(&idx, "segment-");
    let name = seg.file_name().unwrap().to_str().unwrap();
    let idx = idx.to_str().unwrap();
    let [clean, clean_knn] = search_and_knn(idx, &query);
    assert!(!clean.0.is_empty(), "the comparison needs answers");
    corrupt_pages_from(&seg, 1);
    run(&["scrub", "--check-only", idx]);
    let [search, knn] = search_and_knn(idx, &query);
    assert_eq!(search.0, clean.0);
    assert_degraded_line(&search.1, name);
    assert_eq!(knn.0, clean_knn.0);
    let (_, _, stderr) = run(&[
        "explain",
        "--index-dir",
        idx,
        "--query",
        &query,
        "--epsilon",
        "4",
    ]);
    assert_degraded_line(&stderr, name);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A base index whose pages fail their CRC past the header answers like
/// the clean directory, by scan, exit 0, naming the file on stderr. A
/// base whose header page fails cannot be answered around: the open is
/// a typed error naming the file, exit code 1, no panic.
#[test]
fn a_corrupt_base_answers_like_the_clean_directory() {
    let (dir, idx, _, query) = base_and_tail("corrupt-base");
    let index = data_file(&idx, "index-");
    let name = index.file_name().unwrap().to_str().unwrap();
    let pages = std::fs::metadata(&index).unwrap().len() as usize / 8192;
    let idx = idx.to_str().unwrap();
    let clean = search_and_knn(idx, &query);
    corrupt_pages_from(&index, pages / 2);
    for (got, want) in search_and_knn(idx, &query).iter().zip(&clean) {
        assert_eq!(got.0, want.0);
        assert_degraded_line(&got.1, name);
    }
    let mut bytes = std::fs::read(&index).unwrap();
    bytes[17] ^= 0xA5;
    std::fs::write(&index, &bytes).unwrap();
    for args in [
        &[
            "search",
            "--index-dir",
            idx,
            "--query",
            &query,
            "--epsilon",
            "4",
        ][..],
        &["knn", "--index-dir", idx, "--query", &query],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.starts_with(&format!("error: corruption detected in {name} (page 0)")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
