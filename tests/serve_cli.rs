//! End-to-end test of the serving CLI: `gen` → `build` → `warptree
//! serve` in the background → `warptree bench-client` burst against it
//! → protocol shutdown → clean exit, with the committed benchmark JSON
//! validated against its schema.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use warptree::server::json::{self, Json};
use warptree::server::Client;

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
fn serve_and_bench_client_round_trip() {
    let dir = std::env::temp_dir().join(format!("warptree-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("data.csv");
    let idx = dir.join("idx");
    let bench_out = dir.join("bench.json");

    run_ok(&[
        "gen",
        "--kind",
        "walk",
        "--sequences",
        "20",
        "--len",
        "60",
        "--seed",
        "7",
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
        idx.to_str().unwrap(),
    ]);

    // Serve in the background on an ephemeral port; the first stdout
    // line advertises the bound address.
    let mut server = bin()
        .args([
            "serve",
            idx.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut first_line = String::new();
    // Held to the end of the test: the banner has more lines, and a
    // reader dropped after the first closes the server's stdout.
    let mut banner = BufReader::new(server.stdout.take().unwrap());
    banner.read_line(&mut first_line).unwrap();
    let addr = first_line
        .trim()
        .rsplit(" on ")
        .next()
        .expect("serve announces its address")
        .to_string();
    assert!(
        first_line.starts_with("serving "),
        "unexpected banner: {first_line}"
    );

    // A closed-loop burst, committed to JSON.
    let out = run_ok(&[
        "bench-client",
        "--addr",
        &addr,
        "--input",
        csv.to_str().unwrap(),
        "--queries",
        "8",
        "--connections",
        "4",
        "--requests",
        "60",
        "--out",
        bench_out.to_str().unwrap(),
    ]);
    assert!(out.contains("throughput"), "bench summary:\n{out}");

    // The emitted report honors the BENCH_serve.json schema.
    let report = json::parse(&std::fs::read_to_string(&bench_out).unwrap()).unwrap();
    assert_eq!(report.get("sent").and_then(Json::as_u64), Some(60));
    assert_eq!(report.get("connections").and_then(Json::as_u64), Some(4));
    assert_eq!(
        report.get("errors").and_then(Json::as_u64),
        Some(0),
        "bench summary:\n{out}"
    );
    assert!(report.get("ok").and_then(Json::as_u64).unwrap_or(0) > 0);
    let latency = report.get("latency_us").expect("latency block");
    for q in ["p50", "p95", "p99", "max"] {
        assert!(
            latency.get(q).and_then(Json::as_u64).is_some(),
            "missing {q}"
        );
    }
    assert!(
        report
            .get("throughput_rps")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    // Server-side split (from the v4 per-response timings block):
    // queue wait and service percentiles, plus the connection-failure
    // counter, are part of the committed schema.
    assert_eq!(report.get("conn_failures").and_then(Json::as_u64), Some(0));
    for block in ["queue_wait_us", "service_us"] {
        let split = report.get(block).expect(block);
        for q in ["p50", "p95", "p99"] {
            assert!(
                split.get(q).and_then(Json::as_u64).is_some(),
                "missing {block}.{q}"
            );
        }
    }

    // What the split leaves of the latency: on loopback, a fraction of
    // a millisecond — a reply stalled by the transport reads ≈ 40 ms.
    let unattributed = report.get("unattributed_us").expect("unattributed_us");
    for q in ["p50", "p95"] {
        assert!(
            unattributed.get(q).and_then(Json::as_u64).is_some(),
            "missing unattributed_us.{q}"
        );
    }

    // Protocol shutdown drains the server and the process exits cleanly.
    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--reload-ms 0` is refused at startup with a non-zero exit, instead
/// of a watcher re-reading `MANIFEST` in a hot loop.
#[test]
fn serve_refuses_a_zero_reload_interval() {
    let dir = std::env::temp_dir().join(format!("warptree-serve-zero-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = warptree::prelude::SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0]]);
    let categories = warptree::Categorization::EqualLength(2);
    warptree::build_index_dir(&store, categories, false, 1, &dir).unwrap();
    let mut serve = bin()
        .args([
            "serve",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--reload-ms",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Bounded: a server that accepted the interval would never exit.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            serve.kill().unwrap();
            panic!("serve accepted --reload-ms 0");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut serve.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("reload_interval"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
