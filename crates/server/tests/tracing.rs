//! End-to-end tests of the per-query tracing layer over the wire:
//! client-requested span trees, the queue/service
//! timing split, the slow-query ring, and the Prometheus metrics
//! exposition (framed op and plain-HTTP endpoint).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use warptree_core::categorize::Alphabet;
use warptree_core::search::SearchParams;
use warptree_core::sequence::SequenceStore;
use warptree_disk::{build_dir_with, real_vfs, TreeKind};
use warptree_server::json::{self, Json};
use warptree_server::{Client, Request, Server, ServerConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn build_index(dir: &Path) -> SequenceStore {
    let mut values = Vec::new();
    for s in 0..8u32 {
        let len = 14 + (s as usize * 5) % 12;
        let seq: Vec<f64> = (0..len)
            .map(|j| ((s as usize * 7 + j * 3) % 19) as f64 * 0.5)
            .collect();
        values.push(seq);
    }
    let store = SequenceStore::from_values(values);
    let alphabet = Alphabet::equal_length(&store, 5).unwrap();
    build_dir_with(
        real_vfs(),
        &store,
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        dir,
    )
    .unwrap();
    store
}

fn search_body(query: &[f64], epsilon: f64, trace_id: Option<&str>) -> String {
    let req = Request::Search {
        query: query.to_vec(),
        params: SearchParams::with_epsilon(epsilon),
    };
    req.encode(trace_id)
}

fn span_names(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(|s| s.as_arr())
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

/// The tentpole acceptance path: a client asks for a trace and gets
/// the whole funnel back — per-segment filter fan-out, postprocess,
/// pager I/O attribution, the server service span — while the result
/// bytes stay identical to the untraced response.
#[test]
fn traced_search_returns_funnel_span_tree_with_identical_results() {
    let dir = tmpdir("funnel");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[2..8].to_vec();

    let config = ServerConfig {
        trace_sample: 0, // only client-requested traces
        slow_ms: 0,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Ingest a tail segment so the filter fans out over base + segment
    // and the trace can attribute work per segment.
    let seg: Vec<Vec<f64>> = vec![store.iter().nth(1).unwrap().1.values().to_vec()];
    let resp = client.ingest(&seg).unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));

    let plain = client.request_raw(&search_body(&query, 1.5, None)).unwrap();
    let traced = client
        .request_raw(&search_body(&query, 1.5, Some("e2e-1")))
        .unwrap();

    // Every ok response carries the timing split; the trace comes only
    // on request. The result prefix (generation/count/matches) is
    // shared by both, byte for byte.
    let (prefix, timings) = plain
        .split_once(",\"timings\":{\"queue_ns\":")
        .expect("plain response carries timings");
    assert!(prefix.contains("\"matches\":["), "{plain}");
    assert!(!timings.contains("\"trace\""), "{plain}");
    assert!(traced.starts_with(prefix), "{traced}");

    let parsed = json::parse(&traced).unwrap();
    let timings = parsed.get("timings").unwrap();
    assert!(timings.get("queue_ns").and_then(|v| v.as_u64()).is_some());
    assert!(timings.get("service_ns").and_then(|v| v.as_u64()).is_some());
    let trace = parsed
        .get("trace")
        .expect("traced response carries a trace");
    assert_eq!(
        trace.get("trace_id").and_then(|v| v.as_str()),
        Some("e2e-1")
    );
    let names = span_names(trace);
    for want in ["server.service", "filter", "filter.segment", "postprocess"] {
        assert!(
            names.iter().any(|n| n == want),
            "span {want:?} missing from {names:?}"
        );
    }
    // The segment fan-out is attributed: base tree + one ingested
    // segment → two filter.segment spans.
    assert_eq!(names.iter().filter(|n| *n == "filter.segment").count(), 2);

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sampling traces 1-in-N requests without the client asking, and the
/// completed traces land in the slow-query ring behind `{"op":"slowlog"}`.
#[test]
fn sampled_traces_land_in_the_slowlog_ring() {
    let dir = tmpdir("slowlog");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[0..5].to_vec();

    let config = ServerConfig {
        trace_sample: 1, // trace every request
        slow_ms: 0,      // threshold capture off: entries come from sampling alone
        slowlog_capacity: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for _ in 0..3 {
        let resp = client.request_raw(&search_body(&query, 1.0, None)).unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // Sampler-only traces stay server-side: the response is not
        // burdened with a trace the client never asked for.
        assert!(!resp.contains("\"trace\""), "{resp}");
    }

    let resp = client.slowlog().unwrap();
    assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
    let entries = resp.get("entries").and_then(|e| e.as_arr()).unwrap();
    assert!(
        entries.len() >= 3,
        "expected >=3 entries, got {}",
        entries.len()
    );
    let newest = &entries[0];
    assert_eq!(newest.get("op").and_then(|v| v.as_str()), Some("search"));
    assert!(newest.get("dur_ns").and_then(|v| v.as_u64()).is_some());
    assert!(newest.get("queue_ns").and_then(|v| v.as_u64()).is_some());
    assert!(newest.get("unix_ms").and_then(|v| v.as_u64()).unwrap() > 0);
    let trace = newest.get("trace").expect("sampled entry keeps its trace");
    assert!(span_names(trace).iter().any(|n| n == "filter"));

    // The ring size satellite: stats exposes server.slowlog_entries.
    let stats = client.stats().unwrap();
    let gauge = stats
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("server.slowlog_entries"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(gauge >= 3.0, "gauge {gauge}");

    // A retired protocol version is refused with the typed code.
    let resp = client
        .request_raw(r#"{"op":"slowlog","version":3}"#)
        .unwrap();
    assert!(resp.contains("\"code\":\"unsupported_version\""), "{resp}");

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The metrics exposition satellite: the same Prometheus text is
/// served over the framed `{"op":"metrics"}` op and the plain-HTTP
/// `GET /metrics` endpoint, with `# TYPE` lines and no duplicates.
#[test]
fn metrics_exposition_over_frame_and_http() {
    let dir = tmpdir("expo");
    let store = build_index(&dir);
    let query: Vec<f64> = store.iter().next().unwrap().1.values()[0..5].to_vec();

    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request_raw(&search_body(&query, 1.0, None)).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");

    let framed = client.metrics().unwrap();
    assert_eq!(framed.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        framed.get("format").and_then(|v| v.as_str()),
        Some("prometheus-0.0.4")
    );
    let exposition = framed
        .get("exposition")
        .and_then(|v| v.as_str())
        .unwrap()
        .to_string();
    assert!(
        exposition.contains("# TYPE server_requests_ok counter"),
        "{exposition}"
    );
    assert!(
        exposition.contains("server_request_ns_count"),
        "{exposition}"
    );

    // No duplicate metric names in the exposition (Prometheus rejects
    // a scrape with repeated TYPE/name groups).
    let mut names: Vec<&str> = exposition
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .map(|l| l.split_whitespace().nth(2).unwrap())
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(total, names.len(), "duplicate # TYPE lines");

    // The HTTP endpoint serves the same registry.
    let addr = handle.metrics_addr().expect("metrics_addr configured");
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut http = String::new();
    s.read_to_string(&mut http).unwrap();
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    assert!(http.contains("text/plain; version=0.0.4"), "{http}");
    assert!(http.contains("# TYPE server_requests_ok counter"), "{http}");

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
