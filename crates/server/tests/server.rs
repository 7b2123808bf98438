//! End-to-end tests of the TCP server against a real index directory:
//! concurrent byte-identical equivalence with the in-process search,
//! admission control (bounded queue, typed `overloaded`), deadlines,
//! bad-request robustness, control-op schemas, and — through the checks
//! shared with the coordinator's suite (`common`) — the serving loop
//! itself: connection cap, mid-frame stalls, oversize clamp, drain.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use warptree_core::categorize::Alphabet;
use warptree_core::search::{KnnParams, QueryRequest, SearchParams};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{build_dir_with, open_dir_snapshot_with, real_vfs, DirSnapshot, TreeKind};
use warptree_server::client::search_request_v4;
use warptree_server::{proto, Client, ClientError, Server, ServerConfig};

use common::strip_timings;

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-server-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A deterministic corpus with enough structure for non-trivial answer
/// sets: interleaved ramps and plateaus, all values on a small grid so
/// ε-balls overlap several occurrences.
fn corpus() -> SequenceStore {
    let mut values = Vec::new();
    for s in 0..10u32 {
        let len = 15 + (s as usize * 3) % 16;
        let mut seq = Vec::with_capacity(len);
        for j in 0..len {
            let v = ((s as usize * 7 + j * 3) % 23) as f64 * 0.5;
            seq.push(v);
        }
        values.push(seq);
    }
    SequenceStore::from_values(values)
}

/// Builds generation 1 of `dir` from [`corpus`], returning the store.
fn build_index(dir: &Path) -> SequenceStore {
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
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

/// Queries drawn from the corpus (exact subsequences → guaranteed
/// zero-distance hits) plus one off-grid probe.
fn queries(store: &SequenceStore) -> Vec<Vec<f64>> {
    let seq = |i: usize| store.iter().nth(i).unwrap().1.values().to_vec();
    vec![
        seq(0)[2..8].to_vec(),
        seq(3)[0..5].to_vec(),
        seq(5)[4..10].to_vec(),
        vec![3.25, 4.75, 6.0, 2.5],
    ]
}

/// Renders the exact response the server must emit for a `search`
/// request — same encoder ([`proto::encode_matches`]), same framing
/// ([`proto::ok_response`]), computed against a locally opened
/// snapshot of the same generation.
fn expected_search_response(snap: &DirSnapshot, query: &[f64], epsilon: f64) -> String {
    let params = SearchParams::with_epsilon(epsilon);
    let (out, _) = snap
        .query(&QueryRequest::threshold_params(query, params))
        .unwrap();
    let answers = out.into_answer_set();
    proto::ok_response(
        "search",
        &format!(
            "\"generation\":{},\"count\":{},\"matches\":{}",
            snap.generation,
            answers.len(),
            proto::encode_matches(answers.matches())
        ),
    )
}

#[test]
fn concurrent_connections_match_local_search_byte_for_byte() {
    let dir = tmpdir("equivalence");
    let store = build_index(&dir);
    let snap = open_dir_snapshot_with(real_vfs().as_ref(), &dir).unwrap();
    let qs = queries(&store);
    let epsilons = [0.5, 1.0, 2.5];

    // The single-threaded ground truth, rendered once up front.
    let mut expected = Vec::new();
    let mut bodies = Vec::new();
    let mut any_hits = 0usize;
    for q in &qs {
        for &eps in &epsilons {
            expected.push(expected_search_response(&snap, q, eps));
            bodies.push(search_request_v4(q, eps, None));
            if expected.last().unwrap().contains("\"count\":0") {
                continue;
            }
            any_hits += 1;
        }
    }
    assert!(any_hits > 0, "fixture produced only empty answer sets");

    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let expected = Arc::new(expected);
    let bodies = Arc::new(bodies);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (body, want) in bodies.iter().zip(expected.iter()) {
                    let got = strip_timings(&client.request_raw(body).unwrap());
                    assert_eq!(&got, want, "response differs for request {body}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn knn_over_the_wire_matches_local_knn() {
    let dir = tmpdir("knn");
    let store = build_index(&dir);
    let snap = open_dir_snapshot_with(real_vfs().as_ref(), &dir).unwrap();
    let query = queries(&store)[0].clone();

    let (out, _) = snap
        .query(&QueryRequest::knn_params(&query, KnnParams::new(3)))
        .unwrap();
    let matches = out.into_ranked();
    let want = proto::ok_response(
        "knn",
        &format!(
            "\"generation\":{},\"count\":{},\"matches\":{}",
            snap.generation,
            matches.len(),
            proto::encode_matches_ranked(&matches)
        ),
    );

    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = format!(
        "{{\"op\":\"knn\",\"query\":{},\"k\":3}}",
        warptree_server::client::encode_query(&query)
    );
    assert_eq!(strip_timings(&client.request_raw(&body).unwrap()), want);

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_composes_individual_search_bodies() {
    let dir = tmpdir("batch");
    let store = build_index(&dir);
    let snap = open_dir_snapshot_with(real_vfs().as_ref(), &dir).unwrap();
    let qs = queries(&store);
    let eps = 1.0;

    let mut parts = Vec::new();
    for q in &qs[..2] {
        let params = SearchParams::with_epsilon(eps);
        let (out, _) = snap
            .query(&QueryRequest::threshold_params(q, params))
            .unwrap();
        let answers = out.into_answer_set();
        parts.push(format!(
            "{{\"generation\":{},\"count\":{},\"matches\":{}}}",
            snap.generation,
            answers.len(),
            proto::encode_matches(answers.matches())
        ));
    }
    let want = proto::ok_response(
        "batch",
        &format!(
            "\"generation\":{},\"results\":[{}]",
            snap.generation,
            parts.join(",")
        ),
    );

    let body = format!(
        "{{\"op\":\"batch\",\"queries\":[{},{}],\"epsilon\":1.0}}",
        warptree_server::client::encode_query(&qs[0]),
        warptree_server::client::encode_query(&qs[1]),
    );

    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(strip_timings(&client.request_raw(&body).unwrap()), want);

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn full_queue_rejects_with_typed_overloaded_error() {
    let dir = tmpdir("overload");
    build_index(&dir);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        enable_debug_ops: true,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let addr = handle.addr();

    // Occupy the single worker, then the single queue slot.
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request("{\"op\":\"debug_sleep\",\"ms\":900}").unwrap();
    });
    std::thread::sleep(Duration::from_millis(250));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request("{\"op\":\"debug_sleep\",\"ms\":200}").unwrap();
    });
    std::thread::sleep(Duration::from_millis(250));

    // Worker busy + queue full → admission control rejects *now*.
    let mut rejected = Client::connect(addr).unwrap();
    let err = rejected.search(&[1.0, 2.0], 1.0, None).unwrap_err();
    assert_eq!(err.code(), Some("overloaded"), "got: {err}");

    // Control ops bypass the pool: health answers while saturated.
    let health = rejected.health().unwrap();
    assert_eq!(
        health.get("status").and_then(warptree_server::Json::as_str),
        Some("serving")
    );

    busy.join().unwrap();
    queued.join().unwrap();

    // Once the pool drains, the same connection is served normally.
    let ok = rejected.search(&[1.0, 2.0], 1.0, None).unwrap();
    assert_eq!(
        ok.get("op").and_then(warptree_server::Json::as_str),
        Some("search")
    );

    let snap = handle.registry().snapshot();
    assert!(
        snap.counters.get("server.rejected_overload").copied() >= Some(1),
        "overload rejection not counted: {:?}",
        snap.counters
    );

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queued_request_past_its_deadline_is_dropped_unstarted() {
    let dir = tmpdir("deadline");
    build_index(&dir);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 4,
        deadline: Duration::from_millis(300),
        enable_debug_ops: true,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let addr = handle.addr();

    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        // Longer than the deadline: anything queued behind it expires.
        c.request("{\"op\":\"debug_sleep\",\"ms\":800}").unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(addr).unwrap();
    let err = client.search(&[1.0, 2.0], 1.0, None).unwrap_err();
    assert_eq!(err.code(), Some("deadline_exceeded"), "got: {err}");

    busy.join().unwrap();
    let snap = handle.registry().snapshot();
    assert!(
        snap.counters.get("server.deadline_exceeded").copied() >= Some(1),
        "expiry not counted: {:?}",
        snap.counters
    );

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_requests_get_typed_errors_and_never_kill_the_connection() {
    let dir = tmpdir("badreq");
    let store = build_index(&dir);
    let config = ServerConfig {
        max_query_len: 8,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let bad = [
        "this is not json",
        "{\"op\":\"teapot\"}",
        "{\"op\":\"search\",\"epsilon\":1.0}",
        "{\"op\":\"search\",\"query\":[],\"epsilon\":1.0}",
        "{\"op\":\"search\",\"query\":[1.0,\"x\"],\"epsilon\":1.0}",
        "{\"op\":\"search\",\"query\":[1.0],\"epsilon\":-2.0}",
        // Over max_query_len=8.
        "{\"op\":\"search\",\"query\":[1,2,3,4,5,6,7,8,9,10],\"epsilon\":1.0}",
        // Debug ops are off by default: unknown op.
        "{\"op\":\"debug_sleep\",\"ms\":1}",
    ];
    for body in bad {
        let err = client.request(body).unwrap_err();
        match err {
            ClientError::Server { ref code, .. } => {
                assert_eq!(code, "bad_request", "body {body}: {err}")
            }
            other => panic!("body {body}: wanted a typed server error, got {other}"),
        }
    }

    // The same connection still serves valid work afterwards.
    let q = queries(&store)[0].clone();
    let ok = client.search(&q, 1.0, None).unwrap();
    assert_eq!(
        ok.get("ok").and_then(warptree_server::Json::as_bool),
        Some(true)
    );

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn control_ops_report_index_and_process_state() {
    let dir = tmpdir("control");
    let store = build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    use warptree_server::Json;

    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("serving"));
    assert_eq!(health.get("generation").and_then(Json::as_u64), Some(1));

    let info = client.info().unwrap();
    assert_eq!(
        info.get("sequences").and_then(Json::as_u64),
        Some(store.len() as u64)
    );
    assert_eq!(
        info.get("values").and_then(Json::as_u64),
        Some(store.total_len())
    );
    assert_eq!(info.get("categories").and_then(Json::as_u64), Some(6));
    assert_eq!(info.get("workers").and_then(Json::as_u64), Some(4));

    // Run one search so the search metrics have something to show.
    let q = queries(&store)[0].clone();
    client.search(&q, 1.0, None).unwrap();

    let stats = client.stats().unwrap();
    let metrics = stats.get("metrics").expect("stats carries metrics");
    for section in ["counters", "gauges", "histograms"] {
        assert!(metrics.get(section).is_some(), "missing {section}");
    }
    let counters = metrics.get("counters").unwrap();
    assert_eq!(
        counters.get("server.requests_ok").and_then(Json::as_u64),
        Some(1)
    );
    assert!(
        counters
            .get("search.filter_cells")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "shared search metrics not wired into the server"
    );
    assert!(
        metrics
            .get("histograms")
            .and_then(|h| h.get("server.request_ns"))
            .is_some(),
        "request latency histogram missing"
    );

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn slow_client_mid_frame_pauses_do_not_desync_the_stream() {
    let dir = tmpdir("slowclient");
    build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    common::slow_client_mid_frame_pauses_do_not_desync_the_stream(handle.addr());
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sequential_replies_do_not_stall() {
    let dir = tmpdir("nostall");
    build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    common::sequential_replies_do_not_stall(handle.addr());
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connection_cap_rejects_with_typed_overloaded_frame() {
    let dir = tmpdir("connlimit");
    build_index(&dir);
    let config = ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    common::connection_cap_rejects_with_typed_overloaded_frame(
        handle.addr(),
        handle.registry(),
        "server",
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_shutdown_drains_and_closes_the_listener() {
    let dir = tmpdir("shutdown");
    build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    common::protocol_shutdown_drains_and_closes_the_listener(handle.addr(), || {
        assert!(handle.is_shutting_down());
        handle.join();
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_response_becomes_result_too_large() {
    let dir = tmpdir("oversize");
    build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    common::oversized_response_becomes_result_too_large(
        handle.addr(),
        80,
        handle.registry(),
        "server",
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_over_the_wire_is_immediately_searchable() {
    let dir = tmpdir("ingest");
    let store = build_index(&dir);
    let handle = Server::start(&dir, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    use warptree_server::Json;

    // A fresh pattern, far off the existing value grid.
    let novel = vec![vec![40.0, 41.0, 42.0, 43.0, 42.0, 41.0], vec![44.0, 44.0]];
    let resp = client.ingest(&novel).unwrap();
    assert_eq!(resp.get("op").and_then(Json::as_str), Some("ingest"));
    assert_eq!(resp.get("generation").and_then(Json::as_u64), Some(2));
    // "sequences" acks the count ingested by *this* request.
    assert_eq!(resp.get("sequences").and_then(Json::as_u64), Some(2));
    assert_eq!(resp.get("segments").and_then(Json::as_u64), Some(2));

    // Read-your-writes: the very next search sees the appended data,
    // in the new sequence's tail segment, under its global SeqId.
    let q = vec![41.0, 42.0, 43.0];
    let found = client.search(&q, 0.5, None).unwrap();
    let matches = found
        .get("matches")
        .and_then(Json::as_arr)
        .expect("matches array");
    let hit = matches.first().expect("ingested pattern not found");
    assert_eq!(
        hit.get("seq").and_then(Json::as_u64),
        Some(store.len() as u64)
    );
    assert_eq!(hit.get("start").and_then(Json::as_u64), Some(1));

    // Byte-identical contract holds across segments: the wire response
    // matches a locally computed fan-out over the same generation.
    let snap = open_dir_snapshot_with(real_vfs().as_ref(), &dir).unwrap();
    assert_eq!(snap.generation, 2);
    let raw = client
        .request_raw(&search_request_v4(&q, 0.5, None))
        .unwrap();
    assert_eq!(
        strip_timings(&raw),
        expected_search_response(&snap, &q, 0.5)
    );

    // `info` reports the segment layout and the grown corpus.
    let info = client.info().unwrap();
    assert_eq!(info.get("segments").and_then(Json::as_u64), Some(2));
    assert_eq!(
        info.get("sequences").and_then(Json::as_u64),
        Some(store.len() as u64 + 2)
    );

    // A frame declaring a retired protocol version gets the typed
    // error, whatever the op.
    let err = client
        .request("{\"op\":\"ingest\",\"version\":2,\"sequences\":[[1.0,2.0]]}")
        .unwrap_err();
    match err {
        ClientError::Server { ref code, .. } => assert_eq!(code, "unsupported_version"),
        other => panic!("expected typed error, got {other:?}"),
    }

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_compactor_folds_tail_segments() {
    let dir = tmpdir("compactor");
    build_index(&dir);
    let config = ServerConfig {
        compact_threshold: 1,
        compact_interval: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    use warptree_server::Json;

    client.ingest(&[vec![50.0, 51.0, 52.0, 53.0]]).unwrap();
    client.ingest(&[vec![60.0, 61.0, 62.0]]).unwrap();

    // The worker folds until one segment remains; each fold commits a
    // new generation the reload path publishes. Bounded poll.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let segments = loop {
        let info = client.info().unwrap();
        let segments = info.get("segments").and_then(Json::as_u64).unwrap();
        if segments == 1 || std::time::Instant::now() > deadline {
            break segments;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(segments, 1, "compactor never folded the tail segments");

    // The folded index still serves the ingested data.
    let found = client.search(&[60.0, 61.0, 62.0], 0.5, None).unwrap();
    assert_eq!(found.get("count").and_then(Json::as_u64), Some(1));

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A zero poll interval is refused with an error naming the field, not
/// run as a hot loop: the reload watcher's always, the compactor's while
/// compaction is on. A zero scrub interval still means "off".
#[test]
fn zero_intervals_are_refused() {
    let dir = tmpdir("zero-intervals");
    build_index(&dir);
    for (field, config) in [
        (
            "reload_interval",
            ServerConfig {
                reload_interval: Duration::ZERO,
                ..ServerConfig::default()
            },
        ),
        (
            "compact_interval",
            ServerConfig {
                compact_interval: Duration::ZERO,
                ..ServerConfig::default()
            },
        ),
    ] {
        let err = Server::start(&dir, config).err().expect("refused");
        assert!(err.to_string().contains(field), "{err}");
    }
    let off = ServerConfig {
        compact_threshold: 0,
        compact_interval: Duration::ZERO,
        scrub_interval: Duration::ZERO,
        ..ServerConfig::default()
    };
    Server::start(&dir, off).unwrap().stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
