//! Test support shared by every suite that talks to a serving loop —
//! the shard server's, the coordinator's (`crates/coord/tests/coord.rs`
//! includes this file by path) and the chaos harness: the checks of
//! the loop itself, written once and run against both front ends, and
//! the mask for the one wall-clock field of a query response.

#![allow(dead_code)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use warptree_obs::MetricsRegistry;
use warptree_server::client::search_request_v4;
use warptree_server::{proto, Client, ClientError, Json};

/// `resp` without the `"timings"` object every ok query response
/// carries: it is wall-clock, so byte comparisons leave it out.
pub fn strip_timings(resp: &str) -> String {
    match resp.find(",\"timings\":{") {
        Some(at) => {
            let end = at + resp[at..].find('}').expect("timings object closes") + 1;
            format!("{}{}", &resp[..at], &resp[end..])
        }
        None => resp.to_string(),
    }
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Against a loop started with `max_conns = 2`: the third connection
/// is refused at accept with a typed `overloaded` frame, the refusal
/// is counted under `prefix`, and closing a connection frees its slot.
pub fn connection_cap_rejects_with_typed_overloaded_frame(
    addr: SocketAddr,
    registry: &MetricsRegistry,
    prefix: &str,
) {
    // Fill both slots; a health round-trip proves each connection
    // thread is live (so the accept loop has counted them).
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c1.health().unwrap();
    c2.health().unwrap();

    // Read the refusal without writing anything, so the frame can't be
    // lost to a reset.
    let mut s3 = TcpStream::connect(addr).unwrap();
    s3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = proto::read_frame(&mut s3).unwrap().unwrap();
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("\"code\":\"overloaded\""), "got: {text}");
    assert!(
        counter(registry, &format!("{prefix}.rejected_conn_limit")) >= 1,
        "connection-limit rejection not counted"
    );

    // Closing a connection frees its slot (after the conn thread
    // notices the close and the accept loop reaps it).
    drop(c1);
    let mut served = false;
    for _ in 0..100 {
        let mut c = Client::connect(addr).unwrap();
        if c.health().is_ok() {
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(served, "slot never freed after a client disconnected");
}

/// A frame dribbled 2 bytes at a time, with pauses longer than the
/// loop's 100 ms read timeout, is reassembled and answered, and the
/// connection is still at a frame boundary afterwards. A read path
/// that treats a mid-frame timeout as "idle" would desync and answer
/// garbage.
pub fn slow_client_mid_frame_pauses_do_not_desync_the_stream(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = br#"{"op":"health"}"#;
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    for chunk in frame.chunks(2) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    let resp = proto::read_frame(&mut stream).unwrap().unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert!(text.contains("\"ok\":true"), "desynced response: {text}");

    // A normally-written frame on the same connection.
    stream.write_all(&frame).unwrap();
    let resp = proto::read_frame(&mut stream).unwrap().unwrap();
    let text = String::from_utf8(resp).unwrap();
    assert!(text.contains("\"status\":\"serving\""), "got: {text}");
}

/// 30 small `search` round trips, one after another on one connection,
/// take what the searches take: a median under 10 ms. A reply that
/// leaves in two segments, or on a socket without `TCP_NODELAY`, waits
/// out the client's delayed ACK — ≈ 40 ms on every round trip, per hop
/// — so the bound is loose by orders of magnitude on the working side
/// and missed by 4× on the broken one.
pub fn sequential_replies_do_not_stall(addr: SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    let body = search_request_v4(&[3.0, 4.5, 6.0], 0.5, None);
    client.request(&body).unwrap(); // dials the shard legs, warms the caches
    let mut ms: Vec<f64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            client.request(&body).unwrap();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 10.0,
        "median round trip {median:.2} ms over {ms:.2?}: replies are stalling on the wire"
    );
}

/// The `shutdown` op starts a drain that finishes — `join` (which
/// waits for it) returns — even while another client polls faster than
/// the loop's read timeout, never opening an idle window; query work
/// is refused meanwhile and the listener is gone afterwards.
pub fn protocol_shutdown_drains_and_closes_the_listener(addr: SocketAddr, join: impl FnOnce()) {
    let poller = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut polls = 0u32;
        while c.health().is_ok() {
            polls += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        polls
    });
    // The poller is live before the drain starts.
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).unwrap();
    let resp = client.shutdown().unwrap();
    assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));

    // Depending on timing the refusal is a typed `shutting_down` error
    // or an already-closed connection — never a successful search.
    match client.search(&[1.0], 1.0, None) {
        Err(ClientError::Server { ref code, .. }) => assert_eq!(code, "shutting_down"),
        Err(_) => {} // connection torn down by the drain
        Ok(_) => panic!("drain accepted query work"),
    }

    join();
    assert!(poller.join().unwrap() > 0, "poller never got an answer");
    assert!(
        Client::connect(addr).is_err(),
        "listener still accepting after drain"
    );
}

/// A `batch` of `items` copies of a query that matches every
/// subsequence of the corpus serializes past `MAX_FRAME`: the client
/// gets a typed `result_too_large` error — counted under `prefix`, so
/// it was this loop that refused — and the connection keeps working.
pub fn oversized_response_becomes_result_too_large(
    addr: SocketAddr,
    items: usize,
    registry: &MetricsRegistry,
    prefix: &str,
) {
    let queries = vec!["[5.0]"; items].join(",");
    let body = format!("{{\"op\":\"batch\",\"queries\":[{queries}],\"epsilon\":1000000}}");
    let mut client = Client::connect(addr).unwrap();
    let err = client.request(&body).unwrap_err();
    assert_eq!(err.code(), Some("result_too_large"), "got: {err}");
    assert_eq!(counter(registry, &format!("{prefix}.result_too_large")), 1);
    client.health().unwrap();
}
