//! Hot reload under live traffic: a new generation committed while
//! clients are querying is picked up by the watcher without a single
//! failed or torn response — every answer is byte-identical to the
//! ground truth of whichever generation it reports. A crashed commit
//! attempt (fault-injected mid-build) in between must leave the server
//! serving the old generation undisturbed.
//!
//! (The companion memory-safety property — the old snapshot is freed
//! once its last in-flight query drops it — is a unit test on
//! `SnapshotCell`, where a `Weak` probe can be planted.)

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use warptree_core::categorize::Alphabet;
use warptree_core::search::{QueryRequest, SearchParams};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{
    build_dir_with, open_dir_snapshot_with, real_vfs, DirSnapshot, FaultMode, FaultVfs, TreeKind,
};
use warptree_server::client::search_request_v4;
use warptree_server::{proto, Client, Json, Server, ServerConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-reload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn store_v1() -> SequenceStore {
    let values: Vec<Vec<f64>> = (0..8usize)
        .map(|s| {
            (0..20)
                .map(|j| ((s * 5 + j * 3) % 17) as f64 * 0.5)
                .collect()
        })
        .collect();
    SequenceStore::from_values(values)
}

/// Same shape, shifted values, two extra sequences — gen 2 answers
/// genuinely differ from gen 1.
fn store_v2() -> SequenceStore {
    let values: Vec<Vec<f64>> = (0..10usize)
        .map(|s| {
            (0..20)
                .map(|j| ((s * 7 + j * 2) % 19) as f64 * 0.5)
                .collect()
        })
        .collect();
    SequenceStore::from_values(values)
}

fn commit(dir: &Path, store: &SequenceStore) {
    let alphabet = Alphabet::equal_length(store, 6).unwrap();
    build_dir_with(
        real_vfs(),
        store,
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        dir,
    )
    .unwrap();
}

const QUERIES: [&[f64]; 3] = [
    &[2.5, 4.0, 5.5, 7.0],
    &[0.0, 1.5, 3.0],
    &[8.0, 1.0, 2.0, 3.5, 5.0],
];
const EPSILON: f64 = 1.0;

/// Ground-truth responses for every probe query against `snap`,
/// rendered with the server's own encoders.
fn expected_responses(snap: &DirSnapshot) -> Vec<String> {
    QUERIES
        .iter()
        .map(|q| {
            let params = SearchParams::with_epsilon(EPSILON);
            let (out, _) = snap
                .query(&QueryRequest::threshold_params(q, params))
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
        })
        .collect()
}

#[test]
fn generation_commit_under_traffic_swaps_without_torn_responses() {
    let dir = tmpdir("midtraffic");
    commit(&dir, &store_v1());
    let expected_v1 =
        expected_responses(&open_dir_snapshot_with(real_vfs().as_ref(), &dir, 32, 256).unwrap());

    let config = ServerConfig {
        reload_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let handle = Server::start(&dir, config).unwrap();
    let addr = handle.addr();

    // Continuous traffic: 4 connections cycling the probe queries,
    // recording (query index, raw response) pairs.
    let stop = Arc::new(AtomicBool::new(false));
    let seen: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let traffic: Vec<_> = (0..4)
        .map(|t| {
            let stop = stop.clone();
            let seen = seen.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut i = t; // desynchronize the threads
                while !stop.load(Ordering::Relaxed) {
                    let qi = i % QUERIES.len();
                    let body = search_request_v4(QUERIES[qi], EPSILON, None);
                    let resp = common::strip_timings(&client.request_raw(&body).unwrap());
                    seen.lock().unwrap().push((qi, resp));
                    i += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));

    // A writer crashes mid-commit: the build dies partway through its
    // I/O (fault-injected process death), leaving staged litter but no
    // manifest update. The server must not notice.
    let crashed = build_dir_with(
        FaultVfs::new(12, FaultMode::Crash),
        &store_v2(),
        &Alphabet::equal_length(&store_v2(), 6).unwrap(),
        TreeKind::Full,
        1,
        1,
        None,
        &dir,
    );
    assert!(crashed.is_err(), "fault at op 12 should fail the build");
    std::thread::sleep(Duration::from_millis(150));

    // The real commit succeeds; capture gen-2 ground truth.
    commit(&dir, &store_v2());
    let expected_v2 =
        expected_responses(&open_dir_snapshot_with(real_vfs().as_ref(), &dir, 32, 256).unwrap());

    // Wait (via the protocol, like a real operator) for the watcher to
    // swap generations.
    let mut probe = Client::connect(addr).unwrap();
    let swapped_by = Instant::now() + Duration::from_secs(5);
    loop {
        let gen = probe
            .health()
            .unwrap()
            .get("generation")
            .and_then(Json::as_u64)
            .unwrap();
        if gen == 2 {
            break;
        }
        assert!(Instant::now() < swapped_by, "reload never happened");
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(150)); // post-swap traffic

    stop.store(true, Ordering::Relaxed);
    for t in traffic {
        t.join().unwrap();
    }

    // Every response is byte-identical to one generation's ground
    // truth — no mixed-generation ("torn") answers, no errors.
    let seen = seen.lock().unwrap();
    assert!(seen.len() > 50, "too little traffic: {}", seen.len());
    let (mut v1_hits, mut v2_hits) = (0usize, 0usize);
    for (qi, resp) in seen.iter() {
        if resp == &expected_v1[*qi] {
            v1_hits += 1;
        } else if resp == &expected_v2[*qi] {
            v2_hits += 1;
        } else {
            panic!(
                "torn response for query {qi}:\n  got      {resp}\n  gen1 want {}\n  gen2 want {}",
                expected_v1[*qi], expected_v2[*qi]
            );
        }
    }
    assert!(v1_hits > 0, "no traffic observed generation 1");
    assert!(v2_hits > 0, "no traffic observed generation 2");

    // The watcher's accounting: at least one reload, no reload errors
    // blamed on the crashed (never-committed) attempt, gauge at gen 2.
    let snap = handle.registry().snapshot();
    assert!(snap.counters.get("server.reloads").copied() >= Some(1));
    assert_eq!(snap.counters.get("server.reload_errors"), None);
    assert_eq!(snap.gauges.get("server.generation"), Some(&2.0));

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
