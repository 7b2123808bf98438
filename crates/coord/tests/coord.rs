//! End-to-end tests of the scatter-gather coordinator against real
//! shard servers: byte-identical answers vs a segment-aligned
//! monolithic server (matches AND funnel stats), byte-identical
//! re-encoding through a 1-shard coordinator, deterministic cross-shard
//! tie-breaking at 1 and 8 scatter lanes, honest degradation when
//! shards die, and the serving-loop checks shared with the shard
//! server's suite.

#[path = "../../server/tests/common/mod.rs"]
mod common;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use warptree_coord::{CoordConfig, Coordinator};
use warptree_core::categorize::Alphabet;
use warptree_core::search::BackendKind;
use warptree_core::sequence::{SeqId, SequenceStore};
use warptree_disk::{
    append_segment, build_dir_backend_with, build_dir_with, real_vfs, write_shard_manifest,
    ShardManifest, ShardMeta, TreeKind,
};
use warptree_server::client::RetryPolicy;
use warptree_server::{Client, Server, ServerConfig, ServerHandle};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-coord-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A deterministic corpus with enough structure for non-trivial answer
/// sets spread across every shard: interleaved ramps on a small value
/// grid so ε-balls catch several occurrences per sequence.
fn corpus() -> SequenceStore {
    let mut values = Vec::new();
    for s in 0..12u32 {
        let len = 16 + (s as usize * 5) % 17;
        let mut seq = Vec::with_capacity(len);
        for j in 0..len {
            let v = ((s as usize * 7 + j * 3) % 23) as f64 * 0.5;
            seq.push(v);
        }
        values.push(seq);
    }
    SequenceStore::from_values(values)
}

/// A contiguous sub-store `[range.start, range.end)` of `store`.
fn slice(store: &SequenceStore, range: std::ops::Range<usize>) -> SequenceStore {
    let mut out = SequenceStore::new();
    for id in range {
        out.push(store.get(SeqId(id as u32)).clone());
    }
    out
}

/// Builds a sharded layout under `root`: one index directory per cut
/// (all over the SAME `alphabet` — the invariant that makes shard
/// answers merge byte-identically) plus a committed `SHARDS` manifest.
fn build_shard_layout(root: &Path, store: &SequenceStore, alphabet: &Alphabet, cuts: &[usize]) {
    build_shard_layout_backend(root, store, alphabet, cuts, BackendKind::Tree);
}

/// [`build_shard_layout`] with an explicit index backend per shard.
fn build_shard_layout_backend(
    root: &Path,
    store: &SequenceStore,
    alphabet: &Alphabet,
    cuts: &[usize],
    backend: BackendKind,
) {
    let mut metas = Vec::new();
    let mut start = 0usize;
    for (i, &end) in cuts.iter().enumerate() {
        let part = slice(store, start..end);
        let dir_name = format!("shard-{i:04}");
        build_dir_backend_with(
            real_vfs(),
            &part,
            alphabet,
            TreeKind::Full,
            1,
            1,
            None,
            backend,
            &root.join(&dir_name),
        )
        .unwrap();
        metas.push(ShardMeta {
            dir: dir_name,
            start_seq: start as u32,
            seq_count: (end - start) as u32,
            values: part.total_len(),
        });
        start = end;
    }
    write_shard_manifest(
        root,
        &ShardManifest {
            generation: 1,
            shards: metas,
        },
    )
    .unwrap();
}

/// Starts one shard server per `shard-NNNN` directory under `root`.
fn start_shards(root: &Path, n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let h =
            Server::start(&root.join(format!("shard-{i:04}")), ServerConfig::default()).unwrap();
        addrs.push(h.addr().to_string());
        handles.push(h);
    }
    (handles, addrs)
}

/// Fast-failing retry policy so down-shard tests don't sit in backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 1,
        base: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        deadline: None,
    }
}

fn rpc(addr: SocketAddr, body: &str) -> String {
    let mut c = Client::connect(addr.to_string()).unwrap();
    c.request_raw(body).unwrap()
}

/// [`rpc`] without the response's wall-clock `"timings"` object, for
/// byte comparisons.
fn answer(addr: SocketAddr, body: &str) -> String {
    common::strip_timings(&rpc(addr, body))
}

/// Replaces every `"generation":<digits>` with `"generation":G` — the
/// only legitimate difference between a fresh shard build (gen 1) and
/// the append-built monolithic comparator (gen 1 + one per appended
/// segment).
fn normalize_gen(resp: &str) -> String {
    let mut out = String::with_capacity(resp.len());
    let needle = "\"generation\":";
    let mut rest = resp;
    while let Some(pos) = rest.find(needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        out.push('G');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The op bodies exercised by the equivalence tests.
fn equivalence_bodies(store: &SequenceStore) -> Vec<String> {
    let seq = |i: usize, r: std::ops::Range<usize>| {
        store.get(SeqId(i as u32)).values()[r]
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let q0 = seq(0, 2..8);
    let q5 = seq(5, 4..10);
    let q11 = seq(11, 0..6);
    let mut bodies = Vec::new();
    for eps in ["0.5", "1.0", "2.5"] {
        for q in [&q0, &q5, &q11] {
            bodies.push(format!(
                "{{\"op\":\"search\",\"query\":[{q}],\"epsilon\":{eps}}}"
            ));
        }
    }
    bodies.push(format!(
        "{{\"op\":\"search\",\"query\":[{q0}],\"epsilon\":2.0,\"window\":2,\"min_len\":2}}"
    ));
    for k in [1, 5, 9] {
        bodies.push(format!("{{\"op\":\"knn\",\"query\":[{q5}],\"k\":{k}}}"));
    }
    bodies.push(format!(
        "{{\"op\":\"knn\",\"query\":[{q11}],\"k\":4,\"allow_overlaps\":true}}"
    ));
    bodies.push(format!(
        "{{\"op\":\"batch\",\"queries\":[[{q0}],[{q5}],[{q11}]],\"epsilon\":1.5}}"
    ));
    // Cascade-off ablation: the lower-bound cascade must be togglable
    // over the wire and equally layout-independent when disabled.
    bodies.push(format!(
        "{{\"op\":\"search\",\"query\":[{q0}],\"epsilon\":1.0,\"cascade\":false}}"
    ));
    bodies.push(format!(
        "{{\"op\":\"knn\",\"query\":[{q5}],\"k\":3,\"cascade\":false}}"
    ));
    for q in [&q0, &q11] {
        bodies.push(format!(
            "{{\"op\":\"explain\",\"query\":[{q}],\"epsilon\":2.0}}"
        ));
    }
    bodies
}

/// The headline equivalence proof: a 3-shard coordinator answers every
/// search / knn / batch / explain byte-identically (matches AND funnel
/// stats, generation normalized) to one server over a segment-aligned
/// monolithic directory — the same corpus as one index whose segment
/// boundaries coincide with the shard boundaries, so per-tree work is
/// provably the same and only the transport differs.
#[test]
fn three_shard_answers_match_segment_aligned_monolith_byte_for_byte() {
    let root = tmpdir("equiv3");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    let cuts = [4usize, 8, 12];
    build_shard_layout(&root, &store, &alphabet, &cuts);

    // The comparator: slice 0 as the base tree, slices 1..N appended as
    // tail segments — same alphabet, same per-segment trees.
    let mono = root.join("mono");
    build_dir_with(
        real_vfs(),
        &slice(&store, 0..4),
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        &mono,
    )
    .unwrap();
    append_segment(&mono, &slice(&store, 4..8)).unwrap();
    append_segment(&mono, &slice(&store, 8..12)).unwrap();

    let (_shards, addrs) = start_shards(&root, 3);
    let mono_srv = Server::start(&mono, ServerConfig::default()).unwrap();
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            workers: 2,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    let mut non_empty = 0usize;
    for body in equivalence_bodies(&store) {
        let via_coord = answer(coord.addr(), &body);
        let via_mono = answer(mono_srv.addr(), &body);
        assert_eq!(
            normalize_gen(&via_coord),
            normalize_gen(&via_mono),
            "coordinator diverged from the segment-aligned monolith on {body}"
        );
        assert!(via_coord.starts_with("{\"ok\":true"), "failed: {via_coord}");
        if !via_coord.contains("\"count\":0") && !via_coord.contains("\"matches\":[]") {
            non_empty += 1;
        }
    }
    assert!(non_empty >= 8, "fixture produced mostly empty answers");

    // Aggregated control plane: sequences and values sum across shards.
    let info = rpc(coord.addr(), "{\"op\":\"info\"}");
    assert!(info.contains("\"sequences\":12"), "{info}");
    assert!(
        info.contains(&format!("\"values\":{}", store.total_len())),
        "{info}"
    );
    assert!(info.contains("\"shards_up\":3"), "{info}");
    let health = rpc(coord.addr(), "{\"op\":\"health\"}");
    assert!(health.contains("\"status\":\"serving\""), "{health}");
    coord.stop();
}

/// The sharded leg of the cross-backend matrix: a 2-shard coordinator
/// over ESA shards answers every search / knn / batch / explain
/// byte-identically to a 2-shard coordinator over tree shards of the
/// same corpus, and the `"backend"` pin is forwarded to every shard —
/// a pin naming the other family comes back as the typed
/// `unsupported_backend` error, while the matching pin changes nothing.
#[test]
fn esa_shards_answer_byte_identically_and_enforce_pins() {
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    let cuts = [6usize, 12];

    let tree_root = tmpdir("bke-tree");
    let esa_root = tmpdir("bke-esa");
    build_shard_layout_backend(&tree_root, &store, &alphabet, &cuts, BackendKind::Tree);
    build_shard_layout_backend(&esa_root, &store, &alphabet, &cuts, BackendKind::Esa);

    let (_tree_shards, tree_addrs) = start_shards(&tree_root, 2);
    let (_esa_shards, esa_addrs) = start_shards(&esa_root, 2);
    let tree_coord = Coordinator::start(
        &tree_root,
        CoordConfig {
            shard_addrs: tree_addrs,
            workers: 2,
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let esa_coord = Coordinator::start(
        &esa_root,
        CoordConfig {
            shard_addrs: esa_addrs,
            workers: 2,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    for body in equivalence_bodies(&store) {
        let via_tree = answer(tree_coord.addr(), &body);
        let via_esa = answer(esa_coord.addr(), &body);
        assert!(via_tree.starts_with("{\"ok\":true"), "failed: {via_tree}");
        assert_eq!(
            normalize_gen(&via_tree),
            normalize_gen(&via_esa),
            "backends diverged through the coordinator on {body}"
        );
    }

    // Pin forwarding: the coordinator passes "backend" through to the
    // shards, whose executors enforce it.
    let q: String = store.get(SeqId(0)).values()[2..8]
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let pinned =
        format!("{{\"op\":\"search\",\"query\":[{q}],\"epsilon\":1.0,\"backend\":\"esa\"}}");
    let unpinned = format!("{{\"op\":\"search\",\"query\":[{q}],\"epsilon\":1.0}}");
    let rejected = rpc(tree_coord.addr(), &pinned);
    assert!(
        rejected.contains("\"code\":\"unsupported_backend\""),
        "tree shards accepted an esa pin: {rejected}"
    );
    let accepted = answer(esa_coord.addr(), &pinned);
    let plain = answer(esa_coord.addr(), &unpinned);
    assert!(accepted.starts_with("{\"ok\":true"), "{accepted}");
    assert_eq!(accepted, plain, "the matching pin changed the answer");

    tree_coord.stop();
    esa_coord.stop();
}

/// A 1-shard coordinator is a pure re-encoding proxy: its responses
/// must equal the shard server's own bytes exactly — same float
/// rendering, same field order, same generation — for every op.
#[test]
fn single_shard_coordinator_is_byte_transparent() {
    let root = tmpdir("equiv1");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[12]);

    let (shards, addrs) = start_shards(&root, 1);
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    for body in equivalence_bodies(&store) {
        let via_coord = answer(coord.addr(), &body);
        let direct = answer(shards[0].addr(), &body);
        assert_eq!(
            via_coord, direct,
            "1-shard coordinator re-encoding diverged on {body}"
        );
    }
    coord.stop();
}

/// Replaces `"name":<digits>` with `"name":N` — for masking the only
/// response fields the cascade toggle may legitimately change.
fn normalize_field(resp: &str, name: &str) -> String {
    let mut out = String::with_capacity(resp.len());
    let needle = format!("\"{name}\":");
    let mut rest = resp;
    while let Some(pos) = rest.find(&needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        out.push('N');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The sharded cascade contract: through a 2-shard coordinator, a
/// search with `"cascade":false` answers byte-identically to the
/// default cascaded search once the cascade-only fields (exact-table
/// cell count and the per-tier kill counters) are masked — and the
/// cascaded run actually reports kills on a tight-ε query.
#[test]
fn two_shard_cascade_toggle_changes_only_cascade_fields() {
    let root = tmpdir("cascade2");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[6, 12]);
    let (_shards, addrs) = start_shards(&root, 2);
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            workers: 2,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    let q = store.get(SeqId(0)).values()[2..8]
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let masked = |resp: &str| {
        let mut r = normalize_field(resp, "postprocess_cells");
        for f in [
            "cascade_lb_keogh_kills",
            "cascade_lb_improved_kills",
            "cascade_abandon_kills",
        ] {
            r = normalize_field(&r, f);
        }
        r
    };
    let mut killed_somewhere = false;
    for eps in ["0.5", "1.0", "2.5"] {
        // Matches: plain search responses are already stats-free, so
        // the toggle must leave them byte-identical outright.
        let on = answer(
            coord.addr(),
            &format!("{{\"op\":\"search\",\"query\":[{q}],\"epsilon\":{eps}}}"),
        );
        let off = answer(
            coord.addr(),
            &format!("{{\"op\":\"search\",\"query\":[{q}],\"epsilon\":{eps},\"cascade\":false}}"),
        );
        assert!(on.starts_with("{\"ok\":true"), "failed: {on}");
        assert_eq!(
            on, off,
            "cascade toggle changed search answers at eps={eps}"
        );

        // Funnel: explain responses carry the stats object.
        let on = answer(
            coord.addr(),
            &format!("{{\"op\":\"explain\",\"query\":[{q}],\"epsilon\":{eps}}}"),
        );
        let off = answer(
            coord.addr(),
            &format!("{{\"op\":\"explain\",\"query\":[{q}],\"epsilon\":{eps},\"cascade\":false}}"),
        );
        assert!(on.starts_with("{\"ok\":true"), "failed: {on}");
        assert_eq!(
            masked(&on),
            masked(&off),
            "cascade toggle changed more than its own fields at eps={eps}"
        );
        assert!(
            off.contains("\"cascade_lb_keogh_kills\":0,\"cascade_lb_improved_kills\":0,\"cascade_abandon_kills\":0"),
            "cascade-off run reported kills: {off}"
        );
        if !on.contains("\"cascade_lb_keogh_kills\":0,\"cascade_lb_improved_kills\":0,\"cascade_abandon_kills\":0")
        {
            killed_somewhere = true;
        }
    }
    assert!(
        killed_somewhere,
        "no epsilon produced a cascade kill through the shards"
    );
    coord.stop();
}

/// Satellite: deterministic cross-shard tie-breaking. Eight identical
/// sequences spread over four shards produce equal distances at the
/// same `(start, len)` in every sequence; the merged order must be the
/// canonical `(seq, start)` order, identical at 1 scatter lane and at
/// 8, and stable across repeated runs.
#[test]
fn cross_shard_equal_distance_ties_merge_deterministically() {
    let root = tmpdir("ties");
    let base: Vec<f64> = (0..12).map(|j| (j % 4) as f64).collect();
    let store = SequenceStore::from_values(vec![base; 8]);
    let alphabet = Alphabet::equal_length(&store, 4).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[2, 4, 6, 8]);
    let (_shards, addrs) = start_shards(&root, 4);

    let coord_1lane = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs.clone(),
            workers: 1,
            ..CoordConfig::default()
        },
    )
    .unwrap();
    let coord_8lane = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            workers: 8,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    // k = 7 lands mid-tie: more zero-distance matches exist than k, and
    // they span every shard, so the cut point is decided purely by the
    // (seq, start) tie-break.
    let bodies = [
        "{\"op\":\"search\",\"query\":[0,1,2],\"epsilon\":0.25}".to_string(),
        "{\"op\":\"knn\",\"query\":[0,1,2],\"k\":7}".to_string(),
        "{\"op\":\"knn\",\"query\":[1,2,3],\"k\":5,\"allow_overlaps\":true}".to_string(),
    ];
    for body in &bodies {
        let reference = answer(coord_1lane.addr(), body);
        assert!(reference.starts_with("{\"ok\":true"), "failed: {reference}");
        for round in 0..5 {
            let racy = answer(coord_8lane.addr(), body);
            assert_eq!(
                racy, reference,
                "lane-count or run-to-run divergence on {body} (round {round})"
            );
        }
    }

    // The ranked knn answer's equal-distance run is in ascending
    // (seq, start) order across shard boundaries.
    let knn = rpc(coord_1lane.addr(), &bodies[1]);
    let json = warptree_server::json::parse(&knn).unwrap();
    let matches = json
        .get("matches")
        .and_then(warptree_server::Json::as_arr)
        .unwrap();
    assert_eq!(matches.len(), 7);
    let keys: Vec<(u64, u64, u64)> = matches
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(warptree_server::Json::as_u64).unwrap();
            (f("seq"), f("start"), f("len"))
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "equal-distance knn ties must rank in (seq, start) order"
    );
    assert!(
        keys.iter().map(|k| k.0).max().unwrap() >= 2,
        "tie run should cross a shard boundary: {keys:?}"
    );

    coord_1lane.stop();
    coord_8lane.stop();
}

/// Shard loss degrades honestly: results turn `"partial":true` with a
/// coverage block aggregated across shards (the dead shard's suffixes
/// count toward the total, never the answered), `health` turns
/// degraded, and losing every shard is a typed internal failure —
/// never a silently complete answer.
#[test]
fn shard_loss_yields_partial_results_and_degraded_health() {
    let root = tmpdir("degrade");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[6, 12]);
    let (mut shards, addrs) = start_shards(&root, 2);
    let live_values = slice(&store, 0..6).total_len();

    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            retry: fast_retry(),
            shard_timeout: Duration::from_secs(2),
            health_interval: Duration::from_millis(50),
            ..CoordConfig::default()
        },
    )
    .unwrap();

    let search = "{\"op\":\"search\",\"query\":[1.5,2.0,2.5],\"epsilon\":2.0}";
    let full = rpc(coord.addr(), search);
    assert!(full.starts_with("{\"ok\":true"), "{full}");
    assert!(!full.contains("\"partial\""), "healthy answer: {full}");

    // Kill shard 1 (the tail of the id space).
    shards.pop().unwrap().stop();

    let partial = rpc(coord.addr(), search);
    assert!(partial.starts_with("{\"ok\":true"), "{partial}");
    assert!(partial.contains("\"partial\":true"), "{partial}");
    assert!(
        partial.contains(&format!(
            "\"segments_total\":2,\"segments_answered\":1,\"segments_quarantined\":0,\
             \"suffixes_total\":{},\"suffixes_answered\":{live_values}",
            store.total_len()
        )),
        "coverage must count the dead shard's suffixes as unanswered: {partial}"
    );

    // Batch: every item in the batch carries the aggregated coverage.
    let batch = rpc(
        coord.addr(),
        "{\"op\":\"batch\",\"queries\":[[1.5,2.0],[3.0,3.5,4.0]],\"epsilon\":1.0}",
    );
    assert!(batch.starts_with("{\"ok\":true"), "{batch}");
    assert_eq!(batch.matches("\"partial\":true").count(), 2, "{batch}");

    // The health monitor notices within a few poll intervals.
    let mut degraded = false;
    for _ in 0..50 {
        let health = rpc(coord.addr(), "{\"op\":\"health\"}");
        if health.contains("\"status\":\"degraded\"") && health.contains("\"shards_up\":1") {
            degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(degraded, "health never turned degraded after shard loss");

    // Lose the last shard: no silent empty answers, a typed error.
    shards.pop().unwrap().stop();
    let dead = rpc(coord.addr(), search);
    assert!(dead.starts_with("{\"ok\":false"), "{dead}");
    assert!(dead.contains("\"code\":\"internal\""), "{dead}");
    assert!(dead.contains("no shard answered"), "{dead}");
    coord.stop();
}

/// The coordinator forwards an active trace to every shard and nests
/// the shard span trees under its own `coord.shard` spans, so one
/// traced response attributes latency per shard.
#[test]
fn traced_request_nests_one_span_per_shard() {
    let root = tmpdir("trace");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[6, 12]);
    let (_shards, addrs) = start_shards(&root, 2);
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    let traced = rpc(
        coord.addr(),
        "{\"op\":\"search\",\"query\":[1.5,2.0,2.5],\"epsilon\":1.0,\
         \"trace\":true,\"trace_id\":\"t-coord-1\"}",
    );
    assert!(traced.starts_with("{\"ok\":true"), "{traced}");
    let json = warptree_server::json::parse(&traced).unwrap();
    let trace = json.get("trace").expect("traced response carries trace");
    assert_eq!(
        trace
            .get("trace_id")
            .and_then(warptree_server::Json::as_str),
        Some("t-coord-1")
    );
    let spans = trace
        .get("spans")
        .and_then(warptree_server::Json::as_arr)
        .unwrap();
    let shard_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.get("name").and_then(warptree_server::Json::as_str) == Some("coord.shard"))
        .collect();
    assert_eq!(shard_spans.len(), 2, "one shard span per shard: {traced}");
    // Each shard span embeds the shard's own span tree, which carries
    // the shard-side trace_id the coordinator forwarded.
    for s in &shard_spans {
        let attrs = s.get("attrs").expect("shard span has attrs");
        let embedded = attrs
            .get("trace")
            .and_then(warptree_server::Json::as_str)
            .expect("shard span embeds the shard's trace");
        assert!(embedded.contains("t-coord-1"), "{embedded}");
    }
    // The un-traced path stays clean.
    let plain = rpc(
        coord.addr(),
        "{\"op\":\"search\",\"query\":[1.5,2.0,2.5],\"epsilon\":1.0}",
    );
    assert!(!plain.contains("\"trace\""), "{plain}");
    assert!(plain.contains("\"timings\""), "{plain}");
    coord.stop();
}

/// Protocol-level hygiene at the coordinator: typed bad requests and
/// the slowlog/metrics/stats control ops.
#[test]
fn coordinator_control_plane_and_errors() {
    let root = tmpdir("control");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[12]);
    let (_shards, addrs) = start_shards(&root, 1);
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            trace_sample: 1,
            slow_ms: 0,
            ..CoordConfig::default()
        },
    )
    .unwrap();

    // Typed parse errors, connection stays usable.
    let mut c = Client::connect(coord.addr().to_string()).unwrap();
    let bad = c.request_raw("{\"op\":\"nope\"}").unwrap();
    assert!(bad.contains("\"code\":\"bad_request\""), "{bad}");
    let ok = c
        .request_raw("{\"op\":\"search\",\"query\":[1.0],\"epsilon\":0.5}")
        .unwrap();
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");

    // The 1-in-1 sampler traces every request; the ring fills.
    let slowlog = rpc(coord.addr(), "{\"op\":\"slowlog\"}");
    assert!(slowlog.contains("\"entries\":["), "{slowlog}");
    assert!(slowlog.contains("coord.service"), "{slowlog}");
    let metrics = rpc(coord.addr(), "{\"op\":\"metrics\"}");
    assert!(
        metrics.contains("\"format\":\"prometheus-0.0.4\""),
        "{metrics}"
    );
    let stats = rpc(coord.addr(), "{\"op\":\"stats\"}");
    assert!(stats.contains("coord.requests_ok"), "{stats}");

    coord.stop();
}

/// A zero health interval is refused with an error naming the field,
/// not run as a loop of `info` requests to every shard.
#[test]
fn zero_health_interval_is_refused() {
    let root = tmpdir("zero-health");
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, &[12]);
    let config = CoordConfig {
        shard_addrs: vec!["127.0.0.1:1".to_string()],
        health_interval: Duration::ZERO,
        ..CoordConfig::default()
    };
    let err = Coordinator::start(&root, config).err().expect("refused");
    assert!(err.to_string().contains("health_interval"), "{err}");
    std::fs::remove_dir_all(&root).unwrap();
}

/// One shard server per cut of [`corpus`] and a coordinator over them,
/// for the serving-loop checks below.
fn start_cluster(
    tag: &str,
    cuts: &[usize],
    config: CoordConfig,
) -> (Vec<ServerHandle>, warptree_coord::CoordHandle) {
    let root = tmpdir(tag);
    let store = corpus();
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    build_shard_layout(&root, &store, &alphabet, cuts);
    let (shards, addrs) = start_shards(&root, cuts.len());
    let coord = Coordinator::start(
        &root,
        CoordConfig {
            shard_addrs: addrs,
            ..config
        },
    )
    .unwrap();
    (shards, coord)
}

#[test]
fn connection_cap_rejects_with_typed_overloaded_frame() {
    let config = CoordConfig {
        max_conns: 2,
        ..CoordConfig::default()
    };
    let (_shards, coord) = start_cluster("connlimit", &[12], config);
    common::connection_cap_rejects_with_typed_overloaded_frame(
        coord.addr(),
        coord.registry(),
        "coord",
    );
    coord.stop();
}

#[test]
fn slow_client_mid_frame_pauses_do_not_desync_the_stream() {
    let (_shards, coord) = start_cluster("slowclient", &[12], CoordConfig::default());
    common::slow_client_mid_frame_pauses_do_not_desync_the_stream(coord.addr());
    coord.stop();
}

/// Two hops a request — client to coordinator, coordinator to each of
/// two shards — and every reply on them leaves at once.
#[test]
fn sequential_replies_do_not_stall() {
    let (_shards, coord) = start_cluster("nostall", &[6, 12], CoordConfig::default());
    common::sequential_replies_do_not_stall(coord.addr());
    coord.stop();
}

#[test]
fn protocol_shutdown_drains_and_closes_the_listener() {
    let (_shards, coord) = start_cluster("shutdown", &[12], CoordConfig::default());
    common::protocol_shutdown_drains_and_closes_the_listener(coord.addr(), || {
        assert!(coord.is_shutting_down());
        coord.join();
    });
}

/// Three shards each answer under the frame limit; it is the merged
/// response that passes it, so the refusal is the coordinator's own.
#[test]
fn oversized_response_becomes_result_too_large() {
    let (shards, coord) = start_cluster("oversize", &[4, 8, 12], CoordConfig::default());
    common::oversized_response_becomes_result_too_large(
        coord.addr(),
        40,
        coord.registry(),
        "coord",
    );
    for shard in &shards {
        let refused = shard
            .registry()
            .snapshot()
            .counters
            .get("server.result_too_large")
            .copied();
        assert_eq!(refused, None, "a shard's own answer was already too large");
    }
    coord.stop();
}
