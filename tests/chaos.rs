//! The chaos harness: degraded-mode serving under injected disk
//! corruption and network faults.
//!
//! The contract under test (the robustness tentpole): a warptree
//! server under fault injection **never returns a wrong answer**.
//! Every response is one of
//!
//! * byte-identical to the clean answer (matches and distances) — over
//!   a damaged index too, which answers by sequential scan over the
//!   CRC-verified corpus, or
//! * a typed error frame (`overloaded`, `deadline_exceeded`, …).
//!
//! Disk faults are real on-disk corruption (bit flips in committed
//! pages, caught by the pager's per-page CRC); network faults come
//! from the deterministic [`ChaosStream`] wrapper (torn, dropped and
//! stalled frames). The matrix runs disk-only, net-only, and both —
//! the last concurrently with online ingest and background compaction.

#[path = "../crates/server/tests/common/mod.rs"]
mod common;

use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use warptree::{build_index_dir, Categorization, ExplainReport};
use warptree_core::search::Match;
use warptree_core::search::{
    seq_scan, QueryRequest, SearchMetrics, SearchParams, SearchStats, SeqScanMode,
};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{
    open_dir_snapshot_with, resolve_dir_with, scrub_dir_with, verify_dir_with, DirSnapshot,
    RealVfs, PAGE_SIZE,
};
use warptree_obs::MetricsRegistry;
use warptree_server::chaos::{ChaosConfig, ChaosStream};
use warptree_server::client::search_request_v4;
use warptree_server::json::{self, Json};
use warptree_server::proto::{read_frame, write_frame};
use warptree_server::{Client, Request, RetryPolicy, Server, ServerConfig, ShardConn};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Deterministic bounded random walk (no RNG dependency).
fn walk(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    let mut v = 10.0f64;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v += ((x % 200) as f64 - 100.0) / 50.0;
        v = v.clamp(0.0, 20.0);
        out.push((v * 4.0).round() / 4.0);
    }
    out
}

fn gen_values(seed: u64, sequences: usize, len: usize) -> Vec<Vec<f64>> {
    (0..sequences)
        .map(|i| walk(seed.wrapping_add(i as u64 * 7919), len))
        .collect()
}

fn gen_store(seed: u64, sequences: usize, len: usize) -> SequenceStore {
    SequenceStore::from_values(gen_values(seed, sequences, len))
}

/// Base build + two tail segments, all big enough that every tree file
/// spans multiple pages (so traversals must read past the header page
/// and trip the CRC check on corrupted trees).
fn build_chaos_dir(dir: &Path) -> (String, String) {
    let base = gen_store(1, 24, 24);
    build_index_dir(&base, Categorization::EqualLength(8), false, 64, dir).unwrap();
    warptree::append_index_dir(dir, &gen_store(1000, 36, 28)).unwrap();
    warptree::append_index_dir(dir, &gen_store(2000, 36, 28)).unwrap();
    let resolved = resolve_dir_with(&RealVfs, dir).unwrap();
    let manifest = resolved.manifest;
    assert_eq!(manifest.segments.len(), 2);
    for meta in &manifest.segments {
        let len = std::fs::metadata(dir.join(&meta.file)).unwrap().len();
        assert!(
            len > 2 * PAGE_SIZE as u64,
            "segment {} too small ({len} B) to exercise page-level corruption",
            meta.file
        );
    }
    (
        manifest.segments[0].file.clone(),
        manifest.segments[1].file.clone(),
    )
}

/// Flips one byte in every page except page 0 (the header page), so the
/// file still *opens* but any traversal past the header fails its CRC.
/// The root node is written last (post-order), so every query's first
/// node read lands in the corrupted tail of the file.
fn corrupt_pages_after_first(path: &Path) {
    assert!(
        try_corrupt_pages_after_first(path).unwrap(),
        "{} has fewer than 2 pages",
        path.display()
    );
}

/// Fallible variant for races against the compactor (the file may have
/// been merged away, or be too small). Returns whether bytes flipped.
fn try_corrupt_pages_after_first(path: &Path) -> std::io::Result<bool> {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let len = f.metadata()?.len();
    let pages = len.div_ceil(PAGE_SIZE as u64);
    if pages < 2 {
        return Ok(false);
    }
    for p in 1..pages {
        let off = p * PAGE_SIZE as u64 + 17;
        if off >= len {
            break;
        }
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(&mut b)?;
        b[0] ^= 0xA5;
        f.seek(SeekFrom::Start(off))?;
        f.write_all(&b)?;
    }
    f.sync_all()?;
    Ok(true)
}

fn chaos_queries() -> Vec<Vec<f64>> {
    vec![
        walk(99, 6),
        walk(1000, 8), // prefix drawn from segment 1's seed
        walk(2000, 8), // prefix drawn from segment 2's seed
        vec![10.0, 10.0, 10.0, 10.0],
    ]
}

const EPSILON: f64 = 3.0;

fn chaos_request(q: &[f64]) -> QueryRequest {
    QueryRequest::threshold_params(q, SearchParams::with_epsilon(EPSILON))
}

/// What `seq_scan(Cascade)` counts for `q` over `store`: the stats of a
/// query a damaged directory answers by scan.
fn scan_stats(store: &SequenceStore, q: &[f64]) -> SearchStats {
    let mut stats = SearchStats::default();
    let params = SearchParams::with_epsilon(EPSILON);
    seq_scan(store, q, &params, SeqScanMode::Cascade, &mut stats);
    stats
}

/// Every chaos query's answer over the directory at `dir`, which must
/// be clean.
fn clean_answers(dir: &Path) -> Vec<Vec<Match>> {
    let snap = open_dir_snapshot_with(&RealVfs, dir).unwrap();
    let answers = (chaos_queries().iter())
        .map(|q| snap.query(&chaos_request(q)).unwrap().0.matches().to_vec())
        .collect();
    assert!(!snap.is_damaged(), "the baseline directory is clean");
    answers
}

// ---------------------------------------------------------------------
// Disk-only: direct API round trip (detection → quarantine → restart →
// heal → full coverage), the recovery-on-open proof.
// ---------------------------------------------------------------------

#[test]
fn quarantine_persists_across_reopen_and_heals_by_scrub() {
    let dir = tmpdir("roundtrip");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let req = chaos_request;

    // Clean baseline.
    let clean = clean_answers(&dir);
    assert!(
        clean.iter().any(|m| !m.is_empty()),
        "baseline must find matches or the equivalence checks are vacuous"
    );

    // Corrupt segment 1 on disk, then reopen (a fresh process's view).
    corrupt_pages_after_first(&dir.join(&seg1));
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    let (out, _) = snap.query(&req(&chaos_queries()[0])).unwrap();
    assert_eq!(
        snap.failed_tails(),
        vec![seg1.clone()],
        "the open found the CRC failure"
    );
    assert_eq!(snap.damaged(), vec![seg1.clone()]);
    // Corruption costs the index, never an answer: the corpus answers
    // for the failed segment, exactly.
    assert_eq!(out.matches(), &clean[0][..]);

    // Tombstone it, as the server would after detection.
    warptree_disk::quarantine_segment_with(&RealVfs, &dir, &seg1).unwrap();

    // "Restart": a fresh open must skip the quarantined segment up
    // front (no per-query re-detection) and still answer completely.
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_eq!(snap.quarantined.len(), 1);
    assert_eq!(snap.segments.len(), 1, "quarantined segment not opened");
    let (out, _) = snap.query(&req(&chaos_queries()[1])).unwrap();
    assert!(
        snap.failed_tails().is_empty(),
        "no re-detection after quarantine"
    );
    assert_eq!(snap.damaged(), vec![seg1.clone()]);
    assert_eq!(out.matches(), &clean[1][..]);

    // Heal: scrub rebuilds the quarantined segment from the corpus.
    let reg = MetricsRegistry::new();
    let report = scrub_dir_with(&RealVfs, &dir, true, &reg).unwrap();
    assert_eq!(report.healed, vec![seg1]);
    assert!(report.unrecoverable.is_none());

    // The index answers again, byte-identical to the clean baseline.
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert!(snap.quarantined.is_empty());
    assert_eq!(clean_answers(&dir), clean, "healed answers identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A base index whose pages fail their CRC past the header answers
/// every query by sequential scan, exactly, and scrub reports it
/// unrecoverable without mutating (a base is not rebuilt in place).
#[test]
fn base_tree_corruption_answers_by_scan_and_scrub_refuses_it() {
    let dir = tmpdir("basecorrupt");
    build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
    corrupt_pages_after_first(&resolved.index_path);
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let (out, stats) = snap.query(&chaos_request(q)).unwrap();
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(stats, scan_stats(&snap.store, q), "{q:?}");
    }
    let report = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
    assert!(report.unrecoverable.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tail segment's corpus is read whole and checked at every open, as
/// the base's is, and nothing can rebuild it. One forged behind a
/// re-sealed CRC — its sequence count one short of its segment's — fails
/// the open with a typed error naming it; `verify` names it; scrub
/// reports it unrecoverable and commits nothing. A page of one that
/// fails its CRC fails the open too, naming the file and the page, and
/// one longer than its `MANIFEST` size fails `verify`.
#[test]
fn a_damaged_tail_corpus_is_a_typed_error_at_open() {
    use warptree_disk::DiskError;
    let dir = tmpdir("tail-corpus");
    build_chaos_dir(&dir);
    let manifest = resolve_dir_with(&RealVfs, &dir).unwrap().manifest;
    let tail = manifest.segments[1].clone();
    let path = dir.join(&tail.corpus);
    let pristine = std::fs::read(&path).unwrap();

    // The header's sequence count, after the magic, the version, the
    // method and the category count.
    forge_word(&path, 20, tail.seq_count - 1);
    match open_dir_snapshot_with(&RealVfs, &dir) {
        Err(DiskError::BadRecord(m)) => {
            assert!(m.contains(&tail.corpus) && m.contains("holds"), "{m}")
        }
        other => panic!("expected a typed BadRecord, got {:?}", other.map(|_| ())),
    }
    let report = verify_dir_with(&RealVfs, &dir).unwrap();
    let check = report.files.iter().find(|f| f.name == tail.corpus).unwrap();
    let error = check.error.as_deref().unwrap_or_default();
    assert!(!report.is_ok() && error.contains("holds"), "{report}");
    let scrub = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
    let unrecoverable = scrub.unrecoverable.as_deref().unwrap_or_default();
    assert!(unrecoverable.starts_with(&tail.corpus), "{scrub}");
    assert_eq!(scrub.generation, manifest.generation, "{scrub}");
    let after = resolve_dir_with(&RealVfs, &dir).unwrap().manifest;
    assert_eq!(after, manifest, "scrub committed nothing");

    let mut flipped = pristine.clone();
    flipped[17] ^= 0xA5;
    std::fs::write(&path, &flipped).unwrap();
    match open_dir_snapshot_with(&RealVfs, &dir) {
        Err(DiskError::CorruptionDetected { file, page }) => {
            assert_eq!((file, page), (tail.corpus.clone(), 0))
        }
        other => panic!("expected CorruptionDetected, got {:?}", other.map(|_| ())),
    }

    let mut longer = pristine.clone();
    longer.extend_from_slice(&pristine[pristine.len() - PAGE_SIZE..]);
    std::fs::write(&path, &longer).unwrap();
    let report = verify_dir_with(&RealVfs, &dir).unwrap();
    let check = report.files.iter().find(|f| f.name == tail.corpus).unwrap();
    let error = check.error.as_deref().unwrap_or_default();
    assert!(error.contains("does not match manifest"), "{report}");
    std::fs::write(&path, &pristine).unwrap();
    assert!(verify_dir_with(&RealVfs, &dir).unwrap().is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One query path: `DirSnapshot::query` over a tail that fails its CRC
/// answers exactly as the clean directory does, by sequential scan —
/// its counters are `seq_scan(Cascade)`'s, from the plan that answered
/// alone. `query_with` counts the same into the caller's metrics, and
/// later queries on the snapshot scan too.
#[test]
fn a_corrupt_tail_answers_like_the_clean_directory() {
    let dir = tmpdir("one-path-tail");
    let (_seg1, seg2) = build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    corrupt_pages_after_first(&dir.join(&seg2));
    let open = || open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let req = chaos_request(q);
        // A fresh snapshot each time: each open finds the tail damaged.
        let snap = open();
        let want_stats = scan_stats(&snap.store, q);
        let (out, stats) = snap.query(&req).unwrap();
        assert_eq!(snap.failed_tails(), vec![seg2.clone()]);
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(stats, want_stats, "{q:?}");
        let snap = open();
        let metrics = SearchMetrics::new();
        let out = snap.query_with(&req, &metrics).unwrap();
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(metrics.snapshot(), want_stats, "{q:?}");
        // Later queries on the snapshot scan too.
        let (again, again_stats) = snap.query(&req).unwrap();
        assert_eq!(again.matches(), &want[..]);
        assert_eq!(again_stats, want_stats);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Queries racing over one snapshot whose tail the open found corrupt
/// each answer, completely, by scan.
#[test]
fn racing_queries_over_a_corrupt_tail_all_answer() {
    let dir = tmpdir("one-path-race");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    corrupt_pages_after_first(&dir.join(&seg1));
    let req = chaos_request(&chaos_queries()[0]);
    for _ in 0..4 {
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        let outs: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..6).map(|_| s.spawn(|| snap.query(&req))).collect();
            runs.into_iter()
                .map(|r| r.join().unwrap().unwrap().0)
                .collect()
        });
        assert_eq!(snap.failed_tails(), vec![seg1.clone()]);
        for out in &outs {
            assert_eq!(out.matches(), &clean[0][..]);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tail quarantined in `MANIFEST` is never opened, and the answer
/// without its index is the clean one: the corpus answers for it.
#[test]
fn a_quarantined_tail_answers_like_the_clean_directory() {
    let dir = tmpdir("one-path-quarantined");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    warptree_disk::quarantine_segment_with(&RealVfs, &dir, &seg1).unwrap();
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let (out, stats) = snap.query(&chaos_request(q)).unwrap();
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(stats, scan_stats(&snap.store, q), "{q:?}");
    }
    assert_eq!(snap.damaged(), vec![seg1]);
    assert!(snap.failed_tails().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A base index that fails its CRC past the header, found damaged at
/// open, answers `query` and `query_with` alike, on every query, exactly
/// as the clean directory does; an invalid request still gets the typed
/// error the clean directory gives. A base whose *header* page fails
/// fails the open, with a typed error naming the file.
#[test]
fn a_corrupt_base_answers_like_the_clean_directory() {
    let dir = tmpdir("one-path-base");
    build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    let index = resolve_dir_with(&RealVfs, &dir).unwrap().index_path;
    let name = index.file_name().unwrap().to_string_lossy().into_owned();
    let invalid = [
        chaos_request(&[]),
        chaos_request(&[1.0]).on_backend(warptree_core::search::BackendKind::Esa),
    ];
    let clean_errors: Vec<_> = {
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        invalid.iter().map(|r| snap.query(r).unwrap_err()).collect()
    };
    corrupt_pages_after_first(&index);
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    let req = chaos_request(&chaos_queries()[0]);
    let answers = [
        snap.query(&req).unwrap().0,
        snap.query_with(&req, &SearchMetrics::new()).unwrap(),
        snap.query(&req).unwrap().0,
    ];
    for out in answers {
        assert_eq!(out.matches(), &clean[0][..]);
    }
    assert_eq!(snap.damaged(), vec![name.clone()]);
    assert!(snap.failed_tails().is_empty(), "the base is not a tail");
    for (r, want) in invalid.iter().zip(&clean_errors) {
        assert_eq!(&snap.query(r).unwrap_err(), want, "{r:?}");
    }
    // The header page is what the open reads: it cannot be answered
    // around.
    drop(snap);
    let mut bytes = std::fs::read(&index).unwrap();
    bytes[17] ^= 0xA5;
    std::fs::write(&index, &bytes).unwrap();
    match open_dir_snapshot_with(&RealVfs, &dir) {
        Err(e @ warptree_disk::DiskError::CorruptionDetected { .. }) => {
            assert_eq!(
                e.to_string(),
                format!("corruption detected in {name} (page 0)")
            );
        }
        other => panic!(
            "expected a typed corruption error, got {:?}",
            other.map(|_| ())
        ),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tail whose header page fails its CRC does not fail the open: it is
/// recorded damaged, named by `failed_tails`, and every query — threshold
/// and k-NN — answers like the clean directory, by scan. A server
/// started over it serves, reports `degraded` before any query, and
/// quarantines it once a query has run.
#[test]
fn a_tail_whose_header_fails_answers_like_the_clean_directory() {
    let dir = tmpdir("tail-header");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    let knn = QueryRequest::knn(&chaos_queries()[0], 5);
    let clean_knn = {
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        snap.query(&knn).unwrap().0.matches().to_vec()
    };
    let path = dir.join(&seg1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[17] ^= 0xA5;
    std::fs::write(&path, &bytes).unwrap();

    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_eq!(snap.failed_tails(), vec![seg1.clone()]);
    assert_eq!(snap.segments.len(), 1, "the failed tail is not opened");
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let (out, stats) = snap.query(&chaos_request(q)).unwrap();
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(stats, scan_stats(&snap.store, q), "{q:?}");
    }
    assert_eq!(snap.query(&knn).unwrap().0.matches(), &clean_knn[..]);
    drop(snap);

    let handle = Server::start(&dir, server_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
    let v = client.search(&chaos_queries()[0], EPSILON, None).unwrap();
    assert!(v.get("partial").is_none() && v.get("coverage").is_none());
    let count = v.get("count").and_then(Json::as_u64).unwrap();
    assert_eq!(count as usize, clean[0].len());
    let h = client.health().unwrap();
    assert_eq!(
        h.get("quarantined_segments").and_then(Json::as_u64),
        Some(1),
        "the server quarantines the tail the open found once a query has run"
    );
    handle.stop();
    let manifest = resolve_dir_with(&RealVfs, &dir).unwrap().manifest;
    assert!(manifest
        .segments
        .iter()
        .any(|m| m.file == seg1 && m.quarantined));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Overwrites the `u32` at logical offset `at` of a paged file (inside
/// one page) and re-seals that page's CRC: what a hostile writer, not a
/// failing disk, leaves behind.
fn forge_word(path: &Path, at: u64, value: u32) {
    use warptree_disk::{crc::crc32, PAGE_DATA};
    let page_at = at / PAGE_DATA as u64 * PAGE_SIZE as u64;
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut page = vec![0u8; PAGE_SIZE];
    f.seek(SeekFrom::Start(page_at)).unwrap();
    f.read_exact(&mut page).unwrap();
    let word = (at % PAGE_DATA as u64) as usize;
    page[word..word + 4].copy_from_slice(&value.to_le_bytes());
    let crc = crc32(&page[..PAGE_DATA]);
    page[PAGE_DATA..].copy_from_slice(&crc.to_le_bytes());
    f.seek(SeekFrom::Start(page_at)).unwrap();
    f.write_all(&page).unwrap();
    f.sync_all().unwrap();
}

/// A tail header that passes its CRC but disagrees with the base on the
/// sparse flag or the depth limit — forged behind a re-sealed CRC —
/// cannot be fanned out with the base. The open records the tail
/// damaged, named by `failed_tails`, and every query answers like the
/// clean directory, by scan; `verify` names it, compaction refuses to
/// merge it with a typed error and commits nothing, and scrub
/// quarantines and heals it.
#[test]
fn a_tail_whose_header_disagrees_with_the_base_answers_like_the_clean_directory() {
    use warptree_disk::{compact_once, DiskError};

    // The flags word (bit 0: sparse) and the depth-limit word of the
    // tree header.
    for (what, at, value) in [("sparse flag", 12, 1), ("depth limit", 44, 7)] {
        let dir = tmpdir(&format!("tail-shape-{at}"));
        let (seg1, _seg2) = build_chaos_dir(&dir);
        let clean = clean_answers(&dir);
        forge_word(&dir.join(&seg1), at, value);

        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        assert_eq!(snap.failed_tails(), vec![seg1.clone()], "{what}");
        for (q, want) in chaos_queries().iter().zip(&clean) {
            let (out, stats) = snap.query(&chaos_request(q)).unwrap();
            assert_eq!(out.matches(), &want[..], "{what}: {q:?}");
            assert_eq!(stats, scan_stats(&snap.store, q), "{what}: {q:?}");
        }
        drop(snap);

        let report = verify_dir_with(&RealVfs, &dir).unwrap();
        let check = report.files.iter().find(|f| f.name == seg1).unwrap();
        let error = check.error.as_deref().unwrap_or_default();
        assert!(error.contains("differs from the base"), "{what}: {report}");
        let generation = resolve_dir_with(&RealVfs, &dir).unwrap().generation;
        match compact_once(&dir) {
            Err(DiskError::BadHeader(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("{what}: expected a typed BadHeader, got {other:?}"),
        }
        assert_eq!(
            resolve_dir_with(&RealVfs, &dir).unwrap().generation,
            generation
        );

        let report = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
        assert_eq!(report.newly_quarantined, vec![seg1.clone()], "{report}");
        assert_eq!(report.healed, vec![seg1], "{report}");
        assert_eq!(clean_answers(&dir), clean, "{what}: healed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Stretches the edge label of one child of tail segment `seg`'s root
/// (every query visits all of them) far past its sequence, under a
/// re-sealed page CRC. Returns the forged record's offset.
fn forge_root_child_label(dir: &Path, seg: &str) -> u64 {
    use warptree_disk::{DiskTree, PAGE_DATA};

    // A child whose label length word sits inside one page.
    let path = dir.join(seg);
    let label_len_at = {
        let snap = open_dir_snapshot_with(&RealVfs, dir).unwrap();
        let tree = DiskTree::open(&path, snap.tree.cat().clone()).unwrap();
        let root = tree.read_node(tree.header().root_offset).unwrap();
        let children = root.children().map(|(_, child)| child + 8);
        let inside = |at: &u64| at % PAGE_DATA as u64 + 4 <= PAGE_DATA as u64;
        children
            .filter(inside)
            .last()
            .expect("a child label inside a page")
    };
    forge_word(&path, label_len_at, 1_000_000);
    label_len_at - 8
}

/// The committed-file check `verify` and scrub run passes every page of
/// `seg` and fails it on a record that does not decode (`why`).
fn assert_check_fails_on_a_record(dir: &Path, seg: &str, why: &str) {
    let report = verify_dir_with(&RealVfs, dir).unwrap();
    assert!(!report.is_ok(), "{report}");
    let check = report.files.iter().find(|f| f.name == seg).unwrap();
    let pages = std::fs::metadata(dir.join(seg)).unwrap().len() / PAGE_SIZE as u64;
    assert_eq!(check.pages, pages, "every page passes its CRC: {report}");
    let error = check.error.as_deref().unwrap_or_default();
    assert!(error.contains(why), "{report}");
}

/// What the open of a directory whose tail `seg` holds a record forged
/// behind a valid CRC reports before any query has run: the tail failed,
/// the snapshot damaged, and `explain` answering by scan.
fn assert_found_at_open(snap: &DirSnapshot, seg: &str) {
    assert_eq!(snap.failed_tails(), vec![seg.to_string()]);
    assert!(snap.is_damaged());
    let params = SearchParams::with_epsilon(EPSILON);
    let (_, report) = ExplainReport::for_dir(snap, &chaos_queries()[0], &params).unwrap();
    assert_eq!(report.plan, "scan");
}

/// A page CRC vouches for bytes, not for who wrote them: a record
/// forged *with* a valid CRC whose edge label runs off its sequence is
/// found by the open, as a typed `BadRecord`, before any query: the tail
/// is recorded damaged, as one with a failed CRC is, and the answer
/// comes by scan — never a slice panic.
#[test]
fn hostile_record_behind_a_valid_crc_degrades_the_answer() {
    use warptree_disk::DiskError;

    let dir = tmpdir("hostile");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let req = chaos_request(&chaos_queries()[0]);
    let clean = clean_answers(&dir).swap_remove(0);
    let record = forge_root_child_label(&dir, &seg1);

    // The forged page passes every CRC check there is, and the record
    // does not pass decode...
    assert_check_fails_on_a_record(&dir, &seg1, "outside the corpus");
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_found_at_open(&snap, &seg1);
    let forged = snap.segments.iter().find(|t| t.source() == seg1).unwrap();
    match forged.as_tree().unwrap().read_node(record) {
        Err(DiskError::BadRecord(m)) => assert!(m.contains("outside the corpus"), "{m}"),
        other => panic!("expected a typed BadRecord, got {other:?}"),
    }
    // ...and a query over the directory answers by scan, exactly.
    let (out, _) = snap.query(&req).unwrap();
    assert_eq!(snap.failed_tails(), vec![seg1]);
    assert_eq!(out.matches(), &clean[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The committed-file check is the open, which checks every tree record,
/// so a record forged behind a valid CRC is found before any query:
/// `verify` names the segment, and scrub quarantines it and heals it
/// from the corpus, after which every answer is the clean one.
#[test]
fn scrub_finds_and_heals_a_hostile_record_behind_a_valid_crc() {
    let dir = tmpdir("hostile-scrub");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let answers = || clean_answers(&dir);
    let clean = answers();
    forge_root_child_label(&dir, &seg1);

    assert_check_fails_on_a_record(&dir, &seg1, "outside the corpus");
    let report = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
    assert_eq!(report.newly_quarantined, vec![seg1.clone()], "{report}");
    assert_eq!(report.healed, vec![seg1], "{report}");
    assert!(report.unrecoverable.is_none(), "{report}");
    let verified = verify_dir_with(&RealVfs, &dir).unwrap();
    assert!(verified.is_ok(), "{verified}");
    assert_eq!(answers(), clean, "healed answers are the clean ones");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for the entries a record hangs on its node: a forged
/// `(seq, start, lead_run)` would become an occurrence post-processing
/// slices the store with. One entry of one record the query walks — the
/// one behind a clean answer — is sent past the end of its sequence
/// under a valid CRC; the open finds it, and the answer comes back by
/// scan, still the clean one.
#[test]
fn hostile_suffix_entry_behind_a_valid_crc_degrades_the_answer() {
    use warptree_disk::{DiskError, DiskTree, PAGE_DATA};

    let dir = tmpdir("hostile-suffix");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let req =
        QueryRequest::threshold_params(&chaos_queries()[0], SearchParams::with_epsilon(EPSILON));
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    let clean = snap.query(&req).unwrap().0.matches().to_vec();

    // The record of segment 1 holding the suffix entry some clean answer
    // starts at, and the `start` word of that entry (inside one page).
    let path = dir.join(&seg1);
    let (record, start_at) = {
        let tree = DiskTree::open(&path, snap.tree.cat().clone()).unwrap();
        let is_answer = |(seq, start, _)| {
            clean
                .iter()
                .any(|m| (m.occ.seq, m.occ.start) == (seq, start))
        };
        let inside = |at: u64| at % PAGE_DATA as u64 + 4 <= PAGE_DATA as u64;
        let mut stack = vec![tree.header().root_offset];
        let mut found = None;
        while let (Some(offset), None) = (stack.pop(), found) {
            let node = tree.read_node(offset).unwrap();
            let entry = node.suffixes().position(is_answer);
            found = entry
                .map(|i| (offset, offset + 32 + 12 * i as u64 + 4))
                .filter(|&(_, at)| inside(at));
            stack.extend(node.children().map(|(_, child)| child));
        }
        found.expect("a clean answer out of segment 1")
    };
    drop(snap);
    forge_word(&path, start_at, u32::MAX - 1);

    assert_check_fails_on_a_record(&dir, &seg1, "suffix");
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_found_at_open(&snap, &seg1);
    let forged = snap.segments.iter().find(|t| t.source() == seg1).unwrap();
    match forged.as_tree().unwrap().read_node(record) {
        Err(DiskError::BadRecord(m)) => assert!(m.contains("suffix"), "{m}"),
        other => panic!("expected a typed BadRecord, got {other:?}"),
    }
    let (out, _) = snap.query(&req).unwrap();
    assert_eq!(snap.failed_tails(), vec![seg1]);
    assert_eq!(out.matches(), &clean[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The open's one check beyond the decoder's: a child must be the start
/// of a record. One child offset of tail segment 1's root is sent into
/// the record it named, to a 4-aligned offset where the decoder alone
/// reads a record — inside an earlier record, so it still precedes its
/// parent — under a re-sealed CRC. The open records the tail damaged
/// with a typed `BadRecord`, `verify` names it, and every query answers
/// like the clean directory, by scan.
#[test]
fn a_child_inside_an_earlier_record_is_found_at_open() {
    use warptree_disk::{read_stream, DiskError, DiskTree, NodeView, PAGE_DATA};

    let dir = tmpdir("child-start");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let clean = clean_answers(&dir);
    // The low word of one of the root's child offsets (inside one page),
    // and the offset forged into it.
    let path = dir.join(&seg1);
    let (word_at, forged) = {
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        let cat = snap.tree.cat();
        let tree = DiskTree::open(&path, cat.clone()).unwrap();
        let bytes = read_stream(&RealVfs, &path).unwrap();
        let inner = |child: u64| {
            let node = tree.read_node(child).unwrap();
            let entries = node.suffixes().len() + node.children().len();
            let end = child + 32 + 12 * entries as u64;
            let decodes = |&at: &u64| NodeView::decode(&bytes, at, cat).is_ok();
            (child + 4..end).step_by(4).find(decodes)
        };
        let root_at = tree.header().root_offset;
        let root = tree.read_node(root_at).unwrap();
        let entries = root_at + 32 + 12 * root.suffixes().len() as u64;
        let words = root.children().enumerate();
        let words = words.map(|(i, (_, child))| (entries + 12 * i as u64 + 4, child));
        let inside = |&(at, _): &(u64, u64)| at % PAGE_DATA as u64 + 4 <= PAGE_DATA as u64;
        let found = words
            .filter(inside)
            .find_map(|(at, child)| Some((at, inner(child)?)));
        found.expect("a child offset inside a page, and a record inside its record")
    };
    forge_word(&path, word_at, forged as u32);

    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_found_at_open(&snap, &seg1);
    let forged = snap.segments.iter().find(|t| t.source() == seg1).unwrap();
    match forged.as_tree().unwrap().damage() {
        Some(DiskError::BadRecord(m)) => assert!(m.contains("not the start of a record"), "{m}"),
        other => panic!("expected a typed BadRecord, got {other:?}"),
    }
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let (out, stats) = snap.query(&chaos_request(q)).unwrap();
        assert_eq!(out.matches(), &want[..], "{q:?}");
        assert_eq!(stats, scan_stats(&snap.store, q), "{q:?}");
    }
    drop(snap);
    assert_check_fails_on_a_record(&dir, &seg1, "not the start of a record");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for an enhanced-suffix-array directory, whose arrays are
/// loaded whole at open: the root record of one tail segment gets a
/// child slice far past the child table under a valid CRC. Open refuses
/// the segment as a typed `BadRecord`, as it does a tree record that
/// fails its checks, and records it damaged: the open succeeds and the
/// answer comes back by scan, the clean one. Scrub quarantines
/// the segment as it would a failed CRC, and the answer stays clean.
#[test]
fn hostile_esa_record_behind_a_valid_crc_degrades_the_answer() {
    use warptree_core::search::BackendKind;
    use warptree_disk::{DiskError, PAGE_DATA};

    let dir = tmpdir("hostile-esa");
    let base = gen_store(1, 24, 24);
    let cat = Categorization::EqualLength(8);
    warptree::build_index_dir_backend(&base, cat, false, 64, BackendKind::Esa, &dir).unwrap();
    warptree::append_index_dir(&dir, &gen_store(1000, 36, 28)).unwrap();
    warptree::append_index_dir(&dir, &gen_store(2000, 36, 28)).unwrap();
    let seg1 = resolve_dir_with(&RealVfs, &dir).unwrap().manifest.segments[0]
        .file
        .clone();
    let req =
        QueryRequest::threshold_params(&chaos_queries()[0], SearchParams::with_epsilon(EPSILON));
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    let clean = snap.query(&req).unwrap().0.matches().to_vec();

    // The root record's `child_off` or `child_count` word (the format's
    // 64-byte header, 12-byte entries, 28-byte records), whichever sits
    // inside one page.
    let word_at = {
        let seg = snap.segments.iter().find(|t| t.source() == seg1).unwrap();
        let h = seg.as_esa().unwrap().header();
        let root_at = 64 + h.entry_count * 12 + h.root as u64 * 28;
        [root_at + 12, root_at + 16]
            .into_iter()
            .find(|at| at % PAGE_DATA as u64 + 4 <= PAGE_DATA as u64)
            .unwrap()
    };
    let cat = snap.cat.clone();
    drop(snap);
    forge_word(&dir.join(&seg1), word_at, u32::MAX - 1);

    // The open refuses the segment alone as a typed `BadRecord`...
    let path = dir.join(&seg1);
    match warptree_disk::AnyIndex::open_with(&RealVfs, &path, cat, BackendKind::Esa) {
        Err(DiskError::BadRecord(m)) => assert!(m.contains("child slice"), "{m}"),
        other => panic!("expected a typed BadRecord, got {:?}", other.map(|_| ())),
    }
    // ...and the directory opens with it recorded damaged.
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert_eq!(snap.failed_tails(), vec![seg1.clone()]);
    let (out, _) = snap.query(&req).unwrap();
    assert_eq!(out.matches(), &clean[..]);
    drop(snap);
    let report = scrub_dir_with(&RealVfs, &dir, false, &MetricsRegistry::new()).unwrap();
    assert_eq!(report.newly_quarantined, vec![seg1]);
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    let (out, _) = snap.query(&req).unwrap();
    assert_eq!(out.matches(), &clean[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Disk-only, through the server: degraded serving, protocol-version
// gating, health/stats surfacing, restart persistence, scrub heal.
// ---------------------------------------------------------------------

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        compact_threshold: 0, // keep the segment layout stable here
        ..ServerConfig::default()
    }
}

fn counts_and_matches(v: &Json) -> (u64, String) {
    let count = v.get("count").and_then(Json::as_u64).unwrap();
    let matches = v.get("matches").unwrap();
    (count, format!("{matches:?}"))
}

#[test]
fn server_serves_complete_results_and_heals_across_restart() {
    let dir = tmpdir("server");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    let queries = chaos_queries();

    // Clean baseline through the server.
    let clean: Vec<(u64, String)> = {
        let handle = Server::start(&dir, server_config()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let out = queries
            .iter()
            .map(|q| {
                let v = client.search(q, EPSILON, None).unwrap();
                assert!(v.get("partial").is_none(), "clean serving is complete");
                counts_and_matches(&v)
            })
            .collect();
        handle.stop();
        out
    };

    // Corrupt segment 1, restart (fresh caches — detection guaranteed).
    corrupt_pages_after_first(&dir.join(&seg1));
    let handle = Server::start(&dir, server_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // The open found the damage; the first query quarantines the tail
    // and answers by scan: the clean answer, with no partial label.
    let v = client.search(&queries[0], EPSILON, None).unwrap();
    assert!(v.get("partial").is_none() && v.get("coverage").is_none());
    assert_eq!(counts_and_matches(&v), clean[0]);
    // Every later query scans up front, and answers the same.
    for (q, want) in queries.iter().zip(&clean) {
        let v = client.search(q, EPSILON, None).unwrap();
        assert!(v.get("partial").is_none());
        assert_eq!(&counts_and_matches(&v), want);
    }

    // Health reports degraded (still serving); stats expose the gauge
    // and the scan-query counter.
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
    assert_eq!(
        h.get("quarantined_segments").and_then(Json::as_u64),
        Some(1)
    );
    let s = client.stats().unwrap();
    let metrics = s.get("metrics").unwrap();
    assert_eq!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("server.quarantined_segments"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    assert!(
        metrics
            .get("counters")
            .and_then(|c| c.get("search.scan_queries"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 5
    );

    // Quarantine survives a full server restart (the tombstone is a
    // committed manifest generation, not process state).
    handle.stop();
    let handle = Server::start(&dir, server_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
    let v = client.search(&queries[1], EPSILON, None).unwrap();
    assert_eq!(counts_and_matches(&v), clean[1]);

    // Offline scrub heals while the server is live; the reload watcher
    // picks up the healed generation.
    let report = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
    assert_eq!(report.healed, vec![seg1]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = client.health().unwrap();
        if h.get("status").and_then(Json::as_str) == Some("serving") {
            assert_eq!(
                h.get("quarantined_segments").and_then(Json::as_u64),
                Some(0)
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never un-degraded after heal"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Answers match the clean baseline again (generation moved, so
    // compare counts and match arrays, not whole frames).
    for (q, want) in queries.iter().zip(&clean) {
        let v = client.search(q, EPSILON, None).unwrap();
        assert!(v.get("partial").is_none());
        assert_eq!(&counts_and_matches(&v), want);
    }
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn background_scrub_worker_quarantines_and_heals() {
    let dir = tmpdir("bgscrub");
    let (seg1, _seg2) = build_chaos_dir(&dir);
    corrupt_pages_after_first(&dir.join(&seg1));
    let config = ServerConfig {
        scrub_interval: Duration::from_millis(50),
        ..server_config()
    };
    let handle = Server::start(&dir, config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // The scrub loop quarantines the corrupt segment and heals it from
    // the corpus in the same pass; wait for the healed counter.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snap = handle.registry().snapshot();
        if snap
            .counters
            .get("server.scrub_heals")
            .copied()
            .unwrap_or(0)
            >= 1
        {
            break;
        }
        assert!(Instant::now() < deadline, "background scrub never healed");
        std::thread::sleep(Duration::from_millis(25));
    }
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("serving"));
    // The healed index answers, with no partial label.
    let v = client.search(&chaos_queries()[1], EPSILON, None).unwrap();
    assert!(v.get("partial").is_none());
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `health` says `degraded` once the published snapshot holds a failed
/// tree, the base included: a base page that fails its CRC is found when
/// the server opens the directory, and every query answers by scan — the
/// clean answer — and is counted as a scan query.
#[test]
fn health_is_degraded_while_the_base_is_corrupt() {
    let dir = tmpdir("server-base");
    build_chaos_dir(&dir);
    let handle = Server::start(&dir, server_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let clean: Vec<_> = (chaos_queries().iter())
        .map(|q| counts_and_matches(&client.search(q, EPSILON, None).unwrap()))
        .collect();
    handle.stop();

    let index = resolve_dir_with(&RealVfs, &dir).unwrap().index_path;
    corrupt_pages_after_first(&index);
    let handle = Server::start(&dir, server_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // The damaged page is found when the base opens, before any query.
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
    for (q, want) in chaos_queries().iter().zip(&clean) {
        let v = client.search(q, EPSILON, None).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(&counts_and_matches(&v), want);
    }
    let h = client.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("degraded"));
    assert_eq!(
        h.get("quarantined_segments").and_then(Json::as_u64),
        Some(0),
        "a base is not quarantined"
    );
    let counters = handle.registry().snapshot().counters;
    assert_eq!(counters.get("search.scan_queries").copied(), Some(4));
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Net-only: the fault-injecting stream wrapper against a clean server.
// ---------------------------------------------------------------------

/// One chaos connection: frames written through a [`ChaosStream`]. On
/// any transport fault the TCP socket is dropped (the server sees a
/// torn frame / EOF) and re-dialed.
struct ChaosConn {
    addr: std::net::SocketAddr,
    stream: Option<ChaosStream<TcpStream>>,
    seed: u64,
    faults: u64,
    /// Faults the dropped streams injected, by kind: `[torn, dropped,
    /// stalled]` (see [`ChaosConn::injected`]).
    injected: [u64; 3],
}

impl ChaosConn {
    fn new(addr: std::net::SocketAddr, seed: u64) -> Self {
        ChaosConn {
            addr,
            stream: None,
            seed,
            faults: 0,
            injected: [0; 3],
        }
    }

    /// Faults injected so far over every stream this connection has
    /// dialed, by kind: `[torn, dropped, stalled]`.
    fn injected(&self) -> [u64; 3] {
        let live = self.stream.as_ref().map_or([0; 3], |s| s.injected);
        std::array::from_fn(|k| self.injected[k] + live[k])
    }

    fn config(&self) -> ChaosConfig {
        ChaosConfig {
            seed: self.seed,
            torn_per_mille: 120,
            drop_per_mille: 120,
            stall_per_mille: 60,
            stall: Duration::from_millis(5),
        }
    }

    /// Sends one request; returns the raw response, or `None` if a
    /// fault (injected or consequent) lost this exchange.
    fn exchange(&mut self, body: &str) -> Option<Vec<u8>> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).ok()?;
            s.set_read_timeout(Some(Duration::from_millis(500))).ok()?;
            s.set_nodelay(true).ok();
            // Advance the seed so a rebuilt stream doesn't replay the
            // previous stream's fault schedule from the start.
            self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.stream = Some(ChaosStream::new(s, self.config()));
        }
        let stream = self.stream.as_mut().expect("dialed above");
        let result = write_frame(stream, body.as_bytes()).and_then(|()| read_frame(stream));
        match result {
            Ok(Some(payload)) => Some(payload),
            Ok(None) | Err(_) => {
                // Count and drop the connection; the server must treat
                // the torn/vanished frame as a dead client, nothing
                // more.
                self.faults += 1;
                self.injected = self.injected();
                self.stream = None;
                None
            }
        }
    }
}

#[test]
fn net_chaos_never_corrupts_answers() {
    let dir = tmpdir("netchaos");
    build_chaos_dir(&dir);
    let handle = Server::start(&dir, server_config()).unwrap();
    let queries = chaos_queries();
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| search_request_v4(q, EPSILON, None))
        .collect();

    // Clean responses over a plain client (no faults).
    let mut plain = Client::connect(handle.addr()).unwrap();
    let clean: Vec<String> = bodies
        .iter()
        .map(|b| common::strip_timings(&plain.request_raw(b).unwrap()))
        .collect();

    // Fixed seed → reproducible fault schedule (the CI smoke job runs
    // this exact test).
    let mut conn = ChaosConn::new(handle.addr(), 0xC0FFEE);
    let mut delivered = 0u64;
    for round in 0..60 {
        let i = round % bodies.len();
        if let Some(payload) = conn.exchange(&bodies[i]) {
            let text = String::from_utf8(payload).expect("response is UTF-8");
            assert_eq!(
                common::strip_timings(&text),
                clean[i],
                "response under net chaos differs from clean response"
            );
            delivered += 1;
        }
    }
    assert!(delivered > 0, "some exchanges must survive the fault mix");
    assert!(conn.faults > 0, "the fault mix must actually fire");
    // A frame is one write, so one roll of the schedule per request:
    // the fixed seed must still reach every kind of fault.
    let injected = conn.injected();
    assert!(
        injected.iter().all(|&n| n > 0),
        "[torn, dropped, stalled] = {injected:?}: a fault kind never fired"
    );

    // The server survived every torn/dropped frame and still serves.
    let h = plain.health().unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("serving"));
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retry_with_backoff_rides_out_dropped_connections() {
    // A flaky fake server: drops the first two accepted connections on
    // the floor (the client sees EOF mid-exchange — a transient
    // transport fault), then serves canned responses. The retry loop
    // must re-dial and land the request without surfacing an error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for i in 0..3 {
            let (mut conn, _) = listener.accept().unwrap();
            if i < 2 {
                drop(conn); // yank the socket: transient for the client
                continue;
            }
            let frame = read_frame(&mut conn).unwrap().expect("request frame");
            assert!(std::str::from_utf8(&frame)
                .unwrap()
                .contains("\"op\":\"search\""));
            write_frame(&mut conn, br#"{"ok":true,"count":0,"matches":[]}"#).unwrap();
        }
    });
    let mut client = ShardConn::new(addr.to_string());
    let policy = RetryPolicy {
        max_retries: 5,
        base: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        deadline: Some(Duration::from_secs(10)),
    };
    let v = client
        .request_with_retry(&search_request_v4(&[1.0, 2.0], EPSILON, None), &policy)
        .unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    server.join().unwrap();
}

// ---------------------------------------------------------------------
// Both: disk corruption + net chaos, concurrent with online ingest and
// background compaction.
// ---------------------------------------------------------------------

#[test]
fn full_chaos_matrix_with_concurrent_ingest() {
    let dir = tmpdir("matrix");
    build_chaos_dir(&dir);
    let config = ServerConfig {
        compact_threshold: 3,
        compact_interval: Duration::from_millis(50),
        ..server_config()
    };
    let handle = Server::start(&dir, config).unwrap();
    let addr = handle.addr();
    let queries = chaos_queries();

    // Writer thread: online ingest with retry, racing the queries and
    // the compactor.
    let writer = std::thread::spawn(move || {
        let policy = RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Some(Duration::from_secs(20)),
        };
        let mut client = ShardConn::new(addr.to_string());
        let mut acked = 0u32;
        for batch in 0..4u64 {
            let body = Request::Ingest {
                sequences: gen_values(5000 + batch * 131, 12, 20),
            }
            .encode(None);
            if client.request_with_retry(&body, &policy).is_ok() {
                acked += 1;
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        acked
    });

    // Main thread: queries through net chaos; halfway through, corrupt
    // a committed segment on disk.
    let allowed_errors = [
        "overloaded",
        "deadline_exceeded",
        "result_too_large",
        "shutting_down",
        "internal",
    ];
    let mut conn = ChaosConn::new(addr, 0xDEADBEEF);
    let mut parsed = 0u64;
    for round in 0..80 {
        if round == 30 {
            // The compactor may already have folded the original
            // segments; corrupt whichever tail segment is live right
            // now. Losing the race (file merged away between resolve
            // and open) just means this run exercises the net-only
            // column — the invariants below hold either way.
            if let Ok(resolved) = resolve_dir_with(&RealVfs, &dir) {
                if let Some(meta) = resolved.manifest.live_segments().next() {
                    let _ = try_corrupt_pages_after_first(&dir.join(&meta.file));
                }
            }
        }
        let body = search_request_v4(&queries[round % queries.len()], EPSILON, None);
        let Some(payload) = conn.exchange(&body) else {
            continue;
        };
        let text = String::from_utf8(payload).expect("response is UTF-8");
        let v = json::parse(&text).unwrap_or_else(|e| panic!("unparseable response {text:?}: {e}"));
        parsed += 1;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                // Structural honesty: count matches the match array, and
                // a shard's answer is never partial.
                let count = v.get("count").and_then(Json::as_u64).unwrap();
                let matches = v.get("matches").and_then(Json::as_arr).unwrap();
                assert_eq!(count as usize, matches.len(), "{text}");
                assert!(v.get("partial").is_none(), "{text}");
                assert!(v.get("coverage").is_none(), "{text}");
            }
            Some(false) => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                assert!(
                    allowed_errors.contains(&code),
                    "unexpected error code {code:?} in {text}"
                );
            }
            None => panic!("response missing \"ok\": {text}"),
        }
    }
    let acked = writer.join().expect("writer thread");
    assert!(parsed > 0, "some exchanges must survive the fault mix");
    assert!(acked >= 1, "ingest with retry must land despite chaos");
    handle.stop();

    // Aftermath: heal offline, then prove the surviving directory
    // answers exactly like a clean snapshot of the same (final) corpus.
    let report = scrub_dir_with(&RealVfs, &dir, true, &MetricsRegistry::new()).unwrap();
    assert!(report.unrecoverable.is_none(), "{report}");
    let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
    assert!(snap.quarantined.is_empty());
    for q in &queries {
        let req = QueryRequest::threshold_params(q, SearchParams::with_epsilon(EPSILON));
        let (out, _) = snap.query(&req).unwrap();
        assert!(!snap.is_damaged(), "the healed index answers");
        let (clean_out, _) = snap.query(&req).unwrap();
        assert_eq!(out.matches(), clean_out.matches());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
