//! Cross-backend equivalence (the tentpole contract of the
//! `IndexBackend` work): a directory built with `--backend esa` answers
//! every query **byte-identically** to the same data built with
//! `--backend tree` — same matches, same distances, same search-funnel
//! statistics — because the ESA's LCP-interval traversal emulates the
//! tree's top-down traversal node for node.
//!
//! Identity is checked for `search`, `knn` and `explain`, at 1 and 8
//! threads, over monolithic and 3-segment directories, for full and
//! sparse indexes, with and without the lower-bound cascade, and for
//! windowed / length-bounded parameters whose `effective_max_len`
//! accounting must agree near segment-boundary suffixes.
//!
//! The suite also pins down the API seams around the equivalence:
//! backend identity is reported by the directory handle and `explain`,
//! a request pinned to the other family fails with the typed
//! [`CoreError::UnsupportedBackend`], and both backends agree with the
//! exact sequential scan (the paper's no-false-dismissal contract).

use std::path::PathBuf;

use warptree::prelude::*;
use warptree::{build_index_dir_backend, open_index_dir, Categorization, DiskIndexDir};
use warptree_core::error::CoreError;
use warptree_disk::{verify_dir_with, RealVfs};

fn tmpdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-bke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Base corpus (segment 0 after build).
fn batch0() -> SequenceStore {
    SequenceStore::from_values(vec![
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 3.0],
        vec![5.0, 5.0, 4.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        vec![2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 5.0],
    ])
}

/// First append. The last sequence *ends* in the exact pattern
/// `[6.0, 7.0, 8.0]`, so its best match occupies the final positions of
/// a tail-segment sequence — the place where backend-specific suffix
/// enumeration or length accounting near a segment boundary would show.
fn batch1() -> SequenceStore {
    SequenceStore::from_values(vec![
        vec![4.0, 3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0],
        vec![1.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    ])
}

/// Second append; carries a near miss of the boundary query.
fn batch2() -> SequenceStore {
    SequenceStore::from_values(vec![
        vec![6.0, 7.0, 9.5, 3.0, 2.0, 2.0, 1.0],
        vec![3.0, 4.0, 4.0, 5.0, 5.0, 6.0, 6.0, 5.0, 4.0],
    ])
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![6.0, 7.0, 8.0], // the segment-boundary pattern
        vec![2.0, 3.0, 4.0],
        vec![5.0, 4.0, 3.0, 2.0],
        vec![3.0, 3.0],
    ]
}

/// Parameter sets covering the plain search, the cascade ablation, and
/// the windowed/length-bounded paths whose `effective_max_len` /
/// `effective_min_len` accounting both backends must apply identically.
fn param_sets() -> Vec<(SearchParams, &'static str)> {
    vec![
        (SearchParams::with_epsilon(1.0), "plain"),
        (SearchParams::with_epsilon(1.0).cascaded(false), "nocascade"),
        (SearchParams::with_epsilon(2.0).windowed(1), "windowed"),
        (
            SearchParams::with_epsilon(2.5).length_range(2, 5),
            "bounded",
        ),
        (
            SearchParams::with_epsilon(3.0)
                .windowed(2)
                .length_range(3, 6),
            "windowed+bounded",
        ),
    ]
}

/// Builds one directory with the given backend: monolithic, or base
/// build plus two segment appends.
fn build_dir(kind: BackendKind, sparse: bool, segmented: bool) -> PathBuf {
    let tag = format!(
        "{}-{}-{}",
        kind.as_str(),
        if sparse { "sp" } else { "fu" },
        if segmented { "seg" } else { "mono" }
    );
    let dir = tmpdir(&tag);
    if segmented {
        build_index_dir_backend(
            &batch0(),
            Categorization::MaxEntropy(6),
            sparse,
            2,
            kind,
            &dir,
        )
        .unwrap();
        warptree::append_index_dir(&dir, &batch1()).unwrap();
        warptree::append_index_dir(&dir, &batch2()).unwrap();
    } else {
        let mut all: Vec<Vec<f64>> = Vec::new();
        for batch in [batch0(), batch1(), batch2()] {
            all.extend(batch.iter().map(|(_, s)| s.values().to_vec()));
        }
        let store = SequenceStore::from_values(all);
        build_index_dir_backend(&store, Categorization::MaxEntropy(6), sparse, 2, kind, &dir)
            .unwrap();
    }
    dir
}

/// Asserts the ESA directory answers byte-identically to the tree
/// directory: matches, distances, and the **complete** [`SearchStats`]
/// snapshot (it is `Eq` and carries no timings, so "same funnel" is an
/// exact equality, structural counters included).
fn assert_backends_agree(tree: &DiskIndexDir, esa: &DiskIndexDir, context: &str) {
    for q in queries() {
        for (params, ptag) in param_sets() {
            for threads in [1u32, 8] {
                let req = QueryRequest::threshold_params(&q, params.clone()).parallel(threads);
                let (t, ts) = tree.query(&req).unwrap();
                let (e, es) = esa.query(&req).unwrap();
                assert_eq!(
                    t.into_answer_set().matches(),
                    e.into_answer_set().matches(),
                    "{context}: search q={q:?} params={ptag} threads={threads}"
                );
                assert_eq!(
                    ts, es,
                    "{context}: funnel q={q:?} params={ptag} threads={threads}"
                );
            }
        }
        for threads in [1u32, 8] {
            let req = QueryRequest::knn_params(&q, KnnParams::new(3)).parallel(threads);
            let (t, ts) = tree.query(&req).unwrap();
            let (e, es) = esa.query(&req).unwrap();
            assert_eq!(
                t.into_ranked(),
                e.into_ranked(),
                "{context}: knn q={q:?} threads={threads}"
            );
            assert_eq!(ts, es, "{context}: knn funnel q={q:?} threads={threads}");
        }
        // explain runs the search too; its report embeds the stats and
        // names the backend that produced them.
        let params = SearchParams::with_epsilon(1.0);
        let (ta, tr) = tree.explain(&q, &params).unwrap();
        let (ea, er) = esa.explain(&q, &params).unwrap();
        assert_eq!(ta.matches(), ea.matches(), "{context}: explain q={q:?}");
        assert_eq!(tr.stats, er.stats, "{context}: explain funnel q={q:?}");
        assert_eq!(tr.suffixes, er.suffixes, "{context}: explain suffixes");
        assert_eq!(tr.backend, "tree", "{context}");
        assert_eq!(er.backend, "esa", "{context}");
    }
}

/// The headline matrix: search/knn/explain × {1, 8} threads ×
/// {monolithic, 3-segment} × {full, sparse}, tree vs. ESA.
#[test]
fn esa_answers_byte_identically_to_tree() {
    for sparse in [false, true] {
        for segmented in [false, true] {
            let tdir = build_dir(BackendKind::Tree, sparse, segmented);
            let edir = build_dir(BackendKind::Esa, sparse, segmented);
            for d in [&tdir, &edir] {
                let report = verify_dir_with(&RealVfs, d).unwrap();
                assert!(report.is_ok(), "verify failed for {d:?}:\n{report}");
            }
            let tree = open_index_dir(&tdir, 64).unwrap();
            let esa = open_index_dir(&edir, 64).unwrap();
            assert_eq!(tree.backend(), BackendKind::Tree);
            assert_eq!(esa.backend(), BackendKind::Esa);
            if segmented {
                assert_eq!(tree.segment_count(), 3);
                assert_eq!(esa.segment_count(), 3);
            }
            let context = format!("sparse={sparse} segmented={segmented}");
            assert_backends_agree(&tree, &esa, &context);
            std::fs::remove_dir_all(&tdir).unwrap();
            std::fs::remove_dir_all(&edir).unwrap();
        }
    }
}

/// Ground truth: the ESA fan-out is also *exact* (no false dismissals),
/// not merely tree-consistent — checked against the sequential scan.
#[test]
fn esa_matches_the_sequential_scan() {
    let dir = build_dir(BackendKind::Esa, true, true);
    let idx = open_index_dir(&dir, 64).unwrap();
    for q in queries() {
        let params = SearchParams::with_epsilon(1.0);
        let (out, _) = idx
            .query(&QueryRequest::threshold_params(&q, params.clone()))
            .unwrap();
        let mut stats = SearchStats::default();
        let scan = seq_scan(&idx.store, &q, &params, SeqScanMode::Full, &mut stats);
        assert_eq!(
            out.into_answer_set().occurrence_set(),
            scan.occurrence_set(),
            "ESA diverges from seq_scan for q={q:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compacting an ESA directory folds segments without changing a single
/// answer or funnel counter — the compaction rebuild is canonical.
#[test]
fn esa_compaction_preserves_answers() {
    let seg = build_dir(BackendKind::Esa, true, true);
    let mono = tmpdir("esa-compacted");
    for entry in std::fs::read_dir(&seg).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), mono.join(entry.file_name())).unwrap();
    }
    let folds = warptree::compact_index_dir(&mono).unwrap();
    assert_eq!(folds, 2, "3 segments fold in two binary steps");

    let seg_idx = open_index_dir(&seg, 64).unwrap();
    let mono_idx = open_index_dir(&mono, 64).unwrap();
    assert_eq!(seg_idx.segment_count(), 3);
    assert_eq!(mono_idx.segment_count(), 1);
    assert_eq!(mono_idx.backend(), BackendKind::Esa);
    for q in queries() {
        let req = QueryRequest::threshold(&q, 1.0);
        let (s, _) = seg_idx.query(&req).unwrap();
        let (m, _) = mono_idx.query(&req).unwrap();
        assert_eq!(
            s.into_answer_set().matches(),
            m.into_answer_set().matches(),
            "compaction changed answers for q={q:?}"
        );
    }
    for d in [&seg, &mono] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A request pinned to the other backend family is a typed rejection —
/// never silently answered by whatever index happens to be open.
#[test]
fn pinned_requests_enforce_backend_identity() {
    let tdir = build_dir(BackendKind::Tree, true, false);
    let edir = build_dir(BackendKind::Esa, true, false);
    let tree = open_index_dir(&tdir, 64).unwrap();
    let esa = open_index_dir(&edir, 64).unwrap();
    let q = vec![2.0, 3.0, 4.0];

    for (idx, own, other) in [
        (&tree, BackendKind::Tree, BackendKind::Esa),
        (&esa, BackendKind::Esa, BackendKind::Tree),
    ] {
        // The matching pin answers identically to no pin.
        let plain = QueryRequest::threshold(&q, 1.0);
        let pinned = QueryRequest::threshold(&q, 1.0).on_backend(own);
        let (a, _) = idx.query(&plain).unwrap();
        let (b, _) = idx.query(&pinned).unwrap();
        assert_eq!(a.into_answer_set().matches(), b.into_answer_set().matches());

        // The mismatched pin is the typed error, for both query kinds.
        let err = idx
            .query(&QueryRequest::threshold(&q, 1.0).on_backend(other))
            .unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedBackend { requested, actual }
                if requested == other.as_str() && actual == own.as_str()),
            "wrong error: {err}"
        );
        let err = idx
            .query(&QueryRequest::knn(&q, 2).on_backend(other))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedBackend { .. }), "{err}");
    }
    for d in [&tdir, &edir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
