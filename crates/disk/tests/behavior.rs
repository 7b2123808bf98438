//! Behavioural tests of the disk layer: merge preconditions, a reopened
//! tree against the in-memory one, builder edge cases, merges of trees deeper than
//! a thread's stack would hold, and the whole pipeline from a persisted
//! corpus through a merged tree to a search.

use std::sync::Arc;
use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::search::{
    run_query, seq_scan, IndexBackend, QueryRequest, SearchParams, SearchStats, SeqScanMode,
};
use warptree_core::sequence::{SeqId, SequenceStore};
use warptree_disk::{
    load_corpus, merge_trees, save_corpus, write_tree, DiskError, DiskTree, IncrementalBuilder,
    TreeKind,
};
use warptree_suffix::{build_full, build_full_range, build_full_truncated, TruncateSpec};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-behavior-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn small_cat() -> Arc<CatStore> {
    Arc::new(CatStore::from_symbols(
        vec![vec![0, 1, 2, 1, 0, 2], vec![2, 2, 1]],
        3,
    ))
}

/// Trees that disagree on the depth limit do not merge: a typed
/// `BadHeader`, before the output file is created.
#[test]
fn merge_rejects_mismatched_depth_limits() {
    let cat = small_cat();
    let full = build_full(cat.clone());
    let trunc = build_full_truncated(
        cat.clone(),
        TruncateSpec {
            max_answer_len: 2,
            min_answer_len: 1,
        },
    );
    let dir = tmpdir("mismatch");
    let (p1, p2) = (dir.join("a.wt"), dir.join("b.wt"));
    write_tree(&full, &p1).unwrap();
    write_tree(&trunc, &p2).unwrap();
    match merge_trees(&p1, &p2, &cat, &dir.join("m.wt")) {
        Err(DiskError::BadHeader(m)) => assert!(m.contains("depth limit differs"), "{m}"),
        other => panic!("expected a typed BadHeader, got {other:?}"),
    }
    assert!(!dir.join("m.wt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An empty store builds a root-only tree of the configured shape:
/// full or sparse, truncated or not.
#[test]
fn incremental_builder_handles_empty_store() {
    let cat = Arc::new(CatStore::from_symbols(vec![], 2));
    let dir = tmpdir("empty");
    let out = dir.join("index.wt");
    let spec = TruncateSpec {
        max_answer_len: 5,
        min_answer_len: 1,
    };
    for kind in [TreeKind::Full, TreeKind::Sparse] {
        for truncate in [None, Some(spec)] {
            let mut builder = IncrementalBuilder::new(cat.clone(), kind, 4);
            if let Some(spec) = truncate {
                builder = builder.with_truncation(spec);
            }
            builder.build(&out).unwrap();
            let disk = DiskTree::open(&out, cat.clone()).unwrap();
            assert_eq!(disk.suffix_count(), 0);
            assert_eq!(disk.is_sparse(), kind == TreeKind::Sparse);
            assert_eq!(
                disk.header().depth_limit,
                truncate.map(|s| s.max_answer_len)
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tree read back from its file enumerates the suffixes of the
/// in-memory tree it was written from, in the same order, and so does
/// the in-memory tree's own bytes.
#[test]
fn reopening_matches_the_in_memory_tree() {
    let cat = small_cat();
    let tree = build_full(cat.clone());
    let dir = tmpdir("reopen");
    let path = dir.join("t.wt");
    write_tree(&tree, &path).unwrap();
    let disk = DiskTree::open(&path, cat.clone()).unwrap();
    let suffixes = |t: &DiskTree| {
        let mut out = Vec::new();
        t.for_each_suffix_below(t.root(), &mut |s, p, r| out.push((s, p, r)));
        out
    };
    let below = tree.suffixes_below(warptree_suffix::ROOT).into_iter();
    let mem: Vec<_> = below.map(|l| (l.seq, l.start, l.lead_run)).collect();
    assert!(!mem.is_empty());
    assert_eq!(suffixes(&disk), mem);
    assert_eq!(suffixes(&DiskTree::from_tree(&tree)), mem);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A straight-line scenario through the whole disk pipeline: corpus
/// persistence, a two-way merge, reopening, and searching the merged tree
/// read back from its file.
#[test]
fn full_disk_pipeline() {
    let dir = tmpdir("pipeline");
    let store = SequenceStore::from_values(
        (0..24)
            .map(|i| (0..60).map(|j| ((i * 31 + j * 7) % 23) as f64).collect())
            .collect::<Vec<Vec<f64>>>(),
    );
    let alphabet = Alphabet::max_entropy(&store, 10).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));

    // Persist and reload the corpus.
    let corpus_path = dir.join("corpus.wc");
    save_corpus(&store, &alphabet, &corpus_path).unwrap();
    let (store2, alphabet2, cat2) = load_corpus(&corpus_path).unwrap();
    assert_eq!(store2.len(), store.len());
    assert_eq!(cat2.seqs(), cat.seqs());

    // Build two halves and merge them.
    let (p1, p2, pm) = (dir.join("h1.wt"), dir.join("h2.wt"), dir.join("merged.wt"));
    write_tree(&build_full_range(cat.clone(), 0..12), &p1).unwrap();
    write_tree(&build_full_range(cat.clone(), 12..24), &p2).unwrap();
    merge_trees(&p1, &p2, &cat, &pm).unwrap();
    let merged = DiskTree::open(&pm, cat2).unwrap();

    // Search the merged tree over the reloaded corpus.
    let params = SearchParams::with_epsilon(3.0);
    for i in 0..5 {
        let q = store2.get(SeqId(i * 4)).subseq(i * 5, 8).to_vec();
        let req = QueryRequest::threshold_params(&q, params.clone());
        let (out, stats) = run_query(&merged, &alphabet2, &store2, &req).unwrap();
        let mut scan_stats = SearchStats::default();
        let scan = seq_scan(&store2, &q, &params, SeqScanMode::Full, &mut scan_stats);
        assert_eq!(
            out.into_answer_set().occurrence_set(),
            scan.occurrence_set()
        );
        // The index does less table work than the scan.
        assert!(stats.filter_cells <= scan_stats.filter_cells);
    }
    // The open read the file, and no query read a page after it.
    let pages = std::fs::metadata(&pm).unwrap().len() / warptree_disk::PAGE_SIZE as u64;
    assert_eq!(merged.io_stats().pages_read, pages);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `f` on a thread with a 2 MiB stack — what a spawned thread gets
/// by default, the server's background compaction thread included — and
/// waits for it.
fn on_a_2_mib_stack(f: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new().stack_size(2 << 20);
    thread.spawn(f).unwrap().join().unwrap();
}

/// A flat-lined series categorizes to one symbol repeated, whose suffix
/// tree is a chain as deep as the series is long.
const FLAT: usize = 20_000;

/// The merge walks its inputs with an explicit stack, not the thread's:
/// the build of two flat 20,000-value sequences at one per batch merges
/// two 20,000-deep chains on a 2 MiB stack.
#[test]
fn a_deep_build_merges_on_a_small_stack() {
    let cat = Arc::new(CatStore::from_symbols(vec![vec![0; FLAT]; 2], 1));
    let dir = tmpdir("deep-build");
    on_a_2_mib_stack(move || {
        let out = dir.join("index.wt");
        IncrementalBuilder::new(cat.clone(), TreeKind::Full, 1)
            .build(&out)
            .unwrap();
        let disk = DiskTree::open(&out, cat).unwrap();
        assert_eq!(disk.suffix_count(), 2 * FLAT as u64);
        assert!(disk.damage().is_none(), "every record passes the open");
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

/// The same for compaction: a flat base and a flat tail fold into one
/// tree on a 2 MiB stack.
#[test]
fn a_deep_compaction_runs_on_a_small_stack() {
    use warptree_disk::{append_segment, build_dir_with, compact_once, real_vfs};
    let flat = || SequenceStore::from_values(vec![vec![5.0; FLAT]]);
    let dir = tmpdir("deep-compact");
    let alphabet = Alphabet::equal_length(&flat(), 4).unwrap();
    build_dir_with(
        real_vfs(),
        &flat(),
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        &dir,
    )
    .unwrap();
    append_segment(&dir, &flat()).unwrap();
    on_a_2_mib_stack(move || {
        let manifest = compact_once(&dir).unwrap().unwrap();
        assert!(manifest.segments.is_empty());
        let snap = warptree_disk::open_dir_snapshot_with(&warptree_disk::RealVfs, &dir);
        let snap = snap.unwrap();
        assert_eq!(snap.tree.suffix_count(), 2 * FLAT as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    });
}
