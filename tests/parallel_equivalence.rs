//! The parallel-execution contract: at every thread count, every query
//! path returns **byte-identical** results to the sequential path —
//! same matches in the same order, and the same work counters. Covered
//! here across full, sparse and truncated (categorized) indexes, in
//! memory and on disk, for threshold search, k-NN and explain —
//! including a snapshot recovered from a fault-injected torn commit
//! mid-run.

use std::sync::Arc;

use warptree::prelude::*;
use warptree_disk::{
    append_segment_with, build_dir_with, open_dir_snapshot_with, real_vfs, write_tree, DiskTree,
    FaultMode, FaultVfs,
};
use warptree_suffix::{build_sparse_truncated, TruncateSpec};

const THREADS: [u32; 2] = [2, 8];

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-pareq-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A deterministic, branch-rich corpus (no RNG: a fixed LCG), wide
/// enough that the parallel filter actually fans out over several root
/// subtrees.
fn corpus() -> SequenceStore {
    let mut state = 0x2545F49_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 100.0
    };
    let seqs: Vec<Vec<f64>> = (0..8)
        .map(|i| (0..24 + 3 * i).map(|_| next()).collect())
        .collect();
    SequenceStore::from_values(seqs)
}

fn query() -> Vec<f64> {
    vec![4.2, 5.1, 4.8, 3.9, 5.5]
}

/// Search must be identical — matches AND stats — at every thread
/// count on the given index.
fn assert_search_equivalent<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    base: &SearchParams,
    tag: &str,
) {
    let m1 = SearchMetrics::new();
    let seq = run_query_with(
        tree,
        alphabet,
        store,
        &QueryRequest::threshold_params(&query(), base.clone()),
        &m1,
    )
    .unwrap()
    .into_answer_set();
    for t in THREADS {
        let params = base.clone().parallel(t);
        let mp = SearchMetrics::new();
        let par = run_query_with(
            tree,
            alphabet,
            store,
            &QueryRequest::threshold_params(&query(), params),
            &mp,
        )
        .unwrap()
        .into_answer_set();
        assert_eq!(seq.matches(), par.matches(), "{tag}: matches, threads={t}");
        assert_eq!(m1.snapshot(), mp.snapshot(), "{tag}: stats, threads={t}");
    }
    // Under an active trace the sequential root walk reports per-segment
    // deltas of the traversal's own tallies and every fork opens a span:
    // each tally still comes out the same, at every thread count.
    for t in [1, 2, 3, 8] {
        let trace = warptree::obs::Trace::active("tallies");
        let mt = SearchMetrics::new().with_trace(trace.clone());
        let req = QueryRequest::threshold_params(&query(), base.clone().parallel(t));
        let traced = run_query_with(tree, alphabet, store, &req, &mt)
            .unwrap()
            .into_answer_set();
        assert_eq!(
            seq.matches(),
            traced.matches(),
            "{tag}: traced, threads={t}"
        );
        assert_eq!(m1.snapshot(), mt.snapshot(), "{tag}: traced, threads={t}");
        let spans = trace.finish().unwrap().spans;
        let forked = spans.iter().any(|s| s.name == "filter.task");
        let walked = spans.iter().any(|s| s.name == "filter.segment");
        assert_eq!((forked, walked), (t > 1, t == 1), "{tag}: threads={t}");
    }
}

fn assert_knn_equivalent<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    tag: &str,
) {
    for k in [1usize, 5] {
        for non_overlapping in [false, true] {
            let mut base = KnnParams::new(k);
            base.non_overlapping = non_overlapping;
            let m1 = SearchMetrics::new();
            let seq = run_query_with(
                tree,
                alphabet,
                store,
                &QueryRequest::knn_params(&query(), base.clone()),
                &m1,
            )
            .unwrap()
            .into_ranked();
            for t in THREADS {
                let params = base.clone().parallel(t);
                let mp = SearchMetrics::new();
                let par = run_query_with(
                    tree,
                    alphabet,
                    store,
                    &QueryRequest::knn_params(&query(), params),
                    &mp,
                )
                .unwrap()
                .into_ranked();
                assert_eq!(
                    seq, par,
                    "{tag}: knn matches, k={k} no={non_overlapping} threads={t}"
                );
                // Every round is a threshold search, so the work
                // counters are identical too, overlaps allowed or not.
                assert_eq!(
                    m1.snapshot(),
                    mp.snapshot(),
                    "{tag}: knn stats, k={k} no={non_overlapping} threads={t}"
                );
            }
        }
    }
}

#[test]
fn search_identical_across_thread_counts_in_memory() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let eps_params = [
        SearchParams::with_epsilon(0.8),
        SearchParams::with_epsilon(5.0),
        SearchParams::with_epsilon(3.0).windowed(2),
    ];
    let full = build_full(cat.clone());
    let sparse = build_sparse(cat.clone());
    for p in &eps_params {
        assert_search_equivalent(&full, &alphabet, &store, p, "full");
        assert_search_equivalent(&sparse, &alphabet, &store, p, "sparse");
    }
    // Truncated (the §8 categorized variant) needs length-bounded
    // params.
    let trunc = build_sparse_truncated(
        cat,
        TruncateSpec {
            max_answer_len: 7,
            min_answer_len: 1,
        },
    );
    for p in &eps_params {
        let p = p.clone().length_range(1, 7);
        assert_search_equivalent(&trunc, &alphabet, &store, &p, "truncated");
    }
}

/// The tracing-determinism contract: running the same query under an
/// active trace changes *nothing* about the answer — matches and work
/// counters are identical to the untraced run, sequentially and at
/// every thread count — while the trace itself captures the funnel.
#[test]
fn tracing_on_never_changes_results_or_stats() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let full = build_full(cat.clone());
    for base in [
        SearchParams::with_epsilon(0.8),
        SearchParams::with_epsilon(5.0),
    ] {
        for t in [1u32, 8] {
            let params = base.clone().parallel(t);
            let req = QueryRequest::threshold_params(&query(), params);
            let plain_m = SearchMetrics::new();
            let plain = run_query_with(&full, &alphabet, &store, &req, &plain_m)
                .unwrap()
                .into_answer_set();
            let trace = warptree::obs::Trace::active("determinism");
            let traced_m = SearchMetrics::new().with_trace(trace.clone());
            let traced = run_query_with(&full, &alphabet, &store, &req, &traced_m)
                .unwrap()
                .into_answer_set();
            assert_eq!(plain.matches(), traced.matches(), "matches, threads={t}");
            assert_eq!(
                plain_m.snapshot(),
                traced_m.snapshot(),
                "stats, threads={t}"
            );
            let data = trace.finish().unwrap();
            let names: Vec<&str> = data.spans.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"filter"), "threads={t}: {names:?}");
            assert!(names.contains(&"postprocess"), "threads={t}: {names:?}");
            if t > 1 {
                assert!(names.contains(&"filter.task"), "threads={t}: {names:?}");
            }
        }
    }
    // k-NN: the round structure is traced, the ranking is untouched.
    let req = QueryRequest::knn_params(&query(), KnnParams::new(5));
    let plain = run_query_with(&full, &alphabet, &store, &req, &SearchMetrics::new())
        .unwrap()
        .into_ranked();
    let trace = warptree::obs::Trace::active("determinism-knn");
    let traced_m = SearchMetrics::new().with_trace(trace.clone());
    let traced = run_query_with(&full, &alphabet, &store, &req, &traced_m)
        .unwrap()
        .into_ranked();
    assert_eq!(plain, traced);
    let data = trace.finish().unwrap();
    assert!(
        data.spans.iter().any(|s| s.name == "knn.round"),
        "{:?}",
        data.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
}

#[test]
fn knn_identical_across_thread_counts() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let full = build_full(cat.clone());
    assert_knn_equivalent(&full, &alphabet, &store, "full");
    let sparse = build_sparse(cat);
    assert_knn_equivalent(&sparse, &alphabet, &store, "sparse");
}

#[test]
fn disk_tree_search_identical_across_thread_counts() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let mem = build_sparse(cat.clone());
    let dir = tmpdir("disk");
    let path = dir.join("t.wt");
    write_tree(&mem, &path).unwrap();
    let disk = DiskTree::open(&path, cat, 16, 64).unwrap();
    for p in [
        SearchParams::with_epsilon(0.8),
        SearchParams::with_epsilon(5.0),
    ] {
        assert_search_equivalent(&disk, &alphabet, &store, &p, "disk");
    }
    assert_knn_equivalent(&disk, &alphabet, &store, "disk");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_identical_across_thread_counts() {
    let store = corpus();
    let dir = tmpdir("explain");
    build_index_dir(&store, Categorization::MaxEntropy(6), false, 1, &dir).unwrap();
    let idx = open_index_dir(&dir, 64).unwrap();
    let base = SearchParams::with_epsilon(3.0);
    let (seq_ans, seq_rep) = idx.explain(&query(), &base).unwrap();
    for t in THREADS {
        let (par_ans, par_rep) = idx.explain(&query(), &base.clone().parallel(t)).unwrap();
        assert_eq!(seq_ans.matches(), par_ans.matches(), "threads={t}");
        // Wall times differ by nature; the deterministic work counters
        // must not.
        assert_eq!(seq_rep.stats, par_rep.stats, "threads={t}");
        // Nor the record reads behind them: one page lookup per visited
        // node, however the visits are spread over threads (and none of
        // the node cache, which a query does not go through).
        let fetches = |io: Option<warptree::ExplainIo>| {
            io.map(|io| {
                let nodes = io.node_cache_hits + io.node_cache_misses;
                (io.pages_read + io.page_cache_hits, nodes)
            })
        };
        assert!(matches!(fetches(seq_rep.io), Some((1.., 0))));
        assert_eq!(fetches(seq_rep.io), fetches(par_rep.io), "threads={t}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mid-run crash-recovery interaction: a torn commit (fault-injected
/// append that dies during its commit sequence) must recover on reopen
/// to a consistent snapshot on which parallel execution is still
/// byte-identical to sequential.
#[test]
fn torn_commit_reopen_preserves_parallel_equivalence() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let extra = SequenceStore::from_values(vec![
        vec![4.2, 5.1, 4.8, 3.9, 5.5, 1.0, 2.0],
        vec![9.0, 0.5, 4.2, 5.1, 4.8],
    ]);

    // Probe: how many vfs operations does a healthy append perform?
    let probe = tmpdir("torn-probe");
    build_dir_with(
        real_vfs(),
        &store,
        &alphabet,
        TreeKind::Sparse,
        1,
        1,
        None,
        &probe,
    )
    .unwrap();
    let counter = FaultVfs::new(u64::MAX, FaultMode::Error);
    append_segment_with(counter.as_ref(), &probe, &extra).unwrap();
    let total = counter.ops();
    std::fs::remove_dir_all(&probe).unwrap();
    assert!(total > 4, "implausibly few append operations: {total}");

    // Crash the append late — inside or near its commit sequence.
    let dir = tmpdir("torn");
    build_dir_with(
        real_vfs(),
        &store,
        &alphabet,
        TreeKind::Sparse,
        1,
        1,
        None,
        &dir,
    )
    .unwrap();
    let vfs = FaultVfs::new(total - 2, FaultMode::Crash);
    let _ = append_segment_with(vfs.as_ref(), &dir, &extra);

    // Reopen with a healthy filesystem: recovery lands on the complete
    // old or complete new generation; either way the parallel contract
    // must hold on what it serves.
    let snap = open_dir_snapshot_with(real_vfs().as_ref(), &dir, 16, 64).unwrap();
    for tree in snap.live_trees() {
        for p in [
            SearchParams::with_epsilon(0.8),
            SearchParams::with_epsilon(5.0),
        ] {
            assert_search_equivalent(tree, &snap.alphabet, &snap.store, &p, "torn-reopen");
        }
        assert_knn_equivalent(tree, &snap.alphabet, &snap.store, "torn-reopen");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
