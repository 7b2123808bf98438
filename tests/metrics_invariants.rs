//! Integration contract of the observability layer: the `run_query`
//! counters obey their accounting identities on *disk-backed* indexes
//! (full and sparse), are bit-identical across identical runs, agree
//! with the `EXPLAIN` report, and surface under their registry names
//! next to the I/O trace.

use warptree::prelude::*;

fn corpus() -> SequenceStore {
    stock_corpus(&StockConfig {
        sequences: 30,
        mean_len: 60,
        seed: 0xBEEF,
        ..Default::default()
    })
}

fn query(store: &SequenceStore) -> Vec<f64> {
    QueryWorkload::draw(
        store,
        &QueryConfig {
            count: 1,
            mean_len: 8,
            len_jitter: 0,
            noise_std: 0.5,
            ..Default::default()
        },
    )
    .queries()[0]
        .values
        .clone()
}

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("warptree-minv-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The filter-funnel identities hold on both on-disk tree kinds.
#[test]
fn funnel_invariants_on_disk_dirs() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    for sparse in [false, true] {
        let d = dir(if sparse { "sp" } else { "full" });
        build_index_dir(&store, Categorization::MaxEntropy(12), sparse, 8, &d).unwrap();
        let idx = open_index_dir(&d, 32).unwrap();
        let metrics = SearchMetrics::new();
        let answers = idx.search_with(&q, &params, &metrics);
        let s = metrics.snapshot();

        // Every visited node is either expanded or pruned (Theorem 1).
        assert_eq!(s.nodes_visited, s.nodes_expanded + s.branches_pruned);
        // Candidates come from exactly two generators (Definitions 3/4),
        // and only the sparse tree uses the second.
        assert_eq!(s.candidates, s.stored_candidates + s.lb2_candidates);
        if !sparse {
            assert_eq!(s.lb2_candidates, 0, "full tree has no non-stored suffixes");
        } else {
            assert!(s.lb2_candidates > 0, "sparse tree must infer suffixes");
        }
        // No false dismissals: the filter emits at least every answer.
        assert!(s.candidates >= s.answers);
        assert_eq!(s.answers, answers.len() as u64);
        assert_eq!(s.postprocessed, s.answers + s.false_alarms);
        // Table sharing only saves work (R_d >= 1).
        assert!(
            s.rows_unshared >= s.rows_pushed,
            "sharing cannot push more rows than per-suffix scans: {} < {}",
            s.rows_unshared,
            s.rows_pushed
        );
        std::fs::remove_dir_all(&d).ok();
    }
}

/// Two identical runs produce identical counter snapshots — the stats
/// are functions of (index, query, params), never of timing.
#[test]
fn counters_identical_across_identical_runs() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let d = dir("det");
    build_index_dir(&store, Categorization::MaxEntropy(12), true, 8, &d).unwrap();
    let idx = open_index_dir(&d, 32).unwrap();
    let (m1, m2) = (SearchMetrics::new(), SearchMetrics::new());
    let a1 = idx.search_with(&q, &params, &m1);
    let a2 = idx.search_with(&q, &params, &m2);
    assert_eq!(a1.occurrence_set(), a2.occurrence_set());
    assert_eq!(m1.snapshot(), m2.snapshot());
    std::fs::remove_dir_all(&d).ok();
}

/// The EXPLAIN report carries exactly the stats of the checked search
/// it ran, and its I/O profile is present on disk indexes.
#[test]
fn explain_report_agrees_with_checked_search() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let d = dir("explain");
    build_index_dir(&store, Categorization::MaxEntropy(12), true, 8, &d).unwrap();
    let idx = open_index_dir(&d, 32).unwrap();
    let (answers, report) = idx.explain(&q, &params).unwrap();
    let (out, stats) = idx
        .query(&QueryRequest::threshold_params(&q, params.clone()))
        .unwrap();
    let baseline = out.into_answer_set();
    assert_eq!(answers.occurrence_set(), baseline.occurrence_set());
    assert_eq!(report.stats, stats);
    assert_eq!(report.kind, "sparse");
    assert_eq!(
        report.suffixes,
        warptree::core::search::IndexBackend::suffix_count(&idx.tree)
    );
    let io = report.io.expect("disk explain reports I/O");
    assert!(
        io.pages_read + io.page_cache_hits > 0,
        "a search must touch pages"
    );
    std::fs::remove_dir_all(&d).ok();
}

/// A registry-backed run surfaces the search funnel, the page/node
/// caches, and the VFS trace under their dotted names in one snapshot.
#[test]
fn registry_snapshot_has_search_and_io_names() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let d = dir("reg");
    build_index_dir(&store, Categorization::MaxEntropy(12), false, 8, &d).unwrap();
    let reg = MetricsRegistry::new();
    let idx = open_index_dir_metered(&d, 32, &reg).unwrap();
    let metrics = SearchMetrics::register(&reg);
    let answers = idx.search_with(&q, &params, &metrics);
    let snap = reg.snapshot();
    for name in [
        "search.candidates",
        "search.answers",
        "search.nodes_visited",
        "disk.vfs.reads",
        "disk.vfs.read_bytes",
        "disk.page_cache.hits",
        "disk.node_cache.misses",
    ] {
        assert!(
            snap.counters.contains_key(name),
            "metric {name} missing from registry snapshot"
        );
    }
    assert_eq!(snap.counters["search.answers"], answers.len() as u64);
    assert!(snap.counters["disk.vfs.reads"] > 0, "open must read files");
    assert!(snap.histograms.contains_key("search.filter_ns"));
    // The snapshot serializes to parseable JSON with stable keys,
    // timestamped so scrapes can compute true rates.
    let js = snap.to_json();
    assert!(js.starts_with("{\"uptime_ms\":"), "{js}");
    assert!(js.contains("\"snapshot_unix_ms\":"));
    assert!(js.contains("\"counters\":{"));
    assert!(js.contains("\"search.answers\""));
    std::fs::remove_dir_all(&d).ok();
}

/// A metered open instruments the base tree *and* every tail segment,
/// and instrumenting takes nothing away from the trees themselves: after
/// one query the registry holds the page- and node-cache traffic of all
/// three trees, while each tree's own `io_stats()` / `node_cache_stats()`
/// still report that tree's share — the same figures, tree for tree, as
/// an unmetered open of the directory running the query from the same
/// cold caches.
#[test]
fn metered_open_counts_tail_segment_traffic() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let d = dir("tails");
    let mut parts = (0..3).map(|part| {
        let ids = (0..store.len()).filter(|i| i % 3 == part);
        SequenceStore::from_values(ids.map(|i| store.get(SeqId(i as u32)).values().to_vec()))
    });
    let alphabet = Categorization::MaxEntropy(12);
    build_index_dir(&parts.next().unwrap(), alphabet, false, 8, &d).unwrap();
    for tail in parts {
        append_index_dir(&d, &tail).unwrap();
    }

    // Page and node lookups per tree.
    let lookups = |idx: &DiskIndexDir| -> Vec<(u64, u64)> {
        let per_tree = idx.live_trees().map(|t| {
            let (io, (node_hits, node_misses)) = (t.io_stats(), t.node_cache_stats());
            (io.pages_read + io.cache_hits, node_hits + node_misses)
        });
        per_tree.collect()
    };
    // What one query adds to them (the open itself reads a header page,
    // before any instrumenting).
    let query_traffic = |idx: &DiskIndexDir| {
        let at_open = lookups(idx);
        let answers = idx.search_with(&q, &params, &SearchMetrics::new());
        let per_tree: Vec<(u64, u64)> = lookups(idx)
            .iter()
            .zip(&at_open)
            .map(|(after, before)| (after.0 - before.0, after.1 - before.1))
            .collect();
        (answers, per_tree)
    };

    let plain = open_index_dir(&d, 32).unwrap();
    assert_eq!(plain.segment_count(), 3);
    let (expected, per_tree) = query_traffic(&plain);
    assert!(
        per_tree
            .iter()
            .all(|&(pages, nodes)| pages > 0 && nodes > 0),
        "every tree must see traffic for the test to mean anything: {per_tree:?}"
    );
    assert!(
        per_tree.iter().any(|t| *t != per_tree[0]),
        "trees with equal traffic could not tell a per-tree count from a shared one: {per_tree:?}"
    );

    let reg = MetricsRegistry::new();
    let metered = open_index_dir_metered(&d, 32, &reg).unwrap();
    let (answers, metered_per_tree) = query_traffic(&metered);
    assert_eq!(answers.occurrence_set(), expected.occurrence_set());
    assert_eq!(
        metered_per_tree, per_tree,
        "an instrumented tree reports its own traffic"
    );
    let snap = reg.snapshot();
    let counted = |kind: &str| {
        snap.counters[&format!("disk.{kind}.hits")] + snap.counters[&format!("disk.{kind}.misses")]
    };
    assert_eq!(
        counted("page_cache"),
        per_tree.iter().map(|t| t.0).sum::<u64>()
    );
    assert_eq!(
        counted("node_cache"),
        per_tree.iter().map(|t| t.1).sum::<u64>()
    );
    std::fs::remove_dir_all(&d).ok();
}

/// The visit contract on the paged tree: the filter fetches a node's
/// record exactly once per visited node (plus once for each tree's
/// root). Everything else the node cache sees comes from
/// `for_each_suffix_below` walking the subtree under an emitting edge —
/// counted here by a backend that wraps the real one and reads the cache
/// counters around each walk.
#[test]
fn a_node_visit_is_one_record_fetch() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use warptree::core::search::{IndexBackend, NodeVisit};
    use warptree::disk::AnyIndex;

    /// `T`, with the node-cache lookups of its suffix walks summed.
    struct CountWalks<'a, T> {
        inner: &'a T,
        lookups: &'a (dyn Fn() -> u64 + Sync),
        in_walks: AtomicU64,
    }
    impl<T: IndexBackend> IndexBackend for CountWalks<'_, T> {
        type Node = T::Node;
        fn root(&self) -> T::Node {
            self.inner.root()
        }
        fn visit(&self, n: T::Node, children: &mut impl Extend<T::Node>) -> NodeVisit<'_> {
            self.inner.visit(n, children)
        }
        fn for_each_suffix_below(&self, n: T::Node, f: &mut dyn FnMut(SeqId, u32, u32)) {
            let before = (self.lookups)();
            self.inner.for_each_suffix_below(n, f);
            self.in_walks
                .fetch_add((self.lookups)() - before, Ordering::Relaxed);
        }
        fn is_sparse(&self) -> bool {
            self.inner.is_sparse()
        }
        fn suffix_count(&self) -> u64 {
            self.inner.suffix_count()
        }
    }

    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    for sparse in [false, true] {
        let d = dir(if sparse { "visit-sp" } else { "visit-full" });
        build_index_dir(&store, Categorization::MaxEntropy(12), sparse, 8, &d).unwrap();
        // Two directories in one: the base alone, then base + a tail
        // (the fan-out view visits one root per tree).
        for with_tail in [false, true] {
            if with_tail {
                append_index_dir(&d, &store).unwrap();
            }
            let idx = open_index_dir(&d, 32).unwrap();
            let trees: Vec<&AnyIndex> = idx.live_trees().collect();
            let lookups = || -> u64 {
                let per_tree = trees.iter().map(|t| t.node_cache_stats());
                per_tree.map(|(hits, misses)| hits + misses).sum()
            };
            let run = |tree: &dyn Fn(&SearchMetrics) -> Vec<Candidate>| {
                let (metrics, before) = (SearchMetrics::new(), lookups());
                let candidates = tree(&metrics);
                (candidates, metrics.snapshot(), lookups() - before)
            };
            let fanned = SegmentedIndex::new(trees.clone());
            let counted = CountWalks {
                inner: &fanned,
                lookups: &lookups,
                in_walks: AtomicU64::new(0),
            };
            let (candidates, stats, total) =
                run(&|m| filter_tree(&counted, &idx.alphabet, &q, &params, m));
            assert!(
                stats.candidates > 0,
                "the query must emit for walks to count"
            );
            let in_walks = counted.in_walks.load(Ordering::Relaxed);
            assert!(in_walks > 0);
            assert_eq!(
                total - in_walks,
                stats.nodes_visited + trees.len() as u64,
                "sparse={sparse} tail={with_tail}: one record fetch per visited node and root"
            );
            // Counting changed nothing, and neither do threads: the same
            // candidates in the same order, the same counters, the same
            // number of record fetches.
            for threads in [1, 2, 8] {
                let p = params.clone().parallel(threads);
                let (c, s, lookups) = run(&|m| filter_tree(&fanned, &idx.alphabet, &q, &p, m));
                assert_eq!(c, candidates, "threads={threads}");
                assert_eq!(s, stats, "threads={threads}");
                assert_eq!(lookups, total, "threads={threads}");
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
