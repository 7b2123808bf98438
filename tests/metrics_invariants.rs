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

/// A metered open instruments the base tree *and* every tail segment:
/// after one query, the registry's page- and node-cache traffic is the
/// traffic of all three trees, not of the base alone.
///
/// The per-tree truth comes from an unmetered open of the same
/// directory running the same query from the same cold caches — once
/// instrumented, the trees share the registry's counter cells, so their
/// own `io_stats()` all read the shared total.
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

    let plain = open_index_dir(&d, 32).unwrap();
    assert_eq!(plain.segment_count(), 3);
    // Page and node lookups per tree (the open itself reads a header
    // page, before any instrumenting; take the query's delta).
    let lookups = |idx: &DiskIndexDir| -> Vec<(u64, u64)> {
        let per_tree = idx.live_trees().map(|t| {
            let (io, (node_hits, node_misses)) = (t.io_stats(), t.node_cache_stats());
            (io.pages_read + io.cache_hits, node_hits + node_misses)
        });
        per_tree.collect()
    };
    let at_open = lookups(&plain);
    let expected = plain.search_with(&q, &params, &SearchMetrics::new());
    let per_tree: Vec<(u64, u64)> = lookups(&plain)
        .iter()
        .zip(&at_open)
        .map(|(after, before)| (after.0 - before.0, after.1 - before.1))
        .collect();
    assert!(
        per_tree
            .iter()
            .all(|&(pages, nodes)| pages > 0 && nodes > 0),
        "every tree must see traffic for the test to mean anything: {per_tree:?}"
    );
    let pages: u64 = per_tree.iter().map(|t| t.0).sum();
    let nodes: u64 = per_tree.iter().map(|t| t.1).sum();

    let reg = MetricsRegistry::new();
    let metered = open_index_dir_metered(&d, 32, &reg).unwrap();
    let answers = metered.search_with(&q, &params, &SearchMetrics::new());
    assert_eq!(answers.occurrence_set(), expected.occurrence_set());
    let snap = reg.snapshot();
    let counted = |kind: &str| {
        snap.counters[&format!("disk.{kind}.hits")] + snap.counters[&format!("disk.{kind}.misses")]
    };
    assert_eq!(counted("page_cache"), pages);
    assert_eq!(counted("node_cache"), nodes);
    std::fs::remove_dir_all(&d).ok();
}
