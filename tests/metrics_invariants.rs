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

/// One threshold search over an opened directory, counted into
/// `metrics`.
fn search_with(
    idx: &warptree::disk::DirSnapshot,
    q: &[f64],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> AnswerSet {
    let req = QueryRequest::threshold_params(q, params.clone());
    idx.query_with(&req, metrics).unwrap().into_answer_set()
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
        let answers = search_with(&idx, &q, &params, &metrics);
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
    let a1 = search_with(&idx, &q, &params, &m1);
    let a2 = search_with(&idx, &q, &params, &m2);
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
    let answers = search_with(&idx, &q, &params, &metrics);
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
/// one query (page traffic) and a few owned record reads (the node
/// cache's — a query does not go there) the registry holds the page- and
/// node-cache traffic of all three trees, while each tree's own
/// `io_stats()` / `node_cache_stats()` still report that tree's share —
/// the same figures, tree for tree, as an unmetered open of the
/// directory doing the same from the same cold caches.
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
    // What one query, and `i + 1` reads of tree `i`'s root record, add
    // to them (the open itself reads a header page, before any
    // instrumenting).
    let query_traffic = |idx: &DiskIndexDir| {
        let at_open = lookups(idx);
        let answers = search_with(idx, &q, &params, &SearchMetrics::new());
        for (i, tree) in idx.live_trees().enumerate() {
            let tree = tree.as_tree().expect("the default backend");
            for _ in 0..=i {
                tree.read_node(tree.header().root_offset).unwrap();
            }
        }
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

/// The visit contract on the paged tree, in page terms: a query reads
/// every record where it lies, so it looks a page up exactly once per
/// visited node, once per node `for_each_suffix_below` walks under a
/// pruned child, once per `for_each_suffix_at` at a node with attached
/// suffixes, once per tree root — plus once more for each further page a
/// record straddling a page boundary reaches — and the node cache is not
/// asked at all. A backend that wraps each tree adds up what the
/// traversal's calls should cost from a map of the file's records made
/// beforehand, and checks that the filter enumerates no stored suffix
/// twice in one query.
#[test]
fn a_node_visit_is_one_record_fetch() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use warptree::core::search::{IndexBackend, NodeVisit};
    use warptree::disk::{DiskTree, PAGE_DATA};

    /// A record's children and how many pages it lies on.
    type Records = HashMap<u64, (Vec<u64>, u64)>;
    fn records(tree: &DiskTree) -> Records {
        let (mut map, mut stack) = (Records::new(), vec![tree.root()]);
        while let Some(offset) = stack.pop() {
            let node = tree.read_node(offset).unwrap();
            let children: Vec<u64> = node.children().map(|(_, child)| child).collect();
            let len = 32 + 12 * (node.suffixes().len() + children.len()) as u64;
            let pages = (offset + len - 1) / PAGE_DATA as u64 - offset / PAGE_DATA as u64 + 1;
            stack.extend(&children);
            map.insert(offset, (children, pages));
        }
        map
    }

    /// A tree, with the records its traversal calls read summed and the
    /// suffixes they enumerate listed.
    struct Counted<'a> {
        tree: &'a DiskTree,
        records: Records,
        visited: AtomicU64,
        walked: AtomicU64,
        attached: AtomicU64,
        further_pages: AtomicU64,
        enumerated: Mutex<Vec<(SeqId, u32)>>,
    }
    impl Counted<'_> {
        fn read(&self, n: u64, nodes: &AtomicU64) {
            nodes.fetch_add(1, Ordering::Relaxed);
            self.further_pages
                .fetch_add(self.records[&n].1 - 1, Ordering::Relaxed);
        }
        /// `f`, listing each suffix it is called for.
        fn listing<'b>(
            &'b self,
            f: &'b mut dyn FnMut(SeqId, u32, u32),
        ) -> impl FnMut(SeqId, u32, u32) + 'b {
            move |seq, start, run| {
                self.enumerated.lock().unwrap().push((seq, start));
                f(seq, start, run)
            }
        }
    }
    impl IndexBackend for Counted<'_> {
        type Node = u64;
        fn root(&self) -> u64 {
            self.tree.root()
        }
        fn visit(&self, n: u64, children: &mut impl Extend<u64>) -> NodeVisit<'_> {
            self.read(n, &self.visited);
            self.tree.visit(n, children)
        }
        fn for_each_suffix_below(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
            let mut stack = vec![n];
            while let Some(n) = stack.pop() {
                self.read(n, &self.walked);
                stack.extend(&self.records[&n].0);
            }
            self.tree.for_each_suffix_below(n, &mut self.listing(f))
        }
        fn for_each_suffix_at(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
            self.read(n, &self.attached);
            self.tree.for_each_suffix_at(n, &mut self.listing(f))
        }
        fn is_sparse(&self) -> bool {
            self.tree.is_sparse()
        }
        fn suffix_count(&self) -> u64 {
            self.tree.suffix_count()
        }
    }

    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let mut straddlers = 0;
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
            let trees: Vec<&DiskTree> = idx.live_trees().map(|t| t.as_tree().unwrap()).collect();
            let counted: Vec<Counted> = trees
                .iter()
                .map(|&tree| Counted {
                    tree,
                    records: records(tree),
                    visited: AtomicU64::new(0),
                    walked: AtomicU64::new(0),
                    attached: AtomicU64::new(0),
                    further_pages: AtomicU64::new(0),
                    enumerated: Mutex::new(Vec::new()),
                })
                .collect();
            // (page lookups, node-cache lookups), summed over the trees.
            let lookups = || {
                let per_tree = trees.iter().map(|t| (t.io_stats(), t.node_cache_stats()));
                per_tree.fold((0, 0), |(pages, nodes), (io, (hits, misses))| {
                    (pages + io.pages_read + io.cache_hits, nodes + hits + misses)
                })
            };
            let run = |tree: &dyn Fn(&SearchMetrics) -> CandidateGroups| {
                let (metrics, before) = (SearchMetrics::new(), lookups());
                let candidates = tree(&metrics);
                let after = lookups();
                assert_eq!(after.1, before.1, "a query asked the node cache");
                (candidates, metrics.snapshot(), after.0 - before.0)
            };
            let fanned = SegmentedIndex::new(counted.iter().collect());
            let (candidates, stats, pages) =
                run(&|m| filter_tree(&fanned, &idx.alphabet, &q, &params, m));
            assert!(
                stats.candidates > 0,
                "the query must emit for walks to count"
            );
            let (visited, walked, attached, further_pages) =
                counted.iter().fold((0, 0, 0, 0), |(v, w, a, f), c| {
                    let of = |n: &AtomicU64| n.load(Ordering::Relaxed);
                    (
                        v + of(&c.visited),
                        w + of(&c.walked),
                        a + of(&c.attached),
                        f + of(&c.further_pages),
                    )
                });
            assert!(
                walked > 0 && attached > 0,
                "walked {walked}, attached {attached}"
            );
            // The fan-out view's own root is no record; each tree's is.
            assert_eq!(visited, stats.nodes_visited + trees.len() as u64);
            assert_eq!(
                pages,
                visited + walked + attached + further_pages,
                "sparse={sparse} tail={with_tail}: one page lookup per record read"
            );
            // Each stored suffix is enumerated where the traversal stops
            // above it, and nowhere else.
            let mut enumerated: Vec<(SeqId, u32)> = counted
                .iter()
                .flat_map(|c| std::mem::take(&mut *c.enumerated.lock().unwrap()))
                .collect();
            let listed = enumerated.len();
            enumerated.sort();
            enumerated.dedup();
            assert_eq!(
                enumerated.len(),
                listed,
                "sparse={sparse} tail={with_tail}: a suffix enumerated twice"
            );
            straddlers += further_pages;
            // Counting changed nothing, and neither do threads: the same
            // candidates in the same order, the same counters, the same
            // number of page lookups.
            let plain = SegmentedIndex::new(trees.clone());
            for threads in [1, 2, 8] {
                let p = params.clone().parallel(threads);
                let (c, s, lookups) = run(&|m| filter_tree(&plain, &idx.alphabet, &q, &p, m));
                assert_eq!(c, candidates, "threads={threads}");
                assert_eq!(s, stats, "threads={threads}");
                assert_eq!(lookups, pages, "threads={threads}");
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }
    assert!(
        straddlers > 0,
        "no record read lay across a page boundary: the gather path went unexercised"
    );
}
