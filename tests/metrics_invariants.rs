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
/// it ran, and the plan that answered it.
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
    assert_eq!(report.plan, "index");
    std::fs::remove_dir_all(&d).ok();
}

/// A registry-backed run surfaces the search funnel and the VFS trace
/// under their dotted names in one snapshot.
#[test]
fn registry_snapshot_has_search_and_io_names() {
    let store = corpus();
    let q = query(&store);
    let params = SearchParams::with_epsilon(6.0);
    let d = dir("reg");
    build_index_dir(&store, Categorization::MaxEntropy(12), false, 8, &d).unwrap();
    let reg = MetricsRegistry::new();
    let idx = open_index_dir_metered(&d, &reg).unwrap();
    let metrics = SearchMetrics::register(&reg);
    let answers = search_with(&idx, &q, &params, &metrics);
    let snap = reg.snapshot();
    for name in [
        "search.candidates",
        "search.answers",
        "search.nodes_visited",
        "disk.vfs.reads",
        "disk.vfs.read_bytes",
    ] {
        assert!(
            snap.counters.contains_key(name),
            "metric {name} missing from registry snapshot"
        );
    }
    let caches = snap
        .counters
        .keys()
        .find(|k| k.starts_with("disk.node_cache.") || k.starts_with("disk.page_cache."));
    assert_eq!(caches, None, "there is no cache to meter");
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

/// A metered open reads the base tree *and* every tail segment whole,
/// once each: every tree's `io_stats()` is its file's page count, the
/// same for a metered and a plain open, and no query or record read
/// adds to it.
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
    let resolved = warptree::disk::resolve_dir_with(&warptree::disk::RealVfs, &d).unwrap();
    let files: Vec<u64> = std::iter::once(&resolved.index_path)
        .chain(&resolved.segment_paths)
        .map(|path| std::fs::metadata(path).unwrap().len())
        .collect();
    let file_pages: Vec<u64> = files
        .iter()
        .map(|len| len / warptree::disk::PAGE_SIZE as u64)
        .collect();

    // Pages read per tree, before and after one query and `i + 1` reads
    // of tree `i`'s root record.
    let pages = |idx: &DiskIndexDir| -> Vec<u64> {
        idx.live_trees().map(|t| t.io_stats().pages_read).collect()
    };
    let query_traffic = |idx: &DiskIndexDir| {
        let at_open = pages(idx);
        let answers = search_with(idx, &q, &params, &SearchMetrics::new());
        for (i, tree) in idx.live_trees().enumerate() {
            let tree = tree.as_tree().expect("the default backend");
            for _ in 0..=i {
                tree.read_node(tree.header().root_offset).unwrap();
            }
        }
        assert_eq!(pages(idx), at_open, "no query reads a page");
        (answers, at_open)
    };

    let plain = open_index_dir(&d, 32).unwrap();
    assert_eq!(plain.segment_count(), 3);
    let (expected, per_tree) = query_traffic(&plain);
    assert_eq!(per_tree, file_pages);

    let reg = MetricsRegistry::new();
    let metered = open_index_dir_metered(&d, &reg).unwrap();
    let (answers, metered_per_tree) = query_traffic(&metered);
    assert_eq!(answers.occurrence_set(), expected.occurrence_set());
    assert_eq!(metered_per_tree, per_tree);
    // Every byte of every tree came through the metered VFS.
    let snap = reg.snapshot();
    assert!(snap.counters["disk.vfs.read_bytes"] >= files.iter().sum::<u64>());
    std::fs::remove_dir_all(&d).ok();
}

/// The visit contract on the disk tree: a query decodes every record
/// where it lies, once per visited node, once per node
/// `for_each_suffix_below` walks under a pruned child, once per
/// `for_each_suffix_at` at a node with attached suffixes, once per tree
/// root — and reads no page, the tree having read its file whole at
/// open. A backend that wraps each tree adds up what the traversal's
/// calls read from a map of the file's records made beforehand, and
/// checks that the filter enumerates no stored suffix twice in one
/// query.
#[test]
fn a_node_visit_is_one_record_fetch() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use warptree::core::search::{IndexBackend, NodeVisit};
    use warptree::disk::DiskTree;

    /// Each record's children.
    type Records = HashMap<u64, Vec<u64>>;
    fn records(tree: &DiskTree) -> Records {
        let (mut map, mut stack) = (Records::new(), vec![tree.root()]);
        while let Some(offset) = stack.pop() {
            let node = tree.read_node(offset).unwrap();
            let children: Vec<u64> = node.children().map(|(_, child)| child).collect();
            stack.extend(&children);
            map.insert(offset, children);
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
        enumerated: Mutex<Vec<(SeqId, u32)>>,
    }
    impl Counted<'_> {
        fn read(&self, nodes: &AtomicU64) {
            nodes.fetch_add(1, Ordering::Relaxed);
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
            self.read(&self.visited);
            self.tree.visit(n, children)
        }
        fn for_each_suffix_below(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
            let mut stack = vec![n];
            while let Some(n) = stack.pop() {
                self.read(&self.walked);
                stack.extend(&self.records[&n]);
            }
            self.tree.for_each_suffix_below(n, &mut self.listing(f))
        }
        fn for_each_suffix_at(&self, n: u64, f: &mut dyn FnMut(SeqId, u32, u32)) {
            self.read(&self.attached);
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
                    enumerated: Mutex::new(Vec::new()),
                })
                .collect();
            // Pages read, summed over the trees.
            let lookups = || {
                let per_tree = trees.iter().map(|t| t.io_stats());
                per_tree.map(|io| io.pages_read).sum::<u64>()
            };
            let run = |tree: &dyn Fn(&SearchMetrics) -> CandidateGroups| {
                let (metrics, before) = (SearchMetrics::new(), lookups());
                let candidates = tree(&metrics);
                (candidates, metrics.snapshot(), lookups() - before)
            };
            let fanned = SegmentedIndex::new(counted.iter().collect());
            let (candidates, stats, pages) =
                run(&|m| filter_tree(&fanned, &idx.alphabet, &q, &params, m));
            assert!(
                stats.candidates > 0,
                "the query must emit for walks to count"
            );
            let (visited, walked, attached) = counted.iter().fold((0, 0, 0), |(v, w, a), c| {
                let of = |n: &AtomicU64| n.load(Ordering::Relaxed);
                (v + of(&c.visited), w + of(&c.walked), a + of(&c.attached))
            });
            assert!(
                walked > 0 && attached > 0,
                "walked {walked}, attached {attached}"
            );
            // The fan-out view's own root is no record; each tree's is.
            assert_eq!(visited, stats.nodes_visited + trees.len() as u64);
            assert_eq!(
                pages, 0,
                "sparse={sparse} tail={with_tail}: a query reads no page"
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
            // Counting changed nothing, and neither do threads: the same
            // candidates in the same order, the same counters, and still
            // no page read.
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
}
