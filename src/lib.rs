#![warn(missing_docs)]

//! # warptree
//!
//! Time-warping subsequence similarity search over sequence databases —
//! a production-quality Rust reproduction of
//!
//! > Park, Chu, Yoon, Hsu. *Efficient Searches for Similar Subsequences
//! > of Different Lengths in Sequence Databases.* ICDE 2000.
//!
//! The system answers queries of the form *"find every subsequence of
//! every database sequence whose time-warping (DTW) distance to Q is at
//! most ε"* — with **no false dismissals** — using a generalized suffix
//! tree over *categorized* (discretized) sequences, lower-bound distance
//! filtering, and exact post-processing. Sequences of different lengths
//! and sampling rates are matched naturally by the time-warping distance.
//!
//! ## Crate map
//!
//! * [`warptree_core`] — distances, categorization, lower bounds,
//!   the filter/search algorithms, sequential-scan baseline.
//! * [`warptree_suffix`] — in-memory generalized and sparse
//!   suffix trees (Ukkonen + naive builders).
//! * [`warptree_disk`] — paged on-disk trees, binary-merge
//!   incremental construction, corpus persistence.
//! * [`warptree_data`] — synthetic corpora and query workloads
//!   reproducing the paper's evaluation.
//!
//! ## Index selection cheat-sheet
//!
//! | Paper name | How to build | Exactness |
//! |---|---|---|
//! | `ST` | [`Index::exact`] (singleton alphabet) | filter is exact |
//! | `ST_C` | [`Index::full`] | lower bound + post-process |
//! | `SST_C` | [`Index::sparse`] | lower bound + post-process |
//!
//! ## Quick start
//!
//! ```
//! use warptree::prelude::*;
//!
//! // 1. A tiny "stock" database.
//! let store = SequenceStore::from_values(vec![
//!     vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0],
//!     vec![20.0, 21.0, 20.0, 23.0],
//!     vec![55.0, 54.0, 57.0, 60.0],
//! ]);
//!
//! // 2. Build a sparse, max-entropy-categorized index (SST_C).
//! let index = Index::sparse(&store, Categorization::MaxEntropy(8)).unwrap();
//!
//! // 3. Search: subsequences within time-warping distance 1.0 of Q.
//! let query = [20.0, 21.0, 20.0, 23.0];
//! let (answers, stats) = index.search(&query, &SearchParams::with_epsilon(1.0));
//!
//! // The different-sampling-rate sequence matches with distance 0.
//! assert!(answers.matches().iter().any(|m| m.dist == 0.0));
//! assert!(stats.answers > 0);
//! ```

pub use warptree_coord as coord;
pub use warptree_core as core;
pub use warptree_data as data;
pub use warptree_disk as disk;
pub use warptree_obs as obs;
pub use warptree_server as server;
pub use warptree_suffix as suffix;

mod explain;

pub use explain::ExplainReport;

use std::sync::Arc;

use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::error::CoreError;
use warptree_core::search::{
    run_query, run_query_with, seq_scan, AnswerSet, KnnParams, Match, QueryOutput, QueryRequest,
    SearchMetrics, SearchParams, SearchStats, SeqScanMode,
};
use warptree_core::sequence::{SequenceStore, Value};
use warptree_obs::MetricsRegistry;
use warptree_suffix::SuffixTree;

/// How element values are discretized (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Categorization {
    /// Equal-length categories ("EL") with the given count.
    EqualLength(usize),
    /// Maximum-entropy (equal-frequency) categories ("ME").
    MaxEntropy(usize),
    /// One category per distinct value — the exact, uncategorized `ST`.
    Exact,
    /// 1-D k-means categories.
    KMeans(usize),
}

impl Categorization {
    /// Builds the alphabet over a store.
    pub fn alphabet(&self, store: &SequenceStore) -> Result<Alphabet, CoreError> {
        match *self {
            Categorization::EqualLength(c) => Alphabet::equal_length(store, c),
            Categorization::MaxEntropy(c) => Alphabet::max_entropy(store, c),
            Categorization::Exact => Alphabet::singleton(store),
            Categorization::KMeans(c) => Alphabet::kmeans(store, c, 50),
        }
    }
}

/// A ready-to-query in-memory index: sequence store + alphabet +
/// suffix tree. This is the high-level entry point; the individual
/// pieces remain fully accessible for custom pipelines (disk-resident
/// trees, incremental builds, …).
pub struct Index {
    store: SequenceStore,
    alphabet: Alphabet,
    cat: Arc<CatStore>,
    tree: SuffixTree,
}

impl Index {
    /// Builds a full suffix-tree index (`ST_C`; `ST` when `cat` is
    /// [`Categorization::Exact`]).
    pub fn full(store: &SequenceStore, cat: Categorization) -> Result<Self, CoreError> {
        let alphabet = cat.alphabet(store)?;
        let encoded = Arc::new(alphabet.encode_store(store));
        let tree = warptree_suffix::build_full(encoded.clone());
        Ok(Self {
            store: store.clone(),
            alphabet,
            cat: encoded,
            tree,
        })
    }

    /// Builds a sparse suffix-tree index (`SST_C`, paper §6).
    pub fn sparse(store: &SequenceStore, cat: Categorization) -> Result<Self, CoreError> {
        let alphabet = cat.alphabet(store)?;
        let encoded = Arc::new(alphabet.encode_store(store));
        let tree = warptree_suffix::build_sparse(encoded.clone());
        Ok(Self {
            store: store.clone(),
            alphabet,
            cat: encoded,
            tree,
        })
    }

    /// Builds the exact (uncategorized) index `ST`.
    pub fn exact(store: &SequenceStore) -> Result<Self, CoreError> {
        Self::full(store, Categorization::Exact)
    }

    /// Runs a typed [`QueryRequest`] (threshold or k-NN) against this
    /// index — the one validated entry point every convenience method
    /// below routes through.
    pub fn query(&self, req: &QueryRequest) -> Result<(QueryOutput, SearchStats), CoreError> {
        run_query(&self.tree, &self.alphabet, &self.store, req)
    }

    /// [`query`](Self::query) accumulating counters and phase timings
    /// into caller-owned [`SearchMetrics`] (no stats snapshot).
    pub fn query_with(
        &self,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> Result<QueryOutput, CoreError> {
        run_query_with(&self.tree, &self.alphabet, &self.store, req, metrics)
    }

    /// Runs a complete similarity search (filter + post-processing):
    /// every subsequence with `D_tw(query, ·) ≤ params.epsilon`.
    ///
    /// Panics on an invalid query; use [`query`](Self::query) to handle
    /// validation errors.
    pub fn search(&self, query: &[Value], params: &SearchParams) -> (AnswerSet, SearchStats) {
        let (out, stats) = self
            .query(&QueryRequest::threshold_params(query, params.clone()))
            .expect("invalid query");
        (out.into_answer_set(), stats)
    }

    /// [`search`](Self::search) accumulating counters and phase timings
    /// into caller-owned [`SearchMetrics`] (e.g. registered on a
    /// [`MetricsRegistry`] shared across many queries).
    pub fn search_with(
        &self,
        query: &[Value],
        params: &SearchParams,
        metrics: &SearchMetrics,
    ) -> AnswerSet {
        self.query_with(
            &QueryRequest::threshold_params(query, params.clone()),
            metrics,
        )
        .expect("invalid query")
        .into_answer_set()
    }

    /// Finds the `k` nearest subsequences to `query` (exact, via ε
    /// expansion over the same index).
    ///
    /// Panics on invalid parameters; use [`query`](Self::query) to
    /// handle validation errors.
    pub fn knn(&self, query: &[Value], params: &KnnParams) -> (Vec<Match>, SearchStats) {
        let (out, stats) = self
            .query(&QueryRequest::knn_params(query, params.clone()))
            .expect("invalid query");
        (out.into_ranked(), stats)
    }

    /// Runs many searches concurrently on `threads` worker threads (the
    /// index is immutable and shared). Results align with `queries`.
    pub fn batch_search(
        &self,
        queries: &[Vec<Value>],
        params: &SearchParams,
        threads: usize,
    ) -> Vec<AnswerSet> {
        // One bundle for the whole batch (not a fresh allocation per
        // query): batch totals land in a single place, matching how the
        // server's batch op reports through its shared registry bundle.
        let metrics = SearchMetrics::new();
        self.batch_search_with(queries, params, threads, &metrics)
    }

    /// [`batch_search`](Self::batch_search) accumulating every query's
    /// counters and phase timings into ONE caller-owned
    /// [`SearchMetrics`] bundle — its snapshot after the call reflects
    /// the whole batch.
    pub fn batch_search_with(
        &self,
        queries: &[Vec<Value>],
        params: &SearchParams,
        threads: usize,
        metrics: &SearchMetrics,
    ) -> Vec<AnswerSet> {
        let queries: Vec<&[Value]> = queries.iter().map(Vec::as_slice).collect();
        warptree_core::parallel::parallel_map(threads, queries, |_, q| {
            self.search_with(q, params, metrics)
        })
    }

    /// The exact baseline over the same store (paper §4.3). Identical
    /// answers, no index.
    pub fn seq_scan(&self, query: &[Value], params: &SearchParams) -> (AnswerSet, SearchStats) {
        let mut stats = SearchStats::default();
        let answers = seq_scan(&self.store, query, params, SeqScanMode::Full, &mut stats);
        (answers, stats)
    }

    /// The sequence database.
    pub fn store(&self) -> &SequenceStore {
        &self.store
    }

    /// The categorization alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The categorized database.
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// The underlying suffix tree.
    pub fn tree(&self) -> &SuffixTree {
        &self.tree
    }

    /// Persists this in-memory index as an index directory loadable
    /// with [`open_index_dir`]. The write is crash-safe: files are
    /// staged under temporary names and committed atomically by the
    /// directory's `MANIFEST`. Returns the tree file size in bytes.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> Result<u64, Box<dyn std::error::Error>> {
        let vfs = warptree_disk::RealVfs;
        let manifest = warptree_disk::commit_dir_backend_with(
            &vfs,
            dir,
            warptree_core::search::BackendKind::Tree,
            |corpus_tmp| {
                warptree_disk::save_corpus_with(&vfs, &self.store, &self.alphabet, corpus_tmp)
                    .map(|_| ())
            },
            |index_tmp| warptree_disk::write_tree_with(&vfs, &self.tree, index_tmp).map(|_| ()),
        )?;
        Ok(manifest.index_len)
    }
}

/// A disk-backed index directory, as produced by [`build_index_dir`],
/// [`append_index_dir`] and the `warptree` CLI, opened after crash
/// recovery: the [`DirSnapshot`](warptree_disk::DirSnapshot) it derefs
/// to — `store`, `alphabet`, `cat`, the base `tree`, the tail
/// `segments`, `generation`, and `query` / `query_with`, the one query
/// over them (while an index file is damaged, it answers completely by
/// sequential scan) — plus what the recovery sweep found.
pub struct DiskIndexDir {
    /// The opened generation.
    pub snapshot: warptree_disk::DirSnapshot,
    /// What the recovery sweep cleaned while opening (crash leftovers).
    pub recovery: warptree_disk::RecoveryReport,
}

impl std::ops::Deref for DiskIndexDir {
    type Target = warptree_disk::DirSnapshot;

    fn deref(&self) -> &Self::Target {
        &self.snapshot
    }
}

impl DiskIndexDir {
    /// Explains one search: runs it and reports the filter funnel,
    /// table work, timings, and this query's cache/page traffic.
    pub fn explain(
        &self,
        query: &[Value],
        params: &SearchParams,
    ) -> Result<(AnswerSet, ExplainReport), CoreError> {
        ExplainReport::for_dir(self, query, params)
    }
}

/// Resolves the committed corpus and tree file paths of an index
/// directory, as its `MANIFEST` names them.
pub fn resolve_index_dir(
    dir: &std::path::Path,
) -> Result<(std::path::PathBuf, std::path::PathBuf), Box<dyn std::error::Error>> {
    let resolved = warptree_disk::resolve_dir_with(&warptree_disk::RealVfs, dir)?;
    Ok((resolved.corpus_path, resolved.index_path))
}

/// Builds a persistent index directory (corpus + incrementally merged
/// tree) for `store`. `sparse` selects `SST_C` vs `ST_C`; `batch` is the
/// number of sequences per in-memory partial tree. The build is
/// crash-safe: the directory flips atomically from its previous state
/// (or from empty) to the new index, and a failed or killed build leaves
/// any previous index untouched.
pub fn build_index_dir(
    store: &SequenceStore,
    cat: Categorization,
    sparse: bool,
    batch: usize,
    dir: &std::path::Path,
) -> Result<u64, Box<dyn std::error::Error>> {
    build_index_dir_backend(
        store,
        cat,
        sparse,
        batch,
        warptree_core::search::BackendKind::Tree,
        dir,
    )
}

/// [`build_index_dir`] with an explicit index backend: the suffix tree
/// (the default, incrementally merged batch by batch) or the enhanced
/// suffix array (`esa`), which answers every query byte-identically
/// through the same [`IndexBackend`](warptree_core::search::IndexBackend)
/// traversal while holding only three flat arrays resident. The chosen
/// backend is recorded in the directory's `MANIFEST` and every
/// subsequent open, append, scrub and compaction honors it.
pub fn build_index_dir_backend(
    store: &SequenceStore,
    cat: Categorization,
    sparse: bool,
    batch: usize,
    backend: warptree_core::search::BackendKind,
    dir: &std::path::Path,
) -> Result<u64, Box<dyn std::error::Error>> {
    build_index_dir_backend_metered(
        store,
        cat,
        sparse,
        batch,
        backend,
        dir,
        &MetricsRegistry::noop(),
    )
}

/// [`build_index_dir_backend`] with full build observability: all
/// file I/O is metered as `disk.vfs.*` counters and the incremental
/// builder publishes its `build.*` counters and timing histograms, all
/// on `reg`.
pub fn build_index_dir_backend_metered(
    store: &SequenceStore,
    cat: Categorization,
    sparse: bool,
    batch: usize,
    backend: warptree_core::search::BackendKind,
    dir: &std::path::Path,
    reg: &MetricsRegistry,
) -> Result<u64, Box<dyn std::error::Error>> {
    let alphabet = cat.alphabet(store)?;
    let kind = if sparse {
        warptree_disk::TreeKind::Sparse
    } else {
        warptree_disk::TreeKind::Full
    };
    let vfs = warptree_disk::MeteredVfs::new(warptree_disk::real_vfs(), reg);
    let manifest = warptree_disk::build_dir_metered(
        vfs, store, &alphabet, kind, batch, 1, None, backend, dir, reg,
    )?;
    Ok(manifest.index_len)
}

/// Opens an index directory produced by [`build_index_dir`], reading
/// every index file whole. `cache_pages` is ignored: there is no page
/// pool. It is kept only so the repo benchmark, which still passes it,
/// builds; ROADMAP item 1a deletes it.
///
/// Opening first runs crash recovery: the committed generation is
/// selected via the directory's `MANIFEST` and stale temporaries or
/// uncommitted files from an interrupted build/append are swept. The
/// sweep's findings are reported in [`DiskIndexDir::recovery`].
pub fn open_index_dir(
    dir: &std::path::Path,
    _cache_pages: usize,
) -> Result<DiskIndexDir, Box<dyn std::error::Error>> {
    open_recovered(&warptree_disk::RealVfs, dir)
}

/// [`open_index_dir`] with I/O tracing: every filesystem operation is
/// metered as `disk.vfs.*` counters, and a tree page that failed its CRC
/// at open as `disk.read_crc_fail` — all on `reg`, which outlives the
/// returned index and can be snapshot at any point.
pub fn open_index_dir_metered(
    dir: &std::path::Path,
    reg: &MetricsRegistry,
) -> Result<DiskIndexDir, Box<dyn std::error::Error>> {
    let vfs = warptree_disk::MeteredVfs::new(warptree_disk::real_vfs(), reg);
    let idx = open_recovered(vfs.as_ref(), dir)?;
    idx.instrument(reg);
    Ok(idx)
}

fn open_recovered(
    vfs: &dyn warptree_disk::Vfs,
    dir: &std::path::Path,
) -> Result<DiskIndexDir, Box<dyn std::error::Error>> {
    let (snapshot, recovery) = warptree_disk::open_dir_recovered_with(vfs, dir)?;
    Ok(DiskIndexDir { snapshot, recovery })
}

/// Appends `new` to an index directory as a tail segment — O(new data)
/// work, no rewrite of the existing trees. Queries over the reopened
/// directory fan out across all segments with results byte-identical to
/// a monolithic rebuild; run [`compact_index_dir`] (or `warptree
/// compact`) periodically to fold segments back together. Returns the
/// number of live trees (base + tails) after the append.
pub fn append_index_dir(
    dir: &std::path::Path,
    new: &SequenceStore,
) -> Result<usize, Box<dyn std::error::Error>> {
    let manifest = warptree_disk::append_segment(dir, new)?;
    Ok(1 + manifest.segments.len())
}

/// Fully compacts an index directory: repeatedly binary-merges the
/// cheapest adjacent pair of segments (paper §4.1) until a single tree
/// remains, each step committed as its own crash-safe generation.
/// Returns the number of merge steps performed.
pub fn compact_index_dir(dir: &std::path::Path) -> Result<u64, Box<dyn std::error::Error>> {
    let (runs, _) =
        warptree_disk::compact_all_with(&warptree_disk::RealVfs, dir, &MetricsRegistry::noop())?;
    Ok(runs)
}

/// Re-exports of the types most programs need.
pub mod prelude {
    pub use crate::{
        append_index_dir, build_index_dir, build_index_dir_backend,
        build_index_dir_backend_metered, compact_index_dir, open_index_dir, open_index_dir_metered,
        resolve_index_dir, Categorization, DiskIndexDir, ExplainReport, Index,
    };
    pub use warptree_core::predict::{forecast, Forecast, Weighting};
    pub use warptree_core::prelude::*;
    pub use warptree_core::search::BackendKind;
    pub use warptree_data::{
        artificial_corpus, stock_corpus, ArtificialConfig, QueryConfig, QueryWorkload, StockConfig,
    };
    pub use warptree_disk::{DiskTree, IncrementalBuilder, TreeKind};
    pub use warptree_obs::{MetricsRegistry, MetricsSnapshot};
    pub use warptree_server::{BenchConfig, Client, LoopMode, Server, ServerConfig, ServerHandle};
    pub use warptree_suffix::{build_full, build_sparse, SuffixTree};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn index_types_are_shareable_across_threads() {
        // The serving stack hands `Index` / `DiskIndexDir` references to
        // worker threads; state the contract at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Index>();
        assert_send_sync::<crate::DiskIndexDir>();
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<SearchMetrics>();
    }

    #[test]
    fn batch_search_shares_one_metrics_bundle() {
        let store = stock_corpus(&StockConfig {
            sequences: 8,
            mean_len: 30,
            ..Default::default()
        });
        let index = Index::sparse(&store, Categorization::MaxEntropy(8)).unwrap();
        let queries: Vec<Vec<f64>> = (0..4)
            .map(|i| store.get(SeqId(i)).subseq(0, 6).to_vec())
            .collect();
        let params = SearchParams::with_epsilon(3.0);
        let metrics = SearchMetrics::new();
        let batch = index.batch_search_with(&queries, &params, 2, &metrics);
        // The single bundle accumulated every query: its totals equal
        // the sum of per-query runs.
        let mut expected = SearchStats::default();
        for q in &queries {
            let (_, s) = index.search(q, &params);
            expected.merge(&s);
        }
        assert_eq!(metrics.snapshot(), expected);
        assert_eq!(batch.len(), queries.len());
    }

    #[test]
    fn knn_and_batch_search() {
        let store = stock_corpus(&StockConfig {
            sequences: 20,
            mean_len: 50,
            ..Default::default()
        });
        let index = Index::sparse(&store, Categorization::MaxEntropy(10)).unwrap();
        let q = store.get(SeqId(3)).subseq(5, 10).to_vec();
        let (top, _) = index.knn(&q, &KnnParams::new(5));
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].dist, 0.0); // the query itself is in the store
        for w in top.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }

        let queries: Vec<Vec<f64>> = (0..6)
            .map(|i| store.get(SeqId(i)).subseq(0, 8).to_vec())
            .collect();
        let params = SearchParams::with_epsilon(5.0);
        let parallel = index.batch_search(&queries, &params, 4);
        for (q, got) in queries.iter().zip(&parallel) {
            let (seq, _) = index.search(q, &params);
            assert_eq!(got.occurrence_set(), seq.occurrence_set());
        }
    }

    #[test]
    fn save_to_dir_then_open() {
        let dir = std::env::temp_dir().join(format!("warptree-facade-save-{}", std::process::id()));
        let store = stock_corpus(&StockConfig {
            sequences: 10,
            mean_len: 30,
            ..Default::default()
        });
        let index = Index::sparse(&store, Categorization::EqualLength(6)).unwrap();
        index.save_to_dir(&dir).unwrap();
        let opened = open_index_dir(&dir, 32).unwrap();
        let q = store.get(SeqId(1)).subseq(2, 5).to_vec();
        let params = SearchParams::with_epsilon(1.5);
        let (a, _) = index.search(&q, &params);
        let req = QueryRequest::threshold_params(&q, params);
        let b = opened.query(&req).unwrap().0.into_answer_set();
        assert_eq!(a.occurrence_set(), b.occurrence_set());
        // Names survive the round trip.
        assert_eq!(opened.store.name(SeqId(0)), store.name(SeqId(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("warptree-facade-dir-{}", std::process::id()));
        let store = stock_corpus(&StockConfig {
            sequences: 15,
            mean_len: 40,
            ..Default::default()
        });
        build_index_dir(&store, Categorization::MaxEntropy(8), true, 4, &dir).unwrap();
        let opened = open_index_dir(&dir, 64).unwrap();
        assert_eq!(opened.store.len(), store.len());
        let q = store.get(SeqId(2)).subseq(3, 6).to_vec();
        let params = SearchParams::with_epsilon(2.0);
        let req = QueryRequest::threshold_params(&q, params.clone());
        let disk_answers = opened.query(&req).unwrap().0.into_answer_set();
        let mem = Index::sparse(&store, Categorization::MaxEntropy(8)).unwrap();
        let (mem_answers, _) = mem.search(&q, &params);
        assert_eq!(disk_answers.occurrence_set(), mem_answers.occurrence_set());
        let top = opened.query(&QueryRequest::knn(&q, 2)).unwrap().0;
        assert_eq!(top.into_ranked().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_variants_answer_identically() {
        let store = SequenceStore::from_values(vec![
            vec![10.0, 11.0, 12.0, 11.0, 10.0],
            vec![12.0, 12.0, 12.0, 30.0],
        ]);
        let q = [11.0, 12.0];
        let params = SearchParams::with_epsilon(1.0);
        let exact = Index::exact(&store).unwrap();
        let full = Index::full(&store, Categorization::EqualLength(3)).unwrap();
        let sparse = Index::sparse(&store, Categorization::MaxEntropy(3)).unwrap();
        let (base, _) = exact.seq_scan(&q, &params);
        for idx in [&exact, &full, &sparse] {
            let (ans, _) = idx.search(&q, &params);
            assert_eq!(ans.occurrence_set(), base.occurrence_set());
        }
    }
}
