#![warn(missing_docs)]

//! # warptree-bench
//!
//! Experiment harness reproducing every table and figure of Park et al.
//! (ICDE 2000) §7, plus ablations. Each `exp_*` binary regenerates one
//! artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_table1` | Table 1 — index sizes vs. number of categories |
//! | `exp_table2` | Table 2 — query time per algorithm vs. categories |
//! | `exp_table3` | Table 3 — SeqScan vs. SimSearch-SST_C over ε |
//! | `exp_fig4` | Figure 4 — scalability in sequence length |
//! | `exp_fig5` | Figure 5 — scalability in number of sequences |
//! | `exp_ablation` | early-abandon / window / disk-vs-memory ablations |
//! | `exp_factors` | the reduction factors `R_d` and `R_p` (§4.3, §5.5) |
//!
//! Run with `--full` for paper-scale parameters (slower); the default
//! scale finishes in minutes and preserves every qualitative shape.
//! All corpora and workloads are seeded — reruns are bit-identical.

use std::sync::Arc;
use std::time::Instant;

use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::search::{
    run_query, seq_scan, IndexBackend, QueryRequest, SearchParams, SearchStats, SeqScanMode,
};
use warptree_core::sequence::SequenceStore;
use warptree_data::{stock_corpus, QueryConfig, QueryWorkload, StockConfig};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters: minutes on a laptop, same qualitative shapes.
    Quick,
    /// The paper's parameters (545 × 232 stock corpus, 20-query
    /// workloads, ε up to 50).
    Full,
}

impl Scale {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// The stock corpus for this scale.
    pub fn stock(&self) -> SequenceStore {
        match self {
            Scale::Quick => stock_corpus(&StockConfig {
                sequences: 150,
                mean_len: 120,
                len_std: 20.0,
                ..Default::default()
            }),
            Scale::Full => stock_corpus(&StockConfig::default()),
        }
    }

    /// The stratified query workload for this scale (mean length 20, as
    /// in the paper).
    pub fn queries(&self, store: &SequenceStore) -> QueryWorkload {
        let count = match self {
            Scale::Quick => 8,
            Scale::Full => 20,
        };
        QueryWorkload::draw(
            store,
            &QueryConfig {
                count,
                mean_len: 20,
                len_jitter: 4,
                noise_std: 0.5,
                ..Default::default()
            },
        )
    }

    /// Category counts swept by Tables 1–2.
    pub fn category_counts(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10, 20, 40, 80, 120],
            Scale::Full => vec![10, 20, 40, 80, 120, 160, 200, 250, 300],
        }
    }
}

/// Which index structure an experiment row uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Uncategorized full tree (`ST`).
    Exact,
    /// Categorized full tree (`ST_C`).
    Full,
    /// Categorized sparse tree (`SST_C`).
    Sparse,
}

/// Categorization method of an experiment row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Equal-length.
    El,
    /// Maximum-entropy.
    Me,
}

/// A built index ready for measurement.
pub struct BuiltIndex {
    /// The alphabet used.
    pub alphabet: Alphabet,
    /// The categorized corpus.
    pub cat: Arc<CatStore>,
    /// The suffix tree.
    pub tree: warptree_suffix::SuffixTree,
    /// Wall-clock build time in seconds.
    pub build_secs: f64,
}

/// Builds an index over `store`.
pub fn build_index(
    store: &SequenceStore,
    kind: IndexKind,
    method: Method,
    categories: usize,
) -> BuiltIndex {
    let t0 = Instant::now();
    let alphabet = match (kind, method) {
        (IndexKind::Exact, _) => Alphabet::singleton(store).unwrap(),
        (_, Method::El) => Alphabet::equal_length(store, categories).unwrap(),
        (_, Method::Me) => Alphabet::max_entropy(store, categories).unwrap(),
    };
    let cat = Arc::new(alphabet.encode_store(store));
    let tree = match kind {
        IndexKind::Sparse => warptree_suffix::build_sparse(cat.clone()),
        _ => warptree_suffix::build_full(cat.clone()),
    };
    BuiltIndex {
        alphabet,
        cat,
        tree,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Serialized (on-disk) size of an index in bytes — the paper's "index
/// size" metric. Writes to a temp file and removes it.
pub fn disk_size(tree: &warptree_suffix::SuffixTree, tag: &str) -> u64 {
    let path = std::env::temp_dir().join(format!("warptree-size-{}-{tag}.wt", std::process::id()));
    let size = warptree_disk::write_tree(tree, &path).unwrap();
    std::fs::remove_file(&path).ok();
    size
}

/// Index size with edge labels *materialized* (inlined) instead of stored
/// as `(seq, start, len)` references into the corpus — the representation
/// the paper's numbers correspond to. `sym_bytes` is the per-symbol cost
/// (8 for raw f64 values in ST, 4 for category symbols).
///
/// Our reference-compressed format makes even the uncategorized ST small;
/// this metric restores comparability with the paper's Table 1.
pub fn materialized_size(tree: &warptree_suffix::SuffixTree, sym_bytes: u64) -> u64 {
    let mut size = 0u64;
    for id in 0..tree.node_count() as u32 {
        let n = tree.node(id);
        // Fixed head (annotations + counts), suffix labels, child
        // pointers, plus the inlined label symbols.
        size += 24
            + 12 * n.suffixes.len() as u64
            + 12 * n.children.len() as u64
            + 4
            + n.label.len as u64 * sym_bytes;
    }
    size
}

/// A disk-resident copy of a built index, opened from its file (read
/// whole; see [`to_disk`]).
pub struct DiskIndex {
    /// The opened on-disk tree.
    pub disk: warptree_disk::DiskTree,
    path: std::path::PathBuf,
}

impl Drop for DiskIndex {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Writes `built` to a temp file and reopens it, read whole. Measuring
/// through this path charges record decoding and its checks to every
/// traversal; it charges no page I/O, which the paper's *disk-based*
/// index pays per node (see EXPERIMENTS.md, "Disk residency").
pub fn to_disk(built: &BuiltIndex, tag: &str) -> DiskIndex {
    let path = std::env::temp_dir().join(format!("warptree-run-{}-{tag}.wt", std::process::id()));
    warptree_disk::write_tree(&built.tree, &path).unwrap();
    let disk = warptree_disk::DiskTree::open(&path, built.cat.clone()).unwrap();
    DiskIndex { disk, path }
}

/// Raw size of the numeric database in bytes (8 bytes per element), the
/// paper's reference point for index-size ratios.
pub fn database_size(store: &SequenceStore) -> u64 {
    store.total_len() * 8
}

/// Result of running one workload against one search strategy.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Mean wall-clock seconds per query.
    pub secs_per_query: f64,
    /// Mean total table cells per query (machine-independent cost).
    pub cells_per_query: f64,
    /// Mean answers per query.
    pub answers_per_query: f64,
    /// Per-query wall-clock seconds, sorted ascending.
    pub latencies: Vec<f64>,
}

impl Measured {
    /// The `q`-quantile (0..=1) of the per-query latencies, in seconds.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[idx]
    }
}

/// Runs the full `SimSearch` (filter + post-process) workload over an
/// index.
pub fn measure_index<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    queries: &QueryWorkload,
    params: &SearchParams,
) -> Measured {
    let mut total = Measured::default();
    for q in queries.queries() {
        let req = QueryRequest::threshold_params(&q.values, params.clone());
        let t0 = Instant::now();
        let (answers, stats) = run_query(tree, alphabet, store, &req).unwrap();
        let answers = answers.into_answer_set();
        let secs = t0.elapsed().as_secs_f64();
        total.latencies.push(secs);
        total.secs_per_query += secs;
        total.cells_per_query += stats.total_cells() as f64;
        total.answers_per_query += answers.len() as f64;
    }
    let n = queries.len().max(1) as f64;
    total.secs_per_query /= n;
    total.cells_per_query /= n;
    total.answers_per_query /= n;
    total
        .latencies
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    total
}

/// Runs the `SeqScan` baseline workload.
pub fn measure_seqscan(
    store: &SequenceStore,
    queries: &QueryWorkload,
    params: &SearchParams,
    mode: SeqScanMode,
) -> Measured {
    let mut total = Measured::default();
    for q in queries.queries() {
        let mut stats = SearchStats::default();
        let t0 = Instant::now();
        let answers = seq_scan(store, &q.values, params, mode, &mut stats);
        let secs = t0.elapsed().as_secs_f64();
        total.latencies.push(secs);
        total.secs_per_query += secs;
        total.cells_per_query += stats.total_cells() as f64;
        total.answers_per_query += answers.len() as f64;
    }
    let n = queries.len().max(1) as f64;
    total.secs_per_query /= n;
    total.cells_per_query /= n;
    total.answers_per_query /= n;
    total
        .latencies
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    total
}

/// Opens a CSV sink when `--csv DIR` was passed on the command line:
/// `DIR/<name>.csv` with the given header. Returns `None` otherwise.
pub fn csv_sink(name: &str, header: &str) -> Option<std::fs::File> {
    use std::io::Write;
    let args: Vec<String> = std::env::args().collect();
    let dir = args
        .windows(2)
        .find(|w| w[0] == "--csv")
        .map(|w| std::path::PathBuf::from(&w[1]))?;
    std::fs::create_dir_all(&dir).ok()?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv"))).ok()?;
    writeln!(f, "{header}").ok()?;
    Some(f)
}

/// Writes one CSV row when a sink is open.
pub fn csv_row(sink: &mut Option<std::fs::File>, row: &str) {
    use std::io::Write;
    if let Some(f) = sink {
        let _ = writeln!(f, "{row}");
    }
}

/// Formats a byte count as KiB with thousands separators, as in Table 1.
pub fn kib(bytes: u64) -> String {
    group_digits(bytes / 1024)
}

/// Formats an integer with `,` thousands separators.
pub fn group_digits(mut v: u64) -> String {
    let mut parts = Vec::new();
    loop {
        let chunk = v % 1000;
        v /= 1000;
        if v == 0 {
            parts.push(format!("{chunk}"));
            break;
        }
        parts.push(format!("{chunk:03}"));
    }
    parts.reverse();
    parts.join(",")
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, scale: Scale) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!(
        "scale: {} (pass --full for paper-scale parameters)",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    );
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_digits_formats() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1234567), "1,234,567");
    }

    #[test]
    fn build_and_measure_smoke() {
        let store = stock_corpus(&StockConfig {
            sequences: 12,
            mean_len: 40,
            ..Default::default()
        });
        let built = build_index(&store, IndexKind::Sparse, Method::Me, 8);
        assert!(built.tree.suffix_count() > 0);
        let queries = QueryWorkload::draw(
            &store,
            &QueryConfig {
                count: 3,
                mean_len: 6,
                ..Default::default()
            },
        );
        let params = SearchParams::with_epsilon(2.0);
        let m = measure_index(&built.tree, &built.alphabet, &store, &queries, &params);
        let s = measure_seqscan(&store, &queries, &params, SeqScanMode::Full);
        // Identical answer counts, index does not do more cell work.
        assert_eq!(m.answers_per_query, s.answers_per_query);
        assert!(m.cells_per_query <= s.cells_per_query);
        // Quantiles come from the sorted latency list.
        assert_eq!(m.latencies.len(), queries.len());
        assert!(m.quantile(0.0) <= m.quantile(1.0));
        assert!(m.quantile(0.5) > 0.0);
    }

    #[test]
    fn disk_size_positive_and_sparse_smaller() {
        let store = stock_corpus(&StockConfig {
            sequences: 20,
            mean_len: 60,
            ..Default::default()
        });
        let full = build_index(&store, IndexKind::Full, Method::Me, 10);
        let sparse = build_index(&store, IndexKind::Sparse, Method::Me, 10);
        let fs = disk_size(&full.tree, "t-full");
        let ss = disk_size(&sparse.tree, "t-sparse");
        assert!(fs > 0 && ss > 0);
        assert!(ss < fs, "sparse index ({ss}) not smaller than full ({fs})");
    }
}
