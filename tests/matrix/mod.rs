//! The one equivalence matrix.
//!
//! The paper's non-negotiable result (Theorems 1–3) is that the index
//! returns exactly the answers of the sequential scan. This harness holds
//! that result, and every equivalence the product promises on top of it:
//!
//! * one [`Config`]: backend × index × categorization × layout × threads
//!   × trace × cascade × window × length range × truncation × query kind,
//!   with one [`Config::valid`] for the combinations the product refuses;
//! * one corpus generator ([`Corpus`]): binary-exact proptest grids, where
//!   every sum is exact in `f64`, and the fixed corpora below;
//! * one oracle, `seq_scan(Full)`, and one comparison ([`compare`])
//!   against the reference configuration ([`Config::reference`]). The
//!   counters a mechanism may move are declared once ([`exempt`]).
//!
//! A corpus runs an all-pairs covering set of the configurations
//! ([`Lab::matrix`]), and every such run prints how many it covered. Each
//! named test also runs its own pinned configurations ([`Sweep`],
//! [`Lab::pinned`]), so a failure names the mechanism it broke. The test
//! targets `equivalence`, `backend_equivalence`, `cascade_equivalence`,
//! `disk_equivalence`, `parallel_equivalence`, `segments_equivalence` and
//! `truncated` are entry points into this module and hold no comparison
//! of their own.
//!
//! To add a dimension: add a field to `Config` and its values to `DIMS`
//! and `Config::decode`. Add a clause to `valid()` if the product refuses
//! some combination. Add an entry to `exempt()` only if the mechanism
//! moves a counter.

// Each target uses its own share of the harness.
#![allow(dead_code)]

use std::collections::HashMap;
use std::hash::Hash;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;
use warptree::core::analysis::{longest_repeated, top_motifs, Motif, TreeStats};
use warptree::prelude::*;
use warptree_disk::{
    build_dir_backend_with, compact_once, real_vfs, verify_dir_with, DiskError, Manifest, RealVfs,
};
use warptree_esa::EsaIndex;
use warptree_suffix::{build_full_truncated, build_sparse_truncated, TruncateSpec};

// ---------------------------------------------------------------------
// The configuration space.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    Memory,
    DiskTree,
    DiskEsa,
}

impl Backend {
    /// The index family; the in-memory index is a suffix tree.
    pub fn kind(self) -> BackendKind {
        match self {
            Backend::DiskEsa => BackendKind::Esa,
            _ => BackendKind::Tree,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cat {
    Exact,
    EqualLength,
    MaxEntropy,
    KMeans,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// One build over the whole corpus.
    Mono,
    /// A build of the first batch plus two appends: three live trees.
    Segments3,
    /// `Segments3` after one `compact_once`: two live trees.
    Segments2,
    /// `Segments3` fully compacted: one tree again.
    Compacted,
}

impl Layout {
    pub fn live_trees(self) -> usize {
        match self {
            Layout::Segments3 => 3,
            Layout::Segments2 => 2,
            _ => 1,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Threshold,
    /// `k`, and whether overlapping matches are dropped.
    Knn(usize, bool),
    Explain,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    pub backend: Backend,
    pub sparse: bool,
    pub cat: Cat,
    pub layout: Layout,
    pub threads: u32,
    pub trace: bool,
    pub cascade: bool,
    /// The corpus's warping window `w`, or none.
    pub window: bool,
    /// The corpus's length range `[min, max]`, or none.
    pub range: bool,
    /// The corpus's §8 depth, or an untruncated index.
    pub truncate: bool,
    pub kind: Kind,
}

/// The plainest configuration, which the explicit checks start from.
pub const BASE: Config = Config {
    backend: Backend::Memory,
    sparse: false,
    cat: Cat::Exact,
    layout: Layout::Mono,
    threads: 1,
    trace: false,
    cascade: true,
    window: false,
    range: false,
    truncate: false,
    kind: Kind::Threshold,
};

/// Every k-NN query kind the covering set draws from.
pub const KNN: [Kind; 4] = [
    Kind::Knn(1, false),
    Kind::Knn(1, true),
    Kind::Knn(5, false),
    Kind::Knn(5, true),
];

/// How many values each dimension takes, in [`Config::decode`]'s order.
const DIMS: [usize; 11] = [3, 2, 4, 4, 3, 2, 2, 2, 2, 2, 6];

/// What an index build depends on.
type BuildKey = (Backend, bool, Cat, Layout, bool);

impl Config {
    fn decode(v: &[usize; 11]) -> Config {
        use Layout::*;
        Config {
            backend: [Backend::Memory, Backend::DiskTree, Backend::DiskEsa][v[0]],
            sparse: v[1] == 1,
            cat: [Cat::Exact, Cat::EqualLength, Cat::MaxEntropy, Cat::KMeans][v[2]],
            layout: [Mono, Segments3, Segments2, Compacted][v[3]],
            threads: [1, 2, 8][v[4]],
            trace: v[5] == 1,
            cascade: v[6] == 0,
            window: v[7] == 1,
            range: v[8] == 1,
            truncate: v[9] == 1,
            kind: [
                Kind::Threshold,
                KNN[0],
                KNN[1],
                KNN[2],
                KNN[3],
                Kind::Explain,
            ][v[10]],
        }
    }

    /// Whether the product runs this combination at all. Each refusal
    /// is asserted once, as a typed error, in `truncated_esa_build_is_refused`
    /// or `unbounded_search_over_truncated_index_is_rejected`.
    pub fn valid(&self) -> bool {
        // `build_dir` refuses §8 truncation for the ESA.
        let esa_truncated = self.truncate && self.backend == Backend::DiskEsa;
        // Segments live in a directory, and an append refuses a
        // truncated index.
        let segments_refused =
            self.layout != Layout::Mono && (self.backend == Backend::Memory || self.truncate);
        // A truncated index needs a bound on the answer length
        // (`DepthLimitExceeded`); k-NN gets one only from a window.
        let unbounded = self.truncate && !self.window && (self.knn() || !self.range);
        // k-NN takes no length range; `explain` meters its own run.
        let inexpressible =
            (self.knn() && self.range) || (self.trace && self.kind == Kind::Explain);
        !(esa_truncated || segments_refused || unbounded || inexpressible)
    }

    /// The configuration every other one must answer like: the same
    /// corpus, index, categorization, truncation, window, length range
    /// and query, on the in-memory tree, monolithic, one thread,
    /// untraced, cascade on.
    pub fn reference(&self) -> Config {
        Config {
            backend: Backend::Memory,
            layout: Layout::Mono,
            threads: 1,
            trace: false,
            cascade: true,
            ..*self
        }
    }

    /// Several live trees answer together.
    pub fn segmented(&self) -> bool {
        self.layout.live_trees() > 1
    }

    pub fn knn(&self) -> bool {
        matches!(self.kind, Kind::Knn(..))
    }

    fn build_key(&self) -> BuildKey {
        let c = self;
        (c.backend, c.sparse, c.cat, c.layout, c.truncate)
    }

    pub fn params(&self, corpus: &Corpus, epsilon: f64) -> SearchParams {
        let mut params = SearchParams::with_epsilon(epsilon)
            .parallel(self.threads)
            .cascaded(self.cascade);
        params.window = self.window.then_some(corpus.window);
        if self.range {
            params = params.length_range(corpus.range.0, corpus.range.1);
        }
        params
    }

    pub fn request(&self, corpus: &Corpus, query: &[f64], epsilon: f64) -> QueryRequest {
        let Kind::Knn(k, non_overlapping) = self.kind else {
            return QueryRequest::threshold_params(query, self.params(corpus, epsilon));
        };
        let mut params = KnnParams::new(k)
            .parallel(self.threads)
            .cascaded(self.cascade);
        params.window = self.window.then_some(corpus.window);
        params.non_overlapping = non_overlapping;
        QueryRequest::knn_params(query, params)
    }
}

/// An all-pairs covering set of the valid configurations: for every two
/// dimensions, every pair of their values that some valid configuration
/// holds appears in at least one chosen configuration. Greedy and
/// deterministic: each step takes the first uncovered pair and, among
/// the valid configurations holding it, the one covering the most pairs
/// still uncovered.
pub fn covering_set() -> &'static [Config] {
    static SET: OnceLock<Vec<Config>> = OnceLock::new();
    SET.get_or_init(|| {
        // Value `v` of dimension `d` is number `start[d] + v`, and the
        // pair of numbers `a < b` is `a * values + b`.
        let start: [usize; 11] = std::array::from_fn(|d| DIMS[..d].iter().sum());
        let values: usize = DIMS.iter().sum();
        let dim = |n: usize| (0..11).rfind(|&d| start[d] <= n).unwrap();
        let pairs = |n: &[usize; 11]| {
            let mut out = Vec::with_capacity(55);
            for (i, a) in n.iter().enumerate() {
                out.extend(n[i + 1..].iter().map(|b| a * values + b));
            }
            out
        };
        let digits = |mut k: usize| {
            let mut v = [0; 11];
            for d in (0..11).rev() {
                (v[d], k) = (k % DIMS[d], k / DIMS[d]);
            }
            v
        };
        let valid: Vec<[usize; 11]> = (0..DIMS.iter().product())
            .map(digits)
            .filter(|v| Config::decode(v).valid())
            .collect();
        let numbers: Vec<[usize; 11]> = valid
            .iter()
            .map(|v| std::array::from_fn(|d| start[d] + v[d]))
            .collect();
        let covers: Vec<Vec<usize>> = numbers.iter().map(pairs).collect();
        let mut uncovered = vec![false; values * values];
        for id in covers.iter().flatten() {
            uncovered[*id] = true;
        }
        let mut chosen = Vec::new();
        while let Some(first) = uncovered.iter().position(|&u| u) {
            let (a, b) = (first / values, first % values);
            let (da, db) = (dim(a), dim(b));
            let holds = |i: &usize| numbers[*i][da] == a && numbers[*i][db] == b;
            let gain = |c: &[usize]| c.iter().filter(|id| uncovered[**id]).count();
            let best = (0..valid.len())
                .filter(holds)
                .max_by_key(|&i| (gain(&covers[i]), std::cmp::Reverse(i)))
                .expect("an uncovered pair is held by some valid configuration");
            for id in &covers[best] {
                uncovered[*id] = false;
            }
            chosen.push(Config::decode(&valid[best]));
        }
        chosen
    })
}

/// A test's pinned configurations: `base` under every combination of the
/// values each [`vary`](Sweep::vary) lists.
#[derive(Clone)]
pub struct Sweep(pub Vec<Config>);

impl Sweep {
    pub fn of(base: Config) -> Sweep {
        Sweep(vec![base])
    }

    pub fn vary<T: Copy>(self, values: &[T], set: fn(&mut Config, T)) -> Sweep {
        let each = |mut c: Config| {
            values.iter().map(move |&v| {
                set(&mut c, v);
                c
            })
        };
        Sweep(self.0.into_iter().flat_map(each).collect())
    }

    pub fn and(mut self, other: Sweep) -> Sweep {
        self.0.extend(other.0);
        self
    }
}

// ---------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------

/// One corpus, the queries every configuration answers over it, and the
/// shapes its `window`, `range` and `truncate` dimensions take.
pub struct Corpus {
    pub name: String,
    pub store: SequenceStore,
    /// The segment layouts' first build and its two appends; empty for a
    /// corpus too small to split, which runs monolithic layouts only.
    pub batches: Vec<SequenceStore>,
    pub categories: usize,
    /// `(query, ε)`; k-NN ignores the ε.
    pub queries: Vec<(Vec<f64>, f64)>,
    pub window: u32,
    pub range: (u32, u32),
    pub truncate: TruncateSpec,
    /// An alphabet given with the corpus (a recovered directory's),
    /// instead of one fit per categorization.
    pub alphabet: Option<Alphabet>,
}

impl Corpus {
    /// `batches`: three to split the corpus into, or one.
    pub fn new(
        name: &str,
        batches: Vec<Vec<Vec<f64>>>,
        categories: usize,
        queries: Vec<(Vec<f64>, f64)>,
        window: u32,
        range: (u32, u32),
    ) -> Corpus {
        // The §8 window-derived depth (`TruncateSpec::for_queries`),
        // stretched to hold the length range too.
        let lens = queries.iter().map(|(q, _)| q.len() as u32);
        let (qmin, qmax) = (lens.clone().min().unwrap(), lens.max().unwrap());
        let truncate = TruncateSpec {
            max_answer_len: (qmax + window).max(range.1),
            min_answer_len: qmin.saturating_sub(window).max(1).min(range.0),
        };
        let split = batches.len() == 3;
        Corpus {
            name: name.to_string(),
            store: SequenceStore::from_values(batches.concat()),
            batches: batches
                .into_iter()
                .filter(|_| split)
                .map(SequenceStore::from_values)
                .collect(),
            categories,
            queries,
            window,
            range,
            truncate,
            alphabet: None,
        }
    }

    /// The one alphabet every layout of this corpus shares: fit on the
    /// whole corpus and handed to the first build, so appends widen
    /// nothing and layouts compare counter for counter.
    pub fn alphabet(&self, cat: Cat) -> Alphabet {
        if let Some(a) = &self.alphabet {
            return a.clone();
        }
        let c = self.categories;
        match cat {
            Cat::Exact => Categorization::Exact,
            Cat::EqualLength => Categorization::EqualLength(c),
            Cat::MaxEntropy => Categorization::MaxEntropy(c),
            Cat::KMeans => Categorization::KMeans(c),
        }
        .alphabet(&self.store)
        .unwrap()
    }

    fn build(&self, cfg: &Config) -> Built {
        let alphabet = self.alphabet(cfg.cat);
        let spec = cfg.truncate.then_some(self.truncate);
        if cfg.backend == Backend::Memory {
            let cat = Arc::new(alphabet.encode_store(&self.store));
            let tree = match (cfg.sparse, spec) {
                (false, None) => build_full(cat),
                (true, None) => build_sparse(cat),
                (false, Some(spec)) => build_full_truncated(cat, spec),
                (true, Some(spec)) => build_sparse_truncated(cat, spec),
            };
            tree.check_invariants();
            return Built::Memory { tree, alphabet };
        }
        // The directory is removed when `path` drops; the open index
        // keeps reading through its own file handles.
        let path = self.commit(cfg);
        let built = Built::open(&path);
        let dir = built.dir();
        assert_eq!(dir.segment_count(), cfg.layout.live_trees(), "{cfg:?}");
        assert_eq!(dir.backend(), cfg.backend.kind());
        assert_eq!(dir.alphabet, alphabet, "{cfg:?}: appends moved it");
        let depth = IndexBackend::depth_limit(&dir.tree);
        assert_eq!(depth, spec.map(|s| s.max_answer_len));
        built
    }

    /// Commits `cfg`'s index of this corpus to a new directory, in
    /// `cfg`'s layout.
    pub fn commit(&self, cfg: &Config) -> TempDir {
        let alphabet = self.alphabet(cfg.cat);
        let spec = cfg.truncate.then_some(self.truncate);
        let (path, kind) = (TempDir::new(&self.name), cfg.backend.kind());
        if cfg.layout == Layout::Mono {
            build_dir(&path, &self.store, &alphabet, cfg.sparse, spec, kind).unwrap();
        } else {
            build_dir(&path, &self.batches[0], &alphabet, cfg.sparse, spec, kind).unwrap();
            append_index_dir(&path, &self.batches[1]).unwrap();
            append_index_dir(&path, &self.batches[2]).unwrap();
        }
        match cfg.layout {
            Layout::Segments2 => assert!(compact_once(&path).unwrap().is_some()),
            Layout::Compacted => assert_eq!(compact_index_dir(&path).unwrap(), 2),
            _ => {}
        }
        path
    }

    /// One run of `cfg` on `built`: the product's query path, plus the
    /// filter's candidate groups for a threshold query.
    fn run(&self, built: &Built, cfg: &Config, query: &[f64], epsilon: f64) -> Outcome {
        let mut outcome = Outcome::default();
        if let (Kind::Explain, Built::Dir(dir)) = (cfg.kind, built) {
            let (answers, report) = dir.explain(query, &cfg.params(self, epsilon)).unwrap();
            outcome.matches = answers.matches().to_vec();
            outcome.stats = report.stats;
            outcome.explained = Some((report.suffixes, report.kind, report.backend));
            return outcome;
        }
        let trace = match cfg.trace {
            true => warptree::obs::Trace::active("matrix"),
            false => warptree::obs::Trace::noop(),
        };
        let metrics = SearchMetrics::new().with_trace(trace.clone());
        let req = cfg.request(self, query, epsilon);
        let out = match built {
            Built::Memory { tree, alphabet } => {
                run_query_with(tree, alphabet, &self.store, &req, &metrics)
            }
            Built::Dir(dir) => dir.query_with(&req, &metrics),
        };
        let out = out.unwrap();
        outcome.stats = req.final_stats(&out, &metrics);
        outcome.matches = out.matches().to_vec();
        if let Some(data) = trace.finish() {
            outcome.spans = data.spans.into_iter().map(|s| s.name).collect();
        }
        if let (Kind::Explain, Built::Memory { tree, .. }) = (cfg.kind, built) {
            // What `ExplainReport::for_index` reports of an in-memory tree.
            let kind = if tree.is_sparse() { "sparse" } else { "full" };
            outcome.explained = Some((tree.suffix_count(), kind, "tree"));
        }
        if cfg.kind == Kind::Threshold {
            let (params, metrics) = (cfg.params(self, epsilon), SearchMetrics::new());
            let groups = match built {
                Built::Memory { tree, alphabet } => {
                    filter_tree(tree, alphabet, query, &params, &metrics)
                }
                Built::Dir(dir) => {
                    let live = SegmentedIndex::new(dir.live_trees().collect());
                    filter_tree(&live, &dir.alphabet, query, &params, &metrics)
                }
            };
            outcome.groups = groups.iter().map(|(at, l)| (at, l.to_vec())).collect();
        }
        outcome
    }
}

/// A binary-exact grid: integers and halves below 6, so every base
/// distance and every path sum is exact in `f64`.
fn grid(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0i32..12).prop_map(|v| v as f64 * 0.5), len)
}

/// Proptest corpora: three batches of one or two grid sequences, one or
/// two grid queries, and the window, range and ε drawn alongside.
pub fn grid_corpus() -> impl Strategy<Value = Corpus> {
    (
        prop::collection::vec(prop::collection::vec(grid(1..16), 1..3), 3),
        prop::collection::vec((grid(1..5), 0u32..8), 1..3),
        (0u32..3, 1u32..4, 0u32..4),
    )
        .prop_map(|(batches, queries, (window, min, extra))| {
            let queries = queries.into_iter().map(|(q, e)| (q, e as f64 / 2.0));
            let range = (min, min + extra);
            Corpus::new("grid", batches, 3, queries.collect(), window, range)
        })
}

/// Grid inputs proptest once shrank failures to, kept as fixed corpora: a
/// one-length range, and a window of 0.
pub fn shrunk_corpora() -> [Corpus; 2] {
    let one = vec![vec![vec![5.5, 5.5]]];
    let two = vec![vec![vec![0.0, 2.5, 1.5]]];
    [
        Corpus::new("shrunk range", one, 3, vec![(vec![4.5], 1.0)], 0, (1, 1)),
        Corpus::new(
            "shrunk window",
            two,
            3,
            vec![(vec![0.0, 1.0, 2.5], 2.5)],
            0,
            (1, 3),
        ),
    ]
}

/// The segment-boundary batches. The last sequence of the first append
/// *ends* in exactly `[6, 7, 8]`, so its best match fills the final
/// positions of a tail segment; the second append carries the near miss
/// `[6, 7, 9.5]`, which a sloppy fan-out would confuse with it.
pub fn boundary_batches() -> Corpus {
    let batches = vec![
        vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0, 1.0, 2.0, 3.0],
            vec![5.0, 5.0, 4.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 5.0],
        ],
        vec![
            vec![4.0, 3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0],
            vec![1.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        ],
        vec![
            vec![6.0, 7.0, 9.5, 3.0, 2.0, 2.0, 1.0],
            vec![3.0, 4.0, 4.0, 5.0, 5.0, 6.0, 6.0, 5.0, 4.0],
        ],
    ];
    let queries = vec![
        (vec![6.0, 7.0, 8.0], 0.5),
        (vec![2.0, 3.0, 4.0], 1.0),
        (vec![5.0, 4.0, 3.0, 2.0], 2.5),
        (vec![3.0, 3.0], 3.0),
    ];
    Corpus::new("segment boundary", batches, 6, queries, 2, (3, 6))
}

/// The segment-boundary batches' lab, shared by every test of a target,
/// so that each index and each expected answer is computed once.
pub fn boundary_lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(boundary_batches()))
}

/// A deterministic branch-rich corpus on a cent grid (a fixed LCG, no
/// RNG): wide enough that parallel filtering forks over many root
/// subtrees and the cascade kills.
pub fn branch_rich() -> Corpus {
    let mut state = 0x9E3779B9_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 100.0
    };
    let seqs: Vec<Vec<f64>> = (0..10)
        .map(|i| (0..20 + 5 * i).map(|_| next()).collect())
        .collect();
    let batches = vec![seqs[..4].to_vec(), seqs[4..7].to_vec(), seqs[7..].to_vec()];
    let queries = vec![
        (vec![4.2, 5.1, 4.8, 3.9, 5.5], 0.8),
        (vec![2.0, 3.0, 4.0], 5.0),
        (vec![7.5, 7.0, 6.5, 6.0], 3.0),
    ];
    Corpus::new("branch rich", batches, 6, queries, 2, (1, 7))
}

/// The branch-rich corpus's lab, shared by every test of a target.
pub fn branch_lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(branch_rich()))
}

/// The largest `f64` strictly below `x`.
pub fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Small integers only, so every sum is exact: the query `[1, 2, 3]`
/// aligns with the pattern `[1, 2, 5]` (the last, appended sequence) at
/// exactly 2.0, and with no window the envelope bound of that pattern is
/// exactly 2.0 too. The query runs at ε = 2.0 and one ulp below.
pub fn boundary_store() -> Corpus {
    let batches = vec![
        vec![vec![30.0, 30.0, 30.0, 30.0]],
        vec![vec![40.0, 41.0, 40.0, 40.0]],
        vec![vec![50.0, 1.0, 2.0, 5.0, 50.0]],
    ];
    let q = vec![1.0, 2.0, 3.0];
    let queries = vec![(q.clone(), 2.0), (q, next_down(2.0))];
    Corpus::new("epsilon boundary", batches, 4, queries, 1, (2, 4))
}

/// The broad workload's window, w = 8. Integers only: long runs of 3
/// ending in a 5, so against `3 × 11, 7` every start inside a run
/// carries one answer at exactly `|7 − 5| = 2` among a full band's worth
/// of candidate lengths. The query runs at ε = 2.0 and one ulp below.
pub fn wide_band_store() -> Corpus {
    let run = |k: usize, tail: &[f64]| {
        let mut v = vec![40.0];
        v.extend(std::iter::repeat_n(3.0, k));
        v.extend_from_slice(tail);
        v
    };
    let batches = vec![
        vec![
            run(20, &[5.0, 40.0, 40.0, 3.0, 3.0]),
            vec![30.0, 31.0, 29.0, 30.0, 32.0, 30.0, 28.0, 30.0, 30.0, 31.0],
        ],
        vec![
            run(14, &[5.0, 3.0, 3.0, 3.0, 6.0, 40.0]),
            run(24, &[4.0, 5.0, 9.0]),
        ],
        vec![
            vec![3.0, 3.0, 3.0, 5.0, 3.0, 3.0, 3.0, 3.0, 5.0, 5.0, 7.0, 40.0],
            run(9, &[7.0, 7.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 5.0]),
        ],
    ];
    let mut q = vec![3.0; 11];
    q.push(7.0);
    let queries = vec![(q.clone(), 2.0), (q, next_down(2.0))];
    Corpus::new("wide band", batches, 4, queries, 8, (5, 18))
}

// ---------------------------------------------------------------------
// Building and running.
// ---------------------------------------------------------------------

/// Commits a build of `store` into `path`, at the one batch size and
/// thread count the matrix builds with.
pub fn build_dir(
    path: &Path,
    store: &SequenceStore,
    alphabet: &Alphabet,
    sparse: bool,
    spec: Option<TruncateSpec>,
    backend: BackendKind,
) -> Result<Manifest, DiskError> {
    let kind = [TreeKind::Full, TreeKind::Sparse][sparse as usize];
    build_dir_backend_with(real_vfs(), store, alphabet, kind, 2, 1, spec, backend, path)
}

/// A scratch directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
        let name = format!("warptree-equivalence-{}-{n}-{tag}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    pub fn copy(&self, tag: &str) -> TempDir {
        let to = TempDir::new(tag);
        for entry in std::fs::read_dir(&self.0).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.0.join(entry.file_name())).unwrap();
        }
        to
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

pub enum Built {
    Memory {
        tree: SuffixTree,
        alphabet: Alphabet,
    },
    Dir(Box<DiskIndexDir>),
}

impl Built {
    /// Opens a directory, after checking every committed page of it.
    pub fn open(path: &Path) -> Built {
        let report = verify_dir_with(&RealVfs, path).unwrap();
        assert!(report.is_ok(), "verify {}:\n{report}", path.display());
        Built::Dir(Box::new(open_index_dir(path, 64).unwrap()))
    }

    /// [`Analysis::of`] the in-memory tree, or the directory's base.
    pub fn analysis(&self) -> Analysis {
        match self {
            Built::Memory { tree, .. } => Analysis::of(tree),
            Built::Dir(dir) => Analysis::of(&dir.tree),
        }
    }

    pub fn dir(&self) -> &DiskIndexDir {
        match self {
            Built::Dir(dir) => dir,
            Built::Memory { .. } => panic!("an in-memory index has no directory"),
        }
    }
}

/// What the analysis layer reports of one index.
#[derive(Debug, PartialEq)]
pub struct Analysis {
    /// Every motif of each length 1..=4, ranked.
    pub motifs: Result<Vec<Vec<Motif>>, CoreError>,
    /// The longest subsequence repeated at least 2, then 3, times.
    pub longest: Result<Vec<Option<Motif>>, CoreError>,
    pub stats: TreeStats,
}

impl Analysis {
    pub fn of(index: &impl IndexBackend) -> Analysis {
        Analysis {
            motifs: (1..=4)
                .map(|len| top_motifs(index, len, usize::MAX))
                .collect(),
            longest: [2, 3]
                .into_iter()
                .map(|min| longest_repeated(index, min))
                .collect(),
            stats: TreeStats::compute(index),
        }
    }
}

/// [`Analysis`]'s motifs and longest repeats by counting every
/// subsequence of `cat`.
pub fn brute_mining(cat: &CatStore) -> (Vec<Vec<Motif>>, Vec<Option<Motif>>) {
    let mut all: HashMap<&[Symbol], Vec<(SeqId, u32)>> = HashMap::new();
    for id in 0..cat.len() as u32 {
        let seq = cat.seq(SeqId(id));
        for start in 0..seq.len() {
            for end in start + 1..=seq.len() {
                let at = (SeqId(id), start as u32);
                all.entry(&seq[start..end]).or_default().push(at);
            }
        }
    }
    // Occurrences are pushed in ascending order.
    let motif = |(symbols, occurrences): (&&[Symbol], &Vec<(SeqId, u32)>)| Motif {
        symbols: symbols.to_vec(),
        count: occurrences.len() as u64,
        occurrences: occurrences.clone(),
    };
    let motifs = (1..=4).map(|len| {
        let mut ranked: Vec<Motif> = all
            .iter()
            .filter(|(s, _)| s.len() == len)
            .map(motif)
            .collect();
        ranked.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.symbols.cmp(&b.symbols))
        });
        ranked
    });
    let longest = [2, 3].into_iter().map(|min| {
        let repeated = all.iter().filter(|(_, at)| at.len() >= min).map(motif);
        repeated.min_by(|a, b| {
            let longer = b.symbols.len().cmp(&a.symbols.len());
            longer.then_with(|| a.symbols.cmp(&b.symbols))
        })
    });
    (motifs.collect(), longest.collect())
}

/// One configuration's answer to one query.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub matches: Vec<Match>,
    /// The filter's candidate groups, in emission order: the traversal
    /// order that the sorted answers hide.
    pub groups: Vec<((SeqId, u32), Vec<u32>)>,
    pub stats: SearchStats,
    /// `explain`'s stored suffixes, index kind and backend name.
    pub explained: Option<(u64, &'static str, &'static str)>,
    pub spans: Vec<String>,
}

/// Values computed once each, by the first caller to ask for them; a
/// caller asking for a value under way waits for it, and other keys stay
/// free.
struct OnceMap<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K: Hash + Eq, V: Clone> OnceMap<K, V> {
    fn get(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = self.0.lock().unwrap().entry(key).or_default().clone();
        cell.get_or_init(init).clone()
    }
}

/// A reference configuration's outcome for one query, and the oracle's
/// sorted answers.
type Expected = Arc<(Outcome, Vec<Match>)>;

/// Checks configurations over one corpus, building each index and
/// computing each expected answer once.
pub struct Lab {
    pub corpus: Corpus,
    builds: OnceMap<BuildKey, Arc<Built>>,
    /// Per reference configuration and query.
    expected: OnceMap<(Config, usize), Expected>,
}

impl Lab {
    pub fn new(corpus: Corpus) -> Lab {
        Lab {
            corpus,
            builds: OnceMap(Mutex::default()),
            expected: OnceMap(Mutex::default()),
        }
    }

    pub fn built(&self, cfg: &Config) -> Arc<Built> {
        let build = || Arc::new(self.corpus.build(cfg));
        self.builds.get(cfg.build_key(), build)
    }

    /// Runs `cfg` over every query of the corpus and compares each run
    /// with the reference and the oracle.
    pub fn check(&self, cfg: Config) -> Vec<Outcome> {
        self.check_on(&self.built(&cfg), cfg)
    }

    /// [`check`](Lab::check) on an index built elsewhere.
    pub fn check_on(&self, built: &Built, cfg: Config) -> Vec<Outcome> {
        let c = &self.corpus;
        let mut outcomes = Vec::new();
        for (i, (q, epsilon)) in c.queries.iter().enumerate() {
            let got = c.run(built, &cfg, q, *epsilon);
            let expected = self.expected(&cfg, i);
            let ctx = format!("{}: {cfg:?} q={q:?} eps={epsilon}", c.name);
            compare(&cfg, &got, &expected.0, &expected.1, &ctx);
            if cfg.range {
                let (min, max) = c.range;
                let outside = got
                    .matches
                    .iter()
                    .find(|m| m.occ.len < min || m.occ.len > max);
                assert!(outside.is_none(), "{ctx}: outside the range: {outside:?}");
            }
            outcomes.push(got);
        }
        outcomes
    }

    /// What query `i` must return under `cfg`: the reference's outcome
    /// and, but for k-NN, `seq_scan(Full)`'s sorted answers.
    fn expected(&self, cfg: &Config, i: usize) -> Expected {
        let (reference, c) = (cfg.reference(), &self.corpus);
        self.expected.get((reference, i), || {
            let (q, epsilon) = &c.queries[i];
            let want = c.run(&self.built(&reference), &reference, q, *epsilon);
            if reference.knn() {
                return Arc::new((want, Vec::new()));
            }
            let params = reference.params(c, *epsilon);
            let mut stats = SearchStats::default();
            let mut truth = seq_scan(&c.store, q, &params, SeqScanMode::Full, &mut stats);
            truth.sort();
            Arc::new((want, truth.matches().to_vec()))
        })
    }

    /// Runs the covering set over this corpus, printing how many
    /// configurations it covered.
    pub fn matrix(&self) {
        let split = !self.corpus.batches.is_empty();
        let runs = covering_set()
            .iter()
            .filter(|cfg| split || cfg.layout == Layout::Mono);
        let runs: Vec<Config> = runs.copied().collect();
        let covered = runs.len();
        on_two_threads(runs, |cfg| drop(self.check(cfg)));
        // Written past the harness's output capture, so every run shows it.
        let line = format!("{}: {covered} configurations", self.corpus.name);
        let _ = writeln!(std::io::stderr(), "equivalence matrix: {line}");
    }

    /// Holds the analysis layer to one answer over this corpus: the
    /// in-memory tree's motifs and longest repeats are brute force's, and
    /// the disk tree, the in-memory ESA and the disk ESA (monolithic and,
    /// when the corpus splits, compacted) report the same motifs, repeats
    /// and structure stats. Sparse indexes agree on their stats too, and
    /// mining refuses them, and truncated ones, with a typed error.
    pub fn analysis(&self) {
        let c = &self.corpus;
        let layouts: &[Layout] = match c.batches.is_empty() {
            true => &[Layout::Mono],
            false => &[Layout::Mono, Layout::Compacted],
        };
        for cat in [Cat::Exact, Cat::MaxEntropy] {
            let base = Config { cat, ..BASE };
            let built = self.built(&base);
            let Built::Memory { tree, .. } = &*built else {
                unreachable!("the base configuration is in memory")
            };
            let want = Analysis::of(tree);
            let (motifs, longest) = brute_mining(tree.cat());
            assert_eq!(want.motifs, Ok(motifs), "{}: {cat:?}: brute", c.name);
            assert_eq!(want.longest, Ok(longest), "{}: {cat:?}: brute", c.name);
            let esa = EsaIndex::build(tree.cat().clone(), false);
            assert_eq!(Analysis::of(&esa), want, "{}: {cat:?}: memory esa", c.name);
            for backend in [Backend::DiskTree, Backend::DiskEsa] {
                for &layout in layouts {
                    let cfg = Config {
                        backend,
                        layout,
                        ..base
                    };
                    assert_eq!(self.built(&cfg).analysis(), want, "{}: {cfg:?}", c.name);
                }
            }
            let sparse_base = Config {
                sparse: true,
                ..base
            };
            let sparse_stats = self.built(&sparse_base).analysis().stats;
            for (backend, sparse, truncate) in [
                (Backend::Memory, true, false),
                (Backend::DiskTree, true, false),
                (Backend::DiskEsa, true, false),
                (Backend::Memory, false, true),
                (Backend::DiskTree, false, true),
            ] {
                let cfg = Config {
                    backend,
                    sparse,
                    truncate,
                    ..base
                };
                let got = self.built(&cfg).analysis();
                let refused = CoreError::PartialIndex {
                    sparse,
                    depth_limit: truncate.then_some(c.truncate.max_answer_len),
                };
                assert_eq!(got.motifs, Err(refused.clone()), "{}: {cfg:?}", c.name);
                assert_eq!(got.longest, Err(refused), "{}: {cfg:?}", c.name);
                let stats_agree = truncate || got.stats == sparse_stats;
                assert!(stats_agree, "{}: {cfg:?}: stats", c.name);
            }
        }
    }

    /// [`check`](Lab::check) for a directory whose index is damaged,
    /// which answers by sequential scan: the matches are the
    /// reference's, in its order, and bit for bit the oracle's once
    /// sorted; the stats are `seq_scan(Cascade)`'s for the same request
    /// (`EarlyAbandon`'s with the cascade off), a k-NN request's those
    /// of its expansion rounds; an invalid request gets the typed error
    /// the clean directory gives. Returns the files the directory
    /// reports damaged.
    pub fn check_scanned(&self, built: &Built, cfg: Config) -> Vec<String> {
        let (c, dir) = (&self.corpus, built.dir());
        let clean = self.built(&cfg);
        let other = match cfg.backend.kind() {
            BackendKind::Tree => BackendKind::Esa,
            BackendKind::Esa => BackendKind::Tree,
        };
        for (i, (q, epsilon)) in c.queries.iter().enumerate() {
            let ctx = format!("{}: scanned {cfg:?} q={q:?} eps={epsilon}", c.name);
            let req = cfg.request(c, q, *epsilon);
            let (out, stats) = dir.query(&req).unwrap();
            let expected = self.expected(&cfg, i);
            assert_eq!(out.matches(), &expected.0.matches[..], "{ctx}: matches");
            let want = if cfg.knn() {
                let metrics = SearchMetrics::new();
                let scanned = scan_query_with(&c.store, &req, &metrics).unwrap();
                req.final_stats(&scanned, &metrics)
            } else {
                let mut sorted = out.matches().to_vec();
                sorted.sort_by_key(|m| m.occ);
                assert_eq!(sorted, expected.1, "{ctx}: against seq_scan");
                let mode = [SeqScanMode::EarlyAbandon, SeqScanMode::Cascade][cfg.cascade as usize];
                let mut want = SearchStats::default();
                seq_scan(&c.store, q, &cfg.params(c, *epsilon), mode, &mut want);
                want
            };
            assert_eq!(stats, want, "{ctx}: stats");
            let empty = QueryRequest {
                query: Vec::new(),
                ..req.clone()
            };
            for invalid in [empty, req.on_backend(other)] {
                let got = dir.query(&invalid).map(|_| ());
                assert!(got.is_err(), "{ctx}: {invalid:?} answered");
                let want = clean.dir().query(&invalid).map(|_| ());
                assert_eq!(got, want, "{ctx}: {invalid:?}");
            }
        }
        dir.damaged()
    }

    /// Runs a test's pinned configurations, each one the product accepts.
    pub fn pinned(&self, sweep: Sweep) {
        for cfg in &sweep.0 {
            assert!(cfg.valid(), "{}: {cfg:?} is refused", self.corpus.name);
        }
        on_two_threads(sweep.0, |cfg| drop(self.check(cfg)));
    }
}

/// Runs `f` on every item, on two threads. The items are independent,
/// and a debug build spends most of one on a single core.
pub fn on_two_threads<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    let items = Mutex::new(items.into_iter());
    let work = || loop {
        let Some(item) = items.lock().unwrap().next() else {
            break;
        };
        f(item);
    };
    std::thread::scope(|s| {
        s.spawn(work);
        work();
    });
}

// ---------------------------------------------------------------------
// The one comparison.
// ---------------------------------------------------------------------

/// Counters the cascade moves when it is off: nothing is killed, and the
/// exact tier computes at least the cells the cascade saves.
const CASCADE_OFF: [&str; 4] = [
    "postprocess_cells",
    "cascade_lb_keogh_kills",
    "cascade_lb_improved_kills",
    "cascade_abandon_kills",
];

/// Counters of the walk itself, which segments move: several small trees
/// are walked instead of one. The candidates they yield do not move,
/// only the order they are emitted in.
const SEGMENTED: [&str; 6] = [
    "nodes_visited",
    "nodes_expanded",
    "branches_pruned",
    "filter_cells",
    "rows_pushed",
    "rows_unshared",
];

/// `got` with every counter a mechanism of `cfg` may move checked and
/// set to the reference's. Threads, trace, disk against memory, and tree
/// against ESA move none.
fn exempt(cfg: &Config, got: &SearchStats, want: &SearchStats, ctx: &str) -> SearchStats {
    let reset = |got: &mut SearchStats, names: &[&str]| {
        for ((name, g), (_, w)) in got.fields_mut().into_iter().zip(want.fields()) {
            if names.contains(&name) {
                *g = w;
            }
        }
    };
    let mut got = *got;
    if !cfg.cascade {
        let kills =
            got.cascade_lb_keogh_kills + got.cascade_lb_improved_kills + got.cascade_abandon_kills;
        assert_eq!(kills, 0, "{ctx}: kills with the cascade off");
        let cells = (got.postprocess_cells, want.postprocess_cells);
        assert!(
            cells.0 >= cells.1,
            "{ctx}: the cascade added cells: {cells:?}"
        );
        reset(&mut got, &CASCADE_OFF);
    }
    if cfg.segmented() {
        reset(&mut got, &SEGMENTED);
    }
    got
}

/// Matches in the reference's order, and bit for bit the oracle's once
/// sorted; candidate groups in the reference's order; stats equal up to
/// [`exempt`]; the funnel, `explain` and the trace consistent with what
/// ran.
fn compare(cfg: &Config, got: &Outcome, want: &Outcome, truth: &[Match], ctx: &str) {
    assert_eq!(got.matches, want.matches, "{ctx}: matches");
    let mut groups = [got.groups.clone(), want.groups.clone()];
    if cfg.segmented() {
        groups.iter_mut().for_each(|g| g.sort());
    }
    assert_eq!(groups[0], groups[1], "{ctx}: candidate groups");
    let stats = exempt(cfg, &got.stats, &want.stats, ctx);
    assert_eq!(stats, want.stats, "{ctx}: stats");
    let s = &got.stats;
    if cfg.knn() {
        // k-NN's `answers` counts the matches it returned.
        assert_eq!(s.answers, got.matches.len() as u64, "{ctx}: k-NN answers");
    } else {
        let mut sorted = got.matches.clone();
        sorted.sort_by_key(|m| m.occ);
        assert_eq!(sorted, truth, "{ctx}: against seq_scan");
        assert_eq!(s.postprocessed, s.answers + s.false_alarms, "{ctx}: funnel");
        let kills = s.cascade_lb_keogh_kills + s.cascade_abandon_kills;
        assert!(kills <= s.false_alarms, "{ctx}: a kill that was an answer");
    }
    if cfg.kind == Kind::Threshold {
        // No false dismissal at the filter itself (Theorems 2 and 3):
        // every answer's start has a group, holding its length.
        let groups: HashMap<_, _> = got.groups.iter().map(|(at, l)| (*at, l)).collect();
        for m in truth {
            let lens = groups.get(&(m.occ.seq, m.occ.start));
            let kept = lens.is_some_and(|lens| lens.binary_search(&m.occ.len).is_ok());
            assert!(kept, "{ctx}: the filter dismissed {}", m.occ);
        }
    }
    if let Some((suffixes, kind, backend)) = got.explained {
        let (suffixes_want, kind_want, _) = want.explained.expect("the reference explains");
        assert_eq!((suffixes, kind), (suffixes_want, kind_want), "{ctx}");
        assert_eq!(backend, cfg.backend.kind().as_str(), "{ctx}: explain");
    }
    if cfg.trace {
        let has = |name: &str| got.spans.iter().any(|s| s == name);
        let spans = &got.spans;
        assert!(has("filter") && has("postprocess"), "{ctx}: {spans:?}");
        // One thread walks the root; more fork where the root branches.
        assert_eq!(has("filter.segment"), cfg.threads == 1, "{ctx}");
        assert!(cfg.threads > 1 || !has("filter.task"), "{ctx}");
        assert_eq!(has("knn.round"), cfg.knn(), "{ctx}");
    }
}
