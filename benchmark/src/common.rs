//! Pieces every workload shares: building and opening index
//! directories the way the CLI does, the traced query funnel, answer
//! digests, the `seq_scan` oracle, and the whole-pass measurement loop.

use std::path::Path;
use std::time::Instant;

use warptree::core::search::{
    filter_tree, postprocess, seq_scan, AnswerSet, IndexBackend, Match, QueryRequest,
    SearchMetrics, SearchParams, SearchStats, SegmentedIndex, SeqScanMode,
};
use warptree::core::sequence::SequenceStore;
use warptree::disk::AnyIndex;
use warptree::obs::MetricsRegistry;
use warptree::prelude::{BackendKind, Categorization, DiskIndexDir};

use crate::inputs::{Fnv, BUILD_BATCH, CATEGORIES, ORACLE_SAMPLE};
use crate::stats::{column_fastest, percentile};
use crate::trace::{Tracer, ROOT};

/// Page-cache size of `warptree serve`'s default configuration; its
/// node cache is eight times that, which `open_index_dir` applies too.
pub const SERVE_CACHE_PAGES: usize = 256;
/// Repetitions of the set-up, the fastest of which is `setup_s`.
pub const SETUP_REPS: usize = 5;
/// The untraced reference pass of a traced run covers every
/// `REFERENCE_STRIDE`-th operation of the list.
pub const REFERENCE_STRIDE: usize = 4;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One `build` of an index directory.
pub struct BuildSample {
    /// Wall time of the build call.
    pub secs: f64,
    /// Bytes written through the metered VFS.
    pub write_bytes: u64,
}

/// `warptree build --method me --categories 40 --sparse` with the
/// default (`tree`) backend, through the same library call.
pub fn build_index(store: &SequenceStore, backend: BackendKind, dir: &Path) -> BuildSample {
    let reg = MetricsRegistry::new();
    let t = Instant::now();
    warptree::build_index_dir_backend_metered(
        store,
        Categorization::MaxEntropy(CATEGORIES),
        true,
        BUILD_BATCH,
        backend,
        dir,
        &reg,
    )
    .expect("building an index directory from generated inputs");
    BuildSample {
        secs: t.elapsed().as_secs_f64(),
        write_bytes: reg.counter("disk.vfs.write_bytes").get(),
    }
}

/// Opens an index directory, returning it with the open time in seconds.
pub fn open_index(dir: &Path, cache_pages: usize) -> (DiskIndexDir, f64) {
    let t = Instant::now();
    let idx = warptree::open_index_dir(dir, cache_pages).expect("opening a built index directory");
    (idx, t.elapsed().as_secs_f64())
}

/// Every live tree of an opened directory: the base, then the tails.
pub fn trees(idx: &DiskIndexDir) -> Vec<&AnyIndex> {
    std::iter::once(&idx.tree)
        .chain(idx.segments.iter())
        .collect()
}

/// `AnyIndex::resident_bytes()` over every live tree.
pub fn resident_bytes(idx: &DiskIndexDir) -> u64 {
    trees(idx).iter().map(|t| t.resident_bytes()).sum()
}

/// Page and node cache counters summed over every live tree.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    /// Page requests that went to the file.
    pub pages_read: u64,
    /// Page requests the buffer pool served.
    pub page_hits: u64,
    /// Decoded-node cache hits.
    pub node_hits: u64,
    /// Decoded-node cache misses.
    pub node_misses: u64,
}

impl CacheCounts {
    /// Reads the counters of an opened directory.
    pub fn of(idx: &DiskIndexDir) -> Self {
        let mut c = CacheCounts::default();
        for t in trees(idx) {
            let io = t.io_stats();
            let (h, m) = t.node_cache_stats();
            c.pages_read += io.pages_read;
            c.page_hits += io.cache_hits;
            c.node_hits += h;
            c.node_misses += m;
        }
        c
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CacheCounts) {
        self.pages_read += other.pages_read;
        self.page_hits += other.page_hits;
        self.node_hits += other.node_hits;
        self.node_misses += other.node_misses;
    }

    /// What the counters moved by since `earlier` was read.
    pub fn since(&self, earlier: &CacheCounts) -> CacheCounts {
        CacheCounts {
            pages_read: self.pages_read - earlier.pages_read,
            page_hits: self.page_hits - earlier.page_hits,
            node_hits: self.node_hits - earlier.node_hits,
            node_misses: self.node_misses - earlier.node_misses,
        }
    }
}

/// `num / den`, 0 when the denominator is.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn funnel<T: IndexBackend + Sync>(
    tree: &T,
    idx: &DiskIndexDir,
    query: &[f64],
    params: &SearchParams,
    tr: &mut Tracer,
    op: u32,
) -> (AnswerSet, SearchStats) {
    let metrics = SearchMetrics::new();
    tr.enter("core.filter", op);
    let candidates = filter_tree(tree, &idx.alphabet, query, params, &metrics);
    tr.exit();
    tr.enter("core.postprocess", op);
    let answers = postprocess(&idx.store, query, &candidates, params, &metrics);
    tr.exit();
    (answers, metrics.snapshot())
}

/// One threshold query against an opened directory. Untraced, this is
/// `DiskIndexDir::query` (`run_query`); traced, the same two stages are
/// called one by one — `filter_tree`, then `postprocess` — each inside
/// its span. The caller owns the root span.
pub fn query_index(
    idx: &DiskIndexDir,
    query: &[f64],
    params: &SearchParams,
    tr: &mut Tracer,
    op: u32,
) -> (AnswerSet, SearchStats) {
    if !tr.on() {
        let (out, stats) = idx
            .query(&QueryRequest::threshold_params(query, params.clone()))
            .expect("generated queries are valid");
        return (out.into_answer_set(), stats);
    }
    if idx.segments.is_empty() {
        funnel(&idx.tree, idx, query, params, tr, op)
    } else {
        funnel(&SegmentedIndex::new(trees(idx)), idx, query, params, tr, op)
    }
}

/// Order-independent digest of an answer set: count, occurrences and
/// distance bits. Equal digests across passes, backends and the wire
/// mean byte-identical answers.
pub fn digest(matches: &[Match]) -> u64 {
    let mut sum = matches.len() as u64;
    for m in matches {
        let mut h = Fnv::default();
        h.word(u64::from(m.occ.seq.0) << 32 | u64::from(m.occ.start));
        h.word(u64::from(m.occ.len));
        h.word(m.dist.to_bits());
        sum = sum.wrapping_add(h.0);
    }
    sum
}

/// Whether `answers` are exactly what the sequential scan finds: the
/// same occurrences, each with the same distance up to rounding.
pub fn agrees_with_seq_scan(
    store: &SequenceStore,
    query: &[f64],
    params: &SearchParams,
    answers: &AnswerSet,
) -> bool {
    let mut stats = SearchStats::default();
    let mut truth = seq_scan(store, query, params, SeqScanMode::EarlyAbandon, &mut stats);
    let mut got = answers.clone();
    truth.sort();
    got.sort();
    truth.len() == got.len()
        && truth
            .matches()
            .iter()
            .zip(got.matches())
            .all(|(t, g)| t.occ == g.occ && (t.dist - g.dist).abs() <= 1e-9 * t.dist.abs().max(1.0))
}

/// `# answers_checksum:` — one hash over every operation's answer
/// digest, in list order.
pub fn answers_checksum(expected: &[Option<u64>]) -> String {
    let mut sum = Fnv::default();
    for d in expected {
        sum.word(d.unwrap_or(0));
    }
    format!("{:016x}", sum.0)
}

/// The `ORACLE_SAMPLE` evenly spaced positions of a list of `n`.
pub fn sample_positions(n: usize) -> Vec<usize> {
    let k = ORACLE_SAMPLE.min(n);
    (0..k).map(|i| i * n / k).collect()
}

/// Result of one operation inside the pass loop.
pub struct OpResult {
    /// Client-observed latency.
    pub ms: f64,
    /// Digest of the answers, `None` when the operation failed.
    pub digest: Option<u64>,
}

/// Fewest whole timed passes (or cycles) a run completes.
pub const MIN_PASSES: usize = 3;

/// The run's measuring clock. Everything a run measures draws on
/// `--seconds`: the set-up repetitions, the warm-up and the timed
/// passes. A run never stops mid-pass and never before [`MIN_PASSES`],
/// so the budget decides only whether one more pass starts.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether work expected to take `next_s` would end inside the budget.
    pub fn fits(&self, next_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + next_s <= self.seconds
    }
}

/// What the pass loop measured.
pub struct Passes {
    /// `lat[pass][i]`: latency of distinct operation `i` in that pass.
    pub lat: Vec<Vec<f64>>,
    /// Timed operations that failed or changed their answer.
    pub failed: u64,
}

impl Passes {
    /// Timed operations attempted.
    pub fn attempted(&self) -> u64 {
        self.lat.iter().map(|p| p.len() as u64).sum()
    }

    /// Each distinct operation's latency: the fastest of its passes
    /// (see [`fastest`] for why not their median).
    pub fn per_op(&self) -> Vec<f64> {
        column_fastest(&self.lat.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    /// Operations of a whole pass ÷ the sum of their latencies. The loop
    /// is closed and has one client, so that sum is the pass's wall time
    /// but for the loop's own microseconds.
    pub fn ops_per_s(&self) -> f64 {
        let per_op = self.per_op();
        ratio(per_op.len() as f64 * 1e3, per_op.iter().sum())
    }
}

/// Runs the distinct operations `0..expected.len()` in whole timed
/// passes: [`MIN_PASSES`] of them, then as many more as fit `budget`.
/// `expected[i]`, where known, is the digest the oracle verified; an
/// operation also fails when its answer differs from an earlier pass.
/// `between` runs after every pass, untimed (the set-up repetitions
/// live there).
pub fn timed_passes(
    budget: &Budget,
    expected: &mut [Option<u64>],
    tr: &mut Tracer,
    op: &mut impl FnMut(usize, &mut Tracer, u32) -> OpResult,
    between: &mut impl FnMut() -> bool,
) -> Passes {
    let mut out = Passes {
        lat: Vec::new(),
        failed: 0,
    };
    let mut last_s = 0.0;
    while out.lat.len() < MIN_PASSES || budget.fits(last_s) {
        let (pass, d) = (out.lat.len(), expected.len());
        let t = Instant::now();
        let mut lat = Vec::with_capacity(d);
        for (i, want) in expected.iter_mut().enumerate() {
            let r = op(i, tr, (pass * d + i) as u32);
            lat.push(r.ms);
            match r.digest {
                Some(got) if *want.get_or_insert(got) == got => {}
                _ => out.failed += 1,
            }
        }
        last_s = t.elapsed().as_secs_f64();
        out.lat.push(lat);
        between();
    }
    out
}

/// Runs `f` as one traced operation: a root span around it, and its
/// wall time in ms.
pub fn timed_op<R>(tr: &mut Tracer, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
    tr.enter(ROOT, op);
    let t = Instant::now();
    let r = f(tr);
    let ms = ms_since(t);
    tr.exit();
    (r, ms)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums of the per-query funnel counters over the timed passes, and
/// what the layer metrics derive from them.
#[derive(Default)]
pub struct FunnelTotals {
    /// Field-wise sum of every timed query's `SearchStats`.
    pub stats: SearchStats,
    /// Timed queries summed.
    pub queries: u64,
}

impl FunnelTotals {
    /// Adds one query's counters.
    pub fn add(&mut self, s: &SearchStats) {
        self.stats.merge(s);
        self.queries += 1;
    }

    /// Sets the `core.filter.*`, `core.postprocess.*` and
    /// `core.cascade.kill_ratio` metrics from the counters and the
    /// tracer's self times.
    pub fn report(&self, tr: &Tracer, out: &mut crate::report::Outcome) {
        let selfs = tr.self_ms();
        let total_ms: f64 = selfs.values().map(|v| v.iter().sum::<f64>()).sum();
        let s = &self.stats;
        let q = self.queries as f64;
        let layer = |name: &str| selfs.get(name).cloned().unwrap_or_default();
        let filter = layer("core.filter");
        let post = layer("core.postprocess");
        let filter_ms: f64 = filter.iter().sum();
        let post_ms: f64 = post.iter().sum();
        out.set("core.filter.ms_p50", percentile(&filter, 0.5));
        out.set("core.filter.share", ratio(filter_ms, total_ms));
        out.set(
            "core.filter.ns_per_cell",
            ratio(filter_ms * 1e6, s.filter_cells as f64),
        );
        out.set(
            "core.filter.cells_per_query",
            ratio(s.filter_cells as f64, q),
        );
        out.set(
            "core.filter.nodes_per_query",
            ratio(s.nodes_visited as f64, q),
        );
        out.set(
            "core.filter.pruned_ratio",
            ratio(s.branches_pruned as f64, s.nodes_visited as f64),
        );
        out.set(
            "core.filter.candidates_per_answer",
            ratio(s.candidates as f64, s.answers as f64),
        );
        out.set("core.postprocess.ms_p50", percentile(&post, 0.5));
        out.set("core.postprocess.share", ratio(post_ms, total_ms));
        out.set(
            "core.postprocess.ns_per_cell",
            ratio(post_ms * 1e6, s.postprocess_cells as f64),
        );
        out.set(
            "core.postprocess.cells_per_query",
            ratio(s.postprocess_cells as f64, q),
        );
        let kills =
            s.cascade_lb_keogh_kills + s.cascade_lb_improved_kills + s.cascade_abandon_kills;
        out.set(
            "core.cascade.kill_ratio",
            ratio(kills as f64, s.postprocessed as f64),
        );
    }
}
