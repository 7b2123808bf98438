//! The `lib-*` workloads: in-process `run_query` on one thread against
//! an index directory built and opened the way `warptree build` and
//! `warptree serve` would.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use warptree::prelude::{BackendKind, DiskIndexDir};

use crate::common::{
    agrees_with_seq_scan, answers_checksum, build_index, digest, ms_since, open_index, peak_rss_mb,
    query_index, ratio, resident_bytes, sample_positions, timed_op, timed_passes, Budget,
    CacheCounts, FunnelTotals, OpResult, Passes, REFERENCE_STRIDE, SERVE_CACHE_PAGES, SETUP_REPS,
};
use crate::inputs::Inputs;
use crate::layers;
use crate::report::Outcome;
use crate::stats::{fastest, median, percentile};
use crate::tmp::{dir_bytes, TempRoot};
use crate::trace::Tracer;

/// The index directory a read-only run measures.
pub struct Built {
    /// The opened directory.
    pub idx: DiskIndexDir,
    /// Where it lives.
    pub dir: PathBuf,
    /// Bytes its build wrote.
    pub write_bytes: u64,
}

/// One sample per repetition of the set-up. The repetitions are spread
/// over the run — one before the first pass, one after each pass — so
/// that a slow stretch of the machine cannot sit on all of them.
pub struct SetupTimes {
    /// Build times, seconds.
    pub build_s: Vec<f64>,
    /// What follows the build in a repetition — the open, or on
    /// `serve-broad` the server start — seconds.
    pub rest_s: Vec<f64>,
}

impl SetupTimes {
    /// Builds into a fresh directory once more, times `then` on it, and
    /// removes it. Does nothing and returns `false` once `SETUP_REPS`
    /// repetitions exist.
    pub fn again(
        &mut self,
        inputs: &Inputs,
        tmp: &mut TempRoot,
        then: impl FnOnce(&Path) -> f64,
    ) -> bool {
        if self.build_s.len() >= SETUP_REPS {
            return false;
        }
        let dir = tmp.fresh();
        self.build_s
            .push(build_index(&inputs.store, BackendKind::Tree, &dir).secs);
        self.rest_s.push(then(&dir));
        let _ = std::fs::remove_dir_all(dir);
        true
    }

    /// Build + rest of each repetition.
    pub fn samples(&self) -> Vec<f64> {
        self.build_s
            .iter()
            .zip(&self.rest_s)
            .map(|(b, r)| b + r)
            .collect()
    }
}

/// Seconds `open_index` takes on `dir`.
pub fn time_open(dir: &Path) -> f64 {
    open_index(dir, SERVE_CACHE_PAGES).1
}

/// The first repetition of the set-up: builds and opens the index the
/// run measures.
pub fn first_setup(inputs: &Inputs, tmp: &mut TempRoot) -> (Built, SetupTimes) {
    let dir = tmp.fresh();
    let built = build_index(&inputs.store, BackendKind::Tree, &dir);
    let (idx, open_s) = open_index(&dir, SERVE_CACHE_PAGES);
    (
        Built {
            idx,
            dir,
            write_bytes: built.write_bytes,
        },
        SetupTimes {
            build_s: vec![built.secs],
            rest_s: vec![open_s],
        },
    )
}

/// Sets the metrics every read-only workload derives from its set-up:
/// `setup_s` (the fastest repetition), the three amplification counts,
/// `ingest_values_per_s` (the fastest build) and the build/open layers.
pub fn report_setup(inputs: &Inputs, b: &Built, t: &SetupTimes, open_s: f64, out: &mut Outcome) {
    let raw = inputs.raw_bytes();
    out.set("setup_s", fastest(&t.samples()));
    out.set("space_amp", dir_bytes(&b.dir) as f64 / raw);
    out.set("resident_amp", resident_bytes(&b.idx) as f64 / raw);
    out.set("write_amp", b.write_bytes as f64 / raw);
    out.set(
        "ingest_values_per_s",
        ratio(inputs.store.total_len() as f64, fastest(&t.build_s)),
    );
    out.set("disk.build_ms", median(&t.build_s) * 1e3);
    out.set("disk.open_ms", open_s * 1e3);
    out.set("data.gen_ms", inputs.gen_ms);
    out.note(
        "setup_samples_s",
        t.samples()
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note("backend", b.idx.backend().as_str());
    out.note(
        "corpus",
        format!(
            "{} sequences, {} values",
            inputs.store.len(),
            inputs.store.total_len()
        ),
    );
}

/// Checks the oracle subsample of `inputs.queries` against `seq_scan`
/// and returns the verified digests by position. These untimed queries
/// are also the run's warm pass: they fill the caches through the very
/// call the timed passes make.
pub fn oracle(inputs: &Inputs, idx: &DiskIndexDir, out: &mut Outcome) -> Vec<Option<u64>> {
    let warm = Instant::now();
    let params = inputs.params();
    let mut expected = vec![None; inputs.queries.len()];
    let mut off = Tracer::new(false);
    for i in sample_positions(inputs.queries.len()) {
        let q = &inputs.queries[i];
        let (answers, _) = query_index(idx, q, &params, &mut off, 0);
        if !agrees_with_seq_scan(&inputs.store, q, &params, &answers) {
            out.oracle_mismatches += 1;
        }
        expected[i] = Some(digest(answers.matches()));
    }
    out.set("bench.warm_ms", ms_since(warm));
    expected
}

/// Sets the latency, throughput and correctness metrics of a pass loop
/// and prints its sample counts.
pub fn report_passes(p: &Passes, expected: &[Option<u64>], out: &mut Outcome) {
    let per_op = p.per_op();
    out.attempted = p.attempted();
    out.failed = p.failed;
    out.set("op_p50_ms", percentile(&per_op, 0.5));
    out.set("op_p95_ms", percentile(&per_op, 0.95));
    out.set("ops_per_s", p.ops_per_s());
    out.set(
        "ok_ratio",
        ratio((p.attempted() - p.failed) as f64, p.attempted() as f64),
    );
    out.set("bench.passes", p.lat.len() as f64);
    out.set("bench.distinct_ops", expected.len() as f64);
    out.note("distinct_ops", expected.len());
    out.note("passes", p.lat.len());
    out.note("samples", p.attempted());
    out.note(
        "percentiles",
        format!(
            "over {} operations, each at the fastest of its {} passes",
            expected.len(),
            p.lat.len()
        ),
    );
    out.note("answers_checksum", answers_checksum(expected));
}

/// Sets the cache metrics from the counters the timed passes moved.
pub fn report_cache(c: &CacheCounts, queries: u64, out: &mut Outcome) {
    out.set(
        "disk.pages_read_per_query",
        ratio(c.pages_read as f64, queries as f64),
    );
    out.set(
        "disk.page_hit_ratio",
        ratio(c.page_hits as f64, (c.page_hits + c.pages_read) as f64),
    );
    out.set(
        "disk.node_cache_hit_ratio",
        ratio(c.node_hits as f64, (c.node_hits + c.node_misses) as f64),
    );
}

/// The queries of the oracle subsample.
pub fn sample_queries(queries: &[Vec<f64>]) -> Vec<Vec<f64>> {
    sample_positions(queries.len())
        .into_iter()
        .map(|i| queries[i].clone())
        .collect()
}

/// `traced ÷ untraced op_p50_ms` over every `REFERENCE_STRIDE`-th
/// operation, one sample against one sample: their latencies in the
/// last traced pass against one more run of each with the tracer off.
pub fn trace_overhead(
    traced: &Passes,
    mut op: impl FnMut(usize, &mut Tracer, u32) -> OpResult,
) -> f64 {
    let mut off = Tracer::new(false);
    let last = traced.lat.last().expect("at least two passes");
    let picked: Vec<usize> = (0..last.len()).step_by(REFERENCE_STRIDE).collect();
    let with: Vec<f64> = picked.iter().map(|&i| last[i]).collect();
    let without: Vec<f64> = picked.iter().map(|&i| op(i, &mut off, 0).ms).collect();
    ratio(percentile(&with, 0.5), percentile(&without, 0.5))
}

/// Runs a `lib-*` workload.
pub fn run(
    inputs: &Inputs,
    budget: &Budget,
    tr: &mut Tracer,
    tmp: &mut TempRoot,
    out: &mut Outcome,
) {
    let (built, mut times) = first_setup(inputs, tmp);
    let idx = &built.idx;
    let mut expected = oracle(inputs, idx, out);

    let params = inputs.params();
    let totals = RefCell::new(FunnelTotals::default());
    let mut op = |i: usize, tr: &mut Tracer, id: u32| {
        let ((answers, stats), ms) = timed_op(tr, id, |tr| {
            query_index(idx, &inputs.queries[i], &params, tr, id)
        });
        totals.borrow_mut().add(&stats);
        OpResult {
            ms,
            digest: Some(digest(answers.matches())),
        }
    };
    let mut set_up_again = || times.again(inputs, tmp, time_open);
    let before = CacheCounts::of(idx);
    let passes = timed_passes(budget, &mut expected, tr, &mut op, &mut set_up_again);
    let cache = CacheCounts::of(idx).since(&before);
    let totals = totals.take();
    while set_up_again() {}
    report_setup(inputs, &built, &times, median(&times.rest_s), out);
    report_passes(&passes, &expected, out);

    if tr.on() {
        out.set("obs.trace_overhead_ratio", trace_overhead(&passes, &mut op));
        out.set("trace.coverage_ratio", tr.coverage(&[]));
        totals.report(tr, out);
        report_cache(&cache, passes.attempted(), out);
        let sample = sample_queries(&inputs.queries);
        layers::query_layers(idx, &sample, &params, out);
        out.oracle_mismatches +=
            layers::build_layers(&inputs.store, idx, &sample, &params, tmp, out);
        out.set("bench.peak_rss_mb", peak_rss_mb());
    }
}
