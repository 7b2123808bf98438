//! Similarity search algorithms (paper §4–§6).
//!
//! * [`seqscan`] — the sequential-scanning baseline (§4.3).
//! * [`aligned`] — the segment-aligned comparator of the paper's
//!   reference [14] (misses unaligned answers — kept for measurement).
//! * [`backend`] — the [`IndexBackend`] abstraction every index
//!   implementation (tree or enhanced suffix array) plugs into, plus
//!   [`BackendKind`].
//! * [`filter`] — the unified suffix-tree filter implementing
//!   `Filter-ST`, `Filter-ST_C` and `Filter-SST_C` over any
//!   [`IndexBackend`].
//! * [`postprocess`](mod@postprocess) — exact `D_tw` verification of
//!   candidates (§5.4).
//! * [`cascade`] — the numeric lower-bound cascade (an
//!   endpoint-strengthened LB_Keogh envelope bound, and the column
//!   remainders of the threshold-pruned table) screening candidates
//!   ahead of every exact table.
//! * [`knn`] — exact k-nearest-neighbour search by ε expansion (an
//!   extension beyond the paper's threshold queries).
//! * [`query`] — the unified typed query API: [`QueryRequest`] +
//!   [`QueryKind`], executed by [`run_query`] / [`run_query_with`], or
//!   by sequential scan with [`scan_query_with`].
//! * [`segmented`] — [`SegmentedIndex`], the multi-segment fan-out view
//!   presenting N partial suffix trees as one [`IndexBackend`].
//! * [`answers`] — answer/candidate types, statistics, parameters.
//!
//! The top-level entry point is [`run_query`] with a [`QueryRequest`]:
//! the paper's `SimSearch-ST(_C)` / `SimSearch-SST_C` depending on the
//! index it is given, or ε-expansion k-NN.

pub mod aligned;
pub mod answers;
pub mod backend;
pub mod cascade;
pub mod filter;
pub mod knn;
pub mod metrics;
pub mod postprocess;
pub mod query;
pub mod segmented;
pub mod seqscan;

pub use aligned::aligned_scan;
pub use answers::{AnswerSet, CandidateGroups, Match, SearchParams, SearchStats};
pub use backend::{BackendKind, IndexBackend, MapChildren, NodeVisit};
pub use cascade::QueryEnvelope;
pub use filter::{filter_tree, filter_tree_with};
pub use knn::KnnParams;
pub use metrics::SearchMetrics;
pub use postprocess::postprocess;
pub use query::{
    run_query, run_query_with, scan_query_with, OutputKind, QueryKind, QueryOutput, QueryRequest,
};
pub use segmented::SegmentedIndex;
pub use seqscan::{seq_scan, SeqScanMode};

#[cfg(test)]
mod checked_tests;

use crate::categorize::Alphabet;
use crate::sequence::{SequenceStore, Value};

/// The threshold-search engine: lower-bound filtering followed by exact
/// post-processing, metered into `metrics`. Callers must have validated
/// `query`/`params` (this is the body behind [`run_query_with`] for
/// [`QueryKind::Threshold`] requests).
pub(crate) fn threshold_search_unchecked<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    query: &[Value],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> AnswerSet {
    if !metrics.trace.is_active() {
        let candidates = {
            let _timer = metrics.filter_ns.span();
            filter_tree(tree, alphabet, query, params, metrics)
        };
        let _timer = metrics.postprocess_ns.span();
        return postprocess(store, query, &candidates, params, metrics);
    }
    // Traced variant: identical work, plus a span per funnel stage
    // carrying the stage's nonzero counter deltas (per-tier kill
    // counts). The deltas subtract a before-snapshot, so they stay
    // per-stage even when `metrics` accumulates across rounds or
    // queries.
    let candidates = {
        let span = metrics.trace_span("filter");
        let scoped = metrics.under(&span);
        let before = metrics.snapshot();
        let candidates = {
            let _timer = metrics.filter_ns.span();
            filter_tree(tree, alphabet, query, params, &scoped)
        };
        metrics::attach(&span, &metrics.snapshot().since(&before));
        candidates
    };
    let span = metrics.trace_span("postprocess");
    let scoped = metrics.under(&span);
    let before = metrics.snapshot();
    let answers = {
        let _timer = metrics.postprocess_ns.span();
        postprocess(store, query, &candidates, params, &scoped)
    };
    metrics::attach(&span, &metrics.snapshot().since(&before));
    answers
}
