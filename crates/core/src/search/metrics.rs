//! Live search metrics: the observability counterpart of
//! [`SearchStats`](crate::search::answers::SearchStats).
//!
//! [`SearchMetrics`] is a bundle of [`warptree_obs`] handles threaded
//! through the search algorithms. `SearchStats` remains the plain-data
//! *snapshot* (cheap to copy, `Eq`, deterministic); `SearchMetrics` is
//! what the algorithms write while running. The three constructors give
//! the three measurement modes:
//!
//! * [`SearchMetrics::new`] — detached live counters; used by
//!   [`run_query`](crate::search::run_query) to produce its returned
//!   snapshot.
//! * [`SearchMetrics::noop`] — every update is a single inlined branch
//!   and nothing is recorded: the zero-overhead mode.
//! * [`SearchMetrics::register`] — counters shared with a
//!   [`MetricsRegistry`] under `search.*` names, so multiple queries
//!   accumulate into one process-wide view (the CLI's `--stats`).
//!
//! Phase wall times (`filter_ns`, `postprocess_ns`) are histograms
//! only: they never enter `SearchStats`, which keeps snapshots
//! machine-independent and run-to-run deterministic.

use warptree_obs::{Counter, Histogram, MetricsRegistry, Trace, TraceSpan};

use crate::search::answers::SearchStats;

/// Live counters and timers for one or many similarity searches.
///
/// See the [module docs](self) for the measurement modes. All handles
/// are shared-on-clone, so a clone observes (and contributes to) the
/// same totals.
#[derive(Clone, Debug)]
pub struct SearchMetrics {
    /// Cumulative-distance-table cells computed during filtering.
    pub filter_cells: Counter,
    /// Tree nodes visited (edges considered) by the filter traversal.
    pub nodes_visited: Counter,
    /// Nodes whose subtree was fully descended into (not pruned), so
    /// `nodes_visited == nodes_expanded + branches_pruned`.
    pub nodes_expanded: Counter,
    /// Edge symbols consumed (table rows pushed) during traversal.
    pub rows_pushed: Counter,
    /// Table rows weighted by the suffixes sharing them: the rows a
    /// per-suffix scan would have computed. `rows_unshared /
    /// rows_pushed` is the paper's table-sharing factor `R_d`. Metered
    /// only when the index can report subtree suffix counts.
    pub rows_unshared: Counter,
    /// Subtrees pruned by Theorem 1 (plus depth/band cut-offs).
    pub branches_pruned: Counter,
    /// Candidates emitted by the filter (stored + shifted).
    pub candidates: Counter,
    /// Candidates emitted for *stored* suffixes via `D_tw-lb`
    /// (Definition 3).
    pub stored_candidates: Counter,
    /// Candidates emitted for *non-stored* suffixes via `D_tw-lb2`
    /// (Definition 4) — nonzero only on sparse indexes.
    pub lb2_candidates: Counter,
    /// Candidate (start, length) pairs whose exact distance was
    /// computed in post-processing.
    pub postprocessed: Counter,
    /// Table cells computed during post-processing.
    pub postprocess_cells: Counter,
    /// Candidates rejected by exact verification (false alarms).
    pub false_alarms: Counter,
    /// Verified answers.
    pub answers: Counter,
    /// Candidates killed by the cascade's tier-1 envelope bound
    /// (LB_Keogh) before any table cell was computed.
    pub cascade_lb_keogh_kills: Counter,
    /// Never incremented: the tier-2 refinement (LB_Improved) no
    /// longer runs. Kept for the stats wire format.
    pub cascade_lb_improved_kills: Counter,
    /// Candidates killed by Theorem-1 early abandoning in the
    /// cascade's exact tier.
    pub cascade_abandon_kills: Counter,
    /// Wall time of the filter phase, nanoseconds per query.
    pub filter_ns: Histogram,
    /// Wall time of the post-processing phase, nanoseconds per query.
    pub postprocess_ns: Histogram,
    /// The per-query span tree stage spans record into. All three
    /// constructors leave this as [`Trace::noop`]; a caller that wants
    /// a trace attaches one via [`SearchMetrics::with_trace`], so
    /// tracing is sampled per query while the counters stay shared.
    pub trace: Trace,
    /// Parent span id for spans opened through
    /// [`trace_span`](SearchMetrics::trace_span) — set by
    /// [`under`](SearchMetrics::under) so staged algorithms (kNN
    /// rounds) nest their re-invoked stages correctly.
    trace_parent: Option<u32>,
}

impl SearchMetrics {
    /// Live metrics detached from any registry.
    pub fn new() -> Self {
        SearchMetrics {
            filter_cells: Counter::active(),
            nodes_visited: Counter::active(),
            nodes_expanded: Counter::active(),
            rows_pushed: Counter::active(),
            rows_unshared: Counter::active(),
            branches_pruned: Counter::active(),
            candidates: Counter::active(),
            stored_candidates: Counter::active(),
            lb2_candidates: Counter::active(),
            postprocessed: Counter::active(),
            postprocess_cells: Counter::active(),
            false_alarms: Counter::active(),
            answers: Counter::active(),
            cascade_lb_keogh_kills: Counter::active(),
            cascade_lb_improved_kills: Counter::active(),
            cascade_abandon_kills: Counter::active(),
            filter_ns: Histogram::active(),
            postprocess_ns: Histogram::active(),
            trace: Trace::noop(),
            trace_parent: None,
        }
    }

    /// Metrics that ignore every update (one inlined branch per
    /// update, no atomics, no clock reads).
    pub fn noop() -> Self {
        SearchMetrics {
            filter_cells: Counter::noop(),
            nodes_visited: Counter::noop(),
            nodes_expanded: Counter::noop(),
            rows_pushed: Counter::noop(),
            rows_unshared: Counter::noop(),
            branches_pruned: Counter::noop(),
            candidates: Counter::noop(),
            stored_candidates: Counter::noop(),
            lb2_candidates: Counter::noop(),
            postprocessed: Counter::noop(),
            postprocess_cells: Counter::noop(),
            false_alarms: Counter::noop(),
            answers: Counter::noop(),
            cascade_lb_keogh_kills: Counter::noop(),
            cascade_lb_improved_kills: Counter::noop(),
            cascade_abandon_kills: Counter::noop(),
            filter_ns: Histogram::noop(),
            postprocess_ns: Histogram::noop(),
            trace: Trace::noop(),
            trace_parent: None,
        }
    }

    /// Metrics registered under `search.*` names in `reg`; handles
    /// obtained from repeated calls share totals through the registry.
    pub fn register(reg: &MetricsRegistry) -> Self {
        SearchMetrics {
            filter_cells: reg.counter("search.filter_cells"),
            nodes_visited: reg.counter("search.nodes_visited"),
            nodes_expanded: reg.counter("search.nodes_expanded"),
            rows_pushed: reg.counter("search.rows_pushed"),
            rows_unshared: reg.counter("search.rows_unshared"),
            branches_pruned: reg.counter("search.branches_pruned"),
            candidates: reg.counter("search.candidates"),
            stored_candidates: reg.counter("search.stored_candidates"),
            lb2_candidates: reg.counter("search.lb2_candidates"),
            postprocessed: reg.counter("search.postprocessed"),
            postprocess_cells: reg.counter("search.postprocess_cells"),
            false_alarms: reg.counter("search.false_alarms"),
            answers: reg.counter("search.answers"),
            cascade_lb_keogh_kills: reg.counter("search.cascade_lb_keogh_kills"),
            cascade_lb_improved_kills: reg.counter("search.cascade_lb_improved_kills"),
            cascade_abandon_kills: reg.counter("search.cascade_abandon_kills"),
            filter_ns: reg.histogram("search.filter_ns"),
            postprocess_ns: reg.histogram("search.postprocess_ns"),
            trace: Trace::noop(),
            trace_parent: None,
        }
    }

    /// Attaches a per-query trace: stage spans opened through
    /// [`trace_span`](SearchMetrics::trace_span) record into it.
    /// Tracing is independent of the counter mode, so a server can
    /// sample traces per query while every query shares one
    /// registry-backed counter bundle.
    pub fn with_trace(mut self, trace: Trace) -> SearchMetrics {
        self.trace = trace;
        self.trace_parent = None;
        self
    }

    /// Opens a stage span named `name` under the current parent span
    /// (the trace root unless re-parented via
    /// [`under`](SearchMetrics::under)). One inlined branch when no
    /// trace is attached.
    #[inline]
    pub fn trace_span(&self, name: &str) -> TraceSpan {
        self.trace.span_with_parent(self.trace_parent, name)
    }

    /// A clone whose future stage spans nest under `span`. Staged
    /// algorithms (the kNN ε-expansion loop) hand the per-round clone
    /// to the stages they re-invoke, so each round's filter and
    /// postprocess spans parent under that round.
    pub fn under(&self, span: &TraceSpan) -> SearchMetrics {
        let mut m = self.clone();
        if let Some(id) = span.span_id() {
            m.trace_parent = Some(id);
        }
        m
    }

    /// The current counter totals as a plain-data snapshot (phase
    /// timings excluded — those stay in the histograms).
    pub fn snapshot(&self) -> SearchStats {
        SearchStats {
            filter_cells: self.filter_cells.get(),
            nodes_visited: self.nodes_visited.get(),
            nodes_expanded: self.nodes_expanded.get(),
            rows_pushed: self.rows_pushed.get(),
            rows_unshared: self.rows_unshared.get(),
            branches_pruned: self.branches_pruned.get(),
            candidates: self.candidates.get(),
            stored_candidates: self.stored_candidates.get(),
            lb2_candidates: self.lb2_candidates.get(),
            postprocessed: self.postprocessed.get(),
            postprocess_cells: self.postprocess_cells.get(),
            false_alarms: self.false_alarms.get(),
            answers: self.answers.get(),
            cascade_lb_keogh_kills: self.cascade_lb_keogh_kills.get(),
            cascade_lb_improved_kills: self.cascade_lb_improved_kills.get(),
            cascade_abandon_kills: self.cascade_abandon_kills.get(),
        }
    }

    /// Folds a plain-data snapshot into the counters — the bridge for
    /// algorithms that report through `SearchStats` (e.g. the
    /// sequential-scan baseline) into a registry-backed view.
    pub fn record(&self, s: &SearchStats) {
        self.filter_cells.add(s.filter_cells);
        self.nodes_visited.add(s.nodes_visited);
        self.nodes_expanded.add(s.nodes_expanded);
        self.rows_pushed.add(s.rows_pushed);
        self.rows_unshared.add(s.rows_unshared);
        self.branches_pruned.add(s.branches_pruned);
        self.candidates.add(s.candidates);
        self.stored_candidates.add(s.stored_candidates);
        self.lb2_candidates.add(s.lb2_candidates);
        self.postprocessed.add(s.postprocessed);
        self.postprocess_cells.add(s.postprocess_cells);
        self.false_alarms.add(s.false_alarms);
        self.answers.add(s.answers);
        self.cascade_lb_keogh_kills.add(s.cascade_lb_keogh_kills);
        self.cascade_lb_improved_kills
            .add(s.cascade_lb_improved_kills);
        self.cascade_abandon_kills.add(s.cascade_abandon_kills);
    }
}

impl Default for SearchMetrics {
    fn default() -> Self {
        SearchMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let m = SearchMetrics::new();
        m.nodes_visited.add(3);
        m.branches_pruned.incr();
        m.nodes_expanded.add(2);
        let s = m.snapshot();
        assert_eq!(s.nodes_visited, 3);
        assert_eq!(s.branches_pruned, 1);
        assert_eq!(s.nodes_expanded, 2);
        assert_eq!(s.nodes_visited, s.nodes_expanded + s.branches_pruned);
    }

    #[test]
    fn record_round_trips_a_snapshot() {
        let m = SearchMetrics::new();
        m.candidates.add(5);
        m.answers.add(2);
        let s = m.snapshot();
        let m2 = SearchMetrics::new();
        m2.record(&s);
        assert_eq!(m2.snapshot(), s);
    }

    #[test]
    fn registered_metrics_share_totals() {
        let reg = MetricsRegistry::new();
        let a = SearchMetrics::register(&reg);
        let b = SearchMetrics::register(&reg);
        a.rows_pushed.add(4);
        b.rows_pushed.add(6);
        assert_eq!(reg.snapshot().counters["search.rows_pushed"], 10);
    }

    #[test]
    fn trace_rides_with_clones_and_nests_under() {
        let m = SearchMetrics::new().with_trace(Trace::active("t1"));
        let round = m.trace_span("knn.round");
        let per_round = m.under(&round);
        {
            let filter = per_round.trace_span("filter");
            // A clone handed to a parallel worker still records into the
            // same trace, under the same parent.
            let worker = per_round.clone();
            let _seg = worker.trace_span("filter.segment");
            drop(filter);
        }
        drop(round);
        let data = m.trace.finish().expect("trace attached");
        assert_eq!(data.spans.len(), 3);
        assert_eq!(data.spans[0].name, "knn.round");
        assert_eq!(data.spans[0].parent, None);
        assert_eq!(data.spans[1].name, "filter");
        assert_eq!(data.spans[1].parent, Some(0));
        assert_eq!(data.spans[2].name, "filter.segment");
        assert_eq!(data.spans[2].parent, Some(0));
    }

    #[test]
    fn default_metrics_have_no_trace() {
        let m = SearchMetrics::new();
        assert!(!m.trace.is_active());
        let s = m.trace_span("filter");
        assert!(!s.is_active());
    }

    #[test]
    fn noop_metrics_stay_zero() {
        let m = SearchMetrics::noop();
        m.filter_cells.add(100);
        m.filter_ns.record(1);
        assert_eq!(m.snapshot(), SearchStats::default());
    }
}
