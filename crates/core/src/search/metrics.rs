//! Live search metrics: the observability counterpart of
//! [`SearchStats`](crate::search::answers::SearchStats).
//!
//! [`SearchMetrics`] is a bundle of [`warptree_obs`] handles threaded
//! through the search algorithms. `SearchStats` remains the plain data
//! an algorithm counts into (cheap to copy, `Eq`, deterministic); each
//! algorithm hands its counts to the bundle once, through
//! [`SearchMetrics::add`]. The two constructors give the two
//! measurement modes:
//!
//! * [`SearchMetrics::new`] — detached live counters; used by
//!   [`run_query`](crate::search::run_query) to produce its returned
//!   snapshot.
//! * [`SearchMetrics::register`] — counters shared with a
//!   [`MetricsRegistry`] under `search.<field>` names, so multiple
//!   queries accumulate into one process-wide view (the CLI's
//!   `--stats`).
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
    /// One counter per [`SearchStats`] field, in
    /// [`SearchStats::fields`] order.
    counters: [Counter; 16],
    /// Wall time of the filter phase, nanoseconds per query.
    pub filter_ns: Histogram,
    /// Wall time of the post-processing phase, nanoseconds per query.
    pub postprocess_ns: Histogram,
    /// The per-query span tree stage spans record into. Both
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
            counters: std::array::from_fn(|_| Counter::active()),
            filter_ns: Histogram::active(),
            postprocess_ns: Histogram::active(),
            trace: Trace::noop(),
            trace_parent: None,
        }
    }

    /// Metrics registered under `search.<field>` names in `reg`;
    /// handles obtained from repeated calls share totals through the
    /// registry.
    pub fn register(reg: &MetricsRegistry) -> Self {
        let names = SearchStats::default().fields();
        SearchMetrics {
            counters: names.map(|(name, _)| reg.counter(&format!("search.{name}"))),
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

    /// The current counter totals (phase timings excluded — those stay
    /// in the histograms).
    pub fn snapshot(&self) -> SearchStats {
        let mut s = SearchStats::default();
        for ((_, v), c) in s.fields_mut().into_iter().zip(&self.counters) {
            *v = c.get();
        }
        s
    }

    /// Adds what an algorithm counted to the totals.
    pub fn add(&self, s: &SearchStats) {
        for ((_, v), c) in s.fields().into_iter().zip(&self.counters) {
            c.add(v);
        }
    }
}

impl Default for SearchMetrics {
    fn default() -> Self {
        SearchMetrics::new()
    }
}

/// Attaches each nonzero counter of `stats` to `span` under its field
/// name.
pub(crate) fn attach(span: &TraceSpan, stats: &SearchStats) {
    for (name, v) in stats.fields() {
        if v != 0 {
            span.attr_u64(name, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let m = SearchMetrics::new();
        let walk = SearchStats {
            nodes_visited: 3,
            branches_pruned: 1,
            nodes_expanded: 2,
            ..SearchStats::default()
        };
        m.add(&walk);
        m.add(&walk);
        let s = m.snapshot();
        assert_eq!(s.nodes_visited, 6);
        assert_eq!(s.nodes_visited, s.nodes_expanded + s.branches_pruned);
    }

    #[test]
    fn record_round_trips_a_snapshot() {
        let mut s = SearchStats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        let m = SearchMetrics::new();
        m.add(&s);
        assert_eq!(m.snapshot(), s);
        m.add(&s);
        assert_eq!(m.snapshot().since(&s), s);
    }

    #[test]
    fn registered_metrics_share_totals() {
        let reg = MetricsRegistry::new();
        let a = SearchMetrics::register(&reg);
        let b = SearchMetrics::register(&reg);
        let rows = |n| SearchStats {
            rows_pushed: n,
            ..SearchStats::default()
        };
        a.add(&rows(4));
        b.add(&rows(6));
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
    fn timings_never_enter_the_snapshot() {
        let m = SearchMetrics::new();
        m.filter_ns.record(1);
        m.postprocess_ns.record(2);
        m.add(&SearchStats::default());
        assert_eq!(m.snapshot(), SearchStats::default());
    }

    #[test]
    fn stage_spans_carry_nonzero_counters_by_name() {
        let trace = Trace::active("t");
        let span = trace.span_with_parent(None, "filter");
        let stats = SearchStats {
            candidates: 5,
            answers: 2,
            ..SearchStats::default()
        };
        attach(&span, &stats);
        drop(span);
        let data = trace.finish().expect("trace attached");
        let names: Vec<&str> = data.spans[0]
            .attrs
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["candidates", "answers"]);
    }
}
