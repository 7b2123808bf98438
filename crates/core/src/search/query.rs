//! The unified typed query API.
//!
//! [`QueryRequest`] is the single entry point for query execution: one
//! builder describes *what* is asked (threshold or k-NN, via
//! [`QueryKind`]), one [`QueryRequest::validate`] pass performs every
//! check (parameter validation, non-finite values, the serving length
//! cap, truncated-index depth rules), and one executor pair —
//! [`run_query`] / [`run_query_with`] — runs the search over any
//! [`IndexBackend`]. [`scan_query_with`] answers the same request by
//! sequential scan, without an index; both executors are thin callers
//! of one `match` over the kind.
//!
//! This module *owns* the index seam: [`IndexBackend`] and
//! [`BackendKind`] live in [`backend`](crate::search::backend) and are
//! re-exported here because the query layer is their consumer-facing
//! home — a request may pin the backend family it expects
//! ([`QueryRequest::backend`]) and the executor enforces it.

use crate::categorize::Alphabet;
use crate::error::CoreError;
use crate::search::answers::{AnswerSet, Match, SearchParams, SearchStats};
use crate::search::backend::IndexBackend;
use crate::search::knn::{knn_unchecked, KnnParams};
use crate::search::metrics::{attach, SearchMetrics};
use crate::search::seqscan::{seq_scan, SeqScanMode};
use crate::search::threshold_search_unchecked;
use crate::sequence::{SequenceStore, Value};

pub use crate::search::backend::BackendKind;

/// What a query asks for: every subsequence within a threshold, or the
/// `k` nearest subsequences.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// ε-threshold search (the paper's `SimSearch` family): every
    /// occurrence with `D_tw ≤ ε`.
    Threshold(SearchParams),
    /// Exact k-nearest-neighbour search by ε expansion.
    Knn(KnnParams),
}

impl QueryKind {
    /// The warping window, whichever kind carries it.
    pub fn window(&self) -> Option<u32> {
        match self {
            QueryKind::Threshold(p) => p.window,
            QueryKind::Knn(p) => p.window,
        }
    }

    /// The worker-thread count, whichever kind carries it.
    pub fn threads(&self) -> u32 {
        match self {
            QueryKind::Threshold(p) => p.threads,
            QueryKind::Knn(p) => p.threads,
        }
    }
}

/// A fully described query: the values, the kind-specific parameters,
/// and an optional serving-side length cap. Build one with
/// [`QueryRequest::threshold`] / [`QueryRequest::knn`] (or the
/// `*_params` constructors when you already hold a params struct), then
/// execute it with [`run_query`] or [`run_query_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query sequence.
    pub query: Vec<Value>,
    /// Threshold or k-NN, with the kind's parameters.
    pub kind: QueryKind,
    /// Optional cap on `query.len()` (a serving limit protecting
    /// workers from quadratic-cost requests); violations surface as
    /// [`CoreError::QueryTooLong`].
    pub max_query_len: Option<usize>,
    /// Optional backend-family pin: when `Some`, the executor rejects an
    /// index of any other [`BackendKind`] with
    /// [`CoreError::UnsupportedBackend`] instead of silently answering
    /// from a different index family. `None` (the default) accepts any
    /// backend.
    pub backend: Option<BackendKind>,
}

impl QueryRequest {
    /// A threshold query with default parameters at radius `epsilon`.
    pub fn threshold(query: &[Value], epsilon: f64) -> Self {
        Self::threshold_params(query, SearchParams::with_epsilon(epsilon))
    }

    /// A threshold query with explicit [`SearchParams`]. A backend pin
    /// carried by the params ([`SearchParams::backend`]) is lifted into
    /// [`QueryRequest::backend`] — this is how a pin parsed off the
    /// wire reaches the executor.
    pub fn threshold_params(query: &[Value], params: SearchParams) -> Self {
        Self {
            query: query.to_vec(),
            backend: params.backend,
            kind: QueryKind::Threshold(params),
            max_query_len: None,
        }
    }

    /// A k-NN query with default parameters for `k` neighbours.
    pub fn knn(query: &[Value], k: usize) -> Self {
        Self::knn_params(query, KnnParams::new(k))
    }

    /// A k-NN query with explicit [`KnnParams`]. Lifts a params-carried
    /// backend pin like [`threshold_params`](Self::threshold_params).
    pub fn knn_params(query: &[Value], params: KnnParams) -> Self {
        Self {
            query: query.to_vec(),
            backend: params.backend,
            kind: QueryKind::Knn(params),
            max_query_len: None,
        }
    }

    /// Adds a Sakoe–Chiba warping window of width `w`.
    pub fn windowed(mut self, w: u32) -> Self {
        match &mut self.kind {
            QueryKind::Threshold(p) => p.window = Some(w),
            QueryKind::Knn(p) => p.window = Some(w),
        }
        self
    }

    /// Sets the worker-thread count for filtering and verification.
    pub fn parallel(mut self, threads: u32) -> Self {
        match &mut self.kind {
            QueryKind::Threshold(p) => p.threads = threads,
            QueryKind::Knn(p) => p.threads = threads,
        }
        self
    }

    /// Imposes a serving-side cap on the query length.
    pub fn capped(mut self, max_query_len: usize) -> Self {
        self.max_query_len = Some(max_query_len);
        self
    }

    /// Pins the backend family the index must belong to; the executor
    /// rejects any other with [`CoreError::UnsupportedBackend`].
    pub fn on_backend(mut self, kind: BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Validates everything that does not depend on the index: the
    /// length cap, the kind's parameters (absorbing
    /// [`SearchParams::validate`] and [`KnnParams::validate`]), and
    /// query finiteness. Index-dependent checks (truncated-index depth
    /// rules) happen in [`validate_for`](Self::validate_for).
    pub fn validate(&self) -> Result<(), CoreError> {
        match &self.kind {
            QueryKind::Threshold(p) => p.validate(self.query.len())?,
            QueryKind::Knn(p) => p.validate(self.query.len())?,
        }
        if self.query.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteQuery);
        }
        if let Some(limit) = self.max_query_len {
            if self.query.len() > limit {
                return Err(CoreError::QueryTooLong {
                    limit,
                    got: self.query.len(),
                });
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus the index-dependent checks: on
    /// a §8-truncated index the query's effective answer-length bound
    /// must fit within `depth_limit` (for k-NN, only a window provides
    /// such a bound, because ε expansion is otherwise unbounded).
    pub fn validate_for(&self, depth_limit: Option<u32>) -> Result<(), CoreError> {
        self.validate()?;
        let Some(limit) = depth_limit else {
            return Ok(());
        };
        let requested = match &self.kind {
            QueryKind::Threshold(p) => p.effective_max_len(self.query.len()),
            QueryKind::Knn(p) => {
                // Saturating: a window near u32::MAX must fail the
                // limit check, not wrap into a small "acceptable" depth.
                let qlen = u32::try_from(self.query.len()).unwrap_or(u32::MAX);
                p.window.map(|w| qlen.saturating_add(w))
            }
        };
        match requested {
            Some(m) if m <= limit => Ok(()),
            _ => Err(CoreError::DepthLimitExceeded { limit, requested }),
        }
    }

    /// [`validate_for`](Self::validate_for) against `index`, after the
    /// request's backend pin ([`QueryRequest::backend`]) is checked
    /// against the index's family.
    pub fn validate_on(&self, index: &impl IndexBackend) -> Result<(), CoreError> {
        if let Some(want) = self.backend {
            let got = index.backend_kind();
            if got != want {
                return Err(CoreError::UnsupportedBackend {
                    requested: want.as_str(),
                    actual: got.as_str(),
                });
            }
        }
        self.validate_for(index.depth_limit())
    }

    /// The stats of this request once it has answered `out` under
    /// `metrics`: for k-NN requests `answers` reads as the result count
    /// actually returned, not the per-round verified total.
    pub fn final_stats(&self, out: &QueryOutput, metrics: &SearchMetrics) -> SearchStats {
        let mut stats = metrics.snapshot();
        if matches!(self.kind, QueryKind::Knn(_)) {
            stats.answers = out.len() as u64;
        }
        stats
    }
}

/// The answers themselves: an answer set for threshold queries, a
/// distance-ranked list for k-NN queries. Both views are reachable
/// from either variant, so callers can stay kind-agnostic.
#[derive(Debug, Clone)]
pub enum OutputKind {
    /// Threshold answers (every occurrence within ε).
    Matches(AnswerSet),
    /// k-NN answers, sorted by ascending `(distance, occurrence)`.
    Ranked(Vec<Match>),
}

/// The result of a [`run_query`] or a [`scan_query_with`]: always the
/// complete answer.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The answers.
    pub kind: OutputKind,
}

impl QueryOutput {
    /// Wraps threshold answers.
    pub fn answers(a: AnswerSet) -> Self {
        QueryOutput {
            kind: OutputKind::Matches(a),
        }
    }

    /// Wraps ranked (k-NN) answers.
    pub fn ranked(v: Vec<Match>) -> Self {
        QueryOutput {
            kind: OutputKind::Ranked(v),
        }
    }

    /// `true` when the answers are a ranked (k-NN) list.
    pub fn is_ranked(&self) -> bool {
        matches!(self.kind, OutputKind::Ranked(_))
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        match &self.kind {
            OutputKind::Matches(a) => a.len(),
            OutputKind::Ranked(v) => v.len(),
        }
    }

    /// `true` when no answers were found.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the matches, whichever variant holds them.
    pub fn matches(&self) -> &[Match] {
        match &self.kind {
            OutputKind::Matches(a) => a.matches(),
            OutputKind::Ranked(v) => v,
        }
    }

    /// Converts into an [`AnswerSet`] (lossless for both variants).
    pub fn into_answer_set(self) -> AnswerSet {
        match self.kind {
            OutputKind::Matches(a) => a,
            OutputKind::Ranked(v) => {
                let mut a = AnswerSet::new();
                for m in v {
                    a.push(m);
                }
                a
            }
        }
    }

    /// Converts into a distance-ranked list: k-NN answers come back
    /// verbatim; threshold answers are sorted by `(distance,
    /// occurrence)`.
    pub fn into_ranked(self) -> Vec<Match> {
        match self.kind {
            OutputKind::Ranked(v) => v,
            OutputKind::Matches(a) => {
                let n = a.len();
                a.top_k(n)
            }
        }
    }
}

/// Executes a validated query over the index, metering into
/// caller-supplied [`SearchMetrics`]. This is THE query path: the CLI,
/// the server and the facade all funnel through here.
///
/// Validation runs first ([`QueryRequest::validate_on`]), so malformed
/// requests return a typed [`CoreError`] and never panic.
pub fn run_query_with<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    req: &QueryRequest,
    metrics: &SearchMetrics,
) -> Result<QueryOutput, CoreError> {
    req.validate_on(tree)?;
    Ok(dispatch(req, metrics, |params, m| {
        threshold_search_unchecked(tree, alphabet, store, &req.query, params, m)
    }))
}

/// Answers a validated query by sequential scan over `store`, with no
/// index at all: every threshold round is [`seq_scan`] in
/// [`SeqScanMode::Cascade`] (in [`SeqScanMode::EarlyAbandon`] when the
/// request turns the cascade off), counted into `metrics`. `seq_scan`
/// is the ground truth every index plan is held to, so a directory
/// with a damaged index answers through here. Only [`QueryRequest::validate`] runs: a caller
/// answering for an index validates against it first.
pub fn scan_query_with(
    store: &SequenceStore,
    req: &QueryRequest,
    metrics: &SearchMetrics,
) -> Result<QueryOutput, CoreError> {
    req.validate()?;
    Ok(dispatch(req, metrics, |params, m| {
        let mode = match params.cascade {
            true => SeqScanMode::Cascade,
            false => SeqScanMode::EarlyAbandon,
        };
        let span = m.trace_span("seqscan");
        let mut stats = SearchStats::default();
        let answers = seq_scan(store, &req.query, params, mode, &mut stats);
        m.add(&stats);
        attach(&span, &stats);
        answers
    }))
}

/// The one `match` over [`QueryKind`]: a threshold request is one
/// `threshold` search, a k-NN request the ε-expansion rounds of
/// [`knn_unchecked`] over it.
fn dispatch(
    req: &QueryRequest,
    metrics: &SearchMetrics,
    threshold: impl Fn(&SearchParams, &SearchMetrics) -> AnswerSet,
) -> QueryOutput {
    match &req.kind {
        QueryKind::Threshold(p) => QueryOutput::answers(threshold(p, metrics)),
        QueryKind::Knn(p) => QueryOutput::ranked(knn_unchecked(&req.query, p, metrics, threshold)),
    }
}

/// [`run_query_with`] on fresh metrics, returning the request's
/// [`final_stats`](QueryRequest::final_stats) alongside the output.
pub fn run_query<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    store: &SequenceStore,
    req: &QueryRequest,
) -> Result<(QueryOutput, SearchStats), CoreError> {
    let metrics = SearchMetrics::new();
    let out = run_query_with(tree, alphabet, store, req, &metrics)?;
    let stats = req.final_stats(&out, &metrics);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_shared_knobs_on_either_kind() {
        let t = QueryRequest::threshold(&[1.0, 2.0], 0.5)
            .windowed(3)
            .parallel(4)
            .capped(16);
        assert_eq!(t.kind.window(), Some(3));
        assert_eq!(t.kind.threads(), 4);
        assert_eq!(t.max_query_len, Some(16));
        let k = QueryRequest::knn(&[1.0], 5)
            .windowed(2)
            .parallel(8)
            .on_backend(BackendKind::Esa);
        assert_eq!(k.kind.window(), Some(2));
        assert_eq!(k.kind.threads(), 8);
        assert_eq!(k.backend, Some(BackendKind::Esa));
        match k.kind {
            QueryKind::Knn(p) => assert_eq!(p.k, 5),
            _ => panic!("expected knn kind"),
        }
    }

    #[test]
    fn validate_absorbs_every_legacy_check() {
        // Empty query (both kinds).
        assert_eq!(
            QueryRequest::threshold(&[], 1.0).validate(),
            Err(CoreError::EmptyQuery)
        );
        assert_eq!(
            QueryRequest::knn(&[], 3).validate(),
            Err(CoreError::EmptyQuery)
        );
        // Bad threshold / bad k-NN params.
        assert_eq!(
            QueryRequest::threshold(&[1.0], -1.0).validate(),
            Err(CoreError::BadThreshold)
        );
        assert!(matches!(
            QueryRequest::knn(&[1.0], 0).validate(),
            Err(CoreError::BadKnnParams(_))
        ));
        // Non-finite values.
        assert_eq!(
            QueryRequest::threshold(&[f64::NAN], 1.0).validate(),
            Err(CoreError::NonFiniteQuery)
        );
        // The serving length cap.
        assert_eq!(
            QueryRequest::threshold(&[1.0, 2.0, 3.0], 1.0)
                .capped(2)
                .validate(),
            Err(CoreError::QueryTooLong { limit: 2, got: 3 })
        );
        assert!(QueryRequest::threshold(&[1.0, 2.0], 1.0)
            .capped(2)
            .validate()
            .is_ok());
    }

    #[test]
    fn depth_limit_rules_match_the_legacy_entry_points() {
        // Threshold: effective max length must fit the stored depth.
        let t = QueryRequest::threshold(&[1.0, 2.0], 1.0);
        assert!(t.validate_for(None).is_ok());
        assert_eq!(
            t.validate_for(Some(8)),
            Err(CoreError::DepthLimitExceeded {
                limit: 8,
                requested: None
            })
        );
        assert!(t.clone().windowed(4).validate_for(Some(8)).is_ok());
        assert_eq!(
            t.windowed(7).validate_for(Some(8)),
            Err(CoreError::DepthLimitExceeded {
                limit: 8,
                requested: Some(9)
            })
        );
        // k-NN: only a window bounds ε expansion on a truncated index.
        let k = QueryRequest::knn(&[1.0, 2.0], 3);
        assert!(matches!(
            k.validate_for(Some(8)),
            Err(CoreError::DepthLimitExceeded { .. })
        ));
        assert!(k.windowed(4).validate_for(Some(8)).is_ok());
    }

    #[test]
    fn output_views_are_lossless() {
        let m = |start: u32, dist: f64| Match {
            occ: crate::sequence::Occurrence::new(crate::sequence::SeqId(0), start, 2),
            dist,
        };
        let mut a = AnswerSet::new();
        a.push(m(4, 2.0));
        a.push(m(1, 1.0));
        let out = QueryOutput::answers(a);
        assert_eq!(out.len(), 2);
        let ranked = out.into_ranked();
        assert_eq!(ranked[0].occ.start, 1, "threshold answers rank by distance");
        let back = QueryOutput::ranked(ranked).into_answer_set();
        assert_eq!(back.len(), 2);
    }
}
