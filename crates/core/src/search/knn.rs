//! k-nearest-neighbour subsequence search on top of the threshold
//! search.
//!
//! The paper's algorithms answer ε-threshold queries; the common "give
//! me the k most similar subsequences" form is obtained by *ε expansion*:
//! run the threshold search with a small ε, and geometrically enlarge it
//! until at least `k` answers (optionally non-overlapping) exist, then
//! keep the k best. Every round is an exact threshold query — over the
//! index, with its guarantee of no false dismissals, or by sequential
//! scan — so the result is exactly the k nearest — not an
//! approximation. Small-ε rounds are cheap (aggressive Theorem-1
//! pruning), which keeps the total cost close to a single search at the
//! final radius.

use crate::search::answers::{AnswerSet, Match, SearchParams};
use crate::search::metrics::SearchMetrics;
use crate::sequence::Value;

/// Parameters of a k-NN subsequence search.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnParams {
    /// Number of answers wanted.
    pub k: usize,
    /// Starting search radius. When 0, a data-derived seed is used
    /// (`mean |value|` of the query).
    pub initial_epsilon: f64,
    /// Multiplicative radius growth between rounds (> 1).
    pub growth: f64,
    /// Safety bound on the number of expansion rounds.
    pub max_rounds: usize,
    /// Optional Sakoe–Chiba warping window.
    pub window: Option<u32>,
    /// When `true`, matches overlapping an already-kept better match are
    /// discarded — "k distinct regions" rather than "k (mostly nested)
    /// subsequences".
    pub non_overlapping: bool,
    /// Worker threads for each round's filtering and candidate
    /// verification. `0` and `1` both mean sequential. Every round is
    /// a threshold search, so the returned matches and the work
    /// counters are identical at every value.
    pub threads: u32,
    /// Runs the lower-bound cascade ahead of exact verification in
    /// every expansion round. Matches are identical either way. On by
    /// default.
    pub cascade: bool,
    /// Optional backend-family pin (see
    /// [`SearchParams::backend`]): forwarded into
    /// [`QueryRequest::backend`](crate::search::query::QueryRequest::backend).
    pub backend: Option<crate::search::BackendKind>,
}

impl KnnParams {
    /// Validates the parameters against a query of length `qlen`,
    /// returning a typed error instead of panicking — the counterpart
    /// of [`SearchParams::validate`] for k-NN requests arriving from
    /// untrusted input.
    pub fn validate(&self, qlen: usize) -> Result<(), crate::error::CoreError> {
        use crate::error::CoreError;
        if qlen == 0 {
            return Err(CoreError::EmptyQuery);
        }
        if self.k == 0 {
            return Err(CoreError::BadKnnParams("k must be positive"));
        }
        if !self.growth.is_finite() || self.growth <= 1.0 {
            return Err(CoreError::BadKnnParams("growth must be finite and > 1"));
        }
        if !self.initial_epsilon.is_finite() || self.initial_epsilon < 0.0 {
            return Err(CoreError::BadKnnParams(
                "initial epsilon must be finite and non-negative",
            ));
        }
        if self.max_rounds == 0 {
            return Err(CoreError::BadKnnParams("max_rounds must be positive"));
        }
        Ok(())
    }

    /// k-NN with sensible defaults: auto-seeded radius, ×4 growth,
    /// non-overlapping results.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            initial_epsilon: 0.0,
            growth: 4.0,
            max_rounds: 24,
            window: None,
            non_overlapping: true,
            threads: 1,
            cascade: true,
            backend: None,
        }
    }

    /// Pins the backend family the answering index must belong to.
    pub fn on_backend(mut self, kind: crate::search::BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Sets the number of worker threads for filtering and
    /// verification.
    pub fn parallel(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the warping window.
    pub fn windowed(mut self, w: u32) -> Self {
        self.window = Some(w);
        self
    }

    /// Keeps overlapping matches (nested/shifted variants of the same
    /// region count separately).
    pub fn allow_overlaps(mut self) -> Self {
        self.non_overlapping = false;
        self
    }

    /// Enables or disables the lower-bound cascade during
    /// verification.
    pub fn cascaded(mut self, on: bool) -> Self {
        self.cascade = on;
        self
    }
}

/// The k-NN engine: ε-expansion rounds, each one threshold query run by
/// `threshold` (the index's engine or the sequential scan), metered into
/// `metrics` (`answers` accumulates per-round verified answers, not the
/// final `k`). Callers must have validated the query/parameters — this
/// is the body behind [`run_query_with`](crate::search::run_query_with)
/// and [`scan_query_with`](crate::search::scan_query_with) for
/// [`QueryKind::Knn`](crate::search::QueryKind) requests.
pub(crate) fn knn_unchecked(
    query: &[Value],
    params: &KnnParams,
    metrics: &SearchMetrics,
    threshold: impl Fn(&SearchParams, &SearchMetrics) -> AnswerSet,
) -> Vec<Match> {
    assert!(params.k > 0, "k must be positive");
    assert!(params.growth > 1.0, "growth must exceed 1");
    let mut epsilon = if params.initial_epsilon > 0.0 {
        params.initial_epsilon
    } else {
        // Data-derived seed: a fraction of the query's mean magnitude,
        // floored so all-zero queries still make progress.
        let mean_abs: f64 = query.iter().map(|v| v.abs()).sum::<f64>() / query.len().max(1) as f64;
        (mean_abs * 0.05).max(1e-3)
    };
    let mut result: Vec<Match> = Vec::new();
    for round in 0..params.max_rounds {
        let mut sp = SearchParams::with_epsilon(epsilon);
        sp.window = params.window;
        sp.threads = params.threads;
        sp.cascade = params.cascade;
        // Each expansion round gets its own trace span; the stage spans
        // the threshold engine opens (filter/postprocess) nest under it
        // via the re-parented `scoped` handle. Trace off: `m` aliases
        // `metrics` and nothing is cloned.
        let round_span = metrics.trace_span("knn.round");
        let scoped_holder;
        let m: &SearchMetrics = if round_span.is_active() {
            round_span.attr_u64("round", round as u64);
            round_span.attr_f64("epsilon", epsilon);
            scoped_holder = metrics.under(&round_span);
            &scoped_holder
        } else {
            metrics
        };

        let answers = threshold(&sp, m);
        // Ranked by ascending `(distance, occurrence)`.
        let candidates = if params.non_overlapping {
            answers.non_overlapping()
        } else {
            answers.top_k(answers.len())
        };
        round_span.attr_u64("round_answers", candidates.len() as u64);
        if candidates.len() >= params.k {
            // The k-th distance is within the searched radius, so no
            // unseen subsequence can beat it: done.
            result = candidates[..params.k].to_vec();
            break;
        }
        result = candidates;
        epsilon *= params.growth;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{Alphabet, CatStore};
    use crate::search::answers::SearchStats;
    use crate::search::backend::IndexBackend;
    use crate::search::backend::NodeVisit;
    use crate::search::query::QueryRequest;
    use crate::sequence::{Occurrence, SeqId, SequenceStore};

    type ToyNode = (Vec<u32>, Vec<usize>, Vec<(SeqId, u32, u32)>);

    /// Trie-shaped test double (same as the filter tests).
    struct ToyTree {
        nodes: Vec<ToyNode>,
    }

    impl ToyTree {
        fn build(cat: &CatStore) -> Self {
            let mut t = ToyTree {
                nodes: vec![(Vec::new(), Vec::new(), Vec::new())],
            };
            for (i, s) in cat.seqs().iter().enumerate() {
                for start in 0..s.len() {
                    let mut node = 0usize;
                    for &sym in &s[start..] {
                        let found = t.nodes[node]
                            .1
                            .iter()
                            .copied()
                            .find(|&c| t.nodes[c].0 == [sym]);
                        node = match found {
                            Some(c) => c,
                            None => {
                                let c = t.nodes.len();
                                t.nodes.push((vec![sym], Vec::new(), Vec::new()));
                                t.nodes[node].1.push(c);
                                c
                            }
                        };
                    }
                    let run = cat.run_len(SeqId(i as u32), start as u32);
                    t.nodes[node].2.push((SeqId(i as u32), start as u32, run));
                }
            }
            t
        }
    }

    impl IndexBackend for ToyTree {
        type Node = usize;
        fn root(&self) -> usize {
            0
        }
        fn visit(&self, n: usize, children: &mut impl Extend<usize>) -> NodeVisit<'_> {
            children.extend(self.nodes[n].1.iter().copied());
            let mut max_lead_run = 0;
            self.for_each_suffix_below(n, &mut |_, _, r| max_lead_run = max_lead_run.max(r));
            NodeVisit {
                label: &self.nodes[n].0,
                max_lead_run,
                suffix_count: None,
                attached: self.nodes[n].2.len() as u32,
            }
        }
        fn for_each_suffix_below(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            self.for_each_suffix_at(n, f);
            for &c in &self.nodes[n].1 {
                self.for_each_suffix_below(c, f);
            }
        }
        fn for_each_suffix_at(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            for &(s, p, r) in &self.nodes[n].2 {
                f(s, p, r);
            }
        }
        fn is_sparse(&self) -> bool {
            false
        }
        fn suffix_count(&self) -> u64 {
            let mut n = 0;
            self.for_each_suffix_below(0, &mut |_, _, _| n += 1);
            n
        }
    }

    fn setup() -> (SequenceStore, Alphabet, ToyTree) {
        let store =
            SequenceStore::from_values(vec![vec![1.0, 5.0, 9.0, 5.0, 1.0], vec![5.0, 5.2, 9.5]]);
        let alphabet = Alphabet::singleton(&store).unwrap();
        let cat = alphabet.encode_store(&store);
        let tree = ToyTree::build(&cat);
        (store, alphabet, tree)
    }

    /// The typed-API k-NN call the tests exercise (the shims are
    /// covered separately by `shims_match_run_query`).
    fn knn(
        tree: &ToyTree,
        alphabet: &Alphabet,
        store: &SequenceStore,
        query: &[Value],
        params: &KnnParams,
    ) -> (Vec<Match>, SearchStats) {
        let req = QueryRequest::knn_params(query, params.clone());
        let (out, stats) = crate::search::run_query(tree, alphabet, store, &req).unwrap();
        (out.into_ranked(), stats)
    }

    #[test]
    fn knn_returns_k_best_in_order() {
        let (store, alphabet, tree) = setup();
        let q = [5.0, 9.0];
        let params = KnnParams::new(3).allow_overlaps();
        let (matches, _) = knn(&tree, &alphabet, &store, &q, &params);
        assert_eq!(matches.len(), 3);
        // Best is the exact occurrence <5,9> in S0.
        assert_eq!(matches[0].occ, Occurrence::new(SeqId(0), 1, 2));
        assert_eq!(matches[0].dist, 0.0);
        // Distances are non-decreasing.
        for w in matches.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Cross-check against a brute-force k-NN.
        let mut all: Vec<Match> = Vec::new();
        for (id, s) in store.iter() {
            for p in 0..s.len() {
                for l in 1..=s.len() - p {
                    let sub = s.subseq(p as u32, l as u32);
                    all.push(Match {
                        occ: Occurrence::new(id, p as u32, l as u32),
                        dist: crate::dtw::dtw(&q, sub),
                    });
                }
            }
        }
        all.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap().then(a.occ.cmp(&b.occ)));
        assert_eq!(
            matches.iter().map(|m| m.occ).collect::<Vec<_>>(),
            all[..3].iter().map(|m| m.occ).collect::<Vec<_>>()
        );
    }

    #[test]
    fn knn_non_overlapping_spreads_regions() {
        let (store, alphabet, tree) = setup();
        let q = [5.0];
        let params = KnnParams::new(2);
        let (matches, _) = knn(&tree, &alphabet, &store, &q, &params);
        assert_eq!(matches.len(), 2);
        // The two matches must not overlap.
        let (a, b) = (matches[0].occ, matches[1].occ);
        assert!(a.seq != b.seq || a.start + a.len <= b.start || b.start + b.len <= a.start);
    }

    #[test]
    fn knn_handles_k_larger_than_database() {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0]]);
        let alphabet = Alphabet::singleton(&store).unwrap();
        let cat = alphabet.encode_store(&store);
        let tree = ToyTree::build(&cat);
        let params = KnnParams::new(100).allow_overlaps();
        let (matches, _) = knn(&tree, &alphabet, &store, &[1.0], &params);
        // Only 3 subsequences exist.
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn parallel_knn_matches_sequential() {
        let (store, alphabet, tree) = setup();
        for k in [1usize, 3, 5] {
            for allow in [false, true] {
                let mut params = KnnParams::new(k);
                if allow {
                    params = params.allow_overlaps();
                }
                let (seq, _) = knn(&tree, &alphabet, &store, &[5.0, 9.0], &params);
                for threads in [2u32, 8] {
                    let par_params = params.clone().parallel(threads);
                    let (par, _) = knn(&tree, &alphabet, &store, &[5.0, 9.0], &par_params);
                    assert_eq!(seq, par, "k={k} allow_overlaps={allow} t={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (store, alphabet, tree) = setup();
        let params = KnnParams::new(0);
        let threshold = |p: &SearchParams, m: &SearchMetrics| {
            crate::search::threshold_search_unchecked(&tree, &alphabet, &store, &[1.0], p, m)
        };
        let _ = knn_unchecked(&[1.0], &params, &SearchMetrics::new(), threshold);
    }

    fn knn_checked(
        tree: &ToyTree,
        alphabet: &Alphabet,
        store: &SequenceStore,
        query: &[Value],
        params: &KnnParams,
    ) -> Result<Vec<Match>, crate::error::CoreError> {
        let req = QueryRequest::knn_params(query, params.clone());
        crate::search::run_query(tree, alphabet, store, &req).map(|(out, _)| out.into_ranked())
    }

    #[test]
    fn checked_knn_rejects_bad_input_without_panicking() {
        use crate::error::CoreError;
        let (store, alphabet, tree) = setup();
        let ok = KnnParams::new(2);
        // Baseline: valid input answers like the unchecked path.
        let checked = knn_checked(&tree, &alphabet, &store, &[5.0, 9.0], &ok).unwrap();
        let (plain, _) = knn(&tree, &alphabet, &store, &[5.0, 9.0], &ok);
        assert_eq!(checked, plain);
        // Empty query.
        assert_eq!(
            knn_checked(&tree, &alphabet, &store, &[], &ok).unwrap_err(),
            CoreError::EmptyQuery
        );
        // Non-finite query values.
        assert_eq!(
            knn_checked(&tree, &alphabet, &store, &[1.0, f64::NAN], &ok).unwrap_err(),
            CoreError::NonFiniteQuery
        );
        assert_eq!(
            knn_checked(&tree, &alphabet, &store, &[f64::INFINITY], &ok).unwrap_err(),
            CoreError::NonFiniteQuery
        );
        // k = 0 and bad growth become typed errors, not panics.
        assert!(matches!(
            knn_checked(&tree, &alphabet, &store, &[1.0], &KnnParams::new(0)),
            Err(CoreError::BadKnnParams(_))
        ));
        let mut bad_growth = KnnParams::new(2);
        bad_growth.growth = 1.0;
        assert!(matches!(
            knn_checked(&tree, &alphabet, &store, &[1.0], &bad_growth),
            Err(CoreError::BadKnnParams(_))
        ));
        let mut bad_eps = KnnParams::new(2);
        bad_eps.initial_epsilon = f64::NAN;
        assert!(matches!(
            knn_checked(&tree, &alphabet, &store, &[1.0], &bad_eps),
            Err(CoreError::BadKnnParams(_))
        ));
    }
}
