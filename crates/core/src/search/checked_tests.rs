//! Tests for the validating query path (`run_query` over a typed
//! `QueryRequest`), pinning the validation order and error shapes of
//! checked threshold execution.

use crate::categorize::Alphabet;
use crate::error::CoreError;
use crate::search::answers::{AnswerSet, SearchStats};
use crate::search::backend::{IndexBackend, NodeVisit};
use crate::search::query::QueryRequest;
use crate::search::{run_query, SearchParams};
use crate::sequence::{SeqId, SequenceStore, Value};

/// A checked threshold search: validate, run, snapshot.
fn sim_search_checked(
    tree: &OneSuffix,
    alphabet: &Alphabet,
    store: &SequenceStore,
    query: &[Value],
    params: &SearchParams,
) -> Result<(AnswerSet, SearchStats), CoreError> {
    let req = QueryRequest::threshold_params(query, params.clone());
    run_query(tree, alphabet, store, &req).map(|(out, stats)| (out.into_answer_set(), stats))
}

/// Minimal index: a single stored suffix as a root child chain.
struct OneSuffix {
    symbols: Vec<u32>,
    depth_limit: Option<u32>,
}

impl IndexBackend for OneSuffix {
    type Node = usize;
    fn root(&self) -> usize {
        0
    }
    fn visit(&self, n: usize, children: &mut impl Extend<usize>) -> NodeVisit<'_> {
        if n == 0 {
            children.extend((!self.symbols.is_empty()).then_some(1));
        }
        NodeVisit {
            label: if n == 0 { &[] } else { &self.symbols },
            max_lead_run: 1,
            suffix_count: None,
            attached: u32::from(n == 1),
        }
    }
    fn for_each_suffix_below(&self, _n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
        f(SeqId(0), 0, 1);
    }
    fn for_each_suffix_at(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
        if n == 1 {
            f(SeqId(0), 0, 1);
        }
    }
    fn is_sparse(&self) -> bool {
        false
    }
    fn suffix_count(&self) -> u64 {
        1
    }
    fn depth_limit(&self) -> Option<u32> {
        self.depth_limit
    }
}

fn setup(depth_limit: Option<u32>) -> (SequenceStore, Alphabet, OneSuffix) {
    let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0]]);
    let alphabet = Alphabet::singleton(&store).unwrap();
    let symbols = alphabet.encode(&[1.0, 2.0, 3.0]);
    (
        store,
        alphabet,
        OneSuffix {
            symbols,
            depth_limit,
        },
    )
}

#[test]
fn ok_on_valid_input() {
    let (store, alphabet, tree) = setup(None);
    let params = SearchParams::with_epsilon(1.0);
    let r = sim_search_checked(&tree, &alphabet, &store, &[1.0, 2.0], &params);
    assert!(r.is_ok());
}

#[test]
fn rejects_empty_query() {
    let (store, alphabet, tree) = setup(None);
    let params = SearchParams::with_epsilon(1.0);
    let r = sim_search_checked(&tree, &alphabet, &store, &[], &params);
    assert_eq!(r.err(), Some(CoreError::EmptyQuery));
}

#[test]
fn rejects_nan_query_and_bad_epsilon() {
    let (store, alphabet, tree) = setup(None);
    let params = SearchParams::with_epsilon(1.0);
    let r = sim_search_checked(&tree, &alphabet, &store, &[f64::NAN], &params);
    assert_eq!(r.err(), Some(CoreError::NonFiniteQuery));
    let bad = SearchParams::with_epsilon(-2.0);
    let r = sim_search_checked(&tree, &alphabet, &store, &[1.0], &bad);
    assert_eq!(r.err(), Some(CoreError::BadThreshold));
}

#[test]
fn rejects_depth_limit_violations() {
    let (store, alphabet, tree) = setup(Some(2));
    // Unbounded answer length over a truncated index.
    let params = SearchParams::with_epsilon(1.0);
    let r = sim_search_checked(&tree, &alphabet, &store, &[1.0], &params);
    assert_eq!(
        r.err(),
        Some(CoreError::DepthLimitExceeded {
            limit: 2,
            requested: None
        })
    );
    // Bounded but too deep.
    let params = SearchParams::with_epsilon(1.0).length_range(1, 3);
    let r = sim_search_checked(&tree, &alphabet, &store, &[1.0], &params);
    assert_eq!(
        r.err(),
        Some(CoreError::DepthLimitExceeded {
            limit: 2,
            requested: Some(3)
        })
    );
    // In range: fine.
    let params = SearchParams::with_epsilon(1.0).length_range(1, 2);
    assert!(sim_search_checked(&tree, &alphabet, &store, &[1.0], &params).is_ok());
}
