//! The multivariate extension end to end: grid-encoded sequences are
//! indexed by the *same* suffix trees, and the multivariate search must
//! equal the multivariate scan exactly — the paper's §8 claim that "the
//! same index construction and query processing techniques are applied".

use proptest::prelude::*;
use std::sync::Arc;
use warptree::core::multivariate::{
    mv_dtw, mv_seq_scan, mv_sim_search, GridAlphabet, MvSequence, MvStore,
};
use warptree::prelude::*;
use warptree_suffix::{build_full, build_sparse};

fn mv_db_strategy() -> impl Strategy<Value = (usize, Vec<Vec<f64>>)> {
    (1usize..3).prop_flat_map(|dims| {
        (
            Just(dims),
            prop::collection::vec(
                prop::collection::vec((0i32..6).prop_map(|v| v as f64), dims..=12 * dims)
                    .prop_map(move |mut v| {
                        v.truncate(v.len() / dims * dims);
                        v
                    })
                    .prop_filter("non-empty", |v| !v.is_empty()),
                1..4,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full and sparse multivariate index searches equal the scan.
    #[test]
    fn mv_index_equals_mv_scan(
        (dims, db) in mv_db_strategy(),
        qdata in prop::collection::vec((0i32..6).prop_map(|v| v as f64), 1..6),
        eps_i in 0u32..6,
    ) {
        let mut qdata = qdata;
        qdata.truncate((qdata.len() / dims).max(1) * dims);
        while qdata.len() < dims {
            qdata.push(0.0);
        }
        let eps = eps_i as f64 * 0.5;
        let mut store = MvStore::new();
        for d in db {
            store.push(MvSequence::new(dims, d));
        }
        let query = MvSequence::new(dims, qdata);
        let grid = GridAlphabet::equal_length(store.seqs(), 2).unwrap();
        let cat = Arc::new(store.encode(&grid));
        let params = SearchParams::with_epsilon(eps);

        let mut scan_stats = SearchStats::default();
        let expected = mv_seq_scan(&store, &query, &params, &mut scan_stats);

        for tree in [build_full(cat.clone()), build_sparse(cat.clone())] {
            let tree = DiskTree::from_tree(&tree);
            let (got, _) =
                mv_sim_search(&tree, &grid, &store, &query, &params);
            prop_assert_eq!(
                got.occurrence_set(),
                expected.occurrence_set(),
                "sparse={}",
                tree.is_sparse()
            );
            // Distances are the exact multivariate DTW.
            for m in got.matches() {
                let s = store.get(m.occ.seq);
                let sub = MvSequence::new(
                    dims,
                    (m.occ.start as usize
                        ..(m.occ.start + m.occ.len) as usize)
                        .flat_map(|i| s.point(i).to_vec())
                        .collect(),
                );
                prop_assert!((m.dist - mv_dtw(&query, &sub)).abs() < 1e-9);
            }
        }
    }
}

/// A deterministic 2-D scenario: trajectories on a plane; the search
/// finds a warped occurrence of a path shape.
#[test]
fn trajectory_search_2d() {
    // A square-ish path walked at varying speed in sequence 0.
    let mut store = MvStore::new();
    store.push(MvSequence::new(
        2,
        vec![
            0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 2.0, 0.0,
            2.0,
        ],
    ));
    // A decoy far away.
    store.push(MvSequence::new(2, vec![9.0, 9.0, 8.0, 9.0, 9.0, 8.0]));
    // Query: the same path at "normal" speed.
    let query = MvSequence::new(
        2,
        vec![
            0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 0.0, 2.0,
        ],
    );
    let grid = GridAlphabet::equal_length(store.seqs(), 4).unwrap();
    let cat = Arc::new(store.encode(&grid));
    let tree = DiskTree::from_tree(&build_sparse(cat));
    let params = SearchParams::with_epsilon(0.0);
    let (answers, _) = mv_sim_search(&tree, &grid, &store, &query, &params);
    // The whole of sequence 0 warps onto the query exactly.
    assert!(answers
        .matches()
        .iter()
        .any(|m| m.occ.seq == SeqId(0) && m.occ.len == 9 && m.dist == 0.0));
    // Nothing in the decoy matches at ε = 0.
    assert!(answers.matches().iter().all(|m| m.occ.seq == SeqId(0)));
}
