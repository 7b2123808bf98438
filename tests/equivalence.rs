//! The headline guarantee of the paper, verified end-to-end: for any
//! database, query and threshold, every index-based search returns
//! *exactly* the answer set of the exact sequential scan — no false
//! dismissals (Theorems 1–3) and, after post-processing, no false
//! alarms.

use proptest::prelude::*;
use warptree::prelude::*;

/// Small random databases of value sequences. Values are drawn from a
/// coarse grid so categorized forms contain runs and shared prefixes (the
/// structurally hard cases for the sparse tree).
fn db_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0i32..12).prop_map(|v| v as f64 * 0.5), 1..16),
        1..5,
    )
}

fn query_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0i32..12).prop_map(|v| v as f64 * 0.5), 1..5)
}

fn check_all_indexes(
    db: Vec<Vec<f64>>,
    q: Vec<f64>,
    eps: f64,
    params: SearchParams,
) -> Result<(), TestCaseError> {
    let store = SequenceStore::from_values(db);
    let exact = Index::exact(&store).unwrap();
    let (base, base_stats) = exact.seq_scan(&q, &params);
    let baseline = base.occurrence_set();
    let variants: Vec<(&str, Index)> = vec![
        ("ST", Index::exact(&store).unwrap()),
        (
            "ST_C/EL",
            Index::full(&store, Categorization::EqualLength(3)).unwrap(),
        ),
        (
            "ST_C/ME",
            Index::full(&store, Categorization::MaxEntropy(3)).unwrap(),
        ),
        (
            "ST_C/KM",
            Index::full(&store, Categorization::KMeans(3)).unwrap(),
        ),
        (
            "SST_C/EL",
            Index::sparse(&store, Categorization::EqualLength(3)).unwrap(),
        ),
        (
            "SST_C/ME",
            Index::sparse(&store, Categorization::MaxEntropy(3)).unwrap(),
        ),
        (
            "SST(exact)",
            Index::sparse(&store, Categorization::Exact).unwrap(),
        ),
    ];
    for (name, idx) in &variants {
        let (ans, stats) = idx.search(&q, &params);
        prop_assert_eq!(
            ans.occurrence_set(),
            baseline.clone(),
            "answer set mismatch for {} (eps {})",
            name,
            eps
        );
        // Distances must be the exact (windowed, when applicable) DTW.
        for m in ans.matches() {
            let sub = store.occurrence_values(m.occ);
            let expected = match params.window {
                Some(w) => warptree::core::dtw::dtw_windowed(&q, sub, w),
                None => warptree::core::dtw::dtw(&q, sub),
            };
            prop_assert!(
                (m.dist - expected).abs() < 1e-9,
                "distance mismatch for {}",
                name
            );
            prop_assert!(m.dist <= eps + 1e-9);
        }
        prop_assert_eq!(stats.answers, base_stats.answers);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All seven index variants equal SeqScan exactly.
    #[test]
    fn all_indexes_equal_seqscan(
        db in db_strategy(),
        q in query_strategy(),
        eps_i in 0u32..8,
    ) {
        let eps = eps_i as f64 * 0.5;
        check_all_indexes(db, q, eps, SearchParams::with_epsilon(eps))?;
    }

    /// Same equality under a warping-window constraint (paper §8).
    #[test]
    fn windowed_searches_agree(
        db in db_strategy(),
        q in query_strategy(),
        eps_i in 0u32..6,
        w in 0u32..4,
    ) {
        let eps = eps_i as f64 * 0.5;
        let params = SearchParams::with_epsilon(eps).windowed(w);
        check_all_indexes(db, q, eps, params)?;
    }

    /// Length-range restriction agrees across algorithms.
    #[test]
    fn length_bounded_searches_agree(
        db in db_strategy(),
        q in query_strategy(),
        min_len in 1u32..4,
        extra in 0u32..4,
    ) {
        let eps = 1.0;
        let params = SearchParams::with_epsilon(eps)
            .length_range(min_len, min_len + extra);
        let store = SequenceStore::from_values(db);
        let exact = Index::exact(&store).unwrap();
        let (base, _) = exact.seq_scan(&q, &params);
        for m in base.matches() {
            prop_assert!(m.occ.len >= min_len && m.occ.len <= min_len + extra);
        }
        let sparse =
            Index::sparse(&store, Categorization::MaxEntropy(3)).unwrap();
        let (ans, _) = sparse.search(&q, &params);
        prop_assert_eq!(ans.occurrence_set(), base.occurrence_set());
    }

    /// No false dismissals at the filter itself (Theorems 2/3): every
    /// answer of the sequential scan is a candidate — its start has a
    /// group, and the group holds its length.
    #[test]
    fn seqscan_answers_lie_in_candidate_groups(
        db in db_strategy(),
        q in query_strategy(),
        eps_i in 0u32..8,
    ) {
        let eps = eps_i as f64 * 0.5;
        let store = SequenceStore::from_values(db);
        let params = SearchParams::with_epsilon(eps);
        let (truth, _) = Index::exact(&store).unwrap().seq_scan(&q, &params);
        for idx in [
            Index::sparse(&store, Categorization::EqualLength(2)).unwrap(),
            Index::full(&store, Categorization::MaxEntropy(3)).unwrap(),
        ] {
            let metrics = SearchMetrics::new();
            let groups = filter_tree(idx.tree(), idx.alphabet(), &q, &params, &metrics);
            let by_start: std::collections::HashMap<(SeqId, u32), &[u32]> = groups.iter().collect();
            for m in truth.matches() {
                let lens = by_start.get(&(m.occ.seq, m.occ.start));
                prop_assert!(
                    lens.is_some_and(|lens| lens.binary_search(&m.occ.len).is_ok()),
                    "{} dismissed by the filter at eps {}",
                    m.occ,
                    eps
                );
            }
        }
    }
}

/// Deterministic regression: the paper's own intro example.
#[test]
fn intro_example_all_variants() {
    let store = SequenceStore::from_values(vec![
        vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0],
        vec![20.0, 21.0, 20.0, 23.0],
    ]);
    let q = [20.0, 21.0, 20.0, 23.0];
    let params = SearchParams::with_epsilon(0.0);
    for idx in [
        Index::exact(&store).unwrap(),
        Index::full(&store, Categorization::EqualLength(4)).unwrap(),
        Index::sparse(&store, Categorization::MaxEntropy(4)).unwrap(),
    ] {
        let (ans, _) = idx.search(&q, &params);
        // S1 as a whole warps onto Q exactly.
        assert!(
            ans.matches().iter().any(|m| m.occ.seq == SeqId(0)
                && m.occ.start == 0
                && m.occ.len == 8
                && m.dist == 0.0),
            "intro warping match missing"
        );
        // And Q matches itself inside S2.
        assert!(ans
            .matches()
            .iter()
            .any(|m| m.occ.seq == SeqId(1) && m.occ.len == 4 && m.dist == 0.0));
    }
}
