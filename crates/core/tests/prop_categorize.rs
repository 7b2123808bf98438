//! Property tests for categorization and the lower-bound base distance
//! (paper §5).

use proptest::prelude::*;
use warptree_core::bounds::{dtw_lb, dtw_lb2, lead_run};
use warptree_core::categorize::Alphabet;
use warptree_core::dtw::dtw;
use warptree_core::sequence::SequenceStore;

fn db() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((-100i32..100).prop_map(|v| v as f64 * 0.5), 1..20),
        1..5,
    )
}

fn alphabets(store: &SequenceStore, c: usize) -> Vec<Alphabet> {
    vec![
        Alphabet::equal_length(store, c).unwrap(),
        Alphabet::max_entropy(store, c).unwrap(),
        Alphabet::kmeans(store, c, 30).unwrap(),
        Alphabet::singleton(store).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every stored value maps to a category whose observed bounds
    /// contain it, so its base lower bound is zero.
    #[test]
    fn every_value_in_its_category(values in db(), c in 1usize..8) {
        let store = SequenceStore::from_values(values);
        for a in alphabets(&store, c) {
            for (_, s) in store.iter() {
                for &v in s.values() {
                    let sym = a.symbol_for(v);
                    let cat = a.category(sym);
                    prop_assert!(
                        cat.lb <= v && v <= cat.ub,
                        "{v} outside observed bounds of its category \
                         [{}, {}] ({})",
                        cat.lb,
                        cat.ub,
                        a.method()
                    );
                    prop_assert_eq!(a.base_lb(v, sym), 0.0);
                }
            }
        }
    }

    /// Categories are ordered and non-overlapping; lookup is consistent
    /// with the boundaries.
    #[test]
    fn categories_ordered_disjoint(values in db(), c in 1usize..8) {
        let store = SequenceStore::from_values(values);
        for a in alphabets(&store, c) {
            for w in a.categories().windows(2) {
                prop_assert!(w[0].lo <= w[1].lo);
                prop_assert!(w[0].ub <= w[1].lb + 1e-12);
            }
        }
    }

    /// `base_lb(x, B)` is the true minimum city-block distance between
    /// `x` and any *stored* value of category `B` (brute-forced).
    #[test]
    fn base_lb_is_tight_minimum(
        values in db(),
        c in 1usize..6,
        probe in (-250i32..250).prop_map(|v| v as f64 * 0.25),
    ) {
        let store = SequenceStore::from_values(values);
        for a in alphabets(&store, c) {
            // Collect members per category.
            let mut members: Vec<Vec<f64>> = vec![Vec::new(); a.len()];
            for (_, s) in store.iter() {
                for &v in s.values() {
                    members[a.symbol_for(v) as usize].push(v);
                }
            }
            for (sym, m) in members.iter().enumerate() {
                if m.is_empty() {
                    continue;
                }
                let brute = m
                    .iter()
                    .map(|&v| (probe - v).abs())
                    .fold(f64::INFINITY, f64::min);
                let lb = a.base_lb(probe, sym as u32);
                prop_assert!(
                    lb <= brute + 1e-9,
                    "base_lb {lb} exceeds true min {brute}"
                );
                // Tight at the boundary: equality when the probe is
                // outside the observed interval (nearest member is an
                // endpoint).
                let cat = a.category(sym as u32);
                if probe < cat.lb || probe > cat.ub {
                    let endpoint =
                        (probe - cat.lb).abs().min((probe - cat.ub).abs());
                    prop_assert!((lb - endpoint).abs() < 1e-9);
                }
            }
        }
    }

    /// Theorem 2 for every categorization method: `D_tw-lb ≤ D_tw`.
    #[test]
    fn theorem2_all_methods(
        values in db(),
        c in 1usize..6,
        q in prop::collection::vec((-100i32..100).prop_map(|v| v as f64 * 0.5), 1..6),
    ) {
        let store = SequenceStore::from_values(values);
        for a in alphabets(&store, c) {
            for (_, s) in store.iter() {
                let cs = a.encode(s.values());
                let lb = dtw_lb(&q, &cs, &a);
                let exact = dtw(&q, s.values());
                prop_assert!(
                    lb <= exact + 1e-9,
                    "lb {lb} > exact {exact} ({})",
                    a.method()
                );
                // Singleton alphabets are exact.
                if a.len() >= store.iter().flat_map(|(_, s)| s.values())
                    .count()
                {
                    // (all values distinct) — not necessarily singleton,
                    // skip equality check here; covered below.
                }
            }
        }
    }

    /// Theorem 3 for run-prefixed suffixes: `lb2 ≤ lb ≤ exact`, and the
    /// first cell's `d₁` floors both bounds with no slack at all.
    #[test]
    fn theorem3_all_methods(
        run_sym in 0usize..3,
        run_len in 2usize..6,
        tail in prop::collection::vec((-40i32..40).prop_map(|v| v as f64), 1..6),
        q in prop::collection::vec((-40i32..40).prop_map(|v| v as f64), 1..5),
    ) {
        // Construct a sequence whose categorized form has a leading run:
        // repeat a value, then append a tail.
        let lead_val = run_sym as f64 * 30.0 - 30.0;
        let mut values = vec![lead_val; run_len];
        values.extend(tail.iter().map(|v| v + 100.0)); // distinct range
        let store = SequenceStore::from_values(vec![values.clone()]);
        let a = Alphabet::equal_length(&store, 4).unwrap();
        let cs = a.encode(&values);
        let n = lead_run(&cs);
        for shift in 1..n.min(values.len() - 1) {
            let lb2 = dtw_lb2(&q, &cs, shift as u32, &a);
            let lb = dtw_lb(&q, &cs[shift..], &a);
            let exact = dtw(&q, &values[shift..]);
            prop_assert!(lb2 <= lb + 1e-9, "lb2 {lb2} > lb {lb}");
            prop_assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
            let d1 = a.base_lb(q[0], cs[0]);
            prop_assert!(d1 <= lb, "d1 {d1} > lb {lb}");
            prop_assert!(d1 <= exact, "d1 {d1} > exact {exact}");
        }
    }

    /// Singleton alphabets make the lower bound exact.
    #[test]
    fn singleton_lb_is_exact(
        values in db(),
        q in prop::collection::vec((-100i32..100).prop_map(|v| v as f64 * 0.5), 1..5),
    ) {
        let store = SequenceStore::from_values(values);
        let a = Alphabet::singleton(&store).unwrap();
        for (_, s) in store.iter() {
            let cs = a.encode(s.values());
            prop_assert!(
                (dtw_lb(&q, &cs, &a) - dtw(&q, s.values())).abs() < 1e-9
            );
        }
    }

    /// Encoding round-trips through symbols deterministically, and the
    /// compaction structure (runs) mirrors the raw encoding.
    #[test]
    fn encoding_deterministic(values in db(), c in 1usize..6) {
        let store = SequenceStore::from_values(values);
        let a = Alphabet::max_entropy(&store, c).unwrap();
        let cs1 = a.encode_store(&store);
        let cs2 = a.encode_store(&store);
        prop_assert_eq!(cs1.seqs(), cs2.seqs());
        // run_len agrees with a scan of the symbols.
        for (i, s) in cs1.seqs().iter().enumerate() {
            for p in 0..s.len() {
                let mut n = 1;
                while p + n < s.len() && s[p + n] == s[p] {
                    n += 1;
                }
                prop_assert_eq!(
                    cs1.run_len(
                        warptree_core::sequence::SeqId(i as u32),
                        p as u32
                    ),
                    n as u32
                );
            }
        }
    }
}
