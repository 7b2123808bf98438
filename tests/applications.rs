//! The §8 application loop (mine or search → forecast) as a
//! deterministic integration test: planted regimes' known continuations
//! must drive the forecast.

use warptree::core::analysis::top_motifs;
use warptree::core::predict::{forecast, Weighting};
use warptree::prelude::*;

/// Builds a corpus with two planted regimes following a common prefix:
/// after the pattern `[10, 20, 30]`, half the sequences rise by +5/day
/// ("bull"), half fall by −5/day ("bear").
fn regime_corpus() -> (SequenceStore, Vec<Occurrence>) {
    let mut store = SequenceStore::new();
    let mut plants = Vec::new();
    for i in 0..8u32 {
        let mut v = vec![50.0, 51.0, 49.0]; // noise-ish preamble
        let start = v.len() as u32;
        v.extend([10.0, 20.0, 30.0]); // the queried pattern
        let step = if i % 2 == 0 { 5.0 } else { -5.0 };
        let mut last: f64 = 30.0;
        for _ in 0..4 {
            last += step;
            v.push(last);
        }
        let id = store.push(Sequence::new(v));
        plants.push(Occurrence::new(id, start, 3));
    }
    (store, plants)
}

#[test]
fn regimes_cluster_and_forecast_correctly() {
    let (store, plants) = regime_corpus();
    let index = Index::exact(&store).unwrap();
    let query = [10.0, 20.0, 30.0];
    let params = SearchParams::with_epsilon(0.0);
    let (answers, _) = index.search(&query, &params);

    // Every plant is found exactly.
    let occs = answers.occurrence_set();
    for p in &plants {
        assert!(occs.binary_search(p).is_ok(), "plant {p} missing");
    }
    let matches: Vec<Match> = answers
        .matches()
        .iter()
        .copied()
        .filter(|m| plants.contains(&m.occ))
        .collect();
    assert_eq!(matches.len(), 8);

    // Forecast over ALL matches: bull and bear cancel to ~0 mean with a
    // wide range.
    let all = forecast(&store, &matches, 4, Weighting::Uniform).unwrap();
    assert!(all.mean[0].abs() < 1e-9, "mixed mean {:?}", all.mean);
    assert_eq!(all.low[0], -5.0);
    assert_eq!(all.high[0], 5.0);
    assert_eq!(all.support, vec![8, 8, 8, 8]);

    // Forecasting within one regime is decisive.
    for parity in [0, 1] {
        let members: Vec<Match> = matches
            .iter()
            .copied()
            .filter(|m| m.occ.seq.0 % 2 == parity)
            .collect();
        let f = forecast(&store, &members, 4, Weighting::Uniform).unwrap();
        let expected = if parity == 0 { 5.0 } else { -5.0 };
        assert_eq!(
            f.mean,
            vec![expected, 2.0 * expected, 3.0 * expected, 4.0 * expected]
        );
        assert_eq!(f.low, f.high); // regimes are deterministic
    }
}

#[test]
fn motif_to_forecast_pipeline() {
    // Mine the most frequent shape, then forecast its continuations —
    // the full rule-discovery loop without any hand-picked query.
    use std::sync::Arc;
    use warptree_suffix::build_full;

    let (store, _) = regime_corpus();
    let alphabet = Alphabet::max_entropy(&store, 12).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let tree = DiskTree::from_tree(&build_full(cat));
    let motifs = top_motifs(&tree, 3, 3).unwrap();
    assert!(!motifs.is_empty());
    // The planted pattern occurs 8 times; it must be the top length-3
    // motif (the preamble repeats too, but is only 1 window per seq).
    let top = &motifs[0];
    assert!(top.count >= 8, "top motif count {}", top.count);
    let matches: Vec<Match> = top
        .occurrences
        .iter()
        .map(|&(seq, start)| Match {
            occ: Occurrence::new(seq, start, 3),
            dist: 0.0,
        })
        .collect();
    let f = forecast(&store, &matches, 2, Weighting::Uniform);
    assert!(f.is_some());
    assert!(f.unwrap().support[0] >= 8);
}
