//! Quickstart: index a handful of sequences and run a time-warping
//! subsequence search.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the paper's introductory scenario: two stocks sampled at
//! different rates are identical under time warping, so a search with
//! ε = 0 finds both — something no Euclidean-distance index can do.

use warptree::prelude::*;

fn main() {
    // S1: daily closing prices. S2: the same movement sampled every
    // other day (the paper's §1 example).
    let store = SequenceStore::from_values(vec![
        vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0],
        vec![20.0, 21.0, 20.0, 23.0],
        vec![55.0, 54.0, 57.0, 60.0, 59.0, 59.5],
    ]);

    // Build a sparse, max-entropy-categorized suffix-tree index — the
    // paper's best configuration (SST_C with ME categorization).
    let index = Index::sparse(&store, Categorization::MaxEntropy(6)).expect("valid categorization");
    println!(
        "indexed {} sequences ({} elements) into {} tree nodes",
        store.len(),
        store.total_len(),
        index.tree().header().node_count
    );

    // Query: the pattern of S2. Find every subsequence within warping
    // distance 1.0 of it.
    let query = [20.0, 21.0, 20.0, 23.0];
    let params = SearchParams::with_epsilon(1.0);
    let (answers, stats) = index.search(&query, &params);

    let mut sorted = answers.clone();
    sorted.sort();
    println!(
        "\n{} answers within ε = {} (filter visited {} nodes, pruned {} \
         branches, {} candidates post-processed):",
        sorted.len(),
        params.epsilon,
        stats.nodes_visited,
        stats.branches_pruned,
        stats.postprocessed
    );
    for m in sorted.matches().iter().take(12) {
        println!(
            "  {}  dist {:.2}  values {:?}",
            m.occ,
            m.dist,
            store.occurrence_values(m.occ)
        );
    }

    // The headline: the differently-sampled S1 matches exactly.
    let s1_match = answers
        .matches()
        .iter()
        .find(|m| m.occ.seq == SeqId(0) && m.occ.len == 8)
        .expect("S1 must match under time warping");
    println!(
        "\nS1 (8 days) matched the 4-element query with distance {} — \
         different sampling rates, identical shape.",
        s1_match.dist
    );

    // Everything the index returns is verified exact — compare with the
    // brute-force scan.
    let (scan, _) = index.seq_scan(&query, &params);
    assert_eq!(answers.occurrence_set(), scan.occurrence_set());
    println!("verified against sequential scan: identical answer sets ✓");
}
