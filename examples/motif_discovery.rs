//! Motif discovery + similarity search: mine the most frequent shape
//! motifs from a stock database, then use the *same* index to find all
//! their near-occurrences — the paper's §8 "rule discovery" application.
//!
//! ```text
//! cargo run --release --example motif_discovery
//! ```
//!
//! Pipeline:
//! 1. categorize the price series and build a full suffix tree;
//! 2. mine the top length-8 motifs and the longest repeated shape
//!    directly from the tree structure;
//! 3. turn the best motif back into a numeric query (category midpoints)
//!    and run the time-warping search to count near-occurrences of any
//!    length.

use std::sync::Arc;
use warptree::core::analysis::{longest_repeated, top_motifs};
use warptree::prelude::*;

fn main() {
    let store = stock_corpus(&StockConfig {
        sequences: 120,
        mean_len: 160,
        seed: 0x40E1F,
        ..Default::default()
    });
    println!(
        "market: {} series ({} points)",
        store.len(),
        store.total_len()
    );

    // Coarse alphabet: motifs should generalize, not memorize.
    let alphabet = Alphabet::max_entropy(&store, 8).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let tree = DiskTree::from_tree(&build_full(cat.clone()));
    println!(
        "full suffix tree: {} nodes over an alphabet of {}",
        tree.header().node_count,
        alphabet.len()
    );

    // --- mine ------------------------------------------------------------
    let motif_len = 8;
    let motifs = top_motifs(&tree, motif_len, 5).expect("a full tree");
    println!("\ntop length-{motif_len} shape motifs:");
    for (rank, m) in motifs.iter().enumerate() {
        println!(
            "  #{}  {:>4} occurrences  shape {}",
            rank + 1,
            m.count,
            render(&m.symbols, alphabet.len())
        );
    }
    let longest = longest_repeated(&tree, 3)
        .expect("a full tree")
        .expect("repeats exist");
    println!(
        "\nlongest shape repeated ≥ 3 times: {} symbols, {} occurrences",
        longest.symbols.len(),
        longest.count
    );

    // --- search ----------------------------------------------------------
    // Lift the top motif back to numbers via category midpoints.
    let top = &motifs[0];
    let query: Vec<f64> = top
        .symbols
        .iter()
        .map(|&s| {
            let c = alphabet.category(s);
            (c.lb + c.ub) / 2.0
        })
        .collect();
    // Choosing ε as the sum of category half-widths guarantees every
    // mined (exact-category) occurrence stays within range of the
    // midpoint query via the diagonal alignment.
    let eps: f64 = top
        .symbols
        .iter()
        .map(|&s| {
            let c = alphabet.category(s);
            (c.ub - c.lb) / 2.0
        })
        .sum::<f64>()
        + 1e-9;
    let params = SearchParams::with_epsilon(eps).windowed(3);
    let metrics = SearchMetrics::new();
    let t0 = std::time::Instant::now();
    let candidates = filter_tree(&tree, &alphabet, &query, &params, &metrics);
    let answers = postprocess(&store, &query, &candidates, &params, &metrics);
    println!(
        "\nnear-occurrences of motif #1 (ε = {eps:.1}, window 3): {} \
         matches of lengths {}..{} in {:.2?}",
        answers.len(),
        answers
            .matches()
            .iter()
            .map(|m| m.occ.len)
            .min()
            .unwrap_or(0),
        answers
            .matches()
            .iter()
            .map(|m| m.occ.len)
            .max()
            .unwrap_or(0),
        t0.elapsed()
    );
    // Every exact occurrence the miner reported must be rediscovered by
    // the search (it has warping distance ≈ within-category spread).
    let found: std::collections::HashSet<(u32, u32)> = answers
        .matches()
        .iter()
        .map(|m| (m.occ.seq.0, m.occ.start))
        .collect();
    let rediscovered = top
        .occurrences
        .iter()
        .filter(|&&(s, p)| found.contains(&(s.0, p)))
        .count();
    println!(
        "{} of the {} mined occurrences rediscovered by the ε-search ✓",
        rediscovered, top.count
    );
    assert_eq!(
        rediscovered as u64, top.count,
        "every mined occurrence must be rediscovered"
    );
}

/// Renders a symbol string as a level chart.
fn render(symbols: &[u32], alpha: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    symbols
        .iter()
        .map(|&s| BARS[(s as usize * (BARS.len() - 1)) / (alpha - 1).max(1)])
        .collect()
}
