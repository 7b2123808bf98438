//! Stock screener: find stocks whose price history contains a pattern
//! similar to a reference movement — the paper's motivating application
//! ("detecting stocks that have similar growth patterns").
//!
//! ```text
//! cargo run --release --example stock_screener
//! ```
//!
//! Builds a 300-stock synthetic corpus, takes one stock's recent
//! "V-shaped recovery" as the reference pattern, and screens the whole
//! database for subsequences of *any* length that warp onto it. Results
//! are ranked by distance and deduplicated per stock.

use warptree::prelude::*;

fn main() {
    // A synthetic market: 300 stocks with the paper's price-band mixture.
    let store = stock_corpus(&StockConfig {
        sequences: 300,
        mean_len: 250,
        seed: 0xCAFE,
        ..Default::default()
    });
    println!(
        "market: {} stocks, {} closing prices total",
        store.len(),
        store.total_len()
    );

    // Reference pattern: a V-shaped recovery, hand-drawn around $40.
    // Time warping lets it match recoveries that played out over more
    // (or fewer) days.
    let pattern: Vec<f64> = vec![
        44.0, 43.0, 41.5, 40.0, 38.5, 38.0, 38.5, 40.0, 42.0, 44.5, 46.0,
    ];

    let t0 = std::time::Instant::now();
    let index =
        Index::sparse(&store, Categorization::MaxEntropy(60)).expect("valid categorization");
    println!(
        "built SST_C/ME(60) index: {} nodes in {:.2?}",
        index.tree().header().node_count,
        t0.elapsed()
    );

    // Screen: tolerance scales with pattern length (≈ $0.9/day warped).
    let eps = 0.9 * pattern.len() as f64;
    // A warping window keeps matches between half and double the
    // pattern's duration and speeds up the search (paper §8).
    let params = SearchParams::with_epsilon(eps).windowed(6);
    let t0 = std::time::Instant::now();
    let (answers, stats) = index.search(&pattern, &params);
    println!(
        "screened in {:.2?}: {} raw matches, {} candidates verified, \
         {} branches pruned",
        t0.elapsed(),
        answers.len(),
        stats.postprocessed,
        stats.branches_pruned
    );

    // Rank: best (lowest-distance) match per stock.
    let ranked = answers.best_per_sequence();

    println!("\ntop V-recovery candidates (best window per stock):");
    println!(
        "{:>6} {:>12} {:>8} {:>8}  shape",
        "stock", "window", "days", "dist"
    );
    for m in ranked.iter().take(10) {
        let values = store.occurrence_values(m.occ);
        println!(
            "{:>8} {:>12} {:>8} {:>8.2}  {}",
            store.display_name(m.occ.seq),
            format!("[{}..{}]", m.occ.start + 1, m.occ.start + m.occ.len),
            m.occ.len,
            m.dist,
            sparkline(values)
        );
    }
    if ranked.is_empty() {
        println!("  (no stock matched — try a larger ε)");
    } else {
        // Matches of different lengths prove the "different lengths"
        // part of the title.
        let lens: std::collections::HashSet<u32> = ranked.iter().map(|m| m.occ.len).collect();
        println!(
            "\nmatched durations range over {:?} days — warping matched \
             recoveries of different speeds.",
            {
                let mut v: Vec<u32> = lens.into_iter().collect();
                v.sort_unstable();
                v
            }
        );
    }
}

/// Renders values as a unicode sparkline.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let span = (hi - lo).max(1e-9);
    values
        .iter()
        .map(|&v| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}
