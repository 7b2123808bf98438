//! The paper's §8 application loop on one screen: **search** a recent
//! price history against the market and **forecast** what followed the
//! matching episodes — the "predictions" the paper motivates.
//!
//! ```text
//! cargo run --release --example analyst_workbench
//! ```

use warptree::core::predict::{forecast, Weighting};
use warptree::prelude::*;

fn main() {
    // The market and "today's" subject stock.
    let store = stock_corpus(&StockConfig {
        sequences: 250,
        mean_len: 220,
        seed: 0xA11A,
        ..Default::default()
    });
    let subject = SeqId(42);
    let subject_len = store.get(subject).len() as u32;
    // The last 15 closes of the subject are the query history.
    let history = store.get(subject).subseq(subject_len - 15, 15).to_vec();
    println!(
        "subject {subject}: last {} closes in [{:.2}, {:.2}]",
        history.len(),
        history.iter().cloned().fold(f64::INFINITY, f64::min),
        history.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );

    // --- search ----------------------------------------------------------
    let index =
        Index::sparse(&store, Categorization::MaxEntropy(60)).expect("valid categorization");
    let eps = 0.6 * history.len() as f64;
    let params = SearchParams::with_epsilon(eps).windowed(5);
    let t0 = std::time::Instant::now();
    let (answers, _) = index.search(&history, &params);
    // Distinct episodes only, and not the trivial self-match.
    let episodes: Vec<Match> = answers
        .non_overlapping()
        .into_iter()
        .filter(|m| !(m.occ.seq == subject && m.occ.end() == subject_len))
        .take(24)
        .collect();
    println!(
        "found {} similar episodes across the market in {:.2?} \
         ({} raw matches)",
        episodes.len(),
        t0.elapsed(),
        answers.len()
    );
    assert!(episodes.len() >= 4, "need episodes to analyze");

    // --- forecast ----------------------------------------------------------
    let overall = forecast(
        &store,
        &episodes,
        5,
        Weighting::InverseDistance { lambda: 0.5 },
    )
    .expect("episodes have continuations");
    let path: Vec<String> = overall.mean.iter().map(|d| format!("{d:+.2}")).collect();
    println!(
        "\nwhat followed (5-day horizon, Δ from last close): {}  \
         (day-1 range {:+.2}..{:+.2})",
        path.join(" → "),
        overall.low[0],
        overall.high[0]
    );
    let last = *history.last().unwrap();
    println!(
        "\nblended 1-day-ahead estimate: {:.2} (today {:.2}, {} episodes)",
        last + overall.mean[0],
        last,
        overall.support[0]
    );
}
