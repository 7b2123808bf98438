//! Figure 5 — scalability with the number of sequences.
//!
//! Paper setup: artificial sequences of length 200, count swept 1000 →
//! 10000, ME-based `SimSearch-SST_C` vs. sequential scanning. Expected
//! shapes (paper Figure 5): both curves grow *linearly* with the number
//! of sequences; the index's advantage is maintained throughout.

use warptree_bench::{
    banner, build_index, csv_row, csv_sink, measure_index, measure_seqscan, IndexKind, Method,
    Scale,
};
use warptree_core::search::{SearchParams, SeqScanMode};
use warptree_data::{artificial_corpus, ArtificialConfig, QueryConfig, QueryWorkload};

fn main() {
    let scale = Scale::from_args();
    banner("Figure 5: query time vs. number of sequences", scale);
    let (len, counts, n_queries): (usize, Vec<usize>, usize) = match scale {
        Scale::Quick => (100, vec![100, 200, 400, 700, 1000], 4),
        Scale::Full => (200, vec![1000, 2500, 5000, 7500, 10000], 8),
    };
    let epsilon = 10.0;
    let cats = 20;

    println!(
        "sequences of length {len}, ε = {epsilon}, SST_C/ME with {cats} \
         categories\n"
    );
    println!(
        "{:>8} | {:>12} {:>12} | {:>8} | {:>10}",
        "#seqs", "SeqScan(s)", "SST_C(s)", "speedup", "build(s)"
    );
    println!("{}", "-".repeat(62));
    let mut csv = csv_sink("fig5", "sequences,seqscan_s,sst_s,build_s");
    for &n in &counts {
        let store = artificial_corpus(&ArtificialConfig {
            sequences: n,
            len,
            len_jitter: 0,
            seed: 0xF15_0000 + n as u64,
            ..Default::default()
        });
        let queries = QueryWorkload::draw(
            &store,
            &QueryConfig {
                count: n_queries,
                mean_len: 20,
                len_jitter: 4,
                noise_std: 0.5,
                bands: None,
                ..Default::default()
            },
        );
        let params = SearchParams::with_epsilon(epsilon);
        let scan = measure_seqscan(&store, &queries, &params, SeqScanMode::Full);
        let built = build_index(&store, IndexKind::Sparse, Method::Me, cats);
        let idx = measure_index(&built.tree, &built.alphabet, &store, &queries, &params);
        println!(
            "{:>8} | {:>12.3} {:>12.3} | {:>7.1}x | {:>10.2}",
            n,
            scan.secs_per_query,
            idx.secs_per_query,
            scan.secs_per_query / idx.secs_per_query,
            built.build_secs
        );
        csv_row(
            &mut csv,
            &format!(
                "{n},{},{},{}",
                scan.secs_per_query, idx.secs_per_query, built.build_secs
            ),
        );
    }
    println!(
        "\nshapes to check vs. paper Figure 5: both curves grow linearly \
         with the number of sequences; the index advantage persists."
    );
}
