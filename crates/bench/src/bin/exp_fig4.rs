//! Figure 4 — scalability with the average length of sequences.
//!
//! Paper setup: 200 artificial sequences, average length swept 200 →
//! 1000, ME-based `SimSearch-SST_C` vs. sequential scanning, category
//! count chosen to keep the index smaller than the database. Expected
//! shapes (paper Figure 4): both curves grow roughly *quadratically*
//! with the length; the index stays well below the scan everywhere.

use warptree_bench::{
    banner, build_index, csv_row, csv_sink, measure_index, measure_seqscan, to_disk, IndexKind,
    Method, Scale,
};
use warptree_core::search::{SearchParams, SeqScanMode};
use warptree_data::{artificial_corpus, ArtificialConfig, QueryConfig, QueryWorkload};

fn main() {
    let scale = Scale::from_args();
    banner("Figure 4: query time vs. average sequence length", scale);
    let (n_seqs, lengths, n_queries): (usize, Vec<usize>, usize) = match scale {
        Scale::Quick => (60, vec![100, 200, 300, 400, 500], 5),
        Scale::Full => (200, vec![200, 400, 600, 800, 1000], 10),
    };
    let epsilon = 10.0;
    // Few categories keep the index below the database size, as in the
    // paper's scalability setup.
    let cats = 20;

    println!(
        "{} artificial sequences, ε = {epsilon}, SST_C/ME with {cats} \
         categories\n",
        n_seqs
    );
    println!(
        "{:>8} | {:>12} {:>12} | {:>8} | {:>14} {:>14}",
        "length", "SeqScan(s)", "SST_C(s)", "speedup", "scan cells", "index cells"
    );
    println!("{}", "-".repeat(80));
    let mut csv = csv_sink("fig4", "length,seqscan_s,sst_s,scan_cells,index_cells");
    for &len in &lengths {
        let store = artificial_corpus(&ArtificialConfig {
            sequences: n_seqs,
            len,
            len_jitter: len / 10,
            seed: 0xF14_0000 + len as u64,
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
        let dsk = to_disk(&built, "fig");
        let idx = measure_index(&dsk.disk, &built.alphabet, &store, &queries, &params);
        println!(
            "{:>8} | {:>12.3} {:>12.3} | {:>7.1}x | {:>14.2e} {:>14.2e}",
            len,
            scan.secs_per_query,
            idx.secs_per_query,
            scan.secs_per_query / idx.secs_per_query,
            scan.cells_per_query,
            idx.cells_per_query
        );
        csv_row(
            &mut csv,
            &format!(
                "{len},{},{},{},{}",
                scan.secs_per_query, idx.secs_per_query, scan.cells_per_query, idx.cells_per_query
            ),
        );
    }
    println!(
        "\nshapes to check vs. paper Figure 4: both curves grow \
         ~quadratically with length; SST_C stays well below SeqScan."
    );
}
