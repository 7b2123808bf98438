//! Table 3 — sequential scanning vs. `SimSearch-SST_C` (ME) with
//! increasing distance-threshold ε.
//!
//! Paper setup: ME-based SST_C with 10, 20, and 80 categories; ε from 5
//! to 50. Expected shapes (paper Table 3):
//!
//! * SeqScan time is nearly flat in ε;
//! * the index is faster at every ε, with the gap largest at small ε
//!   (up to ≈ 35× with 80 categories in the paper);
//! * more categories → faster queries (at these counts) at the cost of
//!   index size;
//! * answer counts grow steeply with ε.

use warptree_bench::{
    banner, build_index, csv_row, csv_sink, measure_index, measure_seqscan, IndexKind, Method,
    Scale,
};
use warptree_core::search::{SearchParams, SeqScanMode};

fn main() {
    let scale = Scale::from_args();
    banner("Table 3: SeqScan vs. SimSearch-SST_C over ε", scale);
    let store = scale.stock();
    let queries = scale.queries(&store);
    let cats = [10usize, 20, 80];
    let epsilons: Vec<f64> = match scale {
        Scale::Quick => vec![2.5, 5.0, 10.0, 15.0, 20.0, 25.0],
        Scale::Full => vec![5.0, 10.0, 20.0, 30.0, 40.0, 50.0],
    };

    let indexes: Vec<_> = cats
        .iter()
        .map(|&c| build_index(&store, IndexKind::Sparse, Method::Me, c))
        .collect();

    let mut csv = csv_sink(
        "table3",
        "epsilon,seqscan_s,sst10_s,sst20_s,sst80_s,sst80_p95_s,answers",
    );
    println!(
        "{:>6} | {:>10} | {:>10} {:>10} {:>10} | {:>9}",
        "ε", "SeqScan", "SST(10)", "SST(20)", "SST(80)", "answers"
    );
    println!("{}", "-".repeat(70));
    for &eps in &epsilons {
        let params = SearchParams::with_epsilon(eps);
        let scan = measure_seqscan(&store, &queries, &params, SeqScanMode::Full);
        let mut cols = Vec::new();
        for built in &indexes {
            cols.push(measure_index(
                &built.tree,
                &built.alphabet,
                &store,
                &queries,
                &params,
            ));
        }
        println!(
            "{:>6.1} | {:>10.3} | {:>10.3} {:>10.3} {:>10.3} | {:>9.0}",
            eps,
            scan.secs_per_query,
            cols[0].secs_per_query,
            cols[1].secs_per_query,
            cols[2].secs_per_query,
            scan.answers_per_query
        );
        let speedups: Vec<String> = cols
            .iter()
            .map(|m| format!("{:.1}x", scan.secs_per_query / m.secs_per_query))
            .collect();
        println!(
            "{:>6} | {:>10} | {:>10} {:>10} {:>10} |",
            "", "speedup", speedups[0], speedups[1], speedups[2]
        );
        // Tail latency of the best configuration.
        println!(
            "{:>6} | {:>10} | {:>10} {:>10} {:>10} |",
            "",
            "p95",
            format!("{:.3}", cols[0].quantile(0.95)),
            format!("{:.3}", cols[1].quantile(0.95)),
            format!("{:.3}", cols[2].quantile(0.95)),
        );
        csv_row(
            &mut csv,
            &format!(
                "{eps},{},{},{},{},{},{}",
                scan.secs_per_query,
                cols[0].secs_per_query,
                cols[1].secs_per_query,
                cols[2].secs_per_query,
                cols[2].quantile(0.95),
                scan.answers_per_query
            ),
        );
    }
    println!(
        "\nshapes to check vs. paper Table 3: index wins at every ε; \
         speedup grows with #categories and shrinks as ε grows."
    );
}
