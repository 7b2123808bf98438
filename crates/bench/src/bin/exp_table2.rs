//! Table 2 — average query processing time of the three search
//! algorithms with increasing number of categories (ε fixed).
//!
//! Paper setup: stock corpus, average distance-tolerance 30, mean query
//! length 20. Expected shapes (paper Table 2):
//!
//! * `SimSearch-ST` is a single column (category-independent) and slower
//!   than the categorized searches at their sweet spot;
//! * categorized searches get faster as categories increase, then slow
//!   down past an optimum (the U-shape; the paper reports optima around
//!   120–200 categories);
//! * `SimSearch-SST_C` ≤ `SimSearch-ST_C` on similar-size indexes.

use warptree_bench::{banner, build_index, measure_index, IndexKind, Method, Scale};
use warptree_core::search::SearchParams;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Table 2: mean query time (s) vs. number of categories",
        scale,
    );
    let store = scale.stock();
    let queries = scale.queries(&store);
    let epsilon = match scale {
        Scale::Quick => 15.0,
        Scale::Full => 30.0, // the paper's average distance-tolerance
    };
    let params = SearchParams::with_epsilon(epsilon);
    println!(
        "ε = {epsilon}, {} queries of mean length 20\n",
        queries.len()
    );

    // All indexes are measured as served: the bytes of their files,
    // each node record read in place on every visit.
    let exact = build_index(&store, IndexKind::Exact, Method::El, 0);
    let st = measure_index(&exact.tree, &exact.alphabet, &store, &queries, &params);
    println!(
        "SimSearch-ST: {:.3} s/query ({:.1}M cells, {:.0} answers)\n",
        st.secs_per_query,
        st.cells_per_query / 1e6,
        st.answers_per_query
    );

    println!(
        "{:>6} | {:>11} {:>11} | {:>11} {:>11}",
        "#cats", "ST_C/EL", "ST_C/ME", "SST_C/EL", "SST_C/ME"
    );
    println!("{}", "-".repeat(60));
    for c in scale.category_counts() {
        let mut cols = Vec::new();
        for (kind, method) in [
            (IndexKind::Full, Method::El),
            (IndexKind::Full, Method::Me),
            (IndexKind::Sparse, Method::El),
            (IndexKind::Sparse, Method::Me),
        ] {
            let built = build_index(&store, kind, method, c);
            let m = measure_index(&built.tree, &built.alphabet, &store, &queries, &params);
            cols.push(m);
        }
        println!(
            "{:>6} | {:>11.3} {:>11.3} | {:>11.3} {:>11.3}",
            c,
            cols[0].secs_per_query,
            cols[1].secs_per_query,
            cols[2].secs_per_query,
            cols[3].secs_per_query
        );
        // Machine-independent cost: table cells (filter + post-process).
        println!(
            "{:>6} | {:>10.2}M {:>10.2}M | {:>10.2}M {:>10.2}M",
            "cells",
            cols[0].cells_per_query / 1e6,
            cols[1].cells_per_query / 1e6,
            cols[2].cells_per_query / 1e6,
            cols[3].cells_per_query / 1e6
        );
    }
    println!(
        "\nshapes to check vs. paper Table 2: time falls then rises with \
         #cats (U-shape); SST_C ≤ ST_C; ME best at small #cats."
    );
}
