//! Table 1 — index sizes with increasing number of categories.
//!
//! Paper setup: 545 stock sequences (mean length 232); columns ST,
//! ST_C (EL/ME) and SST_C (EL/ME); category counts 10–300. Expected
//! shapes (paper Table 1):
//!
//! * ST is enormous (≈ 80× the database) and independent of `c`;
//! * ST_C and SST_C grow with the number of categories;
//! * SST_C < ST_C < ST at every category count;
//! * ME indexes are larger than EL (balanced categories split the long
//!   flat runs that EL lumps into one bucket).

use warptree_bench::{
    banner, build_index, database_size, group_digits, kib, materialized_size, IndexKind, Method,
    Scale,
};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Table 1: index sizes (KiB on disk) vs. number of categories",
        scale,
    );
    let store = scale.stock();
    println!(
        "database: {} sequences, mean length {:.0}, {} KiB raw\n",
        store.len(),
        store.mean_len(),
        kib(database_size(&store))
    );

    let exact = build_index(&store, IndexKind::Exact, Method::El, 0);
    let st_size = exact.tree.logical_len();
    // The paper's trees inline edge labels; ours store (seq,start,len)
    // references. Both metrics are reported: "ref" is our file size,
    // "inline" matches the paper's representation (raw 8-byte values for
    // ST, 4-byte symbols for the categorized trees).
    let st_inline = materialized_size(&exact.tree, 8);
    println!(
        "ST (uncategorized): {} KiB ref / {} KiB inline, {} nodes, \
         built in {:.2}s",
        kib(st_size),
        kib(st_inline),
        group_digits(exact.tree.header().node_count),
        exact.build_secs
    );

    for metric in ["ref", "inline"] {
        println!(
            "\n[{metric}] {:>6} | {:>12} {:>12} | {:>12} {:>12}",
            "#cats", "ST_C/EL", "ST_C/ME", "SST_C/EL", "SST_C/ME"
        );
        println!("{}", "-".repeat(72));
        for c in scale.category_counts() {
            let mut row = Vec::new();
            for (kind, method) in [
                (IndexKind::Full, Method::El),
                (IndexKind::Full, Method::Me),
                (IndexKind::Sparse, Method::El),
                (IndexKind::Sparse, Method::Me),
            ] {
                let built = build_index(&store, kind, method, c);
                row.push(if metric == "ref" {
                    built.tree.logical_len()
                } else {
                    materialized_size(&built.tree, 4)
                });
            }
            println!(
                "[{metric}] {:>6} | {:>12} {:>12} | {:>12} {:>12}",
                c,
                kib(row[0]),
                kib(row[1]),
                kib(row[2]),
                kib(row[3])
            );
        }
    }
    println!(
        "\nshapes to check vs. paper Table 1 (inline metric): \
         SST_C < ST_C << ST; sizes grow with #cats; ME > EL."
    );
}
