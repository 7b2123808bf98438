//! Disk-resident indexing: build a suffix-tree index incrementally with
//! binary merges (paper §4.1), persist the corpus, then reopen
//! everything from disk and query it — the full life cycle of a
//! database larger than memory.
//!
//! ```text
//! cargo run --release --example disk_index
//! ```

use std::sync::Arc;
use warptree::prelude::*;
use warptree_disk::{load_corpus, save_corpus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("warptree-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // ---- Build phase (imagine this is an ingest job) -------------------
    let store = stock_corpus(&StockConfig {
        sequences: 400,
        mean_len: 200,
        seed: 7,
        ..Default::default()
    });
    let alphabet = warptree::core::categorize::Alphabet::max_entropy(&store, 40)?;
    let cat = Arc::new(alphabet.encode_store(&store));

    // Persist the corpus (sequences + categorization).
    let corpus_path = dir.join("market.corpus");
    let corpus_bytes = save_corpus(&store, &alphabet, &corpus_path)?;
    println!(
        "corpus: {} sequences -> {} ({} KiB)",
        store.len(),
        corpus_path.display(),
        corpus_bytes / 1024
    );

    // Build the sparse index in batches of 50 sequences, merging partial
    // trees pairwise in memory: only the final index is written.
    let index_path = dir.join("market.sstc");
    let t0 = std::time::Instant::now();
    let index_bytes =
        IncrementalBuilder::new(cat.clone(), TreeKind::Sparse, 50).build(&index_path)?;
    println!(
        "index: built incrementally (batches of 50, binary merges) in \
         {:.2?} -> {} KiB on disk",
        t0.elapsed(),
        index_bytes / 1024
    );
    drop((store, alphabet, cat)); // everything below comes from disk

    // ---- Query phase (a fresh process would start here) ----------------
    let (store, alphabet, cat) = load_corpus(&corpus_path)?;
    // The open reads the file whole and checks every page's CRC.
    let tree = DiskTree::open(&index_path, cat)?;
    println!(
        "reopened: {} stored suffixes, sparse = {}",
        warptree::core::search::IndexBackend::suffix_count(&tree),
        tree.header().sparse,
    );

    let queries = QueryWorkload::draw(
        &store,
        &QueryConfig {
            count: 3,
            mean_len: 18,
            noise_std: 0.4,
            ..Default::default()
        },
    );
    let params = SearchParams::with_epsilon(12.0);
    for (i, q) in queries.queries().iter().enumerate() {
        let t0 = std::time::Instant::now();
        let (out, stats) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q.values, params.clone()),
        )
        .unwrap();
        let answers = out.into_answer_set();
        let top = answers.top_k(3);
        println!(
            "\nquery {} (len {}, drawn from {}): {} answers in {:.2?} \
             ({} nodes visited)",
            i + 1,
            q.values.len(),
            q.source,
            answers.len(),
            t0.elapsed(),
            stats.nodes_visited
        );
        for m in top {
            println!("   best: {}  dist {:.2}", m.occ, m.dist);
        }
    }

    println!(
        "\npager: {} pages read at open, none by the queries",
        tree.io_stats().pages_read
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
