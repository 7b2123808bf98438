//! Medium-scale deterministic end-to-end check: a realistic corpus,
//! multiple queries and thresholds, every index variant (memory + disk)
//! against the exact scan. Complements the randomized property tests
//! with a fixed workload large enough to exercise deep trees, long
//! runs, and non-trivial candidate volumes.

use std::sync::Arc;
use warptree::prelude::*;
use warptree_disk::{write_tree, DiskTree};
use warptree_suffix::{build_full, build_sparse};

#[test]
fn medium_stock_corpus_all_variants() {
    let store = stock_corpus(&StockConfig {
        sequences: 60,
        mean_len: 100,
        len_std: 15.0,
        seed: 0xBEEF,
        ..Default::default()
    });
    let workload = QueryWorkload::draw(
        &store,
        &QueryConfig {
            count: 5,
            mean_len: 12,
            len_jitter: 3,
            noise_std: 0.8,
            ..Default::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("warptree-medium-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let configs: Vec<(String, Alphabet)> = vec![
        ("exact".into(), Alphabet::singleton(&store).unwrap()),
        ("el16".into(), Alphabet::equal_length(&store, 16).unwrap()),
        ("me16".into(), Alphabet::max_entropy(&store, 16).unwrap()),
        ("me64".into(), Alphabet::max_entropy(&store, 64).unwrap()),
        ("km16".into(), Alphabet::kmeans(&store, 16, 50).unwrap()),
    ];

    for eps in [1.0, 5.0, 12.0] {
        for windowed in [None, Some(4u32)] {
            let mut params = SearchParams::with_epsilon(eps);
            params.window = windowed;
            for (qi, q) in workload.queries().iter().enumerate() {
                let mut scan_stats = SearchStats::default();
                let expected = seq_scan(
                    &store,
                    &q.values,
                    &params,
                    SeqScanMode::EarlyAbandon,
                    &mut scan_stats,
                )
                .occurrence_set();
                for (name, alphabet) in &configs {
                    let cat = Arc::new(alphabet.encode_store(&store));
                    for (kind, tree) in [
                        ("full", build_full(cat.clone())),
                        ("sparse", build_sparse(cat.clone())),
                    ] {
                        let mem_tree = DiskTree::from_tree(&tree);
                        let (mem, _) = run_query(
                            &mem_tree,
                            alphabet,
                            &store,
                            &QueryRequest::threshold_params(&q.values, params.clone()),
                        )
                        .unwrap();
                        let mem = mem.into_answer_set();
                        assert_eq!(
                            mem.occurrence_set(),
                            expected,
                            "mem {name}/{kind} eps {eps} w {windowed:?} q{qi}"
                        );
                        // Disk round trip for a subset (expensive).
                        if eps == 5.0 && qi == 0 {
                            let path = dir.join(format!("{name}-{kind}.wt"));
                            write_tree(&tree, &path).unwrap();
                            let disk = DiskTree::open(&path, cat.clone()).unwrap();
                            let (d, _) = run_query(
                                &disk,
                                alphabet,
                                &store,
                                &QueryRequest::threshold_params(&q.values, params.clone()),
                            )
                            .unwrap();
                            let d = d.into_answer_set();
                            assert_eq!(d.occurrence_set(), expected, "disk {name}/{kind}");
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn medium_artificial_corpus_sparse_me() {
    // The paper's artificial data at moderate scale, checking stats
    // consistency along with answers.
    let store = artificial_corpus(&ArtificialConfig {
        sequences: 80,
        len: 90,
        len_jitter: 10,
        seed: 0xACE,
        ..Default::default()
    });
    let alphabet = Alphabet::max_entropy(&store, 24).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let tree = DiskTree::from_tree(&build_sparse(cat));
    let workload = QueryWorkload::draw(
        &store,
        &QueryConfig {
            count: 4,
            mean_len: 15,
            noise_std: 0.5,
            bands: None,
            ..Default::default()
        },
    );
    let params = SearchParams::with_epsilon(8.0);
    for q in workload.queries() {
        let (out, stats) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q.values, params.clone()),
        )
        .unwrap();
        let answers = out.into_answer_set();
        let mut scan_stats = SearchStats::default();
        let expected = seq_scan(
            &store,
            &q.values,
            &params,
            SeqScanMode::Full,
            &mut scan_stats,
        );
        assert_eq!(answers.occurrence_set(), expected.occurrence_set());
        // Stats coherence.
        assert_eq!(stats.answers, answers.len() as u64);
        assert!(stats.postprocessed <= stats.candidates);
        assert_eq!(
            stats.answers + stats.false_alarms,
            stats.postprocessed,
            "verified candidates split into answers and false alarms"
        );
        // The index must beat the naive scan on the cost model.
        assert!(stats.total_cells() < scan_stats.total_cells());
    }
}
