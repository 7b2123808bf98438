//! Model-based property tests for the storage layer: the paged file
//! against a plain byte vector, and concurrent disk-tree queries.

use proptest::prelude::*;
use std::sync::Arc;
use warptree_core::search::{run_query, IndexBackend, QueryRequest, SearchParams};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{read_stream, write_tree, DiskTree, PagedWriter, RealVfs, PAGE_DATA};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("warptree-propstore-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever chunk pattern is written, the file reads back as the
    /// model bytes — every range, those spanning page boundaries
    /// included — then zeros to the end of the last page.
    #[test]
    fn paged_file_equals_byte_model(
        chunks in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..5000),
            1..8,
        ),
        reads in prop::collection::vec((0usize..20000, 0usize..4000), 1..10),
        case in 0u64..1_000_000,
    ) {
        let model: Vec<u8> = chunks.concat();
        let path = tmp(&format!("pf-{case}"));
        let mut w = PagedWriter::create(&path).unwrap();
        for c in &chunks {
            w.write(c).unwrap();
        }
        let len = w.finish(&[]).unwrap();
        prop_assert_eq!(len as usize, model.len());
        let bytes = read_stream(&RealVfs, &path).unwrap();
        prop_assert_eq!(bytes.len(), model.len().div_ceil(PAGE_DATA) * PAGE_DATA);
        prop_assert!(bytes[model.len()..].iter().all(|&b| b == 0));
        for &(start, rlen) in &reads {
            if model.is_empty() {
                break;
            }
            let start = start % model.len();
            let rlen = rlen.min(model.len() - start);
            prop_assert_eq!(&bytes[start..start + rlen], &model[start..start + rlen]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Patches applied at finish time overwrite exactly the model range.
    #[test]
    fn patches_match_model(
        base in prop::collection::vec(any::<u8>(), 100..20000),
        patches in prop::collection::vec(
            (0usize..20000, prop::collection::vec(any::<u8>(), 1..64)),
            0..5,
        ),
        case in 0u64..1_000_000,
    ) {
        let mut model = base.clone();
        let path = tmp(&format!("patch-{case}"));
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&base).unwrap();
        let mut applied = Vec::new();
        for (off, bytes) in &patches {
            let off = off % base.len();
            let take = bytes.len().min(base.len() - off);
            model[off..off + take].copy_from_slice(&bytes[..take]);
            applied.push((off as u64, bytes[..take].to_vec()));
        }
        w.finish(&applied).unwrap();
        let bytes = read_stream(&RealVfs, &path).unwrap();
        prop_assert_eq!(&bytes[..model.len()], &model[..]);
        std::fs::remove_file(&path).unwrap();
    }

    /// The one read of a paged file is the file: its pages' payloads,
    /// back to back, each CRC-checked — whatever the file's length, its
    /// contents, and wherever the payloads' bytes land in a page.
    #[test]
    fn read_stream_is_the_files_payloads(
        pages in 0u64..40,
        salt in any::<u8>(),
        case in 0u64..1_000_000,
    ) {
        let path = tmp(&format!("whole-{case}"));
        let byte = |at: u64| (at / PAGE_DATA as u64 * 7 + at % 251) as u8 ^ salt;
        let mut w = PagedWriter::create(&path).unwrap();
        let model: Vec<u8> = (0..pages * PAGE_DATA as u64).map(byte).collect();
        w.write(&model).unwrap();
        w.finish(&[]).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let payloads: Vec<u8> = raw
            .chunks(warptree_disk::PAGE_SIZE)
            .flat_map(|page| page[..PAGE_DATA].iter().copied())
            .collect();
        let bytes = read_stream(&RealVfs, &path).unwrap();
        prop_assert!(bytes == payloads, "the read is not the file's payloads");
        prop_assert!(bytes == model);
        std::fs::remove_file(&path).unwrap();
    }
}

/// Concurrent queries over one shared `DiskTree` return the same answers
/// as sequential queries (results must be independent of interleaving).
#[test]
fn concurrent_disk_queries_agree() {
    let store = SequenceStore::from_values(
        (0..24)
            .map(|i| {
                (0..60)
                    .map(|j| ((i * 31 + j * 7) % 23) as f64)
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>(),
    );
    let alphabet = warptree_core::categorize::Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let tree = warptree_suffix::build_sparse(cat.clone());
    let path = tmp("conc");
    write_tree(&tree, &path).unwrap();
    // A tiny pool to force heavy concurrent pool churn.
    let disk = DiskTree::open(&path, cat).unwrap();
    assert!(disk.suffix_count() > 0);

    let queries: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            store
                .get(warptree_core::sequence::SeqId(i))
                .subseq(3, 6)
                .to_vec()
        })
        .collect();
    let params = SearchParams::with_epsilon(4.0);
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| {
            run_query(
                &disk,
                &alphabet,
                &store,
                &QueryRequest::threshold_params(q, params.clone()),
            )
            .unwrap()
            .0
            .into_answer_set()
            .occurrence_set()
        })
        .collect();

    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let disk = &disk;
                let alphabet = &alphabet;
                let store = &store;
                let params = &params;
                scope.spawn(move || {
                    run_query(
                        disk,
                        alphabet,
                        store,
                        &QueryRequest::threshold_params(q, params.clone()),
                    )
                    .unwrap()
                    .0
                    .into_answer_set()
                    .occurrence_set()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sequential, concurrent);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corpus files round-trip arbitrary stores and every categorization
    /// method, reproducing identical categorized sequences.
    #[test]
    fn corpus_roundtrip_all_methods(
        db in prop::collection::vec(
            prop::collection::vec(
                (-1000i32..1000).prop_map(|v| v as f64 * 0.125),
                1..24,
            ),
            1..6,
        ),
        c in 1usize..8,
        method in 0usize..4,
        case in 0u64..1_000_000,
    ) {
        use warptree_core::categorize::Alphabet;
        use warptree_disk::{load_corpus, save_corpus};
        let store = SequenceStore::from_values(db);
        let alphabet = match method {
            0 => Alphabet::equal_length(&store, c).unwrap(),
            1 => Alphabet::max_entropy(&store, c).unwrap(),
            2 => Alphabet::singleton(&store).unwrap(),
            _ => Alphabet::kmeans(&store, c, 50).unwrap(),
        };
        let cat = alphabet.encode_store(&store);
        let path = tmp(&format!("corpus-{case}"));
        save_corpus(&store, &alphabet, &path).unwrap();
        let (s2, a2, c2) = load_corpus(&path).unwrap();
        prop_assert_eq!(s2.len(), store.len());
        for (id, s) in store.iter() {
            prop_assert_eq!(s2.get(id).values(), s.values());
        }
        prop_assert_eq!(a2.method(), alphabet.method());
        prop_assert_eq!(a2.len(), alphabet.len());
        prop_assert_eq!(c2.seqs(), cat.seqs());
        std::fs::remove_file(&path).unwrap();
    }

    /// Incremental (batched, merged) construction equals direct
    /// construction, node for node, for full and sparse trees.
    #[test]
    fn incremental_build_equals_direct(
        db in prop::collection::vec(
            prop::collection::vec((0i32..10).prop_map(|v| v as f64), 1..14),
            1..6,
        ),
        batch in 1usize..4,
        case in 0u64..1_000_000,
    ) {
        use warptree_disk::{IncrementalBuilder, TreeKind};
        let dir = tmp(&format!("incr-{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let store = SequenceStore::from_values(db);
        let alphabet = warptree_core::categorize::Alphabet::equal_length(&store, 2).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        for (kind, sparse) in [(TreeKind::Full, false), (TreeKind::Sparse, true)] {
            let out = dir.join(format!("incr-{sparse}.wt"));
            IncrementalBuilder::new(cat.clone(), kind, batch, dir.clone())
                .build(&out)
                .unwrap();
            let disk = DiskTree::open(&out, cat.clone()).unwrap();
            let direct = if sparse {
                warptree_suffix::build_sparse(cat.clone())
            } else {
                warptree_suffix::build_full(cat.clone())
            };
            prop_assert_eq!(disk.to_mem().unwrap().canonical(), direct.canonical());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
