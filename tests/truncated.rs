//! §8 truncation changes size, never answers: truncated trees over random
//! grid corpora, a truncated tree on disk, a sparse lead run at the depth
//! limit, and the typed refusals of a truncated index. Harness in
//! `tests/matrix/mod.rs`.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use warptree::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full and sparse truncated trees, under a length range, answer like
    /// the untruncated reference and the sequential scan.
    #[test]
    fn truncated_equals_full_for_bounded_queries(corpus in grid_corpus()) {
        let cfg = Config { cat: Cat::MaxEntropy, range: true, truncate: true, ..BASE };
        Lab::new(corpus).pinned(Sweep::of(cfg).vary(&[false, true], |c, v| c.sparse = v));
    }

    /// The depth derived from the queries and the window
    /// (`TruncateSpec::for_queries`) is enough for windowed queries.
    #[test]
    fn window_derived_truncation(corpus in grid_corpus()) {
        let cfg = Config {
            sparse: true,
            cat: Cat::EqualLength,
            window: true,
            truncate: true,
            ..BASE
        };
        Lab::new(corpus).pinned(Sweep::of(cfg));
    }
}

/// A truncated tree committed to disk keeps its depth limit and answers
/// like the untruncated in-memory tree.
#[test]
fn truncated_tree_roundtrips_through_disk() {
    let seqs = vec![vec![1.0, 2.0, 3.0, 2.0, 1.0, 2.0], vec![3.0, 3.0, 3.0, 1.0]];
    let queries = vec![(vec![2.0, 3.0], 1.0)];
    let corpus = Corpus::new("truncated on disk", vec![seqs], 3, queries, 1, (1, 3));
    assert_eq!(corpus.truncate.max_answer_len, 3);
    let cfg = Config {
        sparse: true,
        cat: Cat::EqualLength,
        range: true,
        truncate: true,
        ..BASE
    };
    let backends = [Backend::Memory, Backend::DiskTree];
    Lab::new(corpus).pinned(Sweep::of(cfg).vary(&backends, |c, v| c.backend = v));
}

/// A sparse suffix whose lead run is *exactly* the truncation depth
/// neither skips nor double-counts shifted (`D_tw-lb2`) answers. The run
/// forms at a categorization boundary, three values collapsing into one
/// symbol, so the shifted suffixes exist only through Definition 4.
#[test]
fn sparse_lead_run_at_depth_limit_boundary() {
    let seqs = vec![vec![1.0, 2.0, 0.5, 9.0, 8.5], vec![9.0, 8.0, 1.0, 0.0, 2.0]];
    let queries = [0.0, 1.0, 4.0, 20.0].map(|epsilon| (vec![1.5, 1.5], epsilon));
    let corpus = Corpus::new("lead run", vec![seqs], 2, queries.to_vec(), 1, (1, 3));
    assert_eq!(corpus.truncate.max_answer_len, 3);
    let cat = corpus
        .alphabet(Cat::EqualLength)
        .encode_store(&corpus.store);
    assert_eq!((cat.run_len(SeqId(0), 0), cat.run_len(SeqId(1), 2)), (3, 3));
    // Every verified candidate is a distinct in-range subsequence.
    let lengths = |n: u64| (1..=3).map(|l| n.saturating_sub(l - 1)).sum::<u64>();
    let distinct: u64 = corpus
        .store
        .iter()
        .map(|(_, s)| lengths(s.len() as u64))
        .sum();
    let lab = Lab::new(corpus);
    lab.matrix();
    for backend in [Backend::Memory, Backend::DiskTree] {
        for threads in [1, 8] {
            let cfg = Config {
                backend,
                threads,
                sparse: true,
                cat: Cat::EqualLength,
                range: true,
                truncate: true,
                ..BASE
            };
            for o in lab.check(cfg) {
                assert!(o.stats.postprocessed <= distinct, "{cfg:?}: {:?}", o.stats);
            }
        }
    }
}

/// What [`Config::valid`] leaves out for a truncated index, refused with
/// typed errors: a query with no bound on the answer length
/// (`DepthLimitExceeded`), and an append.
#[test]
fn unbounded_search_over_truncated_index_is_rejected() {
    let lab = boundary_lab();
    let unbounded = QueryRequest::threshold(&[2.0, 3.0], 1.0);
    let cfg = Config {
        truncate: true,
        ..BASE
    };
    let Built::Memory { tree, alphabet } = &*lab.built(&cfg) else {
        unreachable!("an in-memory tree")
    };
    let store = &lab.corpus.store;
    let mut errors = vec![run_query(tree, alphabet, store, &unbounded).unwrap_err()];
    let path = lab.corpus.commit(&Config {
        backend: Backend::DiskTree,
        ..cfg
    });
    let appended = append_index_dir(&path, &lab.corpus.batches[1]);
    let err = appended.unwrap_err().to_string();
    assert!(err.contains("truncated"), "{err}");
    errors.push(Built::open(&path).dir().query(&unbounded).unwrap_err());
    for err in errors {
        let depth = matches!(err, CoreError::DepthLimitExceeded { .. });
        assert!(depth, "{err:?}");
    }
}
