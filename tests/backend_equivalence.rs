//! The disk ESA against the suffix tree and the sequential scan over the
//! segment-boundary batches (harness in `tests/matrix/mod.rs`), the
//! backend pin, and the analysis layer over every backend.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use warptree::prelude::*;

/// The ESA's sparse Max-Entropy index, monolithic.
const ESA: Config = Config {
    backend: Backend::DiskEsa,
    sparse: true,
    cat: Cat::MaxEntropy,
    ..BASE
};

/// Full and sparse ESAs, monolithic and in three segments, at 1 and 8
/// threads: every threshold variant (cascade, window, length range),
/// k-NN and explain answer like the in-memory tree.
#[test]
fn esa_answers_byte_identically_to_tree() {
    let each = Sweep::of(ESA)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&[Layout::Mono, Layout::Segments3], |c, v| c.layout = v)
        .vary(&[1, 8], |c, v| c.threads = v);
    let threshold = each
        .clone()
        .vary(&[true, false], |c, v| c.cascade = v)
        .vary(&[false, true], |c, v| c.window = v)
        .vary(&[false, true], |c, v| c.range = v);
    let kinds = [Kind::Knn(3, false), Kind::Explain];
    let others = each.vary(&kinds, |c, v| c.kind = v);
    boundary_lab().pinned(threshold.and(others));
}

/// A three-segment ESA's threshold answers equal `seq_scan`.
#[test]
fn esa_matches_the_sequential_scan() {
    let layout = Layout::Segments3;
    boundary_lab().pinned(Sweep::of(Config { layout, ..ESA }));
}

/// An ESA folded by one `compact_once`, or fully compacted (two folds),
/// answers threshold and k-NN queries like the monolithic tree.
#[test]
fn esa_compaction_preserves_answers() {
    let sweep = Sweep::of(ESA)
        .vary(&[Layout::Segments2, Layout::Compacted], |c, v| c.layout = v)
        .vary(&[Kind::Threshold, Kind::Knn(3, false)], |c, v| c.kind = v);
    boundary_lab().pinned(sweep);
}

/// A request pinned to the other backend family is a typed rejection,
/// never silently answered by whatever index is open; the matching pin
/// answers like no pin.
#[test]
fn pinned_requests_enforce_backend_identity() {
    let q = [2.0, 3.0, 4.0];
    for (backend, other) in [
        (Backend::DiskTree, BackendKind::Esa),
        (Backend::DiskEsa, BackendKind::Tree),
    ] {
        let built = boundary_lab().built(&Config { backend, ..ESA });
        let (idx, own) = (built.dir(), backend.kind());
        let plain = idx.query(&QueryRequest::threshold(&q, 1.0)).unwrap();
        let pinned = QueryRequest::threshold(&q, 1.0).on_backend(own);
        assert_eq!(plain.0.matches(), idx.query(&pinned).unwrap().0.matches());
        let wrong = QueryRequest::threshold(&q, 1.0).on_backend(other);
        let err = idx.query(&wrong).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedBackend { requested, actual }
                if requested == other.as_str() && actual == own.as_str()),
            "wrong error: {err}"
        );
        let err = idx.query(&QueryRequest::knn(&q, 2).on_backend(other));
        let err = err.unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedBackend { .. }), "{err}");
    }
}

/// Motifs, longest repeats and structure stats are one answer over the
/// in-memory and disk trees and ESAs, on the fixed corpora.
#[test]
fn analysis_is_backend_neutral() {
    boundary_lab().analysis();
    branch_lab().analysis();
    for corpus in shrunk_corpora() {
        Lab::new(corpus).analysis();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same, over the grid corpora.
    #[test]
    fn analysis_is_backend_neutral_on_grid_corpora(corpus in grid_corpus()) {
        Lab::new(corpus).analysis();
    }
}
