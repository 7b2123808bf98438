//! The equivalence matrix over random grid corpora and the fixed corpora
//! no other target runs in full, and the paper's own example. The harness
//! — `Config`, the corpora, the oracle and the one comparison — lives in
//! `tests/matrix/mod.rs`.

mod matrix;

use matrix::*;
use proptest::prelude::*;
use warptree::prelude::*;
use warptree_disk::DiskError;

/// Full and sparse in-memory trees over every categorization.
fn every_tree(base: Config) -> Sweep {
    let cats = [Cat::Exact, Cat::EqualLength, Cat::MaxEntropy, Cat::KMeans];
    Sweep::of(base)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&cats, |c, v| c.cat = v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every in-memory index variant equals the sequential scan.
    #[test]
    fn all_indexes_equal_seqscan(corpus in grid_corpus()) {
        Lab::new(corpus).pinned(every_tree(BASE));
    }

    /// The same under the warping window (paper §8).
    #[test]
    fn windowed_searches_agree(corpus in grid_corpus()) {
        Lab::new(corpus).pinned(every_tree(Config { window: true, ..BASE }));
    }

    /// The same under a length range; every answer lies inside it.
    #[test]
    fn length_bounded_searches_agree(corpus in grid_corpus()) {
        let cfg = Config { sparse: true, cat: Cat::MaxEntropy, range: true, ..BASE };
        Lab::new(corpus).pinned(Sweep::of(cfg));
    }

    /// No false dismissals at the filter itself (Theorems 2 and 3): every
    /// answer of the sequential scan lies in a candidate group.
    #[test]
    fn seqscan_answers_lie_in_candidate_groups(corpus in grid_corpus()) {
        let sparse = Config { sparse: true, cat: Cat::EqualLength, ..BASE };
        let full = Config { cat: Cat::MaxEntropy, ..BASE };
        Lab::new(corpus).pinned(Sweep::of(sparse).and(Sweep::of(full)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The covering set, disk ESA included, on random corpora.
    #[test]
    fn grid_corpora_cover_every_pair(corpus in grid_corpus()) {
        Lab::new(corpus).matrix();
    }
}

/// The covering set on the inputs proptest once shrank failures to.
#[test]
fn shrunk_corpora_cover_every_pair() {
    for corpus in shrunk_corpora() {
        Lab::new(corpus).matrix();
    }
}

/// The covering set on the segment-boundary batches.
#[test]
fn segment_boundary_batches() {
    boundary_lab().matrix();
}

/// The covering set on the branch-rich corpus.
#[test]
fn branch_rich_corpus() {
    branch_lab().matrix();
}

/// The paper's own introductory example: S1 as a whole warps onto Q at
/// distance 0, and Q matches itself inside S2.
#[test]
fn intro_example_all_variants() {
    let q = vec![20.0, 21.0, 20.0, 23.0];
    let s1 = vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0];
    let corpus = Corpus::new(
        "intro",
        vec![vec![s1, q.clone()]],
        4,
        vec![(q, 0.0)],
        1,
        (4, 8),
    );
    let lab = Lab::new(corpus);
    for (backend, sparse, cat) in [
        (Backend::Memory, false, Cat::Exact),
        (Backend::DiskTree, false, Cat::EqualLength),
        (Backend::DiskEsa, true, Cat::MaxEntropy),
    ] {
        let cfg = Config {
            backend,
            sparse,
            cat,
            ..BASE
        };
        let found = &lab.check(cfg)[0].matches;
        let exact = |seq, len| {
            let hit = |m: &&Match| m.occ.seq == SeqId(seq) && m.occ.len == len;
            found.iter().find(hit).is_some_and(|m| m.dist == 0.0)
        };
        assert!(exact(0, 8) && exact(1, 4), "{cfg:?}: {found:?}");
    }
}

/// What [`Config::valid`] leaves out for the ESA, refused with a typed
/// error: `build_dir` will not truncate an ESA (§8).
#[test]
fn truncated_esa_build_is_refused() {
    let corpus = boundary_batches();
    let alphabet = corpus.alphabet(Cat::MaxEntropy);
    let (path, spec) = (TempDir::new("esa-truncated"), Some(corpus.truncate));
    let err = build_dir(
        &path,
        &corpus.store,
        &alphabet,
        false,
        spec,
        BackendKind::Esa,
    );
    let err = err.unwrap_err();
    let refused = matches!(&err, DiskError::BadRecord(m) if m.contains("esa"));
    assert!(refused, "{err}");
}
