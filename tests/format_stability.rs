//! On-disk format stability: files written by *this* build must match
//! the checked-in golden fixtures byte for byte, and fixtures written by
//! *previous* builds must stay readable. An accidental format change —
//! a reordered field, a changed record layout — fails here before it
//! corrupts anyone's index.
//!
//! Regenerate the fixtures intentionally (after bumping the format
//! version!) with:
//!
//! ```text
//! WARPTREE_REGEN_FIXTURES=1 cargo test --test format_stability
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use warptree::prelude::*;
use warptree_disk::{
    append_segment, build_dir_metered, build_dir_with, compact_all_with, load_corpus, real_vfs,
    resolve_dir_with, save_corpus, write_tree, DiskTree, MeteredVfs, RealVfs,
};
use warptree_suffix::TruncateSpec;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A small, fully deterministic corpus: fixed values, no RNG.
fn golden_store() -> (SequenceStore, Alphabet) {
    let mut store = SequenceStore::new();
    store.push_named(
        Sequence::new(vec![1.0, 2.0, 2.0, 3.5, 3.5, 3.5, 1.0]),
        "ALPHA",
    );
    store.push(Sequence::new(vec![3.5, 1.0, 2.0]));
    store.push_named(Sequence::new(vec![2.0, 2.0]), "GAMMA");
    let alphabet = Alphabet::max_entropy(&store, 3).unwrap();
    (store, alphabet)
}

fn write_current(dir: &std::path::Path) -> (PathBuf, PathBuf, PathBuf) {
    let (store, alphabet) = golden_store();
    let cat = Arc::new(alphabet.encode_store(&store));
    let corpus = dir.join("golden.corpus");
    let full = dir.join("golden-full.wt");
    let sparse = dir.join("golden-sparse.wt");
    save_corpus(&store, &alphabet, &corpus).unwrap();
    write_tree(&warptree_suffix::build_full(cat.clone()), &full).unwrap();
    write_tree(&warptree_suffix::build_sparse(cat), &sparse).unwrap();
    (corpus, full, sparse)
}

#[test]
fn current_build_matches_golden_fixtures() {
    let fixtures = fixture_dir();
    if std::env::var("WARPTREE_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(&fixtures).unwrap();
        write_current(&fixtures);
        eprintln!("fixtures regenerated at {}", fixtures.display());
        return;
    }
    let tmp = std::env::temp_dir().join(format!("warptree-golden-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let (corpus, full, sparse) = write_current(&tmp);
    for (fresh, name) in [
        (&corpus, "golden.corpus"),
        (&full, "golden-full.wt"),
        (&sparse, "golden-sparse.wt"),
    ] {
        let expected = std::fs::read(fixtures.join(name))
            .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
        let produced = std::fs::read(fresh).unwrap();
        assert_eq!(
            produced, expected,
            "{name} diverged from the golden fixture — the on-disk \
             format changed; bump the format version and regenerate \
             fixtures intentionally"
        );
    }
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn golden_fixtures_remain_readable_and_searchable() {
    let fixtures = fixture_dir();
    let (store, alphabet, cat) = load_corpus(&fixtures.join("golden.corpus")).unwrap();
    assert_eq!(store.len(), 3);
    assert_eq!(store.name(SeqId(0)), Some("ALPHA"));
    assert_eq!(store.name(SeqId(1)), None);
    for name in ["golden-full.wt", "golden-sparse.wt"] {
        let tree = DiskTree::open(&fixtures.join(name), cat.clone()).unwrap();
        let params = SearchParams::with_epsilon(0.5);
        let q = [2.0, 3.5];
        let (out, _) = run_query(
            &tree,
            &alphabet,
            &store,
            &QueryRequest::threshold_params(&q, params.clone()),
        )
        .unwrap();
        let got = out.into_answer_set();
        let mut stats = SearchStats::default();
        let expected = seq_scan(&store, &q, &params, SeqScanMode::Full, &mut stats);
        assert_eq!(got.occurrence_set(), expected.occurrence_set());
        assert!(!got.is_empty());
    }
}

/// The corpus fixture a version 2 build wrote — values as raw doubles,
/// no `decimals` word — still loads, every value bit for bit and every
/// name, under the same alphabet.
#[test]
fn golden_v2_corpus_still_loads() {
    let (want, want_alphabet) = golden_store();
    let path = fixture_dir().join("golden-v2.corpus");
    let (store, alphabet, cat) = load_corpus(&path).unwrap();
    assert_eq!(store.len(), want.len());
    for (id, s) in want.iter() {
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(store.get(id).values()), bits(s.values()), "{id}");
        assert_eq!(store.name(id), want.name(id), "{id}");
    }
    assert_eq!(alphabet.categories(), want_alphabet.categories());
    assert_eq!(cat.seqs(), want_alphabet.encode_store(&want).seqs());
    assert_eq!(warptree_disk::corpus_decimals(&path).unwrap(), None);
    let current = fixture_dir().join("golden.corpus");
    assert_eq!(warptree_disk::corpus_decimals(&current).unwrap(), Some(1));
}

/// FNV-1a (64-bit) of a file's bytes: pins a file too large, or too
/// many, to keep as a fixture.
fn digest(path: &Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The first `sequences` series of a short stock corpus (fixed seed),
/// with a 12-symbol maximum-entropy alphabet.
fn stock_subset(sequences: usize) -> (SequenceStore, Alphabet) {
    let store = stock_corpus(&StockConfig {
        sequences,
        mean_len: 48,
        len_std: 12.0,
        ..StockConfig::default()
    });
    let alphabet = Alphabet::max_entropy(&store, 12).unwrap();
    (store, alphabet)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warptree-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The §4.1 build writes the same bytes however its merges are carried
/// out: the index `IncrementalBuilder` writes over a fixed stock subset
/// — full, sparse and truncated, from 16, 6 and 1 batches — is pinned by
/// digest. Merged files are not in canonical post-order, so a merge that
/// emits one record in another order, or encodes one differently, moves
/// a digest here even when the tree it describes is the same.
#[test]
fn incremental_builds_write_pinned_bytes() {
    let (store, alphabet) = stock_subset(16);
    let cat = Arc::new(alphabet.encode_store(&store));
    let dir = scratch("builds");
    let truncate = TruncateSpec {
        max_answer_len: 12,
        min_answer_len: 1,
    };
    let kinds = [
        ("full", TreeKind::Full, None),
        ("sparse", TreeKind::Sparse, None),
        ("truncated", TreeKind::Full, Some(truncate)),
    ];
    let mut got = Vec::new();
    for (name, kind, spec) in kinds {
        for batch in [1, 3, 16] {
            let out = dir.join(format!("{name}-{batch}.wt"));
            let mut builder = IncrementalBuilder::new(cat.clone(), kind, batch, dir.clone());
            if let Some(spec) = spec {
                builder = builder.with_truncation(spec);
            }
            builder.build(&out).unwrap();
            got.push(format!("{name} batch {batch}: {}", digest(&out)));
        }
    }
    let want = [
        "full batch 1: 7ca402ec741a18f4",
        "full batch 3: 6cce6dbe2e20dbee",
        "full batch 16: 44f8ce1e8ed2804a",
        "sparse batch 1: 65965b66878a5b8c",
        "sparse batch 3: 803f0d5c5a9524c6",
        "sparse batch 16: b31eb1987129e609",
        "truncated batch 1: e017091f8e1aedff",
        "truncated batch 3: 3d67fe80a0bd89ab",
        "truncated batch 16: 56f6f5af97ddfc2e",
    ];
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same for compaction: the base index a full compaction leaves
/// behind, over a base of ten sequences and three tails of two, full
/// and sparse.
#[test]
fn compaction_writes_pinned_bytes() {
    let (store, alphabet) = stock_subset(16);
    let mut got = Vec::new();
    for (name, kind) in [("full", TreeKind::Full), ("sparse", TreeKind::Sparse)] {
        let dir = scratch(&format!("compact-{name}"));
        let part = |range: std::ops::Range<usize>| {
            SequenceStore::from_values(range.map(|i| store.get(SeqId(i as u32)).values().to_vec()))
        };
        build_dir_with(real_vfs(), &part(0..10), &alphabet, kind, 3, 1, None, &dir).unwrap();
        for first in [10, 12, 14] {
            append_segment(&dir, &part(first..first + 2)).unwrap();
        }
        let (runs, last) = compact_all_with(&RealVfs, &dir, &MetricsRegistry::noop()).unwrap();
        assert_eq!((runs, last.unwrap().segments.len()), (3, 0));
        let index = resolve_dir_with(&RealVfs, &dir).unwrap().index_path;
        got.push(format!("{name}: {}", digest(&index)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(got, ["full: 4a059bbdf124a0f4", "sparse: 3b2c11b41bed0dc6"]);
}

/// Work files are not synced; the file a build commits is, once. So
/// the fsyncs of one build — file and directory — do not depend on how
/// many batch trees it merges: the same for 9 batches as for one.
#[test]
fn a_build_syncs_only_what_it_commits() {
    let (store, alphabet) = stock_subset(18);
    let mut got = Vec::new();
    for batch in [2, 18] {
        let dir = scratch(&format!("syncs-{batch}"));
        let reg = MetricsRegistry::new();
        let vfs = MeteredVfs::new(real_vfs(), &reg);
        build_dir_metered(
            vfs,
            &store,
            &alphabet,
            TreeKind::Full,
            batch,
            1,
            None,
            BackendKind::Tree,
            &dir,
            &reg,
        )
        .unwrap();
        let batches = reg.counter("build.batches").get();
        got.push((batches, reg.counter("disk.vfs.syncs").get()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(got, [(9, 6), (1, 6)]);
}
