//! Corruption robustness: any byte flip anywhere in a tree *or corpus*
//! file must be *detected* (surfaced as an error), never silently change
//! answers or panic the reader — every page is covered by its CRC.

use proptest::prelude::*;
use std::sync::Arc;
use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::search::IndexBackend;
use warptree_core::sequence::SequenceStore;
use warptree_disk::{load_corpus, save_corpus, write_tree, DiskError, DiskTree};
use warptree_suffix::build_full;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("warptree-corrupt-{}-{tag}.wt", std::process::id()))
}

fn build_file(tag: &str) -> (std::path::PathBuf, Arc<CatStore>) {
    let cat = Arc::new(CatStore::from_symbols(
        (0..8)
            .map(|i| (0..24).map(|j| ((i * 5 + j) % 4) as u32).collect())
            .collect(),
        4,
    ));
    let tree = build_full(cat.clone());
    let path = tmp(tag);
    write_tree(&tree, &path).unwrap();
    (path, cat)
}

/// Fully traverses a disk tree, returning an error if any read fails.
fn try_traverse(tree: &DiskTree) -> Result<u64, DiskError> {
    let mut count = 0u64;
    let mut stack = vec![tree.header().root_offset];
    while let Some(off) = stack.pop() {
        let node = tree.read_node(off)?;
        count += node.suffixes().len() as u64;
        for (_, c) in node.children() {
            stack.push(c);
        }
    }
    Ok(count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single byte of the file is detected at open or
    /// during a full traversal.
    #[test]
    fn single_byte_flip_detected(pos_seed in any::<u64>(), bit in 0u8..8) {
        let (path, cat) = build_file(&format!("flip-{pos_seed}-{bit}"));
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let outcome = DiskTree::open(&path, cat, 8, 16)
            .and_then(|t| try_traverse(&t));
        prop_assert!(
            outcome.is_err(),
            "flip at byte {pos} bit {bit} went undetected"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncating the file is detected.
    #[test]
    fn truncation_detected(keep_fraction in 1u32..99) {
        let (path, cat) =
            build_file(&format!("trunc-{keep_fraction}"));
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() * keep_fraction as usize / 100;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let outcome = DiskTree::open(&path, cat, 8, 16)
            .and_then(|t| try_traverse(&t));
        prop_assert!(outcome.is_err(), "truncation to {keep} undetected");
        std::fs::remove_file(&path).unwrap();
    }
}

/// The pristine file traverses fine (sanity for the tests above).
#[test]
fn pristine_file_traverses() {
    let (path, cat) = build_file("pristine");
    let tree = DiskTree::open(&path, cat, 8, 16).unwrap();
    let suffixes = try_traverse(&tree).unwrap();
    assert_eq!(suffixes, tree.suffix_count());
    std::fs::remove_file(&path).unwrap();
}

fn build_corpus_file(tag: &str) -> std::path::PathBuf {
    let store = SequenceStore::from_values(
        (0..6)
            .map(|i| {
                (0..20)
                    .map(|j| ((i * 7 + j * 3) % 11) as f64)
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>(),
    );
    let alphabet = Alphabet::max_entropy(&store, 5).unwrap();
    let path = tmp(tag);
    save_corpus(&store, &alphabet, &path).unwrap();
    path
}

/// Every single-byte flip of a corpus file must make `load_corpus`
/// return an error — never panic, never hand back altered sequences or
/// boundaries. Deterministic sweep: a stride of byte positions covering
/// header, category table, and sequence data, with every bit tried at
/// each position.
#[test]
fn corpus_byte_flip_detected() {
    let path = build_corpus_file("corpus-flip");
    let pristine = std::fs::read(&path).unwrap();
    assert!(load_corpus(&path).is_ok(), "pristine corpus must load");
    let stride = (pristine.len() / 97).max(1);
    for pos in (0..pristine.len()).step_by(stride) {
        for bit in 0..8u8 {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                load_corpus(&path).is_err(),
                "corpus flip at byte {pos} bit {bit} went undetected"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Truncating a corpus file to any page-aligned or unaligned length is
/// detected at load.
#[test]
fn corpus_truncation_detected() {
    let path = build_corpus_file("corpus-trunc");
    let pristine = std::fs::read(&path).unwrap();
    for keep_fraction in [1usize, 13, 42, 50, 77, 99] {
        let keep = pristine.len() * keep_fraction / 100;
        std::fs::write(&path, &pristine[..keep]).unwrap();
        assert!(
            load_corpus(&path).is_err(),
            "corpus truncation to {keep} bytes went undetected"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// A base index, one tail segment and a corpus of three pages or more.
fn build_dir(tag: &str) -> (std::path::PathBuf, warptree_disk::ResolvedDir) {
    use warptree_disk::{append_segment_with, build_dir_with, real_vfs, resolve_dir_with, RealVfs};
    let dir = std::env::temp_dir().join(format!("warptree-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Thirds sit on no decimal grid: the corpus is stored raw, eight
    // bytes a value, and spans several pages.
    let walk = |seed: usize, n: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..400)
                    .map(|j| ((seed + i * 7 + j * 3) % 23) as f64 / 3.0)
                    .collect()
            })
            .collect()
    };
    let store = SequenceStore::from_values(walk(1, 12));
    let alphabet = Alphabet::equal_length(&store, 6).unwrap();
    let kind = warptree_disk::TreeKind::Full;
    build_dir_with(real_vfs(), &store, &alphabet, kind, 4, 1, None, &dir).unwrap();
    append_segment_with(&RealVfs, &dir, &SequenceStore::from_values(walk(5, 4))).unwrap();
    let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
    (dir, resolved)
}

/// Flips one byte of page `page` of the paged file at `path`.
fn flip_page(path: &std::path::Path, page: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[(page * warptree_disk::PAGE_SIZE as u64) as usize + 17] ^= 0xA5;
    std::fs::write(path, &bytes).unwrap();
}

/// The number of pages of the paged file at `path`.
fn pages(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).unwrap().len() / warptree_disk::PAGE_SIZE as u64
}

/// A directory whose open trips a page CRC names the file and the page:
/// the base index's header page, a corpus page. A tail's header page
/// does not fail the open: the snapshot names the tail as failed, and
/// the corpus answers for it.
#[test]
fn an_open_that_trips_a_crc_names_the_file() {
    use warptree_disk::{open_dir_snapshot_with, RealVfs, ResolvedDir};
    type Case = fn(&ResolvedDir) -> (std::path::PathBuf, u64);
    let cases: [Case; 3] = [
        |r| (r.segment_paths[0].clone(), 0),
        |r| (r.index_path.clone(), 0),
        |r| (r.corpus_path.clone(), pages(&r.corpus_path) / 2),
    ];
    for (i, case) in cases.into_iter().enumerate() {
        let (dir, resolved) = build_dir(&format!("open-names-{i}"));
        assert!(pages(&resolved.corpus_path) >= 3);
        let (path, page) = case(&resolved);
        flip_page(&path, page);
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if i == 0 {
            let snap = open_dir_snapshot_with(&RealVfs, &dir, 8, 16).unwrap();
            assert_eq!(snap.failed_tails(), vec![name]);
            std::fs::remove_dir_all(&dir).unwrap();
            continue;
        }
        match open_dir_snapshot_with(&RealVfs, &dir, 8, 16) {
            Err(DiskError::CorruptionDetected { file, page: p }) => {
                assert_eq!((file, p), (name, page));
            }
            other => panic!(
                "{name}: expected a named corruption, got {:?}",
                other.map(|_| ())
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
