//! Structural equivalence of the ESA and tree backends.
//!
//! The contract under test: on any categorized corpus, full or sparse,
//! the enhanced suffix array presents the *identical logical tree* as
//! the suffix-tree builders' trees, served from the bytes they encode
//! to — same nodes in the same deterministic
//! child order, same edge labels, same per-node annotations, and the
//! same suffix-enumeration order. This is what makes merge tie-breaks
//! and parallel splits byte-stable across backends.

use proptest::prelude::*;
use std::sync::Arc;
use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::search::IndexBackend;
use warptree_disk::DiskTree;
use warptree_esa::EsaIndex;
use warptree_suffix::{build_full, build_full_naive, build_sparse};

/// A full deterministic traversal fingerprint of any backend: node
/// events in DFS child order (edge label + annotations) plus the exact
/// root suffix-enumeration order.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Per node, in DFS order (children in `visit` order):
    /// (edge label, subtree suffix count, max lead run, child count).
    nodes: Vec<(Vec<Symbol>, u64, u32, usize)>,
    /// `for_each_suffix_below(root)` in emission order.
    suffixes: Vec<(u32, u32, u32)>,
}

fn fingerprint<T: IndexBackend>(idx: &T) -> Fingerprint {
    let mut nodes = Vec::new();
    fn walk<T: IndexBackend>(idx: &T, n: T::Node, out: &mut Vec<(Vec<Symbol>, u64, u32, usize)>) {
        let mut kids = Vec::new();
        let v = idx.visit(n, &mut kids);
        out.push((
            v.label.to_vec(),
            v.suffix_count.expect("both backends count"),
            v.max_lead_run,
            kids.len(),
        ));
        for c in kids {
            walk(idx, c, out);
        }
    }
    walk(idx, idx.root(), &mut nodes);
    let mut suffixes = Vec::new();
    idx.for_each_suffix_below(idx.root(), &mut |s, st, lead| {
        suffixes.push((s.0, st, lead))
    });
    Fingerprint { nodes, suffixes }
}

/// Random categorized corpora: up to 5 sequences of up to 24 symbols
/// from small alphabets (small alphabets maximize shared prefixes and
/// runs — the structurally interesting cases).
fn corpus() -> impl Strategy<Value = (Vec<Vec<Symbol>>, u32)> {
    (1u32..4).prop_flat_map(|alpha| {
        (
            prop::collection::vec(prop::collection::vec(0..alpha, 1..24), 1..5),
            Just(alpha),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Full-index traversal is node-for-node identical to both tree
    /// builders: same DFS shape, labels, annotations, and the same
    /// suffix-enumeration order (the candidate-order contract).
    #[test]
    fn esa_traversal_matches_full_tree((seqs, alpha) in corpus()) {
        let cat = Arc::new(CatStore::from_symbols(seqs, alpha));
        let esa = EsaIndex::build(cat.clone(), false);
        assert_eq!(esa.validate(), Ok(()));
        let tree = DiskTree::from_tree(&build_full(cat.clone()));
        prop_assert_eq!(fingerprint(&esa), fingerprint(&tree));
        let naive = DiskTree::from_tree(&build_full_naive(cat));
        prop_assert_eq!(fingerprint(&esa), fingerprint(&naive));
        prop_assert_eq!(esa.suffix_count(), tree.suffix_count());
    }

    /// Sparse-index traversal matches the sparse tree the same way.
    #[test]
    fn esa_traversal_matches_sparse_tree((seqs, alpha) in corpus()) {
        let cat = Arc::new(CatStore::from_symbols(seqs, alpha));
        let esa = EsaIndex::build(cat.clone(), true);
        assert_eq!(esa.validate(), Ok(()));
        prop_assert!(esa.is_sparse());
        let tree = DiskTree::from_tree(&build_sparse(cat));
        prop_assert_eq!(fingerprint(&esa), fingerprint(&tree));
    }

    /// Range builds agree with range-built trees (the segment path).
    #[test]
    fn esa_range_builds_match_range_trees((seqs, alpha) in corpus()) {
        let cut = seqs.len() / 2;
        let cat = Arc::new(CatStore::from_symbols(seqs, alpha));
        let n = cat.len();
        for (lo, hi) in [(0, cut), (cut, n)] {
            let esa = EsaIndex::build_range(cat.clone(), lo..hi, false);
            assert_eq!(esa.validate(), Ok(()));
            let tree = DiskTree::from_tree(&warptree_suffix::build_full_range(cat.clone(), lo..hi));
            prop_assert_eq!(fingerprint(&esa), fingerprint(&tree));
        }
    }
}
