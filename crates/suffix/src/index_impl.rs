//! [`IndexBackend`] implementation for the in-memory tree, connecting
//! it to the core filter algorithms.

use warptree_core::search::{IndexBackend, NodeVisit};
use warptree_core::sequence::SeqId;

use crate::tree::{NodeId, SuffixTree, ROOT};

impl IndexBackend for SuffixTree {
    type Node = NodeId;

    fn root(&self) -> NodeId {
        ROOT
    }

    fn visit(&self, n: NodeId, children: &mut impl Extend<NodeId>) -> NodeVisit<'_> {
        debug_assert!(self.is_finalized(), "finalize() must run before searching");
        let node = self.node(n);
        children.extend(node.children.iter().copied());
        NodeVisit {
            // The root's empty label names no sequence (the store may
            // hold none).
            label: if n == ROOT {
                &[]
            } else {
                self.label_symbols(node.label)
            },
            max_lead_run: node.max_lead_run,
            // O(1): `finalize()` annotates every node with its subtree
            // suffix count.
            suffix_count: Some(node.suffix_count),
            attached: node.suffixes.len() as u32,
        }
    }

    fn for_each_suffix_at(&self, n: NodeId, f: &mut dyn FnMut(SeqId, u32, u32)) {
        for s in &self.node(n).suffixes {
            f(s.seq, s.start, s.lead_run);
        }
    }

    fn for_each_suffix_below(&self, n: NodeId, f: &mut dyn FnMut(SeqId, u32, u32)) {
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            let node = self.node(x);
            for s in &node.suffixes {
                f(s.seq, s.start, s.lead_run);
            }
            stack.extend_from_slice(&node.children);
        }
    }

    fn is_sparse(&self) -> bool {
        SuffixTree::is_sparse(self)
    }

    fn suffix_count(&self) -> u64 {
        SuffixTree::suffix_count(self)
    }

    fn depth_limit(&self) -> Option<u32> {
        SuffixTree::depth_limit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_full_naive, build_sparse};
    use std::sync::Arc;
    use warptree_core::categorize::CatStore;

    #[test]
    fn trait_view_matches_tree() {
        let c = Arc::new(CatStore::from_symbols(
            vec![vec![0, 0, 1, 2], vec![1, 1, 1]],
            3,
        ));
        let t = build_full_naive(c.clone());
        assert_eq!(IndexBackend::suffix_count(&t), 7);
        assert!(!IndexBackend::is_sparse(&t));
        let mut kids = Vec::new();
        let root = t.visit(t.root(), &mut kids);
        assert_eq!(kids, t.node(ROOT).children);
        assert!(root.label.is_empty());
        assert_eq!(root.suffix_count, Some(7));
        assert_eq!(root.max_lead_run, 3);
        // A visit appends: what the buffer held stays in place.
        let below = kids.len();
        let first = t.visit(kids[0], &mut kids);
        assert_eq!(first.label, t.label_symbols(t.node(kids[0]).label));
        assert!(!first.label.is_empty());
        assert_eq!(kids[below..], t.node(kids[0]).children);
        let mut count = 0;
        t.for_each_suffix_below(t.root(), &mut |_, _, _| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn sparse_trait_view() {
        let c = Arc::new(CatStore::from_symbols(vec![vec![0, 0, 0, 1]], 2));
        let t = build_sparse(c);
        assert!(IndexBackend::is_sparse(&t));
        assert_eq!(IndexBackend::suffix_count(&t), 2); // suffixes at 0 and 3
        assert_eq!(t.visit(t.root(), &mut Vec::new()).max_lead_run, 3);
    }
}
