//! `warptree_core::analysis::TreeStats` over trees served from their
//! bytes, against the pointer trees' own counts.

#[cfg(test)]
mod tests {
    use crate::format::DiskTree;
    use std::sync::Arc;
    use warptree_core::analysis::TreeStats;
    use warptree_core::categorize::CatStore;
    use warptree_suffix::{build_full, build_full_naive, build_sparse, SuffixTree, ROOT};

    fn cat(seqs: Vec<Vec<u32>>, alpha: u32) -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(seqs, alpha))
    }

    /// `(max_node_depth, max_symbol_depth)` read off the arena.
    fn depth_stats(tree: &SuffixTree) -> (u32, u32) {
        let mut max_nodes = 0;
        let mut max_symbols = 0;
        let mut stack = vec![(ROOT, 0u32, 0u32)];
        while let Some((n, nd, sd)) = stack.pop() {
            max_nodes = max_nodes.max(nd);
            max_symbols = max_symbols.max(sd);
            for &c in &tree.node(n).children {
                stack.push((c, nd + 1, sd + tree.node(c).label.len));
            }
        }
        (max_nodes, max_symbols)
    }

    #[test]
    fn counts_are_consistent() {
        let c = cat(vec![vec![0, 1, 2, 1, 2, 1], vec![1, 1, 0]], 3);
        let tree = build_full(c.clone());
        let s = TreeStats::compute(&DiskTree::from_tree(&tree));
        assert_eq!(s.nodes, tree.node_count() as u64);
        assert_eq!(s.internal + s.leaves, s.nodes);
        assert_eq!(s.suffixes, 9);
        // The walk's label total is the arena's, node for node.
        let arena: u64 = (0..tree.node_count() as warptree_suffix::NodeId)
            .map(|id| tree.node(id).label.len as u64)
            .sum();
        assert_eq!(s.label_symbols, arena);
        // Label-bearing internal nodes may have a single child, so the
        // mean can dip below 2, but never below 1.
        assert!(s.avg_branching >= 1.0);
        let (nd, sd) = depth_stats(&tree);
        assert_eq!((s.max_node_depth, s.max_symbol_depth), (nd, sd));
    }

    #[test]
    fn sparse_has_fewer_suffixes_and_shallower_mean() {
        let c = cat(vec![vec![0, 0, 0, 0, 1, 1, 2]], 3);
        let full = TreeStats::compute(&DiskTree::from_tree(&build_full_naive(c.clone())));
        let sparse = TreeStats::compute(&DiskTree::from_tree(&build_sparse(c)));
        assert!(sparse.suffixes < full.suffixes);
        assert!(sparse.nodes <= full.nodes);
    }

    #[test]
    fn display_renders() {
        let c = cat(vec![vec![0, 1]], 2);
        let s = TreeStats::compute(&DiskTree::from_tree(&build_full(c)));
        let text = s.to_string();
        assert!(text.contains("nodes:"));
        assert!(text.contains("avg branching"));
    }

    #[test]
    fn json_renders() {
        let c = cat(vec![vec![0, 1, 0]], 2);
        let s = TreeStats::compute(&DiskTree::from_tree(&build_full(c)));
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(&format!("\"suffixes\":{}", s.suffixes)));
    }

    #[test]
    fn empty_tree_stats() {
        let c = cat(vec![], 1);
        let mut t = SuffixTree::empty(c, false);
        t.finalize();
        let s = TreeStats::compute(&DiskTree::from_tree(&t));
        assert_eq!(s.nodes, 1);
        assert_eq!(s.suffixes, 0);
        assert_eq!(s.avg_branching, 0.0);
        assert_eq!(s.mean_suffix_depth, 0.0);
    }
}
