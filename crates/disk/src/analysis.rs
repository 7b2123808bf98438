//! The mining walks of `warptree_core::analysis` over trees served
//! from their bytes, against brute force.

#[cfg(test)]
mod tests {
    use crate::format::DiskTree;
    use std::collections::HashMap;
    use std::sync::Arc;
    use warptree_core::analysis::{longest_repeated, top_motifs, TreeStats};
    use warptree_core::categorize::{CatStore, Symbol};
    use warptree_core::error::CoreError;
    use warptree_suffix::{build_full_naive, build_sparse};

    fn cat(seqs: Vec<Vec<Symbol>>, alpha: u32) -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(seqs, alpha))
    }

    /// The full tree over `c`, as its bytes.
    fn build_full(c: Arc<CatStore>) -> DiskTree {
        DiskTree::from_tree(&warptree_suffix::build_full(c))
    }

    /// Brute-force counts of all subsequences of a given length.
    fn brute_counts(seqs: &[Vec<Symbol>], len: usize) -> HashMap<Vec<Symbol>, u64> {
        let mut m = HashMap::new();
        for s in seqs {
            for w in s.windows(len) {
                *m.entry(w.to_vec()).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn longest_repeated_banana() {
        // banana: b=0 a=1 n=2; longest repeat is "ana".
        let c = cat(vec![vec![0, 1, 2, 1, 2, 1]], 3);
        let tree = build_full(c);
        let motif = longest_repeated(&tree, 2).unwrap().expect("repeats exist");
        assert_eq!(motif.symbols, vec![1, 2, 1]);
        assert_eq!(motif.count, 2);
        let mut starts: Vec<u32> = motif.occurrences.iter().map(|&(_, p)| p).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![1, 3]);
    }

    #[test]
    fn longest_repeated_across_sequences() {
        let c = cat(vec![vec![0, 1, 2, 3], vec![9 % 4, 1, 2, 3]], 4);
        let tree = build_full(c);
        let motif = longest_repeated(&tree, 2).unwrap().unwrap();
        assert_eq!(motif.symbols, vec![1, 2, 3]);
        assert_eq!(motif.count, 2);
    }

    #[test]
    fn no_repeats_returns_none() {
        let c = cat(vec![vec![0, 1, 2, 3]], 4);
        let tree = build_full(c);
        assert!(longest_repeated(&tree, 2).unwrap().is_none());
    }

    #[test]
    fn top_motifs_match_brute_force() {
        let seqs: Vec<Vec<Symbol>> = vec![
            vec![0, 1, 0, 1, 2, 0, 1, 0],
            vec![1, 0, 1, 2, 2, 0],
            vec![2, 0, 1, 0, 1],
        ];
        let c = cat(seqs.clone(), 3);
        let tree = build_full(c);
        for len in 1..=4usize {
            let brute = brute_counts(&seqs, len);
            let motifs = top_motifs(&tree, len as u32, 100).unwrap();
            // Same number of distinct subsequences of this length.
            assert_eq!(motifs.len(), brute.len(), "len {len}");
            for m in &motifs {
                assert_eq!(
                    m.count, brute[&m.symbols],
                    "count mismatch for {:?}",
                    m.symbols
                );
                assert_eq!(m.occurrences.len() as u64, m.count);
                // Every reported occurrence actually spells the motif.
                for &(seq, start) in &m.occurrences {
                    let s = &seqs[seq.0 as usize];
                    assert_eq!(&s[start as usize..start as usize + len], &m.symbols[..]);
                }
            }
            // Descending counts.
            for w in motifs.windows(2) {
                assert!(w[0].count >= w[1].count);
            }
        }
    }

    #[test]
    fn distinct_count_matches_brute_force() {
        let seqs: Vec<Vec<Symbol>> = vec![vec![0, 1, 0, 1, 2], vec![1, 1, 0]];
        let c = cat(seqs.clone(), 3);
        let naive = DiskTree::from_tree(&build_full_naive(c.clone()));
        for tree in [build_full(c), naive] {
            let mut distinct = std::collections::HashSet::<Vec<Symbol>>::new();
            for s in &seqs {
                for start in 0..s.len() {
                    for end in start + 1..=s.len() {
                        distinct.insert(s[start..end].to_vec());
                    }
                }
            }
            assert_eq!(
                TreeStats::compute(&tree).label_symbols,
                distinct.len() as u64
            );
        }
    }

    #[test]
    fn sparse_tree_rejected() {
        let c = cat(vec![vec![0, 0, 1]], 2);
        let tree = DiskTree::from_tree(&build_sparse(c));
        let refused = CoreError::PartialIndex {
            sparse: true,
            depth_limit: None,
        };
        assert_eq!(longest_repeated(&tree, 2), Err(refused.clone()));
        assert_eq!(top_motifs(&tree, 1, 1), Err(refused));
    }
}
