//! Suffix insertion and the naive / sparse tree builders.
//!
//! [`insert_suffix`] walks a suffix down from the root, splitting an edge
//! where the suffix diverges (or ends) and attaching the suffix label at
//! the final node. Repeated insertion of every suffix yields a correct
//! generalized suffix tree in `O(total suffix length)` — quadratic in the
//! worst case, but this builder serves two roles where that is fine:
//!
//! * the **sparse** tree (paper §6.1) stores only suffixes whose first
//!   symbol differs from its predecessor, a set small enough for direct
//!   insertion (sparse suffix trees have no simple linear-time builder);
//! * a **reference** full builder used by the test suite to validate the
//!   linear-time Ukkonen builder structurally.

use std::sync::Arc;
use warptree_core::categorize::CatStore;
use warptree_core::sequence::SeqId;

use crate::tree::{LabelRef, NodeId, SuffixLabel, SuffixTree, ROOT};

/// Inserts the suffix `CS_seq[start..]` into the tree.
///
/// # Panics
/// Panics if the suffix is empty (out-of-range `start`).
pub fn insert_suffix(tree: &mut SuffixTree, seq: SeqId, start: u32) {
    let len = tree.cat().seq(seq).len() as u32;
    insert_suffix_prefix(tree, seq, start, len.saturating_sub(start));
}

/// Inserts only the first `keep` symbols of the suffix `CS_seq[start..]`
/// (the §8 truncated form); the suffix label attaches where the prefix
/// ends.
///
/// # Panics
/// Panics if the suffix is empty (out-of-range `start`) or `keep == 0`.
pub fn insert_suffix_prefix(tree: &mut SuffixTree, seq: SeqId, start: u32, keep: u32) {
    let full_len = tree.cat().seq(seq).len();
    assert!((start as usize) < full_len, "cannot insert an empty suffix");
    assert!(keep > 0, "cannot insert an empty prefix");
    let symbols_len = full_len.min(start as usize + keep as usize);
    let label = SuffixLabel {
        seq,
        start,
        lead_run: tree.cat().run_len(seq, start),
    };
    // Walk down: `pos` is the offset of the next unmatched suffix symbol.
    let mut node: NodeId = ROOT;
    let mut pos = start as usize;
    loop {
        if pos == symbols_len {
            tree.node_mut(node).suffixes.push(label);
            return;
        }
        let sym = tree.cat().seq(seq)[pos];
        let Some(child) = tree.child_by_symbol(node, sym) else {
            // No edge: attach the whole remainder as a leaf.
            let leaf = tree.alloc(LabelRef {
                seq,
                start: pos as u32,
                len: (symbols_len - pos) as u32,
            });
            tree.attach(node, leaf);
            tree.node_mut(leaf).suffixes.push(label);
            return;
        };
        // Match along the edge into `child`.
        let child_label = tree.node(child).label;
        let edge_len = child_label.len as usize;
        let mut matched = 0usize;
        {
            let edge = tree.label_symbols(child_label);
            let suffix = &tree.cat().seq(seq)[pos..];
            let take = edge_len.min(suffix.len());
            while matched < take && edge[matched] == suffix[matched] {
                matched += 1;
            }
        }
        pos += matched;
        if matched == edge_len {
            // Edge fully matched: continue below the child.
            node = child;
            continue;
        }
        // Divergence (or suffix exhaustion) inside the edge: split it.
        let mid = split_edge(tree, node, child, matched as u32);
        if pos == symbols_len {
            tree.node_mut(mid).suffixes.push(label);
        } else {
            let leaf = tree.alloc(LabelRef {
                seq,
                start: pos as u32,
                len: (symbols_len - pos) as u32,
            });
            tree.attach(mid, leaf);
            tree.node_mut(leaf).suffixes.push(label);
        }
        return;
    }
}

/// Splits the edge `parent -> child` after `offset` label symbols,
/// returning the new middle node. `child` keeps the tail of the label.
pub(crate) fn split_edge(
    tree: &mut SuffixTree,
    parent: NodeId,
    child: NodeId,
    offset: u32,
) -> NodeId {
    let old = tree.node(child).label;
    debug_assert!(offset > 0 && offset < old.len, "split inside the edge");
    let head = LabelRef {
        seq: old.seq,
        start: old.start,
        len: offset,
    };
    let tail = LabelRef {
        seq: old.seq,
        start: old.start + offset,
        len: old.len - offset,
    };
    let mid = tree.alloc(head);
    tree.replace_child(parent, child, mid);
    {
        let tail_first = tree.label_symbols(tail)[0];
        let child_node = tree.node_mut(child);
        child_node.label = tail;
        child_node.first = tail_first;
    }
    tree.attach(mid, child);
    mid
}

/// Builds a full generalized suffix tree by naive insertion of every
/// suffix. Reference builder — prefer
/// [`build_full`](crate::ukkonen::build_full) for large inputs.
pub fn build_full_naive(cat: Arc<CatStore>) -> SuffixTree {
    let mut tree = SuffixTree::empty(cat.clone(), false);
    for (i, s) in cat.seqs().iter().enumerate() {
        let seq = SeqId(i as u32);
        for start in 0..s.len() as u32 {
            insert_suffix(&mut tree, seq, start);
        }
    }
    tree.finalize();
    tree
}

/// Builds the sparse suffix tree of paper §6.1: only suffixes whose first
/// symbol differs from the immediately preceding symbol are stored.
pub fn build_sparse(cat: Arc<CatStore>) -> SuffixTree {
    let n = cat.len();
    build_sparse_range(cat, 0..n)
}

/// Answer-length bounds for the truncated indexes of paper §8.
///
/// When the query lengths (and warping window) are known in advance, the
/// answers' lengths are bounded; suffixes shorter than the minimum need
/// not be indexed, and longer suffixes only need their prefix up to the
/// maximum. The paper proposes this as its index-space reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncateSpec {
    /// Maximum answer length the index must support.
    pub max_answer_len: u32,
    /// Minimum answer length; shorter suffixes are skipped entirely.
    pub min_answer_len: u32,
}

impl TruncateSpec {
    /// Bounds derived from a query-length range and a warping window:
    /// answers lie within `[min_q − w, max_q + w]` (paper §8).
    pub fn for_queries(min_q: u32, max_q: u32, window: u32) -> Self {
        Self {
            max_answer_len: max_q + window,
            min_answer_len: min_q.saturating_sub(window).max(1),
        }
    }
}

/// Builds a §8-truncated full suffix tree: every sufficiently long
/// suffix contributes only its first `max_answer_len` symbols.
///
/// Searches over the result must bound their answer length to at most
/// `max_answer_len` (via window or `SearchParams::length_range`); the
/// filter enforces this.
pub fn build_full_truncated(cat: Arc<CatStore>, spec: TruncateSpec) -> SuffixTree {
    let n = cat.len();
    build_truncated_range(cat, false, spec, 0..n)
}

/// Builds a §8-truncated sparse suffix tree. Each stored suffix keeps
/// `max_answer_len + lead_run − 1` symbols so the shifted (non-stored)
/// suffixes of Definition 4 still reach every in-range answer length.
pub fn build_sparse_truncated(cat: Arc<CatStore>, spec: TruncateSpec) -> SuffixTree {
    let n = cat.len();
    build_truncated_range(cat, true, spec, 0..n)
}

/// [`build_full_truncated`] (or, when `sparse`, [`build_sparse_truncated`])
/// over only the sequences in `range` — the per-batch step of the
/// incremental disk construction of a truncated index.
pub fn build_truncated_range(
    cat: Arc<CatStore>,
    sparse: bool,
    spec: TruncateSpec,
    range: std::ops::Range<usize>,
) -> SuffixTree {
    assert!(spec.max_answer_len >= 1);
    let mut tree = SuffixTree::empty(cat.clone(), sparse);
    for i in range {
        let seq = SeqId(i as u32);
        let len = cat.seqs()[i].len() as u32;
        // Suffixes only shorten from here: stop at the first one too
        // short to host a minimum-length answer.
        for start in (0..len).take_while(|&start| len - start >= spec.min_answer_len) {
            let keep = if !sparse {
                spec.max_answer_len
            } else if cat.is_stored_suffix(seq, start) {
                // Saturating: a pathological `max_answer_len` near
                // u32::MAX must keep the whole suffix, not wrap to a
                // short prefix.
                spec.max_answer_len
                    .saturating_add(cat.run_len(seq, start) - 1)
            } else {
                continue;
            };
            insert_suffix_prefix(&mut tree, seq, start, keep);
        }
    }
    tree.set_depth_limit(spec.max_answer_len);
    tree.finalize();
    tree
}

/// Builds the sparse suffix tree over only the sequences in `range`
/// (labels still reference global sequence ids) — the per-batch step of
/// the incremental disk construction.
pub fn build_sparse_range(cat: Arc<CatStore>, range: std::ops::Range<usize>) -> SuffixTree {
    let mut tree = SuffixTree::empty(cat.clone(), true);
    for i in range {
        let seq = SeqId(i as u32);
        for start in 0..cat.seqs()[i].len() as u32 {
            if cat.is_stored_suffix(seq, start) {
                insert_suffix(&mut tree, seq, start);
            }
        }
    }
    tree.finalize();
    tree
}

/// The compaction ratio `r` of a sparse tree over `cat`:
/// `(non-stored suffixes) / (all suffixes)` (paper §6).
pub fn compaction_ratio(cat: &CatStore) -> f64 {
    let total = cat.total_len();
    if total == 0 {
        return 0.0;
    }
    let stored: u64 = cat
        .seqs()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (0..s.len() as u32)
                .filter(|&p| cat.is_stored_suffix(SeqId(i as u32), p))
                .count() as u64
        })
        .sum();
    (total - stored) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::categorize::Symbol;

    fn cat(seqs: Vec<Vec<Symbol>>, alpha: u32) -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(seqs, alpha))
    }

    #[test]
    fn paper_figure2_tree_shape() {
        // S5 = <4,5,6,7,6,6>, S6 = <4,6,7,8> as symbols 0..=4 for values
        // 4..=8.
        let c = cat(vec![vec![0, 1, 2, 3, 2, 2], vec![0, 2, 3, 4]], 5);
        let t = build_full_naive(c.clone());
        t.check_invariants();
        assert_eq!(t.suffix_count(), 10);
        // Path <2,3> ("6,7") is shared by S5[2:] and S6[1:]: locating it
        // must reach an internal node with two suffixes below.
        let (n, rem) = t.locate(&[2, 3]).expect("path exists");
        assert_eq!(rem, 0);
        let below = t.suffixes_below(n);
        assert_eq!(below.len(), 2);
        // The root has one child per distinct starting symbol.
        assert_eq!(t.node(crate::tree::ROOT).children.len(), 5);
    }

    #[test]
    fn every_suffix_locatable() {
        let c = cat(vec![vec![0, 1, 0, 1, 2], vec![1, 1, 2]], 3);
        let t = build_full_naive(c.clone());
        t.check_invariants();
        for (i, s) in c.seqs().iter().enumerate() {
            for start in 0..s.len() {
                let suffix = &s[start..];
                let (node, rem) = t.locate(suffix).expect("suffix present");
                assert_eq!(rem, 0, "suffix must end at a node");
                assert!(
                    t.node(node)
                        .suffixes
                        .iter()
                        .any(|l| l.seq == SeqId(i as u32) && l.start == start as u32),
                    "label missing for ({i},{start})"
                );
            }
        }
    }

    #[test]
    fn sparse_stores_exactly_the_subset() {
        // CS_8 = <C1,C1,C1,C3,C2,C2>: stored suffixes at 0, 3, 4.
        let c = cat(vec![vec![0, 0, 0, 2, 1, 1]], 3);
        let t = build_sparse(c.clone());
        t.check_invariants();
        assert!(t.is_sparse());
        assert_eq!(t.suffix_count(), 3);
        let mut starts: Vec<u32> = t.suffixes_below(ROOT).iter().map(|l| l.start).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 3, 4]);
        // lead runs: suffix 0 has run 3, suffix 3 run 1, suffix 4 run 2.
        assert_eq!(t.node(ROOT).max_lead_run, 3);
    }

    #[test]
    fn compaction_ratio_matches_definition() {
        let c = cat(vec![vec![0, 0, 0, 2, 1, 1]], 3);
        // 6 suffixes, 3 stored -> r = 0.5.
        assert!((compaction_ratio(&c) - 0.5).abs() < 1e-12);
        // All-distinct symbols: nothing compacted.
        let d = cat(vec![vec![0, 1, 2]], 3);
        assert_eq!(compaction_ratio(&d), 0.0);
        // Constant sequence: only the first suffix stored.
        let e = cat(vec![vec![1, 1, 1, 1]], 2);
        assert!((compaction_ratio(&e) - 0.75).abs() < 1e-12);
        let t = build_sparse(e);
        assert_eq!(t.suffix_count(), 1);
    }

    #[test]
    fn suffix_that_is_prefix_attaches_to_internal_node() {
        // <0,1> and <0,1,2>: suffix (0-based) 0 of seq0 = <0,1,2>,
        // suffix 0 of seq1 = <0,1> is a prefix of it.
        let c = cat(vec![vec![0, 1, 2], vec![0, 1]], 3);
        let t = build_full_naive(c);
        t.check_invariants();
        let (n, rem) = t.locate(&[0, 1]).expect("path exists");
        assert_eq!(rem, 0);
        assert!(t
            .node(n)
            .suffixes
            .iter()
            .any(|l| l.seq == SeqId(1) && l.start == 0));
        assert!(!t.node(n).children.is_empty());
    }

    #[test]
    fn duplicate_suffixes_share_a_node() {
        let c = cat(vec![vec![0, 1], vec![0, 1]], 2);
        let t = build_full_naive(c);
        let (n, rem) = t.locate(&[0, 1]).expect("path exists");
        assert_eq!(rem, 0);
        assert_eq!(t.node(n).suffixes.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty suffix")]
    fn empty_suffix_rejected() {
        let c = cat(vec![vec![0]], 1);
        let mut t = SuffixTree::empty(c, false);
        insert_suffix(&mut t, SeqId(0), 1);
    }
}
