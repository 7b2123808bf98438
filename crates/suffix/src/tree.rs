//! The in-memory generalized suffix tree over categorized sequences.
//!
//! Nodes live in a flat arena indexed by [`NodeId`]. Edge labels are
//! references `(seq, start, len)` into the shared [`CatStore`] — the tree
//! never copies symbol data. Stored suffixes are recorded as
//! [`SuffixLabel`]s attached to the node their path ends at; in a sparse
//! tree (paper §6) a suffix label may sit on an internal node when the
//! suffix is a prefix of another stored suffix.
//!
//! After construction, [`SuffixTree::finalize`] computes the per-node
//! annotations the search algorithms need: the number of stored suffixes
//! below each node and the maximum leading-run length below (Definition 4
//! of the paper).

use std::sync::Arc;
use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::sequence::SeqId;

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// The root is always node 0.
pub const ROOT: NodeId = 0;

/// A reference to a symbol range of a categorized sequence — an edge
/// label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelRef {
    /// Sequence the label symbols come from.
    pub seq: SeqId,
    /// 0-based offset of the first label symbol.
    pub start: u32,
    /// Number of symbols.
    pub len: u32,
}

impl LabelRef {
    /// An empty label (used for the root).
    pub const EMPTY: LabelRef = LabelRef {
        seq: SeqId(0),
        start: 0,
        len: 0,
    };
}

/// One stored suffix: `CS_seq[start..]`, with the length of its leading
/// run of equal symbols (`N` in Definition 4) cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuffixLabel {
    /// Sequence the suffix belongs to.
    pub seq: SeqId,
    /// 0-based offset where the suffix starts.
    pub start: u32,
    /// Leading-run length of the suffix.
    pub lead_run: u32,
}

/// One tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Label of the edge entering this node (empty for the root).
    pub label: LabelRef,
    /// First symbol of `label` (cached; undefined for the root).
    pub first: Symbol,
    /// Children, kept sorted by their `first` symbol.
    pub children: Vec<NodeId>,
    /// Stored suffixes whose path ends exactly at this node.
    pub suffixes: Vec<SuffixLabel>,
    /// Annotation: stored suffixes at or below this node.
    pub suffix_count: u64,
    /// Annotation: maximum `lead_run` among stored suffixes at or below.
    pub max_lead_run: u32,
}

impl Node {
    fn new(label: LabelRef, first: Symbol) -> Self {
        Self {
            label,
            first,
            children: Vec::new(),
            suffixes: Vec::new(),
            suffix_count: 0,
            max_lead_run: 0,
        }
    }
}

/// Canonical structural form of a tree: sorted `(path, suffix labels)`
/// entries for every label-bearing node (see [`SuffixTree::canonical`]).
pub type CanonicalForm = Vec<(Vec<Symbol>, Vec<(u32, u32)>)>;

/// A generalized (optionally sparse) suffix tree over a [`CatStore`].
#[derive(Debug, Clone)]
pub struct SuffixTree {
    nodes: Vec<Node>,
    cat: Arc<CatStore>,
    sparse: bool,
    finalized: bool,
    /// When set, only suffix *prefixes* supporting answers up to this
    /// length are stored (paper §8); queries must bound their answer
    /// length accordingly.
    depth_limit: Option<u32>,
}

impl SuffixTree {
    /// Creates an empty tree (just a root) over `cat`.
    pub fn empty(cat: Arc<CatStore>, sparse: bool) -> Self {
        Self {
            nodes: vec![Node::new(LabelRef::EMPTY, 0)],
            cat: cat.clone(),
            sparse,
            finalized: false,
            depth_limit: None,
        }
    }

    /// The answer-length cap of a truncated tree (paper §8), when set.
    #[inline]
    pub fn depth_limit(&self) -> Option<u32> {
        self.depth_limit
    }

    /// Marks this tree as truncated to answers of at most `limit`
    /// symbols. Low-level construction API (used by the §8 builders and
    /// by disk-tree materialization).
    pub fn set_depth_limit(&mut self, limit: u32) {
        self.depth_limit = Some(limit);
    }

    /// The categorized store the labels reference.
    #[inline]
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// `true` when this tree stores only the §6.1 suffix subset.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Number of nodes, including the root.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Mutable node access. Low-level construction API: callers that
    /// mutate nodes directly must re-run [`finalize`](Self::finalize)
    /// and may use [`check_invariants`](Self::check_invariants) to
    /// validate the result.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// The symbols of a label.
    #[inline]
    pub fn label_symbols(&self, label: LabelRef) -> &[Symbol] {
        let s = self.cat.seq(label.seq);
        &s[label.start as usize..(label.start + label.len) as usize]
    }

    /// Allocates a node, returning its id. Low-level construction API.
    pub fn alloc(&mut self, label: LabelRef) -> NodeId {
        assert!(self.nodes.len() < u32::MAX as usize, "tree is full");
        let first = if label.len == 0 {
            0
        } else {
            self.cat.seq(label.seq)[label.start as usize]
        };
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node::new(label, first));
        id
    }

    /// Inserts `child` into `parent`'s sorted child list. Low-level
    /// construction API.
    pub fn attach(&mut self, parent: NodeId, child: NodeId) {
        let first = self.nodes[child as usize].first;
        let children = &self.nodes[parent as usize].children;
        let pos = children
            .binary_search_by_key(&first, |&c| self.nodes[c as usize].first)
            .unwrap_err();
        self.nodes[parent as usize].children.insert(pos, child);
    }

    /// Replaces `old` with `new` in `parent`'s child list (edge split).
    pub(crate) fn replace_child(&mut self, parent: NodeId, old: NodeId, new: NodeId) {
        let children = &mut self.nodes[parent as usize].children;
        let pos = children
            .iter()
            .position(|&c| c == old)
            .expect("old child present");
        children[pos] = new;
    }

    /// The child of `n` whose edge starts with `sym`, if any.
    pub fn child_by_symbol(&self, n: NodeId, sym: Symbol) -> Option<NodeId> {
        let children = &self.nodes[n as usize].children;
        children
            .binary_search_by_key(&sym, |&c| self.nodes[c as usize].first)
            .ok()
            .map(|i| children[i])
    }

    /// Total number of stored suffixes.
    pub fn suffix_count(&self) -> u64 {
        if self.finalized {
            self.nodes[ROOT as usize].suffix_count
        } else {
            self.nodes.iter().map(|n| n.suffixes.len() as u64).sum()
        }
    }

    /// Computes the per-node annotations (`suffix_count`, `max_lead_run`)
    /// bottom-up. Must be called after construction and before search.
    pub fn finalize(&mut self) {
        // Iterative post-order to stay safe on very deep trees.
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend_from_slice(&self.nodes[n as usize].children);
        }
        for &n in order.iter().rev() {
            let node = &self.nodes[n as usize];
            let mut count = node.suffixes.len() as u64;
            let mut run = node.suffixes.iter().map(|s| s.lead_run).max().unwrap_or(0);
            for &c in &self.nodes[n as usize].children {
                let child = &self.nodes[c as usize];
                count += child.suffix_count;
                run = run.max(child.max_lead_run);
            }
            let node = &mut self.nodes[n as usize];
            node.suffix_count = count;
            node.max_lead_run = run;
        }
        self.finalized = true;
    }

    /// `true` once [`finalize`](Self::finalize) has run.
    #[inline]
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Follows `path` from the root, returning the node reached when the
    /// whole path matches a root-to-node label concatenation exactly
    /// (classic suffix-tree lookup; the end may fall inside an edge, in
    /// which case the edge's child node is returned along with the number
    /// of unconsumed label symbols).
    pub fn locate(&self, path: &[Symbol]) -> Option<(NodeId, u32)> {
        let mut node = ROOT;
        let mut i = 0usize;
        while i < path.len() {
            let child = self.child_by_symbol(node, path[i])?;
            let label = self.label_symbols(self.node(child).label);
            let take = label.len().min(path.len() - i);
            if label[..take] != path[i..i + take] {
                return None;
            }
            i += take;
            if take < label.len() {
                return Some((child, (label.len() - take) as u32));
            }
            node = child;
        }
        Some((node, 0))
    }

    /// Collects every stored suffix at or below `n`.
    pub fn suffixes_below(&self, n: NodeId) -> Vec<SuffixLabel> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            let node = &self.nodes[x as usize];
            out.extend_from_slice(&node.suffixes);
            stack.extend_from_slice(&node.children);
        }
        out
    }

    /// Verifies structural invariants, panicking with a description on
    /// violation. Used by tests and available to callers after custom
    /// manipulation.
    ///
    /// Checks: child ordering and first-symbol consistency, label
    /// validity, every stored suffix spelled by its root path, and (for
    /// non-sparse finalized trees) annotation consistency.
    pub fn check_invariants(&self) {
        let mut stack: Vec<(NodeId, Vec<Symbol>)> = vec![(ROOT, Vec::new())];
        while let Some((n, path)) = stack.pop() {
            let node = &self.nodes[n as usize];
            if n != ROOT {
                assert!(node.label.len > 0, "non-root node with empty label");
                let syms = self.label_symbols(node.label);
                assert_eq!(syms[0], node.first, "cached first symbol stale");
            }
            let mut prev: Option<Symbol> = None;
            for &c in &node.children {
                let cf = self.nodes[c as usize].first;
                if let Some(p) = prev {
                    assert!(p < cf, "children unsorted or duplicate symbol");
                }
                prev = Some(cf);
            }
            for s in &node.suffixes {
                let full = self.cat.seq(s.seq);
                let suffix = &full[s.start as usize..];
                assert!(
                    path.len() <= suffix.len(),
                    "suffix label path outruns its suffix"
                );
                assert_eq!(
                    &path[..],
                    &suffix[..path.len()],
                    "suffix label path mismatch"
                );
                if self.depth_limit.is_none() {
                    assert_eq!(
                        path.len(),
                        suffix.len(),
                        "suffix label ends before/after its node"
                    );
                }
                assert_eq!(
                    s.lead_run,
                    self.cat.run_len(s.seq, s.start),
                    "stale lead_run"
                );
            }
            if self.finalized {
                let below = self.suffixes_below(n);
                assert_eq!(
                    node.suffix_count,
                    below.len() as u64,
                    "suffix_count annotation wrong"
                );
                let run = below.iter().map(|s| s.lead_run).max().unwrap_or(0);
                assert_eq!(node.max_lead_run, run, "max_lead_run annotation wrong");
            }
            for &c in &node.children {
                let mut cpath = path.clone();
                cpath.extend_from_slice(self.label_symbols(self.nodes[c as usize].label));
                stack.push((c, cpath));
            }
        }
    }

    /// Canonical structural form: a sorted list of
    /// `(path, sorted suffix labels)` for every node holding labels.
    /// Two trees over the same data are equivalent iff their canonical
    /// forms match — used to compare the Ukkonen and naive builders.
    pub fn canonical(&self) -> CanonicalForm {
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, Vec<Symbol>)> = vec![(ROOT, Vec::new())];
        while let Some((n, path)) = stack.pop() {
            let node = &self.nodes[n as usize];
            if !node.suffixes.is_empty() {
                let mut labels: Vec<(u32, u32)> =
                    node.suffixes.iter().map(|s| (s.seq.0, s.start)).collect();
                labels.sort_unstable();
                out.push((path.clone(), labels));
            }
            for &c in &node.children {
                let mut cpath = path.clone();
                cpath.extend_from_slice(self.label_symbols(self.nodes[c as usize].label));
                stack.push((c, cpath));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(seqs: Vec<Vec<Symbol>>, alpha: u32) -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(seqs, alpha))
    }

    #[test]
    fn empty_tree_has_root_only() {
        let t = SuffixTree::empty(cat(vec![vec![0, 1]], 2), false);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.suffix_count(), 0);
        assert!(!t.is_sparse());
        t.check_invariants();
    }

    #[test]
    fn alloc_attach_and_lookup() {
        let c = cat(vec![vec![0, 1, 2]], 3);
        let mut t = SuffixTree::empty(c, false);
        let a = t.alloc(LabelRef {
            seq: SeqId(0),
            start: 1,
            len: 2,
        }); // label <1,2>
        t.attach(ROOT, a);
        let b = t.alloc(LabelRef {
            seq: SeqId(0),
            start: 0,
            len: 1,
        }); // label <0>
        t.attach(ROOT, b);
        // Children sorted by first symbol: <0> before <1,2>.
        assert_eq!(t.node(ROOT).children, vec![b, a]);
        assert_eq!(t.child_by_symbol(ROOT, 1), Some(a));
        assert_eq!(t.child_by_symbol(ROOT, 2), None);
        assert_eq!(t.label_symbols(t.node(a).label), &[1, 2]);
    }

    #[test]
    fn finalize_computes_annotations() {
        let c = cat(vec![vec![0, 0, 1]], 2);
        let mut t = SuffixTree::empty(c.clone(), false);
        let a = t.alloc(LabelRef {
            seq: SeqId(0),
            start: 0,
            len: 3,
        });
        t.attach(ROOT, a);
        t.node_mut(a).suffixes.push(SuffixLabel {
            seq: SeqId(0),
            start: 0,
            lead_run: 2,
        });
        let b = t.alloc(LabelRef {
            seq: SeqId(0),
            start: 2,
            len: 1,
        });
        t.attach(ROOT, b);
        t.node_mut(b).suffixes.push(SuffixLabel {
            seq: SeqId(0),
            start: 2,
            lead_run: 1,
        });
        t.finalize();
        assert_eq!(t.node(ROOT).suffix_count, 2);
        assert_eq!(t.node(ROOT).max_lead_run, 2);
        assert_eq!(t.node(a).suffix_count, 1);
        assert_eq!(t.node(b).max_lead_run, 1);
        assert_eq!(t.suffix_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn find_occurrences_exact() {
        // banana over symbols b=0 a=1 n=2, via the naive builder.
        let c = cat(vec![vec![0, 1, 2, 1, 2, 1]], 3);
        let mut t = SuffixTree::empty(c, false);
        for start in 0..6 {
            crate::build::insert_suffix(&mut t, SeqId(0), start);
        }
        t.finalize();
        // Every stored suffix below where an exact pattern ends.
        let find = |pattern: &[Symbol]| -> Vec<(SeqId, u32)> {
            let Some((node, _)) = t.locate(pattern) else {
                return Vec::new();
            };
            let mut out: Vec<_> = t
                .suffixes_below(node)
                .iter()
                .map(|l| (l.seq, l.start))
                .collect();
            out.sort_unstable();
            out
        };
        assert_eq!(find(&[1, 2, 1]), vec![(SeqId(0), 1), (SeqId(0), 3)]);
        assert_eq!(find(&[2, 1]).len(), 2);
        assert!(find(&[0, 0]).is_empty());
        assert_eq!(find(&[]).len(), 6); // every suffix
    }

    #[test]
    fn locate_walks_edges() {
        let c = cat(vec![vec![0, 1, 2]], 3);
        let mut t = SuffixTree::empty(c, false);
        let a = t.alloc(LabelRef {
            seq: SeqId(0),
            start: 0,
            len: 3,
        });
        t.attach(ROOT, a);
        assert_eq!(t.locate(&[]), Some((ROOT, 0)));
        assert_eq!(t.locate(&[0]), Some((a, 2)));
        assert_eq!(t.locate(&[0, 1, 2]), Some((a, 0)));
        assert_eq!(t.locate(&[1]), None);
        assert_eq!(t.locate(&[0, 2]), None);
    }
}
