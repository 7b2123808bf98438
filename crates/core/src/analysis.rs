//! Sequence mining and structural statistics over any [`IndexBackend`].
//!
//! The paper motivates the index with downstream mining: *"the
//! subsequences found by similarity searches can be used for
//! predictions, hypothesis testing, clustering and rule discovery"*
//! (§8). A generalized suffix tree answers several such questions
//! directly, and so does anything presenting one top-down — the tree
//! backends and the enhanced suffix array alike:
//!
//! * [`top_motifs`] — the most frequent categorized subsequences of a
//!   given length (shape motifs);
//! * [`longest_repeated`] — the longest categorized subsequence that
//!   occurs at least `min_count` times;
//! * [`TreeStats`] — node, suffix and depth totals (`warptree info
//!   --deep`). Its `label_symbols` is the number of distinct categorized
//!   subsequences of a full index.
//!
//! All three are one depth-first walk over
//! [`visit`](IndexBackend::visit): a path's symbols are the edge labels
//! on the walk's stack, and a node's count is the number of stored
//! suffixes at or below it. On the ESA a motif of length L is an LCP
//! interval of depth ≥ L, and its width is its count. Mining reads one
//! index: a [`SegmentedIndex`](crate::search::SegmentedIndex) repeats a
//! path once per segment, so mine a single index over the whole corpus.

use crate::categorize::Symbol;
use crate::error::CoreError;
use crate::search::IndexBackend;
use crate::sequence::SeqId;

/// A repeated categorized subsequence and where it occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Motif {
    /// The motif's symbol string.
    pub symbols: Vec<Symbol>,
    /// Number of occurrences in the database.
    pub count: u64,
    /// Occurrence positions `(seq, start)`, ascending.
    pub occurrences: Vec<(SeqId, u32)>,
}

/// The `k` most frequent categorized subsequences of exactly `len`
/// symbols, by descending count, ties by ascending symbol string.
///
/// Refuses a sparse or truncated index, which leaves suffixes out of
/// every count.
///
/// ```
/// use std::sync::Arc;
/// use warptree_core::analysis::top_motifs;
/// use warptree_core::categorize::CatStore;
/// use warptree_esa::EsaIndex;
/// // "banana" (b=0, a=1, n=2): the most frequent pair is "an".
/// let cat = Arc::new(CatStore::from_symbols(vec![vec![0, 1, 2, 1, 2, 1]], 3));
/// let esa = EsaIndex::build(cat, false);
/// let motifs = top_motifs(&esa, 2, 1).unwrap();
/// assert_eq!(motifs[0].symbols, vec![1, 2]);
/// assert_eq!(motifs[0].count, 2);
/// ```
pub fn top_motifs<B: IndexBackend>(index: &B, len: u32, k: usize) -> Result<Vec<Motif>, CoreError> {
    require_full(index)?;
    if len == 0 {
        return Ok(Vec::new());
    }
    // Every distinct length-`len` subsequence is the depth-`len` prefix
    // of exactly one node's path whose edge crosses depth `len`; the
    // walk stops there, so every node it reaches that deep is one.
    let mut found: Vec<(u64, Vec<Symbol>, B::Node)> = Vec::new();
    walk(index, len, |n, path| {
        if n.depth >= len {
            found.push((n.count, path[..len as usize].to_vec(), n.node));
        }
    });
    found.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    Ok(found
        .into_iter()
        .take(k)
        .map(|(_, symbols, node)| motif(index, symbols, node))
        .collect())
}

/// The longest categorized subsequence occurring at least `min_count`
/// (≥ 2) times, with its occurrences; among the longest, the smallest
/// symbol string. `None` when nothing repeats.
///
/// Refuses a sparse or truncated index, like [`top_motifs`].
pub fn longest_repeated<B: IndexBackend>(
    index: &B,
    min_count: u64,
) -> Result<Option<Motif>, CoreError> {
    require_full(index)?;
    let min_count = min_count.max(2);
    // Any prefix of an edge has the count of the edge's child node, so
    // the deepest qualifying position is a node.
    let mut best: Option<(Vec<Symbol>, B::Node)> = None;
    walk(index, u32::MAX, |n, path| {
        if n.count < min_count || path.is_empty() {
            return;
        }
        let better = best.as_ref().is_none_or(|(symbols, _)| {
            path.len() > symbols.len() || (path.len() == symbols.len() && path < &symbols[..])
        });
        if better {
            best = Some((path.to_vec(), n.node));
        }
    });
    Ok(best.map(|(symbols, node)| motif(index, symbols, node)))
}

/// Aggregate structural facts about an index, seen as the tree it
/// presents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Total nodes, including the root.
    pub nodes: u64,
    /// Nodes with at least one child.
    pub internal: u64,
    /// Nodes with no children (leaves).
    pub leaves: u64,
    /// Stored suffix labels.
    pub suffixes: u64,
    /// Maximum node depth (edges from the root).
    pub max_node_depth: u32,
    /// Maximum symbol depth (label symbols from the root).
    pub max_symbol_depth: u32,
    /// Mean children per internal node.
    pub avg_branching: f64,
    /// Total label symbols across all edges — the count of *distinct*
    /// subsequences for a full index, and the inline-label size driver.
    pub label_symbols: u64,
    /// Mean shared-prefix depth per stored suffix: symbol depth of its
    /// node weighted over suffixes. High values mean high table sharing
    /// (the paper's `R_d`).
    pub mean_suffix_depth: f64,
}

impl TreeStats {
    /// Computes statistics in one traversal.
    pub fn compute<B: IndexBackend>(index: &B) -> Self {
        let (mut nodes, mut internal, mut suffixes) = (0u64, 0u64, 0u64);
        let (mut max_node_depth, mut max_symbol_depth) = (0u32, 0u32);
        let (mut child_links, mut label_symbols, mut suffix_depth_sum) = (0u64, 0u64, 0u64);
        walk(index, u32::MAX, |n, _| {
            nodes += 1;
            label_symbols += u64::from(n.label_len);
            suffixes += u64::from(n.attached);
            suffix_depth_sum += u64::from(n.attached) * u64::from(n.depth);
            max_node_depth = max_node_depth.max(n.level);
            max_symbol_depth = max_symbol_depth.max(n.depth);
            if n.children > 0 {
                internal += 1;
                child_links += u64::from(n.children);
            }
        });
        Self {
            nodes,
            internal,
            leaves: nodes - internal,
            suffixes,
            max_node_depth,
            max_symbol_depth,
            avg_branching: if internal == 0 {
                0.0
            } else {
                child_links as f64 / internal as f64
            },
            label_symbols,
            mean_suffix_depth: if suffixes == 0 {
                0.0
            } else {
                suffix_depth_sum as f64 / suffixes as f64
            },
        }
    }

    /// Serializes the statistics as one JSON object (stable key names,
    /// the field names).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"nodes\":{},\"internal\":{},\"leaves\":{},\"suffixes\":{},",
                "\"max_node_depth\":{},\"max_symbol_depth\":{},\"avg_branching\":{},",
                "\"label_symbols\":{},\"mean_suffix_depth\":{}}}"
            ),
            self.nodes,
            self.internal,
            self.leaves,
            self.suffixes,
            self.max_node_depth,
            self.max_symbol_depth,
            warptree_obs::json::num(self.avg_branching),
            self.label_symbols,
            warptree_obs::json::num(self.mean_suffix_depth),
        )
    }
}

impl std::fmt::Display for TreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "nodes:             {}", self.nodes)?;
        writeln!(f, "  internal/leaves: {} / {}", self.internal, self.leaves)?;
        writeln!(f, "stored suffixes:   {}", self.suffixes)?;
        writeln!(
            f,
            "depth (nodes/syms):{} / {}",
            self.max_node_depth, self.max_symbol_depth
        )?;
        writeln!(f, "avg branching:     {:.2}", self.avg_branching)?;
        writeln!(f, "label symbols:     {}", self.label_symbols)?;
        write!(
            f,
            "mean suffix depth: {:.1} symbols",
            self.mean_suffix_depth
        )
    }
}

/// Mining counts every suffix: a sparse or truncated index has left
/// some out.
fn require_full(index: &impl IndexBackend) -> Result<(), CoreError> {
    let (sparse, depth_limit) = (index.is_sparse(), index.depth_limit());
    if sparse || depth_limit.is_some() {
        return Err(CoreError::PartialIndex {
            sparse,
            depth_limit,
        });
    }
    Ok(())
}

/// The motif spelled by `symbols`, whose occurrences are the suffixes
/// below `node`.
fn motif<B: IndexBackend>(index: &B, symbols: Vec<Symbol>, node: B::Node) -> Motif {
    let mut occurrences = Vec::new();
    index.for_each_suffix_below(node, &mut |seq, start, _| occurrences.push((seq, start)));
    occurrences.sort_unstable();
    Motif {
        count: occurrences.len() as u64,
        symbols,
        occurrences,
    }
}

/// A node as the walk leaves it.
struct Left<N> {
    node: N,
    /// Edges from the root.
    level: u32,
    /// Symbols from the root: the length of the node's path.
    depth: u32,
    label_len: u32,
    attached: u32,
    children: u32,
    /// Stored suffixes at or below the node.
    count: u64,
}

/// Depth-first walk from the root, calling `leave(node, path)` once the
/// node's subtree is done, where `path` spells the node's path. A node
/// at symbol depth `stop` or deeper is not descended into: its count
/// comes from [`for_each_suffix_below`](IndexBackend::for_each_suffix_below).
fn walk<B: IndexBackend>(index: &B, stop: u32, mut leave: impl FnMut(&Left<B::Node>, &[Symbol])) {
    // `None` leaves the innermost open node.
    let mut pending = vec![Some(index.root())];
    let mut open: Vec<Left<B::Node>> = Vec::new();
    let mut path: Vec<Symbol> = Vec::new();
    let mut kids = Vec::new();
    while let Some(step) = pending.pop() {
        let Some(node) = step else {
            let done = open.pop().expect("a node to leave");
            leave(&done, &path);
            path.truncate((done.depth - done.label_len) as usize);
            if let Some(parent) = open.last_mut() {
                parent.count += done.count;
            }
            continue;
        };
        let visit = index.visit(node, &mut kids);
        path.extend_from_slice(visit.label);
        let depth = path.len() as u32;
        let children = kids.len() as u32;
        pending.push(None);
        // The attached suffixes now, the children's as each is left.
        let mut count = u64::from(visit.attached);
        if depth < stop {
            pending.extend(kids.drain(..).rev().map(Some));
        } else {
            kids.clear();
            count = 0;
            index.for_each_suffix_below(node, &mut |_, _, _| count += 1);
        }
        open.push(Left {
            node,
            level: open.len() as u32,
            depth,
            label_len: visit.label.len() as u32,
            attached: visit.attached,
            children,
            count,
        });
    }
}
