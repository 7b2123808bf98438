//! The index-backend abstraction: [`IndexBackend`] + [`BackendKind`].
//!
//! The filter algorithms (paper Algorithms 2, 3 and §6.3) never touch an
//! index data structure directly — they drive any implementation of
//! [`IndexBackend`], a read-only top-down view of a (possibly sparse,
//! possibly disk-resident) generalized suffix t**rie** over categorized
//! sequences. Two families implement it:
//!
//! * **Suffix trees** ([`BackendKind::Tree`]): the tree file of
//!   `warptree-disk`, served from its bytes whether read from disk or
//!   encoded in memory from a `warptree-suffix` build — the paper's
//!   ST / ST_C / SST_C layouts.
//! * **Enhanced suffix arrays** ([`BackendKind::Esa`]): the categorized
//!   SA + LCP + child-interval table of `warptree-esa`, whose
//!   LCP-interval tree presents the *same* logical tree at a fraction of
//!   the memory (see DESIGN.md §18).
//!
//! Because Theorem 1, `D_tw-lb`, the sparse filter's run row and the
//! lower-bound cascade only consume this trait, every pruning argument
//! carries over to any conforming backend unchanged; the headline cross-backend test asserts
//! byte-identical answers and funnel statistics between the two families.

use crate::categorize::Symbol;
use crate::sequence::SeqId;

/// Which index-backend family built (and serves) an index.
///
/// Recorded in the on-disk MANIFEST, selectable at build time
/// (`warptree build --backend {tree,esa}`) and assertable per query via
/// [`QueryRequest::backend`](crate::search::QueryRequest::backend); the
/// wire protocol forwards it as the request's `backend` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Node-based suffix tree (the paper's ST / ST_C / SST_C).
    Tree,
    /// Enhanced suffix array: SA + LCP + child-interval table.
    Esa,
}

impl BackendKind {
    /// The stable lowercase name used in CLIs, manifests and on the
    /// wire.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Tree => "tree",
            BackendKind::Esa => "esa",
        }
    }

    /// Parses a stable name back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "tree" => BackendKind::Tree,
            "esa" => BackendKind::Esa,
            _ => return None,
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one [`IndexBackend::visit`] reports about a node, besides the
/// children it appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeVisit<'a> {
    /// Label of the edge *entering* the node: non-empty for every
    /// non-root node, empty for the root, identical on every visit.
    /// Borrowed from the index — every backend's label is a substring
    /// of the categorized store it holds — so a visit copies no symbols.
    pub label: &'a [Symbol],
    /// Maximum leading-run length among stored suffixes at or below the
    /// node (used only by sparse search; dense backends may report
    /// anything).
    pub max_lead_run: u32,
    /// Number of stored suffixes at or below the node, when the index
    /// can answer in O(1) (tree backends annotate nodes with the count;
    /// the ESA derives it from interval width). Used only for
    /// observability — metering the table-sharing factor `R_d` — so
    /// `None` simply disables that metric.
    pub suffix_count: Option<u64>,
    /// Number of stored suffixes attached *at* the node — those whose
    /// path ends here, which
    /// [`for_each_suffix_at`](IndexBackend::for_each_suffix_at)
    /// enumerates. Must be exact: the filter skips that call when it is 0.
    pub attached: u32,
}

/// A child buffer seen through a handle conversion: what a view over
/// other backends ([`SegmentedIndex`](crate::search::segmented::SegmentedIndex),
/// a backend-dispatching enum) hands to the backend it wraps, so the
/// wrapped [`visit`](IndexBackend::visit) appends straight into the
/// traversal's buffer of *view* handles.
pub struct MapChildren<'a, S, F> {
    sink: &'a mut S,
    wrap: F,
}

impl<'a, S, F> MapChildren<'a, S, F> {
    /// Appends to `sink`, converting each handle with `wrap`.
    pub fn new(sink: &'a mut S, wrap: F) -> Self {
        Self { sink, wrap }
    }
}

impl<A, B, S: Extend<B>, F: Fn(A) -> B> Extend<A> for MapChildren<'_, S, F> {
    fn extend<I: IntoIterator<Item = A>>(&mut self, iter: I) {
        self.sink.extend(iter.into_iter().map(&self.wrap));
    }
}

/// Read-only view of an index backend: a (possibly disk-resident,
/// possibly sparse) generalized suffix tree over categorized sequences,
/// or anything that can emulate one top-down.
///
/// The filter drives any implementation of this trait; `warptree-disk`
/// provides the suffix tree (its file's bytes) and `warptree-esa` the
/// enhanced-suffix-array emulation.
///
/// # Traversal contract
///
/// * The concatenated edge labels from the root to any node spell the
///   longest common prefix of the stored suffixes below it.
/// * A traversal learns everything about a node from **one**
///   [`visit`](IndexBackend::visit): its label, its annotations and its
///   children. A backend whose nodes are expensive to reach (a paged
///   record behind a cache) therefore pays for one fetch per visited
///   node, and the filter allocates nothing per node.
/// * Every stored suffix is either attached at a node (reported by that
///   node's [`NodeVisit::attached`] and enumerated by
///   [`for_each_suffix_at`](IndexBackend::for_each_suffix_at)) or below
///   one of its children — never both. The filter enumerates each suffix
///   once, where the traversal stops above it: below a pruned child with
///   [`for_each_suffix_below`](IndexBackend::for_each_suffix_below), at
///   a node it continues under with `for_each_suffix_at`.
/// * Traversal is **deterministic**: two traversals of the same index
///   observe identical children in identical order and identical suffix
///   enumerations. Byte-identical filter output across thread counts
///   rests on this.
/// * Node handles are plain `Copy + Send` values so parallel traversal
///   can hand subtree roots to worker threads; a handle stays valid for
///   the lifetime of the index it came from.
pub trait IndexBackend {
    /// Opaque node handle. `Send` so parallel traversal can hand
    /// subtree roots to worker threads (the tree backends use plain
    /// integers; the ESA backend a small interval struct).
    type Node: Copy + Send;

    /// The root node (empty path).
    fn root(&self) -> Self::Node;

    /// Visits `n`: appends its children to `children` — a buffer the
    /// traversal owns and reuses (the filter passes one `Vec` for the
    /// whole query) — and returns the node's edge label and annotations.
    /// A view over other backends forwards the buffer through
    /// [`MapChildren`] to re-tag the handles on the way in.
    ///
    /// The order of the appended children is part of the equivalence
    /// contract: ascending order of their edge's first symbol, the
    /// order the tree builders maintain and the parallel filter's
    /// candidate stitching assumes. Segmented indexes may repeat a
    /// first symbol across segments (same-segment children contiguous,
    /// segments in ascending order) — see
    /// [`SegmentedIndex`](crate::search::segmented::SegmentedIndex).
    fn visit(&self, n: Self::Node, children: &mut impl Extend<Self::Node>) -> NodeVisit<'_>;

    /// Invokes `f(seq, start, lead_run)` for every stored suffix at or
    /// below `n`: its sequence id, 0-based start offset, and the length
    /// of the run of equal symbols at its start (`N` in Definition 4).
    ///
    /// The enumeration must be deterministic (same order every call);
    /// the filter's candidate groups inherit their order from it.
    fn for_each_suffix_below(&self, n: Self::Node, f: &mut dyn FnMut(SeqId, u32, u32));

    /// Invokes `f(seq, start, lead_run)` for the stored suffixes attached
    /// *at* `n` alone — [`NodeVisit::attached`] of them, in the order
    /// [`for_each_suffix_below`](Self::for_each_suffix_below) reports
    /// them first.
    fn for_each_suffix_at(&self, n: Self::Node, f: &mut dyn FnMut(SeqId, u32, u32));

    /// `true` when this index stores only the paper's §6.1 suffix subset
    /// (first symbol differs from its predecessor).
    fn is_sparse(&self) -> bool;

    /// Number of stored suffixes (leaf labels) in the whole index.
    fn suffix_count(&self) -> u64;

    /// Which backend family this index belongs to. Defaults to
    /// [`BackendKind::Tree`], the family every pre-existing
    /// implementation belongs to. [`run_query_with`](crate::search::run_query_with)
    /// checks it against
    /// [`QueryRequest::backend`](crate::search::QueryRequest::backend)
    /// when the request pins one.
    fn backend_kind(&self) -> BackendKind {
        BackendKind::Tree
    }

    /// Answer-length cap of a §8-truncated index. `None` (the default)
    /// means the index supports unbounded answer lengths.
    fn depth_limit(&self) -> Option<u32> {
        None
    }

    /// Segment ordinal of a *root child*, for multi-segment indexes
    /// whose root fans out over per-segment subtrees
    /// ([`SegmentedIndex`](crate::search::segmented::SegmentedIndex)
    /// keeps same-segment children contiguous). Used only for
    /// observability — grouping the filter's root-level work into
    /// per-segment trace spans — so the default `None` simply folds the
    /// whole tree into one anonymous segment.
    fn segment_hint(&self, n: Self::Node) -> Option<u32> {
        let _ = n;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips_its_names() {
        for kind in [BackendKind::Tree, BackendKind::Esa] {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(BackendKind::parse("btree"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn deprecated_alias_accepts_any_backend() {
        struct Nothing;
        impl IndexBackend for Nothing {
            type Node = ();
            fn root(&self) {}
            fn visit(&self, _: (), _: &mut impl Extend<()>) -> NodeVisit<'_> {
                NodeVisit {
                    label: &[],
                    max_lead_run: 0,
                    suffix_count: None,
                    attached: 0,
                }
            }
            fn for_each_suffix_below(&self, _: (), _: &mut dyn FnMut(SeqId, u32, u32)) {}
            fn for_each_suffix_at(&self, _: (), _: &mut dyn FnMut(SeqId, u32, u32)) {}
            fn is_sparse(&self) -> bool {
                false
            }
            fn suffix_count(&self) -> u64 {
                0
            }
        }
        assert_eq!(Nothing.backend_kind(), BackendKind::Tree);
    }
}
