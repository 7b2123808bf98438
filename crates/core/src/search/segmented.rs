//! Multi-segment fan-out: N partial suffix trees presented as one
//! [`IndexBackend`].
//!
//! The LSM-style index keeps new sequences in small tail segments (each
//! a suffix tree over just its own suffixes) until a background merge
//! compacts them into the base tree. Queries must see the union;
//! [`SegmentedIndex`] provides it without touching the filter: a
//! virtual root whose children are every segment root's children, in
//! segment order. All other operations delegate to the owning segment.
//!
//! ## Equivalence contract
//!
//! A query over `SegmentedIndex` finds the **same answer set** as over
//! a monolithic tree built from the whole corpus:
//!
//! * Every stored suffix lives in exactly one segment, with its
//!   *global* `SeqId` and lead run, so candidate emission per suffix is
//!   governed by the same per-suffix data as in the monolithic tree.
//!   Theorem-1 pruning reads the path's own table alone. The one bound
//!   read off the subtree, `max_lead_run`, only sets how far past
//!   `max_len` a sparse path may go; it can only be *smaller* within a
//!   segment (fewer suffixes below a node ⇒ shorter runs), by rows no
//!   suffix of the segment has an in-range length at — so no candidate
//!   the monolithic tree would emit is lost, and none is added.
//! * The filter emits one candidate group per stored suffix (and per
//!   shift into its leading run), holding every length the suffix's
//!   path qualifies for. Segments hold disjoint sequences, so a
//!   `(seq, start)` still gets exactly one group — the one the
//!   monolithic tree would emit — only in a different *order*.
//!   Post-processing verifies each group on its own and sorts the
//!   matches by occurrence, so that order cannot leak into the results:
//!   threshold answers, k-NN ranking and every candidate-level funnel
//!   counter (`candidates`, `postprocessed`, `false_alarms`, `answers`)
//!   are byte-identical. Structural traversal counters (`nodes_visited`,
//!   `rows_pushed`, …) legitimately differ — segments repeat shared
//!   path prefixes the monolithic tree walks once.

use crate::search::backend::{IndexBackend, MapChildren, NodeVisit};
use crate::sequence::SeqId;

/// A node of the fan-out view: the virtual root, or a node inside one
/// segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegNode<N> {
    /// The virtual root gluing the segment roots together.
    Root,
    /// A real node of segment `seg`.
    Inner {
        /// Index into the segment list.
        seg: u32,
        /// The segment's own node handle.
        node: N,
    },
}

/// N suffix-tree segments over disjoint suffix sets of one corpus,
/// presented as a single [`IndexBackend`] (see the module docs for
/// the equivalence contract).
///
/// Every segment must index suffixes with corpus-global [`SeqId`]s and
/// agree on the sparse flag and depth limit — enforced at
/// construction, since mixing them would silently break the
/// no-false-dismissal guarantee.
pub struct SegmentedIndex<'a, T> {
    segments: Vec<&'a T>,
}

impl<'a, T: IndexBackend> SegmentedIndex<'a, T> {
    /// Builds the fan-out view over `segments` (base first, tails in
    /// append order).
    ///
    /// # Panics
    /// When `segments` is empty or the segments disagree on sparseness
    /// or depth limit.
    pub fn new(segments: Vec<&'a T>) -> Self {
        assert!(!segments.is_empty(), "segmented index needs >= 1 segment");
        let sparse = segments[0].is_sparse();
        let limit = segments[0].depth_limit();
        for s in &segments[1..] {
            assert_eq!(s.is_sparse(), sparse, "segments must share the sparse flag");
            assert_eq!(
                s.depth_limit(),
                limit,
                "segments must share the depth limit"
            );
        }
        Self { segments }
    }

    /// Number of segments in the view.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn seg(&self, i: u32) -> &'a T {
        self.segments[i as usize]
    }
}

impl<T: IndexBackend> IndexBackend for SegmentedIndex<'_, T> {
    type Node = SegNode<T::Node>;

    fn root(&self) -> Self::Node {
        SegNode::Root
    }

    fn visit(&self, n: Self::Node, children: &mut impl Extend<Self::Node>) -> NodeVisit<'_> {
        let inner = |seg: u32, node: T::Node, children: &mut _| {
            let wrap = |node| SegNode::Inner { seg, node };
            self.seg(seg)
                .visit(node, &mut MapChildren::new(children, wrap))
        };
        match n {
            // The virtual root: every segment root's children, in
            // segment order, under the union of the roots' annotations.
            SegNode::Root => {
                let mut all = NodeVisit {
                    label: &[],
                    max_lead_run: 0,
                    suffix_count: Some(0),
                    attached: 0,
                };
                for (i, s) in self.segments.iter().enumerate() {
                    let v = inner(i as u32, s.root(), children);
                    all.max_lead_run = all.max_lead_run.max(v.max_lead_run);
                    all.suffix_count = all.suffix_count.zip(v.suffix_count).map(|(a, b)| a + b);
                    all.attached += v.attached;
                }
                all
            }
            SegNode::Inner { seg, node } => inner(seg, node, children),
        }
    }

    fn for_each_suffix_below(&self, n: Self::Node, f: &mut dyn FnMut(SeqId, u32, u32)) {
        match n {
            SegNode::Root => {
                for s in &self.segments {
                    s.for_each_suffix_below(s.root(), f);
                }
            }
            SegNode::Inner { seg, node } => self.seg(seg).for_each_suffix_below(node, f),
        }
    }

    fn for_each_suffix_at(&self, n: Self::Node, f: &mut dyn FnMut(SeqId, u32, u32)) {
        match n {
            SegNode::Root => {
                for s in &self.segments {
                    s.for_each_suffix_at(s.root(), f);
                }
            }
            SegNode::Inner { seg, node } => self.seg(seg).for_each_suffix_at(node, f),
        }
    }

    fn is_sparse(&self) -> bool {
        self.segments[0].is_sparse()
    }

    fn suffix_count(&self) -> u64 {
        self.segments.iter().map(|s| s.suffix_count()).sum()
    }

    fn depth_limit(&self) -> Option<u32> {
        self.segments[0].depth_limit()
    }

    fn backend_kind(&self) -> crate::search::BackendKind {
        // Segments of one directory share a backend (the manifest
        // records exactly one); delegating keeps a pinned request's
        // backend check honest on segmented directories.
        self.segments[0].backend_kind()
    }

    fn segment_hint(&self, n: Self::Node) -> Option<u32> {
        // `visit(Root)` appends each segment's children as one
        // contiguous run, so the filter can group root-level trace spans
        // per segment from this hint alone.
        match n {
            SegNode::Root => None,
            SegNode::Inner { seg, .. } => Some(seg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::{Alphabet, CatStore};
    use crate::search::answers::SearchStats;
    use crate::search::knn::KnnParams;
    use crate::search::query::QueryRequest;
    use crate::search::run_query;
    use crate::search::SearchParams;
    use crate::sequence::SequenceStore;

    type ToyNode = (Vec<u32>, Vec<usize>, Vec<(SeqId, u32, u32)>);

    /// Trie-shaped test double over a *range* of the corpus, storing
    /// global sequence ids (same shape as the filter/knn test doubles).
    struct ToyTree {
        nodes: Vec<ToyNode>,
    }

    impl ToyTree {
        fn build_range(cat: &CatStore, range: std::ops::Range<usize>) -> Self {
            let mut t = ToyTree {
                nodes: vec![(Vec::new(), Vec::new(), Vec::new())],
            };
            for i in range {
                let s = &cat.seqs()[i];
                for start in 0..s.len() {
                    let mut node = 0usize;
                    for &sym in &s[start..] {
                        let found = t.nodes[node]
                            .1
                            .iter()
                            .copied()
                            .find(|&c| t.nodes[c].0 == [sym]);
                        node = match found {
                            Some(c) => c,
                            None => {
                                let c = t.nodes.len();
                                t.nodes.push((vec![sym], Vec::new(), Vec::new()));
                                t.nodes[node].1.push(c);
                                c
                            }
                        };
                    }
                    let run = cat.run_len(SeqId(i as u32), start as u32);
                    t.nodes[node].2.push((SeqId(i as u32), start as u32, run));
                }
            }
            t
        }
    }

    impl IndexBackend for ToyTree {
        type Node = usize;
        fn root(&self) -> usize {
            0
        }
        fn visit(&self, n: usize, children: &mut impl Extend<usize>) -> NodeVisit<'_> {
            children.extend(self.nodes[n].1.iter().copied());
            let mut max_lead_run = 0;
            self.for_each_suffix_below(n, &mut |_, _, r| max_lead_run = max_lead_run.max(r));
            NodeVisit {
                label: &self.nodes[n].0,
                max_lead_run,
                suffix_count: None,
                attached: self.nodes[n].2.len() as u32,
            }
        }
        fn for_each_suffix_below(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            self.for_each_suffix_at(n, f);
            for &c in &self.nodes[n].1 {
                self.for_each_suffix_below(c, f);
            }
        }
        fn for_each_suffix_at(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            for &(s, p, r) in &self.nodes[n].2 {
                f(s, p, r);
            }
        }
        fn is_sparse(&self) -> bool {
            false
        }
        fn suffix_count(&self) -> u64 {
            let mut n = 0;
            self.for_each_suffix_below(0, &mut |_, _, _| n += 1);
            n
        }
    }

    fn setup() -> (SequenceStore, Alphabet, CatStore) {
        let store = SequenceStore::from_values(vec![
            vec![1.0, 5.0, 9.0, 5.0, 1.0],
            vec![5.0, 5.2, 9.5],
            vec![9.0, 5.0, 1.0, 1.2],
            vec![5.1, 9.2, 5.0, 5.0],
        ]);
        let alphabet = Alphabet::singleton(&store).unwrap();
        let cat = alphabet.encode_store(&store);
        (store, alphabet, cat)
    }

    /// Candidate-level funnel fields — identical across segmentations
    /// (structural traversal counters legitimately differ).
    fn funnel(s: &SearchStats) -> (u64, u64, u64, u64) {
        (s.candidates, s.postprocessed, s.false_alarms, s.answers)
    }

    #[test]
    fn single_segment_is_transparent() {
        let (store, alphabet, cat) = setup();
        let mono = ToyTree::build_range(&cat, 0..4);
        let seg = SegmentedIndex::new(vec![&mono]);
        assert_eq!(seg.suffix_count(), mono.suffix_count());
        let req = QueryRequest::threshold(&[5.0, 9.0], 1.0);
        let (a, sa) = run_query(&mono, &alphabet, &store, &req).unwrap();
        let (b, sb) = run_query(&seg, &alphabet, &store, &req).unwrap();
        assert_eq!(a.matches(), b.matches());
        assert_eq!(sa, sb, "one segment adds no traversal work");
    }

    #[test]
    fn multi_segment_matches_monolithic() {
        let (store, alphabet, cat) = setup();
        let mono = ToyTree::build_range(&cat, 0..4);
        for cuts in [
            vec![0..2, 2..4],
            vec![0..1, 1..2, 2..3, 3..4],
            vec![0..3, 3..4],
        ] {
            let parts: Vec<ToyTree> = cuts
                .iter()
                .map(|r| ToyTree::build_range(&cat, r.clone()))
                .collect();
            let seg = SegmentedIndex::new(parts.iter().collect());
            assert_eq!(seg.segment_count(), cuts.len());
            assert_eq!(seg.suffix_count(), mono.suffix_count());
            for eps in [0.0, 0.5, 2.0, 10.0] {
                for threads in [1u32, 2] {
                    let req = QueryRequest::threshold_params(
                        &[5.0, 9.0, 5.0],
                        SearchParams::with_epsilon(eps).parallel(threads),
                    );
                    let (a, sa) = run_query(&mono, &alphabet, &store, &req).unwrap();
                    let (b, sb) = run_query(&seg, &alphabet, &store, &req).unwrap();
                    assert_eq!(
                        a.matches(),
                        b.matches(),
                        "eps={eps} t={threads} cuts={cuts:?}"
                    );
                    assert_eq!(funnel(&sa), funnel(&sb), "eps={eps} t={threads}");
                }
            }
            // k-NN ranking across segments.
            for k in [1usize, 3, 7] {
                let req = QueryRequest::knn_params(&[5.0, 9.0], KnnParams::new(k));
                let (a, _) = run_query(&mono, &alphabet, &store, &req).unwrap();
                let (b, _) = run_query(&seg, &alphabet, &store, &req).unwrap();
                assert_eq!(a.matches(), b.matches(), "k={k} cuts={cuts:?}");
            }
        }
    }

    #[test]
    fn knn_output_is_ranked_variant() {
        let (store, alphabet, cat) = setup();
        let t0 = ToyTree::build_range(&cat, 0..2);
        let t1 = ToyTree::build_range(&cat, 2..4);
        let seg = SegmentedIndex::new(vec![&t0, &t1]);
        let req = QueryRequest::knn(&[5.0, 9.0], 2);
        let (out, stats) = run_query(&seg, &alphabet, &store, &req).unwrap();
        assert!(out.is_ranked());
        assert_eq!(out.len(), 2);
        assert_eq!(stats.answers, 2, "snapshot reports returned answers");
    }

    #[test]
    fn traced_query_groups_filter_spans_per_segment() {
        use warptree_obs::{AttrValue, Trace};
        let (store, alphabet, cat) = setup();
        let t0 = ToyTree::build_range(&cat, 0..2);
        let t1 = ToyTree::build_range(&cat, 2..4);
        let seg = SegmentedIndex::new(vec![&t0, &t1]);
        let trace = Trace::active("t-seg");
        let m = crate::search::SearchMetrics::new().with_trace(trace.clone());
        let req = QueryRequest::threshold(&[5.0, 9.0], 1.0);
        let _ = crate::search::run_query_with(&seg, &alphabet, &store, &req, &m).unwrap();
        let data = trace.finish().unwrap();
        let filter_id = data
            .spans
            .iter()
            .find(|s| s.name == "filter")
            .expect("filter stage span")
            .id;
        let segs: Vec<u64> = data
            .spans
            .iter()
            .filter(|s| s.name == "filter.segment")
            .map(|s| {
                assert_eq!(s.parent, Some(filter_id), "segment spans nest under filter");
                match s.attrs.iter().find(|(k, _)| k == "segment") {
                    Some((_, AttrValue::U64(v))) => *v,
                    other => panic!("missing segment attr: {other:?}"),
                }
            })
            .collect();
        assert_eq!(segs, vec![0, 1], "one span per segment, in segment order");
    }

    #[test]
    #[should_panic(expected = ">= 1 segment")]
    fn empty_segment_list_panics() {
        let _ = SegmentedIndex::<ToyTree>::new(Vec::new());
    }
}
