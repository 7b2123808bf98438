//! The categorized enhanced suffix array index: SA + LCP-interval tree
//! presenting exactly the suffix tree's logical shape.
//!
//! # Isomorphism to the suffix tree (DESIGN.md §18)
//!
//! The generalized suffix tree over categorized sequences is a
//! compacted trie of the stored suffixes with **no terminators**: a
//! suffix that is a proper prefix of another is *attached* at the
//! internal node its path ends on. The ESA reconstructs that exact tree
//! from sorted order alone:
//!
//! * Sequences are concatenated with per-sequence sentinels that are
//!   **smaller than every symbol** and **ascend with sequence id**, so
//!   (a) a suffix sorts immediately before every suffix it is a proper
//!   prefix of, and (b) equal suffix strings from different sequences
//!   tie-break in ascending sequence order — the suffix tree's
//!   insertion order.
//! * A *tree node* is an **LCP interval** `[lo, hi)` at depth `d`: a
//!   maximal run of SA entries sharing a length-`d` prefix with some
//!   adjacent LCP equal to `d`. Such an interval exists exactly where
//!   the tree has a branching point or an attachment point.
//! * An *edge label* is an **LCP delta**: the symbols of any member
//!   suffix between the parent's depth and the child's depth.
//! * *Attached suffixes* are the interval's leading entries whose
//!   logical length equals `d` (the sentinel sorts them first).
//!
//! Traversal therefore visits identical nodes, in identical child
//! order, with identical suffix enumeration order, as the tree backend
//! — which is what carries Theorem-1 pruning, `D_tw-lb`, and
//! byte-identical answers across backends.

use std::ops::Range;
use std::sync::Arc;

use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::search::{BackendKind, IndexBackend, NodeVisit};
use warptree_core::sequence::SeqId;

use crate::sa::{lcp_array, suffix_array};

/// High bit of a packed child / node tag: set for leaf entries
/// (payload = SA entry index), clear for interval records.
const LEAF_BIT: u32 = 1 << 31;

/// One stored suffix, in suffix-array order. Its logical length is
/// derivable from the corpus (`seq.len() - start`), so it is not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The sequence this suffix belongs to.
    pub seq: SeqId,
    /// 0-based start offset within the sequence.
    pub start: u32,
    /// Length of the leading run of equal symbols (`N` in Definition 4).
    pub lead: u32,
}

/// One internal node of the LCP-interval tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRec {
    /// First SA entry of the interval.
    pub lo: u32,
    /// One past the last SA entry of the interval.
    pub hi: u32,
    /// Node depth: length of the common prefix spelled by the path.
    pub depth: u32,
    /// Offset of this node's children in the packed child table.
    pub child_off: u32,
    /// Number of children.
    pub child_count: u32,
    /// Number of suffixes attached *at* this node (leading entries whose
    /// logical length equals `depth`).
    pub attached: u32,
    /// Maximum leading-run length among all suffixes in the interval.
    pub max_run: u32,
}

/// A borrowed view of the index's flat arrays, for serialization.
#[derive(Debug, Clone, Copy)]
pub struct RawEsa<'a> {
    /// SA entries in sorted order.
    pub entries: &'a [Entry],
    /// Interval records; `root` indexes into this.
    pub recs: &'a [IntervalRec],
    /// Packed children (high bit = leaf, payload = entry or rec index).
    pub children: &'a [u32],
    /// Index of the root record.
    pub root: u32,
    /// Whether only the §6.1 sparse subset is stored.
    pub sparse: bool,
}

/// Node handle: which logical node (interval record or single-entry
/// leaf) plus the depth its incoming edge starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsaNode {
    tag: u32,
    edge_start: u32,
}

/// The in-memory categorized enhanced suffix array.
///
/// Implements [`IndexBackend`] with a traversal isomorphic to the
/// suffix-tree backends (see the module docs), so every filter
/// algorithm runs over it unchanged.
pub struct EsaIndex {
    cat: Arc<CatStore>,
    sparse: bool,
    entries: Vec<Entry>,
    recs: Vec<IntervalRec>,
    children: Vec<u32>,
    root: u32,
}

impl EsaIndex {
    /// Builds the index over every sequence of `cat`. Sparse mode stores
    /// only the paper's §6.1 suffix subset.
    pub fn build(cat: Arc<CatStore>, sparse: bool) -> Self {
        let n = cat.len();
        Self::build_range(cat, 0..n, sparse)
    }

    /// Builds the index over the sequences `range` (global sequence ids
    /// are preserved), e.g. one tail segment of a segmented directory.
    pub fn build_range(cat: Arc<CatStore>, range: Range<usize>, sparse: bool) -> Self {
        let (entries, lcp) = sorted_entries(&cat, range, sparse);
        let (recs, children, root) = build_intervals(&cat, &entries, &lcp);
        EsaIndex {
            cat,
            sparse,
            entries,
            recs,
            children,
            root,
        }
    }

    /// Reassembles an index from arrays produced by [`raw`](Self::raw)
    /// (the disk loader's path). The arrays are trusted; use
    /// [`validate`](Self::validate) before querying untrusted ones.
    pub fn from_raw(
        cat: Arc<CatStore>,
        sparse: bool,
        entries: Vec<Entry>,
        recs: Vec<IntervalRec>,
        children: Vec<u32>,
        root: u32,
    ) -> Self {
        EsaIndex {
            cat,
            sparse,
            entries,
            recs,
            children,
            root,
        }
    }

    /// Borrows the flat arrays for serialization.
    pub fn raw(&self) -> RawEsa<'_> {
        RawEsa {
            entries: &self.entries,
            recs: &self.recs,
            children: &self.children,
            root: self.root,
            sparse: self.sparse,
        }
    }

    /// The categorized corpus the index reads labels from.
    pub fn cat(&self) -> &Arc<CatStore> {
        &self.cat
    }

    /// Number of interval records (internal nodes).
    pub fn rec_count(&self) -> usize {
        self.recs.len()
    }

    /// Resident bytes of the index structure proper (arrays, not the
    /// shared corpus).
    pub fn resident_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<Entry>()
            + self.recs.len() * std::mem::size_of::<IntervalRec>()
            + self.children.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Logical length of entry `i`'s suffix.
    fn entry_len(&self, i: u32) -> u32 {
        let e = self.entries[i as usize];
        self.cat.seq(e.seq).len() as u32 - e.start
    }

    /// Structural check of the arrays against the corpus, in one linear
    /// pass that panics on nothing: interval nesting, child order,
    /// attachment placement and run annotations. The disk loader runs it
    /// on every opened file — [`from_raw`](Self::from_raw) arrays passed
    /// their page CRCs but are otherwise untrusted — and everything a
    /// query later indexes with is checked here:
    ///
    /// * every entry `(seq, start, lead)` is a position of the corpus
    ///   with a run that fits behind it (`seq < cat.len()`,
    ///   `start < |seq|`, `1 ≤ lead ≤ |seq| − start`), as the tree
    ///   format's `NodeView::decode` checks its suffix entries;
    /// * every record's interval, attached run and child slice lie
    ///   inside the arrays, and its children tile the rest of it;
    /// * a child record comes before its parent — records are written
    ///   post-order, and a traversal that only moves to smaller record
    ///   indexes cannot be sent round a cycle;
    /// * `max_run` is the maximum over the children (already checked,
    ///   being earlier), never a rescan of the interval.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.entries.len() as u64;
        for (i, e) in self.entries.iter().enumerate() {
            // A sequence the store does not have holds no position.
            let len = if (e.seq.0 as usize) < self.cat.len() {
                self.cat.seq(e.seq).len() as u64
            } else {
                0
            };
            let room = len.saturating_sub(e.start as u64);
            if e.lead == 0 || e.lead as u64 > room {
                return Err(format!(
                    "entry {i}: suffix ({}, {}, run {}) is outside the corpus",
                    e.seq.0, e.start, e.lead
                ));
            }
        }
        let root = self
            .recs
            .get(self.root as usize)
            .ok_or_else(|| format!("root {} outside {} records", self.root, self.recs.len()))?;
        if (root.lo, root.hi as u64, root.depth) != (0, n, 0) {
            return Err(format!(
                "root must span all {n} entries at depth 0, not [{}, {}) at {}",
                root.lo, root.hi, root.depth
            ));
        }
        for (ri, rec) in self.recs.iter().enumerate() {
            let bad = |what: &str| Err(format!("rec {ri}: {what}"));
            if rec.lo > rec.hi || rec.hi as u64 > n || rec.attached > rec.hi - rec.lo {
                return bad("interval outside the entries");
            }
            let (off, count) = (rec.child_off as usize, rec.child_count as usize);
            let Some(kids) = self.children.get(off..off + count) else {
                return bad("child slice outside the child table");
            };
            let mut max_run = 0;
            for a in rec.lo..rec.lo + rec.attached {
                if self.entry_len(a) != rec.depth {
                    return bad("attached entry length must equal node depth");
                }
                max_run = max_run.max(self.entries[a as usize].lead);
            }
            let mut cursor = rec.lo + rec.attached;
            let mut prev_first: Option<Symbol> = None;
            for &kid in kids {
                let (lo, hi, run) = if kid & LEAF_BIT != 0 {
                    let e = kid & !LEAF_BIT;
                    if e as u64 >= n {
                        return bad("leaf child outside the entries");
                    }
                    (e, e + 1, self.entries[e as usize].lead)
                } else {
                    if kid as usize >= ri {
                        return bad("child record must precede its parent");
                    }
                    let c = &self.recs[kid as usize];
                    if c.depth <= rec.depth || c.lo >= c.hi {
                        return bad("child record must be non-empty and deeper");
                    }
                    (c.lo, c.hi, c.max_run)
                };
                if lo != cursor {
                    return bad("children must tile the interval");
                }
                if self.entry_len(lo) <= rec.depth {
                    return bad("child must extend past the node");
                }
                let ent = self.entries[lo as usize];
                let first = self.cat.seq(ent.seq)[(ent.start + rec.depth) as usize];
                if prev_first.is_some_and(|p| p >= first) {
                    return bad("children must ascend by first symbol");
                }
                prev_first = Some(first);
                cursor = hi;
                max_run = max_run.max(run);
            }
            if cursor != rec.hi {
                return bad("children must cover the interval");
            }
            if rec.max_run != max_run {
                return bad("max_run annotation wrong");
            }
        }
        Ok(())
    }
}

/// Builds the filtered, sorted entry list plus adjacent logical LCPs.
///
/// The text layout is `seq₀ · $₀ · seq₁ · $₁ · …` with sentinel
/// `$ₖ = 1 + k` and symbols remapped to `nseq + 1 + sym`: sentinels are
/// smaller than every symbol (shorter-prefix suffixes sort first) and
/// ascend with sequence order (equal strings tie-break seq-ascending,
/// matching the tree builders' insertion order). Sentinels are unique,
/// so Kasai LCPs never cross one — each adjacent LCP is exactly the
/// *logical* LCP, capped at both suffixes' logical lengths.
fn sorted_entries(cat: &CatStore, range: Range<usize>, sparse: bool) -> (Vec<Entry>, Vec<u32>) {
    let nseq = range.len();
    let sym_base = nseq as u32 + 1;
    let mut text = Vec::new();
    // Per text position: (global seq id, local offset, logical suffix
    // length); sentinel positions get length 0.
    let mut by_pos: Vec<(u32, u32, u32)> = Vec::new();
    for (k, gid) in range.clone().enumerate() {
        let syms = cat.seq(SeqId(gid as u32));
        let len = syms.len() as u32;
        for (off, &s) in syms.iter().enumerate() {
            text.push(sym_base + s);
            by_pos.push((gid as u32, off as u32, len - off as u32));
        }
        text.push(1 + k as u32);
        by_pos.push((gid as u32, len, 0));
    }
    let sa = suffix_array(&text);
    let lcp = lcp_array(&text, &sa);

    let mut entries = Vec::new();
    let mut out_lcp = Vec::new();
    let mut gap_min = u32::MAX;
    for (i, &p) in sa.iter().enumerate() {
        if i > 0 {
            gap_min = gap_min.min(lcp[i]);
        }
        let (gid, off, len) = by_pos[p as usize];
        if len == 0 {
            continue; // sentinel position
        }
        let seq = SeqId(gid);
        if sparse && !cat.is_stored_suffix(seq, off) {
            continue;
        }
        out_lcp.push(if entries.is_empty() { 0 } else { gap_min });
        entries.push(Entry {
            seq,
            start: off,
            lead: cat.run_len(seq, off),
        });
        gap_min = u32::MAX;
    }
    (entries, out_lcp)
}

/// An open interval node during bottom-up construction.
struct Frame {
    depth: u32,
    lo: u32,
    kids: Vec<u32>,
}

/// Builds the LCP-interval tree bottom-up in one O(n) stack pass,
/// peeling attached suffixes and packing children as each interval
/// closes.
fn build_intervals(
    cat: &CatStore,
    entries: &[Entry],
    lcp: &[u32],
) -> (Vec<IntervalRec>, Vec<u32>, u32) {
    let n = entries.len();
    let mut recs: Vec<IntervalRec> = Vec::new();
    let mut children: Vec<u32> = Vec::new();

    let entry_len =
        |i: u32| cat.seq(entries[i as usize].seq).len() as u32 - entries[i as usize].start;
    let finalize =
        |frame: Frame, hi: u32, recs: &mut Vec<IntervalRec>, children: &mut Vec<u32>| -> u32 {
            let mut attached = 0u32;
            for &kid in &frame.kids {
                if kid & LEAF_BIT != 0 && entry_len(kid & !LEAF_BIT) == frame.depth {
                    attached += 1;
                } else {
                    break;
                }
            }
            let mut max_run = 0u32;
            for &kid in &frame.kids {
                max_run = max_run.max(if kid & LEAF_BIT != 0 {
                    entries[(kid & !LEAF_BIT) as usize].lead
                } else {
                    recs[kid as usize].max_run
                });
            }
            let child_off = children.len() as u32;
            children.extend_from_slice(&frame.kids[attached as usize..]);
            recs.push(IntervalRec {
                lo: frame.lo,
                hi,
                depth: frame.depth,
                child_off,
                child_count: frame.kids.len() as u32 - attached,
                attached,
                max_run,
            });
            recs.len() as u32 - 1
        };

    let mut stack = vec![Frame {
        depth: 0,
        lo: 0,
        kids: Vec::new(),
    }];
    for i in 1..=n {
        let boundary = lcp.get(i).copied().unwrap_or(0);
        let mut pending = LEAF_BIT | (i as u32 - 1);
        let mut lo = i as u32 - 1;
        while stack.last().unwrap().depth > boundary {
            let mut frame = stack.pop().unwrap();
            frame.kids.push(pending);
            lo = frame.lo;
            pending = finalize(frame, i as u32, &mut recs, &mut children);
        }
        let top = stack.last_mut().unwrap();
        if top.depth == boundary {
            top.kids.push(pending);
        } else {
            stack.push(Frame {
                depth: boundary,
                lo,
                kids: vec![pending],
            });
        }
    }
    let root_frame = stack.pop().unwrap();
    debug_assert!(stack.is_empty(), "only the root survives the final pop");
    let root = finalize(root_frame, n as u32, &mut recs, &mut children);
    (recs, children, root)
}

impl IndexBackend for EsaIndex {
    type Node = EsaNode;

    fn root(&self) -> EsaNode {
        EsaNode {
            tag: self.root,
            edge_start: 0,
        }
    }

    fn visit(&self, n: EsaNode, children: &mut impl Extend<EsaNode>) -> NodeVisit<'_> {
        // The first member suffix, the node's depth, and its
        // annotations: a leaf is one entry, an interval a run of them.
        let (member, depth, max_lead_run, below, attached) = if n.tag & LEAF_BIT != 0 {
            let e = n.tag & !LEAF_BIT;
            (e, self.entry_len(e), self.entries[e as usize].lead, 1, 1)
        } else {
            let rec = self.recs[n.tag as usize];
            let kids =
                &self.children[rec.child_off as usize..(rec.child_off + rec.child_count) as usize];
            children.extend(kids.iter().map(|&tag| EsaNode {
                tag,
                edge_start: rec.depth,
            }));
            (
                rec.lo,
                rec.depth,
                rec.max_run,
                (rec.hi - rec.lo) as u64,
                rec.attached,
            )
        };
        // The edge label is an LCP delta: the member's symbols between
        // the parent's depth and this node's — none for the root, which
        // over an empty store has no member to name either.
        let label = if depth == n.edge_start {
            &[][..]
        } else {
            let entry = self.entries[member as usize];
            let syms = self.cat.seq(entry.seq);
            &syms[(entry.start + n.edge_start) as usize..(entry.start + depth) as usize]
        };
        NodeVisit {
            label,
            max_lead_run,
            suffix_count: Some(below),
            attached,
        }
    }

    fn for_each_suffix_at(&self, n: EsaNode, f: &mut dyn FnMut(SeqId, u32, u32)) {
        // A leaf is its one entry; an interval's attached suffixes are
        // its leading entries.
        let at = if n.tag & LEAF_BIT != 0 {
            let e = n.tag & !LEAF_BIT;
            e..e + 1
        } else {
            let rec = self.recs[n.tag as usize];
            rec.lo..rec.lo + rec.attached
        };
        for e in &self.entries[at.start as usize..at.end as usize] {
            f(e.seq, e.start, e.lead);
        }
    }

    fn for_each_suffix_below(&self, n: EsaNode, f: &mut dyn FnMut(SeqId, u32, u32)) {
        // Same stack discipline as the tree backends: a node's attached
        // suffixes first, then its subtrees rightmost-first — candidate
        // order is part of the cross-backend equivalence contract.
        let mut stack = vec![n.tag];
        while let Some(tag) = stack.pop() {
            if tag & LEAF_BIT != 0 {
                let e = self.entries[(tag & !LEAF_BIT) as usize];
                f(e.seq, e.start, e.lead);
                continue;
            }
            let rec = self.recs[tag as usize];
            for i in rec.lo..rec.lo + rec.attached {
                let e = self.entries[i as usize];
                f(e.seq, e.start, e.lead);
            }
            stack.extend_from_slice(
                &self.children[rec.child_off as usize..(rec.child_off + rec.child_count) as usize],
            );
        }
    }

    fn is_sparse(&self) -> bool {
        self.sparse
    }

    fn suffix_count(&self) -> u64 {
        self.entries.len() as u64
    }

    fn backend_kind(&self) -> BackendKind {
        BackendKind::Esa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(seqs: Vec<Vec<Symbol>>, alpha: u32, sparse: bool) -> EsaIndex {
        EsaIndex::build(Arc::new(CatStore::from_symbols(seqs, alpha)), sparse)
    }

    #[test]
    fn full_index_stores_every_suffix() {
        let e = idx(vec![vec![0, 0, 1, 2], vec![1, 1, 1]], 3, false);
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.suffix_count(), 7);
        assert!(!e.is_sparse());
        assert_eq!(e.backend_kind(), BackendKind::Esa);
        let mut count = 0;
        e.for_each_suffix_below(e.root(), &mut |_, _, _| count += 1);
        assert_eq!(count, 7);
        let root = e.visit(e.root(), &mut Vec::new());
        assert_eq!(root.max_lead_run, 3);
        assert_eq!(root.suffix_count, Some(7));
    }

    #[test]
    fn sparse_index_stores_the_stored_subset() {
        let e = idx(vec![vec![0, 0, 0, 1]], 2, true);
        assert_eq!(e.validate(), Ok(()));
        assert!(e.is_sparse());
        assert_eq!(e.suffix_count(), 2); // suffixes at 0 and 3
        assert_eq!(e.visit(e.root(), &mut Vec::new()).max_lead_run, 3);
    }

    #[test]
    fn proper_prefix_suffixes_attach_at_internal_nodes() {
        // "aba": suffixes "aba", "ba", "a" — "a" is a proper prefix of
        // "aba", so the tree has node "a" {attached: (0,2)} with leaf
        // child "ba" holding (0,0).
        let e = idx(vec![vec![0, 1, 0]], 2, false);
        assert_eq!(e.validate(), Ok(()));
        let mut kids = Vec::new();
        assert!(e.visit(e.root(), &mut kids).label.is_empty());
        assert_eq!(kids.len(), 2, "root children: 'a…' and 'ba'");
        let a = e.visit(kids[0], &mut Vec::new());
        assert_eq!(a.label, [0], "node 'a' edge");
        // Node 'a' enumerates its attached suffix (0,2) before its
        // subtree.
        let mut seen = Vec::new();
        e.for_each_suffix_below(kids[0], &mut |s, st, _| seen.push((s.0, st)));
        assert_eq!(seen, vec![(0, 2), (0, 0)]);
    }

    #[test]
    fn duplicate_suffixes_order_by_sequence_id() {
        // Both sequences end with the suffix "b": the duplicates share
        // one node and enumerate in ascending sequence order.
        let e = idx(vec![vec![0, 1], vec![1]], 2, false);
        assert_eq!(e.validate(), Ok(()));
        let mut kids = Vec::new();
        e.visit(e.root(), &mut kids);
        assert_eq!(e.visit(kids[1], &mut Vec::new()).label, [1]);
        let mut seen = Vec::new();
        e.for_each_suffix_below(kids[1], &mut |s, st, _| seen.push((s.0, st)));
        assert_eq!(seen, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn range_build_keeps_global_sequence_ids() {
        let cat = Arc::new(CatStore::from_symbols(
            vec![vec![0, 1], vec![1, 0], vec![0, 0]],
            2,
        ));
        let e = EsaIndex::build_range(cat, 1..3, false);
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.suffix_count(), 4);
        let mut seqs = Vec::new();
        e.for_each_suffix_below(e.root(), &mut |s, _, _| seqs.push(s.0));
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 1, 2, 2]);
    }

    #[test]
    fn raw_round_trip_rebuilds_the_same_index() {
        let e = idx(vec![vec![0, 0, 1, 2], vec![1, 1, 1]], 3, false);
        let raw = e.raw();
        let rebuilt = EsaIndex::from_raw(
            e.cat().clone(),
            raw.sparse,
            raw.entries.to_vec(),
            raw.recs.to_vec(),
            raw.children.to_vec(),
            raw.root,
        );
        assert_eq!(rebuilt.validate(), Ok(()));
        assert_eq!(rebuilt.suffix_count(), e.suffix_count());
        assert!(rebuilt.resident_bytes() > 0);
    }

    #[test]
    fn empty_and_singleton_corpora() {
        let e = idx(vec![vec![0]], 1, false);
        assert_eq!(e.validate(), Ok(()));
        assert_eq!(e.suffix_count(), 1);
        let mut kids = Vec::new();
        e.visit(e.root(), &mut kids);
        assert_eq!(kids.len(), 1);
    }
}
