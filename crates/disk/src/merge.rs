//! Binary merge of disk-resident suffix trees (paper §4.1).
//!
//! Following Bieganski et al., a suffix tree for a large sequence set is
//! built incrementally: partial trees over disjoint subsets of the
//! sequences are constructed in memory, flushed to disk, and pairwise
//! merged. [`merge_trees`] performs one binary merge in a simultaneous
//! pre-order traversal of both inputs, combining paths with common label
//! prefixes and copying disjoint subtrees record by record; the output is
//! written post-order in a single sequential pass. The traversal keeps
//! its own stack, so a tree as deep as a flat-lined series is long
//! merges on any thread, and reads each input record once, in place on
//! its page. Both inputs must reference the same [`CatStore`] (they
//! index disjoint *suffix* sets of one database).
//!
//! [`IncrementalBuilder`] drives the whole paper pipeline: batch →
//! in-memory build → flush → level-by-level binary merges of trees of
//! increasing size. Its batch trees and all but the last merge are work
//! files, never fsynced; only the file it hands back is.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::parallel::parallel_map;
use warptree_core::sequence::SeqId;
use warptree_obs::{Counter, Histogram, MetricsRegistry};

use crate::error::{DiskError, Result};
use crate::format::{encode_node, DiskTree, Header, HEADER_SIZE};
use crate::pager::PagedWriter;
use crate::vfs::{real_vfs, Vfs};
use crate::writer::{write_tree_as, write_tree_with};

/// Which input tree a cursor points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// A half-open range of one of the merge's arenas.
type Span = (usize, usize);

/// A record read into the merge's arenas: its edge label, its suffix
/// entries and its children.
#[derive(Debug, Clone, Copy)]
struct Rec {
    label: (SeqId, u32, u32),
    suffixes: Span,
    children: Span,
}

/// A node of an input tree with `skip` leading label symbols already
/// consumed (the "rest of an edge" after a conceptual split). A rest
/// carries the record its split read, so no record is read twice.
#[derive(Debug, Clone, Copy)]
struct VNode {
    side: Side,
    offset: u64,
    skip: u32,
    rec: Option<Rec>,
}

impl VNode {
    fn at(side: Side, offset: u64) -> Self {
        Self {
            side,
            offset,
            skip: 0,
            rec: None,
        }
    }

    /// The rest of this node's edge past `common` more symbols.
    fn rest(self, rec: Rec, common: u32) -> Self {
        Self {
            skip: self.skip + common,
            rec: Some(rec),
            ..self
        }
    }

    /// The label this node's output record carries: its record's,
    /// less the consumed symbols.
    fn trimmed(self, rec: Rec) -> (SeqId, u32, u32) {
        let (seq, start, len) = rec.label;
        (seq, start + self.skip, len - self.skip)
    }
}

/// Aggregate facts about a written output node, needed by its parent.
#[derive(Debug, Clone, Copy)]
struct Written {
    first: Symbol,
    offset: u64,
    suffix_count: u64,
    max_run: u32,
}

/// One output node of the merge in progress: what its record carries
/// of its own, and the child lists still to be merged (cursors into the
/// `kids` arena, advanced from the front). The node is written once
/// both lists are spent, after every child.
struct Frame {
    label: (SeqId, u32, u32),
    /// Suffix entries attached to the node, A's before B's.
    own: [Span; 2],
    a: Span,
    b: Span,
    /// Whether `a` and `b` merge by first symbol (the recursive §4.1
    /// step), or all of `a` goes before all of `b` (a copied subtree,
    /// and the two rests below a split).
    by_symbol: bool,
    /// The arena lengths when the node was opened: everything it pushed
    /// lies above them.
    marks: [usize; 3],
}

/// What a frame does next.
enum Step {
    Copy(VNode),
    Merge(VNode, VNode),
    Emit,
}

/// The binary merge's state. Records are read once each, through the
/// checked [`DiskTree::with_node`] path, into three arenas that grow
/// and shrink with the explicit stack of [`Frame`]s: a frame's entries
/// stay put until it is written, so a rest can point at the entries of
/// the record its split read.
struct MergeCtx<'t> {
    a: &'t DiskTree,
    b: &'t DiskTree,
    cat: &'t CatStore,
    w: PagedWriter,
    node_count: u64,
    suffixes: Vec<(SeqId, u32, u32)>,
    kids: Vec<(Symbol, VNode)>,
    done: Vec<Written>,
    /// One record's child entries and encoding, reused for every node.
    entries: Vec<(Symbol, u64)>,
    record: Vec<u8>,
}

impl<'t> MergeCtx<'t> {
    fn marks(&self) -> [usize; 3] {
        [self.suffixes.len(), self.kids.len(), self.done.len()]
    }

    /// The record of `v`: the one its split read, or read now.
    fn load(&mut self, v: VNode) -> Result<Rec> {
        if let Some(rec) = v.rec {
            return Ok(rec);
        }
        let tree = match v.side {
            Side::A => self.a,
            Side::B => self.b,
        };
        let (s0, k0) = (self.suffixes.len(), self.kids.len());
        let (suffixes, kids) = (&mut self.suffixes, &mut self.kids);
        let label = tree.with_node(v.offset, |node| {
            suffixes.extend(node.suffixes());
            kids.extend(
                node.children()
                    .map(|(sym, off)| (sym, VNode::at(v.side, off))),
            );
            node.label()
        })?;
        Ok(Rec {
            label,
            suffixes: (s0, self.suffixes.len()),
            children: (k0, self.kids.len()),
        })
    }

    /// Remaining label symbols of a vnode (a range the decode checked).
    fn label(&self, v: VNode, rec: Rec) -> &'t [Symbol] {
        let (seq, start, len) = rec.label;
        if len == 0 {
            return &[];
        }
        &self.cat.seq(seq)[(start + v.skip) as usize..(start + len) as usize]
    }

    /// Pushes one child entry, returning its one-entry list.
    fn push_kid(&mut self, v: VNode, rec: Rec) -> Span {
        let first = self.label(v, rec)[0];
        self.kids.push((first, v));
        (self.kids.len() - 1, self.kids.len())
    }

    /// Opens the copy of the subtree at `v`, its label trimmed by
    /// `v.skip`.
    fn open_copy(&mut self, v: VNode) -> Result<Frame> {
        let marks = self.marks();
        let rec = self.load(v)?;
        Ok(Frame {
            label: v.trimmed(rec),
            own: [rec.suffixes, (0, 0)],
            a: rec.children,
            b: (0, 0),
            by_symbol: false,
            marks,
        })
    }

    /// Opens the merge of two vnodes whose remaining labels start with
    /// the same symbol (or are both empty, for the roots).
    fn open_merge(&mut self, va: VNode, vb: VNode) -> Result<Frame> {
        let marks = self.marks();
        let ra = self.load(va)?;
        let rb = self.load(vb)?;
        let (la, lb) = (self.label(va, ra), self.label(vb, rb));
        let common = la.iter().zip(lb).take_while(|(x, y)| x == y).count() as u32;
        let (alen, blen) = (la.len() as u32, lb.len() as u32);
        let mut frame = Frame {
            label: va.trimmed(ra),
            own: [ra.suffixes, (0, 0)],
            a: ra.children,
            b: rb.children,
            by_symbol: true,
            marks,
        };
        if common == alen && common == blen {
            // Same edge: merge suffix labels and child lists.
            frame.own[1] = rb.suffixes;
        } else if common == alen {
            // A's edge is a proper prefix of B's: B continues below A's
            // node as one extra (virtual) child.
            frame.b = self.push_kid(vb.rest(rb, common), rb);
        } else if common == blen {
            frame.label = vb.trimmed(rb);
            frame.own[0] = rb.suffixes;
            frame.a = self.push_kid(va.rest(ra, common), ra);
        } else {
            // Labels diverge inside both edges: fresh internal node for
            // the common prefix, the two rests become its children, A's
            // written first.
            let (seq, start, _) = frame.label;
            frame.label = (seq, start, common);
            frame.own[0] = (0, 0);
            frame.a = self.push_kid(va.rest(ra, common), ra);
            frame.b = self.push_kid(vb.rest(rb, common), rb);
            frame.by_symbol = false;
        }
        Ok(frame)
    }

    /// The next step of `frame`: a two-pointer merge of its child lists
    /// sorted by first symbol (children sharing one merge), then the
    /// rest of `a`, then the rest of `b` — or, once both are spent,
    /// writing the node.
    fn step(&self, frame: &mut Frame) -> Step {
        let (a, b) = (&mut frame.a, &mut frame.b);
        if frame.by_symbol && a.0 < a.1 && b.0 < b.1 {
            let ((sa, va), (sb, vb)) = (self.kids[a.0], self.kids[b.0]);
            return match sa.cmp(&sb) {
                std::cmp::Ordering::Less => {
                    a.0 += 1;
                    Step::Copy(va)
                }
                std::cmp::Ordering::Greater => {
                    b.0 += 1;
                    Step::Copy(vb)
                }
                std::cmp::Ordering::Equal => {
                    a.0 += 1;
                    b.0 += 1;
                    Step::Merge(va, vb)
                }
            };
        }
        for list in [a, b] {
            if list.0 < list.1 {
                list.0 += 1;
                return Step::Copy(self.kids[list.0 - 1].1);
            }
        }
        Step::Emit
    }

    /// Writes `frame`'s node — its children are the last entries of
    /// `done` — and releases everything it pushed.
    fn emit(&mut self, frame: &Frame) -> Result<Written> {
        let [s0, k0, d0] = frame.marks;
        let label = frame.label;
        let first = if label.2 == 0 {
            0
        } else {
            self.cat.seq(label.0)[label.1 as usize]
        };
        let own = frame.own.map(|(lo, hi)| &self.suffixes[lo..hi]);
        let mut suffix_count = (own[0].len() + own[1].len()) as u64;
        let runs = own.iter().flat_map(|run| run.iter().map(|&(_, _, r)| r));
        let mut max_run = runs.max().unwrap_or(0);
        self.entries.clear();
        for c in &self.done[d0..] {
            suffix_count += c.suffix_count;
            max_run = max_run.max(c.max_run);
            self.entries.push((c.first, c.offset));
        }
        self.entries.sort_by_key(|&(s, _)| s);
        self.record.clear();
        encode_node(
            &mut self.record,
            label,
            suffix_count,
            max_run,
            &own,
            &self.entries,
        );
        let offset = self.w.position();
        self.w.write(&self.record)?;
        self.node_count += 1;
        self.suffixes.truncate(s0);
        self.kids.truncate(k0);
        self.done.truncate(d0);
        Ok(Written {
            first,
            offset,
            suffix_count,
            max_run,
        })
    }

    /// Merges the two roots, writing every output node post-order;
    /// returns the root's aggregate.
    fn run(&mut self) -> Result<Written> {
        let roots = (
            VNode::at(Side::A, self.a.header().root_offset),
            VNode::at(Side::B, self.b.header().root_offset),
        );
        let mut stack = vec![self.open_merge(roots.0, roots.1)?];
        loop {
            let top = stack.last_mut().expect("the root frame is written last");
            let next = match self.step(top) {
                Step::Copy(v) => self.open_copy(v)?,
                Step::Merge(va, vb) => self.open_merge(va, vb)?,
                Step::Emit => {
                    let frame = stack.pop().expect("the frame just stepped");
                    let written = self.emit(&frame)?;
                    if stack.is_empty() {
                        return Ok(written);
                    }
                    self.done.push(written);
                    continue;
                }
            };
            stack.push(next);
        }
    }
}

/// Merges the trees in files `a` and `b` (both over `cat`, storing
/// disjoint suffix sets) into a new tree file at `out`. Returns the
/// output file's logical size in bytes.
pub fn merge_trees(a: &DiskTree, b: &DiskTree, cat: &CatStore, out: &Path) -> Result<u64> {
    merge_trees_with(&crate::vfs::RealVfs, a, b, cat, out)
}

/// [`merge_trees`] through an explicit [`Vfs`]. Two trees that disagree
/// on the sparse flag or the depth limit do not merge: a
/// [`DiskError::BadHeader`].
pub fn merge_trees_with(
    vfs: &dyn Vfs,
    a: &DiskTree,
    b: &DiskTree,
    cat: &CatStore,
    out: &Path,
) -> Result<u64> {
    merge_trees_as(vfs, a, b, cat, out, true)
}

/// [`merge_trees_with`], fsyncing the output only when `sync` is set:
/// a merge below the builder's last is a work file.
fn merge_trees_as(
    vfs: &dyn Vfs,
    a: &DiskTree,
    b: &DiskTree,
    cat: &CatStore,
    out: &Path,
    sync: bool,
) -> Result<u64> {
    let (ha, hb) = (a.header(), b.header());
    if ha.sparse != hb.sparse {
        return Err(DiskError::BadHeader(format!(
            "cannot merge {} with {}: the sparse flag differs ({} and {})",
            a.source(),
            b.source(),
            ha.sparse,
            hb.sparse
        )));
    }
    if ha.depth_limit != hb.depth_limit {
        return Err(DiskError::BadHeader(format!(
            "cannot merge {} with {}: the depth limit differs ({:?} and {:?})",
            a.source(),
            b.source(),
            ha.depth_limit,
            hb.depth_limit
        )));
    }
    let mut ctx = MergeCtx {
        a,
        b,
        cat,
        w: PagedWriter::create_with(vfs, out)?,
        node_count: 0,
        suffixes: Vec::new(),
        kids: Vec::new(),
        done: Vec::new(),
        entries: Vec::new(),
        record: Vec::new(),
    };
    ctx.w.write(&[0u8; HEADER_SIZE as usize])?;
    let root = ctx.run()?;
    let header = Header {
        sparse: ha.sparse,
        alphabet_len: cat.alphabet_len(),
        node_count: ctx.node_count,
        suffix_count: root.suffix_count,
        root_offset: root.offset,
        depth_limit: ha.depth_limit,
    };
    ctx.w.finish_as(&[(0, header.encode())], sync)
}

/// How partial trees are built by the [`IncrementalBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Full generalized suffix tree (`ST` / `ST_C`).
    Full,
    /// Sparse suffix tree (`SST_C`, paper §6).
    Sparse,
}

/// Build-pipeline instrumentation: one counter and one wall-time
/// histogram per phase. All handles are shared-cell clones, so workers
/// on different threads report into the same registry entries.
#[derive(Clone)]
struct BuildMetrics {
    batches: Counter,
    merges: Counter,
    batch_ns: Histogram,
    merge_ns: Histogram,
}

impl BuildMetrics {
    fn noop() -> Self {
        Self {
            batches: Counter::noop(),
            merges: Counter::noop(),
            batch_ns: Histogram::noop(),
            merge_ns: Histogram::noop(),
        }
    }

    fn register(reg: &MetricsRegistry) -> Self {
        Self {
            batches: reg.counter("build.batches"),
            merges: reg.counter("build.merges"),
            batch_ns: reg.histogram("build.batch_ns"),
            merge_ns: reg.histogram("build.merge_ns"),
        }
    }
}

/// Incremental disk-based index construction (paper §4.1): sequences are
/// processed in batches; each batch's tree is built in memory with
/// Ukkonen (or sparse insertion) and flushed, then files are merged
/// pairwise, level by level, so each merge combines trees of similar
/// (increasing) size.
pub struct IncrementalBuilder {
    cat: Arc<CatStore>,
    kind: TreeKind,
    batch_size: usize,
    work_dir: PathBuf,
    truncate: Option<warptree_suffix::TruncateSpec>,
    threads: usize,
    vfs: Arc<dyn Vfs>,
    metrics: BuildMetrics,
}

impl IncrementalBuilder {
    /// Creates a builder writing temporaries into `work_dir`.
    pub fn new(cat: Arc<CatStore>, kind: TreeKind, batch_size: usize, work_dir: PathBuf) -> Self {
        Self {
            cat,
            kind,
            batch_size: batch_size.max(1),
            work_dir,
            truncate: None,
            threads: 1,
            vfs: real_vfs(),
            metrics: BuildMetrics::noop(),
        }
    }

    /// Routes all I/O through `vfs` (fault injection in tests).
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Publishes build-pipeline metrics on `reg`: `build.batches` /
    /// `build.merges` counters and `build.batch_ns` / `build.merge_ns`
    /// wall-time histograms (one sample per batch flushed / per binary
    /// merge performed).
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Self {
        self.metrics = BuildMetrics::register(reg);
        self
    }

    /// Builds batch trees and performs each merge level on up to
    /// `threads` worker threads (batches and same-level merges are
    /// independent).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds §8-truncated partial trees (and a truncated final index):
    /// per-suffix prefixes only up to the spec's maximum answer length.
    pub fn with_truncation(mut self, spec: warptree_suffix::TruncateSpec) -> Self {
        self.truncate = Some(spec);
        self
    }

    /// Builds the index for all sequences of the store into `out`,
    /// returning the final file size in bytes.
    ///
    /// Work files are named `merge-<level>-<i>.wt.tmp` inside the work
    /// directory; on any error they are removed (best-effort) before the
    /// error propagates, and the recovery sweep at next open catches
    /// whatever a simulated crash left behind.
    pub fn build(&self, out: &Path) -> Result<u64> {
        let result = self.build_inner(out);
        if result.is_err() {
            self.cleanup_work_files();
        }
        result
    }

    fn build_inner(&self, out: &Path) -> Result<u64> {
        self.vfs.create_dir_all(&self.work_dir)?;
        // Level 0: one file per batch, built in parallel.
        let n = self.cat.len();
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(self.batch_size)
            .map(|start| start..(start + self.batch_size).min(n))
            .collect();
        // Batches and same-level merges are independent; the first error
        // in input order wins. Only the file that becomes `out` is
        // fsynced — a lone batch tree, or the last merge's output: the
        // rest are work files, merged and deleted before the caller
        // commits anything.
        let lone = ranges.len() == 1;
        let level = parallel_map(self.threads, ranges, |idx, range| {
            let span = self.metrics.batch_ns.span();
            let tree = self.build_batch(range);
            let path = self.tmp_path(0, idx);
            write_tree_as(self.vfs.as_ref(), &tree, &path, lone)?;
            drop(span);
            self.metrics.batches.incr();
            Ok(path)
        })
        .into_iter()
        .collect::<Result<Vec<PathBuf>>>()?;
        if level.is_empty() {
            // Empty database: a root-only tree.
            let mut t =
                warptree_suffix::SuffixTree::empty(self.cat.clone(), self.kind == TreeKind::Sparse);
            if let Some(spec) = self.truncate {
                t.set_depth_limit(spec.max_answer_len);
            }
            t.finalize();
            return write_tree_with(self.vfs.as_ref(), &t, out);
        }
        // Merge level by level (binary merges of increasing size);
        // merges within a level run in parallel.
        let mut level = level;
        let mut depth = 1usize;
        while level.len() > 1 {
            let pairs: Vec<Vec<PathBuf>> = level.chunks(2).map(<[PathBuf]>::to_vec).collect();
            let last = pairs.len() == 1;
            level = parallel_map(self.threads, pairs, |i, mut pair| {
                if pair.len() == 1 {
                    return Ok(pair.remove(0));
                }
                let span = self.metrics.merge_ns.span();
                let open = |path| DiskTree::open_with(self.vfs.as_ref(), path, self.cat.clone());
                let (ta, tb) = (open(&pair[0])?, open(&pair[1])?);
                let path = self.tmp_path(depth, i);
                merge_trees_as(self.vfs.as_ref(), &ta, &tb, &self.cat, &path, last)?;
                self.vfs.remove_file(&pair[0])?;
                self.vfs.remove_file(&pair[1])?;
                drop(span);
                self.metrics.merges.incr();
                Ok(path)
            })
            .into_iter()
            .collect::<Result<Vec<PathBuf>>>()?;
            depth += 1;
        }
        self.vfs.rename(&level[0], out)?;
        // Report physical size (logical is page-rounded away).
        Ok(self.vfs.metadata_len(out)?)
    }

    /// Best-effort removal of leftover `merge-*.wt.tmp` work files.
    fn cleanup_work_files(&self) {
        let Ok(entries) = self.vfs.read_dir(&self.work_dir) else {
            return;
        };
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("merge-") && name.ends_with(".wt.tmp") {
                let _ = self.vfs.remove_file(&path);
            }
        }
    }

    /// Builds one batch's in-memory tree per the configured kind/spec.
    fn build_batch(&self, range: std::ops::Range<usize>) -> warptree_suffix::SuffixTree {
        match (self.kind, self.truncate) {
            (TreeKind::Full, None) => {
                warptree_suffix::ukkonen::build_full_range(self.cat.clone(), range)
            }
            (TreeKind::Sparse, None) => {
                warptree_suffix::build::build_sparse_range(self.cat.clone(), range)
            }
            (kind, Some(spec)) => warptree_suffix::build_truncated_range(
                self.cat.clone(),
                kind == TreeKind::Sparse,
                spec,
                range,
            ),
        }
    }

    fn tmp_path(&self, depth: usize, idx: usize) -> PathBuf {
        // The `.tmp` suffix puts work files inside the recovery sweep.
        self.work_dir.join(format!("merge-{depth}-{idx}.wt.tmp"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_tree;
    use warptree_suffix::ukkonen::build_full_range;
    use warptree_suffix::{build_full, build_sparse};

    fn tmpdir(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("warptree-merge-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn cat(seqs: Vec<Vec<Symbol>>, alpha: u32) -> Arc<CatStore> {
        Arc::new(CatStore::from_symbols(seqs, alpha))
    }

    #[test]
    fn merge_two_halves_equals_direct_build() {
        let c = cat(
            vec![
                vec![0, 1, 2, 1, 2, 1],
                vec![2, 2, 0, 1],
                vec![1, 1, 1],
                vec![0, 2, 0, 2],
            ],
            3,
        );
        let dir = tmpdir("halves");
        let t1 = build_full_range(c.clone(), 0..2);
        let t2 = build_full_range(c.clone(), 2..4);
        let (p1, p2, pm) = (dir.join("a.wt"), dir.join("b.wt"), dir.join("m.wt"));
        write_tree(&t1, &p1).unwrap();
        write_tree(&t2, &p2).unwrap();
        let da = DiskTree::open(&p1, c.clone()).unwrap();
        let db = DiskTree::open(&p2, c.clone()).unwrap();
        merge_trees(&da, &db, &c, &pm).unwrap();
        let merged = DiskTree::open(&pm, c.clone()).unwrap();
        let direct = build_full(c);
        assert_eq!(merged.to_mem().unwrap().canonical(), direct.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_builder_matches_direct_full() {
        let c = cat(
            vec![
                vec![0, 0, 1, 2],
                vec![2, 1, 0],
                vec![1, 1],
                vec![0, 2, 2, 2, 1],
                vec![2],
            ],
            3,
        );
        let dir = tmpdir("incr-full");
        let out = dir.join("index.wt");
        let b = IncrementalBuilder::new(c.clone(), TreeKind::Full, 2, dir.clone());
        b.build(&out).unwrap();
        let disk = DiskTree::open(&out, c.clone()).unwrap();
        let direct = build_full(c);
        assert_eq!(disk.to_mem().unwrap().canonical(), direct.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_builder_matches_direct_sparse() {
        let c = cat(vec![vec![0, 0, 0, 1, 1], vec![1, 0, 0], vec![2, 2, 2]], 3);
        let dir = tmpdir("incr-sparse");
        let out = dir.join("index.wt");
        let b = IncrementalBuilder::new(c.clone(), TreeKind::Sparse, 1, dir.clone());
        b.build(&out).unwrap();
        let disk = DiskTree::open(&out, c.clone()).unwrap();
        assert!(disk.header().sparse);
        let direct = build_sparse(c);
        assert_eq!(disk.to_mem().unwrap().canonical(), direct.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let c = cat(
            (0..12)
                .map(|i| (0..10).map(|j| ((i * 3 + j) % 4) as Symbol).collect())
                .collect(),
            4,
        );
        let dir = tmpdir("parallel");
        let (seq_out, par_out) = (dir.join("seq.wt"), dir.join("par.wt"));
        IncrementalBuilder::new(c.clone(), TreeKind::Full, 3, dir.clone())
            .build(&seq_out)
            .unwrap();
        IncrementalBuilder::new(c.clone(), TreeKind::Full, 3, dir.clone())
            .with_threads(4)
            .build(&par_out)
            .unwrap();
        let a = DiskTree::open(&seq_out, c.clone()).unwrap();
        let b = DiskTree::open(&par_out, c.clone()).unwrap();
        assert_eq!(
            a.to_mem().unwrap().canonical(),
            b.to_mem().unwrap().canonical()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_truncated_matches_direct() {
        let c = cat(
            vec![vec![0, 0, 1, 2, 1, 0], vec![2, 1, 0, 0], vec![1, 1, 1, 2]],
            3,
        );
        // `u32::MAX` keeps whole suffixes: the sparse keep
        // `max_answer_len + lead_run − 1` must saturate, not overflow.
        for (max_answer_len, kind) in [
            (3, TreeKind::Full),
            (3, TreeKind::Sparse),
            (u32::MAX, TreeKind::Full),
            (u32::MAX, TreeKind::Sparse),
        ] {
            let spec = warptree_suffix::TruncateSpec {
                max_answer_len,
                min_answer_len: 1,
            };
            let dir = tmpdir(&format!("incr-trunc-{kind:?}-{max_answer_len}"));
            let out = dir.join("index.wt");
            IncrementalBuilder::new(c.clone(), kind, 1, dir.clone())
                .with_truncation(spec)
                .build(&out)
                .unwrap();
            let disk = DiskTree::open(&out, c.clone()).unwrap();
            assert_eq!(disk.header().depth_limit, Some(max_answer_len));
            let direct = match kind {
                TreeKind::Full => warptree_suffix::build_full_truncated(c.clone(), spec),
                TreeKind::Sparse => warptree_suffix::build_sparse_truncated(c.clone(), spec),
            };
            assert_eq!(disk.to_mem().unwrap().canonical(), direct.canonical());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn builder_metrics_count_batches_and_merges() {
        let c = cat(
            vec![vec![0, 0, 1, 2], vec![2, 1, 0], vec![1, 1], vec![0, 2]],
            3,
        );
        let dir = tmpdir("metrics");
        let out = dir.join("index.wt");
        let reg = MetricsRegistry::new();
        IncrementalBuilder::new(c.clone(), TreeKind::Full, 1, dir.clone())
            .with_metrics(&reg)
            .build(&out)
            .unwrap();
        let snap = reg.snapshot();
        // 4 sequences at batch size 1 → 4 batches, merged 4→2→1 = 3 merges.
        assert_eq!(snap.counters["build.batches"], 4);
        assert_eq!(snap.counters["build.merges"], 3);
        assert_eq!(snap.histograms["build.batch_ns"].count, 4);
        assert_eq!(snap.histograms["build.merge_ns"].count, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_with_empty_tree_is_identity() {
        let c = cat(vec![vec![0, 1, 0], vec![]], 2);
        let dir = tmpdir("empty");
        let t1 = build_full_range(c.clone(), 0..1);
        let t2 = build_full_range(c.clone(), 1..2); // empty sequence
        let (p1, p2, pm) = (dir.join("a.wt"), dir.join("b.wt"), dir.join("m.wt"));
        write_tree(&t1, &p1).unwrap();
        write_tree(&t2, &p2).unwrap();
        let da = DiskTree::open(&p1, c.clone()).unwrap();
        let db = DiskTree::open(&p2, c.clone()).unwrap();
        merge_trees(&da, &db, &c, &pm).unwrap();
        let merged = DiskTree::open(&pm, c.clone()).unwrap();
        assert_eq!(merged.to_mem().unwrap().canonical(), t1.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
