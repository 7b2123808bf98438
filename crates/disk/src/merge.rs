//! Binary merge of disk-resident suffix trees (paper §4.1).
//!
//! Following Bieganski et al., a suffix tree for a large sequence set is
//! built incrementally: partial trees over disjoint subsets of the
//! sequences are constructed in memory, flushed to disk, and pairwise
//! merged. [`merge_trees`] performs one binary merge in a simultaneous
//! pre-order traversal of both inputs, combining paths with common label
//! prefixes and copying disjoint subtrees verbatim; the output is written
//! post-order in a single sequential pass. Both inputs must reference the
//! same [`CatStore`] (they index disjoint *suffix* sets of one database).
//!
//! [`IncrementalBuilder`] drives the whole paper pipeline: batch →
//! in-memory build → flush → level-by-level binary merges of trees of
//! increasing size.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use warptree_core::categorize::{CatStore, Symbol};
use warptree_core::parallel::parallel_map;
use warptree_core::sequence::SeqId;
use warptree_obs::{Counter, Histogram, MetricsRegistry};

use crate::error::Result;
use crate::format::{encode_node, DiskTree, Header, HEADER_SIZE};
use crate::pager::PagedWriter;
use crate::vfs::{real_vfs, Vfs};
use crate::writer::write_tree_with;

/// Which input tree a cursor points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// A node of an input tree with `skip` leading label symbols already
/// consumed (the "rest of an edge" after a conceptual split).
#[derive(Debug, Clone, Copy)]
struct VNode {
    side: Side,
    offset: u64,
    skip: u32,
}

/// Aggregate facts about a written output node, needed by its parent.
#[derive(Debug, Clone, Copy)]
struct Written {
    first: Symbol,
    offset: u64,
    suffix_count: u64,
    max_run: u32,
}

struct MergeCtx<'t> {
    a: &'t DiskTree,
    b: &'t DiskTree,
    cat: &'t CatStore,
    w: PagedWriter,
    node_count: u64,
}

impl<'t> MergeCtx<'t> {
    fn tree(&self, side: Side) -> &'t DiskTree {
        match side {
            Side::A => self.a,
            Side::B => self.b,
        }
    }

    /// Remaining label symbols of a vnode.
    fn label(&self, v: VNode) -> Result<&'t [Symbol]> {
        let node = self.tree(v.side).read_node(v.offset)?;
        let (seq, start, len) = node.label;
        let s = self.cat.seq(seq);
        Ok(&s[(start + v.skip) as usize..(start + len) as usize])
    }

    /// Children of a vnode's underlying node, as fresh vnodes.
    fn children(&self, v: VNode) -> Result<Vec<(Symbol, VNode)>> {
        let node = self.tree(v.side).read_node(v.offset)?;
        Ok(node
            .children()
            .map(|(sym, off)| {
                (
                    sym,
                    VNode {
                        side: v.side,
                        offset: off,
                        skip: 0,
                    },
                )
            })
            .collect())
    }

    /// Writes one output node, returning its aggregate.
    fn emit(
        &mut self,
        label: (SeqId, u32, u32),
        suffixes: Vec<(SeqId, u32, u32)>,
        children: Vec<Written>,
    ) -> Result<Written> {
        let first = if label.2 == 0 {
            0
        } else {
            self.cat.seq(label.0)[label.1 as usize]
        };
        let mut suffix_count = suffixes.len() as u64;
        let mut max_run = suffixes.iter().map(|&(_, _, r)| r).max().unwrap_or(0);
        let mut child_entries = Vec::with_capacity(children.len());
        for c in &children {
            suffix_count += c.suffix_count;
            max_run = max_run.max(c.max_run);
            child_entries.push((c.first, c.offset));
        }
        child_entries.sort_by_key(|&(s, _)| s);
        let offset = self.w.position();
        self.w.write(&encode_node(
            label,
            suffix_count,
            max_run,
            &suffixes,
            &child_entries,
        ))?;
        self.node_count += 1;
        Ok(Written {
            first,
            offset,
            suffix_count,
            max_run,
        })
    }

    /// Copies the subtree rooted at `v` verbatim (label trimmed by
    /// `v.skip` at the top).
    fn copy_subtree(&mut self, v: VNode) -> Result<Written> {
        let node = self.tree(v.side).read_node(v.offset)?;
        let mut out_children = Vec::with_capacity(node.children().len());
        for (_, off) in node.children() {
            out_children.push(self.copy_subtree(VNode {
                side: v.side,
                offset: off,
                skip: 0,
            })?);
        }
        let (seq, start, len) = node.label;
        self.emit(
            (seq, start + v.skip, len - v.skip),
            node.suffixes().collect(),
            out_children,
        )
    }

    /// Merges two vnodes whose remaining labels start with the same
    /// symbol (or are both empty, for the roots).
    fn merge_nodes(&mut self, va: VNode, vb: VNode) -> Result<Written> {
        let la = self.label(va)?;
        let lb = self.label(vb)?;
        let common = la.iter().zip(lb.iter()).take_while(|(x, y)| x == y).count() as u32;
        let (alen, blen) = (la.len() as u32, lb.len() as u32);
        if common == alen && common == blen {
            // Same edge: merge suffix labels and child lists.
            let na = self.tree(Side::A).read_node(va.offset)?;
            let nb = self.tree(Side::B).read_node(vb.offset)?;
            let mut suffixes: Vec<_> = na.suffixes().collect();
            suffixes.extend(nb.suffixes());
            let children = self.merge_child_lists(self.children(va)?, self.children(vb)?)?;
            let (seq, start, len) = na.label;
            self.emit((seq, start + va.skip, len - va.skip), suffixes, children)
        } else if common == alen {
            // A's edge is a proper prefix of B's: B continues below A's
            // node as one extra (virtual) child.
            let na = self.tree(Side::A).read_node(va.offset)?;
            let b_rest = VNode {
                side: Side::B,
                offset: vb.offset,
                skip: vb.skip + common,
            };
            let b_first = self.label(b_rest)?[0];
            let children = self.merge_child_lists(self.children(va)?, vec![(b_first, b_rest)])?;
            let (seq, start, len) = na.label;
            self.emit(
                (seq, start + va.skip, len - va.skip),
                na.suffixes().collect(),
                children,
            )
        } else if common == blen {
            let nb = self.tree(Side::B).read_node(vb.offset)?;
            let a_rest = VNode {
                side: Side::A,
                offset: va.offset,
                skip: va.skip + common,
            };
            let a_first = self.label(a_rest)?[0];
            let children = self.merge_child_lists(vec![(a_first, a_rest)], self.children(vb)?)?;
            let (seq, start, len) = nb.label;
            self.emit(
                (seq, start + vb.skip, len - vb.skip),
                nb.suffixes().collect(),
                children,
            )
        } else {
            // Labels diverge inside both edges: fresh internal node for
            // the common prefix, the two rests become its children.
            let na = self.tree(Side::A).read_node(va.offset)?;
            let a_rest = self.copy_subtree(VNode {
                side: Side::A,
                offset: va.offset,
                skip: va.skip + common,
            })?;
            let b_rest = self.copy_subtree(VNode {
                side: Side::B,
                offset: vb.offset,
                skip: vb.skip + common,
            })?;
            let (seq, start, _) = na.label;
            self.emit(
                (seq, start + va.skip, common),
                Vec::new(),
                vec![a_rest, b_rest],
            )
        }
    }

    /// Two-pointer merge of child lists sorted by first symbol; children
    /// sharing a first symbol are merged recursively.
    fn merge_child_lists(
        &mut self,
        a: Vec<(Symbol, VNode)>,
        b: Vec<(Symbol, VNode)>,
    ) -> Result<Vec<Written>> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(self.copy_subtree(a[i].1)?);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(self.copy_subtree(b[j].1)?);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.merge_nodes(a[i].1, b[j].1)?);
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(_, v) in &a[i..] {
            out.push(self.copy_subtree(v)?);
        }
        for &(_, v) in &b[j..] {
            out.push(self.copy_subtree(v)?);
        }
        Ok(out)
    }
}

/// Merges the trees in files `a` and `b` (both over `cat`, storing
/// disjoint suffix sets) into a new tree file at `out`. Returns the
/// output file's logical size in bytes.
pub fn merge_trees(a: &DiskTree, b: &DiskTree, cat: &CatStore, out: &Path) -> Result<u64> {
    merge_trees_with(&crate::vfs::RealVfs, a, b, cat, out)
}

/// [`merge_trees`] through an explicit [`Vfs`].
pub fn merge_trees_with(
    vfs: &dyn Vfs,
    a: &DiskTree,
    b: &DiskTree,
    cat: &CatStore,
    out: &Path,
) -> Result<u64> {
    assert_eq!(
        a.header().sparse,
        b.header().sparse,
        "cannot merge sparse with non-sparse trees"
    );
    assert_eq!(
        a.header().depth_limit,
        b.header().depth_limit,
        "cannot merge trees with different depth limits"
    );
    let mut ctx = MergeCtx {
        a,
        b,
        cat,
        w: PagedWriter::create_with(vfs, out)?,
        node_count: 0,
    };
    ctx.w.write(&vec![0u8; HEADER_SIZE as usize])?;
    let root = ctx.merge_nodes(
        VNode {
            side: Side::A,
            offset: a.header().root_offset,
            skip: 0,
        },
        VNode {
            side: Side::B,
            offset: b.header().root_offset,
            skip: 0,
        },
    )?;
    let header = Header {
        sparse: a.header().sparse,
        alphabet_len: cat.alphabet_len(),
        node_count: ctx.node_count,
        suffix_count: root.suffix_count,
        root_offset: root.offset,
        depth_limit: a.header().depth_limit,
    };
    ctx.w.finish(&[(0, header.encode())])
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
        // in input order wins.
        let level = parallel_map(self.threads, ranges, |idx, range| {
            let span = self.metrics.batch_ns.span();
            let tree = self.build_batch(range);
            let path = self.tmp_path(0, idx);
            write_tree_with(self.vfs.as_ref(), &tree, &path)?;
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
            level = parallel_map(self.threads, pairs, |i, mut pair| {
                if pair.len() == 1 {
                    return Ok(pair.remove(0));
                }
                let span = self.metrics.merge_ns.span();
                let ta =
                    DiskTree::open_with(self.vfs.as_ref(), &pair[0], self.cat.clone(), 64, 1024)?;
                let tb =
                    DiskTree::open_with(self.vfs.as_ref(), &pair[1], self.cat.clone(), 64, 1024)?;
                let path = self.tmp_path(depth, i);
                merge_trees_with(self.vfs.as_ref(), &ta, &tb, &self.cat, &path)?;
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
        let da = DiskTree::open(&p1, c.clone(), 8, 64).unwrap();
        let db = DiskTree::open(&p2, c.clone(), 8, 64).unwrap();
        merge_trees(&da, &db, &c, &pm).unwrap();
        let merged = DiskTree::open(&pm, c.clone(), 8, 64).unwrap();
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
        let disk = DiskTree::open(&out, c.clone(), 8, 64).unwrap();
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
        let disk = DiskTree::open(&out, c.clone(), 8, 64).unwrap();
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
        let a = DiskTree::open(&seq_out, c.clone(), 8, 64).unwrap();
        let b = DiskTree::open(&par_out, c.clone(), 8, 64).unwrap();
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
            let disk = DiskTree::open(&out, c.clone(), 8, 64).unwrap();
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
        let da = DiskTree::open(&p1, c.clone(), 8, 64).unwrap();
        let db = DiskTree::open(&p2, c.clone(), 8, 64).unwrap();
        merge_trees(&da, &db, &c, &pm).unwrap();
        let merged = DiskTree::open(&pm, c.clone(), 8, 64).unwrap();
        assert_eq!(merged.to_mem().unwrap().canonical(), t1.canonical());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
