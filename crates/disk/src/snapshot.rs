//! The opened index directory: one struct, one open routine, one
//! query fan-out.
//!
//! A [`DirSnapshot`] is an immutable, query-ready view of one committed
//! generation, and [`DirSnapshot::query_with`] is the one query over
//! it: every caller — the server, the CLI, `explain`, the library —
//! gets the same answer, the same partial-answer labeling and the same
//! typed error when a file is corrupt. There are two ways in, over one
//! open body:
//!
//! * [`open_dir_snapshot_with`] resolves and loads **without mutating
//!   the directory**. A long-running reader (the `warptree-server`
//!   query process) needs exactly that: the recovery sweep deletes
//!   files the manifest does not reference, which is wrong while a
//!   concurrent writer is mid-commit (its staged next generation would
//!   be swept away).
//! * [`open_dir_recovered_with`] runs the recovery sweep of
//!   [`recover_dir_with`] first — what a
//!   process that owns the directory (the CLI, the facade) wants.
//!
//! [`committed_generation_with`] is the cheap poll beside them: one
//! small `MANIFEST` read, no directory listing, no cleanup; cheap enough
//! for sub-second polls.
//!
//! The commit protocol (see [`manifest`](crate::manifest)) guarantees a
//! reopened generation is complete: data files are fully written and
//! fsynced *before* the manifest rename publishes them, so a reader
//! that observes generation `N` in the manifest can open generation
//! `N`'s files. The narrow race — a *second* commit superseding `N` and
//! unlinking its files between the poll and the open — surfaces as an
//! open error the caller simply retries (the next poll sees `N+1`).

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::error::CoreError;
use warptree_core::search::{
    run_query_with, BackendKind, Coverage, QueryOutput, QueryRequest, SearchMetrics, SearchStats,
    SegmentedIndex,
};
use warptree_core::sequence::{SeqId, SequenceStore};

use crate::any::AnyIndex;
use crate::corpus::load_corpus_with;
use crate::error::Result;
use crate::format::DiskTree;
use crate::manifest::{
    read_manifest_with, recover_dir_with, resolve_dir_with, RecoveryReport, ResolvedDir,
    SegmentMeta,
};
use crate::pager::IoStats;
use crate::vfs::Vfs;

/// The committed generation a poll observes, read from `MANIFEST`
/// alone; a missing or unreadable manifest is an error.
///
/// This never lists the directory and never removes anything, so it is
/// safe to call at any frequency while writers are active.
pub fn committed_generation_with(vfs: &dyn Vfs, dir: &Path) -> Result<u64> {
    Ok(read_manifest_with(vfs, dir)?.generation)
}

/// An immutable, query-ready view of one committed generation of an
/// index directory: the loaded corpus, its categorization, and the
/// disk-resident base tree and tail segments.
///
/// All parts are safe for concurrent readers (`&self` search through
/// internally synchronized caches), so one snapshot behind an `Arc`
/// serves any number of worker threads; swapping the `Arc` for a newer
/// generation retires the old snapshot once its last in-flight query
/// drops it.
pub struct DirSnapshot {
    /// The sequence database of this generation.
    pub store: SequenceStore,
    /// The categorization alphabet.
    pub alphabet: Alphabet,
    /// The categorized corpus shared with the trees.
    pub cat: Arc<CatStore>,
    /// The disk-resident base index, of whichever backend the manifest
    /// records.
    pub tree: AnyIndex,
    /// The committed *live* tail segments (see
    /// [`segment`](crate::segment)), in manifest order — empty for a
    /// fully compacted directory. Queries fan out across the base tree
    /// and every segment with results byte-identical to a monolithic
    /// index over the same corpus. Quarantined segments are never
    /// loaded; their metadata is kept in
    /// [`quarantined`](DirSnapshot::quarantined) for coverage
    /// accounting.
    pub segments: Vec<AnyIndex>,
    /// Manifest metadata for each loaded tail segment, parallel to
    /// [`segments`](DirSnapshot::segments).
    pub segment_metas: Vec<SegmentMeta>,
    /// Manifest metadata for segments excluded at open because they are
    /// quarantined (tombstoned after a failed CRC check).
    pub quarantined: Vec<SegmentMeta>,
    /// The committed generation this snapshot materializes.
    pub generation: u64,
    /// `(file, page)` of each tree a query over this snapshot caught
    /// failing a read. Later queries leave such a tail out up front and
    /// answer a failed base with its error at once.
    failed: Mutex<Vec<(String, u64)>>,
}

impl DirSnapshot {
    /// Every live tree: the base, then the tail segments.
    pub fn live_trees(&self) -> impl Iterator<Item = &AnyIndex> {
        std::iter::once(&self.tree).chain(&self.segments)
    }

    /// Total number of live trees: the base plus every tail segment.
    pub fn segment_count(&self) -> usize {
        1 + self.segments.len()
    }

    /// The index backend this snapshot's generation was committed under.
    pub fn backend(&self) -> BackendKind {
        self.tree.kind()
    }

    /// Forwards every live tree's cache and CRC-failure counts into
    /// `reg` (`disk.page_cache.*`, `disk.node_cache.*`,
    /// `disk.read_crc_fail`); the trees share the names, so their
    /// counts sum there, while each tree's own `io_stats()` /
    /// `node_cache_stats()` — what the `pager.io` span and `explain`
    /// read — stay that tree's alone.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        self.live_trees().for_each(|t| t.instrument(reg));
    }

    /// Runs a typed query against this snapshot:
    /// [`query_with`](DirSnapshot::query_with) plus the stats of the
    /// attempt that answered.
    pub fn query(
        &self,
        req: &QueryRequest,
    ) -> std::result::Result<(QueryOutput, SearchStats), CoreError> {
        let (out, metrics) = self.answer(req, SearchMetrics::new)?;
        let stats = req.final_stats(&out, &metrics);
        Ok((out, stats))
    }

    /// The one query over an opened directory: fans `req` out across
    /// the base tree and every live tail segment, with results
    /// byte-identical to a fully compacted (single-tree) index over the
    /// same corpus — see [`SegmentedIndex`]'s equivalence contract.
    ///
    /// A tail whose read fails mid-query (a page CRC, or a record that
    /// does not decode) is left out and the query re-runs over the
    /// others; this snapshot remembers the tail
    /// ([`failed_tails`](DirSnapshot::failed_tails)) and later queries
    /// skip it up front. Whenever a segment is missing — quarantined at
    /// open or caught failing — the output carries its [`Coverage`], so
    /// a partial answer is always labeled one. Answers over the
    /// surviving segments are byte-identical to a clean index over their
    /// sequences. A failure in the base index cannot be left out: it is
    /// [`CoreError::CorruptionDetected`].
    ///
    /// Counters and phase timings reach `metrics` from the attempt that
    /// answered only; every attempt's stage spans land in its trace.
    /// When the trace is active, each attempt also attaches a `pager.io`
    /// span attributing page reads and buffer-pool hits to each live
    /// tree — deltas of the trees' cumulative I/O counters, so other
    /// queries running on the snapshot at the same time bleed into them.
    pub fn query_with(
        &self,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> std::result::Result<QueryOutput, CoreError> {
        let (out, answered) = self.answer(req, || metrics.fresh())?;
        metrics.absorb(&answered);
        Ok(out)
    }

    /// The tail segments a query over this snapshot caught failing, by
    /// file name. Nothing here is tombstoned in `MANIFEST`: a process
    /// that owns the directory may quarantine them
    /// ([`quarantine_segment_with`](crate::quarantine_segment_with)).
    pub fn failed_tails(&self) -> Vec<String> {
        let failed = self.failed.lock();
        let tails = failed.iter().filter(|(file, _)| file != self.tree.source());
        tails.map(|(file, _)| file.clone()).collect()
    }

    /// The catch-and-retry loop behind
    /// [`query_with`](DirSnapshot::query_with): each attempt counts into
    /// metrics of its own from `fresh`, and the answering attempt's are
    /// returned beside its output.
    fn answer(
        &self,
        req: &QueryRequest,
        fresh: impl Fn() -> SearchMetrics,
    ) -> std::result::Result<(QueryOutput, SearchMetrics), CoreError> {
        loop {
            let skip = self.failed.lock().clone();
            let skipped = |t: &AnyIndex| skip.iter().any(|(file, _)| file == t.source());
            let base = skip.iter().find(|(file, _)| file == self.tree.source());
            if let Some((file, page)) = base.cloned() {
                return Err(CoreError::CorruptionDetected { file, page });
            }
            let metrics = fresh();
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let healthy = self.segments.iter().filter(|t| !skipped(t));
                self.query_over(healthy, req, &metrics)
            }));
            let payload = match attempt {
                Ok(out) => {
                    let mut out = out?;
                    if !skip.is_empty() || !self.quarantined.is_empty() {
                        out = out.with_coverage(self.coverage(&skip));
                    }
                    return Ok((out, metrics));
                }
                Err(payload) => payload,
            };
            // A read failed mid-query. The failing tree recorded its page
            // before unwinding (the payload does not say which tree; the
            // ESA serves from memory and never fails here). A query that
            // ran at the same time may have taken the record first: any
            // failure new since this attempt started means a retry, and
            // none means the unwind was not a failed read.
            let mut failed = self.failed.lock();
            for t in self.live_trees() {
                if let Some(page) = t.as_tree().and_then(DiskTree::take_read_error) {
                    if !failed.iter().any(|(file, _)| file == t.source()) {
                        failed.push((t.source().to_string(), page));
                    }
                }
            }
            if failed.len() == skip.len() {
                drop(failed);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// One attempt: runs `req` over the base tree plus `tails` —
    /// directly on the base when there are none — with the `pager.io`
    /// span of [`query_with`](DirSnapshot::query_with) when traced.
    fn query_over<'a>(
        &'a self,
        tails: impl Iterator<Item = &'a AnyIndex>,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> std::result::Result<QueryOutput, CoreError> {
        let io_before = metrics.trace.is_active().then(|| self.live_trees_io());
        let mut tails = tails.peekable();
        let out = if tails.peek().is_none() {
            run_query_with(&self.tree, &self.alphabet, &self.store, req, metrics)
        } else {
            let fanned = SegmentedIndex::new(std::iter::once(&self.tree).chain(tails).collect());
            run_query_with(&fanned, &self.alphabet, &self.store, req, metrics)
        };
        if let Some(before) = io_before {
            self.attach_io_span(metrics, &before);
        }
        out
    }

    fn live_trees_io(&self) -> Vec<IoStats> {
        self.live_trees().map(|t| t.io_stats()).collect()
    }

    /// Closes the pager-attribution loop: a `pager.io` span whose attrs
    /// are the per-tree (and total) deltas of page reads / buffer-pool
    /// hits since `before` was sampled.
    fn attach_io_span(&self, metrics: &SearchMetrics, before: &[IoStats]) {
        let span = metrics.trace_span("pager.io");
        let after = self.live_trees_io();
        let (mut pages, mut hits) = (0u64, 0u64);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            let (p, h) = (
                a.pages_read.saturating_sub(b.pages_read),
                a.cache_hits.saturating_sub(b.cache_hits),
            );
            let label = if i == 0 {
                "base".to_string()
            } else {
                format!("seg{}", i - 1)
            };
            span.attr_u64(&format!("{label}_pages_read"), p);
            span.attr_u64(&format!("{label}_cache_hits"), h);
            pages += p;
            hits += h;
        }
        span.attr_u64("pages_read", pages);
        span.attr_u64("cache_hits", hits);
    }

    /// Coverage accounting for this snapshot with the `skipped` tails
    /// left out as well: suffix counts are derived from the (intact)
    /// corpus via each excluded segment's sequence range, so they are
    /// exact even though the excluded trees are unreadable.
    fn coverage(&self, skipped: &[(String, u64)]) -> Coverage {
        let is_skipped = |m: &&SegmentMeta| skipped.iter().any(|(file, _)| *file == m.file);
        let excluded: Vec<_> = self.segment_metas.iter().filter(is_skipped).collect();
        let suffixes = |m: &SegmentMeta| -> u64 {
            let seqs = m.start_seq..m.start_seq.saturating_add(m.seq_count);
            let seqs = seqs.filter(|&i| (i as usize) < self.store.len());
            seqs.map(|i| self.store.get(SeqId(i)).len() as u64).sum()
        };
        let missing: u64 = (self.quarantined.iter().chain(excluded.iter().copied()))
            .map(suffixes)
            .sum();
        let suffixes_total = self.store.total_len();
        Coverage {
            segments_total: 1 + self.segments.len() + self.quarantined.len(),
            segments_answered: 1 + self.segments.len() - excluded.len(),
            segments_quarantined: self.quarantined.len() + excluded.len(),
            suffixes_total,
            suffixes_answered: suffixes_total.saturating_sub(missing),
        }
    }
}

/// Opens the committed generation of `dir` as a [`DirSnapshot`]
/// **without mutating the directory** — no recovery sweep, no file
/// removal — so it is safe to run concurrently with a writer committing
/// the next generation. `cache_pages` sizes each tree's page buffer
/// pool, `cache_nodes` its decoded-node cache.
pub fn open_dir_snapshot_with(
    vfs: &dyn Vfs,
    dir: &Path,
    cache_pages: usize,
    cache_nodes: usize,
) -> Result<DirSnapshot> {
    open_resolved(vfs, resolve_dir_with(vfs, dir)?, cache_pages, cache_nodes)
}

/// [`open_dir_snapshot_with`] after crash recovery: stale temporaries
/// and uncommitted files an interrupted build or append left behind are
/// swept first, and the sweep's findings returned beside the snapshot.
/// For a process that owns the directory; never run it against a
/// directory another process may be writing.
pub fn open_dir_recovered_with(
    vfs: &dyn Vfs,
    dir: &Path,
    cache_pages: usize,
    cache_nodes: usize,
) -> Result<(DirSnapshot, RecoveryReport)> {
    let (resolved, recovery) = recover_dir_with(vfs, dir)?;
    let snapshot = open_resolved(vfs, resolved, cache_pages, cache_nodes)?;
    Ok((snapshot, recovery))
}

/// The one open body: loads the corpus, then opens the base tree and
/// every tail segment the manifest does not have quarantined.
fn open_resolved(
    vfs: &dyn Vfs,
    resolved: ResolvedDir,
    cache_pages: usize,
    cache_nodes: usize,
) -> Result<DirSnapshot> {
    let ResolvedDir {
        generation,
        corpus_path,
        index_path,
        segment_paths,
        manifest,
    } = resolved;
    let (store, alphabet, cat) = load_corpus_with(vfs, &corpus_path)?;
    let open = |path: &Path| {
        AnyIndex::open_with(
            vfs,
            path,
            cat.clone(),
            manifest.backend,
            cache_pages,
            cache_nodes,
        )
    };
    let tree = open(&index_path)?;
    let mut segments = Vec::with_capacity(segment_paths.len());
    let mut segment_metas = Vec::new();
    let mut quarantined = Vec::new();
    for (path, meta) in segment_paths.iter().zip(manifest.segments) {
        if meta.quarantined {
            quarantined.push(meta);
            continue;
        }
        segments.push(open(path)?);
        segment_metas.push(meta);
    }
    Ok(DirSnapshot {
        store,
        alphabet,
        cat,
        tree,
        segments,
        segment_metas,
        quarantined,
        generation,
        failed: Mutex::new(Vec::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::build_dir_with;
    use crate::merge::TreeKind;
    use crate::vfs::{real_vfs, RealVfs};
    use std::path::PathBuf;
    use warptree_core::categorize::Alphabet;
    use warptree_core::search::SearchParams;
    use warptree_core::sequence::SequenceStore;

    fn tmpdir(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("warptree-snapshot-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn build(dir: &Path, values: Vec<Vec<f64>>) -> SequenceStore {
        let store = SequenceStore::from_values(values);
        let alphabet = Alphabet::equal_length(&store, 4).unwrap();
        build_dir_with(
            real_vfs(),
            &store,
            &alphabet,
            TreeKind::Full,
            1,
            1,
            None,
            dir,
        )
        .unwrap();
        store
    }

    #[test]
    fn snapshot_reopen_tracks_generations() {
        let dir = tmpdir("generations");
        let store = build(&dir, vec![vec![1.0, 5.0, 3.0, 5.0, 1.0], vec![4.0, 4.0]]);
        assert_eq!(committed_generation_with(&RealVfs, &dir).unwrap(), 1);
        let snap = open_dir_snapshot_with(&RealVfs, &dir, 8, 32).unwrap();
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.store.len(), store.len());
        let (answers, _) = snap
            .query(&QueryRequest::threshold_params(
                &[1.0, 5.0],
                SearchParams::with_epsilon(0.5),
            ))
            .unwrap();
        assert!(!answers.is_empty());
        // A rebuild bumps the generation; the poll and the reopen both
        // observe it.
        build(&dir, vec![vec![9.0, 9.0, 9.0], vec![2.0, 2.0]]);
        assert_eq!(committed_generation_with(&RealVfs, &dir).unwrap(), 2);
        let snap2 = open_dir_snapshot_with(&RealVfs, &dir, 8, 32).unwrap();
        assert_eq!(snap2.generation, 2);
        assert_eq!(snap2.store.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_open_does_not_sweep_staged_files() {
        // A concurrent writer's staged (uncommitted) files must survive
        // a snapshot reopen — only `recover_dir_with` may clean them.
        let dir = tmpdir("nosweep");
        build(&dir, vec![vec![1.0, 2.0, 3.0], vec![2.0, 1.0]]);
        let staged = dir.join("corpus-000002.wc.tmp");
        let installed = dir.join("index-000002.wt");
        std::fs::write(&staged, b"writer in flight").unwrap();
        std::fs::write(&installed, b"writer in flight").unwrap();
        let snap = open_dir_snapshot_with(&RealVfs, &dir, 4, 16).unwrap();
        assert_eq!(snap.generation, 1);
        assert!(staged.exists(), "snapshot reopen must not remove staging");
        assert!(
            installed.exists(),
            "snapshot reopen must not remove staging"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_contract_is_send_sync() {
        // Compile-time statement of the concurrent-read contract the
        // server relies on: a snapshot is shared across worker threads
        // behind an `Arc` with no external locking.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DirSnapshot>();
        assert_send_sync::<AnyIndex>();
    }
}
