//! The opened index directory: one struct, one open routine, one
//! query fan-out.
//!
//! A [`DirSnapshot`] is an immutable, query-ready view of one committed
//! generation. There are two ways in, over one body:
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

use warptree_core::categorize::{Alphabet, CatStore};
use warptree_core::error::CoreError;
use warptree_core::search::{
    run_query_with, BackendKind, Coverage, QueryOutput, QueryRequest, SearchMetrics, SearchStats,
    SegmentedIndex,
};
use warptree_core::sequence::{SeqId, SequenceStore};

use crate::any::AnyIndex;
use crate::corpus::load_corpus_with;
use crate::error::{DiskError, Result};
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
}

/// Why a degraded query could not produce an answer at all.
#[derive(Debug)]
pub enum DegradedError {
    /// The request itself was invalid — the caller's fault.
    Rejected(CoreError),
    /// A CRC failure in the base tree (which every query needs) left no
    /// healthy subset to answer from.
    Corrupt(DiskError),
}

impl std::fmt::Display for DegradedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedError::Rejected(e) => e.fmt(f),
            DegradedError::Corrupt(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DegradedError {}

/// The outcome of [`DirSnapshot::query_degraded`]: the answers
/// (possibly partial, with coverage attached), the stats snapshot, and
/// the names of segments whose corruption this very query detected —
/// the caller is responsible for tombstoning those in the manifest (see
/// [`quarantine_segment_with`](crate::quarantine_segment_with)).
#[derive(Debug)]
pub struct DegradedQuery {
    /// The answers; `output.coverage` is `Some` iff any segment was
    /// excluded (pre-quarantined or newly detected).
    pub output: QueryOutput,
    /// Search statistics for the attempt that succeeded.
    pub stats: SearchStats,
    /// Segment file names that failed a CRC check *during this query*
    /// and are not yet tombstoned in the manifest.
    pub detected: Vec<String>,
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

    /// Runs a typed query against this snapshot, fanning out across the
    /// base tree and every tail segment. Results are byte-identical to
    /// a fully compacted (single-tree) index over the same corpus — see
    /// [`SegmentedIndex`]'s equivalence contract. A snapshot with no
    /// tail segments queries the base tree directly.
    pub fn query(
        &self,
        req: &QueryRequest,
    ) -> std::result::Result<(QueryOutput, SearchStats), CoreError> {
        let metrics = SearchMetrics::new();
        let out = self.query_with(req, &metrics)?;
        let stats = req.final_stats(&out, &metrics);
        Ok((out, stats))
    }

    /// [`query`](DirSnapshot::query) recording into an external
    /// [`SearchMetrics`] (no stats snapshot).
    ///
    /// When `metrics` carries an active trace, the query additionally
    /// attaches a `pager.io` span attributing page reads and buffer-pool
    /// hits to each live tree (base + tail segments) over the query's
    /// lifetime — deltas of the trees' cumulative I/O counters, so they
    /// are per-query even though the pager accumulates per tree. Other
    /// concurrent queries over the same snapshot bleed into the deltas;
    /// attribution is exact only for the common one-query-per-snapshot
    /// tracing setup.
    pub fn query_with(
        &self,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> std::result::Result<QueryOutput, CoreError> {
        self.query_over(self.segments.iter(), req, metrics)
    }

    /// The one fan-out: runs `req` over the base tree plus `tails` —
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

    /// Runs a typed query with degraded-mode handling: a CRC failure in
    /// a tail segment excludes that segment and retries over the
    /// remaining live trees instead of failing the query, returning an
    /// honestly-labeled partial answer ([`Coverage`] attached) plus the
    /// names of the segments it newly detected as corrupt. A CRC
    /// failure in the base tree is unrecoverable here and comes back as
    /// [`DegradedError::Corrupt`].
    ///
    /// Answers over the surviving segment subset are byte-identical to
    /// a clean index over that subset's sequences — corruption can only
    /// *remove* coverage, never corrupt an answer that is returned.
    pub fn query_degraded(
        &self,
        req: &QueryRequest,
    ) -> std::result::Result<DegradedQuery, DegradedError> {
        self.query_degraded_traced(req, &warptree_obs::Trace::noop())
    }

    /// [`query_degraded`](DirSnapshot::query_degraded) with the
    /// query's work recorded into `trace`: each attempt's stage spans
    /// (filter / postprocess / per-segment fan-out) plus a `pager.io`
    /// attribution span land in the trace. An inactive (noop) trace
    /// makes this identical to the untraced path.
    pub fn query_degraded_traced(
        &self,
        req: &QueryRequest,
        trace: &warptree_obs::Trace,
    ) -> std::result::Result<DegradedQuery, DegradedError> {
        let mut detected: Vec<String> = Vec::new();
        loop {
            let metrics = SearchMetrics::new().with_trace(trace.clone());
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let healthy = self.segments.iter();
                let healthy = healthy.filter(|t| !detected.iter().any(|d| d == t.source()));
                self.query_over(healthy, req, &metrics)
            }));
            match attempt {
                Ok(Ok(mut output)) => {
                    let stats = req.final_stats(&output, &metrics);
                    if !detected.is_empty() || !self.quarantined.is_empty() {
                        output = output.with_coverage(self.coverage(&detected));
                    }
                    return Ok(DegradedQuery {
                        output,
                        stats,
                        detected,
                    });
                }
                Ok(Err(e)) => return Err(DegradedError::Rejected(e)),
                Err(payload) => {
                    // A read failed its CRC check mid-query. The failing
                    // tree recorded a typed error before unwinding (the
                    // panic payload itself may be a worker-join message,
                    // so the error cells are the source of truth).
                    if let Some(e) = self.tree.take_read_error() {
                        return Err(DegradedError::Corrupt(e));
                    }
                    let before = detected.len();
                    for t in &self.segments {
                        if t.take_read_error().is_some() {
                            let name = t.source().to_string();
                            if !detected.contains(&name) {
                                detected.push(name);
                            }
                        }
                    }
                    if detected.len() == before {
                        // Not a corruption unwind — propagate.
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// Coverage accounting for this snapshot with `detected` segment
    /// file names additionally excluded: suffix counts are derived from
    /// the (intact) corpus via each excluded segment's sequence range,
    /// so they are exact even though the excluded trees are unreadable.
    pub fn coverage(&self, detected: &[String]) -> Coverage {
        let excluded = self
            .segment_metas
            .iter()
            .filter(|m| detected.contains(&m.file))
            .count();
        let segments_total = 1 + self.segments.len() + self.quarantined.len();
        let mut missing = 0u64;
        for m in self.quarantined.iter().chain(
            self.segment_metas
                .iter()
                .filter(|m| detected.contains(&m.file)),
        ) {
            missing += self.range_suffixes(m);
        }
        let suffixes_total = self.store.total_len();
        Coverage {
            segments_total,
            segments_answered: 1 + self.segments.len() - excluded,
            segments_quarantined: self.quarantined.len() + excluded,
            suffixes_total,
            suffixes_answered: suffixes_total.saturating_sub(missing),
        }
    }

    /// Number of corpus suffixes (positions) inside a segment's
    /// sequence range, computed from the corpus rather than the
    /// (possibly unreadable) segment tree.
    fn range_suffixes(&self, m: &SegmentMeta) -> u64 {
        (m.start_seq..m.start_seq.saturating_add(m.seq_count))
            .filter(|&i| (i as usize) < self.store.len())
            .map(|i| self.store.get(SeqId(i)).len() as u64)
            .sum()
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
