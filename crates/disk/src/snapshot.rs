//! The opened index directory: one struct, one open routine, one
//! query fan-out.
//!
//! A [`DirSnapshot`] is an immutable, query-ready view of one committed
//! generation, and [`DirSnapshot::query_with`] is the one query over
//! it: every caller — the server, the CLI, `explain`, the library —
//! gets the same answer. An index is a filter over the CRC-verified
//! corpus, so a damaged one costs time, never answers: while any index
//! of the snapshot is damaged (quarantined, failed at open, or caught
//! failing a read), every query answers by sequential scan, the ground
//! truth every index plan is held to. Every index is read whole, and
//! its page CRCs checked, when the snapshot opens, so a damaged page is
//! found there, not by a query. There are two ways in, over one
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
    run_query_with, scan_query_with, BackendKind, IndexBackend, QueryOutput, QueryRequest,
    SearchMetrics, SearchStats, SegmentedIndex,
};
use warptree_core::sequence::SequenceStore;

use crate::any::AnyIndex;
use crate::corpus::load_corpus_with;
use crate::error::{DiskError, Result};
use crate::format::DiskTree;
use crate::manifest::{
    read_manifest_with, recover_dir_with, resolve_dir_with, RecoveryReport, ResolvedDir,
    SegmentMeta,
};
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
/// All parts are safe for concurrent readers (`&self` search over bytes
/// no query writes), so one snapshot behind an `Arc`
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
    /// The committed tail segments (see [`segment`](crate::segment))
    /// that opened, in manifest order — empty for a fully compacted
    /// directory. Queries fan out across the base tree and every
    /// segment with results byte-identical to a monolithic index over
    /// the same corpus. Quarantined segments are never loaded.
    pub segments: Vec<AnyIndex>,
    /// Manifest metadata for each tail the manifest does not have
    /// quarantined, in manifest order: those in
    /// [`segments`](DirSnapshot::segments) and any that failed to open.
    pub segment_metas: Vec<SegmentMeta>,
    /// Manifest metadata for segments excluded at open because they are
    /// quarantined (tombstoned after a failed check).
    pub quarantined: Vec<SegmentMeta>,
    /// The committed generation this snapshot materializes.
    pub generation: u64,
    /// File names of the indexes found damaged: those that failed a page
    /// CRC or their checks at open, and every tree a query caught with a
    /// record that does not decode.
    failed: Mutex<Vec<String>>,
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

    /// Counts every live tree's page that failed its CRC at open into
    /// `reg`'s `disk.read_crc_fail`.
    pub fn instrument(&self, reg: &warptree_obs::MetricsRegistry) {
        self.live_trees().for_each(|t| t.instrument(reg));
    }

    /// Runs a typed query against this snapshot:
    /// [`query_with`](DirSnapshot::query_with) plus the stats of the
    /// plan that answered.
    pub fn query(
        &self,
        req: &QueryRequest,
    ) -> std::result::Result<(QueryOutput, SearchStats), CoreError> {
        let (out, metrics) = self.answer(req, SearchMetrics::new)?;
        let stats = req.final_stats(&out, &metrics);
        Ok((out, stats))
    }

    /// The one query over an opened directory. A clean snapshot fans
    /// `req` out across the base tree and every tail segment, with
    /// results byte-identical to a fully compacted (single-tree) index
    /// over the same corpus — see [`SegmentedIndex`]'s equivalence
    /// contract.
    ///
    /// While any index is [`damaged`](DirSnapshot::damaged) — a tail
    /// quarantined, any index, the base included, with a page that
    /// failed its CRC or a check at open, or any tree caught with a
    /// record that does not decode — the whole request is answered by
    /// sequential scan over [`store`](DirSnapshot::store) instead
    /// ([`scan_query_with`]): the answers the index is held to, at the
    /// scan's cost. A record that fails to decode mid-query is recorded,
    /// and that query is answered by the scan.
    /// Either way the request is validated against the base index, so
    /// an invalid request gets the same typed error.
    ///
    /// Counters and phase timings reach `metrics` from the plan that
    /// answered only; a failed index attempt's stage spans still land in
    /// its trace.
    pub fn query_with(
        &self,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> std::result::Result<QueryOutput, CoreError> {
        let (out, answered) = self.answer(req, || metrics.fresh())?;
        metrics.absorb(&answered);
        Ok(out)
    }

    /// The tail segments found damaged other than by quarantine — that
    /// failed a page CRC or their checks at open, or that a query caught
    /// failing — by file name. Nothing here is tombstoned in
    /// `MANIFEST`: a process that owns the directory may quarantine them
    /// ([`quarantine_segment_with`](crate::quarantine_segment_with)).
    pub fn failed_tails(&self) -> Vec<String> {
        let failed = self.failed.lock();
        let tails = failed.iter().filter(|file| *file != self.tree.source());
        tails.cloned().collect()
    }

    /// Every damaged index file of this snapshot, by name: the
    /// quarantined tails, then the trees found failing, the base
    /// included. Once non-empty, every query answers by sequential scan.
    pub fn damaged(&self) -> Vec<String> {
        let quarantined = self.quarantined.iter().map(|m| m.file.clone());
        quarantined
            .chain(self.failed.lock().iter().cloned())
            .collect()
    }

    /// `true` once any index of this snapshot is
    /// [`damaged`](DirSnapshot::damaged): every query answers by scan.
    pub fn is_damaged(&self) -> bool {
        !self.quarantined.is_empty() || !self.failed.lock().is_empty()
    }

    /// [`query_with`](DirSnapshot::query_with)'s body: the index plan
    /// while nothing is damaged, the scan otherwise or once the index
    /// attempt meets a record that does not decode. Each plan counts into
    /// metrics of its own from `fresh`, and the answering plan's are
    /// returned beside its output.
    fn answer(
        &self,
        req: &QueryRequest,
        fresh: impl Fn() -> SearchMetrics,
    ) -> std::result::Result<(QueryOutput, SearchMetrics), CoreError> {
        let scan = || {
            req.validate_on(&self.tree)?;
            let metrics = fresh();
            Ok((scan_query_with(&self.store, req, &metrics)?, metrics))
        };
        if self.is_damaged() {
            return scan();
        }
        let metrics = fresh();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.query_over(req, &metrics)
        }));
        let payload = match attempt {
            Ok(out) => return Ok((out?, metrics)),
            Err(payload) => payload,
        };
        // A record failed to decode mid-query. The failing tree recorded
        // its page before unwinding (the payload does not say which tree;
        // the ESA's arrays are validated at open and never fail here). A
        // query that ran at the same time may have taken the record
        // first: any failure recorded at all — there was none when this
        // attempt started — means the scan answers, and none means the
        // unwind was not a failed read.
        let mut failed = self.failed.lock();
        for t in self.live_trees() {
            if t.as_tree().and_then(DiskTree::take_read_error).is_some()
                && !failed.iter().any(|file| file == t.source())
            {
                failed.push(t.source().to_string());
            }
        }
        if failed.is_empty() {
            drop(failed);
            std::panic::resume_unwind(payload);
        }
        drop(failed);
        scan()
    }

    /// The index plan: runs `req` over every live tree — directly on
    /// the base when there are no tails.
    fn query_over(
        &self,
        req: &QueryRequest,
        metrics: &SearchMetrics,
    ) -> std::result::Result<QueryOutput, CoreError> {
        if self.segments.is_empty() {
            run_query_with(&self.tree, &self.alphabet, &self.store, req, metrics)
        } else {
            let fanned = SegmentedIndex::new(self.live_trees().collect());
            run_query_with(&fanned, &self.alphabet, &self.store, req, metrics)
        }
    }
}

/// Opens the committed generation of `dir` as a [`DirSnapshot`]
/// **without mutating the directory** — no recovery sweep, no file
/// removal — so it is safe to run concurrently with a writer committing
/// the next generation.
pub fn open_dir_snapshot_with(vfs: &dyn Vfs, dir: &Path) -> Result<DirSnapshot> {
    open_resolved(vfs, resolve_dir_with(vfs, dir)?)
}

/// [`open_dir_snapshot_with`] after crash recovery: stale temporaries
/// and uncommitted files an interrupted build or append left behind are
/// swept first, and the sweep's findings returned beside the snapshot.
/// For a process that owns the directory; never run it against a
/// directory another process may be writing.
pub fn open_dir_recovered_with(vfs: &dyn Vfs, dir: &Path) -> Result<(DirSnapshot, RecoveryReport)> {
    let (resolved, recovery) = recover_dir_with(vfs, dir)?;
    let snapshot = open_resolved(vfs, resolved)?;
    Ok((snapshot, recovery))
}

/// The one open body: loads the corpus, then opens the base tree and
/// every tail segment the manifest does not have quarantined, each read
/// whole. A tree page after the header that fails its CRC, base or
/// tail, does not fail the open: the tree opens and is recorded
/// damaged, like a tree a query caught failing, and the corpus answers
/// for it. Neither does a tail that fails its own checks at open (a
/// header page's CRC, any page or record of an ESA), or whose header
/// disagrees with the base's on the sparse flag or the depth limit
/// (which the fan-out cannot mix): it is recorded damaged too. A corrupt
/// corpus, base header page or base ESA fails the open, and so does an
/// I/O error (a superseded generation's file unlinked under a poll:
/// retry).
fn open_resolved(vfs: &dyn Vfs, resolved: ResolvedDir) -> Result<DirSnapshot> {
    let ResolvedDir {
        generation,
        corpus_path,
        index_path,
        segment_paths,
        manifest,
    } = resolved;
    let (store, alphabet, cat) = load_corpus_with(vfs, &corpus_path)?;
    let open = |path: &Path| AnyIndex::open_with(vfs, path, cat.clone(), manifest.backend);
    let tree = open(&index_path)?;
    let mut failed = Vec::new();
    if opened_damaged(&tree) {
        failed.push(tree.source().to_string());
    }
    let mut segments = Vec::with_capacity(segment_paths.len());
    let mut segment_metas = Vec::new();
    let mut quarantined = Vec::new();
    for (path, meta) in segment_paths.iter().zip(manifest.segments) {
        if meta.quarantined {
            quarantined.push(meta);
            continue;
        }
        match open(path) {
            Ok(tail) if same_shape(&tail, &tree) => {
                if opened_damaged(&tail) {
                    failed.push(meta.file.clone());
                }
                segments.push(tail);
            }
            Err(e @ DiskError::Io(_)) => return Err(e),
            Ok(_) | Err(_) => failed.push(meta.file.clone()),
        }
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
        failed: Mutex::new(failed),
    })
}

/// Whether `index` is a tree that opened with a page failing its CRC
/// (the record of it taken, so no query takes it again).
fn opened_damaged(index: &AnyIndex) -> bool {
    index
        .as_tree()
        .and_then(DiskTree::take_read_error)
        .is_some()
}

/// Whether `tail` can be fanned out with `base`: the same sparse flag
/// and depth limit, as [`SegmentedIndex`] requires.
fn same_shape(tail: &AnyIndex, base: &AnyIndex) -> bool {
    (tail.is_sparse(), tail.depth_limit()) == (base.is_sparse(), base.depth_limit())
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
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
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
        let snap2 = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
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
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
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
