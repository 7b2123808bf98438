//! The LSM-style segment subsystem: online ingest and background
//! compaction of an index directory.
//!
//! Merging every append into the monolithic tree would be correct, but
//! each append would pay for rewriting the whole index.
//! [`append_segment_with`] instead commits the new sequences as a small
//! *tail segment*: a suffix tree over just the appended suffixes,
//! recorded in the manifest next to the base tree. Queries fan the
//! segments out through
//! [`SegmentedIndex`](warptree_core::search::SegmentedIndex) (results
//! are byte-identical to a monolithic build — see that module's
//! equivalence contract), and [`compact_once_with`] folds segments back
//! together pairwise with the paper's §4.1 binary merge, each
//! compaction committed as a new MANIFEST generation so hot reload,
//! crash recovery and `warptree verify` keep working unchanged.
//!
//! Appending is sound because the categorization is append-stable:
//! **boundaries never move** (re-deriving e.g. maximum-entropy quantiles
//! over the extended data would re-label old symbols and invalidate the
//! existing trees, so the stored boundaries are authoritative — see
//! [`corpus`](crate::corpus)), and **observed bounds only widen** (a
//! wider `lb..ub` only decreases point-to-interval distances, so
//! `D_base-lb` stays a valid lower bound for all members, old and new).
//! An append's work is `O(new)`: the corpus is carried forward as the
//! committed bytes, checked and copied behind a header with the widened
//! bounds (`corpus::append_corpus_with`), and only the new sequences
//! are encoded for the tail. Every mutation here follows the
//! commit protocol of [`manifest`](crate::manifest): temporaries,
//! renames, manifest flip, best-effort removal — a torn compaction or
//! append leaves the previous complete state in force.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::CatStore;
use warptree_core::search::BackendKind;
use warptree_core::sequence::SequenceStore;

use crate::any::index_shape;
use crate::corpus::{append_corpus_with, load_corpus_with};
use crate::error::{DiskError, Result};
use crate::esa::write_esa_with;
use crate::manifest::{
    check_dir, commit_update_with, corpus_file_name, index_file_name, quarantine_segment_with,
    recover_dir_with, resolve_dir_with, segment_file_name, Manifest, SegmentMeta,
};
use crate::merge::merge_trees_with;
use crate::vfs::{RealVfs, TempGuard, Vfs};
use crate::writer::write_tree_with;

/// Builds the index file for the suffixes of `range` under `backend`
/// and writes it at `path` — the one primitive every segment mutation
/// (append, heal, ESA compaction) reduces to.
fn write_range_index(
    vfs: &dyn Vfs,
    backend: BackendKind,
    cat: Arc<CatStore>,
    range: Range<usize>,
    sparse: bool,
    path: &Path,
) -> Result<()> {
    match backend {
        BackendKind::Tree => {
            let tail = if sparse {
                warptree_suffix::build_sparse_range(cat, range)
            } else {
                warptree_suffix::build_full_range(cat, range)
            };
            write_tree_with(vfs, &tail, path)?;
        }
        BackendKind::Esa => {
            let esa = warptree_esa::EsaIndex::build_range(cat, range, sparse);
            write_esa_with(vfs, &esa, path)?;
        }
    }
    Ok(())
}

/// Appends `new_sequences` as a new tail segment of the index directory
/// (O(new data) work — the existing trees are carried forward
/// untouched, the corpus as checked bytes), committing the widened
/// corpus plus the segment tree as the directory's next generation.
/// Returns the committed manifest.
///
/// The directory must resolve to a committed index. Truncated (§8)
/// indexes are rejected — their per-suffix prefix lengths depend on
/// build-time parameters this function does not know.
pub fn append_segment(dir: &Path, new_sequences: &SequenceStore) -> Result<Manifest> {
    append_segment_with(&RealVfs, dir, new_sequences)
}

/// [`append_segment`] through an explicit [`Vfs`].
pub fn append_segment_with(
    vfs: &dyn Vfs,
    dir: &Path,
    new_sequences: &SequenceStore,
) -> Result<Manifest> {
    if new_sequences.is_empty() {
        return Err(DiskError::BadRecord("nothing to append".into()));
    }
    let (resolved, _recovery) = recover_dir_with(vfs, dir)?;
    let backend = resolved.manifest.backend;
    let shape = index_shape(vfs, &resolved.index_path, backend)?;
    if shape.depth_limit.is_some() {
        return Err(DiskError::BadRecord(
            "cannot append to a truncated (§8) index".into(),
        ));
    }
    let mut manifest = resolved.manifest.clone();
    manifest.generation += 1;
    manifest.corpus = corpus_file_name(manifest.generation);
    let segment_name = segment_file_name(manifest.generation, manifest.segments.len() as u32);
    let corpus_tmp = dir.join(format!("{}.tmp", manifest.corpus));
    let segment_tmp = dir.join(format!("{segment_name}.tmp"));

    let mut guard = TempGuard::new(vfs, vec![corpus_tmp.clone(), segment_tmp.clone()]);
    // Admit the new values: widen observed bounds, carry the committed
    // records forward as checked bytes, serialize only the new ones.
    // Old symbols are unchanged — only lb/ub widen — so the base tree
    // and every existing tail stay valid over the widened corpus.
    let (alphabet, first_new) =
        append_corpus_with(vfs, &resolved.corpus_path, new_sequences, &corpus_tmp)?;
    let last = first_new + new_sequences.len();
    // The tail indexes only the new suffixes, with corpus-global
    // sequence ids, and must match the base index's backend and kind.
    // The range builders read nothing outside their range, so only the
    // new sequences are encoded; the committed ids stay empty.
    let old = std::iter::repeat_with(Vec::new).take(first_new);
    let new = new_sequences
        .iter()
        .map(|(_, s)| alphabet.encode(s.values()));
    let cat = Arc::new(CatStore::from_symbols(
        old.chain(new).collect(),
        alphabet.len() as u32,
    ));
    write_range_index(
        vfs,
        backend,
        cat,
        first_new..last,
        shape.sparse,
        &segment_tmp,
    )?;

    manifest.corpus_len = vfs.metadata_len(&corpus_tmp)?;
    manifest.segments.push(SegmentMeta {
        file: segment_name.clone(),
        file_len: vfs.metadata_len(&segment_tmp)?,
        start_seq: first_new as u32,
        seq_count: (last - first_new) as u32,
        quarantined: false,
    });
    // Only the corpus is superseded; the base tree and old tails are
    // carried forward by reference.
    commit_update_with(
        vfs,
        dir,
        &[
            (corpus_tmp, dir.join(&manifest.corpus)),
            (segment_tmp, dir.join(&segment_name)),
        ],
        &manifest,
        std::slice::from_ref(&resolved.corpus_path),
    )?;
    guard.defuse();
    Ok(manifest)
}

/// Runs one compaction step: merges the adjacent pair of segments with
/// the smallest combined file size (the base tree counts as segment 0)
/// using the paper's binary merge, and commits the result as the next
/// generation. Returns `Ok(None)` when the directory has no tail
/// segments — i.e. is already fully compacted.
///
/// Compaction never touches the corpus and never changes query results;
/// it only reduces the segment count by one. Interrupting it at any
/// point leaves the previous generation in force (the next recovery
/// sweep removes the torn merge's leftovers).
pub fn compact_once(dir: &Path) -> Result<Option<Manifest>> {
    compact_once_with(&RealVfs, dir, &warptree_obs::MetricsRegistry::noop())
}

/// [`compact_once`] through an explicit [`Vfs`], metering
/// `compaction.runs` / `compaction.ns` and the `index.segments` gauge
/// into `reg`.
pub fn compact_once_with(
    vfs: &dyn Vfs,
    dir: &Path,
    reg: &warptree_obs::MetricsRegistry,
) -> Result<Option<Manifest>> {
    let (resolved, _recovery) = recover_dir_with(vfs, dir)?;
    let old = resolved.manifest;
    if old.segments.is_empty() {
        return Ok(None);
    }
    // A quarantined segment cannot be merged (its file is known-bad) and
    // merging around it would reorder the sequence ranges the segments
    // cover. Heal first, then compact.
    if old.segments.iter().any(|s| s.quarantined) {
        return Ok(None);
    }
    let hist = reg.histogram("compaction.ns");
    let timer = hist.span();

    let (_, _, cat) = load_corpus_with(vfs, &resolved.corpus_path)?;

    // Uniform view of `(file, size)`: base first, then the tails, in
    // sequence order.
    let tails = old.segments.iter().map(|s| (&s.file, s.file_len));
    let view: Vec<_> = std::iter::once((&old.index, old.index_len))
        .chain(tails)
        .collect();

    // Cheapest adjacent pair first, ties to the right (file sizes are
    // page-quantized, so ties are common): small tails coalesce among
    // themselves before anything pays for rewriting the base, which is
    // what keeps total merge work O(n log n).
    let pick = (0..view.len() - 1)
        .rev()
        .min_by_key(|&i| view[i].1 + view[i + 1].1)
        .expect("at least one adjacent pair");

    let generation = old.generation + 1;
    let merged_name = if pick == 0 {
        index_file_name(generation)
    } else {
        segment_file_name(generation, (pick - 1) as u32)
    };
    let merged_tmp = dir.join(format!("{merged_name}.tmp"));
    let mut guard = TempGuard::new(vfs, vec![merged_tmp.clone()]);

    let left_path = dir.join(view[pick].0);
    let right_path = dir.join(view[pick + 1].0);
    match old.backend {
        BackendKind::Tree => {
            // The paper's §4.1 binary merge: one sequential pass over
            // the two tree files, which reads records in place.
            merge_trees_with(vfs, &left_path, &right_path, &cat, &merged_tmp)?;
        }
        BackendKind::Esa => {
            // No binary merge exists for the ESA's flat arrays; the
            // merged segment is rebuilt canonically from the corpus
            // over the union of the two sequence ranges — which also
            // guarantees it is byte-identical to a from-scratch build.
            let sparse = index_shape(vfs, &resolved.index_path, BackendKind::Esa)?.sparse;
            // The sums stay inside `u32`: the manifest decoder rejects
            // segment ranges that overlap or overflow.
            let range = if pick == 0 {
                let s = &old.segments[0];
                0..(s.start_seq + s.seq_count) as usize
            } else {
                let (l, r) = (&old.segments[pick - 1], &old.segments[pick]);
                l.start_seq as usize..(l.start_seq + l.seq_count + r.seq_count) as usize
            };
            write_range_index(
                vfs,
                BackendKind::Esa,
                cat.clone(),
                range,
                sparse,
                &merged_tmp,
            )?;
        }
    }
    let merged_len = vfs.metadata_len(&merged_tmp)?;

    let mut manifest = old.clone();
    manifest.generation = generation;
    if pick == 0 {
        // Base absorbed the first tail.
        manifest.index = merged_name.clone();
        manifest.index_len = merged_len;
        manifest.segments.remove(0);
    } else {
        // Two adjacent tails became one.
        let left_meta = manifest.segments[pick - 1].clone();
        let right_meta = manifest.segments.remove(pick);
        manifest.segments[pick - 1] = SegmentMeta {
            file: merged_name.clone(),
            file_len: merged_len,
            start_seq: left_meta.start_seq,
            seq_count: left_meta.seq_count + right_meta.seq_count,
            quarantined: false,
        };
    }
    commit_update_with(
        vfs,
        dir,
        &[(merged_tmp, dir.join(&merged_name))],
        &manifest,
        &[left_path, right_path],
    )?;
    guard.defuse();
    timer.end();
    reg.counter("compaction.runs").incr();
    reg.set_gauge("index.segments", (manifest.segments.len() + 1) as f64);
    Ok(Some(manifest))
}

/// Heals a quarantined tail segment by rebuilding its tree from the
/// (intact) corpus — the suffixes of a tail segment are fully derivable
/// from its `start_seq..start_seq+seq_count` sequence range, so the
/// corrupt file is replaced by a freshly built one and the quarantine
/// flag cleared, all as one new manifest generation. The tombstone file
/// is removed only after the replacement is committed.
pub fn heal_segment_with(vfs: &dyn Vfs, dir: &Path, segment: &str) -> Result<Manifest> {
    let (resolved, _recovery) = recover_dir_with(vfs, dir)?;
    let old = resolved.manifest;
    let idx = old
        .segments
        .iter()
        .position(|s| s.file == segment && s.quarantined)
        .ok_or_else(|| DiskError::BadManifest(format!("no quarantined segment named {segment}")))?;
    let meta = old.segments[idx].clone();
    let (store, _, cat) = load_corpus_with(vfs, &resolved.corpus_path)?;
    let sparse = index_shape(vfs, &resolved.index_path, old.backend)?.sparse;
    let first = meta.start_seq as usize;
    let last = first + meta.seq_count as usize;
    if last > store.len() {
        return Err(DiskError::BadManifest(format!(
            "segment {segment} covers sequences beyond the corpus"
        )));
    }
    let generation = old.generation + 1;
    let new_name = segment_file_name(generation, idx as u32);
    let tmp = dir.join(format!("{new_name}.tmp"));
    let mut guard = TempGuard::new(vfs, vec![tmp.clone()]);
    write_range_index(vfs, old.backend, cat, first..last, sparse, &tmp)?;
    let mut manifest = old.clone();
    manifest.generation = generation;
    manifest.segments[idx] = SegmentMeta {
        file: new_name.clone(),
        file_len: vfs.metadata_len(&tmp)?,
        start_seq: meta.start_seq,
        seq_count: meta.seq_count,
        quarantined: false,
    };
    commit_update_with(
        vfs,
        dir,
        &[(tmp, dir.join(&new_name))],
        &manifest,
        &[dir.join(&meta.file)],
    )?;
    guard.defuse();
    Ok(manifest)
}

/// What one scrub pass found and did.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Committed generation after the pass (quarantines and heals each
    /// commit a new one).
    pub generation: u64,
    /// Pages verified through the CRC-checked path across all files.
    pub pages: u64,
    /// Segments this pass detected corrupt and quarantined.
    pub newly_quarantined: Vec<String>,
    /// Previously quarantined segments this pass rebuilt from the
    /// corpus.
    pub healed: Vec<String>,
    /// Corruption in a file quarantine cannot cover (the corpus or the
    /// base tree) — serving is compromised until a rebuild.
    pub unrecoverable: Option<String>,
}

impl ScrubReport {
    /// Whether the directory is fully healthy after the pass.
    pub fn is_clean(&self) -> bool {
        self.newly_quarantined.is_empty() && self.unrecoverable.is_none()
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation {}: {} pages verified",
            self.generation, self.pages
        )?;
        for s in &self.newly_quarantined {
            write!(f, "\n  quarantined {s}")?;
        }
        for s in &self.healed {
            write!(f, "\n  healed {s}")?;
        }
        if let Some(e) = &self.unrecoverable {
            write!(f, "\n  UNRECOVERABLE: {e}")?;
        }
        Ok(())
    }
}

/// One scrub pass over an index directory: the committed-file check
/// [`verify_dir_with`](crate::verify_dir_with) reports — size, every
/// page read past the caches, parse — metered into `reg`, plus its
/// consequences. A corpus or base index that fails is reported
/// unrecoverable (there is nothing to rebuild it from) and the pass
/// ends without mutating the directory; a live tail segment that fails
/// is quarantined; and when `heal` is set, every quarantined segment is
/// rebuilt from the corpus.
pub fn scrub_dir_with(
    vfs: &dyn Vfs,
    dir: &Path,
    heal: bool,
    reg: &warptree_obs::MetricsRegistry,
) -> Result<ScrubReport> {
    let resolved = resolve_dir_with(vfs, dir)?;
    let files = check_dir(vfs, &resolved, reg);
    let mut report = ScrubReport {
        generation: resolved.generation,
        pages: files.iter().map(|f| f.pages).sum(),
        ..Default::default()
    };
    // The corpus and the base index come first.
    let (base, tails) = files.split_at(2);
    if let Some((name, error)) = base.iter().find_map(|f| Some((&f.name, f.error.as_ref()?))) {
        report.unrecoverable = Some(format!("{name}: {error}"));
        return Ok(report);
    }

    // Quarantines and heals each commit a generation; `manifest` tracks
    // the latest.
    let mut manifest = resolved.manifest.clone();
    for tail in tails.iter().filter(|f| f.error.is_some() && !f.quarantined) {
        manifest = quarantine_segment_with(vfs, dir, &tail.name)?;
        report.newly_quarantined.push(tail.name.clone());
    }

    if heal {
        let quarantined: Vec<String> = manifest
            .quarantined_segments()
            .map(|s| s.file.clone())
            .collect();
        for name in quarantined {
            manifest = heal_segment_with(vfs, dir, &name)?;
            report.healed.push(name);
        }
    }

    report.generation = manifest.generation;
    reg.counter("scrub.runs").incr();
    reg.counter("scrub.pages").add(report.pages);
    Ok(report)
}

/// Compacts until a single tree remains, returning the number of merge
/// steps performed and the final manifest (when any step ran).
pub fn compact_all_with(
    vfs: &dyn Vfs,
    dir: &Path,
    reg: &warptree_obs::MetricsRegistry,
) -> Result<(u64, Option<Manifest>)> {
    let mut runs = 0;
    let mut last = None;
    while let Some(m) = compact_once_with(vfs, dir, reg)? {
        runs += 1;
        last = Some(m);
    }
    Ok((runs, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{resolve_dir_with, verify_dir_with};
    use crate::snapshot::open_dir_snapshot_with;
    use warptree_core::categorize::Alphabet;
    use warptree_core::search::{IndexBackend, QueryRequest, SearchParams};
    use warptree_core::sequence::SeqId;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("warptree-segment-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn build_initial(dir: &Path, sparse: bool) -> SequenceStore {
        let store =
            SequenceStore::from_values(vec![vec![1.0, 5.0, 3.0, 5.0, 1.0], vec![4.0, 4.0, 2.0]]);
        let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
        crate::manifest::build_dir_with(
            crate::vfs::real_vfs(),
            &store,
            &alphabet,
            if sparse {
                crate::merge::TreeKind::Sparse
            } else {
                crate::merge::TreeKind::Full
            },
            1,
            1,
            None,
            dir,
        )
        .unwrap();
        store
    }

    #[test]
    fn segment_append_then_full_compaction_round_trip() {
        for sparse in [false, true] {
            let dir = tmpdir(&format!("roundtrip-{sparse}"));
            build_initial(&dir, sparse);
            // Two appends leave two tail segments; values outside the
            // old range exercise the widening path.
            append_segment(&dir, &SequenceStore::from_values(vec![vec![0.0, 9.0, 5.0]])).unwrap();
            let m = append_segment(
                &dir,
                &SequenceStore::from_values(vec![vec![3.0, 3.0, 3.0], vec![5.0, 1.0]]),
            )
            .unwrap();
            assert_eq!(m.segments.len(), 2);
            assert_eq!(m.segments[0].start_seq, 2);
            assert_eq!(m.segments[1].start_seq, 3);
            assert_eq!(m.segments[1].seq_count, 2);
            assert!(verify_dir_with(&RealVfs, &dir).unwrap().is_ok());

            // Queries over the segmented snapshot agree with brute force.
            let probe: [&[f64]; 1] = [&[5.0, 1.0]];
            assert_matches_seq_scan(&dir, &probe, 0.75, &format!("tails sparse={sparse}"));

            // Compact to a single tree; results must not change.
            let reg = warptree_obs::MetricsRegistry::new();
            let (runs, last) = compact_all_with(&RealVfs, &dir, &reg).unwrap();
            assert_eq!(runs, 2);
            assert!(last.unwrap().segments.is_empty());
            assert_eq!(reg.counter("compaction.runs").get(), 2);
            assert!(verify_dir_with(&RealVfs, &dir).unwrap().is_ok());
            let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
            assert_eq!(snap.segments.len(), 0);
            assert_matches_seq_scan(&dir, &probe, 0.75, &format!("merged sparse={sparse}"));
            // No data files beyond the committed pair remain.
            assert!(compact_once(&dir).unwrap().is_none());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Every probe query over the opened directory equals the exact
    /// scan over its store.
    fn assert_matches_seq_scan(dir: &Path, queries: &[&[f64]], epsilon: f64, context: &str) {
        let snap = open_dir_snapshot_with(&RealVfs, dir).unwrap();
        for q in queries {
            let params = SearchParams::with_epsilon(epsilon);
            let req = QueryRequest::threshold_params(q, params.clone());
            let (got, _) = snap.query(&req).unwrap();
            let mut stats = warptree_core::search::SearchStats::default();
            let expected = warptree_core::search::seq_scan(
                &snap.store,
                q,
                &params,
                warptree_core::search::SeqScanMode::Full,
                &mut stats,
            );
            assert!(
                !expected.is_empty(),
                "{context}: probe {q:?} matches nothing"
            );
            assert_eq!(
                got.into_answer_set().occurrence_set(),
                expected.occurrence_set(),
                "{context} q={q:?}"
            );
        }
    }

    fn assert_no_tmp_files(dir: &Path) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "stray temp file {name:?}"
            );
        }
    }

    #[test]
    fn append_preserves_exactness() {
        for sparse in [false, true] {
            let dir = tmpdir(&format!("exact-{sparse}"));
            build_initial(&dir, sparse);
            // New data includes values OUTSIDE the old range (0.0, 9.0):
            // the widening path must keep the bounds sound, in the tail
            // segment and in the tree compaction merges it into.
            let extra = SequenceStore::from_values(vec![
                vec![0.0, 9.0, 5.0, 5.0],
                vec![3.0, 3.0, 3.0, 3.0, 3.0],
            ]);
            append_segment(&dir, &extra).unwrap();
            let queries: [&[f64]; 3] = [&[5.0, 5.0], &[0.0, 9.0], &[3.0]];
            assert_matches_seq_scan(&dir, &queries, 1.0, &format!("tail sparse={sparse}"));
            assert_no_tmp_files(&dir);

            let reg = warptree_obs::MetricsRegistry::noop();
            assert_eq!(compact_all_with(&RealVfs, &dir, &reg).unwrap().0, 1);
            assert_matches_seq_scan(&dir, &queries, 1.0, &format!("merged sparse={sparse}"));
            assert_no_tmp_files(&dir);
            let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
            assert_eq!(snap.store.len(), 4);
            assert!(snap.segments.is_empty());
            // A full tree stores one suffix per element of old + new.
            if !sparse {
                assert_eq!(snap.tree.suffix_count(), snap.store.total_len());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn repeated_appends_accumulate() {
        let dir = tmpdir("repeat");
        build_initial(&dir, true);
        for round in 0..3 {
            let extra =
                SequenceStore::from_values(vec![vec![2.0 + round as f64, 4.0, 6.0 - round as f64]]);
            append_segment(&dir, &extra).unwrap();
        }
        // Three appends over a generation-1 build leave generation 4
        // with three tails; folding them is three more generations.
        let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 4);
        assert_eq!(resolved.manifest.segments.len(), 3);
        assert_matches_seq_scan(&dir, &[&[4.0, 6.0]], 0.5, "tails");
        let reg = warptree_obs::MetricsRegistry::noop();
        let (runs, last) = compact_all_with(&RealVfs, &dir, &reg).unwrap();
        assert_eq!((runs, last.unwrap().generation), (3, 7));
        assert_matches_seq_scan(&dir, &[&[4.0, 6.0]], 0.5, "merged");
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        assert_eq!((snap.store.len(), snap.segments.len()), (5, 0));
        assert_no_tmp_files(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_prefers_cheapest_adjacent_pair() {
        let dir = tmpdir("pick");
        build_initial(&dir, false);
        // Two small tails: their combined size is far below base+tail,
        // so one compaction merges the tails, leaving the base alone.
        append_segment(&dir, &SequenceStore::from_values(vec![vec![2.0, 2.5]])).unwrap();
        append_segment(&dir, &SequenceStore::from_values(vec![vec![4.5, 4.0]])).unwrap();
        let before = resolve_dir_with(&RealVfs, &dir).unwrap();
        let m = compact_once(&dir).unwrap().unwrap();
        assert_eq!(m.segments.len(), 1);
        assert_eq!(m.index, before.manifest.index, "base untouched");
        assert_eq!(m.segments[0].start_seq, 2);
        assert_eq!(m.segments[0].seq_count, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The carried-forward corpus is the file a full re-serialization
    /// writes, and the tail built from the batch's symbols alone is the
    /// one built from the fully encoded store. The appends cover named
    /// and unnamed sequences, an old stream ending exactly on a page
    /// boundary, a batch whose first record straddles one, values that
    /// widen the bounds, and every change of scale: a batch on the
    /// committed scale, one on a finer scale, one on none, one into a
    /// raw corpus, and a committed version 2 file — for tree and ESA,
    /// full and sparse.
    #[test]
    fn carried_forward_files_are_the_full_reserialization() {
        use crate::corpus::{corpus_decimals, load_corpus, save_corpus, save_corpus_v2};
        use crate::manifest::commit_update_with;
        use crate::pager::{PAGE_DATA, PAGE_SIZE};
        use warptree_core::sequence::Sequence;
        // A wave on the grid of `decimals`; `+ 0.0` turns `-0.0`, which
        // is on no grid, into `0.0`.
        let wave = |n: usize, k: usize, scale: f64, decimals: i32| -> Sequence {
            let grid = 10f64.powi(decimals);
            let on_grid = |x: f64| (x * scale * grid).round() / grid + 0.0;
            Sequence::new(
                (0..n)
                    .map(|i| on_grid((i as f64 * 0.37 * k as f64).sin()))
                    .collect(),
            )
        };
        let stream_len = |store: &SequenceStore, alphabet: &Alphabet, at: &Path| {
            save_corpus(store, alphabet, at).unwrap() as usize
        };
        let extend = |model: &mut SequenceStore, batch: &SequenceStore| {
            for (id, s) in batch.iter() {
                match batch.name(id) {
                    Some(name) => model.push_named(s.clone(), name),
                    None => model.push(s.clone()),
                };
            }
        };
        let scratch = tmpdir("reserialize-len");
        let at = scratch.join("len.tmp");
        let mut base = SequenceStore::new();
        for k in 0..9 {
            match k % 2 {
                0 => base.push_named(wave(300, k + 1, 10.0, 2), format!("s{k}")),
                _ => base.push(wave(300, k + 1, 10.0, 2)),
            };
        }
        let mut alphabet = Alphabet::max_entropy(&base, 6).unwrap();
        // The last base sequence's name pads the stream to one page.
        let padding = SequenceStore::from_values(vec![wave(50, 11, 10.0, 2).values().to_vec()]);
        alphabet.widen(&padding);
        let mut padded = base.clone();
        padded.push(padding.get(SeqId(0)).clone());
        let pad = PAGE_DATA - stream_len(&padded, &alphabet, &at);
        base.push_named(padding.get(SeqId(0)).clone(), "p".repeat(pad));
        assert_eq!(stream_len(&base, &alphabet, &at), PAGE_DATA);

        let mut named = SequenceStore::new();
        named.push_named(wave(30, 13, 10.0, 2), "a");
        named.push(wave(20, 14, 10.0, 2));
        let straddling = SequenceStore::from_values(vec![
            wave(4200, 15, 15.0, 2).values().to_vec(),
            wave(5, 16, 10.0, 2).values().to_vec(),
        ]);
        let mut below = SequenceStore::new();
        below.push_named(Sequence::new(vec![-20.0, 3.0, 3.0, -20.0]), "c");
        let finer = SequenceStore::from_values(vec![wave(40, 17, 10.0, 3).values().to_vec()]);
        let mut off_grid = SequenceStore::new();
        off_grid.push_named(Sequence::new(vec![1.0 / 3.0, 2.0, -0.0]), "d");
        let into_raw = SequenceStore::from_values(vec![wave(60, 18, 10.0, 2).values().to_vec()]);
        // Each batch and the scale the corpus is stored at after it.
        let batches = [
            (named, Some(2)),
            (straddling, Some(2)),
            (below, Some(2)),
            (finer, Some(3)),
            (off_grid, None),
            (into_raw, None),
        ];

        for (backend, sparse, v2) in [
            (BackendKind::Tree, false, false),
            (BackendKind::Tree, true, false),
            (BackendKind::Esa, false, false),
            (BackendKind::Esa, true, false),
            (BackendKind::Tree, true, true),
        ] {
            let context = format!("{backend:?} sparse={sparse} v2={v2}");
            let dir = tmpdir(&format!("reserialize-{backend:?}-{sparse}-{v2}"));
            let kind = match sparse {
                true => crate::merge::TreeKind::Sparse,
                false => crate::merge::TreeKind::Full,
            };
            let vfs = crate::vfs::real_vfs();
            crate::manifest::build_dir_backend_with(
                vfs, &base, &alphabet, kind, 1, 1, None, backend, &dir,
            )
            .unwrap();
            let first = resolve_dir_with(&RealVfs, &dir).unwrap();
            let corpus_len = std::fs::metadata(&first.corpus_path).unwrap().len();
            assert_eq!(corpus_len, PAGE_SIZE as u64, "{context}: one full page");
            assert_eq!(corpus_decimals(&first.corpus_path).unwrap(), Some(2));
            if v2 {
                // The same corpus as a previous build wrote it.
                let staged = dir.join("v2.tmp");
                save_corpus_v2(&base, &alphabet, &staged).unwrap();
                let mut manifest = first.manifest.clone();
                manifest.corpus_len = std::fs::metadata(&staged).unwrap().len();
                let commit = [(staged, first.corpus_path.clone())];
                commit_update_with(&RealVfs, &dir, &commit, &manifest, &[]).unwrap();
                assert_eq!(corpus_decimals(&first.corpus_path).unwrap(), None);
            }

            for (k, (batch, decimals)) in batches.iter().enumerate() {
                let before = resolve_dir_with(&RealVfs, &dir).unwrap();
                let (mut model, mut widened, _) = load_corpus(&before.corpus_path).unwrap();
                if k == 1 && !v2 {
                    let end = stream_len(&model, &widened, &at);
                    let one =
                        SequenceStore::from_values(vec![batch.get(SeqId(0)).values().to_vec()]);
                    let first_record = stream_len(&one, &widened, &at) - 28 - 32 * widened.len();
                    assert!(
                        end % PAGE_DATA + first_record > PAGE_DATA,
                        "{context}: no straddle"
                    );
                }
                let m = append_segment(&dir, batch).unwrap();
                let first_new = model.len();
                extend(&mut model, batch);
                widened.widen(batch);

                let want = dir.join("want.tmp");
                save_corpus(&model, &widened, &want).unwrap();
                let got = std::fs::read(dir.join(&m.corpus)).unwrap();
                assert!(
                    got == std::fs::read(&want).unwrap(),
                    "{context}: corpus {k}"
                );
                let decimals_now = corpus_decimals(&dir.join(&m.corpus)).unwrap();
                assert_eq!(decimals_now, *decimals, "{context}: corpus {k}");
                let cat = Arc::new(widened.encode_store(&model));
                let range = first_new..model.len();
                write_range_index(&RealVfs, backend, cat, range, sparse, &want).unwrap();
                let tail = &m.segments.last().unwrap().file;
                let got = std::fs::read(dir.join(tail)).unwrap();
                assert!(got == std::fs::read(&want).unwrap(), "{context}: tail {k}");
                std::fs::remove_file(&want).unwrap();
            }
            let (loaded, _, _) =
                load_corpus(&resolve_dir_with(&RealVfs, &dir).unwrap().corpus_path).unwrap();
            assert_eq!(
                loaded.name(SeqId(base.len() as u32)),
                Some("a"),
                "{context}"
            );
            assert!(
                verify_dir_with(&RealVfs, &dir).unwrap().is_ok(),
                "{context}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// A name the corpus could not hold is refused by a build and by an
    /// append alike, before anything is committed, and the generation in
    /// force stays openable; the longest name it holds round-trips.
    #[test]
    fn long_names_are_refused_before_a_commit() {
        use crate::corpus::MAX_NAME_BYTES;
        use warptree_core::sequence::Sequence;
        let dir = tmpdir("long-name");
        let store = build_initial(&dir, true);
        let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
        let named = |len: usize| {
            let mut s = SequenceStore::new();
            s.push_named(Sequence::new(vec![2.0, 4.0, 3.0]), "n".repeat(len));
            s
        };
        let build = |s: &SequenceStore| {
            let kind = crate::merge::TreeKind::Sparse;
            crate::manifest::build_dir_with(
                crate::vfs::real_vfs(),
                s,
                &alphabet,
                kind,
                1,
                1,
                None,
                &dir,
            )
        };
        let generation = resolve_dir_with(&RealVfs, &dir).unwrap().generation;
        let too_long = named(MAX_NAME_BYTES + 1);
        for (what, result) in [
            ("build", build(&too_long).map(|_| ())),
            ("append", append_segment(&dir, &too_long).map(|_| ())),
        ] {
            assert!(
                matches!(result, Err(DiskError::BadRecord(_))),
                "{what}: {result:?}"
            );
            assert_eq!(
                resolve_dir_with(&RealVfs, &dir).unwrap().generation,
                generation
            );
            assert_no_tmp_files(&dir);
            let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
            assert_eq!(snap.store.len(), store.len(), "{what}");
        }
        build(&named(MAX_NAME_BYTES)).unwrap();
        let snap = open_dir_snapshot_with(&RealVfs, &dir).unwrap();
        assert_eq!(
            snap.store.name(SeqId(0)).map(str::len),
            Some(MAX_NAME_BYTES)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_to_truncated_index_is_rejected() {
        let dir = tmpdir("truncated");
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let alphabet = Alphabet::max_entropy(&store, 4).unwrap();
        crate::manifest::build_dir_with(
            crate::vfs::real_vfs(),
            &store,
            &alphabet,
            crate::merge::TreeKind::Full,
            1,
            1,
            Some(warptree_suffix::TruncateSpec {
                max_answer_len: 3,
                min_answer_len: 1,
            }),
            &dir,
        )
        .unwrap();
        let err = append_segment(&dir, &SequenceStore::from_values(vec![vec![1.0]]));
        assert!(matches!(err, Err(DiskError::BadRecord(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
