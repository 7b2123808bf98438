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
//! A segment is an index and a corpus: an append writes the new
//! sequences, and only them, as the tail's own corpus file (under the
//! directory's alphabet widened over the batch, at the batch's own
//! scale), and indexes only their suffixes. It reads no committed record,
//! only the corpus headers, so its work is `O(new)`. Compaction folds the
//! corpora of the pair it merges into one file, so a corpus file never
//! outlives its index, and the base corpus is rewritten only when the
//! base absorbs a tail; compaction and heal read only the corpora of the
//! ranges they touch. Every mutation here follows the commit protocol
//! of [`manifest`](crate::manifest): temporaries, renames, manifest
//! flip, best-effort removal — a torn compaction or append leaves the
//! previous complete state in force.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::CatStore;
use warptree_core::search::BackendKind;
use warptree_core::sequence::SequenceStore;

use crate::any::index_shape;
use crate::corpus::{load_corpora_with, save_corpus_with, CorpusFile, CorpusLoader};
use crate::error::{DiskError, Result};
use crate::esa::write_esa_with;
use crate::manifest::{
    check_dir, commit_update_with, corpus_file_name, index_file_name, quarantine_segment_with,
    recover_dir_with, resolve_dir_with, segment_corpus_file_name, segment_file_name, Manifest,
    SegmentMeta,
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
/// (O(new data) work — the existing trees and corpora are carried
/// forward untouched), committing the segment's corpus and tree as the
/// directory's next generation. Returns the committed manifest.
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
    // The directory's alphabet and sequence count, from the corpus
    // headers alone, widened over the new values: old symbols are
    // unchanged — only lb/ub widen — so the base tree and every
    // existing tail stay valid.
    let mut heads = CorpusLoader::new(0);
    for file in &resolved.corpus_files {
        heads.add_head(vfs, file)?;
    }
    let (first_new, mut alphabet) = heads.alphabet();
    let last = first_new + new_sequences.len();
    if last > u32::MAX as usize {
        return Err(DiskError::BadRecord(
            "corpus sequence count overflows".into(),
        ));
    }
    alphabet.widen(new_sequences);

    let mut manifest = resolved.manifest.clone();
    manifest.generation += 1;
    let ordinal = manifest.segments.len() as u32;
    let segment_name = segment_file_name(manifest.generation, ordinal);
    let corpus_name = segment_corpus_file_name(manifest.generation, ordinal);
    let corpus_tmp = dir.join(format!("{corpus_name}.tmp"));
    let segment_tmp = dir.join(format!("{segment_name}.tmp"));
    let mut guard = TempGuard::new(vfs, vec![corpus_tmp.clone(), segment_tmp.clone()]);
    save_corpus_with(vfs, new_sequences, &alphabet, &corpus_tmp)?;
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

    manifest.segments.push(SegmentMeta {
        file: segment_name.clone(),
        file_len: vfs.metadata_len(&segment_tmp)?,
        corpus: corpus_name.clone(),
        corpus_len: vfs.metadata_len(&corpus_tmp)?,
        start_seq: first_new as u32,
        seq_count: (last - first_new) as u32,
        quarantined: false,
    });
    // Nothing is superseded: every committed file is carried forward
    // by reference.
    commit_update_with(
        vfs,
        dir,
        &[
            (corpus_tmp, dir.join(&corpus_name)),
            (segment_tmp, dir.join(&segment_name)),
        ],
        &manifest,
        &[],
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
/// Compaction folds the pair's corpora into one file along with their
/// indexes (the base corpus is rewritten only when the base absorbs a
/// tail), never changes query results, and reduces the segment count by
/// one. Interrupting it at any point leaves the previous generation in
/// force (the next recovery sweep removes the torn merge's leftovers).
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

    // The corpora of the pair's two ranges, and only those: the left
    // tail's, or else the base corpus (which also holds any tail without
    // a corpus of its own), then the right tail's, if it has one.
    let own = |i: usize| match i {
        0 => None,
        i => old.segments[i - 1].corpus_file(dir),
    };
    let (left_own, right_own) = (own(pick), own(pick + 1));
    let left = (left_own.clone()).unwrap_or_else(|| resolved.corpus_files[0].clone());
    let corpora: Vec<CorpusFile> = std::iter::once(left).chain(right_own.clone()).collect();
    let (store, alphabet, cat) = load_corpora_with(vfs, &corpora)?;
    // The two fold into one file for the merged range: the merged tail's
    // corpus, or a new base corpus when the left range is the base
    // corpus's. A right tail without a corpus leaves every corpus as it
    // is.
    let folded = match (&left_own, &right_own) {
        (_, None) => None,
        (Some(_), Some(_)) => Some(segment_corpus_file_name(generation, (pick - 1) as u32)),
        (None, Some(_)) => Some(corpus_file_name(generation)),
    };
    let folded = folded.map(|name| {
        let tmp = dir.join(format!("{name}.tmp"));
        (name, tmp)
    });
    if let Some((_, tmp)) = &folded {
        guard.add(tmp.clone());
        save_corpus_with(vfs, &store, &alphabet, tmp)?;
    }

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
    let (mut tail_corpus, mut tail_corpus_len) = (String::new(), 0);

    let mut manifest = old.clone();
    manifest.generation = generation;
    if let Some((name, tmp)) = &folded {
        let len = vfs.metadata_len(tmp)?;
        match left_own {
            Some(_) => (tail_corpus, tail_corpus_len) = (name.clone(), len),
            None => (manifest.corpus, manifest.corpus_len) = (name.clone(), len),
        }
    }
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
            corpus: tail_corpus,
            corpus_len: tail_corpus_len,
            start_seq: left_meta.start_seq,
            seq_count: left_meta.seq_count + right_meta.seq_count,
            quarantined: false,
        };
    }
    let mut staged = vec![(merged_tmp, dir.join(&merged_name))];
    let mut superseded = vec![left_path, right_path];
    if let Some((name, tmp)) = folded {
        staged.push((tmp, dir.join(name)));
        superseded.extend(corpora.into_iter().map(|f| f.path));
    }
    commit_update_with(vfs, dir, &staged, &manifest, &superseded)?;
    guard.defuse();
    timer.end();
    reg.counter("compaction.runs").incr();
    reg.set_gauge("index.segments", (manifest.segments.len() + 1) as f64);
    Ok(Some(manifest))
}

/// Heals a quarantined tail segment by rebuilding its tree from its
/// (intact) corpus — the suffixes of a tail segment are fully derivable
/// from its `start_seq..start_seq+seq_count` sequence range, so the
/// corrupt file is replaced by a freshly built one and the quarantine
/// flag cleared, all as one new manifest generation. Only the corpus
/// holding that range is read: the tail's own, or the base corpus for a
/// tail without one. The tombstone file is removed only after the
/// replacement is committed.
pub fn heal_segment_with(vfs: &dyn Vfs, dir: &Path, segment: &str) -> Result<Manifest> {
    let (resolved, _recovery) = recover_dir_with(vfs, dir)?;
    let old = resolved.manifest;
    let idx = old
        .segments
        .iter()
        .position(|s| s.file == segment && s.quarantined)
        .ok_or_else(|| DiskError::BadManifest(format!("no quarantined segment named {segment}")))?;
    let meta = old.segments[idx].clone();
    let corpus = (meta.corpus_file(dir)).unwrap_or_else(|| resolved.corpus_files[0].clone());
    let (_, _, cat) = load_corpora_with(vfs, &[corpus])?;
    let sparse = index_shape(vfs, &resolved.index_path, old.backend)?.sparse;
    let first = meta.start_seq as usize;
    let last = first + meta.seq_count as usize;
    if last > cat.len() {
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
        quarantined: false,
        ..meta.clone()
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
    /// Corruption in a file quarantine cannot cover (a corpus file or
    /// the base tree) — serving is compromised until a rebuild.
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
/// consequences. A corpus file (the base's or a tail's) or base index
/// that fails is reported unrecoverable (there is nothing to rebuild it
/// from) and the pass ends without mutating the directory; a live tail
/// segment's index that fails is quarantined; and when `heal` is set,
/// every quarantined segment is rebuilt from its corpus.
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
    // The corpus files and the base index come first.
    let (base, tails) = files.split_at(files.len() - resolved.segment_paths.len());
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

    /// The sequences of a directory as one store: its corpus files,
    /// loaded in `MANIFEST` order.
    fn dir_store(dir: &Path) -> (SequenceStore, Alphabet) {
        let resolved = resolve_dir_with(&RealVfs, dir).unwrap();
        let (store, alphabet, _) = load_corpora_with(&RealVfs, &resolved.corpus_files).unwrap();
        (store, alphabet)
    }

    /// Whether two stores hold the same sequences, names included.
    fn same_store(a: &SequenceStore, b: &SequenceStore) -> bool {
        a.len() == b.len()
            && (a.iter().zip(b.iter()))
                .all(|((i, x), (j, y))| x.values() == y.values() && a.name(i) == b.name(j))
    }

    /// Every file of `dir` but `MANIFEST`, by name, with its bytes.
    fn files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        (entries.map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), p)))
            .filter(|(name, _)| name != crate::manifest::MANIFEST_NAME)
            .map(|(name, path)| (name, std::fs::read(path).unwrap()))
            .collect()
    }

    /// An append writes its batch and only its batch: the tail's corpus
    /// is the file [`save_corpus`](crate::corpus::save_corpus) writes for
    /// the batch under the directory's alphabet widened over it, at the
    /// batch's own scale, and every committed file stays byte for byte
    /// as it was. The tail built from the batch's symbols alone is the
    /// one built from the fully encoded store, and the directory loads
    /// as the union of its batches under the widened alphabet, before
    /// and after a full compaction. The appends cover named and unnamed
    /// sequences, values that widen the bounds, a batch on the base's
    /// scale, one on a finer scale, one on none and one on the base's
    /// again, over a scaled and over a version 2 base corpus — for tree
    /// and ESA, full and sparse.
    #[test]
    fn a_tail_corpus_holds_its_batch_alone() {
        use crate::corpus::{corpus_decimals, save_corpus, save_corpus_v2};
        use crate::manifest::commit_update_with;
        use warptree_core::sequence::Sequence;
        let wave = |n: usize, k: usize, decimals: i32| -> Vec<f64> {
            let grid = 10f64.powi(decimals);
            let on_grid = |x: f64| (x * 10.0 * grid).round() / grid + 0.0;
            (0..n)
                .map(|i| on_grid((i as f64 * 0.37 * k as f64).sin()))
                .collect()
        };
        let mut base = SequenceStore::new();
        for k in 0..9 {
            match k % 2 {
                0 => base.push_named(Sequence::new(wave(300, k + 1, 2)), format!("s{k}")),
                _ => base.push(Sequence::new(wave(300, k + 1, 2))),
            };
        }
        let alphabet = Alphabet::max_entropy(&base, 6).unwrap();
        let mut named = SequenceStore::new();
        named.push_named(Sequence::new(wave(30, 13, 2)), "a");
        named.push(Sequence::new(wave(20, 14, 2)));
        let mut below = SequenceStore::new();
        below.push_named(Sequence::new(vec![-20.0, 3.0, 3.0, -20.0]), "c");
        let finer = SequenceStore::from_values(vec![wave(40, 17, 3)]);
        let mut off_grid = SequenceStore::new();
        off_grid.push_named(Sequence::new(vec![1.0 / 3.0, 2.0, -0.0]), "d");
        let after_raw = SequenceStore::from_values(vec![wave(60, 18, 2)]);
        // Each batch and the scale its corpus is stored at.
        let batches = [
            (named, Some(2)),
            (below, Some(0)),
            (finer, Some(3)),
            (off_grid, None),
            (after_raw, Some(2)),
        ];

        for (backend, sparse, v2) in [
            (BackendKind::Tree, false, false),
            (BackendKind::Tree, true, false),
            (BackendKind::Esa, false, false),
            (BackendKind::Esa, true, false),
            (BackendKind::Tree, true, true),
        ] {
            let context = format!("{backend:?} sparse={sparse} v2={v2}");
            let dir = tmpdir(&format!("tail-corpus-{backend:?}-{sparse}-{v2}"));
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

            let (mut model, mut widened) = (base.clone(), alphabet.clone());
            for (k, (batch, decimals)) in batches.iter().enumerate() {
                let before = files(&dir);
                let m = append_segment(&dir, batch).unwrap();
                let first_new = model.len();
                for (id, s) in batch.iter() {
                    match batch.name(id) {
                        Some(name) => model.push_named(s.clone(), name),
                        None => model.push(s.clone()),
                    };
                }
                widened.widen(batch);

                let after = files(&dir);
                for (name, bytes) in &before {
                    assert!(after.get(name) == Some(bytes), "{context}: {name} moved");
                }
                let tail = m.segments.last().unwrap();
                let want = dir.join("want.tmp");
                save_corpus(batch, &widened, &want).unwrap();
                let got = &after[&tail.corpus];
                assert!(
                    *got == std::fs::read(&want).unwrap(),
                    "{context}: corpus {k}"
                );
                assert_eq!(tail.corpus_len, got.len() as u64, "{context}: corpus {k}");
                let decimals_now = corpus_decimals(&dir.join(&tail.corpus)).unwrap();
                assert_eq!(decimals_now, *decimals, "{context}: corpus {k}");
                let cat = Arc::new(widened.encode_store(&model));
                let range = first_new..model.len();
                write_range_index(&RealVfs, backend, cat, range, sparse, &want).unwrap();
                let got = &after[&tail.file];
                assert!(*got == std::fs::read(&want).unwrap(), "{context}: tail {k}");
                std::fs::remove_file(&want).unwrap();

                let (store, loaded) = dir_store(&dir);
                assert!(same_store(&store, &model), "{context}: store {k}");
                assert_eq!(loaded, widened, "{context}: alphabet {k}");
            }
            assert!(
                verify_dir_with(&RealVfs, &dir).unwrap().is_ok(),
                "{context}"
            );
            let reg = warptree_obs::MetricsRegistry::noop();
            compact_all_with(&RealVfs, &dir, &reg).unwrap();
            let (store, loaded) = dir_store(&dir);
            assert!(same_store(&store, &model), "{context}: compacted");
            assert_eq!(loaded, widened, "{context}: compacted");
            let corpora = files(&dir).into_keys().filter(|n| n.ends_with(".wc"));
            assert_eq!(corpora.count(), 1, "{context}: one corpus file left");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The matches of `queries` over the opened directory.
    fn answers(dir: &Path, queries: &[&[f64]]) -> Vec<Vec<warptree_core::search::Match>> {
        let snap = open_dir_snapshot_with(&RealVfs, dir).unwrap();
        let params = SearchParams::with_epsilon(1.0);
        let ask = |q: &&[f64]| QueryRequest::threshold_params(q, params.clone());
        let run = |q| snap.query(&ask(q)).unwrap().0.matches().to_vec();
        queries.iter().map(run).collect()
    }

    /// A directory a version 4 `MANIFEST` committed — its tails without
    /// corpora, the base corpus holding every sequence — written here
    /// from that layout's bytes, opens with the answers of the same
    /// directory in today's layout, appends (committing version 5, the
    /// new tail with a corpus of its own), verifies, and compacts step by
    /// step to one tree and one corpus, answering alike at every step.
    #[test]
    fn a_version_4_directory_opens_appends_and_compacts() {
        use crate::corpus::save_corpus;
        use crate::manifest::{encode_v4, MANIFEST_NAME};
        let base = SequenceStore::from_values(vec![
            vec![1.0, 5.0, 3.0, 5.0, 1.0],
            vec![4.0, 4.0, 2.0, 6.0],
            vec![2.0, 3.0, 2.0, 1.0, 0.5],
        ]);
        let batches = [
            SequenceStore::from_values(vec![vec![0.0, 9.0, 5.0], vec![3.0, 3.0, 4.0]]),
            SequenceStore::from_values(vec![vec![5.0, 1.0, 2.0, 2.0]]),
            SequenceStore::from_values(vec![vec![6.5, 5.0, 1.0], vec![2.25, 3.0]]),
        ];
        let queries: [&[f64]; 4] = [&[5.0, 1.0], &[3.0, 3.0], &[0.0, 9.0], &[2.0, 2.0, 1.0]];
        for backend in [BackendKind::Tree, BackendKind::Esa] {
            let context = format!("{backend:?}");
            let (new, old) = (tmpdir("v4-today"), tmpdir("v4-old"));
            let alphabet = Alphabet::max_entropy(&base, 4).unwrap();
            let kind = crate::merge::TreeKind::Sparse;
            for dir in [&new, &old] {
                let vfs = crate::vfs::real_vfs();
                crate::manifest::build_dir_backend_with(
                    vfs, &base, &alphabet, kind, 1, 1, None, backend, dir,
                )
                .unwrap();
            }
            for batch in &batches[..2] {
                append_segment(&new, batch).unwrap();
            }

            // The same two tails as the previous layout wrote them: one
            // corpus of every sequence, and tails that name none.
            let mut union = base.clone();
            let mut widened = alphabet.clone();
            let mut manifest = resolve_dir_with(&RealVfs, &old).unwrap().manifest;
            for batch in &batches[..2] {
                let first = union.len();
                for (_, s) in batch.iter() {
                    union.push(s.clone());
                }
                widened.widen(batch);
                manifest.generation += 1;
                let file = segment_file_name(manifest.generation, manifest.segments.len() as u32);
                let cat = Arc::new(widened.encode_store(&union));
                write_range_index(
                    &RealVfs,
                    backend,
                    cat,
                    first..union.len(),
                    true,
                    &old.join(&file),
                )
                .unwrap();
                manifest.segments.push(SegmentMeta {
                    file_len: std::fs::metadata(old.join(&file)).unwrap().len(),
                    file,
                    corpus: String::new(),
                    corpus_len: 0,
                    start_seq: first as u32,
                    seq_count: batch.len() as u32,
                    quarantined: false,
                });
            }
            manifest.corpus = corpus_file_name(manifest.generation);
            save_corpus(&union, &widened, &old.join(&manifest.corpus)).unwrap();
            manifest.corpus_len = std::fs::metadata(old.join(&manifest.corpus)).unwrap().len();
            std::fs::write(old.join(MANIFEST_NAME), encode_v4(&manifest)).unwrap();

            assert_eq!(
                answers(&old, &queries),
                answers(&new, &queries),
                "{context}"
            );
            for dir in [&new, &old] {
                append_segment(dir, &batches[2]).unwrap();
            }
            let raw = std::fs::read(old.join(MANIFEST_NAME)).unwrap();
            assert_eq!(&raw[8..12], &5u32.to_le_bytes(), "{context}");
            let m = resolve_dir_with(&RealVfs, &old).unwrap().manifest;
            let own: Vec<bool> = m.segments.iter().map(|s| !s.corpus.is_empty()).collect();
            assert_eq!(own, [false, false, true], "{context}");
            let want = answers(&new, &queries);
            assert!(want.iter().all(|a| !a.is_empty()), "{context}: {want:?}");
            assert_eq!(answers(&old, &queries), want, "{context}: appended");
            assert!(
                verify_dir_with(&RealVfs, &old).unwrap().is_ok(),
                "{context}"
            );
            while compact_once(&old).unwrap().is_some() {
                assert_eq!(answers(&old, &queries), want, "{context}: compacting");
                assert!(
                    verify_dir_with(&RealVfs, &old).unwrap().is_ok(),
                    "{context}"
                );
            }
            let (store, _) = dir_store(&old);
            assert!(same_store(&store, &dir_store(&new).0), "{context}");
            let corpora = files(&old).into_keys().filter(|n| n.ends_with(".wc"));
            assert_eq!(corpora.count(), 1, "{context}: one corpus file left");
            std::fs::remove_dir_all(&new).unwrap();
            std::fs::remove_dir_all(&old).unwrap();
        }
    }

    /// Random schedules of append, compaction step, full compaction,
    /// quarantine and heal, over the tree and the ESA, full and sparse:
    /// after every step the directory's store, its alphabet's bounds and
    /// its answers to a fixed query set are those of a one-shot build
    /// over the union under the base's boundaries widened over every
    /// batch. The second append's batch is on a finer grid than the base
    /// (three decimals against two), and no append moves a byte of the
    /// base corpus file.
    #[test]
    fn random_schedules_load_and_answer_like_a_one_shot_build() {
        use crate::manifest::{build_dir_backend_with, quarantine_segment_with};
        use rand::{Rng, SeedableRng};
        let queries: [&[f64]; 4] = [&[5.0, 6.0, 5.5], &[10.0, 10.5], &[1.0, 2.0], &[15.25]];
        for (backend, sparse) in [
            (BackendKind::Tree, false),
            (BackendKind::Tree, true),
            (BackendKind::Esa, false),
            (BackendKind::Esa, true),
        ] {
            for seed in 0..3u64 {
                let context = format!("{backend:?} sparse={sparse} seed {seed}");
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let batch = |rng: &mut rand::rngs::StdRng, decimals: i32| {
                    let scale = 10f64.powi(decimals);
                    let top = (20.0 * scale) as i64;
                    let seq = |rng: &mut rand::rngs::StdRng| {
                        let len = rng.gen_range(5..15usize);
                        (0..len)
                            .map(|_| rng.gen_range(0..top) as f64 / scale)
                            .collect()
                    };
                    let count = rng.gen_range(1..4usize);
                    SequenceStore::from_values((0..count).map(|_| seq(rng)).collect::<Vec<_>>())
                };
                let mut model = batch(&mut rng, 2);
                let mut widened = Alphabet::max_entropy(&model, 6).unwrap();
                let kind = match sparse {
                    true => crate::merge::TreeKind::Sparse,
                    false => crate::merge::TreeKind::Full,
                };
                let (dir, oneshot) = (tmpdir("schedule"), tmpdir("schedule-oneshot"));
                let vfs = crate::vfs::real_vfs();
                build_dir_backend_with(vfs, &model, &widened, kind, 1, 1, None, backend, &dir)
                    .unwrap();
                for step in 0..10 {
                    let m = resolve_dir_with(&RealVfs, &dir).unwrap().manifest;
                    let live: Vec<&SegmentMeta> = m.live_segments().collect();
                    let quarantined: Vec<&SegmentMeta> = m.quarantined_segments().collect();
                    let op = match step {
                        0 | 1 => 0,
                        _ => rng.gen_range(0..5),
                    };
                    let did = match op {
                        0 => {
                            let decimals = if step == 1 { 3 } else { 2 };
                            let b = batch(&mut rng, decimals);
                            let base = std::fs::read(dir.join(&m.corpus)).unwrap();
                            let tail = append_segment(&dir, &b).unwrap().segments.pop().unwrap();
                            assert!(std::fs::read(dir.join(&m.corpus)).unwrap() == base);
                            let stored = crate::corpus::corpus_decimals(&dir.join(&tail.corpus));
                            assert_eq!(stored.unwrap(), Some(decimals as u32), "{context}");
                            for (_, s) in b.iter() {
                                model.push(s.clone());
                            }
                            widened.widen(&b);
                            "append"
                        }
                        1 => {
                            compact_once(&dir).unwrap();
                            "compact"
                        }
                        2 => {
                            let reg = warptree_obs::MetricsRegistry::noop();
                            compact_all_with(&RealVfs, &dir, &reg).unwrap();
                            "compact all"
                        }
                        3 if !live.is_empty() => {
                            let s = live[rng.gen_range(0..live.len())];
                            quarantine_segment_with(&RealVfs, &dir, &s.file).unwrap();
                            "quarantine"
                        }
                        4 if !quarantined.is_empty() => {
                            let s = quarantined[rng.gen_range(0..quarantined.len())];
                            heal_segment_with(&RealVfs, &dir, &s.file).unwrap();
                            "heal"
                        }
                        _ => "nothing",
                    };
                    let context = format!("{context} step {step} ({did})");
                    let (store, alphabet) = dir_store(&dir);
                    assert!(same_store(&store, &model), "{context}");
                    assert_eq!(alphabet, widened, "{context}");
                    let vfs = crate::vfs::real_vfs();
                    build_dir_backend_with(
                        vfs, &model, &widened, kind, 1, 1, None, backend, &oneshot,
                    )
                    .unwrap();
                    let want = answers(&oneshot, &queries);
                    assert!(want.iter().any(|a| !a.is_empty()), "{context}");
                    assert_eq!(answers(&dir, &queries), want, "{context}");
                }
                std::fs::remove_dir_all(&dir).unwrap();
                std::fs::remove_dir_all(&oneshot).unwrap();
            }
        }
    }

    /// An append writes its batch's corpus bytes whatever the directory
    /// already holds: the same batch appended to a directory of one
    /// sequence and to one of 500 writes the same bytes, less its tail
    /// index (and the index's one header-patch page) and `MANIFEST` —
    /// exactly the tail corpus file.
    #[test]
    fn an_append_writes_the_same_corpus_bytes_whatever_the_directory_holds() {
        use crate::manifest::{build_dir_with, MANIFEST_NAME};
        use crate::pager::PAGE_SIZE;
        let walk = |seed: usize, len: usize| -> Vec<f64> {
            let step = |i: usize| ((seed * 31 + i * 17) % 23) as f64 / 4.0;
            (0..len).map(step).collect()
        };
        let batch = SequenceStore::from_values((0..4).map(|i| walk(1000 + i, 40)));
        let mut written = Vec::new();
        for size in [1, 500] {
            let dir = tmpdir(&format!("same-bytes-{size}"));
            let store = SequenceStore::from_values((0..size).map(|i| walk(i, 60)));
            let alphabet = Alphabet::max_entropy(&store, 8).unwrap();
            let kind = crate::merge::TreeKind::Sparse;
            build_dir_with(
                crate::vfs::real_vfs(),
                &store,
                &alphabet,
                kind,
                64,
                1,
                None,
                &dir,
            )
            .unwrap();
            let reg = warptree_obs::MetricsRegistry::new();
            let vfs = crate::vfs::MeteredVfs::new(crate::vfs::real_vfs(), &reg);
            let m = append_segment_with(vfs.as_ref(), &dir, &batch).unwrap();
            let tail = m.segments.last().unwrap();
            let manifest = std::fs::metadata(dir.join(MANIFEST_NAME)).unwrap().len();
            let all = reg.counter("disk.vfs.write_bytes").get();
            let corpus = all - (tail.file_len + PAGE_SIZE as u64) - manifest;
            assert_eq!(corpus, tail.corpus_len, "{size} sequences");
            written.push(corpus);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(written[0], written[1]);
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
