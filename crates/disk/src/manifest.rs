//! Atomic index-directory commits, recovery on open, and verification.
//!
//! An index directory is a base corpus and a base index, plus one corpus
//! and one index per tail segment, all paged files, and a small
//! `MANIFEST` naming the committed *generation* of each. Every mutation
//! of the directory (build, rebuild, append, compaction, heal) follows
//! one protocol:
//!
//! 1. the next generation's files are written to `*.tmp` names and
//!    fsynced;
//! 2. each is renamed to its final generational name
//!    (`corpus-NNNNNN.wc`, `index-NNNNNN.wt`, a tail's
//!    `segment-NNNNNN-OOO.wt` and `segment-NNNNNN-OOO.wc`) and the
//!    directory is fsynced;
//! 3. a new manifest is written to `MANIFEST.tmp`, fsynced, and renamed
//!    over `MANIFEST` — **this rename is the commit point**;
//! 4. the directory is fsynced again and the previous generation's files
//!    are removed (best-effort — recovery sweeps leftovers).
//!
//! A crash anywhere before step 3 leaves the old manifest (and hence the
//! old, complete state) in force; a crash anywhere after it leaves the
//! new state in force. [`recover_dir_with`] makes either outcome clean:
//! it resolves the committed generation, then removes stale `*.tmp`
//! files and generation files the manifest does not reference.
//!
//! The `MANIFEST` is what makes a directory an index directory: one
//! without it is [`DiskError::NotAnIndexDir`], whatever else it holds.
//!
//! One compatibility rule covers older directories: a version 4
//! `MANIFEST`, whose tails had no corpus of their own, decodes as
//! version 5 with every tail's corpus empty, meaning the base corpus
//! holds its sequences. Such a directory opens, appends (committing
//! version 5) and compacts; an empty tail corpus only ever precedes the
//! tails that have one.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use warptree_core::categorize::Alphabet;
use warptree_core::search::BackendKind;
use warptree_core::sequence::SequenceStore;
use warptree_obs::MetricsRegistry;

use crate::any::{index_shape, AnyIndex};
use crate::corpus::{CorpusFile, CorpusLoader};
use crate::crc::crc32;
use crate::cursor::Cursor;
use crate::error::{DiskError, Result};
use crate::pager::read_pages;
use crate::vfs::{TempGuard, Vfs};

/// File name of the commit manifest.
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: &[u8; 8] = b"WARPMANF";
/// The manifest layout: magic, this version word, generation, the
/// base corpus and base-index file names and sizes, the tail-segment
/// list (each entry its index's name and size, its corpus's name and
/// size, its sequence range and a flags word), the index backend id,
/// and a CRC-32 over everything before it.
const MANIFEST_VERSION: u32 = 5;
/// The previous layout, which [`Manifest::decode`] still reads: the same
/// but for the tail entries' corpus name and size.
const MANIFEST_VERSION_4: u32 = 4;

/// Backend ids as recorded in the manifest.
const BACKEND_ID_TREE: u32 = 0;
const BACKEND_ID_ESA: u32 = 1;

/// Segment flag bit: the segment is quarantined (tombstoned).
const SEG_FLAG_QUARANTINED: u32 = 1;

/// Longest file name and largest segment count the decoder accepts.
const MAX_NAME_LEN: usize = 4096;
const MAX_SEGMENTS: usize = 4096;

/// A committed tail segment: an index over the suffixes of a contiguous
/// run of appended sequences, and the corpus file holding them (the base
/// `index` and `corpus` cover every sequence before the first tail
/// segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment's tree inside the directory.
    pub file: String,
    /// Physical size of the segment file at commit time.
    pub file_len: u64,
    /// File name of the corpus holding the segment's sequences; empty
    /// when the base corpus holds them (a tail a version 4 `MANIFEST`
    /// committed).
    pub corpus: String,
    /// Physical size of that corpus file at commit time (0 when
    /// `corpus` is empty).
    pub corpus_len: u64,
    /// Corpus-global id of the first sequence this segment indexes.
    pub start_seq: u32,
    /// Number of consecutive sequences it indexes.
    pub seq_count: u32,
    /// Whether the segment is quarantined: detected corrupt, kept on
    /// disk as a tombstone (never silently deleted), excluded from
    /// queries until a scrub heals it by rebuilding from the corpus.
    pub quarantined: bool,
}

impl SegmentMeta {
    /// The segment's own corpus file in `dir`, when it has one.
    pub fn corpus_file(&self, dir: &Path) -> Option<CorpusFile> {
        (!self.corpus.is_empty()).then(|| CorpusFile {
            path: dir.join(&self.corpus),
            file_len: self.corpus_len,
            first: self.start_seq as usize,
            count: Some(self.seq_count as usize),
        })
    }
}

/// The committed state of an index directory: which generation of the
/// corpus and tree files is current, their physical sizes, and any tail
/// segments awaiting compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Commit generation (monotonically increasing from 1).
    pub generation: u64,
    /// File name of the committed corpus.
    pub corpus: String,
    /// File name of the committed (base) tree.
    pub index: String,
    /// Physical size of the corpus file at commit time.
    pub corpus_len: u64,
    /// Physical size of the tree file at commit time.
    pub index_len: u64,
    /// Tail segments, in ascending `start_seq` order (empty for a
    /// fully compacted — i.e. ordinary single-tree — directory).
    pub segments: Vec<SegmentMeta>,
    /// The index backend every data file of this generation was
    /// committed under.
    pub backend: BackendKind,
}

/// Generational corpus file name.
pub fn corpus_file_name(generation: u64) -> String {
    format!("corpus-{generation:06}.wc")
}

/// Generational tree file name.
pub fn index_file_name(generation: u64) -> String {
    format!("index-{generation:06}.wt")
}

/// Tail-segment tree file name: the generation that committed it plus
/// an ordinal distinguishing segments born in the same commit.
pub fn segment_file_name(generation: u64, ordinal: u32) -> String {
    format!("segment-{generation:06}-{ordinal:03}.wt")
}

/// Tail-segment corpus file name, beside [`segment_file_name`].
pub fn segment_corpus_file_name(generation: u64, ordinal: u32) -> String {
    format!("segment-{generation:06}-{ordinal:03}.wc")
}

/// Whether the recovery sweep removes `name` when the manifest does not
/// reference it: a `*.tmp` file, or a file of the commit protocol's
/// data-file patterns (generational corpus or tree, or a tail
/// segment's tree or corpus).
fn is_sweepable(name: &str) -> bool {
    name.ends_with(".tmp")
        || (name.starts_with("corpus-") && name.ends_with(".wc"))
        || (name.starts_with("index-") && name.ends_with(".wt"))
        || (name.starts_with("segment-") && (name.ends_with(".wt") || name.ends_with(".wc")))
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        for name in [&self.corpus, &self.index] {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(&self.corpus_len.to_le_bytes());
        out.extend_from_slice(&self.index_len.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            for (name, len) in [(&seg.file, seg.file_len), (&seg.corpus, seg.corpus_len)] {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            out.extend_from_slice(&seg.start_seq.to_le_bytes());
            out.extend_from_slice(&seg.seq_count.to_le_bytes());
            let flags = if seg.quarantined {
                SEG_FLAG_QUARANTINED
            } else {
                0
            };
            out.extend_from_slice(&flags.to_le_bytes());
        }
        let id = match self.backend {
            BackendKind::Tree => BACKEND_ID_TREE,
            BackendKind::Esa => BACKEND_ID_ESA,
        };
        out.extend_from_slice(&id.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a manifest, trusting nothing behind the CRC: every length
    /// is bounded before it is used, file names must be plain names
    /// inside the directory, the segment list must be ascending and
    /// disjoint with `start_seq + seq_count` inside `u32`, a tail
    /// without a corpus (size 0) may not follow one with, no unknown
    /// flag bit may be set, and nothing may follow the backend id — so
    /// every accepted version 5 byte string is exactly what `encode`
    /// would emit. A version 4 one decodes with every tail's corpus
    /// empty.
    fn decode(raw: &[u8]) -> Result<Self> {
        if raw.len() < 4 {
            return Err(bad("truncated"));
        }
        let (body, tail) = raw.split_at(raw.len() - 4);
        if crc32(body) != u32::from_le_bytes(tail.try_into().expect("split four bytes off")) {
            return Err(bad("checksum mismatch"));
        }
        let mut cur = Cursor::new(body, DiskError::BadManifest);
        if cur.take(8)? != MANIFEST_MAGIC {
            return Err(bad("not a manifest file"));
        }
        let version = cur.u32()?;
        if version != MANIFEST_VERSION && version != MANIFEST_VERSION_4 {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let generation = cur.u64()?;
        let corpus = plain_name(&mut cur)?;
        let index = plain_name(&mut cur)?;
        let corpus_len = cur.u64()?;
        let index_len = cur.u64()?;
        let count = cur.u32()? as usize;
        if count > MAX_SEGMENTS {
            return Err(bad("implausible segment count"));
        }
        let mut segments = Vec::new();
        let mut covered = 0u32; // end of the previous segment's range
        let mut own_corpus = false; // whether an earlier tail had one
        for _ in 0..count {
            let file = plain_name(&mut cur)?;
            let file_len = cur.u64()?;
            let (corpus, corpus_len) = match version {
                MANIFEST_VERSION_4 => (String::new(), 0),
                _ => (optional_name(&mut cur)?, cur.u64()?),
            };
            if corpus.is_empty() && corpus_len != 0 {
                return Err(bad("size of an absent segment corpus"));
            }
            if corpus.is_empty() && own_corpus {
                return Err(bad("a segment without a corpus follows one with"));
            }
            own_corpus |= !corpus.is_empty();
            let start_seq = cur.u32()?;
            let seq_count = cur.u32()?;
            let flags = cur.u32()?;
            if flags & !SEG_FLAG_QUARANTINED != 0 {
                return Err(bad("unknown segment flags"));
            }
            if start_seq < covered {
                return Err(bad("segments out of order or overlapping"));
            }
            covered = start_seq
                .checked_add(seq_count)
                .ok_or_else(|| bad("segment range overflows"))?;
            segments.push(SegmentMeta {
                file,
                file_len,
                corpus,
                corpus_len,
                start_seq,
                seq_count,
                quarantined: flags & SEG_FLAG_QUARANTINED != 0,
            });
        }
        let backend_id = cur.u32()?;
        if !cur.is_done() {
            return Err(bad("trailing bytes"));
        }
        let backend = match backend_id {
            BACKEND_ID_TREE => BackendKind::Tree,
            BACKEND_ID_ESA => BackendKind::Esa,
            other => {
                // A backend this build does not know: a typed error
                // rather than `BadManifest`, so callers can tell "a
                // newer format I must not touch" from corruption.
                return Err(DiskError::UnsupportedBackend {
                    found: format!("manifest backend id {other}"),
                });
            }
        };
        Ok(Self {
            generation,
            corpus,
            index,
            corpus_len,
            index_len,
            segments,
            backend,
        })
    }

    /// Tail segments currently serving queries (not quarantined).
    pub fn live_segments(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().filter(|s| !s.quarantined)
    }

    /// Quarantined (tombstoned) tail segments.
    pub fn quarantined_segments(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().filter(|s| s.quarantined)
    }
}

fn bad(message: &str) -> DiskError {
    DiskError::BadManifest(message.into())
}

/// A length-prefixed file name: bounded, UTF-8, and a plain name — the
/// directory joins it to its own path, so a separator or `..` would let
/// a manifest point (and the sweep delete) outside it.
fn plain_name(cur: &mut Cursor) -> Result<String> {
    match optional_name(cur)? {
        name if name.is_empty() => Err(bad("file name is not a plain name")),
        name => Ok(name),
    }
}

/// A [`plain_name`], or the empty name.
fn optional_name(cur: &mut Cursor) -> Result<String> {
    let name = cur.text(MAX_NAME_LEN, "file name")?;
    if name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(bad("file name is not a plain name"));
    }
    Ok(name.to_string())
}

/// Reads the directory's manifest. A directory without one is not an
/// index directory.
pub fn read_manifest_with(vfs: &dyn Vfs, dir: &Path) -> Result<Manifest> {
    let path = dir.join(MANIFEST_NAME);
    if !vfs.exists(&path) {
        return Err(DiskError::NotAnIndexDir(format!(
            "{}: no MANIFEST",
            dir.display()
        )));
    }
    let file = vfs.open(&path)?;
    let len = file.len()?;
    if len > 64 * 1024 {
        return Err(bad("implausibly large"));
    }
    let mut raw = vec![0u8; len as usize];
    file.read_at(0, &mut raw)?;
    Manifest::decode(&raw)
}

/// The committed files of a resolved index directory.
#[derive(Debug, Clone)]
pub struct ResolvedDir {
    /// Committed generation.
    pub generation: u64,
    /// Absolute path of the committed base corpus file.
    pub corpus_path: PathBuf,
    /// Every committed corpus file — the base's, then each tail's that
    /// has one, in manifest order: the directory's store, concatenated.
    pub corpus_files: Vec<CorpusFile>,
    /// Absolute path of the committed (base) tree file.
    pub index_path: PathBuf,
    /// Absolute paths of the committed tail segments, in manifest order.
    pub segment_paths: Vec<PathBuf>,
    /// The committed manifest.
    pub manifest: Manifest,
}

impl ResolvedDir {
    /// Every committed data file: the corpora, base tree, tail segments.
    fn keep_list(&self) -> Vec<&Path> {
        let mut keep: Vec<&Path> = self.corpus_files.iter().map(|f| f.path.as_path()).collect();
        keep.push(self.index_path.as_path());
        keep.extend(self.segment_paths.iter().map(|p| p.as_path()));
        keep
    }
}

/// Resolves the committed state of `dir` without touching anything:
/// reads the manifest and checks that every file it names exists.
pub fn resolve_dir_with(vfs: &dyn Vfs, dir: &Path) -> Result<ResolvedDir> {
    let manifest = read_manifest_with(vfs, dir)?;
    let path_of = |name: &String| {
        let path = dir.join(name);
        match vfs.exists(&path) {
            true => Ok(path),
            false => Err(bad(&format!("references missing file {name}"))),
        }
    };
    let corpus_path = path_of(&manifest.corpus)?;
    for seg in manifest.segments.iter().filter(|s| !s.corpus.is_empty()) {
        path_of(&seg.corpus)?;
    }
    let tails: Vec<CorpusFile> = (manifest.segments.iter())
        .filter_map(|s| s.corpus_file(dir))
        .collect();
    // The base corpus holds every sequence before the first tail with a
    // corpus of its own.
    let base = CorpusFile {
        path: corpus_path.clone(),
        file_len: manifest.corpus_len,
        first: 0,
        count: tails.first().map(|f| f.first),
    };
    let corpus_files = std::iter::once(base).chain(tails).collect();
    Ok(ResolvedDir {
        generation: manifest.generation,
        corpus_path,
        corpus_files,
        index_path: path_of(&manifest.index)?,
        segment_paths: manifest
            .segments
            .iter()
            .map(|s| path_of(&s.file))
            .collect::<Result<_>>()?,
        manifest,
    })
}

/// What a recovery sweep cleaned out of a directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Stale `*.tmp` files removed.
    pub removed_tmp: Vec<PathBuf>,
    /// Data files of uncommitted or superseded generations removed.
    pub removed_orphans: Vec<PathBuf>,
}

impl RecoveryReport {
    /// Whether the sweep found nothing to clean.
    pub fn is_clean(&self) -> bool {
        self.removed_tmp.is_empty() && self.removed_orphans.is_empty()
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "directory clean, nothing recovered");
        }
        let mut first = true;
        for p in &self.removed_tmp {
            if !first {
                writeln!(f)?;
            }
            write!(f, "removed stale temporary {}", p.display())?;
            first = false;
        }
        for p in &self.removed_orphans {
            if !first {
                writeln!(f)?;
            }
            write!(f, "removed uncommitted file {}", p.display())?;
            first = false;
        }
        Ok(())
    }
}

/// The files of `dir` the recovery sweep removes: every sweepable one
/// not listed in `keep`.
fn stale_files(vfs: &dyn Vfs, dir: &Path, keep: &[&Path]) -> Result<Vec<PathBuf>> {
    let mut paths = vfs.read_dir(dir)?;
    paths.retain(|path| !keep.contains(&path.as_path()) && is_sweepable(&file_name(path)));
    Ok(paths)
}

/// Removes the [`stale_files`] of `dir`. Fsyncs the directory when
/// anything was removed.
fn sweep_dir_with(vfs: &dyn Vfs, dir: &Path, keep: &[&Path]) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    for path in stale_files(vfs, dir, keep)? {
        vfs.remove_file(&path)?;
        match file_name(&path).ends_with(".tmp") {
            true => report.removed_tmp.push(path),
            false => report.removed_orphans.push(path),
        }
    }
    if !report.is_clean() {
        vfs.sync_dir(dir)?;
    }
    Ok(report)
}

/// Resolves the committed state of `dir` and cleans up everything a
/// crashed or failed mutation may have left behind: stale `*.tmp` files
/// and data files outside the committed generation.
pub fn recover_dir_with(vfs: &dyn Vfs, dir: &Path) -> Result<(ResolvedDir, RecoveryReport)> {
    let resolved = resolve_dir_with(vfs, dir)?;
    let report = sweep_dir_with(vfs, dir, &resolved.keep_list())?;
    Ok((resolved, report))
}

/// Commits a manifest update atomically: installs each `staged`
/// `(tmp, final)` file pair under its final name, flips the manifest by
/// the rename protocol, then best-effort removes the `remove_after`
/// files the update superseded. The staged temporaries must already be
/// written and fsynced.
///
/// This is the generic form of the commit protocol used by the
/// segment subsystem (append and compaction), where arbitrary subsets
/// of the previous generation's files are carried forward unchanged —
/// unlike [`commit_dir_backend_with`], which always supersedes the whole
/// generation.
pub fn commit_update_with(
    vfs: &dyn Vfs,
    dir: &Path,
    staged: &[(PathBuf, PathBuf)],
    manifest: &Manifest,
    remove_after: &[PathBuf],
) -> Result<()> {
    let mut guard = TempGuard::new(vfs, Vec::new());
    for (tmp, final_path) in staged {
        guard.add(final_path.clone());
        vfs.rename(tmp, final_path)?;
    }
    if !staged.is_empty() {
        vfs.sync_dir(dir)?;
    }
    let manifest_tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    guard.add(manifest_tmp.clone());
    let mut file = vfs.create(&manifest_tmp)?;
    file.write_at(0, &manifest.encode())?;
    file.sync()?;
    drop(file);
    vfs.rename(&manifest_tmp, &dir.join(MANIFEST_NAME))?;
    // Committed: from here on the new state must survive any error.
    guard.defuse();
    vfs.sync_dir(dir)?;
    for old in remove_after {
        if vfs.exists(old) {
            let _ = vfs.remove_file(old);
        }
    }
    let _ = vfs.sync_dir(dir);
    Ok(())
}

/// Quarantines a tail segment: flips its manifest flag as a new
/// generation under the ordinary commit protocol. The segment file is
/// an atomic tombstone — it stays on disk, referenced by the manifest
/// (so recovery sweeps keep it and [`resolve_dir_with`] still demands
/// its presence) but excluded from queries until a scrub heals it.
///
/// Idempotent: quarantining an already-quarantined segment returns the
/// current manifest without committing a new generation. Unknown
/// segment names are a [`DiskError::BadManifest`].
pub fn quarantine_segment_with(vfs: &dyn Vfs, dir: &Path, segment: &str) -> Result<Manifest> {
    let mut m = read_manifest_with(vfs, dir)?;
    let seg = m
        .segments
        .iter_mut()
        .find(|s| s.file == segment)
        .ok_or_else(|| DiskError::BadManifest(format!("no segment named {segment}")))?;
    if seg.quarantined {
        return Ok(m);
    }
    seg.quarantined = true;
    m.generation += 1;
    commit_update_with(vfs, dir, &[], &m, &[])?;
    Ok(m)
}

/// Commits the next generation of `dir` atomically, recording `backend`
/// in the manifest. `write_corpus` and `write_index` each receive the
/// temporary path they must produce their file at (fsynced —
/// [`crate::PagedWriter::finish`] already does this; `write_index` must
/// produce a file of `backend`'s format); everything else — generational
/// naming, renames, directory fsyncs, the manifest, cleanup of the
/// superseded generation — is handled here.
///
/// On error, no trace of the attempted generation survives (temporaries
/// and half-installed files are removed); after a crash, the recovery
/// sweep at next open removes them instead. The old generation stays
/// committed until the manifest rename, which is the atomic flip.
pub fn commit_dir_backend_with<C, I>(
    vfs: &dyn Vfs,
    dir: &Path,
    backend: BackendKind,
    write_corpus: C,
    write_index: I,
) -> Result<Manifest>
where
    C: FnOnce(&Path) -> Result<()>,
    I: FnOnce(&Path) -> Result<()>,
{
    vfs.create_dir_all(dir)?;
    // The whole previous generation is superseded — including any tail
    // segments its manifest carried (a monolithic rebuild re-indexes
    // everything). A fresh directory starts at generation 1.
    let (generation, remove_after) = match read_manifest_with(vfs, dir) {
        Ok(old) => {
            let names = [&old.corpus, &old.index].into_iter();
            let tails = old.segments.iter().flat_map(|s| [&s.file, &s.corpus]);
            let names = names.chain(tails.filter(|n| !n.is_empty()));
            (old.generation + 1, names.map(|n| dir.join(n)).collect())
        }
        Err(DiskError::NotAnIndexDir(_)) => (1, Vec::new()),
        Err(e) => return Err(e),
    };
    let corpus_name = corpus_file_name(generation);
    let index_name = index_file_name(generation);
    let corpus_final = dir.join(&corpus_name);
    let index_final = dir.join(&index_name);
    let corpus_tmp = dir.join(format!("{corpus_name}.tmp"));
    let index_tmp = dir.join(format!("{index_name}.tmp"));

    let mut guard = TempGuard::new(vfs, vec![corpus_tmp.clone(), index_tmp.clone()]);
    write_corpus(&corpus_tmp)?;
    write_index(&index_tmp)?;

    let manifest = Manifest {
        generation,
        corpus: corpus_name,
        index: index_name,
        corpus_len: vfs.metadata_len(&corpus_tmp)?,
        index_len: vfs.metadata_len(&index_tmp)?,
        segments: Vec::new(),
        backend,
    };
    // Until the manifest flips inside commit_update_with, readers still
    // resolve the old generation, so the renames are invisible; on
    // failure the temporaries (or half-installed finals) are removed.
    commit_update_with(
        vfs,
        dir,
        &[(corpus_tmp, corpus_final), (index_tmp, index_final)],
        &manifest,
        &remove_after,
    )?;
    guard.defuse();
    Ok(manifest)
}

/// Builds (or rebuilds) an index directory for `store` under the commit
/// protocol: sweeps leftovers of earlier attempts, writes the corpus and
/// an incrementally merged tree as the next generation, and commits them
/// with a manifest. Returns the committed manifest.
#[allow(clippy::too_many_arguments)]
pub fn build_dir_with(
    vfs: Arc<dyn Vfs>,
    store: &SequenceStore,
    alphabet: &Alphabet,
    kind: crate::merge::TreeKind,
    batch: usize,
    threads: usize,
    truncate: Option<warptree_suffix::TruncateSpec>,
    dir: &Path,
) -> Result<Manifest> {
    build_dir_metered(
        vfs,
        store,
        alphabet,
        kind,
        batch,
        threads,
        truncate,
        BackendKind::Tree,
        dir,
        &warptree_obs::MetricsRegistry::noop(),
    )
}

/// [`build_dir_with`] committing under an explicit index
/// [`BackendKind`]: the tree backend runs the incremental merge
/// builder; the `esa` backend constructs the enhanced suffix array over
/// the categorized corpus in one linear pass (`TreeKind` still selects
/// full vs. §6.1 sparse suffix storage, and `batch`/`threads` are
/// ignored — the DC3 build is single-pass). §8 depth truncation is a
/// tree-only feature and is rejected for the `esa` backend.
#[allow(clippy::too_many_arguments)]
pub fn build_dir_backend_with(
    vfs: Arc<dyn Vfs>,
    store: &SequenceStore,
    alphabet: &Alphabet,
    kind: crate::merge::TreeKind,
    batch: usize,
    threads: usize,
    truncate: Option<warptree_suffix::TruncateSpec>,
    backend: BackendKind,
    dir: &Path,
) -> Result<Manifest> {
    build_dir_metered(
        vfs,
        store,
        alphabet,
        kind,
        batch,
        threads,
        truncate,
        backend,
        dir,
        &warptree_obs::MetricsRegistry::noop(),
    )
}

/// [`build_dir_with`] with build-pipeline metrics: the incremental
/// builder publishes its `build.*` counters and timing histograms on
/// `reg`. Callers wanting I/O profiles too should pass a
/// [`MeteredVfs`](crate::MeteredVfs)-wrapped `vfs` metered into the
/// same registry.
#[allow(clippy::too_many_arguments)]
pub fn build_dir_metered(
    vfs: Arc<dyn Vfs>,
    store: &SequenceStore,
    alphabet: &Alphabet,
    kind: crate::merge::TreeKind,
    batch: usize,
    threads: usize,
    truncate: Option<warptree_suffix::TruncateSpec>,
    backend: BackendKind,
    dir: &Path,
    reg: &warptree_obs::MetricsRegistry,
) -> Result<Manifest> {
    if backend == BackendKind::Esa && truncate.is_some() {
        return Err(DiskError::BadRecord(
            "§8 depth truncation is not supported by the esa backend".into(),
        ));
    }
    vfs.create_dir_all(dir)?;
    // The `*.tmp` and orphaned generation files a crashed earlier
    // attempt left are swept first, so none outlives this build.
    match resolve_dir_with(vfs.as_ref(), dir) {
        Ok(resolved) => sweep_dir_with(vfs.as_ref(), dir, &resolved.keep_list())?,
        Err(DiskError::NotAnIndexDir(_)) => sweep_dir_with(vfs.as_ref(), dir, &[])?,
        Err(e) => return Err(e),
    };
    let cat = Arc::new(alphabet.encode_store(store));
    commit_dir_backend_with(
        vfs.as_ref(),
        dir,
        backend,
        |corpus_tmp| {
            crate::corpus::save_corpus_with(vfs.as_ref(), store, alphabet, corpus_tmp).map(|_| ())
        },
        |index_tmp| match backend {
            BackendKind::Tree => {
                let mut builder = crate::merge::IncrementalBuilder::new(cat.clone(), kind, batch)
                    .with_vfs(vfs.clone())
                    .with_threads(threads)
                    .with_metrics(reg);
                if let Some(spec) = truncate {
                    builder = builder.with_truncation(spec);
                }
                builder.build(index_tmp).map(|_| ())
            }
            BackendKind::Esa => {
                let hist = reg.histogram("build.ns");
                let timer = hist.span();
                let sparse = matches!(kind, crate::merge::TreeKind::Sparse);
                let esa = warptree_esa::EsaIndex::build(cat.clone(), sparse);
                let written = crate::esa::write_esa_with(vfs.as_ref(), &esa, index_tmp).map(|_| ());
                timer.end();
                reg.counter("build.batches").incr();
                written
            }
        },
    )
}

/// Per-file outcome of the check [`verify_dir_with`] reports and
/// [`scrub_dir_with`](crate::scrub_dir_with) acts on.
#[derive(Debug, Clone)]
pub struct FileCheck {
    /// File name inside the directory.
    pub name: String,
    /// Pages that passed their CRC (all of them, unless the size or a
    /// page failed).
    pub pages: u64,
    /// First problem found, if any.
    pub error: Option<String>,
    /// Whether the manifest has this file quarantined (tombstoned).
    pub quarantined: bool,
}

/// Result of a full directory verification.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Committed generation that was checked.
    pub generation: u64,
    /// Per-file outcomes: every corpus file (the base's, then the
    /// tails'), the base index, then every tail segment's index.
    pub files: Vec<FileCheck>,
    /// Stale `*.tmp` / orphaned generation files present (not removed —
    /// verification never mutates the directory).
    pub stale: Vec<String>,
}

impl VerifyReport {
    /// Whether every non-quarantined check passed (a quarantined
    /// segment is *expected* to be corrupt; its failure does not make
    /// the directory unhealthy — the manifest already accounts for it).
    pub fn is_ok(&self) -> bool {
        self.files
            .iter()
            .all(|f| f.error.is_none() || f.quarantined)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "generation {}", self.generation)?;
        for check in &self.files {
            let tag = if check.quarantined {
                " [quarantined]"
            } else {
                ""
            };
            match &check.error {
                None => writeln!(f, "  {}: ok ({} pages){tag}", check.name, check.pages)?,
                Some(e) => writeln!(
                    f,
                    "  {}: FAILED after {} pages: {e}{tag}",
                    check.name, check.pages
                )?,
            }
        }
        for s in &self.stale {
            writeln!(f, "  {s}: stale (removed at next open)")?;
        }
        match self.is_ok() {
            true => write!(f, "ok"),
            false => write!(f, "CORRUPT"),
        }
    }
}

fn file_name(path: &Path) -> String {
    let name = path.file_name().and_then(|n| n.to_str());
    name.unwrap_or("?").to_string()
}

/// The one check of a committed file, which `verify` reports and
/// `scrub` acts on: the file's size must be the manifest's `expect`,
/// every page must pass its CRC, read from disk afresh (a failure counts
/// in `reg`'s `disk.read_crc_fail`), and then `parse` must accept the
/// file.
fn check_file(
    vfs: &dyn Vfs,
    path: &Path,
    expect: u64,
    quarantined: bool,
    reg: &MetricsRegistry,
    parse: impl FnOnce() -> Result<()>,
) -> FileCheck {
    let mut pages = 0;
    let error = (|| {
        let actual = vfs.metadata_len(path).map_err(|e| e.to_string())?;
        if actual != expect {
            return Err(format!("size {actual} does not match manifest ({expect})"));
        }
        let read = read_pages(vfs, path, u64::MAX).map_err(|e| e.to_string())?;
        pages = read.bad.unwrap_or(read.count());
        if let Some(page) = read.bad {
            reg.counter("disk.read_crc_fail").incr();
            return Err(DiskError::CorruptPage { page }.to_string());
        }
        parse().map_err(|e| format!("parse failed: {e}"))
    })()
    .err();
    FileCheck {
        name: file_name(path),
        pages,
        error,
        quarantined,
    }
}

/// Runs [`check_file`] over every committed file of `resolved`: every
/// corpus file (the base's, then the tails'), the base index, then every
/// tail segment's index, quarantined ones included. The corpus files
/// parse through the directory's one loader, in order, each checked
/// against the ones before it and against its `MANIFEST` entry (after a
/// corpus file fails, each later one is checked alone). Each index
/// parses through [`AnyIndex::check`] against the loaded corpus, and a
/// tail must have the base's shape (sparse flag and depth limit),
/// without which it cannot be fanned out with the base — except a
/// quarantined tail, which its manifest flag already marks bad, and
/// every index when a corpus file failed.
pub(crate) fn check_dir(
    vfs: &dyn Vfs,
    resolved: &ResolvedDir,
    reg: &MetricsRegistry,
) -> Vec<FileCheck> {
    let m = &resolved.manifest;
    let mut loader = CorpusLoader::new(0);
    let mut whole = true;
    let mut files = Vec::new();
    for file in &resolved.corpus_files {
        if !whole {
            loader = CorpusLoader::new(file.first);
        }
        let check = check_file(vfs, &file.path, file.file_len, false, reg, || {
            loader.add(vfs, file)
        });
        whole &= check.error.is_none();
        files.push(check);
    }
    let cat = whole.then(|| loader.finish().2);
    let tails = (resolved.segment_paths.iter().zip(&m.segments))
        .map(|(path, seg)| (path, seg.file_len, seg.quarantined));
    let indexes = std::iter::once((&resolved.index_path, m.index_len, false)).chain(tails);
    let base = index_shape(vfs, &resolved.index_path, m.backend).ok();
    files.extend(indexes.map(|(path, len, quarantined)| {
        check_file(vfs, path, len, quarantined, reg, || match &cat {
            Some(cat) if !quarantined => {
                AnyIndex::check(vfs, path, cat.clone(), m.backend)?;
                match base {
                    Some(base) if index_shape(vfs, path, m.backend)? != base => {
                        Err(DiskError::BadHeader(
                            "sparse flag or depth limit differs from the base index's".into(),
                        ))
                    }
                    _ => Ok(()),
                }
            }
            _ => Ok(()),
        })
    }));
    files
}

/// Verifies an index directory without modifying it: runs the check
/// ([`check_dir`]) over every committed file, and lists the stale files
/// the next open would sweep.
pub fn verify_dir_with(vfs: &dyn Vfs, dir: &Path) -> Result<VerifyReport> {
    let resolved = resolve_dir_with(vfs, dir)?;
    let stale = stale_files(vfs, dir, &resolved.keep_list())?;
    Ok(VerifyReport {
        generation: resolved.generation,
        files: check_dir(vfs, &resolved, &MetricsRegistry::noop()),
        stale: stale.iter().map(|path| file_name(path)).collect(),
    })
}

/// `m` in the version 4 layout, which had no tail corpora: each
/// tail entry is its index's name and size, its range and flags.
#[cfg(test)]
pub(crate) fn encode_v4(m: &Manifest) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.extend_from_slice(&MANIFEST_VERSION_4.to_le_bytes());
    out.extend_from_slice(&m.generation.to_le_bytes());
    for name in [&m.corpus, &m.index] {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&m.corpus_len.to_le_bytes());
    out.extend_from_slice(&m.index_len.to_le_bytes());
    out.extend_from_slice(&(m.segments.len() as u32).to_le_bytes());
    for seg in &m.segments {
        assert!(seg.corpus.is_empty(), "version 4 has no tail corpus");
        out.extend_from_slice(&(seg.file.len() as u32).to_le_bytes());
        out.extend_from_slice(seg.file.as_bytes());
        out.extend_from_slice(&seg.file_len.to_le_bytes());
        out.extend_from_slice(&seg.start_seq.to_le_bytes());
        out.extend_from_slice(&seg.seq_count.to_le_bytes());
        out.extend_from_slice(&u32::from(seg.quarantined).to_le_bytes());
    }
    let id = match m.backend {
        BackendKind::Tree => BACKEND_ID_TREE,
        BackendKind::Esa => BACKEND_ID_ESA,
    };
    out.extend_from_slice(&id.to_le_bytes());
    let crc = crate::crc::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use warptree_core::categorize::Alphabet;

    fn tmpdir(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("warptree-manifest-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_store() -> SequenceStore {
        SequenceStore::from_values(vec![vec![1.0, 5.0, 3.0, 5.0, 1.0], vec![4.0, 4.0, 2.0]])
    }

    fn sample_manifest(backend: BackendKind) -> Manifest {
        Manifest {
            generation: 7,
            corpus: corpus_file_name(7),
            index: index_file_name(7),
            corpus_len: 8192,
            index_len: 16384,
            segments: Vec::new(),
            backend,
        }
    }

    /// Re-seals `raw` (a manifest encoding whose body was edited) with
    /// the CRC of its new body.
    fn reseal(raw: &mut [u8]) {
        let body_end = raw.len() - 4;
        let crc = crate::crc::crc32(&raw[..body_end]);
        raw[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    /// A tail segment over `start_seq..start_seq + seq_count`, with a
    /// corpus of its own when `own`.
    fn tail(ordinal: u32, start_seq: u32, seq_count: u32, own: bool) -> SegmentMeta {
        SegmentMeta {
            file: segment_file_name(8, ordinal),
            file_len: 4096,
            corpus: match own {
                true => segment_corpus_file_name(8, ordinal),
                false => String::new(),
            },
            corpus_len: if own { 8192 } else { 0 },
            start_seq,
            seq_count,
            quarantined: false,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest(BackendKind::Tree);
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let seg = Manifest {
            segments: vec![
                tail(0, 2, 3, false),
                tail(1, 5, 1, true),
                tail(2, 6, 4, true),
            ],
            ..m.clone()
        };
        assert_eq!(Manifest::decode(&seg.encode()).unwrap(), seg);
        // A directory without tails writes the version 4 bytes but for
        // the version word: the same length.
        assert_eq!(m.encode().len(), encode_v4(&m).len());
        // The quarantine flag survives the round trip.
        let mut tomb = seg.clone();
        tomb.segments[1].quarantined = true;
        assert_eq!(Manifest::decode(&tomb.encode()).unwrap(), tomb);
        assert_eq!(tomb.live_segments().count(), 2);
        assert_eq!(tomb.quarantined_segments().count(), 1);
        // One layout: whatever the content, the version word is the same.
        for m in [&m, &seg, &tomb] {
            assert_eq!(&m.encode()[8..12], &MANIFEST_VERSION.to_le_bytes());
        }
    }

    #[test]
    fn esa_manifest_promotes_to_version_5_and_round_trips() {
        let m = sample_manifest(BackendKind::Esa);
        let raw = m.encode();
        assert_eq!(&raw[8..12], &5u32.to_le_bytes());
        assert_eq!(Manifest::decode(&raw).unwrap(), m);
    }

    /// The one compatibility rule: a version 4 `MANIFEST` decodes as
    /// version 5 with every tail's corpus empty — the base corpus holds
    /// its sequences — and re-encodes as version 5.
    #[test]
    fn version_4_decodes_with_every_tail_corpus_empty() {
        for backend in [BackendKind::Tree, BackendKind::Esa] {
            let mut m = Manifest {
                segments: vec![tail(0, 2, 3, false), tail(1, 5, 1, false)],
                ..sample_manifest(backend)
            };
            m.segments[1].quarantined = true;
            let old = Manifest::decode(&encode_v4(&m)).unwrap();
            assert_eq!(old, m);
            assert_eq!(&old.encode()[8..12], &5u32.to_le_bytes());
            assert_eq!(Manifest::decode(&old.encode()).unwrap(), m);
        }
    }

    #[test]
    fn every_other_version_is_a_typed_rejection() {
        for version in [0u32, 1, 2, 3, 6, u32::MAX] {
            let mut raw = sample_manifest(BackendKind::Tree).encode();
            raw[8..12].copy_from_slice(&version.to_le_bytes());
            reseal(&mut raw);
            match Manifest::decode(&raw) {
                Err(DiskError::BadManifest(m)) => {
                    assert_eq!(m, format!("unsupported manifest version {version}"))
                }
                other => panic!("version {version}: expected BadManifest, got {other:?}"),
            }
        }
    }

    #[test]
    fn decoder_is_strict_behind_a_valid_crc() {
        let seg = |start_seq, seq_count| tail(start_seq, start_seq, seq_count, true);
        let with = |segments| Manifest {
            segments,
            ..sample_manifest(BackendKind::Tree)
        };
        let rejected = |raw: &[u8], why: &str| match Manifest::decode(raw) {
            Err(DiskError::BadManifest(m)) => assert_eq!(m, why),
            other => panic!("expected BadManifest({why}), got {other:?}"),
        };
        // Bytes after the backend id.
        let mut raw = with(vec![seg(2, 3)]).encode();
        raw.splice(raw.len() - 4..raw.len() - 4, [0u8; 4]);
        reseal(&mut raw);
        rejected(&raw, "trailing bytes");
        // Segment lists that descend, overlap, or leave u32.
        let order = "segments out of order or overlapping";
        rejected(&with(vec![seg(5, 1), seg(2, 3)]).encode(), order);
        rejected(&with(vec![seg(2, 3), seg(4, 1)]).encode(), order);
        rejected(
            &with(vec![seg(u32::MAX - 1, 2)]).encode(),
            "segment range overflows",
        );
        // Touching ranges, and one ending exactly at u32::MAX, are fine.
        let edge = with(vec![seg(2, 3), seg(5, 0), seg(5, u32::MAX - 5)]);
        assert_eq!(Manifest::decode(&edge.encode()).unwrap(), edge);
        // A flag bit this build does not know.
        let mut raw = with(vec![seg(2, 3)]).encode();
        let flags_at = raw.len() - 4 - 4 - 4;
        raw[flags_at..flags_at + 4].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut raw);
        rejected(&raw, "unknown segment flags");
        // A tail without a corpus after one with, or with a size.
        rejected(
            &with(vec![tail(0, 2, 3, true), tail(1, 5, 1, false)]).encode(),
            "a segment without a corpus follows one with",
        );
        let mut sized = tail(0, 2, 3, false);
        sized.corpus_len = 8192;
        rejected(
            &with(vec![sized]).encode(),
            "size of an absent segment corpus",
        );
        let mut outside = tail(0, 2, 3, true);
        outside.corpus = "../corpus-000001.wc".into();
        rejected(
            &with(vec![outside]).encode(),
            "file name is not a plain name",
        );
        // Names that would resolve outside the directory.
        for name in ["", ".", "..", "../MANIFEST", "/etc/passwd", "a\\b"] {
            let m = Manifest {
                corpus: name.into(),
                ..sample_manifest(BackendKind::Tree)
            };
            rejected(&m.encode(), "file name is not a plain name");
        }
    }

    #[test]
    fn unknown_backend_id_is_a_typed_rejection() {
        // Splice an unknown backend id into a valid encoding and
        // re-seal the CRC: the decoder must name the id, not claim
        // corruption.
        let mut raw = sample_manifest(BackendKind::Esa).encode();
        let body_end = raw.len() - 4;
        raw[body_end - 4..body_end].copy_from_slice(&7u32.to_le_bytes());
        reseal(&mut raw);
        match Manifest::decode(&raw) {
            Err(DiskError::UnsupportedBackend { found }) => {
                assert!(found.contains('7'), "{found}")
            }
            other => panic!("expected UnsupportedBackend, got {other:?}"),
        }
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = Manifest {
            generation: 1,
            corpus: "corpus-000001.wc".into(),
            index: "index-000001.wt".into(),
            corpus_len: 1,
            index_len: 2,
            segments: vec![SegmentMeta {
                file: segment_file_name(1, 0),
                file_len: 3,
                corpus: segment_corpus_file_name(1, 0),
                corpus_len: 4,
                start_seq: 1,
                seq_count: 1,
                quarantined: true,
            }],
            backend: BackendKind::Tree,
        };
        let mut raw = m.encode();
        for i in (0..raw.len()).step_by(3) {
            raw[i] ^= 0x40;
            assert!(
                matches!(Manifest::decode(&raw), Err(DiskError::BadManifest(_))),
                "flip at byte {i} undetected"
            );
            raw[i] ^= 0x40;
        }
        assert!(Manifest::decode(&raw[..raw.len() - 2]).is_err());
    }

    #[test]
    fn build_commit_resolve_roundtrip() {
        let dir = tmpdir("build");
        let store = sample_store();
        let alphabet = Alphabet::equal_length(&store, 4).unwrap();
        let m = build_dir_with(
            crate::vfs::real_vfs(),
            &store,
            &alphabet,
            crate::merge::TreeKind::Full,
            1,
            1,
            None,
            &dir,
        )
        .unwrap();
        assert_eq!(m.generation, 1);
        let (resolved, report) = recover_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 1);
        assert!(report.is_clean(), "{report}");
        let verify = verify_dir_with(&RealVfs, &dir).unwrap();
        assert!(verify.is_ok(), "{verify}");
        // Rebuild bumps the generation and removes the old files.
        let m2 = build_dir_with(
            crate::vfs::real_vfs(),
            &store,
            &alphabet,
            crate::merge::TreeKind::Sparse,
            1,
            1,
            None,
            &dir,
        )
        .unwrap();
        assert_eq!(m2.generation, 2);
        assert!(!dir.join(corpus_file_name(1)).exists());
        assert!(dir.join(corpus_file_name(2)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_sweeps_stale_files() {
        let dir = tmpdir("sweep");
        let store = sample_store();
        let alphabet = Alphabet::equal_length(&store, 4).unwrap();
        build_dir_with(
            crate::vfs::real_vfs(),
            &store,
            &alphabet,
            crate::merge::TreeKind::Full,
            1,
            1,
            None,
            &dir,
        )
        .unwrap();
        // Plant the kinds of litter a crash can leave behind.
        std::fs::write(dir.join("corpus-000002.wc.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("index-000002.wt.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("index-000002.wt"), b"junk").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let verify = verify_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(verify.stale.len(), 3);
        let (resolved, report) = recover_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 1);
        assert_eq!(report.removed_tmp.len(), 2);
        assert_eq!(report.removed_orphans.len(), 1);
        assert!(!dir.join("corpus-000002.wc.tmp").exists());
        assert!(!dir.join("index-000002.wt.tmp").exists());
        assert!(!dir.join("index-000002.wt").exists());
        assert!(dir.join("unrelated.txt").exists());
        assert!(recover_dir_with(&RealVfs, &dir).unwrap().1.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_referencing_missing_file_is_rejected() {
        let dir = tmpdir("missing");
        let m = Manifest {
            generation: 3,
            corpus: corpus_file_name(3),
            index: index_file_name(3),
            corpus_len: 0,
            index_len: 0,
            segments: Vec::new(),
            backend: BackendKind::Tree,
        };
        commit_update_with(&RealVfs, &dir, &[], &m, &[]).unwrap();
        assert!(matches!(
            resolve_dir_with(&RealVfs, &dir),
            Err(DiskError::BadManifest(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_not_an_index_dir() {
        let dir = tmpdir("empty");
        assert!(matches!(
            resolve_dir_with(&RealVfs, &dir),
            Err(DiskError::NotAnIndexDir(_))
        ));
        // Data files without a MANIFEST do not make one either.
        let store = sample_store();
        let alphabet = Alphabet::equal_length(&store, 4).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        crate::corpus::save_corpus(&store, &alphabet, &dir.join(corpus_file_name(1))).unwrap();
        let tree = warptree_suffix::build_full(cat);
        crate::writer::write_tree(&tree, &dir.join(index_file_name(1))).unwrap();
        assert!(matches!(
            recover_dir_with(&RealVfs, &dir),
            Err(DiskError::NotAnIndexDir(_))
        ));
        assert!(dir.join(corpus_file_name(1)).exists(), "nothing swept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An arbitrary *valid* manifest: 0–64 segments over ascending,
    /// disjoint ranges anywhere in `u32`, either backend, any flags.
    fn arb_manifest() -> impl proptest::Strategy<Value = Manifest> {
        use proptest::prelude::*;
        let seg = (
            0u32..3000,
            0u32..3000,
            any::<bool>(),
            any::<u64>(),
            0u32..1000,
            (any::<bool>(), any::<u64>()),
        );
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            any::<u32>(),
            prop::collection::vec(seg, 0..=64),
        )
            .prop_map(|((generation, corpus_len, index_len, esa), first, segs)| {
                let mut segments = Vec::new();
                let mut covered = first;
                let mut own = false;
                for (gap, seq_count, quarantined, file_len, ordinal, corpus_len) in segs {
                    let Some(start_seq) = covered.checked_add(gap) else {
                        break;
                    };
                    let Some(end) = start_seq.checked_add(seq_count) else {
                        break;
                    };
                    covered = end;
                    // Tails without a corpus come first.
                    own |= corpus_len.0;
                    let corpus_len = own.then_some(corpus_len.1);
                    segments.push(SegmentMeta {
                        file: segment_file_name(generation % 1_000_000, ordinal),
                        file_len,
                        corpus: match corpus_len {
                            Some(_) => segment_corpus_file_name(generation % 1_000_000, ordinal),
                            None => String::new(),
                        },
                        corpus_len: corpus_len.unwrap_or_default(),
                        start_seq,
                        seq_count,
                        quarantined,
                    });
                }
                Manifest {
                    generation,
                    corpus: corpus_file_name(generation % 1_000_000),
                    index: index_file_name(generation % 999_983),
                    corpus_len,
                    index_len,
                    segments,
                    backend: if esa {
                        BackendKind::Esa
                    } else {
                        BackendKind::Tree
                    },
                }
            })
    }

    /// What any accepted manifest must satisfy, however hostile the
    /// bytes it came from: the declared caps hold and it re-encodes to
    /// exactly those bytes (so it is no larger than its input), in the
    /// layout of their version word.
    fn assert_accepted_is_canonical(m: &Manifest, raw: &[u8]) {
        assert!(m.segments.len() <= MAX_SEGMENTS);
        let names = [&m.corpus, &m.index].into_iter();
        let tails = m.segments.iter().flat_map(|s| [&s.file, &s.corpus]);
        for name in names.chain(tails) {
            assert!(name.len() <= MAX_NAME_LEN);
        }
        match raw[8..12] == MANIFEST_VERSION_4.to_le_bytes() {
            true => assert_eq!(encode_v4(m), raw),
            false => assert_eq!(m.encode(), raw),
        }
    }

    proptest::proptest! {
        #[test]
        fn decode_inverts_encode(m in arb_manifest()) {
            let raw = m.encode();
            let back = Manifest::decode(&raw).unwrap();
            assert_accepted_is_canonical(&back, &raw);
            proptest::prop_assert_eq!(back, m);
        }

        /// Arbitrary bytes — raw, and sealed behind the magic, the
        /// version word and a valid CRC so they reach the field
        /// decoders — never panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..400),
        ) {
            let _ = Manifest::decode(&bytes);
            let mut raw = MANIFEST_MAGIC.to_vec();
            raw.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
            raw.extend_from_slice(&bytes);
            raw.extend_from_slice(&[0; 4]);
            reseal(&mut raw);
            if let Ok(m) = Manifest::decode(&raw) {
                assert_accepted_is_canonical(&m, &raw);
            }
        }

        /// One field of a valid encoding overwritten (1, 4 or 8 bytes
        /// at any offset) with the CRC recomputed: a typed error or a
        /// canonical manifest, never a panic.
        #[test]
        fn single_field_mutations_never_panic(
            m in arb_manifest(),
            at in proptest::any::<usize>(),
            width in 0usize..3,
            value in proptest::any::<u64>(),
        ) {
            let mut raw = m.encode();
            let width = [1, 4, 8][width];
            let at = at % (raw.len() - 4 - width + 1);
            raw[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            reseal(&mut raw);
            if let Ok(m) = Manifest::decode(&raw) {
                assert_accepted_is_canonical(&m, &raw);
            }
        }
    }
}
