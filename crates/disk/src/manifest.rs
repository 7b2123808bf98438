//! Atomic index-directory commits, recovery on open, and verification.
//!
//! An index directory is a pair of paged files — the corpus and the tree
//! — plus a small `MANIFEST` naming the committed *generation* of each.
//! Every mutation of the directory (initial build, rebuild, append)
//! follows one protocol:
//!
//! 1. the next generation's files are written to `*.tmp` names and
//!    fsynced;
//! 2. each is renamed to its final generational name
//!    (`corpus-NNNNNN.wc`, `index-NNNNNN.wt`) and the directory is
//!    fsynced;
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
//! Directories created by older builds — a bare `corpus.wc` + `index.wt`
//! pair with no manifest — are still readable; they resolve as
//! *generation 0* and are upgraded to the manifest scheme by the first
//! append or rebuild.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use warptree_core::categorize::Alphabet;
use warptree_core::search::BackendKind;
use warptree_core::sequence::SequenceStore;

use crate::any::AnyIndex;
use crate::corpus::load_corpus_with;
use crate::crc::crc32;
use crate::error::{DiskError, Result};
use crate::pager::{PagedReader, PAGE_DATA};
use crate::vfs::{TempGuard, Vfs};

/// File name of the commit manifest.
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: &[u8; 8] = b"WARPMANF";
/// Version 1: base corpus + index pair. Version 2 appends the tail
/// segment list. Version 3 adds a per-segment flags word (bit 0:
/// quarantined). Version 4 appends the index backend id. The encoder
/// always emits the *minimum* version the manifest's content needs —
/// a tree-backed directory with no tail segments is byte-identical to
/// what version-1 builds produced, so older binaries keep reading every
/// directory they could before; only an `esa`-backed directory promotes
/// to version 4, which older binaries reject instead of misreading.
const MANIFEST_VERSION: u32 = 1;
const MANIFEST_VERSION_SEGMENTS: u32 = 2;
const MANIFEST_VERSION_QUARANTINE: u32 = 3;
const MANIFEST_VERSION_BACKEND: u32 = 4;

/// Backend ids as recorded in a version-4 manifest.
const BACKEND_ID_TREE: u32 = 0;
const BACKEND_ID_ESA: u32 = 1;

/// Segment flag bit: the segment is quarantined (tombstoned).
const SEG_FLAG_QUARANTINED: u32 = 1;

/// A committed tail segment: a suffix tree over the suffixes of a
/// contiguous run of appended sequences (the base `index` file covers
/// every sequence before the first tail segment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name of the segment's tree inside the directory.
    pub file: String,
    /// Physical size of the segment file at commit time.
    pub file_len: u64,
    /// Corpus-global id of the first sequence this segment indexes.
    pub start_seq: u32,
    /// Number of consecutive sequences it indexes.
    pub seq_count: u32,
    /// Whether the segment is quarantined: detected corrupt, kept on
    /// disk as a tombstone (never silently deleted), excluded from
    /// queries until a scrub heals it by rebuilding from the corpus.
    pub quarantined: bool,
}

/// The committed state of an index directory: which generation of the
/// corpus and tree files is current, their physical sizes, and any tail
/// segments awaiting compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Commit generation (monotonically increasing; 0 is reserved for
    /// legacy manifest-less directories and never appears in a file).
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
    /// committed under ([`BackendKind::Tree`] for all manifests written
    /// before version 4).
    pub backend: BackendKind,
}

/// Generational corpus file name (`corpus.wc` for the legacy gen 0).
pub fn corpus_file_name(generation: u64) -> String {
    if generation == 0 {
        "corpus.wc".into()
    } else {
        format!("corpus-{generation:06}.wc")
    }
}

/// Generational tree file name (`index.wt` for the legacy gen 0).
pub fn index_file_name(generation: u64) -> String {
    if generation == 0 {
        "index.wt".into()
    } else {
        format!("index-{generation:06}.wt")
    }
}

/// Tail-segment tree file name: the generation that committed it plus
/// an ordinal distinguishing segments born in the same commit.
pub fn segment_file_name(generation: u64, ordinal: u32) -> String {
    format!("segment-{generation:06}-{ordinal:03}.wt")
}

/// Whether `name` follows an index-directory data-file pattern (legacy
/// fixed, generational, or tail segment). Such files belong to the
/// commit protocol and are fair game for the recovery sweep when
/// unreferenced.
fn is_generation_file(name: &str) -> bool {
    name == "corpus.wc"
        || name == "index.wt"
        || (name.starts_with("corpus-") && name.ends_with(".wc"))
        || (name.starts_with("index-") && name.ends_with(".wt"))
        || (name.starts_with("segment-") && name.ends_with(".wt"))
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let version = if self.backend != BackendKind::Tree {
            MANIFEST_VERSION_BACKEND
        } else if self.segments.is_empty() {
            MANIFEST_VERSION
        } else if self.segments.iter().any(|s| s.quarantined) {
            MANIFEST_VERSION_QUARANTINE
        } else {
            MANIFEST_VERSION_SEGMENTS
        };
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        for name in [&self.corpus, &self.index] {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(&self.corpus_len.to_le_bytes());
        out.extend_from_slice(&self.index_len.to_le_bytes());
        if version >= MANIFEST_VERSION_SEGMENTS {
            out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
            for seg in &self.segments {
                out.extend_from_slice(&(seg.file.len() as u32).to_le_bytes());
                out.extend_from_slice(seg.file.as_bytes());
                out.extend_from_slice(&seg.file_len.to_le_bytes());
                out.extend_from_slice(&seg.start_seq.to_le_bytes());
                out.extend_from_slice(&seg.seq_count.to_le_bytes());
                if version >= MANIFEST_VERSION_QUARANTINE {
                    let flags = if seg.quarantined {
                        SEG_FLAG_QUARANTINED
                    } else {
                        0
                    };
                    out.extend_from_slice(&flags.to_le_bytes());
                }
            }
        }
        if version >= MANIFEST_VERSION_BACKEND {
            let id = match self.backend {
                BackendKind::Tree => BACKEND_ID_TREE,
                BackendKind::Esa => BACKEND_ID_ESA,
            };
            out.extend_from_slice(&id.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(raw: &[u8]) -> Result<Self> {
        let bad = |m: &str| DiskError::BadManifest(m.into());
        if raw.len() < 4 {
            return Err(bad("truncated"));
        }
        let (body, tail) = raw.split_at(raw.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored {
            return Err(bad("checksum mismatch"));
        }
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8]> {
            if pos + n > body.len() {
                return Err(bad("truncated"));
            }
            let s = &body[pos..pos + n];
            pos += n;
            Ok(s)
        };
        if take(8)? != MANIFEST_MAGIC {
            return Err(bad("not a manifest file"));
        }
        let version = u32::from_le_bytes(take(4)?.try_into().unwrap());
        if !(MANIFEST_VERSION..=MANIFEST_VERSION_BACKEND).contains(&version) {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let generation = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let mut names = Vec::with_capacity(2);
        for _ in 0..2 {
            let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            if len > 4096 {
                return Err(bad("implausible file name length"));
            }
            let name = std::str::from_utf8(take(len)?)
                .map_err(|_| bad("file name is not UTF-8"))?
                .to_string();
            names.push(name);
        }
        let corpus_len = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let index_len = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let mut segments = Vec::new();
        if version >= MANIFEST_VERSION_SEGMENTS {
            let count = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            if count > 4096 {
                return Err(bad("implausible segment count"));
            }
            for _ in 0..count {
                let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
                if len > 4096 {
                    return Err(bad("implausible file name length"));
                }
                let file = std::str::from_utf8(take(len)?)
                    .map_err(|_| bad("file name is not UTF-8"))?
                    .to_string();
                let file_len = u64::from_le_bytes(take(8)?.try_into().unwrap());
                let start_seq = u32::from_le_bytes(take(4)?.try_into().unwrap());
                let seq_count = u32::from_le_bytes(take(4)?.try_into().unwrap());
                let flags = if version >= MANIFEST_VERSION_QUARANTINE {
                    u32::from_le_bytes(take(4)?.try_into().unwrap())
                } else {
                    0
                };
                segments.push(SegmentMeta {
                    file,
                    file_len,
                    start_seq,
                    seq_count,
                    quarantined: flags & SEG_FLAG_QUARANTINED != 0,
                });
            }
        }
        let backend = if version >= MANIFEST_VERSION_BACKEND {
            match u32::from_le_bytes(take(4)?.try_into().unwrap()) {
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
            }
        } else {
            BackendKind::Tree
        };
        let index = names.pop().unwrap();
        let corpus = names.pop().unwrap();
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

/// Reads the directory's manifest; `Ok(None)` when none exists.
pub fn read_manifest_with(vfs: &dyn Vfs, dir: &Path) -> Result<Option<Manifest>> {
    let path = dir.join(MANIFEST_NAME);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let file = vfs.open(&path)?;
    let len = file.len()?;
    if len > 64 * 1024 {
        return Err(DiskError::BadManifest("implausibly large".into()));
    }
    let mut raw = vec![0u8; len as usize];
    file.read_at(0, &mut raw)?;
    Manifest::decode(&raw).map(Some)
}

/// Writes `m` as the directory's manifest: `MANIFEST.tmp`, fsync,
/// rename, directory fsync. The rename is the caller's commit point.
pub fn write_manifest_with(vfs: &dyn Vfs, dir: &Path, m: &Manifest) -> Result<()> {
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    let mut guard = TempGuard::new(vfs, vec![tmp.clone()]);
    let mut file = vfs.create(&tmp)?;
    file.write_at(0, &m.encode())?;
    file.sync()?;
    drop(file);
    vfs.rename(&tmp, &dir.join(MANIFEST_NAME))?;
    guard.defuse();
    vfs.sync_dir(dir)?;
    Ok(())
}

/// The committed files of a resolved index directory.
#[derive(Debug, Clone)]
pub struct ResolvedDir {
    /// Committed generation (0 for a legacy manifest-less directory).
    pub generation: u64,
    /// Absolute path of the committed corpus file.
    pub corpus_path: PathBuf,
    /// Absolute path of the committed (base) tree file.
    pub index_path: PathBuf,
    /// Absolute paths of the committed tail segments, in manifest order.
    pub segment_paths: Vec<PathBuf>,
    /// The manifest, when one exists.
    pub manifest: Option<Manifest>,
}

impl ResolvedDir {
    /// Every committed data file: corpus, base tree, tail segments.
    fn keep_list(&self) -> Vec<&Path> {
        let mut keep = vec![self.corpus_path.as_path(), self.index_path.as_path()];
        keep.extend(self.segment_paths.iter().map(|p| p.as_path()));
        keep
    }

    /// The backend the committed generation was built under — what the
    /// manifest records, or [`BackendKind::Tree`] for legacy
    /// manifest-less directories.
    pub fn backend(&self) -> BackendKind {
        self.manifest
            .as_ref()
            .map(|m| m.backend)
            .unwrap_or(BackendKind::Tree)
    }
}

/// Resolves the committed state of `dir` without touching anything:
/// the manifest's generation when one exists, else the legacy
/// `corpus.wc` + `index.wt` pair as generation 0.
pub fn resolve_dir_with(vfs: &dyn Vfs, dir: &Path) -> Result<ResolvedDir> {
    if let Some(m) = read_manifest_with(vfs, dir)? {
        let corpus_path = dir.join(&m.corpus);
        let index_path = dir.join(&m.index);
        let segment_paths: Vec<PathBuf> = m.segments.iter().map(|s| dir.join(&s.file)).collect();
        let names = [&m.corpus, &m.index]
            .into_iter()
            .chain(m.segments.iter().map(|s| &s.file));
        for (path, name) in [&corpus_path, &index_path]
            .into_iter()
            .chain(segment_paths.iter())
            .zip(names)
        {
            if !vfs.exists(path) {
                return Err(DiskError::BadManifest(format!(
                    "references missing file {name}"
                )));
            }
        }
        return Ok(ResolvedDir {
            generation: m.generation,
            corpus_path,
            index_path,
            segment_paths,
            manifest: Some(m),
        });
    }
    let corpus_path = dir.join(corpus_file_name(0));
    let index_path = dir.join(index_file_name(0));
    if vfs.exists(&corpus_path) && vfs.exists(&index_path) {
        return Ok(ResolvedDir {
            generation: 0,
            corpus_path,
            index_path,
            segment_paths: Vec::new(),
            manifest: None,
        });
    }
    Err(DiskError::NotAnIndexDir(format!(
        "{}: no MANIFEST and no corpus.wc + index.wt pair",
        dir.display()
    )))
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

/// Removes every `*.tmp` file and every generation-pattern data file of
/// `dir` not listed in `keep`. Fsyncs the directory when anything was
/// removed.
fn sweep_dir_with(vfs: &dyn Vfs, dir: &Path, keep: &[&Path]) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    for path in vfs.read_dir(dir)? {
        if keep.iter().any(|k| *k == path) {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".tmp") {
            vfs.remove_file(&path)?;
            report.removed_tmp.push(path);
        } else if is_generation_file(name) {
            vfs.remove_file(&path)?;
            report.removed_orphans.push(path);
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
/// unlike [`commit_dir_with`], which always supersedes the whole
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
    let mut m = read_manifest_with(vfs, dir)?.ok_or_else(|| {
        DiskError::BadManifest("cannot quarantine in a manifest-less directory".into())
    })?;
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

/// Commits the next generation of `dir` atomically. `write_corpus` and
/// `write_index` each receive the temporary path they must produce their
/// file at (fsynced — [`crate::PagedWriter::finish`] already does this);
/// everything else — generational naming, renames, directory fsyncs, the
/// manifest, cleanup of the superseded generation — is handled here.
///
/// On error, no trace of the attempted generation survives (temporaries
/// and half-installed files are removed); after a crash, the recovery
/// sweep at next open removes them instead. The old generation stays
/// committed until the manifest rename, which is the atomic flip.
pub fn commit_dir_with<C, I>(
    vfs: &dyn Vfs,
    dir: &Path,
    current_generation: u64,
    write_corpus: C,
    write_index: I,
) -> Result<Manifest>
where
    C: FnOnce(&Path) -> Result<()>,
    I: FnOnce(&Path) -> Result<()>,
{
    commit_dir_backend_with(
        vfs,
        dir,
        current_generation,
        BackendKind::Tree,
        write_corpus,
        write_index,
    )
}

/// [`commit_dir_with`] recording an explicit index [`BackendKind`] in
/// the committed manifest — `write_index` must produce a file of that
/// backend's format.
pub fn commit_dir_backend_with<C, I>(
    vfs: &dyn Vfs,
    dir: &Path,
    current_generation: u64,
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
    // everything).
    let mut remove_after = vec![
        dir.join(corpus_file_name(current_generation)),
        dir.join(index_file_name(current_generation)),
    ];
    if let Ok(Some(old)) = read_manifest_with(vfs, dir) {
        remove_after.extend(old.segments.iter().map(|s| dir.join(&s.file)));
    }

    let generation = current_generation + 1;
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
    // Rebuilds bump the committed generation; fresh builds start at 1.
    // Leftovers of a crashed earlier attempt are swept first so stale
    // merge work files cannot outlive this build.
    let current = match resolve_dir_with(vfs.as_ref(), dir) {
        Ok(resolved) => {
            sweep_dir_with(vfs.as_ref(), dir, &resolved.keep_list())?;
            resolved.generation
        }
        Err(DiskError::NotAnIndexDir(_)) => {
            sweep_dir_with(vfs.as_ref(), dir, &[])?;
            0
        }
        Err(e) => return Err(e),
    };
    let cat = Arc::new(alphabet.encode_store(store));
    commit_dir_backend_with(
        vfs.as_ref(),
        dir,
        current,
        backend,
        |corpus_tmp| {
            crate::corpus::save_corpus_with(vfs.as_ref(), store, alphabet, corpus_tmp).map(|_| ())
        },
        |index_tmp| match backend {
            BackendKind::Tree => {
                let mut builder = crate::merge::IncrementalBuilder::new(
                    cat.clone(),
                    kind,
                    batch,
                    dir.to_path_buf(),
                )
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

/// Per-file outcome of [`verify_dir_with`].
#[derive(Debug, Clone)]
pub struct FileCheck {
    /// File name inside the directory.
    pub name: String,
    /// Pages scanned before an error (all of them when `error` is none).
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
    /// Per-file page-scan and parse outcomes.
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

/// Scans every page of `path`, returning the page count or the first
/// CRC/size failure.
fn scan_pages(vfs: &dyn Vfs, path: &Path) -> (u64, Option<String>) {
    let reader = match PagedReader::open_with(vfs, path, 2) {
        Ok(r) => r,
        Err(e) => return (0, Some(e.to_string())),
    };
    let pages = reader.logical_len() / PAGE_DATA as u64;
    let mut buf = vec![0u8; PAGE_DATA];
    for page in 0..pages {
        if let Err(e) = reader.read_exact_at(page * PAGE_DATA as u64, &mut buf) {
            return (page, Some(e.to_string()));
        }
    }
    (pages, None)
}

/// Verifies an index directory without modifying it: resolves the
/// committed generation, checks every page CRC of the corpus and tree
/// files, cross-checks their sizes against the manifest, and parses
/// both files end to end (corpus decode + tree open). Stale files that
/// the next open would sweep are reported, not removed.
pub fn verify_dir_with(vfs: &dyn Vfs, dir: &Path) -> Result<VerifyReport> {
    let resolved = resolve_dir_with(vfs, dir)?;
    let mut report = VerifyReport {
        generation: resolved.generation,
        ..Default::default()
    };

    let file_name = |p: &Path| {
        p.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string()
    };

    // Page-level CRC scan plus manifest size cross-check: the corpus,
    // the base tree, then every tail segment.
    let mut checks: Vec<(&Path, Option<u64>, bool)> = vec![
        (
            &resolved.corpus_path,
            resolved.manifest.as_ref().map(|m| m.corpus_len),
            false,
        ),
        (
            &resolved.index_path,
            resolved.manifest.as_ref().map(|m| m.index_len),
            false,
        ),
    ];
    if let Some(m) = &resolved.manifest {
        for (path, seg) in resolved.segment_paths.iter().zip(&m.segments) {
            checks.push((path, Some(seg.file_len), seg.quarantined));
        }
    }
    for (path, expect_len, quarantined) in checks {
        let (pages, mut error) = scan_pages(vfs, path);
        if error.is_none() {
            if let Some(expect) = expect_len {
                let actual = vfs.metadata_len(path)?;
                if actual != expect {
                    error = Some(format!("size {actual} does not match manifest ({expect})"));
                }
            }
        }
        report.files.push(FileCheck {
            name: file_name(path),
            pages,
            error,
            quarantined,
        });
    }

    // Semantic parse: the corpus must decode, every healthy tree must
    // open against the decoded alphabet (quarantined segments are
    // already known-bad; opening them would just repeat the scan error).
    if report.is_ok() {
        match load_corpus_with(vfs, &resolved.corpus_path) {
            Err(e) => {
                report.files[0].error = Some(format!("parse failed: {e}"));
            }
            Ok((_, _, cat)) => {
                let trees = std::iter::once(&resolved.index_path).chain(&resolved.segment_paths);
                for (i, path) in trees.enumerate() {
                    if report.files[i + 1].quarantined {
                        continue;
                    }
                    if let Err(e) =
                        AnyIndex::open_with(vfs, path, cat.clone(), resolved.backend(), 4, 16)
                    {
                        report.files[i + 1].error = Some(format!("parse failed: {e}"));
                    }
                }
            }
        }
    }

    for path in vfs.read_dir(dir)? {
        if path == resolved.corpus_path
            || path == resolved.index_path
            || resolved.segment_paths.contains(&path)
        {
            continue;
        }
        let name = file_name(&path);
        if name.ends_with(".tmp") || is_generation_file(&name) {
            report.stale.push(name);
        }
    }
    Ok(report)
}

/// Deep verification: every index file (base and every tail segment,
/// quarantined ones included) is opened as the manifest's backend and
/// walked page by page through [`AnyIndex::verify_pages`] — exactly the
/// CRC-checked, cache-bypassing routine the background scrubber uses —
/// plus a page scan of the corpus. Never mutates the directory.
pub fn verify_dir_deep_with(vfs: &dyn Vfs, dir: &Path) -> Result<VerifyReport> {
    let resolved = resolve_dir_with(vfs, dir)?;
    let mut report = VerifyReport {
        generation: resolved.generation,
        ..Default::default()
    };
    let file_name = |p: &Path| {
        p.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string()
    };
    let (corpus_pages, corpus_err) = scan_pages(vfs, &resolved.corpus_path);
    report.files.push(FileCheck {
        name: file_name(&resolved.corpus_path),
        pages: corpus_pages,
        error: corpus_err,
        quarantined: false,
    });
    let cat = match load_corpus_with(vfs, &resolved.corpus_path) {
        Ok((_, _, cat)) => cat,
        Err(e) => {
            if report.files[0].error.is_none() {
                report.files[0].error = Some(format!("parse failed: {e}"));
            }
            return Ok(report);
        }
    };
    let quarantined_names: Vec<&str> = resolved
        .manifest
        .as_ref()
        .map(|m| m.quarantined_segments().map(|s| s.file.as_str()).collect())
        .unwrap_or_default();
    for path in std::iter::once(&resolved.index_path).chain(&resolved.segment_paths) {
        let name = file_name(path);
        let quarantined = quarantined_names.iter().any(|q| *q == name);
        let (pages, error) =
            match AnyIndex::open_with(vfs, path, cat.clone(), resolved.backend(), 2, 1) {
                Ok(index) => match index.verify_pages() {
                    Ok(pages) => (pages, None),
                    Err(e) => (0, Some(e.to_string())),
                },
                Err(e) => (0, Some(e.to_string())),
            };
        report.files.push(FileCheck {
            name,
            pages,
            error,
            quarantined,
        });
    }
    Ok(report)
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

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            generation: 7,
            corpus: corpus_file_name(7),
            index: index_file_name(7),
            corpus_len: 8192,
            index_len: 16384,
            segments: Vec::new(),
            backend: BackendKind::Tree,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        // With tail segments the manifest round-trips as version 2.
        let seg = Manifest {
            segments: vec![
                SegmentMeta {
                    file: segment_file_name(8, 0),
                    file_len: 4096,
                    start_seq: 2,
                    seq_count: 3,
                    quarantined: false,
                },
                SegmentMeta {
                    file: segment_file_name(9, 1),
                    file_len: 12288,
                    start_seq: 5,
                    seq_count: 1,
                    quarantined: false,
                },
            ],
            ..m.clone()
        };
        assert_eq!(Manifest::decode(&seg.encode()).unwrap(), seg);
        // Quarantine-free manifests stay at the version-2 byte layout.
        assert_eq!(&seg.encode()[8..12], &2u32.to_le_bytes());
        // A quarantined segment promotes the encoding to version 3 and
        // the flag survives the round trip.
        let mut tomb = seg.clone();
        tomb.segments[1].quarantined = true;
        let raw = tomb.encode();
        assert_eq!(&raw[8..12], &3u32.to_le_bytes());
        assert_eq!(Manifest::decode(&raw).unwrap(), tomb);
        assert_eq!(tomb.live_segments().count(), 1);
        assert_eq!(tomb.quarantined_segments().count(), 1);
    }

    #[test]
    fn esa_manifest_promotes_to_version_4_and_round_trips() {
        let m = Manifest {
            generation: 2,
            corpus: corpus_file_name(2),
            index: index_file_name(2),
            corpus_len: 512,
            index_len: 1024,
            segments: Vec::new(),
            backend: BackendKind::Esa,
        };
        let raw = m.encode();
        assert_eq!(&raw[8..12], &MANIFEST_VERSION_BACKEND.to_le_bytes());
        assert_eq!(Manifest::decode(&raw).unwrap(), m);
    }

    #[test]
    fn unknown_backend_id_is_a_typed_rejection() {
        // Splice an unknown backend id into a valid v4 encoding and
        // re-seal the CRC: the decoder must name the id, not claim
        // corruption.
        let m = Manifest {
            generation: 2,
            corpus: corpus_file_name(2),
            index: index_file_name(2),
            corpus_len: 512,
            index_len: 1024,
            segments: Vec::new(),
            backend: BackendKind::Esa,
        };
        let mut raw = m.encode();
        let body_end = raw.len() - 4;
        raw[body_end - 4..body_end].copy_from_slice(&7u32.to_le_bytes());
        let crc = crate::crc::crc32(&raw[..body_end]);
        raw[body_end..].copy_from_slice(&crc.to_le_bytes());
        match Manifest::decode(&raw) {
            Err(DiskError::UnsupportedBackend { found }) => {
                assert!(found.contains('7'), "{found}")
            }
            other => panic!("expected UnsupportedBackend, got {other:?}"),
        }
    }

    #[test]
    fn segmentless_manifest_encoding_is_version_1() {
        // A fully compacted directory must stay readable by pre-segment
        // builds: no tail segments -> the exact version-1 byte layout.
        let m = Manifest {
            generation: 3,
            corpus: corpus_file_name(3),
            index: index_file_name(3),
            corpus_len: 100,
            index_len: 200,
            segments: Vec::new(),
            backend: BackendKind::Tree,
        };
        let raw = m.encode();
        assert_eq!(&raw[8..12], &1u32.to_le_bytes());
        // version(4) is followed by generation/names/lens and nothing
        // else before the CRC tail.
        let expected_len = 8 + 4 + 8 + (4 + m.corpus.len()) + (4 + m.index.len()) + 8 + 8 + 4;
        assert_eq!(raw.len(), expected_len);
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
    fn legacy_pair_resolves_as_generation_zero() {
        let dir = tmpdir("legacy");
        let store = sample_store();
        let alphabet = Alphabet::equal_length(&store, 4).unwrap();
        let cat = Arc::new(alphabet.encode_store(&store));
        crate::corpus::save_corpus(&store, &alphabet, &dir.join("corpus.wc")).unwrap();
        let tree = warptree_suffix::build_full(cat);
        crate::writer::write_tree(&tree, &dir.join("index.wt")).unwrap();
        let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 0);
        assert!(resolved.manifest.is_none());
        assert!(verify_dir_with(&RealVfs, &dir).unwrap().is_ok());
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
        std::fs::write(dir.join("merge-0-0.wt.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("index-000002.wt"), b"junk").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let verify = verify_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(verify.stale.len(), 3);
        let (resolved, report) = recover_dir_with(&RealVfs, &dir).unwrap();
        assert_eq!(resolved.generation, 1);
        assert_eq!(report.removed_tmp.len(), 2);
        assert_eq!(report.removed_orphans.len(), 1);
        assert!(!dir.join("corpus-000002.wc.tmp").exists());
        assert!(!dir.join("merge-0-0.wt.tmp").exists());
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
        write_manifest_with(&RealVfs, &dir, &m).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
