//! Paged file storage with per-page CRC.
//!
//! Files are a sequence of fixed-size pages; each page holds
//! [`PAGE_DATA`] payload bytes followed by a CRC-32 of that payload.
//! Callers address a contiguous *logical* byte space — the concatenation
//! of all payloads — and never see page boundaries, so records may span
//! pages freely.
//!
//! * [`PagedWriter`] writes the logical stream sequentially, sealing
//!   each page with its CRC and writing runs of up to 32 pages with one
//!   `write_at`; it can patch already-written ranges at `finish` time
//!   (used to back-patch file headers once the root offset is known),
//!   and fsyncs only a file that gets committed.
//! * [`read_stream`] reads a file back whole: one `read_at`, every
//!   page's CRC checked, the payloads packed into the logical bytes. A
//!   reader keeps those bytes and reads records in place; no page is
//!   read after the open, so there is no buffer pool.

use std::path::Path;

use crate::crc::crc32;
use crate::error::{DiskError, Result};
use crate::vfs::{RealVfs, Vfs, VfsFile};

/// Physical page size in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Payload bytes per page (the tail 4 bytes hold the CRC).
pub const PAGE_DATA: usize = PAGE_SIZE - 4;

/// Full pages a [`PagedWriter`] gathers before one `write_at`.
const RUN_PAGES: usize = 32;

/// Sequential writer over the logical byte space.
pub struct PagedWriter {
    file: Box<dyn VfsFile>,
    /// Sealed pages not yet written ([`PAGE_SIZE`] bytes each, CRC
    /// included), then the payload of the page being filled.
    run: Vec<u8>,
    /// Logical offset of the first byte of `run`.
    run_base: u64,
}

impl PagedWriter {
    /// Creates (truncates) `path` and returns a writer positioned at
    /// logical offset 0.
    pub fn create(path: &Path) -> Result<Self> {
        Self::create_with(&RealVfs, path)
    }

    /// [`create`](Self::create) through an explicit [`Vfs`].
    pub fn create_with(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let file = vfs.create(path)?;
        Ok(Self {
            file,
            run: Vec::with_capacity(RUN_PAGES * PAGE_SIZE),
            run_base: 0,
        })
    }

    /// The logical offset the next write lands at.
    pub fn position(&self) -> u64 {
        let sealed = self.run.len() / PAGE_SIZE;
        self.run_base + (sealed * PAGE_DATA + self.run.len() % PAGE_SIZE) as u64
    }

    /// Appends `data` to the logical stream.
    pub fn write(&mut self, mut data: &[u8]) -> Result<()> {
        while !data.is_empty() {
            let fill = self.run.len() % PAGE_SIZE;
            let take = (PAGE_DATA - fill).min(data.len());
            self.run.extend_from_slice(&data[..take]);
            data = &data[take..];
            if fill + take == PAGE_DATA {
                self.seal_page()?;
            }
        }
        Ok(())
    }

    /// Pads the page being filled with zeros, appends its CRC, and
    /// writes the run once it holds [`RUN_PAGES`] pages.
    fn seal_page(&mut self) -> Result<()> {
        let start = self.run.len() / PAGE_SIZE * PAGE_SIZE;
        self.run.resize(start + PAGE_DATA, 0);
        let crc = crc32(&self.run[start..]);
        self.run.extend_from_slice(&crc.to_le_bytes());
        if self.run.len() == RUN_PAGES * PAGE_SIZE {
            self.flush_run()?;
        }
        Ok(())
    }

    /// Writes the sealed pages of the run with one `write_at`.
    fn flush_run(&mut self) -> Result<()> {
        if self.run.is_empty() {
            return Ok(());
        }
        let physical = self.run_base / PAGE_DATA as u64 * PAGE_SIZE as u64;
        self.file.write_at(physical, &self.run)?;
        self.run_base += (self.run.len() / PAGE_SIZE * PAGE_DATA) as u64;
        self.run.clear();
        Ok(())
    }

    /// Flushes the trailing partial page, applies `patches` —
    /// `(logical_offset, bytes)` pairs rewriting already-written ranges
    /// (page CRCs are recomputed) — and fsyncs. Returns the logical
    /// length of the stream.
    pub fn finish(self, patches: &[(u64, Vec<u8>)]) -> Result<u64> {
        self.finish_as(patches, true)
    }

    /// [`finish`](Self::finish), fsyncing only when `sync` is set. A
    /// work file — merged and deleted before anything is committed —
    /// skips the fsync: only a file that gets committed needs one, and
    /// the crash sweep removes `*.tmp` work files a crash leaves behind.
    pub(crate) fn finish_as(mut self, patches: &[(u64, Vec<u8>)], sync: bool) -> Result<u64> {
        let logical_len = self.position();
        if !self.run.len().is_multiple_of(PAGE_SIZE) {
            self.seal_page()?;
        }
        self.flush_run()?;
        for (offset, bytes) in patches {
            assert!(
                offset + bytes.len() as u64 <= logical_len,
                "patch outside the written range"
            );
            patch(self.file.as_mut(), *offset, bytes)?;
        }
        if sync {
            self.file.sync()?;
        }
        Ok(logical_len)
    }
}

/// Rewrites `bytes` at `logical_offset` in an already-written paged file,
/// recomputing affected page CRCs.
fn patch(file: &mut dyn VfsFile, logical_offset: u64, bytes: &[u8]) -> Result<()> {
    let mut written = 0usize;
    while written < bytes.len() {
        let logical = logical_offset + written as u64;
        let page_idx = logical / PAGE_DATA as u64;
        let in_page = (logical % PAGE_DATA as u64) as usize;
        let take = (PAGE_DATA - in_page).min(bytes.len() - written);
        let mut page = [0u8; PAGE_SIZE];
        file.read_at(page_idx * PAGE_SIZE as u64, &mut page)?;
        page[in_page..in_page + take].copy_from_slice(&bytes[written..written + take]);
        let crc = crc32(&page[..PAGE_DATA]);
        page[PAGE_DATA..].copy_from_slice(&crc.to_le_bytes());
        file.write_at(page_idx * PAGE_SIZE as u64, &page)?;
        written += take;
    }
    Ok(())
}

/// What a paged file's open read, for the repo benchmark's cache
/// metrics: every index is read whole at open and no query reads a
/// page, so these count that one read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages the open read (and CRC-checked).
    pub pages_read: u64,
    /// Always 0: there is no buffer pool. Kept only so the repo
    /// benchmark, which still reads it, builds; ROADMAP item 1a deletes
    /// it.
    pub cache_hits: u64,
}

/// A paged file read by [`read_pages`]: the payloads of the pages read,
/// back to back, and the first of them that failed its CRC.
pub(crate) struct Pages {
    /// The logical bytes (a failed page's bytes included, unchecked).
    pub(crate) bytes: Vec<u8>,
    /// The first page whose CRC did not match, if any.
    pub(crate) bad: Option<u64>,
}

impl Pages {
    /// Number of pages read.
    pub(crate) fn count(&self) -> u64 {
        (self.bytes.len() / PAGE_DATA) as u64
    }

    /// The bytes, when every page passed its CRC; otherwise a
    /// [`DiskError::CorruptionDetected`] naming `path` and the page.
    pub(crate) fn verified(self, path: &Path) -> Result<Vec<u8>> {
        match self.bad {
            None => Ok(self.bytes),
            Some(page) => Err(DiskError::CorruptPage { page }.in_file(path)),
        }
    }
}

/// Reads the first `limit` pages of the paged file at `path` (all of
/// them, if it has fewer) with one `read_at`, checks every page's CRC,
/// and packs the payloads down to the logical bytes in place. The one
/// read of a paged file: a tree, an ESA, a corpus, and the committed
/// file check all go through it (or [`read_stream`]).
pub(crate) fn read_pages(vfs: &dyn Vfs, path: &Path, limit: u64) -> Result<Pages> {
    let file = vfs.open(path)?;
    let physical = file.len()?;
    if physical % PAGE_SIZE as u64 != 0 {
        return Err(DiskError::BadHeader(format!(
            "file size {physical} is not page-aligned"
        )));
    }
    let pages = (physical / PAGE_SIZE as u64).min(limit) as usize;
    let mut bytes = vec![0u8; pages * PAGE_SIZE];
    file.read_at(0, &mut bytes)?;
    let mut bad = None;
    for page in 0..pages {
        let at = page * PAGE_SIZE;
        let (payload, tail) = bytes[at..at + PAGE_SIZE].split_at(PAGE_DATA);
        let stored = u32::from_le_bytes(tail.try_into().expect("a 4-byte CRC tail"));
        if bad.is_none() && crc32(payload) != stored {
            bad = Some(page as u64);
        }
        bytes.copy_within(at..at + PAGE_DATA, page * PAGE_DATA);
    }
    bytes.truncate(pages * PAGE_DATA);
    Ok(Pages { bytes, bad })
}

/// The logical bytes of the paged file at `path` (the final page's zero
/// padding included), read once with every page CRC-checked. A page
/// that fails is a [`DiskError::CorruptionDetected`] naming the file.
pub fn read_stream(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>> {
    read_pages(vfs, path, u64::MAX)?.verified(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("warptree-pager-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip_small() {
        let path = tmp("small");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(b"hello ").unwrap();
        w.write(b"world").unwrap();
        assert_eq!(w.position(), 11);
        let len = w.finish(&[]).unwrap();
        assert_eq!(len, 11);
        let bytes = read_stream(&RealVfs, &path).unwrap();
        assert_eq!(bytes.len(), PAGE_DATA, "one page, zero-padded");
        assert_eq!(&bytes[..11], b"hello world");
        assert!(bytes[11..].iter().all(|&b| b == 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_spanning_pages() {
        let path = tmp("span");
        let data: Vec<u8> = (0..3 * PAGE_DATA + 1234)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&data).unwrap();
        w.finish(&[]).unwrap();
        let bytes = read_stream(&RealVfs, &path).unwrap();
        assert_eq!(&bytes[..data.len()], &data[..]);
        // A limit reads that many pages, the header readers' one page.
        let head = read_pages(&RealVfs, &path, 1).unwrap();
        assert_eq!((head.count(), head.bad), (1, None));
        assert_eq!(&head.bytes[..], &data[..PAGE_DATA]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Page runs change how many `write_at`s a stream takes, never its
    /// bytes: whatever the write sizes, the file is each page's payload,
    /// zero-padded, then its CRC — and 71 pages go out in three writes.
    #[test]
    fn page_runs_write_the_page_layout() {
        let path = tmp("runs");
        let data: Vec<u8> = (0..70 * PAGE_DATA + 1234)
            .map(|i| (i * 7 % 253) as u8)
            .collect();
        let reg = warptree_obs::MetricsRegistry::new();
        let vfs = crate::vfs::MeteredVfs::new(crate::vfs::real_vfs(), &reg);
        let mut w = PagedWriter::create_with(vfs.as_ref(), &path).unwrap();
        let mut rest = &data[..];
        for size in [1, 7, PAGE_DATA - 8, PAGE_DATA + 1, 40 * PAGE_DATA, 3]
            .iter()
            .cycle()
        {
            let (head, tail) = rest.split_at((*size).min(rest.len()));
            w.write(head).unwrap();
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(w.finish(&[]).unwrap(), data.len() as u64);
        let mut want = Vec::new();
        for payload in data.chunks(PAGE_DATA) {
            let mut page = payload.to_vec();
            page.resize(PAGE_DATA, 0);
            let crc = crc32(&page);
            want.extend_from_slice(&page);
            want.extend_from_slice(&crc.to_le_bytes());
        }
        assert!(std::fs::read(&path).unwrap() == want, "page layout differs");
        assert_eq!(reg.counter("disk.vfs.writes").get(), 3);
        // The file reads back in one `read_at`.
        read_stream(vfs.as_ref(), &path).unwrap();
        assert_eq!(reg.counter("disk.vfs.reads").get(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn patch_rewrites_and_recrcs() {
        let path = tmp("patch");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&vec![0u8; 2 * PAGE_DATA]).unwrap();
        // Patch across the page boundary.
        let off = PAGE_DATA - 2;
        w.finish(&[(off as u64, b"ABCD".to_vec())]).unwrap();
        let bytes = read_stream(&RealVfs, &path).unwrap();
        assert_eq!(&bytes[off..off + 4], b"ABCD");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let path = tmp("corrupt");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&[7u8; 100]).unwrap();
        w.finish(&[]).unwrap();
        // Flip a payload byte directly in the physical file.
        let mut raw = std::fs::read(&path).unwrap();
        raw[50] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        match read_stream(&RealVfs, &path) {
            Err(DiskError::CorruptionDetected { file, page: 0 }) if file == name => {}
            other => panic!("expected a named corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One flipped bit anywhere in a page — at the edges of the CRC
    /// kernel's 16- and 64-byte folds, in the 12-byte tail no fold covers
    /// (8176..8188), or in the stored CRC — fails that page, and that
    /// page alone, however many pages the read takes.
    #[test]
    fn flip_at_every_fold_boundary_detected() {
        let path = tmp("fold-flips");
        let data: Vec<u8> = (0..3 * PAGE_DATA).map(|i| (i * 131 % 241) as u8).collect();
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&data).unwrap();
        w.finish(&[]).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let offsets = [0, 15, 16, 63, 64, 8175]
            .into_iter()
            .chain(8176..PAGE_DATA)
            .chain(PAGE_DATA..PAGE_SIZE);
        for (n, offset) in offsets.enumerate() {
            let mut raw = pristine.clone();
            raw[PAGE_SIZE + offset] ^= 1 << (n % 8);
            std::fs::write(&path, &raw).unwrap();
            let pages = read_pages(&RealVfs, &path, u64::MAX).unwrap();
            assert_eq!((pages.count(), pages.bad), (3, Some(1)), "offset {offset}");
            assert_eq!(&pages.bytes[2 * PAGE_DATA..], &data[2 * PAGE_DATA..]);
            assert_eq!(read_pages(&RealVfs, &path, 1).unwrap().bad, None);
            match read_stream(&RealVfs, &path) {
                Err(DiskError::CorruptionDetected { page: 1, .. }) => {}
                other => panic!("offset {offset}: read gave {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_file_rejected() {
        let path = tmp("misaligned");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 7]).unwrap();
        assert!(matches!(
            read_stream(&RealVfs, &path),
            Err(DiskError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
