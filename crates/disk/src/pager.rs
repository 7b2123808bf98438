//! Paged file storage with per-page CRC and a 2Q buffer pool.
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
//! * [`PagedReader`] serves random reads through a [`TwoQueue`] of
//!   verified pages — a pool that keeps part of a traversal's page loop
//!   resident where an LRU would keep none of it; a failed CRC surfaces
//!   as [`DiskError::CorruptPage`].

use std::path::Path;

use parking_lot::Mutex;

use crate::crc::crc32;
use crate::error::{DiskError, Result};
use crate::lru::TwoQueue;
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

/// Counters describing a reader's I/O behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests that missed the buffer pool (each one is a disk
    /// page fetch).
    pub pages_read: u64,
    /// Page requests served from the buffer pool.
    pub cache_hits: u64,
}

impl IoStats {
    /// Buffer-pool hit rate in `[0, 1]` (0 when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.pages_read + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

struct ReaderInner {
    /// Verified page frames, [`PAGE_SIZE`] bytes each (the CRC tail is
    /// kept so a frame is filled straight from the file).
    cache: TwoQueue<u64, Box<[u8]>>,
    /// The frame the last insert evicted, reused for the next miss: a
    /// full pool reads pages without allocating or zero-filling.
    spare: Option<Box<[u8]>>,
    /// Charged once per failed page CRC on the read path (noop until
    /// [`PagedReader::meter_crc_failures`] wires a registry counter).
    crc_fail: warptree_obs::Counter,
}

/// Random-access reader over the logical byte space with a 2Q buffer
/// pool. Cheap to share: all mutability is behind a lock, so `&self`
/// methods suffice (concurrent queries share the pool).
pub struct PagedReader {
    file: Box<dyn VfsFile>,
    logical_len: u64,
    pages: u64,
    inner: Mutex<ReaderInner>,
}

impl PagedReader {
    /// Opens `path` with a buffer pool of `cache_pages` pages.
    pub fn open(path: &Path, cache_pages: usize) -> Result<Self> {
        Self::open_with(&RealVfs, path, cache_pages)
    }

    /// [`open`](Self::open) through an explicit [`Vfs`].
    pub fn open_with(vfs: &dyn Vfs, path: &Path, cache_pages: usize) -> Result<Self> {
        let file = vfs.open(path)?;
        let physical = file.len()?;
        if physical % PAGE_SIZE as u64 != 0 {
            return Err(DiskError::BadHeader(format!(
                "file size {physical} is not page-aligned"
            )));
        }
        let pages = physical / PAGE_SIZE as u64;
        Ok(Self {
            file,
            logical_len: pages * PAGE_DATA as u64,
            pages,
            inner: Mutex::new(ReaderInner {
                cache: TwoQueue::new(cache_pages),
                spare: None,
                crc_fail: warptree_obs::Counter::noop(),
            }),
        })
    }

    /// Logical byte length (includes the final page's zero padding).
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// A snapshot of the I/O counters (derived from the buffer pool's
    /// hit/miss counters — there is no second set of plumbing).
    pub fn io_stats(&self) -> IoStats {
        let inner = self.inner.lock();
        IoStats {
            pages_read: inner.cache.misses(),
            cache_hits: inner.cache.hits(),
        }
    }

    /// Meters the buffer pool into `reg` under the given counter names
    /// (e.g. `disk.page_cache.hits` / `disk.page_cache.misses`).
    /// Multiple readers may share the same names; their counts sum
    /// there, and [`io_stats`](Self::io_stats) stays this reader's own.
    pub fn meter_cache(&self, reg: &warptree_obs::MetricsRegistry, hits: &str, misses: &str) {
        self.inner
            .lock()
            .cache
            .set_counters(reg.counter(hits), reg.counter(misses));
    }

    /// Meters read-path CRC failures into `reg` under `name` (e.g.
    /// `disk.read_crc_fail`). Multiple readers may share the name;
    /// their counts sum.
    pub fn meter_crc_failures(&self, reg: &warptree_obs::MetricsRegistry, name: &str) {
        self.inner.lock().crc_fail = reg.counter(name);
    }

    /// Number of physical pages in the file.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Re-reads page `page_idx` (below [`page_count`](Self::page_count))
    /// from disk and verifies its CRC, bypassing the buffer pool — the
    /// committed-file check's page walk: a cached (already verified) page
    /// must not mask on-disk rot.
    pub fn verify_page(&self, page_idx: u64) -> Result<()> {
        let crc_fail = self.inner.lock().crc_fail.clone();
        self.read_checked(page_idx, &mut [0u8; PAGE_SIZE], &crc_fail)
    }

    /// Reads page `page_idx` whole into `frame` and checks its CRC —
    /// the one step of both the pool's miss path and
    /// [`verify_page`](Self::verify_page). A mismatch is counted in
    /// `crc_fail` and typed [`DiskError::CorruptPage`].
    #[inline(always)]
    fn read_checked(
        &self,
        page_idx: u64,
        frame: &mut [u8],
        crc_fail: &warptree_obs::Counter,
    ) -> Result<()> {
        self.file.read_at(page_idx * PAGE_SIZE as u64, frame)?;
        let stored = u32::from_le_bytes(frame[PAGE_DATA..].try_into().expect("a 4-byte CRC tail"));
        if crc32(&frame[..PAGE_DATA]) != stored {
            crc_fail.incr();
            return Err(DiskError::CorruptPage { page: page_idx });
        }
        Ok(())
    }

    /// Runs `f` over the bytes from `logical` to the end of the page
    /// holding it (at least one byte). A record that ends inside that
    /// page is decoded in this one page visit, with no copy; a caller
    /// whose record runs on falls back to
    /// [`read_exact_at`](Self::read_exact_at).
    pub fn with_page_tail<R>(&self, logical: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        if logical >= self.logical_len {
            return Err(DiskError::OutOfBounds {
                offset: logical,
                len: 1,
                size: self.logical_len,
            });
        }
        let in_page = (logical % PAGE_DATA as u64) as usize;
        self.with_page(logical / PAGE_DATA as u64, |page| f(&page[in_page..]))
    }

    /// Reads `buf.len()` bytes at `logical` into `buf`.
    pub fn read_exact_at(&self, logical: u64, buf: &mut [u8]) -> Result<()> {
        if logical + buf.len() as u64 > self.logical_len {
            return Err(DiskError::OutOfBounds {
                offset: logical,
                len: buf.len() as u64,
                size: self.logical_len,
            });
        }
        let mut done = 0usize;
        while done < buf.len() {
            let pos = logical + done as u64;
            let page_idx = pos / PAGE_DATA as u64;
            let in_page = (pos % PAGE_DATA as u64) as usize;
            let take = (PAGE_DATA - in_page).min(buf.len() - done);
            self.with_page(page_idx, |page| {
                buf[done..done + take].copy_from_slice(&page[in_page..in_page + take]);
            })?;
            done += take;
        }
        Ok(())
    }

    /// Runs `f` over the verified payload of page `page_idx`.
    fn with_page<R>(&self, page_idx: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        debug_assert!(page_idx < self.pages);
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.cache.get(&page_idx) {
            return Ok(f(&frame[..PAGE_DATA]));
        }
        let mut frame = inner
            .spare
            .take()
            .unwrap_or_else(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
        if let Err(e) = self.read_checked(page_idx, &mut frame, &inner.crc_fail) {
            inner.spare = Some(frame);
            return Err(e);
        }
        let out = f(&frame[..PAGE_DATA]);
        inner.spare = inner.cache.insert(page_idx, frame);
        Ok(out)
    }
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
        let r = PagedReader::open(&path, 4).unwrap();
        let mut buf = [0u8; 11];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
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
        let r = PagedReader::open(&path, 2).unwrap();
        // Read a range crossing two page boundaries.
        let start = PAGE_DATA - 100;
        let mut buf = vec![0u8; PAGE_DATA + 200];
        r.read_exact_at(start as u64, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[start..start + buf.len()]);
        // And the whole stream.
        let mut all = vec![0u8; data.len()];
        r.read_exact_at(0, &mut all).unwrap();
        assert_eq!(all, data);
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn patch_rewrites_and_recrcs() {
        let path = tmp("patch");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&vec![0u8; 2 * PAGE_DATA]).unwrap();
        // Patch across the page boundary.
        let off = (PAGE_DATA - 2) as u64;
        w.finish(&[(off, b"ABCD".to_vec())]).unwrap();
        let r = PagedReader::open(&path, 4).unwrap();
        let mut buf = [0u8; 4];
        r.read_exact_at(off, &mut buf).unwrap();
        assert_eq!(&buf, b"ABCD");
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
        let r = PagedReader::open(&path, 4).unwrap();
        let mut buf = [0u8; 100];
        match r.read_exact_at(0, &mut buf) {
            Err(DiskError::CorruptPage { page: 0 }) => {}
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One flipped bit anywhere in a page — at the edges of the CRC
    /// kernel's 16- and 64-byte folds, in the 12-byte tail no fold covers
    /// (8176..8188), or in the stored CRC — is a `CorruptPage` on both
    /// the read path and `verify_page`, each counted once.
    #[test]
    fn flip_at_every_fold_boundary_detected() {
        let path = tmp("fold-flips");
        let data: Vec<u8> = (0..2 * PAGE_DATA).map(|i| (i * 131 % 241) as u8).collect();
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
            let reg = warptree_obs::MetricsRegistry::new();
            let r = PagedReader::open(&path, 4).unwrap();
            r.meter_crc_failures(&reg, "disk.read_crc_fail");
            let fails = || reg.counter("disk.read_crc_fail").get();
            let mut buf = [0u8; 8];
            match r.read_exact_at(PAGE_DATA as u64, &mut buf) {
                Err(DiskError::CorruptPage { page: 1 }) => {}
                other => panic!("offset {offset}: read gave {other:?}"),
            }
            assert_eq!(fails(), 1, "offset {offset}");
            match r.verify_page(1) {
                Err(DiskError::CorruptPage { page: 1 }) => {}
                other => panic!("offset {offset}: verify_page gave {other:?}"),
            }
            assert_eq!(fails(), 2, "offset {offset}");
            r.verify_page(0).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let path = tmp("oob");
        let w = PagedWriter::create(&path).unwrap();
        w.finish(&[]).unwrap();
        let r = PagedReader::open(&path, 4).unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(
            r.read_exact_at(0, &mut buf),
            Err(DiskError::OutOfBounds { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_hits_accumulate() {
        let path = tmp("cache");
        let mut w = PagedWriter::create(&path).unwrap();
        w.write(&[1u8; 10]).unwrap();
        w.finish(&[]).unwrap();
        let r = PagedReader::open(&path, 4).unwrap();
        let mut buf = [0u8; 1];
        for _ in 0..5 {
            r.read_exact_at(3, &mut buf).unwrap();
        }
        let s = r.io_stats();
        assert_eq!(s.pages_read, 1);
        assert_eq!(s.cache_hits, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_file_rejected() {
        let path = tmp("misaligned");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 7]).unwrap();
        assert!(matches!(
            PagedReader::open(&path, 4),
            Err(DiskError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
