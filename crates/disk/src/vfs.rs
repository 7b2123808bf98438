//! Injectable filesystem abstraction for crash-consistency testing.
//!
//! Every mutating I/O operation the disk layer performs — file creation,
//! positioned writes, fsync, rename, removal, directory fsync — goes
//! through a [`Vfs`]. Production code uses [`RealVfs`] (plain `std::fs`);
//! the crash-consistency test suite uses [`FaultVfs`], which fails or
//! "kills the process" after the Nth operation, so every intermediate
//! on-disk state of `build`/`append`/merge can be exercised and the
//! recovery path in [`manifest`](crate::manifest) verified against it.
//!
//! The fault model is **fail-stop**: an injected fault makes the Nth and
//! (in [`FaultMode::Crash`]) every later operation return an error, and
//! the test then reopens whatever the real filesystem holds. Writes that
//! completed before the fault are considered durable.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use warptree_obs::{Counter, MetricsRegistry};

/// An open file handle behind the [`Vfs`] abstraction.
///
/// All access is positioned (`read_at`/`write_at`); sequential callers
/// track their own cursor. Reads take `&self`, so an open handle can be
/// shared without a lock.
pub trait VfsFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Writes all of `buf` at `offset`.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Flushes file data and metadata to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Current physical file length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Whether the file is currently empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// The filesystem operations the disk layer performs.
pub trait Vfs: Send + Sync {
    /// Creates (truncating) `path` for read + write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens `path` read-only.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making renames/removals durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Lists the plain files in `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Physical length of the file at `path`.
    fn metadata_len(&self, path: &Path) -> io::Result<u64>;
}

/// The production [`Vfs`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

/// A real open file.
struct RealFile {
    file: File,
}

#[cfg(unix)]
fn read_at_impl(file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at_impl(file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    // Positioned read via a cloned handle (keeps &self).
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(unix)]
fn write_at_impl(file: &File, offset: u64, buf: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn write_at_impl(file: &File, offset: u64, buf: &[u8]) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

impl VfsFile for RealFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        read_at_impl(&self.file, offset, buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        write_at_impl(&self.file, offset, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile { file }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile {
            file: File::open(path)?,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        // Directory handles cannot be fsynced portably off unix.
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn metadata_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// The default production VFS handle.
pub fn real_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The Nth operation fails once; later operations succeed. Models a
    /// transient I/O error — error paths must clean up and leave the old
    /// committed state behind.
    Error,
    /// The Nth and every subsequent operation fail. Models process death
    /// — nothing after the fault reaches the disk, and a later reopen
    /// must recover.
    Crash,
}

struct FaultState {
    ops: AtomicU64,
    fail_at: AtomicU64,
    mode: FaultMode,
    crashed: AtomicBool,
}

impl FaultState {
    fn injected() -> io::Error {
        io::Error::other("injected fault")
    }

    /// Accounts one operation; errors at/after the injection point.
    fn check(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::injected());
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.fail_at.load(Ordering::SeqCst) {
            if self.mode == FaultMode::Crash {
                self.crashed.store(true, Ordering::SeqCst);
            }
            return Err(Self::injected());
        }
        Ok(())
    }
}

/// A [`Vfs`] that delegates to [`RealVfs`] but fails (or "crashes") at
/// the Nth operation. Count a run first with `fail_at = u64::MAX`, then
/// sweep the injection point over `1..=ops()`.
pub struct FaultVfs {
    inner: RealVfs,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// A fault VFS failing at operation `fail_at` (1-based); pass
    /// `u64::MAX` to only count.
    pub fn new(fail_at: u64, mode: FaultMode) -> Arc<Self> {
        Arc::new(Self {
            inner: RealVfs,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                fail_at: AtomicU64::new(fail_at),
                mode,
                crashed: AtomicBool::new(false),
            }),
        })
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has triggered.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }
}

/// A file handle that charges every access against the fault budget.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl VfsFile for FaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.state.check()?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.state.check()?;
        self.inner.write_at(offset, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.state.check()?;
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.state.check()?;
        self.inner.len()
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.check()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            state: self.state.clone(),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.check()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open(path)?,
            state: self.state.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.check()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.check()?;
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.state.check()?;
        self.inner.sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.state.check()?;
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.state.check()?;
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are metadata-only and cannot tear state; they
        // are not charged, but a crashed VFS reports pessimistically.
        if self.state.crashed.load(Ordering::SeqCst) {
            return false;
        }
        self.inner.exists(path)
    }

    fn metadata_len(&self, path: &Path) -> io::Result<u64> {
        self.state.check()?;
        self.inner.metadata_len(path)
    }
}

/// The counters a [`MeteredVfs`] charges. Cloning shares the underlying
/// cells, so the VFS and every file handle it opens report to the same
/// registry entries.
#[derive(Clone)]
struct VfsCounters {
    reads: Counter,
    writes: Counter,
    syncs: Counter,
    read_bytes: Counter,
    write_bytes: Counter,
}

/// A [`Vfs`] wrapper that meters every operation into a
/// [`MetricsRegistry`] under the `disk.vfs.*` namespace:
///
/// | counter                | meaning                                   |
/// |------------------------|-------------------------------------------|
/// | `disk.vfs.reads`       | positioned reads issued                   |
/// | `disk.vfs.writes`      | positioned writes issued                  |
/// | `disk.vfs.syncs`       | file and directory fsyncs                 |
/// | `disk.vfs.read_bytes`  | bytes requested by reads                  |
/// | `disk.vfs.write_bytes` | bytes submitted by writes                 |
///
/// Counting happens before delegation, so a failing operation is still
/// charged — the profile reflects I/O *attempted*, which is what a
/// cost model cares about. With a no-op registry every counter is a
/// no-op and the wrapper adds only the virtual-dispatch hop the `Vfs`
/// trait already imposes.
pub struct MeteredVfs {
    inner: Arc<dyn Vfs>,
    io: VfsCounters,
}

impl MeteredVfs {
    /// Wraps `inner`, registering the `disk.vfs.*` counters on `reg`.
    pub fn new(inner: Arc<dyn Vfs>, reg: &MetricsRegistry) -> Arc<Self> {
        Arc::new(Self {
            inner,
            io: VfsCounters {
                reads: reg.counter("disk.vfs.reads"),
                writes: reg.counter("disk.vfs.writes"),
                syncs: reg.counter("disk.vfs.syncs"),
                read_bytes: reg.counter("disk.vfs.read_bytes"),
                write_bytes: reg.counter("disk.vfs.write_bytes"),
            },
        })
    }
}

/// A file handle that charges reads/writes/syncs to shared counters.
struct MeteredFile {
    inner: Box<dyn VfsFile>,
    io: VfsCounters,
}

impl VfsFile for MeteredFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.io.reads.incr();
        self.io.read_bytes.add(buf.len() as u64);
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.io.writes.incr();
        self.io.write_bytes.add(buf.len() as u64);
        self.inner.write_at(offset, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.io.syncs.incr();
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for MeteredVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MeteredFile {
            inner: self.inner.create(path)?,
            io: self.io.clone(),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MeteredFile {
            inner: self.inner.open(path)?,
            io: self.io.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.io.syncs.incr();
        self.inner.sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn metadata_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.metadata_len(path)
    }
}

/// Removes a set of scratch files when dropped, unless defused.
///
/// Every multi-file operation (append, directory commit) arms one of
/// these over its temporaries and the not-yet-committed generation files
/// it renames into place, then defuses it at the commit point — so an
/// early return on *any* error path leaves no `*.tmp` litter and no
/// half-installed generation behind. Removal is best-effort: on a
/// simulated crash the removals themselves fail, and the recovery sweep
/// at next open picks the files up instead.
pub struct TempGuard<'v> {
    vfs: &'v dyn Vfs,
    paths: Vec<PathBuf>,
    armed: bool,
}

impl<'v> TempGuard<'v> {
    /// A guard removing `paths` on drop.
    pub fn new(vfs: &'v dyn Vfs, paths: Vec<PathBuf>) -> Self {
        Self {
            vfs,
            paths,
            armed: true,
        }
    }

    /// Adds another path to remove on drop.
    pub fn add(&mut self, path: PathBuf) {
        self.paths.push(path);
    }

    /// Commits: the files stay.
    pub fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for TempGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for p in &self.paths {
            if self.vfs.exists(p) {
                let _ = self.vfs.remove_file(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("warptree-vfs-{}-{}", std::process::id(), name))
    }

    #[test]
    fn real_vfs_roundtrip() {
        let path = tmp("roundtrip");
        let vfs = RealVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.write_at(5, b" world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), 11);
        drop(f);
        let r = vfs.open(&path).unwrap();
        let mut buf = [0u8; 11];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        vfs.remove_file(&path).unwrap();
        assert!(!vfs.exists(&path));
    }

    #[test]
    fn fault_error_mode_fails_once() {
        let path = tmp("fault-once");
        let vfs = FaultVfs::new(2, FaultMode::Error);
        let mut f = vfs.create(&path).unwrap(); // op 1
        assert!(f.write_at(0, b"x").is_err()); // op 2: injected
        f.write_at(0, b"x").unwrap(); // op 3: recovered
        assert!(!vfs.crashed());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_crash_mode_is_permanent() {
        let path = tmp("fault-crash");
        let vfs = FaultVfs::new(2, FaultMode::Crash);
        let mut f = vfs.create(&path).unwrap();
        assert!(f.write_at(0, b"x").is_err());
        assert!(f.write_at(0, b"x").is_err());
        assert!(vfs.rename(&path, &tmp("fault-crash2")).is_err());
        assert!(vfs.crashed());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metered_vfs_counts_io() {
        let path = tmp("metered");
        let reg = MetricsRegistry::new();
        let vfs = MeteredVfs::new(real_vfs(), &reg);
        let mut f = vfs.create(&path).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        let r = vfs.open(&path).unwrap();
        let mut buf = [0u8; 5];
        r.read_at(0, &mut buf).unwrap();
        drop(r);
        vfs.sync_dir(&std::env::temp_dir()).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["disk.vfs.writes"], 1);
        assert_eq!(snap.counters["disk.vfs.write_bytes"], 5);
        assert_eq!(snap.counters["disk.vfs.reads"], 1);
        assert_eq!(snap.counters["disk.vfs.read_bytes"], 5);
        assert_eq!(snap.counters["disk.vfs.syncs"], 2);
        vfs.remove_file(&path).unwrap();
    }

    #[test]
    fn metered_vfs_noop_registry_is_silent() {
        let path = tmp("metered-noop");
        let reg = MetricsRegistry::noop();
        let vfs = MeteredVfs::new(real_vfs(), &reg);
        let mut f = vfs.create(&path).unwrap();
        f.write_at(0, b"x").unwrap();
        drop(f);
        assert!(reg.snapshot().is_empty());
        vfs.remove_file(&path).unwrap();
    }

    #[test]
    fn temp_guard_removes_unless_defused() {
        let vfs = RealVfs;
        let (a, b) = (tmp("guard-a"), tmp("guard-b"));
        std::fs::write(&a, b"x").unwrap();
        std::fs::write(&b, b"y").unwrap();
        {
            let _g = TempGuard::new(&vfs, vec![a.clone()]);
        }
        assert!(!a.exists());
        {
            let mut g = TempGuard::new(&vfs, vec![b.clone()]);
            g.defuse();
        }
        assert!(b.exists());
        std::fs::remove_file(&b).unwrap();
    }
}
