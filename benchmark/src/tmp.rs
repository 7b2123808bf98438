//! One scratch root per run, inside the benchmark's own `out/`
//! directory (the run may write nowhere else), removed on drop — so on
//! normal exit and on a panic that unwinds `main` alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Owns `out/tmp-<pid>-<n>/` and hands out fresh numbered directories in
/// it (`n` tells apart the roots of one process: tests run in threads).
pub struct TempRoot {
    root: PathBuf,
    next: u32,
}

/// `benchmark/out`, where traces and scratch directories live.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl TempRoot {
    /// Creates the root. The directory names carry neither seed nor
    /// workload name: they are passed to the program under test.
    pub fn new() -> std::io::Result<Self> {
        static ROOTS: AtomicU32 = AtomicU32::new(0);
        let n = ROOTS.fetch_add(1, Ordering::Relaxed);
        let root = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    /// A path no earlier call returned; the directory is not created.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("d{:04}", self.next))
    }

    /// The root itself.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size of the regular files directly inside `dir` (index
/// directories are flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    total += m.len();
                }
            }
        }
    }
    total
}
