//! The `Arc`-swapped index snapshot and its hot-reload watcher.
//!
//! All queries run against one immutable
//! [`DirSnapshot`](warptree_disk::DirSnapshot) behind an
//! [`Arc`]. A request **pins** the snapshot it starts with
//! ([`SnapshotCell::get`] clones the `Arc`), so the watcher can swap in
//! a newer generation at any moment without a torn read: in-flight
//! requests keep the old generation alive until they finish; the last
//! drop frees it. No request is ever rejected or delayed by a reload —
//! the swap is one `RwLock`-guarded pointer store.
//!
//! The watcher polls the index directory's commit manifest with
//! [`committed_generation_with`] (one small CRC-checked read, no
//! directory listing, and crucially **no recovery sweep** — a
//! concurrent writer's staged files must survive, see
//! [`warptree_disk::snapshot`]). When the committed generation moves,
//! it opens the new generation *off to the side* and swaps it in only
//! after the open fully succeeds; an interrupted or failing commit
//! leaves the server on the old generation, serving uninterrupted.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use warptree_disk::{committed_generation_with, open_dir_snapshot_with, DirSnapshot, Vfs};
use warptree_obs::MetricsRegistry;

use crate::serve_core::StopThread;

/// Wires a freshly opened snapshot into the server's metrics registry:
/// the base tree and every live segment meter their CRC failures into
/// the shared `disk.read_crc_fail` counter, and the degradation gauges
/// (`index.segments`, `server.quarantined_segments`) track the
/// published view. Called on every publish path — initial open, ingest
/// publish, scrub publish, and the reload watcher's swap — so the
/// gauges never go stale.
pub(crate) fn instrument_snapshot(snap: &DirSnapshot, registry: &MetricsRegistry) {
    snap.instrument(registry);
    registry.set_gauge("index.segments", snap.segment_count() as f64);
    registry.set_gauge("server.quarantined_segments", snap.quarantined.len() as f64);
}

/// The shared, swappable handle to the current index snapshot.
pub struct SnapshotCell {
    current: RwLock<Arc<DirSnapshot>>,
}

impl SnapshotCell {
    /// Wraps an initial snapshot.
    pub fn new(snapshot: Arc<DirSnapshot>) -> Self {
        SnapshotCell {
            current: RwLock::new(snapshot),
        }
    }

    /// Pins and returns the current snapshot. Cheap (one `Arc` clone
    /// under a read lock); callers hold the result for the duration of
    /// one request.
    pub fn get(&self) -> Arc<DirSnapshot> {
        self.current.read().expect("snapshot lock").clone()
    }

    /// Atomically replaces the current snapshot, returning the previous
    /// one (which stays alive until its last in-flight user drops it).
    pub fn swap(&self, next: Arc<DirSnapshot>) -> Arc<DirSnapshot> {
        let mut slot = self.current.write().expect("snapshot lock");
        std::mem::replace(&mut *slot, next)
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.get().generation
    }
}

/// What the reload watcher polls and swaps, with the cache sizes for
/// newly opened generations. It meters `server.reloads` /
/// `server.reload_errors` counters and the `server.generation` gauge.
pub(crate) struct WatcherCtx {
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) dir: PathBuf,
    pub(crate) cell: Arc<SnapshotCell>,
    pub(crate) registry: MetricsRegistry,
    pub(crate) cache_pages: usize,
    pub(crate) cache_nodes: usize,
}

/// Spawns the reload watcher: a [`StopThread`] that polls the commit
/// manifest once at start, then every `interval`, and hot-swaps newer
/// generations into the cell. The server refuses a zero `interval`.
pub(crate) fn spawn_reload_watcher(ctx: WatcherCtx, interval: Duration) -> io::Result<StopThread> {
    ctx.registry
        .set_gauge("server.generation", ctx.cell.generation() as f64);
    StopThread::spawn("warptree-reload", move |stop| {
        poll_once(&ctx);
        while StopThread::sleep(stop, interval) {
            poll_once(&ctx);
        }
    })
}

fn poll_once(ctx: &WatcherCtx) {
    let serving = ctx.cell.get().generation;
    let committed = match committed_generation_with(ctx.vfs.as_ref(), &ctx.dir) {
        Ok(g) => g,
        Err(_) => {
            // Transient (e.g. manifest mid-rename on a non-atomic
            // filesystem, or injected fault): keep serving, retry on
            // the next tick.
            ctx.registry.counter("server.reload_errors").incr();
            return;
        }
    };
    if committed == serving {
        return;
    }
    match open_dir_snapshot_with(ctx.vfs.as_ref(), &ctx.dir, ctx.cache_pages, ctx.cache_nodes) {
        Ok(next) => {
            let next_gen = next.generation;
            instrument_snapshot(&next, &ctx.registry);
            let prev = ctx.cell.swap(Arc::new(next));
            drop(prev); // frees now unless requests still pin it
            ctx.registry.counter("server.reloads").incr();
            ctx.registry.set_gauge("server.generation", next_gen as f64);
        }
        Err(_) => {
            // The generation we saw may already have been superseded
            // and its files unlinked — or the commit is broken. Either
            // way the old snapshot keeps serving; retry next tick.
            ctx.registry.counter("server.reload_errors").incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use warptree_core::categorize::Alphabet;
    use warptree_core::sequence::SequenceStore;
    use warptree_disk::{build_dir_with, real_vfs, TreeKind};

    fn tmpdir(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("warptree-server-snap-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn build(dir: &Path, values: Vec<Vec<f64>>) {
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
    }

    #[test]
    fn swap_pins_old_generation_for_inflight_users() {
        let dir = tmpdir("pin");
        build(&dir, vec![vec![1.0, 2.0, 3.0]]);
        let snap1 = Arc::new(open_dir_snapshot_with(real_vfs().as_ref(), &dir, 4, 16).unwrap());
        let cell = SnapshotCell::new(snap1);
        let pinned = cell.get(); // an in-flight request
        build(&dir, vec![vec![9.0, 8.0]]);
        let snap2 = Arc::new(open_dir_snapshot_with(real_vfs().as_ref(), &dir, 4, 16).unwrap());
        let prev = cell.swap(snap2);
        assert_eq!(prev.generation, 1);
        assert_eq!(cell.generation(), 2);
        // The pinned snapshot still answers from generation 1's corpus.
        assert_eq!(pinned.generation, 1);
        assert_eq!(pinned.store.len(), 1);
        drop(prev);
        let weak = Arc::downgrade(&pinned);
        drop(pinned);
        assert!(
            weak.upgrade().is_none(),
            "old generation freed at last drop"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watcher_picks_up_new_generation() {
        let dir = tmpdir("watch");
        build(&dir, vec![vec![1.0, 2.0, 3.0]]);
        let vfs = real_vfs();
        let cell = Arc::new(SnapshotCell::new(Arc::new(
            open_dir_snapshot_with(vfs.as_ref(), &dir, 4, 16).unwrap(),
        )));
        let reg = MetricsRegistry::new();
        let ctx = WatcherCtx {
            vfs,
            dir: dir.clone(),
            cell: cell.clone(),
            registry: reg.clone(),
            cache_pages: 4,
            cache_nodes: 16,
        };
        let watcher = spawn_reload_watcher(ctx, Duration::from_millis(5)).unwrap();
        build(&dir, vec![vec![4.0, 5.0], vec![6.0]]);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cell.generation() != 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "reload never happened"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(cell.get().store.len(), 2);
        drop(watcher);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["server.reloads"], 1);
        assert_eq!(snap.gauges["server.generation"], 2.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
