//! Segmented layouts answer like one tree: three segments, two, and a
//! full fold over the segment-boundary batches, the boundary match itself
//! and a torn compaction. Harness in `tests/matrix/mod.rs`.

mod matrix;

use std::path::Path;

use matrix::*;
use warptree::prelude::*;
use warptree_disk::{compact_once_with, FaultMode, FaultVfs};

/// The disk tree every segment test starts from.
const DISK: Config = Config {
    backend: Backend::DiskTree,
    sparse: true,
    cat: Cat::MaxEntropy,
    layout: Layout::Segments3,
    ..BASE
};

/// `base`'s threshold and k-NN queries at 1 and 8 threads.
fn queries(base: Config) -> Sweep {
    Sweep::of(base)
        .vary(&[1, 8], |c, v| c.threads = v)
        .vary(&[Kind::Threshold, Kind::Knn(3, false)], |c, v| c.kind = v)
}

/// Full and sparse trees in three segments, two after one
/// `compact_once`, and one after a full compaction, against the
/// monolithic in-memory reference.
#[test]
fn segmented_layouts_answer_byte_identically() {
    let layouts = [Layout::Segments3, Layout::Segments2, Layout::Compacted];
    let sweep = queries(DISK)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&layouts, |c, v| c.layout = v);
    boundary_lab().pinned(sweep);
}

/// The best match of `[6, 7, 8]` ends exactly at the end of a sequence in
/// tail segment 1, and the near miss in tail segment 2 stays out.
#[test]
fn boundary_suffixes_of_tail_segments_are_found() {
    let lab = boundary_lab();
    let boundary = |m: &Match| m.occ.seq == SeqId(4) && m.occ.start == 5 && m.dist == 0.0;
    let found = &lab.check(DISK)[0].matches;
    assert!(found.iter().any(boundary), "{found:?}");
    assert!(found.iter().all(|m| m.occ.seq != SeqId(5)), "{found:?}");
    let kind = Kind::Knn(1, false);
    let top = &lab.check(Config { kind, ..DISK })[0].matches;
    assert!(top.len() == 1 && boundary(&top[0]), "{top:?}");
}

/// Torn compaction: whatever single filesystem operation of a fold fails,
/// transiently or as a crash, the reopened directory answers like the
/// reference, a reported commit holds the folded state, and a healthy
/// retry completes the fold.
#[test]
fn recovered_torn_compaction_answers_identically() {
    let lab = boundary_lab();
    let seg = lab.corpus.commit(&DISK);
    // Checks a directory's every query, in the layout its live trees
    // give, and returns how many there are.
    let check = |path: &Path| {
        let built = Built::open(path);
        let live = built.dir().segment_count();
        let layout = [Layout::Compacted, Layout::Segments2, Layout::Segments3][live - 1];
        for cfg in queries(Config { layout, ..DISK }).0 {
            lab.check_on(&built, cfg);
        }
        live
    };
    let reg = MetricsRegistry::noop();
    let counter = FaultVfs::new(u64::MAX, FaultMode::Error);
    let probe = compact_once_with(counter.as_ref(), &seg.copy("probe"), &reg);
    assert!(probe.unwrap().is_some(), "the probe folds");
    let total = counter.ops();
    assert!(total > 10, "implausibly few operations counted: {total}");
    let modes = [FaultMode::Error, FaultMode::Crash];
    let faults = modes
        .into_iter()
        .flat_map(|mode| (1..=total).map(move |k| (mode, k)));
    on_two_threads(faults.collect(), |(mode, k)| {
        let path = seg.copy("sweep");
        let vfs = FaultVfs::new(k, mode);
        let folded = compact_once_with(vfs.as_ref(), &path, &reg).is_ok();
        let live = check(&path);
        assert!(!folded || live == 2, "{mode:?} k={k}: lost a commit");
        compact_index_dir(&path).unwrap();
        assert_eq!(check(&path), 1, "{mode:?} k={k}: the retry left tails");
    });
}
