//! Threads and tracing change nothing: the branch-rich corpus at 1, 2 and
//! 8 threads, traced and untraced, the explain I/O check and a torn
//! append. Harness in `tests/matrix/mod.rs`.

mod matrix;

use matrix::*;
use warptree::prelude::*;
use warptree_disk::{append_segment_with, FaultMode, FaultVfs};

/// The Max-Entropy index every branch-rich test starts from.
const ME: Config = Config {
    cat: Cat::MaxEntropy,
    ..BASE
};

/// `base` at 1, 2 and 8 threads.
fn threads(base: Config) -> Sweep {
    Sweep::of(base).vary(&[1, 2, 8], |c, v| c.threads = v)
}

/// Threshold searches of full, sparse and truncated in-memory trees,
/// windowed or not, traced or not.
#[test]
fn search_identical_across_thread_counts_in_memory() {
    let trees = threads(ME)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&[false, true], |c, v| c.window = v);
    let truncated = Config {
        sparse: true,
        range: true,
        truncate: true,
        ..ME
    };
    let sweep = trees.and(threads(truncated));
    branch_lab().pinned(sweep.vary(&[false, true], |c, v| c.trace = v));
}

/// A live trace changes neither answers nor stats on any backend, its
/// spans show what ran, and on this corpus every parallel query forks.
#[test]
fn tracing_on_never_changes_results_or_stats() {
    let backends = [Backend::Memory, Backend::DiskTree, Backend::DiskEsa];
    let sweep = Sweep::of(Config { trace: true, ..ME })
        .vary(&backends, |c, v| c.backend = v)
        .vary(&[1, 8], |c, v| c.threads = v)
        .vary(&[Kind::Threshold, Kind::Knn(5, false)], |c, v| c.kind = v);
    for cfg in sweep.0 {
        for o in branch_lab().check(cfg) {
            let forked = o.spans.iter().any(|s| s == "filter.task");
            assert_eq!(forked, cfg.threads > 1, "{cfg:?}: {:?}", o.spans);
        }
    }
}

/// k-NN rankings of full and sparse trees, for k of 1 and 5, overlaps
/// allowed or not.
#[test]
fn knn_identical_across_thread_counts() {
    let sweep = threads(ME)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&KNN, |c, v| c.kind = v);
    branch_lab().pinned(sweep);
}

/// The disk tree's threshold and k-NN queries, traced or not, against
/// the one-thread in-memory reference.
#[test]
fn disk_tree_search_identical_across_thread_counts() {
    let disk = Config {
        backend: Backend::DiskTree,
        sparse: true,
        ..ME
    };
    let kinds = [Kind::Threshold, KNN[0], KNN[1], KNN[2], KNN[3]];
    let sweep = threads(disk)
        .vary(&[false, true], |c, v| c.trace = v)
        .vary(&kinds, |c, v| c.kind = v);
    branch_lab().pinned(sweep);
}

/// `explain` reports the same at every thread count: the funnel stats
/// and the index it describes, for either backend.
#[test]
fn explain_identical_across_thread_counts() {
    let lab = Lab::new(branch_rich());
    for backend in [Backend::DiskTree, Backend::DiskEsa] {
        let reports = |threads| -> Vec<_> {
            let cfg = Config {
                backend,
                threads,
                kind: Kind::Explain,
                ..ME
            };
            let outcomes = lab.check(cfg).into_iter();
            outcomes.map(|o| (o.stats, o.explained)).collect()
        };
        let one = reports(1);
        assert!(one.iter().all(|(_, explained)| explained.is_some()));
        for threads in [2, 8] {
            assert_eq!(reports(threads), one, "{backend:?} threads={threads}");
        }
    }
}

/// A torn append: the append crashes inside its commit, and the reopened
/// directory — old generation or new — answers like an in-memory tree
/// over exactly the corpus it holds, at every thread count.
#[test]
fn torn_commit_reopen_preserves_parallel_equivalence() {
    let lcg = branch_rich();
    let extra = SequenceStore::from_values(vec![
        vec![4.2, 5.1, 4.8, 3.9, 5.5, 1.0, 2.0],
        vec![9.0, 0.5, 4.2, 5.1, 4.8],
    ]);
    let base = Config {
        backend: Backend::DiskTree,
        sparse: true,
        ..ME
    };
    // The alphabet is fit on the base alone, so the append widens it.
    let mono = lcg.commit(&base);
    let counter = FaultVfs::new(u64::MAX, FaultMode::Error);
    append_segment_with(counter.as_ref(), &mono.copy("probe"), &extra).unwrap();
    let total = counter.ops();
    assert!(total > 4, "implausibly few append operations: {total}");
    let path = mono.copy("torn");
    let vfs = FaultVfs::new(total - 2, FaultMode::Crash);
    let _ = append_segment_with(vfs.as_ref(), &path, &extra);
    let built = Built::open(&path);
    let dir = built.dir();
    let lab = Lab::new(Corpus {
        name: "torn append".to_string(),
        store: dir.store.clone(),
        batches: Vec::new(),
        alphabet: Some(dir.alphabet.clone()),
        ..lcg
    });
    let layout = [Layout::Mono, Layout::Segments2][dir.segment_count() - 1];
    let kinds = [Kind::Threshold, KNN[0], KNN[1], KNN[2], KNN[3]];
    let sweep = threads(Config { layout, ..base }).vary(&kinds, |c, v| c.kind = v);
    for cfg in sweep.0 {
        lab.check_on(&built, cfg);
    }
}
