//! Fault-injection sweep over every I/O operation of build, rebuild,
//! and (tail-segment) append. The compaction sweep is
//! `segments_equivalence.rs`'s `recovered_torn_compaction_answers_identically`.
//!
//! Each scenario first runs against a counting [`FaultVfs`] that never
//! fires, to learn the total number of filesystem operations `T`; it is
//! then re-run `2·T` times, injecting a fault at operation `k` for every
//! `k ∈ 1..=T` in both fault modes:
//!
//! * [`FaultMode::Error`] — operation `k` fails once (transient error).
//!   The mutation must return an error that leaves no `*.tmp` litter
//!   behind, or succeed (when the failed operation was best-effort
//!   cleanup), and the directory must remain fully consistent.
//! * [`FaultMode::Crash`] — operation `k` and everything after it fail
//!   (process death). Reopening the directory with the real filesystem
//!   must recover: the complete old or the complete new state, search
//!   results identical to a sequential scan, and no `*.tmp` files after
//!   recovery.
//!
//! Nothing here may panic, whatever `k` is.

use std::path::Path;
use std::sync::Arc;

use warptree_core::categorize::Alphabet;
use warptree_core::search::{seq_scan, QueryRequest, SearchParams, SearchStats, SeqScanMode};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{
    append_segment_with, build_dir_with, load_corpora_with, load_corpus, open_dir_recovered_with,
    resolve_dir_with, verify_dir_with, DiskError, FaultMode, FaultVfs, RealVfs, TreeKind, Vfs,
};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn initial_store() -> SequenceStore {
    SequenceStore::from_values(vec![vec![1.0, 5.0, 3.0, 5.0, 1.0], vec![4.0, 4.0, 2.0]])
}

fn extra_store() -> SequenceStore {
    SequenceStore::from_values(vec![vec![0.0, 9.0, 5.0, 5.0]])
}

fn combined_store() -> SequenceStore {
    SequenceStore::from_values(vec![
        vec![1.0, 5.0, 3.0, 5.0, 1.0],
        vec![4.0, 4.0, 2.0],
        vec![0.0, 9.0, 5.0, 5.0],
    ])
}

fn stores_equal(a: &SequenceStore, b: &SequenceStore) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((_, x), (_, y))| x.values() == y.values())
}

fn no_tmp_files(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .unwrap()
        .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
}

/// The directory's store: every corpus file its `MANIFEST` names, the
/// base's and each tail's, loaded in order.
fn dir_store(dir: &Path) -> SequenceStore {
    let resolved = resolve_dir_with(&RealVfs, dir).unwrap();
    load_corpora_with(&RealVfs, &resolved.corpus_files)
        .unwrap()
        .0
}

/// The data files of a recovered directory are its `MANIFEST`'s: one
/// corpus file for the base and one for each tail segment, live or
/// quarantined, each beside its index, and no orphan of either kind.
fn assert_one_corpus_per_segment(dir: &Path, context: &str) {
    let resolved = resolve_dir_with(&RealVfs, dir).unwrap();
    let m = &resolved.manifest;
    let tails = m.segments.iter().flat_map(|s| [&s.file, &s.corpus]);
    let mut want: Vec<&str> = [&m.corpus, &m.index]
        .into_iter()
        .chain(tails)
        .map(|n| n.as_str())
        .collect();
    want.sort_unstable();
    let names = std::fs::read_dir(dir).unwrap();
    let names = names.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
    let mut got: Vec<String> = names
        .filter(|n| n.ends_with(".wc") || n.ends_with(".wt"))
        .collect();
    got.sort_unstable();
    assert_eq!(got, want, "{context}: data files are not the manifest's");
    assert_eq!(
        resolved.corpus_files.len(),
        1 + m.segments.len(),
        "{context}"
    );
}

/// Builds a committed (generation 1) index directory with the real
/// filesystem; the fixture every append/rebuild sweep starts from.
fn committed_base(dir: &Path, store: &SequenceStore) {
    let alphabet = Alphabet::max_entropy(store, 6).unwrap();
    build_dir_with(
        warptree_disk::real_vfs(),
        store,
        &alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        dir,
    )
    .unwrap();
}

/// Asserts the directory recovers to one of `expected` complete states:
/// it opens through the recovering open routine (so tail segments are
/// searched too), sweeps clean, verifies, and answers every probe query
/// exactly like a sequential scan over whichever store it holds.
fn assert_recovers_to_one_of(dir: &Path, expected: &[&SequenceStore], context: &str) {
    let (snap, _report) = open_dir_recovered_with(&RealVfs, dir)
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert!(no_tmp_files(dir), "{context}: *.tmp left after recovery");
    assert!(
        expected.iter().any(|e| stores_equal(&snap.store, e)),
        "{context}: recovered store ({} sequences) is neither old nor new",
        snap.store.len()
    );
    let verify =
        verify_dir_with(&RealVfs, dir).unwrap_or_else(|e| panic!("{context}: verify errored: {e}"));
    assert!(verify.is_ok(), "{context}: verify failed:\n{verify}");
    for q in [vec![5.0, 5.0], vec![3.0], vec![9.0, 5.0]] {
        let params = SearchParams::with_epsilon(1.0);
        let (got, _) = snap
            .query(&QueryRequest::threshold_params(&q, params.clone()))
            .unwrap();
        let got = got.into_answer_set();
        let mut stats = SearchStats::default();
        let want = seq_scan(&snap.store, &q, &params, SeqScanMode::Full, &mut stats);
        assert_eq!(
            got.occurrence_set(),
            want.occurrence_set(),
            "{context}: search diverges from seq_scan for q={q:?}"
        );
    }
}

/// Runs one fresh build attempt through `vfs`, returning whether it
/// reported success.
fn try_build(vfs: Arc<dyn Vfs>, store: &SequenceStore, dir: &Path) -> Result<(), DiskError> {
    let alphabet = Alphabet::max_entropy(store, 6).unwrap();
    build_dir_with(vfs, store, &alphabet, TreeKind::Full, 1, 1, None, dir).map(|_| ())
}

/// Operations a fresh build of `initial_store` performs.
fn count_build_ops(dir: &Path) -> u64 {
    let vfs = FaultVfs::new(u64::MAX, FaultMode::Error);
    try_build(vfs.clone(), &initial_store(), dir).unwrap();
    vfs.ops()
}

#[test]
fn build_fault_sweep() {
    let probe_dir = tmpdir("build-probe");
    let total = count_build_ops(&probe_dir);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    assert!(total > 10, "implausibly few operations counted: {total}");

    let store = initial_store();
    for mode in [FaultMode::Error, FaultMode::Crash] {
        for k in 1..=total {
            let context = format!("build {mode:?} k={k}");
            let dir = tmpdir("build-sweep");
            let vfs = FaultVfs::new(k, mode);
            let result = try_build(vfs, &store, &dir);
            match result {
                // Success despite the fault: it hit a best-effort
                // operation. The directory must be fully committed.
                Ok(()) => assert_recovers_to_one_of(&dir, &[&store], &context),
                Err(_) => match resolve_dir_with(&RealVfs, &dir) {
                    // Committed before the fault surfaced.
                    Ok(_) => assert_recovers_to_one_of(&dir, &[&store], &context),
                    // Nothing committed: acceptable for a fresh build —
                    // "the old state" of a fresh directory is empty. A
                    // retry with a healthy filesystem must succeed.
                    Err(DiskError::NotAnIndexDir(_)) => {
                        if mode == FaultMode::Error {
                            assert!(no_tmp_files(&dir), "{context}: *.tmp after error");
                        }
                        try_build(warptree_disk::real_vfs(), &store, &dir)
                            .unwrap_or_else(|e| panic!("{context}: retry failed: {e}"));
                        assert_recovers_to_one_of(&dir, &[&store], &context);
                    }
                    Err(e) => panic!("{context}: directory unrecoverable: {e}"),
                },
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn append_fault_sweep() {
    // Count operations of one full append (including its recovery scan).
    let probe_dir = tmpdir("append-probe");
    committed_base(&probe_dir, &initial_store());
    let counter = FaultVfs::new(u64::MAX, FaultMode::Error);
    append_segment_with(counter.as_ref(), &probe_dir, &extra_store()).unwrap();
    let total = counter.ops();
    std::fs::remove_dir_all(&probe_dir).unwrap();
    assert!(total > 10, "implausibly few operations counted: {total}");

    let old = initial_store();
    let new = combined_store();
    for mode in [FaultMode::Error, FaultMode::Crash] {
        for k in 1..=total {
            let context = format!("append {mode:?} k={k}");
            let dir = tmpdir("append-sweep");
            committed_base(&dir, &old);
            let vfs = FaultVfs::new(k, mode);
            let result = append_segment_with(vfs.as_ref(), &dir, &extra_store());
            if mode == FaultMode::Error && result.is_err() {
                // A transient error must have cleaned up after itself
                // already — before any recovery pass.
                assert!(no_tmp_files(&dir), "{context}: error path leaked *.tmp");
            }
            // Whatever happened, the directory must reopen to the
            // complete old or complete new state, with one corpus file
            // per segment.
            assert_recovers_to_one_of(&dir, &[&old, &new], &context);
            assert_one_corpus_per_segment(&dir, &context);
            if result.is_ok() {
                assert!(
                    stores_equal(&dir_store(&dir), &new),
                    "{context}: append reported success but holds the old state"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn rebuild_fault_sweep() {
    // Rebuilding over a committed directory must preserve the old index
    // until the commit point: the directory is never unresolvable.
    let old = initial_store();
    let new = combined_store();
    let new_alphabet = Alphabet::max_entropy(&new, 6).unwrap();

    let probe_dir = tmpdir("rebuild-probe");
    committed_base(&probe_dir, &old);
    let counter = FaultVfs::new(u64::MAX, FaultMode::Error);
    build_dir_with(
        counter.clone(),
        &new,
        &new_alphabet,
        TreeKind::Full,
        1,
        1,
        None,
        &probe_dir,
    )
    .unwrap();
    let total = counter.ops();
    std::fs::remove_dir_all(&probe_dir).unwrap();

    for mode in [FaultMode::Error, FaultMode::Crash] {
        for k in 1..=total {
            let context = format!("rebuild {mode:?} k={k}");
            let dir = tmpdir("rebuild-sweep");
            committed_base(&dir, &old);
            let vfs = FaultVfs::new(k, mode);
            let result = build_dir_with(vfs, &new, &new_alphabet, TreeKind::Full, 1, 1, None, &dir);
            assert_recovers_to_one_of(&dir, &[&old, &new], &context);
            if result.is_ok() {
                let resolved = resolve_dir_with(&RealVfs, &dir).unwrap();
                let (store, _, _) = load_corpus(&resolved.corpus_path).unwrap();
                assert!(
                    stores_equal(&store, &new),
                    "{context}: rebuild reported success but holds the old state"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn appended_dir_survives_crash_then_appends_again() {
    // End-to-end: crash mid-append, recover, append again for real; the
    // final index must contain everything.
    let dir = tmpdir("crash-then-append");
    committed_base(&dir, &initial_store());
    let vfs = FaultVfs::new(25, FaultMode::Crash);
    let _ = append_segment_with(vfs.as_ref(), &dir, &extra_store());
    assert_recovers_to_one_of(&dir, &[&initial_store(), &combined_store()], "mid");
    // The retry must succeed regardless of which state survived; append
    // again only if the first one was lost.
    if stores_equal(&dir_store(&dir), &initial_store()) {
        append_segment_with(&RealVfs, &dir, &extra_store()).unwrap();
    }
    assert_recovers_to_one_of(&dir, &[&combined_store()], "final");
    std::fs::remove_dir_all(&dir).unwrap();
}
