//! Segmented layouts answer like one tree: three segments, two, and a
//! full fold over the segment-boundary batches, the boundary match itself
//! and a torn compaction; and a directory with a damaged index answers
//! like the oracle, by scan. Harness in `tests/matrix/mod.rs`.

mod matrix;

use std::path::Path;

use matrix::*;
use warptree::prelude::*;
use warptree_disk::{
    compact_once_with, quarantine_segment_with, resolve_dir_with, FaultMode, FaultVfs, RealVfs,
    PAGE_SIZE,
};

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

/// The data files of a recovered directory are its `MANIFEST`'s: one
/// corpus file for the base and one for each tail segment, live or
/// quarantined, each beside its index, and no orphan of either kind.
fn assert_one_corpus_per_segment(path: &Path, context: &str) {
    let resolved = resolve_dir_with(&RealVfs, path).unwrap();
    let m = &resolved.manifest;
    let tails = m.segments.iter().flat_map(|s| [&s.file, &s.corpus]);
    let names = [&m.corpus, &m.index].into_iter().chain(tails);
    let mut want: Vec<&str> = names.map(|n| n.as_str()).collect();
    want.sort_unstable();
    let files = std::fs::read_dir(path).unwrap();
    let files = files.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
    let mut got: Vec<String> = files
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

/// Torn compaction: whatever single filesystem operation of a fold fails,
/// transiently or as a crash, the reopened directory answers like the
/// reference, a reported commit holds the folded state (its two tails'
/// corpora folded into one file), and a healthy retry completes the
/// fold; after each, the directory holds one corpus file per segment.
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
        let context = format!("{mode:?} k={k}");
        assert!(!folded || live == 2, "{context}: lost a commit");
        assert_one_corpus_per_segment(&path, &context);
        compact_index_dir(&path).unwrap();
        assert_eq!(check(&path), 1, "{context}: the retry left tails");
        assert_one_corpus_per_segment(&path, &context);
    });
}

/// The branch-rich corpus's generator at a scale where the first
/// batch's tree spans several pages: twelve sequences of 60–115 cents.
fn multi_page() -> Corpus {
    let mut state = 0x9E3779B9_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 100.0
    };
    let seqs: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..60 + 5 * i).map(|_| next()).collect())
        .collect();
    let batches = vec![seqs[..6].to_vec(), seqs[6..9].to_vec(), seqs[9..].to_vec()];
    let queries = branch_rich().queries;
    Corpus::new("multi page", batches, 6, queries, 2, (1, 7))
}

/// A damaged index costs time, never answers. For every segmented
/// configuration of the covering set — tree and ESA, threshold and
/// k-NN, 1, 2 and 8 threads — a copy with its first tail quarantined,
/// and for the tree a copy whose base fails its page CRCs, found at
/// open, answers like the reference and the oracle, with `seq_scan(Cascade)`'s
/// stats.
#[test]
fn damaged_directories_answer_like_the_oracle() {
    let lab = Lab::new(multi_page());
    let runs = covering_set().iter().filter(|cfg| cfg.segmented());
    on_two_threads(runs.copied().collect(), |cfg| {
        let clean = lab.corpus.commit(&cfg);
        let quarantined = clean.copy("quarantined");
        let manifest = resolve_dir_with(&RealVfs, &quarantined).unwrap().manifest;
        let first = &manifest.segments[0].file;
        quarantine_segment_with(&RealVfs, &quarantined, first).unwrap();
        let built = Built::Dir(Box::new(open_index_dir(&quarantined, 64).unwrap()));
        assert_eq!(lab.check_scanned(&built, cfg), vec![first.clone()]);
        if cfg.backend != Backend::DiskTree {
            return;
        }
        // Every page past the header fails its CRC, so the base opens
        // damaged and every query answers by scan.
        let corrupt = clean.copy("corrupt-base");
        let index = resolve_dir_with(&RealVfs, &corrupt).unwrap().index_path;
        let mut bytes = std::fs::read(&index).unwrap();
        assert!(bytes.len() > PAGE_SIZE, "{cfg:?}: a one-page base");
        for page in bytes.chunks_mut(PAGE_SIZE).skip(1) {
            page[0] ^= 0xA5;
        }
        std::fs::write(&index, &bytes).unwrap();
        let built = Built::Dir(Box::new(open_index_dir(&corrupt, 64).unwrap()));
        let name = index.file_name().unwrap().to_string_lossy();
        assert_eq!(lab.check_scanned(&built, cfg), vec![name.into_owned()]);
    });
}
