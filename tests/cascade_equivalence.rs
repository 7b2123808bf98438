//! The lower-bound-cascade contract: turning the cascade on changes
//! *nothing* about the answers — matches (values bit-identical), k-NN
//! rankings and the candidate funnel are byte-identical with the
//! cascade on or off, at every thread count and across segment
//! layouts. Only the exact-table cell count (which the cascade exists
//! to shrink) and the per-tier kill counters may differ.
//!
//! Also pins the ε-boundary semantics the cascade exposed: the
//! acceptance contract everywhere is `dist ≤ ε` (non-strict), so a
//! true answer landing *exactly* on ε is kept by the filter, by every
//! cascade tier (strict `lb > ε` kills only), by post-processing and
//! by all sequential-scan modes — and excluded by all of them at the
//! next representable ε below.

use std::sync::Arc;

use warptree::prelude::*;
use warptree::{build_index_dir, open_index_dir, Categorization, ExplainReport, Index};

const THREADS: [u32; 2] = [1, 8];

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("warptree-casceq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Deterministic branch-rich corpus (fixed LCG, no RNG dependency).
fn corpus() -> SequenceStore {
    let mut state = 0x9E3779B9_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 100.0
    };
    let seqs: Vec<Vec<f64>> = (0..10)
        .map(|i| (0..20 + 5 * i).map(|_| next()).collect())
        .collect();
    SequenceStore::from_values(seqs)
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![4.2, 5.1, 4.8, 3.9, 5.5],
        vec![2.0, 3.0, 4.0],
        vec![7.5, 7.0, 6.5, 6.0],
    ]
}

/// Cascade on vs off must agree on everything except the work the
/// cascade saves: `postprocess_cells` may only shrink, the off-side
/// kill counters are zero, and every other counter is identical.
fn assert_stats_equal_modulo_cascade(on: &SearchStats, off: &SearchStats, ctx: &str) {
    assert_eq!(
        off.cascade_lb_keogh_kills + off.cascade_lb_improved_kills + off.cascade_abandon_kills,
        0,
        "{ctx}: cascade-off run reported cascade kills"
    );
    assert!(
        on.postprocess_cells <= off.postprocess_cells,
        "{ctx}: cascade increased exact-table cells ({} > {})",
        on.postprocess_cells,
        off.postprocess_cells
    );
    let mut a = *on;
    let mut b = *off;
    a.postprocess_cells = 0;
    b.postprocess_cells = 0;
    a.cascade_lb_keogh_kills = 0;
    a.cascade_lb_improved_kills = 0;
    a.cascade_abandon_kills = 0;
    assert_eq!(a, b, "{ctx}: funnel diverges beyond cascade-only fields");
}

#[test]
fn search_identical_cascade_on_or_off_in_memory() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let full = build_full(cat.clone());
    let sparse = build_sparse(cat);
    let eps_params = [
        SearchParams::with_epsilon(0.8),
        SearchParams::with_epsilon(5.0),
        SearchParams::with_epsilon(3.0).windowed(2),
    ];
    for q in queries() {
        for base in &eps_params {
            for t in THREADS {
                for (tree, tag) in [(&full, "full"), (&sparse, "sparse")] {
                    let ctx = format!("{tag} q={q:?} eps={} t={t}", base.epsilon);
                    let run = |cascade: bool| {
                        let params = base.clone().parallel(t).cascaded(cascade);
                        let m = SearchMetrics::new();
                        let ans = run_query_with(
                            tree,
                            &alphabet,
                            &store,
                            &QueryRequest::threshold_params(&q, params),
                            &m,
                        )
                        .unwrap()
                        .into_answer_set();
                        (ans, m.snapshot())
                    };
                    let (on, son) = run(true);
                    let (off, soff) = run(false);
                    assert_eq!(on.matches(), off.matches(), "{ctx}: matches");
                    assert_stats_equal_modulo_cascade(&son, &soff, &ctx);
                }
            }
        }
    }
}

#[test]
fn knn_identical_cascade_on_or_off() {
    let store = corpus();
    let alphabet = Alphabet::max_entropy(&store, 6).unwrap();
    let cat = Arc::new(alphabet.encode_store(&store));
    let full = build_full(cat.clone());
    let sparse = build_sparse(cat);
    for q in queries() {
        for k in [1usize, 5] {
            for non_overlapping in [false, true] {
                for t in THREADS {
                    for (tree, tag) in [(&full, "full"), (&sparse, "sparse")] {
                        let run = |cascade: bool| {
                            let mut params = KnnParams::new(k).parallel(t).cascaded(cascade);
                            params.non_overlapping = non_overlapping;
                            run_query_with(
                                tree,
                                &alphabet,
                                &store,
                                &QueryRequest::knn_params(&q, params),
                                &SearchMetrics::new(),
                            )
                            .unwrap()
                            .into_ranked()
                        };
                        assert_eq!(
                            run(true),
                            run(false),
                            "{tag}: knn q={q:?} k={k} no={non_overlapping} t={t}"
                        );
                    }
                }
            }
        }
    }
}

/// The cascade is layout-independent: a 3-segment directory and its
/// compacted monolithic twin report identical funnels with the cascade
/// on, identical funnels with it off, and identical answers across all
/// four combinations.
#[test]
fn segment_layouts_agree_cascade_on_or_off() {
    let store = corpus();
    let seg = tmpdir("seg");
    // Base build on the first 4 sequences, then two appends of 3.
    let part = |range: std::ops::Range<usize>| {
        let mut out = SequenceStore::new();
        for id in range {
            out.push(store.get(SeqId(id as u32)).clone());
        }
        out
    };
    build_index_dir(&part(0..4), Categorization::MaxEntropy(6), true, 2, &seg).unwrap();
    warptree::append_index_dir(&seg, &part(4..7)).unwrap();
    warptree::append_index_dir(&seg, &part(7..10)).unwrap();
    let mono = tmpdir("mono");
    for entry in std::fs::read_dir(&seg).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), mono.join(entry.file_name())).unwrap();
    }
    warptree::compact_index_dir(&mono).unwrap();

    let seg_idx = open_index_dir(&seg, 64).unwrap();
    let mono_idx = open_index_dir(&mono, 64).unwrap();
    assert_eq!(seg_idx.segment_count(), 3);
    assert_eq!(mono_idx.segment_count(), 1);

    for q in queries() {
        for t in THREADS {
            let run = |idx: &warptree::DiskIndexDir, cascade: bool| {
                let params = SearchParams::with_epsilon(2.0)
                    .parallel(t)
                    .cascaded(cascade);
                let (out, stats) = idx
                    .query(&QueryRequest::threshold_params(&q, params))
                    .unwrap();
                (out.into_answer_set().matches().to_vec(), stats)
            };
            let (m_seg_on, s_seg_on) = run(&seg_idx, true);
            let (m_seg_off, s_seg_off) = run(&seg_idx, false);
            let (m_mono_on, s_mono_on) = run(&mono_idx, true);
            let (m_mono_off, s_mono_off) = run(&mono_idx, false);
            let ctx = format!("q={q:?} t={t}");
            assert_eq!(m_seg_on, m_mono_on, "{ctx}: on, seg vs mono");
            assert_eq!(m_seg_on, m_seg_off, "{ctx}: seg, on vs off");
            assert_eq!(m_mono_on, m_mono_off, "{ctx}: mono, on vs off");
            assert_stats_equal_modulo_cascade(&s_seg_on, &s_seg_off, &format!("{ctx} seg"));
            assert_stats_equal_modulo_cascade(&s_mono_on, &s_mono_off, &format!("{ctx} mono"));
            // Candidate-level funnel identical across layouts per mode:
            // the cascade sees the same groups either way.
            for (a, b, tag) in [
                (&s_seg_on, &s_mono_on, "on"),
                (&s_seg_off, &s_mono_off, "off"),
            ] {
                assert_eq!(
                    [
                        a.candidates,
                        a.postprocessed,
                        a.postprocess_cells,
                        a.false_alarms,
                        a.answers,
                        a.cascade_lb_keogh_kills,
                        a.cascade_lb_improved_kills,
                        a.cascade_abandon_kills,
                    ],
                    [
                        b.candidates,
                        b.postprocessed,
                        b.postprocess_cells,
                        b.false_alarms,
                        b.answers,
                        b.cascade_lb_keogh_kills,
                        b.cascade_lb_improved_kills,
                        b.cascade_abandon_kills,
                    ],
                    "{ctx}: cascade-{tag} funnel, seg vs mono"
                );
            }
        }
    }
    std::fs::remove_dir_all(&seg).unwrap();
    std::fs::remove_dir_all(&mono).unwrap();
}

/// Explain surfaces the per-tier kill counts, and on a tight-ε query
/// over this corpus the cascade actually kills (the counters are live,
/// not decorative).
#[test]
fn explain_reports_cascade_kills() {
    let store = corpus();
    let index = Index::sparse(&store, Categorization::MaxEntropy(6)).unwrap();
    let q = queries().remove(0);
    let (_, report) =
        ExplainReport::for_index(&index, &q, &SearchParams::with_epsilon(0.8)).unwrap();
    let s = &report.stats;
    let kills = s.cascade_lb_keogh_kills + s.cascade_lb_improved_kills + s.cascade_abandon_kills;
    assert!(
        kills > 0,
        "tight-eps query produced no cascade kills: {s:?}"
    );
    assert_eq!(
        s.postprocessed,
        s.answers + s.false_alarms,
        "funnel invariant broke under the cascade"
    );
    assert!(
        kills <= s.false_alarms,
        "kills must be a subset of false alarms"
    );
    let json = report.to_json();
    for key in [
        "\"cascade\"",
        "\"lb_keogh_kills\"",
        "\"lb_improved_kills\"",
        "\"abandon_kills\"",
    ] {
        assert!(json.contains(key), "explain JSON lost {key}: {json}");
    }
}

/// The ε-boundary corpus: all values are small integers, so every
/// base distance and every DTW path sum is computed exactly in f64 —
/// no rounding anywhere. The query's best alignment against the
/// embedded pattern `[1, 2, 5]` costs exactly 2.0.
fn boundary_store() -> SequenceStore {
    SequenceStore::from_values(vec![
        vec![50.0, 1.0, 2.0, 5.0, 50.0],
        vec![30.0, 30.0, 30.0, 30.0],
    ])
}

const BOUNDARY_QUERY: [f64; 3] = [1.0, 2.0, 3.0];
const BOUNDARY_EPS: f64 = 2.0;

fn boundary_occ() -> Occurrence {
    Occurrence::new(SeqId(0), 1, 3)
}

/// The largest f64 strictly below `x` (next representable downward).
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// A true answer whose exact distance IS ε is an answer (`dist ≤ ε`),
/// in every path: tree filter + cascade + post-processing, cascade
/// off, and all three sequential-scan modes. One ulp below ε it is
/// excluded by all of them. This pins the strict-kill convention
/// (`lb > ε`) of every cascade tier against the non-strict acceptance
/// (`dist ≤ ε`) of the funnel — with the filter's float slack removed.
///
/// Note the boundary is *adversarial* for the cascade: with no window
/// the envelope bound of the pattern is exactly 2.0 = ε (the envelope
/// is tight there), so an off-by-one `>=` kill would dismiss a true
/// answer and fail this test.
#[test]
fn answers_exactly_on_epsilon_are_kept_everywhere() {
    let store = boundary_store();
    let q = BOUNDARY_QUERY;
    for window in [None, Some(1u32)] {
        for (eps, expect_boundary) in [(BOUNDARY_EPS, true), (next_down(BOUNDARY_EPS), false)] {
            let mut base = SearchParams::with_epsilon(eps);
            base.window = window;
            let ctx = format!("window={window:?} eps={eps}");

            // Index paths: exact (singleton alphabet), full, sparse —
            // each with the cascade on and off.
            let indexes = [
                Index::exact(&store).unwrap(),
                Index::full(&store, Categorization::EqualLength(4)).unwrap(),
                Index::sparse(&store, Categorization::MaxEntropy(4)).unwrap(),
            ];
            let mut answer_sets = Vec::new();
            for (i, index) in indexes.iter().enumerate() {
                for cascade in [true, false] {
                    let (ans, _) = index.search(&q, &base.clone().cascaded(cascade));
                    let hit = ans
                        .matches()
                        .iter()
                        .find(|m| m.occ == boundary_occ())
                        .copied();
                    if expect_boundary {
                        let hit = hit.unwrap_or_else(|| {
                            panic!(
                                "{ctx}: index {i} cascade={cascade} dismissed the boundary answer"
                            )
                        });
                        assert_eq!(
                            hit.dist, BOUNDARY_EPS,
                            "{ctx}: index {i} boundary distance not exact"
                        );
                    } else {
                        assert!(
                            hit.is_none(),
                            "{ctx}: index {i} cascade={cascade} kept a match beyond epsilon"
                        );
                    }
                    answer_sets.push(ans.occurrence_set());
                }
            }
            // Sequential-scan ground truth, all three modes.
            for mode in [
                SeqScanMode::Full,
                SeqScanMode::EarlyAbandon,
                SeqScanMode::Cascade,
            ] {
                let mut stats = SearchStats::default();
                let scan = seq_scan(&store, &q, &base, mode, &mut stats);
                assert_eq!(
                    scan.matches().iter().any(|m| m.occ == boundary_occ()),
                    expect_boundary,
                    "{ctx}: seq_scan {mode:?} disagrees on the boundary answer"
                );
                answer_sets.push(scan.occurrence_set());
            }
            // Every path returned the same occurrence set.
            for (i, s) in answer_sets.iter().enumerate() {
                assert_eq!(s, &answer_sets[0], "{ctx}: path {i} diverges from path 0");
            }
        }
    }
}

/// A corpus for the wide-band case: integer values only (every sum is
/// exact in f64), long runs of 3 that end in a 5. Against the query
/// `3 × 11, 7` the subsequence `3 × k, 5` costs exactly `|7 − 5| = 2`
/// for every `k + 1` inside the band — each start inside a run carries
/// one answer planted exactly on ε = 2 among a full band's worth of
/// candidate lengths.
fn wide_band_store() -> SequenceStore {
    let run = |k: usize, tail: &[f64]| {
        let mut v = vec![40.0];
        v.extend(std::iter::repeat_n(3.0, k));
        v.extend_from_slice(tail);
        v
    };
    SequenceStore::from_values(vec![
        run(20, &[5.0, 40.0, 40.0, 3.0, 3.0]),
        vec![30.0, 31.0, 29.0, 30.0, 32.0, 30.0, 28.0, 30.0, 30.0, 31.0],
        run(14, &[5.0, 3.0, 3.0, 3.0, 6.0, 40.0]),
        run(24, &[4.0, 5.0, 9.0]),
        vec![3.0, 3.0, 3.0, 5.0, 3.0, 3.0, 3.0, 3.0, 5.0, 5.0, 7.0, 40.0],
        run(9, &[7.0, 7.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 5.0]),
    ])
}

const WIDE_WINDOW: u32 = 8;

fn wide_band_query() -> Vec<f64> {
    let mut q = vec![3.0; 11];
    q.push(7.0);
    q
}

/// The warping window the benchmark's broad workload uses (w = 8) with
/// groups of ten and more candidate lengths, one of them planted
/// exactly on ε: cascade on and off, 1 and 8 threads, one tree and a
/// 3-segment directory all return the sequential scan's answers, bit
/// for bit, with identical funnels — and one ulp below ε the planted
/// answers are gone from every path.
#[test]
fn wide_window_groups_with_answers_planted_on_epsilon() {
    let store = wide_band_store();
    let q = wide_band_query();
    let cat = Categorization::EqualLength(4);
    let planted = Occurrence::new(SeqId(0), 5, 17); // 3 × 16, then the 5

    // One in-memory sparse tree.
    let alphabet = cat.alphabet(&store).unwrap();
    let encoded = Arc::new(alphabet.encode_store(&store));
    let tree = build_sparse(encoded);
    // The same corpus as base + two appended segments.
    let seg = tmpdir("wide-seg");
    let part = |range: std::ops::Range<usize>| {
        let mut out = SequenceStore::new();
        for id in range {
            out.push(store.get(SeqId(id as u32)).clone());
        }
        out
    };
    build_index_dir(&part(0..2), cat, true, 2, &seg).unwrap();
    warptree::append_index_dir(&seg, &part(2..4)).unwrap();
    warptree::append_index_dir(&seg, &part(4..6)).unwrap();
    let seg_idx = open_index_dir(&seg, 64).unwrap();
    assert_eq!(seg_idx.segment_count(), 3);

    // The filter really hands post-processing wide groups.
    let base = SearchParams::with_epsilon(2.0).windowed(WIDE_WINDOW);
    let groups =
        warptree::core::search::filter_tree(&tree, &alphabet, &q, &base, &SearchMetrics::new());
    let wide = groups.iter().filter(|(_, lens)| lens.len() >= 10).count();
    assert!(wide >= 10, "only {wide} groups with ≥ 10 candidate lengths");

    for (eps, expect_planted) in [(2.0, true), (next_down(2.0), false)] {
        let base = SearchParams::with_epsilon(eps).windowed(WIDE_WINDOW);
        let mut stats = SearchStats::default();
        let mut truth = seq_scan(&store, &q, &base, SeqScanMode::Full, &mut stats);
        truth.sort();
        assert_eq!(
            truth.matches().iter().any(|m| m.occ == planted),
            expect_planted,
            "eps={eps}: ground truth"
        );
        if expect_planted {
            let on_eps = truth.matches().iter().filter(|m| m.dist == 2.0).count();
            assert!(on_eps >= 10, "only {on_eps} answers sit exactly on ε");
        }
        let mut funnels = Vec::new();
        for t in THREADS {
            for cascade in [true, false] {
                let params = base.clone().parallel(t).cascaded(cascade);
                let ctx = format!("eps={eps} t={t} cascade={cascade}");
                let m = SearchMetrics::new();
                let mut mono = run_query_with(
                    &tree,
                    &alphabet,
                    &store,
                    &QueryRequest::threshold_params(&q, params.clone()),
                    &m,
                )
                .unwrap()
                .into_answer_set();
                let (out, seg_stats) = seg_idx
                    .query(&QueryRequest::threshold_params(&q, params))
                    .unwrap();
                let mut segd = out.into_answer_set();
                mono.sort();
                segd.sort();
                assert_eq!(mono.matches(), truth.matches(), "{ctx}: tree vs seq_scan");
                assert_eq!(
                    segd.matches(),
                    truth.matches(),
                    "{ctx}: segments vs seq_scan"
                );
                funnels.push((cascade, m.snapshot(), seg_stats, ctx));
            }
        }
        // Per layout: on vs off differ in the cascade's own counters
        // only, and neither moves with the thread count.
        for (cascade, mono, segd, ctx) in &funnels {
            let (_, mono_ref, seg_ref, _) = funnels.iter().find(|f| f.0 == *cascade).unwrap();
            assert_eq!(mono, mono_ref, "{ctx}: tree funnel moved with threads");
            assert_eq!(segd, seg_ref, "{ctx}: segment funnel moved with threads");
            if *cascade {
                let (_, mono_off, seg_off, _) = funnels.iter().find(|f| !f.0).unwrap();
                assert_stats_equal_modulo_cascade(mono, mono_off, ctx);
                assert_stats_equal_modulo_cascade(segd, seg_off, ctx);
                assert!(
                    mono.cascade_lb_keogh_kills + mono.cascade_abandon_kills > 0,
                    "{ctx}: the cascade never fired"
                );
            }
        }
    }
    std::fs::remove_dir_all(&seg).unwrap();
}
