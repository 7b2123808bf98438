//! The cascade (LB_Keogh → LB_Improved → early abandon) changes work,
//! never answers: cascade off against the cascade-on reference over the
//! branch-rich corpus, and the corpora with answers planted exactly on ε.
//! Harness in `tests/matrix/mod.rs`.

mod matrix;

use matrix::*;
use warptree::prelude::*;

/// The Max-Entropy index every branch-rich test starts from.
const ME: Config = Config {
    cat: Cat::MaxEntropy,
    ..BASE
};

/// Full and sparse in-memory trees at 1 and 8 threads, cascade on and off.
fn on_or_off(base: Config) -> Sweep {
    Sweep::of(base)
        .vary(&[false, true], |c, v| c.sparse = v)
        .vary(&[1, 8], |c, v| c.threads = v)
        .vary(&[true, false], |c, v| c.cascade = v)
}

/// Threshold searches of the in-memory tree, windowed or not.
#[test]
fn search_identical_cascade_on_or_off_in_memory() {
    let sweep = on_or_off(ME).vary(&[false, true], |c, v| c.window = v);
    branch_lab().pinned(sweep);
}

/// k-NN rankings, for k of 1 and 5, overlaps allowed or not.
#[test]
fn knn_identical_cascade_on_or_off() {
    branch_lab().pinned(on_or_off(ME).vary(&KNN, |c, v| c.kind = v));
}

/// Three segments and their compacted fold, cascade on and off, against
/// the monolithic reference with the cascade on.
#[test]
fn segment_layouts_agree_cascade_on_or_off() {
    let disk = Config {
        backend: Backend::DiskTree,
        sparse: true,
        ..ME
    };
    let sweep = Sweep::of(disk)
        .vary(&[Layout::Segments3, Layout::Compacted], |c, v| c.layout = v)
        .vary(&[1, 8], |c, v| c.threads = v)
        .vary(&[true, false], |c, v| c.cascade = v);
    branch_lab().pinned(sweep);
}

/// `explain`'s stats, kill counters included, match the reference on
/// every backend; a tight ε kills candidates and the report names every
/// kill counter.
#[test]
fn explain_reports_cascade_kills() {
    let lab = branch_lab();
    let backends = [Backend::Memory, Backend::DiskTree, Backend::DiskEsa];
    let explain = Config {
        sparse: true,
        kind: Kind::Explain,
        ..ME
    };
    let sweep = Sweep::of(explain)
        .vary(&backends, |c, v| c.backend = v)
        .vary(&[true, false], |c, v| c.cascade = v);
    lab.pinned(sweep);
    let index = Index::sparse(&lab.corpus.store, Categorization::MaxEntropy(6)).unwrap();
    let (q, epsilon) = &lab.corpus.queries[0];
    let params = SearchParams::with_epsilon(*epsilon);
    let (_, report) = ExplainReport::for_index(&index, q, &params).unwrap();
    let s = &report.stats;
    let kills = s.cascade_lb_keogh_kills + s.cascade_lb_improved_kills + s.cascade_abandon_kills;
    assert!(kills > 0, "a tight ε killed nothing: {s:?}");
    let json = report.to_json();
    for key in [
        "cascade",
        "lb_keogh_kills",
        "lb_improved_kills",
        "abandon_kills",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "explain lost {key}: {json}"
        );
    }
}

/// A true answer at exactly ε is an answer (`dist ≤ ε`) in every
/// configuration and every scan mode; one ulp below it is in none. Every
/// cascade tier kills only on `lb > ε`, so a `≥` kill fails here.
#[test]
fn answers_exactly_on_epsilon_are_kept_everywhere() {
    let lab = Lab::new(boundary_store());
    lab.matrix();
    let trees = [
        (false, Cat::Exact),
        (false, Cat::EqualLength),
        (true, Cat::MaxEntropy),
    ];
    let sweep = Sweep::of(BASE)
        .vary(&trees, |c, (sparse, cat)| (c.sparse, c.cat) = (sparse, cat))
        .vary(&[true, false], |c, v| c.cascade = v)
        .vary(&[false, true], |c, v| c.window = v);
    lab.pinned(sweep);
    let corpus = &lab.corpus;
    let planted = Occurrence::new(SeqId(2), 1, 3);
    let q = &corpus.queries[0].0;
    let modes = [
        SeqScanMode::Full,
        SeqScanMode::EarlyAbandon,
        SeqScanMode::Cascade,
    ];
    for (epsilon, kept) in [(2.0, true), (next_down(2.0), false)] {
        for window in [None, Some(corpus.window)] {
            let mut params = SearchParams::with_epsilon(epsilon);
            params.window = window;
            let answers: Vec<Vec<Match>> = modes
                .map(|mode| {
                    let mut stats = SearchStats::default();
                    let mut scan = seq_scan(&corpus.store, q, &params, mode, &mut stats);
                    scan.sort();
                    scan.matches().to_vec()
                })
                .to_vec();
            let ctx = format!("eps={epsilon} window={window:?}");
            assert!(answers.iter().all(|a| a == &answers[0]), "{ctx}: modes");
            let hit = answers[0].iter().find(|m| m.occ == planted);
            assert_eq!(hit.map(|m| m.dist), kept.then_some(2.0), "{ctx}");
        }
    }
}

/// The broad workload's window with groups of ten and more candidate
/// lengths and at least ten answers on exactly ε: one tree and three
/// segments, at 1 and 8 threads, cascade on and off, and a cascade that
/// fires.
#[test]
fn wide_window_groups_with_answers_planted_on_epsilon() {
    let lab = Lab::new(wide_band_store());
    lab.matrix();
    let cfg = Config {
        sparse: true,
        cat: Cat::EqualLength,
        window: true,
        ..BASE
    };
    let layouts = [
        (Backend::Memory, Layout::Mono),
        (Backend::DiskTree, Layout::Segments3),
    ];
    let sweep = Sweep::of(cfg)
        .vary(&layouts, |c, (b, l)| (c.backend, c.layout) = (b, l))
        .vary(&[1, 8], |c, v| c.threads = v)
        .vary(&[true, false], |c, v| c.cascade = v);
    lab.pinned(sweep);
    let outcomes = lab.check(cfg);
    let wide = outcomes[0].groups.iter().filter(|g| g.1.len() >= 10);
    assert!(
        wide.count() >= 10,
        "too few groups of ≥ 10 candidate lengths"
    );
    let on_epsilon = outcomes[0].matches.iter().filter(|m| m.dist == 2.0);
    assert!(on_epsilon.count() >= 10, "too few answers exactly on ε");
    assert!(outcomes[1].matches.iter().all(|m| m.dist < 2.0));
    for s in outcomes.iter().map(|o| o.stats) {
        let kills = s.cascade_lb_keogh_kills + s.cascade_abandon_kills;
        assert!(kills > 0, "the cascade never fired: {s:?}");
    }
}
