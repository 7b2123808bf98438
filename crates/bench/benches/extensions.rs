//! Benchmarks of the extension features: k-NN search, multivariate
//! search, warping-path extraction, and index appends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use warptree_bench::{build_index, IndexKind, Method};
use warptree_core::dtw_path::dtw_with_path;
use warptree_core::multivariate::{mv_sim_search, GridAlphabet, MvSequence, MvStore};
use warptree_core::search::{run_query, KnnParams, QueryRequest, SearchParams};
use warptree_data::{stock_corpus, StockConfig};

fn bench_knn(c: &mut Criterion) {
    let store = stock_corpus(&StockConfig {
        sequences: 60,
        mean_len: 80,
        ..Default::default()
    });
    let built = build_index(&store, IndexKind::Sparse, Method::Me, 40);
    let q = store
        .get(warptree_core::sequence::SeqId(7))
        .subseq(10, 14)
        .to_vec();
    let mut g = c.benchmark_group("knn");
    g.sample_size(20);
    for k in [1usize, 10, 50] {
        g.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            let req = QueryRequest::knn_params(&q, KnnParams::new(k));
            b.iter(|| {
                black_box(run_query(&built.tree, &built.alphabet, &store, black_box(&req)).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_multivariate(c: &mut Criterion) {
    // 2-D trajectories from paired stock series.
    let raw = stock_corpus(&StockConfig {
        sequences: 40,
        mean_len: 80,
        ..Default::default()
    });
    let mut store = MvStore::new();
    for i in (0..40).step_by(2) {
        let a = raw.get(warptree_core::sequence::SeqId(i)).values();
        let b = raw.get(warptree_core::sequence::SeqId(i + 1)).values();
        let n = a.len().min(b.len());
        let data: Vec<f64> = (0..n).flat_map(|j| [a[j], b[j]]).collect();
        store.push(MvSequence::new(2, data));
    }
    let grid = GridAlphabet::max_entropy(store.seqs(), 8).unwrap();
    let cat = Arc::new(store.encode(&grid));
    let tree = warptree_suffix::build_sparse(cat);
    let query = {
        let s = store.get(warptree_core::sequence::SeqId(3));
        MvSequence::new(2, (5..15).flat_map(|i| s.point(i).to_vec()).collect())
    };
    let params = SearchParams::with_epsilon(10.0);
    let mut g = c.benchmark_group("multivariate");
    g.sample_size(20);
    g.bench_function("mv_sim_search_2d", |b| {
        b.iter(|| {
            black_box(mv_sim_search(
                &tree,
                &grid,
                &store,
                black_box(&query),
                &params,
            ))
        })
    });
    g.finish();
}

fn bench_path_and_append(c: &mut Criterion) {
    let store = stock_corpus(&StockConfig {
        sequences: 2,
        mean_len: 256,
        ..Default::default()
    });
    let a = store.get(warptree_core::sequence::SeqId(0)).values();
    let b = store.get(warptree_core::sequence::SeqId(1)).values();
    let mut g = c.benchmark_group("alignment");
    g.bench_function("dtw_with_path_256", |bch| {
        bch.iter(|| black_box(dtw_with_path(black_box(a), black_box(b))))
    });
    g.finish();

    // Append throughput: add 4 sequences to a 40-sequence index.
    let base = stock_corpus(&StockConfig {
        sequences: 40,
        mean_len: 60,
        ..Default::default()
    });
    let extra = stock_corpus(&StockConfig {
        sequences: 4,
        mean_len: 60,
        seed: 99,
        ..Default::default()
    });
    let alphabet = warptree_core::categorize::Alphabet::max_entropy(&base, 20).unwrap();
    let mut g = c.benchmark_group("append");
    g.sample_size(10);
    g.bench_function("append_4_to_40", |bch| {
        bch.iter_with_setup(
            || {
                let dir = std::env::temp_dir().join(format!(
                    "warptree-bench-append-{}-{}",
                    std::process::id(),
                    rand::random::<u64>()
                ));
                warptree_disk::build_dir_with(
                    warptree_disk::real_vfs(),
                    &base,
                    &alphabet,
                    warptree_disk::TreeKind::Sparse,
                    base.len(),
                    1,
                    None,
                    &dir,
                )
                .unwrap();
                dir
            },
            |dir| {
                black_box(warptree_disk::append_segment(&dir, &extra).unwrap());
                std::fs::remove_dir_all(&dir).unwrap();
            },
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_knn,
    bench_multivariate,
    bench_path_and_append,
    bench_applications
);
criterion_main!(benches);

fn bench_applications(c: &mut Criterion) {
    use warptree_core::cluster::cluster_matches;
    use warptree_core::predict::{forecast, Weighting};

    let store = stock_corpus(&StockConfig {
        sequences: 80,
        mean_len: 100,
        ..Default::default()
    });
    let built = build_index(&store, IndexKind::Sparse, Method::Me, 40);
    let q = store
        .get(warptree_core::sequence::SeqId(5))
        .subseq(20, 12)
        .to_vec();
    let params = SearchParams::with_epsilon(8.0);
    let (answers, _) = run_query(
        &built.tree,
        &built.alphabet,
        &store,
        &QueryRequest::threshold_params(&q, params),
    )
    .unwrap();
    let answers = answers.into_answer_set();
    let episodes: Vec<warptree_core::search::Match> =
        answers.non_overlapping().into_iter().take(30).collect();

    let mut g = c.benchmark_group("applications");
    g.sample_size(20);
    g.bench_function("cluster_30_episodes_k3", |b| {
        b.iter(|| black_box(cluster_matches(&store, &episodes, 3, 20)))
    });
    g.bench_function("forecast_30_episodes_h5", |b| {
        b.iter(|| {
            black_box(forecast(
                &store,
                &episodes,
                5,
                Weighting::InverseDistance { lambda: 0.5 },
            ))
        })
    });
    g.finish();

    // Motif mining over a full tree.
    let full = build_index(&store, IndexKind::Full, Method::Me, 12);
    let mut g = c.benchmark_group("mining");
    g.sample_size(10);
    g.bench_function("top_motifs_len8_k10", |b| {
        b.iter(|| black_box(warptree_suffix::top_motifs(&full.tree, 8, 10)))
    });
    g.bench_function("longest_repeated", |b| {
        b.iter(|| black_box(warptree_suffix::longest_repeated(&full.tree, 2)))
    });
    g.finish();
}
