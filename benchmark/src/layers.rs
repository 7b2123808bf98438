//! Layer probes of the traced run that no timed pass exercises:
//! baselines (`seq_scan`, k-NN, 2 threads), the cascade switched off,
//! the bare DTW kernel, the build stages one by one, and the ESA
//! backend on the same queries. Each runs on the oracle subsample of
//! the workload's own query list, against the index the run measured.

use std::sync::Arc;
use std::time::Instant;

use warptree::core::dtw::dtw;
use warptree::core::search::{
    filter_tree, postprocess, seq_scan, QueryRequest, SearchMetrics, SearchParams, SearchStats,
    SeqScanMode,
};
use warptree::core::sequence::SequenceStore;
use warptree::prelude::{BackendKind, Categorization, DiskIndexDir};

use crate::common::{
    build_index, digest, ms_since, open_index, ratio, resident_bytes, SERVE_CACHE_PAGES,
};
use crate::inputs::CATEGORIES;
use crate::report::Outcome;
use crate::stats::median;
use crate::tmp::TempRoot;

/// Repetitions of each build-stage probe; the median is reported.
const BUILD_REPS: usize = 3;
/// Neighbours asked of the k-NN baseline.
const KNN_K: usize = 10;

fn time_each(sample: &[Vec<f64>], mut f: impl FnMut(&[f64])) -> Vec<f64> {
    sample
        .iter()
        .map(|q| {
            let t = Instant::now();
            f(q);
            ms_since(t)
        })
        .collect()
}

fn median_ms(mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&v)
}

fn index_ms(idx: &DiskIndexDir, sample: &[Vec<f64>], params: &SearchParams) -> Vec<f64> {
    time_each(sample, |q| {
        let r = idx.query(&QueryRequest::threshold_params(q, params.clone()));
        std::hint::black_box(r.expect("generated queries are valid"));
    })
}

/// Baselines and kernels on the query subsample: `core.seqscan.*`,
/// `core.knn.ms_p50`, `core.parallel.speedup_2t`,
/// `core.cascade.on_off_time_ratio`, `core.dtw.ns_per_cell`.
pub fn query_layers(
    idx: &DiskIndexDir,
    sample: &[Vec<f64>],
    params: &SearchParams,
    out: &mut Outcome,
) {
    let one = index_ms(idx, sample, params);
    let scan = time_each(sample, |q| {
        let mut stats = SearchStats::default();
        std::hint::black_box(seq_scan(
            &idx.store,
            q,
            params,
            SeqScanMode::Cascade,
            &mut stats,
        ));
    });
    out.set("core.seqscan.ms_p50", median(&scan));
    out.set(
        "core.seqscan.index_time_ratio",
        ratio(median(&one), median(&scan)),
    );

    let knn = time_each(sample, |q| {
        std::hint::black_box(idx.query(&QueryRequest::knn(q, KNN_K)).expect("valid k-NN"));
    });
    out.set("core.knn.ms_p50", median(&knn));

    let two = index_ms(idx, sample, &params.clone().parallel(2));
    out.set(
        "core.parallel.speedup_2t",
        ratio(one.iter().sum(), two.iter().sum()),
    );

    // The same candidate lists verified with the cascade on and off.
    let (mut on_ms, mut off_ms) = (0.0, 0.0);
    for q in sample {
        let metrics = SearchMetrics::new();
        let candidates = filter_tree(&idx.tree, &idx.alphabet, q, params, &metrics);
        for (cascade, total) in [(true, &mut on_ms), (false, &mut off_ms)] {
            let p = params.clone().cascaded(cascade);
            let t = Instant::now();
            std::hint::black_box(postprocess(&idx.store, q, &candidates, &p, &metrics));
            *total += ms_since(t);
        }
    }
    out.set("core.cascade.on_off_time_ratio", ratio(on_ms, off_ms));

    // The exact kernel alone: each query against the head of every
    // eighth sequence, at twice the query's length.
    let (mut cells, t) = (0u64, Instant::now());
    for q in sample {
        for (_, s) in idx.store.iter().step_by(8) {
            let b = &s.values()[..s.len().min(2 * q.len())];
            std::hint::black_box(dtw(q, b));
            cells += (q.len() * b.len()) as u64;
        }
    }
    out.set(
        "core.dtw.ns_per_cell",
        ratio(ms_since(t) * 1e6, cells as f64),
    );
}

/// The build stages one by one (`core.categorize.encode_ms`,
/// `suffix.build_ms`, `esa.build_ms`) and the ESA backend raced against
/// the measured index on the subsample (`esa.query_time_ratio`,
/// `esa.resident_ratio`). Returns the number of ESA answers that
/// differ from the tree's.
pub fn build_layers(
    store: &SequenceStore,
    idx: &DiskIndexDir,
    sample: &[Vec<f64>],
    params: &SearchParams,
    tmp: &mut TempRoot,
    out: &mut Outcome,
) -> u64 {
    let cat = Categorization::MaxEntropy(CATEGORIES);
    out.set(
        "core.categorize.encode_ms",
        median_ms(|| {
            let alphabet = cat.alphabet(store).expect("generated corpus categorizes");
            std::hint::black_box(alphabet.encode_store(store));
        }),
    );
    let alphabet = cat.alphabet(store).expect("generated corpus categorizes");
    let encoded = Arc::new(alphabet.encode_store(store));
    out.set(
        "suffix.build_ms",
        median_ms(|| {
            std::hint::black_box(warptree::suffix::build_sparse(encoded.clone()));
        }),
    );
    out.set(
        "esa.build_ms",
        median_ms(|| {
            std::hint::black_box(warptree_esa::EsaIndex::build(encoded.clone(), true));
        }),
    );

    let dir = tmp.fresh();
    build_index(store, BackendKind::Esa, &dir);
    let (esa, _) = open_index(&dir, SERVE_CACHE_PAGES);
    let mut differ = 0;
    for q in sample {
        let req = QueryRequest::threshold_params(q, params.clone());
        let a = idx.query(&req).expect("valid query").0;
        let b = esa.query(&req).expect("valid query").0;
        if digest(a.matches()) != digest(b.matches()) {
            differ += 1;
        }
    }
    let tree_ms = index_ms(idx, sample, params);
    let esa_ms = index_ms(&esa, sample, params);
    out.set(
        "esa.query_time_ratio",
        ratio(esa_ms.iter().sum(), tree_ms.iter().sum()),
    );
    out.set(
        "esa.resident_ratio",
        ratio(resident_bytes(&esa) as f64, resident_bytes(idx) as f64),
    );
    differ
}
