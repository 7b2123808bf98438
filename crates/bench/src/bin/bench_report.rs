//! `bench_report` — the perf-trajectory snapshot. Runs the Table-1/2
//! workload (stock corpus, stratified ~20-element queries, ME
//! categorization swept over category counts) through SeqScan and both
//! tree variants, and writes one machine-readable `BENCH_search.json`
//! with latency percentiles and the filter-funnel counters.
//!
//! Committing the file after a perf-relevant change gives the repo a
//! diffable trajectory: reviewers compare p50/p95 and candidate ratios
//! across commits instead of rerunning the whole suite.
//!
//! ```text
//! cargo run --release -p warptree-bench --bin bench_report -- \
//!     [--full] [--out BENCH_search.json]
//! ```

use std::sync::Arc;
use std::time::Instant;
use warptree_bench::{banner, build_index, IndexKind, Method, Scale};
use warptree_core::categorize::Alphabet;
use warptree_core::search::{
    run_query_with, seq_scan, BackendKind, QueryRequest, SearchMetrics, SearchParams, SearchStats,
    SeqScanMode,
};
use warptree_obs::json::num;
use warptree_obs::HistogramSnapshot;

/// One measured workload row, ready to serialize.
struct Row {
    strategy: &'static str,
    categories: Option<usize>,
    /// Worker subthreads per query (1 = sequential execution).
    threads: u32,
    /// Whether the lower-bound cascade screened candidates ahead of the
    /// exact tables (for SeqScan: [`SeqScanMode::Cascade`] vs
    /// early-abandon). Ablation pairs differ only in this flag.
    cascade: bool,
    latencies: Vec<f64>,
    answers: u64,
    stats: SearchStats,
    /// Per-stage wall-time breakdown (filter vs. postprocess), from
    /// the `SearchMetrics` phase histograms. `None` for SeqScan, which
    /// has no funnel stages.
    stages: Option<(HistogramSnapshot, HistogramSnapshot)>,
}

/// Renders one phase histogram as `{"p50_us":…,"p95_us":…,"mean_us":…}`
/// (values recorded in ns, reported in µs).
fn stage_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"p50_us\":{},\"p95_us\":{},\"mean_us\":{}}}",
        num(h.quantile(0.50) as f64 / 1e3),
        num(h.quantile(0.95) as f64 / 1e3),
        num(h.mean() / 1e3),
    )
}

impl Row {
    fn quantile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[idx]
    }

    fn to_json(&self, queries: u64) -> String {
        let n = queries.max(1) as f64;
        let mean_ms = 1e3 * self.latencies.iter().sum::<f64>() / n;
        // Filter selectivity: exact-DTW checks per reported answer. 1.0
        // is a perfect filter; SeqScan's value is the worst case.
        let candidate_ratio = self.stats.postprocessed as f64 / self.answers.max(1) as f64;
        let s = &self.stats;
        format!(
            concat!(
                "{{\"strategy\":\"{}\",\"categories\":{},\"threads\":{},",
                "\"cascade\":{},",
                "\"latency_ms\":{{\"p50\":{},\"p95\":{},\"mean\":{}}},",
                "\"answers_per_query\":{},\"candidates_per_query\":{},",
                "\"candidate_ratio\":{},\"stages\":{},",
                "\"counters\":{{\"nodes_visited\":{},\"branches_pruned\":{},",
                "\"candidates\":{},\"false_alarms\":{},",
                "\"filter_cells\":{},\"postprocess_cells\":{},",
                "\"rows_pushed\":{},\"rows_unshared\":{},",
                "\"cascade_lb_keogh_kills\":{},\"cascade_lb_improved_kills\":{},",
                "\"cascade_abandon_kills\":{}}}}}"
            ),
            self.strategy,
            match self.categories {
                Some(c) => c.to_string(),
                None => "null".into(),
            },
            self.threads,
            self.cascade,
            num(1e3 * self.quantile(0.5)),
            num(1e3 * self.quantile(0.95)),
            num(mean_ms),
            num(self.answers as f64 / n),
            num(s.postprocessed as f64 / n),
            num(candidate_ratio),
            match &self.stages {
                Some((filter, post)) => format!(
                    "{{\"filter\":{},\"postprocess\":{}}}",
                    stage_json(filter),
                    stage_json(post)
                ),
                None => "null".into(),
            },
            s.nodes_visited,
            s.branches_pruned,
            s.candidates,
            s.false_alarms,
            s.filter_cells,
            s.postprocess_cells,
            s.rows_pushed,
            s.rows_unshared,
            s.cascade_lb_keogh_kills,
            s.cascade_lb_improved_kills,
            s.cascade_abandon_kills,
        )
    }
}

fn main() {
    let scale = Scale::from_args();
    banner("Perf-trajectory report (BENCH_search.json)", scale);
    let out = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2)
            .find(|w| w[0] == "--out")
            .map(|w| w[1].clone())
            .unwrap_or_else(|| "BENCH_search.json".into())
    };
    let store = scale.stock();
    let queries = scale.queries(&store);
    let epsilon = match scale {
        Scale::Quick => 10.0,
        Scale::Full => 20.0,
    };
    let params = SearchParams::with_epsilon(epsilon);
    let mut rows: Vec<Row> = Vec::new();

    // SeqScan baselines: early-abandon (cascade=false) and the
    // envelope-cascaded scan (cascade=true) — same answers, fewer rows.
    for (mode, cascade) in [
        (SeqScanMode::EarlyAbandon, false),
        (SeqScanMode::Cascade, true),
    ] {
        let mut row = Row {
            strategy: "seqscan",
            categories: None,
            threads: 1,
            cascade,
            latencies: Vec::new(),
            answers: 0,
            stats: SearchStats::default(),
            stages: None,
        };
        for q in queries.queries() {
            let mut stats = SearchStats::default();
            let t0 = Instant::now();
            let answers = seq_scan(&store, &q.values, &params, mode, &mut stats);
            row.latencies.push(t0.elapsed().as_secs_f64());
            row.answers += answers.len() as u64;
            row.stats.merge(&stats);
        }
        row.latencies.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{:>8} {:>5} | p50 {:>8.3} ms | p95 {:>8.3} ms | cascade {}",
            row.strategy,
            "-",
            1e3 * row.quantile(0.5),
            1e3 * row.quantile(0.95),
            cascade
        );
        rows.push(row);
    }

    for cats in scale.category_counts() {
        for (kind, strategy) in [(IndexKind::Full, "full"), (IndexKind::Sparse, "sparse")] {
            let built = build_index(&store, kind, Method::Me, cats);
            // Ablation pair: the same workload with the lower-bound
            // cascade on and off. Answers must agree exactly (the
            // cascade is provably no-false-dismissal); the off row
            // prices the false-alarm tax the cascade removes.
            let mut pair_answers = [0u64; 2];
            for (slot, cascade) in [(0usize, true), (1, false)] {
                // One metrics handle for the whole workload: the
                // snapshot is the per-workload aggregate of every
                // funnel counter.
                let metrics = SearchMetrics::new();
                let mut row = Row {
                    strategy,
                    categories: Some(cats),
                    threads: 1,
                    cascade,
                    latencies: Vec::new(),
                    answers: 0,
                    stats: SearchStats::default(),
                    stages: None,
                };
                let cp = params.clone().cascaded(cascade);
                for q in queries.queries() {
                    let req = QueryRequest::threshold_params(&q.values, cp.clone());
                    let t0 = Instant::now();
                    let answers =
                        run_query_with(&built.tree, &built.alphabet, &store, &req, &metrics)
                            .unwrap()
                            .into_answer_set();
                    row.latencies.push(t0.elapsed().as_secs_f64());
                    row.answers += answers.len() as u64;
                }
                row.stats = metrics.snapshot();
                row.stages = Some((
                    metrics.filter_ns.snapshot(),
                    metrics.postprocess_ns.snapshot(),
                ));
                row.latencies.sort_by(|a, b| a.total_cmp(b));
                println!(
                    "{:>8} {:>5} | p50 {:>8.3} ms | p95 {:>8.3} ms | {:>6.1} checks/answer | cascade {}",
                    row.strategy,
                    cats,
                    1e3 * row.quantile(0.5),
                    1e3 * row.quantile(0.95),
                    row.stats.postprocessed as f64 / row.answers.max(1) as f64,
                    cascade
                );
                pair_answers[slot] = row.answers;
                rows.push(row);
            }
            assert_eq!(
                pair_answers[0], pair_answers[1],
                "cascade changed the answer count ({strategy}, {cats} categories)"
            );
        }
    }

    // Parallel-execution trajectory: the same workload on the best
    // category count, threads=1 vs threads=N. Answers (and every
    // deterministic counter) are byte-identical across rows; only the
    // latency columns should move.
    {
        let cats = *scale
            .category_counts()
            .last()
            .expect("non-empty category sweep");
        // At least 4 worker subthreads even on small machines, so the
        // committed trajectory always carries a real fan-out row.
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(4, 8) as u32;
        let built = build_index(&store, IndexKind::Sparse, Method::Me, cats);
        for threads in [1, par] {
            let tp = params.clone().parallel(threads);
            let metrics = SearchMetrics::new();
            let mut row = Row {
                strategy: "sparse",
                categories: Some(cats),
                threads,
                cascade: true,
                latencies: Vec::new(),
                answers: 0,
                stats: SearchStats::default(),
                stages: None,
            };
            for q in queries.queries() {
                let req = QueryRequest::threshold_params(&q.values, tp.clone());
                let t0 = Instant::now();
                let answers = run_query_with(&built.tree, &built.alphabet, &store, &req, &metrics)
                    .unwrap()
                    .into_answer_set();
                row.latencies.push(t0.elapsed().as_secs_f64());
                row.answers += answers.len() as u64;
            }
            row.stats = metrics.snapshot();
            row.stages = Some((
                metrics.filter_ns.snapshot(),
                metrics.postprocess_ns.snapshot(),
            ));
            row.latencies.sort_by(|a, b| a.total_cmp(b));
            println!(
                "{:>8} {:>5} | p50 {:>8.3} ms | p95 {:>8.3} ms | threads {}",
                row.strategy,
                cats,
                1e3 * row.quantile(0.5),
                1e3 * row.quantile(0.95),
                threads
            );
            rows.push(row);
        }
    }

    // Backend race: the same 10-category sparse workload built as a
    // disk-resident suffix tree vs. an enhanced suffix array. Answers
    // are byte-identical (the equivalence suite proves it); these rows
    // price the difference — build time, resident index bytes, and
    // query latency — and gate the ESA's memory claim: its resident
    // footprint must stay at or below half the tree's.
    let race_rows: Vec<String> = {
        let cats = 10usize;
        let alphabet = Alphabet::max_entropy(&store, cats).expect("alphabet");
        let cat = Arc::new(alphabet.encode_store(&store));
        let mut resident = [0u64; 2];
        let mut out = Vec::new();
        for (slot, backend) in [BackendKind::Tree, BackendKind::Esa]
            .into_iter()
            .enumerate()
        {
            let dir = std::env::temp_dir().join(format!(
                "warptree-bkrace-{}-{}",
                std::process::id(),
                backend.as_str()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("race dir");
            let t0 = Instant::now();
            warptree_disk::build_dir_backend_with(
                warptree_disk::real_vfs(),
                &store,
                &alphabet,
                warptree_disk::TreeKind::Sparse,
                64,
                1,
                None,
                backend,
                &dir,
            )
            .expect("race build");
            let build_secs = t0.elapsed().as_secs_f64();
            let resolved =
                warptree_disk::resolve_dir_with(&warptree_disk::RealVfs, &dir).expect("resolve");
            let index = warptree_disk::AnyIndex::open_with(
                &warptree_disk::RealVfs,
                &resolved.index_path,
                cat.clone(),
                backend,
                64,
                512,
            )
            .expect("race open");
            let file_bytes = std::fs::metadata(&resolved.index_path).expect("stat").len();
            let metrics = SearchMetrics::new();
            let mut latencies = Vec::new();
            let mut answers = 0u64;
            for q in queries.queries() {
                let req = QueryRequest::threshold_params(&q.values, params.clone());
                let t0 = Instant::now();
                let got = run_query_with(&index, &alphabet, &store, &req, &metrics)
                    .unwrap()
                    .into_answer_set();
                latencies.push(t0.elapsed().as_secs_f64());
                answers += got.len() as u64;
            }
            latencies.sort_by(|a, b| a.total_cmp(b));
            let quantile =
                |q: f64| -> f64 { latencies[((latencies.len() - 1) as f64 * q).round() as usize] };
            resident[slot] = index.resident_bytes();
            println!(
                "{:>8} {:>5} | p50 {:>8.3} ms | p95 {:>8.3} ms | build {:>6.1} ms | resident {} KiB",
                backend.as_str(),
                cats,
                1e3 * quantile(0.5),
                1e3 * quantile(0.95),
                1e3 * build_secs,
                resident[slot] / 1024,
            );
            out.push(format!(
                concat!(
                    "{{\"backend\":\"{}\",\"categories\":{},",
                    "\"build_ms\":{},\"resident_bytes\":{},\"file_bytes\":{},",
                    "\"latency_ms\":{{\"p50\":{},\"p95\":{},\"mean\":{}}},",
                    "\"answers_per_query\":{}}}"
                ),
                backend.as_str(),
                cats,
                num(1e3 * build_secs),
                resident[slot],
                file_bytes,
                num(1e3 * quantile(0.5)),
                num(1e3 * quantile(0.95)),
                num(1e3 * latencies.iter().sum::<f64>() / latencies.len().max(1) as f64),
                num(answers as f64 / latencies.len().max(1) as f64),
            ));
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            resident[1] * 2 <= resident[0],
            "ESA resident bytes ({}) exceed half the tree's ({})",
            resident[1],
            resident[0]
        );
        out
    };

    let nq = queries.len() as u64;
    let body: Vec<String> = rows.iter().map(|r| r.to_json(nq)).collect();
    let json = format!(
        concat!(
            "{{\"workload\":{{\"scale\":\"{}\",\"sequences\":{},",
            "\"elements\":{},\"queries\":{},\"epsilon\":{},",
            "\"method\":\"ME\"}},\"rows\":[{}],\"backend_race\":[{}]}}"
        ),
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        store.len(),
        store.total_len(),
        nq,
        num(epsilon),
        body.join(","),
        race_rows.join(",")
    );
    std::fs::write(&out, json + "\n").expect("write report");
    println!("\nwrote {out}");
}
