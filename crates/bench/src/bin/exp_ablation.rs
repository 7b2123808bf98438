//! Ablations beyond the paper's tables, isolating each design choice:
//!
//! * **A — Theorem-1 early abandoning in SeqScan**: how much of the
//!   speed-up is pruning alone, without any index?
//! * **B — warping-window depth limiting (paper §8)**: the future-work
//!   optimization of bounding answer lengths via a Sakoe–Chiba band.
//! * **C — the encode step**: what turning a built pointer tree into
//!   the bytes every query walks (encode + the record check) costs,
//!   against the pointer-tree build.
//! * **D — merge fan-in**: incremental construction time and bytes
//!   written vs. batch size (paper §4.1's binary-merge pipeline).
//! * **E — §8 truncated index**: space and time when query lengths are
//!   known in advance.
//! * **F — segment-aligned matching (paper ref [14])**: how many true
//!   answers boundary-aligned matching dismisses.

use std::sync::Arc;
use std::time::Instant;

use warptree_bench::{
    banner, build_index, kib, materialized_size, measure_index, measure_seqscan, IndexKind, Method,
    Scale,
};
use warptree_core::search::{SearchParams, SeqScanMode};
use warptree_disk::{real_vfs, DiskTree, IncrementalBuilder, MeteredVfs, TreeKind};
use warptree_obs::MetricsRegistry;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Ablations: pruning, window, encode cost, merge fan-in",
        scale,
    );
    let store = scale.stock();
    let queries = scale.queries(&store);
    let epsilon = match scale {
        Scale::Quick => 15.0,
        Scale::Full => 30.0,
    };
    let params = SearchParams::with_epsilon(epsilon);

    // --- A: early abandoning in the scan --------------------------------
    println!("\n[A] SeqScan: full tables vs. Theorem-1 early abandoning");
    let full = measure_seqscan(&store, &queries, &params, SeqScanMode::Full);
    let ea = measure_seqscan(&store, &queries, &params, SeqScanMode::EarlyAbandon);
    println!(
        "    full:          {:>8.3} s/query  {:>12.2e} cells",
        full.secs_per_query, full.cells_per_query
    );
    println!(
        "    early-abandon: {:>8.3} s/query  {:>12.2e} cells  ({:.1}x)",
        ea.secs_per_query,
        ea.cells_per_query,
        full.secs_per_query / ea.secs_per_query
    );

    // --- B: warping-window depth limiting -------------------------------
    println!("\n[B] SST_C/ME(40): unconstrained vs. warping window");
    let built = build_index(&store, IndexKind::Sparse, Method::Me, 40);
    let unconstrained = measure_index(&built.tree, &built.alphabet, &store, &queries, &params);
    for w in [2u32, 5, 10] {
        let wp = SearchParams::with_epsilon(epsilon).windowed(w);
        let m = measure_index(&built.tree, &built.alphabet, &store, &queries, &wp);
        println!(
            "    w = {w:>2}: {:>8.3} s/query, {:>9.0} answers \
             (unconstrained: {:.3} s, {:.0} answers)",
            m.secs_per_query,
            m.answers_per_query,
            unconstrained.secs_per_query,
            unconstrained.answers_per_query
        );
    }

    // --- C: the encode step ----------------------------------------------
    println!("\n[C] ME(40): pointer-tree build vs. encode + record check (median of 5)");
    for (name, kind) in [("ST_C", IndexKind::Full), ("SST_C", IndexKind::Sparse)] {
        let runs: Vec<_> = (0..5)
            .map(|_| build_index(&store, kind, Method::Me, 40))
            .collect();
        let median = |secs: fn(&warptree_bench::BuiltIndex) -> f64| {
            let mut v: Vec<f64> = runs.iter().map(secs).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (build, encode) = (median(|b| b.build_secs), median(|b| b.encode_secs));
        println!(
            "    {name:<5}: build {:>8.2} ms   encode + check {:>7.2} ms ({:>4.1}% of the build, {} KiB)",
            build * 1e3,
            encode * 1e3,
            100.0 * encode / build,
            kib(runs[0].tree.logical_len())
        );
    }

    // --- D: merge fan-in --------------------------------------------------
    println!("\n[D] incremental construction: build time and bytes written vs. batch size");
    let dir = std::env::temp_dir().join(format!("warptree-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let batches = match scale {
        Scale::Quick => vec![store.len(), store.len() / 4, store.len() / 16],
        Scale::Full => vec![
            store.len(),
            store.len() / 4,
            store.len() / 16,
            store.len() / 64,
        ],
    };
    for batch in batches {
        let batch = batch.max(1);
        let out = dir.join(format!("incr-{batch}.wt"));
        // Every byte the build submits to the filesystem.
        let reg = MetricsRegistry::new();
        let t0 = Instant::now();
        let size = IncrementalBuilder::new(built.cat.clone(), TreeKind::Sparse, batch)
            .with_vfs(MeteredVfs::new(real_vfs(), &reg))
            .build(&out)
            .unwrap();
        println!(
            "    batch {:>5}: {:>7.2}s, {:>9} KiB written, final file {:>9} KiB",
            batch,
            t0.elapsed().as_secs_f64(),
            kib(reg.counter("disk.vfs.write_bytes").get()),
            kib(size)
        );
    }
    // Verify the incremental result answers like the direct tree.
    let incr_path = dir.join(format!("incr-{}.wt", 1.max(store.len() / 16)));
    if incr_path.exists() {
        let incr = DiskTree::open(&incr_path, built.cat.clone()).unwrap();
        let a = measure_index(&incr, &built.alphabet, &store, &queries, &params);
        assert_eq!(a.answers_per_query, unconstrained.answers_per_query);
        println!("    (merged index verified: identical answers)");
    }
    // --- E: §8 truncated index -------------------------------------------
    println!("\n[E] truncated SST_C/ME(40) for queries of length 16..24, w = 5");
    let spec = warptree_suffix::TruncateSpec::for_queries(16, 24, 5);
    let t0 = Instant::now();
    let trunc = warptree_suffix::build_sparse_truncated(built.cat.clone(), spec);
    let trunc_build = t0.elapsed().as_secs_f64();
    let trunc = DiskTree::from_tree(&trunc);
    let (trunc_size, full_size) = (trunc.logical_len(), built.tree.logical_len());
    let wp = SearchParams::with_epsilon(epsilon).windowed(5);
    let full_m = measure_index(&built.tree, &built.alphabet, &store, &queries, &wp);
    let trunc_m = measure_index(&trunc, &built.alphabet, &store, &queries, &wp);
    // The space saving shows in the inline-label metric (the ref format
    // stores labels as fixed-size references, so cutting label *length*
    // barely moves the file size).
    println!(
        "    full:      {:>9} KiB ref / {:>9} KiB inline, {:>8.3} s/query,          {:>8.0} answers",
        kib(full_size),
        kib(materialized_size(&built.tree, 4)),
        full_m.secs_per_query,
        full_m.answers_per_query
    );
    println!(
        "    truncated: {:>9} KiB ref / {:>9} KiB inline, {:>8.3} s/query,          {:>8.0} answers (built in {trunc_build:.2}s)",
        kib(trunc_size),
        kib(materialized_size(&trunc, 4)),
        trunc_m.secs_per_query,
        trunc_m.answers_per_query
    );
    assert_eq!(
        full_m.answers_per_query, trunc_m.answers_per_query,
        "truncation must not change windowed answers"
    );

    // --- F: aligned matching's false dismissals ---------------------------
    println!("\n[F] segment-aligned matching (ref [14]) vs. full search");
    use warptree_core::search::{aligned_scan, seq_scan, SearchStats};
    let q = &queries.queries()[0].values;
    let fp = SearchParams::with_epsilon(epsilon);
    let mut full_stats = SearchStats::default();
    let truth = seq_scan(&store, q, &fp, SeqScanMode::Full, &mut full_stats).occurrence_set();
    for seg in [4u32, 8, 16] {
        let mut stats = SearchStats::default();
        let aligned = aligned_scan(&store, q, &fp, seg, &mut stats).occurrence_set();
        let found = aligned
            .iter()
            .filter(|o| truth.binary_search(o).is_ok())
            .count();
        println!(
            "    segments of {seg:>2}: {:>8} of {:>8} true answers found              ({:.1}% dismissed)",
            found,
            truth.len(),
            100.0 * (truth.len() - found) as f64 / truth.len().max(1) as f64
        );
    }

    let _ = Arc::strong_count(&built.cat);
    std::fs::remove_dir_all(&dir).ok();
}
