//! `ingest-read`: the write path beside reads, with no timers. One
//! cycle builds a base index from the first quarter of the corpus,
//! appends the rest in `INGEST_APPENDS` tail segments, reads after each
//! append, and compacts whenever `INGEST_COMPACT_AT` tails are live.
//! The page cache holds one eighth of the base index's pages, so reads
//! here do not fit the program's own cache.

use std::path::Path;
use std::time::Instant;

use warptree::disk::{
    append_segment_with, compact_once, compact_once_with, real_vfs, MeteredVfs, PAGE_SIZE,
};
use warptree::obs::MetricsRegistry;
use warptree::prelude::{BackendKind, Categorization, DiskIndexDir};

use crate::common::{
    agrees_with_seq_scan, answers_checksum, build_index, digest, ms_since, open_index, peak_rss_mb,
    query_index, ratio, resident_bytes, timed_op, Budget, CacheCounts, FunnelTotals, SETUP_REPS,
};
use crate::inputs::{
    slice, IngestPlan, Inputs, BUILD_BATCH, CATEGORIES, INGEST_COMPACT_AT, INGEST_READS,
};
use crate::layers;
use crate::lib_run::report_cache;
use crate::report::Outcome;
use crate::stats::{column_fastest, fastest, median, percentile};
use crate::tmp::{dir_bytes, TempRoot};
use crate::trace::Tracer;

/// Fewest timed cycles of a run: a cycle is 96 reads, 12 appends and 9
/// compactions, so six of them are the 600 timed operations every
/// workload owes.
const MIN_CYCLES: usize = 6;

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    read_ms: Vec<f64>,
    append_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    reopen_ms: Vec<f64>,
    append_bytes: Vec<f64>,
    live_trees: Vec<f64>,
    build_ms: f64,
    write_bytes: u64,
    /// Reads, appends and compactions made.
    attempted: u64,
    /// Of those, the ones that errored or answered wrongly.
    failed: u64,
    /// Wall time of the cycle, the oracle's `seq_scan` calls left out.
    wall_s: f64,
    cache: CacheCounts,
    funnel: FunnelTotals,
}

/// Page-cache size for a directory: one eighth of its base index file.
fn small_cache(dir: &Path) -> usize {
    let (_, index) = warptree::resolve_index_dir(dir).expect("resolving a committed directory");
    let pages = std::fs::metadata(index).map_or(0, |m| m.len()) as usize / PAGE_SIZE;
    (pages / 8).max(4)
}

/// Whether a read saw exactly the sequences appended so far: nothing
/// beyond them, and — for a read drawn from the newest batch — that
/// batch.
fn sees_exactly(
    answers: &warptree::core::search::AnswerSet,
    fresh: bool,
    visible_before: usize,
    visible: usize,
) -> bool {
    let seqs = || answers.matches().iter().map(|m| m.occ.seq.0 as usize);
    seqs().all(|s| s < visible) && (!fresh || seqs().any(|s| s >= visible_before))
}

/// Runs the schedule once in `dir`. `expected[k * R + r]` is the digest
/// read `r` of step `k` must produce once known. With `oracle`, two
/// reads of every step are also checked against `seq_scan` over the
/// sequences visible at that step.
fn cycle(
    inputs: &Inputs,
    plan: &IngestPlan,
    dir: &Path,
    expected: &mut [Option<u64>],
    tr: &mut Tracer,
    mut oracle: Option<&mut Outcome>,
) -> (Cycle, DiskIndexDir) {
    let mut c = Cycle::default();
    let params = inputs.params();
    let reg = MetricsRegistry::new();
    let vfs = MeteredVfs::new(real_vfs(), &reg);
    let written = reg.counter("disk.vfs.write_bytes");
    let start = Instant::now();
    let mut oracle_s = 0.0;
    let mut op_id = 0u32;
    let mut next_id = || {
        op_id += 1;
        op_id
    };

    let ((), build_ms) = timed_op(tr, next_id(), |tr| {
        tr.enter("disk.build", 0);
        warptree::build_index_dir_backend_metered(
            &plan.base,
            Categorization::MaxEntropy(CATEGORIES),
            true,
            BUILD_BATCH,
            BackendKind::Tree,
            dir,
            &reg,
        )
        .expect("building the base index");
        tr.exit();
    });
    c.build_ms = build_ms;

    let mut idx = None;
    for (k, batch) in plan.batches.iter().enumerate() {
        let before = written.get();
        let id = next_id();
        let (manifest, ms) = timed_op(tr, id, |tr| {
            tr.enter("disk.append", id);
            let m = append_segment_with(vfs.as_ref(), dir, batch);
            tr.exit();
            m
        });
        c.append_ms.push(ms);
        c.append_bytes.push((written.get() - before) as f64);
        c.attempted += 1;
        // A failed append leaves its batch out: the step's reads drawn
        // from it then fail too, and the run is reported incorrect.
        let tails = match manifest {
            Ok(m) => m.segments.len(),
            Err(_) => {
                c.failed += 1;
                0
            }
        };
        if tails >= INGEST_COMPACT_AT {
            let id = next_id();
            let (done, ms) = timed_op(tr, id, |tr| {
                tr.enter("disk.compact", id);
                let r = compact_once_with(vfs.as_ref(), dir, &reg);
                tr.exit();
                r
            });
            c.compact_ms.push(ms);
            c.attempted += 1;
            if done.is_err() {
                c.failed += 1;
            }
        }

        let visible = plan.visible_after(k);
        let visible_before = visible - batch.len();
        let t = Instant::now();
        let truth = oracle.is_some().then(|| slice(&inputs.store, 0..visible));
        oracle_s += t.elapsed().as_secs_f64();
        for (r, read) in plan.reads[k].iter().enumerate() {
            let id = next_id();
            // The read after a write pays for seeing it: the reopen is
            // part of that read's latency.
            let (answers, ms) = timed_op(tr, id, |tr| {
                if r == 0 {
                    if let Some(old) = idx.take() {
                        c.cache.add(&CacheCounts::of(&old));
                    }
                    tr.enter("disk.reopen", id);
                    let (opened, secs) = open_index(dir, small_cache(dir));
                    tr.exit();
                    c.reopen_ms.push(secs * 1e3);
                    c.live_trees.push(opened.segment_count() as f64);
                    idx = Some(opened);
                }
                let idx = idx.as_ref().expect("opened by the step's first read");
                let (answers, stats) = query_index(idx, &read.values, &params, tr, id);
                c.funnel.add(&stats);
                answers
            });
            c.read_ms.push(ms);
            c.attempted += 1;
            let got = digest(answers.matches());
            let slot = &mut expected[k * INGEST_READS + r];
            let ok = sees_exactly(&answers, read.fresh, visible_before, visible)
                && *slot.get_or_insert(got) == got;
            if !ok {
                c.failed += 1;
            }
            if let (Some(out), Some(truth), true) = (oracle.as_deref_mut(), &truth, r < 2) {
                let t = Instant::now();
                if !agrees_with_seq_scan(truth, &read.values, &params, &answers) {
                    out.oracle_mismatches += 1;
                }
                oracle_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let idx = idx.expect("at least one step");
    c.cache.add(&CacheCounts::of(&idx));
    c.write_bytes = written.get();
    c.wall_s = start.elapsed().as_secs_f64() - oracle_s;
    (c, idx)
}

/// Reads of the last step against the directory as the cycle left it
/// (base + tails) ÷ the same reads once it is fully compacted.
fn fanout_query_ratio(inputs: &Inputs, plan: &IngestPlan, dir: &Path) -> f64 {
    let params = inputs.params();
    let reads = plan.reads.last().expect("at least one step");
    let mut off = Tracer::new(false);
    let mut time_reads = |idx: &DiskIndexDir| {
        let v: Vec<f64> = reads
            .iter()
            .map(|r| {
                let t = Instant::now();
                std::hint::black_box(query_index(idx, &r.values, &params, &mut off, 0));
                ms_since(t)
            })
            .collect();
        median(&v)
    };
    let (segmented, _) = open_index(dir, small_cache(dir));
    let fanned = time_reads(&segmented);
    drop(segmented);
    while let Ok(Some(_)) = compact_once(dir) {}
    let (whole, _) = open_index(dir, small_cache(dir));
    ratio(fanned, time_reads(&whole))
}

/// Every sample of one kind over the timed cycles.
fn all(cycles: &[Cycle], f: fn(&Cycle) -> &Vec<f64>) -> Vec<f64> {
    cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
}

/// Runs `ingest-read`.
pub fn run(
    inputs: &Inputs,
    budget: &Budget,
    tr: &mut Tracer,
    tmp: &mut TempRoot,
    out: &mut Outcome,
) {
    let plan = inputs.ingest.as_ref().expect("ingest inputs carry a plan");
    // `setup_s` is the base build, repeated between the cycles so that a
    // slow stretch of the machine cannot sit on every repetition.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut set_up_again = |tmp: &mut TempRoot| {
        if setup_s.len() >= SETUP_REPS {
            return false;
        }
        let dir = tmp.fresh();
        setup_s.push(build_index(&plan.base, BackendKind::Tree, &dir).secs);
        let _ = std::fs::remove_dir_all(dir);
        true
    };
    set_up_again(tmp);
    out.set("data.gen_ms", inputs.gen_ms);

    // The warm pass: one whole untimed cycle, whose reads are checked
    // against `seq_scan` and fix the digests the timed cycles must repeat.
    let mut expected = vec![None; plan.reads.len() * INGEST_READS];
    let warm = Instant::now();
    let dir = tmp.fresh();
    let mut off = Tracer::new(false);
    let (checked, idx) = cycle(inputs, plan, &dir, &mut expected, &mut off, Some(out));
    out.oracle_mismatches += checked.failed;
    out.set("bench.warm_ms", ms_since(warm));
    let mut last = (dir, idx);

    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < MIN_CYCLES || budget.fits(cycles.last().map_or(0.0, |c| c.wall_s)) {
        let (old_dir, old_idx) = last;
        drop(old_idx);
        let _ = std::fs::remove_dir_all(old_dir);
        let dir = tmp.fresh();
        let (c, idx) = cycle(inputs, plan, &dir, &mut expected, tr, None);
        cycles.push(c);
        last = (dir, idx);
        set_up_again(tmp);
    }
    while set_up_again(tmp) {}
    out.set("setup_s", fastest(&setup_s));
    let (last_dir, idx) = last;
    out.note("backend", idx.backend().as_str());
    let final_cycle = cycles.last().expect("at least six cycles");

    // Every cycle makes the same calls at the same points of the same
    // schedule, so a call's latency is the fastest of its position across
    // the cycles, as a query's is across passes. The reopen a step's first
    // read pays and the stall a compaction leaves behind stay in their
    // positions; what goes is the time the machine added. Percentiles over
    // the raw latencies of all cycles take every slow stretch of the
    // machine into their tail: a busy neighbour for 40 % of a run moved
    // p95 by 40 %.
    let by_position = |f: fn(&Cycle) -> &Vec<f64>| {
        column_fastest(&cycles.iter().map(|c| f(c).as_slice()).collect::<Vec<_>>())
    };
    let reads = by_position(|c| &c.read_ms);
    let write_ms: f64 = by_position(|c| &c.append_ms)
        .iter()
        .chain(&by_position(|c| &c.compact_ms))
        .sum();
    let read_samples: usize = cycles.iter().map(|c| c.read_ms.len()).sum();
    let appends = all(&cycles, |c| &c.append_ms);
    let compacts = all(&cycles, |c| &c.compact_ms);
    // One cycle's calls one after the other: the closed loop's wall time.
    let build_ms = fastest(&cycles.iter().map(|c| c.build_ms).collect::<Vec<_>>());
    let cycle_ms = build_ms + write_ms + reads.iter().sum::<f64>();
    out.attempted = cycles.iter().map(|c| c.attempted).sum();
    out.failed = cycles.iter().map(|c| c.failed).sum();
    out.set("op_p50_ms", percentile(&reads, 0.5));
    out.set("op_p95_ms", percentile(&reads, 0.95));
    out.set(
        "ops_per_s",
        ratio(final_cycle.attempted as f64 * 1e3, cycle_ms),
    );
    out.set(
        "ok_ratio",
        ratio(
            out.attempted.saturating_sub(out.failed) as f64,
            out.attempted as f64,
        ),
    );
    let raw = inputs.raw_bytes();
    out.set("space_amp", dir_bytes(&last_dir) as f64 / raw);
    out.set("resident_amp", resident_bytes(&idx) as f64 / raw);
    out.set("write_amp", final_cycle.write_bytes as f64 / raw);
    let appended: u64 = plan.batches.iter().map(|b| b.total_len()).sum();
    out.set(
        "ingest_values_per_s",
        ratio(appended as f64 * 1e3, write_ms),
    );
    out.note(
        "corpus",
        format!(
            "{} sequences, {} values; base {} sequences, {} appends",
            inputs.store.len(),
            inputs.store.total_len(),
            plan.base.len(),
            plan.batches.len()
        ),
    );
    out.note("distinct_ops", expected.len());
    out.note("cycles", cycles.len());
    out.note(
        "samples",
        format!(
            "{} reads, {} appends, {} compactions",
            read_samples,
            appends.len(),
            compacts.len()
        ),
    );
    out.note(
        "percentiles",
        format!(
            "over {} read positions, each at the fastest of its {} cycles; a step's first read includes the reopen",
            reads.len(),
            cycles.len()
        ),
    );
    out.note("answers_checksum", answers_checksum(&expected));
    out.set("bench.passes", cycles.len() as f64);
    out.set("bench.distinct_ops", expected.len() as f64);

    if tr.on() {
        out.set("trace.coverage_ratio", tr.coverage(&[]));
        let mut funnel = FunnelTotals::default();
        let mut cache = CacheCounts::default();
        for c in &cycles {
            funnel.stats.merge(&c.funnel.stats);
            funnel.queries += c.funnel.queries;
            cache.add(&c.cache);
        }
        funnel.report(tr, out);
        report_cache(&cache, funnel.queries, out);
        out.set("disk.append_ms_p50", percentile(&appends, 0.5));
        out.set("disk.compact_ms_p50", percentile(&compacts, 0.5));
        out.set(
            "disk.reopen_ms_p50",
            percentile(&all(&cycles, |c| &c.reopen_ms), 0.5),
        );
        out.set(
            "disk.segments_mean",
            ratio(
                final_cycle.live_trees.iter().sum(),
                final_cycle.live_trees.len() as f64,
            ),
        );
        out.set(
            "disk.bytes_written_per_append",
            ratio(
                final_cycle.append_bytes.iter().sum(),
                final_cycle.append_bytes.len() as f64,
            ),
        );
        out.set(
            "disk.build_ms",
            median(&cycles.iter().map(|c| c.build_ms).collect::<Vec<_>>()),
        );

        // One untraced cycle for the tracing overhead.
        let dir = tmp.fresh();
        let (plain, plain_idx) = cycle(inputs, plan, &dir, &mut expected, &mut off, None);
        out.set(
            "obs.trace_overhead_ratio",
            ratio(
                percentile(&final_cycle.read_ms, 0.5),
                percentile(&plain.read_ms, 0.5),
            ),
        );
        drop(plain_idx);

        let sample: Vec<Vec<f64>> = plan
            .reads
            .iter()
            .flat_map(|step| step.iter().take(2).map(|r| r.values.clone()))
            .collect();
        let params = inputs.params();
        layers::query_layers(&idx, &sample, &params, out);
        out.oracle_mismatches +=
            layers::build_layers(&inputs.store, &idx, &sample, &params, tmp, out);
        drop(idx);
        out.set(
            "disk.fanout_query_ratio",
            fanout_query_ratio(inputs, plan, &last_dir),
        );
        out.set("bench.peak_rss_mb", peak_rss_mb());
    }
}
