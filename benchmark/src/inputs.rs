//! Workload definitions and seed → inputs generation.
//!
//! Everything a run feeds the program under test is made here; the rest
//! of the benchmark sees only the generated [`Inputs`] — never the seed
//! or the workload's name.
//!
//! The corpus is one fixed data set — `stock_corpus` with its default
//! seed, as the paper's 545 stocks were one data set — so the three
//! exact-count metrics are the same number on every seed. `--seed`
//! chooses the queries: every list is [`SPARE`] short of a fixed pool,
//! and the seed says which of the pool sit out and in what order the
//! rest run. The gate compares medians across seeds, so what the draw
//! of a list adds to a percentile is noise to it; with lists drawn
//! afresh, `op_p95_ms` alone moved by 6–8 % between seeds.

use std::time::Instant;

use warptree::core::search::SearchParams;
use warptree::core::sequence::{SeqId, SequenceStore};
use warptree::data::{stock_corpus, QueryConfig, QueryWorkload, StockConfig};

/// Categories of the maximum-entropy alphabet (`--categories 40`).
pub const CATEGORIES: usize = 40;
/// Sequences per in-memory partial tree (`warptree build`'s default).
pub const BUILD_BATCH: usize = 64;
/// Queries of every list that are checked against `seq_scan`.
pub const ORACLE_SAMPLE: usize = 24;
/// Queries of a pool that a seed leaves out of its list.
pub const SPARE: usize = 16;
/// Seed of every query pool (`QueryConfig::default().seed`).
const POOL_SEED: u64 = 0x9E2_0001;
/// `append_segment` calls per `ingest-read` cycle.
pub const INGEST_APPENDS: usize = 12;
/// Reads after each append.
pub const INGEST_READS: usize = 8;
/// Of those, reads drawn from the batch just appended.
pub const INGEST_FRESH_READS: usize = 2;
/// Tail-segment count at which a cycle calls `compact_once`.
pub const INGEST_COMPACT_AT: usize = 4;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `run_query` against an opened index directory.
    Lib,
    /// Protocol-v4 `search` requests over one TCP connection.
    Serve,
    /// Build + append + compact cycles with reads in between.
    Ingest,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What is driven.
    pub kind: Kind,
    /// Distinct operations per pass (queries) or per cycle (reads).
    pub distinct: usize,
    /// Distance threshold of every query.
    pub epsilon: f64,
    /// Sakoe–Chiba warping window of every query (paper §8).
    pub window: Option<u32>,
}

/// Half a cent. The corpus is in whole cents, so every exact distance is
/// a multiple of 0.01; an ε half a cent off that grid cannot tie with
/// one, and no answer hangs on the rounding of a sum (at ε = 10 the index
/// and `seq_scan` do disagree on a distance of exactly 10).
const OFF_GRID: f64 = 0.005;

/// Window of the broad query class. With a band the numeric cascade has
/// an envelope to work with and post-processing takes the larger share;
/// unwindowed, the filter stays above half at every ε up to 30 (README).
const BROAD_WINDOW: u32 = 8;

/// The four workloads. Every query is an exact subsequence of the corpus
/// (`QueryConfig::default()`: mean length 20, price-band stratified).
/// `lib-broad` and `serve-broad` run the same list for the same seed;
/// the served one runs it at the largest ε at which three passes of 200
/// requests fit the driver's cap (README).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lib-selective",
        kind: Kind::Lib,
        distinct: 240,
        epsilon: 5.0 + OFF_GRID,
        window: None,
    },
    Spec {
        name: "lib-broad",
        kind: Kind::Lib,
        distinct: 200,
        epsilon: 12.0 + OFF_GRID,
        window: Some(BROAD_WINDOW),
    },
    Spec {
        name: "serve-broad",
        kind: Kind::Serve,
        distinct: 200,
        epsilon: 2.0 + OFF_GRID,
        window: Some(BROAD_WINDOW),
    },
    Spec {
        name: "ingest-read",
        kind: Kind::Ingest,
        distinct: INGEST_APPENDS * INGEST_READS,
        epsilon: 5.0 + OFF_GRID,
        window: None,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One read of an `ingest-read` step.
#[derive(Debug, Clone)]
pub struct Read {
    /// Query values.
    pub values: Vec<f64>,
    /// Drawn from the batch appended just before it, so it must find
    /// itself there.
    pub fresh: bool,
}

/// The write/read schedule of one `ingest-read` cycle.
#[derive(Debug, Clone)]
pub struct IngestPlan {
    /// First quarter of the corpus: the base build.
    pub base: SequenceStore,
    /// Equal sequence batches, appended in order.
    pub batches: Vec<SequenceStore>,
    /// Reads issued after each append (`reads[k]` follows `batches[k]`).
    pub reads: Vec<Vec<Read>>,
}

impl IngestPlan {
    /// Sequences searchable once `batches[..=step]` are appended.
    pub fn visible_after(&self, step: usize) -> usize {
        self.base.len() + self.batches[..=step].iter().map(|b| b.len()).sum::<usize>()
    }
}

/// Everything a run feeds the program under test.
pub struct Inputs {
    /// What to drive.
    pub kind: Kind,
    /// The whole corpus (545 sequences × ~232 values).
    pub store: SequenceStore,
    /// ε of every query.
    pub epsilon: f64,
    /// Warping window of every query.
    pub window: Option<u32>,
    /// The distinct query list of a `Lib`/`Serve` workload.
    pub queries: Vec<Vec<f64>>,
    /// The schedule of an `Ingest` workload.
    pub ingest: Option<IngestPlan>,
    /// Time `stock_corpus` took (the `data.gen_ms` layer).
    pub gen_ms: f64,
}

/// SplitMix64. The seed's one use: which queries of a pool run, and in
/// what order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The first `keep` of `pool` after a Fisher–Yates shuffle.
    fn pick<T>(&mut self, mut pool: Vec<T>, keep: usize) -> Vec<T> {
        for i in (1..pool.len()).rev() {
            pool.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        pool.truncate(keep);
        pool
    }
}

/// The sequences `range` of `store`, names kept, as a store of its own.
pub fn slice(store: &SequenceStore, range: std::ops::Range<usize>) -> SequenceStore {
    let mut out = SequenceStore::new();
    for i in range {
        let id = SeqId(i as u32);
        match store.name(id) {
            Some(n) => out.push_named(store.get(id).clone(), n),
            None => out.push(store.get(id).clone()),
        };
    }
    out
}

/// A fixed pool of `count` queries over `store`; `salt` tells the pools
/// of one run apart.
fn pool(store: &SequenceStore, count: usize, salt: u64) -> Vec<Vec<f64>> {
    let seed = POOL_SEED + salt;
    QueryWorkload::draw(
        store,
        &QueryConfig {
            count,
            seed,
            ..QueryConfig::default()
        },
    )
    .queries()
    .iter()
    .map(|q| q.values.clone())
    .collect()
}

/// `stock_corpus` lays its sequences out by price band, cheapest first.
/// Appending them in that order would build the alphabet from the cheap
/// quarter alone and push every later value into its top category. The
/// ingest schedule therefore takes the sequences in a fixed stride
/// order, which spreads every band over the base and all batches.
fn interleaved(store: &SequenceStore) -> SequenceStore {
    const STRIDE: usize = 89;
    let n = store.len();
    let mut out = SequenceStore::new();
    let mut seen = vec![false; n];
    for j in 0..n {
        let i = j * STRIDE % n;
        assert!(
            !std::mem::replace(&mut seen[i], true),
            "the stride shares a factor with the corpus size"
        );
        let id = SeqId(i as u32);
        out.push_named(store.get(id).clone(), store.display_name(id));
    }
    out
}

fn ingest_plan(store: &SequenceStore, rng: &mut SplitMix) -> IngestPlan {
    let n = store.len();
    let base_len = n / 4;
    let per = (n - base_len) / INGEST_APPENDS;
    let base = slice(store, 0..base_len);
    let mut batches = Vec::with_capacity(INGEST_APPENDS);
    let mut reads = Vec::with_capacity(INGEST_APPENDS);
    let mut start = base_len;
    for k in 0..INGEST_APPENDS {
        // The last batch takes the remainder, so the cycle ends on the
        // whole corpus.
        let end = if k + 1 == INGEST_APPENDS {
            n
        } else {
            start + per
        };
        let batch = slice(store, start..end);
        let visible = slice(store, 0..end);
        // The reads drawn from the new batch are the same on every seed:
        // the first of them pays the reopen, and those twelve reads are
        // most of what lies beyond `op_p95_ms`. The seed leaves one of
        // the step's other reads out and orders the rest.
        let old = INGEST_READS - INGEST_FRESH_READS;
        let fresh = pool(&batch, INGEST_FRESH_READS, 100 + k as u64);
        let old = rng.pick(pool(&visible, old + 1, 200 + k as u64), old);
        reads.push(
            fresh
                .into_iter()
                .map(|values| Read {
                    values,
                    fresh: true,
                })
                .chain(old.into_iter().map(|values| Read {
                    values,
                    fresh: false,
                }))
                .collect(),
        );
        batches.push(batch);
        start = end;
    }
    IngestPlan {
        base,
        batches,
        reads,
    }
}

/// Makes a workload's inputs from the seed: the same seed gives the
/// same inputs, byte for byte.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let t = Instant::now();
    let mut store = stock_corpus(&StockConfig::default());
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    if spec.kind == Kind::Ingest {
        store = interleaved(&store);
    }
    let mut rng = SplitMix(seed);
    let (queries, ingest) = match spec.kind {
        Kind::Lib | Kind::Serve => (
            rng.pick(pool(&store, spec.distinct + SPARE, 0), spec.distinct),
            None,
        ),
        Kind::Ingest => (Vec::new(), Some(ingest_plan(&store, &mut rng))),
    };
    Inputs {
        kind: spec.kind,
        store,
        epsilon: spec.epsilon,
        window: spec.window,
        queries,
        ingest,
        gen_ms,
    }
}

/// FNV-1a over 64-bit words; the benchmark's fingerprint and checksum
/// hash (no cryptographic need, and `std`'s hasher is seeded per run).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a slice of values in, bit for bit.
    pub fn values(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }
}

impl Inputs {
    /// Hash of every generated value (corpus, queries, schedule, ε):
    /// equal across runs of one seed, different across seeds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for (_, s) in self.store.iter() {
            h.values(s.values());
        }
        h.word(self.epsilon.to_bits());
        h.word(self.window.map_or(u64::MAX, u64::from));
        for q in &self.queries {
            h.values(q);
        }
        if let Some(plan) = &self.ingest {
            h.word(plan.base.len() as u64);
            for (batch, reads) in plan.batches.iter().zip(&plan.reads) {
                h.word(batch.len() as u64);
                for r in reads {
                    h.word(u64::from(r.fresh));
                    h.values(&r.values);
                }
            }
        }
        h.0
    }

    /// Raw corpus size: 8 bytes per value.
    pub fn raw_bytes(&self) -> f64 {
        self.store.total_len() as f64 * 8.0
    }

    /// The search parameters of every query of the run.
    pub fn params(&self) -> SearchParams {
        let p = SearchParams::with_epsilon(self.epsilon);
        match self.window {
            Some(w) => p.windowed(w),
            None => p,
        }
    }
}
