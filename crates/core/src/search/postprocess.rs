//! Post-processing: exact verification of filter candidates (paper §5.4).
//!
//! The categorized filters return candidates whose *lower-bound* distance
//! is within ε; some are false alarms. `PostProcess` retrieves each
//! candidate subsequence from the original (numeric) store, computes its
//! exact time-warping distance, and keeps the true answers.
//!
//! Candidates arrive grouped by start offset ([`CandidateGroups`]: one
//! tree path yields one candidate per qualifying depth), so verification
//! shares a single cumulative distance table per `(seq, start)`: the
//! table's row `r` gives the exact distance of the length-`r`
//! candidate, and Theorem-1 early abandoning rejects all longer
//! candidates at once. This is what keeps the post-processing term
//! `n·L̄·|Q|` of §5.5 from swamping the filtering savings at large ε.
//!
//! On a sparse index one stored suffix also stands for the shifted
//! starts inside its leading run (the paper's Definition 4), and its
//! groups arrive as one *family*. Before any group of a family gets
//! its own table, one free-start table (SPRING's, Sakurai, Faloutsos &
//! Yamamuro, ICDE 2007) runs over the family's whole extent: its
//! column 0 is 0 on the row before each start's first row and ∞
//! elsewhere, so each cell is the least of the started starts' own
//! cells, and a length no start can finish within ε dies without a
//! table of its own ([`run_family`]). The lengths it keeps are
//! verified per start as before.

use crate::dtw::WarpTable;
use crate::parallel::parallel_map_with;
use crate::search::answers::{AnswerSet, CandidateGroups, Match, SearchParams, SearchStats};
use crate::search::cascade::QueryEnvelope;
use crate::search::metrics::SearchMetrics;
use crate::sequence::{Occurrence, SeqId, SequenceStore, Value};

/// Groups per work item of the parallel paths: large enough that an
/// item's result buffer and its claim are amortised over real work,
/// small enough that claiming one at a time still balances a few
/// thousand groups.
const GROUPS_PER_TASK: usize = 32;

impl CandidateGroups {
    /// Contiguous runs of whole families, in order, each closed once it
    /// holds [`GROUPS_PER_TASK`] groups — the deterministic unit of
    /// parallel verification work.
    fn tasks(&self) -> Vec<std::ops::Range<usize>> {
        let mut tasks = Vec::new();
        let mut lo = 0;
        for f in 0..self.family_count() {
            if self.family(f).end - self.family(lo).start >= GROUPS_PER_TASK {
                tasks.push(lo..f + 1);
                lo = f + 1;
            }
        }
        if lo < self.family_count() {
            tasks.push(lo..self.family_count());
        }
        tasks
    }
}

/// Runs `table` as the free-start table of one family over `values` —
/// `C[s₀ .. E)`, from the family's first start to the end of its
/// longest candidate — with a start at each of `offsets` (ascending,
/// the first 0): row `y`'s last column is then the least of the starts'
/// own distances at `C[s₀ + y)`, exact wherever it is `≤ limit`
/// ([`WarpTable::start_here`]). Rows are threshold-pruned at `limit`,
/// as tier 3's are; the table stops once no cell is viable and no
/// start remains.
fn run_family(table: &mut WarpTable, values: &[Value], offsets: &[u32], limit: f64) {
    debug_assert_eq!(offsets.first(), Some(&0));
    table.reset();
    let mut starts = offsets.iter().peekable();
    for (row, &v) in (0u32..).zip(values) {
        if starts.next_if_eq(&&row).is_some() {
            table.start_here();
        }
        let stat = table.push_value_pruned(v, limit, &[]);
        if stat.prunes(limit) && starts.peek().is_none() {
            break;
        }
    }
}

/// One worker's state for [`verify_family`]: the family and shared
/// exact tables plus reusable buffers and plain-integer tallies, so
/// screening a family costs zero allocations and zero shared-counter
/// traffic however many groups a query produces. The tallies reach the
/// query's metrics once, through [`finish`](Self::finish).
#[derive(Debug)]
struct Verifier {
    table: WarpTable,
    /// The free-start table of [`run_family`].
    family: WarpTable,
    /// A family's start offsets from its first start.
    offsets: Vec<u32>,
    /// A group's lengths the family table kept.
    kept: Vec<u32>,
    /// Candidate lengths still alive after tier 1.
    survivors: Vec<u32>,
    /// Per-query-column completion remainders for tier 3's
    /// threshold-pruned rows (reversed LB_Keogh over the candidate's
    /// value range).
    rem: Vec<f64>,
    /// What this worker counted, cells aside.
    tallies: SearchStats,
}

impl Verifier {
    /// A worker for `query` under an optional Sakoe–Chiba band.
    fn new(query: &[Value], window: Option<u32>) -> Self {
        Verifier {
            table: WarpTable::new(query, window),
            family: WarpTable::new(query, window),
            offsets: Vec::new(),
            kept: Vec::new(),
            survivors: Vec::new(),
            rem: Vec::new(),
            tallies: SearchStats::default(),
        }
    }

    /// Everything this worker counted, its cells included.
    fn finish(self) -> SearchStats {
        SearchStats {
            postprocess_cells: self.table.cells_computed() + self.family.cells_computed(),
            ..self.tallies
        }
    }
}

/// Verifies family `family` of `groups`, pushing its matches onto `out`.
///
/// A family of one group goes straight to [`verify_group`]. A larger
/// one first runs its free-start table ([`run_family`]): a length `ℓ`
/// of the start at offset `o` is kept only if the table's last column
/// at row `o + ℓ` is `≤ limit`. Since that cell is the least of every start's exact
/// distance there, a killed length is above `limit` for its own start
/// too — a false alarm, and, with the cascade on, one of
/// `cascade_abandon_kills`. The kept lengths go through
/// [`verify_group`] unchanged, so answers and distances are those of
/// the per-start tables.
fn verify_family(
    store: &SequenceStore,
    worker: &mut Verifier,
    groups: &CandidateGroups,
    family: std::ops::Range<usize>,
    limit: f64,
    cascade: Option<&QueryEnvelope>,
    out: &mut Vec<Match>,
) {
    if family.len() == 1 {
        let (key, lens) = groups.get(family.start);
        verify_group(store, worker, key, lens, limit, cascade, out);
        return;
    }
    let ((seq, first), _) = groups.get(family.start);
    let whole = store.get(seq);
    assert!(
        (first as usize) < whole.len(),
        "candidate starts outside its sequence"
    );
    worker.offsets.clear();
    let mut end = first;
    for i in family.clone() {
        let ((_, start), lens) = groups.get(i);
        worker.offsets.push(start - first);
        end = end.max(start + lens.last().expect("non-empty group"));
    }
    let values = &whole.suffix(first)[..(end - first) as usize];
    run_family(&mut worker.family, values, &worker.offsets, limit);
    let depth = worker.family.depth();
    let (mut kept, offsets) = (
        std::mem::take(&mut worker.kept),
        std::mem::take(&mut worker.offsets),
    );
    for (i, &offset) in family.zip(&offsets) {
        let (key, lens) = groups.get(i);
        kept.clear();
        let table = &worker.family;
        kept.extend(lens.iter().filter(|&&len| {
            let row = offset + len;
            row <= depth && table.row_stat(row).dist <= limit
        }));
        let killed = (lens.len() - kept.len()) as u64;
        let tallies = &mut worker.tallies;
        tallies.postprocessed += killed;
        tallies.false_alarms += killed;
        if cascade.is_some() {
            tallies.cascade_abandon_kills += killed;
        }
        if !kept.is_empty() {
            verify_group(store, worker, key, &kept, limit, cascade, out);
        }
    }
    (worker.kept, worker.offsets) = (kept, offsets);
}

/// Verifies one `(seq, start)` group against the exact distance, pushing
/// matches with `D_tw ≤ limit` onto `out` in ascending length order.
///
/// With `cascade` attached, the group first runs tier 1 of
/// [`crate::search::cascade`]: one endpoint-strengthened envelope
/// prefix-sum pass kills every length whose bound exceeds `limit` (the
/// accumulator `Σd + extra1` is monotone, so once it overflows every
/// longer length dies at once, and a group whose every length dies
/// skips the table entirely). Kills are provably above `limit`
/// (`lb ≤ D_tw`), so they are counted as false alarms exactly like an
/// exact-distance rejection would be, and the surviving lengths go
/// through the *identical* shared-table recurrence — answers are
/// byte-identical with the cascade on or off.
///
/// One shared table serves every surviving length of the group (row `r`
/// is the exact distance of the length-`r` candidate) and Theorem-1
/// early abandoning rejects all remaining longer lengths at once.
fn verify_group(
    store: &SequenceStore,
    worker: &mut Verifier,
    (seq, start): (SeqId, u32),
    lens: &[u32],
    limit: f64,
    cascade: Option<&QueryEnvelope>,
    out: &mut Vec<Match>,
) {
    let Verifier {
        table,
        survivors,
        rem,
        tallies,
        ..
    } = worker;
    tallies.postprocessed += lens.len() as u64;
    let whole = store.get(seq);
    assert!(
        (start as usize) < whole.len(),
        "candidate starts outside its sequence"
    );
    let values = whole.suffix(start);
    let max_len = *lens.last().expect("non-empty group") as usize;
    debug_assert!(max_len <= values.len(), "candidate outruns sequence");
    let lens: &[u32] = if let Some(env) = cascade {
        survivors.clear();
        // Tier 1: one envelope prefix-sum walk bounds every length,
        // with the corner cells fused in (see the cascade module docs):
        // row 1 claims the exact `|c_1 − q_1|` via `extra1`, and each
        // candidate length claims `max(d_l, |c_l − q_n|)` for its final
        // row at emission time.
        let last_q = env.last_q();
        let mut env_sum = 0.0;
        let mut extra1 = 0.0;
        // Value range of the rows walked so far, and of the rows up to
        // the last survivor (what tier 3's remainders are built from).
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut dmin, mut dmax) = (vmin, vmax);
        let mut next = 0usize;
        for (row, &v) in values[..max_len].iter().enumerate() {
            let Some(d) = env.row_dist(row as u32 + 1, v) else {
                // Empty band: no warping path reaches this row or any
                // longer one — every remaining length is dead.
                break;
            };
            if row == 0 {
                // Row 1's band always admits column 1, and every path
                // starts at (1,1): the envelope term can be upgraded to
                // the exact first-cell distance for *all* lengths.
                extra1 = (v - env.first_q()).abs() - d;
            }
            vmin = vmin.min(v);
            vmax = vmax.max(v);
            let len = (row + 1) as u32;
            if lens[next] == len {
                if env_sum + extra1 + d.max((v - last_q).abs()) <= limit {
                    survivors.push(len);
                    (dmin, dmax) = (vmin, vmax);
                }
                next += 1;
            }
            env_sum += d;
            if env_sum + extra1 > limit {
                // Monotone accumulator: every longer length dies too.
                break;
            }
        }
        let tier1_kills = (lens.len() - survivors.len()) as u64;
        tallies.cascade_lb_keogh_kills += tier1_kills;
        tallies.false_alarms += tier1_kills;
        if survivors.is_empty() {
            return;
        }
        // Tier-3 column remainders: completing a path from column x
        // must still pair every later query column with some candidate
        // row, each costing at least its distance to the candidate's
        // value range over the surviving extent.
        env.column_remainders(dmin, dmax, rem);
        survivors
    } else {
        lens
    };
    // Tier 3: exact shared-table verification, built only to the
    // largest surviving length. With the cascade on, rows use the
    // threshold-pruned push — cells provably above `limit` are
    // skipped, while every value that decides a match or a Theorem-1
    // abandon is still computed exactly (see `push_value_bounded`).
    table.reset();
    let mut next = 0usize; // next candidate length to check
    let max_len = *lens.last().expect("non-empty group") as usize;
    for (row, &v) in values[..max_len].iter().enumerate() {
        let stat = if cascade.is_some() {
            table.push_value_pruned(v, limit, rem)
        } else {
            table.push_value(v)
        };
        let len = (row + 1) as u32;
        if next < lens.len() && lens[next] == len {
            if stat.dist <= limit {
                out.push(Match {
                    occ: Occurrence::new(seq, start, len),
                    dist: stat.dist,
                });
            } else {
                tallies.false_alarms += 1;
            }
            next += 1;
        }
        if stat.prunes(limit) {
            // Theorem 1: every remaining (longer) candidate of this
            // start is a false alarm.
            let rest = (lens.len() - next) as u64;
            tallies.false_alarms += rest;
            if cascade.is_some() {
                tallies.cascade_abandon_kills += rest;
            }
            next = lens.len();
            break;
        }
    }
    debug_assert_eq!(next, lens.len(), "every candidate visited");
}

/// Verifies `groups` against the exact time-warping distance,
/// returning the answers with `D_tw ≤ params.epsilon`, sorted by
/// occurrence.
///
/// Groups are verified in the filter's emission order and the matches
/// sorted afterwards — there are far fewer of them than groups. With
/// `params.threads > 1` the groups are verified across worker threads
/// (each with its own [`Verifier`]); the answer set and every counter
/// are identical to the sequential path, because every group is
/// verified on its own.
///
/// # Panics
/// Panics if a group starts outside its sequence.
pub fn postprocess(
    store: &SequenceStore,
    query: &[Value],
    groups: &CandidateGroups,
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> AnswerSet {
    let mut answers = AnswerSet::new();
    if groups.is_empty() {
        // An empty segment of a fan-out pays for no envelope or table.
        return answers;
    }
    let epsilon = params.epsilon;
    let threads = params.threads.max(1) as usize;
    // The envelopes are read-only and band-matched to the tables, so
    // one per query is shared by every group on every worker.
    let env = params
        .cascade
        .then(|| QueryEnvelope::new(query, params.window));
    let env = env.as_ref();
    // One thread runs the same tasks in order on the calling thread.
    let (per_task, workers) = parallel_map_with(
        threads,
        groups.tasks(),
        || Verifier::new(query, params.window),
        |worker, _i, range| {
            let mut out = Vec::new();
            for f in range {
                let family = groups.family(f);
                verify_family(store, worker, groups, family, epsilon, env, &mut out);
            }
            out
        },
    );
    for matches in per_task {
        answers.extend(matches);
    }
    answers.sort();
    let mut counted = SearchStats {
        answers: answers.len() as u64,
        ..SearchStats::default()
    };
    for worker in workers {
        counted.merge(&worker.finish());
    }
    metrics.add(&counted);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Groups `(seq, start, len)` candidates the way the filter emits
    /// them: one group per start, its lengths ascending and distinct.
    fn groups(cands: &[(u32, u32, u32)]) -> CandidateGroups {
        let mut by_start: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        for &(seq, start, len) in cands {
            by_start.entry((seq, start)).or_default().insert(len);
        }
        let mut out = CandidateGroups::default();
        for ((seq, start), lens) in by_start {
            out.push(SeqId(seq), start, &lens.into_iter().collect::<Vec<u32>>());
        }
        out
    }

    #[test]
    fn keeps_true_answers_drops_false_alarms() {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 9.0, 2.0]]);
        let q = [1.0, 2.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        // (0,0,2) = <1,2> exact 0; (0,2,2) = <9,2> exact >> eps.
        let cands = groups(&[(0, 0, 2), (0, 2, 2)]);
        let ans = postprocess(&store, &q, &cands, &params, &m);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.matches()[0].occ, Occurrence::new(SeqId(0), 0, 2));
        assert_eq!(ans.matches()[0].dist, 0.0);
        assert_eq!(m.snapshot().false_alarms, 1);
        assert_eq!(m.snapshot().postprocessed, 2);
    }

    #[test]
    fn duplicates_verified_once() {
        // Long runs reach one start along many emitting rows — and, on a
        // sparse tree, through many shifts: every start still lands in
        // one group, and every candidate is verified once.
        use crate::categorize::Alphabet;
        use crate::search::filter::{filter_tree, tests::ToyTree};
        let store =
            SequenceStore::from_values(vec![vec![1.0; 6], vec![1.0, 1.0, 2.0, 1.0, 1.0, 1.0]]);
        let a = Alphabet::singleton(&store).unwrap();
        let cs = a.encode_store(&store);
        let q = [1.0, 1.0];
        let params = SearchParams::with_epsilon(1.0);
        for sparse in [false, true] {
            let tree = ToyTree::over(&cs, sparse);
            let m = SearchMetrics::new();
            let cands = filter_tree(&tree, &a, &q, &params, &m);
            let starts: BTreeSet<(SeqId, u32)> = cands.iter().map(|(key, _)| key).collect();
            assert_eq!(starts.len(), cands.len(), "sparse={sparse}");
            let ans = postprocess(&store, &q, &cands, &params, &m);
            let s = m.snapshot();
            assert_eq!(s.postprocessed, s.candidates, "sparse={sparse}");
            assert_eq!(s.answers + s.false_alarms, s.postprocessed);
            assert_eq!(ans.occurrence_set().len(), ans.len(), "sparse={sparse}");
        }
    }

    #[test]
    fn shared_table_matches_independent_verification() {
        // Several candidate lengths at one start: row r of the shared
        // table must equal the independent DTW of each prefix.
        let store = SequenceStore::from_values(vec![vec![2.0, 3.0, 2.5, 9.0, 2.0, 2.2]]);
        let q = [2.0, 3.0, 2.0];
        let eps = 3.0;
        let params = SearchParams::with_epsilon(eps);
        let m = SearchMetrics::new();
        let cands = groups(&(1..=6).map(|l| (0, 0, l)).collect::<Vec<_>>());
        let ans = postprocess(&store, &q, &cands, &params, &m);
        for l in 1..=6u32 {
            let sub = store.get(SeqId(0)).subseq(0, l);
            let exact = crate::dtw::dtw(&q, sub);
            let found = ans
                .matches()
                .iter()
                .find(|m| m.occ.len == l)
                .map(|m| m.dist);
            if exact <= eps {
                assert_eq!(found, Some(exact), "length {l}");
            } else {
                assert_eq!(found, None, "length {l}");
            }
        }
        assert_eq!(
            m.snapshot().postprocessed,
            6,
            "all candidate lengths counted"
        );
    }

    #[test]
    fn early_abandon_rejects_tail_lengths() {
        // After a divergent element, row minima exceed ε: the longer
        // candidates must be rejected without computing their rows.
        let store = SequenceStore::from_values(vec![vec![1.0, 100.0, 100.0, 100.0, 100.0, 100.0]]);
        let q = [1.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        let cands = groups(&(1..=6).map(|l| (0, 0, l)).collect::<Vec<_>>());
        let ans = postprocess(&store, &q, &cands, &params, &m);
        assert_eq!(ans.len(), 1); // only length 1 survives
        assert_eq!(m.snapshot().false_alarms, 5);
        // Early abandoning computed far fewer cells than 1+2+..+6 rows.
        assert!(m.snapshot().postprocess_cells <= 3);
    }

    #[test]
    fn deterministic_group_order() {
        // Matches come back sorted by (seq, start) then length — not in
        // the order the groups were emitted in.
        let store = SequenceStore::from_values(vec![vec![1.0; 8], vec![1.0; 8]]);
        let q = [1.0, 1.0];
        let params = SearchParams::with_epsilon(0.5);
        let m = SearchMetrics::new();
        let mut cands = CandidateGroups::default();
        for seq in [1u32, 0] {
            for start in [5u32, 0, 3] {
                cands.push(SeqId(seq), start, &[1, 2]);
            }
        }
        let ans = postprocess(&store, &q, &cands, &params, &m);
        let occs: Vec<Occurrence> = ans.matches().iter().map(|m| m.occ).collect();
        let mut sorted = occs.clone();
        sorted.sort();
        assert_eq!(occs, sorted, "answers must come back in occurrence order");
        assert_eq!(ans.len(), 12);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The family table is each start's own table, taken at the
        /// least: on a grid of tenths (which binary floating point does
        /// not hold exactly), with starts anywhere in the extent and ε
        /// planted on a distance some start reaches, or half a tenth
        /// either side of it. Unbanded, a row's last column is `≤ ε`
        /// exactly where the least of the starts' `push_value` distances
        /// there is, and then equals it bit for bit. Banded, it is
        /// `≤ ε` wherever some start's banded distance is — no length
        /// within ε is killed.
        #[test]
        fn family_table_is_the_least_of_its_starts(
            values in proptest::collection::vec(0u32..40, 1..24),
            q in proptest::collection::vec(0u32..40, 1..6),
            starts in proptest::collection::vec(0u32..24, 1..6),
            window in 0u32..5,
            (plant, side) in (0usize..512, 0u32..3),
        ) {
            let tenth = |v: &u32| *v as f64 * 0.1;
            let values: Vec<f64> = values.iter().map(tenth).collect();
            let q: Vec<f64> = q.iter().map(tenth).collect();
            let window = window.checked_sub(1);
            let mut starts: Vec<u32> = starts
                .into_iter()
                .filter(|&s| (s as usize) < values.len())
                .collect();
            starts.sort_unstable();
            starts.dedup();
            if starts.is_empty() {
                starts.push(0);
            }
            let first = starts[0];
            let extent = &values[first as usize..];
            let offsets: Vec<u32> = starts.iter().map(|s| s - first).collect();
            // own[i][ℓ − 1]: start i's own distance at length ℓ.
            let own: Vec<Vec<f64>> = offsets
                .iter()
                .map(|&o| {
                    let mut t = WarpTable::new(&q, window);
                    extent[o as usize..].iter().map(|&v| t.push_value(v).dist).collect()
                })
                .collect();
            let met: Vec<f64> = own.iter().flatten().copied().filter(|d| d.is_finite()).collect();
            let eps = match met.get(plant % met.len().max(1)) {
                None => 1.0,
                Some(&d) => [d, d + 0.05, (d - 0.05).max(0.0)][side as usize],
            };
            let mut family = WarpTable::new(&q, window);
            run_family(&mut family, extent, &offsets, eps);
            for y in 1..=extent.len() {
                // Rows past the table's stop hold nothing within ε.
                let last = if y as u32 <= family.depth() {
                    family.row_stat(y as u32).dist
                } else {
                    f64::INFINITY
                };
                let least = offsets
                    .iter()
                    .zip(&own)
                    .filter(|(&o, _)| (o as usize) < y)
                    .map(|(&o, d)| d[y - 1 - o as usize])
                    .fold(f64::INFINITY, f64::min);
                let ctx = format!("row {y} of {extent:?} from {offsets:?}, q {q:?}, w {window:?}, eps {eps}");
                if least <= eps {
                    proptest::prop_assert!(last <= least, "{ctx}: {last} > {least}");
                }
                if window.is_none() && last <= eps {
                    proptest::prop_assert_eq!(last.to_bits(), least.to_bits(), "{}", ctx);
                }
            }
        }
    }

    /// Candidates of a sparse tree over one long run (forty values of
    /// one category, then a few of another) and two short
    /// sequences: a shifted query meets the run's stored suffix at
    /// almost every shift, so one family outgrows a task.
    fn long_family() -> (SequenceStore, crate::categorize::Alphabet, Vec<f64>) {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut tenth = move |lo: u32, hi: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lo + (state >> 33) as u32 % (hi - lo)) as f64 * 0.1
        };
        let mut run: Vec<f64> = (0..40).map(|_| tenth(0, 20)).collect();
        run.extend((0..6).map(|_| tenth(80, 100)));
        let short =
            |t: &mut dyn FnMut(u32, u32) -> f64| (0..9).map(|i| t(i * 10, i * 10 + 20)).collect();
        let store = SequenceStore::from_values(vec![run, short(&mut tenth), short(&mut tenth)]);
        let a = crate::categorize::Alphabet::equal_length(&store, 2).unwrap();
        (store, a, vec![1.0, 1.5, 0.7])
    }

    #[test]
    fn parallel_postprocess_matches_sequential() {
        let store = SequenceStore::from_values(vec![
            vec![2.0, 3.0, 2.5, 9.0, 2.0, 2.2, 3.1, 2.9],
            vec![1.0, 100.0, 2.0, 3.0, 2.0],
        ]);
        let q = [2.0, 3.0, 2.0];
        let mut cands = Vec::new();
        for seq in 0..2u32 {
            let n = store.get(SeqId(seq)).len() as u32;
            for start in 0..n {
                for len in 1..=(n - start) {
                    cands.push((seq, start, len));
                }
            }
        }
        let cands = groups(&cands);
        for eps in [0.5, 3.0, 50.0] {
            let params = SearchParams::with_epsilon(eps);
            let m1 = SearchMetrics::new();
            let seq_ans = postprocess(&store, &q, &cands, &params, &m1);
            for threads in [2u32, 8] {
                let mp = SearchMetrics::new();
                let par_ans =
                    postprocess(&store, &q, &cands, &params.clone().parallel(threads), &mp);
                assert_eq!(
                    seq_ans.matches(),
                    par_ans.matches(),
                    "eps={eps} t={threads}"
                );
                assert_eq!(m1.snapshot(), mp.snapshot(), "eps={eps} t={threads}");
            }
        }
        // Real sparse-filter output, one family wider than a task: the
        // family is verified whole on whichever worker claims it.
        use crate::search::filter::{filter_tree, tests::ToyTree};
        let (store, a, q) = long_family();
        let tree = ToyTree::over(&a.encode_store(&store), true);
        for eps in [0.5, 2.0, 6.0] {
            let params = SearchParams::with_epsilon(eps);
            let cands = filter_tree(&tree, &a, &q, &params, &SearchMetrics::new());
            let widest = (0..cands.family_count())
                .map(|f| cands.family(f).len())
                .max();
            assert!(widest > Some(GROUPS_PER_TASK), "eps={eps}: {widest:?}");
            let m1 = SearchMetrics::new();
            let seq_ans = postprocess(&store, &q, &cands, &params, &m1);
            assert!(m1.snapshot().cascade_abandon_kills > 0, "eps={eps}");
            for threads in [2u32, 8] {
                let mp = SearchMetrics::new();
                let par_ans =
                    postprocess(&store, &q, &cands, &params.clone().parallel(threads), &mp);
                assert_eq!(
                    seq_ans.matches(),
                    par_ans.matches(),
                    "eps={eps} t={threads}"
                );
                assert_eq!(m1.snapshot(), mp.snapshot(), "eps={eps} t={threads}");
            }
        }
    }

    #[test]
    fn families_kill_only_false_alarms() {
        // The long family's candidates, verified once as families and
        // once with every group a family of its own: the same answers,
        // each the brute-force distance of a candidate within ε, and
        // the same funnel, cascade on and off — the family table only
        // moves cells and the counter of what killed a false alarm.
        use crate::search::filter::{filter_tree, tests::ToyTree};
        let (store, a, q) = long_family();
        let tree = ToyTree::over(&a.encode_store(&store), true);
        for eps in [0.5, 2.0, 6.0] {
            for window in [None, Some(2)] {
                let mut params = SearchParams::with_epsilon(eps);
                params.window = window;
                let cands = filter_tree(&tree, &a, &q, &params, &SearchMetrics::new());
                let mut alone = CandidateGroups::default();
                for ((seq, start), lens) in cands.iter() {
                    alone.push(seq, start, lens);
                }
                let expect: Vec<Match> = {
                    let mut v: Vec<Match> = cands
                        .occurrences()
                        .filter_map(|occ| {
                            let c = store.occurrence_values(occ);
                            let dist = match window {
                                None => crate::dtw::dtw(&q, c),
                                Some(w) => crate::dtw::dtw_windowed(&q, c, w),
                            };
                            (dist <= eps).then_some(Match { occ, dist })
                        })
                        .collect();
                    v.sort_by_key(|m| m.occ);
                    v
                };
                let ctx = format!("eps={eps} w={window:?}");
                let mut funnels = Vec::new();
                for cascade in [true, false] {
                    let params = params.clone().cascaded(cascade);
                    let (mf, ma) = (SearchMetrics::new(), SearchMetrics::new());
                    let fam = postprocess(&store, &q, &cands, &params, &mf);
                    let own = postprocess(&store, &q, &alone, &params, &ma);
                    assert_eq!(fam.matches(), &expect[..], "{ctx} cascade={cascade}");
                    assert_eq!(own.matches(), &expect[..], "{ctx} cascade={cascade}");
                    let (f, o) = (mf.snapshot(), ma.snapshot());
                    assert_eq!(f.postprocessed, o.postprocessed, "{ctx}");
                    assert_eq!(f.false_alarms, o.false_alarms, "{ctx}");
                    assert_eq!(f.postprocessed, f.answers + f.false_alarms, "{ctx}");
                    funnels.push(f);
                }
                assert!(
                    funnels[0].postprocess_cells <= funnels[1].postprocess_cells,
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside its sequence")]
    fn candidate_beyond_its_sequence_is_rejected() {
        let store = SequenceStore::from_values(vec![vec![1.0; 3], vec![1.0; 3]]);
        let mut cands = CandidateGroups::default();
        cands.push(SeqId(0), 3, &[1]);
        let params = SearchParams::with_epsilon(1.0);
        postprocess(&store, &[1.0], &cands, &params, &SearchMetrics::new());
    }

    #[test]
    fn wide_band_groups_match_independent_dtw() {
        // w = 8 and every in-band length of every start a candidate
        // (17 lengths a group): answers are the per-candidate banded
        // DTW's, cascade on or off, and the funnel counters agree.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 5) as f64 - 2.0
        };
        let mut walk = |n: usize| {
            let mut v = 50.0;
            (0..n)
                .map(|_| {
                    v += step();
                    v
                })
                .collect::<Vec<f64>>()
        };
        let store = SequenceStore::from_values(vec![walk(60), walk(45)]);
        let q: Vec<f64> = store.get(SeqId(0)).subseq(7, 12).to_vec();
        let (n, w) = (q.len() as u32, 8u32);
        let mut cands = Vec::new();
        for (id, seq) in store.iter() {
            for start in 0..seq.len() as u32 {
                for len in (n - w)..=(n + w).min(seq.len() as u32 - start) {
                    cands.push((id.0, start, len));
                }
            }
        }
        let grouped = groups(&cands);
        for eps in [0.0, 4.0, 15.0] {
            let params = SearchParams::with_epsilon(eps).windowed(w);
            let (m_on, m_off) = (SearchMetrics::new(), SearchMetrics::new());
            let on = postprocess(&store, &q, &grouped, &params, &m_on);
            let off = postprocess(
                &store,
                &q,
                &grouped,
                &params.clone().cascaded(false),
                &m_off,
            );
            assert_eq!(on.matches(), off.matches(), "eps={eps}");
            let expect: Vec<Match> = cands
                .iter()
                .filter_map(|&(seq, start, len)| {
                    let occ = Occurrence::new(SeqId(seq), start, len);
                    let dist = crate::dtw::dtw_windowed(&q, store.occurrence_values(occ), w);
                    (dist <= eps).then_some(Match { occ, dist })
                })
                .collect();
            assert_eq!(on.matches(), expect, "eps={eps}");
            let (s_on, s_off) = (m_on.snapshot(), m_off.snapshot());
            assert_eq!(s_on.false_alarms, s_off.false_alarms, "eps={eps}");
            assert_eq!(s_on.postprocessed, cands.len() as u64);
            assert!(s_on.postprocess_cells <= s_off.postprocess_cells);
            assert_eq!(s_on.cascade_lb_improved_kills, 0, "tier 2 is gone");
        }
    }

    #[test]
    fn cent_grid_answers_on_epsilon_survive_the_cascade() {
        // Two subsequences of the README's stock example whose exact
        // distance from the query is 4 on the cent grid (1.83 + 0.83 +
        // 0.10 + 1.24). A lower bound that splits the same cells into
        // two differently-ordered sums (the retired second pass did)
        // can round a hair above ε and dismiss them; every bound that
        // runs must agree with the table it guards.
        let store = SequenceStore::from_values(vec![
            vec![11.83, 12.1, 12.24],
            vec![9.64, 9.86, 9.99, 10.17],
        ]);
        let q = [10.0, 11.0, 12.0, 11.0];
        let mut cands = Vec::new();
        for (id, seq) in store.iter() {
            for len in 1..=seq.len() as u32 {
                cands.push((id.0, 0, len));
            }
        }
        let cands = groups(&cands);
        for window in [None, Some(2)] {
            let mut params = SearchParams::with_epsilon(4.0);
            params.window = window;
            let m = SearchMetrics::new();
            let on = postprocess(&store, &q, &cands, &params, &m);
            let off = postprocess(&store, &q, &cands, &params.cascaded(false), &m);
            assert_eq!(on.matches(), off.matches(), "window {window:?}");
            for occ in [
                Occurrence::new(SeqId(0), 0, 3),
                Occurrence::new(SeqId(1), 0, 4),
            ] {
                assert!(
                    on.matches().iter().any(|m| m.occ == occ),
                    "window {window:?}: {occ} dismissed"
                );
            }
        }
    }

    #[test]
    fn empty_candidates_empty_answers() {
        let store = SequenceStore::from_values(vec![vec![1.0]]);
        let params = SearchParams::with_epsilon(1.0);
        let m = SearchMetrics::new();
        let ans = postprocess(&store, &[1.0], &CandidateGroups::default(), &params, &m);
        assert!(ans.is_empty());
        assert_eq!(m.snapshot().postprocessed, 0);
    }
}
