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
//! table's row `r` gives the exact distance of the length-`r` candidate,
//! and Theorem-1 early abandoning rejects all longer candidates at once.
//! This is what keeps the post-processing term `n·L̄·|Q|` of §5.5 from
//! swamping the filtering savings at large ε.

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
    /// Contiguous runs of [`GROUPS_PER_TASK`] group indices, in order —
    /// the deterministic unit of parallel verification work.
    fn tasks(&self) -> Vec<std::ops::Range<usize>> {
        (0..self.len())
            .step_by(GROUPS_PER_TASK)
            .map(|lo| lo..(lo + GROUPS_PER_TASK).min(self.len()))
            .collect()
    }
}

/// One worker's state for [`verify_group`]: the shared exact table plus
/// reusable buffers and plain-integer tallies, so screening a group
/// costs zero allocations and zero shared-counter traffic however many
/// groups a query produces. The tallies reach the query's metrics
/// once, through [`finish`](Self::finish).
#[derive(Debug)]
struct Verifier {
    table: WarpTable,
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
            survivors: Vec::new(),
            rem: Vec::new(),
            tallies: SearchStats::default(),
        }
    }

    /// Everything this worker counted, its cells included.
    fn finish(self) -> SearchStats {
        SearchStats {
            postprocess_cells: self.table.cells_computed(),
            ..self.tallies
        }
    }
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
            for i in range {
                let (key, lens) = groups.get(i);
                verify_group(store, worker, key, lens, epsilon, env, &mut out);
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
