//! Sequential scanning, the paper's baseline (§4.3).
//!
//! For every suffix of every data sequence, a cumulative distance table
//! against the query is built row by row; every row whose last column is
//! `≤ ε` yields one answer subsequence. Complexity `O(M·L̄²·|Q|)`.
//!
//! Three modes are provided:
//!
//! * [`SeqScanMode::Full`] — the paper's baseline: every table is built
//!   completely.
//! * [`SeqScanMode::EarlyAbandon`] — Theorem-1 early abandoning: a
//!   suffix's table stops growing once its row minimum exceeds ε. An
//!   ablation (not in the paper) isolating how much of the index's win
//!   comes from pruning alone versus prefix sharing.
//! * [`SeqScanMode::Cascade`] — Theorem-1 abandoning plus the tier-1
//!   envelope bound of [`crate::search::cascade`]: an O(1)-per-row
//!   prefix sum cuts a suffix off *before* its next O(|Q|) table row is
//!   computed once `LB_Keogh > ε` (the sum is monotone, so no longer
//!   prefix of that suffix can be an answer). Answers are identical to
//!   [`SeqScanMode::Full`].

use crate::dtw::WarpTable;
use crate::search::answers::{AnswerSet, Match, SearchParams, SearchStats};
use crate::search::cascade::QueryEnvelope;
use crate::sequence::{Occurrence, SequenceStore, Value};

/// Early-abandoning behaviour of [`seq_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqScanMode {
    /// Build every cumulative table completely (the paper's baseline).
    Full,
    /// Stop a suffix's table as soon as Theorem 1 proves no further
    /// answer is possible.
    EarlyAbandon,
    /// Theorem-1 abandoning plus the tier-1 envelope cut-off: stop a
    /// suffix once its running `LB_Keogh` prefix sum exceeds ε, before
    /// computing the next table row.
    Cascade,
}

/// Scans the whole store, returning every subsequence whose exact
/// time-warping distance from `query` is `≤ params.epsilon`.
///
/// This computes *exact* distances (no categorization, no lower bounds)
/// and therefore serves as the ground truth the index-based searches are
/// verified against.
pub fn seq_scan(
    store: &SequenceStore,
    query: &[Value],
    params: &SearchParams,
    mode: SeqScanMode,
    stats: &mut SearchStats,
) -> AnswerSet {
    params
        .validate(query.len())
        .expect("invalid search parameters");
    let epsilon = params.epsilon;
    let max_len = params.effective_max_len(query.len());
    let min_len = params.effective_min_len(query.len());
    let mut answers = AnswerSet::new();
    let mut table = WarpTable::new(query, params.window);
    let env = (mode == SeqScanMode::Cascade).then(|| QueryEnvelope::new(query, params.window));
    for (id, seq) in store.iter() {
        let values = seq.values();
        for start in 0..values.len() {
            table.reset();
            let mut lb_sum = 0.0;
            let mut extra1 = 0.0;
            for (row, &v) in values[start..].iter().enumerate() {
                let len = (row + 1) as u32;
                if let Some(m) = max_len {
                    if len > m {
                        break;
                    }
                }
                if table.next_row_out_of_band() {
                    break;
                }
                if let Some(env) = &env {
                    // Tier-1 cut-off: one O(1) prefix-sum step decides
                    // before the O(|Q|) row is paid, with row 1
                    // upgraded to the exact corner term |c_1 − q_1|
                    // (cell (1,1) is on every warping path). Strict `>`
                    // so a prefix landing exactly on ε is verified.
                    match env.row_dist(len, v) {
                        Some(d) => {
                            if row == 0 {
                                extra1 = (v - env.first_q()).abs() - d;
                            }
                            lb_sum += d;
                        }
                        None => lb_sum = f64::INFINITY,
                    }
                    if lb_sum + extra1 > epsilon {
                        stats.cascade_lb_keogh_kills += 1;
                        break;
                    }
                }
                let stat = if env.is_some() {
                    // Threshold-pruned row: skips cells provably above ε
                    // while keeping every ≤ ε value (and the Theorem-1
                    // decision) exact.
                    table.push_value_bounded(v, epsilon)
                } else {
                    table.push_value(v)
                };
                stats.rows_pushed += 1;
                if stat.dist <= epsilon && len >= min_len {
                    answers.push(Match {
                        occ: Occurrence::new(id, start as u32, len),
                        dist: stat.dist,
                    });
                }
                if mode != SeqScanMode::Full && stat.prunes(epsilon) {
                    stats.branches_pruned += 1;
                    break;
                }
            }
        }
    }
    stats.filter_cells += table.cells_computed();
    stats.answers = answers.len() as u64;
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw;

    fn store(vals: &[&[f64]]) -> SequenceStore {
        SequenceStore::from_values(vals.iter().map(|v| v.to_vec()))
    }

    #[test]
    fn finds_all_subsequences_within_epsilon() {
        let st = store(&[&[1.0, 2.0, 3.0], &[2.0, 2.0]]);
        let q = [2.0];
        let params = SearchParams::with_epsilon(0.5);
        let mut stats = SearchStats::default();
        let ans = seq_scan(&st, &q, &params, SeqScanMode::Full, &mut stats);
        let occs = ans.occurrence_set();
        // Brute-force ground truth.
        let mut expected = Vec::new();
        for (id, s) in st.iter() {
            for p in 0..s.len() {
                for l in 1..=s.len() - p {
                    if dtw(&q, s.subseq(p as u32, l as u32)) <= 0.5 {
                        expected.push(Occurrence::new(id, p as u32, l as u32));
                    }
                }
            }
        }
        expected.sort();
        assert_eq!(occs, expected);
        // <2> in S0, <2>, <2,2> (x2 starts? no: starts 0 len 1, start 1 len 1,
        // start 0 len 2) in S1.
        assert_eq!(occs.len(), 4);
        assert_eq!(stats.answers, 4);
    }

    #[test]
    fn early_abandon_matches_full_answers() {
        let st = store(&[&[5.0, 1.0, 9.0, 2.0, 2.5, 8.0, 1.5]]);
        let q = [2.0, 2.0, 8.0];
        let params = SearchParams::with_epsilon(2.0);
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let full = seq_scan(&st, &q, &params, SeqScanMode::Full, &mut s1);
        let ea = seq_scan(&st, &q, &params, SeqScanMode::EarlyAbandon, &mut s2);
        assert_eq!(full.occurrence_set(), ea.occurrence_set());
        // Early abandoning must not do more work.
        assert!(s2.rows_pushed <= s1.rows_pushed);
        assert!(s2.filter_cells <= s1.filter_cells);
    }

    #[test]
    fn cascade_matches_full_answers_and_prunes_harder() {
        let st = store(&[
            &[5.0, 1.0, 9.0, 2.0, 2.5, 8.0, 1.5],
            &[2.0, 2.1, 7.9, 100.0, 2.0],
        ]);
        let q = [2.0, 2.0, 8.0];
        for eps in [0.5, 2.0, 10.0] {
            for window in [None, Some(1), Some(3)] {
                let mut params = SearchParams::with_epsilon(eps);
                params.window = window;
                let mut s_full = SearchStats::default();
                let mut s_casc = SearchStats::default();
                let full = seq_scan(&st, &q, &params, SeqScanMode::Full, &mut s_full);
                let casc = seq_scan(&st, &q, &params, SeqScanMode::Cascade, &mut s_casc);
                assert_eq!(full.matches(), casc.matches(), "eps={eps} w={window:?}");
                assert!(s_casc.rows_pushed <= s_full.rows_pushed);
                assert!(s_casc.filter_cells <= s_full.filter_cells);
            }
        }
        // A tight threshold must actually exercise the tier-1 cut-off.
        let mut s = SearchStats::default();
        let params = SearchParams::with_epsilon(0.5);
        seq_scan(&st, &q, &params, SeqScanMode::Cascade, &mut s);
        assert!(s.cascade_lb_keogh_kills > 0, "tier-1 never fired");
    }

    #[test]
    fn reported_distances_are_exact() {
        let st = store(&[&[3.0, 4.0, 3.0, 7.0]]);
        let q = [3.0, 4.0];
        let params = SearchParams::with_epsilon(5.0);
        let mut stats = SearchStats::default();
        let ans = seq_scan(&st, &q, &params, SeqScanMode::Full, &mut stats);
        for m in ans.matches() {
            let sub = st.occurrence_values(m.occ);
            assert_eq!(m.dist, dtw(&q, sub));
            assert!(m.dist <= 5.0);
        }
        assert!(!ans.is_empty());
    }

    #[test]
    fn window_limits_answer_lengths() {
        let st = store(&[&[2.0; 12]]);
        let q = [2.0, 2.0, 2.0, 2.0];
        let params = SearchParams::with_epsilon(0.0).windowed(1);
        let mut stats = SearchStats::default();
        let ans = seq_scan(&st, &q, &params, SeqScanMode::Full, &mut stats);
        assert!(!ans.is_empty());
        for m in ans.matches() {
            assert!(m.occ.len >= 3 && m.occ.len <= 5, "len {}", m.occ.len);
        }
    }

    #[test]
    fn empty_store_returns_nothing() {
        let st = SequenceStore::new();
        let params = SearchParams::with_epsilon(1.0);
        let mut stats = SearchStats::default();
        let ans = seq_scan(&st, &[1.0], &params, SeqScanMode::Full, &mut stats);
        assert!(ans.is_empty());
    }
}
