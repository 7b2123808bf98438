//! The lower-bound cascade run ahead of exact `D_tw` verification.
//!
//! The paper's funnel jumps straight from the categorized-tree filter
//! (`D_tw-lb` / `D_tw-lb2`, §5.3/§6.2) to the quadratic [`WarpTable`]
//! — every candidate that survives the tree pays `O(|Q|·L)` cells even
//! when a cheap O(L) bound could have rejected it. This module supplies
//! the *numeric* lower bound that runs between the two, and the column
//! remainders that let the table itself skip cells:
//!
//! * **Tier 1 — envelope bound** (LB_Keogh generalized to
//!   variable-length prefixes). For data row `j` the query's in-band
//!   columns are `x ∈ [j−w, j+w] ∩ [1, |Q|]` (the same band as
//!   [`WarpTable`]); let `[L_j, U_j]` be the min/max of the query over
//!   that range. Any warping path visits every row at least once, and
//!   a path cell `(x, j)` satisfies `|q_x − c_j| ≥ d(c_j, [L_j, U_j])`,
//!   so with non-negative base distances
//!   `Σ_{j≤l} d(c_j, [L_j, U_j]) ≤ D_tw(Q, C[..l])`. The sum is a
//!   prefix sum — *monotone non-decreasing in `l`* — so one running
//!   accumulator bounds every candidate length of a `(seq, start)`
//!   group, and once it exceeds ε every longer length dies at once.
//!   One O(1) step per row, no allocation, no per-length work.
//! * **Tier 3 — the threshold-pruned shared table** with Theorem-1
//!   early abandoning, built only up to the largest tier-1 survivor
//!   ([`WarpTable::push_value_pruned`], fed by
//!   [`QueryEnvelope::column_remainders`]).
//!
//! Tier 1 is *endpoint-strengthened* (LB_Kim's anchor cells fused into
//! the envelope bound): every warping path between `Q` and `C[..l]`
//! contains the corner cells `(1, 1)` and `(n, l)`, so row 1's
//! contribution is at least `|c_1 − q_1|` (not just the envelope
//! distance) and row `l`'s is at least `|c_l − q_n|`. The first-row
//! term is shared by every length of a group; the last-row term is a
//! per-length `max` applied at emission. On unconstrained warping (the
//! paper's default) the corners dominate the global envelope.
//!
//! # Why there is no tier 2
//!
//! Lemire's two-pass LB_Improved (clamp the candidate onto the query
//! envelope, then bound the query against the clamped candidate's
//! envelope) used to sit between the two. It is O(n) *per candidate*
//! by design; here a group carries up to `2w+1` candidate lengths and
//! the pass ran once per length, which made post-processing ≈ 4× slower
//! with the cascade on than off inside a window. Rebuilt to run once
//! per group (column envelopes grown row by row, one allocation-free
//! O(|Q|) sum per length) it still cost more than it saved, for a
//! structural reason: whatever the second pass rejects, the pruned
//! table rejects within a handful of rows — Theorem 1 abandons on the
//! row minimum, which is never below the envelope sum — so the pass
//! can only save the few cells of those rows, and must first touch
//! every row up to the candidate's length to do it. No per-group
//! admission rule recovers that: even run only on the groups it kills
//! outright, it costs about what the table spends on them. It was also
//! the one tier seen to dismiss a true answer: bounding the same cells
//! through two separately ordered sums, it could round a hair above an
//! answer lying exactly on ε. The `cascade_lb_improved_kills` counter
//! is kept (always 0) so the stats wire format stays put. DESIGN.md
//! §17 has the measurements.
//!
//! # Where a family's free-start table sits
//!
//! On a sparse index a stored suffix's groups — its own and one per
//! shift into its leading run — arrive as one family, and
//! [`postprocess`](crate::search::postprocess()) runs one free-start
//! table over the family's extent before any of its groups reaches
//! tier 1. It runs with the cascade off too, for it is no bound of its own:
//! it is the per-start table of tier 3 with a zero in column 0 on each
//! start's first row. Each of its cells takes the same operands in the
//! same order as the matching cell of each start's own table, then the
//! least of them; rounding `fl(b + ·)` is monotone and so commutes
//! with that `min`, which makes every cell within ε *equal*, bit for
//! bit, to the least of the starts' own cells — not a second sum that
//! could round past them, as LB_Improved's did. (In a window it runs
//! over the hull of the starts' bands, which only admits more paths:
//! a cell is then at most the least of theirs.) A length it kills is
//! above ε for its own start; with the cascade on it counts in
//! `cascade_abandon_kills`, the counter of the table it extends.
//!
//! `lb_keogh ≤ lb_keogh + endpoints ≤ D_tw` makes tier 1
//! no-false-dismissal, mirroring the `D_tw-lb2 ≤ D_tw-lb ≤ D_tw`
//! guarantees of the categorized filter; kills use the strict `lb > ε`
//! so a candidate landing *exactly* on ε is never dismissed (the
//! acceptance contract everywhere else is `dist ≤ ε`).
//!
//! [`WarpTable`]: crate::dtw::WarpTable
//! [`WarpTable::push_value_pruned`]: crate::dtw::WarpTable::push_value_pruned

use crate::sequence::Value;

/// Distance from `v` to the closed interval `[lo, hi]` (zero inside).
#[inline]
fn interval_dist(v: f64, lo: f64, hi: f64) -> f64 {
    if v < lo {
        lo - v
    } else if v > hi {
        v - hi
    } else {
        0.0
    }
}

/// Band-constrained envelopes of one query, precomputed once per query
/// and shared (read-only) by every candidate the cascade screens.
#[derive(Debug, Clone)]
pub struct QueryEnvelope {
    query: Vec<Value>,
    window: Option<u32>,
    /// `low[j-1]`/`high[j-1]`: query min/max over row `j`'s in-band
    /// columns, for rows `1..=|Q|`.
    low: Vec<f64>,
    high: Vec<f64>,
    /// `suffix_min[i]`/`suffix_max[i]`: min/max of `query[i..]` — the
    /// envelopes of rows `j > |Q|`, whose band is `[j−w, |Q|]`.
    suffix_min: Vec<f64>,
    suffix_max: Vec<f64>,
}

impl QueryEnvelope {
    /// Builds the envelopes for `query` under an optional Sakoe–Chiba
    /// band of width `window` — the same band
    /// [`WarpTable`](crate::dtw::WarpTable) enforces.
    ///
    /// # Panics
    /// Panics if the query is empty.
    pub fn new(query: &[Value], window: Option<u32>) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        let n = query.len();
        let mut low = vec![0.0; n];
        let mut high = vec![0.0; n];
        match window {
            None => {
                // Unconstrained: every row sees the whole query.
                let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
                for &q in query {
                    mn = mn.min(q);
                    mx = mx.max(q);
                }
                low.fill(mn);
                high.fill(mx);
            }
            Some(w) => {
                let w = w as usize;
                // Sliding min/max over [j−w, j+w] ∩ [1, n] via monotonic
                // deques: both window edges are non-decreasing in j, so
                // the classic O(n) scheme applies.
                let mut min_dq: std::collections::VecDeque<usize> =
                    std::collections::VecDeque::new();
                let mut max_dq: std::collections::VecDeque<usize> =
                    std::collections::VecDeque::new();
                let mut next = 0usize; // next query index to admit
                for j in 1..=n {
                    let lo = j.saturating_sub(w).max(1);
                    let hi = (j.saturating_add(w)).min(n);
                    while next < hi {
                        let q = query[next];
                        while min_dq.back().is_some_and(|&i| query[i] >= q) {
                            min_dq.pop_back();
                        }
                        min_dq.push_back(next);
                        while max_dq.back().is_some_and(|&i| query[i] <= q) {
                            max_dq.pop_back();
                        }
                        max_dq.push_back(next);
                        next += 1;
                    }
                    while min_dq.front().is_some_and(|&i| i + 1 < lo) {
                        min_dq.pop_front();
                    }
                    while max_dq.front().is_some_and(|&i| i + 1 < lo) {
                        max_dq.pop_front();
                    }
                    low[j - 1] = query[*min_dq.front().expect("non-empty band")];
                    high[j - 1] = query[*max_dq.front().expect("non-empty band")];
                }
            }
        }
        let mut suffix_min = vec![0.0; n];
        let mut suffix_max = vec![0.0; n];
        let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in (0..n).rev() {
            mn = mn.min(query[i]);
            mx = mx.max(query[i]);
            suffix_min[i] = mn;
            suffix_max[i] = mx;
        }
        Self {
            query: query.to_vec(),
            window,
            low,
            high,
            suffix_min,
            suffix_max,
        }
    }

    /// First query value `q_1` — the anchor of corner cell `(1, 1)`.
    #[inline]
    pub fn first_q(&self) -> Value {
        self.query[0]
    }

    /// Last query value `q_n` — the anchor of corner cell `(n, l)`.
    #[inline]
    pub fn last_q(&self) -> Value {
        self.query[self.query.len() - 1]
    }

    /// The envelope `[L_j, U_j]` of data row `j` (1-based), or `None`
    /// when the row's band is empty (row index beyond `|Q| + w`) — no
    /// warping path reaches such a row, so its candidates are dead.
    #[inline]
    pub fn row_bounds(&self, row: u32) -> Option<(f64, f64)> {
        let n = self.query.len();
        let j = row as usize;
        if j == 0 {
            return None;
        }
        if j <= n {
            return Some((self.low[j - 1], self.high[j - 1]));
        }
        match self.window {
            // Unconstrained: rows past the query still see all of it.
            None => Some((self.suffix_min[0], self.suffix_max[0])),
            Some(w) => {
                let lo = j.saturating_sub(w as usize).max(1);
                if lo > n {
                    None
                } else {
                    Some((self.suffix_min[lo - 1], self.suffix_max[lo - 1]))
                }
            }
        }
    }

    /// The tier-1 row contribution `d(c_j, [L_j, U_j])`. `None` when
    /// the row's band is empty (the candidate's exact distance is
    /// infinite).
    #[inline]
    pub fn row_dist(&self, row: u32, v: Value) -> Option<f64> {
        let (lo, hi) = self.row_bounds(row)?;
        Some((v - v.clamp(lo, hi)).abs())
    }

    /// Fills `out[x−1]` with `Σ_{x' > x} d(q_{x'}, [lo, hi])` — a lower
    /// bound on the cost of completing a warping path from query column
    /// `x` to the last column when every remaining data value lies in
    /// `[lo, hi]` (a reversed LB_Keogh over the candidate's value
    /// range). `out[|Q|−1]` is zero; the exact table's threshold-pruned
    /// rows subtract these to poison cells that cannot finish within ε.
    pub fn column_remainders(&self, lo: f64, hi: f64, out: &mut Vec<f64>) {
        let n = self.query.len();
        out.clear();
        out.resize(n, 0.0);
        let mut acc = 0.0;
        for x in (1..n).rev() {
            acc += interval_dist(self.query[x], lo, hi);
            out[x - 1] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::WarpTable;

    /// `LB_Keogh(Q, C[..len])` under the envelope's band: the plain
    /// tier-1 row sum. `f64::INFINITY` when a row's band is empty.
    fn lb_keogh(env: &QueryEnvelope, c: &[Value], len: usize) -> f64 {
        let mut sum = 0.0;
        for (j, &v) in c[..len].iter().enumerate() {
            match env.row_dist(j as u32 + 1, v) {
                Some(d) => sum += d,
                None => return f64::INFINITY,
            }
        }
        sum
    }

    /// The endpoint-strengthened tier-1 bound, as `verify_group` forms
    /// it: the envelope prefix over rows `1..len−1` plus `|c_1 − q_1|`
    /// for row 1 and `max(d(c_len, env), |c_len − q_n|)` for the final
    /// row.
    fn lb_keogh_kim(env: &QueryEnvelope, c: &[Value], len: usize) -> f64 {
        let mut env_sum = 0.0;
        let mut extra1 = 0.0;
        let mut bound = f64::INFINITY;
        for (j, &v) in c[..len].iter().enumerate() {
            let Some(d) = env.row_dist(j as u32 + 1, v) else {
                return f64::INFINITY;
            };
            if j == 0 {
                extra1 = (v - env.first_q()).abs() - d;
            }
            if j + 1 == len {
                bound = env_sum + extra1 + d.max((v - env.last_q()).abs());
            }
            env_sum += d;
        }
        bound
    }

    /// The exact band-constrained `D_tw(Q, C[..len])` the cascade bounds.
    fn exact_prefix_dtw(query: &[Value], window: Option<u32>, c: &[Value], len: usize) -> f64 {
        let mut t = WarpTable::new(query, window);
        let mut last = f64::INFINITY;
        for &v in &c[..len] {
            last = t.push_value(v).dist;
        }
        last
    }

    fn chain_holds(query: &[f64], window: Option<u32>, data: &[f64]) {
        let env = QueryEnvelope::new(query, window);
        for len in 1..=data.len() {
            let lb1 = lb_keogh(&env, data, len);
            let kim1 = lb_keogh_kim(&env, data, len);
            let exact = exact_prefix_dtw(query, window, data, len);
            assert!(
                lb1 <= kim1 + 1e-9,
                "lb_keogh {lb1} > lb_keogh_kim {kim1} (len {len}, w {window:?})"
            );
            assert!(
                kim1 <= exact + 1e-9,
                "lb_keogh_kim {kim1} > exact {exact} (len {len}, w {window:?})"
            );
        }
    }

    #[test]
    fn ordering_chain_on_fixed_cases() {
        let q = [3.0, 4.0, 3.0];
        let s = [4.0, 5.0, 6.0, 7.0, 6.0, 6.0];
        for w in [None, Some(0), Some(1), Some(2), Some(10)] {
            chain_holds(&q, w, &s);
        }
        chain_holds(&[5.0], None, &[1.0, 9.0, 5.0]);
        chain_holds(&[1.0, 9.0, 1.0, 9.0], Some(1), &[9.0, 1.0, 9.0, 1.0, 9.0]);
    }

    #[test]
    fn ordering_chain_under_random_bands() {
        // The property-test mirror of the categorized
        // `lb2 ≤ lb ≤ exact` suite: every query length up to 24, every
        // window class, every prefix length of a candidate that
        // outruns the band (deterministic LCG values).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 20.0 - 10.0
        };
        for n in 1..=24usize {
            for w in [Some(0), Some(1), Some(3), Some(8), Some(100), None] {
                let q: Vec<f64> = (0..n).map(|_| next()).collect();
                let dlen = n + w.map_or(4, |w| (w as usize).min(9)) + 2;
                let d: Vec<f64> = (0..dlen).map(|_| next()).collect();
                chain_holds(&q, w, &d);
            }
        }
    }

    #[test]
    fn envelope_matches_naive_definition() {
        let q = [2.0, 7.0, 1.0, 5.0, 3.0];
        for w in [0u32, 1, 2, 4, 100] {
            let env = QueryEnvelope::new(&q, Some(w));
            for j in 1..=(q.len() + w as usize + 2) {
                let lo = j.saturating_sub(w as usize).max(1);
                let hi = (j + w as usize).min(q.len());
                let expect = if lo > hi {
                    None
                } else {
                    let win = &q[lo - 1..hi];
                    Some((
                        win.iter().cloned().fold(f64::INFINITY, f64::min),
                        win.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    ))
                };
                assert_eq!(env.row_bounds(j as u32), expect, "w={w} j={j}");
            }
        }
        // Unwindowed: every row sees the global range.
        let env = QueryEnvelope::new(&q, None);
        for j in [1u32, 3, 5, 6, 100] {
            assert_eq!(env.row_bounds(j), Some((1.0, 7.0)));
        }
    }

    #[test]
    fn lb_keogh_prefix_sums_are_monotone() {
        let q = [5.0, 1.0, 7.0];
        let d = [2.0, 9.0, 4.0, 0.0, 6.0, 8.0];
        for w in [None, Some(1), Some(3)] {
            let env = QueryEnvelope::new(&q, w);
            let mut prev = 0.0;
            for len in 1..=d.len() {
                let lb = lb_keogh(&env, &d, len);
                assert!(lb >= prev, "tier-1 sum decreased at len {len}");
                prev = lb;
            }
        }
    }

    #[test]
    fn identical_sequences_have_zero_bounds() {
        let q = [3.0, 1.0, 4.0, 1.0, 5.0];
        for w in [None, Some(2)] {
            let env = QueryEnvelope::new(&q, w);
            assert_eq!(lb_keogh(&env, &q, q.len()), 0.0);
            assert_eq!(lb_keogh_kim(&env, &q, q.len()), 0.0);
        }
    }

    #[test]
    fn endpoint_terms_tighten_flat_envelopes() {
        // Unconstrained warping over a wide-range query: the global
        // envelope swallows every in-range candidate value, so the
        // plain bound is zero — but the corner cells still pin
        // c_1 to q_1 and c_l to q_n.
        let q = [0.0, 10.0, 0.0, 10.0];
        let env = QueryEnvelope::new(&q, None);
        let d = [5.0, 5.0, 5.0];
        assert_eq!(lb_keogh(&env, &d, 3), 0.0);
        // |5−q_1| from cell (1,1) plus |5−q_n| from cell (n,l).
        assert_eq!(lb_keogh_kim(&env, &d, 3), 10.0);
        assert_eq!(exact_prefix_dtw(&q, None, &d, 3), 20.0);
    }

    #[test]
    fn empty_band_rows_yield_infinite_bounds() {
        // |Q| = 2, w = 1: rows past 3 have empty bands — the bound
        // must go infinite exactly where the exact distance does.
        let q = [1.0, 2.0];
        let env = QueryEnvelope::new(&q, Some(1));
        let d = [1.0, 2.0, 2.0, 2.0];
        assert!(lb_keogh(&env, &d, 3).is_finite());
        assert!(lb_keogh(&env, &d, 4).is_infinite());
        assert!(lb_keogh_kim(&env, &d, 4).is_infinite());
        assert!(exact_prefix_dtw(&q, Some(1), &d, 4).is_infinite());
    }

    #[test]
    fn column_remainders_are_suffix_sums_of_interval_distances() {
        let q = [4.0, 1.0, 8.0, 1.0, 6.0];
        let env = QueryEnvelope::new(&q, Some(2));
        let mut rem = vec![99.0; 2];
        env.column_remainders(2.0, 5.0, &mut rem);
        // d(q_x, [2, 5]) = [0, 1, 3, 1, 1]; rem[x−1] sums the columns
        // after x.
        assert_eq!(rem, vec![6.0, 5.0, 2.0, 1.0, 0.0]);
    }
}
