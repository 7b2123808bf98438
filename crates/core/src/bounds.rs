//! The lower-bound distance functions `D_tw-lb` (paper §5.3) and
//! `D_tw-lb2` (paper §6.2).
//!
//! Inside a categorized suffix tree the exact `D_tw` between a numeric
//! query and a symbol path cannot be computed; filtering instead uses
//! `D_tw-lb`, which replaces the base distance with the point-to-interval
//! distance [`Alphabet::base_lb`]:
//!
//! * **Theorem 2** — `D_tw-lb(S_i, CS_j) ≤ D_tw(S_i, S_j)`, so filtering
//!   with `D_tw-lb` produces no false dismissals.
//!
//! The sparse tree additionally needs distances to *non-stored* suffixes
//! `CS_j[p:-]` that begin inside a leading run of `N` equal symbols:
//!
//! * **Definition 4 / Theorem 3** — for `p = 2..N`,
//!   `D_tw-lb2(S_i, CS_j[p:-]) = D_tw-lb(S_i, CS_j) − (p−1)·D_base-lb(S_i[1], CS_j[1])`
//!   and `D_tw-lb2 ≤ D_tw-lb(S_i, CS_j[p:-]) ≤ D_tw(S_i, S_j[p:-])`.
//! * **The first-cell floor** — `CS_j[p:-]` starts inside the run, on a
//!   symbol equal to `CS_j[1]`, so every warping path over it opens on
//!   cell (1,1), which costs `d₁ = D_base-lb(S_i[1], CS_j[1])` in
//!   `D_tw-lb` and at least that in `D_tw` (the value lies in the
//!   category). Later cells only add non-negative terms, and float
//!   addition rounds monotonically, so `d₁ ≤ D_tw-lb(S_i, CS_j[p:-])`
//!   holds exactly. [`dtw_lb2`] returns `max(D_tw-lb2, d₁)`: once
//!   `d₁ > ε` no shift into the run can qualify, however far
//!   `D_tw-lb − (p−1)·d₁` falls.
//!
//! The functions here materialize full tables; the tree search uses the
//! incremental [`crate::dtw::WarpTable`] with the same base
//! distances, sharing rows across suffixes. [`dtw_lb2`] is the paper's
//! Definition 4 kept as a reference, tested against Theorem 3: the
//! sparse filter does not use it. It walks a leading run as one table
//! row instead, which is every shift's own `D_tw-lb` table's floor
//! with no slack (`search::filter`'s module docs).

use crate::categorize::{Alphabet, Symbol};
use crate::dtw::WarpTable;
use crate::sequence::Value;

/// `D_tw-lb(q, cs)` (Definition 3): lower bound of `D_tw(q, s)` for any
/// numeric sequence `s` whose categorized form is `cs`.
///
/// # Panics
/// Panics if either input is empty.
pub fn dtw_lb(q: &[Value], cs: &[Symbol], alphabet: &Alphabet) -> f64 {
    assert!(!cs.is_empty(), "D_tw-lb is defined for non-null sequences");
    let mut t = WarpTable::new(q, None);
    let mut dist = f64::INFINITY;
    for &sym in cs {
        dist = t.push_row_with(|qv| alphabet.base_lb(qv, sym)).dist;
    }
    dist
}

/// Prefix lower bounds: element `r-1` is `D_tw-lb(q, cs[..r])`.
pub fn dtw_lb_prefixes(q: &[Value], cs: &[Symbol], alphabet: &Alphabet) -> Vec<f64> {
    let mut t = WarpTable::new(q, None);
    cs.iter()
        .map(|&sym| t.push_row_with(|qv| alphabet.base_lb(qv, sym)).dist)
        .collect()
}

/// `D_tw-lb2(q, cs[p:-])` (Definition 4) floored at its first cell: lower
/// bound for a non-stored suffix that starts `shift = p − 1` symbols into
/// the leading run of `cs`, `max(D_tw-lb(q, cs) − shift·d₁, d₁)` with
/// `d₁ = D_base-lb(q[1], cs[1])`.
///
/// # Panics
/// Panics unless `1 <= shift < leading run length of cs`. Theorem 3
/// only proves the shifted value is a lower bound *inside* the leading
/// run; an out-of-range shift would silently return a number that can
/// exceed the true distance (a false dismissal), so the precondition is
/// enforced in release builds too — not just via `debug_assert!`.
pub fn dtw_lb2(q: &[Value], cs: &[Symbol], shift: u32, alphabet: &Alphabet) -> f64 {
    assert!(
        shift >= 1,
        "shift must be at least 1 (Definition 4: p >= 2)"
    );
    assert!(
        (lead_run(cs) as u32) > shift,
        "shift must stay inside the leading run"
    );
    let full = dtw_lb(q, cs, alphabet);
    let d1 = alphabet.base_lb(q[0], cs[0]);
    (full - shift as f64 * d1).max(d1)
}

/// Length of the run of equal symbols at the start of `cs` (the `N` of
/// Definition 4). Zero for an empty slice.
pub fn lead_run(cs: &[Symbol]) -> usize {
    match cs.first() {
        None => 0,
        Some(&first) => cs.iter().take_while(|&&s| s == first).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw;
    use crate::sequence::SequenceStore;

    fn alphabet2() -> (SequenceStore, Alphabet) {
        // Two categories as in the paper's §5 example:
        // C1 ~ low values, C2 ~ high values.
        let store =
            SequenceStore::from_values(vec![vec![0.1, 1.0, 2.0, 3.9], vec![4.0, 6.0, 8.0, 10.0]]);
        let a = Alphabet::equal_length(&store, 2).unwrap();
        (store, a)
    }

    #[test]
    fn lb_is_a_lower_bound_theorem2() {
        let (_, a) = alphabet2();
        let q = [5.0, 1.5, 9.0];
        let s = [2.0, 8.0, 8.0, 0.5];
        let cs = a.encode(&s);
        assert!(dtw_lb(&q, &cs, &a) <= dtw(&q, &s) + 1e-12);
    }

    #[test]
    fn lb_equals_exact_for_singleton_alphabet() {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 5.0, 2.0]]);
        let a = Alphabet::singleton(&store).unwrap();
        let q = [3.0, 0.5];
        let s = [2.0, 5.0, 1.0];
        let cs = a.encode(&s);
        assert_eq!(dtw_lb(&q, &cs, &a), dtw(&q, &s));
    }

    #[test]
    fn lb_prefixes_match_individual_calls() {
        let (_, a) = alphabet2();
        let q = [5.0, 1.5];
        let s = [2.0, 8.0, 0.5];
        let cs = a.encode(&s);
        let pre = dtw_lb_prefixes(&q, &cs, &a);
        for r in 1..=cs.len() {
            assert_eq!(pre[r - 1], dtw_lb(&q, &cs[..r], &a), "prefix {r}");
        }
    }

    #[test]
    fn lead_run_basics() {
        assert_eq!(lead_run(&[]), 0);
        assert_eq!(lead_run(&[7]), 1);
        assert_eq!(lead_run(&[1, 1, 1, 2, 1]), 3);
        assert_eq!(lead_run(&[2, 1, 1]), 1);
    }

    #[test]
    fn lb2_theorem3_chain() {
        let (_, a) = alphabet2();
        // Numeric sequence whose categorized form has a leading run.
        let s = [1.0, 2.0, 0.5, 9.0, 8.0]; // categorizes to [0,0,0,1,1]
        let cs = a.encode(&s);
        assert_eq!(lead_run(&cs), 3);
        let q = [6.0, 1.0, 7.0];
        for shift in 1..3u32 {
            let lb2 = dtw_lb2(&q, &cs, shift, &a);
            let lb = dtw_lb(&q, &cs[shift as usize..], &a);
            let exact = dtw(&q, &s[shift as usize..]);
            assert!(lb2 <= lb + 1e-12, "lb2 <= lb failed at shift {shift}");
            assert!(lb <= exact + 1e-12, "lb <= exact failed at shift {shift}");
        }
    }

    #[test]
    #[should_panic(expected = "leading run")]
    fn lb2_rejects_shift_outside_leading_run() {
        // Must fire in release builds too (it guards a correctness
        // precondition, not a mere debugging aid): this test is run
        // under `--release` in CI, where a `debug_assert!` would let
        // the garbage value through silently.
        let (_, a) = alphabet2();
        let s = [1.0, 2.0, 0.5, 9.0, 8.0]; // leading run of 3
        let cs = a.encode(&s);
        let _ = dtw_lb2(&[6.0, 1.0], &cs, 3, &a);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn lb2_rejects_zero_shift() {
        let (_, a) = alphabet2();
        let cs = a.encode(&[1.0, 1.0, 9.0]);
        let _ = dtw_lb2(&[6.0], &cs, 0, &a);
    }

    #[test]
    fn lb2_zero_base_means_equal_to_lb_of_full() {
        let (_, a) = alphabet2();
        let s = [1.0, 1.0, 9.0];
        let cs = a.encode(&s);
        // Query first element inside category 0's observed range:
        // D_base-lb = 0, so lb2 == lb of the full suffix.
        let q = [1.0, 5.0];
        assert_eq!(a.base_lb(q[0], cs[0]), 0.0);
        assert_eq!(dtw_lb2(&q, &cs, 1, &a), dtw_lb(&q, &cs, &a));
    }
}
