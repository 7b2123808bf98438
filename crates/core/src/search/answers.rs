//! Answer, candidate and statistics types shared by all search
//! algorithms.

use crate::error::CoreError;
use crate::sequence::{Occurrence, SeqId};

/// One candidate group's header: a start offset and its slice of the
/// shared length buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    pub(crate) seq: SeqId,
    pub(crate) start: u32,
    /// `lens[lo..hi]` of the owning [`CandidateGroups`].
    pub(crate) lens: (u32, u32),
}

/// What the lower-bound filter hands post-processing: candidate
/// occurrences grouped by `(seq, start)`, each group's lengths ascending
/// and distinct, no start in two groups.
///
/// The filter emits a group per stored suffix (and per shift into its
/// leading run) where the traversal stops above it, and every suffix
/// below one stopping point shares one length list — so a list is
/// stored once in a flat buffer and each group is a 16-byte header
/// naming its slice. Groups come in the filter's depth-first emission
/// order, not sorted.
///
/// One stored suffix's groups — its own (`k = 0`) group, if any, then
/// one per shift `k` into its leading run, starts ascending — lie back
/// to back and form a *family*; `families` marks where each begins.
/// The marks are written by the filter, which knows which suffix a
/// group belongs to: two adjacent groups of one sequence need not be
/// one suffix's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateGroups {
    pub(crate) groups: Vec<Group>,
    pub(crate) lens: Vec<u32>,
    /// The index of each family's first group, ascending; `families[0]
    /// == 0` whenever there is a group.
    pub(crate) families: Vec<u32>,
}

impl CandidateGroups {
    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when the filter emitted nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Group `i`'s `(seq, start)` and its ascending candidate lengths.
    pub(crate) fn get(&self, i: usize) -> ((SeqId, u32), &[u32]) {
        let g = self.groups[i];
        (
            (g.seq, g.start),
            &self.lens[g.lens.0 as usize..g.lens.1 as usize],
        )
    }

    /// Number of families.
    pub(crate) fn family_count(&self) -> usize {
        self.families.len()
    }

    /// The group indices of family `f`.
    pub(crate) fn family(&self, f: usize) -> std::ops::Range<usize> {
        let end = self.families.get(f + 1).map_or(self.len(), |&g| g as usize);
        self.families[f] as usize..end
    }

    /// Every group, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = ((SeqId, u32), &[u32])> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every candidate occurrence, group by group.
    #[cfg(test)]
    pub(crate) fn occurrences(&self) -> impl Iterator<Item = Occurrence> + '_ {
        self.iter().flat_map(|((seq, start), lens)| {
            lens.iter()
                .map(move |&len| Occurrence::new(seq, start, len))
        })
    }

    /// Total candidate occurrences (the sum of group widths).
    #[cfg(test)]
    pub(crate) fn candidates(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| u64::from(g.lens.1 - g.lens.0))
            .sum()
    }

    /// Appends one group, a family of its own, with its own copy of
    /// `lens`, which must be ascending and distinct.
    #[cfg(test)]
    pub(crate) fn push(&mut self, seq: SeqId, start: u32, lens: &[u32]) {
        debug_assert!(lens.windows(2).all(|w| w[0] < w[1]));
        self.families.push(self.groups.len() as u32);
        let lo = self.lens.len() as u32;
        self.lens.extend_from_slice(lens);
        self.groups.push(Group {
            seq,
            start,
            lens: (lo, self.lens.len() as u32),
        });
    }
}

/// A verified answer: an occurrence plus its exact time-warping distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Where the answer subsequence lies.
    pub occ: Occurrence,
    /// Exact `D_tw(query, subsequence)`, guaranteed `≤ ε`.
    pub dist: f64,
}

/// The result set of a similarity search.
#[derive(Debug, Clone, Default)]
pub struct AnswerSet {
    matches: Vec<Match>,
}

impl AnswerSet {
    /// Creates an empty answer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an answer.
    pub fn push(&mut self, m: Match) {
        self.matches.push(m);
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` when no answers were found.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// All matches in unspecified order.
    pub fn matches(&self) -> &[Match] {
        &self.matches
    }

    /// Sorts by `(seq, start, len)` for deterministic output and set
    /// comparisons.
    pub fn sort(&mut self) {
        self.matches.sort_by_key(|m| m.occ);
    }

    /// The canonical sorted list of occurrences (distances dropped) —
    /// used to compare algorithms for exact answer-set equality.
    pub fn occurrence_set(&self) -> Vec<Occurrence> {
        let mut occs: Vec<Occurrence> = self.matches.iter().map(|m| m.occ).collect();
        occs.sort();
        occs.dedup();
        occs
    }

    /// The `k` matches with the smallest distances (ties broken by
    /// occurrence order).
    pub fn top_k(&self, k: usize) -> Vec<Match> {
        let mut v = self.matches.clone();
        v.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .expect("finite distances")
                .then(a.occ.cmp(&b.occ))
        });
        v.truncate(k);
        v
    }

    /// The single best (smallest-distance) match per sequence, ordered
    /// by ascending distance — the "screener" view: one hit per series.
    pub fn best_per_sequence(&self) -> Vec<Match> {
        let mut best: std::collections::HashMap<crate::sequence::SeqId, Match> =
            std::collections::HashMap::new();
        for m in &self.matches {
            best.entry(m.occ.seq)
                .and_modify(|b| {
                    if (m.dist, m.occ) < (b.dist, b.occ) {
                        *b = *m;
                    }
                })
                .or_insert(*m);
        }
        let mut v: Vec<Match> = best.into_values().collect();
        v.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .expect("finite distances")
                .then(a.occ.cmp(&b.occ))
        });
        v
    }

    /// Greedy non-overlapping selection: walks matches in ascending
    /// distance order and keeps each match that does not overlap an
    /// already-kept match in the same sequence. Collapses the nested and
    /// shifted variants a subsequence search naturally produces into
    /// distinct regions.
    pub fn non_overlapping(&self) -> Vec<Match> {
        let mut sorted = self.matches.clone();
        sorted.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .expect("finite distances")
                .then(a.occ.cmp(&b.occ))
        });
        let mut picked: Vec<Match> = Vec::new();
        for m in sorted {
            if !picked.iter().any(|p| p.occ.overlaps(&m.occ)) {
                picked.push(m);
            }
        }
        picked
    }
}

impl Extend<Match> for AnswerSet {
    fn extend<I: IntoIterator<Item = Match>>(&mut self, iter: I) {
        self.matches.extend(iter);
    }
}

impl IntoIterator for AnswerSet {
    type Item = Match;
    type IntoIter = std::vec::IntoIter<Match>;
    fn into_iter(self) -> Self::IntoIter {
        self.matches.into_iter()
    }
}

/// Parameters of a similarity search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// The distance threshold ε: answers satisfy `D_tw ≤ ε`.
    pub epsilon: f64,
    /// Optional Sakoe–Chiba warping-window width (paper §8). Constrains
    /// both the distance computation and — because answers then have
    /// length within `|Q| ± w` — the traversal depth.
    pub window: Option<u32>,
    /// Hard cap on answer length (tree traversal depth). Derived from
    /// `window` automatically when unset.
    pub max_len: Option<u32>,
    /// Minimum answer length. Answers shorter than this are skipped (and,
    /// with a window, lengths below `|Q| − w` are impossible anyway).
    pub min_len: u32,
    /// Worker threads for the filter and post-processing phases. `0` and
    /// `1` both mean sequential; results are byte-identical at every
    /// value (see [`crate::parallel`]).
    pub threads: u32,
    /// Runs the numeric lower-bound cascade
    /// ([`crate::search::cascade`]) ahead of exact verification.
    /// Answers are byte-identical either way (the cascade never
    /// dismisses a true answer); only the work counters change. On by
    /// default; the switch exists for the equivalence tests and the
    /// ablation rows in the benchmark report.
    pub cascade: bool,
    /// Optional backend-family pin, forwarded into
    /// [`QueryRequest::backend`](crate::search::query::QueryRequest::backend):
    /// when `Some`, the executor answers only from an index of this
    /// [`BackendKind`] and rejects any other with a typed error. `None`
    /// (the default) accepts whatever backend the index was built with.
    pub backend: Option<crate::search::BackendKind>,
}

impl SearchParams {
    /// Plain threshold search, unconstrained warping.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            window: None,
            max_len: None,
            min_len: 1,
            threads: 1,
            cascade: true,
            backend: None,
        }
    }

    /// Adds a Sakoe–Chiba band of width `w`.
    pub fn windowed(mut self, w: u32) -> Self {
        self.window = Some(w);
        self
    }

    /// Restricts answer lengths to `[min_len, max_len]`.
    pub fn length_range(mut self, min_len: u32, max_len: u32) -> Self {
        self.min_len = min_len;
        self.max_len = Some(max_len);
        self
    }

    /// Sets the number of worker threads for filtering and
    /// post-processing.
    pub fn parallel(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the lower-bound cascade in post-processing.
    pub fn cascaded(mut self, on: bool) -> Self {
        self.cascade = on;
        self
    }

    /// Pins the backend family the answering index must belong to.
    pub fn on_backend(mut self, kind: crate::search::BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Validates the parameters against a query of length `qlen`.
    pub fn validate(&self, qlen: usize) -> Result<(), CoreError> {
        if qlen == 0 {
            return Err(CoreError::EmptyQuery);
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(CoreError::BadThreshold);
        }
        Ok(())
    }

    /// The effective traversal depth limit for a query of length `qlen`:
    /// the tighter of `max_len` and the window-implied bound `|Q| + w`.
    ///
    /// Saturates at `u32::MAX`: a window near `u32::MAX` must loosen the
    /// bound, never wrap it around to a tiny cap (which would silently
    /// dismiss long answers).
    pub fn effective_max_len(&self, qlen: usize) -> Option<u32> {
        let qlen = u32::try_from(qlen).unwrap_or(u32::MAX);
        let from_window = self.window.map(|w| qlen.saturating_add(w));
        match (self.max_len, from_window) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// The effective minimum answer length: the larger of `min_len` and
    /// the window-implied bound `|Q| − w`.
    pub fn effective_min_len(&self, qlen: usize) -> u32 {
        let qlen = u32::try_from(qlen).unwrap_or(u32::MAX);
        let from_window = self.window.map(|w| qlen.saturating_sub(w)).unwrap_or(1);
        self.min_len.max(from_window).max(1)
    }
}

/// Cost counters reported by the search algorithms. All counters are
/// machine-independent, so they reproduce the paper's complexity analysis
/// (§4.3, §5.5, §6.4) regardless of hardware.
///
/// This is plain data: an algorithm counts into a local `SearchStats`
/// and hands it to a [`SearchMetrics`](crate::search::SearchMetrics)
/// bundle once. [`fields_mut`](Self::fields_mut) is the one list of the
/// counters; the registry names, the wire's `"stats"` object and the
/// trace attributes all come from it. Wall-clock timings deliberately
/// never appear here — they live in the metrics histograms — which
/// keeps snapshots `Eq` and identical across identical runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Cumulative-distance-table cells computed during filtering.
    pub filter_cells: u64,
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Nodes fully expanded (visited and not pruned):
    /// `nodes_visited == nodes_expanded + branches_pruned` for the
    /// tree-filter searches.
    pub nodes_expanded: u64,
    /// Table rows computed during traversal: one per edge symbol
    /// consumed, except on a sparse index, where a repeat of the path's
    /// leading run pushes none.
    pub rows_pushed: u64,
    /// Rows a per-suffix scan would have computed (each shared row
    /// weighted by the suffixes below it) — `rows_unshared /
    /// rows_pushed` estimates the paper's `R_d`. Zero when the index
    /// cannot report subtree suffix counts.
    pub rows_unshared: u64,
    /// Subtrees pruned by Theorem 1.
    pub branches_pruned: u64,
    /// Candidates emitted by the filter (the paper's `n` plus exact hits):
    /// `stored_candidates + lb2_candidates`.
    pub candidates: u64,
    /// Candidates for stored suffixes (`D_tw-lb`, Definition 3).
    pub stored_candidates: u64,
    /// Candidates at shifted starts: the non-stored suffixes inside a
    /// stored suffix's leading run (the paper's Definition 4 suffixes) —
    /// nonzero only on sparse indexes. The name is the wire's.
    pub lb2_candidates: u64,
    /// Candidates whose exact distance was computed in post-processing.
    pub postprocessed: u64,
    /// Cells computed during post-processing.
    pub postprocess_cells: u64,
    /// Candidates rejected by post-processing (false alarms).
    pub false_alarms: u64,
    /// Final answers.
    pub answers: u64,
    /// Candidates killed by the cascade's tier-1 envelope bound
    /// (LB_Keogh); in the sequential scan, suffixes cut off by it.
    /// Every kill is also counted in `false_alarms`, so the funnel
    /// invariant `postprocessed == answers + false_alarms` still holds.
    pub cascade_lb_keogh_kills: u64,
    /// Always 0: the tier-2 two-pass refinement (LB_Improved) this
    /// counted no longer runs (see [`crate::search::cascade`]). Kept
    /// so the stats wire format and its readers stay put.
    pub cascade_lb_improved_kills: u64,
    /// Candidates killed by Theorem-1 early abandoning *inside the
    /// cascade's exact tier*, and on a sparse index by the family
    /// free-start table ahead of it (see
    /// [`postprocess`](crate::search::postprocess())): zero when the
    /// cascade is off, where the same rejections count only as
    /// `false_alarms`.
    pub cascade_abandon_kills: u64,
}

impl SearchStats {
    /// Total table cells computed (filter + post-processing) — the
    /// dominant cost in the paper's complexity model.
    pub fn total_cells(&self) -> u64 {
        self.filter_cells + self.postprocess_cells
    }

    /// Every counter with its name, in wire order: the one place the
    /// counters are listed.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 16] {
        [
            ("filter_cells", &mut self.filter_cells),
            ("nodes_visited", &mut self.nodes_visited),
            ("nodes_expanded", &mut self.nodes_expanded),
            ("rows_pushed", &mut self.rows_pushed),
            ("rows_unshared", &mut self.rows_unshared),
            ("branches_pruned", &mut self.branches_pruned),
            ("candidates", &mut self.candidates),
            ("stored_candidates", &mut self.stored_candidates),
            ("lb2_candidates", &mut self.lb2_candidates),
            ("postprocessed", &mut self.postprocessed),
            ("postprocess_cells", &mut self.postprocess_cells),
            ("false_alarms", &mut self.false_alarms),
            ("answers", &mut self.answers),
            ("cascade_lb_keogh_kills", &mut self.cascade_lb_keogh_kills),
            (
                "cascade_lb_improved_kills",
                &mut self.cascade_lb_improved_kills,
            ),
            ("cascade_abandon_kills", &mut self.cascade_abandon_kills),
        ]
    }

    /// [`fields_mut`](Self::fields_mut) by value.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SearchStats) {
        for ((_, v), (_, add)) in self.fields_mut().into_iter().zip(other.fields()) {
            *v += add;
        }
    }

    /// What was counted since `before`, an earlier reading of the same
    /// counters.
    pub fn since(&self, before: &SearchStats) -> SearchStats {
        let mut delta = *self;
        for ((_, v), (_, was)) in delta.fields_mut().into_iter().zip(before.fields()) {
            *v -= was;
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SeqId;

    fn occ(s: u32, p: u32, l: u32) -> Occurrence {
        Occurrence::new(SeqId(s), p, l)
    }

    #[test]
    fn answer_set_sort_and_occurrences() {
        let mut a = AnswerSet::new();
        a.push(Match {
            occ: occ(1, 0, 3),
            dist: 2.0,
        });
        a.push(Match {
            occ: occ(0, 5, 2),
            dist: 1.0,
        });
        a.push(Match {
            occ: occ(0, 5, 2),
            dist: 1.0,
        });
        a.sort();
        assert_eq!(a.matches()[0].occ, occ(0, 5, 2));
        assert_eq!(a.occurrence_set(), vec![occ(0, 5, 2), occ(1, 0, 3)]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn top_k_orders_by_distance() {
        let mut a = AnswerSet::new();
        for (i, d) in [(0u32, 5.0), (1, 1.0), (2, 3.0)] {
            a.push(Match {
                occ: occ(0, i, 1),
                dist: d,
            });
        }
        let top = a.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].dist, 1.0);
        assert_eq!(top[1].dist, 3.0);
    }

    #[test]
    fn best_per_sequence_picks_minimum() {
        let mut a = AnswerSet::new();
        for (seq, start, d) in [(0u32, 0u32, 3.0), (0, 4, 1.0), (1, 2, 2.0), (0, 9, 1.0)] {
            a.push(Match {
                occ: occ(seq, start, 2),
                dist: d,
            });
        }
        let best = a.best_per_sequence();
        assert_eq!(best.len(), 2);
        // Sequence 0's tie at dist 1.0 resolves to the earlier start.
        assert_eq!(best[0].occ, occ(0, 4, 2));
        assert_eq!(best[1].occ, occ(1, 2, 2));
    }

    #[test]
    fn non_overlapping_keeps_best_regions() {
        let mut a = AnswerSet::new();
        // Three nested variants of one region plus one distant region.
        for (start, len, d) in [(5u32, 4u32, 0.5), (5, 5, 1.0), (6, 3, 2.0)] {
            a.push(Match {
                occ: occ(0, start, len),
                dist: d,
            });
        }
        a.push(Match {
            occ: occ(0, 20, 3),
            dist: 1.5,
        });
        let picked = a.non_overlapping();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].occ, occ(0, 5, 4));
        assert_eq!(picked[1].occ, occ(0, 20, 3));
        // Adjacent (non-overlapping) regions both survive.
        let mut b = AnswerSet::new();
        b.push(Match {
            occ: occ(0, 0, 3),
            dist: 1.0,
        });
        b.push(Match {
            occ: occ(0, 3, 3),
            dist: 2.0,
        });
        assert_eq!(b.non_overlapping().len(), 2);
    }

    #[test]
    fn params_validation() {
        let p = SearchParams::with_epsilon(1.0);
        assert!(p.validate(5).is_ok());
        assert_eq!(p.validate(0), Err(CoreError::EmptyQuery));
        let bad = SearchParams::with_epsilon(-1.0);
        assert_eq!(bad.validate(5), Err(CoreError::BadThreshold));
        let nan = SearchParams::with_epsilon(f64::NAN);
        assert_eq!(nan.validate(5), Err(CoreError::BadThreshold));
    }

    #[test]
    fn effective_length_bounds() {
        let p = SearchParams::with_epsilon(1.0);
        assert_eq!(p.effective_max_len(10), None);
        assert_eq!(p.effective_min_len(10), 1);

        let w = SearchParams::with_epsilon(1.0).windowed(3);
        assert_eq!(w.effective_max_len(10), Some(13));
        assert_eq!(w.effective_min_len(10), 7);

        let both = SearchParams::with_epsilon(1.0)
            .windowed(3)
            .length_range(2, 11);
        assert_eq!(both.effective_max_len(10), Some(11));
        assert_eq!(both.effective_min_len(10), 7);

        // Window wider than the query: min length floors at 1.
        let wide = SearchParams::with_epsilon(1.0).windowed(50);
        assert_eq!(wide.effective_min_len(10), 1);
    }

    #[test]
    fn window_near_u32_max_saturates_instead_of_wrapping() {
        // |Q| + w would wrap in u32: the effective bound must saturate
        // (meaning "unbounded in practice"), not truncate to a tiny cap
        // that silently dismisses long answers.
        let p = SearchParams::with_epsilon(1.0).windowed(u32::MAX);
        assert_eq!(p.effective_max_len(10), Some(u32::MAX));
        assert_eq!(p.effective_min_len(10), 1);
        let near = SearchParams::with_epsilon(1.0).windowed(u32::MAX - 3);
        assert_eq!(near.effective_max_len(10), Some(u32::MAX));
        // An explicit max_len still wins over the saturated window bound.
        let capped = SearchParams::with_epsilon(1.0)
            .windowed(u32::MAX)
            .length_range(1, 42);
        assert_eq!(capped.effective_max_len(10), Some(42));
    }
}
