//! Multivariate extension (paper §8): sequences of `d`-dimensional
//! numeric vectors.
//!
//! The paper sketches the extension: multivariate values are converted
//! into multi-dimensional cells using a multi-attribute categorization
//! (MTAH), after which *the same* index construction and query processing
//! apply. We realize that sketch:
//!
//! * [`mv_dtw`] — time warping with the city-block base distance summed
//!   over dimensions;
//! * [`GridAlphabet`] — per-dimension [`Alphabet`]s combined into a grid;
//!   a vector encodes to the row-major index of its cell, a plain `u32`
//!   symbol, so the univariate suffix trees index multivariate data
//!   unchanged;
//! * [`GridAlphabet::base_lb`] — point-to-cell distance, the multivariate
//!   `D_base-lb`, summing per-dimension interval distances. The lower
//!   bounding property (Theorem 2) carries over dimension-wise.

use crate::categorize::{Alphabet, Symbol};
use crate::dtw::WarpTable;
use crate::error::CoreError;
use crate::sequence::{SequenceStore, Value};

/// A multivariate sequence: `len` points of `dims` values, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MvSequence {
    dims: usize,
    data: Vec<Value>,
}

impl MvSequence {
    /// Creates a multivariate sequence from row-major point data.
    ///
    /// # Panics
    /// Panics if `dims == 0`, data length is not a multiple of `dims`, or
    /// any value is non-finite.
    pub fn new(dims: usize, data: Vec<Value>) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert!(
            data.len().is_multiple_of(dims),
            "data length must be a multiple of dims"
        );
        assert!(data.iter().all(|v| v.is_finite()), "values must be finite");
        Self { dims, data }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// `true` when the sequence has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of each point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `i`-th point.
    pub fn point(&self, i: usize) -> &[Value] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterates over points.
    pub fn points(&self) -> impl Iterator<Item = &[Value]> {
        self.data.chunks_exact(self.dims)
    }
}

/// City-block distance between two points of equal dimensionality.
#[inline]
pub fn city_block(a: &[Value], b: &[Value]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Exact multivariate time-warping distance with the summed city-block
/// base distance.
///
/// ```
/// use warptree_core::multivariate::{mv_dtw, MvSequence};
/// let slow = MvSequence::new(2, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
/// let fast = MvSequence::new(2, vec![0.0, 0.0, 1.0, 1.0]);
/// assert_eq!(mv_dtw(&slow, &fast), 0.0);
/// ```
///
/// # Panics
/// Panics if either sequence is empty or dimensionalities differ.
pub fn mv_dtw(a: &MvSequence, b: &MvSequence) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    assert_eq!(a.dims(), b.dims(), "dimensionality mismatch");
    // Reuse the univariate table machinery by indexing query points: the
    // "query values" are point indices, the base closure resolves them.
    let idx: Vec<Value> = (0..a.len()).map(|i| i as Value).collect();
    let mut t = WarpTable::new(&idx, None);
    let mut dist = f64::INFINITY;
    for bp in b.points() {
        dist = t
            .push_row_with(|qi| city_block(a.point(qi as usize), bp))
            .dist;
    }
    dist
}

/// A grid categorization: one [`Alphabet`] per dimension, cells combined
/// row-major into a single symbol space of size `Π c_d`.
#[derive(Debug, Clone)]
pub struct GridAlphabet {
    axes: Vec<Alphabet>,
}

impl GridAlphabet {
    /// Builds a grid from per-dimension alphabets.
    ///
    /// # Panics
    /// Panics if the combined symbol space exceeds `u32`.
    pub fn new(axes: Vec<Alphabet>) -> Self {
        assert!(!axes.is_empty());
        let total: u128 = axes.iter().map(|a| a.len() as u128).product();
        assert!(total <= u32::MAX as u128, "grid symbol space too large");
        Self { axes }
    }

    /// Equal-length grid over the per-dimension value ranges of `seqs`,
    /// with `c` categories per dimension.
    pub fn equal_length(seqs: &[MvSequence], c: usize) -> Result<Self, CoreError> {
        let dims = seqs.first().map(|s| s.dims()).unwrap_or(0);
        if dims == 0 {
            return Err(CoreError::EmptyDatabase);
        }
        let mut axes = Vec::with_capacity(dims);
        for d in 0..dims {
            // Project dimension d into a univariate store and categorize.
            let store = SequenceStore::from_values(
                seqs.iter()
                    .map(|s| s.points().map(|p| p[d]).collect::<Vec<Value>>()),
            );
            axes.push(Alphabet::equal_length(&store, c)?);
        }
        Ok(Self::new(axes))
    }

    /// Maximum-entropy grid over the per-dimension value distributions
    /// of `seqs`, with `c` categories per dimension.
    pub fn max_entropy(seqs: &[MvSequence], c: usize) -> Result<Self, CoreError> {
        let dims = seqs.first().map(|s| s.dims()).unwrap_or(0);
        if dims == 0 {
            return Err(CoreError::EmptyDatabase);
        }
        let mut axes = Vec::with_capacity(dims);
        for d in 0..dims {
            let store = SequenceStore::from_values(
                seqs.iter()
                    .map(|s| s.points().map(|p| p[d]).collect::<Vec<Value>>()),
            );
            axes.push(Alphabet::max_entropy(&store, c)?);
        }
        Ok(Self::new(axes))
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// Total number of grid cells (the combined alphabet size).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.len()).product()
    }

    /// `true` when the grid has no cells (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-dimension alphabets.
    pub fn axes(&self) -> &[Alphabet] {
        &self.axes
    }

    /// Maps a point to its grid cell symbol (row-major).
    pub fn symbol_for(&self, point: &[Value]) -> Symbol {
        debug_assert_eq!(point.len(), self.axes.len());
        let mut sym: u64 = 0;
        for (a, &v) in self.axes.iter().zip(point) {
            sym = sym * a.len() as u64 + a.symbol_for(v) as u64;
        }
        sym as Symbol
    }

    /// Decomposes a grid symbol into per-dimension symbols.
    pub fn split(&self, sym: Symbol) -> Vec<Symbol> {
        let mut rem = sym as u64;
        let mut parts = vec![0 as Symbol; self.axes.len()];
        for (i, a) in self.axes.iter().enumerate().rev() {
            parts[i] = (rem % a.len() as u64) as Symbol;
            rem /= a.len() as u64;
        }
        parts
    }

    /// Multivariate `D_base-lb`: smallest possible city-block distance
    /// between `point` and any point inside cell `sym` — the sum of the
    /// per-dimension interval distances.
    pub fn base_lb(&self, point: &[Value], sym: Symbol) -> f64 {
        let parts = self.split(sym);
        self.axes
            .iter()
            .zip(&parts)
            .zip(point)
            .map(|((a, &s), &v)| a.base_lb(v, s))
            .sum()
    }

    /// Encodes a multivariate sequence into grid-cell symbols.
    pub fn encode(&self, seq: &MvSequence) -> Vec<Symbol> {
        seq.points().map(|p| self.symbol_for(p)).collect()
    }
}

/// Lower bound of [`mv_dtw`] against a grid-encoded sequence — the
/// multivariate `D_tw-lb` (Theorem 2 carries over because the base
/// distance lower-bounds dimension-wise).
pub fn mv_dtw_lb(q: &MvSequence, cs: &[Symbol], grid: &GridAlphabet) -> f64 {
    assert!(!q.is_empty() && !cs.is_empty());
    let idx: Vec<Value> = (0..q.len()).map(|i| i as Value).collect();
    let mut t = WarpTable::new(&idx, None);
    let mut dist = f64::INFINITY;
    for &sym in cs {
        dist = t
            .push_row_with(|qi| grid.base_lb(q.point(qi as usize), sym))
            .dist;
    }
    dist
}

/// A database of multivariate sequences, aligned with
/// [`SeqId`](crate::sequence::SeqId)s just
/// like the univariate [`SequenceStore`].
#[derive(Debug, Clone, Default)]
pub struct MvStore {
    seqs: Vec<MvSequence>,
}

impl MvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sequence, returning its id.
    ///
    /// # Panics
    /// Panics if the sequence's dimensionality differs from already
    /// stored sequences.
    pub fn push(&mut self, seq: MvSequence) -> crate::sequence::SeqId {
        if let Some(first) = self.seqs.first() {
            assert_eq!(
                first.dims(),
                seq.dims(),
                "all sequences must share dimensionality"
            );
        }
        let id = crate::sequence::SeqId(self.seqs.len() as u32);
        self.seqs.push(seq);
        id
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The sequence with id `id`.
    pub fn get(&self, id: crate::sequence::SeqId) -> &MvSequence {
        &self.seqs[id.0 as usize]
    }

    /// All sequences.
    pub fn seqs(&self) -> &[MvSequence] {
        &self.seqs
    }

    /// Grid-encodes every sequence into a
    /// [`CatStore`](crate::categorize::CatStore) whose symbols are
    /// grid-cell indices — directly indexable by the univariate suffix
    /// trees.
    pub fn encode(&self, grid: &GridAlphabet) -> crate::categorize::CatStore {
        crate::categorize::CatStore::from_symbols(
            self.seqs.iter().map(|s| grid.encode(s)).collect(),
            grid.len() as u32,
        )
    }
}

/// Multivariate sequential scan: every subsequence of every stored
/// sequence with `mv_dtw(query, ·) ≤ params.epsilon` (exact baseline).
pub fn mv_seq_scan(
    store: &MvStore,
    query: &MvSequence,
    params: &crate::search::SearchParams,
    stats: &mut crate::search::SearchStats,
) -> crate::search::AnswerSet {
    use crate::search::answers::Match;
    assert!(!query.is_empty());
    let idx: Vec<Value> = (0..query.len()).map(|i| i as Value).collect();
    params
        .validate(idx.len())
        .expect("invalid search parameters");
    let epsilon = params.epsilon;
    let max_len = params.effective_max_len(idx.len());
    let min_len = params.effective_min_len(idx.len());
    let mut answers = crate::search::AnswerSet::new();
    let mut table = WarpTable::new(&idx, params.window);
    for (t, seq) in store.seqs().iter().enumerate() {
        let id = crate::sequence::SeqId(t as u32);
        for start in 0..seq.len() {
            table.reset();
            for row in 0..seq.len() - start {
                let len = (row + 1) as u32;
                if let Some(m) = max_len {
                    if len > m {
                        break;
                    }
                }
                if table.next_row_out_of_band() {
                    break;
                }
                let point = seq.point(start + row);
                let stat = table.push_row_with(|qi| city_block(query.point(qi as usize), point));
                stats.rows_pushed += 1;
                if stat.dist <= epsilon && len >= min_len {
                    answers.push(Match {
                        occ: crate::sequence::Occurrence::new(id, start as u32, len),
                        dist: stat.dist,
                    });
                }
                if stat.prunes(epsilon) {
                    break;
                }
            }
        }
    }
    stats.filter_cells += table.cells_computed();
    stats.answers = answers.len() as u64;
    answers
}

/// Multivariate `SimSearch`: lower-bound filtering over a suffix tree
/// built on the grid-encoded store, then exact verification — the §8
/// extension end to end. The tree must be built over
/// [`MvStore::encode`]'s output.
pub fn mv_sim_search<T: crate::search::IndexBackend + Sync>(
    tree: &T,
    grid: &GridAlphabet,
    store: &MvStore,
    query: &MvSequence,
    params: &crate::search::SearchParams,
) -> (crate::search::AnswerSet, crate::search::SearchStats) {
    use crate::search::answers::Match;
    assert!(!query.is_empty());
    let metrics = crate::search::SearchMetrics::new();
    let idx: Vec<Value> = (0..query.len()).map(|i| i as Value).collect();
    let groups = crate::search::filter_tree_with(
        tree,
        &|qi, sym| grid.base_lb(query.point(qi as usize), sym),
        &idx,
        params,
        &metrics,
    );
    let mut stats = metrics.snapshot();
    // Post-processing, sharing one table per candidate group (the same
    // scheme as the univariate postprocess).
    let epsilon = params.epsilon;
    let mut answers = crate::search::AnswerSet::new();
    let mut table = WarpTable::new(&idx, params.window);
    for ((seq, start), lens) in groups.iter() {
        stats.postprocessed += lens.len() as u64;
        let s = store.get(seq);
        table.reset();
        let mut next = 0usize;
        let max_len = *lens.last().expect("non-empty group") as usize;
        for row in 0..max_len {
            let point = s.point(start as usize + row);
            let stat = table.push_row_with(|qi| city_block(query.point(qi as usize), point));
            let len = (row + 1) as u32;
            if next < lens.len() && lens[next] == len {
                if stat.dist <= epsilon {
                    answers.push(Match {
                        occ: crate::sequence::Occurrence::new(seq, start, len),
                        dist: stat.dist,
                    });
                } else {
                    stats.false_alarms += 1;
                }
                next += 1;
            }
            if stat.prunes(epsilon) {
                stats.false_alarms += (lens.len() - next) as u64;
                break;
            }
        }
    }
    stats.postprocess_cells += table.cells_computed();
    answers.sort();
    stats.answers = answers.len() as u64;
    (answers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw;

    fn mv(dims: usize, pts: &[f64]) -> MvSequence {
        MvSequence::new(dims, pts.to_vec())
    }

    #[test]
    fn mv_dtw_reduces_to_univariate_when_d_is_1() {
        let a = mv(1, &[3.0, 4.0, 3.0]);
        let b = mv(1, &[4.0, 5.0, 6.0, 7.0, 6.0, 6.0]);
        assert_eq!(
            mv_dtw(&a, &b),
            dtw(&[3.0, 4.0, 3.0], &[4.0, 5.0, 6.0, 7.0, 6.0, 6.0])
        );
    }

    #[test]
    fn mv_dtw_identity_and_symmetry() {
        let a = mv(2, &[1.0, 2.0, 3.0, 4.0]);
        let b = mv(2, &[1.0, 2.5, 3.0, 3.5, 0.0, 0.0]);
        assert_eq!(mv_dtw(&a, &a), 0.0);
        assert_eq!(mv_dtw(&a, &b), mv_dtw(&b, &a));
    }

    #[test]
    fn mv_dtw_warps_repeated_points() {
        let a = mv(2, &[1.0, 1.0, 2.0, 2.0]);
        let b = mv(2, &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(mv_dtw(&a, &b), 0.0);
    }

    #[test]
    fn grid_encode_and_split_roundtrip() {
        let seqs = vec![mv(2, &[0.0, 0.0, 10.0, 10.0, 5.0, 7.0])];
        let g = GridAlphabet::equal_length(&seqs, 3).unwrap();
        assert_eq!(g.dims(), 2);
        assert_eq!(g.len(), 9);
        for p in seqs[0].points() {
            let sym = g.symbol_for(p);
            let parts = g.split(sym);
            assert_eq!(parts.len(), 2);
            assert_eq!(sym, parts[0] * g.axes()[1].len() as u32 + parts[1]);
            // The point must lie inside (the observed bounds of) its cell.
            assert_eq!(g.base_lb(p, sym), 0.0);
        }
    }

    #[test]
    fn max_entropy_grid_balances_each_axis() {
        let seqs = vec![mv(
            2,
            &(0..100)
                .flat_map(|i| [(i as f64).exp() * 1e-3, i as f64])
                .collect::<Vec<f64>>(),
        )];
        let g = GridAlphabet::max_entropy(&seqs, 4).unwrap();
        assert_eq!(g.dims(), 2);
        // Each axis categorizes independently; every point is inside its
        // own cell.
        for p in seqs[0].points() {
            assert_eq!(g.base_lb(p, g.symbol_for(p)), 0.0);
        }
        // ME on the skewed exp axis: more resolution near the mass.
        let a0 = &g.axes()[0];
        assert!(a0.len() >= 2);
    }

    #[test]
    fn mv_lower_bound_theorem2() {
        let data = vec![
            mv(2, &[0.0, 1.0, 4.0, 5.0, 9.0, 2.0, 3.0, 8.0]),
            mv(2, &[7.0, 7.0, 1.0, 0.0]),
        ];
        let g = GridAlphabet::equal_length(&data, 2).unwrap();
        let q = mv(2, &[2.0, 2.0, 8.0, 8.0]);
        for s in &data {
            let cs = g.encode(s);
            assert!(mv_dtw_lb(&q, &cs, &g) <= mv_dtw(&q, s) + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of dims")]
    fn bad_point_count_panics() {
        let _ = mv(2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dims_mismatch_panics() {
        let a = mv(1, &[1.0]);
        let b = mv(2, &[1.0, 2.0]);
        let _ = mv_dtw(&a, &b);
    }
}
