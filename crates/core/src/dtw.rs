//! The time-warping distance `D_tw` (paper §3) and the incremental
//! cumulative-distance-table machinery shared by every search algorithm.
//!
//! # Definitions
//!
//! For non-null sequences `S_i`, `S_j` (Definition 1):
//!
//! ```text
//! D_tw(S_i, S_j) = D_base(S_i[1], S_j[1]) + min { D_tw(S_i, S_j[2:-]),
//!                                                 D_tw(S_i[2:-], S_j),
//!                                                 D_tw(S_i[2:-], S_j[2:-]) }
//! D_base(a, b)   = |a - b|
//! ```
//!
//! computed by dynamic programming over the cumulative table `γ(x, y)`
//! (Definition 2). We orient the table with the **query along the x-axis
//! (columns)** and the data path along the y-axis (rows): the last column
//! of row `r` is then the distance between the query and the length-`r`
//! prefix of the data — exactly what the suffix-tree traversal inspects,
//! one row per edge symbol.
//!
//! # Theorem 1 (branch pruning)
//!
//! > If all columns of the last row of the cumulative distance table have
//! > values greater than ε, adding more rows cannot yield values ≤ ε.
//!
//! This holds because each cell adds a non-negative base distance to the
//! minimum of its three predecessors, so the row minimum is non-decreasing
//! as rows are appended. [`WarpTable::push_row_with`] reports the row
//! minimum (`mDist`) so callers can cut off traversal/scanning.
//!
//! # Warping window (paper §8)
//!
//! An optional Sakoe–Chiba band of width `w` restricts the table to cells
//! with `|x − y| ≤ w`. Besides the usual DTW robustness benefits, the paper
//! notes it bounds answer lengths to `|Q| ± w`, which lets the index skip
//! suffixes/depths outside that range.
//!
//! # Row blocks
//!
//! A cell's three predecessors sit in its own row and the row above, so
//! row `r + 1` can start on column `x` as soon as row `r` has finished
//! it. [`WarpTable::push_base_rows`] uses this to grow the table by up
//! to [`BLOCK_ROWS`] rows in one walk over the columns: each row's
//! `min`→`add` chain overlaps its neighbours' instead of waiting for the
//! row above to end, and every cell still takes the same operands in the
//! same order, so the block is bit-identical to pushing its rows one at a
//! time. A caller that pushes a block before knowing it needs every row
//! (the filter does not know where Theorem 1 will cut an edge) gives the
//! unneeded rows back with [`WarpTable::retract`], which also takes their
//! cells out of the cost counter.

use crate::sequence::Value;

/// The most rows [`WarpTable::push_base_rows`] computes in one walk over
/// the columns.
pub const BLOCK_ROWS: usize = 4;

/// Result of appending one row to a [`WarpTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStat {
    /// `γ(|Q|, r)`: distance between the full query and the data prefix of
    /// length `r` (the paper's `dist`).
    pub dist: f64,
    /// Minimum over the row's (in-band) columns (the paper's `mDist`);
    /// by Theorem 1 traversal may stop once `min > ε`.
    pub min: f64,
}

impl RowStat {
    /// `true` when, by Theorem 1, no deeper row can reach `epsilon`.
    #[inline]
    pub fn prunes(&self, epsilon: f64) -> bool {
        self.min > epsilon
    }
}

/// An incrementally grown cumulative time-warping distance table.
///
/// The query is fixed at construction; data rows are appended with
/// [`push_row_with`](Self::push_row_with) (or a block at a time with
/// [`push_base_rows`](Self::push_base_rows)) and removed with
/// [`truncate`](Self::truncate), which is what lets a depth-first
/// suffix-tree traversal share table prefixes across all suffixes with a
/// common prefix (the paper's `R_d` reduction factor).
///
/// Two tables are equal when they hold the same query, window, cells and
/// cost counter — the comparison the kernel-equivalence tests make.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpTable {
    query: Vec<Value>,
    /// Row-major cells, stride `query.len() + 1`; row 0 is the boundary
    /// row `[0, ∞, ∞, …]`.
    cells: Vec<f64>,
    stats: Vec<RowStat>,
    window: Option<u32>,
    /// Total cells computed over this table's lifetime (monotonic; used to
    /// report the machine-independent cost model of §4.3/§5.5).
    cells_computed: u64,
    /// `(first, last)` column (0-based into the stride, column 0
    /// included) of the most recent row with value `≤ limit`, as left
    /// by [`push_value_bounded`](Self::push_value_bounded) — the pruned
    /// column range the next bounded row starts from. `None` whenever
    /// the last row was produced by an unbounded push (or after
    /// `truncate`/`reset`), in which case the next bounded push rescans
    /// the previous row.
    bound_state: Option<(usize, usize)>,
    /// Row index before the first row of the latest free start
    /// ([`start_here`](Self::start_here)); 0 for a table with one start.
    lag: u32,
}

impl WarpTable {
    /// Creates a table for `query` with an optional Sakoe–Chiba band.
    ///
    /// # Panics
    /// Panics if the query is empty.
    pub fn new(query: &[Value], window: Option<u32>) -> Self {
        assert!(!query.is_empty(), "query must be non-empty");
        let stride = query.len() + 1;
        let mut cells = Vec::with_capacity(stride * 16);
        cells.push(0.0);
        cells.extend(std::iter::repeat_n(f64::INFINITY, query.len()));
        Self {
            query: query.to_vec(),
            cells,
            stats: Vec::with_capacity(16),
            window,
            cells_computed: 0,
            bound_state: None,
            lag: 0,
        }
    }

    /// The query this table was built for.
    #[inline]
    pub fn query(&self) -> &[Value] {
        &self.query
    }

    /// Number of data rows currently in the table (excluding the boundary
    /// row).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.stats.len() as u32
    }

    /// The stats of row `r` (1-based, `1..=depth`).
    #[inline]
    pub fn row_stat(&self, r: u32) -> RowStat {
        self.stats[(r - 1) as usize]
    }

    /// The cells of row `r` (1-based), columns `1..=|Q|`.
    #[cfg(test)]
    pub(crate) fn row_cells(&self, r: u32) -> &[f64] {
        let stride = self.query.len() + 1;
        let at = r as usize * stride;
        &self.cells[at + 1..at + stride]
    }

    /// Total cells computed so far (cost counter).
    #[inline]
    pub fn cells_computed(&self) -> u64 {
        self.cells_computed
    }

    /// `true` when a band is configured and every cell of the next row
    /// would fall outside it (row index > |Q| + w), i.e. descending
    /// further cannot produce any finite value.
    #[inline]
    pub fn next_row_out_of_band(&self) -> bool {
        match self.window {
            Some(w) => self.depth() as u64 + 1 > self.query.len() as u64 + w as u64,
            None => false,
        }
    }

    /// Appends a data row whose base distances against the query elements
    /// are produced by `base` (`base(q)` = base distance between query
    /// element `q` and the new data element).
    ///
    /// Passing `|q| (q - v).abs()` gives the exact `D_tw`; passing
    /// `|q| alphabet.base_lb(q, sym)` gives the lower bound `D_tw-lb`
    /// (Definition 3) — the recurrence is identical, only the base
    /// distance changes.
    pub fn push_row_with(&mut self, base: impl Fn(Value) -> f64) -> RowStat {
        self.bound_state = None;
        let stride = self.query.len() + 1;
        let r = self.stats.len() + 1; // 1-based row index being added
        let prev_start = (r - 1) * stride;
        self.cells.push(f64::INFINITY); // column 0 boundary
        let mut min = f64::INFINITY;
        let Some((lo, hi)) = self.band(r) else {
            // Entire row outside the band: all-infinite row.
            self.cells
                .extend(std::iter::repeat_n(f64::INFINITY, self.query.len()));
            let stat = RowStat {
                dist: f64::INFINITY,
                min: f64::INFINITY,
            };
            self.stats.push(stat);
            return stat;
        };
        let mut diag = self.cells[prev_start + lo - 1]; // γ(x-1, r-1)
        let mut left = f64::INFINITY; // γ(x-1, r)
                                      // Columns before the band are out of range.
        for _ in 1..lo {
            self.cells.push(f64::INFINITY);
        }
        for x in lo..=hi {
            let up = self.cells[prev_start + x]; // γ(x, r-1)
            let best = diag.min(up).min(left);
            let cell = if best.is_finite() {
                base(self.query[x - 1]) + best
            } else {
                f64::INFINITY
            };
            self.cells.push(cell);
            if cell < min {
                min = cell;
            }
            diag = up;
            left = cell;
        }
        for _ in hi + 1..stride {
            self.cells.push(f64::INFINITY);
        }
        self.cells_computed += (hi - lo + 1) as u64;
        let dist = self.cells[r * stride + self.query.len()];
        let stat = RowStat { dist, min };
        self.stats.push(stat);
        stat
    }

    /// Appends a block of 1 to [`BLOCK_ROWS`] data rows from their
    /// precomputed base distances: `bases[i][x − 1]` is the base distance
    /// between query element `x` and the block's `i`-th data element, for
    /// every column (in band or not). Returns the new rows' stats.
    ///
    /// Row for row, the rows [`push_row_with`](Self::push_row_with)
    /// appends for the same distances — same `RowStat` bits, same cells,
    /// same [`cells_computed`](Self::cells_computed). This is the
    /// filter's push: a suffix-tree traversal meets the same few symbols
    /// over and over, so it keeps one base row per symbol and pays for
    /// the base distance once per query, not once per cell.
    ///
    /// The block walks the columns once. At column `x` row `i` takes the
    /// same three operands in the same order as a lone row would — row
    /// `i − 1`'s cells `x − 1` and `x`, its own cell `x − 1` — so the
    /// rows' recurrences run staggered through one loop, and the
    /// `min`→`add` chain of one row overlaps the next row's instead of
    /// waiting behind it. An out-of-band cell adds an infinite base
    /// distance, which keeps it infinite (every cell is `≥ 0`), so banded
    /// and unbanded tables share the loop; each row still counts only its
    /// own band's cells.
    ///
    /// A caller that pushes rows speculatively gives back the ones it did
    /// not need with [`retract`](Self::retract).
    ///
    /// `bases` must hold no NaN (the minimum is taken with `<`).
    ///
    /// # Panics
    /// Panics if `bases` holds no row or more than [`BLOCK_ROWS`], or if
    /// a row's length differs from the query length.
    pub fn push_base_rows(&mut self, bases: &[&[f64]]) -> &[RowStat] {
        match *bases {
            [a] => self.push_sized([a]),
            [a, b] => self.push_sized([a, b]),
            [a, b, c] => self.push_sized([a, b, c]),
            [a, b, c, d] => self.push_sized([a, b, c, d]),
            _ => panic!("a block holds 1 to {BLOCK_ROWS} rows, not {}", bases.len()),
        }
        &self.stats[self.stats.len() - bases.len()..]
    }

    /// [`push_base_rows`](Self::push_base_rows) for a block of `N` rows.
    /// Without a band every column of every row is in band, and the
    /// kernel's copy for that case tests no column against a band.
    fn push_sized<const N: usize>(&mut self, bases: [&[f64]; N]) {
        if self.window.is_some() {
            self.push_block::<N, true>(bases)
        } else {
            self.push_block::<N, false>(bases)
        }
    }

    fn push_block<const N: usize, const BANDED: bool>(&mut self, bases: [&[f64]; N]) {
        let n = self.query.len();
        for base in bases {
            assert_eq!(base.len(), n, "one base distance per query element");
        }
        self.bound_state = None;
        let stride = n + 1;
        let first = self.stats.len() + 1; // 1-based index of the block's first row
        let start = first * stride;
        // Column 0 and every column no row computes stay infinite.
        self.cells.resize(start + N * stride, f64::INFINITY);
        // Each row's in-band columns; a row wholly out of band gets an
        // empty range. Bands only move right with depth, so the block
        // walks from the first row's `lo` to the last `hi`.
        let bands: [(usize, usize); N] =
            std::array::from_fn(|i| self.band(first + i).unwrap_or((n + 1, n)));
        let from = bands[0].0;
        let to = bands.iter().map(|b| b.1).max().unwrap_or(0);
        let (head, tail) = self.cells.split_at_mut(start);
        let prev = &head[start - stride..];
        let mut rows = tail.chunks_exact_mut(stride);
        let cur: [&mut [f64]; N] =
            std::array::from_fn(|_| rows.next().expect("the block's rows were allocated"));
        let mut left = [f64::INFINITY; N]; // row i's cell x − 1
        let mut min = [f64::INFINITY; N];
        let mut diag = if from <= to {
            prev[from - 1]
        } else {
            f64::INFINITY
        };
        for x in from..=to {
            // Row 0 reads the table's last row; row i > 0 reads row i − 1
            // at x − 1 and x, both still in registers.
            let mut up = prev[x];
            let mut d = std::mem::replace(&mut diag, up);
            for i in 0..N {
                let (lo, hi) = bands[i];
                let b = if !BANDED || (lo <= x && x <= hi) {
                    bases[i][x - 1]
                } else {
                    f64::INFINITY
                };
                let cell = b + fmin(fmin(d, up), left[i]);
                d = left[i];
                up = cell;
                left[i] = cell;
                cur[i][x] = cell;
                min[i] = fmin(min[i], cell);
            }
        }
        for i in 0..N {
            self.cells_computed += band_cells(bands[i]);
            self.stats.push(RowStat {
                dist: cur[i][n],
                min: min[i],
            });
        }
    }

    /// Shrinks the table back to `depth` rows, like
    /// [`truncate`](Self::truncate), and takes the dropped rows' cells
    /// back out of [`cells_computed`](Self::cells_computed): for rows a
    /// caller pushed ahead of a decision that then proved them unneeded.
    /// Only rows computed since the table was created or forked may be
    /// retracted.
    pub fn retract(&mut self, depth: u32) {
        let dropped = depth as usize + 1..=self.stats.len();
        let cells: u64 = dropped.map(|r| self.band(r).map_or(0, band_cells)).sum();
        self.cells_computed -= cells;
        self.truncate(depth);
    }

    /// Appends a row for an exact numeric data element.
    #[inline]
    pub fn push_value(&mut self, v: Value) -> RowStat {
        self.push_row_with(|q| (q - v).abs())
    }

    /// Appends a data row like [`push_value`](Self::push_value), but
    /// skips cells provably greater than `limit` (pruned DTW): since
    /// every cell adds a non-negative base distance to the minimum of
    /// its predecessors, cumulative values are non-decreasing along any
    /// warping path, and a cell above `limit` can never feed a cell at
    /// or below it. The row is therefore computed only over the column
    /// range whose predecessors may still be `≤ limit`; everything
    /// outside is reported as `f64::INFINITY`.
    ///
    /// Every cell whose *true* value is `≤ limit` is computed exactly,
    /// so `dist` and `min` are exact whenever they are `≤ limit`, and
    /// [`RowStat::prunes`]`(limit)` decides identically to the unpruned
    /// table — only [`cells_computed`](Self::cells_computed) shrinks.
    /// `limit` must not increase across one run of bounded pushes (the
    /// pruned range assumes earlier skips stay skippable).
    #[inline]
    pub fn push_value_bounded(&mut self, v: Value, limit: f64) -> RowStat {
        self.push_value_pruned(v, limit, &[])
    }

    /// [`push_value_bounded`](Self::push_value_bounded) with per-column
    /// *remainders*: `rem[x−1]` is a caller-supplied lower bound on the
    /// cost of completing a warping path from column `x` to the final
    /// column (e.g. a reversed LB_Keogh of the data still to come; pass
    /// `&[]` for none). A cell is poisoned to infinity once
    /// `cell + rem[x] > limit` — it provably cannot lie on any path
    /// whose final distance is `≤ limit`.
    ///
    /// Guarantees with a valid `rem`: `dist` is exact whenever it is
    /// `≤ limit` (the last column's remainder is 0), and a
    /// [`RowStat::prunes`]`(limit)` report implies every current and
    /// deeper row's `dist` exceeds `limit` — the Theorem-1 abandon
    /// stays sound, though it may (correctly) fire *earlier* than on
    /// the unpruned table, and `min` itself is no longer exact.
    pub fn push_value_pruned(&mut self, v: Value, limit: f64, rem: &[f64]) -> RowStat {
        if rem.is_empty() {
            self.push_pruned_row(v, limit, |_| limit)
        } else {
            debug_assert_eq!(rem.len(), self.query.len(), "one remainder per column");
            self.push_pruned_row(v, limit, |x| limit - rem[x - 1])
        }
    }

    /// The threshold-pruned row behind
    /// [`push_value_pruned`](Self::push_value_pruned); `thr(x)` is the
    /// most column `x` (1-based) may hold and still finish within
    /// `limit`. Poisoning is a select, not a branch: which cells
    /// survive is data-dependent, and a mispredict costs more than the
    /// cell.
    #[inline(always)]
    fn push_pruned_row(&mut self, v: Value, limit: f64, thr: impl Fn(usize) -> f64) -> RowStat {
        let n = self.query.len();
        let stride = n + 1;
        let r = self.stats.len() + 1; // 1-based row index being added
        let prev_start = (r - 1) * stride;
        // Viable column range of the previous row: tracked by the last
        // bounded push, or recovered by scanning after an unbounded
        // push / reset (row 0's boundary gives (0, 0)).
        let (pf, pl) = self.bound_state.take().unwrap_or_else(|| {
            let prev = &self.cells[prev_start..prev_start + stride];
            match (
                prev.iter().position(|&c| c <= limit),
                prev.iter().rposition(|&c| c <= limit),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => (stride, 0),
            }
        });
        let band = self.band(r);
        let base = self.cells.len();
        self.cells.resize(base + stride, f64::INFINITY);
        let (head, cur) = self.cells.split_at_mut(base);
        let prev = &head[prev_start..];
        let mut min = f64::INFINITY;
        let mut nf = stride; // first/last ≤-limit column of the new row
        let mut nl = 0usize;
        let mut computed = 0u64;
        // No viable predecessor at all, or a row fully out of band,
        // leaves the row all-infinite at no cost.
        if let (Some((blo, bhi)), true) = (band, pf < stride) {
            let lo = blo.max(pf.max(1));
            let mut left = f64::INFINITY;
            // Up to one column past the previous row's viable range a
            // cell has up to three finite predecessors.
            let mid = bhi.min(pl + 1);
            if lo <= mid {
                let cells = cur[lo..=mid]
                    .iter_mut()
                    .zip(&self.query[lo - 1..mid])
                    .zip(prev[lo - 1..mid].iter().zip(&prev[lo..=mid]));
                // `raw` carries the recurrence along the row
                // unpoisoned, which keeps the select off the loop's
                // dependency chain. Poisoning only ever raises a cell
                // whose paths all end above `limit`, so a neighbour
                // reached through the raw value is judged by its own
                // threshold and every ≤-limit distance stays exact.
                let mut raw = f64::INFINITY;
                for (i, ((cell, &q), (&diag, &up))) in cells.enumerate() {
                    let x = lo + i;
                    // Cells that cannot finish within `limit` are
                    // poisoned: the column's remainder still has to be
                    // paid downstream.
                    raw = (q - v).abs() + fmin(fmin(diag, up), raw);
                    left = if raw <= thr(x) { raw } else { f64::INFINITY };
                    *cell = left;
                    min = fmin(min, left);
                    let viable = left <= limit;
                    nf = nf.min(if viable { x } else { stride });
                    nl = if viable { x } else { nl };
                }
                computed += (mid + 1 - lo) as u64;
            }
            // Further right only the left neighbour can stay within the
            // threshold; once it leaves, the rest of the row is
            // provably above `limit`.
            let mut x = lo.max(pl + 2);
            while x <= bhi && left <= limit {
                let c = (self.query[x - 1] - v).abs() + left;
                left = if c <= thr(x) { c } else { f64::INFINITY };
                cur[x] = left;
                computed += 1;
                min = fmin(min, left);
                if left <= limit {
                    nf = nf.min(x);
                    nl = x;
                }
                x += 1;
            }
        }
        self.cells_computed += computed;
        let stat = RowStat { dist: cur[n], min };
        self.stats.push(stat);
        self.bound_state = Some(if nf == stride { (stride, 0) } else { (nf, nl) });
        stat
    }

    /// Clones the table for a *forked* traversal branch: the query,
    /// window and all current rows are preserved, so the fork continues
    /// from the shared prefix exactly like the original would — but the
    /// cost counter restarts at zero, because the prefix's cells were
    /// already counted by whoever computed them. Summing
    /// [`cells_computed`](Self::cells_computed) over the original and
    /// every fork then matches the single-table sequential count.
    pub fn fork(&self) -> Self {
        let mut t = self.clone();
        t.cells_computed = 0;
        t
    }

    /// Shrinks the table back to `depth` rows (used when the depth-first
    /// traversal backtracks).
    pub fn truncate(&mut self, depth: u32) {
        let depth = depth as usize;
        debug_assert!(depth <= self.stats.len());
        self.bound_state = None;
        self.stats.truncate(depth);
        self.cells.truncate((depth + 1) * (self.query.len() + 1));
    }

    /// Clears all data rows and free starts, keeping the query (reuse
    /// across suffixes in `SeqScan`).
    #[inline]
    pub fn reset(&mut self) {
        self.truncate(0);
        self.lag = 0;
    }

    /// Lets a warping path also start on the next row (SPRING's free
    /// start, Sakurai, Faloutsos & Yamamuro, ICDE 2007): column 0 of the
    /// last row reads 0, as row 0's does, so the next row's first cell
    /// is a fresh table's first cell. Rounding `fl(b + ·)` is monotone,
    /// so it commutes with `min`: every later cell is, bit for bit, the
    /// least of the cells the tables begun at each start would hold at
    /// it, and a pruned push keeps that exact wherever it is `≤ limit`.
    ///
    /// Under a window, row `r` then runs over the hull of the starts'
    /// bands, `[max(1, r − o − w), min(|Q|, r + w)]` for the latest
    /// start's offset `o`: each start's own band lies inside it, so
    /// every cell stays at most the least of the starts' banded cells.
    /// [`reset`](Self::reset) clears the starts; a
    /// [`truncate`](Self::truncate) below the latest one keeps its
    /// (wider) hull.
    pub(crate) fn start_here(&mut self) {
        let r = self.stats.len();
        let stride = self.query.len() + 1;
        self.cells[r * stride] = 0.0;
        self.lag = r as u32;
        if let Some((first, last)) = self.bound_state {
            // Column 0 is viable now, whatever else was.
            self.bound_state = Some((0, if first == stride { 0 } else { last }));
        }
    }

    /// Inclusive column range `[lo, hi]` (1-based) of in-band cells for row
    /// `r`, or `None` when the whole row falls outside the band. Without a
    /// window this is `[1, |Q|]`; with free starts, the hull of their
    /// bands (see [`start_here`](Self::start_here)).
    #[inline]
    fn band(&self, r: usize) -> Option<(usize, usize)> {
        match self.window {
            None => Some((1, self.query.len())),
            Some(w) => {
                let w = w as i64;
                let r = r as i64;
                let lo = (r - i64::from(self.lag) - w).max(1) as usize;
                let hi = (r + w).min(self.query.len() as i64).max(0) as usize;
                if hi < lo {
                    None
                } else {
                    Some((lo, hi))
                }
            }
        }
    }
}

/// Cells in a band's inclusive column range `(lo, hi)`; none when empty.
#[inline]
fn band_cells((lo, hi): (usize, usize)) -> u64 {
    (hi + 1).saturating_sub(lo) as u64
}

/// The smaller of two non-NaN values: one `minsd`, where `f64::min`
/// also orders NaNs.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Exact time-warping distance `D_tw(a, b)` (Definition 1/2).
///
/// ```
/// use warptree_core::dtw::dtw;
/// // The paper's intro: one series sampled twice as often — identical
/// // under time warping.
/// let daily = [20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0];
/// let alternate = [20.0, 21.0, 20.0, 23.0];
/// assert_eq!(dtw(&daily, &alternate), 0.0);
/// ```
///
/// # Panics
/// Panics if either sequence is empty (the paper defines `D_tw` for
/// non-null sequences only).
pub fn dtw(a: &[Value], b: &[Value]) -> f64 {
    assert!(!b.is_empty(), "D_tw is defined for non-null sequences");
    let mut t = WarpTable::new(a, None);
    let mut last = RowStat {
        dist: f64::INFINITY,
        min: f64::INFINITY,
    };
    for &v in b {
        last = t.push_value(v);
    }
    last.dist
}

/// `D_tw` with a Sakoe–Chiba band of width `w`; cells outside the band are
/// forbidden. Returns `f64::INFINITY` when no warping path fits the band
/// (e.g. the lengths differ by more than `w`).
pub fn dtw_windowed(a: &[Value], b: &[Value], w: u32) -> f64 {
    assert!(!b.is_empty(), "D_tw is defined for non-null sequences");
    let mut t = WarpTable::new(a, Some(w));
    let mut last = RowStat {
        dist: f64::INFINITY,
        min: f64::INFINITY,
    };
    for &v in b {
        last = t.push_value(v);
    }
    last.dist
}

/// Exact `D_tw(a, b)` with Theorem-1 early abandoning: returns `None` as
/// soon as the distance provably exceeds `epsilon`, otherwise
/// `Some(distance)`.
///
/// ```
/// use warptree_core::dtw::dtw_early_abandon;
/// assert_eq!(dtw_early_abandon(&[1.0, 2.0], &[1.0, 2.0], 0.5), Some(0.0));
/// assert_eq!(dtw_early_abandon(&[1.0, 2.0], &[9.0, 9.0], 0.5), None);
/// ```
pub fn dtw_early_abandon(a: &[Value], b: &[Value], epsilon: f64) -> Option<f64> {
    assert!(!b.is_empty(), "D_tw is defined for non-null sequences");
    let mut t = WarpTable::new(a, None);
    let mut last = RowStat {
        dist: f64::INFINITY,
        min: f64::INFINITY,
    };
    for &v in b {
        last = t.push_value(v);
        if last.prunes(epsilon) {
            return None;
        }
    }
    if last.dist <= epsilon {
        Some(last.dist)
    } else {
        None
    }
}

/// Reference implementation of Definition 1 by direct recursion.
///
/// Exponential time — only for verifying the DP implementation on tiny
/// inputs in tests.
pub fn dtw_naive_recursive(a: &[Value], b: &[Value]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let base = (a[0] - b[0]).abs();
    let rest = match (a.len(), b.len()) {
        (1, 1) => 0.0,
        (1, _) => dtw_naive_recursive(a, &b[1..]),
        (_, 1) => dtw_naive_recursive(&a[1..], b),
        _ => dtw_naive_recursive(a, &b[1..])
            .min(dtw_naive_recursive(&a[1..], b))
            .min(dtw_naive_recursive(&a[1..], &b[1..])),
    };
    base + rest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_example() {
        // S3 = <3,4,3>, S4 = <4,5,6,7,6,6>. The paper reads
        // D_tw(S3, S4[1:4]) = 8 off the last column of row 4.
        let s3 = [3.0, 4.0, 3.0];
        let s4 = [4.0, 5.0, 6.0, 7.0, 6.0, 6.0];
        assert_eq!(dtw(&s3, &s4), 12.0);
        let mut t = WarpTable::new(&s3, None);
        let mut dists = Vec::new();
        for &v in &s4 {
            dists.push(t.push_value(v).dist);
        }
        // Prefix distances D_tw(S3, S4[1:q]) for q = 1..6 (hand-computed;
        // q = 4 matches the paper's worked example).
        assert_eq!(dists, vec![2.0, 3.0, 5.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn paper_intro_example_warping_matches_resampled() {
        // S1 daily, S2 every other day: identical under time warping.
        let s1 = [20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0];
        let s2 = [20.0, 21.0, 20.0, 23.0];
        assert_eq!(dtw(&s1, &s2), 0.0);
    }

    #[test]
    fn dtw_is_symmetric_and_zero_on_identity() {
        let a = [1.0, 5.0, 2.0, 8.0];
        let b = [2.0, 2.0, 9.0];
        assert_eq!(dtw(&a, &b), dtw(&b, &a));
        assert_eq!(dtw(&a, &a), 0.0);
    }

    #[test]
    fn dp_matches_naive_recursion() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[1.0], &[2.0]),
            (&[1.0, 2.0], &[2.0]),
            (&[3.0, 4.0, 3.0], &[4.0, 5.0, 6.0, 7.0]),
            (&[0.0, 10.0, 0.0, 10.0], &[10.0, 0.0, 10.0]),
            (&[1.5, 1.5, 1.5], &[1.5, 1.5]),
        ];
        for (a, b) in cases {
            assert_eq!(dtw(a, b), dtw_naive_recursive(a, b), "case {a:?} {b:?}");
        }
    }

    #[test]
    fn theorem1_row_minimum_is_non_decreasing() {
        let q = [5.0, 1.0, 7.0, 3.0];
        let data = [2.0, 9.0, 4.0, 4.0, 0.0, 6.0, 8.0];
        let mut t = WarpTable::new(&q, None);
        let mut prev = 0.0;
        for &v in &data {
            let s = t.push_value(v);
            assert!(s.min >= prev, "row minimum decreased");
            prev = s.min;
        }
    }

    #[test]
    fn early_abandon_agrees_with_full_dtw() {
        let q = [3.0, 4.0, 3.0];
        let s = [4.0, 5.0, 6.0, 7.0, 6.0, 6.0]; // D_tw = 12
        assert_eq!(dtw_early_abandon(&q, &s, 12.0), Some(12.0));
        assert_eq!(dtw_early_abandon(&q, &s, 11.9), None);
        // The paper's example: with ε = 3 the scan may stop after row 3.
        let mut t = WarpTable::new(&q, None);
        t.push_value(s[0]);
        t.push_value(s[1]);
        let s3 = t.push_value(s[2]);
        assert!(s3.prunes(3.0));
    }

    #[test]
    fn truncate_restores_previous_rows() {
        let q = [1.0, 2.0];
        let mut t = WarpTable::new(&q, None);
        let s1 = t.push_value(1.0);
        let s2 = t.push_value(5.0);
        t.truncate(1);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.row_stat(1), s1);
        // Re-pushing yields identical stats (table state fully restored).
        let s2b = t.push_value(5.0);
        assert_eq!(s2, s2b);
        t.reset();
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn windowed_dtw_restricts_paths() {
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [0.0];
        // Unconstrained: b's single element maps to all of a -> 0.
        assert_eq!(dtw(&a, &b), 0.0);
        // Band w=1: |x-y| <= 1 forbids matching a[4] (x=4) to b[1] (y=1).
        assert_eq!(dtw_windowed(&a, &b, 1), f64::INFINITY);
        // Band wide enough recovers the exact distance.
        assert_eq!(dtw_windowed(&a, &b, 3), 0.0);
        // Windowed distance upper-bounds the unconstrained distance.
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        let y = [1.0, 2.0, 2.0, 6.0, 4.0];
        assert!(dtw_windowed(&x, &y, 1) >= dtw(&x, &y));
    }

    #[test]
    fn window_out_of_band_detection() {
        let q = [1.0, 2.0];
        let mut t = WarpTable::new(&q, Some(1));
        assert!(!t.next_row_out_of_band());
        t.push_value(0.0);
        t.push_value(0.0);
        t.push_value(0.0); // row 3 = |Q| + w, still allowed
        assert!(t.next_row_out_of_band()); // row 4 would be fully outside
    }

    #[test]
    fn cells_computed_counts_band_only() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let mut full = WarpTable::new(&q, None);
        full.push_value(0.0);
        assert_eq!(full.cells_computed(), 4);
        let mut banded = WarpTable::new(&q, Some(1));
        banded.push_value(0.0);
        assert_eq!(banded.cells_computed(), 2); // columns 1..=2
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_query_panics() {
        let _ = WarpTable::new(&[], None);
    }

    #[test]
    fn bounded_push_agrees_with_plain_table() {
        // Deterministic pseudo-random sweep: the pruned table must (a)
        // report the exact dist/min whenever the plain table's value is
        // within the threshold, (b) stay above the threshold whenever
        // the plain value is, (c) make identical Theorem-1 decisions,
        // and (d) never compute more cells.
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for case in 0..80 {
            let qlen = 1 + (next() * 8.0) as usize;
            let dlen = 1 + (next() * 14.0) as usize;
            let q: Vec<f64> = (0..qlen).map(|_| (next() * 20.0) - 10.0).collect();
            let d: Vec<f64> = (0..dlen).map(|_| (next() * 20.0) - 10.0).collect();
            let w = match case % 4 {
                0 => None,
                1 => Some(0),
                _ => Some((next() * 6.0) as u32),
            };
            let limit = next() * 30.0;
            let mut plain = WarpTable::new(&q, w);
            let mut bounded = WarpTable::new(&q, w);
            for (row, &v) in d.iter().enumerate() {
                let a = plain.push_value(v);
                let b = bounded.push_value_bounded(v, limit);
                let ctx = format!("case {case} row {row} limit {limit}");
                assert_eq!(a.prunes(limit), b.prunes(limit), "{ctx}");
                if a.dist <= limit {
                    assert_eq!(a.dist, b.dist, "{ctx}");
                } else {
                    assert!(b.dist > limit, "{ctx}");
                }
                if a.min <= limit {
                    assert_eq!(a.min, b.min, "{ctx}");
                } else {
                    assert!(b.min > limit, "{ctx}");
                }
            }
            assert!(bounded.cells_computed() <= plain.cells_computed());
        }
    }

    #[test]
    fn remainder_pruned_push_preserves_threshold_decisions() {
        // With a valid remainder (reversed LB_Keogh over the data's
        // value range), the pruned table must keep every ≤-limit dist
        // exact, keep every >-limit dist above the limit, and only
        // report a Theorem-1 prune when all deeper plain dists are
        // above the limit.
        let mut state = 0xda3e39cb94b95bdbu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for case in 0..80 {
            let qlen = 1 + (next() * 8.0) as usize;
            let dlen = 1 + (next() * 14.0) as usize;
            let q: Vec<f64> = (0..qlen).map(|_| (next() * 20.0) - 10.0).collect();
            let d: Vec<f64> = (0..dlen).map(|_| (next() * 20.0) - 10.0).collect();
            let w = match case % 4 {
                0 => None,
                1 => Some(0),
                _ => Some((next() * 6.0) as u32),
            };
            let limit = next() * 30.0;
            let dmin = d.iter().cloned().fold(f64::INFINITY, f64::min);
            let dmax = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut rem = vec![0.0; qlen];
            let mut acc = 0.0;
            for x in (1..qlen).rev() {
                acc += (q[x] - q[x].clamp(dmin, dmax)).abs();
                rem[x - 1] = acc;
            }
            let mut plain = WarpTable::new(&q, w);
            let mut pruned = WarpTable::new(&q, w);
            let mut plain_dists = Vec::new();
            for &v in &d {
                plain_dists.push(plain.push_value(v).dist);
            }
            for (row, &v) in d.iter().enumerate() {
                let b = pruned.push_value_pruned(v, limit, &rem);
                let ctx = format!("case {case} row {row} limit {limit}");
                let a_dist = plain_dists[row];
                if a_dist <= limit {
                    assert_eq!(a_dist, b.dist, "{ctx}");
                } else {
                    assert!(b.dist > limit, "{ctx}");
                }
                if b.prunes(limit) {
                    for (deep, &pd) in plain_dists.iter().enumerate().skip(row) {
                        assert!(pd > limit, "{ctx}: premature abandon at depth {deep}");
                    }
                    break;
                }
            }
            assert!(pruned.cells_computed() <= plain.cells_computed());
        }
    }

    #[test]
    fn bounded_push_resumes_after_unbounded_rows_and_reset() {
        // Interleaving unbounded pushes (which invalidate the pruned
        // range) and resets must rescan correctly.
        let q = [2.0, 7.0, 1.0, 4.0];
        let d = [3.0, 8.0, 0.5, 4.0, 4.0, 9.0];
        let limit = 9.0;
        let mut plain = WarpTable::new(&q, None);
        let mut mixed = WarpTable::new(&q, None);
        for (i, &v) in d.iter().enumerate() {
            let a = plain.push_value(v);
            let b = if i % 2 == 0 {
                mixed.push_value(v)
            } else {
                mixed.push_value_bounded(v, limit)
            };
            assert_eq!(a.prunes(limit), b.prunes(limit));
            if a.dist <= limit {
                assert_eq!(a.dist, b.dist);
            }
        }
        mixed.reset();
        plain.reset();
        for &v in &d {
            let a = plain.push_value(v);
            let b = mixed.push_value_bounded(v, limit);
            if a.dist <= limit {
                assert_eq!(a.dist, b.dist);
            } else {
                assert!(b.dist > limit);
            }
        }
    }

    #[test]
    fn band_window_larger_than_query_is_unconstrained() {
        // w ≥ |Q| + depth keeps every cell in band: the windowed distance
        // must coincide with the unconstrained one, with no clamping
        // artifacts at either band edge.
        let q = [1.0, 4.0, 2.0];
        let data = [2.0, 2.0, 5.0, 1.0, 3.0, 3.0];
        let mut banded = WarpTable::new(&q, Some(64));
        let mut full = WarpTable::new(&q, None);
        for &v in &data {
            assert_eq!(banded.push_value(v), full.push_value(v));
        }
        assert_eq!(banded.cells_computed(), full.cells_computed());
    }

    #[test]
    fn band_length_one_query_boundaries() {
        // |Q| = 1, w = 0: only row 1 intersects the band; the length-2
        // data prefix has no admissible warping path.
        assert_eq!(dtw_windowed(&[5.0], &[5.0], 0), 0.0);
        assert_eq!(dtw_windowed(&[5.0], &[5.0, 5.0], 0), f64::INFINITY);
        // w = 1 admits exactly one more row.
        assert_eq!(dtw_windowed(&[5.0], &[5.0, 5.0], 1), 0.0);
        assert_eq!(dtw_windowed(&[5.0], &[5.0, 5.0, 5.0], 1), f64::INFINITY);
    }

    #[test]
    fn empty_band_rows_are_infinite_and_free() {
        // Rows past |Q| + w fall wholly outside the band: they must be
        // all-infinite, cost zero cells, and not panic or wrap.
        let q = [1.0, 2.0];
        let mut t = WarpTable::new(&q, Some(1));
        t.push_value(1.0);
        t.push_value(2.0);
        t.push_value(2.0); // row 3 = |Q| + w: last in-band row
        assert!(t.next_row_out_of_band());
        let cells_before = t.cells_computed();
        let stat = t.push_value(2.0); // row 4: empty band
        assert_eq!(stat.dist, f64::INFINITY);
        assert_eq!(stat.min, f64::INFINITY);
        assert_eq!(t.cells_computed(), cells_before);
        // Theorem-1 pruning fires on the infinite row for any ε.
        assert!(stat.prunes(f64::MAX));
    }

    #[test]
    fn band_handles_extreme_window_without_overflow() {
        // w near u32::MAX must not wrap the i64 band arithmetic or the
        // u64 out-of-band check, for short and length-1 queries alike.
        for qlen in [1usize, 2, 5] {
            let q: Vec<Value> = (0..qlen).map(|i| i as f64).collect();
            let mut huge = WarpTable::new(&q, Some(u32::MAX));
            let mut full = WarpTable::new(&q, None);
            for r in 0..8 {
                assert!(!huge.next_row_out_of_band(), "qlen {qlen} row {r}");
                let v = (r % 3) as f64;
                assert_eq!(huge.push_value(v), full.push_value(v));
            }
        }
    }

    #[test]
    fn fork_preserves_rows_and_resets_cost() {
        let q = [2.0, 7.0, 1.0];
        let mut t = WarpTable::new(&q, Some(2));
        t.push_value(3.0);
        t.push_value(8.0);
        let mut f = t.fork();
        assert_eq!(f.depth(), t.depth());
        assert_eq!(f.cells_computed(), 0);
        // The fork continues exactly like the original.
        let a = t.push_value(0.5);
        let b = f.push_value(0.5);
        assert_eq!(a, b);
        assert_eq!(f.cells_computed(), 3); // row 3's in-band columns 1..=3 only
    }

    #[test]
    fn prefix_distance_row_semantics() {
        // Row r's dist must equal dtw(query, data[..r]).
        let q = [2.0, 7.0, 1.0];
        let data = [3.0, 3.0, 8.0, 0.0, 2.0];
        let mut t = WarpTable::new(&q, None);
        for r in 1..=data.len() {
            let stat = t.push_value(data[r - 1]);
            assert_eq!(stat.dist, dtw(&q, &data[..r]), "prefix {r}");
        }
    }
}
