//! Categorization of continuous values into a discrete alphabet (paper §5).
//!
//! To make the suffix-tree index compact, every continuous element value is
//! mapped to the symbol of the category containing it. The paper evaluates
//! two categorization methods:
//!
//! * **equal-length (EL)** — `c` categories of identical interval width
//!   `(MAX − MIN) / c`;
//! * **maximum-entropy (ME)** — boundaries chosen so every category holds
//!   (as close as ties permit) the same number of elements, maximizing
//!   `H(C) = −Σ P(C_i)·log P(C_i)`.
//!
//! Two additional builders round out the design space:
//!
//! * **singleton** — every distinct value is its own category with
//!   `lb == ub == value`. This reproduces the paper's *uncategorized*
//!   suffix tree ST exactly: the lower-bound base distance degenerates to
//!   the exact city-block distance (see `bounds` module), so one code path
//!   serves ST, ST_C and SST_C.
//! * **k-means** — 1-D Lloyd's iteration, mentioned by the paper (§5.1) as
//!   an alternative categorization approach.
//!
//! For the lower bound `D_base-lb` the paper uses `B.lb` / `B.ub` — the
//! minimum and maximum element values **observed** in category `B`, which
//! are at least as tight as the nominal boundaries. [`Alphabet::refine`]
//! computes them.

use crate::error::CoreError;
use crate::sequence::{SequenceStore, Value};

/// A discrete category symbol. Symbols are dense indices into the
/// [`Alphabet`]; suffix-tree separators live *above* the alphabet range.
pub type Symbol = u32;

/// One category: a half-open value interval plus observed value bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Category {
    /// Nominal lower boundary (inclusive).
    pub lo: Value,
    /// Nominal upper boundary (exclusive, except for the last category).
    pub hi: Value,
    /// Smallest value observed in this category (`B.lb` in the paper).
    pub lb: Value,
    /// Largest value observed in this category (`B.ub` in the paper).
    pub ub: Value,
}

/// How an [`Alphabet`] was constructed. Used for reporting only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CategorizationMethod {
    /// Equal-length categorization (paper "EL").
    EqualLength,
    /// Maximum-entropy (equal-frequency) categorization (paper "ME").
    MaxEntropy,
    /// Every distinct value is its own category (exact / plain ST).
    Singleton,
    /// 1-D k-means categorization (paper §5.1 alternative).
    KMeans,
}

impl std::fmt::Display for CategorizationMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CategorizationMethod::EqualLength => "EL",
            CategorizationMethod::MaxEntropy => "ME",
            CategorizationMethod::Singleton => "EXACT",
            CategorizationMethod::KMeans => "KM",
        };
        f.write_str(s)
    }
}

/// The lower boundaries of `categories[1..]`, padded with `+∞` to the
/// next power of two above their count: the layout
/// [`Alphabet::symbol_for`] searches.
fn padded_cuts(categories: &[Category]) -> Vec<Value> {
    let cuts = categories.iter().skip(1).map(|c| c.lo);
    let len = categories.len().next_power_of_two();
    cuts.chain(std::iter::repeat(Value::INFINITY))
        .take(len)
        .collect()
}

/// The symbol of `v` over `cuts` laid out by [`padded_cuts`]: the number
/// of cuts at or below `v` (values below the covered range fall into
/// category 0, values above into the last). The cuts are a power of two
/// long with at least one `+∞` pad, so the count is below their length
/// and is found a bit at a time, high to low: one compare and one
/// conditional add per halving, no branch on the data.
#[inline(always)]
fn rank(cuts: &[Value], v: Value) -> Symbol {
    let (mut at, mut half) = (0, cuts.len() / 2);
    while half > 0 {
        let below = cuts[(at + half - 1) & (cuts.len() - 1)] <= v;
        at += std::hint::select_unpredictable(below, half, 0);
        half /= 2;
    }
    at as Symbol
}

/// A complete categorization: ordered, non-overlapping categories covering
/// the value range of the database.
#[derive(Debug, Clone, PartialEq)]
pub struct Alphabet {
    categories: Vec<Category>,
    /// Lower boundaries of categories `1..n`, padded with `+∞` to a
    /// power of two longer than them ([`padded_cuts`]): the `O(log c)`
    /// symbol lookup of [`symbol_for`](Self::symbol_for) (a value belongs
    /// to the last category whose lower boundary does not exceed it).
    cuts: Vec<Value>,
    method: CategorizationMethod,
}

impl Alphabet {
    fn from_boundaries(mut bounds: Vec<(Value, Value)>, method: CategorizationMethod) -> Self {
        bounds.retain(|(lo, hi)| lo <= hi);
        let categories: Vec<Category> = bounds
            .iter()
            .map(|&(lo, hi)| Category {
                lo,
                hi,
                // Until refined, the nominal boundaries are the best bounds.
                lb: lo,
                ub: hi,
            })
            .collect();
        Self {
            cuts: padded_cuts(&categories),
            categories,
            method,
        }
    }

    /// Equal-length categorization with `c` categories over the store's
    /// value range (paper §5.1, "EL").
    pub fn equal_length(store: &SequenceStore, c: usize) -> Result<Self, CoreError> {
        if c == 0 {
            return Err(CoreError::ZeroCategories);
        }
        let (min, max) = store.value_range().ok_or(CoreError::EmptyDatabase)?;
        let width = (max - min) / c as f64;
        let bounds: Vec<(Value, Value)> = if width == 0.0 {
            // All values identical: one category suffices.
            vec![(min, max)]
        } else {
            (0..c)
                .map(|i| {
                    let lo = min + width * i as f64;
                    let hi = if i + 1 == c {
                        max
                    } else {
                        min + width * (i + 1) as f64
                    };
                    (lo, hi)
                })
                .collect()
        };
        let mut a = Self::from_boundaries(bounds, CategorizationMethod::EqualLength);
        a.refine(store);
        Ok(a)
    }

    /// Maximum-entropy (equal-frequency) categorization with at most `c`
    /// categories (paper §5.1, "ME").
    ///
    /// ```
    /// use warptree_core::prelude::*;
    /// let store = SequenceStore::from_values(vec![
    ///     (0..100).map(f64::from).collect(),
    /// ]);
    /// let me = Alphabet::max_entropy(&store, 4).unwrap();
    /// assert_eq!(me.len(), 4);
    /// // Quartile boundaries: 25 values per category.
    /// assert_eq!(me.symbol_for(10.0), 0);
    /// assert_eq!(me.symbol_for(99.0), 3);
    /// ```
    ///
    /// Boundaries are placed at value changes nearest the ideal
    /// equal-frequency quantiles, so a run of tied values is never split
    /// across categories. When ties (or too few distinct values) make `c`
    /// categories impossible, fewer are produced.
    pub fn max_entropy(store: &SequenceStore, c: usize) -> Result<Self, CoreError> {
        if c == 0 {
            return Err(CoreError::ZeroCategories);
        }
        let mut values: Vec<Value> = store
            .iter()
            .flat_map(|(_, s)| s.values().iter().copied())
            .collect();
        if values.is_empty() {
            return Err(CoreError::EmptyDatabase);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = values.len();
        let per = (n as f64 / c as f64).max(1.0);
        let mut bounds = Vec::with_capacity(c);
        let mut lo_idx = 0usize;
        for i in 0..c {
            if lo_idx >= n {
                break;
            }
            let mut hi_idx = if i + 1 == c {
                n
            } else {
                (per * (i + 1) as f64).round() as usize
            };
            hi_idx = hi_idx.clamp(lo_idx + 1, n);
            // Never split a run of equal values: extend to the end of the tie.
            while hi_idx < n && values[hi_idx] == values[hi_idx - 1] {
                hi_idx += 1;
            }
            bounds.push((values[lo_idx], values[hi_idx - 1]));
            lo_idx = hi_idx;
        }
        // Categories are [lo, next_lo) half-open; rewrite his accordingly so
        // the covering is gapless over [min, max].
        let n_b = bounds.len();
        for i in 0..n_b {
            if i + 1 < n_b {
                bounds[i].1 = bounds[i + 1].0;
            }
        }
        let mut a = Self::from_boundaries(bounds, CategorizationMethod::MaxEntropy);
        a.refine(store);
        Ok(a)
    }

    /// Singleton categorization: one category per distinct value, with
    /// `lb == ub == value`. Encoding with this alphabet reproduces the
    /// paper's uncategorized suffix tree ST.
    pub fn singleton(store: &SequenceStore) -> Result<Self, CoreError> {
        let mut values: Vec<Value> = store
            .iter()
            .flat_map(|(_, s)| s.values().iter().copied())
            .collect();
        if values.is_empty() {
            return Err(CoreError::EmptyDatabase);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        values.dedup();
        let categories: Vec<Category> = values
            .iter()
            .map(|&v| Category {
                lo: v,
                hi: v,
                lb: v,
                ub: v,
            })
            .collect();
        Ok(Self {
            cuts: padded_cuts(&categories),
            categories,
            method: CategorizationMethod::Singleton,
        })
    }

    /// 1-D k-means categorization with `c` clusters (Lloyd's algorithm).
    ///
    /// Centroids are seeded at equal-frequency quantiles; boundaries are
    /// the midpoints between adjacent centroids. `iters` bounds the number
    /// of Lloyd iterations (convergence usually takes far fewer).
    pub fn kmeans(store: &SequenceStore, c: usize, iters: usize) -> Result<Self, CoreError> {
        if c == 0 {
            return Err(CoreError::ZeroCategories);
        }
        let mut values: Vec<Value> = store
            .iter()
            .flat_map(|(_, s)| s.values().iter().copied())
            .collect();
        if values.is_empty() {
            return Err(CoreError::EmptyDatabase);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = values.len();
        let k = c.min(n);
        // Quantile seeding.
        let mut centroids: Vec<Value> = (0..k)
            .map(|i| values[(n * (2 * i + 1) / (2 * k)).min(n - 1)])
            .collect();
        centroids.dedup();
        for _ in 0..iters {
            // Assignment step: with sorted values and sorted centroids, the
            // cluster boundaries are the centroid midpoints.
            let mids: Vec<Value> = centroids.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
            let mut new_centroids = Vec::with_capacity(centroids.len());
            let mut lo = 0usize;
            for (ci, _) in centroids.iter().enumerate() {
                let hi = if ci < mids.len() {
                    values.partition_point(|&v| v < mids[ci]).max(lo)
                } else {
                    n
                };
                if hi > lo {
                    let sum: f64 = values[lo..hi].iter().sum();
                    new_centroids.push(sum / (hi - lo) as f64);
                }
                lo = hi;
            }
            new_centroids.dedup();
            if new_centroids == centroids {
                break;
            }
            centroids = new_centroids;
        }
        let mids: Vec<Value> = centroids.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        let min = values[0];
        let max = values[n - 1];
        let mut bounds = Vec::with_capacity(centroids.len());
        let mut lo = min;
        for (i, _) in centroids.iter().enumerate() {
            let hi = if i < mids.len() { mids[i] } else { max };
            bounds.push((lo, hi));
            lo = hi;
        }
        let mut a = Self::from_boundaries(bounds, CategorizationMethod::KMeans);
        a.refine(store);
        Ok(a)
    }

    /// Reconstructs an alphabet from previously serialized categories
    /// (deserialization constructor — e.g. the disk corpus loader).
    ///
    /// # Panics
    /// Panics unless the categories are non-empty, ordered, and
    /// non-overlapping with `lb ≤ ub` inside each.
    pub fn from_parts(categories: Vec<Category>, method: CategorizationMethod) -> Self {
        assert!(!categories.is_empty(), "alphabet needs categories");
        for c in &categories {
            assert!(c.lo <= c.hi && c.lb <= c.ub, "category bounds out of order");
        }
        for w in categories.windows(2) {
            assert!(
                w[0].lo <= w[1].lo,
                "categories must be ordered by lower boundary"
            );
        }
        Self {
            cuts: padded_cuts(&categories),
            categories,
            method,
        }
    }

    /// Widens category observed bounds (`lb`/`ub`) to also cover the
    /// values of `store`, *without moving the boundaries* — the sound way
    /// to admit appended data into an existing categorization (looser
    /// bounds only make `D_base-lb` smaller, so every previously valid
    /// lower bound remains valid).
    pub fn widen(&mut self, store: &SequenceStore) {
        for (_, s) in store.iter() {
            for &v in s.values() {
                let sym = self.symbol_for(v) as usize;
                let cat = &mut self.categories[sym];
                if v < cat.lb {
                    cat.lb = v;
                }
                if v > cat.ub {
                    cat.ub = v;
                }
            }
        }
    }

    /// Tightens every category's `lb`/`ub` to the minimum/maximum values
    /// actually observed in the store (paper §5.3: "B.lb and B.ub are the
    /// minimum and the maximum element values found in the category B").
    pub fn refine(&mut self, store: &SequenceStore) {
        let n = self.categories.len();
        let mut lb = vec![f64::INFINITY; n];
        let mut ub = vec![f64::NEG_INFINITY; n];
        for (_, s) in store.iter() {
            for &v in s.values() {
                let sym = self.symbol_for(v) as usize;
                if v < lb[sym] {
                    lb[sym] = v;
                }
                if v > ub[sym] {
                    ub[sym] = v;
                }
            }
        }
        for (i, cat) in self.categories.iter_mut().enumerate() {
            if lb[i].is_finite() {
                cat.lb = lb[i];
                cat.ub = ub[i];
            } else {
                // Empty category: collapse its bounds to the nominal
                // interval so the lower bound stays valid (it will simply
                // never be encountered during encoding).
                cat.lb = cat.lo;
                cat.ub = cat.hi;
            }
        }
    }

    /// Number of categories (`c`, the alphabet size).
    #[inline]
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// `true` when the alphabet has no categories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// How this alphabet was built.
    #[inline]
    pub fn method(&self) -> CategorizationMethod {
        self.method
    }

    /// The category for a symbol.
    ///
    /// # Panics
    /// Panics if `sym` is out of range.
    #[inline]
    pub fn category(&self, sym: Symbol) -> &Category {
        &self.categories[sym as usize]
    }

    /// All categories in value order.
    #[inline]
    pub fn categories(&self) -> &[Category] {
        &self.categories
    }

    /// Maps a value to the symbol of its category.
    ///
    /// Values below/above the covered range clamp to the first/last
    /// category (relevant for query-time lookups on unseen data; stored
    /// data is always in range by construction).
    #[inline]
    pub fn symbol_for(&self, v: Value) -> Symbol {
        debug_assert!(v.is_finite());
        rank(&self.cuts, v)
    }

    /// The paper's `D_base-lb(a, B)` (Definition 3): the smallest possible
    /// city-block distance between the numeric value `a` and any value in
    /// category `B`.
    ///
    /// ```text
    /// D_base-lb(a, B) = 0        if B.lb <= a <= B.ub
    ///                 = a - B.ub if a > B.ub
    ///                 = B.lb - a if a < B.lb
    /// ```
    ///
    /// For singleton alphabets this is exactly `|a - value|`.
    #[inline]
    pub fn base_lb(&self, a: Value, sym: Symbol) -> f64 {
        let c = &self.categories[sym as usize];
        if a > c.ub {
            a - c.ub
        } else if a < c.lb {
            c.lb - a
        } else {
            0.0
        }
    }

    /// Encodes a numeric sequence into category symbols (the paper's
    /// `CS_j`).
    pub fn encode(&self, values: &[Value]) -> Vec<Symbol> {
        /// `values` ranked over cuts `N` long: a length the compiler
        /// knows, so it unrolls each search into a straight run of
        /// compares and conditional moves, and the searches of
        /// consecutive values overlap.
        fn unrolled<const N: usize>(cuts: &[Value], values: &[Value]) -> Vec<Symbol> {
            let cuts: &[Value; N] = cuts.try_into().expect("cuts N long");
            values.iter().map(|&v| rank(cuts, v)).collect()
        }
        let cuts = &self.cuts[..];
        match cuts.len() {
            1 => unrolled::<1>(cuts, values),
            2 => unrolled::<2>(cuts, values),
            4 => unrolled::<4>(cuts, values),
            8 => unrolled::<8>(cuts, values),
            16 => unrolled::<16>(cuts, values),
            32 => unrolled::<32>(cuts, values),
            64 => unrolled::<64>(cuts, values),
            128 => unrolled::<128>(cuts, values),
            256 => unrolled::<256>(cuts, values),
            _ => values.iter().map(|&v| rank(cuts, v)).collect(),
        }
    }

    /// Encodes every sequence of the store, preserving ids.
    pub fn encode_store(&self, store: &SequenceStore) -> CatStore {
        CatStore {
            seqs: store.iter().map(|(_, s)| self.encode(s.values())).collect(),
            alphabet_len: self.len() as u32,
        }
    }

    /// Shannon entropy of the categorization over the store, in nats
    /// (paper §5.1: ME maximizes this).
    pub fn entropy(&self, store: &SequenceStore) -> f64 {
        let mut counts = vec![0u64; self.len()];
        let mut total = 0u64;
        for (_, s) in store.iter() {
            for &v in s.values() {
                counts[self.symbol_for(v) as usize] += 1;
                total += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.ln()
            })
            .sum()
    }
}

/// The categorized database: one symbol sequence per stored sequence,
/// aligned with the [`SequenceStore`] ids.
#[derive(Debug, Clone)]
pub struct CatStore {
    seqs: Vec<Vec<Symbol>>,
    alphabet_len: u32,
}

impl CatStore {
    /// Builds a categorized store directly from symbol sequences (used in
    /// tests and by the disk corpus loader).
    pub fn from_symbols(seqs: Vec<Vec<Symbol>>, alphabet_len: u32) -> Self {
        for s in &seqs {
            for &sym in s {
                assert!(sym < alphabet_len, "symbol out of alphabet range");
            }
        }
        Self { seqs, alphabet_len }
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// `true` when no sequences are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Size of the alphabet the symbols were drawn from.
    #[inline]
    pub fn alphabet_len(&self) -> u32 {
        self.alphabet_len
    }

    /// The categorized sequence for id `seq`.
    #[inline]
    pub fn seq(&self, seq: crate::sequence::SeqId) -> &[Symbol] {
        &self.seqs[seq.0 as usize]
    }

    /// All categorized sequences, indexable by `SeqId.0`.
    #[inline]
    pub fn seqs(&self) -> &[Vec<Symbol>] {
        &self.seqs
    }

    /// Total number of symbols stored.
    pub fn total_len(&self) -> u64 {
        self.seqs.iter().map(|s| s.len() as u64).sum()
    }

    /// Length of the run of equal symbols starting at `start` in sequence
    /// `seq` (the `N` of Definition 4). Returns 0 when `start` is out of
    /// range.
    pub fn run_len(&self, seq: crate::sequence::SeqId, start: u32) -> u32 {
        let s = self.seq(seq);
        let start = start as usize;
        if start >= s.len() {
            return 0;
        }
        let sym = s[start];
        let mut n = 1u32;
        for &x in &s[start + 1..] {
            if x != sym {
                break;
            }
            n += 1;
        }
        n
    }

    /// `true` when the suffix starting at `start` is *stored* in the sparse
    /// suffix tree (paper §6.1): its first symbol differs from the
    /// immediately preceding symbol (or it is the first suffix).
    pub fn is_stored_suffix(&self, seq: crate::sequence::SeqId, start: u32) -> bool {
        let s = self.seq(seq);
        let start = start as usize;
        if start >= s.len() {
            return false;
        }
        start == 0 || s[start] != s[start - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SeqId;

    fn store(vals: &[&[f64]]) -> SequenceStore {
        SequenceStore::from_values(vals.iter().map(|v| v.to_vec()))
    }

    #[test]
    fn equal_length_splits_range_evenly() {
        let st = store(&[&[0.0, 10.0]]);
        let a = Alphabet::equal_length(&st, 5).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.method(), CategorizationMethod::EqualLength);
        for (i, c) in a.categories().iter().enumerate() {
            assert!((c.lo - 2.0 * i as f64).abs() < 1e-12);
        }
        assert_eq!(a.symbol_for(0.0), 0);
        assert_eq!(a.symbol_for(1.99), 0);
        assert_eq!(a.symbol_for(2.0), 1);
        assert_eq!(a.symbol_for(10.0), 4); // max clamps into last category
        assert_eq!(a.symbol_for(-5.0), 0); // below range clamps
        assert_eq!(a.symbol_for(50.0), 4); // above range clamps
    }

    #[test]
    fn equal_length_constant_data_one_category() {
        let st = store(&[&[3.0, 3.0, 3.0]]);
        let a = Alphabet::equal_length(&st, 10).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.symbol_for(3.0), 0);
    }

    #[test]
    fn zero_categories_is_error() {
        let st = store(&[&[1.0]]);
        assert_eq!(
            Alphabet::equal_length(&st, 0),
            Err(CoreError::ZeroCategories)
        );
        assert_eq!(
            Alphabet::max_entropy(&st, 0),
            Err(CoreError::ZeroCategories)
        );
    }

    #[test]
    fn empty_database_is_error() {
        let st = SequenceStore::new();
        assert_eq!(
            Alphabet::equal_length(&st, 3),
            Err(CoreError::EmptyDatabase)
        );
        assert_eq!(Alphabet::max_entropy(&st, 3), Err(CoreError::EmptyDatabase));
        assert_eq!(Alphabet::singleton(&st), Err(CoreError::EmptyDatabase));
    }

    #[test]
    fn max_entropy_balances_counts() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let st = store(&[&vals]);
        let a = Alphabet::max_entropy(&st, 4).unwrap();
        assert_eq!(a.len(), 4);
        let mut counts = vec![0usize; 4];
        for v in 0..100 {
            counts[a.symbol_for(v as f64) as usize] += 1;
        }
        for c in counts {
            assert_eq!(c, 25);
        }
    }

    #[test]
    fn max_entropy_never_splits_ties() {
        // 90 copies of 1.0 and 10 of 2.0: a 2-way ME split must put all the
        // 1.0s in one category.
        let mut vals = vec![1.0; 90];
        vals.extend(vec![2.0; 10]);
        let st = store(&[&vals]);
        let a = Alphabet::max_entropy(&st, 2).unwrap();
        assert!(a.len() <= 2);
        assert_ne!(a.symbol_for(1.0), a.symbol_for(2.0));
    }

    #[test]
    fn max_entropy_has_higher_entropy_than_equal_length_on_skewed_data() {
        // Heavily skewed data: EL wastes categories on the empty tail.
        let mut vals: Vec<f64> = (0..1000).map(|i| (i as f64 / 100.0).exp()).collect();
        vals.push(1e6);
        let st = store(&[&vals]);
        let el = Alphabet::equal_length(&st, 8).unwrap();
        let me = Alphabet::max_entropy(&st, 8).unwrap();
        assert!(me.entropy(&st) > el.entropy(&st));
    }

    #[test]
    fn singleton_is_exact() {
        let st = store(&[&[3.0, 1.0, 4.0, 1.0, 5.0]]);
        let a = Alphabet::singleton(&st).unwrap();
        assert_eq!(a.len(), 4); // distinct values: 1,3,4,5
        for &v in [1.0, 3.0, 4.0, 5.0].iter() {
            let s = a.symbol_for(v);
            let c = a.category(s);
            assert_eq!(c.lb, v);
            assert_eq!(c.ub, v);
            assert_eq!(a.base_lb(v, s), 0.0);
        }
        // base_lb degenerates to exact city-block distance.
        let s4 = a.symbol_for(4.0);
        assert!((a.base_lb(2.5, s4) - 1.5).abs() < 1e-12);
        assert!((a.base_lb(9.0, s4) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn kmeans_produces_ordered_covering() {
        let vals: Vec<f64> = (0..50)
            .map(|i| if i < 25 { i as f64 } else { 100.0 + i as f64 })
            .collect();
        let st = store(&[&vals]);
        let a = Alphabet::kmeans(&st, 2, 20).unwrap();
        assert_eq!(a.len(), 2);
        // The two obvious clusters should land in different categories.
        assert_ne!(a.symbol_for(10.0), a.symbol_for(120.0));
        for w in a.categories().windows(2) {
            assert!(w[0].hi <= w[1].lo + 1e-12);
        }
    }

    #[test]
    fn refine_tightens_bounds() {
        let st = store(&[&[0.5, 1.5, 9.5]]);
        let a = Alphabet::equal_length(&st, 2).unwrap();
        // Category 0 nominally [0.5, 5.0) but observes only {0.5, 1.5}.
        let c0 = a.category(a.symbol_for(0.5));
        assert_eq!(c0.lb, 0.5);
        assert_eq!(c0.ub, 1.5);
        // So base_lb(3.0, cat0) uses the observed ub 1.5, not nominal 5.0.
        assert!((a.base_lb(3.0, a.symbol_for(0.5)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn encode_and_catstore() {
        let st = store(&[&[5.27, 2.56, 3.85], &[2.0, 2.0, 8.0]]);
        // Mirrors the paper's example: C1=[0.1,3.9], C2=[4.0,10.0].
        let a = Alphabet::equal_length(&st, 2).unwrap();
        let cs = a.encode_store(&st);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.alphabet_len(), 2);
        let s0 = cs.seq(SeqId(0));
        assert_eq!(s0[0], 1); // 5.27 -> high category
        assert_eq!(s0[1], 0);
        assert_eq!(s0[2], 0);
        assert_eq!(cs.total_len(), 6);
    }

    #[test]
    fn run_len_and_stored_suffixes() {
        // CS_8 = <C1,C1,C1,C3,C2,C2> from paper §6.1: stored suffixes are
        // positions 1, 4, 5 (1-based) = 0, 3, 4 (0-based).
        let cs = CatStore::from_symbols(vec![vec![0, 0, 0, 2, 1, 1]], 3);
        let id = SeqId(0);
        assert_eq!(cs.run_len(id, 0), 3);
        assert_eq!(cs.run_len(id, 1), 2);
        assert_eq!(cs.run_len(id, 3), 1);
        assert_eq!(cs.run_len(id, 4), 2);
        assert_eq!(cs.run_len(id, 6), 0);
        let stored: Vec<u32> = (0..6).filter(|&p| cs.is_stored_suffix(id, p)).collect();
        assert_eq!(stored, vec![0, 3, 4]);
        assert!(!cs.is_stored_suffix(id, 6));
    }

    #[test]
    #[should_panic(expected = "out of alphabet range")]
    fn catstore_rejects_out_of_range_symbols() {
        let _ = CatStore::from_symbols(vec![vec![0, 5]], 3);
    }

    #[test]
    fn entropy_of_uniform_is_log_c() {
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let st = store(&[&vals]);
        let a = Alphabet::max_entropy(&st, 4).unwrap();
        assert!((a.entropy(&st) - 4.0f64.ln()).abs() < 1e-9);
    }
}
