//! The unified suffix-tree filter (`Filter-ST` / `Filter-ST_C` /
//! `Filter-SST_C`, paper Algorithms 2, 3 and §6.3).
//!
//! One traversal serves all three indexes:
//!
//! * With a **singleton alphabet**, `D_base-lb` is the exact city-block
//!   distance, so the filter computes exact `D_tw` — the paper's
//!   `Filter-ST` over the plain suffix tree.
//! * With a real categorization, the filter computes `D_tw-lb`
//!   (Definition 3) — `Filter-ST_C`.
//! * When the index reports itself sparse, the filter additionally emits
//!   candidates for the *non-stored* suffixes via `D_tw-lb2`
//!   (Definition 4) and relaxes Theorem-1 pruning accordingly —
//!   `Filter-SST_C`.
//!
//! The traversal shares one incrementally grown [`WarpTable`] across all
//! suffixes with a common prefix (the paper's `R_d` saving) and prunes
//! subtrees by Theorem 1 (the `R_p` saving).

use crate::categorize::{Alphabet, Symbol};
use crate::dtw::WarpTable;
use crate::search::answers::{Candidate, SearchParams};
use crate::search::backend::{IndexBackend, NodeVisit};
use crate::search::metrics::SearchMetrics;
use crate::sequence::{Occurrence, SeqId, Value};

/// State carried down the traversal that must be restored on backtrack —
/// cheap to copy, so recursion restores it for free.
#[derive(Clone, Copy)]
struct PathState {
    /// Current depth == rows in the table.
    depth: u32,
    /// First symbol of the path (valid when `depth > 0`).
    first: Symbol,
    /// `D_base-lb(Q[1], first)`, the `d₁` of Definition 4.
    dbase1: f64,
    /// Length of the leading run of the path label.
    lead: u32,
    /// `true` while the whole path is still one run (`lead == depth`).
    in_run: bool,
}

/// The per-query table of base rows: `row(sym)[x] = base(Q[x], sym)`,
/// filled the first time the traversal meets `sym`. A traversal meets
/// the same few symbols at every depth (and in runs along an edge), so
/// the base distance — a closure call and, for a real alphabet, two
/// compares — is paid `|Q|` times per *symbol*, and a table row becomes
/// one pass over two contiguous slices.
///
/// Nothing is sized by the alphabet: rows are appended as symbols turn
/// up, and the symbol → row map grows to the largest symbol met, so the
/// large grid alphabets of the multivariate search and arbitrary `base`
/// closures cost what they use.
struct BaseRows {
    /// `1 +` the symbol's row number in `rows`; `0` while unmet.
    slot: Vec<u32>,
    /// The filled rows back to back, `|Q|` values each.
    rows: Vec<f64>,
}

impl BaseRows {
    fn new() -> Self {
        Self {
            slot: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn row<B: Fn(Value, Symbol) -> f64>(
        &mut self,
        sym: Symbol,
        query: &[Value],
        base: &B,
    ) -> &[f64] {
        let (s, n) = (sym as usize, query.len());
        if s >= self.slot.len() {
            self.slot.resize(s + 1, 0);
        }
        if self.slot[s] == 0 {
            self.rows.extend(query.iter().map(|&q| base(q, sym)));
            self.slot[s] = (self.rows.len() / n) as u32;
        }
        let at = (self.slot[s] as usize - 1) * n;
        &self.rows[at..at + n]
    }
}

struct FilterCtx<'a, T: IndexBackend, B: Fn(Value, Symbol) -> f64> {
    tree: &'a T,
    /// Base lower-bound distance between a query element (as stored in
    /// the table's query row) and a data symbol.
    base: &'a B,
    params: &'a SearchParams,
    sparse: bool,
    max_len: Option<u32>,
    min_len: u32,
    table: WarpTable,
    rows: BaseRows,
    /// The children of every node on the current path, innermost last:
    /// the one buffer [`IndexBackend::visit`] appends to, truncated on
    /// backtrack like the table.
    kids: Vec<T::Node>,
    out: Vec<Candidate>,
    metrics: &'a SearchMetrics,
}

impl<'a, T: IndexBackend, B: Fn(Value, Symbol) -> f64> FilterCtx<'a, T, B> {
    /// A context over `table` with nothing emitted yet — the caller's,
    /// or a parallel fork's over its copy of the shared prefix.
    fn new(
        tree: &'a T,
        base: &'a B,
        params: &'a SearchParams,
        table: WarpTable,
        metrics: &'a SearchMetrics,
    ) -> Self {
        let query_len = table.query().len();
        FilterCtx {
            tree,
            base,
            params,
            sparse: tree.is_sparse(),
            max_len: params.effective_max_len(query_len),
            min_len: params.effective_min_len(query_len),
            table,
            rows: BaseRows::new(),
            kids: Vec::new(),
            out: Vec::new(),
            metrics,
        }
    }
}

/// Runs the lower-bound filter over the index, returning every candidate
/// occurrence whose lower-bound distance to `query` is `≤ ε`.
///
/// Candidates must be verified by
/// [`postprocess`](crate::search::postprocess::postprocess) unless the
/// alphabet is singleton (exact).
///
/// # Panics
/// Panics if the query is empty or ε is invalid (use
/// [`SearchParams::validate`] to pre-check).
pub fn filter_tree<T: IndexBackend + Sync>(
    tree: &T,
    alphabet: &Alphabet,
    query: &[Value],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> Vec<Candidate> {
    filter_tree_with(
        tree,
        &|q, sym| alphabet.base_lb(q, sym),
        query,
        params,
        metrics,
    )
}

/// Generalized filter: like [`filter_tree`] but with an arbitrary base
/// lower-bound function over `(query element, symbol)` pairs.
///
/// This is the hook the multivariate extension uses: its "query" is a
/// sequence of point *indices* and `base` resolves them against grid
/// cells. Any `base` that lower-bounds the true base distance yields a
/// filter with no false dismissals (Theorem 2's argument is agnostic to
/// where the bound comes from).
///
/// With `params.threads > 1` the traversal forks at the root's (and,
/// when the root is narrow, the depth-2) subtrees across worker threads;
/// each fork clones the shared cumulative-table prefix so Theorem-1
/// pruning and `R_d` sharing are preserved per branch, and candidates
/// join in depth-first order — the result (and every counter total) is
/// byte-identical to the sequential traversal.
pub fn filter_tree_with<T: IndexBackend + Sync, B: Fn(Value, Symbol) -> f64 + Sync>(
    tree: &T,
    base: &B,
    query: &[Value],
    params: &SearchParams,
    metrics: &SearchMetrics,
) -> Vec<Candidate> {
    params
        .validate(query.len())
        .expect("invalid search parameters");
    if let Some(limit) = tree.depth_limit() {
        // A truncated index (paper §8) only holds suffix prefixes: the
        // query must bound its answer length within the stored depth.
        let max = params
            .effective_max_len(query.len())
            .expect("truncated index requires a bounded answer length");
        assert!(
            max <= limit,
            "answer-length bound {max} exceeds the index's depth limit              {limit}"
        );
    }
    // Sparse trees traverse with an *unwindowed* table even when a
    // warping window is requested: the shifted (non-stored) suffixes of
    // Definition 4 live at table rows beyond |Q| + w, where a windowed
    // table is all-infinite. The unconstrained lower bound remains valid
    // (banding a table can only raise distances), and the window is
    // enforced exactly during post-processing.
    let table_window = if tree.is_sparse() {
        None
    } else {
        params.window
    };
    let table = WarpTable::new(query, table_window);
    let mut ctx = FilterCtx::new(tree, base, params, table, metrics);
    let root = tree.root();
    let state = PathState {
        depth: 0,
        first: 0,
        dbase1: 0.0,
        lead: 0,
        in_run: true,
    };
    let threads = params.threads.max(1) as usize;
    if threads > 1 {
        descend_parallel(&mut ctx, root, state, threads);
    } else {
        tree.visit(root, &mut ctx.kids);
        let root_children = 0..ctx.kids.len();
        if ctx.metrics.trace.is_active() {
            descend_root_traced(&mut ctx, root_children, state);
        } else {
            descend(&mut ctx, root_children, state);
        }
    }
    ctx.metrics.filter_cells.add(ctx.table.cells_computed());
    ctx.metrics.candidates.add(ctx.out.len() as u64);
    ctx.out
}

/// One iteration of [`descend`]'s child loop, without the backtracking
/// truncates: the unit of work a parallel fork executes for its subtree
/// root (the fork's table and child buffer are discarded afterwards, so
/// nothing needs restoring).
fn visit_child<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    child: T::Node,
    state: PathState,
) {
    ctx.metrics.nodes_visited.incr();
    let below = ctx.kids.len();
    let visit = ctx.tree.visit(child, &mut ctx.kids);
    if let Some(next) = walk_edge(ctx, child, state, &visit) {
        ctx.metrics.nodes_expanded.incr();
        descend(ctx, below..ctx.kids.len(), next);
    }
}

/// Parallel traversal: forks the tree at root-level subtrees — or, when
/// the root has fewer children than workers, walks each root edge on
/// the caller's table and forks at the depth-2 subtrees instead — and
/// runs each fork on the work-stealing pool.
///
/// Each fork gets a [`WarpTable::fork`] of the shared prefix (so
/// Theorem-1 pruning and row sharing behave exactly as in the
/// sequential traversal) and a scratch metrics bundle merged at the
/// join. Candidates are re-assembled in depth-first order: for each
/// root child, the candidates its edge emitted during fork discovery,
/// then its forks' candidates in child order.
fn descend_parallel<T: IndexBackend + Sync, B: Fn(Value, Symbol) -> f64 + Sync>(
    ctx: &mut FilterCtx<'_, T, B>,
    root: T::Node,
    state: PathState,
    threads: usize,
) {
    let mut children = Vec::new();
    ctx.tree.visit(root, &mut children);
    let expand = children.len() < threads;
    // The forked tasks, and per root child the (prefix-candidate end,
    // task end) watermarks used to stitch the output back together.
    let mut tasks: Vec<(T::Node, PathState, WarpTable)> = Vec::new();
    let mut segments: Vec<(usize, usize)> = Vec::with_capacity(children.len());
    for child in children {
        if expand {
            ctx.metrics.nodes_visited.incr();
            let visit = ctx.tree.visit(child, &mut ctx.kids);
            if let Some(next) = walk_edge(ctx, child, state, &visit) {
                ctx.metrics.nodes_expanded.incr();
                for &g in &ctx.kids {
                    tasks.push((g, next, ctx.table.fork()));
                }
            }
            ctx.kids.clear();
            ctx.table.truncate(state.depth);
        } else {
            tasks.push((child, state, ctx.table.fork()));
        }
        segments.push((ctx.out.len(), tasks.len()));
    }
    let (tree, base, params, metrics) = (ctx.tree, ctx.base, ctx.params, ctx.metrics);
    let (results, scratches) = crate::parallel::parallel_map_with(
        threads,
        tasks,
        || metrics.scratch(),
        |scratch, _i, (node, state, table)| {
            // Under an active trace each fork gets its own span (noop
            // otherwise — one inlined branch, per the obs contract);
            // forks run concurrently, so spans overlap rather than
            // partition the filter's wall time.
            let span = scratch.trace_span("filter.task");
            let mut fork_ctx = FilterCtx::new(tree, base, params, table, scratch);
            visit_child(&mut fork_ctx, node, state);
            if span.is_active() {
                if let Some(seg) = tree.segment_hint(node) {
                    span.attr_u64("segment", seg as u64);
                }
                span.attr_u64("candidates", fork_ctx.out.len() as u64);
                span.attr_u64("cells", fork_ctx.table.cells_computed());
            }
            (fork_ctx.out, fork_ctx.table.cells_computed())
        },
    );
    for scratch in &scratches {
        metrics.record(&scratch.snapshot());
    }
    metrics
        .filter_cells
        .add(results.iter().map(|(_, cells)| *cells).sum());
    // Stitch: per root child, prefix candidates then fork outputs.
    let prefix = std::mem::take(&mut ctx.out);
    let (mut prev_out, mut prev_task) = (0usize, 0usize);
    for (out_end, task_end) in segments {
        ctx.out.extend_from_slice(&prefix[prev_out..out_end]);
        for (cands, _) in &results[prev_task..task_end] {
            ctx.out.extend_from_slice(cands);
        }
        (prev_out, prev_task) = (out_end, task_end);
    }
}

/// Sequential root traversal under an active trace: identical work (and
/// work *order*) to [`descend`] over the root's children
/// `ctx.kids[children]`, but with runs of root children sharing a
/// [`segment_hint`](IndexBackend::segment_hint) grouped under a
/// `filter.segment` span carrying that run's counter deltas. Over a
/// single-segment index the whole root becomes one anonymous
/// `filter.segment` span.
fn descend_root_traced<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    children: std::ops::Range<usize>,
    state: PathState,
) {
    let (mut i, end) = (children.start, children.end);
    while i < end {
        let seg = ctx.tree.segment_hint(ctx.kids[i]);
        let mut j = i + 1;
        while j < end && ctx.tree.segment_hint(ctx.kids[j]) == seg {
            j += 1;
        }
        let span = ctx.metrics.trace_span("filter.segment");
        if let Some(s) = seg {
            span.attr_u64("segment", s as u64);
        }
        let (out_before, before) = (ctx.out.len(), ctx.metrics.snapshot());
        descend(ctx, i..j, state);
        let d = ctx.metrics.snapshot();
        span.attr_u64("root_children", (j - i) as u64);
        span.attr_u64("nodes_visited", d.nodes_visited - before.nodes_visited);
        span.attr_u64(
            "branches_pruned",
            d.branches_pruned - before.branches_pruned,
        );
        span.attr_u64("rows_pushed", d.rows_pushed - before.rows_pushed);
        span.attr_u64("candidates", (ctx.out.len() - out_before) as u64);
        i = j;
    }
}

/// Walks the subtrees under the siblings `ctx.kids[siblings]` — the
/// children of the node the traversal stands on, or a run of them.
/// Everything past them in the buffer belongs to the subtree being
/// walked and is dropped on the way back up.
fn descend<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    siblings: std::ops::Range<usize>,
    state: PathState,
) {
    let end = ctx.kids.len();
    for i in siblings {
        let child = ctx.kids[i];
        visit_child(ctx, child, state);
        // Backtrack: drop this edge's rows and the subtree's children.
        ctx.kids.truncate(end);
        ctx.table.truncate(state.depth);
    }
}

/// Consumes the edge label into `child` one symbol at a time, emitting
/// candidates and applying Theorem-1 pruning. Returns the state at the
/// child when traversal should continue below it, `None` when pruned.
fn walk_edge<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    child: T::Node,
    mut state: PathState,
    visit: &NodeVisit<'_>,
) -> Option<PathState> {
    let epsilon = ctx.params.epsilon;
    // Suffixes below `child`, fetched lazily on the first qualifying row
    // and reused for every further row of this edge (adjacent rows often
    // both qualify, and re-walking the subtree per row is the dominant
    // cost at large ε).
    let mut leaves: Option<Vec<(SeqId, u32, u32)>> = None;
    // Cap on the run shift below this edge while the path is still one
    // run: the longest stored-suffix leading run below (Definition 4's
    // p−1 bound can grow up to it). Once the run ends, the cap drops to
    // the now-frozen `lead − 1` (recomputed per symbol below).
    let run_cap = if ctx.sparse { visit.max_lead_run } else { 0 };
    // A sparse tree may usefully descend past the answer-length cap: a
    // row at depth r still yields shifted candidates of length r − k.
    let depth_allowance = if ctx.sparse {
        run_cap.saturating_sub(1)
    } else {
        0
    };
    // Weight of each row pushed along this edge in the `R_d` metric:
    // the number of stored suffixes sharing it. Fetched only when the
    // metric is live and the index can answer cheaply.
    let unshared_weight = if ctx.metrics.rows_unshared.is_active() {
        visit.suffix_count.unwrap_or(0)
    } else {
        0
    };
    for &sym in visit.label {
        if let Some(m) = ctx.max_len {
            if state.depth as u64 >= m as u64 + depth_allowance as u64 {
                // Deeper rows cannot yield any in-range answer length.
                ctx.metrics.branches_pruned.incr();
                return None;
            }
        }
        if ctx.table.next_row_out_of_band() {
            ctx.metrics.branches_pruned.incr();
            return None;
        }
        let row = ctx.rows.row(sym, ctx.table.query(), ctx.base);
        if state.depth == 0 {
            state.first = sym;
            state.dbase1 = row[0];
            state.lead = 1;
            state.in_run = true;
        } else if state.in_run && sym == state.first {
            state.lead += 1;
        } else {
            state.in_run = false;
        }
        let stat = ctx.table.push_base_row(row);
        state.depth += 1;
        ctx.metrics.rows_pushed.incr();
        ctx.metrics.rows_unshared.add(unshared_weight);
        let r = state.depth;

        let (min_len, max_len) = (ctx.min_len, ctx.max_len);
        let len_ok = move |len: u32| len >= min_len && max_len.is_none_or(|m| len <= m);
        // Candidate emission: stored suffixes (D_tw-lb)...
        if stat.dist <= epsilon && len_ok(r) {
            emit(ctx, child, &mut leaves, 0, r, stat.dist);
        }
        // ...and, for sparse trees, non-stored suffixes (D_tw-lb2).
        if ctx.sparse {
            let max_k = state.lead.saturating_sub(1).min(r - 1);
            for k in 1..=max_k {
                let lb2 = stat.dist - k as f64 * state.dbase1;
                if lb2 <= epsilon && len_ok(r - k) {
                    emit(ctx, child, &mut leaves, k, r, lb2);
                }
            }
        }

        // Theorem-1 pruning, relaxed by the largest possible run shift
        // below (Theorem 3 keeps this free of false dismissals).
        let max_shift_below = if !ctx.sparse {
            0
        } else if state.in_run {
            run_cap.saturating_sub(1)
        } else {
            state.lead.saturating_sub(1)
        };
        let relax = max_shift_below as f64 * state.dbase1;
        if stat.min - relax > epsilon {
            ctx.metrics.branches_pruned.incr();
            return None;
        }
    }
    Some(state)
}

/// Emits one candidate per stored suffix below `child`, shifted `k`
/// symbols into its leading run (`k == 0` for the stored suffix itself).
/// The suffix list is materialized once per edge into `leaves`.
fn emit<T: IndexBackend, B: Fn(Value, Symbol) -> f64>(
    ctx: &mut FilterCtx<'_, T, B>,
    child: T::Node,
    leaves: &mut Option<Vec<(SeqId, u32, u32)>>,
    k: u32,
    r: u32,
    lower_bound: f64,
) {
    let list = leaves.get_or_insert_with(|| {
        let mut v = Vec::new();
        ctx.tree
            .for_each_suffix_below(child, &mut |seq, start, run| v.push((seq, start, run)));
        v
    });
    // Funnel accounting: Definition 3 (stored) vs Definition 4
    // (shifted, sparse only) emissions.
    if k == 0 {
        ctx.metrics.stored_candidates.add(list.len() as u64);
    } else {
        ctx.metrics.lb2_candidates.add(list.len() as u64);
    }
    for &(seq, start, run) in list.iter() {
        // `k < run` always holds by the run-structure argument (see
        // DESIGN.md §5); assert it in debug builds.
        debug_assert!(k == 0 || k < run);
        let _ = run;
        ctx.out.push(Candidate {
            occ: Occurrence::new(seq, start + k, r - k),
            lower_bound,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorize::CatStore;

    /// A tiny hand-built tree for unit-testing the filter without the
    /// `warptree-suffix` crate (which depends on this one).
    type ToyNode = (Vec<Symbol>, Vec<usize>, Vec<(SeqId, u32, u32)>);

    struct ToyTree {
        /// node -> (edge label, children, suffix labels (seq, start, run))
        nodes: Vec<ToyNode>,
        sparse: bool,
    }

    impl ToyTree {
        /// Builds a naive tree holding the given suffixes of `cs`.
        fn build(cs: &CatStore, suffixes: &[(u32, u32)], sparse: bool) -> Self {
            let mut t = ToyTree {
                nodes: vec![(Vec::new(), Vec::new(), Vec::new())],
                sparse,
            };
            for &(seq, start) in suffixes {
                let id = SeqId(seq);
                let symbols: Vec<Symbol> = cs.seq(id)[start as usize..].to_vec();
                let run = cs.run_len(id, start);
                t.insert(&symbols, (id, start, run));
            }
            t
        }

        /// Inserts one suffix, creating single-symbol edges (a trie, which
        /// is a valid if uncompacted suffix tree for the trait contract).
        fn insert(&mut self, symbols: &[Symbol], label: (SeqId, u32, u32)) {
            let mut node = 0usize;
            for &s in symbols {
                let found = self.nodes[node]
                    .1
                    .iter()
                    .copied()
                    .find(|&c| self.nodes[c].0 == [s]);
                node = match found {
                    Some(c) => c,
                    None => {
                        let c = self.nodes.len();
                        self.nodes.push((vec![s], Vec::new(), Vec::new()));
                        self.nodes[node].1.push(c);
                        c
                    }
                };
            }
            self.nodes[node].2.push(label);
        }
    }

    impl IndexBackend for ToyTree {
        type Node = usize;
        fn root(&self) -> usize {
            0
        }
        fn visit(&self, n: usize, children: &mut impl Extend<usize>) -> NodeVisit<'_> {
            children.extend(self.nodes[n].1.iter().copied());
            let mut max_lead_run = 0;
            self.for_each_suffix_below(n, &mut |_, _, r| max_lead_run = max_lead_run.max(r));
            NodeVisit {
                label: &self.nodes[n].0,
                max_lead_run,
                suffix_count: None,
            }
        }
        fn for_each_suffix_below(&self, n: usize, f: &mut dyn FnMut(SeqId, u32, u32)) {
            for &(s, p, r) in &self.nodes[n].2 {
                f(s, p, r);
            }
            for &c in &self.nodes[n].1 {
                self.for_each_suffix_below(c, f);
            }
        }
        fn is_sparse(&self) -> bool {
            self.sparse
        }
        fn suffix_count(&self) -> u64 {
            let mut n = 0;
            self.for_each_suffix_below(0, &mut |_, _, _| n += 1);
            n
        }
    }

    fn singleton_setup(
        values: Vec<Vec<f64>>,
    ) -> (crate::sequence::SequenceStore, Alphabet, CatStore) {
        let store = crate::sequence::SequenceStore::from_values(values);
        let a = Alphabet::singleton(&store).unwrap();
        let cs = a.encode_store(&store);
        (store, a, cs)
    }

    #[test]
    fn exact_filter_finds_exact_matches() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0, 2.0, 3.0, 2.0]]);
        let suffixes: Vec<(u32, u32)> = (0..4).map(|p| (0, p)).collect();
        let tree = ToyTree::build(&cs, &suffixes, false);
        assert_eq!(tree.suffix_count(), 4);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.0);
        let q = [2.0, 3.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        // With ε = 0 and exact base distances, only true warped matches
        // survive: S[2:3] = <2,3> and its warped extensions <2,3,?>... none
        // here; prefix matches: <2>, no (dist 1 > 0). Expect the exact
        // occurrence (0, 1, 2) plus any zero-distance warpings.
        let occs: Vec<Occurrence> = cands.iter().map(|c| c.occ).collect();
        assert!(occs.contains(&Occurrence::new(SeqId(0), 1, 2)));
        for c in &cands {
            assert_eq!(c.lower_bound, 0.0);
        }
    }

    #[test]
    fn pruning_reduces_rows() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0, 100.0, 100.0, 100.0, 100.0]]);
        let suffixes: Vec<(u32, u32)> = (0..5).map(|p| (0, p)).collect();
        let tree = ToyTree::build(&cs, &suffixes, false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.5);
        let q = [1.0, 1.0];
        let _ = filter_tree(&tree, &a, &q, &params, &m);
        // The 100-branches must be cut immediately (first row min = 99).
        assert!(m.snapshot().branches_pruned >= 1);
        assert!(m.snapshot().rows_pushed < 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn max_len_caps_depth() {
        let (_store, a, cs) = singleton_setup(vec![vec![5.0; 10]]);
        let suffixes: Vec<(u32, u32)> = (0..10).map(|p| (0, p)).collect();
        let tree = ToyTree::build(&cs, &suffixes, false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(1e9).length_range(1, 3);
        let q = [5.0, 5.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        assert!(cands.iter().all(|c| c.occ.len <= 3));
        assert!(!cands.is_empty());
    }

    #[test]
    fn min_len_skips_short_answers() {
        let (_store, a, cs) = singleton_setup(vec![vec![5.0; 6]]);
        let suffixes: Vec<(u32, u32)> = (0..6).map(|p| (0, p)).collect();
        let tree = ToyTree::build(&cs, &suffixes, false);
        let m = SearchMetrics::new();
        let mut params = SearchParams::with_epsilon(1e9);
        params.min_len = 4;
        let q = [5.0, 5.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        assert!(cands.iter().all(|c| c.occ.len >= 4));
        assert!(!cands.is_empty());
    }

    #[test]
    fn sparse_filter_reaches_non_stored_suffixes() {
        // One sequence of five equal values: the sparse tree stores only
        // the first suffix, yet all shifted subsequences must surface.
        let (_store, a, cs) = singleton_setup(vec![vec![7.0; 5]]);
        let tree = ToyTree::build(&cs, &[(0, 0)], true);
        assert_eq!(tree.suffix_count(), 1);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.0);
        let q = [7.0, 7.0];
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        let mut occs: Vec<Occurrence> = cands.iter().map(|c| c.occ).collect();
        occs.sort();
        occs.dedup();
        // Every subsequence of <7,7,7,7,7> warps onto <7,7> at distance 0:
        // 5 + 4 + 3 + 2 + 1 = 15 occurrences.
        assert_eq!(occs.len(), 15);
        assert!(occs.contains(&Occurrence::new(SeqId(0), 3, 2)));
        assert!(occs.contains(&Occurrence::new(SeqId(0), 4, 1)));
    }

    #[test]
    fn sparse_shift_uses_lb2_slack() {
        // Category bounds make d₁ > 0; a shifted suffix can qualify even
        // when the stored path distance exceeds ε.
        let store = crate::sequence::SequenceStore::from_values(vec![vec![0.0, 0.0, 10.0]]);
        let a = Alphabet::equal_length(&store, 2).unwrap();
        let cs = a.encode_store(&store);
        assert_eq!(cs.seq(SeqId(0)), &[0, 0, 1]);
        let tree = ToyTree::build(&cs, &[(0, 0), (0, 2)], true);
        // d₁ = D_base-lb(3, C0) = 3 (C0 observed = [0, 0]). The stored
        // path <C0, C0> has lb 3 (warping absorbs the second 0 against
        // q[2] = 0), so at ε = 0 no stored candidate is emitted at depth
        // 2 — but the k = 1 shift gives lb2 = 3 − 3 = 0 ≤ ε, surfacing the
        // non-stored suffix's subsequence (0, 1, 1).
        let q = [3.0, 0.0];
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(0.0);
        let cands = filter_tree(&tree, &a, &q, &params, &m);
        let occs: Vec<Occurrence> = cands.iter().map(|c| c.occ).collect();
        assert!(occs.contains(&Occurrence::new(SeqId(0), 1, 1)));
        assert!(!occs.contains(&Occurrence::new(SeqId(0), 0, 1)));
        assert!(!occs.contains(&Occurrence::new(SeqId(0), 0, 2)));
    }

    #[test]
    fn parallel_filter_is_byte_identical_to_sequential() {
        // Dense and sparse trees, narrow and bushy roots: candidates
        // (values AND order) and every counter must match sequential
        // for every thread count.
        let values = vec![
            vec![1.0, 2.0, 3.0, 2.0, 2.0, 2.0, 7.0],
            vec![2.0, 2.0, 5.0, 5.0, 5.0, 1.0],
            vec![9.0, 9.0, 9.0, 9.0],
        ];
        let store = crate::sequence::SequenceStore::from_values(values);
        let a = Alphabet::equal_length(&store, 3).unwrap();
        let cs = a.encode_store(&store);
        for sparse in [false, true] {
            let mut suffixes = Vec::new();
            for (id, s) in cs.seqs().iter().enumerate() {
                for p in 0..s.len() as u32 {
                    if !sparse || cs.is_stored_suffix(SeqId(id as u32), p) {
                        suffixes.push((id as u32, p));
                    }
                }
            }
            let tree = ToyTree::build(&cs, &suffixes, sparse);
            let q = [2.0, 2.0, 5.0];
            for eps in [0.0, 2.0, 10.0] {
                let m1 = SearchMetrics::new();
                let base = SearchParams::with_epsilon(eps);
                let seq_cands = filter_tree(&tree, &a, &q, &base, &m1);
                for threads in [2u32, 3, 8] {
                    let mp = SearchMetrics::new();
                    let par_cands =
                        filter_tree(&tree, &a, &q, &base.clone().parallel(threads), &mp);
                    assert_eq!(
                        seq_cands, par_cands,
                        "sparse={sparse} eps={eps} t={threads}"
                    );
                    assert_eq!(
                        m1.snapshot(),
                        mp.snapshot(),
                        "sparse={sparse} eps={eps} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid search parameters")]
    fn invalid_params_panic() {
        let (_store, a, cs) = singleton_setup(vec![vec![1.0]]);
        let tree = ToyTree::build(&cs, &[(0, 0)], false);
        let m = SearchMetrics::new();
        let params = SearchParams::with_epsilon(-1.0);
        let _ = filter_tree(&tree, &a, &[1.0], &params, &m);
    }
}
